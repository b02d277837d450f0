"""The four zel command lines the benchmark runs, and their output checks.

Each workload's reference output was captured once from the seed and
lives in perfbench/reference/<name>.out (see capture_reference.py).  A
sample passes when `check(workload, exit_code, output)` returns no
problems; determinism across samples is checked by the caller on the
normalised bytes.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# floats in CSV outputs must match the reference to this relative error;
# for moments rows "relative" is against the row's moment value
REL_TOL = 1e-10
PAIR_TOL = 1e-10                      # exact vs contour moment
EMPIRICAL_BAND = {2: 0.02, 4: 0.02, 6: 0.05}    # criterion 1's bands
INT_COLUMNS = {"count", "k"}

# selfcheck headlines carry their elapsed time, e.g. "[2.4s]"
_ELAPSED = re.compile(rb" \[\d+\.\d+s\]")
_HEADLINE = re.compile(r"^(PASS|FAIL|SKIP) criterion (\d+) ")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    exit_code: int


WORKLOADS = {w.name: w for w in (
    Workload("poly_tail_x1e5",
             ("tail", "--route", "poly", "--sigma", "0.8", "--m", "0",
              "--X", "1e5", "--T", "1e6", "--V", "1.2:2.0:0.2"), 0),
    Workload("moments_x31",
             ("moments", "--sigma", "0.5", "--m", "1", "--theta", "0.7",
              "--X", "31", "--T", "4e6", "--k", "2,4,6"), 0),
    Workload("eta_tail_t1e4",
             ("tail", "--route", "eta", "--sigma", "0.75", "--m", "1",
              "--T", "1e4", "--count", "16", "--V", "0.5"), 0),
    Workload("selfcheck_quick", ("selfcheck", "--quick"), 1),
)}


def normalise(name: str, output: bytes) -> bytes:
    """Output bytes with run-to-run timing text removed."""
    if name == "selfcheck_quick":
        return _ELAPSED.sub(b"", output)
    return output


def reference(name: str) -> bytes:
    with open(os.path.join(REFERENCE_DIR, name + ".out"), "rb") as fh:
        return fh.read()


def _rows(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def _close(x: float, ref: float, scale: float) -> bool:
    return abs(x - ref) <= REL_TOL * max(abs(ref), scale)


def _check_csv(name: str, text: str, ref_text: str) -> list[str]:
    header, rows = _rows(text)
    ref_header, ref_rows = _rows(ref_text)
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"shape {header} x {len(rows)} != reference "
                f"{ref_header} x {len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        scale = abs(float(ref["value"])) if "value" in ref else 0.0
        for col in header:
            got, want = row[col], ref[col]
            if col in INT_COLUMNS or not want or col in ("method", "flags",
                                                         "validity_flags"):
                ok = got == want
            else:
                try:
                    ok = _close(float(got), float(want), scale)
                except ValueError:
                    ok = False
            if not ok:
                problems.append(f"row {i} {col}: {got!r} != {want!r}")
    if name == "moments_x31":
        problems += _check_moment_routes(rows)
    return problems


def _check_moment_routes(rows: list[dict[str, str]]) -> list[str]:
    """Exact/contour agreement and criterion 1's empirical bands."""
    by_k: dict[int, dict[str, float]] = {}
    for row in rows:
        by_k.setdefault(int(row["k"]), {})[row["method"]] = float(row["value"])
    problems = []
    for k, vals in by_k.items():
        ex, co, em = (vals.get(m, math.nan) for m in
                      ("exact_multiplicative", "contour", "empirical"))
        if not abs(co - ex) <= PAIR_TOL * abs(ex):
            problems.append(f"k={k}: exact/contour rel {abs(co - ex) / abs(ex):.2e}")
        if not abs(em - ex) <= EMPIRICAL_BAND[k] * abs(ex):
            problems.append(f"k={k}: empirical rel {abs(em - ex) / abs(ex):.2e}")
    return problems


def _statuses(text: str) -> dict[int, str]:
    out = {}
    for line in text.splitlines():
        m = _HEADLINE.match(line)
        if m:
            out[int(m.group(2))] = m.group(1)
    return out


def _check_selfcheck(text: str, ref_text: str) -> list[str]:
    got, want = _statuses(text), _statuses(ref_text)
    failing = sorted(n for n, s in got.items() if s == "FAIL")
    problems = []
    if got != want:
        problems.append(f"criterion statuses {got} != reference {want}")
    if failing != [4, 5, 8]:
        problems.append(f"failing criteria {failing} != [4, 5, 8]")
    return problems


def check(w: Workload, exit_code: int, output: bytes) -> list[str]:
    """Problems with one sample's exit code and output; empty if correct."""
    problems = []
    if exit_code != w.exit_code:
        problems.append(f"exit code {exit_code} != {w.exit_code}")
    try:
        text = normalise(w.name, output).decode("utf-8")
    except UnicodeDecodeError:
        return problems + ["output is not UTF-8"]
    ref_text = reference(w.name).decode("utf-8")
    if w.name == "selfcheck_quick":
        return problems + _check_selfcheck(text, ref_text)
    try:
        return problems + _check_csv(w.name, text, ref_text)
    except (StopIteration, KeyError, ValueError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
