"""Offline oracles for the benchmark's reference outputs and tracer.

    python3 -m pytest perfbench/test_oracles.py

The references in perfbench/reference/ were captured from the program
itself, so a kernel bug could hide in them.  These tests check them
against routes that share no code with the one under test: pointwise
evaluation for the batch kernel, mpmath for zeta, and the exact
multiplicative route for the contour moments.  They also check that the
outside-in tracer reproduces the seed's exact counts, and that the
output check rejects outputs a little off the reference.
"""

import csv
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402
from zel.moments import exact_moment  # noqa: E402
from zel.prime_poly import (PolySpec, PrimeTable, TGrid,  # noqa: E402
                            iter_poly_blocks, poly_eval)
from zel.zeta_core import zeta  # noqa: E402

mpmath = pytest.importorskip("mpmath")

# eta_tail_t1e4's grid: t0 = T = 1e4 and 16 points at the largest dyadic
# spacing <= T/16 with a 12-bit numerator, which is 625 exactly
ETA_T = [1e4 + 625.0 * j for j in range(16)]


def reference_rows(name):
    text = workloads.reference(name).decode("utf-8")
    return list(csv.DictReader(io.StringIO(text, newline="")))


def test_poly_tail_reference_against_pointwise_kernel():
    spec = PolySpec(m=0, sigma=0.8, theta=0.0, X=1e5)
    table = PrimeTable.build(100_000)
    grid = TGrid.for_span(1e6, 1e5)
    levels = [1.2 + 0.2 * i for i in range(5)]
    picks = sorted(random.Random(0).sample(range(grid.count), 48)
                   + [0, grid.count - 1])
    counts = np.zeros(len(levels), dtype=np.int64)
    sampled = {}
    for j0, z in iter_poly_blocks(spec, table, grid):
        p = z.real                      # theta = 0
        counts += [np.count_nonzero(p > v) for v in levels]
        for j in picks:
            if j0 <= j < j0 + p.size:
                sampled[j] = p[j - j0]
    assert len(sampled) == len(picks)
    for j, value in sampled.items():
        assert abs(poly_eval(spec, table, grid.t(j)) - value) <= 1e-10
    rows = reference_rows("poly_tail_x1e5")
    assert [int(r["count"]) for r in rows] == counts.tolist()
    assert [float(r["fraction"]) for r in rows] == (counts / grid.count).tolist()


@pytest.mark.parametrize("t", ETA_T[::5])
@pytest.mark.parametrize("alpha", [0.75, 1.5, 3.0])
def test_eta_tail_zeta_against_mpmath(alpha, t):
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpc(alpha, t)))
    got = zeta(complex(alpha, t))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_moments_reference_contour_rows_against_exact():
    spec = PolySpec(m=1, sigma=0.5, theta=0.7, X=31.0)
    rows = [r for r in reference_rows("moments_x31")
            if r["method"] == "contour"]
    assert [int(r["k"]) for r in rows] == [2, 4, 6]
    for r in rows:
        exact = exact_moment(spec, int(r["k"])).value
        assert abs(float(r["value"]) - exact) <= 1e-10 * abs(exact)


def test_tracer_reproduces_eta_tail_counts(tmp_path):
    w = workloads.WORKLOADS["eta_tail_t1e4"]
    result, side = tmp_path / "result.json", tmp_path / "trace.json"
    env = dict(os.environ, PERFBENCH_SPAWN="0")
    with open(tmp_path / "out", "wb") as out:
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                        str(result), str(side), "--", *w.argv],
                       stdout=out, env=env, check=True, timeout=300)
    assert json.loads(result.read_text())["exit"] == 0
    m = tracer.layer_metrics(json.loads(side.read_text()))
    assert m["zeta_core.zeta_calls"] == 960
    assert m["zeta_core.zeta_memo_hit_frac"] == 0.0
    assert m["quadrature.evals"] == 864
    assert m["zeta_core.walk_calls"] == 16
    assert m["prime_poly.kernel_passes"] == 0
    assert 0.0 < m["zeta_core.zeta_s"] <= m["zeta_core.eta_s"]
    assert not workloads.check(w, 0, (tmp_path / "out").read_bytes())


def test_tracer_times_generators_per_next():
    t = tracer.Tracer()

    def blocks():
        yield 1
        yield 2

    def consumer(gen):
        return sum(gen)

    timed = t.wrap_generator("prime_poly.blocks", blocks)
    outer = t.wrap("tails.consume", consumer)
    assert outer(timed()) == 3
    side = {"names": t.names, "spans": t.spans, "counters": {}}
    agg = tracer._aggregate(side)
    assert agg["prime_poly.blocks"]["calls"] == 3      # two items + StopIteration
    assert agg["tails.consume"]["calls"] == 1
    spans = t.spans
    assert all(spans[i][3] == 0 for i in range(1, len(spans)))


@pytest.mark.parametrize("name,old,new", [
    ("poly_tail_x1e5", b"1.2,111586,", b"1.2,111587,"),
    ("moments_x31", b"0.74145126940624773", b"0.74145127040624773"),
    ("selfcheck_quick", b"PASS criterion 3", b"FAIL criterion 3"),
])
def test_check_rejects_outputs_off_the_reference(name, old, new):
    w = workloads.WORKLOADS[name]
    ref = workloads.reference(name)
    assert not workloads.check(w, w.exit_code, ref)
    assert old in ref
    assert workloads.check(w, w.exit_code, ref.replace(old, new, 1))
    assert workloads.check(w, 2, ref)
