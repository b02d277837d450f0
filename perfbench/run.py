"""Benchmark of the zel command line: four fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample runs the workload's `zel`
command in a fresh interpreter (perfbench/child.py), in a closed loop
from one client: the next sample starts when the previous one ends.  New
samples start until the next one would end past --seconds, counted from
the start of the run (the warm-up import and probes included).  Every sample
is checked against perfbench/reference/ and against the first sample's
bytes (the determinism contract); a sample that fails either counts in
"failed".

--trace 0 reports the end-to-end metrics (medians over the samples).
--trace 1 alternates untraced and traced samples, the seed's parity
choosing which goes first in each pair, and reports the per-layer
metrics of perfbench/tracer.py plus the machine probes and the tracing
overhead.  The workload inputs are fixed command lines, so the seed
changes nothing else.

The last stdout line is the JSON result; the line before it records the
environment.  Scratch files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 120         # a sample starts before --seconds; 180 s cap
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Default-user environment: no prime cache, BLAS threads = nproc."""
    env = dict(os.environ)
    env.pop("ZEL_CACHE_DIR", None)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in BLAS_ENV})
    return env


def run_child(args: list[str], stdout, stderr) -> int:
    env = child_env()
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    proc = subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=stderr, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode


def machine(probes: bool) -> dict:
    args = [str(HERE / "machine.py")] + (["--probes"] if probes else [])
    with open(WORK / "machine.err", "wb") as err:
        proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                              stderr=err, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)


def run_sample(w: workloads.Workload, index: int, traced: bool) -> dict:
    stem = WORK / f"{index:03d}"
    result = stem.with_suffix(".result.json")
    side = stem.with_suffix(".trace.json")
    out = stem.with_suffix(".out")
    with open(out, "wb") as fo, open(stem.with_suffix(".err"), "wb") as fe:
        try:
            code = run_child([str(HERE / "child.py"), str(result),
                              str(side) if traced else "-", "--", *w.argv],
                             fo, fe)
        except subprocess.TimeoutExpired:
            code = None                 # run() killed and reaped it
    sample = {"traced": traced, "problems": [], "output": out.read_bytes()}
    if code != 0 or not result.is_file():
        why = "timed out" if code is None else f"exited {code}"
        sample["problems"].append(f"child {why} without a result")
        return sample
    sample.update(json.loads(result.read_text(encoding="utf-8")))
    sample["problems"] += workloads.check(w, sample["exit"], sample["output"])
    if traced:
        sample["layers"] = tracer.layer_metrics(
            json.loads(side.read_text(encoding="utf-8")))
    return sample


def measure(w: workloads.Workload, deadline: float, trace: bool,
            seed: int) -> list[dict]:
    """Samples in a closed loop until the next round would overrun."""
    plan = [False] if not trace else [seed % 2 == 1, seed % 2 == 0]
    start = time.monotonic()
    samples: list[dict] = []
    rounds = 0
    while True:
        for traced in plan:
            samples.append(run_sample(w, len(samples), traced))
        rounds += 1
        per_round = (time.monotonic() - start) / rounds
        if time.monotonic() + per_round > deadline:
            return samples


def mark_nondeterministic(w: workloads.Workload, samples: list[dict]) -> None:
    first = workloads.normalise(w.name, samples[0]["output"])
    for s in samples[1:]:
        if workloads.normalise(w.name, s["output"]) != first:
            s["problems"].append("output bytes differ from the first sample")


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def end_to_end(samples: list[dict]) -> dict[str, float]:
    return {key: median_of(samples, key)
            for key in ("wall_s", "setup_s", "peak_rss_mb")}


def per_layer(samples: list[dict], probes: dict) -> dict[str, float]:
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    values = {name: statistics.median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    values["process.cpu_s"] = median_of(plain, "cpu_s")
    for n in (1, 2, 3, 4, 5, 6, 8, 9):
        values[f"acceptance.c{n}_s"] = statistics.median(
            s["criteria"].get(str(n), 0.0) for s in plain)
    values["machine.zgemm_gflops"] = probes["machine.zgemm_gflops"]
    values["machine.py_loop_s"] = probes["machine.py_loop_s"]
    values["trace.overhead_frac"] = (median_of(traced, "wall_s")
                                     / median_of(plain, "wall_s") - 1.0)
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + args.seconds

    if not (ROOT / "src" / "zel" / "cli.py").is_file():
        print(f"error: no zel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    info = machine(probes=bool(args.trace))
    samples = measure(w, deadline, bool(args.trace), args.seed)
    mark_nondeterministic(w, samples)
    for i, s in enumerate(samples):
        print(f"sample {i} traced={int(s['traced'])} wall_s={s.get('wall_s')}"
              f" problems={s['problems']}", file=sys.stderr)
    timed = [s for s in samples if "wall_s" in s]
    if not timed or (args.trace and not all(
            any(s["traced"] == t for s in timed) for t in (False, True))):
        print("error: no sample produced timings", file=sys.stderr)
        return 1

    failed = sum(1 for s in samples if s["problems"])
    values = per_layer(timed, info) if args.trace else end_to_end(timed)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    env = dict(info["env"], workload=w.name, seed=args.seed,
               samples=len(samples))
    (WORK / "env.json").write_text(json.dumps(env, indent=2), encoding="utf-8")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
