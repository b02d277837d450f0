"""Environment record and calibration probes, run in a child process.

    python3 perfbench/machine.py [--probes]

Prints one JSON object.  Without --probes it records the environment
(nproc, CPU model, Python, numpy, scipy and OpenBLAS versions, the BLAS
thread count) and, as a side effect, imports zel.cli once so the byte
code is compiled before any sample is timed.  With --probes it also runs
the two calibration probes: a complex GEMM at the batch kernel's block
shape and a fixed pure-Python loop, each the median of three runs.
"""

import json
import os
import platform
import statistics
import sys
import time

# rows x primes x columns of one iter_poly_blocks GEMM at X = 1e5
GEMM_SHAPE = (1024, 9592, 256)
PY_LOOP_N = 2_000_000
REPEATS = 3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def zgemm_gflops() -> float:
    import numpy as np

    rows, primes, cols = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = np.exp(1j * rng.uniform(0, 6.3, (rows, primes)))
    b = np.exp(1j * rng.uniform(0, 6.3, (primes, cols)))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 8.0 * rows * primes * cols / statistics.median(times) / 1e9


def py_loop_s() -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PY_LOOP_N):
            acc += i * i & 0xFF
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import zel.cli  # noqa: F401  (compile and cache byte code)
    import zel.acceptance  # noqa: F401

    out = {"env": environment()}
    if "--probes" in sys.argv[1:]:
        out["machine.zgemm_gflops"] = zgemm_gflops()
        out["machine.py_loop_s"] = py_loop_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
