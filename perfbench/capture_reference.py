"""Capture each workload's reference output into perfbench/reference/.

    python3 perfbench/capture_reference.py [WORKLOAD...]

Runs each workload once through child.py in the benchmark's environment
and stores the normalised output.  Run it only on a commit whose outputs
are known good (the references were captured from the seed); a later
change whose outputs legitimately move must say why in its own change.
"""

import os
import sys
import tempfile

import run
import workloads


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            w = workloads.WORKLOADS[name]
            out_path = os.path.join(tmp, "out")
            with open(out_path, "wb") as out:
                run.run_child([os.path.join(run.HERE, "child.py"),
                               os.path.join(tmp, "result.json"), "-", "--",
                               *w.argv], out, sys.stderr)
            with open(out_path, "rb") as fh:
                data = workloads.normalise(name, fh.read())
            with open(os.path.join(workloads.REFERENCE_DIR, name + ".out"),
                      "wb") as fh:
                fh.write(data)
            print(f"{name}: {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
