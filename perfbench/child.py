"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py RESULT.json TRACE.json|- -- zel-args...

The parent sets PERFBENCH_SPAWN to its time.monotonic() just before the
spawn; setup_s runs from there until `import zel.cli` returns.  wall_s is
the time spent in `zel.cli.main`.  The command's own stdout goes wherever
the parent pointed this process's stdout.  With a trace path, the
outside-in tracer wraps every zel layer and writes its sidecar there;
the result file gets timings, exit code and resource use either way.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import zel.cli
    setup_s = time.monotonic() - spawn

    result_path, trace_path = sys.argv[1], sys.argv[2]
    argv = sys.argv[sys.argv.index("--") + 1:]

    tracer = None
    if trace_path != "-":
        import tracer as tracing
        tracer = tracing.install()

    criteria = {}
    if argv[0] == "selfcheck":
        # keep the report cmd_selfcheck prints, for per-criterion times
        from zel import acceptance
        run_all = acceptance.run_all

        def keep_report(*args, **kwargs):
            report = run_all(*args, **kwargs)
            criteria.update((r.number, r.elapsed) for r in report)
            return report
        acceptance.run_all = keep_report

    t0 = time.perf_counter()
    try:
        code = zel.cli.main(argv)
    except SystemExit as exc:            # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    wall_s = time.perf_counter() - t0
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.write(trace_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "wall_s": wall_s, "setup_s": setup_s,
                   "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "criteria": criteria}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
