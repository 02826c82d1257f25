"""One pass of a workload, run by run.py in a fresh interpreter.

Usage: python3 worker.py PLAN.json

The plan names the package source directory, the output directory, the
commands and whether to trace. The worker imports the package, makes the
output directory, stamps the moment it is ready (CLOCK_MONOTONIC, which
the parent shares, so the parent can measure set-up from before it
spawned the interpreter), then runs each command in-process through
`sparsespectra.cli.main(argv)`, one after the other. It writes its record
as JSON to the plan's result path.
"""

import json
import os
import resource
import sys
import time
import traceback


def _blas_threads():
    """Threads of the OpenBLAS bundled with numpy's wheels, or None if absent."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def _written(out: str) -> tuple[int, int]:
    files = [entry for entry in os.scandir(out) if entry.is_file()] if os.path.isdir(out) else []
    return len(files), sum(entry.stat().st_size for entry in files)


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from sparsespectra import cli

    if not os.path.abspath(cli.__file__).startswith(plan["src"] + os.sep):
        print(f"imported sparsespectra from {cli.__file__}, not from {plan['src']}", file=sys.stderr)
        return 3
    os.makedirs(plan["out"], exist_ok=True)
    record = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "commands": []}
    if plan["setup_only"]:
        record["blas_threads"] = _blas_threads()
    else:
        tracer = None
        if plan["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        for k, cmd in enumerate(plan["commands"]):
            out = os.path.join(plan["out"], f"{k:02d}-{cmd['kind']}")
            span = tracer.begin(f"cli.{cmd['kind']}") if tracer else None
            start = time.perf_counter()
            try:
                rc = cli.main([*cmd["argv"], "--out", out])
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this command, not the pass
                traceback.print_exc()
                rc = 1
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end(span)
            files, nbytes = _written(out)
            record["commands"].append(
                {"kind": cmd["kind"], "rc": rc, "s": elapsed, "files": files, "bytes": nbytes}
            )
        if tracer:
            record["layers"] = tracing.layer_metrics(tracer, record["commands"])
            record["breakdown"] = tracing.command_breakdown(tracer)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(plan["result"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
