"""sparsespectra benchmark: CLI workloads timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run is a closed loop with one client. Each pass runs the workload's
command sequence (workloads.py) in a fresh interpreter (worker.py), one
command after the other, through `sparsespectra.cli.main(argv)`, and passes
repeat until `--seconds` is used up. After each pass the command outputs
are checked (checks.py) and hashed; every pass of a run uses the same
workload seed, so all passes must write byte-identical files. A command
fails if it exits non-zero, fails a check or differs from the first pass.

With `--trace 0` the last line of standard output reports the end-to-end
metrics, medians over passes: `wall_s` (the command sequence), `setup_s`
(spawning the interpreter until the package is imported and the output
directory exists) and `peak_rss_mb` (peak resident memory of a pass).
With `--trace 1` passes alternate untraced and traced (tracing.py); the
last line reports the per-layer metrics, medians over the traced passes,
and `trace.overhead_s`, traced minus untraced `wall_s`. The line before
it is the run record: machine and library metadata, per-command times,
`failed_frac`, sample counts and any failure reasons.

`--smoke` runs every workload once at small sizes, traced and untraced,
and checks that every metric named in BENCHMARK.json is emitted with its
unit. It takes under a minute and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3  # untraced passes per timed run; medians need at least three
TRACE_PASSES = 2  # untraced and traced passes each, per traced run
SETUP_SAMPLES = 15  # set-up is cheap, so it is topped up to this many samples
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Run:
    """One benchmark run: a workload's passes, checks and hashes."""

    def __init__(self, root: str, workload: str, seed: int, smoke: bool) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.commands = workloads.plan(workload, seed, smoke)
        self.out_root = os.path.join(root, ".perfbench_out", f"{workload}-{seed}-{os.getpid()}")
        self.env = dict(os.environ)
        # one BLAS thread: on a shared host, BLAS threads that spin while another
        # process holds a CPU made eigensolves several times slower
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.started = time.perf_counter()
        self.passes: list[dict] = []
        self.setups: list[float] = []
        self.reference: dict[int, dict[str, str]] = {}
        self.failures: list[str] = []  # reasons, for the run record
        self.attempted = 0
        self.failed = 0

    def spawn(self, traced: bool = False, setup_only: bool = False) -> dict | None:
        """Start a worker, wait for it, return its record (None if it died)."""
        out = os.path.join(self.out_root, "pass")
        plan_path = os.path.join(self.out_root, "plan.json")
        result = os.path.join(self.out_root, "result.json")
        os.makedirs(self.out_root, exist_ok=True)
        with open(plan_path, "w") as fh:
            json.dump({"src": self.src, "out": out, "commands": self.commands, "trace": traced,
                       "setup_only": setup_only, "result": result}, fh)
        if os.path.exists(result):
            os.remove(result)
        budget = RUN_LIMIT_S - (time.perf_counter() - self.started)
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path],
                                  cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            self.failures.append("worker ran past the run's time limit")
            return None
        if proc.returncode != 0 or not os.path.exists(result):
            self.failures.append(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        with open(result) as fh:
            record = json.load(fh)
        self.setups.append(record["ready"] - spawned)
        return record

    def run_pass(self, traced: bool) -> bool:
        """One pass of the command sequence, then its checks and hashes.

        Returns False if the worker died, which fails every command of the pass.
        """
        self.attempted += len(self.commands)
        record = self.spawn(traced=traced)
        if record is None:
            self.failed += len(self.commands)
            return False
        for k, (cmd, done) in enumerate(zip(self.commands, record["commands"])):
            out = os.path.join(self.out_root, "pass", f"{k:02d}-{cmd['kind']}")
            label = f"command {k} ({' '.join(cmd['argv'])})"
            if done["rc"] != 0:
                reasons = [f"exit code {done['rc']}"]
            else:
                reasons = checks.run_checks(cmd["kind"], cmd["checks"], out)
                hashes = file_hashes(out)
                first = self.reference.setdefault(k, hashes)
                if hashes != first:
                    differ = sorted(f for f in set(first) | set(hashes) if first.get(f) != hashes.get(f))
                    reasons.append(f"outputs differ from the first pass: {', '.join(differ)}")
            if reasons:
                self.failed += 1
                self.failures.append(f"{label}: {'; '.join(reasons)}")
        shutil.rmtree(os.path.join(self.out_root, "pass"), ignore_errors=True)
        record["traced"] = traced
        self.passes.append(record)
        return True

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.out_root))
        except OSError:  # another run's outputs are still there
            pass


def file_hashes(out: str) -> dict[str, str]:
    hashes = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def summary(values: list[float]) -> dict:
    """Median with the sample count and range (too few samples for a tail percentile)."""
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def benchmark(root: str, workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result line, run record)."""
    run = Run(root, workload, seed, smoke)
    try:
        warm = run.spawn(setup_only=True)  # fills the bytecode and page caches, untimed
        run.setups.clear()
        # trace runs alternate untraced and traced passes and end on a traced one
        needed = 1 if smoke else (TRACE_PASSES if trace else MIN_PASSES)
        while run.run_pass(traced=trace and len(run.passes) % 2 == 1):
            untraced = sum(not p["traced"] for p in run.passes)
            per_pass = run.elapsed() / len(run.passes)
            if run.elapsed() + per_pass > RUN_LIMIT_S - 10:
                break
            complete = untraced >= needed and (not trace or len(run.passes) == 2 * untraced)
            if complete and run.elapsed() + per_pass > seconds:
                break
        setups_needed = 1 if smoke else SETUP_SAMPLES
        while len(run.setups) < setups_needed and run.spawn(setup_only=True) is not None:
            pass
    finally:
        run.close()

    untraced = [p for p in run.passes if not p["traced"]]
    traced_passes = [p for p in run.passes if p["traced"]]
    failed = run.failed
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "machine": {
            "nproc": nproc(),
            "blas": blas_vendor(),
            "blas_threads_requested": BLAS_THREADS,
            "blas_threads": warm.get("blas_threads") if warm else None,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(root),
        },
        "loop": "closed, one client",
        "passes": {"untraced": len(untraced), "traced": len(traced_passes)},
        "attempted": run.attempted,
        "failed": failed,
        "failed_frac": failed / max(run.attempted, 1),
        "failures": run.failures[:20],
    }
    metrics: dict[str, dict] = {}
    if untraced and run.setups:
        walls = [sum(c["s"] for c in p["commands"]) for p in untraced]
        e2e = {"wall_s": (walls, "s"), "setup_s": (run.setups, "s"),
               "peak_rss_mb": ([p["peak_rss_mb"] for p in untraced], "MB")}
        record["end_to_end"] = {name: {**summary(v), "unit": unit} for name, (v, unit) in e2e.items()}
        kinds = sorted({c["kind"] for c in run.commands})
        record["commands_s"] = {
            f"{kind.replace('-', '_')}_s": summary([sum(c["s"] for c in p["commands"] if c["kind"] == kind)
                                                   for p in untraced])
            for kind in kinds
        }
        if not trace:
            metrics = {name: {"value": summary(v)["median"], "unit": unit}
                       for name, (v, unit) in e2e.items()}
    if trace and traced_passes and untraced:
        names = traced_passes[0]["layers"]
        for name in names:
            values = [p["layers"][name] for p in traced_passes]
            metrics[name] = {"value": statistics.median(values), "unit": unit_of(name)}
        traced_wall = statistics.median(sum(c["s"] for c in p["commands"]) for p in traced_passes)
        untraced_wall = statistics.median(sum(c["s"] for c in p["commands"]) for p in untraced)
        metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
        record["breakdown"] = [{"argv": cmd["argv"], **entry} for cmd, entry
                               in zip(run.commands, traced_passes[-1]["breakdown"])]
    result = {"correct": failed == 0 and bool(metrics), "attempted": max(run.attempted, 1),
              "failed": failed, "metrics": metrics}
    return result, record


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("max_residual"):
        return "1"
    return "count"


def smoke(root: str) -> int:
    """Every workload once at small sizes; every declared metric present."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            t0 = time.perf_counter()
            result, record = benchmark(root, workload, seed=1, seconds=0, trace=trace, smoke=True)
            emitted = result["metrics"]
            for metric in declared:
                got = emitted.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: {metric['name']} [{metric['unit']}] "
                                    f"missing or with unit {got and got['unit']}")
            extra = set(emitted) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{workload} trace={int(trace)}: undeclared metrics {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {record['failures']}")
            print(f"smoke {workload} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{result['attempted']} commands, {result['failed']} failed, "
                  f"{time.perf_counter() - t0:.1f}s")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check of the harness")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running worker is killed and the outputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sparsespectra", "cli.py")):
        print("run from the repository root: src/sparsespectra is missing", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result, record = benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
