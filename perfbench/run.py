"""Benchmark entry point: one workload run, or the quick self-check.

    python3 perfbench/run.py --workload cardiac-query --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --quick

With ``--trace 0`` it prints the end-to-end metrics of an untraced run; with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each workload runs in processes of its own, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 7  # set-up time is the median of this many fresh processes
DEADLINE_S = 170  # a run must end within 180 seconds
WORKLOAD_NAMES = ("cardiac-query", "cardiac-project", "paint-horizon")
END_TO_END_UNITS = {"p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(Exception):
    pass


def worker(workload, seed, seconds, mode, deadline, max_ops=None):
    """Run worker.py in a fresh process; returns its JSON result."""
    sys.path.insert(0, str(HERE))
    from procs import thread_env

    workdir = RESULTS / f"work-{workload}-{seed}-{mode}-{os.getpid()}"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--workdir", str(workdir)]
    if max_ops is not None:
        argv += ["--max-ops", str(max_ops)]
    env = thread_env(ROOT)
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{workload} ({mode}) did not end before the deadline")
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise WorkerError(f"{workload} ({mode}) exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_once(workload, seed, seconds, trace, deadline, max_ops=None):
    """One benchmark run; returns (summary, full result)."""
    if trace:
        res = worker(workload, seed, seconds, "trace", deadline, max_ops)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    else:
        # set-up samples before and after the measured process span the whole run
        setups = []
        if max_ops is None:
            for _ in range(SETUP_REPEATS // 2):
                setups.append(worker(workload, seed, seconds, "setup", deadline)["setup_s"])
        res = worker(workload, seed, seconds, "run", deadline, max_ops)
        setups.append(res["metrics"]["setup_s"])
        if max_ops is None:
            for _ in range(SETUP_REPEATS // 2):
                setups.append(worker(workload, seed, seconds, "setup", deadline)["setup_s"])
        m = res["metrics"]
        m["setup_runs"] = setups
        m["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    summary = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return summary, res


def quick():
    """Every workload for a few operations, traced and untraced, plus the reference self-check."""
    sys.path.insert(0, str(HERE))
    import selfcheck

    ok = selfcheck.main() == 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            summary, res = run_once(name, 1, 0, trace, time.monotonic() + DEADLINE_S, max_ops=3)
            good = summary["correct"] and summary["failed"] == 0
            ok = ok and good
            shown = {k: round(v["value"], 3) for k, v in summary["metrics"].items()}
            print(f"{name} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"attempted={summary['attempted']} failed={summary['failed']} {shown}")
            if trace and res["trace"]["missing"]:
                print(f"  missing public functions: {res['trace']['missing']}")
    print("quick self-check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=32)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="run the quick self-check and exit")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ctxkb" / "__init__.py").is_file():
        print(f"perfbench: no ctxkb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    if args.quick:
        return quick()
    if args.workload is None:
        p.error("--workload is required")
    try:
        summary, res = run_once(args.workload, args.seed, args.seconds, args.trace, deadline)
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (RESULTS / f"{tag}.json").write_text(json.dumps(res), encoding="utf-8")
    if res["wrong"]:
        print(f"perfbench: {len(res['wrong'])} wrong answers, first: {res['wrong'][0]}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
