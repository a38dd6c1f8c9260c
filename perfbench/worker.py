"""One workload in its own process: set-up, warm-up, timed operations, checks.

Started by run.py.  Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode run|setup|trace

PERFBENCH_SPAWN_NS holds the monotonic clock reading taken just before this
process was started; set-up time counts from it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_ERRORS_SHOWN = 3


def import_ctxkb():
    """Import ctxkb from this checkout's src/ only; exit 2 when it is not there."""
    if not (SRC / "ctxkb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ctxkb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ctxkb
    import ctxkb.bench
    import ctxkb.cli
    import ctxkb.oracle  # noqa: F401  (bound names must exist before tracing)

    if Path(ctxkb.__file__).resolve().parent != (SRC / "ctxkb").resolve():
        sys.exit(f"perfbench: imported ctxkb from {ctxkb.__file__}, not from {SRC}")
    return ctxkb


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks (inclusive method)."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Runner:
    def __init__(self, wl):
        self.wl = wl
        self.latencies = []  # seconds, one per completed operation
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def op(self, spec, run=None):
        """Time one operation; check its output after the clock stops."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = (run or self.wl.run)(spec)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            if self.failed <= MAX_ERRORS_SHOWN:
                traceback.print_exc(file=sys.stderr)
            return None
        self.latencies.append(time.perf_counter() - t0)
        why = self.wl.check(spec, out)
        if why:
            self.wrong.append(f"{spec.query}: {why}")
            if len(self.wrong) <= MAX_ERRORS_SHOWN:
                print(f"perfbench: wrong answer for {spec.query}: {why}", file=sys.stderr)
        return out

    def rounds(self, seconds, min_ops, max_ops=None, run=None, around=None):
        """Run whole rounds until ``seconds`` have passed and ``min_ops`` are done.

        With ``max_ops`` the run stops after that many operations instead.
        """
        start = time.perf_counter()
        r = 0
        while True:
            for spec in self.wl.rounds[r % len(self.wl.rounds)]:
                if max_ops is not None and self.attempted >= max_ops:
                    return
                if around:
                    with around():
                        self.op(spec, run)
                else:
                    self.op(spec, run)
            r += 1
            if max_ops is None and time.perf_counter() - start >= seconds and self.attempted >= min_ops:
                return

    def p50_ms(self):
        return statistics.median(self.latencies) * 1e3 if self.latencies else 0.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(wl, runner: Runner, setup_s: float):
    lat = sorted(runner.latencies)
    busy = sum(lat)
    return {
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": percentile(lat, wl.tail_pct) * 1e3,
        "tail_pct": wl.tail_pct,
        "ops_per_s": len(lat) / busy if busy > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(children=wl.in_children),
        "setup_s": setup_s,
        "ops": len(lat),
        "latencies_ms": [x * 1e3 for x in runner.latencies],
    }


@contextlib.contextmanager
def op_span(tracer):
    index = tracer.begin("op")
    try:
        yield
    finally:
        tracer.end(index)


def traced(wl, args, ctxkb, tracer, setup_totals, layer):
    """Untraced rounds, then the same number traced; returns per-layer metrics."""
    from tracer import LayerTotals

    untraced = Runner(wl)
    untraced.rounds(args.seconds / 2.0, 1, max_ops=args.max_ops)
    n_ops = untraced.attempted
    ops = LayerTotals()
    cli = LayerTotals()
    startups = []
    traced_runner = Runner(wl)

    if wl.in_children:
        def run_traced_cli(spec):
            return run_cli_traced(wl, wl.cli_argv(spec), ops, startups)

        traced_runner.rounds(0, 0, max_ops=n_ops, run=run_traced_cli)
        cli = ops
    else:
        tracer.install()
        try:
            traced_runner.rounds(0, 0, max_ops=n_ops, around=lambda: op_span(tracer))
        finally:
            tracer.uninstall()
        ops.add(tracer.dump())
        # start-up and pipeline passes of the CLI answering this workload's first query
        run_cli_traced(wl, wl.cli_args("query", wl.rounds[0][0], "probe"), cli, startups)

    pair = ctxkb.bench.paint_pair(wl.horizon, wl.bench_plan_times())
    m_ctx, m_act = ctxkb.bench.compare_encodings(pair, wl.bench_plan_times())

    n = max(len(traced_runner.latencies), 1)
    loads = ops if ops.count("parser.load_kb") else setup_totals
    n_loads = max(loads.count("parser.load_kb"), 1)
    n_cli = max(len(startups), 1)
    relevant = ops.size("relevance.compute_ras")
    metrics = {
        "parser.load_kb_ms": (loads.ms("parser.load_kb") / n_loads, "ms"),
        "parser.sentences": (loads.size("parser.load_kb") / n_loads, "count"),
        "lang.validate_ms": (ops.ms("lang.validate_session") / n, "ms"),
        "logic.ground_program_ms": (ops.ms("logic.ground_context_program") / n, "ms"),
        "logic.ground_clauses": (ops.size("logic.ground_context_program") / n, "count"),
        "relevance.discharge_ms": (
            ops.ms("relevance.discharge_contexts", "relevance.discharge_contexts_detailed") / n, "ms"),
        "relevance.discharged": (ops.size("relevance.discharge_contexts") / n, "count"),
        "relevance.ras_ms": (ops.ms("relevance.compute_ras", "relevance.restrict_rpb") / n, "ms"),
        "relevance.relevant_objects": (relevant / n, "count"),
        "relevance.combine_ms": (ops.ms("relevance.combine_rpb") / n, "ms"),
        "relevance.cpt_entries": (ops.size("relevance.combine_rpb") / n, "count"),
        "relevance.node_yield": (
            ops.size("netbuild.assemble_net") / relevant if relevant else 0.0, "ratio"),
        "combining.rule_firings": (ops.count("combining.noisy_max", "combining.single_only") / n, "count"),
        "netbuild.assemble_ms": (ops.ms("netbuild.assemble_net") / n, "ms"),
        "netbuild.nodes": (ops.size("netbuild.assemble_net") / n, "count"),
        "netbuild.cpt_entries": (ops.size("netbuild.cpt_entries") / n, "count"),
        "infer.order_ms": (ops.ms("infer.min_fill_order") / n, "ms"),
        "infer.eliminate_ms": (ops.ms("infer.eliminate") / n, "ms"),
        "infer.multiply_calls": (ops.count("infer.multiply") / n, "count"),
        "infer.max_factor_entries": (ops.max_sizes.get("infer.multiply", 0), "count"),
        "cli.pipeline_runs": (cli.count("relevance.build_combined_base") / n_cli, "count"),
        "cli.startup_ms": (statistics.median(startups) if startups else 0.0, "ms"),
        "bench.context_nodes": (m_ctx.nodes, "count"),
        "bench.action_nodes": (m_act.nodes, "count"),
        "bench.context_cpt_entries": (m_ctx.cpt_entries, "count"),
        "bench.action_cpt_entries": (m_act.cpt_entries, "count"),
        "trace.overhead_ratio": (
            traced_runner.p50_ms() / untraced.p50_ms() if untraced.latencies else 0.0, "ratio"),
    }
    layer.update({"spans": ops.spans, "cli_spans": cli.spans if cli is not ops else [],
                  "setup_spans": setup_totals.spans, "missing": sorted(ops.missing | setup_totals.missing),
                  "untraced_p50_ms": untraced.p50_ms(), "traced_p50_ms": traced_runner.p50_ms()})
    return metrics, [untraced, traced_runner]


def run_cli_traced(wl, cli_args, totals, startups):
    """One CLI process under the tracer; its spans are added to ``totals``."""
    from procs import run_child, thread_env

    spans_file = wl.workdir / "cli-spans.json"
    env = thread_env(ROOT)
    env["PERFBENCH_SPANS"] = str(spans_file)
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    code, out, err = run_child([sys.executable, str(HERE / "traced_cli.py"), *cli_args], env)
    if code != 0:
        raise RuntimeError(f"traced ctxkb {cli_args[0]} exited {code}: {err.strip()[-300:]}")
    dump = json.loads(spans_file.read_text(encoding="utf-8"))
    totals.add(dump)
    if dump["spans"]:
        startups.append((min(s[1] for s in dump["spans"]) - int(env["PERFBENCH_SPAWN_NS"])) / 1e6)
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "setup", "trace"), default="run")
    p.add_argument("--max-ops", type=int, default=None, help="stop after this many operations (self-check)")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    spawn_ns = int(os.environ.get("PERFBENCH_SPAWN_NS") or time.monotonic_ns())

    ctxkb = import_ctxkb()
    sys.path.insert(0, str(HERE))
    from tracer import LayerTotals, Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    setup_totals = LayerTotals()
    if args.mode == "trace":
        tracer.install()
    workdir = Path(args.workdir)
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        setup_s = (time.monotonic_ns() - spawn_ns) / 1e9
        if args.mode == "trace":
            tracer.uninstall()
            setup_totals.add(tracer.dump())
            tracer = Tracer()
        result = {"workload": wl.name, "seed": args.seed}
        if args.mode == "setup":
            result["setup_s"] = setup_s
            print(json.dumps(result))
            return 0

        warm = Runner(wl)
        warm.op(wl.rounds[0][0])  # warm-up, checked but not timed
        if args.mode == "run":
            runner = Runner(wl)
            runner.rounds(args.seconds, wl.min_ops, max_ops=args.max_ops)
            runners = [runner]
            result["metrics"] = end_to_end(wl, runner, setup_s)
        else:
            result["trace"] = {}
            metrics, runners = traced(wl, args, ctxkb, tracer, setup_totals, result["trace"])
            result["metrics"] = metrics
        # the warm-up is checked, but attempted and failed count whole timed rounds only
        result["attempted"] = sum(r.attempted for r in runners)
        result["failed"] = sum(r.failed for r in runners)
        result["wrong"] = [w for r in [warm, *runners] for w in r.wrong]
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
