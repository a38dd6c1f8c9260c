"""Command-line surface: validate, query, project plans, export, oracle-diff.

Exit codes:
    0  success
    1  parse / input / usage error
    2  dependency cycle
    3  allowedness failure
    4  quantification/consistency failure or impossible evidence
    5  enumeration guard exceeded

Every command runs under one handler, the one place that maps an error to an
exit code: a ``CtxkbError`` prints one line and exits with the error class's
``exit_code``; an unreadable file and a usage error (a missing command or
argument, an unknown option, a bad option value) exit 1.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from .errors import ConsistencyError, CtxkbError
from .infer import answer_on_net, answer_query
from .lang import Atom, SessionInput, Var, atom_time, validate_session
from .logic import check_acyclic_cb, check_acyclic_pb, check_allowed
from .netbuild import build_net, export_dot
from .oracle import DEFAULT_GUARD, forward_sample, oracle_answer
from .parser import load_atoms, load_kb, parse_atom
from .relevance import build_combined_base, check_consistency


# The time variable of a projected query: "@" starts no token, so no input can name it.
# It sorts before every parsed variable name, so instances come out ordered by time.
_TIME_VAR = "@t"


def _atoms(kb, path):
    return [] if path is None else load_atoms(kb, path)


def _default_bounds(kb, frm, to, atoms):
    """The bounds given, else 0 and the latest time that one of the atoms names (0 if none)."""
    if to is None:
        to = max([0] + [t for t in (atom_time(kb, a) for a in atoms if a is not None) if t is not None])
    return 0 if frm is None else frm, to


def _session(kb, context_path, evidence_path, query_text, frm, to, plan_path=None):
    """The validated session of the command's inputs; a plan's atoms join the context."""
    plan = _atoms(kb, plan_path)
    ctx = _atoms(kb, context_path) + plan
    ev = _atoms(kb, evidence_path)
    query = None if query_text is None else parse_atom(kb, query_text)
    frm, to = _default_bounds(kb, frm, to, ctx + ev + [query])
    s = SessionInput(context=tuple(ctx), evidence=tuple(ev), lo=frm, hi=to, query=query)
    return validate_session(kb, s)


def _bindings_str(theta):
    return ", ".join(f"{k}={v}" for k, v in sorted(theta.items())) or "-"


def _emit_instances(kb, query, lo, hi, steps, fmt):
    """Print (bindings, posterior) instances as JSON or as a table.

    ``steps`` maps each timestep of a projection to its instances; a query
    passes its instances under the key None, which drops the time grouping.
    """

    def records(instances):
        return [
            {
                "bindings": dict(sorted(theta.items())),
                "values": list(kb.val(vec.query_object[0])),
                "posterior": list(vec.probabilities),
            }
            for theta, vec in instances
        ]

    timed = None not in steps
    values = kb.val(query.pred)
    if fmt == "json":
        payload = {"query": str(query), "bounds": [lo, hi]}
        if timed:
            payload["timesteps"] = [{"t": t, "instances": records(i)} for t, i in steps.items()]
        else:
            payload["instances"] = records(steps[None])
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    if not timed and not steps[None]:
        click.echo(f"no answerable instances of {query} in [{lo}, {hi}]")
        return
    header = (["t"] if timed else []) + ["bindings"] + list(values)
    rows = []
    for t, instances in steps.items():
        lead = [str(t)] if timed else []
        if not instances:
            rows.append(lead + ["-"] * (1 + len(values)))
        for theta, vec in instances:
            rows.append(lead + [_bindings_str(theta)] + [f"{p:.9f}" for p in vec.probabilities])
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for r in [header] + rows:
        click.echo("  ".join(c.ljust(w) for c, w in zip(r, widths)))


_common = [
    click.option("--context", "context_path", type=click.Path(), default=None,
                 help="File of ground context atoms."),
    click.option("--evidence", "evidence_path", type=click.Path(), default=None,
                 help="File of ground evidence atoms."),
    click.option("--query", "query_text", default=None, help="Query atom text."),
    click.option("--from", "frm", type=int, default=None, help="Lower time bound."),
    click.option("--to", "to", type=int, default=None, help="Upper time bound."),
]
_format = click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table")


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


class _Main(click.Group):
    """Parses and runs each command; turns a usage, engine or file error into one line and its exit code."""

    def make_context(self, *args, **kwargs):
        return self._run(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return self._run(super().invoke, ctx)

    @staticmethod
    def _run(step, *args, **kwargs):
        try:
            return step(*args, **kwargs)
        except click.UsageError as e:
            code, message = 1, f"error: {e.format_message()}"
        except CtxkbError as e:
            code, message = e.exit_code, e
        except OSError as e:
            code, message = 1, e
        click.echo(str(message), err=True)
        sys.exit(code)


@click.group(cls=_Main, no_args_is_help=False)  # a missing command is a usage error, not a page of help
def main():
    """Context-sensitive temporal probabilistic knowledge bases."""


@main.command()
@click.argument("kb_path", type=click.Path())
@click.option("--from", "frm", type=int, default=0)
@click.option("--to", "to", type=int, default=0)
@_format
def check(kb_path, frm, to, fmt):
    """Validate a knowledge base: parse, acyclicity, allowedness, consistency."""
    kb = load_kb(kb_path)
    check_acyclic_cb(kb, frm, to)
    check_acyclic_pb(kb, frm, to)
    check_allowed(kb)
    # combined-base consistency under the empty session (all contexts open)
    empty = validate_session(kb, SessionInput(lo=frm, hi=to))
    base, _, _ = build_combined_base(kb, empty)
    check_consistency(base)
    if fmt == "json":
        click.echo(json.dumps({"ok": True, "file": str(kb_path), "bounds": [frm, to]}))
    else:
        click.echo(f"ok: {kb_path} ({len(kb.pb)} sentences, {len(kb.cb)} clauses)")


@main.command()
@click.argument("kb_path", type=click.Path())
@_with_common
@_format
def query(kb_path, context_path, evidence_path, query_text, frm, to, fmt):
    """Answer a complete query: one posterior row per ground instance."""
    kb = load_kb(kb_path)
    if query_text is None:
        raise CtxkbError("query: --query is required")
    session = _session(kb, context_path, evidence_path, query_text, frm, to)
    ans = answer_query(kb, session)
    _emit_instances(kb, session.query, session.lo, session.hi, {None: ans.instances}, fmt)


@main.command()
@click.argument("kb_path", type=click.Path())
@click.option("--plan", "plan_path", type=click.Path(), required=True,
              help="File of timed context atoms (the actions).")
@_with_common
@_format
def project(kb_path, context_path, evidence_path, query_text, frm, to, fmt, plan_path):
    """Project a plan: answer the query at every timestep in the bounds.

    The query's time argument becomes a variable no input can name, so one
    pipeline run answers every timestep; its instances are grouped by time.
    """
    kb = load_kb(kb_path)
    if query_text is None:
        raise CtxkbError("project: --query is required")
    # validated as the user wrote it, so that diagnostics name their query
    session = _session(kb, context_path, evidence_path, query_text, frm, to, plan_path)
    base_query = session.query
    tp = kb.decl(base_query.pred).time_position()
    if tp is None:
        raise CtxkbError(f"project: query predicate {base_query.pred!r} has no time attribute")

    args = list(base_query.args)
    args[tp] = Var(_TIME_VAR)
    session = dataclasses.replace(session, query=Atom(base_query.pred, tuple(args)))
    steps = {t: [] for t in range(session.lo, session.hi + 1)}
    for theta, vec in answer_query(kb, session).instances:
        theta = dict(theta)
        steps[theta.pop(_TIME_VAR)].append((theta, vec))
    _emit_instances(kb, base_query, session.lo, session.hi, steps, fmt)


@main.command("export-dot")
@click.argument("kb_path", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None, help="Output file (default stdout).")
@_with_common
def export_dot_cmd(kb_path, context_path, evidence_path, query_text, frm, to, out_path):
    """Export the supporting network as a DOT graph."""
    kb = load_kb(kb_path)
    session = _session(kb, context_path, evidence_path, query_text, frm, to)
    net, _ = build_net(kb, session)
    text = export_dot(net, kb)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
        click.echo(f"wrote {out_path} ({len(net.nodes)} nodes)")
    else:
        click.echo(text, nl=False)


@main.command("oracle-diff")
@click.argument("kb_path", type=click.Path())
@click.option("--guard", type=click.IntRange(min=0), default=DEFAULT_GUARD, help="Enumeration work bound.")
@click.option("--seed", type=int, default=None,
              help="Also cross-check with forward sampling at this seed.")
@_with_common
@_format
def oracle_diff(kb_path, context_path, evidence_path, query_text, frm, to, fmt, guard, seed):
    """Compare variable elimination against possible-model enumeration."""
    kb = load_kb(kb_path)
    if query_text is None:
        raise CtxkbError("oracle-diff: --query is required")
    session = _session(kb, context_path, evidence_path, query_text, frm, to)
    net, subs = build_net(kb, session)
    ans = answer_on_net(kb, session, net, subs)
    ref = oracle_answer(kb, session, guard=guard)
    worst = 0.0
    pairs = list(zip(ans.instances, ref))
    if len(ans.instances) != len(ref):
        raise ConsistencyError(["instance sets differ between the two answer paths"])
    for (theta_a, vec_a), (theta_b, vec_b) in pairs:
        if theta_a != theta_b or vec_a.query_object != vec_b.query_object:
            raise ConsistencyError(["instance ordering differs between the two answer paths"])
        worst = max(worst, max(abs(x - y) for x, y in zip(vec_a.probabilities, vec_b.probabilities)))
    sample_note = None
    if seed is not None:
        targets = [vec.query_object for _, vec in ans.instances]
        vecs, accepted = forward_sample(kb, net, 20000, seed, targets, session.evidence)
        sample_note = f"sampling cross-check: {accepted} accepted samples at seed {seed}"
    if fmt == "json":
        click.echo(json.dumps({"max_abs_diff": worst, "instances": len(pairs)}))
    else:
        click.echo(f"max |delta| = {worst:.3e} over {len(pairs)} instance(s)")
        if sample_note:
            click.echo(sample_note)
    sys.exit(0 if worst <= 1e-9 else 4)


@main.command()
@click.option("--horizon", type=int, default=3, help="Projection horizon (timesteps).")
@click.option("--plan-times", "plan_times", default="0",
              help="Comma-separated action timesteps.")
def bench(horizon, plan_times):
    """Compare context-indexed actions against the action-as-node encoding (CSV)."""
    from .bench import compare_encodings, metrics_csv, paint_pair  # here, so no other command loads it

    try:
        times = [int(t) for t in plan_times.split(",") if t.strip() != ""]
    except ValueError:
        raise CtxkbError(f"bench: --plan-times {plan_times!r} is not a comma-separated list of integers")
    bad = [t for t in times if not (0 <= t < horizon)]
    if bad:
        raise CtxkbError(f"bench: plan times {bad} outside [0, {horizon - 1}]")
    pair = paint_pair(horizon, times)
    m_ctx, m_act = compare_encodings(pair, times)
    click.echo(metrics_csv([m_ctx, m_act]), nl=False)


if __name__ == "__main__":
    main()
