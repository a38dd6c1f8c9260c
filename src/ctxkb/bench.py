"""Benchmark: context-indexed actions versus actions-as-network-nodes.

Both encodings of the same process must agree on posteriors when the
action-node encoding's action priors are degenerate at the plan; the
context encoding then wins on node count and conditional-table size
(half the entries per timestep for a variable with one action precondition).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import resources

from .errors import CtxkbError
from .infer import answer_on_net
from .lang import Atom, Const, KnowledgeBase, SessionInput, obj_time, validate_session
from .netbuild import build_net
from .parser import parse_atom, parse_kb


@dataclass
class EncodingMetrics:
    encoding: str
    nodes: int
    cpt_entries: int
    build_ms: float
    infer_ms: float
    posterior: tuple
    entries_by_time: dict  # predicate family: time -> CPT entries of that node


@dataclass
class EncodingPair:
    context_kb: KnowledgeBase
    action_kb: KnowledgeBase
    horizon: int


class PosteriorMismatchError(CtxkbError):
    pass


FAMILY = "painted"  # the predicate whose posterior both encodings answer and whose tables are sized
AGREEMENT_TOL = 1e-9  # the largest posterior difference allowed between the two encodings


def paint_context_kb() -> KnowledgeBase:
    text = resources.files("ctxkb.data").joinpath("paint.ckb").read_text(encoding="utf-8")
    return parse_kb(text, "paint.ckb")


def paint_action_kb(horizon: int, plan_times) -> KnowledgeBase:
    """Same paint process with the action as a binary parent node.

    The action's prior is degenerate at the plan, which makes the two
    encodings describe the same distribution.
    """
    plan_times = set(plan_times)
    lines = [
        "domain item = { door }.",
        "value painted = { no, yes }.",
        "value paintact = { no, yes }.",
        "pred painted(item, time).",
        "pred paintact(item, time).",
        "combine painted with noisy_max.",
        "prob painted(X, 0, no) = 0.9.",
        "prob painted(X, 0, yes) = 0.1.",
    ]
    for t in range(horizon):
        yes = 1.0 if t in plan_times else 0.0
        lines.append(f"prob paintact(X, {t}, yes) = {yes}.")
        lines.append(f"prob paintact(X, {t}, no) = {1.0 - yes}.")
    rows = {
        ("yes", "yes"): 0.99,  # action overrides persistence
        ("no", "yes"): 0.99,
        ("yes", "no"): 0.95,
        ("no", "no"): 0.03,
    }
    for prev in ("yes", "no"):
        for act in ("yes", "no"):
            p_yes = rows[(prev, act)]
            for to, p in (("yes", p_yes), ("no", 1.0 - p_yes)):
                lines.append(
                    f"prob painted(X, t, {to}) | painted(X, t-1, {prev}), "
                    f"paintact(X, t-1, {act}) = {p}."
                )
    return parse_kb("\n".join(lines) + "\n", "<paint-action>")


def paint_pair(horizon: int, plan_times) -> EncodingPair:
    return EncodingPair(paint_context_kb(), paint_action_kb(horizon, plan_times), horizon)


def measure(kb: KnowledgeBase, session: SessionInput, encoding: str) -> EncodingMetrics:
    vs = validate_session(kb, session)
    t0 = time.perf_counter()
    net, subs = build_net(kb, vs)
    t1 = time.perf_counter()
    answer = answer_on_net(kb, vs, net, subs)
    t2 = time.perf_counter()
    if len(answer.instances) != 1:
        raise CtxkbError(f"benchmark query must have exactly one instance, got {len(answer.instances)}")
    by_time = {}
    for o, node in net.nodes.items():
        if o[0] == FAMILY:
            by_time[obj_time(kb, o)] = node.n_entries
    return EncodingMetrics(
        encoding=encoding,
        nodes=len(net.nodes),
        cpt_entries=sum(n.n_entries for n in net.nodes.values()),
        build_ms=(t1 - t0) * 1e3,
        infer_ms=(t2 - t1) * 1e3,
        posterior=answer.instances[0][1].probabilities,
        entries_by_time=by_time,
    )


def compare_encodings(pair: EncodingPair, plan_times):
    """Run the same projection on both encodings; returns the two metric rows.

    Raises PosteriorMismatchError when the encodings disagree, which would
    indicate one of them does not model the intended process.
    """
    horizon = pair.horizon
    query_text = f"{FAMILY}(door, {horizon}, V)"
    query_ctx = parse_atom(pair.context_kb, query_text)
    plan = tuple(
        Atom("paint", (Const("door"), Const(t))) for t in sorted(set(plan_times))
    )
    ctx_session = SessionInput(context=plan, lo=0, hi=horizon, query=query_ctx)
    query_act = parse_atom(pair.action_kb, query_text)
    act_session = SessionInput(lo=0, hi=horizon, query=query_act)

    m_ctx = measure(pair.context_kb, ctx_session, "context")
    m_act = measure(pair.action_kb, act_session, "action_node")
    diff = max(abs(a - b) for a, b in zip(m_ctx.posterior, m_act.posterior))
    if diff > AGREEMENT_TOL:
        raise PosteriorMismatchError(f"encodings disagree by {diff}")
    return m_ctx, m_act


def metrics_csv(rows) -> str:
    out = ["encoding,nodes,cpt_entries,build_ms,infer_ms"]
    for m in rows:
        out.append(
            f"{m.encoding},{m.nodes},{m.cpt_entries},{m.build_ms:.3f},{m.infer_ms:.3f}"
        )
    return "\n".join(out) + "\n"
