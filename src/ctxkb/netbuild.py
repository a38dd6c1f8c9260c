"""Backward construction of the supporting Bayesian network for a session.

The network contains a node for every ground evidence object, every
answerable ground query instance, and every object that influences one of
those, with conditional tables taken from the combined relevant base.
Construction chains backwards only; objects that merely depend on the query
or evidence never enter the network.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import OutOfBoundsSupportError, QuantificationError
from .lang import (
    Atom,
    Const,
    KnowledgeBase,
    Obj,
    SessionInput,
    ValidatedSession,
    Var,
    fill_slots,
    obj_sort_key,
    obj_time,
    validate_session,
)
from .logic import groundings, topo_order
from .relevance import CombinedBase, RelevantAtomSet, _schema_typing, build_combined_base


@dataclass
class NetNode:
    obj: Obj
    values: tuple
    parents: tuple  # of Obj, sorted
    cpt: dict  # parent assignment -> tuple of probs over values

    @property
    def n_entries(self) -> int:
        return sum(len(r) for r in self.cpt.values())


@dataclass
class BayesNet:
    nodes: dict = field(default_factory=dict)  # Obj -> NetNode
    order: tuple = ()  # topological, parents before children


def query_instances(kb: KnowledgeBase, query: Atom, lo: int, hi: int):
    """(bindings, object) of each ground query instance in the window.

    Bindings cover the query's non-value variables; the list is in answer
    order, sorted by bindings.
    """
    pattern = Atom(query.pred, query.args[:-1])  # the object part; the value stays free
    out = []
    for theta in groundings(kb, [pattern], lo, hi):
        theta = {n: c.value for n, c in theta.items()}
        out.append((theta, query_obj(kb, query, theta)))
    out.sort(key=lambda pair: sorted(pair[0].items(), key=str))
    return out


def query_obj(kb: KnowledgeBase, query: Atom, theta: dict) -> Obj:
    args = []
    for term in query.args[:-1]:
        if isinstance(term, Var):
            args.append(theta[term.name])
        elif isinstance(term, Const):
            args.append(term.value)
        else:  # TimeExpr
            args.append(theta[term.var] + term.offset)
    return (query.pred,) + tuple(args)


def build_net(kb: KnowledgeBase, session):
    """Construct the supporting network; returns (BayesNet, substitutions).

    The substitution list contains exactly the ground query instances for
    which a supporting network exists (empty when the query is unsupported).
    Only the candidate query objects, the evidence objects and their
    ancestors are discharged and combined.
    """
    if isinstance(session, SessionInput):
        session = validate_session(kb, session)
    candidates = []
    if session.query is not None:
        candidates = query_instances(kb, session.query, session.lo, session.hi)
    demand = {o for _, o in candidates} | set(session.evidence)
    base, ras, _ = build_combined_base(kb, session, demand=demand)
    net, subs = assemble_net(kb, session, base, ras, candidates)
    return net, subs


def assemble_net(
    kb: KnowledgeBase, session: ValidatedSession, base: CombinedBase, ras: RelevantAtomSet, candidates
):
    """The network of the evidence and of the query ``candidates`` in ``ras``, from ``base``.

    ``candidates`` are the query's (bindings, object) pairs, as ``query_instances`` lists them.
    """
    instances = [(theta, o) for theta, o in candidates if o in ras.objs]

    reached = set()
    stack = sorted({o for _, o in instances} | set(session.evidence), key=obj_sort_key)
    gaps = []
    while stack:
        obj = stack.pop()
        if obj in reached:
            continue
        reached.add(obj)
        table = base.tables.get(obj)
        if table is None:
            outside = _support_out_of_window(kb, obj, session.lo, session.hi, base.tables)
            if outside is not None:
                raise OutOfBoundsSupportError(outside)
            gaps.append((obj, "no applicable sentence inside the session window"))
            continue
        if table.missing:
            gaps.extend(
                (obj, f"missing cell {m}") for m in table.missing
            )
        stack.extend(p for p in table.parents if p not in reached)
    if gaps:
        raise QuantificationError(gaps)

    order = topo_order({o: base.tables[o].parents for o in reached}, "supporting network")

    nodes = {}
    for obj in order:
        t = obj_time(kb, obj)
        if t is not None and not session.lo <= t <= session.hi:
            raise OutOfBoundsSupportError(obj)
        table = base.tables[obj]
        nodes[obj] = NetNode(obj, table.values, table.parents, dict(table.rows))
    return BayesNet(nodes, tuple(order)), [theta for theta, _ in instances]


def _support_out_of_window(kb: KnowledgeBase, obj: Obj, lo: int, hi: int, tables) -> Obj | None:
    """The object whose support leaves [lo, hi] on the way back from unsupported ``obj``, or None.

    An object qualifies if some schema matches it, but only outside the
    window.  From an object whose schemas all match inside, the walk follows
    their antecedents that have no table of their own.
    """
    stack, seen = [obj], {obj}
    while stack:
        o = stack.pop()
        for schema in kb.schemas.get(o[0], ()):
            theta = schema.match(o)
            if theta is None:
                continue
            typing = _schema_typing(kb, schema, lo, hi)
            if typing is None or any(v not in typing[0][n] for n, v in theta.items()):
                return o  # matches in general, but only outside the window
            _, free, free_ranges = typing
            for combo in itertools.product(*free_ranges):
                theta.update(zip(free, combo))
                for p, slots in schema.ante:
                    a = (p,) + fill_slots(slots, theta)
                    if a not in seen and a not in tables:
                        seen.add(a)
                        stack.append(a)
    return None


# ---------------------------------------------------------------------------
# Export


def node_label(kb: KnowledgeBase, obj: Obj) -> str:
    decl = kb.decl(obj[0])
    tp = decl.time_position(kb)
    args = list(obj[1:])
    if tp is None:
        inner = ", ".join(str(a) for a in args)
        return f"{obj[0]}({inner})" if args else obj[0]
    t = args.pop(tp)
    inner = ", ".join(str(a) for a in args)
    head = f"{obj[0]}({inner})" if args else obj[0]
    return f"{head}@{t}"


def export_dot(net: BayesNet, kb: KnowledgeBase = None) -> str:
    """Deterministic DOT rendering: one vertex per node, one edge per link."""

    def label(o):
        return node_label(kb, o) if kb is not None else str(o)

    lines = ["digraph supporting_network {"]
    for o in sorted(net.nodes, key=obj_sort_key):
        lines.append(f'  "{label(o)}";')
    edges = []
    for o in sorted(net.nodes, key=obj_sort_key):
        for p in net.nodes[o].parents:
            edges.append(f'  "{label(p)}" -> "{label(o)}";')
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
