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
    TIME_DOMAIN,
    Atom,
    Const,
    KnowledgeBase,
    Obj,
    SessionInput,
    ValidatedSession,
    Var,
    obj_of,
    obj_sort_key,
    obj_time,
    validate_session,
)
from .logic import _find_cycle, _variable_typing, apply_subst, unify
from .relevance import CombinedBase, RelevantAtomSet, build_combined_base


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

    @property
    def roots(self):
        return [o for o in self.order if not self.nodes[o].parents]

    def ancestors_of(self, objs):
        """Reflexive-transitive parent closure inside the network."""
        seen = set()
        stack = [o for o in objs if o in self.nodes]
        while stack:
            o = stack.pop()
            if o in seen:
                continue
            seen.add(o)
            stack.extend(self.nodes[o].parents)
        return seen


def query_substitutions(kb: KnowledgeBase, query: Atom, lo: int, hi: int):
    """All type-consistent bindings of the query's non-value variables."""
    var_domains, _ = _variable_typing(kb, [query], lo, hi)
    if var_domains is None:
        return []
    names = sorted(n for n in var_domains if n != _value_var(query))
    out = []
    for combo in itertools.product(*(var_domains[n] for n in names)):
        out.append(dict(zip(names, combo)))
    return out


def _value_var(query: Atom):
    last = query.args[-1]
    return last.name if isinstance(last, Var) else None


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
    """
    if isinstance(session, SessionInput):
        session = validate_session(kb, session)
    base, ras, _ = build_combined_base(kb, session)
    net, subs = assemble_net(kb, session, base, ras)
    return net, subs


def assemble_net(kb: KnowledgeBase, session: ValidatedSession, base: CombinedBase, ras: RelevantAtomSet):
    answered = []
    targets = []
    if session.query is not None:
        for theta in query_substitutions(kb, session.query, session.lo, session.hi):
            o = query_obj(kb, session.query, theta)
            if o in ras.objs:
                answered.append(theta)
                targets.append(o)
    targets.extend(session.evidence)

    reached = set()
    stack = sorted(set(targets), key=obj_sort_key)
    gaps = []
    while stack:
        obj = stack.pop()
        if obj in reached:
            continue
        reached.add(obj)
        table = base.tables.get(obj)
        if table is None:
            if _support_out_of_window(kb, obj, session.lo, session.hi):
                raise OutOfBoundsSupportError(obj)
            gaps.append((obj, "no applicable sentence inside the session window"))
            continue
        if table.missing:
            gaps.extend(
                (obj, f"missing cell {m}") for m in table.missing
            )
        stack.extend(p for p in table.parents if p not in reached)
    if gaps:
        raise QuantificationError(gaps)

    deps = {o: sorted(base.tables[o].parents, key=obj_sort_key) for o in reached}
    _find_cycle(deps, "supporting network")

    nodes = {}
    for obj in reached:
        t = obj_time(kb, obj)
        if t is not None and not session.lo <= t <= session.hi:
            raise OutOfBoundsSupportError(obj)
        table = base.tables[obj]
        nodes[obj] = NetNode(obj, table.values, table.parents, dict(table.rows))

    order = _topo_order(nodes)
    net = BayesNet(nodes, tuple(order))
    answered.sort(key=lambda th: sorted(th.items(), key=str))
    return net, answered


def _topo_order(nodes: dict):
    indeg = {o: len(nodes[o].parents) for o in nodes}
    children: dict = {o: [] for o in nodes}
    for o, node in nodes.items():
        for p in node.parents:
            children[p].append(o)
    ready = sorted((o for o, d in indeg.items() if d == 0), key=obj_sort_key)
    order = []
    while ready:
        o = ready.pop(0)
        order.append(o)
        added = []
        for c in children[o]:
            indeg[c] -= 1
            if indeg[c] == 0:
                added.append(c)
        if added:
            ready.extend(added)
            ready.sort(key=obj_sort_key)
    return order


def _support_out_of_window(kb: KnowledgeBase, obj: Obj, lo: int, hi: int) -> bool:
    """Would some sentence support this object if the window were wider?"""
    pattern = Atom(obj[0], tuple(Const(c) for c in obj[1:]) + (Var("_ValueSlot"),))
    for s in kb.pb:
        theta = unify(s.cons, pattern)
        if theta is None:
            continue
        atoms = [s.cons] + list(s.ante) + [a for _, a in s.context]
        bound = [apply_subst(a, theta) for a in atoms]
        var_domains, _ = _variable_typing(kb, bound, lo, hi)
        if var_domains is None:
            return True  # matches in general, but only outside the window
    return False


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
