"""Backward construction of the supporting Bayesian network for a session.

The network contains a node for every ground evidence object, every
answerable ground query instance, and every object that influences one of
those.  A node is its object's table in the combined relevant base: the
network shares those tables and copies none.
Construction chains backwards only; objects that merely depend on the query
or evidence never enter the network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConsistencyError, OutOfBoundsSupportError, QuantificationError
from .lang import (
    Atom,
    KnowledgeBase,
    Obj,
    SessionInput,
    ValidatedSession,
    atom_slots,
    fill_slots,
    groundings,
    match_slots,
    rule_bindings,
    validate_session,
)
from .logic import topo_order
from .relevance import (
    CombinedBase,
    RelevantAtomSet,
    build_combined_base,
    row_violations,
    table_gaps,
)


@dataclass
class BayesNet:
    nodes: dict = field(default_factory=dict)  # Obj -> its ObjTable in the combined base
    order: tuple = ()  # topological, parents before children


def query_instances(kb: KnowledgeBase, query: Atom, lo: int, hi: int):
    """(bindings, object) of each ground query instance in the window.

    Bindings cover the query's non-value variables; the list is in answer
    order, sorted by bindings.
    """
    pattern = Atom(query.pred, query.args[:-1])  # the object part; the value stays free
    slots = atom_slots(pattern)
    out = [(theta, fill_slots(slots, theta)) for theta in groundings(kb, [pattern], lo, hi)]
    out.sort(key=lambda pair: sorted(pair[0].items()))
    return out


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
    A gap in a reached table raises QuantificationError, and a row that is
    not a distribution ConsistencyError.
    """
    instances = [(theta, o) for theta, o in candidates if o in ras.objs]

    reached = set()
    stack = sorted({o for _, o in instances} | set(session.evidence))
    gaps = []
    while stack:
        obj = stack.pop()
        if obj in reached:
            continue
        reached.add(obj)
        table = base.tables.get(obj)
        if table is None:
            outside = _support_out_of_window(kb, obj, kb.window_for(session.lo, session.hi), base.tables)
            if outside is not None:
                raise OutOfBoundsSupportError(outside)
        else:
            stack.extend(p for p in table.parents if p not in reached)
        gaps.extend(table_gaps(obj, table))
    if gaps:
        raise QuantificationError(gaps)
    violations = [v for o in sorted(reached) for v in row_violations(base.tables[o])]
    if violations:
        raise ConsistencyError(violations)

    order = topo_order({o: base.tables[o].parents for o in reached}, "supporting network")
    return BayesNet({o: base.tables[o] for o in order}, tuple(order)), [theta for theta, _ in instances]


def _support_out_of_window(kb: KnowledgeBase, obj: Obj, window, tables) -> Obj | None:
    """The object whose support leaves ``window`` on the way back from unsupported ``obj``, or None.

    An object qualifies if some schema matches it, but only outside the
    window.  From an object whose schemas all match inside, the walk follows
    their antecedents that have no table of their own.
    """
    stack, seen = [obj], {obj}
    while stack:
        o = stack.pop()
        for schema in kb.schemas.get(o[0], ()):
            if match_slots(schema.head, o) is None:
                continue
            thetas = rule_bindings(schema, o, window)
            if not thetas:
                return o  # matches in general, but only outside the window
            for theta in thetas:
                for slots in schema.ante:
                    a = fill_slots(slots, theta)
                    if a not in seen and a not in tables:
                        seen.add(a)
                        stack.append(a)
    return None


# ---------------------------------------------------------------------------
# Export


def node_label(kb: KnowledgeBase, obj: Obj) -> str:
    tp = kb.decl(obj[0]).time_position()
    args = list(obj[1:])
    t = None if tp is None else args.pop(tp)
    head = f"{obj[0]}({', '.join(map(str, args))})" if args else obj[0]
    return head if tp is None else f"{head}@{t}"


def export_dot(net: BayesNet, kb: KnowledgeBase) -> str:
    """Deterministic DOT rendering: one vertex per node, one edge per link, labelled by ``node_label``."""
    lines = ["digraph supporting_network {"]
    lines += [f'  "{node_label(kb, o)}";' for o in sorted(net.nodes)]
    edges = sorted((p, o) for o, node in net.nodes.items() for p in node.parents)
    lines += [f'  "{node_label(kb, p)}" -> "{node_label(kb, o)}";' for p, o in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
