"""Ground-truth reference paths: possible-model enumeration and sampling.

The enumerator materializes the distribution over possible models (one value
per relevant object) as the chain-rule product over the combined relevant
base, pruning zero-probability prefixes.  It is deliberately independent of
the factor machinery in ``infer`` and exists to check it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationGuardError, ImpossibleEvidenceError, QuantificationError
from .infer import PosteriorVector
from .lang import KnowledgeBase, Obj, SessionInput, validate_session
from .logic import ancestors, topo_order
from .netbuild import BayesNet, query_instances
from .relevance import CombinedBase, build_combined_base, table_gaps

DEFAULT_GUARD = 10**7


@dataclass
class JointDistribution:
    objs: tuple  # of Obj, in enumeration order
    values: tuple  # per-object value tuples, aligned with objs
    models: list  # of (assignment tuple, probability); zero-mass models omitted


def enumerate_joint(
    base: CombinedBase,
    objs,
    guard: int = DEFAULT_GUARD,
    evidence: dict = None,
) -> JointDistribution:
    """All possible models with chain-rule probabilities over the tables of ``objs`` in the combined base.

    ``guard`` bounds the number of expanded (nonzero-prefix) states; a KB whose
    deterministic structure kills most branches enumerates far beyond the naive
    product of value-set sizes.  Passing ``evidence`` restricts enumeration to
    the evidence-consistent slice of the joint (the models dropped all have the
    wrong value at an observed object, so conditionals are unchanged).
    """
    gaps = [gap for o in sorted(objs) for gap in table_gaps(o, base.tables.get(o))]
    if gaps:
        raise QuantificationError(gaps)
    order = topo_order({o: base.tables[o].parents for o in objs}, "combined relevant base")
    evidence = evidence or {}
    tables = [base.tables[o] for o in order]
    pos = {o: i for i, o in enumerate(order)}
    parent_idx = [tuple(pos[p] for p in t.parents) for t in tables]
    value_lists = [
        tuple(v for v in t.values if o not in evidence or v == evidence[o])
        for o, t in zip(order, tables)
    ]
    value_index = [
        tuple(t.values.index(v) for v in vals)
        for t, vals in zip(tables, value_lists)
    ]

    models = []
    work = 0
    assignment = [None] * len(order)

    def branches(depth):
        """(value, probability) of each value left at ``depth``, given the prefix."""
        row = tables[depth].rows[tuple(assignment[i] for i in parent_idx[depth])]
        return zip(value_lists[depth], [row[vi] for vi in value_index[depth]])

    if not order:
        return JointDistribution((), (), [((), 1.0)])
    # depth-first over an explicit stack: one branch iterator and prefix probability per depth
    stack, prefix = [branches(0)], [1.0]
    while stack:
        depth = len(stack) - 1
        for v, p in stack[-1]:
            work += 1
            if work > guard:
                raise EnumerationGuardError(
                    f"possible-model enumeration exceeded {guard} expansions"
                )
            if p != 0.0:
                break
        else:
            stack.pop()
            prefix.pop()
            continue
        assignment[depth] = v
        prob = prefix[depth] * p
        if depth + 1 == len(order):
            models.append((tuple(assignment), prob))
        else:
            stack.append(branches(depth + 1))
            prefix.append(prob)
    return JointDistribution(tuple(order), tuple(value_lists), models)


def conditional(joint: JointDistribution, query_obj: Obj, evidence: dict, kb: KnowledgeBase) -> PosteriorVector:
    """Exact posterior of one object from the enumerated joint."""
    pos = {o: i for i, o in enumerate(joint.objs)}
    ev = [(pos[o], v) for o, v in evidence.items()]
    p_e = sum(p for m, p in joint.models if all(m[i] == v for i, v in ev))
    if p_e <= 0.0:
        raise ImpossibleEvidenceError("evidence has zero probability in the joint")
    qi = pos[query_obj]
    values = kb.val(query_obj[0])
    mass = dict.fromkeys(values, 0.0)
    for m, p in joint.models:
        if all(m[i] == v for i, v in ev):
            mass[m[qi]] += p
    return PosteriorVector(query_obj, tuple(mass[v] / p_e for v in values))


# ---------------------------------------------------------------------------
# Forward (rejection) sampling


def forward_sample(
    kb: KnowledgeBase,
    net: BayesNet,
    n: int,
    seed: int,
    targets,
    evidence: dict = None,
):
    """Ancestral sampling with rejection; returns (per-target empirical vectors,
    number of accepted samples).

    The one numpy user in ctxkb: it is imported here so that answering a
    query never pays for loading it.
    """
    import numpy as np

    evidence = evidence or {}
    rng = np.random.default_rng(seed)
    vindex = {o: {v: i for i, v in enumerate(kb.val(o[0]))} for o in net.nodes}
    samples = {}
    for o in net.order:
        node = net.nodes[o]
        k = len(node.values)
        if not node.parents:
            probs = np.asarray(node.rows[()])
            samples[o] = rng.choice(k, size=n, p=probs)
        else:
            # build the row matrix indexed by the mixed-radix parent code
            cards = [len(kb.val(p[0])) for p in node.parents]
            n_rows = int(np.prod(cards))
            rows = np.zeros((n_rows, k))
            for assignment, row in node.rows.items():
                code = 0
                for p, v, c in zip(node.parents, assignment, cards):
                    code = code * c + vindex[p][v]
                rows[code] = row
            code = np.zeros(n, dtype=np.int64)
            for p, c in zip(node.parents, cards):
                code = code * c + samples[p]
            u = rng.random(n)
            cdf = np.cumsum(rows[code], axis=1)
            samples[o] = (u[:, None] > cdf).sum(axis=1)
    mask = np.ones(n, dtype=bool)
    for o, v in evidence.items():
        mask &= samples[o] == vindex[o][v]
    accepted = int(mask.sum())
    if accepted == 0:
        raise ImpossibleEvidenceError("no samples consistent with the evidence")
    out = {}
    for t in targets:
        k = len(kb.val(t[0]))
        counts = np.bincount(samples[t][mask], minlength=k)
        out[t] = PosteriorVector(t, tuple(counts / accepted))
    return out, accepted


# ---------------------------------------------------------------------------
# End-to-end oracle answer (used by tests and the oracle-diff command)


def oracle_answer(kb: KnowledgeBase, session, guard: int = DEFAULT_GUARD):
    """Answer a session's query by possible-model enumeration.

    Returns a list of (substitution, PosteriorVector) in the same deterministic
    order as ``infer.answer_query``.
    """
    if isinstance(session, SessionInput):
        session = validate_session(kb, session)
    base, ras, _ = build_combined_base(kb, session)
    parents = {o: t.parents for o, t in base.tables.items()}
    results = []
    for theta, target in query_instances(kb, session.query, session.lo, session.hi):
        if target not in ras.objs:
            continue
        objs = ancestors(parents, [target] + list(session.evidence))
        joint = enumerate_joint(base, objs=objs, guard=guard, evidence=session.evidence)
        results.append((theta, conditional(joint, target, session.evidence, kb)))
    return results
