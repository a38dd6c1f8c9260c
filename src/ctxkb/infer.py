"""Exact posterior computation on a supporting network via variable elimination.

Factors stay unnormalized until the final division, so a vanishing evidence
probability is detected rather than silently divided through.  Each factor
that elimination produces is rescaled by a power of two, carried in the
factor's ``log2_scale`` (Rabiner 1989 scaling), so long evidence runs do not
underflow.  The answer to a complete query is one posterior vector per ground
query instance, aligned with the declared value order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, CtxkbError, ImpossibleEvidenceError
from .lang import (
    KnowledgeBase,
    Obj,
    SessionInput,
    ValidatedSession,
    obj_sort_key,
    validate_session,
)
from .logic import ancestors
from .netbuild import BayesNet, NetNode, build_net, query_obj

NORM_TOL = 1e-9


@dataclass
class Factor:
    scope: tuple  # of Obj, in axis order
    values: np.ndarray  # shape = tuple of cardinalities along scope
    log2_scale: int = 0  # the factor's entries are values * 2**log2_scale

    def __post_init__(self):
        if self.values.ndim != len(self.scope):
            raise ConsistencyError(
                [f"factor over {self.scope} has {self.values.ndim} axes"]
            )
        if not (self.values >= 0).all():
            raise ConsistencyError([f"factor over {self.scope} has a negative entry"])


class FactorBuilder:
    """Builds CPT factors with per-object value index maps."""

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self._vindex: dict = {}

    def vindex(self, obj: Obj) -> dict:
        if obj not in self._vindex:
            self._vindex[obj] = {v: i for i, v in enumerate(self.kb.val(obj[0]))}
        return self._vindex[obj]

    def card(self, obj: Obj) -> int:
        return len(self.kb.val(obj[0]))

    def cpt_factor(self, node: NetNode) -> Factor:
        scope = node.parents + (node.obj,)
        shape = tuple(self.card(o) for o in scope)
        arr = np.zeros(shape)
        for assignment, row in node.cpt.items():
            idx = tuple(
                self.vindex(p)[v] for p, v in zip(node.parents, assignment)
            )
            arr[idx] = np.asarray(row)
        return Factor(scope, arr)

    def reduce(self, factor: Factor, evidence: dict) -> Factor:
        """Slice out observed values for scope objects present in evidence."""
        scope = []
        index = []
        for o in factor.scope:
            if o in evidence:
                index.append(self.vindex(o)[evidence[o]])
            else:
                index.append(slice(None))
                scope.append(o)
        return Factor(tuple(scope), factor.values[tuple(index)])


def multiply(a: Factor, b: Factor) -> Factor:
    scope = list(a.scope)
    for o in b.scope:
        if o not in scope:
            scope.append(o)
    scope = tuple(scope)

    def align(f: Factor) -> np.ndarray:
        src = [f.scope.index(o) if o in f.scope else None for o in scope]
        arr = f.values
        # move existing axes into target order, inserting new axes of length 1
        order = [i for i in src if i is not None]
        arr = np.transpose(arr, order) if order else arr
        shape = []
        k = 0
        for i in src:
            if i is None:
                shape.append(1)
            else:
                shape.append(arr.shape[k])
                k += 1
        return arr.reshape(shape)

    return Factor(scope, align(a) * align(b), a.log2_scale + b.log2_scale)


def marginalize(f: Factor, obj: Obj) -> Factor:
    i = f.scope.index(obj)
    return Factor(f.scope[:i] + f.scope[i + 1 :], f.values.sum(axis=i), f.log2_scale)


def _rescale(f: Factor) -> Factor:
    """Move the factor's magnitude into ``log2_scale``: its largest entry lands in [1, 2).

    Scaling by a power of two is exact, so posteriors are bit for bit those of
    the unscaled products wherever those did not underflow.
    """
    top = float(f.values.max())
    if top == 0.0:
        return f
    e = math.frexp(top)[1] - 1
    if e == 0:
        return f
    return Factor(f.scope, np.ldexp(f.values, -e), f.log2_scale + e)


def _product(factors) -> Factor:
    """Left-to-right product of a non-empty factor list, rescaled at each step."""
    prod = factors[0]
    for f in factors[1:]:
        prod = _rescale(multiply(prod, f))
    return prod


def min_fill_order(scopes, keep):
    """Min-fill elimination order with a lexicographic tie-break.

    Each step eliminates the object outside ``keep`` whose elimination adds
    the fewest fill edges, the least ``obj_sort_key`` among ties.  Fill counts
    sit in a heap and are recomputed only for the eliminated object's
    neighbours and theirs, the only objects whose count can change.
    """
    neighbors: dict = {}
    for scope in scopes:
        for o in scope:
            neighbors.setdefault(o, set()).update(p for p in scope if p != o)
    sort_key = {o: obj_sort_key(o) for o in neighbors}

    def fill(o):
        nb = neighbors[o]
        # non-adjacent neighbour pairs; the sum counts each pair from both ends
        return sum(len(nb) - 1 - len(nb & neighbors[a]) for a in nb) // 2

    current = {o: fill(o) for o in neighbors if o not in keep}
    heap = [(f, sort_key[o], o) for o, f in current.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        f, _, o = heapq.heappop(heap)
        if current.get(o) != f:
            continue  # already eliminated, or its fill has changed since the push
        del current[o]
        order.append(o)
        nb = neighbors.pop(o)
        for a in nb:
            neighbors[a] |= nb
            neighbors[a].discard(a)
            neighbors[a].discard(o)
        touched = set(nb)
        for a in nb:
            touched |= neighbors[a]
        for t in touched:
            if t in current:
                nf = fill(t)
                if nf != current[t]:
                    current[t] = nf
                    heapq.heappush(heap, (nf, sort_key[t], t))
    return order


def eliminate(
    kb: KnowledgeBase,
    net: BayesNet,
    evidence: dict,
    targets,
    order=None,
):
    """Unnormalized joint factors P(target, evidence), one per target object.

    Only the ancestors of targets and evidence participate (barren nodes are
    answer-preserving to prune).  ``order`` overrides the min-fill heuristic.
    Each returned factor holds P(target, evidence) / 2**log2_scale.
    """
    for o in evidence:
        if o not in net.nodes:
            raise CtxkbError(f"evidence object {o} is not in the network")
    fb = FactorBuilder(kb)
    parents = {o: node.parents for o, node in net.nodes.items()}
    out = {}
    for target in targets:
        relevant = ancestors(parents, set(evidence) | {target})
        factors = [
            fb.reduce(fb.cpt_factor(net.nodes[o]), evidence)
            for o in sorted(relevant, key=obj_sort_key)
        ]
        keep = [target] if target not in evidence else []
        if order is None:
            elim = min_fill_order([f.scope for f in factors], set(keep))
        else:
            elim = [o for o in order if o in relevant and o not in keep and o not in evidence]
        # Factors by creation id, and per object the ids whose scope names it.
        # Ids only grow, so a bucket multiplies in the order of the factor list.
        live = dict(enumerate(factors))
        buckets: dict = {}
        for i, f in live.items():
            for p in f.scope:
                buckets.setdefault(p, []).append(i)
        next_id = len(factors)
        for o in elim:
            group = [live.pop(i) for i in buckets.pop(o, ()) if i in live]
            if not group:
                continue
            new = _rescale(marginalize(_product(group), o))
            live[next_id] = new
            for p in new.scope:
                buckets.setdefault(p, []).append(next_id)
            next_id += 1
        result = _product(list(live.values()))
        if target in evidence:
            # degenerate: expand the observed target back into a vector
            vec = np.zeros(fb.card(target))
            vec[fb.vindex(target)[evidence[target]]] = float(result.values)
            result = Factor((target,), vec, result.log2_scale)
        out[target] = result
    return out


@dataclass(frozen=True)
class PosteriorVector:
    query_object: Obj
    probabilities: tuple  # aligned with the declared value order

    def __post_init__(self):
        if not (
            all(0.0 <= p <= 1.0 + 1e-12 for p in self.probabilities)
            and abs(sum(self.probabilities) - 1.0) <= NORM_TOL
        ):
            raise ConsistencyError(
                [f"posterior of {self.query_object} is not a distribution: {self.probabilities}"]
            )


@dataclass
class QueryAnswer:
    query: object  # the query Atom
    instances: list  # of (substitution dict, PosteriorVector), deterministic order


def answer_query(kb: KnowledgeBase, session) -> QueryAnswer:
    """Build the supporting network and compute each instance's posterior."""
    if isinstance(session, SessionInput):
        session = validate_session(kb, session)
    net, subs = build_net(kb, session)
    return answer_on_net(kb, session, net, subs)


def answer_on_net(
    kb: KnowledgeBase, session: ValidatedSession, net: BayesNet, subs, order=None
) -> QueryAnswer:
    instances = []
    for theta in subs:
        target = query_obj(kb, session.query, theta)
        factors = eliminate(kb, net, session.evidence, [target], order=order)
        vec = factors[target]
        if vec.scope != (target,):
            raise ConsistencyError(
                [f"elimination for {target} left the scope {vec.scope}"]
            )
        mass = float(vec.values.sum())  # P(E) / 2**log2_scale
        if mass == 0.0:
            raise ImpossibleEvidenceError("evidence has zero probability (P(E) = 0)")
        post = vec.values / mass
        post = np.clip(post, 0.0, 1.0)
        instances.append((theta, PosteriorVector(target, tuple(float(p) for p in post))))
    return QueryAnswer(session.query, instances)
