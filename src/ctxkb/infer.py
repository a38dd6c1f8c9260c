"""Exact posterior computation on a supporting network via variable elimination.

Each network node is its object's combined table; ``cpt_factor`` turns it
into a factor.  Factors stay unnormalized until the final division, so a
vanishing evidence probability is detected rather than silently divided
through.  Each factor that elimination produces is rescaled by a power of
two, carried in the factor's ``log2_scale`` (Rabiner 1989 scaling), so long
evidence runs do not underflow.  The answer to a complete query is one
posterior vector per ground query instance, aligned with the declared value
order.

What elimination does for a target (relevant nodes, min-fill order, which
factors each step multiplies and how their axes line up) depends only on
each node's object and parents, the evidence objects and the target.
``compile_plan`` works it out; ``KnowledgeBase.plans`` keeps the plan under
the structure and the sorted evidence objects, then the target, from the
structure's second call on.  A plan holds no table, entry or evidence value,
so the store grows with distinct structures (query × window × evidence
objects), not with action plans or sessions.  ``run_plan`` applies it to one
session's tables.

A factor is a flat row-major list of floats in plain Python.  The factors of
a supporting network are small (tens to a few thousand entries), so a numpy
array's per-call overhead cost more than its arithmetic saved, and loading
numpy cost more than a whole query.  Each way of lining two factors up is
worked out once per pattern of cardinalities and reused as an ``itemgetter``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter, mul

from .errors import ConsistencyError, CtxkbError, ImpossibleEvidenceError
from .lang import (
    KnowledgeBase,
    Obj,
    SessionInput,
    ValidatedSession,
    atom_slots,
    fill_slots,
    validate_session,
)
from .logic import ancestors
from .netbuild import BayesNet, build_net
from .relevance import ObjTable

NORM_TOL = 1e-9
_NON_NEGATIVE = (0.0).__le__  # false for negative entries and for NaN


class Entries(list):
    """A factor's entries, flat and row-major; ``size`` counts them, as for an array."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self)


@dataclass
class Factor:
    scope: tuple  # of Obj, in axis order
    cards: tuple  # the number of values of each scope object
    values: Entries  # row-major over scope: the last object varies fastest
    log2_scale: int = 0  # the factor's entries are values * 2**log2_scale


@lru_cache(maxsize=256)
def _strides(cards: tuple) -> tuple:
    """Row-major strides of a factor with these cardinalities."""
    out = [1] * len(cards)
    for i in range(len(cards) - 1, 0, -1):
        out[i - 1] = out[i] * cards[i]
    return tuple(out)


@lru_cache(maxsize=512)
def _take(cards: tuple, strides: tuple, offset: int = 0) -> itemgetter:
    """Picks the entries of a row-major walk over ``cards`` from a factor with axis ``strides``.

    The i-th entry picked sits at ``offset`` plus the dot product of the i-th
    assignment to ``cards`` with ``strides``; a stride of 0 repeats the factor
    along an axis it lacks.  Evenly spaced positions become one slice.  Apply
    it to an exact ``list``: ``itemgetter`` is slower on a subclass.
    Patterns recur across factors, so each is built once.
    """
    idx = [offset]
    for c, s in zip(cards, strides):
        idx = [i + k * s for i in idx for k in range(c)]
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if step > 0 and idx == list(range(idx[0], idx[-1] + 1, step)):
        return itemgetter(slice(idx[0], idx[-1] + 1, step))
    return itemgetter(*idx)


@lru_cache(maxsize=256)
def _sum_takes(cards: tuple, axis: int) -> tuple:
    """One ``_take`` per value of ``axis``: the slices that summing it out adds."""
    strides = _strides(cards)
    rest, rest_strides = cards[:axis] + cards[axis + 1 :], strides[:axis] + strides[axis + 1 :]
    return tuple(_take(rest, rest_strides, k * strides[axis]) for k in range(cards[axis]))


def cpt_factor(kb: KnowledgeBase, table: ObjTable) -> Factor:
    """The table as a factor over (parents..., obj); rows it lacks stay zero.

    Every factor entry starts here, and products and sums of non-negative
    entries stay non-negative, so this is the one place that checks sign.
    Entries are built and checked once per shape and shared: no factor operation writes its inputs.
    """
    scope = table.parents + (table.obj,)
    shape = table.shape
    if shape.cpt is None:
        domains = [kb.val(o[0]) for o in scope]
        cards = tuple(map(len, domains))
        if any(map(cards[-1].__ne__, map(len, shape.rows.values()))):
            raise ConsistencyError([f"a row of the table of {table.obj} has the wrong length"])
        # rows in row-major order of the parents' values, zeros where the table has none
        zeros = (0.0,) * cards[-1]
        rows = map(shape.rows.get, itertools.product(*domains[:-1]), itertools.repeat(zeros))
        values = Entries(itertools.chain.from_iterable(rows))
        if not all(map(_NON_NEGATIVE, values)):
            raise ConsistencyError([f"factor over {scope} has a negative entry"])
        shape.cpt = cards, values
    cards, values = shape.cpt
    return Factor(scope, cards, values)


@lru_cache(maxsize=512)
def _product_plan(a_cards: tuple, b_cards: tuple, b_in_a: tuple):
    """How to multiply factors of these cardinalities; ``b_in_a`` gives the axis
    of a that each axis of b shares, or None where a lacks that object.

    Returns b's axes that a lacks, the product's cardinalities, and the takes
    that line a (None when no axis is new) and b up with the product's entries.
    """
    new = tuple(j for j, i in enumerate(b_in_a) if i is None)
    cards = a_cards + tuple(b_cards[j] for j in new)
    take_a = _take(cards, _strides(a_cards) + (0,) * len(new)) if new else None
    along = [0] * len(cards)  # b's stride along each axis of the product
    for j, (i, s) in enumerate(zip(b_in_a, _strides(b_cards))):
        along[len(a_cards) + new.index(j) if i is None else i] = s
    return new, cards, take_a, _take(cards, tuple(along))


def multiply(a: Factor, b: Factor, how) -> Factor:
    """The product over a's scope followed by b's objects that a lacks; ``how`` is its ``_product_plan``."""
    new, cards, take_a, take_b = how
    scope, av = a.scope, a.values
    if new:
        scope += tuple([b.scope[j] for j in new])
        av = take_a(av[:])
    values = Entries(map(mul, av, take_b(b.values[:])))
    return Factor(scope, cards, values, a.log2_scale + b.log2_scale)


def sum_out(f: Factor, axis: int, takes) -> Factor:
    """Sum ``axis`` out of ``f`` through its ``_sum_takes``, adding the slices in value order."""
    v = f.values[:]
    first, *rest = takes
    acc = first(v)
    for take in rest:
        acc = map(add, acc, take(v))
    scope, cards = f.scope[:axis] + f.scope[axis + 1 :], f.cards[:axis] + f.cards[axis + 1 :]
    return Factor(scope, cards, Entries(acc), f.log2_scale)


def _rescale(f: Factor) -> Factor:
    """Move the factor's magnitude into ``log2_scale``: its largest entry lands in [1, 2).

    Scaling by a power of two is exact, so posteriors are bit for bit those of
    the unscaled products wherever those did not underflow.
    """
    top = max(f.values)
    if top == 0.0:
        return f
    e = math.frexp(top)[1] - 1
    if e == 0:
        return f
    values = Entries(map(math.ldexp, f.values, itertools.repeat(-e)))
    return Factor(f.scope, f.cards, values, f.log2_scale + e)


def min_fill_order(scopes, keep):
    """Min-fill elimination order with a lexicographic tie-break.

    Each step eliminates the object outside ``keep`` whose elimination adds
    the fewest fill edges, the least object among ties.  Fill counts
    sit in a heap and are recomputed only for the eliminated object's
    neighbours and theirs, the only objects whose count can change.
    """
    neighbors: dict = {}
    for scope in scopes:
        for o in scope:
            neighbors.setdefault(o, set()).update(p for p in scope if p != o)

    def fill(o):
        nb = neighbors[o]
        # non-adjacent neighbour pairs; the sum counts each pair from both ends
        return sum(len(nb) - 1 - len(nb & neighbors[a]) for a in nb) // 2

    current = {o: fill(o) for o in neighbors if o not in keep}
    heap = [(f, o) for o, f in current.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        f, o = heapq.heappop(heap)
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
                    heapq.heappush(heap, (nf, t))
    return order


def _product_shape(shapes):
    """Scope, cards and each product's ``_product_plan`` when ``shapes``, (scope, cards)
    pairs, multiply left to right."""
    scope, cards = shapes[0]
    hows = []
    for b_scope, b_cards in shapes[1:]:
        how = _product_plan(cards, b_cards, tuple([scope.index(o) if o in scope else None for o in b_scope]))
        scope += tuple([b_scope[j] for j in how[0]])
        cards = how[1]
        hows.append(how)
    return scope, cards, tuple(hows)


def compile_plan(kb: KnowledgeBase, parents: dict, observed: frozenset, target: Obj, order=None):
    """The plan for ``target`` on the network ``parents`` (object -> its parents), ``observed``
    its evidence objects.  Only the ancestors of the target and the evidence take part (barren
    nodes are answer-preserving to prune).  ``order`` overrides the min-fill heuristic.

    A plan is a pair.  Its factors hold, per relevant node in object order, the
    object and None, or the evidence objects' strides and the reduced scope,
    cardinalities and strides.  Its steps hold the ids of the factors they
    multiply (the factors, then each step's result), a ``_product_plan`` per
    product, and the axis summed out with its ``_sum_takes``; the last step is
    the final product and sums nothing out.
    """
    relevant = ancestors(parents, observed | {target})
    card = {o: len(kb.val(o[0])) for o in relevant}
    factors, shapes = [], []
    for o in sorted(relevant):
        scope = parents[o] + (o,)
        cards = tuple([card[p] for p in scope])
        reduction = None
        if not observed.isdisjoint(scope):
            strides = _strides(cards)
            seen = tuple((p, s) for p, s in zip(scope, strides) if p in observed)
            kept = [i for i, p in enumerate(scope) if p not in observed]
            scope, cards, strides = (tuple([x[i] for i in kept]) for x in (scope, cards, strides))
            reduction = seen, scope, cards, strides
        factors.append((o, reduction))
        shapes.append((scope, cards))
    keep = set() if target in observed else {target}
    if order is None:
        elim = min_fill_order([scope for scope, _ in shapes], keep)
    else:
        elim = [o for o in order if o in relevant and o not in keep and o not in observed]
    # Factors by id, and per object the ids whose scope names it.
    # Ids only grow, so a bucket multiplies in the order of the factor list.
    live = dict(enumerate(shapes))
    buckets: dict = {}
    for i, (scope, _) in live.items():
        for p in scope:
            buckets.setdefault(p, []).append(i)
    steps = []
    for o in elim:
        ids = tuple([i for i in buckets.pop(o, ()) if i in live])
        if ids:
            scope, cards, hows = _product_shape([live.pop(i) for i in ids])
            axis = scope.index(o)
            steps.append((ids, hows, axis, _sum_takes(cards, axis)))
            new_id = len(shapes) + len(steps) - 1
            live[new_id] = scope[:axis] + scope[axis + 1 :], cards[:axis] + cards[axis + 1 :]
            for p in live[new_id][0]:
                buckets.setdefault(p, []).append(new_id)
    steps.append((tuple(live), _product_shape(list(live.values()))[2], None, None))
    return tuple(factors), tuple(steps)


def run_plan(kb: KnowledgeBase, plan, nodes: dict, evidence: dict) -> Factor:
    """The plan's final product on these tables and evidence values, each entry read through ``cpt_factor``.

    Each partial product is rescaled before the next factor multiplies it.
    The last is not: summing an object out commutes with an exact
    power-of-two scale, so one rescale after the sum does for both.
    """
    factors = []
    for o, reduction in plan[0]:
        f = cpt_factor(kb, nodes[o])
        if reduction is not None:
            seen, scope, cards, strides = reduction
            offset = sum(kb.val(p[0]).index(evidence[p]) * s for p, s in seen)
            f = Factor(scope, cards, Entries(_take(cards, strides, offset)(f.values[:])))
        factors.append(f)
    for ids, hows, axis, takes in plan[1]:
        prod = factors[ids[0]]
        for k, (i, how) in enumerate(zip(ids[1:], hows), 1 - len(hows)):
            prod = multiply(prod, factors[i], how)
            prod = _rescale(prod) if k else prod  # k is 0 at the last product
        if axis is not None:
            prod = _rescale(sum_out(prod, axis, takes))
        factors.append(prod)
    return prod


def eliminate(kb: KnowledgeBase, net: BayesNet, evidence: dict, targets, order=None):
    """Unnormalized joint factors P(target, evidence), one per target object.

    A structure's plans are kept in ``kb.plans`` from its second call on;
    the first call leaves an empty entry, so a one-shot run such as a
    projection holds no plan per target.  A plan for an explicit ``order``
    is not kept.  Each returned factor holds P(target, evidence) / 2**log2_scale.
    """
    for o in evidence:
        if o not in net.nodes:
            raise CtxkbError(f"evidence object {o} is not in the network")
    parents = {o: node.parents for o, node in net.nodes.items()}
    observed = tuple(sorted(evidence))
    plans = None  # where this call keeps its plans: none for an explicit order or a first call
    if targets and order is None:
        key = (tuple(parents.items()), observed)
        plans = kb.plans.get(key)
        if plans is None:
            kb.plans[key] = ()
        elif not plans:
            plans = kb.plans[key] = {}
    out = {}
    for target in targets:
        plan = None if plans is None else plans.get(target)
        if plan is None:
            plan = compile_plan(kb, parents, frozenset(observed), target, order)
            if plans is not None:
                plans[target] = plan
        result = run_plan(kb, plan, net.nodes, evidence)
        if target in evidence:
            # degenerate: expand the observed target back into a vector
            [mass] = result.values
            values = kb.val(target[0])
            vec = [0.0] * len(values)
            vec[values.index(evidence[target])] = mass
            result = Factor((target,), (len(vec),), Entries(vec), result.log2_scale)
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
    slots = atom_slots(session.query)[:-1]
    targets = [fill_slots(slots, theta) for theta in subs]
    joints = eliminate(kb, net, session.evidence, targets, order=order)
    instances = []
    for theta, target in zip(subs, targets):
        vec = joints[target]
        if vec.scope != (target,):
            raise ConsistencyError([f"elimination for {target} left the scope {vec.scope}"])
        mass = 0.0  # P(E) / 2**log2_scale, summed in value order
        for p in vec.values:
            mass += p
        if mass == 0.0:
            raise ImpossibleEvidenceError("evidence has zero probability (P(E) = 0)")
        post = tuple(min(max(p / mass, 0.0), 1.0) for p in vec.values)
        instances.append((theta, PosteriorVector(target, post)))
    return QueryAnswer(session.query, instances)
