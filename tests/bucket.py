"""Per-target bucket elimination on the flat kernel: the reference for compiled plans.

``bucket_eliminate`` works out, for every target of every call, the ancestor
set, the min-fill order and each factor alignment from the factors' scopes.
Its products and sums are those of ``ctxkb.infer``, so a plan must give the
same factors bit for bit.  ``reduce``, ``multiply`` and ``marginalize`` line
factors up by their scopes.
"""

from ctxkb.errors import CtxkbError
from ctxkb.infer import (
    Entries,
    Factor,
    _product_plan,
    _rescale,
    _strides,
    _sum_takes,
    _take,
    cpt_factor,
    min_fill_order,
    sum_out,
)
from ctxkb.infer import multiply as multiply_by_plan
from ctxkb.logic import ancestors


def reduce(kb, factor: Factor, evidence: dict) -> Factor:
    """Slice out observed values for scope objects present in evidence."""
    scope, cards, strides = [], [], []
    offset = 0
    for o, c, s in zip(factor.scope, factor.cards, _strides(factor.cards)):
        if o in evidence:
            offset += kb.val(o[0]).index(evidence[o]) * s
        else:
            scope.append(o)
            cards.append(c)
            strides.append(s)
    if len(scope) == len(factor.scope):
        return factor
    cards = tuple(cards)
    picked = _take(cards, tuple(strides), offset)(factor.values[:])
    return Factor(tuple(scope), cards, Entries(picked))


def multiply(a: Factor, b: Factor) -> Factor:
    """The product over a's scope followed by b's objects that a lacks."""
    b_in_a = tuple(a.scope.index(o) if o in a.scope else None for o in b.scope)
    return multiply_by_plan(a, b, _product_plan(a.cards, b.cards, b_in_a))


def marginalize(f: Factor, obj) -> Factor:
    """Sum ``obj`` out of ``f``, adding its slices in value order."""
    i = f.scope.index(obj)
    return sum_out(f, i, _sum_takes(f.cards, i))


def _product(factors) -> Factor:
    """Left-to-right product; each partial product but the last is rescaled."""
    prod = factors[0]
    for f in factors[1:-1]:
        prod = _rescale(multiply(prod, f))
    return multiply(prod, factors[-1]) if len(factors) > 1 else prod


def bucket_eliminate(kb, net, evidence: dict, targets, order=None):
    """Unnormalized joint factors P(target, evidence), one per target object."""
    for o in evidence:
        if o not in net.nodes:
            raise CtxkbError(f"evidence object {o} is not in the network")
    parents = {o: node.parents for o, node in net.nodes.items()}
    out = {}
    for target in targets:
        relevant = ancestors(parents, set(evidence) | {target})
        factors = [reduce(kb, cpt_factor(kb, net.nodes[o]), evidence) for o in sorted(relevant)]
        keep = [target] if target not in evidence else []
        if order is None:
            elim = min_fill_order([f.scope for f in factors], set(keep))
        else:
            elim = [o for o in order if o in relevant and o not in keep and o not in evidence]
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
            [mass] = result.values
            values = kb.val(target[0])
            vec = [0.0] * len(values)
            vec[values.index(evidence[target])] = mass
            result = Factor((target,), (len(vec),), Entries(vec), result.log2_scale)
        out[target] = result
    return out
