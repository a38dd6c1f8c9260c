"""Combining rules: merge several same-consequent causes into one row.

Each cause is one conditional distribution over the consequent's value set,
contributed by one rule group.  The shipped ``noisy_max`` rule treats the
value set as totally ordered with the first (distinguished) value as the
inactive state; each cause independently draws a value and the consequent
takes the maximum.  On binary value sets this is classical noisy-OR.
"""

from __future__ import annotations

from .errors import CombiningRuleError

NORM_TOL = 1e-9

# rule name -> the parameters it takes; the rule is the function of that name here
RULES = {"noisy_max": ("distinguished",), "single_only": ()}


def rule(name: str):
    """The combining function named ``name``.

    Read from this module's namespace at each call, so a wrapper installed
    over ``noisy_max`` or ``single_only`` runs for each table shape built after.
    """
    if name not in RULES:
        raise CombiningRuleError(f"unknown combining rule {name!r}")
    return globals()[name]


def _check_normalized(dists):
    for d in dists:
        s = sum(d)
        if abs(s - 1.0) > NORM_TOL:
            raise CombiningRuleError(f"mechanism distribution sums to {s!r}, expected 1")


def noisy_max(obj, dists, value_order, params=None):
    """P(v_k) = prod_i Q_i(<= v_k) - prod_i Q_i(<= v_{k-1}).

    ``dists`` holds one distribution per cause, aligned with ``value_order``,
    the declared value order, first value distinguished.  A
    ``distinguished`` parameter rotates a different value to the front.
    """
    if not dists:
        raise CombiningRuleError("noisy_max needs at least one mechanism")
    _check_normalized(dists)
    if len(dists) == 1:
        return tuple(dists[0])
    order = list(range(len(value_order)))
    if params and "distinguished" in params:
        d = value_order.index(params["distinguished"])
        order = [d] + [i for i in order if i != d]
    # cumulative products in combination order
    n = len(value_order)
    cum = [1.0] * n
    for dist in dists:
        acc = 0.0
        for rank, i in enumerate(order):
            acc += dist[i]
            cum[rank] *= acc
    out = [0.0] * n
    prev = 0.0
    for rank, i in enumerate(order):
        out[i] = max(cum[rank] - prev, 0.0)
        prev = cum[rank]
    return tuple(out)


def single_only(obj, dists, value_order, params=None):
    """Pass-through rule for predicates that never have multiple influences."""
    if len(dists) != 1:
        raise CombiningRuleError(f"single_only: {obj} has {len(dists)} rule groups, expected 1")
    _check_normalized(dists)
    return tuple(dists[0])
