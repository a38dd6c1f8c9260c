"""Elimination at long horizons: min-fill order, scaling against underflow, -O checks."""

import math
import os
import subprocess
import sys

import ctxkb
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkb import answer_query, build_net
from ctxkb.infer import FactorBuilder, eliminate, min_fill_order
from ctxkb.lang import obj_sort_key
from ctxkb.logic import ancestors
from ctxkb.netbuild import query_obj

from conftest import session_for


def reference_min_fill_order(scopes, keep):
    """The original quadratic min-fill: a full rescan of every object per step."""
    neighbors: dict = {}
    for scope in scopes:
        for o in scope:
            neighbors.setdefault(o, set())
            for p in scope:
                if p != o:
                    neighbors[o].add(p)
    to_eliminate = {o for o in neighbors if o not in keep}
    order = []
    while to_eliminate:
        best = None
        for o in sorted(to_eliminate, key=obj_sort_key):
            nb = neighbors[o] & (to_eliminate | set(keep))
            fill = sum(
                1
                for a in nb
                for b in nb
                if obj_sort_key(a) < obj_sort_key(b) and b not in neighbors[a]
            )
            if best is None or fill < best[0]:
                best = (fill, o)
        _, o = best
        order.append(o)
        nb = neighbors.pop(o)
        for a in nb:
            neighbors[a].discard(o)
            neighbors[a].update(b for b in nb if b != a)
        to_eliminate.remove(o)
    return order


def elimination_scopes(kb, net, evidence, target):
    """The factor scopes that ``eliminate`` hands to ``min_fill_order`` for one target."""
    fb = FactorBuilder(kb)
    parents = {o: node.parents for o, node in net.nodes.items()}
    relevant = ancestors(parents, set(evidence) | {target})
    return [
        fb.reduce(fb.cpt_factor(net.nodes[o]), evidence).scope
        for o in sorted(relevant, key=obj_sort_key)
    ]


def alternating_evidence(horizon):
    return " ".join(
        f"painted(door, {t}, {'no' if t % 2 == 0 else 'yes'})." for t in range(horizon)
    )


# P(painted(X, t) | painted(X, t-1)) without paint, and the t=0 prior, from paint.ckb
PERSIST = {"no": {"no": 0.97, "yes": 0.03}, "yes": {"no": 0.05, "yes": 0.95}}
PRIOR = {"no": 0.9, "yes": 0.1}


# ---------------------------------------------------------------------------
# min-fill: same order as the reference


objects = st.integers(min_value=0, max_value=11).map(lambda i: ("v", i))


@settings(max_examples=200, deadline=None)
@given(
    scopes=st.lists(st.lists(objects, min_size=1, max_size=4, unique=True), max_size=14),
    keep=st.sets(objects, max_size=3),
)
def test_min_fill_matches_reference_on_random_scopes(scopes, keep):
    scopes = [tuple(s) for s in scopes]
    assert min_fill_order(scopes, keep) == reference_min_fill_order(scopes, keep)


def test_min_fill_matches_reference_on_paint_horizon(paint_kb):
    vs = session_for(
        paint_kb, context="paint(door, 0). paint(door, 3).", lo=0, hi=240,
        query="painted(door, 240, V)",
    )
    net, subs = build_net(paint_kb, vs)
    target = query_obj(paint_kb, vs.query, subs[0])
    scopes = elimination_scopes(paint_kb, net, vs.evidence, target)
    assert len(scopes) > 200
    order = min_fill_order(scopes, {target})
    assert order == reference_min_fill_order(scopes, {target})


@pytest.mark.parametrize(
    "context, evidence, hi, query",
    [
        ("epi(john, 0). epi(john, 2). dfib(john, 2).", "rhythm(john, 0, vf).", 3,
         "rhythm(john, 3, V)"),
        ("cpr(john, 0). cpr(john, 1). cpr(john, 2). epi(john, 2).",
         "rhythm(john, 0, a). poa(john, 0, min5). cd(john, 0, none).", 4, "cd(john, 4, V)"),
        ("lido(mary, 1). dfib(john, 3).", "rhythm(john, 0, vf). rhythm(mary, 0, vt).", 6,
         "cd(X, 6, V)"),
    ],
)
def test_min_fill_matches_reference_on_cardiac(cardiac_kb, context, evidence, hi, query):
    vs = session_for(cardiac_kb, context=context, evidence=evidence, lo=0, hi=hi, query=query)
    net, subs = build_net(cardiac_kb, vs)
    assert subs
    for theta in subs:
        target = query_obj(cardiac_kb, vs.query, theta)
        scopes = elimination_scopes(cardiac_kb, net, vs.evidence, target)
        assert min_fill_order(scopes, {target}) == reference_min_fill_order(scopes, {target})


# ---------------------------------------------------------------------------
# Long horizons against two-state forward recursions


def test_alternating_evidence_does_not_underflow(paint_kb):
    horizon = 240
    vs = session_for(
        paint_kb, evidence=alternating_evidence(horizon), lo=0, hi=horizon,
        query=f"painted(door, {horizon}, V)",
    )
    # forward filter over painted(door, t): belief and log P(evidence so far)
    seen = ["no" if t % 2 == 0 else "yes" for t in range(horizon)]
    belief = {v: PRIOR[v] * (v == seen[0]) for v in PRIOR}
    log_pe = math.log(sum(belief.values()))
    for v_obs in seen[1:] + [None]:
        z = sum(belief.values())
        pred = {v: sum(belief[u] / z * PERSIST[u][v] for u in belief) for v in PRIOR}
        belief = {v: p * (v_obs is None or v == v_obs) for v, p in pred.items()}
        log_pe += math.log(sum(belief.values()))
    expected = (belief["no"], belief["yes"])

    [(_, vec)] = answer_query(paint_kb, vs).instances
    assert vec.probabilities == pytest.approx(expected, abs=1e-9)

    net, subs = build_net(paint_kb, vs)
    target = query_obj(paint_kb, vs.query, subs[0])
    joint = eliminate(paint_kb, net, vs.evidence, [target])[target]
    assert joint.scope == (target,)
    log_mass = math.log(joint.values.sum()) + joint.log2_scale * math.log(2)
    assert log_pe < math.log(1e-308)  # below the smallest normal double
    assert log_mass == pytest.approx(log_pe, rel=1e-9)


def test_paint_horizon_2000_matches_recursion(paint_kb):
    horizon = 2000
    vs = session_for(
        paint_kb, context="paint(door, 0).", lo=0, hi=horizon,
        query=f"painted(door, {horizon}, V)",
    )
    yes = 0.99  # painted at 1 after painting at 0
    for _ in range(horizon - 1):
        yes = yes * PERSIST["yes"]["yes"] + (1 - yes) * PERSIST["no"]["yes"]
    [(_, vec)] = answer_query(paint_kb, vs).instances
    assert vec.probabilities == pytest.approx((1 - yes, yes), abs=1e-9)


# ---------------------------------------------------------------------------
# Runtime checks survive python -O


def test_negative_factor_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(ctxkb.__file__))
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from ctxkb.errors import ConsistencyError",
        "from ctxkb.infer import Factor",
        "if not sys.flags.optimize:",
        "    sys.exit(3)",
        "try:",
        "    Factor((('x',),), np.array([0.5, -0.5]))",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit(1)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert r.returncode == 0, r.stderr
