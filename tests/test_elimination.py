"""Elimination: the flat factor kernel against the numpy reference, min-fill order,
scaling against underflow, -O checks."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass

import ctxkb
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkb import answer_query, build_net, parse_kb
from ctxkb.errors import (
    ConsistencyError,
    CtxkbError,
    ImpossibleEvidenceError,
    OutOfBoundsSupportError,
    QuantificationError,
)
from ctxkb.infer import Entries, Factor, _rescale, answer_on_net, cpt_factor, eliminate, min_fill_order
from ctxkb.lang import KnowledgeBase, Obj
from ctxkb.logic import ancestors
from ctxkb.netbuild import BayesNet
from ctxkb.relevance import ObjTable

from bucket import marginalize, multiply, reduce
from conftest import query_obj, session_for, timed_kbs


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
        for o in sorted(to_eliminate):
            nb = neighbors[o] & (to_eliminate | set(keep))
            fill = sum(
                1
                for a in nb
                for b in nb
                if a < b and b not in neighbors[a]
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
    parents = {o: node.parents for o, node in net.nodes.items()}
    relevant = ancestors(parents, set(evidence) | {target})
    return [
        reduce(kb, cpt_factor(kb, net.nodes[o]), evidence).scope
        for o in sorted(relevant)
    ]


def alternating_evidence(horizon):
    return " ".join(
        f"painted(door, {t}, {'no' if t % 2 == 0 else 'yes'})." for t in range(horizon)
    )


# P(painted(X, t) | painted(X, t-1)) without paint, and the t=0 prior, from paint.ckb
PERSIST = {"no": {"no": 0.97, "yes": 0.03}, "yes": {"no": 0.05, "yes": 0.95}}
PRIOR = {"no": 0.9, "yes": 0.1}


# ---------------------------------------------------------------------------
# The numpy factor kernel that the flat one replaced, kept as the reference


@dataclass
class RefFactor:
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


class RefFactorBuilder:
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

    def cpt_factor(self, node: ObjTable) -> RefFactor:
        scope = node.parents + (node.obj,)
        shape = tuple(self.card(o) for o in scope)
        arr = np.zeros(shape)
        for assignment, row in node.rows.items():
            idx = tuple(
                self.vindex(p)[v] for p, v in zip(node.parents, assignment)
            )
            arr[idx] = np.asarray(row)
        return RefFactor(scope, arr)

    def reduce(self, factor: RefFactor, evidence: dict) -> RefFactor:
        """Slice out observed values for scope objects present in evidence."""
        scope = []
        index = []
        for o in factor.scope:
            if o in evidence:
                index.append(self.vindex(o)[evidence[o]])
            else:
                index.append(slice(None))
                scope.append(o)
        return RefFactor(tuple(scope), factor.values[tuple(index)])


def ref_multiply(a: RefFactor, b: RefFactor) -> RefFactor:
    scope = list(a.scope)
    for o in b.scope:
        if o not in scope:
            scope.append(o)
    scope = tuple(scope)

    def align(f: RefFactor) -> np.ndarray:
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

    return RefFactor(scope, align(a) * align(b), a.log2_scale + b.log2_scale)


def ref_marginalize(f: RefFactor, obj: Obj) -> RefFactor:
    i = f.scope.index(obj)
    return RefFactor(f.scope[:i] + f.scope[i + 1 :], f.values.sum(axis=i), f.log2_scale)


def _ref_rescale(f: RefFactor) -> RefFactor:
    top = float(f.values.max())
    if top == 0.0:
        return f
    e = math.frexp(top)[1] - 1
    if e == 0:
        return f
    return RefFactor(f.scope, np.ldexp(f.values, -e), f.log2_scale + e)


def _ref_product(factors) -> RefFactor:
    prod = factors[0]
    for f in factors[1:]:
        prod = _ref_rescale(ref_multiply(prod, f))
    return prod


def reference_eliminate(
    kb: KnowledgeBase,
    net: BayesNet,
    evidence: dict,
    targets,
    order=None,
):
    """Unnormalized joint factors P(target, evidence), one per target object."""
    for o in evidence:
        if o not in net.nodes:
            raise CtxkbError(f"evidence object {o} is not in the network")
    fb = RefFactorBuilder(kb)
    parents = {o: node.parents for o, node in net.nodes.items()}
    out = {}
    for target in targets:
        relevant = ancestors(parents, set(evidence) | {target})
        factors = [
            fb.reduce(fb.cpt_factor(net.nodes[o]), evidence)
            for o in sorted(relevant)
        ]
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
            new = _ref_rescale(ref_marginalize(_ref_product(group), o))
            live[next_id] = new
            for p in new.scope:
                buckets.setdefault(p, []).append(next_id)
            next_id += 1
        result = _ref_product(list(live.values()))
        if target in evidence:
            # degenerate: expand the observed target back into a vector
            vec = np.zeros(fb.card(target))
            vec[fb.vindex(target)[evidence[target]]] = float(result.values)
            result = RefFactor((target,), vec, result.log2_scale)
        out[target] = result
    return out


def agree_with_reference(kb, vs):
    """Check every instance's posterior and log P(E) against the numpy reference.

    Returns (posteriors compared, posteriors bit-identical).  The reference
    sums with numpy, whose pairwise summation may add in another order, so
    agreement is to 1e-12 relative rather than bit for bit.
    """
    net, subs = build_net(kb, vs)
    answers = answer_on_net(kb, vs, net, subs).instances
    same = 0
    for theta, vec in answers:
        target = vec.query_object
        assert target == query_obj(vs.query, theta)
        ref = reference_eliminate(kb, net, vs.evidence, [target])[target]
        got = eliminate(kb, net, vs.evidence, [target])[target]
        assert got.scope == ref.scope == (target,)
        mass = float(ref.values.sum())
        post = tuple(float(p) for p in np.clip(ref.values / mass, 0.0, 1.0))
        assert vec.probabilities == pytest.approx(post, rel=1e-12, abs=0)
        log_pe = math.log(mass) + ref.log2_scale * math.log(2)
        got_log_pe = math.log(sum(got.values)) + got.log2_scale * math.log(2)
        assert got_log_pe == pytest.approx(log_pe, rel=1e-9, abs=0)
        same += vec.probabilities == post
    return len(answers), same


# ---------------------------------------------------------------------------
# The flat kernel against the reference


@st.composite
def factor_pairs(draw):
    """Two factors over random sub-scopes of five objects, in random axis orders."""
    pool = [(f"o{i}",) for i in range(5)]
    card = {o: draw(st.integers(1, 3)) for o in pool}

    def factor():
        scope = tuple(draw(st.permutations(pool))[: draw(st.integers(0, 4))])
        cards = tuple(card[o] for o in scope)
        n = math.prod(cards)
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        ref = RefFactor(scope, np.array(values).reshape(cards))
        return Factor(scope, cards, Entries(values)), ref

    return factor(), factor()


def _same(flat, ref):
    assert flat.scope == ref.scope
    assert flat.cards == ref.values.shape
    assert list(flat.values) == ref.values.ravel().tolist()  # same products, same order of sums
    assert flat.values.size == ref.values.size


@settings(max_examples=300, deadline=None, derandomize=True)
@given(factor_pairs())
def test_flat_kernel_matches_reference_on_random_factors(pair):
    (a, ra), (b, rb) = pair
    prod, rprod = multiply(a, b), ref_multiply(ra, rb)
    _same(prod, rprod)
    for o in prod.scope:
        _same(marginalize(prod, o), ref_marginalize(rprod, o))


@pytest.mark.parametrize("top", [0.3, 3.0, 1e-300, 2.0**-1030, 5e-324, 1.5])
def test_rescale_matches_reference(top):
    values = [top, top / 3, 0.0, top / 7]
    f = _rescale(Factor((("x",),), (4,), Entries(values), 5))
    ref = _ref_rescale(RefFactor((("x",),), np.array(values), 5))
    assert f.log2_scale == ref.log2_scale
    assert list(f.values) == ref.values.tolist()
    assert 1.0 <= max(f.values) < 2.0


def test_cpt_factor_and_reduce_match_reference(cardiac_kb):
    vs = session_for(
        cardiac_kb, context="epi(john, 0). epi(john, 2). dfib(john, 2).",
        evidence="rhythm(john, 0, vf). cd(john, 1, none).", lo=0, hi=3, query="cd(john, 3, V)",
    )
    net, _ = build_net(cardiac_kb, vs)
    rfb = RefFactorBuilder(cardiac_kb)
    for node in net.nodes.values():
        f, rf = cpt_factor(cardiac_kb, node), rfb.cpt_factor(node)
        _same(f, rf)
        _same(reduce(cardiac_kb, f, vs.evidence), rfb.reduce(rf, vs.evidence))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(timed_kbs())
def test_eliminate_matches_reference_on_timed_corpus(case):
    text, session, _ = case
    kb = parse_kb(text)
    vs = session_for(kb, **session)
    try:
        agree_with_reference(kb, vs)
    except ImpossibleEvidenceError:
        # an exact structural zero: the reference finds P(E) = 0 too
        net, subs = build_net(kb, vs)
        for theta in subs:
            target = query_obj(vs.query, theta)
            ref = reference_eliminate(kb, net, vs.evidence, [target])[target]
            assert float(ref.values.sum()) == 0.0
    except (OutOfBoundsSupportError, QuantificationError):
        pass  # no network: support outside the window, or a gap in it


@pytest.mark.parametrize(
    "context, evidence, hi, query",
    [
        ("epi(john, 0). epi(john, 2). dfib(john, 2).", "rhythm(john, 0, vf).", 3,
         "rhythm(john, 3, V)"),
        ("cpr(john, 0). cpr(john, 1). cpr(john, 2). epi(john, 2).",
         "rhythm(john, 0, a). poa(john, 0, min5). cd(john, 0, none).", 4, "cd(john, 4, V)"),
        ("lido(mary, 1). dfib(john, 3).", "rhythm(john, 0, vf). rhythm(mary, 0, vt).", 6,
         "cd(X, 6, V)"),
        ("epi(john, 0). cpr(mary, 1).", "rhythm(john, 0, vf). rhythm(mary, 2, vt).", 4,
         "rhythm(X, T, V)"),
    ],
)
def test_eliminate_matches_reference_on_cardiac(cardiac_kb, context, evidence, hi, query):
    vs = session_for(cardiac_kb, context=context, evidence=evidence, lo=0, hi=hi, query=query)
    n, _ = agree_with_reference(cardiac_kb, vs)
    assert n > 0


@pytest.mark.parametrize(
    "context, evidence, horizon",
    [
        ("paint(door, 0). paint(door, 3).", "", 240),
        ("", alternating_evidence(2000), 2000),
    ],
)
def test_eliminate_matches_reference_on_paint(paint_kb, context, evidence, horizon):
    vs = session_for(
        paint_kb, context=context, evidence=evidence, lo=0, hi=horizon,
        query=f"painted(door, {horizon}, V)",
    )
    assert agree_with_reference(paint_kb, vs)[0] == 1


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
    target = query_obj(vs.query, subs[0])
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
        target = query_obj(vs.query, theta)
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
    target = query_obj(vs.query, subs[0])
    joint = eliminate(paint_kb, net, vs.evidence, [target])[target]
    assert joint.scope == (target,)
    log_mass = math.log(sum(joint.values)) + joint.log2_scale * math.log(2)
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
    # CPT construction is where entries enter elimination, so it owns the sign check
    src = os.path.dirname(os.path.dirname(ctxkb.__file__))
    code = "\n".join([
        "import sys",
        "from ctxkb import parse_kb",
        "from ctxkb.errors import ConsistencyError",
        "from ctxkb.infer import cpt_factor",
        "from ctxkb.relevance import ObjTable",
        "if not sys.flags.optimize:",
        "    sys.exit(3)",
        "kb = parse_kb('value x = { no, yes }.\\npred x(time).\\n')",
        "node = ObjTable(('x', 0), ('no', 'yes'), (), {(): (0.5, -0.5)})",
        "try:",
        "    cpt_factor(kb, node)",
        "except ConsistencyError:",
        "    sys.exit(0)",
        "sys.exit(1)",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert r.returncode == 0, r.stderr
