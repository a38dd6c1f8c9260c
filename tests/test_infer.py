"""Variable elimination: hand-checked values, invariances, evidence handling."""

import pytest

from ctxkb import answer_query, build_net, parse_kb
from ctxkb.errors import ImpossibleEvidenceError
from ctxkb.infer import Entries, Factor, answer_on_net, cpt_factor, min_fill_order

from bucket import bucket_eliminate, marginalize, multiply, reduce
from conftest import session_for

CHAIN = """
domain d = { a }.
value p = { no, yes }.
value q = { no, yes }.
pred p(d).
pred q(d).
prob p(a, yes) = 0.4.
prob p(a, no) = 0.6.
prob q(a, yes) | p(a, yes) = 0.8.
prob q(a, no)  | p(a, yes) = 0.2.
prob q(a, yes) | p(a, no)  = 0.2.
prob q(a, no)  | p(a, no)  = 0.8.
"""


@pytest.fixture(scope="module")
def chain_kb():
    return parse_kb(CHAIN)


def test_prior_marginal(chain_kb):
    vs = session_for(chain_kb, query="q(a, V)")
    ans = answer_query(chain_kb, vs)
    [(theta, vec)] = ans.instances
    # P(q=yes) = 0.4*0.8 + 0.6*0.2 = 0.44
    assert vec.probabilities == pytest.approx((0.56, 0.44), abs=1e-12)


def test_posterior_with_evidence(chain_kb):
    vs = session_for(chain_kb, evidence="q(a, yes).", query="p(a, V)")
    [(theta, vec)] = answer_query(chain_kb, vs).instances
    # P(p=yes | q=yes) = 0.32 / 0.44
    assert vec.probabilities[1] == pytest.approx(0.32 / 0.44, abs=1e-12)


def test_query_object_observed(chain_kb):
    vs = session_for(chain_kb, evidence="q(a, yes).", query="q(a, V)")
    [(theta, vec)] = answer_query(chain_kb, vs).instances
    assert vec.probabilities == (0.0, 1.0)


def test_impossible_evidence_raises():
    kb = parse_kb(
        """
        domain d = { a }.
        value p = { no, yes }.
        value q = { no, yes }.
        pred p(d).
        pred q(d).
        prob p(a, yes) = 1.0.
        prob p(a, no) = 0.0.
        prob q(a, yes) | p(a, yes) = 1.0.
        prob q(a, no)  | p(a, yes) = 0.0.
        prob q(a, yes) | p(a, no)  = 0.5.
        prob q(a, no)  | p(a, no)  = 0.5.
        """
    )
    vs = session_for(kb, evidence="q(a, no).", query="p(a, V)")
    with pytest.raises(ImpossibleEvidenceError):
        answer_query(kb, vs)


def test_elimination_order_invariance(cardiac_kb):
    vs = session_for(
        cardiac_kb,
        evidence="rhythm(john, 0, a). poa(john, 0, min5). cd(john, 0, none).",
        context="cpr(john, 0). cpr(john, 1).",
        lo=0,
        hi=2,
        query="cd(john, 2, V)",
    )
    net, subs = build_net(cardiac_kb, vs)
    default = answer_on_net(cardiac_kb, vs, net, subs)
    targets = [vec.query_object for _, vec in default.instances]
    for order in (list(net.order), list(reversed(net.order))):
        joints = bucket_eliminate(cardiac_kb, net, vs.evidence, targets, order=order)
        for _, vec in default.instances:
            values = joints[vec.query_object].values
            assert vec.probabilities == pytest.approx([p / sum(values) for p in values], abs=1e-9)


def test_posterior_rows_normalized(cardiac_kb):
    vs = session_for(
        cardiac_kb,
        evidence="rhythm(john, 0, vf).",
        context="epi(john, 0). epi(john, 2). dfib(john, 2).",
        lo=0,
        hi=3,
        query="rhythm(john, 3, V)",
    )
    for _, vec in answer_query(cardiac_kb, vs).instances:
        assert abs(sum(vec.probabilities) - 1.0) <= 1e-9
        assert all(0.0 <= p <= 1.0 for p in vec.probabilities)


def test_two_instance_query(cardiac_kb):
    vs = session_for(cardiac_kb, lo=0, hi=0, query="rhythm(X, 0, V)")
    ans = answer_query(cardiac_kb, vs)
    assert [theta for theta, _ in ans.instances] == [{"X": "john"}, {"X": "mary"}]
    for _, vec in ans.instances:
        assert vec.probabilities[1] == pytest.approx(0.74, abs=1e-12)  # vf marginal


# ---------------------------------------------------------------------------
# Factor algebra


def test_factor_multiply_and_marginalize():
    a = Factor((("x",),), (2,), Entries([0.3, 0.7]))
    b = Factor((("x",), ("y",)), (2, 2), Entries([0.2, 0.8, 0.5, 0.5]))
    prod = multiply(a, b)
    assert prod.scope == (("x",), ("y",))
    assert prod.values == pytest.approx([0.06, 0.24, 0.35, 0.35])
    marg = marginalize(prod, ("x",))
    assert marg.scope == (("y",),)
    assert marg.values == pytest.approx([0.41, 0.59])


def test_multiply_disjoint_scopes_broadcasts():
    a = Factor((("x",),), (2,), Entries([0.5, 0.5]))
    b = Factor((("y",),), (2,), Entries([0.1, 0.9]))
    prod = multiply(a, b)
    assert prod.scope == (("x",), ("y",))
    assert sum(prod.values) == pytest.approx(1.0)


def test_min_fill_prefers_low_fill():
    # star graph: eliminating a leaf adds no fill edges; the hub adds many
    scopes = [(("hub",), ("l%d" % i,)) for i in range(4)]
    order = min_fill_order(scopes, keep=set())
    assert order[0] != ("hub",)


def test_reduce_slices_evidence(chain_kb):
    net, _ = build_net(chain_kb, session_for(chain_kb, query="q(a, V)"))
    f = cpt_factor(chain_kb, net.nodes[("q", "a")])
    r = reduce(chain_kb, f, {("p", "a"): "yes"})
    assert r.scope == (("q", "a"),)
    assert tuple(r.values) == (0.2, 0.8)
