"""Possible-model enumeration and forward sampling against closed-form values."""

import math

import pytest

from ctxkb import (
    SessionInput,
    answer_query,
    build_net,
    conditional,
    enumerate_joint,
    forward_sample,
    oracle_answer,
    parse_kb,
    validate_session,
)
from ctxkb.errors import EnumerationGuardError, ImpossibleEvidenceError, QuantificationError
from ctxkb.logic import ancestors, topo_order
from ctxkb.netbuild import query_instances
from ctxkb.relevance import build_combined_base

from conftest import prob, random_kb, satisfaction_gap, session_for, total

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


@pytest.fixture(scope="module")
def chain_base(chain_kb):
    vs = session_for(chain_kb, query="q(a, V)")
    base, ras, _ = build_combined_base(chain_kb, vs)
    return base, ras


def test_enumerate_joint_models(chain_kb, chain_base):
    base, ras = chain_base
    joint = enumerate_joint(base, ras.objs)
    assert total(joint) == pytest.approx(1.0, abs=1e-12)
    assert len(joint.models) == 4
    probs = {m: p for m, p in joint.models}
    pi = joint.objs.index(("p", "a"))
    qi = joint.objs.index(("q", "a"))
    model = [None, None]
    model[pi], model[qi] = "yes", "yes"
    assert probs[tuple(model)] == pytest.approx(0.32, abs=1e-12)


def test_conditional_from_joint(chain_kb, chain_base):
    base, ras = chain_base
    joint = enumerate_joint(base, ras.objs)
    vec = conditional(joint, ("p", "a"), {("q", "a"): "yes"}, chain_kb)
    assert vec.probabilities[1] == pytest.approx(0.32 / 0.44, abs=1e-12)


def test_joint_satisfies_all_sentences(chain_kb, chain_base):
    base, ras = chain_base
    joint = enumerate_joint(base, ras.objs)
    assert satisfaction_gap(joint, base) <= 1e-12


def test_evidence_clamping_matches_full_joint(chain_kb, chain_base):
    base, ras = chain_base
    full = enumerate_joint(base, ras.objs)
    clamped = enumerate_joint(base, ras.objs, evidence={("q", "a"): "yes"})
    assert total(clamped) == pytest.approx(prob(full, {("q", "a"): "yes"}), abs=1e-12)
    v1 = conditional(full, ("p", "a"), {("q", "a"): "yes"}, chain_kb)
    v2 = conditional(clamped, ("p", "a"), {("q", "a"): "yes"}, chain_kb)
    assert v1.probabilities == pytest.approx(v2.probabilities, abs=1e-12)


def test_zero_probability_evidence_raises(chain_kb, chain_base):
    base, ras = chain_base
    joint = enumerate_joint(base, ras.objs)
    bad = enumerate_joint(base, ras.objs, evidence={("q", "a"): "yes", ("p", "a"): "yes"})
    with pytest.raises(ImpossibleEvidenceError):
        # impossible combination is simulated by asking for mass that is absent
        conditional(joint, ("p", "a"), {("q", "a"): "missing-value"}, chain_kb)
    del bad


def test_guard_trips_on_huge_spaces(cardiac_kb):
    vs = session_for(
        cardiac_kb,
        evidence="rhythm(john, 0, vf).",
        lo=0,
        hi=3,
        query="rhythm(john, 3, V)",
    )
    with pytest.raises(EnumerationGuardError):
        oracle_answer(cardiac_kb, vs, guard=10)


def test_ancestor_closure(cardiac_kb):
    vs = session_for(cardiac_kb, lo=0, hi=2, query="cd(john, 2, V)")
    base, ras, _ = build_combined_base(cardiac_kb, vs)
    parents = {o: t.parents for o, t in base.tables.items()}
    closure = ancestors(parents, [("cd", "john", 2)])
    assert ("cd", "john", 0) in closure
    assert ("poa", "john", 2) in closure
    assert not any(o[1] == "mary" for o in closure)


def test_oracle_answer_matches_chain(chain_kb):
    vs = session_for(chain_kb, evidence="q(a, yes).", query="p(a, V)")
    [(theta, vec)] = oracle_answer(chain_kb, vs)
    assert theta == {}
    assert vec.probabilities[1] == pytest.approx(0.32 / 0.44, abs=1e-12)


# ---------------------------------------------------------------------------
# Forward sampling


def test_forward_sampling_within_3_sigma(chain_kb):
    vs = session_for(chain_kb, query="q(a, V)")
    net, _ = build_net(chain_kb, vs)
    n = 40000
    vecs, accepted = forward_sample(chain_kb, net, n, seed=11, targets=[("q", "a")])
    assert accepted == n
    p = 0.44
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(vecs[("q", "a")].probabilities[1] - p) <= 3 * sigma


def test_rejection_sampling_conditional(chain_kb):
    vs = session_for(chain_kb, evidence="q(a, yes).", query="p(a, V)")
    net, _ = build_net(chain_kb, vs)
    n = 60000
    vecs, accepted = forward_sample(
        chain_kb, net, n, seed=5, targets=[("p", "a")], evidence=vs.evidence
    )
    assert 0 < accepted < n
    p = 0.32 / 0.44
    sigma = math.sqrt(p * (1 - p) / accepted)
    assert abs(vecs[("p", "a")].probabilities[1] - p) <= 3 * sigma


def test_sampling_is_seed_deterministic(chain_kb):
    vs = session_for(chain_kb, query="q(a, V)")
    net, _ = build_net(chain_kb, vs)
    a, _ = forward_sample(chain_kb, net, 1000, seed=3, targets=[("q", "a")])
    b, _ = forward_sample(chain_kb, net, 1000, seed=3, targets=[("q", "a")])
    assert a[("q", "a")].probabilities == b[("q", "a")].probabilities


def test_sampling_impossible_evidence(chain_kb):
    kb = parse_kb(CHAIN.replace("prob p(a, yes) = 0.4.", "prob p(a, yes) = 0.0.")
                  .replace("prob p(a, no) = 0.6.", "prob p(a, no) = 1.0."))
    vs = session_for(kb, evidence="p(a, yes).", query="q(a, V)")
    net, _ = build_net(kb, vs)
    with pytest.raises(ImpossibleEvidenceError):
        forward_sample(kb, net, 5000, seed=1, targets=[("q", "a")], evidence=vs.evidence)


# ---------------------------------------------------------------------------
# The enumeration's explicit stack against the recursion it replaced


def reference_enumeration(base, objs, evidence):
    """(models, work) of the recursive enumeration that preceded the explicit stack."""
    order = topo_order({o: base.tables[o].parents for o in objs}, "combined relevant base")
    tables = [base.tables[o] for o in order]
    pos = {o: i for i, o in enumerate(order)}
    parent_idx = [tuple(pos[p] for p in t.parents) for t in tables]
    value_lists = [
        tuple(v for v in t.values if o not in evidence or v == evidence[o])
        for o, t in zip(order, tables)
    ]
    value_index = [tuple(t.values.index(v) for v in vals) for t, vals in zip(tables, value_lists)]
    models = []
    work = 0
    assignment = [None] * len(order)

    def recurse(depth, prob):
        nonlocal work
        if depth == len(order):
            models.append((tuple(assignment), prob))
            return
        row = tables[depth].rows[tuple(assignment[i] for i in parent_idx[depth])]
        for v, vi in zip(value_lists[depth], value_index[depth]):
            p = row[vi]
            work += 1
            if p == 0.0:
                continue
            assignment[depth] = v
            recurse(depth + 1, prob * p)
        assignment[depth] = None

    if order:
        recurse(0, 1.0)
    else:
        models.append(((), 1.0))
    return models, work


def test_enumeration_matches_recursive_reference(cardiac_kb):
    cases = [random_kb(seed)[:2] for seed in range(20)]
    cases.append((cardiac_kb, session_for(
        cardiac_kb, context="epi(john, 0). dfib(john, 1).", evidence="rhythm(john, 0, vf). cbf(john, 2, absent).",
        lo=0, hi=2, query="cd(john, 2, V)",
    )))
    for kb, vs in cases:
        base, ras, _ = build_combined_base(kb, vs)
        parents = {o: t.parents for o, t in base.tables.items()}
        for _, target in query_instances(kb, vs.query, vs.lo, vs.hi):
            if target not in ras.objs:
                continue
            objs = ancestors(parents, [target] + list(vs.evidence))
            models, work = reference_enumeration(base, objs, vs.evidence)
            joint = enumerate_joint(base, objs=objs, guard=work, evidence=vs.evidence)
            assert joint.models == models
            with pytest.raises(EnumerationGuardError):
                enumerate_joint(base, objs=objs, guard=work - 1, evidence=vs.evidence)


def test_evidence_without_a_table_is_a_quantification_error_as_in_answer_query():
    kb = parse_kb(
        """
        domain d = { a }.
        value p = { no, yes }.
        value q = { no, yes }.
        pred p(d).
        pred q(d, time).
        prob p(a, yes) = 0.4.
        prob p(a, no) = 0.6.
        """
    )
    vs = session_for(kb, evidence="q(a, 0, yes).", query="p(a, V)")
    want = "incompletely quantified: ('q', 'a', 0): no applicable sentence inside the session window"
    with pytest.raises(QuantificationError) as oracle:
        oracle_answer(kb, vs)
    assert str(oracle.value) == want
    assert oracle.value.exit_code == 4
    with pytest.raises(QuantificationError) as ve:
        answer_query(kb, vs)
    assert str(ve.value) == want


def test_row_gap_is_a_quantification_error_as_in_answer_query():
    kb = parse_kb(
        """
        value p = { no, yes }.
        value q = { no, yes }.
        pred p(time).
        pred q(time).
        prob q(0, no) = 0.5.
        prob q(0, yes) = 0.5.
        prob p(0, no) | q(0, yes) = 0.7.
        prob p(0, yes) | q(0, yes) = 0.3.
        """
    )
    vs = session_for(kb, query="p(0, V)")
    want = "incompletely quantified: ('p', 0): no applicable sentence at parents {('q', 0): 'no'}"
    with pytest.raises(QuantificationError) as oracle:
        oracle_answer(kb, vs)
    assert str(oracle.value) == want
    with pytest.raises(QuantificationError) as ve:
        answer_query(kb, vs)
    assert str(ve.value) == want
