"""Elimination plans: compiled once per network structure, kept on the knowledge base.

A plan depends on each node's object and parents, the evidence objects and
the target, never on table entries or evidence values.  A warm plan store
must answer exactly as a freshly loaded knowledge base does, and a stored
plan must still run every check that reading a table runs.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from ctxkb import answer_query, build_net, parse_kb
from ctxkb.errors import (
    ConsistencyError,
    ImpossibleEvidenceError,
    OutOfBoundsSupportError,
    QuantificationError,
)
from ctxkb.infer import answer_on_net, eliminate
from ctxkb.netbuild import BayesNet
from ctxkb.relevance import ObjTable

from bucket import bucket_eliminate
from conftest import data_path, outcome, session_for, timed_kbs

CARDIAC_TEXT = Path(data_path("cardiac.ckb")).read_text(encoding="utf-8")
PAINT_TEXT = Path(data_path("paint.ckb")).read_text(encoding="utf-8")
RHYTHMS = ("nsr", "vf", "vt", "af", "svt", "b", "a")


def paint_sessions(seed, n, horizon=240):
    """Seeded paint plans over the first steps, some with an observation half way."""
    rng = random.Random(seed)
    sessions = []
    for _ in range(n):
        times = sorted(t for t in range(8) if rng.random() < 0.4) or [rng.randrange(8)]
        context = " ".join(f"paint(door, {t})." for t in times)
        evidence = ""
        if rng.random() < 0.3:
            evidence = f"painted(door, {horizon // 2}, {rng.choice(('no', 'yes'))})."
        sessions.append(dict(context=context, evidence=evidence, lo=0, hi=horizon,
                             query=f"painted(door, {horizon}, V)"))
    return sessions


def cardiac_evidence_sessions(seed, n):
    """One plan and query, the t=0 rhythm evidence of both persons drawn anew each time."""
    rng = random.Random(seed)
    context = "epi(john, 0). cpr(mary, 1). dfib(john, 2). lido(mary, 3)."
    return [
        dict(context=context, evidence=f"rhythm(john, 0, {rng.choice(RHYTHMS)}). "
                                       f"rhythm(mary, 0, {rng.choice(RHYTHMS)}).",
             lo=0, hi=4, query=query)
        for query in ("cd(X, 4, V)", "rhythm(X, 3, V)")
        for _ in range(n)
    ]


def assert_warm_matches_fresh(text, sessions, seed):
    fresh = [outcome(parse_kb(text), s) for s in sessions]
    assert any(isinstance(o, list) for o in fresh)
    warm = parse_kb(text)
    idx = list(range(len(sessions)))
    random.Random(seed).shuffle(idx)
    for i in idx + idx[::-1]:
        assert outcome(warm, sessions[i]) == fresh[i], sessions[i]
    return warm


def test_warm_kb_answers_shuffled_paint_sessions_as_fresh_kbs():
    warm = assert_warm_matches_fresh(PAINT_TEXT, paint_sessions(seed=16, n=14), seed=1)
    assert warm.plans


def test_plan_hit_with_other_evidence_values_answers_as_fresh_kbs():
    sessions = cardiac_evidence_sessions(seed=16, n=8)
    values = {s["evidence"] for s in sessions}
    assert len(values) > 4
    warm = assert_warm_matches_fresh(CARDIAC_TEXT, sessions, seed=2)
    # one structure per query; each of its two targets has one plan
    assert sorted(map(len, warm.plans.values())) == [2, 2]


def test_same_last_paint_time_shares_one_plan():
    kb = parse_kb(PAINT_TEXT)
    for times in ((4,), (0, 4), (1, 2, 4), (0, 1, 2, 3, 4)):
        context = " ".join(f"paint(door, {t})." for t in times)
        answer_query(kb, session_for(kb, context=context, lo=0, hi=240, query="painted(door, 240, V)"))
    assert len(kb.plans) == 1
    [plans] = kb.plans.values()
    assert list(plans) == [("painted", "door", 240)]
    answer_query(kb, session_for(kb, context="paint(door, 3).", lo=0, hi=240, query="painted(door, 240, V)"))
    assert len(kb.plans) == 2


def test_plans_differ_by_evidence_objects():
    kb = parse_kb(PAINT_TEXT)
    plain = dict(context="paint(door, 0).", lo=0, hi=12, query="painted(door, 12, V)")
    seen = dict(plain, evidence="painted(door, 6, no).")
    want = [outcome(parse_kb(PAINT_TEXT), s) for s in (plain, seen)]
    assert want[0] != want[1]
    assert [outcome(kb, s) for s in (plain, seen, plain)] == want + want[:1]
    assert len(kb.plans) == 2


def two_step_kb(values):
    """A chain of p over time that starts at the first of ``values`` and keeps its value."""
    lines = [f"value p = {{ {', '.join(values)} }}.", "pred p(time)."]
    lines += [f"prob p(0, {v}) = {float(v == values[0])}." for v in values]
    lines += [f"prob p(t, {v}) | p(t-1, {u}) = {float(u == v)}." for u in values for v in values]
    return parse_kb("\n".join(lines) + "\n")


def test_two_kbs_with_the_same_objects_keep_their_own_plans():
    # the same objects ('p', 0) and ('p', 1), with two and with three values
    small, large = two_step_kb(["a", "b"]), two_step_kb(["c", "d", "e"])
    for _ in range(2):
        for kb, first, n in ((small, "a", 2), (large, "c", 3), (small, "a", 2)):
            vs = session_for(kb, evidence=f"p(0, {first}).", lo=0, hi=1, query="p(1, V)")
            [(_, vec)] = answer_query(kb, vs).instances
            assert vec.probabilities == (1.0,) + (0.0,) * (n - 1)
    assert len(small.plans) == len(large.plans) == 1


def test_impossible_evidence_raises_on_a_plan_hit():
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
    for _ in range(2):  # the second call keeps the plan
        [(_, vec)] = answer_query(kb, session_for(kb, evidence="q(a, yes).", query="p(a, V)")).instances
        assert vec.probabilities == (0.0, 1.0)
    plans = {k: dict(v) for k, v in kb.plans.items()}
    assert list(map(len, plans.values())) == [1]
    with pytest.raises(ImpossibleEvidenceError):
        answer_query(kb, session_for(kb, evidence="q(a, no).", query="p(a, V)"))
    assert kb.plans == plans


@pytest.mark.parametrize(
    "row, message",
    [((0.5, -0.5), "has a negative entry"), ((0.2, 0.3, 0.5), "has the wrong length")],
)
def test_a_bad_table_raises_through_a_stored_plan(row, message):
    kb = two_step_kb(["a", "b"])
    vs = session_for(kb, evidence="p(0, a).", lo=0, hi=1, query="p(1, V)")
    net, _ = build_net(kb, vs)
    for _ in range(2):  # the second call keeps the plan
        eliminate(kb, net, vs.evidence, [("p", 1)])
    plans = {k: dict(v) for k, v in kb.plans.items()}
    assert list(map(len, plans.values())) == [1]
    # the same structure; the child's table is built by hand, not through the shape store
    rows = {("a",): row, ("b",): (0.0, 1.0)}
    bad = {**net.nodes, ("p", 1): ObjTable(("p", 1), ("a", "b"), (("p", 0),), rows)}
    with pytest.raises(ConsistencyError, match=message):
        eliminate(kb, BayesNet(bad, net.order), vs.evidence, [("p", 1)])
    assert kb.plans == plans


def test_a_structure_keeps_plans_from_its_second_call_on():
    kb = parse_kb(PAINT_TEXT)
    vs = session_for(kb, context="paint(door, 0).", lo=0, hi=20, query="painted(door, T, V)")
    net, subs = build_net(kb, vs)
    want = answer_on_net(kb, vs, net, subs)
    assert len(subs) == 21 and list(kb.plans.values()) == [()]  # a one-shot projection keeps no plan
    for _ in range(2):
        assert answer_on_net(kb, vs, net, subs) == want
        [plans] = kb.plans.values()
        assert sorted(plans) == sorted(vec.query_object for _, vec in want.instances)


def test_a_query_without_instances_stores_no_plan():
    kb = parse_kb("value p = { a, b }.\npred p(time).\nprob p(0, a) = 1.0.\nprob p(0, b) = 0.0.\n")
    assert answer_query(kb, session_for(kb, lo=0, hi=1, query="p(1, V)")).instances == []
    assert kb.plans == {}


def test_an_explicit_order_is_not_stored():
    kb = parse_kb(CARDIAC_TEXT)
    vs = session_for(kb, evidence="rhythm(john, 0, vf).", context="epi(john, 0).", lo=0, hi=2,
                     query="cd(john, 2, V)")
    net, subs = build_net(kb, vs)
    answer_on_net(kb, vs, net, subs, order=list(reversed(net.order)))
    assert kb.plans == {}


# ---------------------------------------------------------------------------
# Bit for bit against per-target bucket elimination


def assert_same_as_buckets(kb, vs, order=None):
    net, subs = build_net(kb, vs)
    targets = [vec.query_object for _, vec in answer_on_net(kb, vs, net, subs).instances]
    for _ in range(2):  # a plan miss, then a hit
        got = eliminate(kb, net, vs.evidence, targets, order=order)
        want = bucket_eliminate(kb, net, vs.evidence, targets, order=order)
        assert list(got) == list(want) == targets
        for t in targets:
            g, w = got[t], want[t]
            assert (g.scope, g.cards, g.log2_scale) == (w.scope, w.cards, w.log2_scale)
            assert [v.hex() for v in g.values] == [v.hex() for v in w.values]
    return len(targets)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(timed_kbs())
def test_plans_match_buckets_on_timed_corpus(case):
    text, session, _ = case
    kb = parse_kb(text)
    try:
        vs = session_for(kb, **session)
        assert_same_as_buckets(kb, vs)
    except (OutOfBoundsSupportError, QuantificationError, ImpossibleEvidenceError):
        pass  # no network, or evidence of probability zero


@pytest.mark.parametrize(
    "context, evidence, hi, query",
    [
        ("epi(john, 0). epi(john, 2). dfib(john, 2).", "rhythm(john, 0, vf).", 3, "rhythm(john, 3, V)"),
        ("cpr(john, 0). cpr(john, 1). cpr(john, 2). epi(john, 2).",
         "rhythm(john, 0, a). poa(john, 0, min5). cd(john, 0, none).", 4, "cd(john, 4, V)"),
        ("lido(mary, 1). dfib(john, 3).", "rhythm(john, 0, vf). rhythm(mary, 0, vt).", 6, "cd(X, 6, V)"),
        ("epi(john, 0). cpr(mary, 1).", "rhythm(john, 0, vf). rhythm(mary, 2, vt).", 4, "rhythm(X, T, V)"),
    ],
)
def test_plans_match_buckets_on_cardiac(context, evidence, hi, query):
    kb = parse_kb(CARDIAC_TEXT)
    vs = session_for(kb, context=context, evidence=evidence, lo=0, hi=hi, query=query)
    assert assert_same_as_buckets(kb, vs) > 0
    net, _ = build_net(kb, vs)
    assert_same_as_buckets(kb, vs, order=list(reversed(net.order)))


def test_plans_match_buckets_on_paint_horizon_2000(paint_kb):
    evidence = " ".join(f"painted(door, {t}, {('no', 'yes')[t % 2]})." for t in range(2000))
    vs = session_for(paint_kb, evidence=evidence, lo=0, hi=2000, query="painted(door, 2000, V)")
    assert assert_same_as_buckets(paint_kb, vs) == 1
