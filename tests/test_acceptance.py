"""Acceptance gate: ten end-to-end correctness criteria.

Each test prints one summary line (visible with ``pytest -s`` or on failure).
"""

import itertools
import time

import numpy as np
import pytest

from ctxkb import (
    CycleError,
    SessionError,
    answer_query,
    build_net,
    discharge_contexts,
    enumerate_joint,
    noisy_max,
    oracle_answer,
    parse_kb,
)
from ctxkb.bench import compare_encodings, paint_pair
from ctxkb.errors import OutOfBoundsSupportError
from ctxkb.oracle import DEFAULT_GUARD
from ctxkb.relevance import build_combined_base

from conftest import GroundSentence, ground_sentences, naive_ras_objs, prob, random_kb, session_for

N_CORPUS = 220


@pytest.fixture(scope="module")
def corpus_results():
    """Evaluate the randomized corpus once; criteria 1, 2, and 6 share it."""
    results = []
    t0 = time.time()
    for seed in range(N_CORPUS):
        kb, session, meta = random_kb(seed)
        ans = answer_query(kb, session)
        ref = oracle_answer(kb, session)
        net, subs = build_net(kb, session)
        results.append((kb, session, meta, ans, ref, subs))
    elapsed = time.time() - t0
    assert elapsed < 120, f"corpus evaluation took {elapsed:.1f}s (budget 120s)"
    return results


def test_criterion_1_oracle_soundness(corpus_results):
    worst = 0.0
    for kb, session, meta, ans, ref, subs in corpus_results:
        assert len(ans.instances) == len(ref)
        for (ta, va), (tb, vb) in zip(ans.instances, ref):
            assert ta == tb
            worst = max(
                worst,
                max(abs(a - b) for a, b in zip(va.probabilities, vb.probabilities)),
            )
    assert worst <= 1e-9
    print(f"criterion 1 PASS: {N_CORPUS} KBs, max |VE - enumeration| = {worst:.3e}")


def test_criterion_2_completeness(corpus_results):
    checked = 0
    for kb, session, meta, ans, ref, subs in corpus_results:
        pred = meta["query_pred"]
        got = {theta["X"] for theta in subs}
        naive = naive_ras_objs(kb, session) | set(session.evidence)
        want = {m for m in meta["members"] if (pred, m) in naive}
        assert got == want, (pred, got, want)
        checked += 1
    print(f"criterion 2 PASS: substitution sets exact on {checked} KBs")


def test_criterion_3_context_conditioning(cardiac_kb):
    vs = session_for(
        cardiac_kb, context="no_inter(john, 1). epi(john, 1).", lo=1, hi=2
    )
    records = discharge_contexts(cardiac_kb, vs)
    sentences = ground_sentences(records)
    want = GroundSentence(
        (("rhythm", "john", 2), "nsr"),
        frozenset({(("rhythm", "john", 1), "nsr")}),
        0.05,
    )
    assert want in sentences
    assert not any(
        (True, ("dfib", "john", 1)) in context for _, _, context, _ in records
    )
    print("criterion 3 PASS: context-selected sentence present, dfib-guarded absent")


def test_criterion_4_independence(cardiac_kb):
    t0 = time.time()
    vs = session_for(cardiac_kb, lo=0, hi=3)
    base, ras, _ = build_combined_base(cardiac_kb, vs)
    objs = [("rhythm", "john", t) for t in range(4)]
    joint = enumerate_joint(base, objs, DEFAULT_GUARD, {})
    r1, r2, r3 = objs[1], objs[2], objs[3]
    values = cardiac_kb.val("rhythm")
    worst = 0.0
    for v2, v3 in itertools.product(values, repeat=2):
        p23 = prob(joint, {r2: v2, r3: v3})
        p2 = prob(joint, {r2: v2})
        if p23 == 0.0 or p2 == 0.0:
            continue
        for v1 in values:
            lhs = prob(joint, {r1: v1, r2: v2, r3: v3}) / p23
            rhs = prob(joint, {r1: v1, r2: v2}) / p2
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    assert worst <= 1e-9
    assert elapsed < 30
    print(f"criterion 4 PASS: max Markov violation {worst:.3e} in {elapsed:.1f}s")


def test_criterion_5_network_minimality(cardiac_kb):
    vs = session_for(
        cardiac_kb, evidence="rhythm(john, 0, nsr).", lo=0, hi=3,
        query="rhythm(john, 3, V)",
    )
    net, _ = build_net(cardiac_kb, vs)
    assert set(net.nodes) == {("rhythm", "john", t) for t in range(4)}
    print("criterion 5 PASS: supporting network is exactly the rhythm chain 0..3")


def test_criterion_6_normalization_and_consistency(corpus_results):
    for kb, session, meta, ans, ref, subs in corpus_results:
        for _, vec in ans.instances:
            assert abs(sum(vec.probabilities) - 1.0) <= 1e-9
    # a conditional row summing to 1.2 is a quantification-consistency violation
    bad = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(0, yes) = 0.7.
        prob p(0, no) = 0.5.
        """
    )
    from ctxkb.relevance import check_consistency

    base, _, _ = build_combined_base(bad, session_for(bad, lo=0, hi=0))
    from ctxkb.errors import ConsistencyError

    with pytest.raises(ConsistencyError) as e:
        check_consistency(base)
    assert "sums to" in str(e.value)
    # a self-influencing KB is rejected with a cycle witness
    loop = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(T, yes) | p(T, yes) = 0.5.
        prob p(T, no) | p(T, yes) = 0.5.
        """
    )
    from ctxkb import check_acyclic_pb

    with pytest.raises(CycleError) as e2:
        check_acyclic_pb(loop, 0, 1)
    assert e2.value.witness[0] == e2.value.witness[-1]
    print("criterion 6 PASS: posteriors normalized; bad row and self-loop rejected")


def _lattice_rows(k):
    """All distributions over k values with entries in {0, .25, .5, .75, 1}."""
    out = []
    for comp in itertools.product(range(5), repeat=k):
        if sum(comp) == 4:
            out.append(tuple(c / 4.0 for c in comp))
    return out


def test_criterion_7_combining_rule_exhaustive():
    worst = 0.0
    n_cases = 0
    for k in (2, 3, 4):
        rows = _lattice_rows(k)
        values = tuple("v%d" % i for i in range(k))
        for m in (2, 3, 4):
            combos = list(itertools.combinations_with_replacement(range(len(rows)), m))
            dists = np.array(rows)
            # brute force: each mechanism draws independently; result = max index
            got = np.empty((len(combos), k))
            for ci, combo in enumerate(combos):
                mechs = [rows[i] for i in combo]
                got[ci] = noisy_max(None, mechs, values)
            want = np.zeros((len(combos), k))
            sel = dists[np.array(combos)]  # (N, m, k)
            for picks in itertools.product(range(k), repeat=m):
                p = np.ones(len(combos))
                for i, v in enumerate(picks):
                    p *= sel[:, i, v]
                want[:, max(picks)] += p
            worst = max(worst, float(np.abs(got - want).max()))
            n_cases += len(combos)
    assert worst <= 1e-12
    print(f"criterion 7 PASS: {n_cases} mechanism sets, max deviation {worst:.3e}")


def test_criterion_8_bounding(cardiac_kb):
    # query timed outside the window
    with pytest.raises(SessionError):
        session_for(cardiac_kb, lo=0, hi=2, query="rhythm(john, 5, V)")
    # evidence timed outside the window
    with pytest.raises(SessionError):
        session_for(cardiac_kb, evidence="rhythm(john, 5, vf).", lo=0, hi=2)
    # context timed outside the window
    with pytest.raises(SessionError):
        session_for(cardiac_kb, context="epi(john, 5).", lo=0, hi=2)
    # required ancestor outside the window
    vs = session_for(cardiac_kb, evidence="rhythm(john, 1, vf).", lo=1, hi=2)
    with pytest.raises(OutOfBoundsSupportError):
        build_net(cardiac_kb, vs)
    # the in-bounds invariant itself is asserted inside network assembly for
    # every network built anywhere in the suite (see netbuild.assemble_net)
    from ctxkb.lang import obj_time

    vs_ok = session_for(
        cardiac_kb, evidence="rhythm(john, 0, vf).", lo=0, hi=3,
        query="cd(john, 3, V)",
    )
    net, _ = build_net(cardiac_kb, vs_ok)
    assert all(0 <= obj_time(cardiac_kb, o) <= 3 for o in net.nodes)
    print("criterion 8 PASS: out-of-window inputs rejected; node times in bounds")


def test_criterion_9_link_matrix_halving():
    horizon, plan = 3, [0]
    pair = paint_pair(horizon, plan)
    m_ctx, m_act = compare_encodings(pair, plan)
    halved = 0
    for t, entries in sorted(m_ctx.entries_by_time.items()):
        if t == 0 or (t - 1) in plan:
            continue  # marginal / action steps have no persistence matrix
        assert entries * 2 == m_act.entries_by_time[t]
        halved += 1
    assert halved > 0
    diff = max(abs(a - b) for a, b in zip(m_ctx.posterior, m_act.posterior))
    assert diff <= 1e-9
    print(
        f"criterion 9 PASS: {halved} persistence steps halved exactly; "
        f"posterior agreement {diff:.3e}"
    )


# Recorded at the first oracle-verified run (enumeration agreed with variable
# elimination to < 1e-15 on both scenarios); locked at 1e-12 thereafter.
LOCKED_RHYTHM_AT_3 = (
    0.31773967639131534,
    0.47468706322713383,
    0.007832237771604987,
    0.008779231719848419,
    0.00877923171984842,
    0.06674659230984036,
    0.11543596686040856,
)
LOCKED_CD_AT_4 = (
    0.0001,
    0.6288191999999999,
    0.0896668,
    0.28141400000000005,
)


def test_criterion_10_regression_lock(cardiac_kb):
    vs1 = session_for(
        cardiac_kb,
        evidence="rhythm(john, 0, vf).",
        context="epi(john, 0). epi(john, 2). dfib(john, 2).",
        lo=0, hi=3, query="rhythm(john, 3, V)",
    )
    [(_, vec1)] = answer_query(cardiac_kb, vs1).instances
    assert vec1.probabilities == pytest.approx(LOCKED_RHYTHM_AT_3, abs=1e-12)
    [(_, ref1)] = oracle_answer(cardiac_kb, vs1)
    assert ref1.probabilities == pytest.approx(LOCKED_RHYTHM_AT_3, abs=1e-9)

    vs2 = session_for(
        cardiac_kb,
        evidence="rhythm(john, 0, a). poa(john, 0, min5). cd(john, 0, none).",
        context="cpr(john, 0). cpr(john, 1). cpr(john, 2). epi(john, 2).",
        lo=0, hi=4, query="cd(john, 4, V)",
    )
    [(_, vec2)] = answer_query(cardiac_kb, vs2).instances
    assert vec2.probabilities == pytest.approx(LOCKED_CD_AT_4, abs=1e-12)
    [(_, ref2)] = oracle_answer(cardiac_kb, vs2)
    assert ref2.probabilities == pytest.approx(LOCKED_CD_AT_4, abs=1e-9)
    print("criterion 10 PASS: both scenario posteriors stable to 1e-12")
