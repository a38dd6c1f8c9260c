"""Context discharge, relevant-set fixpoint, and the combined relevant base."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkb import (
    build_combined_base,
    build_net,
    compute_ras,
    discharge_contexts,
    parse_kb,
)
from ctxkb.errors import ConflictingSentencesError, ConsistencyError, CycleError, QuantificationError
from ctxkb.relevance import check_consistency, table_gaps

from conftest import GroundSentence, ground_sentences, naive_ras_objs, random_kb, reference_restrict_rpb, session_for

GUARDED = """
domain person = { john }.
value rhythm = { nsr, vf }.
pred rhythm(person, time).
cpred epi(person, time).
cpred dfib(person, time).
cpred no_inter(person, time).
ctx no_inter(X, T) <- not dfib(X, T).
combine rhythm with noisy_max.
prob rhythm(X, 0, nsr) = 0.3.
prob rhythm(X, 0, vf) = 0.7.
prob rhythm(X, t, nsr) | rhythm(X, t-1, nsr) = 0.9 <- no_inter(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, nsr) = 0.1 <- no_inter(X, t-1).
prob rhythm(X, t, nsr) | rhythm(X, t-1, vf) = 0.2 <- no_inter(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, vf) = 0.8 <- no_inter(X, t-1).
prob rhythm(X, t, nsr) | rhythm(X, t-1, nsr) = 0.99 <- dfib(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, nsr) = 0.01 <- dfib(X, t-1).
prob rhythm(X, t, nsr) | rhythm(X, t-1, vf) = 0.6 <- dfib(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, vf) = 0.4 <- dfib(X, t-1).
"""


@pytest.fixture(scope="module")
def kb():
    return parse_kb(GUARDED)


def gs(cons, ante, alpha):
    return GroundSentence(cons, frozenset(ante), alpha)


def test_discharge_grounds_free_variables_in_sorted_order():
    # Y occurs before B, but B sorts first: a schema's records list B's values outermost
    kb = parse_kb(
        """
        domain d = { a, b }.
        value p = { no, yes }.
        value q = { no, yes }.
        cpred c(d, time).
        pred p(time).
        pred q(d, time).
        prob q(Y, t, yes) = 0.5.
        prob q(Y, t, no) = 0.5.
        prob p(t, yes) | q(Y, t, yes) = 0.5 <- c(B, t).
        prob p(t, no) | q(Y, t, yes) = 0.5 <- c(B, t).
        """
    )
    vs = session_for(kb, context="c(a, 1). c(b, 1).", lo=0, hi=1)
    records = discharge_contexts(kb, vs, {("p", 1)})
    assert [(parents, context) for obj, parents, context, _ in records if obj == ("p", 1)] == [
        ((("q", y, 1),), ((True, ("c", b, 1)),)) for b in "ab" for y in "ab"]


def test_discharge_selects_matching_context(kb):
    vs = session_for(kb, lo=0, hi=1)
    got = ground_sentences(discharge_contexts(kb, vs))
    # negation-as-failure derives no_inter(john, 0): persistence rules fire
    assert gs((("rhythm", "john", 1), "nsr"), [(("rhythm", "john", 0), "nsr")], 0.9) in got
    # the dfib-guarded variants do not
    assert gs((("rhythm", "john", 1), "nsr"), [(("rhythm", "john", 0), "nsr")], 0.99) not in got


def test_discharge_with_context_fact(kb):
    vs = session_for(kb, context="dfib(john, 0).", lo=0, hi=1)
    got = ground_sentences(discharge_contexts(kb, vs))
    assert gs((("rhythm", "john", 1), "nsr"), [(("rhythm", "john", 0), "nsr")], 0.99) in got
    assert gs((("rhythm", "john", 1), "nsr"), [(("rhythm", "john", 0), "nsr")], 0.9) not in got


def test_discharge_provenance_records_guard(kb):
    vs = session_for(kb, context="dfib(john, 0).", lo=0, hi=1)
    records = discharge_contexts(kb, vs)
    guards = {context for obj, _, context, _ in records if obj == ("rhythm", "john", 1)}
    assert all(ctx == ((True, ("dfib", "john", 0)),) for ctx in guards)


def test_ras_fixpoint_and_restriction(kb):
    vs = session_for(kb, lo=0, hi=2, query="rhythm(john, 2, V)")
    discharged = discharge_contexts(kb, vs)
    ras = compute_ras(discharged, vs)
    assert ras.objs == {("rhythm", "john", 0), ("rhythm", "john", 1), ("rhythm", "john", 2)}
    sentences = ground_sentences(discharged)
    rpb = reference_restrict_rpb(sentences, ras)
    assert rpb == sentences  # everything relevant here
    # combine_rpb keeps the same records: every record's object and parents are relevant
    assert all(o in ras.objs and ras.objs.issuperset(ps) for o, ps, _, _ in discharged)


def test_ras_is_monotone_in_evidence(kb):
    vs0 = session_for(kb, lo=0, hi=2)
    vs1 = session_for(kb, evidence="rhythm(john, 1, vf).", lo=0, hi=2)
    d0, d1 = discharge_contexts(kb, vs0), discharge_contexts(kb, vs1)
    assert compute_ras(d0, vs0).objs <= compute_ras(d1, vs1).objs


def test_ras_matches_naive_atom_level_fixpoint(kb):
    for seed in range(20):
        rkb, session, _ = random_kb(seed)
        discharged = discharge_contexts(rkb, session)
        ras = compute_ras(discharged, session)
        assert ras.objs == naive_ras_objs(rkb, session) | set(session.evidence)


ras_objects = st.integers(min_value=0, max_value=7).map(lambda i: ("o", i))


@settings(max_examples=200, deadline=None)
@given(
    edges=st.lists(
        st.tuples(ras_objects, st.sets(ras_objects, max_size=3)), max_size=16
    ),
    evidence=st.sets(ras_objects, max_size=2),
)
def test_ras_worklist_matches_repeat_until_stable(edges, evidence):
    records = [(cons, tuple(sorted(ante)), (), [("v", ("v",) * len(ante), 0.5)]) for cons, ante in edges]
    sentences = ground_sentences(records)
    session = SimpleNamespace(evidence={o: "v" for o in evidence}, lo=0, hi=0)
    objs = set(evidence)
    changed = True
    while changed:
        changed = False
        for s in sentences:
            if all(o in objs for o, _ in s.ante) and s.cons[0] not in objs:
                objs.add(s.cons[0])
                changed = True
    assert compute_ras(records, session).objs == objs


def test_combined_base_rows_normalized(kb):
    vs = session_for(kb, lo=0, hi=2)
    base, ras, _ = build_combined_base(kb, vs)
    check_consistency(base)
    t = base.tables[("rhythm", "john", 1)]
    assert t.parents == (("rhythm", "john", 0),)
    assert t.rows[("nsr",)] == (0.9, 0.1)
    assert t.rows[("vf",)] == (0.2, 0.8)


def test_conflicting_duplicate_sentences_rejected():
    kb = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(0, yes) = 0.3.
        prob p(0, yes) = 0.4.
        prob p(0, no) = 0.6.
        """
    )
    vs = session_for(kb, lo=0, hi=0)
    with pytest.raises(ConflictingSentencesError):
        build_combined_base(kb, vs)


def test_identical_duplicate_sentences_merge():
    kb = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(T, yes) = 0.3.
        prob p(0, yes) = 0.3.
        prob p(T, no) = 0.7.
        """
    )
    vs = session_for(kb, lo=0, hi=0)
    base, _, _ = build_combined_base(kb, vs)
    assert base.tables[("p", 0)].rows[()] == (0.7, 0.3)


def test_noisy_max_applied_across_rule_groups():
    kb = parse_kb(
        """
        value a = { off, on }.
        value b = { off, on }.
        value c = { off, on }.
        pred a(time).
        pred b(time).
        pred c(time).
        combine c with noisy_max.
        prob a(0, on) = 0.5.   prob a(0, off) = 0.5.
        prob b(0, on) = 0.5.   prob b(0, off) = 0.5.
        prob c(0, on) | a(0, on) = 0.8.  prob c(0, off) | a(0, on) = 0.2.
        prob c(0, on) | a(0, off) = 0.1. prob c(0, off) | a(0, off) = 0.9.
        prob c(0, on) | b(0, on) = 0.6.  prob c(0, off) | b(0, on) = 0.4.
        prob c(0, on) | b(0, off) = 0.0. prob c(0, off) | b(0, off) = 1.0.
        """
    )
    vs = session_for(kb, lo=0, hi=0)
    base, _, _ = build_combined_base(kb, vs)
    t = base.tables[("c", 0)]
    assert t.parents == (("a", 0), ("b", 0))
    # noisy-OR of the two causes at (a=on, b=on): P(off) = 0.2 * 0.4
    assert t.rows[("on", "on")][0] == pytest.approx(0.08, abs=1e-12)
    assert t.rows[("on", "on")][1] == pytest.approx(0.92, abs=1e-12)
    # a single active group passes through exactly
    assert t.rows[("on", "off")] == pytest.approx((0.2, 0.8), abs=1e-12)


def test_quantification_gap_reported():
    kb = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(0, yes) = 0.3.
        """
    )
    # the marginal sentence fires unconditionally, so the object is relevant
    # and its incomplete value coverage must surface as a gap
    vs = session_for(kb, lo=0, hi=0)
    base, ras, _ = build_combined_base(kb, vs)
    gaps = [gap for o in sorted(ras.objs) for gap in table_gaps(o, base.tables.get(o))]
    assert gaps and gaps[0][0] == ("p", 0)
    assert "missing value variant 'no'" in gaps[0][1]


def test_table_cycle_raises_cycle_error():
    # p has a prior and a q cause, q has a p cause: each table is a parent of the other
    kb = parse_kb(
        """
        value p = { no, yes }.
        value q = { no, yes }.
        pred p(time).
        pred q(time).
        prob p(t, yes) = 0.5.
        prob p(t, no) = 0.5.
        prob p(t, yes) | q(t, yes) = 0.5.
        prob p(t, no) | q(t, yes) = 0.5.
        prob p(t, yes) | q(t, no) = 0.5.
        prob p(t, no) | q(t, no) = 0.5.
        prob q(t, yes) | p(t, yes) = 0.5.
        prob q(t, no) | p(t, yes) = 0.5.
        prob q(t, yes) | p(t, no) = 0.5.
        prob q(t, no) | p(t, no) = 0.5.
        """
    )
    vs = session_for(kb, lo=0, hi=0, query="p(0, V)")
    base, _, _ = build_combined_base(kb, vs)
    with pytest.raises(CycleError) as e:
        check_consistency(base)
    assert len(e.value.witness) == 3 and e.value.witness[0] == e.value.witness[-1]
    with pytest.raises(CycleError, match=r"^supporting network: cycle: "):
        build_net(kb, vs)


def test_unnormalized_row_flagged_by_consistency_check():
    kb = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(0, yes) = 0.7.
        prob p(0, no) = 0.5.
        """
    )
    vs = session_for(kb, evidence="p(0, yes).", lo=0, hi=0)
    base, _, _ = build_combined_base(kb, vs)
    with pytest.raises(ConsistencyError) as e:
        check_consistency(base)
    assert "sums to" in str(e.value)


def test_discharge_is_order_independent(kb):
    text_rev = "\n".join(reversed([l for l in GUARDED.strip().splitlines()]))
    kb_rev = parse_kb(text_rev)
    vs = session_for(kb, context="dfib(john, 0).", lo=0, hi=1)
    vs_rev = session_for(kb_rev, context="dfib(john, 0).", lo=0, hi=1)
    assert ground_sentences(discharge_contexts(kb, vs)) == ground_sentences(discharge_contexts(kb_rev, vs_rev))


# ---------------------------------------------------------------------------
# Link-matrix schemas


def _schemas(kb):
    return [s for schemas in kb.schemas.values() for s in schemas]


def test_shipped_kbs_fold_into_schemas(cardiac_kb, paint_kb):
    assert len(cardiac_kb.pb) == 830
    assert len(_schemas(cardiac_kb)) == 18
    assert sum(len(s.cells) for s in _schemas(cardiac_kb)) == 830
    # prior, action effect, persistence
    assert [len(s.cells) for s in _schemas(paint_kb)] == [2, 2, 4]


def test_duplicate_cell_stays_two_cells_of_one_schema():
    kb = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(0, yes) = 0.4.
        prob p(0, yes) = 0.6.
        """
    )
    (schema,) = _schemas(kb)
    assert schema.cells == [("yes", (), 0.4), ("yes", (), 0.6)]
    with pytest.raises(ConflictingSentencesError):
        build_combined_base(kb, session_for(kb, lo=0, hi=0))


VALUE_SLOTS = """
domain thing = { a, b }.
value p = { lo, mid, hi }.
pred p(thing, time).
cpred keep(thing, time).
prob p(X, 0, lo) = 0.2.
prob p(X, 0, mid) = 0.5.
prob p(X, 0, hi) = 0.3.
prob p(X, t, V) | p(X, t-1, V) = 0.8 <- keep(X, t).
prob p(X, t, mid) | p(X, t-1, lo) = 0.2 <- keep(X, t).
prob p(X, t, lo) | p(X, t-1, mid) = 0.2 <- keep(X, t).
prob p(X, t, mid) | p(X, t-1, hi) = 0.2 <- keep(X, t).
prob p(X, t, V) | p(X, t-1, V), p(Y, t-1, lo) = 0.6 <- not keep(X, t).
prob p(X, t, lo) | p(X, t-2, V), p(Y, t-1, V) = 0.4 <- not keep(X, t).
"""


def test_variable_value_slots_discharge_as_forward():
    from ctxkb.logic import ancestors

    from conftest import forward_discharge

    kb = parse_kb(VALUE_SLOTS)
    assert [s.value_vars for s in _schemas(kb)] == [
        None, ("V", ("V",)), None, ("V", ("V", None)), (None, ("V", "V"))
    ]
    vs = session_for(kb, context="keep(a, 1). keep(b, 2). keep(a, 3).", lo=0, hi=3)
    full = forward_discharge(kb, vs)
    got = ground_sentences(discharge_contexts(kb, vs))
    assert got == full
    # p(a, t, V) | p(a, t-1, V), p(a, t-1, lo) holds only at V = lo
    at_a = {s for s in got if s.cons[0] == ("p", "a", 2) and len(s.ante) == 1
            and s.alpha == 0.6}
    assert at_a == {gs((("p", "a", 2), "lo"), {(("p", "a", 1), "lo")}, 0.6)}
    parents: dict = {}
    for s in full:
        parents.setdefault(s.cons[0], set()).update(o for o, _ in s.ante)
    demand = {("p", "b", 3)}
    want = {s for s in full if s.cons[0] in ancestors(parents, demand)}
    assert ground_sentences(discharge_contexts(kb, vs, demand)) == want
