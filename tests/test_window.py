"""The window store: schema groundings are built once per knowledge base and window.

``KnowledgeBase.window`` keeps, for the latest session window, each rule's
ranges, each reached object's discharge records with their guards filled
but not proven, each object's combined table under the records that
combining kept for it, and each supporting network under the records that
discharge proved for it.  A warm store must discharge, combine, check and
answer exactly as a freshly loaded knowledge base does, report the same
errors, keep one window only and hold nothing that comes from a session.
"""

import gc
import random
import weakref
from pathlib import Path

import pytest

from ctxkb import answer_query, build_net, discharge_contexts, parse_kb
from ctxkb.errors import CtxkbError
from ctxkb.lang import Window
from ctxkb.netbuild import query_instances
from ctxkb.relevance import (
    RelevantAtomSet,
    _object_records,
    build_combined_base,
    combine_rpb,
    row_violations,
    table_gaps,
)

from conftest import data_path, outcome, session_for
from test_shapes import cardiac_sessions

CARDIAC_TEXT = Path(data_path("cardiac.ckb")).read_text(encoding="utf-8")
PAINT_TEXT = Path(data_path("paint.ckb")).read_text(encoding="utf-8")


def demand_of(kb, vs):
    """The objects ``build_net`` discharges from: the query's candidates and the evidence."""
    return {o for _, o in query_instances(kb, vs.query, vs.lo, vs.hi)} | set(vs.evidence)


def paint_sessions(seed, n, horizons):
    rng = random.Random(seed)
    sessions = []
    for i in range(n):
        hi = horizons[i // 3 % len(horizons)]
        ctx = " ".join(f"paint(door, {t})." for t in range(8) if rng.random() < 0.4)
        sessions.append(dict(context=ctx, lo=0, hi=hi, query=f"painted(door, {rng.randint(hi // 2, hi)}, V)"))
    return sessions


def alternating_cardiac_sessions(seed, n):
    """Seeded cardiac sessions whose windows alternate, every third session, between 0..4 and 0..6."""
    sessions = cardiac_sessions(seed, n)  # plans end before minute 5, queries at minute 5 at the latest
    for i, s in enumerate(sessions):
        s["hi"] = (4, 6)[i // 3 % 2]
        if s["hi"] == 4:
            s["query"] = s["query"].replace(", 5, V)", ", 4, V)")
    return sessions


def assert_warm_discharges_as_fresh(text, sessions):
    warm = parse_kb(text)
    first = []
    for s in sessions:
        fresh = parse_kb(text)
        vs = session_for(fresh, **s)
        want = discharge_contexts(fresh, vs, demand_of(fresh, vs))
        vs = session_for(warm, **s)
        got = discharge_contexts(warm, vs, demand_of(warm, vs))
        assert [r[:3] for r in got] == [r[:3] for r in want], s
        assert [tuple(r[3]) for r in got] == [tuple(r[3]) for r in want], s
        assert (warm.window.lo, warm.window.hi) == (vs.lo, vs.hi)
        first.append(got)
    assert any(first)
    # again, the windows replacing each other: the same records, holding the very same cells
    for s, before in zip(sessions, first):
        vs = session_for(warm, **s)
        got = discharge_contexts(warm, vs, demand_of(warm, vs))
        assert got == before and all(a[3] is b[3] for a, b in zip(got, before)), s


def test_warm_store_discharges_seeded_cardiac_plans_as_fresh_kbs():
    assert_warm_discharges_as_fresh(CARDIAC_TEXT, alternating_cardiac_sessions(seed=811, n=16))


def test_warm_store_discharges_seeded_paint_plans_as_fresh_kbs():
    assert_warm_discharges_as_fresh(PAINT_TEXT, paint_sessions(seed=977, n=8, horizons=(12, 24)))


def test_repeated_discharge_in_one_window_hands_out_the_stored_records():
    kb = parse_kb(CARDIAC_TEXT)
    vs = session_for(kb, context="epi(john, 0). dfib(john, 2).", evidence="rhythm(john, 0, vf).",
                     lo=0, hi=4, query="cd(X, 3, V)")
    first, second = discharge_contexts(kb, vs, demand_of(kb, vs)), discharge_contexts(kb, vs, demand_of(kb, vs))
    assert first and len(first) == len(second) and all(a is b for a, b in zip(first, second))


GUARD_CYCLE = """
value p = { no, yes }.
pred p(time).
cpred a(time).
cpred b(time).
ctx a(T) <- not b(T).
ctx b(T) <- a(T).
prob p(0, no) = 0.5.
prob p(0, yes) = 0.5.
prob p(t, no) | p(t-1, no) = 0.9 <- a(t).
prob p(t, yes) | p(t-1, no) = 0.1 <- a(t).
prob p(t, no) | p(t-1, yes) = 0.9 <- a(t).
prob p(t, yes) | p(t-1, yes) = 0.1 <- a(t).
"""

# the only grounding whose guard cycles has no coherent cell: it is proven all the same
INCOHERENT_GUARD_CYCLE = """
value p = { no, yes }.
value q = { no, yes }.
pred p(time).
pred q(time).
cpred a(time).
cpred b(time).
ctx a(T) <- not b(T).
ctx b(T) <- a(T).
prob q(t, no) = 0.5.
prob q(t, yes) = 0.5.
prob p(t, no) = 0.5.
prob p(t, yes) = 0.5.
prob p(t, yes) | q(t, yes), q(t, no) = 1.0 <- a(t).
"""

GUARDED_CONFLICT = """
value p = { no, yes }.
pred p(time).
cpred c(time).
prob p(0, no) = 0.5.
prob p(0, yes) = 0.5.
prob p(t, no) | p(t-1, no) = 0.9 <- c(t).
prob p(t, yes) | p(t-1, no) = 0.1 <- c(t).
prob p(t, no) | p(t-1, yes) = 0.2.
prob p(t, yes) | p(t-1, yes) = 0.8.
prob p(t, no) | p(t-1, no) = 0.7 <- not c(t).
prob p(t, yes) | p(t-1, no) = 0.3 <- not c(t).
prob p(t, yes) | p(t-1, no) = 0.4 <- c(t).
"""


def assert_same_error_on_first_and_second_call(text, session, error):
    kb = parse_kb(text)
    first, second = outcome(kb, session), outcome(kb, session)
    assert first[0] == error
    assert first == second == outcome(parse_kb(text), session)
    assert kb.window.objects  # the second call was answered from the store


def test_guard_cycle_gives_the_same_line_on_a_warm_kb():
    assert_same_error_on_first_and_second_call(GUARD_CYCLE, dict(lo=0, hi=3, query="p(3, V)"), "CycleError")


def test_guard_of_a_grounding_without_cells_is_proven_on_a_warm_kb():
    assert_same_error_on_first_and_second_call(INCOHERENT_GUARD_CYCLE, dict(lo=0, hi=1, query="p(1, V)"), "CycleError")


def test_conflict_gives_the_same_line_on_a_warm_kb():
    assert_same_error_on_first_and_second_call(
        GUARDED_CONFLICT, dict(context="c(2).", lo=0, hi=3, query="p(3, V)"), "ConflictingSentencesError"
    )


def test_a_wider_window_replaces_the_store():
    kb = parse_kb(PAINT_TEXT)
    assert kb.window is None
    outcome(kb, dict(lo=0, hi=6, query="painted(door, 6, V)"))  # unpainted: the walk reaches minute 0
    narrow = weakref.ref(kb.window)
    assert sorted(narrow().objects) == [("painted", "door", t) for t in range(7)]
    outcome(kb, dict(lo=0, hi=12, query="painted(door, 12, V)"))
    gc.collect()
    assert narrow() is None
    assert (kb.window.lo, kb.window.hi) == (0, 12)
    assert sorted(kb.window.objects) == [("painted", "door", t) for t in range(13)]
    assert all(entry is None or all(r[-1] <= 12 for r in entry[0].values() if isinstance(r, range))
               for entry in kb.window.values())


def test_store_holds_nothing_from_a_session():
    # two KBs answer the same queries under other plans and evidence; every object either
    # stores has the records that a KB which never saw a session grounds for it
    kbs = parse_kb(CARDIAC_TEXT), parse_kb(CARDIAC_TEXT)
    for s, t in zip(cardiac_sessions(seed=53, n=12), cardiac_sessions(seed=54, n=12)):
        outcome(kbs[0], dict(s, hi=5))
        outcome(kbs[1], dict(t, hi=5, query=s["query"]))
    reference = parse_kb(CARDIAC_TEXT)
    for kb in kbs:
        assert vars(kb.window).keys() == {"lo", "hi", "objects", "tables", "plans", "nets"}
        assert kb.window.tables and kb.window.nets
        assert_window_holds_the_kb_alone(kb.window, reference)
    # no proof filtered them: one object keeps groundings whose guards exclude each other
    guards = {lit[1][0] for r in kbs[0].window.objects[("rhythm", "john", 2)] for lit in r[2]}
    assert {"dfib", "no_inter"} <= guards


# ---------------------------------------------------------------------------
# The table memo: one combined table per object and kept record set


def assert_window_holds_the_kb_alone(window, reference):
    """What ``window`` stores follows from the KB alone.

    ``reference`` is a KB of the same text that never saw a session.  Every
    stored object has the records that it grounds for the object; every
    table is keyed by the identities of records the window holds, and is the
    table that combining those records alone gives on it.  Every network is
    keyed by the identities of records the window holds and names objects
    only: no evidence value and no context atom.  Its nodes are stored tables.
    """
    fresh_window = Window(window.lo, window.hi)
    for obj, records in window.objects.items():
        assert reference.decl(obj[0]).kind == "p"
        fresh = _object_records(reference, obj, fresh_window)
        assert [r[:3] for r in records] == [r[:3] for r in fresh], obj
        assert [tuple(r[3]) for r in records] == [tuple(r[3]) for r in fresh], obj
    for ids, (recs, table) in window.tables.items():
        assert ids == tuple(map(id, recs)) and recs
        assert all(r[0] == table.obj for r in recs)
        assert all(any(r is s for s in window.objects[r[0]]) for r in recs), table.obj
        again = combine_rpb(recs, reference, RelevantAtomSet(frozenset(o for r in recs for o in (r[0], *r[1]))))
        [(obj, fresh)] = again.tables.items()
        assert (obj, fresh.parents, fresh.rows, fresh.missing) == (table.obj, table.parents, table.rows,
                                                                   table.missing)
    stored = {id(r) for records in window.objects.values() for r in records}
    tables = {id(table) for _, table in window.tables.values()}

    def is_object(o):
        decl = reference.decl(o[0])
        return decl.kind == "p" and len(o) == 1 + len(decl.attribute_domains)

    for key, (base, ras, records) in window.nets.items():
        ids, observed, candidates = key
        assert key is base.key and ids == tuple(map(id, records)) and set(ids) <= stored
        net, subs = base.net
        assert all(map(is_object, (*observed, *ras.objs, *(o for _, o in candidates), *net.nodes)))
        assert set(observed) <= ras.objs and set(net.nodes) <= ras.objs
        assert all(id(t) in tables and net.nodes[o] is t for o, t in base.tables.items() if o in net.nodes)
        assert set(subs) <= {theta for theta, _ in candidates}


def node_views(kb, session):
    """Per table of the session's combined base: object, parents, rows, gaps, gap lines and row lines.

    The error's type and message instead when combining fails.
    """
    try:
        vs = session_for(kb, **session)
        base, _, _ = build_combined_base(kb, vs, demand_of(kb, vs))
    except CtxkbError as e:
        return type(e).__name__, str(e)
    return [(obj, t.parents, sorted(t.rows.items()), t.missing, table_gaps(obj, t), row_violations(t))
            for obj, t in base.tables.items()]


def assert_warm_tables_as_fresh(text, sessions):
    warm, reference = parse_kb(text), parse_kb(text)
    for i, s in enumerate(sessions):
        fresh = parse_kb(text)
        assert node_views(warm, s) == node_views(fresh, s), s
        assert outcome(warm, s) == outcome(fresh, s), s
        if i % 6 == 5:
            assert_window_holds_the_kb_alone(warm.window, reference)


def test_warm_tables_match_fresh_kbs_node_by_node_on_seeded_cardiac_plans():
    sessions = alternating_cardiac_sessions(seed=313, n=12)
    assert_warm_tables_as_fresh(CARDIAC_TEXT, sessions + sessions[::-1])


def test_warm_tables_match_fresh_kbs_node_by_node_on_seeded_paint_plans():
    sessions = paint_sessions(seed=409, n=12, horizons=(120, 240))
    assert_warm_tables_as_fresh(PAINT_TEXT, sessions + sessions[::-1])


def combined_tables(kb, session):
    vs = session_for(kb, **session)
    return build_combined_base(kb, vs, demand_of(kb, vs))[0].tables


def test_a_second_pass_in_one_window_hands_out_the_same_tables():
    for text, sessions in ((CARDIAC_TEXT, [dict(s, hi=5) for s in cardiac_sessions(seed=71, n=12)]),
                           (PAINT_TEXT, paint_sessions(seed=72, n=6, horizons=(240,)))):
        kb = parse_kb(text)
        first = []
        for s in sessions:
            try:
                first.append(combined_tables(kb, s))
            except CtxkbError:
                first.append(None)  # a conflict: nothing to hand out
        assert sum(t is not None for t in first) >= len(sessions) // 2
        stored = len(kb.window.tables)
        for s, before in zip(sessions, first):
            if before is not None:
                again = combined_tables(kb, s)
                assert again.keys() == before.keys()
                assert all(again[o] is before[o] for o in before), s
        assert len(kb.window.tables) == stored


def test_a_conflict_stores_no_table_for_its_object():
    session = dict(context="c(2).", lo=0, hi=3, query="p(3, V)")
    kb = parse_kb(GUARDED_CONFLICT)
    first = outcome(kb, session)
    assert first[0] == "ConflictingSentencesError" and "p(2, yes)" in first[1]
    stored = {table.obj for _, table in kb.window.tables.values()}
    assert ("p", 2) not in stored and {("p", 0), ("p", 1)} <= stored
    assert outcome(kb, session) == first == outcome(parse_kb(GUARDED_CONFLICT), session)
    assert {table.obj for _, table in kb.window.tables.values()} == stored


GAPS = """
value p = { no, yes }.
pred p(time).
cpred c(time).
prob p(0, no) = 0.6.
prob p(0, yes) = 0.4.
prob p(t, no) | p(t-1, no) = 0.9.
prob p(t, yes) | p(t-1, no) = 0.1.
prob p(t, no) | p(t-1, yes) = 0.2 <- c(t).
prob p(t, yes) | p(t-1, yes) = 0.8 <- c(t).
prob p(t, no) | p(t-1, yes) = 0.3 <- not c(t).
"""

ROWS = """
value p = { no, yes }.
pred p(time).
cpred c(time).
prob p(0, no) = 0.6.
prob p(0, yes) = 0.4.
prob p(t, no) | p(t-1, no) = 0.9.
prob p(t, yes) | p(t-1, no) = 0.1.
prob p(t, no) | p(t-1, yes) = 0.2.
prob p(t, yes) | p(t-1, yes) = 0.8 <- c(t).
prob p(t, yes) | p(t-1, yes) = 0.7 <- not c(t).
"""


@pytest.mark.parametrize("text, error", [(GAPS, "QuantificationError"), (ROWS, "ConsistencyError")])
def test_stored_tables_report_a_fresh_kbs_lines_in_order(text, error):
    kb = parse_kb(text)
    sessions = [dict(context=ctx, lo=0, hi=4, query="p(4, V)") for ctx in ("c(2).", "c(1). c(3).", "c(4).")]
    first = [outcome(kb, s) for s in sessions]
    assert all(o[0] == error and o[1].count(";") >= 1 for o in first), first
    stored = dict(kb.window.tables)
    for s, want in zip(sessions, first):
        assert outcome(kb, s) == want == outcome(parse_kb(text), s)
    assert kb.window.tables == stored
    # each line was formatted by the first session that checked its table
    lines = "gaps" if error == "QuantificationError" else "violations"
    assert all(getattr(t, lines) is not None for _, t in stored.values() if t.missing or lines == "violations")


# ---------------------------------------------------------------------------
# The network memo: one supporting network per proven record set, evidence objects and query


def answers_as_fresh(text, sessions):
    """Each session's ``outcome`` on one warm KB, each checked against a fresh KB of ``text``."""
    kb = parse_kb(text)
    got = []
    for s in sessions:
        got.append(outcome(kb, s))
        assert got[-1] == outcome(parse_kb(text), s), s
    return kb, got


def test_candidates_with_other_bindings_get_their_own_network():
    plan = "epi(john, 0). cpr(mary, 1). dfib(john, 2). lido(mary, 30)."
    queries = ("cd(X, 60, V)", "cd(john, 60, V)", "cd(Y, 60, V)", "cd(X, 60, V)", "cd(john, 60, V)")
    sessions = [dict(context=plan, evidence="rhythm(john, 0, vf).", lo=0, hi=60, query=q) for q in queries]
    kb, got = answers_as_fresh(CARDIAC_TEXT, sessions)
    # cd(Y, ...) has the objects of cd(X, ...) and other bindings: a network of its own
    assert [b for b, _, _ in got[2]] == [[("Y", "john")], [("Y", "mary")]]
    assert got[3] == got[0] and got[4] == got[1]
    assert len(kb.window.nets) == 3


def test_redrawn_evidence_values_are_answered_from_the_stored_network():
    rng = random.Random(29)
    rhythms = ("nsr", "vf", "vt", "af", "svt", "b", "a")
    sessions = [dict(context="epi(john, 0). cpr(mary, 1). dfib(john, 2).", lo=0, hi=3, query="cd(X, 3, V)",
                     evidence=" ".join(f"rhythm({p}, 0, {rng.choice(rhythms)})." for p in ("john", "mary")))
                for _ in range(8)]
    kb, got = answers_as_fresh(CARDIAC_TEXT, sessions)
    assert len({str(g) for g in got}) > 1  # the evidence values move the answer
    [(base, _, _)] = kb.window.nets.values()
    assert build_net(kb, session_for(kb, **sessions[0]))[0] is base.net[0]


UNQUANTIFIED_CAUSE = """
value p = { no, yes }.
value q = { no, yes }.
pred p(time).
pred q(time).
prob p(t, yes) | q(t, yes) = 0.5.
prob p(t, no) | q(t, yes) = 0.5.
prob p(t, yes) | q(t, no) = 0.5.
prob p(t, no) | q(t, no) = 0.5.
"""


def test_an_evidence_object_that_adds_no_record_gets_its_own_network():
    # q(0) has no sentence: observing it proves the same records, but makes p(0) relevant
    sessions = [dict(evidence=ev, lo=0, hi=0, query="p(0, V)") for ev in ("", "q(0, yes).") * 2]
    kb, got = answers_as_fresh(UNQUANTIFIED_CAUSE, sessions)
    assert got[0] == got[2] == [] and got[1] == got[3]
    assert got[1][0] == "QuantificationError" and len(kb.window.nets) == 1


IMPOSSIBLE = """
value p = { no, yes }.
value q = { no, yes }.
pred p(time).
pred q(time).
prob p(0, no) = 0.0.
prob p(0, yes) = 1.0.
prob q(t, no) | p(t, no) = 0.5.
prob q(t, yes) | p(t, no) = 0.5.
prob q(t, no) | p(t, yes) = 0.2.
prob q(t, yes) | p(t, yes) = 0.8.
"""


def test_impossible_evidence_on_a_stored_network_still_raises():
    sessions = [dict(evidence=f"p(0, {v}).", lo=0, hi=0, query="q(0, V)") for v in ("yes", "no", "yes", "no")]
    kb, got = answers_as_fresh(IMPOSSIBLE, sessions)
    assert got[1] == got[3] == ("ImpossibleEvidenceError", "evidence has zero probability (P(E) = 0)")
    assert got[0] == got[2] and len(kb.window.nets) == 1


TABLE_CYCLE = """
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


@pytest.mark.parametrize("text, session, error", [
    (GUARDED_CONFLICT, dict(context="c(2).", lo=0, hi=3, query="p(3, V)"), "ConflictingSentencesError"),
    (GAPS, dict(context="c(2).", lo=0, hi=4, query="p(4, V)"), "QuantificationError"),
    (ROWS, dict(context="c(2).", lo=0, hi=4, query="p(4, V)"), "ConsistencyError"),
    (TABLE_CYCLE, dict(lo=0, hi=0, query="p(0, V)"), "CycleError"),
    (CARDIAC_TEXT, dict(evidence="rhythm(john, 1, vf).", lo=1, hi=1, query="rhythm(john, 1, V)"),
     "OutOfBoundsSupportError"),
])
def test_a_failed_session_stores_no_network(text, session, error):
    kb, got = answers_as_fresh(text, [session, session])
    assert got[0][0] == error and got[0] == got[1]
    assert kb.window.nets == {}


def test_mutating_an_answers_bindings_leaves_the_next_answer_alone():
    session = dict(context="epi(john, 0). dfib(john, 2).", evidence="rhythm(john, 0, vf).", lo=0, hi=3,
                   query="cd(X, 3, V)")
    kb = parse_kb(CARDIAC_TEXT)
    first = answer_query(kb, session_for(kb, **session))
    for theta, _ in first.instances:
        theta["X"] = "nobody"
        theta["Y"] = "john"
    assert outcome(kb, session) == outcome(parse_kb(CARDIAC_TEXT), session)
    assert len(kb.window.nets) == 1
