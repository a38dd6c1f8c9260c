"""The window store: schema groundings are built once per knowledge base and window.

``KnowledgeBase.window`` keeps, for the latest session window, each rule's
ranges and each reached object's discharge records with their guards filled
but not proven.  A warm store must discharge exactly as a freshly loaded
knowledge base does, report the same errors, keep one window only and hold
nothing that comes from a session.
"""

import gc
import random
import weakref
from pathlib import Path

from ctxkb import discharge_contexts, parse_kb
from ctxkb.lang import Window
from ctxkb.netbuild import query_instances
from ctxkb.relevance import _object_records

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
    reference, window = parse_kb(CARDIAC_TEXT), Window(0, 5)
    for kb in kbs:
        assert vars(kb.window).keys() == {"lo", "hi", "objects", "plans"}
        assert all(kb.decl(obj[0]).kind == "p" for obj in kb.window.objects)
        for obj, records in kb.window.objects.items():
            fresh = _object_records(reference, obj, window)
            assert [r[:3] for r in records] == [r[:3] for r in fresh], obj
            assert [tuple(r[3]) for r in records] == [tuple(r[3]) for r in fresh], obj
    # no proof filtered them: one object keeps groundings whose guards exclude each other
    guards = {lit[1][0] for r in kbs[0].window.objects[("rhythm", "john", 2)] for lit in r[2]}
    assert {"dfib", "no_inter"} <= guards
