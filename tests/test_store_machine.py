"""A stateful gate for the knowledge base's stores: one warm KB, many sessions.

A machine drives one loaded KB through a run of sessions: queries,
projections, a wider or shifted window, other evidence, another plan, and
error sessions (a conflict, a gap or a guard cycle).  After each step the
warm KB must answer exactly as a freshly parsed one (float-hex posteriors,
exact error lines), and its stores must hold one window, plans, tables and
networks of that window only, and nothing from a session: no evidence value
and no context fact.
"""

import gc
import weakref
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from ctxkb import parse_atoms, parse_kb

from conftest import data_path, outcome, timed_kbs
from test_window import assert_window_holds_the_kb_alone

CARDIAC_TEXT = Path(data_path("cardiac.ckb")).read_text(encoding="utf-8")

# appended to a timed KB: sentences on p0 that only an error session's context atoms turn on
TIMED_ERRORS = """
cpred clash(thing, time).
cpred hole(thing, time).
cpred cyc(thing, time).
cpred l1(thing, time).
cpred l2(thing, time).
ctx l1(X, t) <- cyc(X, t), not l2(X, t).
ctx l2(X, t) <- l1(X, t).
prob p0(X, t, v0) = 0.25 <- clash(X, t).
prob p0(X, t, v0) = 0.5 <- clash(X, t).
prob p0(X, t, v0) = 0.5 <- hole(X, t).
prob p0(X, t, v0) = 0.5 <- l1(X, t).
"""

# plan actions, in groups of which one person takes at most one a minute (two clash)
CARDIAC_ACTIONS = (("dfib", "cpr"), ("epi", "lido", "atro"))
TIMED_ACTIONS = (("act",), ("stop",))


def ground(atom):
    return (atom.pred, *(c.value for c in atom.args))


class WarmKnowledgeBase(RuleBasedStateMachine):
    @initialize(case=st.one_of(st.none(), timed_kbs()))
    def load(self, case):
        if case is None:
            self.text, self.actions = CARDIAC_TEXT, CARDIAC_ACTIONS
            session = dict(evidence="rhythm(john, 0, vf).", lo=0, hi=3, query="cd(X, 3, V)")
        else:
            self.text, self.actions = case[0] + TIMED_ERRORS, TIMED_ACTIONS
            session = case[1]
        self.kb, self.reference = parse_kb(self.text), parse_kb(self.text)
        kb = self.kb
        self.preds = {n: kb.val(n) for n, d in kb.preds.items() if d.kind == "p"}
        self.members = kb.domains[kb.decl("p0" if "p0" in self.preds else "rhythm").attribute_domains[0]].members
        self.lo, self.hi = session["lo"], session["hi"]
        self.context = {ground(a) for a in parse_atoms(kb, session.get("context", ""))}
        self.evidence = {ground(a)[:-1]: ground(a)[-1] for a in parse_atoms(kb, session.get("evidence", ""))}
        self.query = session["query"]
        self.windows = []  # weak references to the windows the KB replaced
        self.errors = 0  # error sessions so far
        self.answer()

    # -- the session and its answer ------------------------------------------

    def session(self, extra=(), query=None):
        atoms = lambda atoms: " ".join(f"{p}({', '.join(map(str, args))})." for p, *args in sorted(atoms))
        return dict(context=atoms([*self.context, *extra]),
                    evidence=atoms(o + (v,) for o, v in self.evidence.items()),
                    lo=self.lo, hi=self.hi, query=query or self.query)

    def answer(self, extra=(), query=None):
        window = self.kb.window
        s = self.session(extra, query)
        got = outcome(self.kb, s)
        assert got == outcome(parse_kb(self.text), s), s
        if got == [] or got[0] != "SessionError":
            assert (self.kb.window.lo, self.kb.window.hi) == (self.lo, self.hi)
        if window is not None and self.kb.window is not window:
            self.windows.append(weakref.ref(window))
        return got

    def times(self):
        return range(self.lo, self.hi + 1)

    # -- steps ----------------------------------------------------------------

    @rule(data=st.data())
    def query_one_time(self, data):
        pred = data.draw(st.sampled_from(sorted(self.preds)))
        who = data.draw(st.sampled_from(["X", *self.members]))
        self.query = f"{pred}({who}, {data.draw(st.sampled_from(self.times()))}, V)"
        self.answer()

    @rule(data=st.data())
    def project(self, data):
        pred = data.draw(st.sampled_from(sorted(self.preds)))
        self.query = f"{pred}({data.draw(st.sampled_from(['X', *self.members]))}, T, V)"
        self.answer()

    @rule(lo=st.integers(0, 1), width=st.integers(1, 4))
    def move_window(self, lo, width):
        self.lo, self.hi = lo, lo + width
        self.context = {a for a in self.context if lo <= a[-1] <= self.hi}
        self.evidence = {o: v for o, v in self.evidence.items() if lo <= o[-1] <= self.hi}
        pred, args = self.query.split("(", 1)
        who, when, _ = args.split(", ")
        if when != "T" and not lo <= int(when) <= self.hi:
            self.query = f"{pred}({who}, {self.hi}, V)"
        self.answer()

    @rule(data=st.data())
    def observe(self, data):
        pred = data.draw(st.sampled_from(sorted(self.preds)))
        obj = (pred, data.draw(st.sampled_from(self.members)), data.draw(st.sampled_from(self.times())))
        if obj in self.evidence and data.draw(st.booleans()):
            del self.evidence[obj]
        else:
            self.evidence[obj] = data.draw(st.sampled_from(self.preds[pred]))
        self.answer()

    @rule(data=st.data())
    def replan(self, data):
        group = data.draw(st.sampled_from(self.actions))
        act = (data.draw(st.sampled_from(group)), data.draw(st.sampled_from(self.members)),
               data.draw(st.sampled_from(self.times())))
        if act in self.context:
            self.context.discard(act)
        else:
            self.context = {a for a in self.context if a[0] not in group or a[1:] != act[1:]} | {act}
        self.answer()

    @precondition(lambda self: self.hi > self.lo)
    @rule(data=st.data())
    def error_session(self, data):
        who = data.draw(st.sampled_from(self.members))
        t = data.draw(st.sampled_from(self.times()[:-1]))
        if self.actions is CARDIAC_ACTIONS:
            extra, query = [("dfib", who, t), ("cpr", who, t)], f"rhythm({who}, {t + 1}, V)"
        else:
            self.errors += 1  # each kind in turn
            extra, query = [(("clash", "hole", "cyc")[self.errors % 3], who, t)], f"p0({who}, {t}, V)"
        got = self.answer(extra, query)
        # a cardiac window that starts after minute 0 supports no rhythm, so it answers nothing
        assert isinstance(got, tuple) or got == [] and self.lo > 0 and self.actions is CARDIAC_ACTIONS, got

    # -- what the stores may hold ------------------------------------------------

    @invariant()
    def one_window(self):
        if self.windows:
            gc.collect()
            assert all(w() is None for w in self.windows)
            self.windows.clear()

    @invariant()
    def stores_hold_the_window_alone(self):
        window = self.kb.window
        if window is None:
            return
        assert vars(window).keys() == {"lo", "hi", "objects", "tables", "plans", "nets"}
        assert all(window.lo <= obj[-1] <= window.hi for obj in window.objects)
        assert_window_holds_the_kb_alone(window, self.reference)
        for structure, observed in window.plans:
            assert all(o in window.objects for o, _ in structure)
            assert all(o in window.objects for o in observed)


WarmKnowledgeBase.TestCase.settings = settings(
    max_examples=8, stateful_step_count=10, derandomize=True, deadline=None
)
test_warm_kb_stays_a_fresh_kb = WarmKnowledgeBase.TestCase
