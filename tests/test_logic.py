"""SLDNF against a completion oracle, on-demand grounding, acyclicity, allowedness."""

import random

import pytest
from hypothesis import given, settings

from ctxkb import (
    Atom,
    Const,
    CycleError,
    NotAllowedError,
    SessionInput,
    Var,
    answer_query,
    check_acyclic_cb,
    check_acyclic_pb,
    check_allowed,
    parse_atom,
    parse_kb,
    sldnf_solve,
)
from ctxkb import logic
from ctxkb.lang import groundings
from ctxkb.logic import _Solver, topo_order

from conftest import (
    apply_subst,
    catom_key,
    reference_ground_program,
    reference_holds,
    session_for,
    timed_kbs,
)


def A(pred, *args):
    def term(x):
        if isinstance(x, str) and x[0].isupper():
            return Var(x)
        return Const(x)

    return Atom(pred, tuple(term(x) for x in args))


# ---------------------------------------------------------------------------
# SLDNF vs the Clark-completion oracle


def _completion_model(n, clauses, facts):
    """Unique supported model of an acyclic ground program by index-stratified
    iteration: atom i may only depend on atoms with smaller index."""
    truth = {}
    for i in range(n):
        atom = ("c%d" % i,)
        if atom in facts:
            truth[atom] = True
            continue
        value = False
        for head, body in clauses:
            if head != atom:
                continue
            if all(truth.get(b, False) == sign for sign, b in body):
                value = True
                break
        truth[atom] = value
    return truth


def _random_program(rng, n):
    clauses = []
    for i in range(1, n):
        for _ in range(rng.randint(0, 2)):
            body_len = rng.randint(1, min(3, i))
            deps = rng.sample(range(i), body_len)
            body = tuple((rng.random() < 0.7, ("c%d" % j,)) for j in deps)
            clauses.append((("c%d" % i,), body))
    facts = frozenset(("c%d" % i,) for i in range(n) if rng.random() < 0.3)
    return clauses, facts


def _program_kb(n, clauses):
    """The 0-ary program as KB text, parsed: one ``cpred`` per atom, one ``ctx`` per clause."""
    lines = [f"cpred c{i}." for i in range(n)]
    for (head,), body in clauses:
        lits = ", ".join(b if sign else f"not {b}" for sign, (b,) in body)
        lines.append(f"ctx {head} <- {lits}.")
    return parse_kb("\n".join(lines) + "\n")


def test_sldnf_agrees_with_completion_oracle():
    rng = random.Random(42)
    for trial in range(150):
        n = rng.randint(2, 12)
        clauses, facts = _random_program(rng, n)
        model = _completion_model(n, clauses, facts)
        kb = _program_kb(n, clauses)
        session = SessionInput(context=tuple(Atom(f, ()) for (f,) in sorted(facts)))
        goals = [[(True, Atom("c%d" % i, ()))] for i in range(n)]
        for i, goal in enumerate(goals):
            got = sldnf_solve(kb, session, goal)
            assert got == model[("c%d" % i,)], (trial, i)


def test_sldnf_negation_and_conjunction():
    kb = parse_kb(
        """
        domain d = { a }.
        cpred f(d).
        cpred g(d).
        ctx g(X) <- not f(X).
        """
    )
    empty = session_for(kb)
    assert sldnf_solve(kb, empty, [(True, A("g", "a"))]) is True
    assert sldnf_solve(kb, empty, [(False, A("f", "a")), (True, A("g", "a"))]) is True
    f_a = session_for(kb, context="f(a).")
    assert sldnf_solve(kb, f_a, [(True, A("g", "a"))]) is False


def test_sldnf_non_ground_goal_returns_substitutions():
    kb = parse_kb(
        """
        domain d = { a, b }.
        cpred f(d).
        cpred g(d).
        ctx g(X) <- not f(X).
        """
    )
    answers = sldnf_solve(kb, session_for(kb, context="f(a)."), [(True, A("g", "X"))])
    assert answers == [{"X": Const("b")}]


def test_sldnf_non_ground_goal_with_time_offsets():
    # the substitutions, and their order (first occurrence, last fastest), are pinned
    kb = parse_kb(
        """
        domain d = { a, b, c }.
        cpred f(d, time).
        cpred g(d, time).
        ctx g(X, T) <- f(X, T-1), not f(X, T).
        """
    )
    session = session_for(kb, context="f(a, 0). f(b, 1). f(c, 0). f(c, 1). f(b, 3).", lo=0, hi=3)

    def solve(*lits):
        return [
            {n: c.value for n, c in theta.items()}
            for theta in sldnf_solve(kb, session, [(sign, parse_atom(kb, a)) for sign, a in lits])
        ]

    # T-2 confines T to [2, 3]; g(c, 2) holds but f(c, 0) does too
    assert solve((True, "g(X, T)"), (False, "f(X, T-2)")) == [{"X": "b", "T": 2}]
    assert solve((True, "f(X, T-1)"), (True, "g(Y, T)")) == [
        {"X": "a", "T": 1, "Y": "a"},
        {"X": "b", "T": 2, "Y": "b"},
        {"X": "b", "T": 2, "Y": "c"},
        {"X": "c", "T": 1, "Y": "a"},
        {"X": "c", "T": 2, "Y": "b"},
        {"X": "c", "T": 2, "Y": "c"},
    ]


def test_grounding_confines_time_to_window():
    kb = parse_kb(
        """
        cpred reach(time).
        ctx reach(T) <- reach(T-1).
        """
    )
    session = session_for(kb, context="reach(0).", lo=0, hi=3)
    assert sldnf_solve(kb, session, [(True, Atom("reach", (Const(3),)))]) is True
    check_acyclic_cb(kb, 0, 3)  # time strictly decreases: acyclic


# ---------------------------------------------------------------------------
# Proving on demand against grounding up front


def _window_catoms(kb, lo, hi):
    """Every ground c-atom whose time, if any, lies in [lo, hi]."""
    for decl in kb.preds.values():
        if decl.kind == "c":
            pattern = Atom(decl.name, tuple(Var(f"_{i}") for i in range(len(decl.attribute_domains))))
            for theta in groundings(kb, [pattern], lo, hi):
                yield catom_key(apply_subst(pattern, {n: Const(v) for n, v in theta.items()}))


def assert_holds_as_reference(kb, vs, rng):
    """Each ground c-atom of the window gets the reference's bodies, in order, and truth value."""
    atoms = list(_window_catoms(kb, vs.lo, vs.hi))
    rng.shuffle(atoms)  # the memo fills in any order
    solver, program = _Solver(kb, vs.context, vs.lo, vs.hi), reference_ground_program(kb, vs.lo, vs.hi)
    holds = reference_holds(kb, vs)
    for a in atoms:
        assert solver.bodies(a) == program.get(a, []), a
    assert [solver.holds(a) for a in atoms] == [holds(a) for a in atoms]


def test_on_demand_holds_as_reference_on_cardiac(cardiac_kb):
    rng = random.Random(17)
    acts = ("dfib", "cpr", "lido", "atro", "epi")
    for _ in range(12):
        plan = " ".join(f"{a}({p}, {t})." for p in ("john", "mary") for t in range(7) for a in acts
                        if rng.random() < 0.2)
        assert_holds_as_reference(cardiac_kb, session_for(cardiac_kb, context=plan, lo=0, hi=6), rng)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(timed_kbs())
def test_on_demand_holds_as_reference_on_timed_corpus(case):
    text, session, _ = case
    kb = parse_kb(text)
    assert_holds_as_reference(kb, session_for(kb, **session), random.Random(len(text)))


def test_body_only_variables_ground_in_first_occurrence_order():
    # Y occurs before B, which sorts first: bodies list Y's values outermost, as grounding up front does
    kb = parse_kb(
        """
        domain d = { a, b }.
        cpred f(d, time).
        cpred g(d, d, time).
        cpred h(d, d).
        ctx f(X, T) <- g(X, Y, T), not h(Y, B).
        """
    )
    vs = session_for(kb, context="g(a, a, 0). g(a, b, 1). h(b, a).", lo=0, hi=1)
    assert [b[1][1][1:] for b in _Solver(kb, vs.context, 0, 1).bodies(("f", "a", 1))] == [
        ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert_holds_as_reference(kb, vs, random.Random(3))


def test_guards_ground_the_same_goals_over_any_window(cardiac_kb, monkeypatch):
    # the README plan and evidence: the guards of a 4-node network, whatever the window
    grounded, made = [], []
    bodies, rule_bindings = _Solver.bodies, logic.rule_bindings

    def counted_bodies(self, goal):
        grounded.append(goal)
        return bodies(self, goal)

    def counted_rule_bindings(rule, goal, window):
        thetas = rule_bindings(rule, goal, window)
        made.extend(thetas)
        return thetas

    monkeypatch.setattr(logic, "rule_bindings", counted_rule_bindings)
    monkeypatch.setattr(_Solver, "bodies", counted_bodies)
    runs = {}
    for hi in (6, 2400):
        del grounded[:], made[:]
        vs = session_for(cardiac_kb, context="epi(john, 0). epi(john, 2). dfib(john, 2).",
                         evidence="rhythm(john, 0, vf).", lo=0, hi=hi, query="rhythm(john, 3, V)")
        ans = answer_query(cardiac_kb, vs)
        posteriors = [[p.hex() for p in v.probabilities] for _, v in ans.instances]
        runs[hi] = sorted(grounded), len(made), posteriors
    assert runs[6][0] and runs[6][1]
    assert runs[6] == runs[2400]


# ---------------------------------------------------------------------------
# Acyclicity and allowedness


def test_cb_cycle_detected_with_witness():
    kb = parse_kb(
        """
        domain d = { a }.
        cpred f(d).
        cpred g(d).
        ctx f(X) <- not g(X).
        ctx g(X) <- not f(X).
        """
    )
    with pytest.raises(CycleError) as e:
        check_acyclic_cb(kb, 0, 0)
    witness = [str(w) for w in e.value.witness]
    assert witness[0] == witness[-1]
    assert len(witness) >= 3


def test_pb_self_influence_detected():
    kb = parse_kb(
        """
        value p = { no, yes }.
        pred p(time).
        prob p(T, yes) | p(T, yes) = 0.5.
        prob p(T, no) | p(T, yes) = 0.5.
        """
    )
    with pytest.raises(CycleError) as e:
        check_acyclic_pb(kb, 0, 2)
    assert e.value.witness[0] == e.value.witness[-1]


def test_pb_time_chain_is_acyclic(cardiac_kb):
    check_acyclic_pb(cardiac_kb, 0, 3)
    check_acyclic_cb(cardiac_kb, 0, 3)
    check_allowed(cardiac_kb)


def test_not_allowed_variable_rejected():
    kb = parse_kb(
        """
        domain empty = { }.
        value p = { yes, no }.
        pred p(empty).
        prob p(X, yes) = 0.5.
        prob p(X, no) = 0.5.
        """
    )
    with pytest.raises(NotAllowedError) as e:
        check_allowed(kb)
    assert "X" in str(e.value)


def test_allowed_via_time_position():
    kb = parse_kb(
        """
        value p = { yes, no }.
        pred p(time).
        prob p(T, yes) = 0.5.
        prob p(T, no) = 0.5.
        """
    )
    check_allowed(kb)


def test_sentence_with_out_of_window_constant_never_grounds():
    kb = parse_kb(
        """
        value p = { yes, no }.
        pred p(time).
        prob p(0, yes) = 0.5.
        prob p(0, no) = 0.5.
        """
    )
    s = kb.pb[0]

    def sentence_groundings(lo, hi):
        return [
            (apply_subst(s.cons, theta), tuple(apply_subst(a, theta) for a in s.ante))
            for theta in (
                {n: Const(v) for n, v in t.items()} for t in groundings(kb, list(s.atoms()), lo, hi)
            )
        ]

    assert sentence_groundings(1, 2) == []
    assert sentence_groundings(0, 2) == [
        (apply_subst(kb.pb[0].cons, {}), ()),
    ]


def test_topo_order_long_chain_and_its_loop():
    # each node depends on the next; the dependent end sorts first
    n = 3000
    node = lambda i: ("n", f"{i:05d}")  # noqa: E731
    parents = {node(i): [node(i + 1)] for i in range(n)}
    parents[node(n)] = []
    assert topo_order(parents, "chain") == [node(i) for i in range(n, -1, -1)]
    parents[node(n)] = [node(0)]
    with pytest.raises(CycleError) as e:
        topo_order(parents, "loop")
    witness = e.value.witness
    assert witness[0] == witness[-1]
    assert len(witness) == n + 2
    assert all(b in parents[a] for a, b in zip(witness, witness[1:]))
