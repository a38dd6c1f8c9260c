"""Unification, SLDNF against a completion oracle, acyclicity, allowedness."""

import random

import pytest

from ctxkb import (
    Atom,
    Const,
    CycleError,
    NotAllowedError,
    TimeExpr,
    Var,
    check_acyclic_cb,
    check_acyclic_pb,
    check_allowed,
    parse_kb,
    sldnf_solve,
    unify,
)
from ctxkb.logic import (
    GroundContextProgram,
    apply_subst,
    catom_key,
    ground_context_program,
    topo_order,
)


def A(pred, *args):
    def term(x):
        if isinstance(x, str) and x[0].isupper():
            return Var(x)
        return Const(x)

    return Atom(pred, tuple(term(x) for x in args))


# ---------------------------------------------------------------------------
# Unification


def test_unify_basic():
    theta = unify(A("p", "X", "a"), A("p", "b", "Y"))
    assert theta == {"X": Const("b"), "Y": Const("a")}


def test_unify_clash():
    assert unify(A("p", "a"), A("p", "b")) is None
    assert unify(A("p", "a"), A("q", "a")) is None


def test_unify_time_arithmetic():
    theta = unify(Atom("p", (TimeExpr("X", -1),)), Atom("p", (Const(2),)))
    assert theta == {"X": Const(3)}
    theta = unify(Atom("p", (TimeExpr("X", 2),)), Atom("p", (TimeExpr("Y", 5),)))
    assert theta == {"X": TimeExpr("Y", 3)}
    assert unify(Atom("p", (Var("X"),)), Atom("p", (TimeExpr("X", 1),))) is None
    assert unify(Atom("p", (Var("X"),)), Atom("p", (TimeExpr("X", 0),))) == {}


def test_unifier_makes_atoms_equal():
    rng = random.Random(7)
    variables = ["X", "Y", "Z"]

    def rand_term():
        # integer constants only: a time-typed slot never holds a symbol
        r = rng.random()
        if r < 0.4:
            return Const(rng.randint(0, 3))
        if r < 0.8:
            return Var(rng.choice(variables))
        return TimeExpr(rng.choice(variables), rng.randint(-2, 2))

    for _ in range(500):
        n = rng.randint(1, 3)
        a = Atom("p", tuple(rand_term() for _ in range(n)))
        b = Atom("p", tuple(rand_term() for _ in range(n)))
        theta = unify(a, b)
        if theta is not None:
            assert apply_subst(a, theta) == apply_subst(b, theta), (a, b, theta)


def test_unifier_is_most_general():
    # any common ground instance must factor through the mgu
    a = A("p", "X", "Y")
    b = A("p", "Y", "X")
    theta = unify(a, b)
    ground = {"X": Const("a"), "Y": Const("a")}
    assert apply_subst(apply_subst(a, theta), ground) == apply_subst(a, ground)


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


def test_sldnf_agrees_with_completion_oracle():
    rng = random.Random(42)
    for trial in range(150):
        n = rng.randint(2, 12)
        clauses, facts = _random_program(rng, n)
        model = _completion_model(n, clauses, facts)
        clause_map = {}
        for head, body in clauses:
            clause_map.setdefault(head, []).append(body)
        program = GroundContextProgram(clause_map, facts)
        goals = [[(True, Atom("c%d" % i, ()))] for i in range(n)]
        for i, goal in enumerate(goals):
            got = sldnf_solve(program, goal)
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
    prog = ground_context_program(kb, frozenset(), 0, 0)
    assert sldnf_solve(prog, [(True, A("g", "a"))]) is True
    assert sldnf_solve(prog, [(False, A("f", "a")), (True, A("g", "a"))]) is True
    prog2 = ground_context_program(kb, frozenset({("f", "a")}), 0, 0)
    assert sldnf_solve(prog2, [(True, A("g", "a"))]) is False


def test_sldnf_non_ground_goal_returns_substitutions():
    kb = parse_kb(
        """
        domain d = { a, b }.
        cpred f(d).
        cpred g(d).
        ctx g(X) <- not f(X).
        """
    )
    prog = ground_context_program(kb, frozenset({("f", "a")}), 0, 0)
    answers = sldnf_solve(prog, [(True, A("g", "X"))], kb=kb, lo=0, hi=0)
    assert answers == [{"X": Const("b")}]


def test_grounding_confines_time_to_window():
    kb = parse_kb(
        """
        cpred reach(time).
        ctx reach(T) <- reach(T-1).
        """
    )
    prog = ground_context_program(kb, frozenset({("reach", 0)}), 0, 3)
    assert sldnf_solve(prog, [(True, Atom("reach", (Const(3),)))]) is True
    check_acyclic_cb(kb, 0, 3)  # time strictly decreases: acyclic


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
    from ctxkb.logic import groundings

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
            for theta in groundings(kb, list(s.atoms()), lo, hi)
        ]

    assert sentence_groundings(1, 2) == []
    assert sentence_groundings(0, 2) == [
        (apply_subst(kb.pb[0].cons, {}), ()),
    ]


def test_catom_key():
    assert catom_key(A("epi", "john", 1)) == ("epi", "john", 1)


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
