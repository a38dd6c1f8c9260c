"""Unification, the ground context program, SLDNF and dependency graphs.

The context base is an acyclic normal logic program evaluated under Clark's
completion semantics.  Because sessions confine time to a finite window and
all attribute domains are finite, the program is grounded up front in
``lang.groundings`` order from each clause's typing, compiled once per KB
(``KnowledgeBase.clauses``): a session works out only its window ranges.
Goal evaluation then walks an explicit proof stack over ground clauses, with
negation as (finite) failure.  On an acyclic ground program this computes
exactly the unique supported model of the completion.
``unify`` and ``apply_subst`` work on ``Const`` terms; they serve
``sldnf_solve``, whose substitutions keep that form.  ``topo_order`` and
``ancestors`` are the graph walks every later stage shares.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import CycleError, Diagnostic, NotAllowedError
from .lang import (
    TIME_DOMAIN,
    Atom,
    Const,
    KnowledgeBase,
    TimeExpr,
    Var,
    _window_ranges,
    bindings,
    fill_slots,
    groundings,
    term_slot,
)

# ---------------------------------------------------------------------------
# Substitutions and unification


def _norm(term):
    """A zero-offset time expression is just its variable."""
    if isinstance(term, TimeExpr) and term.offset == 0:
        return Var(term.var)
    return term


def apply_term(term, subst: dict):
    term = _norm(term)
    if isinstance(term, Var):
        return apply_term(subst[term.name], subst) if term.name in subst else term
    if isinstance(term, TimeExpr):
        if term.var in subst:
            base = apply_term(subst[term.var], subst)
            if isinstance(base, Const):
                return Const(base.value + term.offset)
            if isinstance(base, TimeExpr):
                return _norm(TimeExpr(base.var, base.offset + term.offset))
            if isinstance(base, Var):
                return TimeExpr(base.name, term.offset)
        return term
    return term


def apply_subst(atom: Atom, subst: dict) -> Atom:
    return Atom(atom.pred, tuple(apply_term(t, subst) for t in atom.args))


def compose(s1: dict, s2: dict) -> dict:
    """s2 after s1: applying the result equals applying s1 then s2."""
    out = {v: apply_term(t, s2) for v, t in s1.items()}
    for v, t in s2.items():
        if v not in out:
            out[v] = t
    return out


def unify(a: Atom, b: Atom):
    """Most general unifier of two atoms, or None.

    Time expressions unify arithmetically: ``X-1`` against ``2`` binds X to 3,
    and ``X+a`` against ``Y+b`` binds X to ``Y+(b-a)``.
    """
    if a.pred != b.pred or len(a.args) != len(b.args):
        return None
    subst: dict = {}
    for ta, tb in zip(a.args, b.args):
        ta = apply_term(ta, subst)
        tb = apply_term(tb, subst)
        s = _unify_terms(ta, tb)
        if s is None:
            return None
        subst = compose(subst, s)
    return subst


def _unify_terms(ta, tb):
    if isinstance(ta, Const) and isinstance(tb, Const):
        return {} if ta.value == tb.value else None
    if isinstance(ta, Var):
        return _bind(ta.name, tb)
    if isinstance(tb, Var):
        return _bind(tb.name, ta)
    if isinstance(ta, TimeExpr) and isinstance(tb, Const):
        return {ta.var: Const(tb.value - ta.offset)}
    if isinstance(tb, TimeExpr) and isinstance(ta, Const):
        return {tb.var: Const(ta.value - tb.offset)}
    if isinstance(ta, TimeExpr) and isinstance(tb, TimeExpr):
        if ta.var == tb.var:
            return {} if ta.offset == tb.offset else None
        return {ta.var: _norm(TimeExpr(tb.var, tb.offset - ta.offset))}
    return None


def _bind(name: str, term):
    if isinstance(term, Var) and term.name == name:
        return {}
    if isinstance(term, TimeExpr) and term.var == name:
        return {} if term.offset == 0 else None  # X = X+k has no solution for k != 0
    return {name: term}


# ---------------------------------------------------------------------------
# The ground context program


CAtom = tuple  # ground c-atom as (pred, arg1, ..., argn)


def catom_key(atom: Atom) -> CAtom:
    return (atom.pred,) + tuple(t.value for t in atom.args)


@dataclass
class GroundContextProgram:
    """Ground clauses of C ∪ CB over the session window."""

    clauses: dict  # head CAtom -> list of bodies; body = tuple of (sign, CAtom)
    facts: frozenset  # ground(C)


def ground_context_program(
    kb: KnowledgeBase, context: frozenset, lo: int, hi: int
) -> GroundContextProgram:
    clauses: dict = {}
    for head, body, typing in kb.clauses:
        for theta in bindings(_window_ranges(typing, lo, hi)):
            ground = tuple((sign, fill_slots(slots, theta)) for sign, slots in body)
            clauses.setdefault(fill_slots(head, theta), []).append(ground)
    return GroundContextProgram(clauses, frozenset(context))


# ---------------------------------------------------------------------------
# SLDNF evaluation


class _Solver:
    def __init__(self, program: GroundContextProgram):
        self.program = program
        self.memo: dict = dict.fromkeys(program.facts, True)

    def holds(self, atom: CAtom) -> bool:
        """Truth of a ground c-atom under the completion, by an explicit proof stack.

        Bodies are tried in order and literals left to right, as in SLDNF.  A
        goal met again on its own proof path raises CycleError.
        """
        memo, clauses = self.memo, self.program.clauses
        if atom in memo:
            return memo[atom]
        path = [[atom, clauses.get(atom, ()), 0, 0]]  # goal, its bodies, body index, literal index
        on_path = {atom}
        while path:
            frame = path[-1]
            goal, bodies, bi, li = frame
            if bi == len(bodies) or li == len(bodies[bi]):
                memo[goal] = bi < len(bodies)  # a body whose every literal held
                path.pop()
                on_path.discard(goal)
                continue
            sign, b = bodies[bi][li]
            if b in memo:
                if memo[b] == sign:
                    frame[3] += 1
                else:
                    frame[2], frame[3] = bi + 1, 0
            elif b in on_path:
                goals = [f[0] for f in path]
                raise CycleError(goals[goals.index(b):] + [b], "context base")
            else:
                path.append([b, clauses.get(b, ()), 0, 0])
                on_path.add(b)
        return memo[atom]

    def proves(self, literals) -> bool:
        """Whether every ground literal (sign, CAtom) holds."""
        return all(self.holds(a) == sign for sign, a in literals)


def sldnf_solve(program: GroundContextProgram, goal, kb=None, lo=0, hi=0):
    """Prove a conjunction of context literals against completed(C ∪ CB).

    A ground goal returns True/False.  A non-ground goal returns the list of
    satisfying substitutions (variable name -> ``Const``), in ``groundings``
    order over the declared domains and the session time window; it
    requires ``kb``.
    """
    solver = _Solver(program)
    lits = list(goal)

    def proven(theta):
        return solver.proves((sign, catom_key(apply_subst(a, theta))) for sign, a in lits)

    if all(a.is_ground() for _, a in lits):
        return proven({})
    if kb is None:
        raise ValueError("non-ground goals need the knowledge base for typing")
    thetas = groundings(kb, [a for _, a in lits], lo, hi)
    return [theta for theta in ({n: Const(v) for n, v in t.items()} for t in thetas) if proven(theta)]


# ---------------------------------------------------------------------------
# Dependency graphs


def topo_order(parents: dict, where: str) -> list:
    """Kahn's order of a dependency graph: parents first, ties by the least node.

    ``parents`` maps each node to the nodes it depends on; a dependency that
    is not a key is ignored.  A cycle raises CycleError with a closed witness
    (first node == last node), each node followed by one of its parents.
    """
    children: dict = {n: [] for n in parents}
    indeg = dict.fromkeys(parents, 0)
    for n, ps in parents.items():
        for p in ps:
            if p in children:
                children[p].append(n)
                indeg[n] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) == len(parents):
        return order
    # every node left over waits on a parent that is also left over
    left = {n for n, d in indeg.items() if d}
    n = min(left)
    walk: dict = {}  # node -> position on the walk
    while n not in walk:
        walk[n] = len(walk)
        n = min(p for p in parents[n] if p in left)
    cycle = list(walk)[walk[n]:]
    raise CycleError(cycle + [n], where)


def ancestors(parents: dict, seeds) -> set:
    """The seeds and everything they depend on through ``parents``, transitively."""
    seen = set()
    stack = list(seeds)
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(parents.get(n, ()))
    return seen


# ---------------------------------------------------------------------------
# Static checks


def check_acyclic_cb(kb: KnowledgeBase, lo: int, hi: int):
    """Verify the grounded context base has an acyclic dependency graph.

    Raises CycleError with a witness cycle of ground c-atoms otherwise.
    """
    program = ground_context_program(kb, frozenset(), lo, hi)
    deps = {
        head: {b for body in bodies for _, b in body}
        for head, bodies in program.clauses.items()
    }
    topo_order(deps, "context base")


def check_acyclic_pb(kb: KnowledgeBase, lo: int, hi: int):
    """Verify the grounded influenced-by graph of the probabilistic base.

    Conservative: considers every type-consistent ground instance, ignoring
    contexts.  Works at the object level (value variants share a node), so
    each schema is grounded once over the variables of its object slots.
    """
    deps: dict = {}
    for schemas in kb.schemas.values():
        for schema in schemas:
            typing = schema.window_typing(kb, lo, hi)
            if typing is None:
                continue
            ranges = typing[0]
            names = sorted({n for s in (schema.cons, *schema.ante) for n, _ in s if n is not None})
            for theta in bindings({n: ranges[n] for n in names}):
                deps.setdefault(fill_slots(schema.cons, theta), set()).update(
                    fill_slots(s, theta) for s in schema.ante
                )
    topo_order(deps, "probabilistic base")


def check_allowed(kb: KnowledgeBase):
    """Verify every variable is finitely groundable through some typed position.

    Sufficient condition: each variable occupies at least one position whose
    domain is the (session-bounded) time domain or a non-empty finite domain.
    """
    diags = []

    def scan(head, others, where):
        groundable: dict = {}
        for atom in [head] + others:
            for i, (name, _) in enumerate(map(term_slot, atom.args)):
                if name is None:
                    continue
                dom = kb.domain_of_position(atom.pred, i)
                ok = dom.name == TIME_DOMAIN or bool(dom.members)
                groundable[name] = groundable.get(name, False) or ok
        for name, ok in groundable.items():
            if not ok:
                diags.append(
                    Diagnostic(f"variable {name} in {where} has no finitely groundable position")
                )

    for s in kb.pb:
        scan(s.cons, list(s.ante) + [a for _, a in s.context], str(s))
    for c in kb.cb:
        scan(c.head, [a for _, a in c.body], str(c))
    if diags:
        raise NotAllowedError(diags)
