"""Substitutions, unification, and SLDNF over the grounded context program.

The context base is an acyclic normal logic program evaluated under Clark's
completion semantics.  Because sessions confine time to a finite window and
all attribute domains are finite, the program is grounded up front; goal
evaluation is then a depth-bounded recursion over ground clauses, with
negation as (finite) failure.  On an acyclic ground program this computes
exactly the unique supported model of the completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CycleError, Diagnostic, DepthBoundError, NotAllowedError
from .lang import (
    TIME_DOMAIN,
    Atom,
    Const,
    KnowledgeBase,
    TimeExpr,
    Var,
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
# Grounding the context program

CAtom = tuple  # ground c-atom as (pred, arg1, ..., argn)


def catom_key(atom: Atom) -> CAtom:
    return (atom.pred,) + tuple(t.value for t in atom.args)


@dataclass
class GroundContextProgram:
    """Ground clauses of C ∪ CB over the session window."""

    clauses: dict  # head CAtom -> list of bodies; body = tuple of (sign, CAtom)
    facts: frozenset  # ground(C)
    atoms: frozenset  # Herbrand base over the declared domains and window
    depth_bound: int = 0

    def __post_init__(self):
        if not self.depth_bound:
            self.depth_bound = len(self.atoms) + 1


def clause_groundings(kb: KnowledgeBase, head: Atom, body, lo: int, hi: int):
    """Type-consistent ground instances of a clause, times confined to [lo, hi]."""
    var_domains, _ = _variable_typing(kb, [head] + [a for _, a in body], lo, hi)
    if var_domains is None:
        return
    names = list(var_domains)
    pools = [var_domains[n] for n in names]
    for combo in itertools.product(*pools):
        subst = {n: Const(v) for n, v in zip(names, combo)}
        g_head = apply_subst(head, subst)
        g_body = tuple((sign, apply_subst(a, subst)) for sign, a in body)
        yield g_head, g_body


def _variable_typing(kb: KnowledgeBase, atoms, lo: int, hi: int):
    """Map each variable to its finite ground range, or None when empty."""
    var_domains: dict = {}
    offsets: dict = {}
    for atom in atoms:
        for i, term in enumerate(atom.args):
            dom = kb.domain_of_position(atom.pred, i)
            if isinstance(term, Var):
                name, off = term.name, 0
            elif isinstance(term, TimeExpr):
                name, off = term.var, term.offset
            else:
                if dom.name == TIME_DOMAIN and not (lo <= term.value <= hi):
                    return None, None  # constant time outside the window
                continue
            if dom.name == TIME_DOMAIN:
                offsets.setdefault(name, set()).add(off)
            else:
                var_domains.setdefault(name, dom.members)
    for name, offs in offsets.items():
        # every occurrence t+off must land inside [lo, hi]
        t_lo = max(lo - off for off in offs)
        t_hi = min(hi - off for off in offs)
        if t_lo > t_hi:
            return None, None
        var_domains[name] = tuple(range(t_lo, t_hi + 1))
    for members in var_domains.values():
        if not members:
            return None, None
    return var_domains, offsets


def ground_context_program(
    kb: KnowledgeBase, context: frozenset, lo: int, hi: int
) -> GroundContextProgram:
    clauses: dict = {}
    atoms = set(context)
    for c in kb.preds.values():
        if c.kind != "c":
            continue
        pools = []
        for d in c.attribute_domains:
            if d == TIME_DOMAIN:
                pools.append(tuple(range(lo, hi + 1)))
            else:
                pools.append(kb.domains[d].members)
        for combo in itertools.product(*pools):
            atoms.add((c.name,) + combo)
    for clause in kb.cb:
        for g_head, g_body in clause_groundings(kb, clause.head, clause.body, lo, hi):
            key = catom_key(g_head)
            body = tuple((sign, catom_key(a)) for sign, a in g_body)
            clauses.setdefault(key, []).append(body)
    return GroundContextProgram(clauses, frozenset(context), frozenset(atoms))


# ---------------------------------------------------------------------------
# SLDNF evaluation


class _Solver:
    def __init__(self, program: GroundContextProgram):
        self.program = program
        self.memo: dict = {}

    def holds(self, atom: CAtom, depth: int = 0) -> bool:
        if depth > self.program.depth_bound:
            raise DepthBoundError(
                f"depth bound {self.program.depth_bound} exceeded while proving {atom}"
            )
        if atom in self.memo:
            return self.memo[atom]
        if atom in self.program.facts:
            self.memo[atom] = True
            return True
        result = False
        for body in self.program.clauses.get(atom, ()):
            if all(
                self.holds(b, depth + 1) if sign else not self.holds(b, depth + 1)
                for sign, b in body
            ):
                result = True
                break
        self.memo[atom] = result
        return result


def sldnf_solve(program: GroundContextProgram, goal, kb=None, lo=0, hi=0):
    """Prove a conjunction of context literals against completed(C ∪ CB).

    A ground goal returns True/False.  A non-ground goal returns the sorted
    list of satisfying substitutions (variable name -> ground value), ranging
    over the declared domains and the session time window; it requires ``kb``.
    """
    solver = _Solver(program)
    lits = list(goal)
    if all(a.is_ground() for _, a in lits):
        return all(
            solver.holds(catom_key(a)) if sign else not solver.holds(catom_key(a))
            for sign, a in lits
        )
    if kb is None:
        raise ValueError("non-ground goals need the knowledge base for typing")
    var_domains, _ = _variable_typing(kb, [a for _, a in lits], lo, hi)
    if var_domains is None:
        return []
    names = sorted(var_domains)
    answers = []
    for combo in itertools.product(*(var_domains[n] for n in names)):
        subst = {n: Const(v) for n, v in zip(names, combo)}
        ok = True
        for sign, a in lits:
            h = solver.holds(catom_key(apply_subst(a, subst)))
            if h != sign:
                ok = False
                break
        if ok:
            answers.append(subst)
    return answers


# ---------------------------------------------------------------------------
# Static checks


def check_acyclic_cb(kb: KnowledgeBase, lo: int, hi: int):
    """Verify the grounded context base has an acyclic dependency graph.

    Raises CycleError with a witness cycle of ground c-atoms otherwise.
    """
    program = ground_context_program(kb, frozenset(), lo, hi)
    deps = {
        head: sorted({b for body in bodies for _, b in body})
        for head, bodies in program.clauses.items()
    }
    _find_cycle(deps, "context base")


def check_acyclic_pb(kb: KnowledgeBase, lo: int, hi: int):
    """Verify the grounded influenced-by graph of the probabilistic base.

    Conservative: considers every type-consistent ground instance, ignoring
    contexts.  Works at the object level (value variants share a node).
    """
    from .lang import obj_of  # local import to avoid cycle at module load

    deps: dict = {}
    for s in kb.pb:
        for g_cons, g_ante in _sentence_groundings(kb, s, lo, hi):
            node = obj_of(g_cons)
            deps.setdefault(node, set()).update(obj_of(a) for a in g_ante)
    deps = {k: sorted(v, key=str) for k, v in deps.items()}
    _find_cycle(deps, "probabilistic base")


def _sentence_groundings(kb: KnowledgeBase, s, lo: int, hi: int):
    atoms = [s.cons] + list(s.ante) + [a for _, a in s.context]
    var_domains, _ = _variable_typing(kb, atoms, lo, hi)
    if var_domains is None:
        return
    names = list(var_domains)
    for combo in itertools.product(*(var_domains[n] for n in names)):
        subst = {n: Const(v) for n, v in zip(names, combo)}
        yield apply_subst(s.cons, subst), tuple(apply_subst(a, subst) for a in s.ante)


def _find_cycle(deps: dict, where: str):
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in deps}
    stack: list = []

    def visit(n):
        color[n] = GREY
        stack.append(n)
        for m in deps.get(n, ()):
            c = color.get(m, BLACK if m not in deps else WHITE)
            if m not in deps:
                continue
            if color[m] == GREY:
                i = stack.index(m)
                raise CycleError(stack[i:] + [m], where)
            if color[m] == WHITE:
                visit(m)
        stack.pop()
        color[n] = BLACK

    for n in sorted(deps, key=str):
        if color[n] == WHITE:
            visit(n)


def check_allowed(kb: KnowledgeBase):
    """Verify every variable is finitely groundable through some typed position.

    Sufficient condition: each variable occupies at least one position whose
    domain is the (session-bounded) time domain or a non-empty finite domain.
    """
    diags = []

    def scan(head, others, where):
        groundable: dict = {}
        for atom in [head] + others:
            for i, term in enumerate(atom.args):
                if isinstance(term, Var):
                    name = term.name
                elif isinstance(term, TimeExpr):
                    name = term.var
                else:
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
