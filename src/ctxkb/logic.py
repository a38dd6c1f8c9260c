"""SLDNF over the context base, dependency graphs and the static checks.

The context base is an acyclic normal logic program evaluated under Clark's
completion semantics.  Sessions confine time to a finite window and all
attribute domains are finite, so it has a finite ground form, grounded on
demand.  Each clause is compiled once per KB into a ``lang.Rule``
(``KnowledgeBase.clauses``), and when a proof first meets a goal,
``lang.rule_bindings``, the routine discharge grounds schemas with, grounds
the goal's clauses at it; so a query grounds only the goals its guards
reach, whatever the window.  Goal evaluation walks an explicit proof stack
over ground clauses, with negation as (finite) failure.  On an acyclic
ground program this computes exactly the unique supported model of the
completion.  Goals and clauses are held as slots (``lang.atom_slots``), so
a ground c-atom is the plain tuple (pred, *values) that ``fill_slots``
builds; only ``sldnf_solve`` wraps the substitutions it returns in
``Const``.  ``topo_order`` and ``ancestors`` are the graph walks
every later stage shares, and both acyclicity checks build their graphs from
rules with one builder.
"""

from __future__ import annotations

import heapq

from .errors import CycleError, Diagnostic, NotAllowedError
from .lang import (
    TIME_DOMAIN,
    Const,
    KnowledgeBase,
    SessionInput,
    Window,
    _window_ranges,
    atom_slots,
    bindings,
    fill_slots,
    groundings,
    rule_bindings,
    term_slot,
    validate_session,
)

# ---------------------------------------------------------------------------
# SLDNF evaluation


class _Solver:
    """Truth of ground c-atoms under completed(C ∪ CB), times confined to [lo, hi]."""

    def __init__(self, kb: KnowledgeBase, context, lo: int, hi: int):
        self.memo: dict = dict.fromkeys(context, True)
        self.clauses = kb.clauses
        self.window = Window(lo, hi)  # the session's ranges of every rule it grounds

    def bodies(self, goal: tuple) -> list:
        """The ground bodies of ``goal``: per clause of its predicate in text order whose head
        matches it in the window, one per binding of the body-only variables, so they come in
        the order that grounding every clause up front lists them."""
        rules, window = self.clauses.get(goal[0], ()), self.window
        return [tuple((sign, fill_slots(slots, theta)) for sign, slots in rule.body)
                for rule in rules for theta in rule_bindings(rule, goal, window)]

    def holds(self, atom: tuple) -> bool:
        """Truth of a ground c-atom under the completion, by an explicit proof stack.

        Bodies are tried in order and literals left to right, as in SLDNF.  A
        goal met again on its own proof path raises CycleError.
        """
        memo = self.memo
        if atom in memo:
            return memo[atom]
        path = [[atom, self.bodies(atom), 0, 0]]  # goal, its bodies, body index, literal index
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
                path.append([b, self.bodies(b), 0, 0])
                on_path.add(b)
        return memo[atom]

    def proves(self, literals) -> bool:
        """Whether every ground literal (sign, ground c-atom) holds."""
        return all(self.holds(a) == sign for sign, a in literals)


def sldnf_solve(kb: KnowledgeBase, session, goal):
    """Prove a conjunction of context literals against completed(C ∪ CB).

    ``session`` (a ``ValidatedSession``, or a ``SessionInput`` validated here)
    gives the facts C and the time window.  A ground goal returns True/False.
    A non-ground goal returns the list of satisfying substitutions (variable
    name -> ``Const``), in ``groundings`` order over the declared domains and
    the session window.
    """
    if isinstance(session, SessionInput):
        session = validate_session(kb, session)
    solver = _Solver(kb, session.context, session.lo, session.hi)
    goal = list(goal)
    atoms = [a for _, a in goal]
    lits = [(sign, atom_slots(a)) for sign, a in goal]

    def proven(theta):
        return solver.proves((sign, fill_slots(slots, theta)) for sign, slots in lits)

    if all(a.is_ground() for a in atoms):
        return proven({})
    thetas = groundings(kb, atoms, session.lo, session.hi)
    return [{n: Const(v) for n, v in theta.items()} for theta in thetas if proven(theta)]


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


def _check_acyclic(by_pred: dict, lo: int, hi: int, where: str):
    """Raise CycleError unless the graph from each rule's ground head to its ground antecedents is
    acyclic, each rule grounded in [lo, hi] over the variables of its head and antecedents only."""
    deps: dict = {}
    for rule in [rule for rules in by_pred.values() for rule in rules]:
        ranges = _window_ranges(rule.typing, lo, hi)
        if ranges is None:
            continue
        names = {n for s in (rule.head, *rule.ante) for n, _ in s}
        for theta in bindings({n: r for n, r in ranges.items() if n in names}):
            deps.setdefault(fill_slots(rule.head, theta), set()).update(fill_slots(s, theta) for s in rule.ante)
    topo_order(deps, where)


def check_acyclic_cb(kb: KnowledgeBase, lo: int, hi: int):
    """Verify the grounded context base has an acyclic dependency graph.

    Raises CycleError with a witness cycle of ground c-atoms otherwise.
    """
    _check_acyclic(kb.clauses, lo, hi, "context base")


def check_acyclic_pb(kb: KnowledgeBase, lo: int, hi: int):
    """Verify the grounded influenced-by graph of the probabilistic base.

    Conservative: considers every type-consistent ground instance, ignoring
    contexts.  Works at the object level (value variants share a node), so
    each schema is grounded once over the variables of its object slots.
    """
    _check_acyclic(kb.schemas, lo, hi, "probabilistic base")


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
