"""Session-relevant grounding: context discharge, relevant atoms, combining.

The pipeline turns a knowledge base plus a validated session into the
combined relevant base (one conditional table per relevant object):

    discharge_contexts -> compute_ras -> restrict_rpb -> combine_rpb
    -> check_consistency

Discharge walks backward from a demand of ground objects (a query's
candidates and the evidence), so the base holds only the tables those
objects depend on; with no demand it covers every object in the window.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

from .combining import CauseMechanism, RuleRegistry, builtin_registry
from .errors import ConflictingSentencesError, ConsistencyError, CycleError
from .lang import Atom, KnowledgeBase, Obj, ValidatedSession, Var, fill_slots, obj_sort_key
from .logic import _Solver, _variable_typing, ground_context_program, groundings, topo_order

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GroundSentence:
    """A context-free ground conditional: P(cons | ante) = alpha."""

    cons: tuple  # (Obj, value)
    ante: frozenset  # of (Obj, value); coherent
    alpha: float

    def __str__(self) -> str:
        from .lang import atom_of

        cons = atom_of(*self.cons)
        if self.ante:
            ante = ", ".join(
                str(atom_of(o, v)) for o, v in sorted(self.ante, key=lambda p: obj_sort_key(p[0]))
            )
            return f"P({cons} | {ante}) = {self.alpha}"
        return f"P({cons}) = {self.alpha}"


@dataclass(frozen=True)
class DischargedInstance:
    """A ground sentence instance whose context guard was proven."""

    sentence: GroundSentence
    context: tuple  # the proven ground context literals, as (sign, CAtom)


@dataclass(frozen=True)
class RelevantAtomSet:
    """Object-level view of the bounded relevant atom set (Ext-closed by construction)."""

    objs: frozenset  # of Obj
    lo: int
    hi: int


@dataclass
class ObjTable:
    """Combined conditional table of one object: rows indexed by parent values."""

    obj: Obj
    values: tuple
    parents: tuple  # of Obj, sorted
    rows: dict = field(default_factory=dict)  # parent assignment -> tuple of probs | None
    missing: list = field(default_factory=list)  # (assignment, value-or-None)

    @property
    def n_entries(self) -> int:
        return sum(len(r) for r in self.rows.values() if r is not None)


@dataclass
class CombinedBase:
    tables: dict = field(default_factory=dict)  # Obj -> ObjTable

    def sentences(self):
        """Flat ground-sentence view of all complete rows."""
        for table in self.tables.values():
            for assignment, row in sorted(table.rows.items(), key=str):
                if row is None:
                    continue
                ante = frozenset(zip(table.parents, assignment))
                for v, alpha in zip(table.values, row):
                    yield GroundSentence((table.obj, v), ante, alpha)


# ---------------------------------------------------------------------------
# Context discharge


def _window_objects(kb: KnowledgeBase, lo: int, hi: int):
    """Every ground p-object whose time, if any, lies in [lo, hi]."""
    for decl in kb.preds.values():
        if decl.kind == "p":
            pattern = Atom(decl.name, tuple(Var(f"_{i}") for i in range(len(decl.attribute_domains))))
            for theta in groundings(kb, [pattern], lo, hi):
                yield (decl.name,) + tuple(theta[v.name].value for v in pattern.args)


def discharge_contexts_detailed(kb: KnowledgeBase, session: ValidatedSession, demand=None):
    """Every ground PB instance the demanded objects reach whose context guard holds.

    A backward walk from ``demand``, a set of ground objects (every ground
    p-object in the window when None).  Each object is matched once against
    each schema of its predicate; the remaining variables are grounded over
    their ranges, the guard is proven once per grounding, and every coherent
    cell of the schema becomes an instance.  The antecedent objects of the
    kept instances join the walk, so the result holds every instance whose
    consequent is a demanded object or one of their ancestors: all that the
    relevant set and the combined tables of those objects depend on.
    """
    lo, hi = session.lo, session.hi
    solver = _Solver(ground_context_program(kb, session.context, lo, hi))
    typed: dict = {}  # Schema -> (ranges, free variables, their ranges) in the window, or None
    if demand is None:
        demand = _window_objects(kb, lo, hi)
    stack = sorted(set(demand), key=obj_sort_key, reverse=True)
    seen = set(stack)
    out: dict = {}  # DischargedInstance -> None, first occurrence first
    while stack:
        obj = stack.pop()
        for schema in kb.schemas.get(obj[0], ()):
            if schema not in typed:
                typed[schema] = _schema_typing(kb, schema, lo, hi)
            t = typed[schema]
            theta = None if t is None else schema.match(obj)
            if theta is None:
                continue
            ranges, free, free_ranges = t
            if any(v not in ranges[n] for n, v in theta.items()):
                continue
            for combo in itertools.product(*free_ranges):
                theta.update(zip(free, combo))
                context = tuple((sign, (p,) + fill_slots(slots, theta)) for sign, p, slots in schema.context)
                if not solver.proves(context):
                    continue
                objs = [(p,) + fill_slots(slots, theta) for p, slots in schema.ante]
                distinct = len(set(objs)) == len(objs)
                kept = False
                for value, values, alpha in schema.cells:
                    if schema.value_vars:
                        value, values = _fill_values(schema.value_vars, value, values, theta)
                    if not distinct and len(set(zip(objs, values))) != len(set(objs)):
                        continue  # incoherent: two values for one object; it can never hold
                    gs = GroundSentence((obj, value), frozenset(zip(objs, values)), alpha)
                    out[DischargedInstance(gs, context)] = None
                    kept = True
                if kept:
                    for o in objs:
                        if o not in seen:
                            seen.add(o)
                            stack.append(o)
    return list(out)


def _schema_typing(kb: KnowledgeBase, schema, lo: int, hi: int):
    """(ranges, free variables, their ranges) of a schema in [lo, hi]; None if it has no grounding.

    The free variables are those the consequent's object does not bind.
    """
    ranges = _variable_typing(kb, schema.atoms, lo, hi)
    if ranges is None:
        return None
    bound = {n for n, _ in schema.cons}
    free = sorted(n for n in ranges if n not in bound)
    return ranges, free, [ranges[n] for n in free]


def _fill_values(value_vars, value, values, theta):
    """A cell's consequent and antecedent values, its variable value slots filled from ``theta``."""
    cons_var, ante_vars = value_vars
    if cons_var:
        value = theta[cons_var]
    return value, tuple(theta[n] if n else v for n, v in zip(ante_vars, values))


def discharge_contexts(kb: KnowledgeBase, session: ValidatedSession, demand=None):
    return {d.sentence for d in discharge_contexts_detailed(kb, session, demand)}


# ---------------------------------------------------------------------------
# Relevant atom set (least fixpoint, object level)


def compute_ras(kb: KnowledgeBase, sentences, session: ValidatedSession) -> RelevantAtomSet:
    """Evidence objects, then every consequent whose antecedent objects are all relevant.

    A worklist: sentences are grouped by their set of antecedent objects, and
    each group counts the objects in that set that are not yet relevant and
    waits on them; it releases its consequents when the count reaches zero.
    """
    objs = set(session.evidence)
    by_ante: dict = {}  # antecedent objects -> consequent objects
    for s in sentences:
        by_ante.setdefault(frozenset(o for o, _ in s.ante), set()).add(s.cons[0])
    unmet = []  # per waiting group, its count of antecedent objects not yet relevant
    released = []  # per waiting group, its consequent objects
    waiting = defaultdict(list)  # object -> indices of the groups waiting on it
    ready = []
    for ante, conss in by_ante.items():
        blockers = ante - objs
        if not blockers:
            ready.extend(conss)
            continue
        for o in blockers:
            waiting[o].append(len(unmet))
        unmet.append(len(blockers))
        released.append(conss)
    while ready:
        o = ready.pop()
        if o in objs:
            continue
        objs.add(o)
        for k in waiting.pop(o, ()):
            unmet[k] -= 1
            if unmet[k] == 0:
                ready.extend(released[k])
    return RelevantAtomSet(frozenset(objs), session.lo, session.hi)


def restrict_rpb(sentences, ras: RelevantAtomSet):
    """Keep only sentences whose consequent and antecedents are all relevant."""
    return {
        s
        for s in sentences
        if s.cons[0] in ras.objs and all(o in ras.objs for o, _ in s.ante)
    }


# ---------------------------------------------------------------------------
# Combining


def combine_rpb(rpb, kb: KnowledgeBase, registry: RuleRegistry = None) -> CombinedBase:
    registry = registry or builtin_registry()
    by_obj: dict = {}
    for s in rpb:
        by_obj.setdefault(s.cons[0], []).append(s)

    base = CombinedBase()
    for obj in sorted(by_obj, key=obj_sort_key):
        sentences = by_obj[obj]
        values = kb.val(obj[0])
        rule_name, params = kb.combining_rule_for(obj[0])
        rule = registry.resolve(rule_name)

        # rule groups: one candidate mechanism per (antecedent objects, value assignment)
        groups: dict = {}
        for s in sentences:
            objset = tuple(sorted((o for o, _ in s.ante), key=obj_sort_key))
            assignment = tuple(v for o, v in sorted(s.ante, key=lambda p: obj_sort_key(p[0])))
            cell = groups.setdefault((objset, assignment), {})
            if cell.setdefault(s.cons[1], s.alpha) != s.alpha:
                raise _first_conflict(sentences)

        cause_sets = sorted({objset for objset, _ in groups}, key=str)
        parents = tuple(sorted({o for objset in cause_sets for o in objset}, key=obj_sort_key))
        parent_pos = {o: i for i, o in enumerate(parents)}

        table = ObjTable(obj, values, parents)
        for combo in itertools.product(*(kb.val(p[0]) for p in parents)):
            mechanisms = []
            cell_missing = []
            for objset in cause_sets:
                u = tuple(combo[parent_pos[o]] for o in objset)
                cell = groups.get((objset, u))
                if cell is None:
                    continue  # this cause does not cover the assignment
                missing_vals = [v for v in values if v not in cell]
                if missing_vals:
                    cell_missing.extend((combo, v) for v in missing_vals)
                    continue
                dist = tuple(cell[v] for v in values)
                mechanisms.append(CauseMechanism(frozenset(zip(objset, u)), dist))
            if cell_missing:
                table.rows[combo] = None
                table.missing.extend(cell_missing)
            elif not mechanisms:
                table.rows[combo] = None
                table.missing.append((combo, None))
            elif len(mechanisms) == 1:
                table.rows[combo] = mechanisms[0].distribution
            else:
                table.rows[combo] = tuple(rule.apply(obj, mechanisms, values, params))
        base.tables[obj] = table
    return base


def _first_conflict(sentences) -> ConflictingSentencesError:
    """The clash met first in text order: two alphas for one consequent and antecedent."""
    seen: dict = {}
    for s in sorted(sentences, key=str):
        other = seen.setdefault((s.cons, s.ante), s)
        if other.alpha != s.alpha:
            return ConflictingSentencesError(
                f"conflicting sentences for {s}: alpha {other.alpha} vs {s.alpha}"
            )


# ---------------------------------------------------------------------------
# Checks: complete quantification and consistency


def quantification_gaps(base: CombinedBase, ras: RelevantAtomSet):
    gaps = []
    for obj in sorted(ras.objs, key=obj_sort_key):
        table = base.tables.get(obj)
        if table is None:
            gaps.append((obj, "no sentence has this object in the consequent"))
            continue
        for assignment, value in table.missing:
            at = f"parents {dict(zip(table.parents, assignment))}" if table.parents else "marginal"
            if value is None:
                gaps.append((obj, f"no applicable sentence at {at}"))
            else:
                gaps.append((obj, f"missing value variant {value!r} at {at}"))
    return gaps


def consistency_violations(base: CombinedBase):
    violations = []
    # (1) no object influenced by itself
    try:
        topo_order({o: t.parents for o, t in base.tables.items()}, "combined relevant base")
    except CycleError as e:
        violations.append(f"object influenced by itself: {' -> '.join(str(w) for w in e.witness)}")
    # (2) every row sums to one
    for obj in sorted(base.tables, key=obj_sort_key):
        table = base.tables[obj]
        for assignment, row in sorted(table.rows.items(), key=str):
            if row is None:
                continue
            s = sum(row)
            if abs(s - 1.0) > ROW_SUM_TOL:
                violations.append(
                    f"row for {obj} at parents {dict(zip(table.parents, assignment))} "
                    f"sums to {s!r}, expected 1"
                )
            if any(p < 0 or p > 1 for p in row):
                violations.append(f"row for {obj} at {assignment} has entries outside [0, 1]")
    return violations


def check_consistency(base: CombinedBase):
    violations = consistency_violations(base)
    if violations:
        raise ConsistencyError(violations)


def build_combined_base(kb: KnowledgeBase, session: ValidatedSession, registry=None, demand=None):
    """Run the whole relevance pipeline; returns (combined base, ras, discharged).

    With a ``demand`` of ground objects, only those objects and their
    ancestors are discharged, and the base holds exactly their tables.
    """
    discharged = discharge_contexts(kb, session, demand)
    ras = compute_ras(kb, discharged, session)
    rpb = restrict_rpb(discharged, ras)
    base = combine_rpb(rpb, kb, registry)
    return base, ras, discharged
