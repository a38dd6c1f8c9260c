"""Session-relevant grounding: context discharge, relevant atoms, combining.

The pipeline turns a knowledge base plus a validated session into the
combined relevant base (one conditional table per relevant object):

    discharge_contexts -> compute_ras -> combine_rpb -> check_consistency

Discharge walks backward from a demand of ground objects (a query's
candidates and the evidence), so the base holds only the tables those
objects depend on; with no demand it covers every object in the window.
One record per proven schema grounding flows through all three stages:
``(obj, parents, context, cells)``, where ``parents`` are the distinct
antecedent objects in sorted order, ``context`` is the proven ground guard,
and each cell is ``(value, parent values, alpha)``.  Objects are plain
tuples and sort as tuples, so a table's parent order is the same at every
timestep.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

from . import combining
from .errors import ConflictingSentencesError, ConsistencyError, CycleError
from .lang import (
    Atom,
    KnowledgeBase,
    Obj,
    ValidatedSession,
    Var,
    _variable_typing,
    atom_slots,
    fill_slots,
    groundings,
)
from .logic import _Solver, ground_context_program, topo_order

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
            ante = ", ".join(str(atom_of(o, v)) for o, v in sorted(self.ante))
            return f"P({cons} | {ante}) = {self.alpha}"
        return f"P({cons}) = {self.alpha}"


@dataclass(frozen=True)
class RelevantAtomSet:
    """Object-level view of the bounded relevant atom set (Ext-closed by construction)."""

    objs: frozenset  # of Obj


@dataclass
class ObjTable:
    """Combined conditional table of one object, and its node in the supporting network.

    ``rows`` holds the complete rows only; ``missing`` is the one record of
    every gap.  Nothing writes a table after ``combine_rpb`` returns it, so
    the network shares it as the node's CPT.
    """

    obj: Obj
    values: tuple
    parents: tuple  # of Obj, sorted
    rows: dict = field(default_factory=dict)  # parent assignment -> tuple of probs over values
    missing: list = field(default_factory=list)  # (assignment, value-or-None)

    @property
    def n_entries(self) -> int:
        return sum(len(r) for r in self.rows.values())


@dataclass
class CombinedBase:
    tables: dict = field(default_factory=dict)  # Obj -> ObjTable

    def sentences(self):
        """Flat ground-sentence view of all complete rows."""
        for table in self.tables.values():
            for assignment, row in sorted(table.rows.items()):
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
            slots = atom_slots(pattern)
            for theta in groundings(kb, [pattern], lo, hi):
                yield fill_slots(slots, theta)


def discharge_contexts(kb: KnowledgeBase, session: ValidatedSession, demand=None):
    """One record per schema grounding the demanded objects reach whose guard holds.

    A backward walk from ``demand``, a set of ground objects (every ground
    p-object in the window when None).  Each object is matched once against
    each schema of its predicate; the remaining variables are grounded over
    their ranges, the guard is proven once per grounding, and the coherent
    cells of the grounding become one ``(obj, parents, context, cells)``
    record.  The parents of each record join the walk, so the records cover
    every demanded object and its ancestors: all that the relevant set and
    the combined tables of those objects depend on.
    """
    lo, hi = session.lo, session.hi
    solver = _Solver(ground_context_program(kb, session.context, lo, hi))
    typed: dict = {}  # Schema -> (ranges, free variables, their ranges) in the window, or None
    if demand is None:
        demand = _window_objects(kb, lo, hi)
    stack = sorted(set(demand), reverse=True)
    seen = set(stack)
    out = []
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
                context = tuple((sign, fill_slots(slots, theta)) for sign, slots in schema.context)
                if not solver.proves(context):
                    continue
                objs = tuple(fill_slots(slots, theta) for slots in schema.ante)
                parents = objs if len(objs) < 2 else tuple(sorted(set(objs)))
                cells = schema.cells  # shared, and read only, when already aligned with parents
                if schema.value_vars or parents != objs:
                    cells = _ground_cells(schema, theta, objs, parents)
                    if not cells:
                        continue
                out.append((obj, parents, context, cells))
                for o in parents:
                    if o not in seen:
                        seen.add(o)
                        stack.append(o)
    return out


def _ground_cells(schema, theta, objs, parents):
    """A grounding's coherent cells, their antecedent values aligned with ``parents``."""
    at = [objs.index(o) for o in parents]  # each parent's first antecedent position
    repeats = [(i, j) for i, j in enumerate(map(objs.index, objs)) if i != j]
    cells = []
    for value, values, alpha in schema.cells:
        if schema.value_vars:
            value, values = _fill_values(schema.value_vars, value, values, theta)
        if any(values[i] != values[j] for i, j in repeats):
            continue  # incoherent: two values for one object; it can never hold
        cells.append((value, tuple(values[i] for i in at), alpha))
    return cells


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


# ---------------------------------------------------------------------------
# Relevant atom set (least fixpoint, object level)


def compute_ras(kb: KnowledgeBase, records, session: ValidatedSession) -> RelevantAtomSet:
    """Evidence objects, then every record's object once all its parents are relevant.

    A worklist: records are grouped by their parents, and each group counts
    its parents that are not yet relevant and waits on them; it releases its
    objects when the count reaches zero.
    """
    objs = set(session.evidence)
    by_ante: dict = {}  # parents -> objects
    for obj, parents, _, _ in records:
        by_ante.setdefault(parents, set()).add(obj)
    unmet = []  # per waiting group, its count of parents not yet relevant
    released = []  # per waiting group, its objects
    waiting = defaultdict(list)  # object -> indices of the groups waiting on it
    ready = []
    for ante, conss in by_ante.items():
        blockers = [o for o in ante if o not in objs]
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
    return RelevantAtomSet(frozenset(objs))


# ---------------------------------------------------------------------------
# Combining


def combine_rpb(records, kb: KnowledgeBase, ras: RelevantAtomSet) -> CombinedBase:
    """One table per object of the records whose object and parents are all relevant.

    The cells of one parent tuple and one parent assignment form a rule
    group; where several groups cover a row, the object's combining rule
    merges their distributions.
    """
    relevant = ras.objs
    by_obj: dict = {}
    for rec in records:
        if rec[0] in relevant and relevant.issuperset(rec[1]):
            by_obj.setdefault(rec[0], []).append(rec)

    base = CombinedBase()
    for obj in sorted(by_obj):
        recs = by_obj[obj]
        values = kb.val(obj[0])
        rule_name, params = kb.combining_rule_for(obj[0])
        rule = combining.rule(rule_name)

        # rule groups: one cause per (parent objects, parent values)
        groups: dict = {}
        for _, parents, _, cells in recs:
            for value, us, alpha in cells:
                cell = groups.setdefault((parents, us), {})
                if cell.setdefault(value, alpha) != alpha:
                    raise _first_conflict(obj, recs)

        cause_sets = sorted({ps for ps, _ in groups})
        parents = tuple(sorted({o for ps in cause_sets for o in ps}))
        parent_pos = {o: i for i, o in enumerate(parents)}
        at = [(ps, [parent_pos[o] for o in ps]) for ps in cause_sets]

        table = ObjTable(obj, values, parents)
        for combo in itertools.product(*(kb.val(p[0]) for p in parents)):
            dists = []
            cell_missing = []
            for ps, idx in at:
                cell = groups.get((ps, tuple(combo[i] for i in idx)))
                if cell is None:
                    continue  # this cause does not cover the assignment
                missing_vals = [v for v in values if v not in cell]
                if missing_vals:
                    cell_missing.extend((combo, v) for v in missing_vals)
                    continue
                dists.append(tuple(cell[v] for v in values))
            if cell_missing:
                table.missing.extend(cell_missing)
            elif not dists:
                table.missing.append((combo, None))
            elif len(dists) == 1:
                table.rows[combo] = dists[0]
            else:
                table.rows[combo] = tuple(rule(obj, dists, values, params))
        base.tables[obj] = table
    return base


def _first_conflict(obj, records) -> ConflictingSentencesError:
    """The clash met first in text order: two alphas for one consequent and antecedent."""
    sentences = {
        GroundSentence((obj, v), frozenset(zip(parents, us)), alpha)
        for _, parents, _, cells in records
        for v, us, alpha in cells
    }
    seen: dict = {}
    for s in sorted(sentences, key=str):
        other = seen.setdefault((s.cons, s.ante), s)
        if other.alpha != s.alpha:
            return ConflictingSentencesError(
                f"conflicting sentences for {s}: alpha {other.alpha} vs {s.alpha}"
            )


# ---------------------------------------------------------------------------
# Checks: complete quantification and consistency


def table_gaps(obj: Obj, table) -> list:
    """(obj, detail) for each gap of ``obj``'s table, or for the table itself when it is None."""
    if table is None:
        return [(obj, "no applicable sentence inside the session window")]
    gaps = []
    for assignment, value in table.missing:
        at = f"parents {dict(zip(table.parents, assignment))}" if table.parents else "marginal"
        if value is None:
            gaps.append((obj, f"no applicable sentence at {at}"))
        else:
            gaps.append((obj, f"missing value variant {value!r} at {at}"))
    return gaps


def row_violations(table) -> list:
    """A line for each row of ``table`` that is not a distribution."""
    violations = []
    for assignment, row in sorted(table.rows.items()):
        s = sum(row)
        if abs(s - 1.0) > ROW_SUM_TOL:
            violations.append(
                f"row for {table.obj} at parents {dict(zip(table.parents, assignment))} "
                f"sums to {s!r}, expected 1"
            )
        if any(p < 0 or p > 1 for p in row):
            violations.append(f"row for {table.obj} at {assignment} has entries outside [0, 1]")
    return violations


def consistency_violations(base: CombinedBase):
    violations = []
    # (1) no object influenced by itself
    try:
        topo_order({o: t.parents for o, t in base.tables.items()}, "combined relevant base")
    except CycleError as e:
        violations.append(f"object influenced by itself: {' -> '.join(str(w) for w in e.witness)}")
    # (2) every row sums to one
    for obj in sorted(base.tables):
        violations.extend(row_violations(base.tables[obj]))
    return violations


def check_consistency(base: CombinedBase):
    violations = consistency_violations(base)
    if violations:
        raise ConsistencyError(violations)


def build_combined_base(kb: KnowledgeBase, session: ValidatedSession, demand=None):
    """Run the whole relevance pipeline; returns (combined base, ras, discharged records).

    With a ``demand`` of ground objects, only those objects and their
    ancestors are discharged, and the base holds exactly their tables.
    """
    records = discharge_contexts(kb, session, demand)
    ras = compute_ras(kb, records, session)
    return combine_rpb(records, kb, ras), ras, records
