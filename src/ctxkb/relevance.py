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

A record depends on the session only through the truth of its guard.  The
KB's window store (``lang.Window``, kept for the latest window in
``KnowledgeBase.window``) holds each reached object's records, guards filled
but unproven, so a session over a window seen before only walks the demand
and proves guards.  It also holds each object's combined table under the
records that combining kept for it, so a session that keeps the same records
reuses the table and its checked lines.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

from . import combining
from .errors import ConflictingSentencesError, ConsistencyError
from .lang import (
    Atom,
    KnowledgeBase,
    Obj,
    ValidatedSession,
    Var,
    atom_of,
    atom_slots,
    fill_slots,
    groundings,
    rule_bindings,
)
from .logic import _Solver, topo_order


@dataclass(frozen=True)
class RelevantAtomSet:
    """Object-level view of the bounded relevant atom set (Ext-closed by construction)."""

    objs: frozenset  # of Obj


class Shape:
    """What a combined table holds besides its object and parents, shared by every table of one shape.

    ``bad`` holds (assignment, sum, entries outside [0, 1]) per row that is
    not a distribution, ``cpt`` the cardinalities and flat factor entries;
    each is worked out at first use.  A shape names no object, time, guard
    or evidence, so a knowledge base keeps its shapes across sessions.
    """

    __slots__ = ("values", "rows", "missing", "bad", "cpt")

    def __init__(self, values, rows, missing):
        self.values, self.rows, self.missing, self.bad, self.cpt = values, rows, missing, None, None


class Cells(tuple):
    """A grounding's aligned cells, one object per schema and alignment: hashed by identity."""

    __slots__ = ()
    __hash__ = object.__hash__


class ObjTable:
    """Combined conditional table of one object, and its node in the supporting network.

    Built from a ``shape`` only.  ``parents`` are sorted objects.  ``values``,
    ``rows`` (parent assignment -> probabilities over the values, complete rows
    only) and ``missing`` (the one record (assignment, value or None) of every
    gap) are the shape's, shared by every table of that shape with its checks;
    they are copied to plain attributes because the network reads them per
    node.  ``gaps`` and ``violations`` are the table's gap and row lines, each
    formatted at its first check (``table_gaps``, ``row_violations``).  Nothing
    else writes a table after ``combine_rpb`` returns it, so the network shares
    it as the node's CPT and the window store hands it to every session that
    keeps the same records.
    """

    __slots__ = ("obj", "parents", "shape", "values", "rows", "missing", "gaps", "violations")

    def __init__(self, obj: Obj, parents: tuple, shape: Shape):
        self.obj, self.parents, self.shape = obj, parents, shape
        self.values, self.rows, self.missing = shape.values, shape.rows, shape.missing
        self.gaps = self.violations = None

    @property
    def n_entries(self) -> int:
        return sum(len(r) for r in self.rows.values())


@dataclass
class CombinedBase:
    tables: dict = field(default_factory=dict)  # Obj -> ObjTable


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
    p-object in the window when None).  Each object's records come from the
    KB's window store (``_object_records``, built at the object's first
    visit in the window); the walk proves each record's guard, in order, and
    keeps the proven records with coherent cells.  Their parents join the
    walk, so the records cover every demanded object and its ancestors: all
    that the relevant set and the combined tables of those objects depend on.
    """
    lo, hi = session.lo, session.hi
    solver = _Solver(kb, session.context, lo, hi)
    window = solver.window
    objects = window.objects
    if demand is None:
        demand = _window_objects(kb, lo, hi)
    stack = sorted(set(demand), reverse=True)
    seen = set(stack)
    out = []
    while stack:
        obj = stack.pop()
        records = objects.get(obj)
        if records is None:
            records = objects[obj] = _object_records(kb, obj, window)
        for rec in records:
            if not solver.proves(rec[2]) or not rec[3]:
                continue
            out.append(rec)
            for o in rec[1]:
                if o not in seen:
                    seen.add(o)
                    stack.append(o)
    return out


def _object_records(kb: KnowledgeBase, obj, window) -> tuple:
    """``obj``'s ``(obj, parents, context, cells)`` per schema grounding in ``window``, its guard unproven.

    ``obj`` is matched once against each schema of its predicate and the
    remaining variables are grounded over their ranges; ``parents`` are the
    distinct antecedent objects, sorted.  Nothing here depends on a session.
    """
    out = []
    for schema in kb.schemas.get(obj[0], ()):
        for theta in rule_bindings(schema, obj, window):
            context = tuple((sign, fill_slots(slots, theta)) for sign, slots in schema.body)
            objs = tuple(fill_slots(slots, theta) for slots in schema.ante)
            parents = objs if len(objs) < 2 else tuple(sorted(set(objs)))
            key = None  # the alignment; None when the antecedents are the parents in order
            if schema.value_vars or parents != objs:
                cons_var, ante_vars = schema.value_vars or (None, ())
                values = tuple(theta[n] for n in (cons_var, *ante_vars) if n)
                key = tuple(map(parents.index, objs)), values
            cells = schema.aligned.get(key)
            if cells is None:
                cells = schema.aligned[key] = _ground_cells(schema, theta, objs, parents)
            out.append((obj, parents, context, cells))
    return tuple(out)


def _ground_cells(schema, theta, objs, parents) -> Cells:
    """A grounding's coherent cells, their antecedent values aligned with ``parents``.

    They depend on the grounding only through each antecedent's position
    among the parents and the values of the variable value slots, so
    discharge builds them once per schema and alignment.
    """
    at = [objs.index(o) for o in parents]  # each parent's first antecedent position
    repeats = [(i, j) for i, j in enumerate(map(objs.index, objs)) if i != j]
    same = parents == objs  # already aligned
    cons_var, ante_vars = schema.value_vars or (None, ())
    cells = []
    for value, values, alpha in schema.cells:
        if schema.value_vars:  # fill the variable value slots from theta
            value = theta[cons_var] if cons_var else value
            values = tuple(theta[n] if n else v for n, v in zip(ante_vars, values))
        if repeats and any(values[i] != values[j] for i, j in repeats):
            continue  # incoherent: two values for one object; it can never hold
        cells.append((value, values if same else tuple(values[i] for i in at), alpha))
    return Cells(cells)


# ---------------------------------------------------------------------------
# Relevant atom set (least fixpoint, object level)


def compute_ras(records, session: ValidatedSession) -> RelevantAtomSet:
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
    merges their distributions.  The rows depend on the object only through
    the shape key: predicate, parents' predicates and, per record, its
    parents' positions among the table's parents and its cells.  Each shape
    is built once per knowledge base, in ``kb.shapes``; one that clashes is not kept.

    The table itself depends only on the records kept for its object, so the
    window store (``kb.window.tables``) keeps it under their identities, in
    order, together with the records, which keeps those identities from
    being reused.  A clash stores nothing.
    """
    relevant = ras.objs
    by_obj: dict = {}
    for rec in records:
        if rec[0] in relevant and relevant.issuperset(rec[1]):
            by_obj.setdefault(rec[0], []).append(rec)

    memo = {} if kb.window is None else kb.window.tables
    base = CombinedBase()
    tables = base.tables
    for obj in sorted(by_obj):
        recs = by_obj[obj]
        ids = tuple(map(id, recs))
        entry = memo.get(ids)
        if entry is not None:
            tables[obj] = entry[1]
            continue
        parents = tuple(sorted({o for rec in recs for o in rec[1]}))
        parent_pos = {o: i for i, o in enumerate(parents)}
        causes = tuple((tuple(parent_pos[o] for o in ps), cells) for _, ps, _, cells in recs)
        key = (obj[0], tuple(p[0] for p in parents), causes)
        shape = kb.shapes.get(key)
        if shape is None:
            shape = kb.shapes[key] = _build_shape(kb, obj, recs, parents, causes)
        table = tables[obj] = ObjTable(obj, parents, shape)
        memo[ids] = recs, table
    return base


def _build_shape(kb: KnowledgeBase, obj, recs, parents, causes) -> Shape:
    """The rows and gaps of ``obj``'s table from its records; ``causes`` pairs their positions and cells."""
    values = kb.val(obj[0])
    rule_name, params = kb.combining_rule_for(obj[0])
    rule = combining.rule(rule_name)

    # rule groups: one cause per (parent positions, parent values)
    groups: dict = {}
    for at, cells in causes:
        for value, us, alpha in cells:
            cell = groups.setdefault((at, us), {})
            if cell.setdefault(value, alpha) != alpha:
                raise _first_conflict(obj, recs)
    # positions sort as their objects do, so causes combine in the objects' order
    cause_sets = sorted({at for at, _ in groups})

    shape = Shape(values, {}, [])
    for combo in itertools.product(*(kb.val(p[0]) for p in parents)):
        dists = []
        cell_missing = []
        for at in cause_sets:
            cell = groups.get((at, tuple(combo[i] for i in at)))
            if cell is None:
                continue  # this cause does not cover the assignment
            missing_vals = [v for v in values if v not in cell]
            if missing_vals:
                cell_missing.extend((combo, v) for v in missing_vals)
                continue
            dists.append(tuple(cell[v] for v in values))
        if cell_missing:
            shape.missing.extend(cell_missing)
        elif not dists:
            shape.missing.append((combo, None))
        elif len(dists) == 1:
            shape.rows[combo] = dists[0]
        else:
            shape.rows[combo] = tuple(rule(obj, dists, values, params))
    return shape


def _first_conflict(obj, records) -> ConflictingSentencesError:
    """The clash met first in text order: two alphas for one consequent and antecedent.

    Each cell is one ground sentence, written ``P(cons | ante) = alpha``; its
    antecedents are the record's parents, distinct and sorted.
    """
    sentences: dict = {}  # text -> (text without alpha, alpha)
    for _, parents, _, cells in records:
        for v, us, alpha in cells:
            ante = ", ".join(str(atom_of(o, u)) for o, u in zip(parents, us))
            cond = f"P({atom_of(obj, v)} | {ante})" if ante else f"P({atom_of(obj, v)})"
            sentences[f"{cond} = {alpha}"] = cond, alpha
    seen: dict = {}
    for text in sorted(sentences):
        cond, alpha = sentences[text]
        other = seen.setdefault(cond, alpha)
        if other != alpha:
            return ConflictingSentencesError(f"conflicting sentences for {text}: alpha {other} vs {alpha}")


# ---------------------------------------------------------------------------
# Checks: complete quantification and consistency


def table_gaps(obj: Obj, table) -> tuple:
    """(obj, detail) for each gap of ``obj``'s table, or for the table itself when it is None.

    A table's gaps are formatted once and kept in ``table.gaps``.
    """
    if table is None:
        return ((obj, "no applicable sentence inside the session window"),)
    if table.gaps is not None:
        return table.gaps
    gaps = []
    for assignment, value in table.missing:
        at = f"parents {dict(zip(table.parents, assignment))}" if table.parents else "marginal"
        if value is None:
            gaps.append((obj, f"no applicable sentence at {at}"))
        else:
            gaps.append((obj, f"missing value variant {value!r} at {at}"))
    table.gaps = tuple(gaps)
    return table.gaps


def row_violations(table) -> tuple:
    """A line for each row of ``table`` that is not a distribution, kept in ``table.violations``.

    Rows are checked once per shape, and the lines formatted once per table.
    """
    if table.violations is not None:
        return table.violations
    shape = table.shape
    if shape.bad is None:
        bad = []
        for assignment, row in sorted(shape.rows.items()):
            s, outside = sum(row), any(p < 0 or p > 1 for p in row)
            if abs(s - 1.0) > combining.NORM_TOL or outside:
                bad.append((assignment, s, outside))
        shape.bad = bad
    violations = []
    for assignment, s, outside in shape.bad:
        if abs(s - 1.0) > combining.NORM_TOL:
            violations.append(
                f"row for {table.obj} at parents {dict(zip(table.parents, assignment))} "
                f"sums to {s!r}, expected 1"
            )
        if outside:
            violations.append(f"row for {table.obj} at {assignment} has entries outside [0, 1]")
    table.violations = tuple(violations)
    return table.violations


def check_consistency(base: CombinedBase):
    """Raise CycleError if an object influences itself, ConsistencyError if a row is not a distribution."""
    topo_order({o: t.parents for o, t in base.tables.items()}, "combined relevant base")
    violations = []
    for obj in sorted(base.tables):
        violations.extend(row_violations(base.tables[obj]))
    if violations:
        raise ConsistencyError(violations)


def build_combined_base(kb: KnowledgeBase, session: ValidatedSession, demand=None):
    """Run the whole relevance pipeline; returns (combined base, ras, discharged records).

    With a ``demand`` of ground objects, only those objects and their
    ancestors are discharged, and the base holds exactly their tables.
    """
    records = discharge_contexts(kb, session, demand)
    ras = compute_ras(records, session)
    return combine_rpb(records, kb, ras), ras, records
