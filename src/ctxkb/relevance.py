"""Session-relevant grounding: context discharge, relevant atoms, combining.

The pipeline turns a knowledge base plus a validated session into the
combined relevant base (one conditional table per relevant object):

    discharge_contexts -> compute_ras -> restrict_rpb -> combine_rpb
    -> check_complete_quantification -> check_consistency
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

from .combining import CauseMechanism, RuleRegistry, builtin_registry
from .errors import ConflictingSentencesError, ConsistencyError, CycleError, QuantificationError
from .lang import (
    Const,
    KnowledgeBase,
    Obj,
    ValidatedSession,
    obj_of,
    obj_sort_key,
    val_of,
)
from .logic import (
    _Solver,
    _variable_typing,
    apply_subst,
    catom_key,
    ground_context_program,
)

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

    def atoms(self, kb: KnowledgeBase):
        for o in sorted(self.objs, key=obj_sort_key):
            for v in kb.val(o[0]):
                yield (o, v)


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


def discharge_contexts_detailed(kb: KnowledgeBase, session: ValidatedSession):
    """Every type-consistent ground PB instance whose context guard holds."""
    program = ground_context_program(kb, session.context, session.lo, session.hi)
    solver = _Solver(program)
    out = []
    seen = set()
    for s in kb.pb:
        atoms = [s.cons] + list(s.ante) + [a for _, a in s.context]
        var_domains, _ = _variable_typing(kb, atoms, session.lo, session.hi)
        if var_domains is None:
            continue
        names = list(var_domains)
        for combo in itertools.product(*(var_domains[n] for n in names)):
            subst = {n: Const(v) for n, v in zip(names, combo)}
            g_context = tuple(
                (sign, catom_key(apply_subst(a, subst))) for sign, a in s.context
            )
            if not all(
                solver.holds(atom) if sign else not solver.holds(atom)
                for sign, atom in g_context
            ):
                continue
            g_cons = apply_subst(s.cons, subst)
            g_ante = [apply_subst(a, subst) for a in s.ante]
            ante_pairs = {}
            coherent = True
            for a in g_ante:
                o, v = obj_of(a), val_of(a)
                if ante_pairs.get(o, v) != v:
                    coherent = False  # incoherent instance can never hold; drop it
                    break
                ante_pairs[o] = v
            if not coherent:
                continue
            gs = GroundSentence(
                (obj_of(g_cons), val_of(g_cons)),
                frozenset(ante_pairs.items()),
                s.alpha,
            )
            key = (gs.cons, gs.ante, gs.alpha, g_context)
            if key in seen:
                continue
            seen.add(key)
            out.append(DischargedInstance(gs, g_context))
    return out


def discharge_contexts(kb: KnowledgeBase, session: ValidatedSession):
    return {d.sentence for d in discharge_contexts_detailed(kb, session)}


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
            if s.cons[1] in cell and cell[s.cons[1]] != s.alpha:
                raise ConflictingSentencesError(
                    f"conflicting sentences for {s}: alpha {cell[s.cons[1]]} vs {s.alpha}"
                )
            cell[s.cons[1]] = s.alpha

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


def check_complete_quantification(base: CombinedBase, ras: RelevantAtomSet):
    gaps = quantification_gaps(base, ras)
    if gaps:
        raise QuantificationError(gaps)


def consistency_violations(base: CombinedBase):
    violations = []
    # (1) no object influenced by itself
    deps = {o: sorted(t.parents, key=obj_sort_key) for o, t in base.tables.items()}
    try:
        from .logic import _find_cycle

        _find_cycle(deps, "combined relevant base")
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


def build_combined_base(kb: KnowledgeBase, session: ValidatedSession, registry=None):
    """Run the whole relevance pipeline; returns (combined base, ras, discharged)."""
    discharged = discharge_contexts(kb, session)
    ras = compute_ras(kb, discharged, session)
    rpb = restrict_rpb(discharged, ras)
    base = combine_rpb(rpb, kb, registry)
    return base, ras, discharged
