"""Shared fixtures: the shipped knowledge bases and randomized KB corpora."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from importlib import resources

import pytest
from hypothesis import strategies as st

from ctxkb import (
    SessionInput,
    answer_query,
    combining,
    discharge_contexts,
    load_kb,
    parse_atom,
    parse_kb,
    validate_session,
)
from ctxkb.errors import ConflictingSentencesError, CtxkbError
from ctxkb.lang import TIME_DOMAIN, Atom, Const, TimeExpr, Var, atom_of, atom_slots, fill_slots, groundings
from ctxkb.parser import parse_atoms
from ctxkb.relevance import CombinedBase, ObjTable, Shape


def data_path(name: str) -> str:
    return str(resources.files("ctxkb.data").joinpath(name))


@pytest.fixture(scope="session")
def cardiac_kb():
    return load_kb(data_path("cardiac.ckb"))


@pytest.fixture(scope="session")
def paint_kb():
    return load_kb(data_path("paint.ckb"))


def session_for(kb, context="", evidence="", lo=0, hi=0, query=None):
    ctx = parse_atoms(kb, context) if context else []
    ev = parse_atoms(kb, evidence) if evidence else []
    q = parse_atom(kb, query) if query else None
    return validate_session(
        kb, SessionInput(context=tuple(ctx), evidence=tuple(ev), lo=lo, hi=hi, query=q)
    )


def outcome(kb, session):
    """Instance order and float-hex posteriors of an answer, or the error's type and message."""
    try:
        ans = answer_query(kb, session_for(kb, **session))
    except CtxkbError as e:
        return type(e).__name__, str(e)
    return [
        (sorted(theta.items()), vec.query_object, [p.hex() for p in vec.probabilities])
        for theta, vec in ans.instances
    ]


# ---------------------------------------------------------------------------
# Ground-atom, sentence, joint and KB-text helpers that only tests need


def obj_of(atom):
    """Random-variable identity of a ground p-atom: predicate plus all but the value."""
    return (atom.pred,) + tuple(a.value for a in atom.args[:-1])


def val_of(atom):
    return atom.args[-1].value


def ext(kb, atom):
    """All value-variants of a ground p-atom, in declared value order."""
    o = obj_of(atom)
    return tuple(atom_of(o, v) for v in kb.val(atom.pred))


def query_obj(query, theta):
    """The query's object under bindings ``theta``."""
    return fill_slots(atom_slots(query)[:-1], theta)


@dataclass(frozen=True)
class GroundSentence:
    """A context-free ground conditional: P(cons | ante) = alpha."""

    cons: tuple  # (Obj, value)
    ante: frozenset  # of (Obj, value); coherent
    alpha: float

    def __str__(self) -> str:
        cons = atom_of(*self.cons)
        if self.ante:
            ante = ", ".join(str(atom_of(o, v)) for o, v in sorted(self.ante))
            return f"P({cons} | {ante}) = {self.alpha}"
        return f"P({cons}) = {self.alpha}"


def total(joint):
    """Total mass of an ``oracle.JointDistribution``'s models."""
    return sum(p for _, p in joint.models)


def prob(joint, partial):
    """Total mass of the joint's models that agree with a partial object -> value map."""
    pos = {o: i for i, o in enumerate(joint.objs)}
    checks = [(pos[o], v) for o, v in partial.items()]
    return sum(p for m, p in joint.models if all(m[i] == v for i, v in checks))


def satisfaction_gap(joint, base):
    """Max violation of P(A0, ante) = alpha * P(ante) over every complete row of ``base``."""
    worst = 0.0
    for table in base.tables.values():
        for assignment, row in sorted(table.rows.items()):
            ante = dict(zip(table.parents, assignment))
            p_ante = prob(joint, ante)
            for v, alpha in zip(table.values, row):
                p_both = prob(joint, {**ante, table.obj: v})
                worst = max(worst, abs(p_both - alpha * p_ante))
    return worst


def pretty(kb):
    """The KB as text that ``parse_kb`` reads back to an equal KB."""
    out = []
    value_domains = {p.value_domain for p in kb.preds.values()}
    for dom in kb.domains.values():
        if dom.name == TIME_DOMAIN:
            continue
        kw = "value" if dom.name in value_domains else "domain"
        out.append(f"{kw} {dom.name} = {{ {', '.join(str(m) for m in dom.members)} }}.")
    for p in kb.preds.values():
        kw = "pred" if p.kind == "p" else "cpred"
        out.append(f"{kw} {p.name}({', '.join(p.attribute_domains)}).")
    for name, (rule, params) in sorted(kb.cr.items()):
        ps = ""
        if params:
            ps = "(" + ", ".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"
        out.append(f"combine {name} with {rule}{ps}.")
    out.extend(str(c) for c in kb.cb)
    out.extend(str(s) for s in kb.pb)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Randomized acyclic KB corpus
#
# Each generated KB has <= 10 objects (untimed unary predicates over a small
# constant domain), <= 4 values per predicate, <= 3 parents per object, strictly
# positive conditional rows (so any evidence is possible), and random context
# guards (a `flag`/`alt` pair switching between two complete row families, so
# the base stays completely quantified after discharge).


def _lattice_row(rng, k):
    weights = [rng.randint(1, 5) for _ in range(k)]
    total = sum(weights)
    row = [w / total for w in weights]
    row[-1] = 1.0 - sum(row[:-1])
    return row


def _cpt_lines(rng, pred, member, vals, parent_specs, guard):
    """Full conditional rows for one (predicate, member) family."""
    import itertools

    lines = []
    combos = itertools.product(*(pv for _, _, pv in parent_specs))
    for combo in combos:
        ante = ", ".join(
            f"{pp}({pm}, {v})" for (pp, pm, _), v in zip(parent_specs, combo)
        )
        row = _lattice_row(rng, len(vals))
        for v, a in zip(vals, row):
            head = f"prob {pred}({member}, {v})"
            if ante:
                head += f" | {ante}"
            head += f" = {a!r}"
            if guard:
                head += f" <- {guard}"
            lines.append(head + ".")
    return lines


def random_kb(seed: int, state_budget: int = 20000):
    """One random acyclic KB plus a session; returns (kb, session, meta)."""
    rng = random.Random(seed)
    members = ["a", "b", "c"][: rng.randint(1, 3)]
    n_preds = rng.randint(2, 10 // len(members))
    val_count = {f"p{i}": rng.randint(2, 4) for i in range(n_preds)}

    lines = [f"domain thing = {{ {', '.join(members)} }}."]
    for i in range(n_preds):
        vals = ", ".join(f"v{j}" for j in range(val_count[f"p{i}"]))
        lines.append(f"value p{i} = {{ {vals} }}.")
        lines.append(f"pred p{i}(thing).")
        lines.append(f"combine p{i} with noisy_max.")
    lines.append("cpred flag(thing).")
    lines.append("cpred alt(thing).")
    lines.append("ctx alt(X) <- not flag(X).")

    supported = []  # objects whose whole ancestry has complete rows
    state_product = 1
    for i in range(n_preds):
        pred = f"p{i}"
        vals = [f"v{j}" for j in range(val_count[pred])]
        for m in members:
            if rng.random() < 0.15 and i > 0:
                continue  # leave this object with no support at all
            if state_product * len(vals) > state_budget:
                continue
            n_parents = rng.randint(0, min(3, len(supported)))
            parents = rng.sample(supported, n_parents)
            parent_specs = [
                (pp, pm, [f"v{j}" for j in range(val_count[pp])]) for pp, pm in parents
            ]
            guard = None
            if rng.random() < 0.4:
                guard = rng.choice([f"flag({m})", f"alt({m})"])
                other = f"alt({m})" if guard.startswith("flag") else f"flag({m})"
                lines += _cpt_lines(rng, pred, m, vals, parent_specs, other)
            if n_parents >= 2 and rng.random() < 0.3:
                # split the parents into two independently quantified causes
                # so the combining rule actually runs
                cut = rng.randint(1, n_parents - 1)
                lines += _cpt_lines(rng, pred, m, vals, parent_specs[:cut], guard)
                lines += _cpt_lines(rng, pred, m, vals, parent_specs[cut:], guard)
            else:
                lines += _cpt_lines(rng, pred, m, vals, parent_specs, guard)
            supported.append((pred, m))
            state_product *= len(vals)

    kb = parse_kb("\n".join(lines) + "\n", f"<random-{seed}>")

    context = [f"flag({m})" for m in members if rng.random() < 0.5]
    ev_pool = [o for o in supported]
    rng.shuffle(ev_pool)
    evidence = []
    ev_objs = set()
    for pp, pm in ev_pool[: rng.randint(0, 2)]:
        evidence.append(f"{pp}({pm}, v{rng.randrange(val_count[pp])})")
        ev_objs.add((pp, pm))
    query_pred = rng.choice([f"p{i}" for i in range(n_preds)])
    query = f"{query_pred}(X, V)"

    session = session_for(
        kb,
        context=". ".join(context) + ("." if context else ""),
        evidence=". ".join(evidence) + ("." if evidence else ""),
        lo=0,
        hi=0,
        query=query,
    )
    meta = {"supported": supported, "members": members, "query_pred": query_pred}
    return kb, session, meta


# ---------------------------------------------------------------------------
# Randomized timed KB corpus
#
# Each generated KB has one or two members, one to three predicates over
# (thing, time) with two or three values, and a window of at most five steps
# (H <= 4) whose joint has at most 16,384 states, so enumeration stays far
# below DEFAULT_GUARD.  Every predicate has a start (a time-0 prior, possibly
# conditioned on a lower predicate, or a leak that holds at every time) and a
# persistence matrix on its own value at t-1, possibly with a second parent at
# t or t-1 or written with a variable value slot.  An optional second cause
# (its own value at t-2, another predicate of a free member Y at t-1, or a
# lower predicate at t) is combined with it by noisy-max.  Either may be
# guarded by the context chain on(X, t) (act starts it, stop ends it) with a
# sibling family under its negation, so every table stays complete.  Rows are
# strictly positive.  A window that starts at 1 leaves time-0 priors and the
# t-1 links into the window's first step outside it.

TIMED_STATE_BUDGET = 16384

TIMED_CONTEXT = """domain thing = { %s }.
cpred act(thing, time).
cpred stop(thing, time).
cpred on(thing, time).
ctx on(X, t) <- act(X, t).
ctx on(X, t) <- on(X, t-1), not stop(X, t).
"""


def _timed_family(rng, pred, vals, parents, guard):
    """Full rows for ``pred(X, t, .)`` given ``parents``: (pred, member term, time term, values)."""
    lines = []
    for combo in itertools.product(*(pv for _, _, _, pv in parents)):
        ante = ", ".join(f"{pp}({pm}, {pt}, {v})" for (pp, pm, pt, _), v in zip(parents, combo))
        for v, a in zip(vals, _lattice_row(rng, len(vals))):
            line = f"prob {pred}(X, t, {v})" + (f" | {ante}" if ante else "") + f" = {a!r}"
            lines.append(line + (f" <- {guard}." if guard else "."))
    return lines


def _persistence_with_value_slot(rng, pred, vals, guard):
    """The diagonal as one sentence with a variable value slot, the rest cell by cell."""
    stay = rng.choice([0.5, 0.7, 0.9])
    tail = f" <- {guard}." if guard else "."
    lines = [f"prob {pred}(X, t, V) | {pred}(X, t-1, V) = {stay!r}{tail}"]
    for u in vals:
        for v in vals:
            if v != u:
                move = (1.0 - stay) / (len(vals) - 1)
                lines.append(f"prob {pred}(X, t, {v}) | {pred}(X, t-1, {u}) = {move!r}{tail}")
    return lines


def _guarded(rng, draw, family):
    """``family(guard)`` unguarded, or once under an ``on`` literal and once under its negation."""
    if not draw(st.booleans()):
        return family(None)
    on = draw(st.sampled_from(["on(X, t)", "on(X, t-1)"]))
    return family(on) + family(f"not {on}")


@st.composite
def timed_kbs(draw):
    """(KB text, session keywords, duplicate-cell sentence) of one random timed KB."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    members = ["a", "b"][: draw(st.integers(1, 2))]
    n_preds = draw(st.integers(1, 3))
    vals = {f"p{i}": [f"v{j}" for j in range(draw(st.sampled_from([2, 2, 3])))] for i in range(n_preds)}
    step_states = 1
    for vs in vals.values():
        step_states *= len(vs) ** len(members)
    max_steps = 1
    while max_steps < 5 and step_states ** (max_steps + 1) <= TIMED_STATE_BUDGET:
        max_steps += 1
    lo = draw(st.sampled_from([0, 0, 1]))
    hi = lo + draw(st.integers(min(1, max_steps - 1), max_steps - 1))

    lines = [TIMED_CONTEXT % ", ".join(members)]
    for p in vals:
        lines += [f"value {p} = {{ {', '.join(vals[p])} }}.", f"pred {p}(thing, time).",
                  f"combine {p} with noisy_max."]
    dup = None
    for i, p in enumerate(vals):
        lower = [f"p{j}" for j in range(i)]
        second = draw(st.sampled_from(["none", "t-2", "free"] + (["same"] if lower else [])))
        if draw(st.booleans()):  # a leak: a parentless cause at every time
            start = _timed_family(rng, p, vals[p], [], None)
        else:  # a time-0 prior, possibly on a lower predicate at time 0
            parents = []
            if lower and second != "same" and draw(st.booleans()):
                q = draw(st.sampled_from(lower))
                parents = [(q, "X", 0, vals[q])]
            start = [line.replace("(X, t,", "(X, 0,", 1) for line in _timed_family(rng, p, vals[p], parents, None)]
        lines += start
        dup = dup or start[0]

        extra = draw(st.sampled_from(["none", "none", "t", "t-1"]))
        if extra == "none" and draw(st.booleans()):
            lines += _guarded(rng, draw, lambda g: _persistence_with_value_slot(rng, p, vals[p], g))
        else:
            parents = [(p, "X", "t-1", vals[p])]
            if extra == "t" and lower:
                q = draw(st.sampled_from(lower))
                parents.append((q, "X", "t", vals[q]))
            elif extra == "t-1" and n_preds > 1:
                q = draw(st.sampled_from([q for q in vals if q != p]))
                parents.append((q, "X", "t-1", vals[q]))
            lines += _guarded(rng, draw, lambda g: _timed_family(rng, p, vals[p], parents, g))

        if second == "t-2":
            parents = [(p, "X", "t-2", vals[p])]
        elif second == "free":
            # a free member Y: one cause per member, combined across the domain
            if n_preds > 1:
                q = draw(st.sampled_from([q for q in vals if q != p]))
                parents = [(q, "Y", "t-1", vals[q])]
            else:
                parents = [(p, "Y", "t-2", vals[p])]
        elif second == "same":
            q = draw(st.sampled_from(lower))
            parents = [(q, "X", "t", vals[q])]
        if second != "none":
            lines += _guarded(rng, draw, lambda g: _timed_family(rng, p, vals[p], parents, g))

    times = range(lo, hi + 1)
    context = [f"{c}({m}, {t})" for c in ("act", "stop") for m in members for t in times
               if draw(st.integers(0, 3)) == 0]
    objs = [(p, m, t) for p in vals for m in members for t in times]
    n_evidence = draw(st.integers(0, 2))
    observed = draw(st.lists(st.sampled_from(objs), min_size=n_evidence, max_size=n_evidence, unique=True))
    evidence = [f"{p}({m}, {t}, {draw(st.sampled_from(vals[p]))})" for p, m, t in observed]
    q = draw(st.sampled_from(list(vals)))
    who = draw(st.sampled_from(["X"] + members))
    when = draw(st.sampled_from(["T", str(hi)] + [str(t) for t in times]))
    session = {
        "context": "".join(f"{a}. " for a in context),
        "evidence": "".join(f"{a}. " for a in evidence),
        "lo": lo,
        "hi": hi,
        "query": f"{q}({who}, {when}, V)",
    }
    alpha = float(dup.rsplit("= ", 1)[1].rstrip("."))
    dup = f"{dup.rsplit('= ', 1)[0]}= {alpha / 2!r}."
    return "\n".join(lines) + "\n", session, dup


def ground_sentences(records):
    """The flat view of discharge records: one ``GroundSentence`` per cell."""
    return {
        GroundSentence((obj, v), frozenset(zip(parents, us)), alpha)
        for obj, parents, _, cells in records
        for v, us, alpha in cells
    }


def naive_ras_objs(kb, session):
    """Independent atom-level relevant-set fixpoint, for cross-checking."""
    discharged = ground_sentences(discharge_contexts(kb, session))
    atoms = set()
    for o in session.evidence:
        for v in kb.val(o[0]):
            atoms.add((o, v))
    changed = True
    while changed:
        changed = False
        for s in discharged:
            if all(pair in atoms for pair in s.ante):
                for v in kb.val(s.cons[0][0]):
                    if (s.cons[0], v) not in atoms:
                        atoms.add((s.cons[0], v))
                        changed = True
    return {o for o, _ in atoms}


def apply_subst(atom, theta):
    """``atom`` with each variable replaced by its ``Const`` in ``theta``, which binds them all.

    A ground-only reference that works on parse trees, apart from the engine's
    ``lang.fill_slots``: ``X`` becomes ``theta["X"]`` and ``T-1`` one less than ``theta["T"]``.
    """

    def term(t):
        if isinstance(t, Var):
            return theta[t.name]
        if isinstance(t, TimeExpr):
            return Const(theta[t.var].value + t.offset)
        return t

    return Atom(atom.pred, tuple(map(term, atom.args)))


def catom_key(atom):
    """A ground atom as the engine holds it: the plain tuple (pred, *values)."""
    return (atom.pred,) + tuple(t.value for t in atom.args)


def reference_ground_program(kb, lo, hi):
    """Every context clause grounded over the whole window, up front: ground head -> its bodies.

    Each clause over every typed substitution, through ``apply_subst``, in
    text order; each body is a tuple of (sign, ground c-atom).
    """
    clauses: dict = {}
    for c in kb.cb:
        for theta in groundings(kb, [c.head] + [a for _, a in c.body], lo, hi):
            theta = {n: Const(v) for n, v in theta.items()}
            body = tuple((sign, catom_key(apply_subst(a, theta))) for sign, a in c.body)
            clauses.setdefault(catom_key(apply_subst(c.head, theta)), []).append(body)
    return clauses


def reference_holds(kb, session):
    """Truth of a ground c-atom under the completion: a plain memoised evaluator over
    ``reference_ground_program``, for acyclic programs."""
    clauses = reference_ground_program(kb, session.lo, session.hi)
    memo = dict.fromkeys(session.context, True)

    def holds(atom):
        if atom not in memo:
            memo[atom] = any(all(holds(b) == sign for sign, b in body) for body in clauses.get(atom, ()))
        return memo[atom]

    return holds


def forward_discharge(kb, session):
    """Every ground PB instance in the window whose guard holds, grounded forward.

    Each sentence over every typed substitution, through ``apply_subst``, its
    guard decided by ``reference_holds``: an independent reference for
    ``discharge_contexts``.
    """
    holds = reference_holds(kb, session)
    out = set()
    for s in kb.pb:
        for theta in groundings(kb, list(s.atoms()), session.lo, session.hi):
            theta = {n: Const(v) for n, v in theta.items()}
            if not all(holds(catom_key(apply_subst(a, theta))) == sign for sign, a in s.context):
                continue
            ante = {}
            for a in s.ante:
                g = apply_subst(a, theta)
                if ante.setdefault(obj_of(g), val_of(g)) != val_of(g):
                    break
            else:
                g = apply_subst(s.cons, theta)
                out.add(GroundSentence((obj_of(g), val_of(g)), frozenset(ante.items()), s.alpha))
    return out


# ---------------------------------------------------------------------------
# Sentence-based combining, as ctxkb did it before discharge produced records:
# a reference for ``relevance.combine_rpb``.


def reference_restrict_rpb(sentences, ras):
    """Keep only sentences whose consequent and antecedents are all relevant."""
    return {
        s
        for s in sentences
        if s.cons[0] in ras.objs and all(o in ras.objs for o, _ in s.ante)
    }


def reference_combine(sentences, kb, ras):
    """Restrict ground sentences to ``ras``, then regroup them per value into tables."""
    rpb = reference_restrict_rpb(sentences, ras)
    by_obj: dict = {}
    for s in rpb:
        by_obj.setdefault(s.cons[0], []).append(s)

    base = CombinedBase()
    for obj in sorted(by_obj):
        sentences = by_obj[obj]
        values = kb.val(obj[0])
        rule_name, params = kb.combining_rule_for(obj[0])
        rule = combining.rule(rule_name)

        # rule groups: one candidate mechanism per (antecedent objects, value assignment)
        groups: dict = {}
        for s in sentences:
            objset = tuple(sorted(o for o, _ in s.ante))
            assignment = tuple(v for o, v in sorted(s.ante))
            cell = groups.setdefault((objset, assignment), {})
            if cell.setdefault(s.cons[1], s.alpha) != s.alpha:
                raise _reference_first_conflict(sentences)

        cause_sets = sorted({objset for objset, _ in groups})
        parents = tuple(sorted({o for objset in cause_sets for o in objset}))
        parent_pos = {o: i for i, o in enumerate(parents)}

        table = ObjTable(obj, parents, Shape(values, {}, []))
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
                mechanisms.append(tuple(cell[v] for v in values))
            if cell_missing:
                table.rows[combo] = None
                table.missing.extend(cell_missing)
            elif not mechanisms:
                table.rows[combo] = None
                table.missing.append((combo, None))
            elif len(mechanisms) == 1:
                table.rows[combo] = mechanisms[0]
            else:
                table.rows[combo] = tuple(rule(obj, mechanisms, values, params))
        base.tables[obj] = table
    return base


def _reference_first_conflict(sentences):
    """The clash met first in text order: two alphas for one consequent and antecedent."""
    seen: dict = {}
    for s in sorted(sentences, key=str):
        other = seen.setdefault((s.cons, s.ante), s)
        if other.alpha != s.alpha:
            return ConflictingSentencesError(
                f"conflicting sentences for {s}: alpha {other.alpha} vs {s.alpha}"
            )
