"""Shared fixtures: the shipped knowledge bases and a randomized KB corpus."""

from __future__ import annotations

import random
from importlib import resources

import pytest

from ctxkb import (
    SessionInput,
    discharge_contexts,
    load_kb,
    parse_atom,
    parse_kb,
    validate_session,
)
from ctxkb.lang import obj_of, val_of
from ctxkb.logic import _Solver, apply_subst, catom_key, ground_context_program, groundings
from ctxkb.parser import parse_atoms
from ctxkb.relevance import GroundSentence


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


def naive_ras_objs(kb, session):
    """Independent atom-level relevant-set fixpoint, for cross-checking."""
    discharged = discharge_contexts(kb, session)
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


def forward_discharge(kb, session):
    """Every ground PB instance in the window whose guard holds, grounded forward.

    Each sentence over every typed substitution, through ``apply_subst``: an
    independent reference for ``discharge_contexts``.
    """
    solver = _Solver(ground_context_program(kb, session.context, session.lo, session.hi))
    out = set()
    for s in kb.pb:
        for theta in groundings(kb, list(s.atoms()), session.lo, session.hi):
            if not solver.proves((sign, catom_key(apply_subst(a, theta))) for sign, a in s.context):
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
