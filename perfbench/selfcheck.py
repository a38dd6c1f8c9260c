"""Self-check of the references: they agree with ctxkb's enumeration oracle on
short windows, and the answer check rejects wrong answers.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from reference import CardiacReference, PaintReference, load_gen_cardiac  # noqa: E402
from workloads import PERSONS, check_instances, draw_plan_and_evidence  # noqa: E402

SEEDS = range(3)


def _session(ctxkb, kb, context, evidence, query, hi):
    return ctxkb.SessionInput(
        context=tuple(ctxkb.parse_atoms(kb, context)),
        evidence=tuple(ctxkb.parse_atoms(kb, evidence)),
        lo=0,
        hi=hi,
        query=ctxkb.parse_atom(kb, query),
    )


def _oracle(ctxkb, kb, session):
    return [(tuple(sorted(theta.items())), vec.probabilities) for theta, vec in ctxkb.oracle_answer(kb, session)]


def cardiac_cases(ctxkb):
    """(label, oracle answer, reference answer) on windows of one and two minutes."""
    ref = CardiacReference(load_gen_cardiac(ROOT))
    kb = ctxkb.load_kb(ROOT / "src" / "ctxkb" / "data" / "cardiac.ckb")
    for seed in SEEDS:
        rng = random.Random(seed)
        for window in (1, 2):
            plan, ctx, rhythm0, ev = draw_plan_and_evidence(rng, window, ref.rhythms)
            for pred in ("rhythm", "cd"):
                for who in ("john", "X"):
                    query = f"{pred}({who}, {window}, V)"
                    persons = PERSONS if who == "X" else (who,)
                    want = {
                        ((("X", p),) if who == "X" else ()): ref.posterior(plan, rhythm0[p], p, pred, window)
                        for p in persons
                    }
                    got = _oracle(ctxkb, kb, _session(ctxkb, kb, ctx, ev, query, window))
                    yield f"cardiac seed={seed} {query} plan=[{ctx}] evidence=[{ev}]", got, want


def paint_cases(ctxkb):
    kb_path = ROOT / "src" / "ctxkb" / "data" / "paint.ckb"
    ref = PaintReference(kb_path)
    kb = ctxkb.load_kb(kb_path)
    for seed in SEEDS:
        rng = random.Random(seed)
        for window in range(1, 7):
            times = {t for t in range(window) if rng.random() < 0.4}
            ctx = " ".join(f"paint(door, {t})." for t in sorted(times))
            query = f"painted(door, {window}, V)"
            got = _oracle(ctxkb, kb, _session(ctxkb, kb, ctx, "", query, window))
            yield f"paint {query} paint at {sorted(times)}", got, {(): ref.posterior(times, window)}


def wrong_answers(got):
    """Answers the check must reject: shifted mass, unnormalized, reordered, missing."""
    (b0, p0), rest = got[0], got[1:]
    shifted = tuple(p0[:1]) + (p0[1] + 1e-6,) + tuple(p0[2:])
    shifted = (shifted[0] - 1e-6,) + shifted[1:]
    yield "mass moved by 1e-6", [(b0, shifted)] + rest
    yield "unnormalized", [(b0, tuple(p * 1.001 for p in p0))] + rest
    yield "values reversed", [(b0, tuple(reversed(p0)))] + rest
    if rest:
        yield "instances reordered", list(reversed(got))
    yield "instance missing", got[1:] if rest else []


def main():
    import ctxkb

    failures = 0
    n = 0
    for cases in (cardiac_cases(ctxkb), paint_cases(ctxkb)):
        for label, got, want in cases:
            n += 1
            why = check_instances(got, want)
            if why:
                failures += 1
                print(f"reference disagrees with enumeration: {label}: {why}")
                continue
            for how, bad in wrong_answers(got):
                if bad == got or check_instances(bad, want) is None:
                    failures += 1
                    print(f"check accepted a wrong answer ({how}): {label}")
    print(f"references vs enumeration: {n} cases, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
