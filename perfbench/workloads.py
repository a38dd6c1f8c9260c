"""The three workloads: seeded inputs, one operation, and its correctness check.

Every workload is a list of rounds.  A round holds the same kinds of
operation in every run and for every seed (the seed draws plans, evidence and
order), so the latencies of two runs come from the same mix.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from procs import run_child, thread_env
from reference import CardiacReference, PaintReference, load_gen_cardiac, mismatch

PERSONS = ("john", "mary")
POOL_ROUNDS = 4  # distinct rounds generated in set-up; longer runs cycle through them


@dataclass
class Spec:
    """One operation's inputs, as text a user would write."""

    context: str
    evidence: str
    query: str
    lo: int
    hi: int
    reference: object  # () -> {binding tuple: posterior} (or t -> that, for projections)
    session: object = None  # parsed SessionInput, filled in set-up
    _expect: dict = None

    @property
    def expect(self):
        """Reference answers, computed on first use: after the timed call, not in set-up."""
        if self._expect is None:
            self._expect = self.reference()
        return self._expect


def _atoms_text(atoms):
    return " ".join(f"{a}." for a in atoms)


class Workload:
    name = ""
    kb_file = ""
    tail_pct = 75  # fixed, so that every commit reports the same percentile
    min_ops = 40  # enough for ten samples beyond tail_pct
    horizon = 0
    in_children = False  # operations run as child processes

    def __init__(self, root: Path, seed: int, workdir: Path):
        import ctxkb

        self.ctxkb = ctxkb
        self.workdir = workdir
        self.kb_path = root / "src" / "ctxkb" / "data" / self.kb_file
        self.kb = ctxkb.load_kb(self.kb_path)
        self.rounds = [self.make_round(random.Random(seed * 7919 + r), r) for r in range(POOL_ROUNDS)]
        for specs in self.rounds:
            for spec in specs:
                spec.session = ctxkb.SessionInput(
                    context=tuple(ctxkb.parse_atoms(self.kb, spec.context)),
                    evidence=tuple(ctxkb.parse_atoms(self.kb, spec.evidence)),
                    lo=spec.lo,
                    hi=spec.hi,
                    query=ctxkb.parse_atom(self.kb, spec.query),
                )
                ctxkb.validate_session(self.kb, spec.session)

    # -- to be provided by each workload -----------------------------------

    def make_round(self, rng, r):
        """Round ``r`` of the pool, drawn from ``rng``."""
        raise NotImplementedError

    def bench_plan_times(self):
        """Plan times for the paper's encoding comparison at this workload's horizon."""
        return [0]

    # -- one operation ------------------------------------------------------

    def run(self, spec):
        return self.ctxkb.answer_query(self.kb, spec.session)

    def check(self, spec, answer):
        """None when ``answer`` matches the reference, else why it does not."""
        got = [(tuple(sorted(theta.items())), vec.probabilities) for theta, vec in answer.instances]
        return check_instances(got, spec.expect)

    def cli_args(self, command, spec, tag):
        """Arguments of ``ctxkb query`` or ``ctxkb project`` for one spec; writes its input files."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        ctx = self.workdir / f"{tag}.ctx"
        ev = self.workdir / f"{tag}.ev"
        ctx.write_text(spec.context + "\n", encoding="utf-8")
        ev.write_text(spec.evidence + "\n", encoding="utf-8")
        ctx_flag = "--plan" if command == "project" else "--context"
        return [command, str(self.kb_path), ctx_flag, str(ctx), "--evidence", str(ev), "--query", spec.query,
                "--from", str(spec.lo), "--to", str(spec.hi), "--format", "json"]


def draw_plan_and_evidence(rng, window, rhythms):
    """A seeded plan over [0, window) and rhythm evidence at t=0 for both persons.

    At most one intervention and one medication per person per minute: two
    at once make two rhythm matrices apply, which ctxkb rejects.
    """
    plan, atoms = set(), []
    for person in PERSONS:
        for t in range(window):
            inter = rng.choice((None, None, None, "dfib", "cpr"))
            med = rng.choice((None, None, None, "epi", "lido", "atro"))
            for act in (inter, med):
                if act is not None:
                    plan.add((act, person, t))
                    atoms.append(f"{act}({person}, {t})")
    rhythm0 = {p: rng.choice(rhythms) for p in PERSONS}
    evidence = [f"rhythm({p}, 0, {rhythm0[p]})" for p in PERSONS]
    return plan, _atoms_text(atoms), rhythm0, _atoms_text(evidence)


def check_instances(got, expect):
    want = sorted(expect.items())
    if [b for b, _ in got] != [b for b, _ in want]:
        return f"instances {[b for b, _ in got]} differ from the expected {[b for b, _ in want]}"
    for (binding, probs), (_, ref) in zip(got, want):
        why = mismatch(probs, ref)
        if why:
            return f"{dict(binding)}: {why}"
    return None


class _Cardiac(Workload):
    kb_file = "cardiac.ckb"

    def __init__(self, root, seed, workdir):
        self.ref = CardiacReference(load_gen_cardiac(root))
        super().__init__(root, seed, workdir)

    def expected(self, plan, rhythm0, pred, who, t):
        persons = PERSONS if who == "X" else (who,)
        return {
            ((("X", p),) if who == "X" else ()): self.ref.posterior(plan, rhythm0[p], p, pred, t)
            for p in persons
        }

    def reference(self, plan, rhythm0, pred, who, times):
        if isinstance(times, int):
            return lambda: self.expected(plan, rhythm0, pred, who, times)
        return lambda: {t: self.expected(plan, rhythm0, pred, who, t) for t in times}


class CardiacQuery(_Cardiac):
    """One ``answer_query`` on cardiac.ckb over a fixed window [0, H]."""

    name = "cardiac-query"
    horizon = 6
    tail_pct = 90
    min_ops = 100

    def make_round(self, rng, r):
        # query times alternate between rounds: odd minutes, then even minutes
        specs = []
        for pred in ("rhythm", "cd"):
            for who in ("john", "mary", "X"):
                for t in range(1 + r % 2, self.horizon + 1, 2):
                    plan, ctx, rhythm0, ev = draw_plan_and_evidence(rng, self.horizon, self.ref.rhythms)
                    specs.append(Spec(ctx, ev, f"{pred}({who}, {t}, V)", 0, self.horizon,
                                      self.reference(plan, rhythm0, pred, who, t)))
        rng.shuffle(specs)
        return specs


class CardiacProject(_Cardiac):
    """One ``ctxkb project ... --format json`` process over [0, W]."""

    name = "cardiac-project"
    horizon = 2
    tail_pct = 75
    min_ops = 40
    in_children = True

    def make_round(self, rng, r):
        specs = []
        for pred in ("rhythm", "cd"):
            for who in ("john", "mary", "X"):
                plan, ctx, rhythm0, ev = draw_plan_and_evidence(rng, self.horizon, self.ref.rhythms)
                times = range(self.horizon + 1)
                specs.append(Spec(ctx, ev, f"{pred}({who}, T, V)", 0, self.horizon,
                                  self.reference(plan, rhythm0, pred, who, times)))
        rng.shuffle(specs)
        return specs

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.env = thread_env(root)
        self.argv = {
            id(spec): self.cli_args("project", spec, f"r{r}s{i}")
            for r, specs in enumerate(self.rounds)
            for i, spec in enumerate(specs)
        }

    def cli_argv(self, spec):
        return self.argv[id(spec)]

    def run(self, spec):
        code, out, err = run_child([sys.executable, "-m", "ctxkb.cli", *self.cli_argv(spec)], self.env)
        if code != 0:
            raise RuntimeError(f"ctxkb project exited {code}: {err.strip()[-300:]}")
        return out

    def check(self, spec, out):
        try:
            payload = json.loads(out)
        except ValueError as e:
            return f"output is not JSON: {e}"
        steps = payload.get("timesteps", [])
        if [s.get("t") for s in steps] != list(range(spec.lo, spec.hi + 1)):
            return f"timesteps {[s.get('t') for s in steps]} differ from {spec.lo}..{spec.hi}"
        pred = spec.query.split("(", 1)[0]
        values = list(self.ref.rhythms if pred == "rhythm" else self.ref.cd)
        for step in steps:
            got = []
            for inst in step["instances"]:
                if inst["values"] != values:
                    return f"t={step['t']}: values {inst['values']} differ from {values}"
                got.append((tuple(sorted(inst["bindings"].items())), inst["posterior"]))
            why = check_instances(got, spec.expect[step["t"]])
            if why:
                return f"t={step['t']}: {why}"
        return None


class PaintHorizon(Workload):
    """One ``answer_query`` on paint.ckb at a fixed long horizon, without evidence."""

    name = "paint-horizon"
    kb_file = "paint.ckb"
    horizon = 240
    tail_pct = 75
    min_ops = 45
    first_steps = 5  # paint actions fall only in [0, first_steps)

    def __init__(self, root, seed, workdir):
        self.ref = PaintReference(root / "src" / "ctxkb" / "data" / self.kb_file)
        super().__init__(root, seed, workdir)

    def make_round(self, rng, r):
        # one operation per last paint time, so each round builds the same network sizes
        specs = []
        for last in range(self.first_steps):
            times = {t for t in range(last) if rng.random() < 0.5} | {last}
            ctx = _atoms_text(f"paint(door, {t})" for t in sorted(times))
            specs.append(Spec(ctx, "", f"painted(door, {self.horizon}, V)", 0, self.horizon,
                              lambda times=times: {(): self.ref.posterior(times, self.horizon)}))
        rng.shuffle(specs)
        return specs

    def bench_plan_times(self):
        return sorted(
            int(a.args[1].value) for a in self.rounds[0][0].session.context
        )


WORKLOADS = {w.name: w for w in (CardiacQuery, CardiacProject, PaintHorizon)}
