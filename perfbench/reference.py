"""Reference answers computed apart from ctxkb.

Both references are forward recursions over hidden-state chains.  They read
their numbers from the sources the knowledge bases are made from (the
sentences of ``paint.ckb`` and the tables of ``tools/gen_cardiac.py``), not
from ctxkb's parser, grounding, network or elimination code.
"""

from __future__ import annotations

import importlib.util
import math
import re
from pathlib import Path

import numpy as np

TOL = 1e-9

_PAINT_PROB = re.compile(
    r"^prob painted\(X, (0|t), (\w+)\)"
    r"(?: \| painted\(X, t-1, (\w+)\))?"
    r" = ([0-9.eE+-]+)"
    r"(?: <- (not )?paint\(X, t-1\))?\.$"
)


class PaintReference:
    """Two-state forward recursion built from the eight sentences of paint.ckb."""

    def __init__(self, kb_path: Path):
        values = None
        prior, act, persist = {}, {}, {}
        n = 0
        for line in Path(kb_path).read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            m = re.match(r"^value painted = \{ (.*) \}\.$", line)
            if m:
                values = tuple(v.strip() for v in m.group(1).split(","))
            if not line.startswith("prob "):
                continue
            m = _PAINT_PROB.match(line)
            if m is None:
                raise ValueError(f"paint reference: unexpected sentence {line!r}")
            t, to, frm, alpha, neg = m.groups()
            alpha = float(alpha)
            n += 1
            if t == "0":
                prior[to] = alpha
            elif frm is None and neg is None:
                act[to] = alpha
            elif frm is not None and neg is not None:
                persist[(frm, to)] = alpha
            else:
                raise ValueError(f"paint reference: unexpected sentence {line!r}")
        if n != 8 or values != ("no", "yes") or len(prior) != 2 or len(act) != 2 or len(persist) != 4:
            raise ValueError("paint reference: paint.ckb no longer has its eight sentences")
        self.values = values
        self.prior, self.act, self.persist = prior, act, persist

    def posterior(self, paint_times, t_query: int) -> tuple:
        """P(painted(door, t_query)) given paint actions at ``paint_times``."""
        p = dict(self.prior)
        for t in range(1, t_query + 1):
            if t - 1 in paint_times:
                p = dict(self.act)
            else:
                p = {
                    to: sum(p[frm] * self.persist[(frm, to)] for frm in self.values)
                    for to in self.values
                }
        return tuple(p[v] for v in self.values)


def load_gen_cardiac(root: Path):
    """Import tools/gen_cardiac.py as a module without running its main()."""
    path = Path(root) / "tools" / "gen_cardiac.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen_cardiac", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CardiacReference:
    """Forward recursion per person over the joint (rhythm, poa, cd) chain.

    Blood flow is a deterministic function of the rhythm, so it is folded
    into the poa transition.  Evidence on the rhythm at t=0 is clamped.
    """

    INTERVENTIONS = ("dfib", "cpr")
    MEDICATIONS = ("epi", "lido", "atro")

    def __init__(self, gen):
        self.rhythms, self.poa, self.cd = gen.RHYTHMS, gen.POA, gen.CD
        R, Q, D = len(self.rhythms), len(self.poa), len(self.cd)
        self.rhythm_T = {
            (inter, med): np.array(
                [[gen.rhythm_row(inter, med, frm)[to] for to in self.rhythms] for frm in self.rhythms]
            )
            for inter in gen.INTERVENTIONS
            for med in gen.MEDS
        }
        # poa_T[r, q, k] = P(poa_t = k | cbf(rhythm_{t-1} = r), poa_{t-1} = q)
        poa_T = np.zeros((R, Q, Q))
        for ri, r in enumerate(self.rhythms):
            cbf = "present" if gen.PERFUSING[r] else "absent"
            for qi, q in enumerate(self.poa):
                row = gen.poa_row(cbf, q)
                poa_T[ri, qi] = [row[k] for k in self.poa]
        self.poa_T = poa_T
        # cd_T[k, d, e] = P(cd_t = e | poa_t = k, cd_{t-1} = d); severe absorbs
        cd_T = np.zeros((Q, D, D))
        for ki, k in enumerate(self.poa):
            for di, d in enumerate(self.cd):
                cd_T[ki, di] = (0, 0, 0, 1) if d == "severe" else gen.CD_ROWS[k][d]
        self.cd_T = cd_T
        self.m_rhythm = np.array([gen.MARGINALS["rhythm"][v] for v in self.rhythms])
        self.m_poa = np.array([gen.MARGINALS["poa"][v] for v in self.poa])
        self.m_cd = np.array([gen.MARGINALS["cd"][v] for v in self.cd])

    def context_at(self, plan, person: str, t: int):
        """(intervention, medication) context of ``person`` at minute ``t``."""
        inter = [a for a in self.INTERVENTIONS if (a, person, t) in plan]
        med = [a for a in self.MEDICATIONS if (a, person, t) in plan]
        if len(inter) > 1 or len(med) > 1:
            raise ValueError(f"plan has two interventions or medications for {person} at {t}")
        return (inter[0] if inter else "no_inter", med[0] if med else "no_med")

    def posterior(self, plan, rhythm0, person: str, pred: str, t_query: int) -> tuple:
        """P(pred(person, t_query)) given the plan and rhythm evidence at t=0.

        ``plan`` is a set of (action, person, minute); ``rhythm0`` is the
        observed rhythm of this person at t=0, or None.
        """
        if rhythm0 is None:
            p_r = self.m_rhythm
        else:
            p_r = np.array([1.0 if r == rhythm0 else 0.0 for r in self.rhythms])
        joint = np.einsum("r,q,d->rqd", p_r, self.m_poa, self.m_cd)
        for t in range(1, t_query + 1):
            T = self.rhythm_T[self.context_at(plan, person, t - 1)]
            joint = np.einsum("rqd,rs,rqk,kde->ske", joint, T, self.poa_T, self.cd_T)
        axes = {"rhythm": (1, 2), "poa": (0, 2), "cd": (0, 1)}[pred]
        return tuple(float(x) for x in joint.sum(axis=axes))


def mismatch(got, want, tol: float = TOL):
    """Why ``got`` is not an acceptable posterior equal to ``want``, or None."""
    got = tuple(got)
    if len(got) != len(want):
        return f"posterior has {len(got)} entries, expected {len(want)}"
    if not all(math.isfinite(p) for p in got):
        return f"posterior {got} has a non-finite entry"
    if abs(sum(got) - 1.0) > tol:
        return f"posterior sums to {sum(got)!r}"
    worst = max(abs(a - b) for a, b in zip(got, want))
    if worst > tol:
        return f"posterior {got} differs from the reference {tuple(want)} by {worst:.3e}"
    return None
