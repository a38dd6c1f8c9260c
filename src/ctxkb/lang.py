"""Abstract syntax for rule knowledge bases, sessions, and ground atoms.

A knowledge base has four parts: predicate declarations with typed, finite
attribute domains; a probabilistic base of context-guarded conditional
probability sentences; a context base of acyclic normal-logic-program clauses
over deterministic context predicates; and a per-predicate combining rule
assignment.  The last attribute of a probabilistic predicate carries the
random variable's value; the remaining attributes identify the variable
(its "object").  On construction the probabilistic base is folded into
link-matrix schemas: sentences that differ only in constant values share one
schema and each adds one cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import Diagnostic, SessionError

TIME_DOMAIN = "time"

ConstValue = Union[str, int]
Obj = tuple  # (predicate, arg1, ..., argk) — ground object identity


# ---------------------------------------------------------------------------
# Terms and atoms


@dataclass(frozen=True)
class Const:
    value: ConstValue

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TimeExpr:
    """A time variable plus an integer offset, e.g. ``t-1``."""

    var: str
    offset: int

    def __str__(self) -> str:
        if self.offset == 0:
            return self.var
        sign = "+" if self.offset > 0 else "-"
        return f"{self.var}{sign}{abs(self.offset)}"


Term = Union[Const, Var, TimeExpr]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"

    def is_ground(self) -> bool:
        return all(isinstance(a, Const) for a in self.args)


Literal = tuple  # (positive: bool, Atom)


def lit_str(lit: Literal) -> str:
    positive, atom = lit
    return str(atom) if positive else f"not {atom}"


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class AttributeDomain:
    name: str
    members: tuple  # ordered constants; empty only for the built-in time domain

    def __contains__(self, v) -> bool:
        if self.name == TIME_DOMAIN:
            return isinstance(v, int)
        return v in self.members


TIME = AttributeDomain(TIME_DOMAIN, ())


@dataclass(frozen=True)
class PredicateDecl:
    name: str
    kind: str  # "p" or "c"
    attribute_domains: tuple  # domain names; for p-predicates, value excluded
    value_domain: Optional[str] = None  # p-predicates only

    @property
    def arity(self) -> int:
        return len(self.attribute_domains) + (1 if self.kind == "p" else 0)

    def time_position(self) -> Optional[int]:
        for i, d in enumerate(self.attribute_domains):
            if d == TIME_DOMAIN:
                return i
        return None


@dataclass(frozen=True)
class ProbSentence:
    """``prob cons | ante = alpha <- context.``"""

    cons: Atom
    ante: tuple  # of Atom
    alpha: float
    context: tuple = ()  # of Literal

    def atoms(self) -> Iterator[Atom]:
        yield self.cons
        yield from self.ante
        for _, a in self.context:
            yield a

    def __str__(self) -> str:
        s = f"prob {self.cons}"
        if self.ante:
            s += " | " + ", ".join(str(a) for a in self.ante)
        s += f" = {format_prob(self.alpha)}"
        if self.context:
            s += " <- " + ", ".join(lit_str(l) for l in self.context)
        return s + "."


def term_slot(term) -> tuple:
    """A term as (variable name, offset), or (None, value) for a constant."""
    if isinstance(term, Const):
        return None, term.value
    if isinstance(term, TimeExpr):
        return term.var, term.offset
    return term.name, 0


def atom_slots(atom: Atom) -> tuple:
    """An atom as slots, its predicate a leading constant, so ``fill_slots`` grounds it whole."""
    return ((None, atom.pred),) + tuple(map(term_slot, atom.args))


def fill_slots(slots, theta) -> tuple:
    """The ground values of slots under ``theta`` (variable name -> value)."""
    return tuple(x if n is None else theta[n] + x if x else theta[n] for n, x in slots)


def match_slots(slots, ground, ranges=None):
    """Bindings under which ``slots`` fill to ``ground``, or None; also None when a bound
    value lies outside its variable's ``ranges``, if given (else times are unbounded)."""
    theta: dict = {}
    for (n, x), c in zip(slots, ground):
        if n is None:
            if c != x:
                return None
        else:
            v = c - x if x else c
            if theta.setdefault(n, v) != v:
                return None
    if ranges is not None and any(v not in ranges[n] for n, v in theta.items()):
        return None
    return theta


class Rule:
    """A context clause or a probability schema, compiled once per knowledge base.

    A ground goal or object matches ``head``.  ``body`` holds a clause's body or a schema's
    guard, per literal a sign and slots; ``ante`` the slots the head depends on (a schema's
    antecedent objects, a clause's body atoms); ``typing`` the window-free ``_atom_typing`` of
    ``atoms``; and ``free`` the variables the head leaves free, as ``order`` lists them.
    """

    def __init__(self, kb, head, body, ante, atoms, order=list):
        self.head, self.body, self.ante, self.typing = head, body, ante, _atom_typing(kb, atoms)
        self.free = tuple(order(n for n in self.typing[0] if all(n != m for m, _ in head)))


class Schema(Rule):
    """A link matrix: the PB sentences that differ only in their constant values.

    The key is the rule form's head (the consequent's object slots), body
    (the guard) and antecedents' object slots, and the value slots that hold
    a variable.  Object slots lead with the predicate.  Each cell is
    (consequent value, antecedent values, alpha), with None where a value
    slot holds a variable.  The cells are a list, so two sentences that give
    one cell two alphas both stay and combining reports the clash.
    """

    def __init__(self, kb, atoms, head, body, ante, value_vars):
        super().__init__(kb, head, body, ante, atoms, sorted)  # free variables vary in sorted order
        self.value_vars = value_vars  # None if no value slot holds a variable, else shaped as a cell's values
        self.cells, self.aligned = [], {}  # aligned: alignment -> relevance.Cells, built at first use


def compile_schemas(kb) -> dict:
    """Consequent predicate -> its schemas, in text order of each schema's first sentence."""
    by_key: dict = {}
    out: dict = {}
    for s in kb.pb:
        terms = (s.cons.args[-1],) + tuple(a.args[-1] for a in s.ante)
        values = tuple(t.value if isinstance(t, Const) else None for t in terms)
        names = tuple(None if isinstance(t, Const) else t.name for t in terms)
        value_vars = (names[0], names[1:]) if any(names) else None
        key = (  # a Schema's head, body and antecedents, and its value variables
            atom_slots(s.cons)[:-1],
            tuple((sign, atom_slots(a)) for sign, a in s.context),
            tuple(atom_slots(a)[:-1] for a in s.ante),
            value_vars,
        )
        schema = by_key.get(key)
        if schema is None:
            schema = by_key[key] = Schema(kb, s.atoms(), *key)
            out.setdefault(s.cons.pred, []).append(schema)
        schema.cells.append((values[0], values[1:], s.alpha))
    return {p: tuple(schemas) for p, schemas in out.items()}


@dataclass(frozen=True)
class ContextClause:
    head: Atom
    body: tuple = ()  # of Literal

    def __str__(self) -> str:
        s = f"ctx {self.head}"
        if self.body:
            s += " <- " + ", ".join(lit_str(l) for l in self.body)
        return s + "."


def format_prob(x: float) -> str:
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


# ---------------------------------------------------------------------------
# The knowledge base


@dataclass(frozen=True)
class KnowledgeBase:
    domains: dict  # name -> AttributeDomain (includes value domains and time)
    preds: dict  # name -> PredicateDecl
    pb: tuple  # of ProbSentence
    cb: tuple  # of ContextClause
    cr: dict = field(default_factory=dict)  # p-pred -> (rule name, params dict)
    # consequent predicate -> its link-matrix schemas, compiled once from pb
    schemas: dict = field(init=False, repr=False, compare=False)
    # shape key -> relevance.Shape: the combined tables of every session, filled by combine_rpb
    shapes: dict = field(init=False, repr=False, compare=False)
    # head predicate -> its clauses' Rule forms, in text order, compiled once from cb
    clauses: dict = field(init=False, repr=False, compare=False)
    # the lang.Window of the latest session window (None until one): each rule's ranges, each reached
    # object's discharge records there, guards unproven, and the elimination plans of its networks, so
    # it holds nothing from a session; a session over another window replaces it, plans and all
    window: Window = field(default=None, init=False, repr=False, compare=False)

    DEFAULT_RULE = "noisy_max"

    def __post_init__(self):
        object.__setattr__(self, "schemas", compile_schemas(self))
        object.__setattr__(self, "shapes", {})
        object.__setattr__(self, "clauses", {})
        for c in self.cb:
            body = tuple((sign, atom_slots(a)) for sign, a in c.body)
            atoms = [c.head] + [a for _, a in c.body]
            rule = Rule(self, atom_slots(c.head), body, tuple(slots for _, slots in body), atoms)
            self.clauses.setdefault(c.head.pred, []).append(rule)

    def window_for(self, lo: int, hi: int) -> Window:
        """The store of [lo, hi]: the latest window's is kept, another replaces it."""
        window = self.window
        if window is None or window.lo != lo or window.hi != hi:
            window = Window(lo, hi)
            object.__setattr__(self, "window", window)
        return window

    def decl(self, name: str) -> PredicateDecl:
        return self.preds[name]

    def val(self, pred: str) -> tuple:
        """Declared value set of a p-predicate, in declaration order."""
        return self.domains[self.preds[pred].value_domain].members

    def combining_rule_for(self, pred: str):
        return self.cr.get(pred, (self.DEFAULT_RULE, {}))

    def domain_of_position(self, pred: str, i: int) -> AttributeDomain:
        d = self.preds[pred]
        if d.kind == "p" and i == len(d.attribute_domains):
            return self.domains[d.value_domain]
        return self.domains[d.attribute_domains[i]]


# ---------------------------------------------------------------------------
# Ground-atom helpers


def atom_of(obj: Obj, value: ConstValue) -> Atom:
    return Atom(obj[0], tuple(Const(c) for c in obj[1:]) + (Const(value),))


def obj_time(kb: KnowledgeBase, obj: Obj) -> Optional[int]:
    tp = kb.decl(obj[0]).time_position()
    return None if tp is None else obj[1 + tp]


def atom_time(kb: KnowledgeBase, atom: Atom) -> Optional[int]:
    """Time of a ground atom, or None for untimed predicates."""
    tp = kb.decl(atom.pred).time_position()
    if tp is None:
        return None
    t = atom.args[tp]
    return t.value if isinstance(t, Const) else None


# ---------------------------------------------------------------------------
# Grounding


def groundings(kb: KnowledgeBase, atoms, lo: int, hi: int):
    """Every type-consistent binding of the atoms' variables, times in [lo, hi].

    Yields dicts from variable name to plain value.  The names vary in order
    of first occurrence, the last fastest, each over its domain order or
    ascending time.  Atoms whose typing leaves some variable no value, or
    that name a constant time outside the window, yield nothing; atoms
    without variables yield one empty dict.
    """
    return bindings(_window_ranges(_atom_typing(kb, atoms), lo, hi))


def bindings(ranges):
    """Each combination of ``ranges``, a ``_window_ranges`` result, as a dict; the last variable
    varies fastest, and None yields nothing."""
    if ranges is not None:
        for combo in itertools.product(*ranges.values()):
            yield dict(zip(ranges, combo))


class Window(dict):
    """What grounding in [lo, hi] yields from the KB alone, whatever the session's context or evidence.

    As a dict: rule -> (ranges, free variables' ranges), None without a grounding
    there.  ``objects``: ground object -> its ``relevance.discharge_contexts``
    records, one per schema grounding, guards filled but not proven.  ``plans``:
    (network structure, evidence objects) -> target -> its ``infer.compile_plan``
    plan, filled by ``infer.eliminate`` from a structure's second call on (its
    first leaves an empty entry).
    """

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi, self.objects, self.plans = lo, hi, {}, {}

    def __missing__(self, rule):
        ranges = _window_ranges(rule.typing, self.lo, self.hi)
        entry = self[rule] = None if ranges is None else (ranges, [ranges[n] for n in rule.free])
        return entry


def rule_bindings(rule: Rule, ground: tuple, window: Window) -> list:
    """The bindings under which ``rule``'s head fills to ``ground`` inside ``window``'s ranges: the
    head's match binds its variables and ``rule.free`` vary, the last fastest."""
    entry = window[rule]
    theta = None if entry is None else match_slots(rule.head, ground, entry[0])
    if theta is None or not rule.free:
        return [] if theta is None else [theta]
    return [theta | dict(zip(rule.free, combo)) for combo in itertools.product(*entry[1])]


def _atom_typing(kb: KnowledgeBase, atoms):
    """The typing of the atoms' variables that holds in every window.

    (variable -> domain members, or None for a time variable, in order of first
    occurrence; time variable -> (least, greatest offset); constant times)
    """
    var_domains: dict = {}
    offsets: dict = {}
    times = []
    for atom in atoms:
        for i, (name, x) in enumerate(map(term_slot, atom.args)):
            dom = kb.domain_of_position(atom.pred, i)
            if dom.name != TIME_DOMAIN:
                if name is not None:
                    var_domains.setdefault(name, dom.members)
            elif name is None:
                times.append(x)
            else:
                var_domains.setdefault(name, None)  # holds its place; the range is set per window
                offsets.setdefault(name, set()).add(x)
    return var_domains, {n: (min(offs), max(offs)) for n, offs in offsets.items()}, times


def _window_ranges(typing, lo: int, hi: int):
    """Each variable of an ``_atom_typing`` mapped to its range in [lo, hi]; None if one is empty.

    A time variable ranges over a ``range``, any other over its domain's members.
    """
    var_domains, offsets, times = typing
    if not all(lo <= x <= hi for x in times):
        return None  # a constant time outside the window
    ranges = dict(var_domains)
    for name, (least, greatest) in offsets.items():
        # every occurrence t+off must land inside [lo, hi]
        ranges[name] = range(lo - least, hi - greatest + 1)
    return ranges if all(ranges.values()) else None


# ---------------------------------------------------------------------------
# Sessions


@dataclass(frozen=True)
class SessionInput:
    """One inference session: context facts, evidence, bounds, and a query."""

    context: tuple = ()  # ground c-atoms
    evidence: tuple = ()  # p-atoms (usually ground)
    lo: int = 0
    hi: int = 0
    query: Optional[Atom] = None


@dataclass(frozen=True)
class ValidatedSession:
    context: frozenset  # ground c-atom tuples (pred, *args)
    evidence: dict  # Obj -> value, the coherent ground(E)
    lo: int
    hi: int
    query: Optional[Atom]


def validate_session(kb: KnowledgeBase, s: SessionInput) -> ValidatedSession:
    """Check coherence, bounds confinement, and query shape; normalize to ground form."""
    diags = []
    if s.lo > s.hi:
        diags.append(Diagnostic(f"bounds ({s.lo}, {s.hi}) have lo > hi"))
        raise SessionError(diags)

    ctx = set()
    for a in s.context:
        if a.pred not in kb.preds or kb.decl(a.pred).kind != "c":
            diags.append(Diagnostic(f"context atom {a} is not a declared c-atom"))
            continue
        if not a.is_ground():
            diags.append(Diagnostic(f"context atom {a} is not ground"))
            continue
        t = atom_time(kb, a)
        if t is not None and not (s.lo <= t <= s.hi):
            diags.append(Diagnostic(f"context atom {a} timed outside [{s.lo}, {s.hi}]"))
            continue
        ctx.add((a.pred,) + tuple(c.value for c in a.args))

    evidence: dict = {}
    for a in s.evidence:
        if a.pred not in kb.preds or kb.decl(a.pred).kind != "p":
            diags.append(Diagnostic(f"evidence atom {a} is not a declared p-atom"))
            continue
        # a constant time outside the window still grounds, to name each instance it rules out
        t = atom_time(kb, a)
        outside = t is not None and not s.lo <= t <= s.hi
        slots = atom_slots(a)
        for theta in groundings(kb, [a], t if outside else s.lo, t if outside else s.hi):
            g = fill_slots(slots, theta)
            o, v = g[:-1], g[-1]
            if outside:
                diags.append(Diagnostic(f"evidence atom {atom_of(o, v)} timed outside [{s.lo}, {s.hi}]"))
                continue
            if o in evidence and evidence[o] != v:
                diags.append(
                    Diagnostic(
                        f"incoherent evidence: {atom_of(o, evidence[o])} and {atom_of(o, v)} "
                        "assign two values to one object"
                    )
                )
            evidence[o] = v

    if s.query is not None:
        q = s.query
        if q.pred not in kb.preds or kb.decl(q.pred).kind != "p":
            diags.append(Diagnostic(f"query {q} is not over a declared p-predicate"))
        else:
            if not isinstance(q.args[-1], Var):
                diags.append(Diagnostic(f"query {q}: last argument must be a variable"))
            t = atom_time(kb, q)
            if t is not None and not (s.lo <= t <= s.hi):
                diags.append(Diagnostic(f"query {q} timed outside [{s.lo}, {s.hi}]"))

    if diags:
        raise SessionError(diags)
    return ValidatedSession(
        context=frozenset(ctx),
        evidence=evidence,
        lo=s.lo,
        hi=s.hi,
        query=s.query,
    )
