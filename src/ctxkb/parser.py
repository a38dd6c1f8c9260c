"""Concrete syntax for knowledge bases, context/evidence files, and queries.

Statements end with ``.`` and ``#`` starts a comment.  The statement forms:

    domain person = { john, mary }.
    value rhythm = { nsr, vf, vt, af, svt, b, a }.
    pred rhythm(person, time).
    cpred epi(person, time).
    prob rhythm(X, t, nsr) | rhythm(X, t-1, nsr) = 0.05 <- no_inter(X, t-1), epi(X, t-1).
    ctx no_inter(X, t) <- not dfib(X, t), not cpr(X, t).
    combine rhythm with noisy_max.

``value p`` declares the value set of p-predicate ``p`` (declaration order is
significant: it fixes posterior-vector layout and the noisy-max value order).
A ``pred`` statement lists only the object attributes; the value attribute is
implicit and typed by the ``value`` declaration of the same name.  Predicate
and constant identifiers are case-insensitive; a token starting with an
uppercase letter is a variable.  In a ``time`` position any identifier is a
variable, since time constants are integer literals.
"""

from __future__ import annotations

import re

from .combining import RULES
from .errors import Diagnostic, ParseError
from .lang import (
    TIME,
    TIME_DOMAIN,
    Atom,
    AttributeDomain,
    Const,
    ContextClause,
    KnowledgeBase,
    PredicateDecl,
    ProbSentence,
    TimeExpr,
    Var,
)

# Each match skips whitespace and comments, then takes one token, the catch-all
# ``bad`` character, or the end of the text.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|\#[^\n]*)*
    (?:
        (?P<float>\d+\.\d+|\.\d+)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct><-|[(){}=|,.+\-])
      | (?P<bad>.)
      | (?P<eof>\Z)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def _diagnostic(msg, filename, text, pos) -> Diagnostic:
    """A diagnostic at offset ``pos`` of ``text``, located by 1-based line and column."""
    return Diagnostic(msg, filename, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def tokenize(text: str, filename: str) -> list:
    """The tokens of ``text`` as (kind, value, offset), ending with ("eof", None, len(text)).

    ``kind`` is "ident", "int", "float", or the punctuation itself.
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        if kind == "ident":
            append(("ident", value, m.start(kind)))
        elif kind == "punct":
            append((value, value, m.start(kind)))
        elif kind == "int":
            append(("int", int(value), m.start(kind)))
        elif kind == "float":
            append(("float", float(value), m.start(kind)))
        elif kind == "eof":
            break
        else:
            raise ParseError([_diagnostic(f"unexpected character {value!r}", filename, text, m.start(kind))])
    append(("eof", None, len(text)))
    return tokens


# Raw (unresolved) syntax; resolution against declarations happens in a second
# pass so statement order in the file does not matter.  Offsets locate
# diagnostics; a raw atom keeps its terms apart from their offsets, so equal
# occurrences share one key.

RawTerm = tuple  # ("ident", name) | ("int", n) | ("offset", name, k)
RawAtom = tuple  # (name, (RawTerm, ...), (term offset, ...), offset)


class _Parser:
    def __init__(self, tokens, text, filename):
        self.toks = tokens
        self.i = 0
        self.text = text
        self.filename = filename

    def peek(self) -> tuple:
        return self.toks[self.i]

    def next(self) -> tuple:
        t = self.toks[self.i]
        self.i += 1
        return t

    def error(self, msg, tok=None):
        tok = tok or self.peek()
        raise ParseError([_diagnostic(msg, self.filename, self.text, tok[2])])

    def expect(self, kind) -> tuple:
        t = self.peek()
        if t[0] != kind:
            self.error(f"expected {kind!r}, found {t[1]!r}")
        self.i += 1
        return t

    def expect_ident(self, what="identifier") -> tuple:
        t = self.peek()
        if t[0] != "ident":
            self.error(f"expected {what}, found {t[1]!r}")
        self.i += 1
        return t

    # -- statement level -----------------------------------------------------

    def statements(self):
        while self.peek()[0] != "eof":
            yield self.statement()

    def statement(self):
        t = self.expect_ident("statement keyword")
        kw = t[1].lower()
        pos = t[2]
        if kw in ("domain", "value"):
            name = self.expect_ident("domain name")[1].lower()
            self.expect("=")
            self.expect("{")
            members = []
            if self.peek()[0] != "}":
                members.append(self.expect_ident("domain member")[1].lower())
                while self.peek()[0] == ",":
                    self.next()
                    members.append(self.expect_ident("domain member")[1].lower())
            self.expect("}")
            self.expect(".")
            return (kw, name, members, pos)
        if kw in ("pred", "cpred"):
            name = self.expect_ident("predicate name")[1].lower()
            doms = []
            if self.peek()[0] == "(":
                self.next()
                if self.peek()[0] != ")":
                    doms.append(self.expect_ident("domain name")[1].lower())
                    while self.peek()[0] == ",":
                        self.next()
                        doms.append(self.expect_ident("domain name")[1].lower())
                self.expect(")")
            self.expect(".")
            return (kw, name, doms, pos)
        if kw == "prob":
            cons = self.atom()
            ante = []
            if self.peek()[0] == "|":
                self.next()
                ante.append(self.atom())
                while self.peek()[0] == ",":
                    self.next()
                    ante.append(self.atom())
            self.expect("=")
            alpha_pos = self.peek()[2]
            alpha = self.number()
            context = []
            if self.peek()[0] == "<-":
                self.next()
                context = self.literals()
            self.expect(".")
            return ("prob", cons, ante, alpha, context, alpha_pos)
        if kw == "ctx":
            head = self.atom()
            body = []
            if self.peek()[0] == "<-":
                self.next()
                body = self.literals()
            self.expect(".")
            return ("ctx", head, body, pos)
        if kw == "combine":
            pred = self.expect_ident("predicate name")[1].lower()
            w = self.expect_ident()
            if w[1].lower() != "with":
                self.error("expected 'with'", w)
            rt = self.expect_ident("rule name")
            rule = rt[1].lower()
            if rule not in RULES:
                self.error(f"unknown combining rule {rule!r}", rt)
            params = {}
            if self.peek()[0] == "(":
                self.next()
                while True:
                    kt = self.expect_ident("parameter name")
                    k = kt[1].lower()
                    if k not in RULES[rule]:
                        self.error(f"combining rule {rule} has no parameter {k!r}", kt)
                    self.expect("=")
                    kind, value, _ = self.peek()
                    if kind in ("ident", "int", "float"):
                        self.next()
                        params[k] = value.lower() if kind == "ident" else value
                    else:
                        self.error("expected parameter value")
                    if self.peek()[0] == ",":
                        self.next()
                        continue
                    break
                self.expect(")")
            self.expect(".")
            return ("combine", pred, rule, params, pos)
        self.error(f"unknown statement keyword {t[1]!r}", t)

    # -- atoms and terms -----------------------------------------------------

    def atom(self) -> RawAtom:
        t = self.expect_ident("atom")
        terms, offsets = [], []
        if self.peek()[0] == "(":
            self.next()
            if self.peek()[0] != ")":
                offsets.append(self.peek()[2])
                terms.append(self.term())
                while self.peek()[0] == ",":
                    self.next()
                    offsets.append(self.peek()[2])
                    terms.append(self.term())
            self.expect(")")
        return (t[1], tuple(terms), tuple(offsets), t[2])

    def term(self) -> RawTerm:
        kind, value, _ = self.peek()
        if kind == "int":
            self.next()
            return ("int", value)
        if kind == "-":
            self.next()
            return ("int", -self.expect("int")[1])
        if kind == "ident":
            self.next()
            if self.peek()[0] in ("+", "-"):
                sign = 1 if self.next()[0] == "+" else -1
                return ("offset", value, sign * self.expect("int")[1])
            return ("ident", value)
        self.error(f"expected term, found {value!r}")

    def literals(self):
        lits = [self.literal()]
        while self.peek()[0] == ",":
            self.next()
            lits.append(self.literal())
        return lits

    def literal(self):
        kind, value, _ = self.peek()
        if kind == "ident" and value.lower() == "not":
            self.next()
            return (False, self.atom())
        return (True, self.atom())

    def number(self) -> float:
        kind, value, _ = self.peek()
        if kind in ("int", "float"):
            self.next()
            return float(value)
        self.error(f"expected number, found {value!r}")


class _Resolver:
    """Second pass: build and statically validate the KnowledgeBase."""

    def __init__(self, text, filename):
        self.text = text
        self.filename = filename
        self.domains = {TIME_DOMAIN: TIME}
        self.preds = {}
        self.pb = []
        self.cb = []
        self.cr = {}
        self.diags = []
        self.atoms = {}  # (wanted kind, name, raw terms) -> Atom, for atoms that resolved

    def diag(self, msg, pos):
        self.diags.append(_diagnostic(msg, self.filename, self.text, pos))

    def run(self, statements) -> KnowledgeBase:
        prob_stmts, ctx_stmts, combine_stmts = [], [], []
        pred_stmts = []
        for st in statements:
            kind = st[0]
            if kind in ("domain", "value"):
                _, name, members, pos = st
                if name == TIME_DOMAIN:
                    self.diag("'time' is a reserved domain name", pos)
                elif name in self.domains:
                    self.diag(f"duplicate domain declaration {name!r}", pos)
                elif len(set(members)) != len(members):
                    self.diag(f"duplicate member in domain {name!r}", pos)
                else:
                    self.domains[name] = AttributeDomain(name, tuple(members))
            elif kind in ("pred", "cpred"):
                pred_stmts.append(st)
            elif kind == "prob":
                prob_stmts.append(st)
            elif kind == "ctx":
                ctx_stmts.append(st)
            elif kind == "combine":
                combine_stmts.append(st)

        for kw, name, doms, pos in pred_stmts:
            if name in self.preds:
                self.diag(f"duplicate predicate declaration {name!r}", pos)
                continue
            n_time = sum(1 for d in doms if d == TIME_DOMAIN)
            if n_time > 1:
                self.diag(f"predicate {name!r} has more than one time attribute", pos)
                continue
            bad = [d for d in doms if d != TIME_DOMAIN and d not in self.domains]
            if bad:
                self.diag(f"predicate {name!r} uses undeclared domain {bad[0]!r}", pos)
                continue
            if kw == "pred":
                if name not in self.domains:
                    self.diag(
                        f"p-predicate {name!r} has no value declaration (expected 'value {name} = ...')",
                        pos,
                    )
                    continue
                if not self.domains[name].members:
                    self.diag(f"value set of {name!r} is empty", pos)
                    continue
                self.preds[name] = PredicateDecl(name, "p", tuple(doms), value_domain=name)
            else:
                self.preds[name] = PredicateDecl(name, "c", tuple(doms))

        kb_shell = KnowledgeBase(self.domains, self.preds, (), (), {})

        for _, raw_head, raw_body, pos in ctx_stmts:
            head = self.resolve_atom(kb_shell, raw_head, want_kind="c")
            body = self.resolve_literals(kb_shell, raw_body, want_kind="c")
            if head is not None and body is not None:
                clause = ContextClause(head, tuple(body))
                self.check_var_typing(kb_shell, clause.head, [a for _, a in clause.body], clause, pos)
                self.cb.append(clause)

        for _, raw_cons, raw_ante, alpha, raw_context, pos in prob_stmts:
            cons = self.resolve_atom(kb_shell, raw_cons, want_kind="p")
            ante = [self.resolve_atom(kb_shell, a, want_kind="p") for a in raw_ante]
            context = self.resolve_literals(kb_shell, raw_context, want_kind="c")
            if not (0.0 <= alpha <= 1.0):
                self.diag(f"probability {alpha} outside [0, 1]", pos)
                continue
            if cons is None or any(a is None for a in ante) or context is None:
                continue
            sent = ProbSentence(cons, tuple(ante), alpha, tuple(context))
            self.check_var_typing(kb_shell, cons, ante + [a for _, a in context], sent, pos)
            self.pb.append(sent)

        for _, pred, rule, params, pos in combine_stmts:
            if pred not in self.preds or self.preds[pred].kind != "p":
                self.diag(f"combine: {pred!r} is not a declared p-predicate", pos)
                continue
            if pred in self.cr:
                self.diag(f"duplicate combine declaration for {pred!r}", pos)
                continue
            if "distinguished" in params and params["distinguished"] not in self.domains[pred].members:
                self.diag(
                    f"combine: distinguished value {params['distinguished']!r} "
                    f"not in VAL({pred})",
                    pos,
                )
                continue
            self.cr[pred] = (rule, params)

        if self.diags:
            raise ParseError(self.diags)
        return KnowledgeBase(self.domains, self.preds, tuple(self.pb), tuple(self.cb), self.cr)

    def resolve_atom(self, kb, raw: RawAtom, want_kind=None):
        name, terms, offsets, pos = raw
        key = (want_kind, name, terms)
        atom = self.atoms.get(key)
        if atom is not None:
            return atom
        # only resolved atoms are kept: a failing one reports at every occurrence
        pname = name.lower()
        decl = self.preds.get(pname)
        if decl is None:
            self.diag(f"undeclared predicate {pname!r}", pos)
            return None
        if want_kind and decl.kind != want_kind:
            kinds = {"p": "p-predicate", "c": "c-predicate"}
            self.diag(f"{pname!r} is not a {kinds[want_kind]} here", pos)
            return None
        if len(terms) != decl.arity:
            self.diag(
                f"arity mismatch: {pname!r} declared with {decl.arity} arguments, found {len(terms)}",
                pos,
            )
            return None
        args = []
        for i, (rt, term_pos) in enumerate(zip(terms, offsets)):
            term = self.resolve_term(rt, term_pos, kb.domain_of_position(pname, i), pname)
            if term is None:
                return None
            args.append(term)
        atom = self.atoms[key] = Atom(pname, tuple(args))
        return atom

    def resolve_term(self, rt: RawTerm, pos: int, dom: AttributeDomain, pname: str):
        kind = rt[0]
        if dom.name == TIME_DOMAIN:
            if kind == "int":
                return Const(rt[1])
            if kind == "ident":
                return Var(rt[1])
            if kind == "offset":
                return TimeExpr(rt[1], rt[2]) if rt[2] else Var(rt[1])
        if kind == "offset":
            self.diag("time offset used outside a time position", pos)
            return None
        if kind == "int":
            self.diag(f"integer constant in non-time position of {pname!r}", pos)
            return None
        name = rt[1]
        if name[0].isupper():
            return Var(name)
        cname = name.lower()
        if cname not in dom:
            self.diag(f"constant {cname!r} not in domain {dom.name!r} of {pname!r}", pos)
            return None
        return Const(cname)

    def resolve_literals(self, kb, raws, want_kind):
        out = []
        for positive, raw in raws:
            a = self.resolve_atom(kb, raw, want_kind=want_kind)
            if a is None:
                return None
            out.append((positive, a))
        return out

    def check_var_typing(self, kb, head, other_atoms, where, pos):
        """Diagnose a variable used with two domains in ``where``, a clause or a sentence."""
        seen = {}
        for atom in [head] + other_atoms:
            for i, term in enumerate(atom.args):
                if isinstance(term, Var):
                    n = term.name
                elif isinstance(term, TimeExpr):
                    n = term.var
                else:
                    continue
                dom = kb.domain_of_position(atom.pred, i).name
                if n in seen and seen[n] != dom:
                    self.diag(f"variable {n} used with domains {seen[n]!r} and {dom!r} in {where}", pos)
                seen[n] = dom


_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # bytes that are not UTF-8, as surrogateescape decodes them


def _read(path) -> str:
    """The text of ``path``; a byte that is not UTF-8 is a ParseError at its line and column."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            text = f.read()
    bad = _NOT_UTF8.search(text)
    msg = f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}"
    raise ParseError([_diagnostic(msg, str(path), text, bad.start())])


def parse_kb(text: str, filename: str = "<input>") -> KnowledgeBase:
    """Parse and statically validate a knowledge base. Raises ParseError."""
    tokens = tokenize(text, filename)
    stmts = list(_Parser(tokens, text, filename).statements())
    return _Resolver(text, filename).run(stmts)


def load_kb(path) -> KnowledgeBase:
    return parse_kb(_read(path), filename=str(path))


def parse_atom(kb: KnowledgeBase, text: str, filename: str = "<query>") -> Atom:
    """Parse a single atom (query syntax) against a knowledge base."""
    atoms = parse_atoms(kb, text, filename)
    if len(atoms) != 1:
        raise ParseError([Diagnostic("expected exactly one atom", filename, 1, 1)])
    return atoms[0]


def parse_atoms(kb: KnowledgeBase, text: str, filename: str = "<input>") -> list:
    """Parse a context/evidence/plan file: atoms separated by ``.`` or newlines."""
    tokens = tokenize(text, filename)
    p = _Parser(tokens, text, filename)
    res = _Resolver(text, filename)
    res.domains = dict(kb.domains)
    res.preds = dict(kb.preds)
    raw = []
    while p.peek()[0] != "eof":
        raw.append(p.atom())
        if p.peek()[0] == ".":
            p.next()
    atoms = [res.resolve_atom(kb, r) for r in raw]
    if res.diags:
        raise ParseError(res.diags)
    return atoms


def load_atoms(kb: KnowledgeBase, path) -> list:
    return parse_atoms(kb, _read(path), filename=str(path))
