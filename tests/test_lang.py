"""Grammar, static validation, and session validation."""

import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkb import (
    Atom,
    Const,
    Diagnostic,
    ParseError,
    SessionError,
    SessionInput,
    TimeExpr,
    Var,
    parse_atom,
    parse_kb,
    validate_session,
)
from ctxkb.lang import atom_of
from ctxkb.parser import _diagnostic, parse_atoms, tokenize

from conftest import data_path, ext, obj_of, pretty, val_of

BASIC = """
domain person = { john, mary }.
value rhythm = { nsr, vf }.
pred rhythm(person, time).
cpred epi(person, time).
prob rhythm(X, 0, nsr) = 0.3.
prob rhythm(X, 0, vf) = 0.7.
prob rhythm(X, t, nsr) | rhythm(X, t-1, nsr) = 0.9 <- not epi(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, nsr) = 0.1 <- not epi(X, t-1).
prob rhythm(X, t, nsr) | rhythm(X, t-1, vf) = 0.2 <- not epi(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, vf) = 0.8 <- not epi(X, t-1).
prob rhythm(X, t, nsr) | rhythm(X, t-1, nsr) = 0.95 <- epi(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, nsr) = 0.05 <- epi(X, t-1).
prob rhythm(X, t, nsr) | rhythm(X, t-1, vf) = 0.5 <- epi(X, t-1).
prob rhythm(X, t, vf) | rhythm(X, t-1, vf) = 0.5 <- epi(X, t-1).
combine rhythm with noisy_max.
"""


@pytest.fixture(scope="module")
def kb():
    return parse_kb(BASIC)


def test_declarations(kb):
    assert kb.val("rhythm") == ("nsr", "vf")
    assert kb.decl("rhythm").kind == "p"
    assert kb.decl("rhythm").arity == 3
    assert kb.decl("epi").kind == "c"
    assert kb.decl("epi").arity == 2
    assert len(kb.pb) == 10
    assert kb.combining_rule_for("rhythm") == ("noisy_max", {})


def test_value_order_is_declaration_order():
    kb2 = parse_kb(BASIC.replace("{ nsr, vf }", "{ vf, nsr }"))
    assert kb2.val("rhythm") == ("vf", "nsr")


def test_term_shapes(kb):
    a = parse_atom(kb, "rhythm(john, t-1, V)")
    assert a.args == (Const("john"), TimeExpr("t", -1), Var("V"))
    assert parse_atom(kb, "rhythm(X, 2, nsr)").args == (
        Var("X"),
        Const(2),
        Const("nsr"),
    )


def test_time_identifier_is_always_a_variable(kb):
    a = parse_atom(kb, "rhythm(john, t, nsr)")
    assert a.args[1] == Var("t")


def test_obj_and_value_helpers(kb):
    a = parse_atom(kb, "rhythm(john, 2, nsr)")
    assert obj_of(a) == ("rhythm", "john", 2)
    assert val_of(a) == "nsr"
    assert atom_of(("rhythm", "john", 2), "vf") == parse_atom(kb, "rhythm(john, 2, vf)")
    assert ext(kb, a) == (
        parse_atom(kb, "rhythm(john, 2, nsr)"),
        parse_atom(kb, "rhythm(john, 2, vf)"),
    )


def test_nonground_evidence_enumerates_domain_and_window(kb):
    ev = (parse_atom(kb, "rhythm(X, T, nsr)"),)
    vs = validate_session(kb, SessionInput(evidence=ev, lo=0, hi=1))
    got = {str(atom_of(o, v)) for o, v in vs.evidence.items()}
    assert got == {
        "rhythm(john, 0, nsr)",
        "rhythm(john, 1, nsr)",
        "rhythm(mary, 0, nsr)",
        "rhythm(mary, 1, nsr)",
    }


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("domain person = { a, a }.", "duplicate member"),
        ("domain time = { a }.", "reserved"),
        ("value v = { a }. pred p(time). ", "no value declaration"),
        ("value p = { }. pred p(time).", "empty"),
        ("value p = { a }. pred p(time). prob p(0, b) = 0.5.", "not in domain"),
        ("value p = { a }. pred p(time). prob p(0, a) = 1.5.", "outside [0, 1]"),
        ("value p = { a }. pred p(time). prob p(0, 1, a) = 0.5.", "arity"),
        ("value p = { a }. pred p(time). prob q(0, a) = 0.5.", "undeclared predicate"),
        ("value p = { a }. pred p(time, time).", "more than one time"),
        ("value p = { a }. pred p(nosuch).", "undeclared domain"),
    ],
)
def test_static_errors(bad, fragment):
    with pytest.raises(ParseError) as e:
        parse_kb(bad)
    assert fragment in str(e.value)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as e:
        parse_kb("value p = { a }.\npred p(time).\nprob p(0 a) = 0.5.\n", "f.ckb")
    d = e.value.diagnostics[0]
    assert d.file == "f.ckb" and d.line == 3 and d.col > 0


def test_variable_domain_consistency_rejected():
    text = """
    domain d1 = { a }.
    domain d2 = { b }.
    value p = { x }.
    value q = { x }.
    pred p(d1).
    pred q(d2).
    prob p(X, x) | q(X, x) = 1.0.
    """
    with pytest.raises(ParseError) as e:
        parse_kb(text)
    assert "domains" in str(e.value)


def test_combine_distinguished_must_be_declared_value():
    with pytest.raises(ParseError) as e:
        parse_kb("value p = { a, b }. pred p(time). combine p with noisy_max(distinguished=c).")
    assert "distinguished" in str(e.value)


def test_case_insensitive_constants_and_predicates(kb):
    assert parse_atom(kb, "RHYTHM(JOHN, 0, NSR)") == Atom(
        "rhythm", (Var("JOHN"), Const(0), Var("NSR"))
    )
    # uppercase-initial tokens are variables; lowercase are constants
    assert parse_atom(kb, "rhythm(john, 0, nsr)").is_ground()


# ---------------------------------------------------------------------------
# Session validation


def test_validate_session_normalizes(kb):
    q = parse_atom(kb, "rhythm(john, 2, V)")
    ev = parse_atom(kb, "rhythm(john, 0, vf)")
    ctx = parse_atom(kb, "epi(john, 1)")
    vs = validate_session(
        kb, SessionInput(context=(ctx,), evidence=(ev,), lo=0, hi=2, query=q)
    )
    assert vs.evidence == {("rhythm", "john", 0): "vf"}
    assert ("epi", "john", 1) in vs.context


def test_session_incoherent_evidence(kb):
    ev = (parse_atom(kb, "rhythm(john, 0, vf)"), parse_atom(kb, "rhythm(john, 0, nsr)"))
    with pytest.raises(SessionError) as e:
        validate_session(kb, SessionInput(evidence=ev, lo=0, hi=1))
    assert "incoherent" in str(e.value)


def test_session_bad_bounds(kb):
    with pytest.raises(SessionError):
        validate_session(kb, SessionInput(lo=3, hi=1))


def test_session_query_value_slot_must_be_variable(kb):
    q = parse_atom(kb, "rhythm(john, 1, nsr)")
    with pytest.raises(SessionError) as e:
        validate_session(kb, SessionInput(lo=0, hi=1, query=q))
    assert "last argument" in str(e.value)


@pytest.mark.parametrize(
    "field, atom_text",
    [
        ("evidence", "rhythm(john, 5, vf)"),
        ("context", "epi(john, 5)"),
    ],
)
def test_session_out_of_window_atoms_rejected(kb, field, atom_text):
    a = parse_atom(kb, atom_text)
    kwargs = {field: (a,), "lo": 0, "hi": 2}
    with pytest.raises(SessionError) as e:
        validate_session(kb, SessionInput(**kwargs))
    assert "outside" in str(e.value)


def test_session_query_out_of_window(kb):
    q = parse_atom(kb, "rhythm(john, 9, V)")
    with pytest.raises(SessionError):
        validate_session(kb, SessionInput(lo=0, hi=2, query=q))


def test_session_context_must_be_ground_c_atom(kb):
    with pytest.raises(SessionError):
        validate_session(
            kb, SessionInput(context=(parse_atom(kb, "epi(X, 1)"),), lo=0, hi=1)
        )
    with pytest.raises(SessionError):
        validate_session(
            kb,
            SessionInput(context=(parse_atom(kb, "rhythm(john, 1, vf)"),), lo=0, hi=1),
        )


def test_pretty_round_trips(cardiac_kb, paint_kb):
    for kb in (cardiac_kb, paint_kb):
        assert parse_kb(pretty(kb)) == kb


# ---------------------------------------------------------------------------
# Tokens and diagnostics
#
# The original tokenizer, kept as the reference: a frozen dataclass per token,
# with line and column counted at every match.

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<float>\d+\.\d+|\.\d+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow><-)
  | (?P<punct>[(){}=|,.+\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class ReferenceToken:
    kind: str  # "ident", "int", "float", or the punctuation itself
    value: object
    line: int
    col: int


def reference_tokenize(text: str, filename: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError([Diagnostic(f"unexpected character {text[pos]!r}", filename, line, col)])
        kind = m.lastgroup
        value = m.group()
        if kind == "ident":
            tokens.append(ReferenceToken("ident", value, line, col))
        elif kind == "int":
            tokens.append(ReferenceToken("int", int(value), line, col))
        elif kind == "float":
            tokens.append(ReferenceToken("float", float(value), line, col))
        elif kind in ("arrow", "punct"):
            tokens.append(ReferenceToken(value, value, line, col))
        # ws and comments are skipped
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(ReferenceToken("eof", None, line, col))
    return tokens


def _same_tokens_as_reference(text):
    """tokenize, with line and column derived from each offset, agrees with the reference."""
    try:
        want = [(t.kind, t.value, t.line, t.col) for t in reference_tokenize(text, "f.ckb")]
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            tokenize(text, "f.ckb")
        assert str(got.value) == str(e)
        return
    got = []
    for kind, value, pos in tokenize(text, "f.ckb"):
        where = _diagnostic("", "f.ckb", text, pos)  # the location a diagnostic would give
        got.append((kind, value, where.line, where.col))
    assert got == want


@pytest.mark.parametrize("name", ["cardiac.ckb", "paint.ckb"])
def test_tokens_match_reference_on_shipped_kbs(name):
    with open(data_path(name), encoding="utf-8") as f:
        _same_tokens_as_reference(f.read())


_STATEMENTS = BASIC.strip().splitlines() + [
    "ctx no_inter(X, t) <- not dfib(X, t), not cpr(X, t).",
    "combine rhythm with noisy_max(distinguished=nsr, leak=.25).",
    "prob cd(X, t+1, none) | poa(X, t-12, min1) = 1 <- epi(X, -3).",
]
_GAPS = [" ", "\n", "\r\n", "\t", "\n\t", "  # note\n", "# (unclosed\r\n", "\n\n"]
_STRAYS = ["$", "@", "!", "é", "\x00", "\x0b", "\u00a0", "\u2028", "'", "\ufeff"]


@st.composite
def kb_texts(draw):
    """KB-like text: statements, tabs, CRLF, comments, a stray character, a cut, a BOM."""
    stmts = draw(st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=6))
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(stmts), max_size=len(stmts)))
    text = "".join(s + g for s, g in zip(stmts, gaps))
    if draw(st.booleans()):
        text = text.replace(", ", draw(st.sampled_from([",\t", ",", " , ", ",\r\n "])))
    if draw(st.booleans()):
        text += "# a comment at the end of the file"
    if draw(st.booleans()):  # a truncated last statement
        text = text[: draw(st.integers(0, len(text)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_STRAYS)) + text[at:]
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kb_texts())
def test_tokens_match_reference_on_kb_texts(text):
    _same_tokens_as_reference(text)


_KB_HEAD = "value p = { a, b }.\npred p(time).\n"
_DOMAIN_HEAD = "domain d = { x }.\nvalue p = { a }.\npred p(d, time).\n"

# Exact diagnostics for every path, as the original parser printed them.
DIAGNOSTICS = [
    ("value p = { a }.\npred p(time) $.\n",
     ["t.ckb:2:14: error: unexpected character '$'"]),
    ("\ufeffvalue p = { a }.\n",
     ["t.ckb:1:1: error: unexpected character '\\ufeff'"]),
    ("value p = { a }.\npred p(time.\n",
     ["t.ckb:2:12: error: expected ')', found '.'"]),
    ("value p = { a }.\npred p(time).\nprob p(0, a) =",
     ["t.ckb:3:15: error: expected number, found None"]),
    ("value p = { a }.\r\n\tpred p(time)\r\n  # c\r\n\tprob p(0, b) = 1.\r\n",
     ["t.ckb:4:2: error: expected '.', found 'prob'"]),
    ("value p = { a }.\n\tfrob p.\n",
     ["t.ckb:2:2: error: unknown statement keyword 'frob'"]),
    (_KB_HEAD + "prob p(=) = 1.\n",
     ["t.ckb:3:8: error: expected term, found '='"]),
    (_KB_HEAD + "combine p by noisy_max.\n",
     ["t.ckb:3:11: error: expected 'with'"]),
    (_KB_HEAD + "combine p with noisy_max(distinguished=.).\n",
     ["t.ckb:3:40: error: expected parameter value"]),
    (_KB_HEAD + "combine q with noisy_max.\ncombine p with noisy_max(distinguished=c).\n"
     "combine p with noisy_max.\ncombine p with noisy_max.\n",
     ["t.ckb:3:1: error: combine: 'q' is not a declared p-predicate",
      "t.ckb:4:1: error: combine: distinguished value 'c' not in VAL(p)",
      "t.ckb:6:1: error: duplicate combine declaration for 'p'"]),
    (_KB_HEAD + "prob p(0, a) | q(0, a) = 0.5.\n",
     ["t.ckb:3:16: error: undeclared predicate 'q'"]),
    (_DOMAIN_HEAD + "prob p(y, 0, a) = 1.\n",
     ["t.ckb:4:8: error: constant 'y' not in domain 'd' of 'p'"]),
    (_DOMAIN_HEAD + "prob p(3, 0, a) = 1.\n",
     ["t.ckb:4:8: error: integer constant in non-time position of 'p'"]),
    (_DOMAIN_HEAD + "prob p(X+1, 0, a) = 1.\n",
     ["t.ckb:4:8: error: time offset used outside a time position"]),
    ("domain d1 = { a }.\ndomain d2 = { b }.\nvalue p = { x }.\nvalue q = { x }.\npred p(d1).\n"
     "pred q(d2).\nprob p(X, x) | q(X, x) = 1.0.\ncpred f(d1).\ncpred g(d2).\nctx f(X) <- g(X).\n",
     ["t.ckb:10:1: error: variable X used with domains 'd1' and 'd2' in ctx f(X) <- g(X).",
      "t.ckb:7:26: error: variable X used with domains 'd1' and 'd2' in prob p(X, x) | q(X, x) = 1."]),
    (_KB_HEAD + "prob p(0, a) = 1.5.\n",
     ["t.ckb:3:16: error: probability 1.5 outside [0, 1]"]),
    (_KB_HEAD + "cpred c(time).\nprob p(0) = 0.5.\nctx p(0, a).\nprob c(0) = 0.5.\n",
     ["t.ckb:5:5: error: 'p' is not a c-predicate here",
      "t.ckb:4:6: error: arity mismatch: 'p' declared with 2 arguments, found 1",
      "t.ckb:6:6: error: 'c' is not a p-predicate here"]),
    (_KB_HEAD + "cpred c(time).\ncpred c(time).\n",
     ["t.ckb:4:1: error: duplicate predicate declaration 'c'"]),
    ("domain time = { a }.\ndomain d = { a, a }.\ndomain e = {}.\ndomain e = { x }.\nvalue v = { a }.\n"
     "pred v(time, time).\npred w(nosuch).\npred u(e).\nvalue z = { }.\npred z(e).\ncpred u(e).\n",
     ["t.ckb:1:1: error: 'time' is a reserved domain name",
      "t.ckb:2:1: error: duplicate member in domain 'd'",
      "t.ckb:4:1: error: duplicate domain declaration 'e'",
      "t.ckb:6:1: error: predicate 'v' has more than one time attribute",
      "t.ckb:7:1: error: predicate 'w' uses undeclared domain 'nosuch'",
      "t.ckb:8:1: error: p-predicate 'u' has no value declaration (expected 'value u = ...')",
      "t.ckb:10:1: error: value set of 'z' is empty"]),
    ("value p = { a }.\n(\n",
     ["t.ckb:2:1: error: expected statement keyword, found '('"]),
    ("domain = { a }.\n",
     ["t.ckb:1:8: error: expected domain name, found '='"]),
    ("domain d { a }.\n",
     ["t.ckb:1:10: error: expected '=', found '{'"]),
    ("domain d = a.\n",
     ["t.ckb:1:12: error: expected '{', found 'a'"]),
    ("domain d = { a, }.\n",
     ["t.ckb:1:17: error: expected domain member, found '}'"]),
    ("domain d = { a b }.\n",
     ["t.ckb:1:16: error: expected '}', found 'b'"]),
    ("pred (time).\n",
     ["t.ckb:1:6: error: expected predicate name, found '('"]),
    ("value p = { a }.\npred p(time,).\n",
     ["t.ckb:2:13: error: expected domain name, found ')'"]),
    (_KB_HEAD + "prob = 1.\n",
     ["t.ckb:3:6: error: expected atom, found '='"]),
    (_KB_HEAD + "combine p with.\n",
     ["t.ckb:3:15: error: expected rule name, found '.'"]),
    (_KB_HEAD + "combine p (noisy_max).\n",
     ["t.ckb:3:11: error: expected identifier, found '('"]),
    (_KB_HEAD + "combine p with noisy_or.\n",
     ["t.ckb:3:16: error: unknown combining rule 'noisy_or'"]),
    (_KB_HEAD + "combine p with noisy_max(weight=a).\n",
     ["t.ckb:3:26: error: combining rule noisy_max has no parameter 'weight'"]),
    (_KB_HEAD + "combine p with noisy_max(=a).\n",
     ["t.ckb:3:26: error: expected parameter name, found '='"]),
    (_KB_HEAD + "combine p with noisy_max().\n",
     ["t.ckb:3:26: error: expected parameter name, found ')'"]),
    (_KB_HEAD + "prob p(-a, a) = 1.\n",
     ["t.ckb:3:9: error: expected 'int', found 'a'"]),
    (_KB_HEAD + "prob p(T+a, a) = 1.\n",
     ["t.ckb:3:10: error: expected 'int', found 'a'"]),
    (_KB_HEAD + "prob p(T-, a) = 1.\n",
     ["t.ckb:3:10: error: expected 'int', found ','"]),
]


@pytest.mark.parametrize("text, lines", DIAGNOSTICS)
def test_kb_diagnostics_are_exact(text, lines):
    with pytest.raises(ParseError) as e:
        parse_kb(text, "t.ckb")
    assert [str(d) for d in e.value.diagnostics] == lines


def test_plan_diagnostics_are_exact(cardiac_kb):
    with pytest.raises(ParseError) as e:
        parse_atoms(cardiac_kb, "epi(john, 1).\nepi(jon, 2). dfib(john, 2, x).\n", "plan.txt")
    assert [str(d) for d in e.value.diagnostics] == [
        "plan.txt:2:5: error: constant 'jon' not in domain 'person' of 'epi'",
        "plan.txt:2:14: error: arity mismatch: 'dfib' declared with 2 arguments, found 3",
    ]


def test_failing_atom_reports_at_every_occurrence():
    # resolved atoms are shared between occurrences; failures are not
    kb = parse_kb(_KB_HEAD + "prob p(0, a) = 0.5.\nprob p(0, b) = 0.5.\nprob p(0, a) = 0.5.\n")
    assert kb.pb[0].cons is kb.pb[2].cons
    with pytest.raises(ParseError) as e:
        parse_kb(_KB_HEAD + "prob p(0, c) = 0.5.\nprob p(0, c) = 0.5.\n", "t.ckb")
    assert [str(d) for d in e.value.diagnostics] == [
        "t.ckb:3:11: error: constant 'c' not in domain 'p' of 'p'",
        "t.ckb:4:11: error: constant 'c' not in domain 'p' of 'p'",
    ]


@pytest.mark.parametrize("name", ["cardiac.ckb", "paint.ckb"])
def test_statement_order_does_not_matter(name):
    # the shipped KBs declare every name before using it; reversed, every use comes first
    with open(data_path(name), encoding="utf-8") as f:
        lines = f.read().splitlines()
    kb, rev = parse_kb("\n".join(lines)), parse_kb("\n".join(reversed(lines)))
    assert (rev.domains, rev.preds, rev.cr) == (kb.domains, kb.preds, kb.cr)
    assert set(rev.pb) == set(kb.pb) and len(rev.pb) == len(kb.pb)
    assert set(rev.cb) == set(kb.cb) and len(rev.cb) == len(kb.cb)
