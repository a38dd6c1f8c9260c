"""The shape store: tables of one shape are built once per knowledge base and shared.

A warm store must answer exactly as a freshly loaded knowledge base does:
the same posteriors to the last bit, the same instance order and the same
error messages.
"""

import random
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from ctxkb import answer_query, build_net, parse_kb
from ctxkb.cli import main
from ctxkb.errors import ConflictingSentencesError, QuantificationError

from conftest import data_path, outcome, session_for, timed_kbs

CARDIAC_TEXT = Path(data_path("cardiac.ckb")).read_text(encoding="utf-8")
PAINT_TEXT = Path(data_path("paint.ckb")).read_text(encoding="utf-8")


def cardiac_sessions(seed, n):
    """Seeded cardiac sessions; now and then two interventions in one minute, which clash."""
    rng = random.Random(seed)
    sessions = []
    for _ in range(n):
        hi = rng.randint(1, 5)
        context = []
        for person in ("john", "mary"):
            for t in range(hi):
                acts = [rng.choice((None, None, "dfib", "cpr")),
                        rng.choice((None, None, "epi", "lido", "atro"))]
                if rng.random() < 0.05:
                    acts = ["dfib", "cpr"]
                context += [f"{a}({person}, {t})." for a in acts if a]
        rhythms = ("nsr", "vf", "vt", "af", "svt", "b", "a")
        evidence = [f"rhythm({p}, 0, {rng.choice(rhythms)})." for p in ("john", "mary") if rng.random() < 0.8]
        who = rng.choice(("john", "mary", "X"))
        when = rng.choice(["T"] + [str(t) for t in range(hi + 1)])
        query = f"{rng.choice(('rhythm', 'cd', 'poa', 'cbf'))}({who}, {when}, V)"
        sessions.append(
            dict(context=" ".join(context), evidence=" ".join(evidence), lo=0, hi=hi, query=query)
        )
    return sessions


def test_warm_store_answers_shuffled_cardiac_sessions_as_fresh_kbs():
    sessions = cardiac_sessions(seed=2026, n=30)
    fresh = [outcome(parse_kb(CARDIAC_TEXT), s) for s in sessions]
    assert any(isinstance(o, tuple) for o in fresh) and any(isinstance(o, list) for o in fresh)
    warm = parse_kb(CARDIAC_TEXT)
    for order in (random.Random(1), random.Random(2)):
        idx = list(range(len(sessions)))
        order.shuffle(idx)
        for i in idx:
            assert outcome(warm, sessions[i]) == fresh[i], sessions[i]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(timed_kbs())
def test_warm_store_answers_timed_corpus_as_fresh_kbs(case):
    text, session, _ = case
    # the same session, then its window widened to start at 0, then the same session again
    sessions = [session, dict(session, lo=0), session]
    warm = parse_kb(text)
    for s in sessions:
        assert outcome(warm, s) == outcome(parse_kb(text), s)


def test_shared_shape_reports_each_row_that_is_not_a_distribution(tmp_path):
    kb = tmp_path / "unnorm.ckb"
    kb.write_text("value p = { no, yes }.\npred p(time).\nprob p(t, yes) = 0.5.\nprob p(t, no) = 0.3.\n")
    r = CliRunner().invoke(main, ["check", str(kb), "--to", "2"])
    assert r.exit_code == 4
    assert r.output == "; ".join(
        f"row for ('p', {t}) at parents {{}} sums to 0.8, expected 1" for t in range(3)
    ) + "\n"


def test_conflict_leaves_nothing_in_the_store():
    kb = parse_kb(
        "value p = { no, yes }.\npred p(time).\n"
        "prob p(t, yes) = 0.4.\nprob p(t, no) = 0.6.\nprob p(t, yes) = 0.5.\n"
    )
    vs = session_for(kb, lo=0, hi=2, query="p(2, V)")
    messages = []
    for _ in range(2):
        with pytest.raises(ConflictingSentencesError) as e:
            build_net(kb, vs)
        messages.append(str(e.value))
        assert kb.shapes == {}
    assert messages[0] == messages[1]


GUARDED_GAP = """
value p = { no, yes }.
pred p(time).
cpred c(time).
prob p(0, no) = 0.6.
prob p(0, yes) = 0.4.
prob p(t, no) | p(t-1, no) = 0.9.
prob p(t, yes) | p(t-1, no) = 0.1.
prob p(t, no) | p(t-1, yes) = 0.2 <- c(t).
prob p(t, yes) | p(t-1, yes) = 0.8 <- c(t).
"""


def test_a_gap_does_not_change_a_later_answer():
    gap = dict(lo=0, hi=2, query="p(2, V)")
    ok = dict(context="c(1). c(2).", evidence="p(0, yes).", lo=0, hi=2, query="p(2, V)")
    want = outcome(parse_kb(GUARDED_GAP), ok)
    assert isinstance(want, list)
    kb = parse_kb(GUARDED_GAP)
    with pytest.raises(QuantificationError):
        answer_query(kb, session_for(kb, **gap))
    assert kb.shapes
    assert outcome(kb, ok) == want


def test_persistence_nodes_share_one_rows_object():
    kb = parse_kb(PAINT_TEXT)
    assert kb.shapes == {}
    session = session_for(kb, context="paint(door, 0).", lo=0, hi=20, query="painted(door, 20, V)")
    net, _ = build_net(kb, session)
    a, b = net.nodes[("painted", "door", 5)], net.nodes[("painted", "door", 6)]
    assert a.parents != b.parents
    assert a.rows is b.rows and a.shape is b.shape
    shapes = dict(kb.shapes)
    # the same structure at another horizon and paint time adds no shape
    build_net(kb, session_for(kb, context="paint(door, 3).", lo=0, hi=40, query="painted(door, 40, V)"))
    assert kb.shapes == shapes


def test_paint_shapes_stay_two_at_every_horizon():
    kb = parse_kb(PAINT_TEXT)
    for h in range(20, 401, 20):
        assert isinstance(outcome(kb, dict(lo=0, hi=h, query=f"painted(door, {h}, V)")), list)
        assert len(kb.shapes) == 2, h  # the prior at minute 0 and persistence


def test_a_second_pass_over_cardiac_sessions_adds_no_shape():
    sessions = cardiac_sessions(seed=97, n=24)
    kb = parse_kb(CARDIAC_TEXT)
    first = [outcome(kb, s) for s in sessions]
    shapes = dict(kb.shapes)
    assert shapes
    assert [outcome(kb, s) for s in sessions] == first
    assert kb.shapes == shapes and all(kb.shapes[k] is v for k, v in shapes.items())
