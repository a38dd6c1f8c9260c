"""Supporting-network construction: minimality, bounds, determinism, export."""

from dataclasses import replace

import pytest
from hypothesis import given, settings

from ctxkb import answer_query, build_net, discharge_contexts, export_dot, oracle_answer, parse_kb
from ctxkb.cli import _TIME_VAR
from ctxkb.errors import ConflictingSentencesError, OutOfBoundsSupportError, QuantificationError
from ctxkb.lang import Atom, Var
from ctxkb.logic import ancestors, check_acyclic_pb
from ctxkb.netbuild import assemble_net, node_label, query_instances
from ctxkb.relevance import build_combined_base, combine_rpb, compute_ras

from conftest import forward_discharge, ground_sentences, random_kb, reference_combine, session_for, timed_kbs


def test_network_is_backward_closure_only(cardiac_kb):
    vs = session_for(
        cardiac_kb,
        evidence="rhythm(john, 0, vf).",
        lo=0,
        hi=3,
        query="rhythm(john, 3, V)",
    )
    net, subs = build_net(cardiac_kb, vs)
    assert set(net.nodes) == {("rhythm", "john", t) for t in range(4)}
    assert subs == [{}]


def test_evidence_objects_always_in_net(cardiac_kb):
    vs = session_for(
        cardiac_kb,
        evidence="rhythm(john, 0, vf). cd(john, 2, none).",
        lo=0,
        hi=3,
        query="rhythm(john, 3, V)",
    )
    net, _ = build_net(cardiac_kb, vs)
    assert ("cd", "john", 2) in net.nodes
    # cd's ancestry pulls in poa and cbf up to time 2, but nothing at time 3
    assert ("cd", "john", 3) not in net.nodes
    assert ("poa", "john", 3) not in net.nodes


def test_unbound_person_query_enumerates_domain(cardiac_kb):
    vs = session_for(cardiac_kb, lo=0, hi=1, query="rhythm(X, 1, V)")
    net, subs = build_net(cardiac_kb, vs)
    assert subs == [{"X": "john"}, {"X": "mary"}]
    assert ("rhythm", "mary", 0) in net.nodes


def test_topological_order(cardiac_kb):
    vs = session_for(cardiac_kb, lo=0, hi=3, query="cd(john, 3, V)")
    net, _ = build_net(cardiac_kb, vs)
    pos = {o: i for i, o in enumerate(net.order)}
    for o, node in net.nodes.items():
        for p in node.parents:
            assert pos[p] < pos[o]


def test_all_node_times_inside_bounds(cardiac_kb):
    from ctxkb.lang import obj_time

    vs = session_for(cardiac_kb, lo=0, hi=3, evidence="rhythm(john, 0, vf).",
                     query="cd(john, 3, V)")
    net, _ = build_net(cardiac_kb, vs)
    for o in net.nodes:
        t = obj_time(cardiac_kb, o)
        assert 0 <= t <= 3


def test_out_of_window_support_raises(cardiac_kb):
    # rhythm at time 1 with a window starting at 1 has no in-window support:
    # the only sentences for it look back to time 0
    vs = session_for(cardiac_kb, evidence="rhythm(john, 1, vf).", lo=1, hi=1)
    with pytest.raises(OutOfBoundsSupportError) as e:
        build_net(cardiac_kb, vs)
    assert e.value.obj == ("rhythm", "john", 1)


def test_unanswerable_query_returns_empty_substitutions(cardiac_kb):
    # no evidence, window starting after time 0: nothing fires, so the query
    # has no answerable instances (and no error)
    vs = session_for(cardiac_kb, lo=1, hi=2, query="rhythm(john, 2, V)")
    net, subs = build_net(cardiac_kb, vs)
    assert subs == []
    assert net.nodes == {}


def test_quantification_gap_raises():
    kb = parse_kb(
        """
        value p = { no, yes }.
        value q = { no, yes }.
        pred p(time).
        pred q(time).
        prob p(0, yes) = 0.4.
        prob p(0, no) = 0.6.
        prob q(0, yes) | p(0, yes) = 1.0.
        prob q(0, no) | p(0, yes) = 0.0.
        """
    )
    # q's table has no row for p = no
    vs = session_for(kb, evidence="q(0, yes).", lo=0, hi=0)
    with pytest.raises(QuantificationError) as e:
        build_net(kb, vs)
    assert any(o == ("q", 0) for o, _ in e.value.missing)


def test_node_labels(cardiac_kb):
    assert node_label(cardiac_kb, ("rhythm", "john", 2)) == "rhythm(john)@2"


def test_export_dot_deterministic(cardiac_kb):
    vs = session_for(cardiac_kb, evidence="rhythm(john, 0, vf).", lo=0, hi=2,
                     query="rhythm(john, 2, V)")
    net, _ = build_net(cardiac_kb, vs)
    d1 = export_dot(net, cardiac_kb)
    d2 = export_dot(net, cardiac_kb)
    assert d1 == d2
    assert d1.startswith("digraph supporting_network {")
    assert '"rhythm(john)@0" -> "rhythm(john)@1";' in d1
    assert d1.count("->") == 2


def test_parent_order_is_the_same_at_every_timestep():
    # objects sort as tuples, so t-2 stays before t-1 across the 9 -> 10 digit boundary
    kb = parse_kb(
        """
        domain item = { a }.
        value p = { no, yes }.
        pred p(item, time).
        prob p(X, 0, no) = 0.5.
        prob p(X, 0, yes) = 0.5.
        prob p(X, 1, no) = 0.5.
        prob p(X, 1, yes) = 0.5.
        prob p(X, t, no) | p(X, t-1, U), p(X, t-2, W) = 0.4.
        prob p(X, t, yes) | p(X, t-1, U), p(X, t-2, W) = 0.6.
        """
    )
    net, _ = build_net(kb, session_for(kb, lo=0, hi=11, query="p(a, 11, V)"))
    for t in (5, 11):
        assert [o[2] - t for o in net.nodes[("p", "a", t)].parents] == [-2, -1]


def test_cpt_entry_count(cardiac_kb):
    vs = session_for(cardiac_kb, lo=0, hi=1, query="rhythm(john, 1, V)")
    net, _ = build_net(cardiac_kb, vs)
    root = net.nodes[("rhythm", "john", 0)]
    child = net.nodes[("rhythm", "john", 1)]
    assert root.n_entries == 7
    assert child.n_entries == 49


# ---------------------------------------------------------------------------
# The demand walk against the full base


def _full_net(kb, vs):
    base, ras, _ = build_combined_base(kb, vs)  # no demand: every object in the window
    return assemble_net(kb, vs, base, ras, query_instances(kb, vs.query, vs.lo, vs.hi))


def _same_net(got, want):
    (net, subs), (full, full_subs) = got, want
    assert subs == full_subs
    assert net.order == full.order
    assert net.nodes.keys() == full.nodes.keys()
    for o, node in net.nodes.items():
        other = full.nodes[o]
        assert (node.values, node.parents, node.rows) == (other.values, other.parents, other.rows)


def _same_instances(kb, vs):
    """The walk discharges exactly the forward instances whose consequent the demand reaches."""
    demand = {o for _, o in query_instances(kb, vs.query, vs.lo, vs.hi)} | set(vs.evidence)
    full = forward_discharge(kb, vs)
    assert ground_sentences(discharge_contexts(kb, vs)) == full
    parents: dict = {}
    for s in full:
        parents.setdefault(s.cons[0], set()).update(o for o, _ in s.ante)
    reach = ancestors(parents, demand)
    assert ground_sentences(discharge_contexts(kb, vs, demand)) == {s for s in full if s.cons[0] in reach}
    _same_combine(kb, vs)
    _same_combine(kb, vs, demand)


def _same_combine(kb, vs, demand=None):
    """Combining the records gives the tables, or the clash, of the sentence-based reference."""
    records = discharge_contexts(kb, vs, demand)
    ras = compute_ras(kb, records, vs)
    try:
        want = reference_combine(ground_sentences(records), kb, ras)
    except ConflictingSentencesError as e:
        with pytest.raises(ConflictingSentencesError) as got:
            combine_rpb(records, kb, ras)
        assert str(got.value) == str(e)
        return
    got = combine_rpb(records, kb, ras)
    assert list(got.tables) == list(want.tables)
    for o, t in want.tables.items():
        g = got.tables[o]
        assert (g.values, g.parents, g.missing) == (t.values, t.parents, t.missing)
        assert _complete_rows(g) == _complete_rows(t)


def _complete_rows(table):
    """The table's rows in order, without the ``None`` placeholder a gap may leave."""
    return [(a, row) for a, row in table.rows.items() if row is not None]


_GAP_HEAD = """
value p = { no, yes }.
value q = { no, yes }.
value r = { no, yes }.
pred p(time).
pred q(time).
pred r(time).
prob p(0, yes) = 0.4.
prob p(0, no) = 0.6.
prob r(0, yes) = 0.5.
prob r(0, no) = 0.5.
"""

ROW_GAP_KBS = {
    "a cause lacks a value variant": """
        prob q(0, yes) | p(0, yes) = 1.0.
        prob q(0, yes) | p(0, no) = 0.3.
        prob q(0, no) | p(0, no) = 0.7.
    """,
    "no cause covers a parent assignment": """
        prob q(0, yes) | p(0, yes) = 1.0.
        prob q(0, no) | p(0, yes) = 0.0.
    """,
    "one cause is complete and another lacks a value": """
        combine q with noisy_max.
        prob q(0, yes) | p(0, yes) = 0.8.
        prob q(0, no) | p(0, yes) = 0.2.
        prob q(0, yes) | p(0, no) = 0.1.
        prob q(0, no) | p(0, no) = 0.9.
        prob q(0, yes) | r(0, yes) = 0.6.
        prob q(0, yes) | r(0, no) = 0.2.
        prob q(0, no) | r(0, no) = 0.8.
    """,
}


@pytest.mark.parametrize("body", ROW_GAP_KBS.values(), ids=list(ROW_GAP_KBS))
def test_combine_matches_reference_on_row_gaps(body):
    kb = parse_kb(_GAP_HEAD + body)
    vs = session_for(kb, evidence="q(0, yes).", lo=0, hi=0)
    base, _, _ = build_combined_base(kb, vs)
    assert base.tables[("q", 0)].missing
    _same_combine(kb, vs)
    _same_combine(kb, vs, {("q", 0)})


def test_demand_walk_matches_full_base_on_random_corpus():
    for seed in range(20):
        kb, vs, _ = random_kb(seed)
        _same_instances(kb, vs)
        _same_net(build_net(kb, vs), _full_net(kb, vs))


CARDIAC_SESSIONS = [
    ("epi(john, 0). epi(john, 2). dfib(john, 2). lido(mary, 1). cpr(mary, 0).",
     "rhythm(john, 0, vf). rhythm(mary, 0, vt).", 4, "rhythm(X, 4, V)"),
    ("cpr(john, 0). cpr(john, 1). epi(john, 2). atro(mary, 3).",
     "rhythm(john, 0, a). poa(john, 1, min1). cd(mary, 2, none).", 4, "cd(john, 3, V)"),
    ("dfib(mary, 1). epi(mary, 1). lido(john, 2).", "rhythm(mary, 0, vf). cbf(john, 2, absent).",
     3, "poa(X, T, V)"),
]


@pytest.mark.parametrize("context, evidence, hi, query", CARDIAC_SESSIONS)
def test_demand_walk_matches_full_base_on_cardiac(cardiac_kb, context, evidence, hi, query):
    vs = session_for(cardiac_kb, context=context, evidence=evidence, lo=0, hi=hi, query=query)
    # as `ctxkb project` asks it: the time argument is a variable no input can name
    q = vs.query
    vs = replace(vs, query=Atom(q.pred, tuple(Var(_TIME_VAR) if a == Var("T") else a for a in q.args)))
    _same_instances(cardiac_kb, vs)
    net, subs = build_net(cardiac_kb, vs)
    assert subs
    _same_net((net, subs), _full_net(cardiac_kb, vs))


def test_demand_walk_matches_full_base_on_paint_horizon(paint_kb):
    vs = session_for(
        paint_kb, context="paint(door, 0). paint(door, 3).", evidence="painted(door, 100, yes).",
        lo=0, hi=240, query="painted(door, 240, V)",
    )
    _same_instances(paint_kb, vs)
    got = build_net(paint_kb, vs)
    assert len(got[0].nodes) == 237  # painted at 3: minute 4 is a root
    _same_net(got, _full_net(paint_kb, vs))


def _no_gap_a_wider_window_supports(kb, session, err):
    """No object named as unsupported gets a table once the window starts at 0."""
    wide = session_for(kb, **dict(session, lo=0))
    for obj, detail in err.missing:
        if detail.startswith("no applicable sentence"):
            base, _, _ = build_combined_base(kb, wide, demand={obj})
            assert obj not in base.tables, f"{obj} is supported in [0, {wide.hi}]: {err}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(timed_kbs())
def test_timed_corpus(case):
    text, session, dup = case
    kb = parse_kb(text)
    vs = session_for(kb, **session)
    check_acyclic_pb(kb, vs.lo, vs.hi)
    _same_instances(kb, vs)
    try:
        got = build_net(kb, vs)
    except (OutOfBoundsSupportError, QuantificationError) as e:
        # evidence in a window that starts at 1, whose support lies before the window
        with pytest.raises(type(e)) as full:
            _full_net(kb, vs)
        assert str(full.value) == str(e)
        if isinstance(e, QuantificationError):
            _no_gap_a_wider_window_supports(kb, session, e)
    else:
        _same_net(got, _full_net(kb, vs))
        ans, ref = answer_query(kb, vs), oracle_answer(kb, vs)
        assert [theta for theta, _ in ans.instances] == [theta for theta, _ in ref]
        for (_, a), (_, b) in zip(ans.instances, ref):
            assert a.query_object == b.query_object
            assert max(abs(x - y) for x, y in zip(a.probabilities, b.probabilities)) <= 1e-9
    # the duplicate gives a cell of a time-0 start a second alpha in the same schema
    clash = parse_kb(text + dup + "\n")
    assert len(clash.schemas["p0"]) == len(kb.schemas["p0"])
    at0 = session_for(clash, context=session["context"], lo=0, hi=vs.hi, query="p0(X, 0, V)")
    with pytest.raises(ConflictingSentencesError):
        build_net(clash, at0)
    with pytest.raises(ConflictingSentencesError):
        build_combined_base(clash, at0)
    _same_combine(clash, at0)
