"""Command-line interface: exit codes, output formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ctxkb
from ctxkb.cli import main

from conftest import data_path


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def cardiac(tmp_path):
    files = {"kb": data_path("cardiac.ckb")}
    ev = tmp_path / "ev.txt"
    ev.write_text("rhythm(john, 0, vf).\n")
    ctx = tmp_path / "ctx.txt"
    ctx.write_text("epi(john, 0). epi(john, 2). dfib(john, 2).\n")
    files["ev"], files["ctx"] = str(ev), str(ctx)
    return files


def test_check_ok(runner, cardiac):
    r = runner.invoke(main, ["check", cardiac["kb"], "--from", "0", "--to", "3"])
    assert r.exit_code == 0, r.output
    assert "ok:" in r.output


def test_check_parse_error_exit_1(runner, tmp_path):
    bad = tmp_path / "bad.ckb"
    bad.write_text("value p = { a }.\npred p(time).\nprob p(0 a) = 0.5.\n")
    r = runner.invoke(main, ["check", str(bad)])
    assert r.exit_code == 1
    assert "bad.ckb:3" in r.output


def test_check_kb_not_utf8_is_one_line_exit_1(runner, tmp_path):
    bad = tmp_path / "latin1.ckb"
    bad.write_bytes(b"value p = { a }.\n# caf\xe9 au lait\npred p(time).\n")
    r = runner.invoke(main, ["check", str(bad)])
    assert r.exit_code == 1
    _one_line_error(r)
    assert r.output == f"{bad}:2:6: error: invalid UTF-8 byte 0xe9\n"


def test_query_evidence_not_utf8_is_one_line_exit_1(runner, cardiac, tmp_path):
    ev = tmp_path / "latin1.txt"
    ev.write_bytes(b"rhythm(john, 0, vf).\r\nrhythm(mary, 0, \xe9).\n")
    r = runner.invoke(main, ["query", cardiac["kb"], "--evidence", str(ev), "--query", "rhythm(john, 1, V)"])
    assert r.exit_code == 1
    _one_line_error(r)
    assert r.output == f"{ev}:2:17: error: invalid UTF-8 byte 0xe9\n"


def test_check_cycle_exit_2(runner, tmp_path):
    bad = tmp_path / "cyc.ckb"
    bad.write_text(
        "domain d = { a }.\ncpred f(d).\ncpred g(d).\n"
        "ctx f(X) <- not g(X).\nctx g(X) <- not f(X).\n"
    )
    r = runner.invoke(main, ["check", str(bad)])
    assert r.exit_code == 2
    assert "cycle" in r.output


def test_check_allowedness_exit_3(runner, tmp_path):
    bad = tmp_path / "na.ckb"
    bad.write_text(
        "domain empty = { }.\nvalue p = { yes, no }.\npred p(empty).\n"
        "prob p(X, yes) = 0.5.\nprob p(X, no) = 0.5.\n"
    )
    r = runner.invoke(main, ["check", str(bad)])
    assert r.exit_code == 3


def test_check_bad_row_sum_exit_4(runner, tmp_path):
    bad = tmp_path / "sum.ckb"
    bad.write_text(
        "value p = { no, yes }.\npred p(time).\n"
        "prob p(0, yes) = 0.7.\nprob p(0, no) = 0.5.\n"
    )
    r = runner.invoke(main, ["check", str(bad)])
    assert r.exit_code == 4
    assert "sums to" in r.output


def test_query_table_and_json_agree(runner, cardiac):
    args = [
        "query", cardiac["kb"],
        "--context", cardiac["ctx"], "--evidence", cardiac["ev"],
        "--query", "rhythm(john, 3, V)", "--from", "0", "--to", "3",
    ]
    table = runner.invoke(main, args)
    assert table.exit_code == 0, table.output
    js = runner.invoke(main, args + ["--format", "json"])
    assert js.exit_code == 0
    payload = json.loads(js.output)
    [inst] = payload["instances"]
    assert inst["values"][0] == "nsr"
    assert sum(inst["posterior"]) == pytest.approx(1.0, abs=1e-9)
    # the table shows the same numbers at 9 decimals
    for p in inst["posterior"]:
        assert f"{p:.9f}" in table.output


def test_query_empty_instances_exit_0(runner, cardiac):
    r = runner.invoke(main, [
        "query", cardiac["kb"], "--query", "rhythm(john, 2, V)",
        "--from", "1", "--to", "2",
    ])
    assert r.exit_code == 0
    assert "no answerable instances" in r.output


def test_query_impossible_evidence_exit_4(runner, cardiac, tmp_path):
    ev = tmp_path / "impossible.txt"
    # vf at time 0 makes blood flow absent at 0 with probability 1
    ev.write_text("rhythm(john, 0, vf). cbf(john, 0, present).\n")
    r = runner.invoke(main, [
        "query", cardiac["kb"], "--evidence", str(ev),
        "--query", "rhythm(john, 1, V)", "--from", "0", "--to", "1",
    ])
    assert r.exit_code == 4


def test_query_default_bounds_from_inputs(runner, cardiac):
    # no --from/--to: bounds default to (0, max time mentioned) = (0, 3)
    r = runner.invoke(main, [
        "query", cardiac["kb"], "--context", cardiac["ctx"],
        "--evidence", cardiac["ev"], "--query", "rhythm(john, 3, V)",
        "--format", "json",
    ])
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["bounds"] == [0, 3]


def test_project_rows_per_timestep(runner, cardiac, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("epi(john, 0). epi(john, 2). dfib(john, 2).\n")
    r = runner.invoke(main, [
        "project", cardiac["kb"], "--plan", str(plan),
        "--evidence", cardiac["ev"], "--query", "rhythm(john, T, V)",
        "--from", "0", "--to", "3", "--format", "json",
    ])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert [row["t"] for row in payload["timesteps"]] == [0, 1, 2, 3]
    for row in payload["timesteps"]:
        for inst in row["instances"]:
            assert sum(inst["posterior"]) == pytest.approx(1.0, abs=1e-9)


def test_export_dot_deterministic_bytes(runner, cardiac):
    args = [
        "export-dot", cardiac["kb"], "--evidence", cardiac["ev"],
        "--query", "rhythm(john, 3, V)", "--from", "0", "--to", "3",
    ]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.startswith("digraph supporting_network {")


def test_oracle_diff_exit_0(runner, cardiac):
    r = runner.invoke(main, [
        "oracle-diff", cardiac["kb"], "--context", cardiac["ctx"],
        "--evidence", cardiac["ev"], "--query", "rhythm(john, 3, V)",
        "--from", "0", "--to", "3",
    ])
    assert r.exit_code == 0, r.output
    assert "max |delta|" in r.output


def test_oracle_diff_guard_exit_5(runner, cardiac):
    r = runner.invoke(main, [
        "oracle-diff", cardiac["kb"], "--evidence", cardiac["ev"],
        "--query", "rhythm(john, 3, V)", "--from", "0", "--to", "3",
        "--guard", "10",
    ])
    assert r.exit_code == 5


def test_bench_csv(runner):
    r = runner.invoke(main, ["bench", "--horizon", "3", "--plan-times", "0"])
    assert r.exit_code == 0, r.output
    lines = r.output.strip().splitlines()
    assert lines[0] == "encoding,nodes,cpt_entries,build_ms,infer_ms"
    assert len(lines) == 3


def test_bench_bad_plan_times_exit_1(runner):
    r = runner.invoke(main, ["bench", "--plan-times", "x"])
    assert r.exit_code == 1
    _one_line_error(r)
    assert r.output.startswith("bench: ")


def test_oracle_diff_with_sampling_seed(runner, cardiac):
    r = runner.invoke(main, [
        "oracle-diff", cardiac["kb"], "--evidence", cardiac["ev"],
        "--query", "rhythm(john, 2, V)", "--from", "0", "--to", "2",
        "--seed", "7",
    ])
    assert r.exit_code == 0, r.output
    assert "sampling cross-check" in r.output


def test_project_empty_plan_uses_persistence(runner, cardiac, tmp_path):
    plan = tmp_path / "empty.txt"
    plan.write_text("")
    r = runner.invoke(main, [
        "project", cardiac["kb"], "--plan", str(plan),
        "--evidence", cardiac["ev"], "--query", "rhythm(john, T, V)",
        "--from", "0", "--to", "2", "--format", "json",
    ])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert [row["t"] for row in payload["timesteps"]] == [0, 1, 2]


def test_project_plan_atom_outside_bounds_rejected(runner, cardiac, tmp_path):
    plan = tmp_path / "late.txt"
    plan.write_text("epi(john, 9).\n")
    r = runner.invoke(main, [
        "project", cardiac["kb"], "--plan", str(plan),
        "--evidence", cardiac["ev"], "--query", "rhythm(john, T, V)",
        "--from", "0", "--to", "2",
    ])
    assert r.exit_code == 1
    assert "outside" in r.output


def _one_line_error(r):
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert "Traceback" not in r.output
    assert len(r.output.strip().splitlines()) == 1


def test_query_conflicting_sentences_exit_4(runner, cardiac, tmp_path):
    ctx = tmp_path / "two_interventions.txt"
    # two interventions in one minute make two rhythm matrices apply to one row
    ctx.write_text("dfib(john, 1). cpr(john, 1).\n")
    r = runner.invoke(main, [
        "query", cardiac["kb"], "--context", str(ctx), "--query", "rhythm(john, 2, V)",
    ])
    assert r.exit_code == 4
    _one_line_error(r)
    assert "conflicting sentences" in r.output


def test_query_conflict_message_is_the_same_under_any_hash_seed(cardiac, tmp_path):
    ctx = tmp_path / "two_interventions.txt"
    ctx.write_text("dfib(john, 1). cpr(john, 1).\n")
    src = str(Path(ctxkb.__file__).resolve().parents[1])
    lines = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run(
            [sys.executable, "-m", "ctxkb.cli", "query", cardiac["kb"], "--context", str(ctx),
             "--query", "rhythm(john, 2, V)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 4, r.stderr
        assert "conflicting sentences" in r.stderr and len(r.stderr.splitlines()) == 1
        lines.add(r.stderr)
    assert len(lines) == 1, lines


SCHEMA_CLASH_KB = """
value p = { no, yes }.
pred p(time).
prob p(0, no) = 0.5.
prob p(0, yes) = 0.5.
prob p(t, yes) | p(t-1, yes) = 0.9.
prob p(t, no) | p(t-1, yes) = 0.1.
prob p(t, yes) | p(t-1, no) = 0.2.
prob p(t, no) | p(t-1, no) = 0.8.
prob p(t, yes) | p(t-1, yes) = 0.7.
"""


def test_intra_schema_conflict_message_is_the_same_under_any_hash_seed(tmp_path):
    # the last sentence gives a cell of the persistence matrix a second alpha
    kb = tmp_path / "clash.ckb"
    kb.write_text(SCHEMA_CLASH_KB)
    src = str(Path(ctxkb.__file__).resolve().parents[1])
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run(
            [sys.executable, "-m", "ctxkb.cli", "query", str(kb), "--query", "p(2, V)"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 4, r.stderr
        assert r.stdout == ""
        assert r.stderr == (
            "conflicting sentences for P(p(1, yes) | p(0, yes)) = 0.9: alpha 0.7 vs 0.9\n"
        )


def test_query_conflict_outside_the_demand_does_not_block(runner, cardiac, tmp_path):
    # john's two interventions clash, but no object of mary's network depends on john
    ctx = tmp_path / "two_interventions.txt"
    ctx.write_text("dfib(john, 1). cpr(john, 1).\n")
    common = ["--query", "rhythm(mary, 2, V)", "--format", "json"]
    r = runner.invoke(main, ["query", cardiac["kb"], "--context", str(ctx), *common])
    assert r.exit_code == 0, r.output
    alone = runner.invoke(main, ["query", cardiac["kb"], *common])
    assert json.loads(r.output) == json.loads(alone.output)


CHAIN_KB = """
value p = { yes, no }.
pred p(time).
prob p(0, yes) = 1.
prob p(0, no) = 0.
prob p(t, yes) | p(t-1, yes) = 1.
prob p(t, no) | p(t-1, yes) = 0.
prob p(t, yes) | p(t-1, no) = 0.
prob p(t, no) | p(t-1, no) = 1.
"""


def test_oracle_diff_long_deterministic_chain(runner, tmp_path):
    # 1,501 objects: one enumeration depth each
    kb = tmp_path / "chain.ckb"
    kb.write_text(CHAIN_KB)
    r = runner.invoke(main, ["oracle-diff", str(kb), "--query", "p(1500, V)", "--to", "1500"])
    assert r.exit_code == 0, r.output
    assert r.output.startswith("max |delta| = 0.000e+00 over 1 instance(s)")


def test_project_support_outside_window_exit_1(runner, cardiac, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("epi(john, 2).\n")
    ev = tmp_path / "ev2.txt"
    ev.write_text("rhythm(john, 2, vf).\n")
    r = runner.invoke(main, [
        "project", cardiac["kb"], "--plan", str(plan), "--evidence", str(ev),
        "--query", "rhythm(john, T, V)", "--from", "2", "--to", "3",
    ])
    assert r.exit_code == 1
    _one_line_error(r)
    assert "outside the session bounds" in r.output


@pytest.mark.parametrize("minute", [1, 2])
def test_query_evidence_whose_ancestor_needs_time_before_window_exit_1(runner, cardiac, tmp_path, minute):
    # at minute 2 the evidence's own sentences apply, but its parent at minute 1 needs minute 0
    ev = tmp_path / "ev.txt"
    ev.write_text(f"rhythm(john, {minute}, vf).\n")
    r = runner.invoke(main, [
        "query", cardiac["kb"], "--evidence", str(ev), "--query", "rhythm(john, 3, V)",
        "--from", "1", "--to", "3",
    ])
    assert r.exit_code == 1
    assert r.output == "support for ('rhythm', 'john', 1) requires a time outside the session bounds\n"


def test_project_cycle_exit_2(runner, tmp_path):
    kb = tmp_path / "pcyc.ckb"
    kb.write_text(
        "domain d = { a }.\nvalue p = { no, yes }.\nvalue q = { no, yes }.\n"
        "pred p(d, time).\npred q(d, time).\n"
        "prob q(X, 0, yes) = 0.5.\nprob q(X, 0, no) = 0.5.\n"
        "prob p(X, t, yes) | q(X, t, yes) = 0.9.\nprob p(X, t, no) | q(X, t, yes) = 0.1.\n"
        "prob p(X, t, yes) | q(X, t, no) = 0.1.\nprob p(X, t, no) | q(X, t, no) = 0.9.\n"
        "prob q(X, t, yes) | p(X, t, yes) = 0.9.\nprob q(X, t, no) | p(X, t, yes) = 0.1.\n"
        "prob q(X, t, yes) | p(X, t, no) = 0.1.\nprob q(X, t, no) | p(X, t, no) = 0.9.\n"
    )
    plan = tmp_path / "empty.txt"
    plan.write_text("")
    ev = tmp_path / "qev.txt"
    ev.write_text("q(a, 0, yes).\n")
    r = runner.invoke(main, [
        "project", str(kb), "--plan", str(plan), "--evidence", str(ev),
        "--query", "p(a, T, V)", "--from", "0", "--to", "1",
    ])
    assert r.exit_code == 2
    _one_line_error(r)
    assert "cycle" in r.output


LOOK_AHEAD_KB = """
value p = { no, yes }.
cpred start(time).
cpred on(time).
pred p(time).
ctx on(T) <- start(T).
ctx on(T) <- on(T+1).
prob p(T, yes) = 0.9 <- on(T).
prob p(T, no) = 0.1 <- on(T).
prob p(T, yes) = 0.2 <- not on(T).
prob p(T, no) = 0.8 <- not on(T).
"""


def test_query_long_look_ahead_context_chain(runner, tmp_path):
    # proving on(0) walks on(1), on(2), ... up to start(2000)
    kb = tmp_path / "look.ckb"
    kb.write_text(LOOK_AHEAD_KB)
    ctx = tmp_path / "start.txt"
    ctx.write_text("start(2000).\n")
    r = runner.invoke(main, [
        "query", str(kb), "--context", str(ctx), "--query", "p(0, V)",
        "--to", "2000", "--format", "json",
    ])
    assert r.exit_code == 0, r.output
    [inst] = json.loads(r.output)["instances"]
    assert inst["posterior"] == pytest.approx([0.1, 0.9], abs=1e-12)


def test_query_self_negating_context_exit_2(runner, tmp_path):
    kb = tmp_path / "selfneg.ckb"
    kb.write_text(LOOK_AHEAD_KB.replace("ctx on(T) <- on(T+1).", "ctx on(T) <- not on(T)."))
    r = runner.invoke(main, ["query", str(kb), "--query", "p(0, V)", "--to", "0"])
    assert r.exit_code == 2
    _one_line_error(r)
    assert "cycle" in r.output


def test_project_matches_query_at_each_timestep(runner, cardiac, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("epi(john, 0). epi(john, 2). dfib(john, 2). lido(mary, 1). cpr(mary, 0).\n")
    ev = tmp_path / "ev.txt"
    ev.write_text("rhythm(john, 0, vf). rhythm(mary, 0, vt).\n")
    common = ["--evidence", str(ev), "--from", "0", "--to", "4", "--format", "json"]
    r = runner.invoke(main, [
        "project", cardiac["kb"], "--plan", str(plan), "--query", "rhythm(X, T, V)", *common,
    ])
    assert r.exit_code == 0, r.output
    steps = json.loads(r.output)["timesteps"]
    assert [row["t"] for row in steps] == [0, 1, 2, 3, 4]
    for row in steps:
        q = runner.invoke(main, [
            "query", cardiac["kb"], "--context", str(plan),
            "--query", f"rhythm(X, {row['t']}, V)", *common,
        ])
        assert q.exit_code == 0, q.output
        expected = json.loads(q.output)["instances"]
        assert [i["bindings"] for i in expected] == [{"X": "john"}, {"X": "mary"}]
        assert row["instances"] == expected
