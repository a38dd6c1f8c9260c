"""Command-line interface: exit codes, output formats, determinism."""

import json

import pytest
from click.testing import CliRunner

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
