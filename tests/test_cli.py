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
    # a whole-KB check has no location to give: no placeholder file:0:0
    assert r.output == (
        "error: variable X in prob p(X, yes) = 0.5. has no finitely groundable position; "
        "error: variable X in prob p(X, no) = 0.5. has no finitely groundable position\n"
    )


def test_check_bad_row_sum_exit_4(runner, tmp_path):
    bad = tmp_path / "sum.ckb"
    bad.write_text(
        "value p = { no, yes }.\npred p(time).\n"
        "prob p(0, yes) = 0.7.\nprob p(0, no) = 0.5.\n"
    )
    r = runner.invoke(main, ["check", str(bad)])
    assert r.exit_code == 4
    assert "sums to" in r.output


@pytest.mark.parametrize("command", ["check", "query", "oracle-diff"])
def test_row_that_is_not_a_distribution_is_one_line_exit_4(runner, tmp_path, command):
    # a row of a single cause reaches the network unmerged, so answering checks it as check does
    bad = tmp_path / "bad.ckb"
    bad.write_text("value p = { no, yes }.\npred p(time).\nprob p(t, yes) = 0.5.\nprob p(t, no) = 0.3.\n")
    r = runner.invoke(main, [command, str(bad)] + (["--query", "p(0, V)"] if command != "check" else []))
    assert r.exit_code == 4
    assert r.output == "row for ('p', 0) at parents {} sums to 0.8, expected 1\n"


GAP_KB = "value p = { no, yes }.\nvalue q = { no, yes }.\npred p(time).\npred q(time).\n"


@pytest.mark.parametrize(
    "sentences, line",
    [
        ("prob p(0, yes) = 0.3.\n",
         "incompletely quantified: ('p', 0): missing value variant 'no' at marginal"),
        ("prob q(0, no) = 0.5.\nprob q(0, yes) = 0.5.\n"
         "prob p(0, no) | q(0, yes) = 0.7.\nprob p(0, yes) | q(0, yes) = 0.3.\n",
         "incompletely quantified: ('p', 0): no applicable sentence at parents {('q', 0): 'no'}"),
    ],
)
def test_query_table_gap_is_one_readable_line_exit_4(runner, tmp_path, sentences, line):
    kb = tmp_path / "gap.ckb"
    kb.write_text(GAP_KB + sentences)
    r = runner.invoke(main, ["query", str(kb), "--query", "p(0, V)"])
    assert r.exit_code == 4
    assert r.output == line + "\n"


@pytest.mark.parametrize(
    "combine, line",
    [
        ("combine p with noisy_maxx.", "3:16: error: unknown combining rule 'noisy_maxx'"),
        ("combine p with noisy_max(distinguised=yes).",
         "3:26: error: combining rule noisy_max has no parameter 'distinguised'"),
        ("combine p with single_only(distinguished=yes).",
         "3:28: error: combining rule single_only has no parameter 'distinguished'"),
    ],
)
def test_check_bad_combining_rule_is_a_located_parse_error_exit_1(runner, tmp_path, combine, line):
    kb = tmp_path / "rule.ckb"
    kb.write_text(f"value p = {{ no, yes }}.\npred p(time).\n{combine}\n"
                  "prob p(0, yes) = 0.3.\nprob p(0, no) = 0.7.\n")
    for command in (["check", str(kb)], ["query", str(kb), "--query", "p(0, V)"]):
        r = runner.invoke(main, command)
        assert r.exit_code == 1
        assert r.output == f"{kb}:{line}\n"


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


def test_export_dot_lists_nodes_in_time_order(runner):
    r = runner.invoke(main, [
        "export-dot", data_path("paint.ckb"), "--query", "painted(door, 12, V)", "--to", "12",
    ])
    assert r.exit_code == 0, r.output
    lines = r.output.splitlines()
    assert lines.index('  "painted(door)@9";') < lines.index('  "painted(door)@10";')


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
    assert r.output == "context base: cycle: ('on', 0) -> ('on', 0)\n"


# f(X, 1) holds unless g(X, 1), and g(X, 1) needs not f(X, 1): a cycle through negation
# that a proof meets only after f(X, 0) holds
CYCLE_AT_1_KB = """
domain d = { a, b }.
value p = { no, yes }.
cpred f(d, time).
cpred g(d, time).
cpred h(d, time).
pred p(d, time).
ctx f(X, T) <- h(X, T).
ctx f(X, T) <- not g(X, T).
ctx g(X, T) <- f(X, T-1), not f(X, T).
prob p(X, T, yes) = 0.9 <- f(X, T).
prob p(X, T, no) = 0.1 <- f(X, T).
prob p(X, T, yes) = 0.2 <- not f(X, T).
prob p(X, T, no) = 0.8 <- not f(X, T).
"""


@pytest.mark.parametrize(
    "argv, line",
    [
        (["query", "--query", "p(b, 2, V)", "--to", "3"],
         "context base: cycle: ('f', 'b', 1) -> ('g', 'b', 1) -> ('f', 'b', 1)"),
        (["check", "--to", "3"], "context base: cycle: ('f', 'a', 1) -> ('g', 'a', 1) -> ('f', 'a', 1)"),
    ],
)
def test_context_cycle_line_exit_2(runner, tmp_path, argv, line):
    # the query path proves guards on demand, check grounds the whole window: one witness form
    kb = tmp_path / "cyc1.ckb"
    kb.write_text(CYCLE_AT_1_KB)
    r = runner.invoke(main, [argv[0], str(kb), *argv[1:]])
    assert r.exit_code == 2
    assert r.output == line + "\n"


# p at t needs q at t+1, which needs p at t: a cycle across time; Y occurs in the guard only
PB_CYCLE_KB = """
domain d = { a, b }.
value p = { no, yes }.
value q = { no, yes }.
cpred on(d, time).
pred p(time).
pred q(time).
prob p(T, yes) | q(T+1, yes) = 0.5 <- on(Y, T).
prob p(T, no) | q(T+1, yes) = 0.5 <- on(Y, T).
prob q(T, yes) | p(T-1, yes) = 0.5.
prob q(T, no) | p(T-1, yes) = 0.5.
"""


def test_probabilistic_cycle_line_exit_2(runner, tmp_path):
    kb = tmp_path / "pbcyc.ckb"
    kb.write_text(PB_CYCLE_KB)
    r = runner.invoke(main, ["check", str(kb), "--to", "3"])
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr == "probabilistic base: cycle: ('p', 0) -> ('q', 1) -> ('p', 0)\n"


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


@pytest.mark.parametrize(
    "args, line",
    [
        (["--query", "rhythm(john, 1, nsr)"],
         "error: query rhythm(john, 1, nsr): last argument must be a variable"),
        (["--query", "rhythm(john, 1, V)", "--from", "3", "--to", "1"],
         "error: bounds (3, 1) have lo > hi"),
    ],
)
def test_query_session_error_has_no_placeholder_location(runner, cardiac, args, line):
    r = runner.invoke(main, ["query", cardiac["kb"], *args])
    assert r.exit_code == 1
    assert r.output == line + "\n"


def test_project_error_names_the_query_as_written(runner, cardiac, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("epi(john, 0).\n")
    r = runner.invoke(main, [
        "project", cardiac["kb"], "--plan", str(plan), "--query", "epi(john, T)", "--to", "3",
    ])
    assert r.exit_code == 1
    assert r.output == "error: query epi(john, T) is not over a declared p-predicate\n"


# Runs the CLI as ``python -m ctxkb.cli`` would, then exits 7 if numpy was loaded
# and 8 if the bench module was.
_RUN_CLI_WITHOUT_NUMPY = "\n".join([
    "import runpy, sys",
    "try:",
    "    runpy.run_module('ctxkb.cli', run_name='__main__', alter_sys=True)",
    "except SystemExit as e:",
    "    if e.code:",
    "        raise",
    "sys.exit(7 if 'numpy' in sys.modules else 8 if 'ctxkb.bench' in sys.modules else 0)",
])


@pytest.mark.parametrize(
    "command",
    [
        ["query", "--context", "{ctx}", "--evidence", "{ev}", "--query", "rhythm(john, 3, V)"],
        ["project", "--plan", "{ctx}", "--evidence", "{ev}", "--query", "rhythm(X, T, V)",
         "--to", "3"],
    ],
)
def test_answering_does_not_import_numpy(cardiac, command):
    src = os.path.dirname(os.path.dirname(ctxkb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [command[0], cardiac["kb"]] + [a.format(**cardiac) for a in command[1:]]
    r = subprocess.run(
        [sys.executable, "-c", _RUN_CLI_WITHOUT_NUMPY, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert "vf" in r.stdout  # the answer's table was printed
    bare = subprocess.run(
        [sys.executable, "-c", "import ctxkb, sys; sys.exit(7 if 'numpy' in sys.modules else 0)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert bare.returncode == 0, bare.stderr


# ---------------------------------------------------------------------------
# Argument checks and output options


@pytest.mark.parametrize("command", ["query", "project", "oracle-diff"])
def test_missing_query_exit_1(runner, cardiac, command):
    plan = ["--plan", cardiac["ctx"]] if command == "project" else []
    r = runner.invoke(main, [command, cardiac["kb"], *plan])
    assert r.exit_code == 1
    assert r.output == f"{command}: --query is required\n"


def test_project_untimed_query_exit_1(runner, tmp_path):
    kb = tmp_path / "untimed.ckb"
    kb.write_text(
        "domain d = { a }.\nvalue q = { no, yes }.\npred q(d).\n"
        "prob q(X, yes) = 0.5.\nprob q(X, no) = 0.5.\n"
    )
    plan = tmp_path / "empty.txt"
    plan.write_text("")
    r = runner.invoke(main, ["project", str(kb), "--plan", str(plan), "--query", "q(a, V)"])
    assert r.exit_code == 1
    assert r.output == "project: query predicate 'q' has no time attribute\n"


def test_bench_plan_time_outside_horizon_exit_1(runner):
    r = runner.invoke(main, ["bench", "--horizon", "3", "--plan-times", "0,5"])
    assert r.exit_code == 1
    assert r.output == "bench: plan times [5] outside [0, 2]\n"


def test_check_json(runner, cardiac):
    r = runner.invoke(main, ["check", cardiac["kb"], "--to", "2", "--format", "json"])
    assert r.exit_code == 0, r.output
    assert r.output == json.dumps({"ok": True, "file": cardiac["kb"], "bounds": [0, 2]}) + "\n"


def test_export_dot_out_file(runner, cardiac, tmp_path):
    args = [cardiac["kb"], "--evidence", cardiac["ev"], "--query", "rhythm(john, 3, V)", "--to", "3"]
    shown = runner.invoke(main, ["export-dot", *args])
    assert shown.exit_code == 0, shown.output
    out = tmp_path / "net.dot"
    r = runner.invoke(main, ["export-dot", *args, "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert out.read_text(encoding="utf-8") == shown.output
    assert r.output == f"wrote {out} (4 nodes)\n"


def test_oracle_diff_json(runner, cardiac):
    r = runner.invoke(main, [
        "oracle-diff", cardiac["kb"], "--context", cardiac["ctx"], "--evidence", cardiac["ev"],
        "--query", "rhythm(john, 3, V)", "--to", "3", "--format", "json",
    ])
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert sorted(payload) == ["instances", "max_abs_diff"]
    assert payload["instances"] == 1
    assert 0 <= payload["max_abs_diff"] <= 1e-9


@pytest.mark.parametrize(
    "argv, line",
    [
        (["query"], "error: Missing argument 'KB_PATH'."),
        (["query", "{kb}", "--query", "rhythm(john, 1, V)", "--format", "xml"],
         "error: Invalid value for '--format': 'xml' is not one of 'table', 'json'."),
        (["query", "{kb}", "--query", "rhythm(john, 1, V)", "--to", "x"],
         "error: Invalid value for '--to': 'x' is not a valid integer."),
        ([], "error: Missing command."),
        (["--bogus"], "error: No such option '--bogus'."),
        (["export-dot", "{kb}", "--format", "json"],
         "error: No such option '--format'. (Did you mean one of: '--from', '--out'?)"),
        (["oracle-diff", "{kb}", "--query", "rhythm(john, 1, V)", "--to", "1", "--guard", "-1"],
         "error: Invalid value for '--guard': -1 is not in the range x>=0."),
    ],
    ids=["no-kb-path", "bad-format", "bad-to", "no-command", "unknown-group-option", "export-dot-format",
         "negative-guard"],
)
def test_usage_error_is_one_stderr_line_exit_1(runner, cardiac, argv, line):
    r = runner.invoke(main, [a.format(**cardiac) for a in argv])
    assert r.exit_code == 1
    assert r.stdout == ""
    assert r.stderr == line + "\n"


def test_help_exit_0(runner):
    for argv in (["query", "--help"], ["--help"]):
        r = runner.invoke(main, argv)
        assert r.exit_code == 0
        assert r.stdout.startswith("Usage: ")
        assert r.stderr == ""


def test_missing_kb_path_exit_1(runner, tmp_path):
    missing = tmp_path / "missing.ckb"
    r = runner.invoke(main, ["query", str(missing), "--query", "p(0, V)"])
    assert r.exit_code == 1
    assert r.stderr == f"[Errno 2] No such file or directory: '{missing}'\n"


def test_project_timestep_without_an_instance_is_a_dash_row(runner, tmp_path):
    kb = tmp_path / "one.ckb"
    kb.write_text(
        "value p = { no, yes }.\npred p(time).\nprob p(1, yes) = 0.5.\nprob p(1, no) = 0.5.\n"
    )
    plan = tmp_path / "empty.txt"
    plan.write_text("")
    r = runner.invoke(main, [
        "project", str(kb), "--plan", str(plan), "--query", "p(T, V)", "--from", "0", "--to", "1",
    ])
    assert r.exit_code == 0, r.output
    assert r.output == (
        "t  bindings  no           yes        \n"
        "0  -         -            -          \n"
        "1  -         0.500000000  0.500000000\n"
    )


def test_evidence_over_a_context_predicate_exit_1(runner, tmp_path):
    kb = tmp_path / "cq.ckb"
    kb.write_text(
        "value p = { no, yes }.\npred p(time).\ncpred q(time).\n"
        "prob p(t, yes) = 0.5.\nprob p(t, no) = 0.5.\n"
    )
    ev = tmp_path / "ev.txt"
    ev.write_text("q(1).\n")
    r = runner.invoke(main, ["query", str(kb), "--evidence", str(ev), "--query", "p(1, V)"])
    assert r.exit_code == 1
    assert r.stderr == "error: evidence atom q(1) is not a declared p-atom\n"


def test_query_at_a_negative_time_exit_1(runner):
    r = runner.invoke(main, ["query", data_path("paint.ckb"), "--query", "painted(door, -1, V)"])
    assert r.exit_code == 1
    assert r.stderr == "error: query painted(door, -1, V) timed outside [0, 0]\n"
