"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import ast
import dataclasses
import json
import pickle
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hostspeed
import oracles
import run
import spans
import workloads
from spans import Span, Tracer, layer_metrics, self_times

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def pa():
    return run.import_fresh()


@pytest.fixture(scope="module")
def cli_plan(pa, tmp_path_factory):
    """cli-requests without the random population: fixtures and the lattice.
    The plan goes through pickle, as it does between plan.py and run.py."""
    cli = workloads.CliRequests()
    spec = {**cli.generate(1, pa), "population": []}
    workdir = tmp_path_factory.mktemp("cli")
    plan = cli.plan(spec, cli.build(spec, pa, workdir), pa)
    return spec, workdir, pickle.loads(pickle.dumps(plan))


def _cli_ops(pa, cli_plan):
    spec, workdir, plan = cli_plan
    cli = workloads.CliRequests()
    return cli.ops(cli.build(spec, pa, workdir), pa, plan)


# -- generators ------------------------------------------------------------


def test_generators_are_deterministic_per_seed(pa):
    grid, cli = workloads.GridAnalysis(), workloads.CliRequests()
    assert grid.generate(3, pa) == grid.generate(3, pa) != grid.generate(4, pa)
    assert cli.generate(3, pa) == cli.generate(3, pa) != cli.generate(4, pa)
    first = workloads.lattice_net(6, random.Random(5))
    assert first == workloads.lattice_net(6, random.Random(5))
    assert first != workloads.lattice_net(6, random.Random(6))


def test_cli_lattice_is_in_its_depth_window(pa):
    lattice = workloads.CliRequests().generate(2, pa)["lattice"]
    assert len(lattice.edges) == 2 * 5 * 4
    lo, hi = workloads.CLI_LATTICE_DEPTH
    assert lo <= len(oracles.grouping_prefix(lattice, lattice.true_cost)) <= hi


def test_timed_modules_do_not_load_networkx():
    code = "import sys, run, workloads, oracles, spans; print('networkx' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def _underscore_attributes(tree: ast.AST) -> list[str]:
    """Non-dunder `_name` attributes read on anything but `self`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__"):
            if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                out.append(f"line {node.lineno}: .{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pathauction"):
            out += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.startswith("_")]
    return out


def test_benchmark_uses_only_public_pathauction_names():
    for path in HERE.glob("*.py"):
        assert _underscore_attributes(ast.parse(path.read_text())) == [], path.name
    for module, attr, _, _ in spans.BINDINGS:
        assert not any(part.startswith("_") for part in [*module.split("."), *attr.split(".")])


def test_public_name_scan_catches_a_private_name():
    assert _underscore_attributes(ast.parse("pa.mechanisms._resolve_bids(n, b)"))
    assert _underscore_attributes(ast.parse("from pathauction.graph import _best_path"))


# -- verification ----------------------------------------------------------


def _vcg_json_op(ops):
    """A `run --mechanism vcg --format json` request whose answer is a payment."""
    return next(o for o in ops if o.name.startswith("run:fig2:")
                and o.name.endswith("--mechanism vcg --format json"))


def test_corrupted_payment_fails_verification(pa, cli_plan):
    ops = _cli_ops(pa, cli_plan)
    op = _vcg_json_op(ops)
    honest = op.call()
    payload = json.loads(honest.out)
    agent = next(a for a in payload["payments"] if Fraction(payload["payments"][a]) > 0)
    payload["payments"][agent] = str(Fraction(payload["payments"][agent]) + 1)
    unbalanced = json.dumps(payload)
    payload["total"] = str(Fraction(payload["total"]) + 1)
    for corrupt in (unbalanced, json.dumps(payload)):
        op.call = lambda c=corrupt: dataclasses.replace(honest, out=c)
        tally = run.Tally()
        run.run_pass(ops, tally, {})
        assert tally.failed == 1 and tally.reasons[0].startswith(op.name)


def test_output_that_changes_between_passes_fails(pa, cli_plan):
    ops = _cli_ops(pa, cli_plan)
    op = _vcg_json_op(ops)
    honest = op.call()
    # The second pass still satisfies the oracle but is not what the first returned.
    outputs = [honest, dataclasses.replace(honest, out=honest.out + "\n")]
    op.call = lambda: outputs.pop(0)
    tally, first = run.Tally(), {}
    run.run_pass(ops, tally, first)
    run.run_pass(ops, tally, first)
    assert tally.failed == 1


def test_grid_ops_pass_their_oracles_and_catch_a_wrong_count(pa, tmp_path):
    grid = workloads.GridAnalysis()
    spec = grid.generate(1, pa)[:2]
    built = grid.build(spec, pa, tmp_path)
    plan = pickle.loads(pickle.dumps(grid.plan(spec, built, pa)))
    ops = grid.ops(built, pa, plan)
    assert len(ops) == len(workloads.GRID_FIXTURES) * len(workloads.GRID_RULES) + 2 * len(spec)
    tally = run.Tally()
    run.run_pass(ops, tally, {})
    assert tally.failed == 0, tally.reasons
    op = next(o for o in ops if o.name.startswith("check_partly_truthful:"))
    op.check = dataclasses.replace(op.check, failures=op.check.failures + 1)
    run.run_pass(ops, tally, {})
    assert tally.failed == 1


def test_cli_exit_codes_follow_the_table_except_the_known_defect(pa, cli_plan):
    ops = _cli_ops(pa, cli_plan)
    tally = run.Tally()
    run.run_pass(ops, tally, {})
    assert tally.failed == 0, tally.reasons
    # The TooLarge guard exits 1 where the README documents 3: one request.
    assert tally.known_defects == 1
    errors = tally.failed + tally.known_defects
    assert errors / tally.attempted == 1 / len(ops)


def test_corrupted_exit_code_fails_verification(pa, cli_plan):
    ops = _cli_ops(pa, cli_plan)
    tied = next(o for o in ops if o.name.startswith("run:fig3:") and "tied" in o.name)
    honest = tied.call()
    assert honest.code == workloads.EXIT_TIE
    tied.call = lambda: dataclasses.replace(honest, code=workloads.EXIT_OK)
    tally = run.Tally()
    run.run_pass(ops, tally, {})
    assert tally.failed == 1
    assert (tally.failed + tally.known_defects) / tally.attempted == 2 / len(ops)


def test_known_defect_only_covers_the_recorded_exit_code():
    check = workloads.ExitCheck(workloads.EXIT_GUARD, known=workloads.EXIT_FAIL)
    result = workloads.CliResult
    assert check(result(1, "", "error: too large")) == workloads.KNOWN_DEFECT
    assert check(result(3, "", "error: too large")) == workloads.OK
    assert check(result(0, "", "")) not in (workloads.OK, workloads.KNOWN_DEFECT)


def test_broken_json_output_fails_verification():
    expect = oracles.PathExpectation(Fraction(5), ("e",))
    check = workloads.run_json_check(expect)
    good = json.dumps({"total": "5", "payments": {"e": "5", "f": "0"}, "chosen_path": ["e"]})
    assert check(workloads.CliResult(0, good, "")) == workloads.OK
    assert check(workloads.CliResult(0, good[:-1], "")) != workloads.OK
    wrong = good.replace('"total": "5"', '"total": "6"')
    assert check(workloads.CliResult(0, wrong, "")) != workloads.OK


# -- tracing ---------------------------------------------------------------


def _span(sid, parent, layer, start, end, name="f", outcome="ok", units=0):
    return Span(sid, parent, 0, layer, name, start, end, outcome, units)


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        _span(0, None, "op", 0, 100),
        _span(1, 0, "graph", 10, 40),
        _span(2, 0, "mechanisms", 50, 90, outcome="TieError"),
        _span(3, 2, "graph", 60, 70),
        _span(4, 2, "rational", 72, 75),
    ]
    assert self_times(tree) == {0: 30, 1: 30, 2: 27, 3: 10, 4: 3}
    m = layer_metrics(tree)
    assert m["graph.self_s"] == pytest.approx(40e-9)
    assert m["mechanisms.self_s"] == pytest.approx(27e-9)
    assert m["rational.self_s"] == pytest.approx(3e-9)
    assert m["mechanisms.runs"] == 1 and m["mechanisms.tie_ratio"] == 1.0
    assert m["graph.calls"] == 2


def test_runs_per_profile_counts_runs_under_grid_walks():
    tree = [
        _span(0, None, "analysis", 0, 100, units=4),
        *[_span(i, 0, "mechanisms", 10 * i, 10 * i + 5) for i in (1, 2)],
        _span(3, None, "analysis", 100, 120),
        _span(4, 3, "mechanisms", 101, 110),
    ]
    m = layer_metrics(tree)
    assert m["analysis.profiles"] == 4 and m["analysis.runs_per_profile"] == 0.5
    assert m["analysis.us_per_profile"] == pytest.approx(100 / 1e3 / 4)


def test_generator_time_is_the_sum_of_next_calls():
    import types
    module = types.SimpleNamespace(gen=lambda n: iter(range(n)))
    tracer = Tracer()
    missing = tracer.install({"m": module}, [("m", "gen", "graph", "iter"),
                                             ("m", "absent", "graph", None)])
    assert missing == ["m.absent"]
    assert list(module.gen(3)) == [0, 1, 2]
    tracer.uninstall()
    assert list(module.gen(2)) == [0, 1]  # restored: no spans recorded
    done = tracer.finished()
    assert [s.name for s in done] == ["m.gen"] + ["m.gen.next"] * 4
    m = layer_metrics(done)
    assert m["graph.paths_ranked"] == 3 and m["graph.calls"] == 1


def test_counts_repeat_exactly_across_traced_passes(pa, cli_plan):
    ops = _cli_ops(pa, cli_plan)
    tally, tracer, per_pass = run.traced_loop(ops, 0.0, pa)
    tally, tracer, again = run.traced_loop(ops, 0.0, pa)
    assert tally.failed == 0
    counts = lambda m: {k: m[k] for k in spans.COUNT_METRICS}
    assert counts(per_pass[0]) == counts(again[0])
    assert per_pass[0]["cli.requests"] == len(ops)
    assert per_pass[0]["graph.paths_ranked"] > 0 and per_pass[0]["mechanisms.runs"] > 0
    assert per_pass[0]["analysis.profiles"] > 0 and per_pass[0]["rational.calls"] > 0


# -- the command -----------------------------------------------------------


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-analysis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_run_prints_a_correct_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-requests", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    assert set(result["metrics"]) == set(run.declared_metrics()["end_to_end"])


def test_declared_metrics_match_what_the_runner_reports():
    declared = run.declared_metrics()
    assert set(declared["end_to_end"]) == {
        "setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"}
    reported = set(layer_metrics([])) | set(run.PASS_COUNTS) | {
        "trace.overhead_s", "trace.overhead_ratio", "timing.mean_over_median",
        "timing.host_factor"}
    assert set(declared["per_layer"]) == reported


def test_times_are_per_operation_medians_of_scaled_times():
    nominal = hostspeed.NOMINAL_S
    # The second pass ran on a host twice as slow: its unit took twice as long.
    tally = run.Tally([[3.0, 1.0, 2.0], [2.0, 8.0, 4.0], [1.0, 1.0, 2.0]],
                      [[nominal] * 3, [2 * nominal] * 3, [nominal] * 3])
    assert tally.scaled_passes()[1] == pytest.approx([1.0, 4.0, 2.0])
    assert tally.op_times() == pytest.approx([1.0, 1.0, 2.0])
    assert tally.raw_op_times() == [2.0, 1.0, 2.0]
    assert tally.mean_over_median() == pytest.approx((6.0 + 7.0 + 4.0) / 3 / 4.0)
    assert tally.host_factor() == pytest.approx(1.0)


def test_reference_unit_is_fixed_work_outside_the_program():
    assert hostspeed.unit() == hostspeed.unit()
    source = (HERE / "hostspeed.py").read_text(encoding="utf-8")
    assert "pathauction" not in source.split('"""', 2)[2]
    assert 0 < hostspeed.time_unit(run.CLOCK) < 1.0


def test_grid_analysis_has_enough_operations_for_p90():
    per_pass = len(workloads.GRID_FIXTURES) * len(workloads.GRID_RULES) + 2 * workloads.POPULATION
    assert per_pass >= run.MIN_OPS


def test_percentile_leaves_ten_samples_beyond_p90_at_one_hundred():
    value, beyond = run.percentile([float(i) for i in range(100)], 0.9)
    assert value == 89.0 and beyond == 10
