"""Tests of the benchmark itself: output checks, tracing, seeds and its contract file.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Large enough in v, k, V and K that the power cap rejects part of it.
SMALL_GRID = {"v": [8, 128], "k": [4, 64], "b": [2, 4], "V": [200], "K": [100]}


@pytest.fixture(scope="module")
def bw():
    return run.load_program()


@pytest.fixture
def small(monkeypatch):
    """Shrink the two long commands so each test runs in well under a second."""
    monkeypatch.setattr(workloads, "GRID", SMALL_GRID)
    monkeypatch.setattr(workloads, "FUZZ_TRIALS", 200)


def _plan(name, bw, tmp_path, monkeypatch, seed=0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(tmp_path)
    return workloads.WORKLOADS[name](REPO, tmp_path, seed, bw)


def _first(bw, plan, kind):
    """The first command of the round whose argv starts with ``kind``, run once."""
    index = next(i for i, c in enumerate(plan.round) if c.argv[0] == kind)
    rec, outcome = run.run_command(bw, index, plan.round[index], None)
    assert rec.problem is None, rec.problem
    return plan.round[index], outcome


def _corrupt(outcome, name, old, new):
    data = outcome.files[name].decode()
    assert old in data, (name, old)
    files = {**outcome.files, name: data.replace(old, new, 1).encode()}
    return workloads.Outcome(outcome.code, outcome.stdout, files)


def _drop_last_row(outcome, name):
    lines = outcome.files[name].decode().splitlines(keepends=True)
    return workloads.Outcome(outcome.code, outcome.stdout, {**outcome.files, name: "".join(lines[:-1]).encode()})


def _assert_flagged(cmd, outcome):
    with pytest.raises(Exception):
        cmd.check(outcome)


def test_dse_checks_flag_corrupted_artifacts(bw, small, tmp_path, monkeypatch):
    plan = _plan("dse_sweep", bw, tmp_path, monkeypatch)
    cmd, good = _first(bw, plan, "explore")
    best = json.loads(good.files["best.json"])["best"]
    gops = repr(best["per_model"]["alexnet"]["gops"])
    _assert_flagged(cmd, _corrupt(good, "best.json", gops, "NaN"))
    _assert_flagged(cmd, _corrupt(good, "best.json", gops, repr(best["per_model"]["alexnet"]["gops"] * (1 + 1e-15))))
    _assert_flagged(cmd, _drop_last_row(good, "ranking.csv"))
    _assert_flagged(cmd, workloads.Outcome(3, good.stdout, good.files))


def test_fuzz_checks_flag_corrupted_artifacts(bw, small, tmp_path, monkeypatch):
    plan = _plan("fuzz_validate", bw, tmp_path, monkeypatch)
    cmd, good = _first(bw, plan, "validate")
    _assert_flagged(cmd, workloads.Outcome(good.code, good.stdout.replace("200/200 ok", "199/200 ok"), good.files))
    _assert_flagged(cmd, _corrupt(good, "validate.json", '"failures": 0', '"failures": 1'))
    _assert_flagged(cmd, workloads.Outcome(1, good.stdout, good.files))


def test_cli_batch_checks_flag_corrupted_artifacts(bw, tmp_path, monkeypatch):
    plan = _plan("cli_batch", bw, tmp_path, monkeypatch)
    sim, good = _first(bw, plan, "simulate")
    first_energy = json.loads(good.files["report.json"])["report"]["per_layer"][0]["energy_j"]
    _assert_flagged(sim, _corrupt(good, "report.json", repr(first_energy), "Infinity"))
    _assert_flagged(sim, _corrupt(good, "report.json", repr(first_energy), repr(first_energy * 2)))
    _assert_flagged(sim, _drop_last_row(good, "report_layers.csv"))
    cmp, good = _first(bw, plan, "compare")
    _assert_flagged(cmp, _drop_last_row(good, "compare.csv"))
    _assert_flagged(cmp, _corrupt(good, "compare.csv", ",bitwave,", ",bitwave,nan,"))


def test_failed_check_counts_as_failed_op_without_aborting(bw, small, tmp_path, monkeypatch):
    plan = _plan("fuzz_validate", bw, tmp_path, monkeypatch)
    cmd = plan.round[0]

    def failing(outcome):
        raise workloads.CheckError("corrupt")

    bad = workloads.Command(cmd.argv, cmd.out_dir, cmd.work, failing)
    rec, _ = run.run_command(bw, 0, bad, None)
    assert rec.problem is not None and "corrupt" in rec.problem
    raising = workloads.Command(["simulate", "missing.json", "--config", "nope.json"], "out/x", 1, cmd.check)
    assert run.run_command(bw, 0, raising, None)[0].problem is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_byte_identical(name, bw, small, tmp_path, monkeypatch):
    plan = _plan(name, bw, tmp_path, monkeypatch, seed=5)
    mods = run.tracer_modules(bw)
    before = {(k, attr): getattr(m, attr) for k, m in mods.items() for attr in dir(m)}
    reference, untraced, traced = [], run.Tally(), run.Tally()
    run.run_round(bw, plan, untraced, reference)
    tracer = Tracer(mods)
    run.run_round(bw, plan, traced, reference, tracer)
    assert len(reference) == len(plan.round)
    assert untraced.problems == [] and traced.problems == []
    assert tracer.names.count("cli.main") == len(plan.round)
    after = {(k, attr): getattr(m, attr) for k, m in mods.items() for attr in dir(m)}
    assert all(after[key] is value for key, value in before.items()), "wrappers left installed"


def test_artifacts_that_differ_from_the_first_run_count_as_failed(bw, small, tmp_path, monkeypatch):
    plan = _plan("fuzz_validate", bw, tmp_path, monkeypatch)
    tally = run.Tally()
    run.run_round(bw, plan, tally, ["0" * 64] * len(plan.round))
    assert len(tally.problems) == len(plan.round)
    assert "differ from the first run" in tally.problems[0]


def test_self_time_subtracts_children(bw):
    tracer = Tracer(run.tracer_modules(bw))
    tracer.names, tracer.parents = ["cli.main", "dse.explore", "arch_model.max_power"], [-1, 0, 1]
    tracer.starts, tracer.ends = [0.0, 1.0, 2.0], [10.0, 6.0, 3.0]
    calls, total, self_s = tracer.totals()
    assert self_s == {"cli.main": 5.0, "dse.explore": 4.0, "arch_model.max_power": 1.0}
    assert total["cli.main"] == 10.0 and calls["dse.explore"] == 1


def test_seed_zero_uses_shipped_models_and_other_seeds_redraw_bits(tmp_path):
    names = ["alexnet", "resnet20"]
    shipped = workloads.write_models(REPO, tmp_path / "s0", names, 0)
    for path in shipped:
        assert (tmp_path / "s0" / path).read_bytes() == (REPO / path).read_bytes()
    a = workloads.write_models(REPO, tmp_path / "a", names, 7)
    b = workloads.write_models(REPO, tmp_path / "b", names, 7)
    for pa, pb, p0 in zip(a, b, shipped):
        doc_a = json.loads((tmp_path / "a" / pa).read_text())
        doc_0 = json.loads((REPO / p0).read_text())
        assert (tmp_path / "a" / pa).read_bytes() == (tmp_path / "b" / pb).read_bytes()
        assert doc_a["layers"] == doc_0["layers"]
        assert set(doc_a["weight_bits"]) <= set(workloads.BITS)
        assert doc_a["weight_bits"] != doc_0["weight_bits"]


def test_benchmark_json_metrics_are_measured_and_move_on_some_workload(bw, small, tmp_path, monkeypatch):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = run.end_to_end(run.Tally(array("d", [0.5]), array("d", [0.4])), [(0.1, 0.09)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    units, nonzero = {}, set()
    for name in workloads.WORKLOADS:
        plan = _plan(name, bw, tmp_path / name, monkeypatch)
        reference, untraced, traced = [], run.Tally(), run.Tally()
        run.run_round(bw, plan, untraced, reference)
        tracer = Tracer(run.tracer_modules(bw))
        run.run_round(bw, plan, traced, reference, tracer)
        layers = run.per_layer(tracer, untraced, traced)
        units.update((k, u) for k, (_, u) in layers.items())
        nonzero.update(k for k, (v, _) in layers.items() if v)
    assert all(units[m["name"]] == m["unit"] for m in spec["per_layer"])
    assert {m["name"] for m in spec["per_layer"]} <= nonzero, "a listed per-layer metric reads 0 on every workload"


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_batch", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
