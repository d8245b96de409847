"""The benchmark's workloads: inputs drawn from a seed, CLI command rounds, output checks.

Each workload writes its inputs into a work directory and returns a ``Plan``:
one round of ``bitwave`` CLI commands (run with that directory as the current
directory, so every path the program sees and records is relative) and the
input files whose first parse counts toward set-up time. Checks read the
artifacts themselves and recompute what they can with the public API; they
do not rely on the program's own validation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BITS = (1, 2, 4, 6, 8, 10, 16)
DSE_MODELS = ("alexnet", "resnet20", "svhn_cnn")
GRID = {
    "v": list(range(8, 129, 8)),
    "k": list(range(4, 65, 4)),
    "b": [1, 2, 4, 8],
    "V": [100, 200],
    "K": [50, 100],
}
LASER_CEILING_DBM = 30.0
# Rejects about a quarter of GRID (1,068 of 4,096 configurations).
MAX_POWER_W = 200.0
FUZZ_TRIALS = 2000
FUZZ_SAMPLE = 20


class CheckError(Exception):
    """An artifact failed one of the benchmark's own output checks."""


@dataclass
class Outcome:
    """What one CLI command produced."""

    code: int
    stdout: str
    files: dict[str, bytes]  # artifact name -> bytes


@dataclass
class Command:
    argv: list[str]
    out_dir: str
    work: int  # work items: (config x model) evaluations, fuzz trials, or 1 command
    check: Callable[[Outcome], None]  # raises CheckError


@dataclass
class Plan:
    round: list[Command]
    setup_inputs: list[str]  # "kind:value" items parsed by setup_probe.py
    modelled: Callable[[list[Outcome]], dict]  # simulated results from one round
    meta: dict = field(default_factory=dict)


# -- strict parsing --------------------------------------------------------------


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def strict_json(data: bytes) -> dict:
    """Parse JSON with NaN and Infinity rejected."""
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckError(f"invalid JSON: {exc}") from exc


def csv_rows(data: bytes) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CLI CSV artifact (manifest comment line skipped)."""
    lines = [l for l in data.decode("utf-8").splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows:
        raise CheckError("empty CSV")
    return rows[0], rows[1:]


def _artifact(out: Outcome, name: str) -> bytes:
    if out.code != 0:
        raise CheckError(f"exit code {out.code}")
    if name not in out.files:
        raise CheckError(f"missing artifact {name}")
    return out.files[name]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- inputs ----------------------------------------------------------------------


def write_models(repo: Path, work: Path, names: list[str], seed: int) -> list[str]:
    """Copy shipped models into ``work/models``; a nonzero seed redraws every layer's bits."""
    rng = random.Random(seed)
    (work / "models").mkdir(parents=True, exist_ok=True)
    paths = []
    for name in names:
        src = repo / "models" / f"{name}.json"
        dst = f"models/{name}.json"
        if seed == 0:
            shutil.copyfile(src, work / dst)
        else:
            doc = json.loads(src.read_text(encoding="utf-8"))
            n = len(doc["layers"])
            doc["weight_bits"] = [rng.choice(BITS) for _ in range(n)]
            doc["act_bits"] = [rng.choice(BITS) for _ in range(n)]
            for layer in doc["layers"]:
                layer.pop("weight_bits", None)
                layer.pop("act_bits", None)
            (work / dst).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths.append(dst)
    return paths


# -- dse_sweep -------------------------------------------------------------------


def dse_sweep(repo: Path, work: Path, seed: int, bw) -> Plan:
    models = write_models(repo, work, list(DSE_MODELS), seed)
    space = {**GRID, "constraints": {"laser_ceiling_dbm": LASER_CEILING_DBM, "max_power_w": MAX_POWER_W}}
    (work / "grid.json").write_text(json.dumps(space, indent=2) + "\n", encoding="utf-8")
    enumerated = math.prod(len(set(GRID[d])) for d in ("v", "k", "b", "V", "K"))

    def check(out: Outcome) -> None:
        best_doc = strict_json(_artifact(out, "best.json"))
        _, rows = csv_rows(_artifact(out, "ranking.csv"))
        _require(len(rows) + best_doc["infeasible_count"] == enumerated,
                 f"{len(rows)} ranked + {best_doc['infeasible_count']} infeasible != {enumerated}")
        best = best_doc["best"]
        _require(best is not None, "no best configuration")
        cfg = bw.arch_model.ArchConfig(**best["config"], laser_ceiling_dbm=LASER_CEILING_DBM)
        for path in models:
            model = bw.workload_ir.load_workload(work / path)
            rep = bw.arch_model.simulate_inference(model, cfg)
            got = best["per_model"][model.name]
            for key in ("gops", "epb_j_per_bit", "gops_per_epb"):
                _require(got[key] == getattr(rep, key),
                         f"best {model.name} {key} {got[key]!r} != fresh {getattr(rep, key)!r}")

    def modelled(outcomes: list[Outcome]) -> dict:
        best_doc = strict_json(_artifact(outcomes[0], "best.json"))
        return {"best": best_doc["best"], "infeasible_count": best_doc["infeasible_count"],
                "evaluated": best_doc["evaluated"]}

    cmd = Command(["explore", *models, "--space", "grid.json", "--out-dir", "out/explore"],
                  "out/explore", enumerated * len(models), check)
    setup = [f"model:{p}" for p in models] + ["space:grid.json"]
    return Plan([cmd], setup, modelled, {"configs": enumerated, "models": len(models)})


# -- fuzz_validate ---------------------------------------------------------------


def fuzz_validate(repo: Path, work: Path, seed: int, bw) -> Plan:
    argv = ["validate", "--trials", str(FUZZ_TRIALS), "--seed", str(seed), "--out-dir", "out/validate"]
    bse = bw.bitslice_engine
    rng = random.Random(seed)

    def check(out: Outcome) -> None:
        summary = strict_json(_artifact(out, "validate.json"))
        lines = out.stdout.splitlines()
        _require(bool(lines) and lines[0] == f"{FUZZ_TRIALS}/{FUZZ_TRIALS} ok",
                 f"validate printed {lines[:1]!r}")
        _require(summary["trials"] == FUZZ_TRIALS and summary["failures"] == 0,
                 f"validate.json reports {summary['failures']} failures in {summary['trials']} trials")
        _require(f"trial digest: {summary['digest']}" in lines, "stdout and validate.json digests differ")
        for _ in range(FUZZ_SAMPLE):
            p_a, p_w = rng.choice(BITS), rng.choice(BITS)
            b = rng.choice((1, 2, 4, 8))
            mode = rng.choice((bse.FC, bse.CONV))
            n = rng.randint(1, 64)
            a = [rng.randrange(1 << p_a) for _ in range(n)]
            w = [rng.randrange(1 << p_w) for _ in range(n)]
            exact = sum(x * y for x, y in zip(a, w))
            result, trace = bse.execute_dot(a, w, p_a, p_w, b, mode)
            _require(result == exact and bse.reconstruct(trace) == exact,
                     f"execute_dot({p_a}, {p_w}, b={b}, {mode}) != exact sum")

    def modelled(outcomes: list[Outcome]) -> dict:
        return {"digest": strict_json(_artifact(outcomes[0], "validate.json"))["digest"]}

    cmd = Command(argv, "out/validate", FUZZ_TRIALS, check)
    return Plan([cmd], ["argv:" + " ".join(argv)], modelled, {"trials": FUZZ_TRIALS})


# -- cli_batch -------------------------------------------------------------------


def cli_batch(repo: Path, work: Path, seed: int, bw) -> Plan:
    names = sorted(p.stem for p in (repo / "models").glob("*.json"))
    models = write_models(repo, work, names, seed)
    shutil.copyfile(repo / "configs" / "reference.json", work / "reference.json")
    (work / "baselines").mkdir(exist_ok=True)
    baselines = sorted((repo / "baselines").glob("*.json"))
    for b in baselines:
        shutil.copyfile(b, work / "baselines" / b.name)
    layers = {p: len(json.loads((work / p).read_text(encoding="utf-8"))["layers"]) for p in models}

    def check_simulate(path: str):
        def check(out: Outcome) -> None:
            report = strict_json(_artifact(out, "report.json"))["report"]
            per_layer = report["per_layer"]
            _require(len(per_layer) == layers[path],
                     f"{path}: {len(per_layer)} layer reports for {layers[path]} layers")
            total = 0
            for entry in per_layer:
                total += entry["energy_j"]
            _require(total == report["energy_j"], f"{path}: layer energies sum to {total!r} != {report['energy_j']!r}")
            _, rows = csv_rows(_artifact(out, "report_layers.csv"))
            _require(len(rows) == layers[path], f"{path}: report_layers.csv has {len(rows)} rows")
        return check

    def check_compare(group: list[str]):
        want = len(group) * (1 + len(baselines))

        def check(out: Outcome) -> None:
            _, rows = csv_rows(_artifact(out, "compare.csv"))
            _require(len(rows) == want, f"compare.csv has {len(rows)} rows, want {want}")
            for row in rows:
                for value in row[2:]:
                    _require(math.isfinite(float(value)), f"compare.csv value {value!r} is not finite")
        return check

    cmds = []
    for i, path in enumerate(models):
        out_dir = f"out/sim-{i:02d}"
        cmds.append(Command(["simulate", path, "--config", "reference.json", "--out-dir", out_dir],
                            out_dir, 1, check_simulate(path)))
    # One compare of every model: compares are then 1 command in 16, so p90 falls in
    # the upper tail of the simulates and p99 in that of the compares, never on
    # the boundary between the two kinds of command.
    cmds.append(Command(["compare", *models, "--config", "reference.json", "--baselines", "baselines",
                         "--out-dir", "out/compare"], "out/compare", 1, check_compare(models)))

    def modelled(outcomes: list[Outcome]) -> dict:
        per_model = {}
        for out in outcomes:
            if "report.json" in out.files:
                rep = strict_json(out.files["report.json"])["report"]
                per_model[rep["model_name"]] = {
                    k: rep[k] for k in ("total_time_steps", "latency_s", "energy_j", "gops_per_epb")
                }
        return {"reference_config": per_model}

    setup = ([f"model:{p}" for p in models] + ["config:reference.json"]
             + [f"baseline:baselines/{b.name}" for b in baselines])
    return Plan(cmds, setup, modelled, {"models": len(models), "baselines": len(baselines)})


WORKLOADS = {"dse_sweep": dse_sweep, "fuzz_validate": fuzz_validate, "cli_batch": cli_batch}
