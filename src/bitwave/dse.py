"""Grid search over (v, k, b, V, K) configurations ranked by GOPS/EPB.

The search space file (JSON) lists candidate values per dimension plus
optional constraints:

    {
      "v": [25, 50], "k": [10, 20], "b": [2, 4], "V": [100, 200], "K": [50, 100],
      "constraints": {"max_power_w": 100.0, "laser_ceiling_dbm": 30.0}
    }

Dimension values are ints (not bools); each constraint is a finite number
or null.

Every enumerated configuration is evaluated on every workload; the
aggregate score across workloads is the geometric mean of per-workload
GOPS/EPB by default (scale-free across models of very different size).
Ranking and tie-breaking are deterministic regardless of evaluation order.

The search only memoizes ``arch_model``: it prices each configuration with
``am.max_power`` and takes a model's totals from ``am.model_latency_s`` and
``am.model_energy_j``, as ``simulate_inference`` does, so every result is
bit-identical to ``max_power`` plus ``simulate_inference`` on each
configuration. Each model splits once into runs of same-kind layers
(``kind_runs``), and its MAC and processed-bit totals are taken once. Three
memos hold the rest, each with one owner:

* ``run_costs`` in ``explore``: a run is costed (``run_cost``, on the
  converters of ``bitwave_plan(kind, b)``) once per (model, run, width, b),
  with width v for FC and k for CONV.
* One dict per (v, k, b) group in ``explore``. Configurations are enumerated
  in (v, k, b, V, K) order, so they come in such groups, and a run's laser
  verdict is fixed within one: ``check_runs`` reads a configuration only
  through V >= 1 and K >= 1. The dict maps (model, V >= 1, K >= 1) to None
  if ``check_runs`` finds a failing unit, else to the model's runs and its
  ``model_energy_j``; it is dropped before the next group. A ValueError is
  never stored: it propagates from the first configuration that meets it.
* ``MvuCache.placements`` and ``MvuCache.latency_s`` on the one unit cache of
  the search: a run's placement (``place_run``), and its latencies' sum, once
  per unit count.
  The same cache builds each unit's device table once per (unit, plan).

A configuration under the power cap then costs one ``model_latency_s`` and
one ``efficiency`` per model. ``model_latency_s`` starts from the first
run's cached sum and adds only the later runs' terms: 2, 1 and 3 terms for
alexnet, resnet20 and svhn_cnn, whose first runs hold 5, 19 and 4 of their
7, 20 and 7 layers.
"""

import itertools
import math
from pathlib import Path
from typing import NamedTuple

from . import arch_model as am
from . import workload_ir as wir
from .device_catalog import DEFAULT_CATALOG, DeviceCatalog

AGGREGATES = ("geomean", "mean", "min")


class SearchConstraints(NamedTuple):
    max_power_w: float | None = None
    laser_ceiling_dbm: float | None = None


class SearchSpace(NamedTuple):
    v: tuple[int, ...]
    k: tuple[int, ...]
    b: tuple[int, ...]
    V: tuple[int, ...]
    K: tuple[int, ...]
    constraints: SearchConstraints = SearchConstraints()


def search_space_from_dict(doc: dict) -> SearchSpace:
    return SearchSpace(**wir.read_fields(doc, SearchSpace, "search space"))


def load_search_space(path: str | Path) -> SearchSpace:
    return search_space_from_dict(wir.read_json(path))


def enumerate_configs(space: SearchSpace) -> list[am.ArchConfig]:
    """Cartesian product of the value lists, deduplicated, ascending order."""
    dims = [sorted(set(getattr(space, d))) for d in ("v", "k", "b", "V", "K")]
    ceiling = space.constraints.laser_ceiling_dbm
    extra = {} if ceiling is None else {"laser_ceiling_dbm": ceiling}
    return [
        am.ArchConfig(v=v, k=k, b=b, V=V, K=K, **extra)
        for v, k, b, V, K in itertools.product(*dims)
    ]


class ModelScore(NamedTuple):
    epb_j_per_bit: float
    gops: float
    gops_per_epb: float


class EvaluatedConfig(NamedTuple):
    config: am.ArchConfig
    score: float
    max_power_w: float
    per_model: dict  # model name -> ModelScore


class SearchResult(NamedTuple):
    ranked: tuple[EvaluatedConfig, ...]
    best: EvaluatedConfig | None
    infeasible_count: int
    diagnostics: dict  # constraint name -> rejected-config count


def _aggregate(values: list[float], how: str) -> float:
    if how == "geomean":
        logs = []
        for x in values:
            if x <= 0:
                return 0.0
            logs.append(math.log(x))
        return math.exp(wir.float_sum(logs) / len(values))
    if how == "mean":
        return wir.float_sum(values) / len(values)
    return min(values)  # explore has checked that ``how`` is one of AGGREGATES


def _rank_key(entry: EvaluatedConfig) -> tuple:
    c = entry.config
    return (-entry.score, entry.max_power_w, c.v, c.k, c.b, c.V, c.K)


def explore(
    models: list[wir.WorkloadModel],
    space: SearchSpace,
    catalog: DeviceCatalog = DEFAULT_CATALOG,
    aggregate: str = "geomean",
) -> SearchResult:
    """Evaluate every configuration on every model and rank by GOPS/EPB.

    Equivalent to ``am.max_power`` and then ``am.simulate_inference`` on
    each model for each configuration, with the same results and the same
    errors in the same order: a configuration over the power cap is rejected
    before any check, one whose laser budget fails for some model is
    rejected at that model, and a ValueError (V=0 or K=0 with layers that
    need them) propagates. Model names must differ: scores are keyed by name.

    The module docstring describes the memos that make this cheap.
    """
    if not models:
        raise ValueError("explore needs at least one workload model")
    wir.check_unique("model", [m.name for m in models], "explore scores each model by its name")
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r}; pick one of {AGGREGATES}")
    cons = space.constraints
    configs = enumerate_configs(space)
    if not configs:
        raise ValueError("search space enumerates zero configurations")

    units = am.MvuCache(catalog)
    model_runs = [am.kind_runs(m) for m in models]
    names = [m.name for m in models]
    # no configuration changes a model's MACs or processed bits
    totals = [(wir.mac_count(m), wir.processed_bits(m)) for m in models]
    # (model, run, width, b) -> its cost
    run_costs: dict[tuple, am.RunCost] = {}

    def prepare(mi: int, cfg: am.ArchConfig) -> tuple[list[am.RunCost], float] | None:
        """Model ``mi`` at cfg: None if a unit's laser budget fails, else its runs and its energy."""
        runs = []
        for ri, (kind, layers) in enumerate(model_runs[mi]):
            key = (mi, ri, am.unit_width(kind, cfg), cfg.b)
            run = run_costs.get(key)
            if run is None:
                run = run_costs[key] = am.run_cost(kind, layers, am.bitwave_plan(kind, cfg.b), cfg, units)
            runs.append(run)
        if am.check_runs(runs, cfg) is not None:
            return None
        return runs, am.model_energy_j(runs)

    evaluated: list[EvaluatedConfig] = []
    rejected = {"laser": 0, "max_power": 0}
    cap = cons.max_power_w
    for _, group in itertools.groupby(configs, key=lambda c: (c.v, c.k, c.b)):
        # (model, V >= 1, K >= 1) -> prepare's outcome, for this group only
        checked: dict[tuple, tuple[list[am.RunCost], float] | None] = {}
        for cfg in group:
            power = am.max_power(cfg, units)
            if cap is not None and power > cap:
                rejected["max_power"] += 1
                continue
            scores = []
            for mi in range(len(models)):
                key = (mi, cfg.V >= 1, cfg.K >= 1)
                if key not in checked:
                    checked[key] = prepare(mi, cfg)
                if checked[key] is None:
                    break
                runs, energy = checked[key]
                scores.append(ModelScore(*am.efficiency(am.model_latency_s(runs, cfg, units), energy, *totals[mi])))
            if len(scores) < len(models):
                rejected["laser"] += 1
                continue
            score = _aggregate([s.gops_per_epb for s in scores], aggregate)
            evaluated.append(EvaluatedConfig(cfg, score, power, dict(zip(names, scores))))

    ranked = tuple(sorted(evaluated, key=_rank_key))
    return SearchResult(
        ranked=ranked,
        best=ranked[0] if ranked else None,
        infeasible_count=len(configs) - len(ranked),
        diagnostics=rejected,
    )
