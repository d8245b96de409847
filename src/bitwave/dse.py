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

The search is separable. A layer's energy and work depend on (v, b) for FC
and (k, b) for CONV, and the unit counts (V, K) only divide its latency
(``arch_model.place_layer``); peak power is V FC units plus K CONV units.
So ``explore`` costs each (model, layer, width, b), each unit spec and each
per-unit power once per call, checks each model once per (v, k, b), then
combines over every (V, K). Layers are summed in their original order, so every reported number
is bit-identical to ``arch_model.max_power`` plus ``simulate_inference`` run
on each configuration.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import arch_model as am
from . import workload_ir as wir
from .device_catalog import DEFAULT_CATALOG, DeviceCatalog

AGGREGATES = ("geomean", "mean", "min")


class SearchSpaceError(ValueError):
    """Malformed search-space description."""


@dataclass(frozen=True)
class SearchConstraints:
    max_power_w: float | None = None
    laser_ceiling_dbm: float | None = None


@dataclass(frozen=True)
class SearchSpace:
    v: tuple[int, ...]
    k: tuple[int, ...]
    b: tuple[int, ...]
    V: tuple[int, ...]
    K: tuple[int, ...]
    constraints: SearchConstraints = field(default_factory=SearchConstraints)


def search_space_from_dict(doc: dict) -> SearchSpace:
    return SearchSpace(**wir.read_fields(doc, SearchSpace, "search space", SearchSpaceError))


def load_search_space(path: str | Path) -> SearchSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return search_space_from_dict(json.load(fh))


def enumerate_configs(space: SearchSpace) -> list[am.ArchConfig]:
    """Cartesian product of the value lists, deduplicated, ascending order."""
    dims = [sorted(set(getattr(space, d))) for d in ("v", "k", "b", "V", "K")]
    ceiling = space.constraints.laser_ceiling_dbm
    extra = {} if ceiling is None else {"laser_ceiling_dbm": ceiling}
    return [
        am.ArchConfig(v=v, k=k, b=b, V=V, K=K, **extra)
        for v, k, b, V, K in itertools.product(*dims)
    ]


@dataclass(frozen=True)
class ModelScore:
    epb_j_per_bit: float
    gops: float
    gops_per_epb: float


@dataclass(frozen=True)
class EvaluatedConfig:
    config: am.ArchConfig
    score: float
    max_power_w: float
    per_model: dict  # model name -> ModelScore


@dataclass(frozen=True)
class SearchResult:
    ranked: tuple[EvaluatedConfig, ...]
    best: EvaluatedConfig | None
    infeasible_count: int
    diagnostics: dict  # constraint name -> rejected-config count


def _aggregate(values: list[float], how: str) -> float:
    if how == "geomean":
        if any(x <= 0 for x in values):
            return 0.0
        return math.exp(sum(math.log(x) for x in values) / len(values))
    if how == "mean":
        return sum(values) / len(values)
    if how == "min":
        return min(values)
    raise SearchSpaceError(f"unknown aggregate {how!r}; pick one of {AGGREGATES}")


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

    Equivalent to running ``am.max_power`` and then ``am.simulate_inference``
    on each model for each configuration, with the same results and the
    same errors in the same order: a configuration over the power cap is
    rejected before any check, one whose laser budget fails for some model
    is rejected at that model, and a ConfigError (V=0 or K=0 with layers
    that need them) propagates.
    """
    if not models:
        raise ValueError("explore needs at least one workload model")
    if aggregate not in AGGREGATES:
        raise SearchSpaceError(f"unknown aggregate {aggregate!r}; pick one of {AGGREGATES}")
    cons = space.constraints
    configs = enumerate_configs(space)
    if not configs:
        raise SearchSpaceError("search space enumerates zero configurations")

    units = am.MvuCache(catalog)
    costs: dict[tuple, am.LayerCost] = {}  # (model, layer position, width, b) -> cost

    def prepare(mi: int, model: wir.WorkloadModel, cfg: am.ArchConfig):
        """A model's layer costs and (V, K)-independent totals, or None if its laser budget fails."""
        try:
            checked = list(am.checked_layers(model, cfg, lambda l: am.bitwave_plan(l, cfg.b), units))
        except am.LaserInfeasibleError:
            return None
        layer_costs = []
        for li, (layer, cp, spec) in enumerate(checked):
            key = (mi, li, cfg.v if layer.kind == wir.FC else cfg.k, cfg.b)
            cost = costs.get(key)
            if cost is None:
                cost = costs[key] = am.layer_cost(layer, cfg, catalog, cp, am.dbm_to_mw(spec.min_laser_dbm))
            layer_costs.append(cost)
        return (
            tuple(layer_costs),
            sum(c.energy_j for c in layer_costs),
            sum(c.macs for c in layer_costs),
            sum(c.processed_bits for c in layer_costs),
        )

    def score_models(cfg: am.ArchConfig, prepared: dict) -> dict | None:
        per_model = {}
        for mi, model in enumerate(models):
            # The checks depend on (V, K) only through V > 0 and K > 0.
            key = (mi, cfg.V > 0, cfg.K > 0)
            if key not in prepared:
                prepared[key] = prepare(mi, model, cfg)
            entry = prepared[key]
            if entry is None:
                return None
            layer_costs, energy, macs, bits = entry
            latency = sum(am.place_layer(c, am.unit_count(c.kind, cfg))[2] for c in layer_costs)
            per_model[model.name] = ModelScore(*am.efficiency(latency, energy, macs, bits))
        return per_model

    evaluated: list[EvaluatedConfig] = []
    rejected = {"laser": 0, "max_power": 0}
    # Configurations come grouped by (v, k, b), so the prepared models of one
    # group are dropped before the next: a few entries per model, not one
    # per configuration.
    for _, group in itertools.groupby(configs, key=lambda c: (c.v, c.k, c.b)):
        prepared: dict[tuple, tuple | None] = {}
        for cfg in group:
            power = am.array_power_w(cfg, units)
            if cons.max_power_w is not None and power > cons.max_power_w:
                rejected["max_power"] += 1
                continue
            per_model = score_models(cfg, prepared)
            if per_model is None:
                rejected["laser"] += 1
                continue
            score = _aggregate([s.gops_per_epb for s in per_model.values()], aggregate)
            evaluated.append(EvaluatedConfig(cfg, score, power, per_model))

    ranked = tuple(sorted(evaluated, key=_rank_key))
    return SearchResult(
        ranked=ranked,
        best=ranked[0] if ranked else None,
        infeasible_count=len(configs) - len(ranked),
        diagnostics=rejected,
    )
