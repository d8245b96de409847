import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitwave import arch_model as am
from bitwave import cli, dse
from bitwave import workload_ir as wir
from bitwave.device_catalog import DEFAULT_CATALOG

MODEL = wir.WorkloadModel(
    name="toy",
    layers=(
        wir.LayerSpec(index=0, kind=wir.CONV, in_channels=3, out_channels=8,
                      kernel_h=3, kernel_w=3, in_height=12, in_width=12,
                      stride=1, padding=1, weight_bits=6, act_bits=6),
        wir.LayerSpec(index=1, kind=wir.FC, in_features=256, out_features=32,
                      weight_bits=4, act_bits=4),
    ),
)

SPACE = dse.SearchSpace(
    v=(8, 16, 32), k=(6, 9, 18), b=(2, 4), V=(2, 4), K=(2,),
)


def test_enumerate_cartesian_product():
    space = dse.SearchSpace(v=(1, 2), k=(3, 4), b=(4, 8), V=(1,), K=(1,))
    configs = dse.enumerate_configs(space)
    assert len(configs) == 8
    assert len({(c.v, c.k, c.b, c.V, c.K) for c in configs}) == 8


def test_enumerate_empty_dimension_gives_nothing():
    space = dse.SearchSpace(v=(), k=(3,), b=(4,), V=(1,), K=(1,))
    assert dse.enumerate_configs(space) == []


def test_enumerate_deduplicates():
    space = dse.SearchSpace(v=(2, 2, 2), k=(3, 3), b=(4,), V=(1,), K=(1,))
    assert len(dse.enumerate_configs(space)) == 1


def test_enumerate_deterministic_order():
    a = dse.enumerate_configs(SPACE)
    b = dse.enumerate_configs(SPACE)
    assert a == b
    keys = [(c.v, c.k, c.b, c.V, c.K) for c in a]
    assert keys == sorted(keys)


def test_explore_best_matches_independent_rescan():
    result = dse.explore([MODEL], SPACE)
    assert result.ranked
    # independent second pass: simulate every config from scratch
    rescored = []
    for cfg in dse.enumerate_configs(SPACE):
        rep = am.simulate_inference(MODEL, cfg)
        rescored.append((rep.gops_per_epb, cfg))
    best_score = max(s for s, _ in rescored)
    assert result.best.score == pytest.approx(best_score, rel=1e-12)
    winners = {(c.v, c.k, c.b, c.V, c.K) for s, c in rescored if s == best_score}
    b = result.best.config
    assert (b.v, b.k, b.b, b.V, b.K) in winners
    # nothing evaluated beats the reported best
    assert all(e.score <= result.best.score + 1e-12 for e in result.ranked)


def test_explore_ranking_sorted_and_deterministic():
    r1 = dse.explore([MODEL], SPACE)
    r2 = dse.explore([MODEL], SPACE)
    assert [e.config for e in r1.ranked] == [e.config for e in r2.ranked]
    scores = [e.score for e in r1.ranked]
    assert scores == sorted(scores, reverse=True)


def test_explore_power_constraint_filters():
    unconstrained = dse.explore([MODEL], SPACE)
    cap = sorted((e.max_power_w for e in unconstrained.ranked))[len(unconstrained.ranked) // 2]
    space = dse.SearchSpace(
        v=SPACE.v, k=SPACE.k, b=SPACE.b, V=SPACE.V, K=SPACE.K,
        constraints=dse.SearchConstraints(max_power_w=cap),
    )
    constrained = dse.explore([MODEL], space)
    assert constrained.ranked
    assert all(e.max_power_w <= cap for e in constrained.ranked)
    assert len(constrained.ranked) < len(unconstrained.ranked)
    # tightening the cap never adds configurations
    tighter = dse.SearchSpace(
        v=SPACE.v, k=SPACE.k, b=SPACE.b, V=SPACE.V, K=SPACE.K,
        constraints=dse.SearchConstraints(max_power_w=cap / 2),
    )
    fewer = dse.explore([MODEL], tighter)
    kept = {(e.config.v, e.config.k, e.config.b, e.config.V, e.config.K) for e in fewer.ranked}
    allowed = {(e.config.v, e.config.k, e.config.b, e.config.V, e.config.K) for e in constrained.ranked}
    assert kept <= allowed


def test_explore_all_infeasible_reports_diagnostics():
    space = dse.SearchSpace(
        v=SPACE.v, k=SPACE.k, b=SPACE.b, V=SPACE.V, K=SPACE.K,
        constraints=dse.SearchConstraints(max_power_w=0.0),
    )
    result = dse.explore([MODEL], space)
    assert result.ranked == ()
    assert result.best is None
    assert result.infeasible_count == len(dse.enumerate_configs(space))
    assert result.diagnostics["max_power"] == result.infeasible_count


def test_explore_laser_ceiling_rejections_counted():
    space = dse.SearchSpace(
        v=(1500, 2000), k=(6,), b=(4,), V=(1,), K=(1,),
        constraints=dse.SearchConstraints(laser_ceiling_dbm=10.0),
    )
    result = dse.explore([MODEL], space)
    assert result.best is None
    assert result.diagnostics["laser"] == 2


def test_explore_requires_models():
    with pytest.raises(ValueError):
        dse.explore([], SPACE)


def test_explore_aggregate_modes():
    m2 = wir.WorkloadModel(name="toy2", layers=MODEL.layers)
    geo = dse.explore([MODEL, m2], SPACE, aggregate="geomean")
    mean = dse.explore([MODEL, m2], SPACE, aggregate="mean")
    mn = dse.explore([MODEL, m2], SPACE, aggregate="min")
    # both models are identical, so every aggregate agrees
    for g, a, m in zip(geo.ranked, mean.ranked, mn.ranked):
        assert g.score == pytest.approx(a.score, rel=1e-9)
        assert g.score == pytest.approx(m.score, rel=1e-9)
    with pytest.raises(ValueError):
        dse.explore([MODEL], SPACE, aggregate="median")


def test_geomean_is_scale_free():
    vals = [2.0, 8.0]
    assert dse._aggregate(vals, "geomean") == pytest.approx(4.0)
    assert dse._aggregate(vals, "mean") == pytest.approx(5.0)
    assert dse._aggregate(vals, "min") == pytest.approx(2.0)


def test_geomean_of_a_score_at_or_below_zero_is_zero():
    for worst in (0.0, -1.0):
        assert dse._aggregate([worst, 4.0], "geomean") == 0.0
        assert dse._aggregate([4.0, worst], "geomean") == 0.0
    assert dse._aggregate([0.25, 4.0], "geomean") == pytest.approx(1.0)  # a score below 1 is not zero


def test_search_space_file_round_trip(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(
        '{"v": [8], "k": [6], "b": [4], "V": [1], "K": [1],'
        ' "constraints": {"max_power_w": 5.0}}'
    )
    space = dse.load_search_space(path)
    assert space.v == (8,)
    assert space.constraints.max_power_w == 5.0


def test_search_space_rejects_unknown_fields():
    with pytest.raises(ValueError):
        dse.search_space_from_dict({"v": [1], "k": [1], "b": [4], "V": [1], "K": [1], "q": []})
    with pytest.raises(ValueError):
        dse.search_space_from_dict({"v": "nope", "k": [1], "b": [4], "V": [1], "K": [1]})


# -- the separable search against a per-configuration rescan -----------------------

HETERO = wir.WorkloadModel(
    name="hetero",
    layers=(
        wir.LayerSpec(index=0, kind=wir.CONV, in_channels=3, out_channels=8,
                      kernel_h=3, kernel_w=3, in_height=10, in_width=10,
                      stride=1, padding=1, weight_bits=8, act_bits=2),
        wir.LayerSpec(index=1, kind=wir.FC, in_features=100, out_features=40,
                      weight_bits=16, act_bits=1),
        wir.LayerSpec(index=2, kind=wir.CONV, in_channels=8, out_channels=16,
                      kernel_h=5, kernel_w=5, in_height=10, in_width=10,
                      stride=2, padding=0, weight_bits=2, act_bits=5),
        wir.LayerSpec(index=3, kind=wir.FC, in_features=40, out_features=10,
                      weight_bits=3, act_bits=7),
    ),
)
CONV_ONLY = wir.WorkloadModel(
    name="conv_only",
    layers=(
        wir.LayerSpec(index=0, kind=wir.CONV, in_channels=16, out_channels=4,
                      kernel_h=3, kernel_w=3, in_height=6, in_width=6,
                      stride=1, padding=0, weight_bits=16, act_bits=3),
    ),
)
# FC first, with three kind-runs: FC, CONV CONV, FC
FC_FIRST = wir.WorkloadModel(
    name="fc_first",
    layers=(
        wir.LayerSpec(index=0, kind=wir.FC, in_features=64, out_features=48,
                      weight_bits=5, act_bits=3),
        wir.LayerSpec(index=1, kind=wir.CONV, in_channels=4, out_channels=6,
                      kernel_h=3, kernel_w=3, in_height=8, in_width=8,
                      stride=1, padding=1, weight_bits=12, act_bits=2),
        wir.LayerSpec(index=2, kind=wir.CONV, in_channels=6, out_channels=4,
                      kernel_h=1, kernel_w=1, in_height=8, in_width=8,
                      stride=1, padding=0, weight_bits=1, act_bits=9),
        wir.LayerSpec(index=3, kind=wir.FC, in_features=48, out_features=20,
                      weight_bits=8, act_bits=8),
    ),
)
# At 15 dBm the FC unit fails its laser budget at v=64, and the CONV unit
# at k=128 fails once a layer's weights need 8 or more slices. V and K each
# hold 1 beside a larger count, as explore keys its verdicts by V >= 1 and K >= 1.
MIXED = dse.SearchSpace(v=(8, 32, 64), k=(9, 64, 128), b=(1, 3, 4), V=(1, 4), K=(1, 6))
LASER_CEILING_DBM = 15.0


def rescan(models, space, aggregate="geomean"):
    """Score every configuration with ``max_power`` and ``simulate_inference``, as explore did before it was separable."""
    cons = space.constraints
    entries, rejected = [], {"laser": 0, "max_power": 0}
    for cfg in dse.enumerate_configs(space):
        power = am.max_power(cfg, am.MvuCache(DEFAULT_CATALOG))
        if cons.max_power_w is not None and power > cons.max_power_w:
            rejected["max_power"] += 1
            continue
        try:
            reps = [am.simulate_inference(m, cfg) for m in models]
        except am.LaserInfeasibleError:
            rejected["laser"] += 1
            continue
        per_model = {r.model_name: dse.ModelScore(r.epb_j_per_bit, r.gops, r.gops_per_epb) for r in reps}
        score = dse._aggregate([s.gops_per_epb for s in per_model.values()], aggregate)
        entries.append(dse.EvaluatedConfig(cfg, score, power, per_model))
    return sorted(entries, key=dse._rank_key), rejected


def with_constraints(space, **constraints):
    return dse.SearchSpace(v=space.v, k=space.k, b=space.b, V=space.V, K=space.K,
                           constraints=dse.SearchConstraints(**constraints))


@pytest.mark.parametrize("aggregate", dse.AGGREGATES)
def test_explore_equals_per_config_rescan_exactly(aggregate):
    models = [MODEL, HETERO, CONV_ONLY, FC_FIRST]
    powers = sorted(am.max_power(cfg, am.MvuCache(DEFAULT_CATALOG)) for cfg in dse.enumerate_configs(MIXED))
    space = with_constraints(MIXED, max_power_w=powers[len(powers) * 3 // 4],
                             laser_ceiling_dbm=LASER_CEILING_DBM)
    result = dse.explore(models, space, aggregate=aggregate)
    expected, rejected = rescan(models, space, aggregate)
    assert rejected["laser"] > 0 and rejected["max_power"] > 0 and expected
    assert result.diagnostics == rejected
    assert result.infeasible_count == len(dse.enumerate_configs(space)) - len(expected)
    assert len(result.ranked) == len(expected)
    for got, want in zip(result.ranked, expected):
        assert got.config == want.config
        assert got.score == want.score  # exact, not approx
        assert got.max_power_w == want.max_power_w
        assert got.per_model == want.per_model
    assert result.best == expected[0]


def test_explore_prices_each_configuration_once_with_max_power(monkeypatch):
    models = [MODEL, HETERO, CONV_ONLY, FC_FIRST]
    powers = sorted(am.max_power(cfg, am.MvuCache(DEFAULT_CATALOG)) for cfg in dse.enumerate_configs(MIXED))
    space = with_constraints(MIXED, max_power_w=powers[len(powers) // 2], laser_ceiling_dbm=LASER_CEILING_DBM)
    priced = []
    max_power = am.max_power

    def counted_power(cfg, units):
        priced.append(cfg)
        return max_power(cfg, units)

    monkeypatch.setattr(am, "max_power", counted_power)
    result = dse.explore(models, space)
    assert result.diagnostics["max_power"] > 0
    assert priced == dse.enumerate_configs(space)


@pytest.mark.parametrize("cap, ceiling, rejected", [
    pytest.param(None, None, {"laser": 1, "max_power": 0}, id="None-rejected0"),
    pytest.param(1000.0, None, {"laser": 0, "max_power": 1}, id="1000.0-rejected1"),
    pytest.param(None, 10000.0, {"laser": 1, "max_power": 0}, id="ceiling-10000.0"),
])
def test_explore_rejects_a_unit_whose_laser_power_overflows(cap, ceiling, rejected):
    # a 100,000-wide FC unit needs about 4,480 dBm, past the float range in mW: an inf
    # laser power fails the laser law under any ceiling, and an inf max_power any power cap
    space = with_constraints(dse.SearchSpace(v=(50, 100_000), k=(9,), b=(4,), V=(2,), K=(2,)),
                             max_power_w=cap, laser_ceiling_dbm=ceiling)
    result = dse.explore([MODEL, HETERO], space)
    expected, expected_rejected = rescan([MODEL, HETERO], space)
    assert result.diagnostics == expected_rejected == rejected
    assert list(result.ranked) == expected and len(expected) == 1


def test_explore_builds_each_plan_cost_and_latency_term_once(monkeypatch):
    models = [MODEL, HETERO, CONV_ONLY, FC_FIRST]
    model_of = {id(l): m.name for m in models for l in m.layers}
    built = {}  # id(run) -> (model, first layer, width, b)
    keep = []  # every run stays alive, so no id is reused
    cost_keys, term_keys, check_keys, energy_keys = [], [], [], []
    failed = set()  # check keys whose check_runs returned a unit
    priced = []  # the configuration explore priced last
    layer_cost, run_cost, place_run, check_runs = am.layer_cost, am.run_cost, am.place_run, am.check_runs
    max_power, model_energy_j = am.max_power, am.model_energy_j

    def counted_cost(layer, cfg, *args):
        cost_keys.append((model_of[id(layer)], layer.index, am.unit_width(layer.kind, cfg), cfg.b))
        return layer_cost(layer, cfg, *args)

    def recorded_run(kind, layers, plan, cfg, units):
        run = run_cost(kind, layers, plan, cfg, units)
        built[id(run)] = (model_of[id(layers[0])], layers[0].index, am.unit_width(kind, cfg), cfg.b)
        keep.append(run)
        return run

    def counted_place(run, n_units):
        term_keys.append((*built[id(run)], n_units))
        return place_run(run, n_units)

    def run_key(runs, cfg):
        return (model_of[id(runs[0].layers[0])], cfg.v, cfg.k, cfg.b, cfg.V >= 1, cfg.K >= 1)

    def counted_check(runs, cfg):
        check_keys.append(run_key(runs, cfg))
        spec = check_runs(runs, cfg)
        if spec is not None:
            failed.add(check_keys[-1])
        return spec

    def priced_power(cfg, units):
        priced[:] = [cfg]
        return max_power(cfg, units)

    def counted_energy(runs):
        energy_keys.append(run_key(runs, priced[0]))
        return model_energy_j(runs)

    def no_simulate(*args):
        raise AssertionError("explore simulates a configuration")

    monkeypatch.setattr(am, "layer_cost", counted_cost)
    monkeypatch.setattr(am, "run_cost", recorded_run)
    monkeypatch.setattr(am, "place_run", counted_place)
    monkeypatch.setattr(am, "check_runs", counted_check)
    monkeypatch.setattr(am, "max_power", priced_power)
    monkeypatch.setattr(am, "model_energy_j", counted_energy)
    monkeypatch.setattr(am, "_simulate", no_simulate)
    result = dse.explore(models, with_constraints(MIXED, laser_ceiling_dbm=LASER_CEILING_DBM))
    assert result.ranked and result.diagnostics["laser"] > 0
    for keys in (cost_keys, term_keys, check_keys, energy_keys):
        assert keys and len(keys) == len(set(keys))
    # no energy is computed for a model whose laser budget fails
    assert failed and not failed & set(energy_keys)


def test_explore_counts_each_layers_macs_only_for_the_model_totals(monkeypatch):
    models = [MODEL, HETERO, CONV_ONLY, FC_FIRST]
    calls = {id(l): 0 for m in models for l in m.layers}
    layer_mac_count = wir.layer_mac_count

    def counted_macs(layer):
        calls[id(layer)] += 1
        return layer_mac_count(layer)

    monkeypatch.setattr(wir, "layer_mac_count", counted_macs)
    result = dse.explore(models, with_constraints(MIXED, laser_ceiling_dbm=LASER_CEILING_DBM))
    assert result.ranked
    # once for wir.mac_count and once for wir.processed_bits, whatever the grid
    assert all(0 < n <= 2 for n in calls.values())


def test_each_device_table_and_step_period_is_built_once(monkeypatch, repo_root, reference_config_path):
    device_table, step_period, run_cost = am._device_table, am._step_period_ns, am.run_cost
    place_run = am.place_run
    tables = []  # (unit spec, plan) of each table built
    periods = []  # step periods computed during each run_cost call
    placed = []  # (id(run), n_units) of each run placement; a call's runs live until it returns

    def counted_table(catalog, spec, cp):
        tables.append((spec, cp))
        return device_table(catalog, spec, cp)

    def counted_period(*args):
        periods[-1] += 1
        return step_period(*args)

    def counted_run(*args):
        periods.append(0)
        return run_cost(*args)

    def counted_place(run, n_units):
        placed.append((id(run), n_units))
        return place_run(run, n_units)

    def check_and_clear():
        assert tables and len(tables) == len(set(tables))
        assert periods and all(n <= 1 for n in periods)
        # a simulation places each run once, for its report rows and the model's latency alike
        assert placed and len(placed) == len(set(placed))
        tables.clear()
        periods.clear()
        placed.clear()

    monkeypatch.setattr(am, "_device_table", counted_table)
    monkeypatch.setattr(am, "_step_period_ns", counted_period)
    monkeypatch.setattr(am, "run_cost", counted_run)
    monkeypatch.setattr(am, "place_run", counted_place)
    dse.explore([MODEL, HETERO, CONV_ONLY, FC_FIRST], with_constraints(MIXED, laser_ceiling_dbm=LASER_CEILING_DBM))
    check_and_clear()
    # each simulation has its own unit cache
    cfg = am.load_arch_config(reference_config_path)
    for path in sorted((repo_root / "models").glob("*.json")):
        am.simulate_inference(wir.load_workload(path), cfg)
        check_and_clear()


def test_explore_equals_rescan_with_a_model_without_layers():
    empty = wir.WorkloadModel(name="empty", layers=())
    for aggregate in ("mean", "min"):
        result = dse.explore([empty, MODEL], SPACE, aggregate=aggregate)
        expected, rejected = rescan([empty, MODEL], SPACE, aggregate)
        assert list(result.ranked) == expected
        assert result.diagnostics == rejected


def test_explore_equals_rescan_when_laser_rejects_before_a_zero_unit_count():
    # K=0 with CONV layers is a ValueError, but an FC unit that fails its
    # laser budget is checked first and rejects the configuration instead.
    space = with_constraints(dse.SearchSpace(v=(64,), k=(9,), b=(4,), V=(1,), K=(0,)),
                             laser_ceiling_dbm=LASER_CEILING_DBM)
    result = dse.explore([HETERO], space)
    assert result.ranked == ()
    assert result.diagnostics == rescan([HETERO], space)[1] == {"laser": 1, "max_power": 0}


@pytest.mark.parametrize("space, models", [
    (dse.SearchSpace(v=(8, 16), k=(6,), b=(4,), V=(0,), K=(2,)), [MODEL]),
    (dse.SearchSpace(v=(8,), k=(6,), b=(4,), V=(2,), K=(0, 2)), [CONV_ONLY]),
    # the b=1 group's CONV unit fails its laser budget at k=128, so CONV_ONLY
    # rejects both its configurations before MODEL is reached; at b=4 it
    # passes and MODEL, which has FC layers, meets V=0
    (with_constraints(dse.SearchSpace(v=(8,), k=(128,), b=(1, 4), V=(0, 4), K=(2,)),
                      laser_ceiling_dbm=LASER_CEILING_DBM), [CONV_ONLY, MODEL]),
])
def test_explore_zero_unit_count_still_raises_config_error(space, models):
    with pytest.raises(ValueError) as separable:
        dse.explore(models, space)
    with pytest.raises(ValueError) as per_config:
        rescan(models, space)
    assert str(separable.value) == str(per_config.value)


BITS = st.integers(1, 16)


@st.composite
def fc_layers(draw, index):
    return wir.LayerSpec(index=index, kind=wir.FC, in_features=draw(st.integers(1, 80)),
                         out_features=draw(st.integers(1, 50)),
                         weight_bits=draw(BITS), act_bits=draw(BITS))


@st.composite
def conv_layers(draw, index):
    kernel, padding = draw(st.integers(1, 3)), draw(st.integers(0, 1))
    smallest = max(1, kernel - 2 * padding)  # the output is at least 1x1
    return wir.LayerSpec(index=index, kind=wir.CONV, in_channels=draw(st.integers(1, 4)),
                         out_channels=draw(st.integers(1, 6)), kernel_h=kernel, kernel_w=kernel,
                         in_height=draw(st.integers(smallest, 8)), in_width=draw(st.integers(smallest, 8)),
                         stride=draw(st.integers(1, 2)), padding=padding,
                         weight_bits=draw(BITS), act_bits=draw(BITS))


@st.composite
def drawn_models(draw):
    models = []
    for name in draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3, unique=True)):
        kinds = draw(st.lists(st.sampled_from((wir.FC, wir.CONV)), max_size=4))
        layers = tuple(draw((fc_layers if kind == wir.FC else conv_layers)(i)) for i, kind in enumerate(kinds))
        models.append(wir.WorkloadModel(name=name, layers=layers))
    return models


def dim(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2).map(tuple)


# v=64 and k=128 fail their laser budgets under low ceilings, and unit counts
# of 0 meet models that need those units
DRAWN_SPACES = st.builds(
    dse.SearchSpace,
    v=dim((4, 8, 32, 64)), k=dim((3, 9, 64, 128)), b=dim((1, 2, 3, 4, 8, 16)),
    V=dim((0, 1, 2, 5)), K=dim((0, 1, 2, 5)),
    constraints=st.builds(
        dse.SearchConstraints,
        max_power_w=st.none() | st.floats(0.0, 8.0),
        laser_ceiling_dbm=st.none() | st.floats(0.0, 25.0),
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(models=drawn_models(), space=DRAWN_SPACES, aggregate=st.sampled_from(dse.AGGREGATES))
def test_explore_equals_rescan_on_drawn_models_and_spaces(models, space, aggregate):
    try:
        expected, rejected = rescan(models, space, aggregate)
    except ValueError as exc:
        with pytest.raises(ValueError) as separable:
            dse.explore(models, space, aggregate=aggregate)
        assert str(separable.value) == str(exc)
        return
    result = dse.explore(models, space, aggregate=aggregate)
    assert list(result.ranked) == expected
    assert result.diagnostics == rejected
    assert result.infeasible_count == len(dse.enumerate_configs(space)) - len(expected)


def test_explore_zero_config_space_raises():
    with pytest.raises(ValueError, match="zero configurations"):
        dse.explore([MODEL], dse.SearchSpace(v=(), k=(6,), b=(4,), V=(1,), K=(1,)))


# sha256 (first 16 hex digits) of each shipped model's simulate_inference
# report on configs/reference.json, as JSON with sorted keys, recorded from
# the per-configuration model before the search became separable.
REFERENCE_REPORTS = {
    "alexnet": "f8b0a53121e4e5d5",
    "alexnet_w16a16": "58d621c7a7e28274",
    "alexnet_w1a1": "d584d0c12f3820f7",
    "alexnet_w1a4": "65a5d98981b28282",
    "alexnet_w4a4": "0e0743f6c6942b0c",
    "resnet20": "9da40a9ee6e0f5e2",
    "resnet20_w16a16": "a843f06268cd110a",
    "resnet20_w1a1": "4d70446556b51b9d",
    "resnet20_w1a4": "683b66137e2bf001",
    "resnet20_w4a4": "cb780a6869789e08",
    "svhn_cnn": "80b16eef22a3a225",
    "svhn_cnn_w16a16": "db41163623754a5e",
    "svhn_cnn_w1a1": "4238276eaf4c45ab",
    "svhn_cnn_w1a4": "924e410d748f3608",
    "svhn_cnn_w4a4": "4b60c8e38e3f53a7",
}


def test_shipped_model_reports_unchanged_on_reference_config(repo_root, reference_config_path):
    cfg = am.load_arch_config(reference_config_path)
    digests = {}
    for path in sorted((repo_root / "models").glob("*.json")):
        report = am.simulate_inference(wir.load_workload(path), cfg)
        doc = json.dumps(cli.as_dict(report), sort_keys=True).encode()
        digests[path.stem] = hashlib.sha256(doc).hexdigest()[:16]
    assert digests == REFERENCE_REPORTS


# -- strict search-space parsing ---------------------------------------------------------


@pytest.mark.parametrize("doc", [
    {"v": [8], "k": [6], "b": [True], "V": [1], "K": [1]},
    {"v": [8], "k": [6], "b": [4], "V": [1.0], "K": [1]},
    {"v": [8], "k": [6], "b": [4], "V": [1], "K": [1], "constraints": {"max_power_w": "100"}},
    {"v": [8], "k": [6], "b": [4], "V": [1], "K": [1], "constraints": {"laser_ceiling_dbm": "30"}},
    {"v": [8], "k": [6], "b": [4], "V": [1], "K": [1], "constraints": {"max_power_w": math.nan}},
    {"v": [8], "k": [6], "b": [4], "V": [1], "K": [1], "constraints": {"laser_ceiling_dbm": math.inf}},
    {"v": [8], "k": [6], "b": [4], "V": [1], "K": [1], "constraints": {"max_power_w": True}},
])
def test_search_space_rejects_non_numeric_values(doc):
    with pytest.raises(ValueError):
        dse.search_space_from_dict(doc)


def test_search_space_accepts_numbers_and_null_constraints():
    space = dse.search_space_from_dict({
        "v": [8], "k": [6], "b": [4], "V": [1], "K": [1],
        "constraints": {"max_power_w": 100, "laser_ceiling_dbm": None},
    })
    assert space.constraints == dse.SearchConstraints(max_power_w=100, laser_ceiling_dbm=None)
