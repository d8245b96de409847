import gc
import itertools
import json
import math
import random
import weakref
from operator import mul

import pytest

from bitwave import arch_model as am
from bitwave import bitslice_engine as bse
from bitwave import cli
from bitwave import workload_ir as wir
from bitwave.device_catalog import DEFAULT_CATALOG, catalog_from_dict, dbm_to_mw
from test_dse import FC_FIRST


def fc_layer(i, nin, nout, wb=8, ab=8):
    return wir.LayerSpec(index=i, kind=wir.FC, in_features=nin, out_features=nout,
                         weight_bits=wb, act_bits=ab)


def conv_layer(i, cin, cout, k=3, h=8, w=8, stride=1, padding=0, wb=8, ab=8):
    return wir.LayerSpec(index=i, kind=wir.CONV, in_channels=cin, out_channels=cout,
                         kernel_h=k, kernel_w=k, in_height=h, in_width=w,
                         stride=stride, padding=padding, weight_bits=wb, act_bits=ab)


SMALL_MODEL = wir.WorkloadModel(
    name="small",
    layers=(
        conv_layer(0, 3, 8, h=16, w=16, padding=1, wb=6, ab=6),
        conv_layer(1, 8, 8, h=16, w=16, padding=1, wb=4, ab=4),
        fc_layer(2, 2048, 64, wb=4, ab=4),
        fc_layer(3, 64, 10, wb=4, ab=8),
    ),
)

CFG = am.ArchConfig(v=16, k=9, b=4, V=8, K=8)


def period_of(layer, cfg):
    """Step period of cfg's bit-sliced units of the layer's kind."""
    return am._step_period_ns(cfg, DEFAULT_CATALOG, am.bitwave_plan(layer.kind, cfg.b))


#: one unit cache for the helpers below; its entries are pure functions of their keys
UNITS = am.MvuCache(DEFAULT_CATALOG)


def cost_of(layer, cfg):
    """The one-layer run of ``layer`` on cfg's bit-sliced units."""
    return am.run_cost(layer.kind, (layer,), am.bitwave_plan(layer.kind, cfg.b), cfg, UNITS)


def test_layer_cost_steps_match_the_engine_schedule():
    # the analytical model and the functional engine count the same steps per unit of work
    cfg = am.ArchConfig(v=4, k=3, b=1, V=1, K=1)
    for layer in (fc_layer(0, 5, 3), conv_layer(1, 2, 2, h=4, w=4)):
        for b in range(1, 17):
            cfg_b = cfg._replace(b=b)
            for p_a in range(1, 17):
                for p_w in range(1, 17):
                    run = cost_of(layer._replace(act_bits=p_a, weight_bits=p_w), cfg_b)
                    assert run.steps_per_unit == (bse.build_schedule(p_a, p_w, b, layer.kind).n_steps,)


def test_schedule_read_by_layer_cost_depends_on_slice_counts_only():
    # layer_cost reads steps and imprints from the one-bit-per-slice schedule of the slice counts
    for p_a, p_w, b in itertools.product(range(1, 17), repeat=3):
        n_a, n_w = -(-p_a // b), -(-p_w // b)
        for kind in (wir.FC, wir.CONV):
            sched = bse.build_schedule(p_a, p_w, b, kind)
            unit = bse.build_schedule(n_a, n_w, 1, kind)
            assert sched.steps == unit.steps
            # FC: the weight slice changes every step unless there is one; CONV: weights imprint once
            want = (n_a, n_a * n_w if n_w > 1 else 1) if kind == wir.FC else (n_a, 1)
            assert sched.imprints == unit.imprints == want


# -- the engine against the model: run a layer through execute_dot and count what its traces imply

#: _device_table's rows: activation DAC, weight DAC, ADC, photodetector, VCSEL, SOA, EO imprint, laser plus trim
ACT_DAC, W_DAC, ADC, PD, VCSEL, SOA, IMPRINT, LASER = range(8)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 8])
def test_engine_traces_of_fc_tiles_count_the_model_actions(b):
    # FC 7 -> 5 on 3 x 3 tiles: 3 lane chunks x 2 row chunks, the last of each partial
    layer = fc_layer(0, 7, 5, wb=7, ab=6)
    cfg = am.ArchConfig(v=3, k=4, b=b, V=1, K=1)
    rng = random.Random(b)
    x = [rng.randrange(1 << layer.act_bits) for _ in range(layer.in_features)]
    weights = [[rng.randrange(1 << layer.weight_bits) for _ in x] for _ in range(layer.out_features)]
    v = cfg.v
    counts, work, steps, y = [0] * 8, 0, set(), [0] * layer.out_features
    for r0 in range(0, layer.out_features, v):
        for c0 in range(0, layer.in_features, v):
            work += 1
            a = x[c0:c0 + v]
            for r in range(r0, min(r0 + v, layer.out_features)):
                w = weights[r][c0:c0 + v]
                part, trace = bse.execute_dot(a, w, layer.act_bits, layer.weight_bits, b, bse.FC)
                assert part == sum(map(mul, a, w))
                y[r] += part
                n, (a_imprints, w_imprints) = trace.schedule.n_steps, trace.schedule.imprints
                steps.add(n)
                for device in (W_DAC, ADC, PD):  # one per row and step
                    counts[device] += n
                counts[IMPRINT] += len(a) * w_imprints  # each weight of the row
            # every row of the tile shares the activation lanes and their imprints
            counts[ACT_DAC] += len(a) * n
            counts[VCSEL] += len(a) * n
            counts[IMPRINT] += len(a) * a_imprints
            counts[LASER] += n
    assert y == [sum(map(mul, x, row)) for row in weights]
    assert len(steps) == 1
    assert (work, steps.pop(), tuple(counts)) == am.layer_actions(layer, cfg, am.bitwave_plan(wir.FC, b))


@pytest.mark.parametrize("b", [1, 2, 3, 4, 8])
def test_engine_traces_of_conv_chunks_count_the_model_actions(b):
    # CONV 3x3x3 -> 2 on 5x5, stride 2, padding 1: 3x3 outputs, 27-long kernels in 4-lane chunks
    layer = conv_layer(0, 3, 2, k=3, h=5, w=5, stride=2, padding=1, wb=7, ab=6)
    cfg = am.ArchConfig(v=3, k=4, b=b, V=1, K=1)
    rng = random.Random(b)
    image = [[[rng.randrange(1 << layer.act_bits) for _ in range(layer.in_width)]
              for _ in range(layer.in_height)] for _ in range(layer.in_channels)]
    taps = list(itertools.product(range(layer.in_channels), range(layer.kernel_h), range(layer.kernel_w)))
    kernels = [[rng.randrange(1 << layer.weight_bits) for _ in taps] for _ in range(layer.out_channels)]
    oh, ow = wir.layer_out_hw(layer)
    k = cfg.k
    counts, work, steps = [0] * 8, 0, set()
    for kernel, oy, ox in itertools.product(kernels, range(oh), range(ow)):
        ys = [oy * layer.stride - layer.padding + i for _, i, _ in taps]
        xs = [ox * layer.stride - layer.padding + j for _, _, j in taps]
        patch = [image[c][yy][xx] if 0 <= yy < layer.in_height and 0 <= xx < layer.in_width else 0
                 for (c, _, _), yy, xx in zip(taps, ys, xs)]  # padding feeds zeros to its lanes
        out = 0
        for c0 in range(0, len(taps), k):
            a, w = patch[c0:c0 + k], kernel[c0:c0 + k]
            part, trace = bse.execute_dot(a, w, layer.act_bits, layer.weight_bits, b, bse.CONV)
            assert part == sum(map(mul, a, w))
            out += part
            work += 1
            n, (a_imprints, w_imprints) = trace.schedule.n_steps, trace.schedule.imprints
            steps.add(n)
            slice_rows = wir.ceil_div(layer.weight_bits, b)
            counts[ACT_DAC] += len(a) * n
            counts[VCSEL] += len(a) * n
            for device in (W_DAC, PD, SOA):  # one per weight-slice row and step
                counts[device] += slice_rows * n
            counts[ADC] += n  # the rows are current-summed into one conversion
            counts[IMPRINT] += len(a) * a_imprints + len(a) * slice_rows * w_imprints
            counts[LASER] += n
        assert out == sum(map(mul, patch, kernel))
    assert len(steps) == 1
    assert (work, steps.pop(), tuple(counts)) == am.layer_actions(layer, cfg, am.bitwave_plan(wir.CONV, b))


def test_layer_cost_reads_bitwidths_only_through_slice_counts():
    # padding a bitwidth up to a slice boundary leaves a layer's actions, energy and steps alone
    units = am.MvuCache(DEFAULT_CATALOG)
    for layer in (fc_layer(0, 37, 21), conv_layer(1, 3, 5, h=6, w=6, padding=1)):
        for b in range(1, 17):
            cfg, cp = CFG._replace(b=b), am.bitwave_plan(layer.kind, b)
            first = {}  # (n_a, n_w) -> what the first bitwidths with those slice counts cost
            for p_a, p_w in itertools.product(range(1, 17), repeat=2):
                sized = layer._replace(act_bits=p_a, weight_bits=p_w)
                run = am.run_cost(layer.kind, (sized,), cp, cfg, units)
                got = (run.energies, run.steps_per_unit, am.layer_actions(sized, cfg, cp))
                assert first.setdefault(am.slice_counts(sized, cp), got) == got
            assert len(first) == (-(-16 // b)) ** 2


@pytest.mark.parametrize("weight_bits, act_bits", [(16, 16), (4, 8), (8, 2)])
def test_baseline_runs_every_layer_in_one_step(monkeypatch, weight_bits, act_bits):
    costs = []
    layer_cost = am.layer_cost

    def kept_cost(*args, **kwargs):
        costs.append(layer_cost(*args, **kwargs))
        return costs[-1]

    monkeypatch.setattr(am, "layer_cost", kept_cost)
    spec = am.BaselineSpec(name="flat", weight_bits=weight_bits, act_bits=act_bits)
    am.simulate_baseline(SMALL_MODEL, spec, CFG)
    assert len(costs) == len(SMALL_MODEL.layers)
    assert all(steps == 1 for _, steps, _ in costs)


# -- configuration validation -----------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="b must be"):
        am.ArchConfig(v=2, k=2, b=0, V=1, K=1)
    with pytest.raises(ValueError, match="v must be"):
        am.ArchConfig(v=0, k=2, b=4, V=1, K=1)
    with pytest.raises(ValueError, match="V must be"):
        am.ArchConfig(v=2, k=2, b=4, V=-1, K=1)
    with pytest.raises(ValueError, match="energy_scale"):
        am.ArchConfig(v=2, k=2, b=4, V=1, K=1, energy_scale=0.0)


def test_config_from_dict_checks_fields():
    with pytest.raises(ValueError, match="missing field 'K'"):
        am.arch_config_from_dict({"v": 2, "k": 2, "b": 4, "V": 1})
    with pytest.raises(ValueError, match="unknown config fields"):
        am.arch_config_from_dict({"v": 2, "k": 2, "b": 4, "V": 1, "K": 1, "zz": 3})
    # a config that leaves the laser ceiling out gets 30 dBm
    assert am.arch_config_from_dict({"v": 2, "k": 2, "b": 4, "V": 1, "K": 1}).laser_ceiling_dbm == 30.0


# -- mapping: layer_cost tiles a layer, place_run round-robins it ------------------


def map_layer(layer, cfg):
    """((work, steps per unit), (seq_steps, latency_s, mvus_used)) of one layer on ``cfg``."""
    run = cost_of(layer, cfg)
    [placed] = zip(*am.place_run(run, am.unit_count(layer.kind, cfg)))
    return (*run.work, *run.steps_per_unit), placed


def test_map_layer_fc_exact_fit():
    (work, steps), (seq_steps, _, used) = map_layer(fc_layer(0, 50, 50), am.ArchConfig(v=50, k=20, b=4, V=4, K=4))
    assert work == 1
    assert used == 1
    assert seq_steps == 1 * steps == bse.build_schedule(8, 8, 4, wir.FC).n_steps  # one pass


def test_map_layer_fc_tiling():
    (work, steps), (seq_steps, _, used) = map_layer(fc_layer(0, 100, 100), am.ArchConfig(v=50, k=20, b=4, V=4, K=4))
    assert work == 4
    assert seq_steps == 1 * steps  # one pass
    assert used == 4


def test_map_layer_fc_round_robin_passes():
    layer, cfg = fc_layer(0, 100, 100), am.ArchConfig(v=50, k=20, b=4, V=3, K=4)
    (_, steps), (seq_steps, latency_s, _) = map_layer(layer, cfg)
    assert seq_steps == 2 * steps  # 4 units of work on 3 units: two passes
    assert latency_s == seq_steps * period_of(layer, cfg) * 1e-9


def test_map_layer_conv_chunking():
    # kernel unfurls to 5*5*1 = 25 elements; k=20 needs two chunks
    layer = conv_layer(0, 1, 1, k=5, h=8, w=8, wb=4, ab=4)
    (work, steps), _ = map_layer(layer, am.ArchConfig(v=50, k=20, b=4, V=4, K=4))
    oh, ow = wir.layer_out_hw(layer)
    assert work == oh * ow * 1 * 2
    assert steps == 1


def test_map_layer_requires_matching_units():
    fc_only = wir.WorkloadModel(name="fc", layers=(fc_layer(0, 4, 4),))
    with pytest.raises(ValueError, match="V=0"):
        am.simulate_inference(fc_only, am.ArchConfig(v=4, k=4, b=4, V=0, K=1))
    conv_only = wir.WorkloadModel(name="conv", layers=(conv_layer(0, 1, 1),))
    with pytest.raises(ValueError, match="K=0"):
        am.simulate_inference(conv_only, am.ArchConfig(v=4, k=4, b=4, V=1, K=0))


# -- micro-workload behavior -------------------------------------------------------


def test_micro_dot_step_counts():
    r8 = am.simulate_inference(am.micro_dot_workload(8), am.micro_dot_config(4))
    assert r8.total_time_steps == 4
    assert [l.index for l in r8.per_layer] == [0]  # indexed as load_workload indexes a first layer
    r16 = am.simulate_inference(am.micro_dot_workload(16), am.micro_dot_config(4))
    assert r16.total_time_steps == 16


def test_micro_dot_energy_scales_with_slice_pairs():
    r8 = am.simulate_inference(am.micro_dot_workload(8), am.micro_dot_config(4))
    r16 = am.simulate_inference(am.micro_dot_workload(16), am.micro_dot_config(4))
    assert r16.energy_j / r8.energy_j == pytest.approx(4.0, rel=0.05)


def test_micro_dot_energy_oracle():
    """Recompute the micro-workload energy from catalog constants by hand."""
    cat = DEFAULT_CATALOG
    d = cat.devices
    period = d.eo_tuning_latency_ns
    steps = 4
    dac = (8 + 4) * cat.dac_power(4) * period       # lane holds + row holds
    adc = 4 * d.adc8_power_mw * d.adc8_latency_ns   # one row, four conversions
    pd = 4 * d.photodetector_power_mw * d.photodetector_latency_ns
    vcsel = 8 * d.vcsel_power_mw * d.vcsel_latency_ns
    eo = 12 * d.eo_tuning_power_mw_per_nm * cat.eo_shift_nm * d.eo_tuning_latency_ns
    spec = am.MvuCache(cat).spec(wir.FC, 2, 2)
    from bitwave.device_catalog import dbm_to_mw
    static = (dbm_to_mw(spec.min_laser_dbm)
              + d.to_tuning_power_mw_per_fsr * cat.to_duty_cycle * 2) * steps * period
    expect_j = (dac + adc + pd + vcsel + eo + static) * 1e-12
    got = am.simulate_inference(am.micro_dot_workload(8), am.micro_dot_config(4)).energy_j
    assert got == pytest.approx(expect_j, rel=1e-9)


def test_calibration_anchors_micro_energy():
    scale = am.calibrate_energy_scale()
    cfg = am.micro_dot_config(4, energy_scale=scale)
    rep = am.simulate_inference(am.micro_dot_workload(8), cfg)
    assert rep.energy_j == pytest.approx(am.MICRO_DOT_ENERGY_ANCHOR_J, rel=1e-9)


def test_empty_model_reports_zero():
    rep = am.simulate_inference(wir.WorkloadModel(name="none", layers=()), CFG)
    assert rep.total_time_steps == 0
    assert rep.latency_s == rep.energy_j == rep.gops == rep.epb_j_per_bit == 0.0
    doc = json.loads(json.dumps(cli.as_dict(rep)))
    assert doc == {
        "model_name": "none", "accelerator": "bitwave", "total_time_steps": 0,
        "latency_s": 0.0, "energy_j": 0.0, "peak_power_w": 0.0, "total_macs": 0,
        "processed_bits": 0, "epb_j_per_bit": 0.0, "gops": 0.0, "gops_per_epb": 0.0,
        "per_layer": [],
    }
    floats = ("latency_s", "energy_j", "peak_power_w", "epb_j_per_bit", "gops", "gops_per_epb")
    assert all(type(doc[k]) is float for k in floats)  # report.json reads 0.0, not 0
    spec = am.BaselineSpec(name="b", weight_bits=16, act_bits=16)
    repb = am.simulate_baseline(wir.WorkloadModel(name="none", layers=()), spec, CFG)
    assert repb.energy_j == 0.0


# -- whole-model properties ---------------------------------------------------------


def test_report_additivity(repo_root, reference_config_path):
    # float totals add the layers left to right in layer order, as float_sum
    # does; builtin sum compensates from Python 3.12 on
    fc_first_cfg = am.ArchConfig(v=8, k=9, b=1, V=1, K=2)
    ref = am.load_arch_config(reference_config_path)
    cases = [(SMALL_MODEL, CFG), (FC_FIRST, fc_first_cfg)]
    cases += [(wir.load_workload(p), ref) for p in sorted((repo_root / "models").glob("*.json"))]
    assert len(cases) == 17
    for model, cfg in cases:
        rep = am.simulate_inference(model, cfg)
        layers = rep.per_layer
        assert [l.index for l in layers] == [l.index for l in model.layers]
        assert rep.latency_s == wir.float_sum(l.latency_s for l in layers)
        assert rep.energy_j == wir.float_sum(l.energy_j for l in layers)
        assert rep.total_macs == sum(l.macs for l in layers) == wir.mac_count(model)
        assert rep.total_time_steps == sum(l.time_steps for l in layers)
        assert rep.processed_bits == sum(l.processed_bits for l in layers) == wir.processed_bits(model)
    # FC_FIRST's layers added in kind order (its FC layers, then its CONV
    # layers) give another latency, so this case tells the two orders apart
    rep = am.simulate_inference(FC_FIRST, fc_first_cfg)
    by_kind = sorted(rep.per_layer, key=lambda l: l.kind != wir.FC)
    assert wir.float_sum(l.latency_s for l in by_kind) != rep.latency_s


def test_model_totals_equal_every_layer_added_in_layer_order(repo_root, reference_config_path):
    # each total starts from its first run's cached sum and adds every later
    # layer term by term: the same float as adding every layer from 0.0
    ref = am.load_arch_config(reference_config_path)
    models = [wir.load_workload(p) for p in sorted((repo_root / "models").glob("*.json"))]
    assert len(models) == 15
    models += [FC_FIRST, wir.WorkloadModel(name="one_run", layers=SMALL_MODEL.layers[:2]),
               wir.WorkloadModel(name="none", layers=())]
    units = am.MvuCache(DEFAULT_CATALOG)
    for model in models:
        runs = [am.run_cost(kind, layers, am.bitwave_plan(kind, ref.b), ref, units)
                for kind, layers in am.kind_runs(model)]
        assert [l.index for run in runs for l in run.layers] == [l.index for l in model.layers]
        assert am.model_energy_j(runs) == wir.float_sum(e for run in runs for e in run.energies)
        for V, K in ((1, 1), (2, 3), (ref.V, ref.K), (7, 1000), (999, 5)):
            cfg = ref._replace(V=V, K=K)
            latencies = [s for run in runs for s in am.place_run(run, am.unit_count(run.kind, cfg))[1]]
            assert am.model_latency_s(runs, cfg, units) == wir.float_sum(latencies)
    assert am.model_latency_s([], ref, units) == am.model_energy_j([]) == 0.0


def test_latency_and_energy_monotone_in_unit_counts():
    prev_latency = None
    for units in (1, 2, 4, 8, 16):
        cfg = am.ArchConfig(v=16, k=9, b=4, V=units, K=units)
        rep = am.simulate_inference(SMALL_MODEL, cfg)
        if prev_latency is not None:
            assert rep.latency_s <= prev_latency
        prev_latency = rep.latency_s
    base = am.simulate_inference(SMALL_MODEL, am.ArchConfig(v=16, k=9, b=4, V=2, K=2))
    more = am.simulate_inference(SMALL_MODEL, am.ArchConfig(v=16, k=9, b=4, V=16, K=16))
    assert more.energy_j <= base.energy_j


def test_wide_slices_degenerate_to_single_step():
    cfg16 = am.ArchConfig(v=16, k=9, b=16, V=8, K=8)
    rep = am.simulate_inference(SMALL_MODEL, cfg16)
    spec = am.BaselineSpec(name="flat", weight_bits=16, act_bits=16)
    base = am.simulate_baseline(SMALL_MODEL, spec, cfg16)
    assert rep.total_time_steps == base.total_time_steps


def test_epb_beats_16bit_baseline_on_quantized_model():
    rep = am.simulate_inference(SMALL_MODEL, CFG)
    base = am.simulate_baseline(
        SMALL_MODEL, am.BaselineSpec(name="flat16", weight_bits=16, act_bits=16), CFG
    )
    assert rep.epb_j_per_bit < base.epb_j_per_bit


def test_baseline_uses_its_own_bits():
    spec = am.BaselineSpec(name="flat16", weight_bits=16, act_bits=16)
    base = am.simulate_baseline(SMALL_MODEL, spec, CFG)
    assert base.processed_bits == wir.mac_count(SMALL_MODEL) * 32
    assert base.accelerator == "flat16"


def test_epb_accessors():
    rep = am.simulate_inference(SMALL_MODEL, CFG)
    assert rep.epb_j_per_bit == pytest.approx(rep.energy_j / rep.processed_bits)
    assert rep.gops_per_epb == pytest.approx(rep.gops / rep.epb_j_per_bit)
    assert am.efficiency(rep.latency_s, rep.energy_j, rep.total_macs, rep.processed_bits) == (
        rep.epb_j_per_bit, rep.gops, rep.gops_per_epb)
    assert am.efficiency(0.0, 0.0, 0, 0) == (0.0, 0.0, 0.0)


def test_gops_definition():
    rep = am.simulate_inference(SMALL_MODEL, CFG)
    assert rep.gops == pytest.approx(2.0 * rep.total_macs / rep.latency_s / 1e9)


def test_analytical_model_preserves_dot_product_numerics():
    """The engine computes the same values whether or not a layer is mapped."""
    import random

    from bitwave import bitslice_engine as bse

    rng = random.Random(17)
    for layer in SMALL_MODEL.layers:
        mode = bse.FC if layer.kind == wir.FC else bse.CONV
        width = CFG.v if layer.kind == wir.FC else CFG.k
        for _ in range(20):
            a = [rng.randrange(1 << layer.act_bits) for _ in range(width)]
            w = [rng.randrange(1 << layer.weight_bits) for _ in range(width)]
            result, _ = bse.execute_dot(a, w, layer.act_bits, layer.weight_bits, CFG.b, mode)
            assert result == sum(x * y for x, y in zip(a, w))


def test_pipeline_switch_slows_steps():
    rep = am.simulate_inference(SMALL_MODEL, CFG)
    nop = am.simulate_inference(SMALL_MODEL, CFG._replace(pipelined=False))
    assert nop.latency_s > rep.latency_s
    assert nop.total_time_steps == rep.total_time_steps


# -- laser budget --------------------------------------------------------------------


def test_mvu_spec_geometry():
    units = am.MvuCache(DEFAULT_CATALOG)
    spec = units.spec(wir.FC, 4, 4)
    assert spec.n_wavelengths == 4
    assert spec.n_rows == 4
    assert spec.n_mr == 4 + 16
    conv = units.spec(wir.CONV, 6, 2)
    assert conv.n_wavelengths == 6
    assert conv.n_rows == 2
    assert conv.n_mr == 6 + 12


def test_unit_caches_belong_to_one_instance_and_die_with_it():
    """Each ``MvuCache`` answers from its own catalog, and dropping one frees it without a gc pass."""
    key = (wir.FC, 8, 8)
    lossy = DEFAULT_CATALOG._replace(losses=DEFAULT_CATALOG.losses._replace(splitter_db=0.5))
    assert am.MvuCache(DEFAULT_CATALOG).spec(*key) != am.MvuCache(lossy).spec(*key)
    enabled = gc.isenabled()
    gc.disable()
    try:
        units = am.MvuCache(DEFAULT_CATALOG)
        spec, plan = units.spec(*key), am.bitwave_plan(wir.FC, 4)
        units.table(spec, plan)
        units.active_power_mw(spec, plan)
        units.unit_power_mw(wir.CONV, 9, 4)
        ref = weakref.ref(units)
        del units
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_run_costs_compare_and_hash_by_identity():
    # a cache keyed by a run hashes no layer of it, and never takes an equal run for it
    one, two = (cost_of(fc_layer(0, 8, 4), CFG) for _ in range(2))
    assert tuple(one) == tuple(two)
    assert one == one and one != two
    assert hash(one) != hash(two) and {one: 1}.get(two) is None


def test_laser_need_grows_with_vector_size():
    units = am.MvuCache(DEFAULT_CATALOG)
    smaller = units.spec(wir.FC, 8, 8)
    larger = units.spec(wir.FC, 64, 64)
    assert larger.min_laser_dbm > smaller.min_laser_dbm


def test_laser_infeasible_config_raises():
    cfg = am.ArchConfig(v=2000, k=4, b=4, V=1, K=1, laser_ceiling_dbm=10.0)
    with pytest.raises(am.LaserInfeasibleError, match="FC unit path"):
        am.simulate_inference(wir.WorkloadModel(name="m", layers=(fc_layer(0, 10, 10),)), cfg)


# CONV, CONV, FC: the FC layer comes last but is checked first. At 15 dBm the
# FC unit fails its laser budget at v=64, and at k=128 both CONV units fail
# theirs at b=1 (12 and 16 weight-slice rows).
CONV_CONV_FC = wir.WorkloadModel(
    name="conv_conv_fc",
    layers=(
        conv_layer(0, 4, 6, padding=1, wb=12, ab=2),
        conv_layer(1, 6, 4, k=1, wb=16, ab=9),
        fc_layer(2, 48, 20),
    ),
)


def test_laser_law_fails_only_a_need_above_the_ceiling():
    # a unit whose need equals the ceiling runs; one float step lower it fails, and the
    # check names the first unit whose need is above the ceiling, not one equal to it
    units = am.MvuCache(DEFAULT_CATALOG)
    cfg = am.ArchConfig(v=8, k=128, b=1, V=1, K=1)
    runs = [am.run_cost(kind, layers, am.bitwave_plan(kind, 1), cfg, units)
            for kind, layers in am.kind_runs(CONV_CONV_FC)]
    twelve, sixteen = runs[0].specs
    assert (twelve.n_rows, sixteen.n_rows) == (12, 16) and twelve.min_laser_dbm < sixteen.min_laser_dbm

    def under(ceiling):
        return cfg._replace(laser_ceiling_dbm=ceiling)

    def below(dbm):
        return math.nextafter(dbm, -math.inf)

    assert am.check_runs(runs, under(sixteen.min_laser_dbm)) is None
    am.simulate_inference(CONV_CONV_FC, under(sixteen.min_laser_dbm))
    assert am.check_runs(runs, under(below(sixteen.min_laser_dbm))) is sixteen
    assert am.check_runs(runs, under(twelve.min_laser_dbm)) is sixteen
    assert am.check_runs(runs, under(below(twelve.min_laser_dbm))) is twelve


@pytest.mark.parametrize("dims, error, message", [
    (dict(v=64, V=0, K=0), ValueError, "config has V=0"),
    (dict(v=64, V=1, K=0), am.LaserInfeasibleError, "FC unit path"),
    (dict(v=8, V=1, K=0), ValueError, "config has K=0"),
    (dict(v=8, V=1, K=1), am.LaserInfeasibleError, "CONV unit path (128 wavelengths, 12 rows,"),
])
def test_simulate_checks_fc_units_fc_laser_conv_units_then_conv_lasers(dims, error, message):
    units = am.MvuCache(DEFAULT_CATALOG)
    assert all(units.spec(wir.CONV, 128, rows).min_laser_dbm > 15.0 for rows in (12, 16))
    cfg = am.ArchConfig(k=128, b=1, laser_ceiling_dbm=15.0, **dims)
    with pytest.raises(error) as exc:
        am.simulate_inference(CONV_CONV_FC, cfg)
    assert message in str(exc.value)
    # check_runs makes the same checks in the same order, and returns the unit over the ceiling
    runs = [am.run_cost(kind, layers, am.bitwave_plan(kind, cfg.b), cfg, units)
            for kind, layers in am.kind_runs(CONV_CONV_FC)]
    if error is ValueError:
        with pytest.raises(ValueError) as checked:
            am.check_runs(runs, cfg)
        assert str(checked.value) == str(exc.value)
    else:
        spec = am.check_runs(runs, cfg)
        # the v x v FC unit, or the first CONV layer's unit with 12 weight-slice rows
        assert (spec.kind, spec.n_rows) == ((wir.FC, 64) if cfg.K == 0 else (wir.CONV, 12))
        assert f"{spec.kind} unit path ({spec.n_wavelengths} wavelengths, {spec.n_rows} rows," in str(exc.value)


def test_a_run_is_checked_against_its_largest_laser_need():
    # at 15 dBm the first CONV layer's unit (2 weight-slice rows) closes its link budget and the second's (16) does not
    model = wir.WorkloadModel(name="m", layers=(conv_layer(0, 4, 6, wb=2, ab=2), conv_layer(1, 6, 4, k=1, wb=16)))
    cfg = am.ArchConfig(v=8, k=128, b=1, V=1, K=1, laser_ceiling_dbm=15.0)
    [(kind, layers)] = am.kind_runs(model)
    run = am.run_cost(kind, layers, am.bitwave_plan(kind, cfg.b), cfg, am.MvuCache(DEFAULT_CATALOG))
    assert [spec.n_rows for spec in run.specs] == [2, 16]
    assert run.specs[0].min_laser_dbm < 15.0 < run.specs[1].min_laser_dbm == run.laser_dbm
    assert am.check_runs([run], cfg) == run.specs[1]
    with pytest.raises(am.LaserInfeasibleError, match=r"CONV unit path \(128 wavelengths, 16 rows,"):
        am.simulate_inference(model, cfg)


def test_laser_feasible_at_reference_scale():
    cfg = am.ArchConfig(v=50, k=20, b=4, V=200, K=100)
    rep = am.simulate_inference(SMALL_MODEL, cfg)
    assert rep.energy_j > 0


# -- peak power ----------------------------------------------------------------------


def test_max_power_zero_units():
    assert am.max_power(am.ArchConfig(v=4, k=4, b=4, V=0, K=0), am.MvuCache(DEFAULT_CATALOG)) == 0.0


@pytest.mark.parametrize("v, k, V, K, watts", [(100000, 9, 0, 2, 0.0831), (9, 100000, 2, 0, 0.1495)])
def test_max_power_skips_an_absent_kind_whose_unit_power_is_inf(v, k, V, K, watts):
    # the absent kind's unit is so wide that its laser power is past the float range, and 0 x inf is NaN
    units = am.MvuCache(DEFAULT_CATALOG)
    (kind, width, count), absent = ((wir.CONV, k, K), (wir.FC, v)) if V == 0 else ((wir.FC, v, V), (wir.CONV, k))
    assert units.unit_power_mw(*absent, 4) == math.inf
    power = am.max_power(am.ArchConfig(v=v, k=k, b=4, V=V, K=K), units)
    assert power == count * units.unit_power_mw(kind, width, 4) * 1e-3 == pytest.approx(watts, abs=5e-5)


def test_max_power_hand_sum_single_fc_unit():
    cfg = am.ArchConfig(v=2, k=2, b=4, V=1, K=0)
    cat = DEFAULT_CATALOG
    d = cat.devices
    spec = am.MvuCache(cat).spec(wir.FC, 2, 2)
    from bitwave.device_catalog import dbm_to_mw
    expect_mw = (
        2 * cat.dac_power(4) + 2 * cat.dac_power(4)          # lane + row DACs
        + 2 * d.adc8_power_mw + 2 * d.photodetector_power_mw
        + 2 * d.vcsel_power_mw
        + spec.n_mr * d.eo_tuning_power_mw_per_nm * cat.eo_shift_nm
        + dbm_to_mw(spec.min_laser_dbm)
        + d.to_tuning_power_mw_per_fsr * cat.to_duty_cycle * 2
    )
    assert am.max_power(cfg, am.MvuCache(DEFAULT_CATALOG)) == pytest.approx(expect_mw * 1e-3, rel=1e-9)


def _conv_unit_hand_sum_mw(cat, k, rows, soas, bits):
    """One k-wide CONV unit with ``rows`` weight-slice rows and ``bits``-bit converters."""
    d = cat.devices
    spec = am.MvuCache(cat).spec(wir.CONV, k, rows)
    from bitwave.device_catalog import dbm_to_mw
    return (
        k * cat.dac_power(bits) + rows * cat.dac_power(bits)  # lane + row DACs
        + 1 * cat.adc_power(bits)                            # rows current-summed into one ADC
        + rows * d.photodetector_power_mw
        + k * d.vcsel_power_mw
        + soas * d.soa_power_mw
        + (k + k * rows) * d.eo_tuning_power_mw_per_nm * cat.eo_shift_nm
        + dbm_to_mw(spec.min_laser_dbm)
        + d.to_tuning_power_mw_per_fsr * cat.to_duty_cycle * 2
    )


def test_max_power_hand_sum_single_conv_unit():
    # b=8 sizes the unit for 16-bit weights: two weight-slice rows, one SOA on each
    cfg = am.ArchConfig(v=2, k=3, b=8, V=0, K=1)
    expect_mw = _conv_unit_hand_sum_mw(DEFAULT_CATALOG, k=3, rows=2, soas=2, bits=8)
    assert am.max_power(cfg, am.MvuCache(DEFAULT_CATALOG)) == pytest.approx(expect_mw * 1e-3, rel=1e-9)


def test_baseline_peak_power_counts_no_soa():
    model = wir.WorkloadModel(name="conv", layers=(conv_layer(0, 3, 4, h=6, w=6),))
    cfg = am.ArchConfig(v=2, k=3, b=4, V=0, K=1)
    # the baseline runs 4-bit operands in one step on one row, with no gain ladder
    spec = am.BaselineSpec(name="flat4", weight_bits=4, act_bits=4)
    base = am.simulate_baseline(model, spec, cfg)
    expect_mw = _conv_unit_hand_sum_mw(DEFAULT_CATALOG, k=3, rows=1, soas=0, bits=4)
    assert base.peak_power_w == pytest.approx(expect_mw * 1e-3, rel=1e-9)
    # the bit-sliced unit amplifies each of the layer's two 4-bit weight-slice rows
    rep = am.simulate_inference(model, cfg)
    expect_mw = _conv_unit_hand_sum_mw(DEFAULT_CATALOG, k=3, rows=2, soas=2, bits=4)
    assert rep.peak_power_w == pytest.approx(expect_mw * 1e-3, rel=1e-9)


@pytest.mark.parametrize("kind, n_lambda, n_rows, plan, counts", [
    # ACT_DAC per lane, W_DAC/ADC/PD per row, VCSEL per lane, no SOA, 5 + 5 * 4 MRs, one laser
    (wir.FC, 5, 4, "bitwave", (5, 4, 4, 4, 5, 0, 25, 1)),
    (wir.FC, 5, 4, "baseline", (5, 4, 4, 4, 5, 0, 25, 1)),
    # CONV rows share one ADC; only the bit-sliced unit amplifies its rows; 9 + 9 * 3 MRs
    (wir.CONV, 9, 3, "bitwave", (9, 3, 1, 3, 9, 3, 36, 1)),
    (wir.CONV, 9, 3, "baseline", (9, 3, 1, 3, 9, 0, 36, 1)),
])
def test_device_table_counts_each_units_devices(kind, n_lambda, n_rows, plan, counts):
    spec = UNITS.spec(kind, n_lambda, n_rows)
    # a baseline's plan: operand-wide converters, no gain ladder (as simulate_baseline builds it)
    cp = am.bitwave_plan(kind, 4) if plan == "bitwave" else am._ConverterPlan(8, 8, 8, use_soa=False)
    assert tuple(n for _, _, n in am._device_table(DEFAULT_CATALOG, spec, cp)) == counts


def test_zero_trim_duty_cycle_charges_no_trim_power():
    # the heaters may stay off: the laser-plus-trim row then draws the laser alone
    catalog = catalog_from_dict({"to_duty_cycle": 0})
    spec = am.MvuCache(catalog).spec(wir.FC, 4, 4)
    assert am._device_table(catalog, spec, am.bitwave_plan(wir.FC, 4))[-1][0] == dbm_to_mw(spec.min_laser_dbm)


def test_max_power_monotone_in_each_dimension():
    base = am.ArchConfig(v=8, k=8, b=4, V=4, K=4)
    p0 = am.max_power(base, am.MvuCache(DEFAULT_CATALOG))
    assert am.max_power(base._replace(v=16), am.MvuCache(DEFAULT_CATALOG)) >= p0
    assert am.max_power(base._replace(k=16), am.MvuCache(DEFAULT_CATALOG)) >= p0
    assert am.max_power(base._replace(V=8), am.MvuCache(DEFAULT_CATALOG)) >= p0
    assert am.max_power(base._replace(K=8), am.MvuCache(DEFAULT_CATALOG)) >= p0


def test_peak_power_reported_positive():
    rep = am.simulate_inference(SMALL_MODEL, CFG)
    assert 0 < rep.peak_power_w <= am.max_power(CFG, am.MvuCache(DEFAULT_CATALOG)) + 1e-9


# -- baseline specs -------------------------------------------------------------------


def test_baseline_spec_file_round_trip(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"name": "flat", "weight_bits": 4, "act_bits": 4}')
    spec = am.load_baseline_spec(path)
    assert spec.weight_bits == spec.act_bits == 4
    assert spec.device_overrides == {}


def test_baseline_spec_rejects_bad_bits():
    with pytest.raises(ValueError):
        am.BaselineSpec(name="x", weight_bits=0, act_bits=4)


def test_baseline_device_overrides_apply():
    spec = am.BaselineSpec(
        name="hot", weight_bits=4, act_bits=4,
        device_overrides={"adc8_power_mw": 31.0},
    )
    plain = am.BaselineSpec(name="plain", weight_bits=4, act_bits=4)
    hot = am.simulate_baseline(SMALL_MODEL, spec, CFG)
    cold = am.simulate_baseline(SMALL_MODEL, plain, CFG)
    assert hot.energy_j > cold.energy_j
