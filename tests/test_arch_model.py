from dataclasses import replace

import itertools
import json

import pytest

from bitwave import arch_model as am
from bitwave import bitslice_engine as bse
from bitwave import cli
from bitwave import workload_ir as wir
from bitwave.device_catalog import DEFAULT_CATALOG


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


# -- step-count laws ------------------------------------------------------------


def test_fc_time_steps_examples():
    assert am.fc_time_steps(8, 8, 4) == 4
    assert am.fc_time_steps(5, 5, 5) == 1
    assert am.fc_time_steps(10, 2, 4) == 3


def test_conv_time_steps_examples():
    assert am.conv_time_steps(4, 4) == 1
    assert am.conv_time_steps(8, 4) == 2
    assert am.conv_time_steps(10, 4) == 3


def test_step_count_laws_exhaustive():
    for p in range(1, 17):
        for b in range(1, 17):
            expect = -(-p // b)
            assert am.fc_time_steps(p, p, b) == expect * expect
            assert am.conv_time_steps(p, b) == expect


def test_step_counts_reject_out_of_range_bits():
    with pytest.raises(am.ConfigError):
        am.fc_time_steps(0, 8, 4)
    with pytest.raises(am.ConfigError):
        am.conv_time_steps(8, 17)


def test_layer_cost_steps_match_the_engine_schedule():
    # the analytical model and the functional engine count the same steps per unit of work
    cfg = am.ArchConfig(v=4, k=3, b=1, V=1, K=1)
    for layer in (fc_layer(0, 5, 3), conv_layer(1, 2, 2, h=4, w=4)):
        for b in range(1, 17):
            cfg_b, cp = replace(cfg, b=b), am.bitwave_plan(layer.kind, b)
            for p_a in range(1, 17):
                for p_w in range(1, 17):
                    sized = replace(layer, act_bits=p_a, weight_bits=p_w)
                    cost = am.layer_cost(sized, cfg_b, DEFAULT_CATALOG, cp, laser_mw=0.0)
                    assert cost.steps_per_unit == bse.build_schedule(p_a, p_w, b, layer.kind).n_steps


def test_schedule_read_by_layer_cost_depends_on_slice_counts_only():
    # layer_cost reads steps and imprints from the one-bit-per-slice schedule of the slice counts
    for p_a, p_w, b in itertools.product(range(1, 17), repeat=3):
        n_a, n_w = -(-p_a // b), -(-p_w // b)
        for kind in (wir.FC, wir.CONV):
            sched = bse.build_schedule(p_a, p_w, b, kind)
            unit = bse.build_schedule(n_a, n_w, 1, kind)
            assert [s[:2] for s in sched.steps] == [s[:2] for s in unit.steps]
            # FC: the weight slice changes every step unless there is one; CONV: weights imprint once
            want = (n_a, n_a * n_w if n_w > 1 else 1) if kind == wir.FC else (n_a, 1)
            assert sched.imprints == unit.imprints == want


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
    assert all(c.steps_per_unit == 1 for c in costs)


# -- configuration validation -----------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(am.ConfigError, match="b must be"):
        am.ArchConfig(v=2, k=2, b=0, V=1, K=1)
    with pytest.raises(am.ConfigError, match="v must be"):
        am.ArchConfig(v=0, k=2, b=4, V=1, K=1)
    with pytest.raises(am.ConfigError, match="V must be"):
        am.ArchConfig(v=2, k=2, b=4, V=-1, K=1)
    with pytest.raises(am.ConfigError, match="energy_scale"):
        am.ArchConfig(v=2, k=2, b=4, V=1, K=1, energy_scale=0.0)


def test_config_from_dict_checks_fields():
    with pytest.raises(am.ConfigError, match="missing field 'K'"):
        am.arch_config_from_dict({"v": 2, "k": 2, "b": 4, "V": 1})
    with pytest.raises(am.ConfigError, match="unknown config fields"):
        am.arch_config_from_dict({"v": 2, "k": 2, "b": 4, "V": 1, "K": 1, "zz": 3})


# -- mapping: layer_cost tiles a layer, place_layer round-robins it ----------------


def map_layer(layer, cfg):
    """(cost, (passes, seq_steps, latency_s, mvus_used)) of one layer on ``cfg``."""
    cost = am.layer_cost(layer, cfg, DEFAULT_CATALOG, am.bitwave_plan(layer.kind, cfg.b), laser_mw=0.0)
    return cost, am.place_layer(cost, am.unit_count(layer.kind, cfg))


def test_map_layer_fc_exact_fit():
    cost, (passes, seq_steps, _, used) = map_layer(fc_layer(0, 50, 50), am.ArchConfig(v=50, k=20, b=4, V=4, K=4))
    assert cost.n_units_of_work == 1
    assert passes == 1
    assert used == 1
    assert seq_steps == cost.steps_per_unit == am.fc_time_steps(8, 8, 4)


def test_map_layer_fc_tiling():
    cost, (passes, _, _, used) = map_layer(fc_layer(0, 100, 100), am.ArchConfig(v=50, k=20, b=4, V=4, K=4))
    assert cost.n_units_of_work == 4
    assert passes == 1
    assert used == 4


def test_map_layer_fc_round_robin_passes():
    cost, (passes, seq_steps, latency_s, _) = map_layer(
        fc_layer(0, 100, 100), am.ArchConfig(v=50, k=20, b=4, V=3, K=4))
    assert passes == 2
    assert seq_steps == 2 * cost.steps_per_unit
    assert latency_s == seq_steps * cost.step_period_ns * 1e-9


def test_map_layer_conv_chunking():
    # kernel unfurls to 5*5*1 = 25 elements; k=20 needs two chunks
    layer = conv_layer(0, 1, 1, k=5, h=8, w=8, wb=4, ab=4)
    cost, _ = map_layer(layer, am.ArchConfig(v=50, k=20, b=4, V=4, K=4))
    oh, ow = wir.layer_out_hw(layer)
    assert cost.n_units_of_work == oh * ow * 1 * 2
    assert cost.steps_per_unit == 1


def test_map_layer_requires_matching_units():
    fc_only = wir.WorkloadModel(name="fc", layers=(fc_layer(0, 4, 4),))
    with pytest.raises(am.ConfigError, match="V=0"):
        am.simulate_inference(fc_only, am.ArchConfig(v=4, k=4, b=4, V=0, K=1))
    conv_only = wir.WorkloadModel(name="conv", layers=(conv_layer(0, 1, 1),))
    with pytest.raises(am.ConfigError, match="K=0"):
        am.simulate_inference(conv_only, am.ArchConfig(v=4, k=4, b=4, V=1, K=0))


# -- micro-workload behavior -------------------------------------------------------


def test_micro_dot_step_counts():
    r8 = am.simulate_inference(am.micro_dot_workload(8), am.micro_dot_config(4))
    assert r8.total_time_steps == 4
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


def test_report_additivity():
    rep = am.simulate_inference(SMALL_MODEL, CFG)
    assert rep.energy_j == sum(l.energy_j for l in rep.per_layer)
    assert rep.total_macs == sum(l.macs for l in rep.per_layer)
    assert rep.total_time_steps == sum(l.time_steps for l in rep.per_layer)
    assert rep.processed_bits == sum(l.processed_bits for l in rep.per_layer)
    assert rep.total_macs == wir.mac_count(SMALL_MODEL)
    assert rep.processed_bits == wir.processed_bits(SMALL_MODEL)


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
    nop = am.simulate_inference(SMALL_MODEL, replace(CFG, pipelined=False))
    assert nop.latency_s > rep.latency_s
    assert nop.total_time_steps == rep.total_time_steps


def test_explicit_step_period_override():
    rep = am.simulate_inference(SMALL_MODEL, replace(CFG, step_period_ns=100.0))
    assert all(l.step_period_ns == 100.0 for l in rep.per_layer)


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


@pytest.mark.parametrize("dims, error, message", [
    (dict(v=64, V=0, K=0), am.ConfigError, "config has V=0"),
    (dict(v=64, V=1, K=0), am.LaserInfeasibleError, "FC unit path"),
    (dict(v=8, V=1, K=0), am.ConfigError, "config has K=0"),
    (dict(v=8, V=1, K=1), am.LaserInfeasibleError, "CONV unit path (128 wavelengths, 12 rows,"),
])
def test_simulate_checks_fc_units_fc_laser_conv_units_then_conv_lasers(dims, error, message):
    units = am.MvuCache(DEFAULT_CATALOG)
    assert all(units.spec(wir.CONV, 128, rows).min_laser_dbm > 15.0 for rows in (12, 16))
    cfg = am.ArchConfig(k=128, b=1, laser_ceiling_dbm=15.0, **dims)
    with pytest.raises(error) as exc:
        am.simulate_inference(CONV_CONV_FC, cfg)
    assert message in str(exc.value)


def test_laser_feasible_at_reference_scale():
    cfg = am.ArchConfig(v=50, k=20, b=4, V=200, K=100)
    rep = am.simulate_inference(SMALL_MODEL, cfg)
    assert rep.energy_j > 0


# -- peak power ----------------------------------------------------------------------


def test_max_power_zero_units():
    assert am.max_power(am.ArchConfig(v=4, k=4, b=4, V=0, K=0)) == 0.0


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
    assert am.max_power(cfg) == pytest.approx(expect_mw * 1e-3, rel=1e-9)


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
    assert am.max_power(cfg) == pytest.approx(expect_mw * 1e-3, rel=1e-9)


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


def test_max_power_monotone_in_each_dimension():
    base = am.ArchConfig(v=8, k=8, b=4, V=4, K=4)
    p0 = am.max_power(base)
    assert am.max_power(replace(base, v=16)) >= p0
    assert am.max_power(replace(base, k=16)) >= p0
    assert am.max_power(replace(base, V=8)) >= p0
    assert am.max_power(replace(base, K=8)) >= p0


def test_peak_power_reported_positive():
    rep = am.simulate_inference(SMALL_MODEL, CFG)
    assert 0 < rep.peak_power_w <= am.max_power(CFG) + 1e-9


# -- baseline specs -------------------------------------------------------------------


def test_baseline_spec_file_round_trip(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"name": "flat", "weight_bits": 4, "act_bits": 4}')
    spec = am.load_baseline_spec(path)
    assert spec.weight_bits == spec.act_bits == 4
    assert spec.device_overrides == {}


def test_baseline_spec_rejects_bad_bits():
    with pytest.raises(am.ConfigError):
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
