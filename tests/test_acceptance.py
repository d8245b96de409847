"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they print. Tolerances are pinned here, not configurable.
"""

import math
import random
import time

from bitwave import arch_model as am
from bitwave import bitslice_engine as bse
from bitwave import dse
from bitwave import workload_ir as wir
from bitwave.device_catalog import DEFAULT_CATALOG


def _report(cid: str, ok: bool, detail: str):
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_c1_bitslice_oracle_equivalence():
    """10,000 random dot products match exact integer arithmetic, < 10 s."""
    rng = random.Random(20260810)
    p_choices = (1, 2, 4, 6, 8, 10, 16)
    b_choices = (1, 2, 4, 8)
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(10_000):
        p_a = rng.choice(p_choices)
        p_w = rng.choice(p_choices)
        b = rng.choice(b_choices)
        mode = bse.FC if i % 2 == 0 else bse.CONV
        n = rng.randint(1, 64)
        a = [rng.randrange(1 << p_a) for _ in range(n)]
        w = [rng.randrange(1 << p_w) for _ in range(n)]
        result, _ = bse.execute_dot(a, w, p_a, p_w, b, mode)
        if result != sum(x * y for x, y in zip(a, w)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: bit-slice oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{10_000 - mismatches}/10000 exact in {elapsed:.2f}s",
    )


def test_c2_two_element_golden_dot():
    """The worked 2-element example: steps, order, sums, result, all exact."""
    result, trace = bse.execute_dot([0x31, 0x0D], [0x34, 0x14], 8, 8, 4, bse.FC)
    order = list(trace.schedule.steps)
    sums = list(trace.step_sums)
    shifts = list(trace.schedule.shifts)
    ok = (
        len(sums) == 4
        and order == [(0, 0), (0, 1), (1, 0), (1, 1)]
        and result == 2808
        and sums == [56, 16, 12, 9]
        and shifts == [0, 4, 4, 8]
    )
    _report(
        "criterion 2: golden two-element dot product",
        ok,
        f"result={result}, order={order}, pre-shift sums={sums}",
    )


def test_c3_step_count_laws():
    """fc steps == ceil(p/b)^2 and conv steps == ceil(p/b) for all 256 combos."""
    bad = []
    for p in range(1, 17):
        for b in range(1, 17):
            want = -(-p // b)
            if bse.build_schedule(p, p, b, bse.FC).n_steps != want * want:
                bad.append(("fc", p, b))
            if bse.build_schedule(p, p, b, bse.CONV).n_steps != want:
                bad.append(("conv", p, b))
    _report(
        "criterion 3: step-count laws over 256 (p, b) pairs",
        not bad,
        f"{256 - len(bad)}/256 combinations exact",
    )


def test_c4_dac_power_anchors_and_monotonicity():
    cat = DEFAULT_CATALOG
    anchors_ok = cat.dac_power(16) == 40.0 and cat.dac_power(8) == 3.0
    low4_ok = abs(cat.dac_power(4) - 0.4545) <= 1e-3
    low1_ok = abs(cat.dac_power(1) - 0.2727) <= 1e-3
    seq = [cat.dac_power(n) for n in range(1, 17)]
    mono_ok = all(b >= a for a, b in zip(seq, seq[1:]))
    _report(
        "criterion 4: DAC power anchors and scaling",
        anchors_ok and low4_ok and low1_ok and mono_ok,
        f"16b={cat.dac_power(16)} mW, 8b={cat.dac_power(8)} mW, "
        f"4b={cat.dac_power(4):.4f} mW, 1b={cat.dac_power(1):.4f} mW, monotone={mono_ok}",
    )


def test_c5_laser_budget_properties():
    from bitwave.device_catalog import min_laser_power

    shift = 7.25
    additive_ok = abs(
        min_laser_power(3.0 + shift, 7, -18.0) - (min_laser_power(3.0, 7, -18.0) + shift)
    ) <= 1e-12
    doubling = min_laser_power(5.0, 32, -20.0) - min_laser_power(5.0, 16, -20.0)
    doubling_ok = abs(doubling - 3.0103) <= 1e-6 + 4.5e-8  # 10*log10(2) vs the rounded target
    worked = min_laser_power(10.0, 16, -20.0)
    worked_ok = abs(worked - 2.041) <= 1e-3
    _report(
        "criterion 5: laser budget arithmetic",
        additive_ok and doubling_ok and worked_ok,
        f"additivity exact, doubling adds {doubling:.6f} dB, worked value {worked:.4f} dBm",
    )


def test_c6_energy_ratios_after_single_anchor_calibration():
    scale = am.calibrate_energy_scale()
    cfg = am.micro_dot_config(4, energy_scale=scale)

    anchor_mj = am.simulate_inference(am.micro_dot_workload(8), cfg).energy_j * 1e3
    base_spec = am.BaselineSpec(name="flat16", weight_bits=16, act_bits=16)
    base_rep = am.simulate_baseline(am.micro_dot_workload(8), base_spec, cfg)
    base_mj = base_rep.energy_j * 1e3
    rep16 = am.simulate_inference(am.micro_dot_workload(16), cfg)
    e16_mj = rep16.energy_j * 1e3

    base_ok = 240.0 * 0.5 <= base_mj <= 240.0 * 1.5
    steps_ok = rep16.total_time_steps == 16 and base_rep.total_time_steps == 1
    e16_ok = 24.0 * 0.75 <= e16_mj <= 24.0 * 1.25
    _report(
        "criterion 6: micro-workload energy ratios",
        abs(anchor_mj - 6.0) < 1e-6 and base_ok and steps_ok and e16_ok,
        f"anchor {anchor_mj:.3f} mJ, 16-bit single-step {base_mj:.1f} mJ "
        f"(target 240 +/- 50%), 16-bit sliced {e16_mj:.2f} mJ over "
        f"{rep16.total_time_steps} steps (target 24 +/- 25%)",
    )


def test_c7_footprint_ratios(model_paths):
    details = []
    ok = True
    for name, path in model_paths.items():
        het = wir.load_workload(path)
        bits_het = wir.weight_footprint_bits(het)
        bits16 = wir.weight_footprint_bits(wir.with_bits(het, 16, 16))
        bits4 = wir.weight_footprint_bits(wir.with_bits(het, 4, 4))
        bits1 = wir.weight_footprint_bits(wir.with_bits(het, 1, 1))
        ok = ok and bits16 == 4 * bits4 and bits16 == 16 * bits1
        if name == "alexnet":
            mean_bits = bits_het / wir.param_count(het)
            target = 16.0 / (650.0 / 169.0)  # published footprint pair implies ~4.16
            ok = ok and abs(mean_bits - target) / target <= 0.10
            details.append(f"{name} mean weight bits {mean_bits:.3f} (target {target:.3f} +/- 10%)")
        else:
            details.append(f"{name} 16/4 and 16/1 ratios exact")
    _report("criterion 7: footprint ratios", ok, "; ".join(details))


def test_c8_epb_orders_below_16bit_baseline(model_paths, reference_config_path):
    cfg = am.load_arch_config(reference_config_path)
    spec16 = am.BaselineSpec(name="flat16", weight_bits=16, act_bits=16)
    t0 = time.perf_counter()
    ratios = {}
    ok = True
    for name, path in model_paths.items():
        model = wir.load_workload(path)
        own = am.simulate_inference(model, cfg)
        base = am.simulate_baseline(model, spec16, cfg)
        ratios[name] = base.epb_j_per_bit / own.epb_j_per_bit
        ok = ok and own.epb_j_per_bit < base.epb_j_per_bit
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(
        "criterion 8: EPB below the 16-bit single-step baseline",
        ok,
        ", ".join(f"{n}: {r:.1f}x lower" for n, r in ratios.items()) + f" ({elapsed:.2f}s)",
    )


def test_c9_dse_soundness(model_paths, space_path):
    models = [wir.load_workload(p) for p in model_paths.values()]
    space = dse.load_search_space(space_path)
    configs = dse.enumerate_configs(space)
    assert len(configs) <= 500
    assert any((c.v, c.k, c.b, c.V, c.K) == (50, 20, 4, 200, 100) for c in configs)

    power_cap = 110.0
    capped = dse.SearchSpace(
        v=space.v, k=space.k, b=space.b, V=space.V, K=space.K,
        constraints=dse.SearchConstraints(
            max_power_w=power_cap,
            laser_ceiling_dbm=space.constraints.laser_ceiling_dbm,
        ),
    )
    result = dse.explore(models, capped)
    result2 = dse.explore(models, capped)

    # independent exhaustive re-evaluation of the same feasible set
    best_score = -1.0
    best_key = None
    for cfg in dse.enumerate_configs(capped):
        if am.max_power(cfg, am.MvuCache(DEFAULT_CATALOG)) > power_cap:
            continue
        try:
            scores = [am.simulate_inference(m, cfg).gops_per_epb for m in models]
        except am.LaserInfeasibleError:
            continue
        score = math.exp(sum(math.log(s) for s in scores) / len(scores))
        key = (cfg.v, cfg.k, cfg.b, cfg.V, cfg.K)
        if score > best_score + 1e-12:
            best_score, best_key = score, key
    b = result.best.config
    argmax_ok = (
        abs(result.best.score - best_score) <= 1e-9 * best_score
        and result.best.score >= max(e.score for e in result.ranked)
    )
    constraint_ok = all(e.max_power_w <= power_cap for e in result.ranked)
    repro_ok = [
        (e.config, e.score) for e in result.ranked
    ] == [(e.config, e.score) for e in result2.ranked]

    ref = next(
        e for e in dse.explore(models, space).ranked
        if (e.config.v, e.config.k, e.config.b, e.config.V, e.config.K) == (50, 20, 4, 200, 100)
    )
    _report(
        "criterion 9: search soundness",
        argmax_ok and constraint_ok and repro_ok,
        f"best {(b.v, b.k, b.b, b.V, b.K)} matches exhaustive re-scan, "
        f"0 power violations, reruns identical; reference config (50,20,4,200,100) "
        f"evaluates to {ref.max_power_w:.1f} W (documented against the published 57.5 W)",
    )
