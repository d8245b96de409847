"""Analytical latency/energy/power model for arrays of photonic MVUs.

Architecture, per configuration (v, k, b, V, K):

* V FC units. Each holds a v-element activation vector on one
  wavelength-multiplexed input bank and a v x v weight tile on a splitter-fed
  MR array (one output row per result element, one photodetector + converter
  per row). A (p_a, p_w)-bit tile takes ceil(p_a/b)*ceil(p_w/b) time steps:
  the activation slice stays put while weight slices cycle, and shift-and-add
  is digital.
* K CONV units. Each holds a k-element kernel chunk with all ceil(p_w/b)
  weight slices laid out spatially on parallel waveguides; activation slices
  stream over ceil(p_a/b) steps. Amplifiers with power-of-two gains and
  current summing perform the shift-and-add optically, so one conversion per
  step suffices.

Mapping: FC layers tile into ceil(in/v)*ceil(out/v) units of work, CONV
layers into (output positions x kernel chunks); work units round-robin over
the V or K available units, which divides latency but leaves energy alone.

Energy accounting follows one device table (``_device_table``): each device
has a power and an active time per action. A layer's energy sums action
count x power x active time over the table, and a unit's peak power sums
device count x power over the same rows.

* DACs hold analog values for the whole step: one per active wavelength lane
  (input bank) plus one per active output row/waveguide (weight side,
  sample-and-hold shared along the row), each at dac_power(resolution) for
  the full step period.
* ADC conversions, photodetector and source events, and amplifier passes are
  charged at their own device latency, once per activation.
* Resonance-shift (tuning transition) energy is charged per imprint event;
  operands that stay put between steps are not re-imprinted. Steps and
  imprints per unit of work are counted on ``bitslice_engine.build_schedule``.
* Laser power (smallest feasible for the unit's path, from the link budget)
  and thermal trimming (duty-cycled, per MR bank) are charged over the time
  units actually spend occupied.

The step period is the slowest element of the per-step device chain
(pipelined; ``pipelined=False`` sums the chain instead). All reported
energies scale by the configuration's ``energy_scale`` calibration constant.

Everything here is a pure function of (model, config, catalog); reports are
immutable values and safe to share across threads.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import bitslice_engine as bse

# apply_device_overrides is looked up on the module at call time, where
# bench/tracing.py wraps it.
from . import device_catalog
from . import workload_ir as wir
from .device_catalog import (
    DEFAULT_CATALOG,
    DeviceCatalog,
    aggregate_photoloss,
    dbm_to_mw,
    min_laser_power,
)
from .workload_ir import MAX_BITS, ceil_div, check_bits

#: name used for this architecture in reports and comparison tables
ARCH_NAME = "bitwave"

#: calibration anchor: reported energy of the two-element 8-bit dot-product
#: micro-workload at b=4 on a two-wavelength unit, used to solve energy_scale
MICRO_DOT_ENERGY_ANCHOR_J = 6.0e-3


class ConfigError(ValueError):
    """Invalid architecture configuration."""


class LaserInfeasibleError(RuntimeError):
    """The link budget cannot be closed under the configured laser ceiling."""


@dataclass(frozen=True)
class ArchConfig:
    """Accelerator configuration plus calibration constants."""

    v: int
    k: int
    b: int
    V: int
    K: int
    laser_ceiling_dbm: float = 30.0
    energy_scale: float = 1.0
    pipelined: bool = True
    step_period_ns: float | None = None  # None: derive from the device chain

    def __post_init__(self) -> None:
        for name in ("v", "k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_bits("b", self.b, ConfigError)
        for name in ("V", "K"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.energy_scale <= 0:
            raise ConfigError(f"energy_scale must be positive, got {self.energy_scale}")
        if self.step_period_ns is not None and self.step_period_ns <= 0:
            raise ConfigError(f"step_period_ns must be positive, got {self.step_period_ns}")


def arch_config_from_dict(doc: dict) -> ArchConfig:
    return ArchConfig(**wir.read_fields(doc, ArchConfig, "config", ConfigError))


def load_arch_config(path: str | Path) -> ArchConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return arch_config_from_dict(json.load(fh))


@dataclass(frozen=True)
class BaselineSpec:
    """A fixed-resolution single-step accelerator stand-in."""

    name: str
    weight_bits: int
    act_bits: int
    device_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_bits(f"baseline {self.name!r}: weight_bits", self.weight_bits, ConfigError)
        check_bits(f"baseline {self.name!r}: act_bits", self.act_bits, ConfigError)


def load_baseline_spec(path: str | Path) -> BaselineSpec:
    """Read a baseline file; a bad ``device_overrides`` value is reported with the file's path."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = BaselineSpec(**wir.read_fields(json.load(fh), BaselineSpec, "baseline", ConfigError))
    wir.read_fields(spec.device_overrides, device_catalog.DeviceParams, f"{path}: device_overrides", ConfigError)
    return spec


# -- step-count laws ----------------------------------------------------------


def fc_time_steps(p_a: int, p_w: int, b: int) -> int:
    """Steps per FC tile: every (activation, weight) slice pair once."""
    check_bits("p_a", p_a, ConfigError)
    check_bits("p_w", p_w, ConfigError)
    check_bits("b", b, ConfigError)
    return bse.build_schedule(p_a, p_w, b, wir.FC).n_steps


def conv_time_steps(p_a: int, b: int) -> int:
    """Steps per CONV output element and kernel chunk: one per activation slice."""
    check_bits("p_a", p_a, ConfigError)
    check_bits("b", b, ConfigError)
    return bse.build_schedule(p_a, p_a, b, wir.CONV).n_steps


# -- MVU geometry and the link budget -----------------------------------------


@dataclass(frozen=True)
class MvuSpec:
    """Optical structure of one unit: ring counts, path loss, laser need."""

    kind: str
    n_wavelengths: int
    n_rows: int
    n_mr: int
    path_loss_db: float
    min_laser_dbm: float


def _split_loss_db(n_branches: int, catalog: DeviceCatalog) -> float:
    """Power division plus per-stage excess loss of a 1-to-n splitter tree."""
    if n_branches <= 1:
        return 0.0
    stages = (n_branches - 1).bit_length()
    return 10.0 * math.log10(n_branches) + stages * catalog.losses.splitter_db


def _mvu_spec(kind: str, n_lambda: int, n_rows: int, catalog: DeviceCatalog) -> MvuSpec:
    L = catalog.losses
    wg_cm = catalog.base_waveguide_cm + catalog.mr_pitch_cm * (2 * n_lambda)
    path = [
        ("mr_modulation", 1.0), ("mr_through", float(n_lambda - 1)),  # input bank
        ("mr_modulation", 1.0), ("mr_through", float(n_lambda - 1)),  # weight row
        ("waveguide_cm", wg_cm),
        ("eo_cm", 2 * catalog.eo_section_cm),
    ]
    loss = aggregate_photoloss(path, L) + _split_loss_db(n_rows, catalog)
    laser = min_laser_power(loss, n_lambda, catalog.detector_sensitivity_dbm)
    return MvuSpec(
        kind=kind,
        n_wavelengths=n_lambda,
        n_rows=n_rows,
        n_mr=n_lambda + n_lambda * n_rows,
        path_loss_db=loss,
        min_laser_dbm=laser,
    )


class MvuCache:
    """Unit specs and per-unit peak powers under one catalog, each computed once.

    One simulation builds its own; a search builds one per call and shares
    it across every configuration it evaluates.
    """

    def __init__(self, catalog: DeviceCatalog):
        self.catalog = catalog
        self._specs: dict[tuple[str, int, int], MvuSpec] = {}
        self._unit_mw: dict[tuple[str, int, int], float] = {}

    def spec(self, kind: str, n_lambda: int, n_rows: int) -> MvuSpec:
        key = (kind, n_lambda, n_rows)
        spec = self._specs.get(key)
        if spec is None:
            spec = self._specs[key] = _mvu_spec(kind, n_lambda, n_rows, self.catalog)
        return spec

    def unit_power_mw(self, kind: str, width: int, b: int) -> float:
        """Worst-case power of one fully active unit of ``kind`` and ``width`` at slice width b.

        CONV units are sized for the widest supported operand (16-bit
        weights at slice width b).
        """
        key = (kind, width, b)
        mw = self._unit_mw.get(key)
        if mw is None:
            n_rows = width if kind == wir.FC else ceil_div(MAX_BITS, b)
            spec = self.spec(kind, width, n_rows)
            mw = self._unit_mw[key] = _unit_active_power_mw(spec, self.catalog, bitwave_plan(kind, b))
        return mw


def unit_count(kind: str, cfg: ArchConfig) -> int:
    """Units a layer of ``kind`` spreads over: V for FC, K for CONV."""
    return cfg.V if kind == wir.FC else cfg.K


def unit_width(kind: str, cfg: ArchConfig) -> int:
    """Width of the units a layer of ``kind`` runs on: v for FC, k for CONV."""
    return cfg.v if kind == wir.FC else cfg.k


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class LayerReport:
    index: int
    kind: str
    time_steps: int
    step_period_ns: float
    latency_s: float
    energy_j: float
    macs: int
    processed_bits: int
    mvus_used: int


@dataclass(frozen=True)
class SimReport:
    """Roll-up of one workload on one accelerator."""

    model_name: str
    accelerator: str
    total_time_steps: int
    latency_s: float
    energy_j: float
    peak_power_w: float
    total_macs: int
    processed_bits: int
    epb_j_per_bit: float
    gops: float
    gops_per_epb: float
    per_layer: tuple[LayerReport, ...]


# -- core simulation -----------------------------------------------------------


@dataclass(frozen=True)
class _ConverterPlan:
    """The converters on one architecture's units of one kind; a layer's bitwidths set only its slice counts."""

    dac_bits_act: int
    dac_bits_w: int
    adc_bits: int
    use_soa: bool


def _step_period_ns(cfg: ArchConfig, catalog: DeviceCatalog, cp: _ConverterPlan) -> float:
    if cfg.step_period_ns is not None:
        return cfg.step_period_ns
    d = catalog.devices
    chain = [
        d.eo_tuning_latency_ns,  # operand imprint settles within the step
        max(catalog.dac_latency(cp.dac_bits_act), catalog.dac_latency(cp.dac_bits_w)),
        d.vcsel_latency_ns,
        d.photodetector_latency_ns,
        catalog.adc_latency(cp.adc_bits),
    ]
    if cp.use_soa:
        chain.append(d.soa_latency_ns)
    return max(chain) if cfg.pipelined else sum(chain)


def _device_table(
    catalog: DeviceCatalog, cp: _ConverterPlan, period_ns: float, laser_mw: float
) -> tuple[tuple[float, float], ...]:
    """(power mW, active ns per action) of each device, in summation order.

    Rows: activation DAC, weight DAC, ADC, photodetector, VCSEL, SOA, EO tuning,
    and the laser plus thermal trim of the unit's two MR banks. DACs and laser
    plus trim hold for the whole step period; the rest for their own latency.
    """
    d = catalog.devices
    return (
        (catalog.dac_power(cp.dac_bits_act), period_ns),
        (catalog.dac_power(cp.dac_bits_w), period_ns),
        (catalog.adc_power(cp.adc_bits), catalog.adc_latency(cp.adc_bits)),
        (d.photodetector_power_mw, d.photodetector_latency_ns),
        (d.vcsel_power_mw, d.vcsel_latency_ns),
        (d.soa_power_mw, d.soa_latency_ns),
        (d.eo_tuning_power_mw_per_nm * catalog.eo_shift_nm, d.eo_tuning_latency_ns),
        (laser_mw + d.to_tuning_power_mw_per_fsr * catalog.to_duty_cycle * 2, period_ns),
    )


def bitwave_plan(kind: str, b: int) -> _ConverterPlan:
    """b-bit converters of the bit-sliced architecture; only its CONV units amplify."""
    return _ConverterPlan(dac_bits_act=b, dac_bits_w=b, adc_bits=b, use_soa=kind == wir.CONV)


def slice_counts(layer: wir.LayerSpec, cp: _ConverterPlan) -> tuple[int, int]:
    """(activation, weight) slices of a layer's operands under ``cp``: ceil(p / DAC bits) each."""
    return ceil_div(layer.act_bits, cp.dac_bits_act), ceil_div(layer.weight_bits, cp.dac_bits_w)


@dataclass(frozen=True, slots=True)
class LayerCost:
    """What a layer costs on one unit width, whatever the unit counts (V, K).

    An FC layer's cost depends on (v, b) only and a CONV layer's on (k, b)
    only: the unit count divides latency (``place_layer``) but leaves energy
    alone.
    """

    index: int
    kind: str
    n_units_of_work: int  # FC: weight tiles; CONV: output positions x chunks
    steps_per_unit: int
    step_period_ns: float
    energy_j: float
    macs: int
    processed_bits: int


def layer_cost(
    layer: wir.LayerSpec,
    cfg: ArchConfig,
    catalog: DeviceCatalog,
    cp: _ConverterPlan,
    laser_mw: float,
) -> LayerCost:
    """Work and energy of one layer; reads neither ``cfg.V`` nor ``cfg.K``."""
    period = _step_period_ns(cfg, catalog, cp)
    n_a, n_w = slice_counts(layer, cp)
    # the step order depends only on the slice counts: one bit per slice covers every plan
    schedule = bse.build_schedule(n_a, n_w, 1, layer.kind)
    steps = schedule.n_steps
    a_imprints, w_imprints = schedule.imprints

    # action counts in _device_table's row order; the laser and trim burn for every busy slot
    if layer.kind == wir.FC:
        n_i, n_o = layer.in_features, layer.out_features
        lane_chunks = ceil_div(n_i, cfg.v)
        row_chunks = ceil_div(n_o, cfg.v)
        work = lane_chunks * row_chunks
        lane_holds = row_chunks * n_i * steps  # one VCSEL pulse each
        row_events = lane_chunks * n_o * steps  # weight DAC hold, conversion, PD event per row
        # each weight per tile, each activation per row chunk
        imprints = n_i * n_o * w_imprints + row_chunks * n_i * a_imprints
        counts = (lane_holds, row_events, row_events, row_events, lane_holds, 0, imprints,
                  work * steps)
    else:
        length = layer.kernel_h * layer.kernel_w * layer.in_channels
        chunks = ceil_div(length, cfg.k)
        oh, ow = wir.layer_out_hw(layer)
        positions = oh * ow * layer.out_channels
        work = positions * chunks
        lane_holds = positions * length * steps  # one VCSEL pulse each
        row_events = work * n_w * steps  # weight DAC hold, PD event, SOA pass per weight-slice row
        # each activation per position; each kernel slice row per position
        imprints = positions * length * a_imprints + positions * length * n_w * w_imprints
        # current-summed rows: one conversion per unit of work per step
        counts = (lane_holds, row_events, work * steps, row_events, lane_holds,
                  row_events if cp.use_soa else 0, imprints, work * steps)

    # a loop, not sum(): it adds the terms in table order on every Python version
    energy_pj = 0.0
    for n, (p_mw, ns) in zip(counts, _device_table(catalog, cp, period, laser_mw)):
        energy_pj += n * p_mw * ns
    return LayerCost(
        index=layer.index,
        kind=layer.kind,
        n_units_of_work=work,
        steps_per_unit=steps,
        step_period_ns=period,
        energy_j=energy_pj * 1e-12 * cfg.energy_scale,
        macs=wir.layer_mac_count(layer),
        processed_bits=wir.layer_processed_bits(layer),
    )


def place_layer(cost: LayerCost, n_units: int) -> tuple[int, int, float, int]:
    """Round-robin a layer's work over ``n_units`` units.

    Returns (passes, seq_steps, latency_s, mvus_used).
    """
    passes = ceil_div(cost.n_units_of_work, n_units)
    seq_steps = passes * cost.steps_per_unit
    return passes, seq_steps, seq_steps * cost.step_period_ns * 1e-9, min(n_units, cost.n_units_of_work)


def efficiency(latency_s: float, energy_j: float, macs: int, bits: int) -> tuple[float, float, float]:
    """(EPB, GOPS, GOPS/EPB) of one inference; each reads 0.0 where it is undefined."""
    epb_val = energy_j / bits if bits else 0.0
    gops = 2.0 * macs / latency_s / 1e9 if latency_s > 0 else 0.0
    return epb_val, gops, gops / epb_val if epb_val > 0 else 0.0


def _unit_active_power_mw(spec: MvuSpec, catalog: DeviceCatalog, cp: _ConverterPlan) -> float:
    """Worst-case power of one fully occupied unit (all devices active)."""
    lanes, rows = spec.n_wavelengths, spec.n_rows
    adcs = rows if spec.kind == wir.FC else 1  # CONV rows are current-summed into one ADC
    counts = (lanes, rows, adcs, rows, lanes, rows if cp.use_soa else 0, spec.n_mr, 1)
    # power reads no active time, so the table's step period is moot here
    table = _device_table(catalog, cp, 0.0, dbm_to_mw(spec.min_laser_dbm))
    p = 0.0
    for n, (p_mw, _) in zip(counts, table):
        p += n * p_mw
    return p


def max_power(cfg: ArchConfig, catalog: DeviceCatalog = DEFAULT_CATALOG) -> float:
    """Worst-case simultaneous power draw (W) with every unit fully active.

    CONV units are sized for the widest supported operand (16-bit weights
    at the configured slice width).
    """
    return array_power_w(cfg, MvuCache(catalog))


def array_power_w(cfg: ArchConfig, units: MvuCache) -> float:
    """``max_power`` from per-unit powers: V FC units plus K CONV units."""
    total_mw = 0.0
    if cfg.V > 0:
        total_mw += cfg.V * units.unit_power_mw(wir.FC, cfg.v, cfg.b)
    if cfg.K > 0:
        total_mw += cfg.K * units.unit_power_mw(wir.CONV, cfg.k, cfg.b)
    return total_mw * 1e-3


# -- runs of same-kind layers and their checks ----------------------------------
# Their tuples are built from lists: CPython builds tuple(generator) by resizing, and
# its tuple free lists then keep the resized blocks (+1 MB peak RSS over a CLI batch).


def kind_runs(model: wir.WorkloadModel) -> list[tuple[str, tuple[wir.LayerSpec, ...]]]:
    """The model's maximal runs of same-kind layers, in layer order, as (kind, layers)."""
    return [(kind, tuple([*run])) for kind, run in itertools.groupby(model.layers, key=lambda l: l.kind)]


@dataclass(frozen=True, slots=True)
class RunCost:
    """A run's converter plan, its layers' unit specs and costs, and its first unit over the laser ceiling."""

    kind: str
    plan: _ConverterPlan
    specs: tuple[MvuSpec, ...]
    costs: tuple[LayerCost, ...]
    over_ceiling: MvuSpec | None


def run_cost(
    kind: str,
    layers: tuple[wir.LayerSpec, ...],
    plan: _ConverterPlan,
    cfg: ArchConfig,
    units: MvuCache,
) -> RunCost:
    """Cost a run of same-kind layers on units with the converters of ``plan``.

    FC layers share one v x v unit; a CONV layer runs on a k-wide unit with
    one row per weight slice. Reads neither ``cfg.V`` nor ``cfg.K``.
    """
    if kind == wir.FC:
        specs = (units.spec(wir.FC, cfg.v, cfg.v),) * len(layers)
    else:
        specs = tuple([units.spec(wir.CONV, cfg.k, slice_counts(l, plan)[1]) for l in layers])
    costs = tuple([
        layer_cost(l, cfg, units.catalog, plan, dbm_to_mw(spec.min_laser_dbm))
        for l, spec in zip(layers, specs)
    ])
    # the laser law: a unit's link budget fails if its minimum laser power exceeds the ceiling
    over = next((spec for spec in specs if spec.min_laser_dbm > cfg.laser_ceiling_dbm), None)
    return RunCost(kind, plan, specs, costs, over)


def check_runs(runs: list[RunCost], cfg: ArchConfig) -> dict[str, int]:
    """The unit count of each kind the runs hold, once ``cfg`` passes every check.

    The checks run in this order: the FC unit count, the FC laser budget,
    the CONV unit count, then each CONV unit's laser budget in layer order.
    The first that fails raises ConfigError or LaserInfeasibleError.
    """
    n_units_of: dict[str, int] = {}
    for kind, field_name in ((wir.FC, "V"), (wir.CONV, "K")):
        for run in runs:
            if run.kind != kind:
                continue
            if kind not in n_units_of:
                n_units = n_units_of[kind] = unit_count(kind, cfg)
                if n_units < 1:
                    raise ConfigError(f"model has {kind} layers but the config has {field_name}=0 {kind} units")
            spec = run.over_ceiling
            if spec is not None:
                raise LaserInfeasibleError(
                    f"{spec.kind} unit path ({spec.n_wavelengths} wavelengths, "
                    f"{spec.n_rows} rows, {spec.path_loss_db:.2f} dB loss) needs "
                    f"{spec.min_laser_dbm:.2f} dBm laser > ceiling {cfg.laser_ceiling_dbm:.2f} dBm"
                )
    return n_units_of


def _simulate(
    model: wir.WorkloadModel,
    cfg: ArchConfig,
    catalog: DeviceCatalog,
    accelerator: str,
    plans: dict[str, _ConverterPlan],
) -> SimReport:
    """Simulate ``model`` on units whose converters ``plans`` gives per layer kind."""
    units = MvuCache(catalog)
    runs = [run_cost(kind, layers, plans[kind], cfg, units) for kind, layers in kind_runs(model)]
    n_units_of = check_runs(runs, cfg)
    per_layer: list[LayerReport] = []
    peak_mw = 0.0
    for run in runs:
        for cost, spec in zip(run.costs, run.specs):
            _, seq_steps, latency_s, used = place_layer(cost, n_units_of[run.kind])
            per_layer.append(LayerReport(
                index=cost.index,
                kind=cost.kind,
                time_steps=seq_steps,
                step_period_ns=cost.step_period_ns,
                latency_s=latency_s,
                energy_j=cost.energy_j,
                macs=cost.macs,
                processed_bits=cost.processed_bits,
                mvus_used=used,
            ))
            peak_mw = max(peak_mw, used * _unit_active_power_mw(spec, catalog, run.plan))

    # float starts keep a layerless model's latency and energy floats (0.0)
    latency = sum((r.latency_s for r in per_layer), 0.0)
    energy = sum((r.energy_j for r in per_layer), 0.0)
    macs = sum(r.macs for r in per_layer)
    bits = sum(r.processed_bits for r in per_layer)
    epb_val, gops, gops_per_epb_val = efficiency(latency, energy, macs, bits)
    return SimReport(
        model_name=model.name,
        accelerator=accelerator,
        total_time_steps=sum(r.time_steps for r in per_layer),
        latency_s=latency,
        energy_j=energy,
        peak_power_w=peak_mw * 1e-3,
        total_macs=macs,
        processed_bits=bits,
        epb_j_per_bit=epb_val,
        gops=gops,
        gops_per_epb=gops_per_epb_val,
        per_layer=tuple(per_layer),
    )


def simulate_inference(
    model: wir.WorkloadModel,
    cfg: ArchConfig,
    catalog: DeviceCatalog = DEFAULT_CATALOG,
) -> SimReport:
    """Run one inference of a quantized model on the bit-sliced architecture."""
    plans = {kind: bitwave_plan(kind, cfg.b) for kind in (wir.FC, wir.CONV)}
    return _simulate(model, cfg, catalog, ARCH_NAME, plans)


def simulate_baseline(
    model: wir.WorkloadModel,
    spec: BaselineSpec,
    cfg: ArchConfig,
    catalog: DeviceCatalog = DEFAULT_CATALOG,
) -> SimReport:
    """Run the model on a fixed-resolution single-step stand-in accelerator.

    The stand-in reuses the array geometry of ``cfg`` but quantizes every
    layer to the baseline's homogeneous bitwidths, performs full-resolution
    dot products in one step (no slicing, no gain ladder), and sizes its
    converters to those bitwidths.
    """
    homogeneous = wir.with_bits(model, spec.weight_bits, spec.act_bits)
    cat = device_catalog.apply_device_overrides(catalog, spec.device_overrides)
    plan = _ConverterPlan(
        dac_bits_act=spec.act_bits,
        dac_bits_w=spec.weight_bits,
        adc_bits=max(spec.act_bits, spec.weight_bits),
        use_soa=False,
    )
    return _simulate(homogeneous, cfg, cat, spec.name, dict.fromkeys((wir.FC, wir.CONV), plan))


# -- micro-workload calibration --------------------------------------------------


def micro_dot_workload(p_bits: int, name: str = "micro-dot") -> wir.WorkloadModel:
    """Two-element dot product as a minimal FC workload (one output)."""
    layer = wir.LayerSpec(
        index=0, kind=wir.FC, in_features=2, out_features=1,
        weight_bits=p_bits, act_bits=p_bits,
    )
    return wir.WorkloadModel(name=name, layers=(layer,))


def micro_dot_config(b: int = 4, energy_scale: float = 1.0) -> ArchConfig:
    """Two-wavelength single-unit configuration for the micro-workload."""
    return ArchConfig(v=2, k=1, b=b, V=1, K=1, energy_scale=energy_scale)


def calibrate_energy_scale(
    catalog: DeviceCatalog = DEFAULT_CATALOG,
    anchor_j: float = MICRO_DOT_ENERGY_ANCHOR_J,
) -> float:
    """Solve the global energy_scale from the micro-workload anchor.

    The raw device-level energies are picojoule-scale; reported energies are
    anchored so the 8-bit b=4 micro dot product reads ``anchor_j``. One
    constant, solved once; everything else is parameter-free.
    """
    raw = simulate_inference(micro_dot_workload(8), micro_dot_config(4), catalog).energy_j
    return anchor_j / raw
