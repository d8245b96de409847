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

Energy accounting follows one device table (``_device_table``): each row
holds a device's power, its active time per action (None: the whole step)
and how many of it one unit holds. ``layer_actions`` counts a layer's
actions per row; a layer's energy sums action count x power x active time
over the table, and a unit's peak power sums device count x power over the
same rows. A run of layers (``RunCost``) takes its step period once and each
unit's table once per (unit, plan) from an ``MvuCache``, which also keeps a
run's layer placements per unit count and their latencies' sum; its caches
are per instance and die with it. A run keeps its layers' work, steps and
energies as columns in layer order, and their energies' sum. A model's
latency and energy are its layers' latencies and energies added left to
right in layer order (``float_sum``, the same float on every Python);
``model_latency_s`` and ``model_energy_j`` are the one home of that law,
which ``simulate_inference`` calls on fresh caches and ``dse.explore`` on
shared ones. Each starts from its first run's cached sum, the same float as
the running total after that run, and adds every later layer term by term.

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

The step period always comes from the per-step device chain: its slowest
element (pipelined; ``pipelined=False`` sums the chain instead). All
reported energies scale by the configuration's ``energy_scale`` calibration
constant.

Everything here is a pure function of (model, config, catalog); reports are
immutable values and safe to share across threads.
"""

import functools
import itertools
import math
import operator
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
from .workload_ir import MAX_BITS, ceil_div, check_bits, float_sum

#: name used for this architecture in reports and comparison tables
ARCH_NAME = "bitwave"

#: calibration anchor: reported energy of the two-element 8-bit dot-product
#: micro-workload at b=4 on a two-wavelength unit, used to solve energy_scale
MICRO_DOT_ENERGY_ANCHOR_J = 6.0e-3


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

    def __post_init__(self) -> None:
        for name in ("v", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {wir.brief(getattr(self, name))}")
        check_bits("b", self.b)
        for name in ("V", "K"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {wir.brief(getattr(self, name))}")
        if self.energy_scale <= 0:
            raise ValueError(f"energy_scale must be positive, got {self.energy_scale}")


def arch_config_from_dict(doc: dict) -> ArchConfig:
    return ArchConfig(**wir.read_fields(doc, ArchConfig, "config"))


def load_arch_config(path: str | Path) -> ArchConfig:
    return arch_config_from_dict(wir.read_json(path))


@dataclass(frozen=True)
class BaselineSpec:
    """A fixed-resolution single-step accelerator stand-in."""

    name: str
    weight_bits: int
    act_bits: int
    device_overrides: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_bits(f"baseline {wir.brief(self.name)}: weight_bits", self.weight_bits)
        check_bits(f"baseline {wir.brief(self.name)}: act_bits", self.act_bits)


def load_baseline_spec(path: str | Path) -> BaselineSpec:
    """Read a baseline file; a bad ``device_overrides`` value is reported with the file's path."""
    spec = BaselineSpec(**wir.read_fields(wir.read_json(path), BaselineSpec, "baseline"))
    try:
        device_catalog.apply_device_overrides(DEFAULT_CATALOG, spec.device_overrides)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return spec


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
    """Power division plus per-stage excess loss of a 1-to-n splitter tree; exactly 0.0 for one branch."""
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
    """Unit specs, device tables and per-unit peak powers under one catalog, each computed once.

    ``spec(kind, n_lambda, n_rows)`` is ``_mvu_spec`` and ``table(spec, cp)``
    is ``_device_table`` under the catalog. ``active_power_mw(spec, cp)`` is
    one fully occupied unit's worst-case power, device count x power over that
    table. ``unit_power_mw(kind, width, b)`` is that power on the bit-sliced
    plan, CONV units sized for the widest operand (16-bit weights at slice width b).

    ``placements(run, n_units)`` is ``place_run(run, n_units)``: a run's placement on ``n_units``
    units as three columns (time steps, latencies, units used) and ``latency_s(run,
    n_units)`` the latencies' ``float_sum``, a model's running latency after its first run.
    ``explore`` reads only the latencies but keeps all three columns, about 225 KB of
    traced peak on the ``dse_sweep`` grid, so that ``simulate`` places each run once.

    Each is a ``functools.cache`` made per instance that holds no reference to
    the instance, so the caches die with it. One simulation builds its own; a
    search builds one per call and shares it across every configuration.
    """

    def __init__(self, catalog: DeviceCatalog):
        self.catalog = catalog
        self.spec = specs = functools.cache(
            lambda kind, n_lambda, n_rows: _mvu_spec(kind, n_lambda, n_rows, catalog))
        self.table = tables = functools.cache(lambda spec, cp: _device_table(catalog, spec, cp))
        self.active_power_mw = active = functools.cache(
            lambda spec, cp: float_sum(n * p_mw for p_mw, _, n in tables(spec, cp)))
        self.unit_power_mw = functools.cache(lambda kind, width, b: active(
            specs(kind, width, width if kind == wir.FC else ceil_div(MAX_BITS, b)), bitwave_plan(kind, b)))
        # place_run is looked up at call time, so a patched one sees every placement
        self.placements = placements = functools.cache(lambda run, n_units: place_run(run, n_units))
        self.latency_s = functools.cache(lambda run, n_units: float_sum(placements(run, n_units)[1]))


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
    return max(chain) if cfg.pipelined else float_sum(chain)


def _device_table(
    catalog: DeviceCatalog, spec: MvuSpec, cp: _ConverterPlan
) -> tuple[tuple[float, float | None, int], ...]:
    """(power mW, active ns per action, devices per unit) of each device, in summation order.

    Rows: activation DAC, weight DAC, ADC, photodetector, VCSEL, SOA, EO tuning,
    and the laser plus thermal trim of the unit's two MR banks. DACs and laser
    plus trim hold for the whole step: their active time is None, which
    ``layer_cost`` charges at the run's step period. The rest hold for their own latency.
    """
    d = catalog.devices
    lanes, rows = spec.n_wavelengths, spec.n_rows
    return (
        (catalog.dac_power(cp.dac_bits_act), None, lanes),
        (catalog.dac_power(cp.dac_bits_w), None, rows),
        # CONV rows are current-summed into one ADC
        (catalog.adc_power(cp.adc_bits), catalog.adc_latency(cp.adc_bits), rows if spec.kind == wir.FC else 1),
        (d.photodetector_power_mw, d.photodetector_latency_ns, rows),
        (d.vcsel_power_mw, d.vcsel_latency_ns, lanes),
        (d.soa_power_mw, d.soa_latency_ns, rows if cp.use_soa else 0),
        (d.eo_tuning_power_mw_per_nm * catalog.eo_shift_nm, d.eo_tuning_latency_ns, spec.n_mr),
        (dbm_to_mw(spec.min_laser_dbm) + d.to_tuning_power_mw_per_fsr * catalog.to_duty_cycle * 2, None, 1),
    )


def bitwave_plan(kind: str, b: int) -> _ConverterPlan:
    """b-bit converters of the bit-sliced architecture; only its CONV units amplify."""
    return _ConverterPlan(dac_bits_act=b, dac_bits_w=b, adc_bits=b, use_soa=kind == wir.CONV)


def slice_counts(layer: wir.LayerSpec, cp: _ConverterPlan) -> tuple[int, int]:
    """(activation, weight) slices of a layer's operands under ``cp``: ceil(p / DAC bits) each."""
    return ceil_div(layer.act_bits, cp.dac_bits_act), ceil_div(layer.weight_bits, cp.dac_bits_w)


def layer_actions(layer: wir.LayerSpec, cfg: ArchConfig, cp: _ConverterPlan) -> tuple[int, int, tuple[int, ...]]:
    """(units of work, steps per unit, action counts in ``_device_table`` row order) of one layer.

    Reads neither ``cfg.V`` nor ``cfg.K``.
    """
    n_a, n_w = slice_counts(layer, cp)
    # the step order depends only on the slice counts: one bit per slice covers every plan
    schedule = bse.build_schedule(n_a, n_w, 1, layer.kind)
    steps = schedule.n_steps
    a_imprints, w_imprints = schedule.imprints

    # the laser and trim burn for every busy slot
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
    return work, steps, counts


def layer_cost(
    layer: wir.LayerSpec,
    cfg: ArchConfig,
    cp: _ConverterPlan,
    table: tuple[tuple[float, float | None, int], ...],
    period_ns: float,
) -> tuple[int, int, float]:
    """(units of work, steps per unit, energy J) of one layer on units that draw ``table`` and step every ``period_ns``.

    Reads neither ``cfg.V`` nor ``cfg.K``.
    """
    work, steps, counts = layer_actions(layer, cfg, cp)
    energy_pj = float_sum(n * p_mw * (period_ns if ns is None else ns) for n, (p_mw, ns, _) in zip(counts, table))
    return work, steps, energy_pj * 1e-12 * cfg.energy_scale


def efficiency(latency_s: float, energy_j: float, macs: int, bits: int) -> tuple[float, float, float]:
    """(EPB, GOPS, GOPS/EPB) of one inference; each reads 0.0 where it is undefined."""
    epb_val = energy_j / bits if bits else 0.0
    gops = 2.0 * macs / latency_s / 1e9 if latency_s > 0 else 0.0
    return epb_val, gops, gops / epb_val if epb_val > 0 else 0.0


def max_power(cfg: ArchConfig, units: MvuCache) -> float:
    """Worst-case power draw (W) of V FC plus K CONV units, each fully active, from ``units``' unit powers.

    CONV units are sized for the widest operand (16-bit weights at slice width b).
    """
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


@dataclass(frozen=True, slots=True, eq=False)
class RunCost:
    """A run's layers, plan and step period, their specs and cost columns, and the laser power it needs.

    ``work`` (FC: weight tiles; CONV: output positions x chunks),
    ``steps_per_unit`` and ``energies`` (J) are columns in layer order. They
    hold for any unit counts (V, K): an FC run's depend on (v, b) only and a
    CONV run's on (k, b) only, as the unit count divides latency
    (``place_run``) but leaves energy alone. ``energy_j`` is the
    ``float_sum`` of ``energies``. ``laser_dbm`` is the largest
    ``min_laser_dbm`` of the specs. Hashed by identity, so a cache lookup
    does not hash every ``LayerSpec`` of the run.
    """

    kind: str
    layers: tuple[wir.LayerSpec, ...]
    plan: _ConverterPlan
    period_ns: float
    specs: tuple[MvuSpec, ...]
    work: tuple[int, ...]
    steps_per_unit: tuple[int, ...]
    energies: tuple[float, ...]
    energy_j: float
    laser_dbm: float


def run_cost(
    kind: str,
    layers: tuple[wir.LayerSpec, ...],
    plan: _ConverterPlan,
    cfg: ArchConfig,
    units: MvuCache,
) -> RunCost:
    """Cost a run of same-kind layers on units with the converters of ``plan``.

    FC layers share one v x v unit; a CONV layer runs on a k-wide unit with
    one row per weight slice. The run takes its step period once and each
    unit's device table from ``units``. Reads neither ``cfg.V``, ``cfg.K``
    nor ``cfg.laser_ceiling_dbm``.
    """
    if kind == wir.FC:
        specs = (units.spec(wir.FC, cfg.v, cfg.v),) * len(layers)
    else:
        specs = tuple([units.spec(wir.CONV, cfg.k, slice_counts(l, plan)[1]) for l in layers])
    period = _step_period_ns(cfg, units.catalog, plan)
    work, steps, energies = zip(*[layer_cost(l, cfg, plan, units.table(spec, plan), period)
                                  for l, spec in zip(layers, specs)])
    return RunCost(kind, layers, plan, period, specs, work, steps, energies, float_sum(energies),
                   max([spec.min_laser_dbm for spec in specs]))


def place_run(run: RunCost, n_units: int) -> tuple[tuple[int, ...], tuple[float, ...], tuple[int, ...]]:
    """Round-robin each layer's work over ``n_units`` units: (time steps, latencies, units used) in layer order."""
    seq_steps = tuple([ceil_div(work, n_units) * steps for work, steps in zip(run.work, run.steps_per_unit)])
    return (seq_steps, tuple([n * run.period_ns * 1e-9 for n in seq_steps]),
            tuple([min(n_units, work) for work in run.work]))


def check_runs(runs: list[RunCost], cfg: ArchConfig) -> MvuSpec | None:
    """The first unit spec whose laser budget fails under ``cfg``, or None if ``cfg`` can run the runs.

    This is the laser law: a unit's link budget fails if its minimum laser
    power exceeds the ceiling, or, whatever the ceiling, if that power in mW
    is past the float range. The checks run in this order: the FC unit
    count, the FC laser budget, the CONV unit count, then each CONV unit's
    laser budget in layer order. A missing unit kind raises ValueError.
    """
    def fails(dbm: float) -> bool:
        return dbm > cfg.laser_ceiling_dbm or math.isinf(dbm_to_mw(dbm))

    for kind, field_name in ((wir.FC, "V"), (wir.CONV, "K")):
        of_kind = [run for run in runs if run.kind == kind]
        if of_kind and unit_count(kind, cfg) < 1:
            raise ValueError(f"model has {kind} layers but the config has {field_name}=0 {kind} units")
        for run in of_kind:
            if fails(run.laser_dbm):
                return next(spec for spec in run.specs if fails(spec.min_laser_dbm))
    return None


# ``float_sum`` adds left to right from 0.0, so a model's first run's sum is the
# same float as the running total after that run: both totals start from it.


def model_energy_j(runs: list[RunCost]) -> float:
    """A model's energy: its layers' energies added in layer order, from its first run's ``energy_j``."""
    if not runs:
        return 0.0
    total = runs[0].energy_j
    for run in runs[1:]:
        total = functools.reduce(operator.add, run.energies, total)
    return total


def model_latency_s(runs: list[RunCost], cfg: ArchConfig, units: MvuCache) -> float:
    """A model's latency under ``cfg``'s unit counts: its layers' latencies from ``units``, added in layer order.

    The first run's terms come as its cached ``units.latency_s``, each later
    run's from its ``units.placements``.
    """
    if not runs:
        return 0.0
    first = runs[0]
    total = units.latency_s(first, unit_count(first.kind, cfg))
    for run in runs[1:]:
        total = functools.reduce(operator.add, units.placements(run, unit_count(run.kind, cfg))[1], total)
    return total


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
    spec = check_runs(runs, cfg)
    if spec is not None:
        over = (f"> ceiling {cfg.laser_ceiling_dbm:.2f} dBm" if spec.min_laser_dbm > cfg.laser_ceiling_dbm
                else "whose power in mW is past the float range")
        raise LaserInfeasibleError(
            f"{spec.kind} unit path ({spec.n_wavelengths} wavelengths, "
            f"{spec.n_rows} rows, {spec.path_loss_db:.2f} dB loss) needs "
            f"{spec.min_laser_dbm:.2f} dBm laser {over}"
        )
    per_layer: list[LayerReport] = []
    peak_mw = 0.0
    for run in runs:
        placed = units.placements(run, unit_count(run.kind, cfg))
        for layer, energy_j, spec, seq_steps, latency_s, used in zip(run.layers, run.energies, run.specs, *placed):
            per_layer.append(LayerReport(
                index=layer.index,
                kind=layer.kind,
                time_steps=seq_steps,
                step_period_ns=run.period_ns,
                latency_s=latency_s,
                energy_j=energy_j,
                macs=wir.layer_mac_count(layer),
                processed_bits=wir.layer_processed_bits(layer),
                mvus_used=used,
            ))
            peak_mw = max(peak_mw, used * units.active_power_mw(spec, run.plan))

    latency = model_latency_s(runs, cfg, units)
    energy = model_energy_j(runs)
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


def micro_dot_workload(p_bits: int) -> wir.WorkloadModel:
    """Two-element dot product as a minimal FC workload (one output)."""
    layer = wir.LayerSpec(
        index=0, kind=wir.FC, in_features=2, out_features=1,
        weight_bits=p_bits, act_bits=p_bits,
    )
    return wir.WorkloadModel(name="micro-dot", layers=(layer,))


def micro_dot_config(b: int, energy_scale: float = 1.0) -> ArchConfig:
    """Two-wavelength single-unit configuration for the micro-workload."""
    return ArchConfig(v=2, k=1, b=b, V=1, K=1, energy_scale=energy_scale)


def calibrate_energy_scale(catalog: DeviceCatalog = DEFAULT_CATALOG) -> float:
    """Solve the global energy_scale from the micro-workload anchor.

    The raw device-level energies are picojoule-scale; reported energies are
    anchored so the 8-bit b=4 micro dot product reads
    ``MICRO_DOT_ENERGY_ANCHOR_J``. One constant, solved once; everything else
    is parameter-free.
    """
    raw = simulate_inference(micro_dot_workload(8), micro_dot_config(4), catalog).energy_j
    return MICRO_DOT_ENERGY_ANCHOR_J / raw
