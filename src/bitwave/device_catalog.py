"""Device latency/power/loss constants and optical power-budget arithmetic.

Conventions used throughout the package:

* latencies in nanoseconds (ns)
* electrical powers in milliwatts (mW)
* optical losses in decibels (dB), optical powers in dBm
* 1 mW held for 1 ns == 1 pJ

Catalog instances are frozen; they can be shared across threads without
coordination. A catalog file (JSON) may override any subset of fields;
everything unspecified keeps its default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable

from .workload_ir import check_bits, read_fields


class CatalogError(ValueError):
    """Malformed catalog file or out-of-range device query."""


@dataclass(frozen=True)
class DeviceParams:
    """Per-device latency (ns) and power (mW) figures."""

    eo_tuning_latency_ns: float = 20.0
    eo_tuning_power_mw_per_nm: float = 0.004  # 4 uW per nm of resonance shift
    to_tuning_power_mw_per_fsr: float = 27.5
    vcsel_latency_ns: float = 0.07
    vcsel_power_mw: float = 1.3
    photodetector_latency_ns: float = 0.0058  # 5.8 ps
    photodetector_power_mw: float = 2.8
    soa_latency_ns: float = 0.3
    soa_power_mw: float = 2.2
    dac16_latency_ns: float = 0.33
    dac16_power_mw: float = 40.0
    adc16_latency_ns: float = 14.0
    adc16_power_mw: float = 62.0
    dac8_latency_ns: float = 0.29
    dac8_power_mw: float = 3.0
    adc8_latency_ns: float = 0.82
    adc8_power_mw: float = 3.1

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise CatalogError(f"device parameter {f.name} must be positive")


@dataclass(frozen=True)
class LossModel:
    """Per-element optical insertion losses (dB)."""

    waveguide_db_per_cm: float = 1.0
    splitter_db: float = 0.05
    mr_through_db: float = 0.02
    mr_modulation_db: float = 0.72
    eo_tuning_db_per_cm: float = 6.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise CatalogError(f"loss {f.name} must be non-negative")


@dataclass(frozen=True)
class DeviceCatalog:
    """Device constants plus the calibration knobs the analytical model needs.

    ``detector_sensitivity_dbm`` has no published value; -20 dBm is a
    placeholder that catalog files may override. ``eo_shift_nm`` is the
    modeled resonance shift per parameter imprint (the tuning energy is
    quoted per nm). ``to_duty_cycle`` scales the thermal trimming power:
    hybrid tuning leaves the heaters nearly idle, so the duty is small.
    """

    devices: DeviceParams = field(default_factory=DeviceParams)
    losses: LossModel = field(default_factory=LossModel)
    detector_sensitivity_dbm: float = -20.0
    to_duty_cycle: float = 0.002
    eo_shift_nm: float = 1.0
    mr_pitch_cm: float = 0.002  # 20 um of waveguide per microring
    eo_section_cm: float = 0.001  # actively tuned waveguide per modulating MR
    base_waveguide_cm: float = 0.1  # routing overhead per unit

    def __post_init__(self) -> None:
        if self.to_duty_cycle < 0 or self.to_duty_cycle > 1:
            raise CatalogError("to_duty_cycle must be in [0, 1]")
        for name in ("eo_shift_nm", "mr_pitch_cm", "eo_section_cm", "base_waveguide_cm"):
            if getattr(self, name) < 0:
                raise CatalogError(f"{name} must be non-negative")

    # -- converter scaling ---------------------------------------------------

    def dac_power(self, n_bits: int) -> float:
        """DAC power (mW) at a given resolution.

        The two published design points (8-bit at 3 mW, 16-bit at 40 mW) are
        kept exact. Below 8 bits the power follows the (2^N / N + 1)
        proportionality, pinned to the 8-bit anchor. Between the anchors no
        single proportionality constant fits both, so the gap is bridged
        log-linearly.
        """
        check_bits("converter resolution", n_bits, CatalogError)
        d = self.devices
        if n_bits == 16:
            return d.dac16_power_mw
        if n_bits == 8:
            return d.dac8_power_mw
        if n_bits < 8:
            scale = (2.0**n_bits / n_bits + 1.0) / (2.0**8 / 8 + 1.0)
            return d.dac8_power_mw * scale
        t = (n_bits - 8) / 8.0
        return math.exp(
            math.log(d.dac8_power_mw)
            + t * (math.log(d.dac16_power_mw) - math.log(d.dac8_power_mw))
        )

    def dac_latency(self, n_bits: int) -> float:
        """DAC latency (ns); low-resolution designs share the 8-bit figure."""
        check_bits("converter resolution", n_bits, CatalogError)
        if n_bits <= 8:
            return self.devices.dac8_latency_ns
        return self.devices.dac16_latency_ns

    def adc_power(self, n_bits: int) -> float:
        """ADC power (mW); resolutions up to 8 bits use the 8-bit design."""
        check_bits("converter resolution", n_bits, CatalogError)
        if n_bits <= 8:
            return self.devices.adc8_power_mw
        return self.devices.adc16_power_mw

    def adc_latency(self, n_bits: int) -> float:
        check_bits("converter resolution", n_bits, CatalogError)
        if n_bits <= 8:
            return self.devices.adc8_latency_ns
        return self.devices.adc16_latency_ns


DEFAULT_CATALOG = DeviceCatalog()


# -- dBm arithmetic ----------------------------------------------------------


def dbm_to_mw(x_dbm: float) -> float:
    """Convert dBm to mW."""
    return 10.0 ** (x_dbm / 10.0)


def min_laser_power(p_photoloss_db: float, n_lambda: int, s_detector_dbm: float) -> float:
    """Smallest laser power (dBm) that closes the link budget.

    The signal must arrive at the detector above its sensitivity after the
    path loss, and the laser is shared by ``n_lambda`` wavelengths, which
    costs 10*log10(n_lambda) dB.
    """
    if n_lambda < 1:
        raise CatalogError(f"wavelength count must be >= 1, got {n_lambda}")
    return s_detector_dbm + p_photoloss_db + 10.0 * math.log10(n_lambda)


#: path element kinds accepted by :func:`aggregate_photoloss`; each value names
#: the LossModel field (dB per unit) that the element's quantity multiplies.
_PATH_ELEMENTS = {
    "waveguide_cm": "waveguide_db_per_cm",
    "splitter": "splitter_db",
    "mr_through": "mr_through_db",
    "mr_modulation": "mr_modulation_db",
    "eo_cm": "eo_tuning_db_per_cm",
}


def aggregate_photoloss(path: Iterable[tuple[str, float]], losses: LossModel | None = None) -> float:
    """Sum the dB losses along a path of (element, quantity) pairs.

    Quantities are counts for discrete elements and lengths in cm for the
    per-cm elements.
    """
    losses = losses if losses is not None else LossModel()
    total = 0.0
    for kind, qty in path:
        if kind not in _PATH_ELEMENTS:
            raise CatalogError(f"unknown path element {kind!r}")
        if qty < 0:
            raise CatalogError(f"negative quantity for path element {kind!r}")
        total += qty * getattr(losses, _PATH_ELEMENTS[kind])
    return total


# -- catalog files -----------------------------------------------------------


def catalog_from_dict(doc: dict) -> DeviceCatalog:
    """Build a catalog from a JSON document, defaulting unspecified fields."""
    return DeviceCatalog(**read_fields(doc, DeviceCatalog, "catalog", CatalogError))


def load_catalog(path: str | Path) -> DeviceCatalog:
    """Load a catalog override file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        return catalog_from_dict(json.load(fh))


def apply_device_overrides(catalog: DeviceCatalog, overrides: dict) -> DeviceCatalog:
    """Return a catalog with selected device fields replaced."""
    if not overrides:
        return catalog
    checked = read_fields(overrides, DeviceParams, "device_overrides", CatalogError)
    return replace(catalog, devices=replace(catalog.devices, **checked))
