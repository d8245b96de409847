import json

import pytest

from bitwave import device_catalog as dcat
from bitwave.device_catalog import (
    DEFAULT_CATALOG,
    CatalogError,
    aggregate_photoloss,
    dbm_to_mw,
    min_laser_power,
)


def test_dac_power_anchors_exact():
    assert DEFAULT_CATALOG.dac_power(16) == 40.0
    assert DEFAULT_CATALOG.dac_power(8) == 3.0


def test_dac_power_low_resolution_scaling():
    # 3 * (2^4/4 + 1) / (2^8/8 + 1) = 15/33
    assert DEFAULT_CATALOG.dac_power(4) == pytest.approx(15 / 33, abs=1e-12)
    assert DEFAULT_CATALOG.dac_power(1) == pytest.approx(9 / 33, abs=1e-12)


def test_dac_power_monotone_non_decreasing():
    values = [DEFAULT_CATALOG.dac_power(n) for n in range(1, 17)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_dac_power_out_of_range():
    for bad in (0, 17, -1):
        with pytest.raises(CatalogError):
            DEFAULT_CATALOG.dac_power(bad)


def test_dac_latency_rules():
    assert DEFAULT_CATALOG.dac_latency(16) == 0.33
    assert DEFAULT_CATALOG.dac_latency(8) == 0.29
    assert DEFAULT_CATALOG.dac_latency(4) == 0.29
    assert DEFAULT_CATALOG.dac_latency(1) == 0.29
    assert DEFAULT_CATALOG.dac_latency(12) == 0.33  # conservative between anchors


def test_adc_selection_rules():
    assert DEFAULT_CATALOG.adc_power(8) == 3.1
    assert DEFAULT_CATALOG.adc_latency(8) == 0.82
    assert DEFAULT_CATALOG.adc_power(4) == 3.1
    assert DEFAULT_CATALOG.adc_power(16) == 62.0
    assert DEFAULT_CATALOG.adc_latency(16) == 14.0
    assert DEFAULT_CATALOG.adc_power(9) == 62.0


def test_aggregate_photoloss_single_and_empty():
    assert aggregate_photoloss([("waveguide_cm", 1.0)]) == pytest.approx(1.0)
    assert aggregate_photoloss([]) == 0.0


def test_aggregate_photoloss_hand_sum():
    path = [
        ("waveguide_cm", 2.0),
        ("splitter", 1.0),
        ("mr_through", 10.0),
        ("mr_modulation", 1.0),
    ]
    assert aggregate_photoloss(path) == pytest.approx(2.97)


def test_aggregate_photoloss_additive_over_concatenation():
    p1 = [("waveguide_cm", 0.5), ("mr_through", 3.0)]
    p2 = [("splitter", 2.0), ("eo_cm", 0.1)]
    assert aggregate_photoloss(p1 + p2) == pytest.approx(
        aggregate_photoloss(p1) + aggregate_photoloss(p2)
    )


def test_aggregate_photoloss_rejects_bad_elements():
    with pytest.raises(CatalogError):
        aggregate_photoloss([("coupler", 1.0)])
    with pytest.raises(CatalogError):
        aggregate_photoloss([("splitter", -1.0)])


def test_min_laser_power_trivial_case():
    assert min_laser_power(0.0, 1, -20.0) == -20.0


def test_min_laser_power_wavelength_doubling():
    base = min_laser_power(5.0, 4, -20.0)
    doubled = min_laser_power(5.0, 8, -20.0)
    assert doubled - base == pytest.approx(3.0103, abs=1e-4)


def test_min_laser_power_worked_value():
    assert min_laser_power(10.0, 16, -20.0) == pytest.approx(2.041, abs=1e-3)


def test_min_laser_power_additive_in_loss():
    base = min_laser_power(3.0, 7, -18.0)
    assert min_laser_power(3.0 + 2.5, 7, -18.0) == pytest.approx(base + 2.5, abs=1e-12)


def test_min_laser_power_rejects_zero_wavelengths():
    with pytest.raises(CatalogError):
        min_laser_power(1.0, 0, -20.0)


def test_dbm_conversions():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(10.0) == pytest.approx(10.0)
    assert dbm_to_mw(-20.0) == pytest.approx(0.01)


def test_default_table_values():
    d = DEFAULT_CATALOG.devices
    assert (d.eo_tuning_latency_ns, d.eo_tuning_power_mw_per_nm) == (20.0, 0.004)
    assert d.to_tuning_power_mw_per_fsr == 27.5
    assert (d.vcsel_latency_ns, d.vcsel_power_mw) == (0.07, 1.3)
    assert (d.photodetector_latency_ns, d.photodetector_power_mw) == (0.0058, 2.8)
    assert (d.soa_latency_ns, d.soa_power_mw) == (0.3, 2.2)
    assert (d.adc16_latency_ns, d.adc16_power_mw) == (14.0, 62.0)
    assert (d.adc8_latency_ns, d.adc8_power_mw) == (0.82, 3.1)
    L = DEFAULT_CATALOG.losses
    assert (L.waveguide_db_per_cm, L.splitter_db) == (1.0, 0.05)
    assert (L.mr_through_db, L.mr_modulation_db, L.eo_tuning_db_per_cm) == (0.02, 0.72, 6.0)


def test_catalog_file_overrides(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({
        "devices": {"dac8_power_mw": 5.0},
        "losses": {"splitter_db": 0.1},
        "detector_sensitivity_dbm": -25.0,
    }))
    cat = dcat.load_catalog(path)
    assert cat.devices.dac8_power_mw == 5.0
    assert cat.devices.dac16_power_mw == 40.0  # untouched default
    assert cat.losses.splitter_db == 0.1
    assert cat.detector_sensitivity_dbm == -25.0
    assert cat.dac_power(8) == 5.0


def test_catalog_rejects_unknown_fields():
    with pytest.raises(CatalogError):
        dcat.catalog_from_dict({"devices": {"dac9_power_mw": 1.0}})
    with pytest.raises(CatalogError):
        dcat.catalog_from_dict({"detector": -20})


def test_catalog_rejects_nonpositive_device_values():
    with pytest.raises(CatalogError):
        dcat.catalog_from_dict({"devices": {"vcsel_power_mw": 0.0}})


@pytest.mark.parametrize("value", [
    "3", True, None, float("nan"), float("inf"), -float("inf"),
    pytest.param(10**400, id="int-beyond-float"), [1.0],
])
def test_catalog_numbers_must_be_finite_and_numeric(value):
    docs = [
        {"devices": {"adc8_power_mw": value}},
        {"losses": {"splitter_db": value}},
        {"detector_sensitivity_dbm": value},
        {"to_duty_cycle": value},
        {"mr_pitch_cm": value},
    ]
    for doc in docs:
        with pytest.raises(CatalogError, match="must be a finite number, got"):
            dcat.catalog_from_dict(doc)
    with pytest.raises(CatalogError, match="must be a finite number, got"):
        dcat.apply_device_overrides(DEFAULT_CATALOG, {"vcsel_power_mw": value})


def test_catalog_sign_rules_kept():
    cat = dcat.catalog_from_dict({
        "devices": {"adc8_power_mw": 3},  # an int is a number
        "losses": {"splitter_db": 0},
        "detector_sensitivity_dbm": -30,
        "to_duty_cycle": 1,
        "mr_pitch_cm": 0.0,
    })
    assert cat.devices.adc8_power_mw == 3
    assert cat.detector_sensitivity_dbm == -30
    for doc, message in [
        ({"devices": {"adc8_power_mw": -1.0}}, "device parameter adc8_power_mw must be positive"),
        ({"losses": {"splitter_db": -0.1}}, "loss splitter_db must be non-negative"),
        ({"to_duty_cycle": 1.5}, "to_duty_cycle must be in [0, 1]"),
        ({"eo_shift_nm": -1}, "eo_shift_nm must be non-negative"),
    ]:
        with pytest.raises(CatalogError) as exc:
            dcat.catalog_from_dict(doc)
        assert str(exc.value) == message


def test_apply_device_overrides():
    cat = dcat.apply_device_overrides(DEFAULT_CATALOG, {"adc16_power_mw": 50.0})
    assert cat.devices.adc16_power_mw == 50.0
    assert DEFAULT_CATALOG.devices.adc16_power_mw == 62.0
    with pytest.raises(CatalogError):
        dcat.apply_device_overrides(DEFAULT_CATALOG, {"nope": 1.0})
