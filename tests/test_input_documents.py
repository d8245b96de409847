"""Every loader either returns a value or raises ``ValueError``, whatever one field holds.

Each shipped input kind gets one field replaced, deleted or added, with an
arbitrary JSON value, at the top level or one level down (a layer, a catalog
section, the search-space constraints).
"""

import hashlib
import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitwave import arch_model as am
from bitwave import device_catalog as dcat
from bitwave import dse
from bitwave import workload_ir as wir

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
# field names of every input kind, so an added field is often one that belongs elsewhere
KNOWN_NAMES = sorted({
    f.name
    for cls in (am.ArchConfig, am.BaselineSpec, dcat.DeviceCatalog, dcat.DeviceParams, dcat.LossModel,
                dse.SearchSpace, dse.SearchConstraints, wir.LayerSpec, wir.WorkloadModel)
    for f in fields(cls)
} | {"weight_bits", "act_bits"})


def full_catalog() -> dict:
    """A catalog document that sets every field of every section."""
    doc = {f.name: getattr(dcat.DEFAULT_CATALOG, f.name) for f in fields(dcat.DeviceCatalog)}
    doc["devices"] = vars(dcat.DEFAULT_CATALOG.devices).copy()
    doc["losses"] = vars(dcat.DEFAULT_CATALOG.losses).copy()
    return doc


def load_baseline(doc: dict, tmp_dir) -> None:
    """The baseline file loader, then the override check ``simulate_baseline`` runs."""
    path = tmp_dir / "baseline.json"
    path.write_text(json.dumps(doc))
    spec = am.load_baseline_spec(path)
    dcat.apply_device_overrides(dcat.DEFAULT_CATALOG, spec.device_overrides)


# kind -> (shipped document, loader, the objects a field may change in)
KINDS = {
    "model": (lambda root: json.loads((root / "models" / "svhn_cnn.json").read_text()),
              lambda doc, _: wir.workload_from_dict(doc),
              lambda doc: [doc, *doc["layers"]]),
    "config": (lambda root: json.loads((root / "configs" / "reference.json").read_text()),
               lambda doc, _: am.arch_config_from_dict(doc), lambda doc: [doc]),
    "baseline": (lambda root: {**json.loads((root / "baselines" / "robin.json").read_text()),
                               "device_overrides": {"adc8_power_mw": 3.1}},
                 load_baseline, lambda doc: [doc, doc["device_overrides"]]),
    "space": (lambda root: json.loads((root / "spaces" / "grid_small.json").read_text()),
              lambda doc, _: dse.search_space_from_dict(doc),
              lambda doc: [doc, doc["constraints"]]),
    "catalog": (lambda root: full_catalog(), lambda doc, _: dcat.catalog_from_dict(doc),
                lambda doc: [doc, doc["devices"], doc["losses"]]),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_loader_returns_or_raises_its_own_error(repo_root, tmp_path_factory, kind, data):
    shipped, load, targets = KINDS[kind]
    doc = shipped(repo_root)
    target = data.draw(st.sampled_from(targets(doc)), label="target")
    op = data.draw(st.sampled_from(["replace", "delete", "add"]), label="op")
    if op == "add" or not target:
        key = data.draw(st.sampled_from(KNOWN_NAMES) | st.text(max_size=6), label="key")
    else:
        key = data.draw(st.sampled_from(sorted(target)), label="key")
    if op == "delete" and key in target:
        del target[key]
    else:
        target[key] = data.draw(JSON_VALUES, label="value")
    try:
        load(doc, tmp_path_factory.getbasetemp())
    except ValueError:
        pass


# every document class read_fields checks, with a valid base document
DOCUMENT_CLASSES = (
    (am.ArchConfig, {"v": 50, "k": 20, "b": 4, "V": 200, "K": 100}),
    (am.BaselineSpec, {"name": "x", "weight_bits": 4, "act_bits": 4}),
    (dse.SearchSpace, {"v": [50], "k": [20], "b": [4], "V": [1], "K": [1]}),
    (dse.SearchConstraints, {}),
    (dcat.DeviceCatalog, {}),
    (dcat.DeviceParams, {}),
    (dcat.LossModel, {}),
    (wir._ModelDoc, {"layers": []}),
    (wir._FcDoc, {"kind": "FC", "in_features": 4, "out_features": 2}),
    (wir._ConvDoc, {"kind": "CONV", "in_channels": 1, "out_channels": 1, "kernel_h": 1, "kernel_w": 1,
                    "in_height": 1, "in_width": 1}),
)
# one value of each JSON type, at and past the edges of each rule read_fields applies
PROBES = (
    None, False, True, 0, 1, -1, 2**1030, -(2**1030), 1.5, -0.0, 1e308, float("nan"), float("inf"),
    "", "FC", "\ud800", "é", [], [1], [1, 2], [1.5], [True], [None], ["x"], [2**1030], {}, {"a": 1},
    # the longest value an error message quotes whole (a 60-character repr), and the number range's ends
    "x" * 58, wir.FLOAT_MAX, -wir.FLOAT_MAX, int(wir.FLOAT_MAX), -int(wir.FLOAT_MAX),
)


def test_read_fields_outcomes_are_pinned():
    """Each field of each document class set to each probe: the value read, or the error's text."""
    lines = []
    for cls, base in DOCUMENT_CLASSES:
        for f in fields(cls):
            for probe in PROBES:
                try:
                    outcome = repr(wir.read_fields({**base, f.name: probe}, cls, "doc")[f.name])
                except ValueError as exc:
                    outcome = f"ValueError: {exc}"
                lines.append(f"{cls.__name__}.{f.name} = {probe!r}: {outcome}")
    assert len(lines) == 2272
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest[:16] == "df9aba73131c6276"
