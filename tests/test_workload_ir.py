import random
from dataclasses import replace

import pytest

from bitwave import workload_ir as wir


def fc_layer(i, nin, nout, wb=8, ab=8):
    return wir.LayerSpec(index=i, kind=wir.FC, in_features=nin, out_features=nout,
                         weight_bits=wb, act_bits=ab)


def conv_layer(i, cin, cout, k=3, h=8, w=8, stride=1, padding=0, wb=8, ab=8):
    return wir.LayerSpec(index=i, kind=wir.CONV, in_channels=cin, out_channels=cout,
                         kernel_h=k, kernel_w=k, in_height=h, in_width=w,
                         stride=stride, padding=padding, weight_bits=wb, act_bits=ab)


def test_param_count_fc():
    m = wir.WorkloadModel(name="m", layers=(fc_layer(0, 100, 200),))
    assert wir.param_count(m) == 20_000


def test_param_count_conv():
    m = wir.WorkloadModel(name="m", layers=(conv_layer(0, 16, 32),))
    assert wir.param_count(m) == 4_608


def test_mac_count_fc():
    m = wir.WorkloadModel(name="m", layers=(fc_layer(0, 3, 4),))
    assert wir.mac_count(m) == 12


def test_mac_count_conv_hand_enumerated():
    # 3x3 kernel over a 4x4 input, stride 1, no padding: 2x2 positions * 9
    m = wir.WorkloadModel(name="m", layers=(conv_layer(0, 1, 1, k=3, h=4, w=4),))
    assert wir.mac_count(m) == 36


def test_mac_count_conv_stride_padding():
    layer = conv_layer(0, 3, 8, k=3, h=32, w=32, stride=2, padding=1)
    assert wir.layer_out_hw(layer) == (16, 16)
    assert wir.layer_mac_count(layer) == 16 * 16 * 8 * (9 * 3)


def test_empty_model_counts_are_zero():
    m = wir.WorkloadModel(name="empty", layers=())
    assert wir.param_count(m) == 0
    assert wir.mac_count(m) == 0
    assert wir.weight_footprint_bits(m) == 0
    assert wir.processed_bits(m) == 0


def test_footprint_single_layer():
    m = wir.WorkloadModel(name="m", layers=(fc_layer(0, 10, 10, wb=4),))
    assert wir.weight_footprint_bits(m) == 400


def test_footprint_ratio_matches_bitwidths_exactly():
    rng = random.Random(3)
    layers = tuple(
        fc_layer(i, rng.randint(1, 300), rng.randint(1, 300)) for i in range(5)
    )
    m = wir.WorkloadModel(name="m", layers=layers)
    for q1, q2 in ((16, 4), (16, 1), (8, 2), (12, 3)):
        b1 = wir.weight_footprint_bits(wir.with_bits(m, q1, q1))
        b2 = wir.weight_footprint_bits(wir.with_bits(m, q2, q2))
        assert b1 * q2 == b2 * q1  # exact integer identity


def test_footprint_mb_uses_scale():
    m = wir.WorkloadModel(
        name="m", layers=(fc_layer(0, 1024, 1024, wb=8),), footprint_scale=2.0
    )
    assert wir.footprint_mb(m) == pytest.approx(2.0 * 1024 * 1024 * 8 / 8 / 2**20)


def test_counts_permutation_invariant_and_additive():
    a = [conv_layer(0, 4, 8), fc_layer(1, 64, 32), conv_layer(2, 8, 8, k=5, h=16, w=16)]
    m = wir.WorkloadModel(name="m", layers=tuple(a))
    perm = [a[2], a[0], a[1]]
    mp = wir.WorkloadModel(name="p", layers=tuple(
        replace(l, index=i) for i, l in enumerate(perm)
    ))
    assert wir.param_count(m) == wir.param_count(mp)
    assert wir.mac_count(m) == wir.mac_count(mp)
    head = wir.WorkloadModel(name="h", layers=tuple(a[:2]))
    tail = wir.WorkloadModel(name="t", layers=(replace(a[2], index=0),))
    assert wir.param_count(m) == wir.param_count(head) + wir.param_count(tail)
    assert wir.mac_count(m) == wir.mac_count(head) + wir.mac_count(tail)


def test_bit_list_length_mismatch_is_an_error(tmp_path):
    doc = {
        "name": "bad",
        "weight_bits": [4, 4, 4, 4, 4, 4],  # six entries for seven layers
        "act_bits": 4,
        "layers": [{"kind": "FC", "in_features": 4, "out_features": 4} for _ in range(7)],
    }
    with pytest.raises(wir.WorkloadError, match="6 entries for a 7-layer"):
        wir.workload_from_dict(doc)


def test_scalar_bits_broadcast():
    doc = {
        "name": "ok",
        "weight_bits": 4,
        "act_bits": 6,
        "layers": [{"kind": "FC", "in_features": 4, "out_features": 4} for _ in range(3)],
    }
    m = wir.workload_from_dict(doc)
    assert all(l.weight_bits == 4 and l.act_bits == 6 for l in m.layers)


def test_per_layer_bits_win_over_top_level():
    doc = {
        "name": "ok",
        "weight_bits": 4,
        "act_bits": 4,
        "layers": [
            {"kind": "FC", "in_features": 4, "out_features": 4, "weight_bits": 8},
            {"kind": "FC", "in_features": 4, "out_features": 4},
        ],
    }
    m = wir.workload_from_dict(doc)
    assert m.layers[0].weight_bits == 8
    assert m.layers[1].weight_bits == 4


def test_declared_param_count_mismatch_rejected():
    with pytest.raises(wir.WorkloadError, match="declared_param_count"):
        wir.WorkloadModel(name="m", layers=(fc_layer(0, 10, 10),), declared_param_count=99)


def test_kind_field_mixups_rejected():
    with pytest.raises(wir.WorkloadError, match="layer 0.*FC fields"):
        wir.LayerSpec(index=0, kind=wir.CONV, in_channels=3, out_channels=8,
                      kernel_h=3, kernel_w=3, in_height=8, in_width=8,
                      in_features=10, weight_bits=4, act_bits=4)
    with pytest.raises(wir.WorkloadError, match="layer 1.*missing"):
        wir.LayerSpec(index=1, kind=wir.CONV, in_channels=3, weight_bits=4, act_bits=4)
    with pytest.raises(wir.WorkloadError, match="layer 2.*CONV fields"):
        wir.LayerSpec(index=2, kind=wir.FC, in_features=4, out_features=4,
                      kernel_h=3, weight_bits=4, act_bits=4)


def test_bits_out_of_range_rejected():
    for bad in (0, 17, -2):
        with pytest.raises(wir.WorkloadError, match="weight_bits"):
            fc_layer(0, 4, 4, wb=bad)


def test_nonpositive_dims_rejected():
    with pytest.raises(wir.WorkloadError, match="layer 0"):
        fc_layer(0, 0, 4)
    with pytest.raises(wir.WorkloadError, match="stride"):
        conv_layer(0, 3, 8, stride=0)


def test_unknown_layer_fields_rejected():
    doc = {"name": "x", "layers": [{"kind": "FC", "in_features": 1, "out_features": 1,
                                    "weight_bits": 4, "act_bits": 4, "bias": True}]}
    with pytest.raises(wir.WorkloadError, match="layer 0.*bias"):
        wir.workload_from_dict(doc)


def test_int_beyond_float_range_rejected_without_declared_param_count():
    doc = {"name": "x", "layers": [{"kind": "FC", "in_features": 10**400, "out_features": 1,
                                    "weight_bits": 4, "act_bits": 4}]}
    with pytest.raises(wir.WorkloadError, match=r"^layer 0 field 'in_features' must be an int within the float range"):
        wir.workload_from_dict(doc)
    doc["layers"][0]["in_features"] = -(10**400)
    with pytest.raises(wir.WorkloadError, match="'in_features'"):
        wir.workload_from_dict(doc)
    doc["layers"][0]["in_features"] = int(wir.FLOAT_MAX)  # the bound itself is in range
    assert wir.workload_from_dict(doc).layers[0].in_features == int(wir.FLOAT_MAX)


def test_parse_error_on_malformed_document():
    with pytest.raises(wir.WorkloadError, match="layers"):
        wir.workload_from_dict({"name": "nope"})


# -- shipped profiles ----------------------------------------------------------


@pytest.mark.parametrize(
    "name,layers,params",
    [("alexnet", 7, 38_413_156), ("resnet20", 20, 271_786), ("svhn_cnn", 7, 552_362)],
)
def test_shipped_profiles(model_paths, name, layers, params):
    m = wir.load_workload(model_paths[name])
    assert len(m.layers) == layers
    assert wir.param_count(m) == params
    assert m.declared_param_count == params


def test_shipped_alexnet_bitwidths(model_paths):
    m = wir.load_workload(model_paths["alexnet"])
    assert [l.weight_bits for l in m.layers] == [6, 6, 4, 4, 4, 4, 4]
    assert [l.act_bits for l in m.layers] == [6, 6, 4, 4, 4, 4, 4]


def test_shipped_resnet20_bitwidths(model_paths):
    m = wir.load_workload(model_paths["resnet20"])
    # first layer 2-bit, the rest 4-bit weights
    assert m.layers[0].weight_bits == 2
    assert all(l.weight_bits == 4 for l in m.layers[1:])
    # classifier inherits the final published activation width
    assert m.layers[-1].act_bits == m.layers[-2].act_bits == 8


def test_shipped_quantization_variants(repo_root):
    for name in ("alexnet", "resnet20", "svhn_cnn"):
        for suffix, (wb, ab) in (("w16a16", (16, 16)), ("w4a4", (4, 4)),
                                 ("w1a1", (1, 1)), ("w1a4", (1, 4))):
            m = wir.load_workload(repo_root / "models" / f"{name}_{suffix}.json")
            assert all(l.weight_bits == wb and l.act_bits == ab for l in m.layers)


def test_bit_range_check_raises_each_callers_error():
    from bitwave import arch_model as am
    from bitwave import bitslice_engine as bse
    from bitwave.device_catalog import DEFAULT_CATALOG, CatalogError

    sites = [
        (wir.WorkloadError, lambda bits: fc_layer(0, 2, 2, wb=bits)),
        (am.ConfigError, lambda bits: am.ArchConfig(v=2, k=2, b=bits, V=1, K=1)),
        (am.ConfigError, lambda bits: am.BaselineSpec(name="x", weight_bits=4, act_bits=bits)),
        (am.ConfigError, lambda bits: am.fc_time_steps(8, 8, bits)),
        (CatalogError, lambda bits: DEFAULT_CATALOG.adc_power(bits)),
        (ValueError, lambda bits: bse.build_schedule(8, 8, bits)),
    ]
    # a bool is an int to Python, but True is not a bitwidth
    for bad in (0, wir.MAX_BITS + 1, True):
        for error, call in sites:
            with pytest.raises(error, match=rf"must be an int in \[1, 16\], got {bad!r}$"):
                call(bad)
    with pytest.raises(wir.WorkloadError, match="weight_bits"):
        fc_layer(0, 2, 2, wb=4.0)


def test_profile_tool_reproduces_shipped_models(repo_root, tmp_path, capsys):
    import importlib.util

    spec = importlib.util.spec_from_file_location("make_model_profiles", repo_root / "tools" / "make_model_profiles.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.OUT = tmp_path
    tool.main()
    capsys.readouterr()
    shipped = sorted((repo_root / "models").glob("*.json"))
    assert len(shipped) == 15
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in shipped]
    for path in shipped:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
