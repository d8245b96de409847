"""Quantized CNN workload descriptions and parameter/MAC/footprint accounting.

A workload is an ordered list of CONV/FC layers, each carrying its own
weight and activation bitwidths (heterogeneous quantization is just a
per-layer choice). Models are immutable values after loading.

A workload file (JSON) is the object ``_ModelDoc`` declares, and each of
its ``layers`` is an ``_FcDoc`` or a ``_ConvDoc``. Per-layer bitwidths win
over the top-level ``weight_bits``/``act_bits``; a scalar top-level value
broadcasts to every layer, and a list must have exactly one entry per layer.
Bias parameters are not counted anywhere.

``read_fields`` checks every input document of the package (workload,
config, baseline, catalog, search space) against the dataclass it fills.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

CONV = "CONV"
FC = "FC"

#: widest operand, slice and converter resolution anywhere in the package
MAX_BITS = 16

#: the shape fields each layer kind requires, and the other kind must leave None
_SHAPE_FIELDS = {
    CONV: ("in_channels", "out_channels", "kernel_h", "kernel_w", "in_height", "in_width"),
    FC: ("in_features", "out_features"),
}


class WorkloadError(ValueError):
    """Validation failure in a workload description."""


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for positive b: the slice count ceil(p/b) and every tiling count."""
    return -(-a // b)


def check_bits(name: str, bits: int, error: type[Exception]) -> None:
    """Raise ``error`` unless ``bits`` is an int (not a bool) in [1, MAX_BITS]."""
    if isinstance(bits, bool) or not isinstance(bits, int) or not 1 <= bits <= MAX_BITS:
        raise error(f"{name} must be an int in [1, {MAX_BITS}], got {bits!r}")


#: the largest finite float; every number an input document holds lies within it
FLOAT_MAX = sys.float_info.max
#: FLOAT_MAX as an int, which an int compares with about twice as fast
_INT_MAX = int(FLOAT_MAX)


def is_finite_number(value) -> bool:
    """True for an int or float (not a bool) within the float range; NaN, infinities and larger ints are not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -FLOAT_MAX <= value <= FLOAT_MAX
    )


#: how a message names each type a field may declare, alone and as the items of a list
_TYPE_NAMES = {
    int: ("an int within the float range", "ints within the float range"),
    float: ("a finite number", "finite numbers"),
    bool: ("a bool", "bools"),
    str: ("a string", "strings"),
    dict: ("a JSON object", "JSON objects"),
    list: ("a list", "lists"),
    type(None): ("null", "nulls"),
}


def _is(tp):
    """The test a JSON value passes as a ``tp``: any finite number for ``float``, an int (not a bool)
    within the float range for ``int``, else exactly a ``tp``."""
    if tp is float:
        return is_finite_number
    if tp is int:
        return lambda v: type(v) is int and -_INT_MAX <= v <= _INT_MAX
    return lambda v: type(v) is tp


@functools.cache
def _field_table(cls) -> tuple[dict, list[str]]:
    """``cls``'s fields as name -> (exact types, [(test, build), ...], description), and its required names.

    A value of one of the exact types is taken as it is, an int only within the
    float range; any other must pass a test. ``build`` is None (keep the value),
    ``tuple`` (a list becomes a tuple) or the dataclass of a nested document.
    Built once per class.
    """
    namespace = vars(sys.modules[cls.__module__])
    table = {}
    for f in fields(cls):
        hint = eval(f.type, namespace)  # typing.get_type_hints would add about 1 ms to each run
        exact, rules, descriptions = set(), [], []
        for tp in get_args(hint) if isinstance(hint, UnionType) else (hint,):
            if get_origin(tp) in (list, tuple):  # list[X] or tuple[X, ...]
                item = get_args(tp)[0]
                test = lambda v, item_test=_is(item): type(v) is list and all(map(item_test, v))
                rules.append((test, tuple if get_origin(tp) is tuple else None))
                descriptions.append(f"a list of {_TYPE_NAMES[item][1]}")
            elif is_dataclass(tp):
                rules.append((_is(dict), tp))
                descriptions.append(_TYPE_NAMES[dict][0])
            elif tp is float:
                rules.append((is_finite_number, None))
                descriptions.append(_TYPE_NAMES[float][0])
            else:
                exact.add(tp)
                descriptions.append(_TYPE_NAMES[tp][0])
        table[f.name] = (frozenset(exact), rules, " or ".join(descriptions))
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    return table, required


def read_fields(doc, cls, what: str, error: type[Exception]) -> dict:
    """Check JSON document ``doc`` against dataclass ``cls``; return its fields as keyword arguments.

    ``doc`` must be an object with no unknown field and every field that has no
    default. Each value must be of its field's type: an ``int`` is an int (not a
    bool) within the float range, a ``float`` any finite number but a bool,
    ``X | None`` also takes null, ``list[X]`` and ``tuple[X, ...]`` take a list
    of X, and a dataclass-typed field is a nested document named after the
    field. Failures raise ``error``; the range rules stay in each class's
    ``__post_init__``.
    """
    table, required = _field_table(cls)
    if not isinstance(doc, dict):
        raise error(f"{what} document must be a JSON object")
    if not doc.keys() <= table.keys():
        raise error(f"unknown {what} fields: {sorted(doc.keys() - table.keys())}")
    for name in required:
        if name not in doc:
            raise error(f"{what} is missing field {name!r}")
    kwargs = dict(doc)
    low, high = -_INT_MAX, _INT_MAX
    for name, value in doc.items():
        exact, rules, description = table[name]
        tp = type(value)
        if tp in exact and (tp is not int or low <= value <= high):
            continue
        for test, build in rules:
            if test(value):
                break
        else:
            raise error(f"{what} field {name!r} must be {description}, got {value!r}")
        if build is tuple:
            kwargs[name] = tuple(value)
        elif build is not None:
            kwargs[name] = build(**read_fields(value, build, name, error))
    return kwargs


@dataclass(frozen=True)
class LayerSpec:
    """One CONV or FC layer; unused kind fields stay None."""

    index: int
    kind: str
    weight_bits: int
    act_bits: int
    in_channels: int | None = None
    out_channels: int | None = None
    kernel_h: int | None = None
    kernel_w: int | None = None
    in_height: int | None = None
    in_width: int | None = None
    stride: int = 1
    padding: int = 0
    in_features: int | None = None
    out_features: int | None = None

    def __post_init__(self) -> None:
        where = f"layer {self.index}"
        if self.kind not in (CONV, FC):
            raise WorkloadError(f"{where}: kind must be CONV or FC, got {self.kind!r}")
        check_bits(f"{where}: weight_bits", self.weight_bits, WorkloadError)
        check_bits(f"{where}: act_bits", self.act_bits, WorkloadError)
        own, other = (CONV, FC) if self.kind == CONV else (FC, CONV)
        missing = [f for f in _SHAPE_FIELDS[own] if getattr(self, f) is None]
        if missing:
            raise WorkloadError(f"{where}: {own} layer missing fields {missing}")
        extra = [f for f in _SHAPE_FIELDS[other] if getattr(self, f) is not None]
        if extra:
            raise WorkloadError(f"{where}: {own} layer must not set {other} fields {extra}")
        for f in _SHAPE_FIELDS[own]:
            if getattr(self, f) <= 0:
                raise WorkloadError(f"{where}: {f} must be positive, got {getattr(self, f)}")
        if self.kind == CONV:
            if self.stride < 1:
                raise WorkloadError(f"{where}: stride must be positive, got {self.stride}")
            if self.padding < 0:
                raise WorkloadError(f"{where}: padding must be non-negative, got {self.padding}")
            oh, ow = layer_out_hw(self)
            if oh < 1 or ow < 1:
                raise WorkloadError(f"{where}: kernel/stride/padding yield empty {oh}x{ow} output")


def layer_out_hw(layer: LayerSpec) -> tuple[int, int]:
    """CONV output spatial dims from input dims, kernel, stride, padding."""
    oh = (layer.in_height + 2 * layer.padding - layer.kernel_h) // layer.stride + 1
    ow = (layer.in_width + 2 * layer.padding - layer.kernel_w) // layer.stride + 1
    return oh, ow


def layer_param_count(layer: LayerSpec) -> int:
    """Weight parameters in one layer (biases excluded)."""
    if layer.kind == CONV:
        return layer.kernel_h * layer.kernel_w * layer.in_channels * layer.out_channels
    return layer.in_features * layer.out_features


def layer_mac_count(layer: LayerSpec) -> int:
    """Multiply-accumulates needed for one inference pass of the layer."""
    if layer.kind == CONV:
        oh, ow = layer_out_hw(layer)
        return oh * ow * layer.out_channels * (layer.kernel_h * layer.kernel_w * layer.in_channels)
    return layer.in_features * layer.out_features


def layer_processed_bits(layer: LayerSpec) -> int:
    """Data bits one inference pass of the layer touches: each MAC reads p_w + p_a bits."""
    return layer_mac_count(layer) * (layer.weight_bits + layer.act_bits)


@dataclass(frozen=True)
class WorkloadModel:
    """A named, validated stack of layers."""

    name: str
    layers: tuple[LayerSpec, ...]
    declared_param_count: int | None = None
    footprint_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.footprint_scale <= 0:
            raise WorkloadError(f"footprint_scale must be positive, got {self.footprint_scale}")
        if self.declared_param_count is not None:
            actual = sum(layer_param_count(l) for l in self.layers)
            if actual != self.declared_param_count:
                raise WorkloadError(
                    f"model {self.name!r}: declared_param_count "
                    f"{self.declared_param_count} != layer-shape total {actual}"
                )


def param_count(model: WorkloadModel) -> int:
    return sum(layer_param_count(l) for l in model.layers)


def mac_count(model: WorkloadModel) -> int:
    return sum(layer_mac_count(l) for l in model.layers)


def weight_footprint_bits(model: WorkloadModel) -> int:
    return sum(layer_param_count(l) * l.weight_bits for l in model.layers)


def footprint_mb(model: WorkloadModel) -> float:
    """Weight storage in MB (2^20 bytes), scaled by the model's calibration."""
    return weight_footprint_bits(model) / 8 / 2**20 * model.footprint_scale


def processed_bits(model: WorkloadModel) -> int:
    """Data bits touched per inference."""
    return sum(layer_processed_bits(l) for l in model.layers)


def with_bits(model: WorkloadModel, weight_bits: int, act_bits: int) -> WorkloadModel:
    """Homogeneous-quantization variant of a model (same shapes)."""
    layers = tuple(replace(l, weight_bits=weight_bits, act_bits=act_bits) for l in model.layers)
    return replace(model, layers=layers)


# -- (de)serialization --------------------------------------------------------


# Schemas for read_fields. Generated methods that nothing calls are skipped and
# each class has a docstring: both would otherwise cost import time.
@dataclass(kw_only=True, repr=False, eq=False)
class _ModelDoc:
    """The top level of a workload file; ``weight_bits``/``act_bits`` apply across layers."""

    layers: list
    name: str = "unnamed"
    declared_param_count: int | None = None
    footprint_scale: float = WorkloadModel.footprint_scale
    weight_bits: int | list[int] | None = None
    act_bits: int | list[int] | None = None


@dataclass(kw_only=True, init=False, repr=False, eq=False)
class _LayerDoc:
    """The fields every layer entry may set; its bitwidths default to the top level's."""

    kind: str
    weight_bits: int | None = None
    act_bits: int | None = None


@dataclass(kw_only=True, init=False, repr=False, eq=False)
class _FcDoc(_LayerDoc):
    """An FC layer entry; FC layers take no stride or padding."""

    in_features: int
    out_features: int


@dataclass(kw_only=True, init=False, repr=False, eq=False)
class _ConvDoc(_LayerDoc):
    """A CONV layer entry."""

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    in_height: int
    in_width: int
    stride: int = 1
    padding: int = 0


def workload_from_dict(doc: dict) -> WorkloadModel:
    top = _ModelDoc(**read_fields(doc, _ModelDoc, "workload", WorkloadError))
    n = len(top.layers)
    top_bits = {}  # field -> one entry per layer, None where the top level is silent
    for field in ("weight_bits", "act_bits"):
        spec = getattr(top, field)
        if isinstance(spec, list) and len(spec) != n:
            raise WorkloadError(f"{field} list has {len(spec)} entries for a {n}-layer model")
        top_bits[field] = spec if isinstance(spec, list) else [spec] * n
    layers = []
    for i, raw in enumerate(top.layers):
        doc_cls = _ConvDoc if isinstance(raw, dict) and raw.get("kind") == CONV else _FcDoc
        entry = read_fields(raw, doc_cls, f"layer {i}", WorkloadError)
        for field, per_layer in top_bits.items():
            if entry.get(field) is None:
                entry[field] = per_layer[i]
            if entry[field] is None:
                raise WorkloadError(f"layer {i}: no {field} given (per layer or top level)")
        layers.append(LayerSpec(index=i, **entry))
    return WorkloadModel(
        name=top.name,
        layers=tuple(layers),
        declared_param_count=top.declared_param_count,
        footprint_scale=top.footprint_scale,
    )


def load_workload(path: str | Path) -> WorkloadModel:
    with open(path, "r", encoding="utf-8") as fh:
        return workload_from_dict(json.load(fh))
