"""Quantized CNN workload descriptions and parameter/MAC/footprint accounting.

A workload is an ordered list of CONV/FC layers, each carrying its own
weight and activation bitwidths (heterogeneous quantization is just a
per-layer choice). Models are immutable values after loading.

Workload file schema (JSON):

    {
      "name": "...",
      "footprint_scale": 1.0,            // optional, default 1.0
      "declared_param_count": 123,       // optional cross-check, exact
      "weight_bits": [..] | int,         // optional, applied across layers
      "act_bits": [..] | int,            // optional, applied across layers
      "layers": [
        {"kind": "CONV", "in_channels": .., "out_channels": ..,
         "kernel_h": .., "kernel_w": .., "in_height": .., "in_width": ..,
         "stride": .., "padding": .., "weight_bits": .., "act_bits": ..},
        {"kind": "FC", "in_features": .., "out_features": ..,
         "weight_bits": .., "act_bits": ..}
      ]
    }

Per-layer bitwidths win over the top-level lists; a scalar top-level
value broadcasts to every layer, and a list must have exactly one entry
per layer. Bias parameters are not counted anywhere.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

CONV = "CONV"
FC = "FC"

#: widest operand, slice and converter resolution anywhere in the package
MAX_BITS = 16

_CONV_FIELDS = ("in_channels", "out_channels", "kernel_h", "kernel_w", "in_height", "in_width")
_FC_FIELDS = ("in_features", "out_features")


class WorkloadError(ValueError):
    """Validation failure in a workload description."""


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for positive b: the slice count ceil(p/b) and every tiling count."""
    return -(-a // b)


def check_bits(name: str, bits: int, error: type[Exception]) -> None:
    """Raise ``error`` unless ``bits`` is an int in [1, MAX_BITS]."""
    if not isinstance(bits, int) or not 1 <= bits <= MAX_BITS:
        raise error(f"{name} must be an int in [1, {MAX_BITS}], got {bits!r}")


def is_finite_number(value) -> bool:
    """True for an int or float (not a bool) within the float range; NaN, infinities and larger ints are not."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


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
        if self.kind == CONV:
            missing = [f for f in _CONV_FIELDS if getattr(self, f) is None]
            if missing:
                raise WorkloadError(f"{where}: CONV layer missing fields {missing}")
            extra = [f for f in _FC_FIELDS if getattr(self, f) is not None]
            if extra:
                raise WorkloadError(f"{where}: CONV layer must not set FC fields {extra}")
            for f in _CONV_FIELDS:
                if getattr(self, f) <= 0:
                    raise WorkloadError(f"{where}: {f} must be positive, got {getattr(self, f)}")
            if self.stride < 1:
                raise WorkloadError(f"{where}: stride must be positive, got {self.stride}")
            if self.padding < 0:
                raise WorkloadError(f"{where}: padding must be non-negative, got {self.padding}")
            oh, ow = layer_out_hw(self)
            if oh < 1 or ow < 1:
                raise WorkloadError(f"{where}: kernel/stride/padding yield empty {oh}x{ow} output")
        else:
            missing = [f for f in _FC_FIELDS if getattr(self, f) is None]
            if missing:
                raise WorkloadError(f"{where}: FC layer missing fields {missing}")
            extra = [f for f in _CONV_FIELDS if getattr(self, f) is not None]
            if extra:
                raise WorkloadError(f"{where}: FC layer must not set CONV fields {extra}")
            for f in _FC_FIELDS:
                if getattr(self, f) <= 0:
                    raise WorkloadError(f"{where}: {f} must be positive, got {getattr(self, f)}")


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
    """Data bits touched per inference: sum over MACs of (p_w + p_a)."""
    return sum(layer_mac_count(l) * (l.weight_bits + l.act_bits) for l in model.layers)


def with_bits(model: WorkloadModel, weight_bits: int, act_bits: int) -> WorkloadModel:
    """Homogeneous-quantization variant of a model (same shapes)."""
    layers = tuple(replace(l, weight_bits=weight_bits, act_bits=act_bits) for l in model.layers)
    return WorkloadModel(
        name=model.name,
        layers=layers,
        declared_param_count=model.declared_param_count,
        footprint_scale=model.footprint_scale,
    )


# -- (de)serialization --------------------------------------------------------


def _resolve_bits(doc: dict, n_layers: int, field: str) -> list[int | None]:
    """Expand a top-level bitwidth spec (scalar or list) to one entry per layer."""
    spec = doc.get(field)
    if spec is None:
        return [None] * n_layers
    if isinstance(spec, int):
        return [spec] * n_layers
    if isinstance(spec, list):
        if len(spec) != n_layers:
            raise WorkloadError(
                f"{field} list has {len(spec)} entries for a {n_layers}-layer model"
            )
        return list(spec)
    raise WorkloadError(f"{field} must be an int or a list of ints")


def workload_from_dict(doc: dict) -> WorkloadModel:
    if not isinstance(doc, dict):
        raise WorkloadError("workload document must be a JSON object")
    if "layers" not in doc or not isinstance(doc["layers"], list):
        raise WorkloadError("workload document needs a 'layers' list")
    name = doc.get("name", "unnamed")
    raw_layers = doc["layers"]
    wbits = _resolve_bits(doc, len(raw_layers), "weight_bits")
    abits = _resolve_bits(doc, len(raw_layers), "act_bits")

    known = {
        "kind", "weight_bits", "act_bits", "stride", "padding",
        *_CONV_FIELDS, *_FC_FIELDS,
    }
    layers = []
    for i, raw in enumerate(raw_layers):
        if not isinstance(raw, dict):
            raise WorkloadError(f"layer {i}: entry must be an object")
        unknown = set(raw) - known
        if unknown:
            raise WorkloadError(f"layer {i}: unknown fields {sorted(unknown)}")
        wb = raw.get("weight_bits", wbits[i])
        ab = raw.get("act_bits", abits[i])
        if wb is None:
            raise WorkloadError(f"layer {i}: no weight_bits given (per layer or top level)")
        if ab is None:
            raise WorkloadError(f"layer {i}: no act_bits given (per layer or top level)")
        fields = {k: v for k, v in raw.items() if k not in ("weight_bits", "act_bits")}
        layers.append(LayerSpec(index=i, weight_bits=wb, act_bits=ab, **fields))

    return WorkloadModel(
        name=name,
        layers=tuple(layers),
        declared_param_count=doc.get("declared_param_count"),
        footprint_scale=doc.get("footprint_scale", 1.0),
    )


def workload_to_dict(model: WorkloadModel) -> dict:
    """Canonical document form; bitwidths are written per layer."""
    layers = []
    for l in model.layers:
        entry: dict = {"kind": l.kind}
        if l.kind == CONV:
            for f in _CONV_FIELDS:
                entry[f] = getattr(l, f)
            entry["stride"] = l.stride
            entry["padding"] = l.padding
        else:
            for f in _FC_FIELDS:
                entry[f] = getattr(l, f)
        entry["weight_bits"] = l.weight_bits
        entry["act_bits"] = l.act_bits
        layers.append(entry)
    doc: dict = {"name": model.name, "footprint_scale": model.footprint_scale, "layers": layers}
    if model.declared_param_count is not None:
        doc["declared_param_count"] = model.declared_param_count
    return doc


def load_workload(path: str | Path) -> WorkloadModel:
    with open(path, "r", encoding="utf-8") as fh:
        return workload_from_dict(json.load(fh))


def save_workload(model: WorkloadModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
