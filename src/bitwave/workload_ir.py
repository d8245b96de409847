"""Quantized CNN workload descriptions and parameter/MAC/footprint accounting.

A workload is an ordered list of CONV/FC layers, each carrying its own
weight and activation bitwidths (heterogeneous quantization is just a
per-layer choice). Models are immutable values after loading.

A workload file (JSON) is the object ``_ModelDoc`` declares, and each of
its ``layers`` is an ``_FcDoc`` or a ``_ConvDoc``. Per-layer bitwidths win
over the top-level ``weight_bits``/``act_bits``; a scalar top-level value
broadcasts to every layer, and a list must have exactly one entry per layer.
Bias parameters are not counted anywhere.

``read_json`` reads every input file of the package (workload, config,
baseline, catalog, search space), and ``read_fields`` checks each document
against the record it fills, taking each type rule from one table, ``_TYPES``.

Every record is a ``typing.NamedTuple``. A record whose values have range
rules is a subclass of its field tuple that checks them in ``__new__``, so
it is built through its constructor: ``_replace`` would skip the checks.
"""

import functools
import json
import operator
import sys
from pathlib import Path
from types import UnionType
from typing import NamedTuple, get_args, get_origin

CONV = "CONV"
FC = "FC"

#: widest operand, slice and converter resolution anywhere in the package
MAX_BITS = 16


class InputFileError(Exception):
    """An input file that is not UTF-8 JSON text with unique keys per object, or nests too deeply to decode."""


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for positive b: the slice count ceil(p/b) and every tiling count."""
    return -(-a // b)


def float_sum(xs) -> float:
    """The floats of ``xs`` added left to right from 0.0.

    Every float total goes through here, so it rounds the same on every
    Python: builtin ``sum`` compensates its rounding from Python 3.12 on.
    """
    return functools.reduce(operator.add, xs, 0.0)


#: how many characters of a value's repr an error message quotes
_BRIEF_CHARS = 60


def brief(value) -> str:
    """``repr(value)`` for an error message, cut to its first 60 characters and its length if longer.

    Every message that quotes a value read from an input goes through here,
    so one enormous field cannot make an enormous error line.
    """
    text = repr(value)
    if len(text) <= _BRIEF_CHARS:
        return text
    return f"{text[:_BRIEF_CHARS]}... ({len(text):,} characters)"


def check_bits(name: str, bits: int) -> None:
    """Raise ``ValueError`` unless ``bits`` is an int (not a bool) in [1, MAX_BITS]."""
    if isinstance(bits, bool) or not isinstance(bits, int) or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"{name} must be an int in [1, {MAX_BITS}], got {brief(bits)}")


def check_kind(where: str, kind) -> None:
    """Raise ``ValueError`` unless layer ``kind`` is CONV or FC."""
    if kind not in (CONV, FC):
        raise ValueError(f"{where}: kind must be CONV or FC, got {brief(kind)}")


def check_unique(what: str, names: list[str], reason: str) -> None:
    """Raise ``ValueError`` quoting the first of ``names`` that repeats."""
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"{what} name {brief(name)} is repeated; {reason}")


#: the largest finite float; every number an input document holds lies within it
FLOAT_MAX = sys.float_info.max
#: FLOAT_MAX as an int, which an int compares with about twice as fast
_INT_MAX = int(FLOAT_MAX)


#: every JSON type a field may declare: its test, and how a message names it alone and as list items;
#: a ``float`` is any int or float (not a bool) within the float range, so NaN and infinities fail
_TYPES = {
    int: (lambda v: type(v) is int and -_INT_MAX <= v <= _INT_MAX,
          "an int within the float range", "ints within the float range"),
    float: (lambda v: type(v) in (int, float) and -FLOAT_MAX <= v <= FLOAT_MAX,
            "a finite number", "finite numbers"),
    bool: (lambda v: type(v) is bool, "a bool", "bools"),
    str: (lambda v: type(v) is str, "a string", "strings"),
    dict: (lambda v: type(v) is dict, "a JSON object", "JSON objects"),
    list: (lambda v: type(v) is list, "a list", "lists"),
    type(None): (lambda v: v is None, "null", "nulls"),
}


@functools.cache
def _field_table(cls) -> tuple[dict, list[str]]:
    """Record ``cls``'s fields as name -> ([(test, build), ...], description), and its required names.

    The fields are ``cls._fields``, their types the annotations of ``cls``'s
    classes (a checked record's field tuple declares them), and a field is
    required unless ``cls._field_defaults`` holds it. Each type a field
    declares (each member of a union) gives one rule, whose test comes from
    ``_TYPES``: ``list[X]`` and ``tuple[X, ...]`` take a list whose items
    pass X's test, and a record takes a JSON object. ``build`` is None (keep
    the value), ``tuple`` (a list becomes a tuple) or the record of a nested
    document. Built once per class.
    """
    types = {}
    for c in reversed(cls.__mro__):
        types.update(vars(c).get("__annotations__", {}))
    table = {}
    for name in cls._fields:
        rules, names, declared = [], [], types[name]
        for tp in get_args(declared) if isinstance(declared, UnionType) else (declared,):
            if get_origin(tp) in (list, tuple):  # list[X] or tuple[X, ...]
                item_test, _, items = _TYPES[get_args(tp)[0]]
                test = lambda v, item_test=item_test: type(v) is list and all(map(item_test, v))
                rules.append((test, tuple if get_origin(tp) is tuple else None))
                names.append(f"a list of {items}")
            else:
                record = hasattr(tp, "_fields")  # a NamedTuple
                test, description, _ = _TYPES[dict if record else tp]
                rules.append((test, tp if record else None))
                names.append(description)
        table[name] = (rules, " or ".join(names))
    required = [name for name in cls._fields if name not in cls._field_defaults]
    return table, required


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key that repeats raises ``ValueError``."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        check_unique("JSON object key", [key for key, _ in pairs], "one of its values would be ignored")
    return doc


#: the decoder of every input file, built once
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def read_json(path: str | Path):
    """The JSON document in file ``path``.

    A file that is not UTF-8, is not JSON, repeats a key within an object,
    holds an integer longer than the interpreter converts
    (``sys.get_int_max_str_digits``) or nests too deeply for the decoder
    raises ``InputFileError`` naming the file. Only the decode is guarded: a
    recursion fault anywhere else is not a file error.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
        if text.startswith("\ufeff"):  # json.loads' own check, which JSONDecoder.decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ValueError as exc:  # malformed JSON, a repeated key, or an int with too many digits
        raise InputFileError(f"{path}: {exc}") from None
    except RecursionError:
        raise InputFileError(f"{path}: JSON nested too deeply to decode") from None


def read_fields(doc, cls, what: str) -> dict:
    """Check JSON document ``doc`` against record ``cls``; return its fields as keyword arguments.

    ``doc`` must be an object with no unknown field and every field that has no
    default. Each value must pass one of its field's rules (``_field_table``),
    whose tests all come from ``_TYPES``: ``X | None`` also takes null,
    ``list[X]`` and ``tuple[X, ...]`` take a list of X, and a record-typed
    field is a nested document named after the field, built through its
    constructor. A string must also encode as UTF-8. Failures raise
    ``ValueError``; the range rules stay in each record's ``__new__``.
    """
    table, required = _field_table(cls)
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    if not doc.keys() <= table.keys():
        raise ValueError(f"unknown {what} fields: {brief(sorted(doc.keys() - table.keys()))}")
    for name in required:
        if name not in doc:
            raise ValueError(f"{what} is missing field {name!r}")
    kwargs = dict(doc)
    for name, value in doc.items():
        rules, description = table[name]
        for test, build in rules:
            if test(value):
                break
        else:
            raise ValueError(f"{what} field {name!r} must be {description}, got {brief(value)}")
        if build is tuple:
            kwargs[name] = tuple(value)
        elif build is not None:
            kwargs[name] = build(**read_fields(value, build, name))
        elif type(value) is str and not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:  # a lone surrogate, which a JSON escape such as "\ud800" makes
                raise ValueError(f"{what} field {name!r} must be Unicode text, got {brief(value)}") from None
    return kwargs


class _LayerFields(NamedTuple):
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


class LayerSpec(_LayerFields):
    """One CONV or FC layer; unused kind fields stay None."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        where = f"layer {self.index}"
        check_kind(where, self.kind)
        check_bits(f"{where}: weight_bits", self.weight_bits)
        check_bits(f"{where}: act_bits", self.act_bits)
        own, other = (CONV, FC) if self.kind == CONV else (FC, CONV)
        missing = [f for f in _SHAPE_FIELDS[own] if getattr(self, f) is None]
        if missing:
            raise ValueError(f"{where}: {own} layer missing fields {missing}")
        extra = [f for f in _SHAPE_FIELDS[other] if getattr(self, f) is not None]
        if extra:
            raise ValueError(f"{where}: {own} layer must not set {other} fields {extra}")
        for f in _SHAPE_FIELDS[own]:
            if getattr(self, f) <= 0:
                raise ValueError(f"{where}: {f} must be positive, got {brief(getattr(self, f))}")
        if self.kind == CONV:
            if self.stride < 1:
                raise ValueError(f"{where}: stride must be positive, got {brief(self.stride)}")
            if self.padding < 0:
                raise ValueError(f"{where}: padding must be non-negative, got {brief(self.padding)}")
            oh, ow = layer_out_hw(self)
            if oh < 1 or ow < 1:
                raise ValueError(f"{where}: kernel/stride/padding yield empty {oh}x{ow} output")
        return self


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


class _ModelFields(NamedTuple):
    name: str
    layers: tuple[LayerSpec, ...]
    declared_param_count: int | None = None


class WorkloadModel(_ModelFields):
    """A named, validated stack of layers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.declared_param_count is not None:
            actual = param_count(self)
            if actual != self.declared_param_count:
                raise ValueError(
                    f"model {brief(self.name)}: declared_param_count "
                    f"{brief(self.declared_param_count)} != layer-shape total {actual}"
                )
        return self


def param_count(model: WorkloadModel) -> int:
    return sum(layer_param_count(l) for l in model.layers)


def mac_count(model: WorkloadModel) -> int:
    return sum(layer_mac_count(l) for l in model.layers)


def weight_footprint_bits(model: WorkloadModel) -> int:
    return sum(layer_param_count(l) * l.weight_bits for l in model.layers)


def processed_bits(model: WorkloadModel) -> int:
    """Data bits touched per inference."""
    return sum(layer_processed_bits(l) for l in model.layers)


def with_bits(model: WorkloadModel, weight_bits: int, act_bits: int) -> WorkloadModel:
    """Homogeneous-quantization variant of a model (same shapes), built through the checking constructors.

    The layer tuple is built from a list, as ``arch_model.kind_runs`` builds its runs.
    """
    bits = {"weight_bits": weight_bits, "act_bits": act_bits}
    layers = tuple([LayerSpec(**{**l._asdict(), **bits}) for l in model.layers])
    return WorkloadModel(**{**model._asdict(), "layers": layers})


# -- (de)serialization --------------------------------------------------------


# Schemas for read_fields; only _ModelDoc is built.
class _ModelDoc(NamedTuple):
    """The top level of a workload file; ``weight_bits``/``act_bits`` apply across layers."""

    layers: list
    name: str = "unnamed"
    declared_param_count: int | None = None
    weight_bits: int | list[int] | None = None
    act_bits: int | list[int] | None = None


# Each layer entry may set its bitwidths, which default to the top level's.
class _FcDoc(NamedTuple):
    """An FC layer entry; FC layers take no stride or padding."""

    kind: str
    in_features: int
    out_features: int
    weight_bits: int | None = None
    act_bits: int | None = None


class _ConvDoc(NamedTuple):
    """A CONV layer entry."""

    kind: str
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    in_height: int
    in_width: int
    weight_bits: int | None = None
    act_bits: int | None = None
    stride: int = LayerSpec._field_defaults["stride"]
    padding: int = LayerSpec._field_defaults["padding"]


#: each layer kind's document
_LAYER_DOCS = {CONV: _ConvDoc, FC: _FcDoc}
#: the shape fields each layer kind requires, and the other kind must leave None
_SHAPE_FIELDS = {
    kind: tuple(name for name in doc._fields if name not in doc._field_defaults and name != "kind")
    for kind, doc in _LAYER_DOCS.items()
}


def workload_from_dict(doc: dict) -> WorkloadModel:
    top = _ModelDoc(**read_fields(doc, _ModelDoc, "workload"))
    n = len(top.layers)
    top_bits = {}  # field -> one entry per layer, None where the top level is silent
    for field in ("weight_bits", "act_bits"):
        spec = getattr(top, field)
        if isinstance(spec, list) and len(spec) != n:
            raise ValueError(f"{field} list has {len(spec)} entries for a {n}-layer model")
        top_bits[field] = spec if isinstance(spec, list) else [spec] * n
    layers = []
    for i, raw in enumerate(top.layers):
        if isinstance(raw, dict) and "kind" not in raw:
            raise ValueError(f"layer {i} is missing field 'kind'")
        kind = raw["kind"] if isinstance(raw, dict) else FC
        check_kind(f"layer {i}", kind)
        entry = read_fields(raw, _LAYER_DOCS[kind], f"layer {i}")
        for field, per_layer in top_bits.items():
            if entry.get(field) is None:
                entry[field] = per_layer[i]
            if entry[field] is None:
                raise ValueError(f"layer {i}: no {field} given (per layer or top level)")
        layers.append(LayerSpec(index=i, **entry))
    return WorkloadModel(
        name=top.name,
        layers=tuple(layers),
        declared_param_count=top.declared_param_count,
    )


def load_workload(path: str | Path) -> WorkloadModel:
    return workload_from_dict(read_json(path))
