"""Bit-accurate simulation of time-multiplexed bit-slice dot products.

A p-bit unsigned operand is decomposed into ceil(p/b) base-2^b digits
("slices", least significant first). A dot product between two sliced
vectors then runs as a sequence of time steps: each step multiplies one
slice of every element pair on its own wavelength lane, sums the lane
products (the photodetector sum), and contributes that sum - shifted by
the slice weights - to the final result.

Two step layouts are supported:

* ``FC``   one (activation-slice, weight-slice) pair per step. The
  activation slice is held stationary while the weight slices cycle,
  and shift-and-add happens digitally after each step.
* ``CONV`` all weight slices sit in parallel lanes simultaneously and
  only the activation slices advance with time; the per-lane sums are
  combined through a gain ladder (one amplifier per weight-slice lane,
  gain 2^(b*k)) before a single conversion. :func:`execute_dot` models
  the ladder exactly as the lane shift ``<< (b * k)``.

An operand vector is sliced once, per slice index rather than per element:
:func:`slice_vector` returns ``digits[i][j]``, slice ``i`` of element ``j``,
so the lanes of one step are the elementwise product of two digit lists.

Everything here is exact unsigned integer arithmetic; signed operands
are a caller-side mapping concern. All functions are pure and every
container immutable, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul, ne
from typing import NamedTuple, Sequence

from .workload_ir import CONV, FC, ceil_div, check_bits


class OperandRangeError(ValueError):
    """An operand does not fit its declared bitwidth."""


def _check_mode(mode: str) -> None:
    if mode not in (FC, CONV):
        raise ValueError(f"mode must be {FC!r} or {CONV!r}, got {mode!r}")


def slice_vector(values: Sequence[int], p: int, b: int) -> list[list[int]]:
    """Slice every p-bit element of ``values`` into ceil(p/b) base-2^b digits.

    The digits come back transposed: ``digits[i][j]`` is slice ``i`` (LSB
    first) of element ``j``, so one slice index of the whole vector is one
    list. The first element out of range raises :class:`OperandRangeError`.
    """
    check_bits("p", p, ValueError)
    check_bits("b", b, ValueError)
    limit = 1 << p
    if values and not (0 <= min(values) and max(values) < limit):
        value = next(x for x in values if not 0 <= x < limit)
        raise OperandRangeError(f"value {value} out of range for {p}-bit operand")
    mask = (1 << b) - 1
    shifts = [b * i for i in range(ceil_div(p, b))]
    return [[(x >> s) & mask for x in values] for s in shifts]


@dataclass(frozen=True)
class TdmSchedule:
    """Ordered time steps of one sliced dot product.

    Each step is (activation_slice_index, weight_slice_index, shift_bits).
    In CONV mode the weight index is None: every weight slice is present
    in a parallel lane within the step, and only the activation part of
    the shift appears here.
    """

    mode: str
    steps: tuple[tuple[int, int | None, int], ...]
    imprints: tuple[int, int]  # (activation, weight) imprint events, see _imprints

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def _imprints(indices: tuple) -> int:
    """One imprint at each step whose slice index differs from the step before, counting the first."""
    return 1 + sum(map(ne, indices, indices[1:]))


@lru_cache(maxsize=None, typed=True)
def build_schedule(p_a: int, p_w: int, b: int, mode: str = FC) -> TdmSchedule:
    """Step schedule for a (p_a, p_w)-bit dot product with b-bit slices.

    FC ordering keeps the activation slice stationary across consecutive
    weight slices: (0,0), (0,1), ..., (1,0), (1,1), ... The order depends
    on the slice counts ceil(p_a/b) and ceil(p_w/b) only.

    The schedule is cached per argument tuple. Only valid arguments reach
    the cache (an exception is never cached, and ``typed`` keeps ``True``
    apart from ``1``), so it holds at most 16 * 16 * 16 * 2 schedules per
    way of passing the arguments, and bad arguments raise on every call.
    """
    check_bits("p_a", p_a, ValueError)
    check_bits("p_w", p_w, ValueError)
    check_bits("b", b, ValueError)
    _check_mode(mode)
    na, nw = ceil_div(p_a, b), ceil_div(p_w, b)
    if mode == FC:
        steps = tuple(
            (ai, wi, b * (ai + wi)) for ai in range(na) for wi in range(nw)
        )
    else:
        steps = tuple((ai, None, b * ai) for ai in range(na))
    a_index, w_index, _ = zip(*steps)
    return TdmSchedule(mode=mode, steps=steps, imprints=(_imprints(a_index), _imprints(w_index)))


class StepTrace(NamedTuple):
    """What one time step produced.

    ``lane_partials`` are the per-lane contributions whose sum is
    ``step_sum``: per-wavelength products in FC mode, per-weight-slice
    lane sums (after the lane's power-of-two gain) in CONV mode.
    ``step_sum`` is the summed value before the step shift is applied.
    """

    step_index: int
    a_slice_index: int
    w_slice_index: int | None
    lane_partials: tuple[int, ...]
    step_sum: int
    shift_bits: int


def execute_dot(
    a: Sequence[int],
    w: Sequence[int],
    p_a: int,
    p_w: int,
    b: int,
    mode: str = FC,
) -> tuple[int, list[StepTrace]]:
    """Run one sliced dot product and return (result, per-step trace).

    The result is the exact integer dot product a dot w; the trace
    reconstructs it as sum(step_sum << shift_bits).
    """
    if len(a) != len(w):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(w)}")
    if not a:  # no element to check, so the schedule's checks of p_a, p_w and b come first
        build_schedule(p_a, p_w, b, mode)
    ad = slice_vector(a, p_a, b)  # ad[i][j] = slice i of element j
    wd = slice_vector(w, p_w, b)
    steps = build_schedule(p_a, p_w, b, mode).steps
    if mode == FC:
        step_lanes = [tuple(map(mul, ad[ai], wd[wi])) for ai, wi, _ in steps]
    else:
        # one lane per weight slice: photodetector sum times ladder gain
        step_lanes = [
            tuple(sum(map(mul, ad[ai], wk)) << (b * k) for k, wk in enumerate(wd))
            for ai, _, _ in steps
        ]

    trace: list[StepTrace] = []
    result = 0
    for idx, ((ai, wi, shift), lanes) in enumerate(zip(steps, step_lanes)):
        step_sum = sum(lanes)
        trace.append(StepTrace(idx, ai, wi, lanes, step_sum, shift))
        result += step_sum << shift
    return result, trace


def reconstruct(trace: Sequence[StepTrace]) -> int:
    """Recombine a step trace into the dot-product value: sum(step_sum << shift_bits)."""
    return sum(st.step_sum << st.shift_bits for st in trace)
