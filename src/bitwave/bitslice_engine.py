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

The lanes of one step are the fields of one integer (Kronecker
substitution). :func:`slice_vector` packs an operand vector once into an int
whose W-bit field j holds element j, through one little-endian ``struct``
format of standard sizes, so the layout is the same on every host. Slice i
of the whole vector is ``(packed >> (b*i)) & lane_mask``, where
``lane_mask`` holds 2^b - 1 in every field. :func:`execute_dot` packs the
weight vector reversed, so the product of an activation slice and a weight
slice holds the step's photodetector sum, the sum of its n lane products, in
field n-1. The field width W is :func:`field_width`, the smallest power of
two of at least 8 bits that keeps the law

    W >= max(b*ceil(p_a/b), b*ceil(p_w/b), 2b + n.bit_length())

The first two terms keep a shifted slice clear of the next field. The last
holds a sum of n lane products, each below 2^(2b), without a carry into the
next field, so every field of the product is its exact coefficient. With
``MAX_BITS = 16`` the law needs at most 2*16 + 32 = 64 bits for every n below
2^32, so W is 8, 16, 32 or 64 for any vector that can be built, and
:func:`slice_vector` takes those four widths only.

A dot product's trace (:class:`DotTrace`) is its cached schedule plus one
photodetector sum per step; no lane value is kept. :func:`reconstruct` adds
each step sum shifted by the schedule's shift for that step.

Everything here is exact unsigned integer arithmetic; signed operands
are a caller-side mapping concern. All functions are pure: none changes a
value it was given or has returned, so values can be shared freely across
threads.
"""

import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import lshift, ne
from typing import Sequence

from .workload_ir import CONV, FC, ceil_div, check_bits, check_kind


#: struct's standard-size unsigned code for each field width W in bits
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def field_width(p_a: int, p_w: int, b: int, n: int) -> int:
    """The lane field width W of an n-long (p_a, p_w)-bit dot product with b-bit slices.

    W is the smallest power of two of at least 8 bits with
    W >= max(b*ceil(p_a/b), b*ceil(p_w/b), 2b + n.bit_length()): see the module docstring.
    """
    need = max(b * ceil_div(p_a, b), b * ceil_div(p_w, b), 2 * b + n.bit_length())
    return max(8, 1 << (need - 1).bit_length())


def check_operand(values: Sequence[int], p: int, b: int) -> None:
    """Raise ``ValueError`` for a bad ``p`` or ``b``, or naming the first element of ``values`` that is not p-bit."""
    check_bits("p", p)
    check_bits("b", b)
    limit = 1 << p
    if values and not (0 <= min(values) and max(values) < limit):
        value = next(x for x in values if not 0 <= x < limit)
        raise ValueError(f"value {value} out of range for {p}-bit operand")


def slice_vector(values: Sequence[int], p: int, b: int, width: int) -> list[int]:
    """Slice every p-bit element of ``values`` into ceil(p/b) base-2^b digits, one int per slice index.

    Int ``i`` holds slice ``i`` (LSB first) of element ``j`` in its
    ``width``-bit field ``j``. ``width`` is 8, 16, 32 or 64 bits and at least
    b*ceil(p/b), which :func:`field_width` gives for every vector shorter
    than 2^32 (see the module docstring), and the elements have passed
    :func:`check_operand`.
    """
    n = len(values)
    packed = int.from_bytes(struct.pack(f"<{n}{_FIELD_CODES[width]}", *values), "little")
    lane_mask = int.from_bytes(((1 << b) - 1).to_bytes(width // 8, "little") * n, "little")
    return [(packed >> shift) & lane_mask for shift in range(0, b * ceil_div(p, b), b)]


@dataclass(frozen=True)
class TdmSchedule:
    """Ordered time steps of one sliced dot product.

    Each step is (activation_slice_index, weight_slice_index), and
    ``shifts[i]`` is the bit shift applied to step ``i``'s sum. In CONV mode
    the weight index is None: every weight slice is present in a parallel
    lane within the step, and only the activation part of the shift
    appears in ``shifts``.
    """

    steps: tuple[tuple[int, int | None], ...]
    shifts: tuple[int, ...]
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
    check_bits("p_a", p_a)
    check_bits("p_w", p_w)
    check_bits("b", b)
    check_kind("mode", mode)
    na, nw = ceil_div(p_a, b), ceil_div(p_w, b)
    if mode == FC:
        steps = tuple((ai, wi) for ai in range(na) for wi in range(nw))
        shifts = tuple(b * (ai + wi) for ai, wi in steps)
    else:
        steps = tuple((ai, None) for ai in range(na))
        shifts = tuple(b * ai for ai, _ in steps)
    a_index, w_index = zip(*steps)
    return TdmSchedule(steps=steps, shifts=shifts, imprints=(_imprints(a_index), _imprints(w_index)))


class DotTrace:
    """What one sliced dot product produced: its schedule and one sum per step.

    ``step_sums[i]`` is the sum of step ``schedule.steps[i]``, before the
    step's shift ``schedule.shifts[i]``: in CONV mode it already holds every
    weight slice's lane sum times its ladder gain.
    """

    __slots__ = ("schedule", "step_sums")

    def __init__(self, schedule: TdmSchedule, step_sums: tuple[int, ...]):
        self.schedule = schedule
        self.step_sums = step_sums


def execute_dot(
    a: Sequence[int],
    w: Sequence[int],
    p_a: int,
    p_w: int,
    b: int,
    mode: str = FC,
) -> tuple[int, DotTrace]:
    """Run one sliced dot product and return (result, trace).

    The result is the exact integer dot product a dot w; the trace
    reconstructs it as the sum of each step's sum shifted by its shift.
    """
    n = len(a)
    if n != len(w):
        raise ValueError(f"vector lengths differ: {n} vs {len(w)}")
    if not n:  # no element to check, so the schedule's checks of p_a, p_w and b come first
        build_schedule(p_a, p_w, b, mode)
    check_operand(a, p_a, b)
    check_operand(w, p_w, b)
    width = field_width(p_a, p_w, b, n)
    ad = slice_vector(a, p_a, b, width)  # ad[i] = slice i of every element of a, element j in field j
    wd = slice_vector(w[::-1], p_w, b, width)  # element j of w in field n-1-j
    schedule = build_schedule(p_a, p_w, b, mode)
    # one wavelength lane per element pair: field n-1 of a slice product is the photodetector sum
    top, field = width * max(n - 1, 0), (1 << width) - 1  # an empty vector's products are all 0
    if mode == FC:
        step_sums = tuple([(ad[ai] * wd[wi] >> top) & field for ai, wi in schedule.steps])
    else:
        # one lane per weight slice, each lane's sum times its ladder gain 2^(b*k)
        gains = range(0, b * len(wd), b)
        step_sums = tuple([
            sum([((ad[ai] * wk >> top) & field) << g for wk, g in zip(wd, gains)])
            for ai, _ in schedule.steps
        ])
    trace = DotTrace(schedule, step_sums)
    return reconstruct(trace), trace


def reconstruct(trace: DotTrace) -> int:
    """Recombine a trace into the dot-product value: the sum of each step's sum shifted by its shift."""
    return sum(map(lshift, trace.step_sums, trace.schedule.shifts))
