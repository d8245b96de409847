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

A dot product's trace (:class:`DotTrace`) is its cached schedule plus one
photodetector sum per step; the lane values are summed as they are made and
not kept. :func:`reconstruct` adds each step sum shifted by the schedule's
shift for that step.

Everything here is exact unsigned integer arithmetic; signed operands
are a caller-side mapping concern. All functions are pure: none changes a
value it was given or has returned, so values can be shared freely across
threads.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import lshift, mul, ne
from typing import Sequence

from .workload_ir import CONV, FC, ceil_div, check_bits


def _check_mode(mode: str) -> None:
    if mode not in (FC, CONV):
        raise ValueError(f"mode must be {FC!r} or {CONV!r}, got {mode!r}")


def slice_vector(values: Sequence[int], p: int, b: int) -> list[list[int]]:
    """Slice every p-bit element of ``values`` into ceil(p/b) base-2^b digits.

    The digits come back transposed: ``digits[i][j]`` is slice ``i`` (LSB
    first) of element ``j``, so one slice index of the whole vector is one
    list. The first element out of range raises ``ValueError``.
    """
    check_bits("p", p)
    check_bits("b", b)
    limit = 1 << p
    if values and not (0 <= min(values) and max(values) < limit):
        value = next(x for x in values if not 0 <= x < limit)
        raise ValueError(f"value {value} out of range for {p}-bit operand")
    mask = (1 << b) - 1
    shifts = [b * i for i in range(ceil_div(p, b))]
    return [[(x >> s) & mask for x in values] for s in shifts]


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
    _check_mode(mode)
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
    if len(a) != len(w):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(w)}")
    if not a:  # no element to check, so the schedule's checks of p_a, p_w and b come first
        build_schedule(p_a, p_w, b, mode)
    ad = slice_vector(a, p_a, b)  # ad[i][j] = slice i of element j
    wd = slice_vector(w, p_w, b)
    schedule = build_schedule(p_a, p_w, b, mode)
    if mode == FC:
        # one wavelength lane per element pair; the photodetector sums the lanes
        step_sums = tuple([sum(map(mul, ad[ai], wd[wi])) for ai, wi in schedule.steps])
    else:
        # one lane per weight slice, each lane's sum times its ladder gain 2^(b*k)
        gains = range(0, b * len(wd), b)
        step_sums = tuple([
            sum([sum(map(mul, ad[ai], wk)) << g for wk, g in zip(wd, gains)])
            for ai, _ in schedule.steps
        ])
    trace = DotTrace(schedule, step_sums)
    return reconstruct(trace), trace


def reconstruct(trace: DotTrace) -> int:
    """Recombine a trace into the dot-product value: the sum of each step's sum shifted by its shift."""
    return sum(map(lshift, trace.step_sums, trace.schedule.shifts))
