import random
import struct
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitwave import bitslice_engine as bse
from bitwave import workload_ir as wir

#: struct's standard-size unsigned code for each field of 1, 2, 4 and 8 bytes
STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

# the worked two-element example used throughout: 49*52 + 13*20 = 2808
GOLD_A = [0x31, 0x0D]
GOLD_W = [0x34, 0x14]


def slices_of(x, p, b):
    """The ceil(p/b) base-2^b digits of one p-bit value, LSB first, each masked out on its own.

    This is the oracle's slicing: it shares no code with :mod:`bse`'s packed
    slices, and raises :func:`bse.check_operand`'s errors for one value.
    """
    wir.check_bits("p", p)
    wir.check_bits("b", b)
    if not 0 <= x < 1 << p:
        raise ValueError(f"value {x} out of range for {p}-bit operand")
    return [(x >> (b * i)) & ((1 << b) - 1) for i in range(-(-p // b))]


def fields(word, width, n):
    """The n ``width``-bit fields of ``word``, field 0 first, read through its little-endian bytes."""
    size = width // 8
    return list(struct.unpack(f"<{n}{STRUCT_CODES[size]}", word.to_bytes(size * n, "little")))


def unpacked_slices(values, p, b, width=None, reverse=False):
    """:func:`bse.slice_vector`'s packed slices as digit lists: ``digits[i][j]`` is field j of slice i.

    With ``reverse`` the values are packed last first, as :func:`bse.execute_dot` packs its weights.
    """
    if width is None:
        width = bse.field_width(p, p, b, len(values))
    if reverse:
        values = values[::-1]
    return [fields(word, width, len(values)) for word in bse.slice_vector(values, p, b, width)]


def engine_slices_of(x, p, b):
    """The ceil(p/b) digits of one value, LSB first, as :mod:`bse` checks and packs them."""
    bse.check_operand([x], p, b)
    return [digits[0] for digits in unpacked_slices([x], p, b)]


def reference_execute_dot(a, w, p_a, p_w, b, mode=bse.FC):
    """The per-element dot product: slice each element on its own, then walk the schedule.

    This is the straightforward form of :func:`bse.execute_dot`, kept as its
    oracle. It returns (result, lanes): ``lanes[i]`` holds step ``i``'s lane
    values, one product per element pair in FC mode and one lane sum per
    weight slice, after its ladder gain, in CONV mode. A step's sum is the
    sum of its lanes, and the result adds each step's sum shifted by its shift.
    """
    if len(a) != len(w):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(w)}")
    a_sl = [slices_of(x, p_a, b) for x in a]  # a_sl[j][i] = slice i of element j
    w_sl = [slices_of(x, p_w, b) for x in w]
    schedule = bse.build_schedule(p_a, p_w, b, mode)
    n = len(a)
    nw = -(-p_w // b)

    step_lanes = []
    result = 0
    for (ai, wi), shift in zip(schedule.steps, schedule.shifts):
        if mode == bse.FC:
            lanes = tuple(a_sl[j][ai] * w_sl[j][wi] for j in range(n))
        else:
            lanes = tuple(
                sum(a_sl[j][ai] * w_sl[j][k] for j in range(n)) << (b * k)
                for k in range(nw)
            )
        step_lanes.append(lanes)
        result += sum(lanes) << shift
    return result, step_lanes


def assert_matches_reference(a, w, p_a, p_w, b, mode):
    """``execute_dot`` equals the reference in its result, each step's sum and its schedule."""
    result, trace = bse.execute_dot(a, w, p_a, p_w, b, mode)
    want, lanes = reference_execute_dot(a, w, p_a, p_w, b, mode)
    assert result == want == sum(x * y for x, y in zip(a, w))
    assert trace.step_sums == tuple(map(sum, lanes))
    assert trace.schedule is bse.build_schedule(p_a, p_w, b, mode)
    assert bse.reconstruct(trace) == result


def test_slice_golden_nibbles():
    assert engine_slices_of(0x31, 8, 4) == [0x1, 0x3]
    assert engine_slices_of(0x0D, 8, 4) == [0xD, 0x0]


def test_slice_zero_pads_to_slice_count():
    assert engine_slices_of(0, 10, 4) == [0, 0, 0]
    assert engine_slices_of(0, 8, 8) == [0]


def test_slice_mask_and_shift_oracle():
    assert engine_slices_of(0x3FF, 10, 4) == [0xF, 0xF, 0x3]
    rng = random.Random(7)
    for _ in range(200):
        p = rng.randint(1, 16)
        b = rng.randint(1, 16)
        x = rng.randrange(1 << p)
        expect = [(x >> (b * i)) & ((1 << b) - 1) for i in range(-(-p // b))]
        assert engine_slices_of(x, p, b) == expect == slices_of(x, p, b)


def test_slice_range_and_bit_errors():
    for slices in (engine_slices_of, slices_of):
        with pytest.raises(ValueError):
            slices(256, 8, 4)
        with pytest.raises(ValueError):
            slices(-1, 8, 4)
        with pytest.raises(ValueError):
            slices(1, 0, 4)
        with pytest.raises(ValueError):
            slices(1, 17, 4)
        with pytest.raises(ValueError):
            slices(1, 8, 0)


def test_slice_vector_is_per_element_slicing_transposed():
    values = [0x31, 0x0D, 0x00, 0xFF]
    digits = unpacked_slices(values, 8, 4)
    assert digits == [[0x1, 0xD, 0x0, 0xF], [0x3, 0x0, 0x0, 0xF]]
    assert unpacked_slices(values, 8, 4, reverse=True) == [[0xF, 0x0, 0xD, 0x1], [0xF, 0x0, 0x0, 0x3]]
    rng = random.Random(3)
    for _ in range(200):
        p = rng.randint(1, 16)
        b = rng.randint(1, 16)
        values = [rng.randrange(1 << p) for _ in range(rng.randint(1, 8))]
        want = [list(col) for col in zip(*[slices_of(x, p, b) for x in values])]
        # every width the packing takes
        for width in (8, 16, 32, 64):
            if width >= b * -(-p // b):
                assert unpacked_slices(values, p, b, width) == want
                assert unpacked_slices(values, p, b, width, reverse=True) == [col[::-1] for col in want]


def test_check_operand_reports_first_bad_element():
    with pytest.raises(ValueError, match=r"^value 300 out of range for 8-bit operand$"):
        bse.check_operand([1, 300, -1, 256], 8, 4)
    with pytest.raises(ValueError, match=r"^value -1 out of range for 8-bit operand$"):
        bse.check_operand([1, -1, 300], 8, 4)
    with pytest.raises(ValueError, match=r"^value 300 out of range for 8-bit operand$"):
        bse.check_operand([0, 300], 8, 4)
    with pytest.raises(ValueError, match=r"^p must be an int in \[1, 16\], got 17$"):
        bse.check_operand([1 << 17], 17, 4)


def test_slice_round_trip_exhaustive():
    # every value below 2^p splits into ceil(p/b) b-bit digits that weigh back to it
    for p in range(1, 17):
        values = range(1 << p)
        for b in range(1, 17):
            digits = unpacked_slices(values, p, b)
            assert len(digits) == -(-p // b)
            rebuilt = [0] * len(values)
            for i, column in enumerate(digits):
                assert 0 <= min(column) and max(column) < 1 << b
                rebuilt = [r + (d << (b * i)) for r, d in zip(rebuilt, column)]
            assert rebuilt == list(values)


def test_schedule_golden_order_and_shifts():
    sched = bse.build_schedule(8, 8, 4, bse.FC)
    assert sched.n_steps == 4
    assert list(sched.steps) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(sched.shifts) == [0, 4, 4, 8]


def test_schedule_degenerate_single_step():
    for p in (1, 4, 8, 16):
        sched = bse.build_schedule(p, p, p, bse.FC)
        assert (sched.steps, sched.shifts) == (((0, 0),), (0,))


def test_schedule_mixed_widths():
    assert bse.build_schedule(8, 2, 4, bse.FC).n_steps == 2


def test_schedule_step_count_law():
    for p_a in range(1, 17):
        for b in range(1, 17):
            fc = bse.build_schedule(p_a, p_a, b, bse.FC)
            assert fc.n_steps == (-(-p_a // b)) ** 2
            conv = bse.build_schedule(p_a, p_a, b, bse.CONV)
            assert conv.n_steps == -(-p_a // b)


def test_schedule_every_pair_once_with_shift_law():
    sched = bse.build_schedule(10, 6, 4, bse.FC)
    pairs = list(sched.steps)
    assert len(pairs) == len(set(pairs)) == 3 * 2
    assert all(shift == 4 * (a + w) for (a, w), shift in zip(sched.steps, sched.shifts))


def test_schedule_conv_lanes_marked_parallel():
    sched = bse.build_schedule(8, 8, 4, bse.CONV)
    assert all(w is None for _, w in sched.steps)
    assert list(sched.shifts) == [0, 4]


def test_schedule_coverage_exhaustive():
    # with the round trip above, this proves execute_dot exact for every operand vector,
    # because the dot product is bilinear in the slices (CONV's weight shift b*k is the lane's),
    # given the lane-field law W >= max(b*ceil(p_a/b), b*ceil(p_w/b), 2b + n.bit_length()):
    # the first two terms keep a shifted slice clear of the next field, and the last holds
    # a sum of n lane products, each below 2^(2b), so field n-1 of a slice product carries
    # nothing into the next field and is exactly the step's sum of lane products
    # (test_field_width_keeps_the_lane_law checks field_width against the law)
    for p_a, p_w, b in product(range(1, 17), repeat=3):
        n_a, n_w = -(-p_a // b), -(-p_w // b)
        fc = bse.build_schedule(p_a, p_w, b, bse.FC)
        assert Counter(zip(fc.steps, fc.shifts)) == Counter(
            ((i, k), b * (i + k)) for i in range(n_a) for k in range(n_w)
        )
        conv = bse.build_schedule(p_a, p_w, b, bse.CONV)
        assert Counter(zip(conv.steps, conv.shifts)) == Counter(((i, None), b * i) for i in range(n_a))
        for sched in (fc, conv):  # one shift per step
            assert len(sched.shifts) == sched.n_steps


def test_schedule_rejects_bad_mode():
    with pytest.raises(ValueError):
        bse.build_schedule(8, 8, 4, "conv")


def test_schedule_bad_mode_error_is_brief():
    # the mode is quoted through wir.brief, so a huge one makes a short message
    with pytest.raises(ValueError, match="^mode: ") as err:
        bse.build_schedule(8, 8, 4, "x" * 10_000)
    assert len(str(err.value)) < 200


def test_schedule_is_cached_per_key():
    assert bse.build_schedule(10, 6, 4, bse.FC) is bse.build_schedule(10, 6, 4, bse.FC)
    assert bse.build_schedule(8, 8, 2, bse.CONV) is bse.build_schedule(8, 8, 2, bse.CONV)
    assert bse.build_schedule(8, 8, 2, bse.CONV) is not bse.build_schedule(8, 8, 2, bse.FC)


@pytest.mark.parametrize("args", [(8, 8, 4, "conv"), (8, 17, 4, bse.FC), (8, 8, 0, bse.CONV),
                                  (True, 8, 4, bse.FC), (8.0, 8, 4, bse.FC)])
def test_schedule_bad_arguments_raise_on_every_call(args):
    bse.build_schedule(1, 8, 4, bse.FC)
    bse.build_schedule(8, 8, 4, bse.FC)  # equal keys of another type must not hit these
    for _ in range(2):
        with pytest.raises(ValueError):
            bse.build_schedule(*args)


def test_execute_dot_golden_trace():
    result, trace = bse.execute_dot(GOLD_A, GOLD_W, 8, 8, 4, bse.FC)
    assert result == 2808
    assert trace.step_sums == (56, 16, 12, 9)
    assert trace.schedule.shifts == (0, 4, 4, 8)
    _, lanes = reference_execute_dot(GOLD_A, GOLD_W, 8, 8, 4, bse.FC)
    assert lanes == [(1 * 4, 13 * 4), (1 * 3, 13 * 1), (3 * 4, 0 * 4), (3 * 3, 0 * 1)]
    assert [sum(step) for step in lanes] == list(trace.step_sums)
    assert sum(s << shift for s, shift in zip(trace.step_sums, trace.schedule.shifts)) == 2808


def test_execute_dot_zero_weights_annihilate():
    for mode in (bse.FC, bse.CONV):
        result, trace = bse.execute_dot([3, 200, 17], [0, 0, 0], 8, 8, 4, mode)
        assert result == 0
        assert trace.step_sums == (0,) * trace.schedule.n_steps
        _, lanes = reference_execute_dot([3, 200, 17], [0, 0, 0], 8, 8, 4, mode)
        assert all(all(x == 0 for x in step) for step in lanes)


def test_execute_dot_conv_mode_matches_oracle():
    result, trace = bse.execute_dot(GOLD_A, GOLD_W, 8, 8, 4, bse.CONV)
    assert result == 2808
    assert len(trace.step_sums) == trace.schedule.n_steps == 2  # one step per activation slice
    assert bse.reconstruct(trace) == 2808


@pytest.mark.parametrize("mode", [bse.FC, bse.CONV])
def test_execute_dot_random_oracle(mode):
    rng = random.Random(99)
    for _ in range(500):
        p_a = rng.choice((1, 2, 4, 6, 8, 10, 16))
        p_w = rng.choice((1, 2, 4, 6, 8, 10, 16))
        b = rng.choice((1, 2, 4, 8))
        n = rng.randint(1, 64)
        a = [rng.randrange(1 << p_a) for _ in range(n)]
        w = [rng.randrange(1 << p_w) for _ in range(n)]
        result, trace = bse.execute_dot(a, w, p_a, p_w, b, mode)
        assert result == sum(x * y for x, y in zip(a, w))
        assert bse.reconstruct(trace) == result


def test_execute_dot_linearity():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 16)
        a = [rng.randrange(256) for _ in range(n)]
        w1 = [rng.randrange(128) for _ in range(n)]
        w2 = [rng.randrange(128) for _ in range(n)]
        w12 = [x + y for x, y in zip(w1, w2)]
        r1, _ = bse.execute_dot(a, w1, 8, 8, 4)
        r2, _ = bse.execute_dot(a, w2, 8, 8, 4)
        r12, _ = bse.execute_dot(a, w12, 8, 8, 4)
        assert r1 + r2 == r12


def test_execute_dot_input_errors():
    with pytest.raises(ValueError):
        bse.execute_dot([1, 2], [1], 8, 8, 4)
    with pytest.raises(ValueError):
        bse.execute_dot([256], [1], 8, 8, 4)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    data=st.data(),
    p_a=st.integers(1, 16),
    p_w=st.integers(1, 16),
    b=st.integers(1, 16),
    n=st.integers(0, 64),
    mode=st.sampled_from([bse.FC, bse.CONV]),
)
@example(data=None, p_a=8, p_w=8, b=4, n=0, mode=bse.CONV)
def test_execute_dot_equals_reference(data, p_a, p_w, b, n, mode):
    if data is None:
        a = w = []
    else:
        a = data.draw(st.lists(st.integers(0, (1 << p_a) - 1), min_size=n, max_size=n))
        w = data.draw(st.lists(st.integers(0, (1 << p_w) - 1), min_size=n, max_size=n))
    assert_matches_reference(a, w, p_a, p_w, b, mode)


def test_execute_dot_all_ones_on_every_schedule():
    # the largest operands of every (p_a, p_w, b, mode): each slice is all ones
    for p_a, p_w, b in product(range(1, 17), repeat=3):
        a, w = [(1 << p_a) - 1] * 2, [(1 << p_w) - 1] * 2
        for mode in (bse.FC, bse.CONV):
            assert_matches_reference(a, w, p_a, p_w, b, mode)


def test_field_width_keeps_the_lane_law():
    # the smallest power of two of at least 8 bits that holds both shifted slices and n lane products
    for p_a, p_w, b in product(range(1, 17), repeat=3):
        for n in (0, 1, 2, 15, 16, 63, 64, 255, 256, 511, (1 << 32) - 1, 1 << 40):
            width = bse.field_width(p_a, p_w, b, n)
            need = max(b * -(-p_a // b), b * -(-p_w // b), 2 * b + n.bit_length())
            assert width >= max(8, need) and width & (width - 1) == 0
            assert width == 8 or width // 2 < need
            # slice_vector packs fields of 8 to 64 bits: enough for every vector shorter than 2^32
            assert n >= 1 << 32 or width <= 64
    # and no more: 2^32 lanes of 16-bit slices need a 128-bit field
    assert bse.field_width(16, 16, 16, 1 << 32) == 128


# (b, p, n0): 2b + n.bit_length() crosses a field width between n0 - 1 and n0,
# 8 -> 16, 16 -> 32 and 32 -> 64 bits; 2 * n0 - 1 elements of all-ones slices sum to more
# than the narrower field holds, so a law one bit short of 2b + n.bit_length() overflows there
LANE_WIDTH_CROSSINGS = [(2, 8, 16), (4, 16, 256), (12, 12, 256), (14, 14, 16)]


@pytest.mark.parametrize("b, p, n0", LANE_WIDTH_CROSSINGS)
@pytest.mark.parametrize("mode", [bse.FC, bse.CONV])
def test_execute_dot_all_ones_across_lane_width_crossings(b, p, n0, mode):
    assert bse.field_width(p, p, b, n0 - 1) < bse.field_width(p, p, b, n0)
    for n in (n0 - 1, n0, 2 * n0 - 1):
        ones = [(1 << p) - 1] * n
        assert_matches_reference(ones, ones, p, p, b, mode)


@pytest.mark.parametrize("a, w, error, message", [
    # lengths are checked before any operand
    ([256, 1], [1], ValueError, "vector lengths differ: 2 vs 1"),
    # the first bad element of a, before any bad element of w
    ([1, 300, 256], [999, 1, 1], ValueError, "value 300 out of range for 8-bit operand"),
    ([1, 2], [3, -4], ValueError, "value -4 out of range for 8-bit operand"),
])
def test_execute_dot_error_order(a, w, error, message):
    for dot in (bse.execute_dot, reference_execute_dot):
        with pytest.raises(ValueError) as exc:
            dot(a, w, 8, 8, 4)
        assert type(exc.value) is error
        assert str(exc.value) == message


@pytest.mark.parametrize("a, w, p_a, p_w, b, mode", [
    ([1], [1], 17, 8, 4, bse.FC),
    ([1], [1], 8, 0, 4, bse.FC),
    ([1], [1], 8, 8, 17, bse.FC),
    ([1], [1], 8, 8, 4, "conv"),
    ([], [], 17, 8, 4, bse.FC),  # no element to check: the schedule names p_a
    ([], [], 8, 8, 0, bse.CONV),
    ([256], [1], 17, 8, 4, bse.FC),  # the width is checked before the value
])
def test_execute_dot_parameter_errors_match_reference(a, w, p_a, p_w, b, mode):
    with pytest.raises(ValueError) as want:
        reference_execute_dot(a, w, p_a, p_w, b, mode)
    with pytest.raises(ValueError) as got:
        bse.execute_dot(a, w, p_a, p_w, b, mode)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_reconstruct_empty_trace():
    # an empty dot product still runs its schedule, every step summing to 0
    for mode in (bse.FC, bse.CONV):
        result, trace = bse.execute_dot([], [], 8, 8, 4, mode)
        assert trace.step_sums == (0,) * trace.schedule.n_steps
        assert bse.reconstruct(trace) == result == 0


def test_reconstruct_shifts_each_step_sum_by_its_step():
    _, trace = bse.execute_dot(GOLD_A, GOLD_W, 8, 8, 4, bse.FC)
    assert bse.reconstruct(bse.DotTrace(trace.schedule, (1, 0, 0, 1))) == 1 + (1 << 8)
