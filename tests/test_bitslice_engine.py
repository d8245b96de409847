import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitwave import bitslice_engine as bse

# the worked two-element example used throughout: 49*52 + 13*20 = 2808
GOLD_A = [0x31, 0x0D]
GOLD_W = [0x34, 0x14]


def slices_of(x, p, b):
    """The ceil(p/b) base-2^b digits of one value, LSB first, as :func:`bse.slice_vector` gives them."""
    return [digits[0] for digits in bse.slice_vector([x], p, b)]


def reference_execute_dot(a, w, p_a, p_w, b, mode=bse.FC):
    """The per-element traced dot product: slice each element on its own, then walk the schedule.

    This is the straightforward form of :func:`bse.execute_dot`, kept as its
    oracle; the two must agree on the result and on every trace field.
    """
    if len(a) != len(w):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(w)}")
    a_sl = [slices_of(x, p_a, b) for x in a]  # a_sl[j][i] = slice i of element j
    w_sl = [slices_of(x, p_w, b) for x in w]
    schedule = bse.build_schedule(p_a, p_w, b, mode)
    n = len(a)
    nw = -(-p_w // b)

    trace = []
    result = 0
    for idx, (ai, wi, shift) in enumerate(schedule.steps):
        if mode == bse.FC:
            lanes = tuple(a_sl[j][ai] * w_sl[j][wi] for j in range(n))
        else:
            lanes = tuple(
                sum(a_sl[j][ai] * w_sl[j][k] for j in range(n)) << (b * k)
                for k in range(nw)
            )
        step_sum = sum(lanes)
        trace.append(
            bse.StepTrace(
                step_index=idx,
                a_slice_index=ai,
                w_slice_index=wi,
                lane_partials=lanes,
                step_sum=step_sum,
                shift_bits=shift,
            )
        )
        result += step_sum << shift
    return result, trace


def test_slice_golden_nibbles():
    assert slices_of(0x31, 8, 4) == [0x1, 0x3]
    assert slices_of(0x0D, 8, 4) == [0xD, 0x0]


def test_slice_zero_pads_to_slice_count():
    assert slices_of(0, 10, 4) == [0, 0, 0]
    assert slices_of(0, 8, 8) == [0]


def test_slice_mask_and_shift_oracle():
    assert slices_of(0x3FF, 10, 4) == [0xF, 0xF, 0x3]
    rng = random.Random(7)
    for _ in range(200):
        p = rng.randint(1, 16)
        b = rng.randint(1, 16)
        x = rng.randrange(1 << p)
        expect = [(x >> (b * i)) & ((1 << b) - 1) for i in range(-(-p // b))]
        assert slices_of(x, p, b) == expect


def test_slice_range_and_bit_errors():
    with pytest.raises(bse.OperandRangeError):
        slices_of(256, 8, 4)
    with pytest.raises(bse.OperandRangeError):
        slices_of(-1, 8, 4)
    with pytest.raises(ValueError):
        slices_of(1, 0, 4)
    with pytest.raises(ValueError):
        slices_of(1, 17, 4)
    with pytest.raises(ValueError):
        slices_of(1, 8, 0)


def test_slice_vector_is_per_element_slicing_transposed():
    values = [0x31, 0x0D, 0x00, 0xFF]
    digits = bse.slice_vector(values, 8, 4)
    assert digits == [[0x1, 0xD, 0x0, 0xF], [0x3, 0x0, 0x0, 0xF]]
    rng = random.Random(3)
    for _ in range(200):
        p = rng.randint(1, 16)
        b = rng.randint(1, 16)
        values = [rng.randrange(1 << p) for _ in range(rng.randint(1, 8))]
        per_element = [slices_of(x, p, b) for x in values]
        assert bse.slice_vector(values, p, b) == [list(col) for col in zip(*per_element)]


def test_slice_vector_reports_first_bad_element():
    with pytest.raises(bse.OperandRangeError, match=r"^value 300 out of range for 8-bit operand$"):
        bse.slice_vector([1, 300, -1, 256], 8, 4)
    with pytest.raises(bse.OperandRangeError, match=r"^value -1 out of range for 8-bit operand$"):
        bse.slice_vector([1, -1, 300], 8, 4)
    with pytest.raises(ValueError, match=r"^p must be an int in \[1, 16\], got 17$"):
        bse.slice_vector([1 << 17], 17, 4)


def test_slice_round_trip_exhaustive():
    # every value below 2^p splits into ceil(p/b) b-bit digits that weigh back to it
    for p in range(1, 17):
        values = range(1 << p)
        for b in range(1, 17):
            digits = bse.slice_vector(values, p, b)
            assert len(digits) == -(-p // b)
            rebuilt = [0] * len(values)
            for i, column in enumerate(digits):
                assert 0 <= min(column) and max(column) < 1 << b
                rebuilt = [r + (d << (b * i)) for r, d in zip(rebuilt, column)]
            assert rebuilt == list(values)


def test_schedule_golden_order_and_shifts():
    sched = bse.build_schedule(8, 8, 4, bse.FC)
    assert sched.n_steps == 4
    assert [s[:2] for s in sched.steps] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [s[2] for s in sched.steps] == [0, 4, 4, 8]


def test_schedule_degenerate_single_step():
    for p in (1, 4, 8, 16):
        sched = bse.build_schedule(p, p, p, bse.FC)
        assert sched.steps == ((0, 0, 0),)


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
    pairs = [(a, w) for a, w, _ in sched.steps]
    assert len(pairs) == len(set(pairs)) == 3 * 2
    assert all(shift == 4 * (a + w) for a, w, shift in sched.steps)


def test_schedule_conv_lanes_marked_parallel():
    sched = bse.build_schedule(8, 8, 4, bse.CONV)
    assert all(w is None for _, w, _ in sched.steps)
    assert [s[2] for s in sched.steps] == [0, 4]


def test_schedule_coverage_exhaustive():
    # with the round trip above, this proves execute_dot exact for every operand vector,
    # because the dot product is bilinear in the slices (CONV's weight shift b*k is the lane's)
    for p_a, p_w, b in product(range(1, 17), repeat=3):
        n_a, n_w = -(-p_a // b), -(-p_w // b)
        fc = bse.build_schedule(p_a, p_w, b, bse.FC).steps
        assert Counter(fc) == Counter((i, k, b * (i + k)) for i in range(n_a) for k in range(n_w))
        conv = bse.build_schedule(p_a, p_w, b, bse.CONV).steps
        assert Counter(conv) == Counter((i, None, b * i) for i in range(n_a))


def test_schedule_rejects_bad_mode():
    with pytest.raises(ValueError):
        bse.build_schedule(8, 8, 4, "conv")


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


def test_step_trace_is_immutable():
    _, trace = bse.execute_dot(GOLD_A, GOLD_W, 8, 8, 4, bse.FC)
    with pytest.raises(AttributeError):
        trace[0].step_sum = 0
    assert trace[0].step_sum == 56


def test_execute_dot_golden_trace():
    result, trace = bse.execute_dot(GOLD_A, GOLD_W, 8, 8, 4, bse.FC)
    assert result == 2808
    assert [t.step_sum for t in trace] == [56, 16, 12, 9]
    assert [t.shift_bits for t in trace] == [0, 4, 4, 8]
    for t in trace:
        assert sum(t.lane_partials) == t.step_sum
    assert sum(t.step_sum << t.shift_bits for t in trace) == 2808


def test_execute_dot_zero_weights_annihilate():
    result, trace = bse.execute_dot([3, 200, 17], [0, 0, 0], 8, 8, 4)
    assert result == 0
    assert all(t.step_sum == 0 for t in trace)
    assert all(all(x == 0 for x in t.lane_partials) for t in trace)


def test_execute_dot_conv_mode_matches_oracle():
    result, trace = bse.execute_dot(GOLD_A, GOLD_W, 8, 8, 4, bse.CONV)
    assert result == 2808
    assert len(trace) == 2  # one step per activation slice
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
    with pytest.raises(bse.OperandRangeError):
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
    got = bse.execute_dot(a, w, p_a, p_w, b, mode)
    assert got == reference_execute_dot(a, w, p_a, p_w, b, mode)
    assert got[0] == sum(x * y for x, y in zip(a, w))


@pytest.mark.parametrize("a, w, error, message", [
    # lengths are checked before any operand
    ([256, 1], [1], ValueError, "vector lengths differ: 2 vs 1"),
    # the first bad element of a, before any bad element of w
    ([1, 300, 256], [999, 1, 1], bse.OperandRangeError, "value 300 out of range for 8-bit operand"),
    ([1, 2], [3, -4], bse.OperandRangeError, "value -4 out of range for 8-bit operand"),
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
    assert bse.reconstruct([]) == 0
