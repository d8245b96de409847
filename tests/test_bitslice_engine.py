import random

import pytest

from bitwave import bitslice_engine as bse

# the worked two-element example used throughout: 49*52 + 13*20 = 2808
GOLD_A = [0x31, 0x0D]
GOLD_W = [0x34, 0x14]


def test_slice_golden_nibbles():
    assert bse.slice_value(0x31, 8, 4) == [0x1, 0x3]
    assert bse.slice_value(0x0D, 8, 4) == [0xD, 0x0]


def test_slice_zero_pads_to_slice_count():
    assert bse.slice_value(0, 10, 4) == [0, 0, 0]
    assert bse.slice_value(0, 8, 8) == [0]


def test_slice_mask_and_shift_oracle():
    assert bse.slice_value(0x3FF, 10, 4) == [0xF, 0xF, 0x3]
    rng = random.Random(7)
    for _ in range(200):
        p = rng.randint(1, 16)
        b = rng.randint(1, 16)
        x = rng.randrange(1 << p)
        expect = [(x >> (b * i)) & ((1 << b) - 1) for i in range(-(-p // b))]
        assert bse.slice_value(x, p, b) == expect


def test_slice_range_and_bit_errors():
    with pytest.raises(bse.OperandRangeError):
        bse.slice_value(256, 8, 4)
    with pytest.raises(bse.OperandRangeError):
        bse.slice_value(-1, 8, 4)
    with pytest.raises(ValueError):
        bse.slice_value(1, 0, 4)
    with pytest.raises(ValueError):
        bse.slice_value(1, 17, 4)
    with pytest.raises(ValueError):
        bse.slice_value(1, 8, 0)


def test_recompose_round_trip_exhaustive_small():
    for p in range(1, 9):
        for b in (1, 2, 3, 4, 8):
            for x in range(1 << p):
                assert bse.recompose(bse.slice_value(x, p, b), b) == x


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


def test_schedule_rejects_bad_mode():
    with pytest.raises(ValueError):
        bse.build_schedule(8, 8, 4, "conv")


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


def test_reconstruct_empty_trace():
    assert bse.reconstruct([]) == 0


def test_gain_ladder_values():
    lad = bse.soa_gain_ladder(1, 3)
    assert lad.gains == (1.0, 2.0, 4.0)
    lad4 = bse.soa_gain_ladder(4, 3)
    assert lad4.gains == (1.0, 16.0, 256.0)
    assert lad4.gains[0] == 1.0
    for lo, hi in zip(lad4.gains, lad4.gains[1:]):
        assert hi / lo == 2.0**4


def test_reconstruct_ladder_matches_digital():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = rng.choice((4, 8, 10, 16))
        b = rng.choice((1, 2, 4))
        a = [rng.randrange(1 << p) for _ in range(n)]
        w = [rng.randrange(1 << p) for _ in range(n)]
        mode = rng.choice((bse.FC, bse.CONV))
        result, trace = bse.execute_dot(a, w, p, p, b, mode)
        count = max(t.shift_bits // b for t in trace) + 1
        lad = bse.soa_gain_ladder(b, count)
        assert bse.reconstruct(trace, lad) == bse.reconstruct(trace) == result


def test_reconstruct_short_ladder_rejected():
    _, trace = bse.execute_dot(GOLD_A, GOLD_W, 8, 8, 4)
    with pytest.raises(bse.LadderSizeError):
        bse.reconstruct(trace, bse.soa_gain_ladder(4, 2))
