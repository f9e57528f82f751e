import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import actcap.carryfree as carryfree
from actcap.carryfree import (
    BitSeries,
    CarryFreeGain,
    ZeroStateError,
    cf_add,
    cf_mul,
    cf_shannon_capacity,
    cf_zero_error_capacity,
    one_step_control,
    parse_gain_spec,
    simulate_degrees,
    _lane_add,
    _lane_normalize,
    _normalize,
)
from actcap.distributions import make_rng

W = 64


def rand_series(rng, width=W, max_degree=40):
    if rng.random() < 0.05:
        return BitSeries.zero(width)
    degree = int(rng.integers(-max_degree, max_degree + 1))
    window = (1 << (width - 1)) | int.from_bytes(rng.bytes(width // 8), "big") >> 1
    return BitSeries(degree, window & ((1 << width) - 1) | (1 << (width - 1)), width)


# --- algebra -----------------------------------------------------------------

def test_add_examples():
    x = BitSeries.from_levels([3, 1], 16)
    y = BitSeries.from_levels([3, 0], 16)
    assert cf_add(x, y) == BitSeries.from_levels([1, 0], 16)
    assert cf_add(x, x).is_zero
    assert cf_add(x, BitSeries.zero(16)) == x


def test_mul_examples():
    x = BitSeries.from_levels([1, 0], 16)
    assert cf_mul(x, x) == BitSeries.from_levels([2, 0], 16)
    shifted = cf_mul(x, BitSeries.monomial(5, 16))
    assert shifted == BitSeries.from_levels([6, 5], 16)
    assert cf_mul(x, BitSeries.zero(16)).is_zero


def agree_above(a, b, floor):
    """Series agree on every level at or above ``floor``."""
    top = max((s.degree for s in (a, b) if not s.is_zero), default=floor)
    return all(a.coeff(lv) == b.coeff(lv) for lv in range(floor, top + 1))


def test_randomized_algebra_properties():
    rng = make_rng(20)
    for _ in range(10_000):
        x, y, z = (rand_series(rng) for _ in range(3))
        # XOR group laws; associativity is exact above the coarsest
        # intermediate window bottom (deeper levels are truncated away)
        assert cf_add(x, y) == cf_add(y, x)
        degs = [s.degree for s in (x, y, z) if not s.is_zero]
        floor = (max(degs) - W + 1) if degs else 0
        assert agree_above(cf_add(cf_add(x, y), z),
                           cf_add(x, cf_add(y, z)), floor)
        assert cf_add(x, x).is_zero
        # multiplication: commutative, degree additive
        xy = cf_mul(x, y)
        assert xy == cf_mul(y, x)
        if not x.is_zero and not y.is_zero:
            assert xy.degree == x.degree + y.degree
        s = cf_add(x, y)
        if not s.is_zero and not x.is_zero and not y.is_zero:
            assert s.degree <= max(x.degree, y.degree)


def test_randomized_distributivity():
    # distributivity over the top window levels; the finite window truncates
    # both sides identically only where the shorter operand still covers the
    # compared levels, so compare the top quarter of the window
    rng = make_rng(21)
    checked = 0
    for _ in range(10_000):
        x, y, z = (rand_series(rng, max_degree=20) for _ in range(3))
        lhs = cf_mul(x, cf_add(y, z))
        rhs = cf_add(cf_mul(x, y), cf_mul(x, z))
        if y.is_zero or z.is_zero or x.is_zero:
            assert lhs == rhs
            continue
        if y.degree == z.degree:
            continue  # degree drop in y + z truncates differently; skip
        top = max(lhs.degree if not lhs.is_zero else -10**6,
                  rhs.degree if not rhs.is_zero else -10**6)
        for level in range(top, top - W // 4, -1):
            assert lhs.coeff(level) == rhs.coeff(level)
        checked += 1
    assert checked > 5_000


def test_associativity_of_mul():
    rng = make_rng(22)
    for _ in range(2_000):
        x, y, z = (rand_series(rng, max_degree=15) for _ in range(3))
        lhs = cf_mul(cf_mul(x, y), z)
        rhs = cf_mul(x, cf_mul(y, z))
        if lhs.is_zero or rhs.is_zero:
            assert lhs.is_zero == rhs.is_zero
            continue
        assert lhs.degree == rhs.degree
        # truncation at width W agrees on the top half of the window
        for level in range(lhs.degree, lhs.degree - W // 2, -1):
            assert lhs.coeff(level) == rhs.coeff(level)


# --- gains and capacities ----------------------------------------------------

def test_gain_validation():
    with pytest.raises(ValueError):
        CarryFreeGain(0, 1)
    with pytest.raises(ValueError):
        CarryFreeGain(2, 0, known_levels=frozenset({1}))


def test_capacity_formulas():
    assert cf_zero_error_capacity(CarryFreeGain(1, 0)) == 1
    assert cf_shannon_capacity(CarryFreeGain(1, 0)) == 2
    assert cf_zero_error_capacity(CarryFreeGain(3, 3)) == 0
    assert cf_shannon_capacity(CarryFreeGain(3, 3)) == 1
    assert cf_zero_error_capacity(CarryFreeGain(5, 1)) == 4


def test_side_information_counterexample_capacity_jump():
    base = CarryFreeGain(1, 0, known_levels=frozenset({-1}))
    revealed = CarryFreeGain(1, 0, known_levels=frozenset({0, -1}))
    assert cf_zero_error_capacity(base) == 1
    assert cf_zero_error_capacity(revealed) == 3
    assert cf_zero_error_capacity(revealed) - cf_zero_error_capacity(base) == 2
    with pytest.raises(ValueError):
        cf_shannon_capacity(base)


def test_non_contiguous_known_levels_buy_nothing():
    trapped = CarryFreeGain(2, 0, known_levels=frozenset({-2}))
    assert cf_zero_error_capacity(trapped) == 2
    filled = CarryFreeGain(2, 0, known_levels=frozenset({0, -1, -2}))
    assert cf_zero_error_capacity(filled) == 5


# --- one-step cancellation ---------------------------------------------------

def enumerate_unknown_assignments(gain, realized, width, n_unknown):
    """All gain realizations over the top levels, one per unknown pattern."""
    fixed, revealed, unknown_mask = gain.window_plan(width)
    positions = [i for i in range(width - 1, -1, -1) if (unknown_mask >> i) & 1]
    positions = positions[:n_unknown]
    base = fixed
    for level, pos in revealed:
        if realized[level]:
            base |= 1 << pos
    for pattern in itertools.product((0, 1), repeat=len(positions)):
        window = base
        for bit, pos in zip(pattern, positions):
            if bit:
                window |= 1 << pos
        yield window


@pytest.mark.parametrize("gain,realized", [
    (CarryFreeGain(1, 0), {}),
    (CarryFreeGain(3, 0), {}),
    (CarryFreeGain(2, 2), {}),
    (CarryFreeGain(1, 0, known_levels=frozenset({0, -1})), {0: 1, -1: 1}),
    (CarryFreeGain(1, 0, known_levels=frozenset({0, -1})), {0: 0, -1: 1}),
    (CarryFreeGain(4, 1, known_levels=frozenset({1, 0})), {1: 1, 0: 0}),
    (CarryFreeGain(1, 0, known_levels=frozenset({-1})), {-1: 1}),
])
def test_one_step_cancellation_exhaustive(gain, realized):
    width = 24
    rng = make_rng(33)
    k_expected = gain.cancel_depth()
    for _ in range(20):
        state = rand_series(rng, width=width, max_degree=12)
        if state.is_zero:
            continue
        u, k = one_step_control(state, gain, realized)
        assert k == min(k_expected, width)
        assert u.degree == state.degree - gain.g_det
        n_unknown = min(12, width)
        cancel_seen_limit = False
        for window in enumerate_unknown_assignments(gain, realized, width,
                                                    n_unknown):
            b = BitSeries(gain.g_det, window, width) if window >> (width - 1) \
                else None
            if b is None:
                # leading bit random and zero: realize as a lower-degree series
                b = _normalize(gain.g_det, window, width)
            nxt = cf_add(state, cf_mul(b, u)) if not b.is_zero else state
            for t in range(k):
                assert nxt.coeff(state.degree - t) == 0
            if k < width and not b.is_zero:
                if nxt.coeff(state.degree - k) != 0:
                    cancel_seen_limit = True
        if k < n_unknown:
            # K is maximal: some unknown assignment survives at level K+1
            assert cancel_seen_limit


def test_one_step_rejects_zero_state():
    with pytest.raises(ZeroStateError):
        one_step_control(BitSeries.zero(16), CarryFreeGain(1, 0))


# --- degree dynamics ----------------------------------------------------------

def test_zero_error_boundedness_matches_capacity():
    gain = CarryFreeGain(1, 0)
    bounded = simulate_degrees(gain, 1, 400, 1000, seed=6, start_degree=12)
    assert bounded.max_degree.max() <= 12
    growing = simulate_degrees(gain, 2, 400, 1000, seed=6, start_degree=12)
    assert growing.max_degree[-1] > 50


def test_self_stabilizing_without_growth():
    rep = simulate_degrees(CarryFreeGain(2, 0), 0, 200, 50, seed=8,
                           start_degree=30)
    diffs = np.diff(rep.max_degree)
    assert rep.max_degree[-1] <= 0  # decays to the noise floor
    assert np.all(rep.max_degree <= 30)
    assert diffs.max() <= 0 or rep.max_degree.argmax() == 0


def test_mean_decay_matches_shannon_formula():
    for g_det, g_ran in ((1, 0), (2, 0)):
        gain = CarryFreeGain(g_det, g_ran)
        want = cf_shannon_capacity(gain)
        rep = simulate_degrees(gain, 0, 20_000, 1, seed=9,
                               start_degree=(want + 1) * 20_000)
        assert rep.decay_mean == pytest.approx(want, abs=0.05)


def test_counterexample_dynamics():
    revealed = CarryFreeGain(1, 0, known_levels=frozenset({0, -1}))
    ok = simulate_degrees(revealed, 3, 300, 200, seed=10, start_degree=10)
    assert ok.max_degree.max() <= 10
    too_fast = simulate_degrees(revealed, 4, 300, 200, seed=10, start_degree=10)
    assert too_fast.max_degree[-1] > 40


# --- lane kernel against the scalar ops ---------------------------------------

_BLOCK = 512


def reference_words(horizon, paths, seed=0, streams=make_rng):
    """Each path's words, shape (paths, 1 + 2 * horizon): sub-block s of 512
    paths reads its n paths' words from ``streams(seed, s)`` as one C-order
    (1 + 2 * horizon) x n matrix, one random_raw call per sub-block."""
    rows = 1 + 2 * horizon
    return np.concatenate([
        streams(seed, lo // _BLOCK).bit_generator.random_raw(
            rows * min(_BLOCK, paths - lo)).reshape(rows, -1).T
        for lo in range(0, paths, _BLOCK)])


def reference_degrees(gain, g_a, horizon, paths, seed=0, start_degree=32,
                      streams=make_rng):
    """The scalar loop: every path and step on BitSeries, reading the words
    of :func:`reference_words`.  Returns (max_degree, mean_degree,
    decay_mean, decay_count)."""
    max_deg = np.full(horizon + 1, -np.inf)
    mean_acc = np.zeros(horizon + 1)
    decay_sum, decay_n = 0.0, 0
    plan = gain.window_plan(W)
    top = 1 << (W - 1)

    def record(n, state):
        d = state.degree if not state.is_zero else -W
        max_deg[n] = max(max_deg[n], d)
        mean_acc[n] += d

    for row in reference_words(horizon, paths, seed, streams):
        word = iter(row.tolist()).__next__

        state = BitSeries(start_degree, top | word(), W)
        record(0, state)
        for n in range(horizon):
            shifted = state.shift(g_a)
            gain_bits, noise = word(), word()
            realized = {lv: (gain_bits >> pos) & 1 for lv, pos in plan[1]}
            applied = shifted
            if not shifted.is_zero:
                u, _ = one_step_control(shifted, gain, realized)
                b = gain.realize(realized, gain_bits, W, plan)
                applied = cf_add(shifted, cf_mul(b, u))
            state = cf_add(applied, _normalize(-1, noise, W))
            record(n + 1, state)
            if not shifted.is_zero and not state.is_zero and state.degree >= 0:
                decay_sum += shifted.degree - state.degree
                decay_n += 1
    return (max_deg, mean_acc / paths,
            decay_sum / decay_n if decay_n else math.nan, decay_n)


def assert_same_report(rep, want):
    max_deg, mean_deg, decay_mean, decay_n = want
    assert rep.max_degree.tobytes() == max_deg.tobytes()
    assert rep.mean_degree.tobytes() == mean_deg.tobytes()
    assert repr(rep.decay_mean) == repr(decay_mean)
    assert rep.decay_count == decay_n


@pytest.mark.parametrize("spec", ["cf:0,0", "cf:1,0", "cf:2,0", "cf:3,1",
                                  "cf:1,0,known=0/-1", "cf:2,2,known=2/1/-3"])
@pytest.mark.parametrize("g_a", [-1, 0, 1, 2, 4])
@pytest.mark.parametrize("seed", [0, 11])
def test_lanes_match_scalar_reference(spec, g_a, seed):
    gain = parse_gain_spec(spec)
    args = (gain, g_a, 24, 4)
    assert_same_report(simulate_degrees(*args, seed=seed, start_degree=6),
                       reference_degrees(*args, seed=seed, start_degree=6))


@pytest.mark.parametrize("spec", ["cf:1,0", "cf:1,0,known=0/-1", "cf:70,0",
                                  "cf:0,0,known=" + "/".join(map(str, range(0, -12, -1)))])
def test_lanes_match_scalar_reference_across_chunks(spec, monkeypatch):
    # chunks of 3 steps, so each path makes several draw calls; cf:70,0
    # cancels the whole window, so the applied state is zero
    monkeypatch.setattr(carryfree, "_CHUNK_CELLS", 10)
    monkeypatch.setattr(carryfree, "_MIN_CHUNK_STEPS", 1)
    gain = parse_gain_spec(spec)
    args = (gain, 2, 20, 3)
    assert_same_report(simulate_degrees(*args, seed=4, start_degree=5),
                       reference_degrees(*args, seed=4, start_degree=5))


@pytest.mark.parametrize("spec", ["cf:1,0", "cf:2,2,known=2/1/-3"])
def test_lanes_match_scalar_reference_across_sub_blocks(spec, monkeypatch):
    # 514 paths in 3-step chunks: two sub-blocks, each drawn in several calls
    monkeypatch.setattr(carryfree, "_CHUNK_CELLS", 3 * 514)
    monkeypatch.setattr(carryfree, "_MIN_CHUNK_STEPS", 1)
    gain = parse_gain_spec(spec)
    args = (gain, 1, 7, 514)
    assert_same_report(simulate_degrees(*args, seed=8, start_degree=4),
                       reference_degrees(*args, seed=8, start_degree=4))


class OddPathsZeroStream:
    """Stands in for the generator of a sub-block of ``paths`` paths whose
    words on odd paths are all zero."""

    def __init__(self, seed, s, paths):
        self.inner = make_rng(seed, s).bit_generator
        self.paths, self.drawn = paths, 0

    @property
    def bit_generator(self):
        return self

    def random_raw(self, n):
        words = self.inner.random_raw(n)
        words[(self.drawn + np.arange(n)) % self.paths % 2 == 1] = 0
        self.drawn += n
        return words


@pytest.mark.parametrize("spec", ["cf:1,0", "cf:70,0"])
def test_lanes_match_scalar_reference_on_zero_states(spec, monkeypatch):
    # all-zero noise windows on odd paths: the state becomes exactly zero,
    # records the floor and stays zero, next to live paths in the same lanes
    def streams(seed, s):
        return OddPathsZeroStream(seed, s, 4)

    monkeypatch.setattr(carryfree, "make_rng", streams)
    gain = parse_gain_spec(spec)
    rep = simulate_degrees(gain, 1, 12, 4, seed=2, start_degree=3)
    assert rep.max_degree.min() > -W and rep.mean_degree.min() < 0
    assert_same_report(rep, reference_degrees(gain, 1, 12, 4, seed=2,
                                              start_degree=3, streams=streams))


def test_revealed_levels_below_the_window_draw_nothing():
    # levels -100..-108 sit below the 64-level window of a gain of degree 1:
    # no control reads them, so they must not shift any later draw
    far = "/".join(map(str, range(-100, -109, -1)))
    near, deep = (simulate_degrees(parse_gain_spec(spec), 1, 50, 8, seed=3,
                                   start_degree=10)
                  for spec in ("cf:1,0,known=0", "cf:1,0,known=0/" + far))
    assert_same_report(deep, (near.max_degree, near.mean_degree,
                              near.decay_mean, near.decay_count))


class CountingStream:
    """A sub-block's generator that counts the raw words drawn from it."""

    def __init__(self, seed, s):
        self.inner = make_rng(seed, s).bit_generator
        self.words = 0

    @property
    def bit_generator(self):
        return self

    def random_raw(self, n):
        self.words += n
        return self.inner.random_raw(n)


@pytest.mark.parametrize("spec", ["cf:1,0", "cf:1,0,known=0/-1"])
@pytest.mark.parametrize("small_chunks", [False, True])
def test_each_path_draws_one_word_then_two_per_step(spec, small_chunks,
                                                    monkeypatch):
    # revealed levels take their bits from the gain word, so they add none
    if small_chunks:
        monkeypatch.setattr(carryfree, "_CHUNK_CELLS", 10)
        monkeypatch.setattr(carryfree, "_MIN_CHUNK_STEPS", 1)
    made = []

    def streams(seed, s):
        made.append(CountingStream(seed, s))
        return made[-1]

    monkeypatch.setattr(carryfree, "make_rng", streams)
    simulate_degrees(parse_gain_spec(spec), 2, 37, 515, seed=4, start_degree=5)
    # one stream per sub-block of 512 paths: 512 paths, then 3
    assert [s.words for s in made] == [512 * (1 + 37 * 2), 3 * (1 + 37 * 2)]


def test_degree_range_is_bounded():
    gain = CarryFreeGain(1, 0)
    with pytest.raises(ValueError, match="int64"):
        simulate_degrees(gain, 1, 10, 1, start_degree=9223372036854775000)
    with pytest.raises(ValueError, match="int64"):
        simulate_degrees(gain, 99999999999999999999, 10, 1)
    with pytest.raises(ValueError, match="exact"):
        simulate_degrees(gain, 1, 10, 1 << 20, start_degree=1 << 33)


@st.composite
def raw_windows(draw):
    """A uint64 window with its leading one at any of the 65 positions."""
    length = draw(st.integers(0, W))
    if length == 0:
        return 0
    return (1 << (length - 1)) | draw(st.integers(0, (1 << (length - 1)) - 1))


@st.composite
def lane_series(draw):
    raw = draw(raw_windows())
    if raw == 0:
        return BitSeries.zero(W)
    return _normalize(draw(st.integers(-300, 300)), raw, W)


def lanes(items):
    degrees = [s.degree if not s.is_zero else 0 for s in items]
    return (np.array(degrees, dtype=np.int64),
            np.array([s.window for s in items], dtype=np.uint64))


def assert_lanes_equal(degrees, windows, items):
    for d, w, s in zip(degrees.tolist(), windows.tolist(), items):
        if s.is_zero:
            assert w == 0
        else:
            assert (d, w) == (s.degree, s.window)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-300, 300), raw_windows()),
                min_size=1, max_size=8))
def test_lane_normalize_matches_bit_length(cases):
    msb, raw = (np.array(c, dtype=dt) for c, dt in
                zip(zip(*cases), (np.int64, np.uint64)))
    degrees, windows = _lane_normalize(msb, raw)
    assert_lanes_equal(degrees, windows, [_normalize(d, r, W) for d, r in cases])


@settings(max_examples=300)
@given(st.lists(st.tuples(lane_series(), lane_series(),
                          st.integers(0, 80), st.booleans()),
                min_size=1, max_size=8))
def test_lane_add_matches_cf_add(cases):
    xs, ys = [], []
    for x, y, gap, same in cases:
        if not x.is_zero and not y.is_zero:
            # gaps of 0 to 80 levels, either way round, sometimes with the
            # same window so the leading bits cancel
            y = BitSeries(x.degree - gap if gap % 2 else x.degree + gap,
                          x.window if same else y.window, W)
        xs.append(x)
        ys.append(y)
    degrees, windows = _lane_add(*lanes(xs), *lanes(ys))
    assert_lanes_equal(degrees, windows,
                       [cf_add(x, y) for x, y in zip(xs, ys)])


def test_parse_gain_spec():
    gain = parse_gain_spec("cf:1,0,known=0/-1")
    assert gain == CarryFreeGain(1, 0, known_levels=frozenset({0, -1}))
    assert parse_gain_spec("cf:3,1") == CarryFreeGain(3, 1)
    with pytest.raises(ValueError):
        parse_gain_spec("cf:3")
    with pytest.raises(ValueError):
        parse_gain_spec("cf:3,1,weird=2")
