import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from actcap.capacity import eta_objective, shannon_capacity, shannon_objective
from actcap.distributions import (
    Empirical,
    FiniteMixture,
    Gaussian,
    ScaledBernoulli,
    TruncatedGaussian,
    Uniform,
    make_rng,
)
from actcap.simulate import (
    _KERNEL_WORDS,
    _TILE,
    _WIDE_STEPS,
    ScanPoint,
    StrategySpec,
    SystemSpec,
    _log2_abs_gauss_moment,
    _moment_ceiling_log2,
    _raise_eta_overflow,
    additive_noise_check,
    scaling_equivalence_check,
    simulate,
    strong_converse_experiment,
    threshold_scan,
)


# --- oracle: one make_rng generator per path, blocks folded in order --------

_BLOCK, _CLAMP = 512, 1e300


def reference_simulate(spec, strategy, horizon, paths, eta_list=(2.0,),
                       threshold=1e6, seed=0):
    """(mean log2 ratio, log2 moments, fractions, overflow paths) from a
    per-path loop that builds each path's generator with ``make_rng``."""
    thresholds = tuple(float(m) for m in np.atleast_1d(threshold))
    log2_x0 = math.log2(abs(spec.x0))
    total_sum = np.zeros(horizon + 1)
    counts = {m: np.zeros(horizon + 1, dtype=np.int64) for m in thresholds}
    lse = {e: np.full(horizon + 1, -math.inf) for e in eta_list}
    overflow = 0
    for lo in range(0, paths, _BLOCK):
        dl, over = _reference_block(spec, strategy, horizon,
                                    range(lo, min(lo + _BLOCK, paths)), seed)
        # (steps, paths): each step sums its paths pairwise along axis 1
        dl = np.ascontiguousarray(dl.T)
        total_sum += dl.sum(axis=1)
        for m in thresholds:
            counts[m] += (dl >= math.log2(m) - log2_x0).sum(axis=1)
        for eta in eta_list:
            z = eta * dl
            top = z.max(axis=1)
            with np.errstate(invalid="ignore"):
                block = top + np.log2(np.exp2(z - top[:, None]).sum(axis=1))
            lse[eta] = np.logaddexp2(lse[eta],
                                     np.where(np.isfinite(top), block, top))
        overflow += over
    return (total_sum / paths,
            {e: lse[e] - math.log2(paths) for e in eta_list},
            {m: counts[m] / paths for m in thresholds},
            overflow)


def _reference_block(spec, strategy, horizon, block, seed):
    rows = {"b": [], "d": [], "v": [], "w": []}
    for p in block:
        rng = make_rng(seed, p)
        rows["b"].append(np.asarray(spec.dist.sample(rng, horizon), dtype=float))
        if strategy.kind == "random_linear":
            rows["d"].append(rng.uniform(strategy.d_low, strategy.d_high, horizon))
        if spec.obs_noise_std > 0:
            rows["v"].append(rng.normal(0.0, spec.obs_noise_std, horizon))
        if spec.process_noise_std > 0:
            rows["w"].append(rng.normal(0.0, spec.process_noise_std, horizon))
    b, d, v, w = (np.array(rows[k]) if rows[k] else None for k in "bdvw")
    if d is None:
        d = strategy.d
    if spec.noise_free:
        with np.errstate(divide="ignore"):
            factors = math.log2(abs(spec.a)) + np.log2(np.abs(1.0 + d * b))
        return np.concatenate([np.zeros((len(b), 1)),
                               np.cumsum(factors, axis=1)], axis=1), 0
    x = np.full(len(b), float(spec.x0))
    dl = np.zeros((len(b), horizon + 1))
    overflowed = np.zeros(len(b), dtype=bool)
    for n in range(horizon):
        y = x + v[:, n] if v is not None else x
        d_n = d[:, n] if isinstance(d, np.ndarray) else d
        x = spec.a * (x + b[:, n] * d_n * y)
        if w is not None:
            x = x + w[:, n]
        hit = np.abs(x) >= _CLAMP
        if hit.any():
            x = np.clip(x, -_CLAMP, _CLAMP)
            overflowed |= hit
        with np.errstate(divide="ignore"):
            dl[:, n + 1] = np.log2(np.abs(x)) - math.log2(abs(spec.x0))
    return dl, int(overflowed.sum())


def assert_matches_reference(rep, ref):
    mean_log, log2_moments, fractions, overflow = ref
    assert np.array_equal(rep.mean_log2_ratio, mean_log)
    assert rep.log2_moments.keys() == log2_moments.keys()
    for eta, arr in log2_moments.items():
        assert np.array_equal(rep.log2_moments[eta], arr)
    assert rep.fractions.keys() == fractions.keys()
    for m, arr in fractions.items():
        assert np.array_equal(rep.fractions[m], arr)
    assert rep.overflow_paths == overflow


def test_spec_validation():
    with pytest.raises(ValueError):
        SystemSpec(0.5, Uniform(1, 3))
    with pytest.raises(ValueError):
        SystemSpec(2.0, Uniform(1, 3), x0=0.0)
    with pytest.raises(ValueError):
        StrategySpec("mystery")


@pytest.mark.parametrize("etas", [(0.0, -1.0), (0.0,), (2.0, -1.0), (-1e-300,)])
def test_non_positive_eta_rejected(etas):
    # with a path at exactly 0, eta = 0 read NaN moments (0 * -inf) with a
    # RuntimeWarning and eta = -1 read +inf moments
    spec = SystemSpec(1.35, ScaledBernoulli(1, 0.5))
    with pytest.raises(ValueError, match="eta values must be positive"):
        simulate(spec, StrategySpec("linear", d=-1.0), 20, 30,
                 eta_list=etas, seed=2)
    with pytest.raises(ValueError, match="eta values must be positive"):
        threshold_scan(Uniform(1, 3), "shannon", [4.0], eta=etas[-1],
                       horizon=20, paths=30)


@pytest.mark.parametrize("d_low,d_high", [
    (math.nan, 0.0), (-1.0, math.nan), (-math.inf, 0.0), (0.0, math.inf),
    (math.inf, math.inf), (0.5, -0.5), (-1e308, 1e308),
])
def test_random_gain_bounds_rejected(d_low, d_high):
    with pytest.raises(ValueError, match="random gain bounds"):
        StrategySpec("random_linear", d_low=d_low, d_high=d_high)


def test_identity_dynamics():
    rep = simulate(SystemSpec(1.0, Uniform(1, 3)),
                   StrategySpec("linear", d=0.0), horizon=50, paths=20, seed=0)
    assert np.all(rep.mean_log2_ratio == 0.0)
    assert rep.growth_slope_bits == 0.0


def test_zero_control_pure_powers():
    rep = simulate(SystemSpec(2.0, Uniform(1, 3), x0=1.0),
                   StrategySpec("linear", d=0.0), horizon=200, paths=4,
                   threshold=2.0**100, seed=0)
    assert rep.mean_log2_ratio[-1] == pytest.approx(200.0, abs=1e-9)
    assert rep.fractions[2.0**100][200] == 1.0
    assert rep.fractions[2.0**100][50] == 0.0


def test_seed_determinism_on_rerun():
    spec = SystemSpec(2.0, Uniform(1, 3))
    strat = StrategySpec("linear", d=-0.4)
    first = simulate(spec, strat, 150, 1500, eta_list=(1.0, 2.0), seed=11)
    again = simulate(spec, strat, 150, 1500, eta_list=(1.0, 2.0), seed=11)
    assert np.array_equal(first.mean_log2_ratio, again.mean_log2_ratio)
    for eta in (1.0, 2.0):
        assert np.array_equal(first.log2_moments[eta], again.log2_moments[eta])
    for m in first.thresholds:
        assert np.array_equal(first.fractions[m], again.fractions[m])


_LAWS = [
    Uniform(1, 3),
    Gaussian(4, 1),
    TruncatedGaussian(3.0, 1.0, 2.0, 5.0),
    ScaledBernoulli(1, 0.5),
    FiniteMixture(((0.5, Uniform(1, 3)), (0.5, Gaussian(4, 1)))),
    Empirical((0.5, 1.5, 2.5, 2.5, 4.0)),
]
_STRATEGIES = [
    StrategySpec("linear", d=-0.4),
    StrategySpec("linear", d=0.0),
    StrategySpec("random_linear", d_low=-0.8, d_high=0.0),
]


@pytest.mark.parametrize("paths", [513, 1100])
@pytest.mark.parametrize("law", _LAWS, ids=lambda law: type(law).__name__)
def test_simulate_equals_per_path_make_rng_oracle(law, paths):
    for strategy in _STRATEGIES:
        # rows of one-word laws up to _KERNEL_WORDS words come from the kernel
        edge = _KERNEL_WORDS // (2 if strategy.kind == "random_linear" else 1)
        for horizon, noise in ((12, 0.0), (12, 0.5), (edge, 0.0), (edge + 1, 0.0)):
            spec = SystemSpec(1.5, law, x0=2.0, process_noise_std=noise,
                              obs_noise_std=noise)
            args = (spec, strategy, horizon, paths)
            kwargs = dict(eta_list=(1.0, 4.0), threshold=(3.0, 1e3), seed=5)
            rep = simulate(*args, **kwargs)
            assert_matches_reference(rep, reference_simulate(*args, **kwargs))


@pytest.mark.filterwarnings("ignore:overflow")
def test_clamped_paths_match_oracle():
    spec = SystemSpec(1e40, Gaussian(4, 1), process_noise_std=1.0)
    args = (spec, StrategySpec("linear", d=0.0), 12, 513)
    rep = simulate(*args, seed=2)
    assert rep.overflow_paths == 513
    assert_matches_reference(rep, reference_simulate(*args, seed=2))


_TILE_CASES = {
    "noise_free_uniform": (SystemSpec(1.5, Uniform(1, 3), x0=2.0),
                           StrategySpec("linear", d=-0.4)),
    "noise_free_random_linear": (SystemSpec(1.5, Uniform(1, 3), x0=2.0),
                                 StrategySpec("random_linear", d_low=-0.8,
                                              d_high=0.0)),
    "noise_free_gaussian": (SystemSpec(1.5, Gaussian(4, 1), x0=2.0),
                            StrategySpec("linear", d=-0.2)),
    "noise_free_negative_x0": (SystemSpec(1.5, Uniform(1, 3), x0=-3.0),
                               StrategySpec("linear", d=-0.3)),
    "v_only": (SystemSpec(1.5, Uniform(1, 3), x0=2.0, obs_noise_std=0.5),
               StrategySpec("linear", d=-0.4)),
    "w_only": (SystemSpec(1.5, Gaussian(4, 1), x0=2.0, process_noise_std=0.5),
               StrategySpec("linear", d=-0.2)),
    "random_linear": (SystemSpec(1.5, Uniform(1, 3), x0=2.0,
                                 process_noise_std=0.5, obs_noise_std=0.5),
                      StrategySpec("random_linear", d_low=-0.8, d_high=0.0)),
    "negative_x0": (SystemSpec(1.5, FiniteMixture(((0.5, Uniform(1, 3)),
                                                   (0.5, Gaussian(4, 1)))),
                               x0=-3.0, process_noise_std=0.5, obs_noise_std=0.5),
                    StrategySpec("linear", d=-0.3)),
}


@pytest.mark.parametrize("paths", [1, 513])
@pytest.mark.parametrize("horizon", [_TILE - 1, _TILE, _TILE + 1, _TILE + 2,
                                     2 * _TILE + 1])
@pytest.mark.parametrize("case", sorted(_TILE_CASES))
def test_noisy_tiles_match_oracle(case, horizon, paths):
    # noise-free cases cover the kernel route (uniform, random_linear up to
    # _KERNEL_WORDS words) and the generator route (Gaussian) on both sides
    # of a tile edge
    spec, strategy = _TILE_CASES[case]
    args = (spec, strategy, horizon, paths)
    kwargs = dict(eta_list=(1.0, 4.0), threshold=(3.0, 1e3), seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, so no RuntimeWarning
        rep = simulate(*args, **kwargs)
    assert rep.overflow_paths == 0
    assert_matches_reference(rep, reference_simulate(*args, **kwargs))


@pytest.mark.filterwarnings("ignore:overflow")
def test_clamp_first_firing_in_a_later_tile_matches_oracle():
    spec = SystemSpec(32.0, Uniform(0, 6), process_noise_std=1.0,
                      obs_noise_std=1.0)
    args = (spec, StrategySpec("linear", d=-0.2), 300, 513)
    kwargs = dict(eta_list=(1.0, 4.0), threshold=(1e3, _CLAMP), seed=2)
    rep = simulate(*args, **kwargs)
    at_clamp = rep.fractions[_CLAMP]
    assert not at_clamp[:3 * _TILE + 1].any()  # nothing clamps before tile 4
    assert 0 < rep.overflow_paths < 513 and 0 < at_clamp.max() < 1
    assert_matches_reference(rep, reference_simulate(*args, **kwargs))


@pytest.mark.parametrize("noise,rows", [(1.0, 3), (0.0, 1)],
                         ids=["noisy", "noise_free"])
def test_memory_beyond_the_draws_does_not_grow_with_the_horizon(noise, rows):
    spec = SystemSpec(2.0, Uniform(2, 6), process_noise_std=noise,
                      obs_noise_std=noise)

    def traced_peak(horizon):
        tracemalloc.start()
        try:
            simulate(spec, StrategySpec("linear", d=-0.2), horizon, 512, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the gain row (and V and W when noisy) is 512 x horizon doubles;
    # everything else the block holds is one tile wide, and the report is
    # O(horizon)
    draw_rows = rows * 512 * 2000 * 8
    assert traced_peak(3000) - traced_peak(1000) <= draw_rows + 2**20


# horizons at the kernel, wide-block and tile edges; path counts at the
# sub-block edges and at the widths of wide blocks (2, 4 and 8 sub-blocks)
_EDGE_HORIZONS = [1, 4, 8, 16, _WIDE_STEPS - 1, _WIDE_STEPS, _WIDE_STEPS + 1,
                  _TILE, _TILE + 1]
_EDGE_PATHS = [1, 511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049, 4095,
               4096, 4097, 4200]


@st.composite
def _mc_runs(draw):
    # blocks are wide only below _WIDE_STEPS steps: short runs draw up to
    # 4,200 paths, longer ones (slower to check) up to 1,100
    if draw(st.booleans()):
        edges = [h for h in _EDGE_HORIZONS if h < _WIDE_STEPS]
        horizon = draw(st.sampled_from(edges) | st.integers(1, _WIDE_STEPS - 1))
        most = 4200
    else:
        edges = [h for h in _EDGE_HORIZONS if h >= _WIDE_STEPS]
        horizon = draw(st.sampled_from(edges) | st.integers(_WIDE_STEPS, 300))
        most = 1100
    paths = draw(st.sampled_from([p for p in _EDGE_PATHS if p <= most])
                 | st.integers(1, most))
    noise = draw(st.sampled_from([0.0, 0.5]))
    x0 = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.25, 8.0))
    spec = SystemSpec(1.5, draw(st.sampled_from(_LAWS)), x0=x0,
                      process_noise_std=noise, obs_noise_std=noise)
    if draw(st.booleans()):
        strategy = StrategySpec("linear", d=draw(st.floats(-0.8, 0.3)))
    else:
        low = draw(st.floats(-0.8, 0.0))
        strategy = StrategySpec("random_linear", d_low=low,
                                d_high=low + draw(st.floats(0.0, 0.8)))
    return spec, strategy, horizon, paths, draw(st.integers(0, 2**64 - 1))


@pytest.mark.filterwarnings("ignore:overflow")
@settings(max_examples=80)
@given(_mc_runs())
def test_simulate_equals_oracle_on_random_runs(run):
    spec, strategy, horizon, paths, seed = run
    args = (spec, strategy, horizon, paths)
    kwargs = dict(eta_list=(1.0, 4.0), threshold=(3.0, 1e3), seed=seed)
    assert_matches_reference(simulate(*args, **kwargs),
                             reference_simulate(*args, **kwargs))


# a generator per path is slow under tracemalloc: those routes run 4,200
# paths, past the widest block of 8 sub-blocks
@pytest.mark.parametrize("law,noise,paths", [(Uniform(1, 3), 0.0, 20_000),
                                             (Uniform(1, 3), 1.0, 4_200),
                                             (Gaussian(4, 1), 0.0, 4_200)],
                         ids=["kernel", "noisy", "generator"])
def test_wide_blocks_stay_within_one_sub_block_at_a_tile(law, noise, paths):
    spec = SystemSpec(1.5, law, process_noise_std=noise, obs_noise_std=noise)

    def traced_peak(horizon, paths):
        tracemalloc.start()
        try:
            simulate(spec, StrategySpec("linear", d=-0.4), horizon, paths,
                     seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # short runs take many sub-blocks per block, but no more memory than
    # one sub-block takes at a full tile
    ceiling = traced_peak(_TILE, 512)
    for horizon in (1, 4, 8, 16):
        assert traced_peak(horizon, paths) <= ceiling


@pytest.mark.parametrize("horizon", [3, 100, 2 * _TILE + 1])
@pytest.mark.parametrize("strategy", [
    StrategySpec("linear", d=1e308),
    StrategySpec("linear", d=-6e307),
    StrategySpec("random_linear", d_low=-1e308, d_high=0.0),
], ids=lambda s: s.describe())
def test_gain_products_past_the_float_range_read_the_closed_form(strategy,
                                                                 horizon):
    # where d b overflows, log2|1 + d b| = log2|d| + log2|b + 1/d| is finite
    dist, a, paths = Uniform(1, 3), 2.0, 40

    def draws(p):
        rng = make_rng(1, p)
        b = dist.sample(rng, horizon)
        d = (rng.uniform(strategy.d_low, strategy.d_high, horizon)
             if strategy.kind == "random_linear" else strategy.d)
        return b, d, np.log2(np.abs(d)) + np.log2(np.abs(b + 1.0 / d))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = simulate(SystemSpec(a, dist), strategy, horizon, paths, seed=1)
    steps = np.mean([1.0 + draws(p)[2] for p in range(paths)], axis=0)
    want = np.concatenate(([0.0], np.cumsum(steps)))
    assert np.all(np.isfinite(rep.mean_log2_ratio))
    np.testing.assert_allclose(rep.mean_log2_ratio, want, rtol=1e-12)
    assert math.isfinite(rep.growth_slope_bits)
    # and only there: one path keeps log2|1 + d b| bit for bit elsewhere
    b, d, closed = draws(0)
    with np.errstate(over="ignore"):
        factors = np.log2(np.abs(1.0 + d * b))
    factors = np.where(np.isfinite(factors), factors, closed)
    one = simulate(SystemSpec(a, dist), strategy, horizon, 1, seed=1)
    assert np.array_equal(one.mean_log2_ratio[1:], np.cumsum(1.0 + factors))


@pytest.mark.parametrize("dist,sense,grid,horizon,paths", [
    (Uniform(1, 3), "shannon", [4.0, 5.8, 6.2, 8.0], 300, 800),
    (ScaledBernoulli(1, 0.5), "eta", [1.2, 1.35, 1.45, 1.7], 8, 3000),
    (Gaussian(4, 1), "eta", [3.0, 4.0, 4.3, 6.0], 40, 1000),
])
def test_threshold_scan_matches_per_gain_runs(dist, sense, grid, horizon, paths):
    points, cap = threshold_scan(dist, sense, grid, eta=2.0, horizon=horizon,
                                 paths=paths, seed=3)
    strategy = StrategySpec("linear", d=cap.optimal_d)
    for a, point in zip(grid, points):
        rep = simulate(SystemSpec(a, dist), strategy, horizon, paths,
                       eta_list=(2.0,), seed=3)
        slope = (rep.growth_slope_bits if sense == "shannon"
                 else rep.moment_slope_bits(2.0))
        verdict = ("stable" if slope < -0.02 else
                   "unstable" if slope > 0.02 else "marginal")
        assert point.a == a
        assert point.verdict == verdict
        assert point.slope_bits == pytest.approx(slope, abs=1e-12)


def test_growth_slope_matches_one_step_objective():
    # noise-free growth per step is log2|a| minus the one-step log objective
    dist, d, a = Uniform(1, 3), -0.5, 2.0
    rep = simulate(SystemSpec(a, dist), StrategySpec("linear", d=d),
                   horizon=2000, paths=10_000, seed=7)
    expected = 1.0 - shannon_objective(dist, d)
    assert rep.growth_slope_bits == pytest.approx(expected, abs=0.02)


def test_per_step_mean_within_standard_errors():
    dist, d = Uniform(1, 3), -0.4
    paths, horizon = 20_000, 100
    rep = simulate(SystemSpec(2.0, dist), StrategySpec("linear", d=d),
                   horizon=horizon, paths=paths, seed=3)
    step_mean = 1.0 - shannon_objective(dist, d)
    # per-step increment variance of log2|a(1+Bd)|, by quadrature
    second = dist.expect(
        lambda b: (np.log2(abs(1 + b * d))) ** 2, (-1.0 / d,)
    )
    var = second - (shannon_objective(dist, d)) ** 2
    increments = np.diff(rep.mean_log2_ratio)
    se = math.sqrt(var / paths)
    assert np.all(np.abs(increments - step_mean) < 3 * se)


def test_moment_identity_short_horizon():
    # empirical log2 E|X/x0|^eta must track n * log2 E|a(1+Bd)|^eta while
    # the product estimator is still well-sampled
    dist, d, a, eta = Uniform(1, 3), -0.4, 2.0, 2.0
    rep = simulate(SystemSpec(a, dist), StrategySpec("linear", d=d),
                   horizon=12, paths=100_000, eta_list=(eta,), seed=5)
    one_step = eta * (math.log2(a) - eta_objective(dist, d, eta))
    for n in range(13):
        assert rep.log2_moments[eta][n] == pytest.approx(
            n * one_step, abs=0.3 + 0.05 * n
        )


def test_moments_past_the_float_range_raise():
    # eta log2|X/x0| overflows once |log2|X/x0|| passes about 18 bits
    spec, strategy = SystemSpec(2.0, Uniform(1, 3)), StrategySpec("linear", d=-0.4)
    dl, _ = _reference_block(spec, strategy, 300, range(40), 0)
    with np.errstate(over="ignore"):
        step = int(np.argmax(np.isinf(1e307 * dl).any(axis=0)))
    assert step > 1
    with pytest.raises(ArithmeticError, match=rf"eta = 1e\+307 .* at step {step}$"):
        simulate(spec, strategy, horizon=300, paths=40, eta_list=(2.0, 1e307),
                 seed=0)


def test_eta_overflow_names_the_first_sub_block_then_eta_then_step():
    # (steps, sub-blocks, paths): sub-block 0 passes the float range only at
    # the larger eta, at step 2; sub-block 1 at both etas, at step 1.  A fold
    # of one sub-block at a time meets sub-block 0 first
    sub = np.zeros((3, 2, 2))
    sub[2, 0, 1] = 2.0
    sub[1, 1, 0] = 1e9
    with pytest.raises(ArithmeticError, match=r"eta = 1e\+308 .* at step 7$"):
        _raise_eta_overflow(sub, (1e300, 1e308), 5)


def test_moment_collapse_reads_as_full_decay():
    # exact atom cancellation drives every path to literal zero
    rep = simulate(SystemSpec(1.35, ScaledBernoulli(1, 0.5)),
                   StrategySpec("linear", d=-1.0), horizon=400, paths=300,
                   eta_list=(2.0, 1e307), seed=2)
    assert rep.moment_slope_bits(2.0) == -math.inf
    # a path at exactly 0 is no overflow, even where eta is huge
    assert rep.log2_moments[1e307][-1] == -math.inf


def test_additive_noise_degenerates_to_noise_free():
    spec_plain = SystemSpec(2.0, Uniform(1, 3))
    spec_zero_noise = SystemSpec(2.0, Uniform(1, 3), process_noise_std=0.0,
                                 obs_noise_std=0.0)
    a = simulate(spec_plain, StrategySpec("linear", d=-0.4), 80, 400, seed=9)
    b = simulate(spec_zero_noise, StrategySpec("linear", d=-0.4), 80, 400, seed=9)
    assert np.array_equal(a.mean_log2_ratio, b.mean_log2_ratio)
    assert np.array_equal(a.log2_moments[2.0], b.log2_moments[2.0])


def test_threshold_scan_brackets_capacity():
    cap = shannon_capacity(Uniform(1, 3))
    grid = [2 ** (cap.value_bits - 0.15), 2 ** (cap.value_bits + 0.15)]
    points, reported = threshold_scan(Uniform(1, 3), "shannon", grid,
                                      horizon=800, paths=3000, seed=1)
    assert points[0].verdict == "stable"
    assert points[1].verdict == "unstable"
    assert reported.value_bits == cap.value_bits
    assert all(isinstance(p, ScanPoint) for p in points)


def test_threshold_scan_erasure_second_moment():
    points, cap = threshold_scan(ScaledBernoulli(1, 0.5), "eta",
                                 [1.35, 1.45], eta=2.0, horizon=8,
                                 paths=300_000, seed=2)
    assert cap.value_bits == pytest.approx(0.5, abs=1e-8)
    assert points[0].verdict == "stable"
    assert points[1].verdict == "unstable"
    assert points[0].slope_bits == pytest.approx(math.log2(1.35**2 * 0.5) / 2,
                                                 abs=0.04)
    assert points[1].slope_bits == pytest.approx(math.log2(1.45**2 * 0.5) / 2,
                                                 abs=0.04)


def test_strong_converse_all_strategies_blow_up():
    dist = Uniform(1, 3)
    cap = shannon_capacity(dist).value_bits
    rep = strong_converse_experiment(dist, 2 ** (cap + 0.5), [1e6],
                                     horizon=600, paths=2000, seed=4)
    for name, r in rep.reports.items():
        assert r.fractions[1e6][-1] >= 0.99, name


def test_strong_converse_below_capacity_stays_tight():
    dist = Uniform(1, 3)
    cap = shannon_capacity(dist)
    spec = SystemSpec(2 ** (cap.value_bits - 0.5), dist)
    rep = simulate(spec, StrategySpec("linear", d=cap.optimal_d),
                   horizon=600, paths=2000, threshold=1e6, seed=4)
    assert float(np.max(rep.fractions[1e6])) < 0.05


def test_strong_converse_rejects_margin_and_atoms():
    dist = Uniform(1, 3)
    with pytest.raises(ValueError):
        strong_converse_experiment(dist, 2.0, [1e6], horizon=10, paths=10)
    with pytest.raises(ValueError):
        strong_converse_experiment(ScaledBernoulli(1, 0.5), 100.0, [1e6],
                                   horizon=10, paths=10)


def test_additive_noise_bounded_and_divergent():
    ok = additive_noise_check(Uniform(2, 6), 2.0, 2.0, horizon=3000,
                              paths=1000, seed=0)
    assert ok.verdict == "bounded"
    assert ok.sup_log2_moment <= ok.ceiling_log2
    bad = additive_noise_check(Uniform(2, 6), 4.0, 2.0, horizon=16,
                               paths=200_000, seed=0)
    assert bad.verdict == "unbounded"


@pytest.mark.parametrize("std", [0.01, 0.3, 1.0, 2.5, 10.0])
@pytest.mark.parametrize("eta", [0.5, 1.0, 2.0, 3.0, 8.0, 64.0, 120.0])
def test_abs_gauss_moment_matches_gamma_form(std, eta):
    want = std**eta * 2.0 ** (eta / 2.0) * special.gamma((eta + 1) / 2) / math.sqrt(math.pi)
    assert 2.0 ** _log2_abs_gauss_moment(std, eta) == pytest.approx(want, rel=1e-12)


def test_abs_gauss_moment_near_the_top_of_the_float_range():
    want = 2.0**150 * special.gamma(150.5) / math.sqrt(math.pi)  # about 1e306
    assert 2.0 ** _log2_abs_gauss_moment(1.0, 300.0) == pytest.approx(want, rel=1e-12)


def test_moment_ceiling_is_finite_past_the_float_range():
    # at eta = 400 the noise moment 2^200 Gamma(200.5)/sqrt(pi) is past the
    # float range (math.gamma itself overflows past 171.6), its log2 is not
    log2_noise = 200.0 + (special.gammaln(200.5) - 0.5 * math.log(math.pi)) / math.log(2.0)
    assert _log2_abs_gauss_moment(1.0, 400.0) == pytest.approx(log2_noise, rel=1e-12)
    assert _log2_abs_gauss_moment(0.0, 400.0) == -math.inf
    # a = 1, d = -1/2 on U(1,3): E|1 - B/2|^eta = 2^-eta / (eta + 1) and
    # log2 E|B|^eta is about 626, so the noise moment is the largest one
    eta, root = 400.0, 0.5 * 401.0 ** (-1.0 / 400.0)
    want = (-eta * math.log2(1.0 - root) + log2_noise
            + eta * math.log2(1.0 + 0.5 * 2.0 ** (log2_noise / eta)))
    got = _moment_ceiling_log2(Uniform(1, 3), 1.0, eta, -0.5, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_scaling_equivalence_trivial_cases():
    assert scaling_equivalence_check(Uniform(1, 3), 2.0, 0.0, 200, seed=0) == 0.0
    assert scaling_equivalence_check(Uniform(1, 3), 1.0, -0.4, 200, seed=0) == 0.0


def test_scaling_equivalence_random_cases():
    rng = make_rng(99)
    dists = [Uniform(1, 3), Gaussian(4, 1), Uniform(-2, 5), Gaussian(-1, 2)]
    worst = 0.0
    for trial in range(20):
        dist = dists[trial % len(dists)]
        a = 1.0 + 7.0 * rng.random()
        d = -1.0 + 2.0 * rng.random()
        worst = max(worst,
                    scaling_equivalence_check(dist, a, d, 200, seed=trial))
    assert worst <= 1e-9


def test_report_serialization_round_trip():
    rep = simulate(SystemSpec(2.0, Uniform(1, 3)), StrategySpec("linear", d=-0.4),
                   horizon=5, paths=10, eta_list=(2.0,), seed=0)
    rows = list(rep.csv_rows())
    assert len(rows) == 6
    assert rows[0][0] == 0 and rows[0][1] == 0.0
