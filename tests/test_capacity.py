import math

import numpy as np
import pytest
from scipy import special, stats

from actcap.capacity import (
    CapacityQuery,
    capacity_curve,
    eta_capacity,
    eta_objective,
    maximize_over_d,
    second_moment_closed_form,
    shannon_capacity,
    shannon_objective,
    zero_error_capacity,
)
from actcap.distributions import (
    Empirical,
    FiniteMixture,
    Gaussian,
    ScaledBernoulli,
    TruncatedGaussian,
    Uniform,
    make_rng,
)

LOG2 = math.log(2.0)
SQRT3 = math.sqrt(3.0)


# --- independent oracles for the uniform family ------------------------------

def uniform_log_objective(b1, b2, d):
    """Closed-form E[-log2 |1 + B d|] for B ~ Uniform(b1, b2).

    Uses the antiderivative x ln|x| - x, which is continuous through 0,
    so it is valid whether or not 1 + B d changes sign.
    """
    if d == 0:
        return 0.0
    t1, t2 = 1 + b1 * d, 1 + b2 * d

    def anti(x):
        return 0.0 if x == 0 else x * math.log(abs(x)) - x

    return -(anti(t2) - anti(t1)) / (t2 - t1) / LOG2


def uniform_eta_objective(b1, b2, d, eta):
    """Closed-form -(1/eta) log2 E[|1 + B d|^eta] for B ~ Uniform(b1, b2)."""
    if d == 0:
        return 0.0
    t1, t2 = 1 + b1 * d, 1 + b2 * d

    def anti(x):
        return math.copysign(abs(x) ** (eta + 1), x) / (eta + 1)

    return -math.log2((anti(t2) - anti(t1)) / (t2 - t1)) / eta


def uniform_eta_objective_log(b1, b2, d, eta):
    """uniform_eta_objective in log space: no under- or overflow at any eta."""
    t1, t2 = sorted((1 + b1 * d, 1 + b2 * d))
    logs = [(eta + 1) * math.log(abs(t)) if t else -math.inf for t in (t1, t2)]
    hi, lo = max(logs), min(logs)
    if t1 * t2 <= 0:  # the antiderivative values add
        log_num = hi + math.log1p(math.exp(lo - hi))
    else:
        log_num = hi + math.log(-math.expm1(lo - hi))
    return -(log_num - math.log((eta + 1) * (t2 - t1))) / (eta * LOG2)


def gaussian_log_objective(mu, sigma, d):
    """Closed-form E[-log2 |1 + B d|] for B ~ N(mu, sigma^2).

    1 + B d ~ N(m, s^2), and (1 + B d)^2 / s^2 is noncentral chi^2 with one
    degree of freedom, a Poisson mixture of central ones:
    E ln (1 + B d)^2 = ln 2 s^2 + sum_j Pois(j; m^2 / 2 s^2) digamma(1/2 + j).
    """
    m, s = 1 + mu * d, sigma * abs(d)
    lam = m * m / (2 * s * s)
    reach = 40 * math.sqrt(lam) + 40
    j = np.arange(max(0, int(lam - reach)), int(lam + reach) + 1)
    mixture = float(np.sum(stats.poisson.pmf(j, lam) * special.digamma(0.5 + j)))
    return -(math.log(2 * s * s) + mixture) / (2 * LOG2)


def gain_hitting(target):
    """A gain d with -1/d == target exactly, searched over nearby floats."""
    d = -1.0 / target
    up = down = d
    near = [d]
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    return next(float(c) for c in near if -1.0 / c == target)


def brute_force_max(objective, lo, hi, n=1_000_000):
    grid = np.linspace(lo, hi, n)
    vals = np.array([objective(d) for d in grid])
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i])


# --- objectives ---------------------------------------------------------------

def test_shannon_objective_matches_uniform_closed_form():
    for d in (-0.9, -0.5, -0.417, -0.2, 0.3):
        got = shannon_objective(Uniform(1, 3), d)
        want = uniform_log_objective(1, 3, d)
        assert got == pytest.approx(want, abs=1e-9)


def test_shannon_objective_symmetric_window():
    # the balanced gain maps 1 + B d onto Uniform(-c, c): value (1 - ln c)/ln 2
    b1, b2 = 2.0, 6.0
    d = -2.0 / (b1 + b2)
    c = (b2 - b1) / (b1 + b2)
    got = shannon_objective(Uniform(b1, b2), d)
    assert got == pytest.approx((1 - math.log(c)) / LOG2, rel=1e-9)
    # window of half-width 0.4472 = 1/sqrt(5) gives 2.6036 bits
    c = 1 / math.sqrt(5)
    b2 = (1 + c) / (1 - c)
    got = shannon_objective(Uniform(1, b2), -2.0 / (1 + b2))
    assert got == pytest.approx((1 - math.log(c)) / LOG2, rel=1e-9)
    assert got == pytest.approx(2.6036, abs=2e-4)


def test_objectives_zero_at_zero_gain():
    assert shannon_objective(Gaussian(4, 1), 0.0) == 0.0
    assert eta_objective(Uniform(1, 3), 0.0, 7.0) == 0.0


def test_shannon_objective_atom_hit_is_infinite():
    assert shannon_objective(ScaledBernoulli(2, 0.5), -0.5) == math.inf


def test_eta_objective_erasure_two_point():
    # at d = -1/beta the only surviving term is the miss probability
    for p in (0.1, 0.5, 0.9):
        for eta in (0.5, 1.0, 2.0, 4.0):
            got = eta_objective(ScaledBernoulli(3, p), -1 / 3, eta)
            assert got == pytest.approx(-math.log2(1 - p) / eta, abs=1e-12)


def test_eta_objective_gaussian_second_moment_optimum():
    mu, sig = 4.0, 1.0
    d = -mu / (mu * mu + sig * sig)
    got = eta_objective(Gaussian(mu, sig), d, 2.0)
    assert got == pytest.approx(0.5 * math.log2(1 + mu * mu / sig**2), rel=1e-9)


def test_eta_objective_log_space_matches_direct():
    # the log-sum-exp objective must agree with a direct expectation of
    # |1 + B d|^eta over the same node set
    dist = Uniform(1, 3)
    for d in (-0.497, -0.3):
        direct = -math.log2(dist.expect(lambda b: abs(1 + b * d) ** 8.0,
                                        (-1 / d,))) / 8.0
        assert eta_objective(dist, d, 8.0) == pytest.approx(direct, abs=1e-9)


# --- the node set against exact closed forms --------------------------------

SCALES = np.geomspace(1e-3, 1e2, 25)
GAINS = [*(-SCALES), *SCALES]


@pytest.mark.parametrize("b1, b2, hits", [
    # -1/d at each edge, inside, 1 ulp outside the lower edge and 1 ulp
    # inside the upper one
    (1.5, 3.5, [1.5, 3.5, 2.5, 1.5 + 1e-9, np.nextafter(1.5, -np.inf),
                np.nextafter(3.5, -np.inf)]),
    (-1.0, 3.0, [-1.0, 3.0, 0.5, np.nextafter(-1.0, -np.inf),
                 np.nextafter(3.0, -np.inf)]),
])
def test_node_set_matches_uniform_closed_forms(b1, b2, hits):
    dist = Uniform(b1, b2)
    for d in GAINS + [gain_hitting(t) for t in hits]:
        assert shannon_objective(dist, d) == pytest.approx(
            uniform_log_objective(b1, b2, d), abs=1e-10)
        for eta in (0.01, 0.5, 2.0, 64.0, 1024.0):
            assert eta_objective(dist, d, eta) == pytest.approx(
                uniform_eta_objective_log(b1, b2, d, eta), abs=1e-10)


def test_node_set_matches_gaussian_closed_forms():
    # the law is cut at mu +- 10 sigma: -1/d at mu, at a cut, 1 ulp outside
    # a cut, and between; below |d| = 1e-2 the Poisson sum itself loses digits
    mu, sigma = 3.5, 1.0
    dist = Gaussian(mu, sigma)
    hits = [mu, 4.0, -6.5, 13.5, np.nextafter(-6.5, -np.inf)]
    scales = np.geomspace(1e-2, 1e2, 25)
    for d in [*(-scales), *scales] + [gain_hitting(t) for t in hits]:
        second = (1 + mu * d) ** 2 + (sigma * d) ** 2
        assert eta_objective(dist, d, 2.0) == pytest.approx(
            -0.5 * math.log2(second), abs=1e-10)
        assert shannon_objective(dist, d) == pytest.approx(
            gaussian_log_objective(mu, sigma, d), abs=1e-9)


# --- maximizer ----------------------------------------------------------------

def test_maximize_matches_brute_force_uniform_2_6():
    # frozen from a 1e6-point closed-form grid scan plus local refinement:
    # d* = -0.20877943..., value = 2.58704615... bits
    query = CapacityQuery(d_search_halfwidth=2.0, coarse_grid_points=1001)
    d_star, val, diag = maximize_over_d(
        lambda d: uniform_log_objective(2, 6, d), query, centers=(0.0, -0.25)
    )
    assert val == pytest.approx(2.5870461584325, abs=1e-9)
    assert d_star == pytest.approx(-0.2087794, abs=1e-5)
    assert val > uniform_log_objective(2, 6, -0.25)  # beats the minimax start
    assert not diag["bound_hit"]


def test_maximize_flags_boundary():
    query = CapacityQuery(d_search_halfwidth=0.05, coarse_grid_points=101)
    _, _, diag = maximize_over_d(
        lambda d: uniform_log_objective(2, 6, d), query
    )
    assert diag["bound_hit"]


def test_maximize_tie_breaks_toward_small_d():
    query = CapacityQuery(d_search_halfwidth=1.0, coarse_grid_points=101,
                          refine_tolerance=1e-12)
    d_star, val, diag = maximize_over_d(lambda d: 0.0, query)
    assert val == 0.0
    assert d_star == 0.0
    assert diag["flat"]


def test_boundary_hit_triggers_doubling_retry():
    query = CapacityQuery(d_search_halfwidth=0.1, coarse_grid_points=201)
    res = shannon_capacity(Uniform(1, 3), query)
    # the optimum near -0.4176 is outside the initial window but reachable
    # after doubling the half-width
    assert res.diagnostics["doublings"] >= 2
    assert not res.diagnostics["bound_hit"]
    assert res.optimal_d == pytest.approx(-0.4176, abs=1e-3)


def test_query_validation():
    with pytest.raises(ValueError):
        CapacityQuery(coarse_grid_points=100)  # even
    with pytest.raises(ValueError):
        CapacityQuery(coarse_grid_points=51)  # too few
    with pytest.raises(ValueError):
        CapacityQuery(sense="eta")  # missing eta


# --- capacities ----------------------------------------------------------------

def test_shannon_capacity_atom_rule():
    res = shannon_capacity(ScaledBernoulli(2, 0.5))
    assert res.value_bits == math.inf
    assert res.optimal_d is None


def test_shannon_capacity_uniform_1_3():
    # frozen oracle: closed-form objective maximized to machine precision
    res = shannon_capacity(Uniform(1, 3))
    assert res.value_bits == pytest.approx(2.5870461584325, abs=1e-7)
    assert res.optimal_d == pytest.approx(-0.4175588, abs=1e-4)


def test_shannon_capacity_reference_channels():
    uni = shannon_capacity(Uniform(4 - SQRT3, 4 + SQRT3))
    assert uni.value_bits == pytest.approx(2.7635, abs=0.02)
    gau = shannon_capacity(Gaussian(4, 1))
    assert gau.value_bits == pytest.approx(2.9586, abs=0.02)


def test_capacity_result_reproducible_at_optimum():
    res = shannon_capacity(Uniform(1, 3))
    again = shannon_objective(Uniform(1, 3), res.optimal_d)
    assert again == pytest.approx(res.value_bits, abs=1e-8)


def test_zero_error_closed_forms():
    res = zero_error_capacity(Uniform(1, 3))
    assert res.value_bits == pytest.approx(1.0, abs=1e-12)
    assert res.optimal_d == pytest.approx(-0.5, abs=1e-15)
    assert zero_error_capacity(Uniform(-1, 3)).value_bits == 0.0
    assert zero_error_capacity(Uniform(-1, 3)).optimal_d == 0.0
    assert zero_error_capacity(Gaussian(4, 1)).value_bits == 0.0
    ratio4 = zero_error_capacity(Uniform(4 - SQRT3, 4 + SQRT3))
    assert ratio4.value_bits == pytest.approx(math.log2(4 / SQRT3), abs=1e-12)
    assert ratio4.value_bits == pytest.approx(1.2075, abs=1e-4)


def test_zero_error_minimax_brute_force():
    # the closed-form d must minimize max(|1+b1 d|, |1+b2 d|) on a fine grid
    b1, b2 = 1.0, 3.0
    d_grid = np.linspace(-2, 1, 10_000)
    worst = np.maximum(np.abs(1 + b1 * d_grid), np.abs(1 + b2 * d_grid))
    best = d_grid[int(np.argmin(worst))]
    assert best == pytest.approx(-2 / (b1 + b2), abs=3e-4)  # grid resolution
    assert float(np.min(worst)) == pytest.approx((b2 - b1) / (b1 + b2), abs=1e-3)


def test_zero_error_point_mass_infinite():
    assert zero_error_capacity(Empirical((2.0,))).value_bits == math.inf


def test_eta_capacity_erasure_analytic():
    for p in (0.1, 0.5, 0.9):
        for eta in (0.5, 1.0, 2.0, 4.0):
            res = eta_capacity(ScaledBernoulli(1, p), eta)
            assert res.value_bits == pytest.approx(-math.log2(1 - p) / eta,
                                                   abs=1e-8)


def test_eta_capacity_gaussian_second_moment():
    res = eta_capacity(Gaussian(4, 1), 2.0)
    assert res.value_bits == pytest.approx(0.5 * math.log2(17), abs=1e-9)
    assert res.optimal_d == pytest.approx(-4 / 17, abs=1e-6)


def test_eta_capacity_symmetric_law_picks_zero():
    res = eta_capacity(Uniform(-1, 1), 2.0)
    assert res.value_bits == pytest.approx(0.0, abs=1e-10)
    assert abs(res.optimal_d) < 1e-6


def test_second_moment_closed_form():
    res = second_moment_closed_form(Uniform(1, 3))
    assert res.value_bits == pytest.approx(0.5 * math.log2(13), rel=1e-12)
    assert res.optimal_d == pytest.approx(-6 / 13, rel=1e-12)
    zero_mean = second_moment_closed_form(Uniform(-1, 1))
    assert zero_mean.value_bits == 0.0 and zero_mean.optimal_d == 0.0
    snr1 = second_moment_closed_form(ScaledBernoulli(1, 0.5))
    assert snr1.value_bits == pytest.approx(0.5, rel=1e-12)
    degenerate = second_moment_closed_form(Empirical((2.0,)))
    assert degenerate.value_bits == math.inf and degenerate.optimal_d is None


@pytest.mark.parametrize("dist,want", [
    (Gaussian(0.0, 1e-300), 0.0),
    (Gaussian(1e-300, 1e-300), 0.5),
    (Uniform(0.0, 1e-200), 1.0),
    (ScaledBernoulli(1e-200, 0.5), 0.5),
])
def test_second_moment_closed_form_survives_variance_underflow(dist, want):
    # var = sigma^2 underflows to 0 here; the law is still not degenerate
    res = second_moment_closed_form(dist)
    assert res.value_bits == pytest.approx(want, abs=1e-15)
    assert math.isfinite(res.optimal_d)


def _tiny_scale_twins(s):
    """Each gain law scaled by s."""
    return [
        Uniform(1 * s, 3 * s),
        Gaussian(4 * s, 1 * s),
        ScaledBernoulli(2 * s, 0.3),
        TruncatedGaussian(1 * s, 1 * s, 0.0, 3 * s),
        Empirical((1 * s, 3 * s)),
        Empirical(tuple(v * s for v in (0.5, 1.25, 1.25, 4.0, 7.5))),
        FiniteMixture(((0.5, Gaussian(0.0, 1 * s)), (0.5, Gaussian(1 * s, 1 * s)))),
        FiniteMixture(((0.3, Uniform(1 * s, 3 * s)),
                       (0.7, ScaledBernoulli(2 * s, 0.4)))),
    ]


def test_second_moment_is_scale_free_down_to_tiny_scales():
    # var underflows at scale 1e-300, so sigma must be formed in scaled units
    for tiny, unit in zip(_tiny_scale_twins(1e-300), _tiny_scale_twins(1.0)):
        got = second_moment_closed_form(tiny).value_bits
        want = second_moment_closed_form(unit).value_bits
        assert math.isfinite(got), tiny
        assert got == pytest.approx(want, abs=1e-12), tiny


def test_empirical_capacity_values_pinned():
    law = Empirical(tuple(Uniform(1, 3).sample(make_rng(3), 30)))
    for eta, value, d_star in ((2.0, 1.8962735718009844, -0.4310410721831485),
                               (0.5, 2.4346426879259773, -0.3727610685521455)):
        res = eta_capacity(law, eta)
        assert res.value_bits == pytest.approx(value, rel=1e-13)
        assert res.optimal_d == pytest.approx(d_star, rel=1e-9)


def test_second_moment_cross_check_families():
    dists = [Uniform(1, 3), Gaussian(4, 1), ScaledBernoulli(2, 0.3)]
    for dist in dists:
        closed = second_moment_closed_form(dist)
        numeric = eta_capacity(dist, 2.0)
        assert numeric.value_bits == pytest.approx(closed.value_bits, abs=1e-6)
        assert numeric.optimal_d == pytest.approx(closed.optimal_d, abs=1e-6)


def test_capacity_curve_monotone():
    pts = capacity_curve(Uniform(1, 3), [0.01, 1.0, 2.0, 8.0, 64.0])
    values = [v for _, v in pts]
    assert all(a >= b - 1e-7 for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0  # approaches the zero-error value from above
    assert pts[2][1] == pytest.approx(0.5 * math.log2(13), abs=1e-6)


def test_capacity_curve_erasure_analytic():
    pts = capacity_curve(ScaledBernoulli(2, 0.3), [1.0, 2.0, 4.0])
    for (eta, value) in pts:
        assert value == pytest.approx(-math.log2(0.7) / eta, abs=1e-8)


def test_eta_ordering_property():
    dist = Gaussian(2, 1)
    values = [eta_capacity(dist, e).value_bits for e in (0.5, 1.0, 3.0, 9.0)]
    assert all(a >= b - 1e-7 for a, b in zip(values, values[1:]))


def test_scale_covariance():
    base = shannon_capacity(Uniform(1, 3))
    scaled = shannon_capacity(Uniform(5, 15))  # 5 * Uniform(1, 3)
    assert scaled.value_bits == pytest.approx(base.value_bits, abs=1e-7)
    assert scaled.optimal_d == pytest.approx(base.optimal_d / 5, abs=1e-6)
    base2 = eta_capacity(Uniform(1, 3), 2.0)
    scaled2 = eta_capacity(Uniform(0.5, 1.5), 2.0)  # 0.5 * Uniform(1, 3)
    assert scaled2.value_bits == pytest.approx(base2.value_bits, abs=1e-7)
    assert scaled2.optimal_d == pytest.approx(base2.optimal_d * 2, abs=1e-6)


def test_nonnegativity_including_mixtures():
    mix = FiniteMixture(((0.5, Uniform(-2, -1)), (0.5, Uniform(1, 2))))
    for res in (shannon_capacity(mix), eta_capacity(mix, 1.5),
                zero_error_capacity(mix)):
        assert res.value_bits >= 0.0
