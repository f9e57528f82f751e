import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from actcap import distributions
from actcap.capacity import (
    _BACKBONE,
    _PER_CENTER,
    _WINDOW,
    _build_grid,
    _grid_centers,
    _maximize_convex,
    _unit,
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
    parse_spec,
)
from actcap.sideinfo import model_from_boundaries, si_value_curve
from actcap.simulate import _moment_ceiling_log2
from node_oracle import expect, quadrature_nodes

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


def node_set_logs(dist, shift, d, eta=0.0):
    """ln|shift + b d| at the law's own nodes, with -shift/d declared
    singular, and the node weights.  A node that cancellation zeroes reads
    one ulp of the products, as the node-set objectives in actcap do."""
    nodes, weights, _ = quadrature_nodes(dist, (-shift / d,), eta)
    with np.errstate(over="ignore"):  # |b d| past the float range reads inf
        bd = nodes * d
    t = np.maximum(np.abs(shift + bd),
                   2.3e-16 * np.maximum(abs(shift), np.abs(bd)))
    return np.log(t), weights


def node_set_mean_log(dist, shift, d):
    """E ln|shift + B d| over the node set, normalised by the weights'
    total, so a narrow law's rounded panel widths cancel."""
    logs, weights = node_set_logs(dist, shift, d)
    return float(weights @ logs) / float(weights.sum())


def node_set_log_moment(dist, shift, d, eta):
    """ln E|shift + B d|^eta over the node set, as log1p of the mean expm1
    term below the largest, so tiny eta keeps its digits.  Where the largest
    term carries little weight (a far Gaussian node at high eta) that mean
    nears -1 and log1p loses it, so the mean exp term is summed instead."""
    logs, weights = node_set_logs(dist, shift, d, eta)
    logs *= eta
    top = float(logs.max())
    if math.isinf(top):
        return top
    excess = float(weights @ np.expm1(logs - top)) / float(weights.sum())
    if excess > -0.5:
        return top + math.log1p(excess)
    return top + math.log(float(weights @ np.exp(logs - top))
                          / float(weights.sum()))


def quad_mean(dist, shift, d, g):
    """E g(ln|shift + B d|) for a uniform law by quad over x = (B - b1) /
    (b2 - b1), split at the singular point x0 of -shift/d (the split that
    ``points=[-shift/d]`` asks for).

    Over b itself the nodes next to the point round to the ulps of b,
    coarse against a narrow law (1.1e-9 bits off at eta = 1e-3 on a 2e-6
    wide law), and QUADPACK's QAGP, given the point, loses 4e-4 of the
    Shannon value when it lies two ulps inside an end.  So inside the
    support t = w (x - x0), w = d (b2 - b1), is integrated over u = x - x0,
    where it is exact next to the point; outside, t = (1 - x) t1 + x t2
    never cancels."""
    b1, b2 = dist.b1, dist.b2
    hit = -shift / d
    if b1 < hit < b2:
        x0 = (hit - b1) / (b2 - b1)
        log_w = math.log(abs(d * (b2 - b1)))
        cuts = [-x0, 0.0, 1.0 - x0]

        def log_t(u):
            return log_w + math.log(abs(u)) if u else -math.inf
    else:
        t1, t2 = shift + b1 * d, shift + b2 * d
        cuts = [0.0, 1.0]

        def log_t(x):
            t = abs((1.0 - x) * t1 + x * t2)
            return math.log(t) if t else -math.inf
    with warnings.catch_warnings():
        # a piece between an end and a point a few ulps away reports
        # "extremely bad integrand behavior"; it carries below 1e-13
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total = sum(integrate.quad(lambda v: g(log_t(v)), lo, hi, limit=200,
                                   epsabs=1e-14, epsrel=1e-12)[0]
                    for lo, hi in zip(cuts, cuts[1:]))
    return total / (cuts[-1] - cuts[0])


def quad_mean_log(dist, shift, d):
    """E ln|shift + B d| by quad."""
    return quad_mean(dist, shift, d, lambda log_t: max(log_t, -745.0))


def quad_log_moment(dist, shift, d, eta):
    """ln E|shift + B d|^eta by quad, scaled by the larger end's power and
    integrated as expm1 terms, as node_set_log_moment sums them."""
    top = eta * math.log(max(abs(shift + dist.b1 * d), abs(shift + dist.b2 * d)))
    return top + math.log1p(quad_mean(
        dist, shift, d, lambda log_t: math.expm1(eta * log_t - top)))


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
    # -1/d is the atom exactly, though 1 + b d rounds to 1.1e-16, not 0
    beta = 1.3265940902021773
    assert 1.0 + beta * (-1.0 / beta) != 0.0
    assert shannon_objective(ScaledBernoulli(beta, 0.5), -1.0 / beta) == math.inf


def test_eta_objective_erasure_two_point():
    # at d = -1/beta the only surviving term is the miss probability
    for p in (0.1, 0.5, 0.9):
        for eta in (0.5, 1.0, 2.0, 4.0):
            got = eta_objective(ScaledBernoulli(3, p), -1 / 3, eta)
            assert got == pytest.approx(-math.log2(1 - p) / eta, abs=1e-12)


_ROUNDING_ATOM = 1.3265940902021773  # 1 + beta (-1/beta) is 1.1e-16, not 0


@pytest.mark.parametrize("law,miss", [
    (ScaledBernoulli(_ROUNDING_ATOM, 0.7), 0.3),
    (Empirical((0.0, _ROUNDING_ATOM, _ROUNDING_ATOM)), 1.0 / 3.0),
], ids=["erasure", "empirical"])
def test_eta_capacity_cancels_an_atom_at_its_kink(law, miss):
    # the search evaluates the kink d = -1/beta, where the atom at beta
    # cancels as in exact arithmetic: only the miss mass at 0 is left.  A
    # residual |1.1e-16|^eta would keep most of the mass at small eta
    for eta in (0.01, 0.5, 2.0):
        got = eta_capacity(law, eta).value_bits
        assert got == pytest.approx(-math.log2(miss) / eta, abs=1e-12)


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
        direct = -math.log2(expect(dist, lambda b: abs(1 + b * d) ** 8.0,
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
    # the node set itself, which every law without a closed form sums
    dist = Uniform(b1, b2)
    for d in GAINS + [gain_hitting(t) for t in hits]:
        assert -node_set_mean_log(dist, 1.0, d) / LOG2 == pytest.approx(
            uniform_log_objective(b1, b2, d), abs=1e-10)
        for eta in (0.01, 0.5, 2.0, 64.0, 1024.0):
            assert (-node_set_log_moment(dist, 1.0, d, eta) / (eta * LOG2)
                    == pytest.approx(uniform_eta_objective_log(b1, b2, d, eta),
                                     abs=1e-10))


CLOSED_FORM_ETAS = (1e-3, 0.01, 0.5, 2.0, 64.0, 1024.0)
WIDE_GAINS = [*np.geomspace(1e-12, 1e12, 13), *-np.geomspace(1e-12, 1e12, 13)]


def end_gains(*ends):
    """The gains whose -1/d is each end exactly, and the gains one ulp on
    either side of those."""
    hits = [gain_hitting(e) for e in ends]
    return [g for h in hits for g in
            (h, float(np.nextafter(h, -np.inf)), float(np.nextafter(h, np.inf)))]


@pytest.mark.parametrize("law, gains, quad_only", [
    (Uniform(1.5, 3.5), WIDE_GAINS + end_gains(1.5, 3.5), []),
    (Uniform(-1.0, 3.0), WIDE_GAINS + end_gains(-1.0, 3.0), []),
    # (b2 - b1) / b1 = 1e-6.  With -1/d in the middle, the node set's graded
    # panels sit at positions rounded to 4.4e-16 against a 2e-6 support, and
    # it reads 6.6e-9 bits off; quad and the closed form agree to 1e-10
    (Uniform(2.0, 2.000002), WIDE_GAINS, [gain_hitting(2.000001)]),
], ids=["positive", "signed", "narrow"])
def test_uniform_closed_form_matches_node_set_and_quad(law, gains, quad_only):
    # shift 1 is the capacity objective, shift 0 the moment of B itself read
    # by the additive-noise ceiling; each value is compared in bits, the
    # moment after its division by eta
    cases = ([(1.0, d, True) for d in gains] + [(1.0, d, False) for d in quad_only]
             + [(0.0, d, True) for d in (1.0, -3.0, 1e-12, 1e12)])
    for shift, d, node_set in cases:
        got = law.mean_log_abs(shift, d)
        assert got == pytest.approx(quad_mean_log(law, shift, d),
                                    abs=1e-9 * LOG2), (shift, d)
        if node_set:
            assert got == pytest.approx(node_set_mean_log(law, shift, d),
                                        abs=1e-10 * LOG2), (shift, d)
        if shift == 1.0:
            assert shannon_objective(law, d) == -got / LOG2
        for eta in CLOSED_FORM_ETAS:
            got = law.log_abs_moment(shift, d, eta)
            assert got == pytest.approx(quad_log_moment(law, shift, d, eta),
                                        abs=1e-9 * eta * LOG2), (shift, d, eta)
            if node_set:
                assert got == pytest.approx(
                    node_set_log_moment(law, shift, d, eta),
                    abs=1e-10 * eta * LOG2), (shift, d, eta)
            if shift == 1.0:
                assert eta_objective(law, d, eta) == -got / (eta * LOG2)


@pytest.mark.parametrize("b1, d", [(1.0, 1e308), (1.0, -1e308), (1.0, 6e307),
                                   (2.0, 1e308), (-3.0, 1e308)])
def test_uniform_closed_form_past_the_float_range_reads_minus_inf(b1, d):
    # |b d| past the float range at one end, or at both (b1 = 2, and b1 = -3
    # with opposite signs): the objectives read -inf, as the node set
    law = Uniform(b1, 3.0)
    assert shannon_objective(law, d) == -math.inf
    assert -node_set_mean_log(law, 1.0, d) == -math.inf
    for eta in CLOSED_FORM_ETAS:
        assert eta_objective(law, d, eta) == -math.inf
        assert -node_set_log_moment(law, 1.0, d, eta) == -math.inf


def test_uniform_closed_form_with_both_ends_rounded_to_zero():
    # on a one-ulp law, 1 + b d can round to 0 at both ends; the range then
    # reads [0, |d| (b2 - b1)] instead of failing in math.log(0)
    b1 = 1.434567283641821
    law, d = Uniform(b1, float(np.nextafter(b1, np.inf))), -0.697074310422987
    assert 1.0 + law.b1 * d == 1.0 + law.b2 * d == 0.0
    width = abs(d) * (law.b2 - law.b1)
    assert law.mean_log_abs(1.0, d) == math.log(width) - 1.0
    assert law.log_abs_moment(1.0, d, 2.0) == 2.0 * math.log(width) - math.log(3.0)


def test_node_set_matches_gaussian_closed_forms():
    # the Shannon window cuts the law at mu +- 10 sigma: -1/d at mu, at a
    # cut, 1 ulp outside a cut, and between; below |d| = 1e-2 the Poisson sum
    # itself loses digits.  The Gaussian's own log mean is a closed form, so
    # the truncated-Gaussian kernel sums the node set here.
    mu, sigma = 3.5, 1.0
    dist = Gaussian(mu, sigma)
    hits = [mu, 4.0, -6.5, 13.5, np.nextafter(-6.5, -np.inf)]
    scales = np.geomspace(1e-2, 1e2, 25)
    for d in [*(-scales), *scales] + [gain_hitting(t) for t in hits]:
        second = (1 + mu * d) ** 2 + (sigma * d) ** 2
        assert eta_objective(dist, d, 2.0) == pytest.approx(
            -0.5 * math.log2(second), abs=1e-10)
        node_set = -TruncatedGaussian.mean_log_abs(dist, 1.0, d) / LOG2
        assert node_set == pytest.approx(gaussian_log_objective(mu, sigma, d),
                                         abs=1e-9)
        assert shannon_objective(dist, d) == pytest.approx(node_set, abs=1e-12)


def gaussian_eta_objective_kummer(mu, sigma, d, eta):
    """-(1/eta) log2 E|1 + B d|^eta for B ~ N(mu, sigma^2), from
    E|N(m, s^2)|^eta = s^eta 2^(eta/2) Gamma((eta+1)/2) / sqrt(pi)
    * 1F1(-eta/2; 1/2; -m^2 / 2s^2) with m = 1 + mu d, s = |d| sigma."""
    m, s = 1.0 + mu * d, abs(d) * sigma
    log_e = (eta * math.log(s) + 0.5 * eta * LOG2
             + special.gammaln(0.5 * (eta + 1.0)) - 0.5 * math.log(math.pi)
             + math.log(special.hyp1f1(-0.5 * eta, 0.5, -m * m / (2 * s * s))))
    return -log_e / (eta * LOG2)


def gaussian_eta_objective_quad(mu, sigma, d, eta):
    """The same by quad over mu +- 200 sigma, scaled by the integrand's peak."""
    lo, hi = mu - 200.0 * sigma, mu + 200.0 * sigma

    def log_f(b):
        with np.errstate(divide="ignore"):
            return eta * np.log(np.abs(1.0 + b * d)) - 0.5 * ((b - mu) / sigma) ** 2

    grid = np.linspace(lo, hi, 400_001)
    vals = log_f(grid)
    top = float(vals.max())
    val, _ = integrate.quad(lambda b: math.exp(log_f(b) - top), lo, hi,
                            points=sorted({-1.0 / d, float(grid[vals.argmax()])}),
                            limit=500, epsabs=0.0, epsrel=1e-13)
    log_e = top + math.log(val / (sigma * math.sqrt(2.0 * math.pi)))
    return -log_e / (eta * LOG2)


def test_gaussian_window_grows_with_eta():
    # |1 + b d|^eta moves the integrand's mass out by about sqrt(eta) sigma;
    # a window fixed at mu +- 10 sigma read 4.2e-5 bits high at eta = 64 and
    # 3.4e-3 bits high at eta = 256
    assert eta_objective(Gaussian(4, 1), -0.23, 64.0) == pytest.approx(
        gaussian_eta_objective_kummer(4.0, 1.0, -0.23, 64.0), abs=1e-12)
    # hyp1f1 is not trusted this far out; quad is the oracle
    assert eta_objective(Gaussian(4, 1), -0.05, 256.0) == pytest.approx(
        gaussian_eta_objective_quad(4.0, 1.0, -0.05, 256.0), abs=1e-10)


@pytest.mark.parametrize("eta", [1e3, 1e4, 1e5])
def test_gaussian_window_stops_at_the_float_range(eta):
    # a reach of 10 + sqrt(eta) sigma passes about 38.6 sigma from eta ~ 800,
    # where the node weights underflow to 0, and the capacity read inf
    cap = eta_capacity(Gaussian(4, 1), eta)
    assert cap.value_bits == pytest.approx(
        gaussian_eta_objective_quad(4.0, 1.0, cap.optimal_d, eta), abs=1e-9)


def gaussian_log_abs_moment(mu, sigma, eta):
    """ln E|B|^eta for B ~ N(mu, sigma^2) in the log domain: (B / sigma)^2 is
    a Poisson(m) mixture of central chi-squares with 1 + 2k degrees of
    freedom, m = mu^2 / 2 sigma^2, whose eta/2-th moments are
    2^(eta/2) Gamma(k + 1/2 + eta/2) / Gamma(k + 1/2)."""
    m = 0.5 * (mu / sigma) ** 2
    k = np.arange(2000.0)
    terms = (-m + k * math.log(m) - special.gammaln(k + 1.0) + 0.5 * eta * LOG2
             + special.gammaln(k + 0.5 + 0.5 * eta) - special.gammaln(k + 0.5))
    return eta * math.log(sigma) + float(special.logsumexp(terms))


@pytest.mark.parametrize("eta", [500.0, 2000.0, 5000.0])
def test_gaussian_moment_reaches_past_the_float_range_of_its_density(eta):
    # the mass of |b|^eta lies near sqrt(eta) sigma; a window stopped at
    # 36.5 sigma, with weights from the linear density, read 61 bits low at
    # eta = 2000 and 1,780 bits low at 5000
    assert Gaussian(4, 1).log_abs_moment(0.0, 1.0, eta) == pytest.approx(
        gaussian_log_abs_moment(4.0, 1.0, eta), rel=1e-13)


def gaussian_mean_log(mu, sigma, shift, d):
    """E ln|shift + B d| for B ~ N(mu, sigma^2), where shift + B d =
    d sigma (Z + lam).  Below |lam| = 16 by the Poisson mixture of central
    chi-squares, ln|d sigma| + (ln 2 + sum_k Pois(k; lam^2 / 2)
    digamma(k + 1/2)) / 2; beyond, where that sum loses digits, as
    ln|shift + d mu| + E ln|1 + Z / lam|, the latter folded onto Z >= 0 as
    E ln|1 - Z^2 / lam^2| (the odd part would cancel in quad), by quad
    split at |lam|."""
    lam = (mu + shift / d) / sigma
    if abs(lam) < 16.0:
        m = 0.5 * lam * lam
        k = np.arange(int(m + 40.0 * math.sqrt(m) + 40.0))
        mixture = float(np.sum(stats.poisson.pmf(k, m) * special.digamma(0.5 + k)))
        return math.log(abs(d) * sigma) + 0.5 * (LOG2 + mixture)

    def weighted(z):
        u = (z / lam) ** 2
        log_t = math.log1p(-u) if u < 1.0 else math.log(u - 1.0)
        return log_t * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    cuts = sorted({0.0, 40.0, min(abs(lam), 40.0)})
    part = sum(integrate.quad(weighted, lo, hi, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0] for lo, hi in zip(cuts, cuts[1:]))
    return math.log(abs(shift + d * mu)) + part


def _gain_for(lam):
    """(mu, sigma, 1, d) with (mu + 1/d) / sigma near lam."""
    return st.builds(lambda mu, sigma: (mu, sigma, 1.0, 1.0 / (sigma * lam - mu)),
                     st.floats(-8.0, 8.0), st.floats(2.0 ** -4, 4.0)).filter(
        lambda case: math.isfinite(case[3]))


_SIGN = st.sampled_from([-1.0, 1.0])
_GAUSSIAN_CASES = st.one_of(
    # lam exactly 0: mu a power of two, d = -1/mu
    st.builds(lambda sign, j, sigma: (sign * 2.0 ** j, sigma, 1.0, -sign * 2.0 ** -j),
              _SIGN, st.integers(-6, 6), st.floats(2.0 ** -4, 4.0)),
    # |lam| on either side of the switch to the asymptotic series at 8
    st.tuples(_SIGN, st.floats(6.0, 10.0)).flatmap(
        lambda pair: _gain_for(pair[0] * pair[1])),
    # tiny |d|, where ln|d sigma| and ln|lam| would cancel
    st.builds(lambda mu, sigma, sign, e: (mu, sigma, 1.0, sign * 10.0 ** e),
              st.floats(-8.0, 8.0), st.floats(2.0 ** -4, 4.0), _SIGN,
              st.floats(-300.0, -6.0)),
    # |d sigma| = 2^1023 r, which passes the float range from r = 2
    st.builds(lambda mu, sigma, sign, r: (mu, sigma, 1.0,
                                          sign * 2.0 ** 1023 / sigma * r),
              st.floats(-8.0, 8.0), st.floats(4.0, 8.0), _SIGN,
              st.floats(0.25, 4.0)),
    # anything else, with shifts other than 1
    st.builds(lambda mu, sigma, shift, sign, e: (mu, sigma, shift, sign * 10.0 ** e),
              st.floats(-8.0, 8.0), st.floats(2.0 ** -6, 4.0),
              st.sampled_from([1.0, -3.0, 0.125]), _SIGN, st.floats(-4.0, 4.0)),
)


@settings(max_examples=150)
@given(case=_GAUSSIAN_CASES, k=st.integers(-20, 20))
@example(case=(4.0, 1.0, 1.0, -0.25), k=3)  # lam = 0
@example(case=(0.0, 1.0, 1.0, 0.125), k=-5)  # lam = 8, the first asymptotic
@example(case=(0.0, 1.0, 1.0, 0.12500000000000003), k=5)  # the last series
@example(case=(4.0, 1.0, 1.0, 5e-324), k=0)  # 1/d overflows: lam = inf
@example(case=(4.0, 1.0, 1.0, 2.0 ** 1022), k=1)  # d sigma just below overflow
@example(case=(4.0, 4.0, 1.0, -(2.0 ** 1022)), k=-1)  # and past it: +inf
def test_gaussian_log_mean_matches_the_poisson_sum_and_quad(case, k):
    mu, sigma, shift, d = case
    law = Gaussian(mu, sigma)
    got = law.mean_log_abs(shift, d)
    assert got == pytest.approx(gaussian_mean_log(mu, sigma, shift, d),
                                rel=1e-13, abs=1e-13)
    # B -> 2^k B is absorbed by d -> d / 2^k
    scaled = d * 2.0 ** -k
    if 2.0 ** -1022 <= abs(scaled) < math.inf:
        twin = Gaussian(mu * 2.0 ** k, sigma * 2.0 ** k).mean_log_abs(shift, scaled)
        assert twin == pytest.approx(got, abs=1e-12)


def refuse_node_sets(monkeypatch, message="a node set was built"):
    """Make both node-set builders of actcap.distributions raise: the
    graded panels and the even panels of a truncated Gaussian's log mean.
    Laws built after this call have no node set kept to reuse."""
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    monkeypatch.setattr(distributions, "panel_nodes", refuse)
    monkeypatch.setattr(distributions, "even_panels", refuse)


def test_gaussian_shannon_searches_build_no_node_set(monkeypatch):
    # the Gaussian log mean is a closed form, so its Shannon search, and a
    # mixture's with uniform and Gaussian components, build no node set
    refuse_node_sets(monkeypatch)
    mix = FiniteMixture(((0.5, Uniform(1, 3)), (0.5, Gaussian(4, 1))))
    assert shannon_capacity(mix).diagnostics["objective"] == "closed_form"
    res = shannon_capacity(Gaussian(4, 1))
    assert res.diagnostics["objective"] == "closed_form"
    assert res.value_bits == pytest.approx(
        gaussian_log_objective(4.0, 1.0, res.optimal_d), abs=1e-12)


def test_mixture_with_gaussian_component_finite_at_high_eta():
    mix = FiniteMixture(((0.5, Uniform(1, 3)), (0.5, Gaussian(4, 1))))
    assert 0.0 < eta_capacity(mix, 1000.0).value_bits < 0.02


# --- objectives each law evaluates, mixtures by composition ------------------

def quad_cell_mean_log(law, d):
    """E ln|1 + B d| for a TruncatedGaussian cell that -1/d misses, by quad
    over x = (B - lo) / (hi - lo) against the normalised density, with
    t = (1 - x) t1 + x t2, which never cancels there."""
    t1, t2 = 1.0 + law.lo * d, 1.0 + law.hi * d

    def density(x):
        b = law.lo + (law.hi - law.lo) * x
        return math.exp(-0.5 * ((b - law.mu) / law.sigma) ** 2)

    def weighted_log(x):
        return math.log(abs((1.0 - x) * t1 + x * t2)) * density(x)

    num, den = (integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
                for f in (weighted_log, density))
    return num / den


@pytest.mark.parametrize("d", [1e9, -1e10, 1e12])
def test_narrow_truncated_gaussian_cell_matches_quad(d):
    # on a 2e-6-wide cell the node set's panel widths round to the ulps of
    # b, so its weights' total is off by about 2e-10; the unnormalised sum
    # read 7.5e-9 to 9.9e-9 bits off here, the normalised one is not
    law = TruncatedGaussian(2.0, 1.0, 2.0, 2.000002)
    assert shannon_objective(law, d) == pytest.approx(
        -quad_cell_mean_log(law, d) / LOG2, abs=1e-11)


def quad_cut_mean_log(law, d):
    """E ln|1 + B d| for a TruncatedGaussian cell, by quad over t = z - c,
    z = (B - mu) / sigma and c the cut as the kernel computes it, on eight
    equal pieces of the window.  A cut inside the window splits them at
    t = 0.  A cut outside keeps t = 0 out of the range and splits the
    pieces at |t| = g 2^k, g the gap between the cut and the window, so
    each piece resolves the nearby logarithm.  Nodes near the cut are exact
    in t, as they are not in z or B, and the density is scaled to 1 at the
    window's point nearest 0.  Against 30-digit mpmath this read at most
    5.3e-14 off on [37, 38] sigma, 2.4e-14 on [20, 21] sigma and 7.1e-15 on
    narrow and ordinary cells with the cut inside, and at most 6.8e-15 with
    the cut outside, 3.9e-15 of it on the whole line with the cut 1e4
    sigma out."""
    lo, hi = law._window(0.0)
    a, b = (lo - law.mu) / law.sigma, (hi - law.mu) / law.sigma
    c = -(law.mu + 1.0 / d) / law.sigma
    m = min(abs(a), abs(b)) if a * b > 0.0 else 0.0

    def density(t):
        return math.exp(-0.5 * (c + t - m) * (c + t + m))

    def weighted_log(t):
        return math.log(abs(t)) * density(t) if t else 0.0

    ends = np.linspace(a, b, 9) - c
    if a < c < b:
        splits = [0.0]
    else:
        gap, far = sorted((abs(ends[0]), abs(ends[-1])))
        splits = np.sign(ends[0]) * gap * 2.0 ** np.arange(61.0)
        splits = splits[np.abs(splits) < far].tolist()
    edges = sorted({*ends.tolist(), *splits})
    with warnings.catch_warnings():
        # the tolerance asked for is near quad's floor, which it may flag
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        num, den = (math.fsum(integrate.quad(f, x, y, epsabs=0.0,
                                             epsrel=1.2e-14, limit=200)[0]
                              for x, y in zip(edges, edges[1:]))
                    for f in (weighted_log, density))
    return math.log(abs(d) * law.sigma) + num / den


def test_narrow_cell_with_the_cut_inside_matches_quad():
    # the graded node set's nodes next to the cut rounded to the ulps of b
    # and read 22.3742643250726 (6.6e-9 bits off); integration by parts
    # leaves no singular point to resolve
    law, d = TruncatedGaussian(2.0, 1.0, 2.0, 2.000002), -1.0 / 2.000001
    assert shannon_objective(law, d) == pytest.approx(22.374264331679324,
                                                      abs=1e-12)
    assert law.mean_log_abs(1.0, d) == pytest.approx(
        quad_cut_mean_log(law, d), abs=1e-13)


@pytest.mark.parametrize("a, tol", [(20.0, 1e-13), (-21.0, 1e-13),
                                    (37.0, 1e-12), (-38.0, 1e-12)])
def test_far_tail_cells_match_quad(a, tol):
    # a window one sigma wide where the density falls by e^-|a| per sigma;
    # the node set read up to 8.1e-12 off on [37, 38] sigma, and 3e-12 on
    # [20, 21]; there Phi comes from math.erfc of about 26.5, whose
    # exp(-x^2) carries the rounding of x^2 (about 3e-14 of each value)
    law = TruncatedGaussian(0.0, 1.0, a, a + 1.0)
    for u in (1e-6, 0.013, 0.37, 0.9, 1.0 - 1e-6):
        d = -1.0 / (a + u)
        assert law.mean_log_abs(1.0, d) == pytest.approx(
            quad_cut_mean_log(law, d), abs=tol), u


def test_far_tail_cell_reads_the_same_at_every_scale():
    # B -> s B is absorbed by d -> d / s bit for bit, on the direct sum (the
    # cut -s / 0.3 below the cell) and by parts (the cut 37.5 s inside); the
    # direct sum's density norm overflowed at small s, and s = 2^-40 read
    # nan at the first gain
    for g in (0.3, -1.0 / 37.5):
        unit = TruncatedGaussian(0.0, 1.0, 37.0, 38.0).mean_log_abs(1.0, g)
        assert math.isfinite(unit)
        for k in (-900, -200, -40, 0, 40):
            s = 2.0 ** k
            law = TruncatedGaussian(0.0, s, 37.0 * s, 38.0 * s)
            assert law.mean_log_abs(1.0, g / s) == unit, (g, k)
            assert law.mean_log_abs(1.0, np.array([g / s]))[0] == unit, (g, k)


# cells by the tolerance of their log mean with the cut outside: windows
# that touch or hold mu, off-mu windows within 16 sigma, far tails and a
# window 2e-6 sigma wide, whose cut carries the rounding of shift/d
_OUTSIDE_CELLS = [
    *((TruncatedGaussian(*cell), 1e-14) for cell in (
        (4.0, 1.0, 4.0, 14.0), (4.0, 1.0, -10.0, 4.0), (0.0, 1.0, -1.0, 2.0),
        (4.0, 1.0, -math.inf, math.inf))),
    *((TruncatedGaussian(0.0, 1.0, *ends), 5e-14)
      for ends in ((1.0, 1.5), (-9.0, -6.0))),
    *((TruncatedGaussian(0.0, 1.0, *ends), 5e-13)
      for ends in ((20.0, 21.0), (-21.0, -20.0), (37.0, 38.0), (-38.0, -37.0))),
    (TruncatedGaussian(2.0, 1.0, 2.0, 2.000002), 1e-10),
]


@pytest.mark.parametrize("law, tol", _OUTSIDE_CELLS,
                         ids=[f"{law.lo}_{law.hi}" for law, _ in _OUTSIDE_CELLS])
def test_cut_outside_a_cell_matches_quad(law, tol):
    # cuts 1e-9 to 1 panel width h beyond each end of the window, on both
    # sides of the switch at h/2 between the by-parts and the direct sum,
    # and 30 and 1e4 sigma out; the shared graded node set read up to
    # 1.1e-13 nats off on [4, 14], 2.2e-12 on [37, 38] sigma and 2.5e-9 on
    # the narrow cell.  Panels are at most 1 / max(1, near) sigma wide,
    # near being the window's nearest end to mu in sigma (0 when it holds
    # or touches mu).
    lo, hi = law._window(0.0)
    a, b = (lo - law.mu) / law.sigma, (hi - law.mu) / law.sigma
    near = min(abs(a), abs(b)) if a * b > 0.0 else 0.0
    h = (b - a) / max(1, math.ceil((b - a) * max(1.0, near)))
    gaps = [f * h for f in (1e-9, 1e-4, 0.01, 0.49, 0.51, 1.0)] + [30.0, 1e4]
    for z in [a - gap for gap in gaps] + [b + gap for gap in gaps]:
        d = -1.0 / (law.mu + law.sigma * z)
        assert TruncatedGaussian.mean_log_abs(law, 1.0, d) == pytest.approx(
            quad_cut_mean_log(law, d), abs=tol), z


def _cut_cells():
    """Cells by regime: a first draw picks narrow, tail, off-mu or
    whole-line-like; mu, sigma and the ends in units of sigma follow."""
    mu, sigma = st.floats(-4.0, 4.0), st.sampled_from([0.25, 1.0, 3.0])
    return st.one_of(
        st.builds(lambda m, s, a, w: (m, s, a, a + w), mu, sigma,
                  st.floats(-3.0, 3.0), st.floats(1e-7, 1e-3)),
        st.builds(lambda m, s, side, a, w: (m, s, *sorted((side * a,
                                                           side * (a + w)))),
                  mu, sigma, _SIGN, st.floats(4.0, 12.0), st.floats(0.2, 3.0)),
        st.builds(lambda m, s, a, w: (m, s, a, a + w), mu, sigma,
                  st.floats(-4.0, 4.0), st.floats(0.05, 6.0)),
        st.builds(lambda m, s, a, b: (m, s, -a, b), mu, sigma,
                  st.floats(8.0, 100.0), st.floats(8.0, 100.0)))


@settings(max_examples=40)
@given(cell=_cut_cells(), u=st.floats(0.0, 1.0), node=st.integers(0, 10**6),
       step=st.sampled_from([0.0, 1e-12, -1e-9, 3e-3]))
def test_cut_inside_a_cell_matches_quad(cell, u, node, step):
    # a cut anywhere in the window, one at or next to a node of the
    # by-parts rule, and one next to each end; every cut lies inside the
    # window, so each value is integrated by parts
    mu, sigma, a, b = cell
    law = TruncatedGaussian(mu, sigma, mu + sigma * a, mu + sigma * b)
    lo, hi = law._window(0.0)
    z = law._log_nodes[0][0]
    width = hi - lo
    cuts = [lo + width * u, mu + sigma * (z[node % (len(z) - 2)] + step),
            lo + width * 1e-9, hi - width * 1e-9]
    for cut in cuts:
        if lo < cut < hi and cut != 0.0:
            d = -1.0 / cut
            assert law.mean_log_abs(1.0, d) == pytest.approx(
                quad_cut_mean_log(law, d), abs=1e-13), (cut, -1.0 / d)


def test_mixture_composes_a_narrow_uniform_in_closed_form():
    # the mixture takes the 0.5/0.5 composition of its components' own
    # objectives; summing the narrow uniform's node set with -1/d inside
    # its support read the Shannon objective 8.1e-9 bits off
    narrow, wide = Uniform(2.0, 2.000002), Gaussian(4.0, 1.0)
    mix = FiniteMixture(((0.5, narrow), (0.5, wide)))
    d = -1.0 / 2.000001
    assert shannon_objective(narrow, d) == pytest.approx(
        -quad_mean_log(narrow, 1.0, d) / LOG2, abs=1e-10)
    assert shannon_objective(mix, d) == pytest.approx(
        0.5 * shannon_objective(narrow, d) + 0.5 * shannon_objective(wide, d),
        abs=1e-12)
    for eta in CLOSED_FORM_ETAS:
        assert eta_objective(narrow, d, eta) == pytest.approx(
            -quad_log_moment(narrow, 1.0, d, eta) / (eta * LOG2), abs=1e-10)
        parts = [-eta * LOG2 * eta_objective(law, d, eta)
                 for law in (narrow, wide)]
        want = -(np.logaddexp(*parts) + math.log(0.5)) / (eta * LOG2)
        assert eta_objective(mix, d, eta) == pytest.approx(want, abs=1e-12), eta


def test_zero_weight_component_is_never_evaluated(monkeypatch):
    # the CLI spec reaches FiniteMixture with the zero-weight Gaussian; the
    # composed log-sum-exp must not take log(0), and the mixture must read
    # its lone uniform law bit for bit
    refuse_node_sets(monkeypatch)
    mix = parse_spec("mixture:1*uniform:1,3|0*gaussian:4,1")
    lone = Uniform(1.0, 3.0)
    for d in (-0.9, -0.5, -0.4175588664696743, 0.3, 1e12):
        assert shannon_objective(mix, d) == shannon_objective(lone, d)
        for eta in (0.5, 2.0):
            assert eta_objective(mix, d, eta) == eta_objective(lone, d, eta)
    pairs = [(shannon_capacity(mix), shannon_capacity(lone))]
    pairs += [(eta_capacity(mix, eta), eta_capacity(lone, eta))
              for eta in (0.5, 2.0)]
    for got, want in pairs:
        assert (got.value_bits, got.optimal_d) == (want.value_bits,
                                                   want.optimal_d)
        assert got.diagnostics == want.diagnostics


def test_atom_cancelled_exactly_reads_ahead_of_overflow():
    # d = -2^1000 cancels the atom at 2^-1000 exactly, and 2^30 d passes
    # the float range; the cancelled atom decides the log mean
    atoms = Empirical((2.0 ** -1000, 2.0 ** 30))
    d = -(2.0 ** 1000)
    with np.errstate(over="ignore"):
        for law in (atoms, FiniteMixture(((0.5, atoms), (0.5, Uniform(1, 3))))):
            assert law.mean_log_abs(1.0, d) == -math.inf
            assert shannon_objective(law, d) == math.inf
            assert law.log_abs_moment(1.0, d, 2.0) == math.inf


@pytest.mark.parametrize("law", [
    ScaledBernoulli(1.0, 0.5), Empirical((0.5, 2.0, 2.0)),
    FiniteMixture(((0.5, ScaledBernoulli(1.0, 0.5)), (0.5, Uniform(1, 3)))),
], ids=["erasure", "empirical", "mixture"])
def test_atomic_objectives_read_nan_at_a_nan_gain(law):
    # as the closed forms do; the eta objective used to read +inf, a false
    # infinite capacity
    assert_nan_at_a_nan_gain(law)


_CELL = Gaussian(4.0, 1.0).restrict(4.0, 14.0)[1]


@pytest.mark.parametrize("law", [
    Uniform(1, 3), Gaussian(4.0, 1.0), _CELL,
    FiniteMixture(((0.5, _CELL), (0.5, Uniform(1, 3)))),
], ids=["uniform", "gaussian", "cell", "cell_mixture"])
def test_every_law_reads_nan_at_a_nan_gain(law):
    # a cell's log mean used to raise NonIntegrable here, its node-set sum
    # being NaN, where every other law and sense read NaN
    assert_nan_at_a_nan_gain(law)


def assert_nan_at_a_nan_gain(law):
    """Both objectives read NaN at a NaN gain, alone and in an array beside
    a finite gain, which stays finite."""
    grid = np.array([math.nan, 0.3])
    for got in (shannon_objective(law, math.nan), shannon_objective(law, grid),
                eta_objective(law, math.nan, 2.0), eta_objective(law, grid, 0.5)):
        got = np.atleast_1d(got)
        assert math.isnan(got[0]) and np.isfinite(got[1:]).all()


def test_atomic_search_memory_stays_bounded():
    # the scan grid of a 1,000-atom law, 14,127 gains, is summed in chunks
    # of about 8k (gain, atom) terms, not as one array of 113 MB
    law = Empirical(tuple(Uniform(1, 3).sample(make_rng(0), 1000)))
    tracemalloc.start()
    try:
        diag = eta_capacity(law, 0.5).diagnostics
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag["grid_evaluations"] > 10_000
    assert peak < 16 * 2**20


_MIXTURE_PARTS = st.one_of(
    st.builds(lambda b1, w: Uniform(b1, b1 + w), st.floats(-4.0, 4.0),
              st.floats(2.0 ** -4, 8.0)),
    st.builds(Gaussian, st.floats(-4.0, 4.0), st.floats(2.0 ** -4, 4.0)),
    st.builds(ScaledBernoulli, st.sampled_from([-3.0, -0.5, 0.75, 2.0, 3.5]),
              st.floats(0.0, 1.0)),
)


@settings(max_examples=200)
@given(first=_MIXTURE_PARTS, second=_MIXTURE_PARTS, w=st.floats(0.05, 0.95),
       d=st.floats(1e-3, 8.0), negative=st.booleans())
def test_composed_mixture_objectives_match_the_node_set(first, second, w, d,
                                                        negative):
    # the concatenated node set of the mixture's density pieces stays the
    # oracle; a uniform component wider than 2^-4 keeps it sound there
    d = -d if negative else d
    mix = FiniteMixture(((w, first), (1.0 - w, second)))
    # a gain that hits an atom reads -inf in the log mean, and the oracle
    # floors it
    assume(all(1.0 + loc * d != 0.0 and loc != -1.0 / d
               for loc, _ in mix.support().atoms))
    assert mix.mean_log_abs(1.0, d) == pytest.approx(
        node_set_mean_log(mix, 1.0, d), abs=1e-9)
    for eta in (0.01, 0.5, 2.0, 64.0):
        assert mix.log_abs_moment(1.0, d, eta) == pytest.approx(
            node_set_log_moment(mix, 1.0, d, eta), abs=1e-9), eta


# --- maximizer ----------------------------------------------------------------

def each_gain(objective):
    """A scalar objective as maximize_over_d takes one: an array of gains
    in, an array of values out."""
    return np.vectorize(objective, otypes=[float])


def test_maximize_matches_brute_force_uniform_2_6():
    # frozen from a 1e6-point closed-form grid scan plus local refinement:
    # d* = -0.20877943..., value = 2.58704615... bits
    d_star, val, diag = maximize_over_d(
        each_gain(lambda d: uniform_log_objective(2, 6, d)), 2.0,
        centers=(0.0, -0.25))
    assert val == pytest.approx(2.5870461584325, abs=1e-9)
    assert d_star == pytest.approx(-0.2087794, abs=1e-5)
    assert val > uniform_log_objective(2, 6, -0.25)  # beats the minimax start
    assert not diag["bound_hit"]


def test_each_cell_scans_its_grid_in_one_objective_call(monkeypatch):
    # the cells of `sideinfo --dist gaussian:4,1 --si-cells=-10,4,14` sum
    # node sets; each search hands its whole scan grid (0 aside, where the
    # objective reads 0) to one array call, and Brent one gain at a time
    calls = []
    node_set = TruncatedGaussian.mean_log_abs

    def spy(law, shift, d):
        calls.append(np.shape(d))
        return node_set(law, shift, d)

    monkeypatch.setattr(TruncatedGaussian, "mean_log_abs", spy)
    model = model_from_boundaries(Gaussian(4.0, 1.0), [-10.0, 4.0, 14.0])
    for cell in model.cells:
        calls.clear()
        diag = shannon_capacity(cell.conditional).diagnostics
        assert diag["objective"] == "node_set"
        assert calls[0] == (diag["grid_evaluations"] - 1,)
        assert calls[1:] == [()] * diag["refine_iterations"]


def _two_cluster_law():
    # 990 atoms near 1 and 10 near 100: at eta = 1 the optimum is near the
    # kink -1/1, past four times the eta = 2 optimum, so the bracket doubles
    return Empirical(tuple(Uniform(0.9, 1.1).sample(make_rng(0), 990))
                     + tuple(Uniform(90.0, 110.0).sample(make_rng(1), 10)))


@pytest.mark.parametrize("law, eta, rounds", [
    (Empirical(tuple(Uniform(1, 3).sample(make_rng(0), 1000))), 2.0, 1),
    (_two_cluster_law(), 1.0, 5),
    # 0.95 and 0.9500000000000001 share the kink -1.0526315789473684
    (Empirical((0.95, 0.9500000000000001, 2.0)), 2.0, 1),
], ids=["uniform_atoms", "two_clusters", "shared_kink"])
def test_convex_search_evaluates_each_bracket_in_one_call(law, eta, rounds):
    # besides d = 0, Brent and the flat check (one gain each), each bracket
    # round hands its new kinks and far end to one array call
    calls = []

    def spy(d):
        calls.append(d.tolist() if np.ndim(d) else d)
        return eta_objective(law, d, eta)

    with np.errstate(over="ignore"):
        _, _, diag = _maximize_convex(spy, law)
    assert calls[0] == 0.0
    arrays = calls[1:rounds + 1]
    assert all(isinstance(c, list) for c in arrays)
    assert not any(isinstance(c, list) for c in calls[rounds + 1:])
    assert len(calls) - rounds - 1 == diag["refine_iterations"]
    # far ends double; no gain is evaluated twice
    fars = [c[-1] for c in arrays]
    assert fars == [fars[0] * 2.0 ** i for i in range(rounds)]
    assert abs(fars[-1]) == diag["halfwidth"]
    gains = [d for c in arrays for d in c]
    assert len(set(gains)) == len(gains) == diag["grid_evaluations"] - 1


def per_center_grid(halfwidth, centers):
    """The scan grid built one center at a time."""
    h = max([halfwidth] + [2.0 * abs(c) for c in centers])
    side = np.linspace(0.0, h, _BACKBONE + 1)[1:]
    pts = [-side, np.array([0.0]), side]
    for c in np.asarray(centers, dtype=float) + 0.0:  # -0.0 is the center 0
        floor = max(abs(c), halfwidth / _WINDOW) * 1e-12 / h
        offs = h * np.geomspace(max(floor, 2.0 ** -1022), 1.0, _PER_CENTER)
        pts += [np.clip(c + offs, -h, h), np.clip(c - offs, -h, h),
                np.array([c])]
    grid = np.unique(np.concatenate(pts))
    return grid[(grid >= -h) & (grid <= h)]


def assert_grid_matches_per_center(halfwidth, centers):
    want = per_center_grid(halfwidth, centers)
    got = _build_grid(halfwidth, centers)
    assert got.tobytes() == want.tobytes()


# centers as multiples of the halfwidth: ordinary ones, and ones near the
# ends of the float range that set the floor and the width
_CENTER_FACTORS = st.one_of(
    st.floats(-1e3, 1e3),
    st.builds(lambda s, x: s * x,
              st.sampled_from([1e-300, -1e-300, 1e300, -1e300]),
              st.floats(0.5, 2.0)),
)


@settings(max_examples=100)
@given(halfwidth=st.floats(1e-3, 1e3),
       factors=st.lists(_CENTER_FACTORS, max_size=30))
@example(halfwidth=1.0, factors=[1e-300, -1e-300, 1e300, -1e300])
# a center of -0.0 beside centers at 0: the grid's zero reads +0.0
@example(halfwidth=1.0, factors=[0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0078125,
                                 0.0, 0.0, -0.0, 0.0])
def test_scan_grid_matches_the_per_center_construction(halfwidth, factors):
    assert_grid_matches_per_center(
        halfwidth, (0.0, *(x * halfwidth for x in factors)))


@pytest.mark.parametrize("law, centers", [
    (Gaussian(1e-310, 1), [0.0]),
    (Empirical((1e-310, 1.0)), [0.0, -2.0, -1.0]),
    (FiniteMixture(((0.5, Uniform(1, 3)), (0.5, Gaussian(-1e-310, 1)))),
     [0.0, -1.0, -0.5]),
], ids=repr)
def test_scan_centers_past_the_float_range_are_dropped(law, centers):
    # -1/m = -inf for a mean or atom m below about 5.6e-309 in size made
    # the scan grid {-inf, 0, inf}
    assert _grid_centers(law).tolist() == centers


def test_scan_grid_of_a_thousand_kinks_matches_the_per_center_construction():
    law = Empirical(tuple(Uniform(1, 3).sample(make_rng(0), 1000)))
    centers = _grid_centers(law)
    assert len(centers) == 1002
    assert_grid_matches_per_center(_WINDOW / _unit(law), tuple(centers))


def test_maximize_rejects_a_scalar_only_objective():
    with pytest.raises(ValueError, match="one value each"):
        maximize_over_d(lambda d: 0.0, 1.0)


def test_maximize_flags_boundary():
    _, _, diag = maximize_over_d(
        each_gain(lambda d: uniform_log_objective(2, 6, d)), 0.05)
    assert diag["bound_hit"]


def test_maximize_tie_breaks_toward_small_d():
    d_star, val, diag = maximize_over_d(np.zeros_like, 1.0)
    assert val == 0.0
    assert d_star == 0.0
    assert diag["flat"]


@pytest.mark.parametrize("family", [lambda s: Gaussian(0.0, s),
                                    lambda s: Uniform(-s, s)],
                         ids=["gaussian", "uniform"])
def test_mirror_optima_resolve_to_the_negative_gain(family):
    # a zero-mean symmetric law has optima at +-d that tie within rounding;
    # the sign of d* used to follow the power-of-two scale of the law
    for k in (-40, -8, 0, 8, 40):
        law = family(2.0 ** k)
        for res in (shannon_capacity(law), eta_capacity(law, 0.5)):
            assert res.optimal_d < 0.0, (k, res.sense)


def test_maximize_reads_nan_as_a_loss():
    # a NaN objective value loses like -inf, away from the optimum or next
    # to it; it used to raise "attempt to get argmin of an empty sequence"
    d_star, val, _ = maximize_over_d(
        each_gain(lambda d: math.nan if abs(d - 0.5) < 1e-3 else -d * d), 1.0)
    assert d_star == 0.0 and val == 0.0
    d_star, val, _ = maximize_over_d(
        each_gain(lambda d: math.nan if abs(d) < 1e-3 else -(d - 0.3) ** 2),
        1.0)
    assert d_star == pytest.approx(0.3, abs=1e-6)
    assert val == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("halfwidth", [0.05, 1.0, 3.0, 100.0])
def test_scan_grid_holds_zero_without_near_duplicates(halfwidth):
    # a backbone point a rounding error from 0 (6.9e-18 for 151 points on
    # [-1, 1]) reads NaN in closed-form oracles; the nearest nonzero point
    # is the densification floor 1e-12 * halfwidth / 100
    grid = _build_grid(halfwidth, (0.0,))
    assert 0.0 in grid
    nearest = float(np.abs(grid[grid != 0.0]).min())
    assert nearest == pytest.approx(1e-14 * halfwidth, rel=1e-12)


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


@pytest.mark.parametrize("law,value,d_star,evaluations", [
    (Uniform(-1, 1), 0.0, 0.0, 0),
    (Empirical((2.0,)), math.inf, None, 3),
    (Empirical((0.0,)), 0.0, 0.0, 0),
    (Empirical((-1.0, 1.0, 5e-309)), 0.0, 0.0, 62),
])
@pytest.mark.parametrize("eta", [1.0, 2.0, 7.5])
def test_convex_search_from_the_closed_form_optimum(law, value, d_star,
                                                    evaluations, eta):
    # the closed-form eta = 2 optimum d_2 brackets the convex search: d_2 =
    # -0.0 reads +0.0 at d = +0.0 unevaluated, a point mass (d_2 None)
    # brackets at -1/b and finds the atom, and a subnormal mean gives a d_2
    # of -1e-308 to search
    res = eta_capacity(law, eta)
    assert repr(res.value_bits) == repr(value)
    assert repr(res.optimal_d) == repr(d_star)
    assert res.diagnostics["evaluations"] == evaluations


@pytest.mark.parametrize("eta", [1.0, 2.0])
def test_convex_search_of_a_cell_whose_spread_rounds_to_zero(eta):
    # std() of this 2e-8-wide cell rounds to 0, so the closed form reads it
    # as a point mass; the search must still find the finite optimum near
    # d = -1/2 rather than report the atom's inf
    cell = TruncatedGaussian(2, 1, 2, 2.00000002)
    assert cell.std() == 0.0
    res = eta_capacity(cell, eta)
    assert 28.0 < res.value_bits < 29.0
    assert res.optimal_d == pytest.approx(-0.5, abs=1e-8)


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
    zero_mass = second_moment_closed_form(ScaledBernoulli(0.5, 0.0))
    assert zero_mass.value_bits == 0.0 and zero_mass.optimal_d == 0.0


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


@pytest.mark.parametrize("w", [1e-310, 1e-320])
def test_capacity_where_the_squared_mean_over_sigma_overflows(w):
    # sigma is about sqrt(w), so (mean/sigma)^2 passes the float range; the
    # closed form and the convex search it brackets must still find d = -1,
    # where E|1 - B|^eta = w
    law = FiniteMixture(((1.0, Empirical((1.0,))), (w, Empirical((2.0,)))))
    snr = law.moments()[0] / law.std()
    assert math.isinf(snr * snr)
    closed = second_moment_closed_form(law)
    assert closed.value_bits == pytest.approx(-0.5 * math.log2(w), rel=1e-12)
    assert closed.optimal_d == -1.0
    for eta in (1.0, 2.0):
        res = eta_capacity(law, eta)
        assert res.value_bits == pytest.approx(-math.log2(w) / eta, rel=1e-12)
        assert res.optimal_d == -1.0


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
    # make_rng(3) as it was before the Philox key became (seed, path)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3])))
    samples = Uniform(1, 3).sample(rng, 30)
    law = Empirical(tuple(samples))
    # the eta = 2 optimum has the closed form -E[B] / E[B^2]
    d_two = -float(np.mean(samples)) / float(np.mean(samples * samples))
    for eta, value, d_star in ((2.0, 1.8962735718009844, d_two),
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


def test_flat_optima_read_their_closed_forms():
    # the atom-cancelling gain -1/beta reaches E|1 + B d|^eta = 1 - p, and
    # nearby grid points tie within 1e-12: the search must report the best
    for eta, value in capacity_curve(ScaledBernoulli(2, 0.7), [2.0, 8.0, 64.0]):
        want = -math.log2(0.3) / eta
        assert abs(value - want) <= math.ulp(want)
    res = eta_capacity(ScaledBernoulli(1, 0.5), 2.0)
    assert res.value_bits == 0.5
    assert res.diagnostics["flat"]


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


# --- scale freedom of the search --------------------------------------------

def _scaled_laws():
    """Each law family as a function of its scale s: B -> s B."""
    return {
        "uniform": lambda s: Uniform(s, 3 * s),
        "gaussian": lambda s: Gaussian(4 * s, s),
        "uniform_straddling_0": lambda s: Uniform(-s, 3 * s),
        "mixture": lambda s: FiniteMixture(
            ((0.5, Uniform(s, 3 * s)), (0.5, Gaussian(4 * s, s)))),
        "erasure": lambda s: ScaledBernoulli(2 * s, 0.7),
    }


def _capacities(dist):
    return [shannon_capacity(dist).value_bits] + [
        eta_capacity(dist, eta).value_bits for eta in (0.5, 2.0, 16.0)]


@pytest.mark.parametrize("family", sorted(_scaled_laws()))
def test_capacities_are_scale_free(family):
    # B -> 2^k B is absorbed by d -> d / 2^k, so no bit count may move
    law = _scaled_laws()[family]
    want = _capacities(law(1.0))
    for k in (-200, -40, -8, 8, 40, 200):
        got = _capacities(law(2.0 ** k))
        assert got == pytest.approx(want, abs=1e-12), k


@settings(max_examples=60)
@given(b1=st.floats(-8.0, 8.0), width=st.floats(2.0 ** -8, 16.0),
       k=st.integers(-60, 60))
def test_uniform_capacity_properties(b1, width, k):
    law = Uniform(b1, b1 + width)
    sh, half, two = (shannon_capacity(law), eta_capacity(law, 0.5),
                     eta_capacity(law, 2.0))
    # no gain on a dense grid, spaced 1/100 of the law's unit, beats a
    # capacity
    unit = max(abs(law.b1), abs(law.b2))
    for d in np.linspace(-16.0, 16.0, 3201) / unit:
        assert shannon_objective(law, d) <= sh.value_bits + 1e-9, d
        assert eta_objective(law, d, 0.5) <= half.value_bits + 1e-9, d
        assert eta_objective(law, d, 2.0) <= two.value_bits + 1e-9, d
    # C_ze <= C_eta <= C_sh, C_eta nonincreasing in eta
    ze = zero_error_capacity(law).value_bits
    assert ze <= two.value_bits + 1e-9
    assert two.value_bits <= half.value_bits + 1e-9
    assert half.value_bits <= sh.value_bits + 1e-9
    assert two.value_bits == pytest.approx(
        second_moment_closed_form(law).value_bits, abs=1e-10)
    # B -> 2^k B is absorbed by d -> d / 2^k
    scaled = Uniform(law.b1 * 2.0 ** k, law.b2 * 2.0 ** k)
    for res, eta in ((sh, None), (half, 0.5), (two, 2.0)):
        twin = (shannon_capacity(scaled) if eta is None
                else eta_capacity(scaled, eta))
        assert twin.value_bits == pytest.approx(res.value_bits, abs=1e-12)


def _node_set_law(kind):
    """One regime of node-set laws, each drawn as a function of its scale
    s (B -> s B), with every parameter scaled exactly: none is so near 0
    that 2^-40 of it leaves the normal floats."""

    def floats(lo, hi):
        return st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 2.0 ** -20)

    cell = st.builds(
        lambda mu, sigma, a, w: lambda s: Gaussian(mu * s, sigma * s).restrict(
            (mu + a * sigma) * s, (mu + (a + w) * sigma) * s)[1],
        floats(0.5, 4.0), floats(0.25, 2.0), floats(-3.0, 2.0),
        floats(0.25, 4.0))
    gaussian = st.builds(lambda mu, sigma: lambda s: Gaussian(mu * s, sigma * s),
                         floats(-4.0, 4.0), floats(0.25, 4.0))
    erasure = st.builds(lambda beta, p: lambda s: ScaledBernoulli(beta * s, p),
                        st.sampled_from([-3.0, -0.5, 0.75, 2.0]),
                        floats(0.05, 0.95))
    empirical = st.builds(
        lambda xs: lambda s: Empirical(tuple(x * s for x in xs)),
        st.lists(floats(-1.0, 4.0), min_size=1, max_size=30))
    uniform = st.builds(lambda b1, w: lambda s: Uniform(b1 * s, (b1 + w) * s),
                        floats(-1.0, 4.0), floats(0.25, 4.0))
    regimes = {"cell": cell, "gaussian": gaussian, "erasure": erasure,
               "empirical": empirical}
    if kind != "mixture":
        return regimes[kind]
    part = st.one_of(uniform, *regimes.values())
    return st.builds(
        lambda w, f, g: lambda s: FiniteMixture(((w, f(s)), (1.0 - w, g(s)))),
        floats(0.1, 0.9), part, part)


def _objective(law, eta):
    if eta is None:
        return lambda d: shannon_objective(law, d)
    return lambda d: eta_objective(law, d, eta)


def _capacity(law, eta):
    return shannon_capacity(law) if eta is None else eta_capacity(law, eta)


@pytest.mark.parametrize("regime", ["cell", "gaussian", "erasure",
                                    "empirical", "mixture"])
@settings(max_examples=6)
@given(data=st.data(), k=st.sampled_from([-40, -7, 3, 20]))
def test_node_set_capacity_properties(regime, data, k):
    # one budget per regime: drawn from one strategy, the derandomized
    # examples were two thirds truncated-Gaussian cells
    law = data.draw(_node_set_law(regime))
    results = {eta: _capacity(law(1.0), eta) for eta in (None, 0.5, 2.0, 8.0)}
    value = {eta: res.value_bits for eta, res in results.items()}
    # C_ze <= C_eta <= C_sh, C_eta nonincreasing in eta
    assert zero_error_capacity(law(1.0)).value_bits <= value[8.0] + 1e-9
    assert value[8.0] <= value[2.0] + 1e-9
    assert value[2.0] <= value[0.5] + 1e-9
    assert value[0.5] <= value[None] + 1e-9
    assert value[2.0] == pytest.approx(
        second_moment_closed_form(law(1.0)).value_bits, abs=1e-9)
    # no gain on a dense grid, spaced 1/10 of the law's unit, beats a
    # capacity; B -> 2^k B is absorbed by d -> d / 2^k
    dense = np.linspace(-16.0, 16.0, 321) / _unit(law(1.0))
    for eta in (None, 0.5, 2.0):
        if math.isfinite(value[eta]):
            assert _objective(law(1.0), eta)(dense).max() <= value[eta] + 1e-9
        twin = _capacity(law(2.0 ** k), eta).value_bits
        assert twin == pytest.approx(value[eta], abs=1e-12), eta


@pytest.mark.parametrize("law", [Uniform(7.0, 7.0 + 2.0 ** -8),
                                 Gaussian(7.0, 2.0 ** -10)],
                         ids=["uniform", "gaussian"])
def test_convex_search_resolves_sharp_peaks(law):
    # the convex search stopped Brent at sqrt(eps) of |d|, 3.4e-10 from d*
    # here, where a narrow law's peak is sharp enough to read 1.5e-10 bits
    # low; it now stops within 1e-12 of the window, as the scan does
    assert eta_capacity(law, 2.0).value_bits == pytest.approx(
        second_moment_closed_form(law).value_bits, abs=1e-12)


def test_uniform_objectives_build_no_node_set(monkeypatch):
    # every uniform evaluation takes the closed form: capacities, side
    # information cells and the additive-noise moment ceiling, and so does
    # a mixture of uniform laws, whose cells are mixtures of uniform laws
    refuse_node_sets(monkeypatch, "a uniform objective summed a node set")
    mix = FiniteMixture(((0.3, Uniform(0.0, 4.0)), (0.7, Uniform(1.0, 3.0))))
    for law in (Uniform(1.0, 3.0), mix):
        results = [shannon_capacity(law), eta_capacity(law, 0.5),
                   eta_capacity(law, 2.0)]
        assert [r.diagnostics["objective"] for r in results] == ["closed_form"] * 3
        d = results[2].optimal_d
        assert math.isfinite(_moment_ceiling_log2(law, 2.0, 2.0, d, 1.0, 1.0))
    assert len(si_value_curve(Uniform(0.0, 4.0), 3)) == 4
    _, cell = mix.restrict(0.0, 2.0)
    assert isinstance(cell, FiniteMixture)
    assert {cell.objective_route(sense) for sense in ("shannon", "eta")} == {
        "closed_form"}
    assert len(si_value_curve(mix, 3)) == 4
    assert len(si_value_curve(mix, 2, sense="eta", eta=2.0)) == 3


def test_near_zero_mean_searches_at_the_scale_of_the_spread():
    # -1/mean sits far out, but the optimum stays near -1/sigma; out there
    # |b d| overflows for the wide Gaussian, which must lose, not crash
    for near, exact in ((Gaussian(1e-300, 1), Gaussian(0, 1)),
                        (Gaussian(1e-310, 1), Gaussian(0, 1)),
                        (Gaussian(-7e-249, 2.0 ** 336), Gaussian(0, 1)),
                        (Uniform(-1, 1 + 2.0 ** -40), Uniform(-1, 1))):
        got = shannon_capacity(near)
        assert got.value_bits == pytest.approx(
            shannon_capacity(exact).value_bits, abs=1e-9)
        assert math.isfinite(got.diagnostics["halfwidth"])
    # -1/mean past the float range once cost 200 Brent steps on an infinite
    # bracket; now the law searches as N(0, 1) does
    assert (shannon_capacity(Gaussian(1e-310, 1)).diagnostics
            == shannon_capacity(Gaussian(0, 1)).diagnostics)


def test_search_reaches_optimum_of_far_scale_component():
    # the optimum cancels the small component, at d near -1/mean of that
    # component, 1e4 times farther out than the law's own -1/mean
    mix = FiniteMixture(((0.9, Uniform(1e-4, 2e-4)), (0.1, Uniform(1, 3))))
    res = shannon_capacity(mix)
    assert res.value_bits >= shannon_objective(mix, -6019.0) - 1e-9
    assert res.value_bits == pytest.approx(1.4397176, abs=1e-6)
    assert res.optimal_d == pytest.approx(-6019.6, abs=1.0)


@pytest.mark.parametrize("w_small, k_small, k_large", [
    (0.9, -30, -16), (0.9, -4, 10), (0.7, 0, 6), (0.5, -12, -8),
    (0.95, 12, 30), (0.5, -30, 30), (0.1, -20, 0), (0.8, 20, 24),
])
def test_search_covers_dense_scan_of_two_scale_mixtures(w_small, k_small,
                                                        k_large):
    mix = FiniteMixture(((w_small, Uniform(2.0 ** k_small, 3 * 2.0 ** k_small)),
                         (1 - w_small, Gaussian(4 * 2.0 ** k_large,
                                                2.0 ** k_large))))
    # the best of a dense log scan of d is a lower bound on the capacity
    mags = np.geomspace(2.0 ** -36, 2.0 ** 36, 700)
    brute = max(shannon_objective(mix, d) for d in (*-mags, *mags))
    assert shannon_capacity(mix).value_bits >= brute - 1e-9


# --- the two searches: convex for eta >= 1, scan otherwise --------------------

# eta-capacities at eta = 1, 2, 8, 64 under the 2,001-point grid search with
# golden-section refinement that the convex search replaced
_GRID_SEARCH_ETA = {
    "uniform:1,3": (2.0827257408918527, 1.8502198590705465,
                    1.4166489954857315, 1.096992387345723),
    "uniform:-1,3": (0.6942419136306177, 0.40367746102880236,
                     0.08111997744621938, 0.009322365672608413),
    "gaussian:4,1": (2.3690598071724165, 2.04373142062517,
                     1.2074829203829662, 0.18288301087202585),
    "mixture:0.5*uniform:1,3|0.5*gaussian:4,1": (
        1.5488363886197931, 1.3390359525563194, 0.8691714884745191,
        0.17486639094955916),
    "erasure:2,0.7": (1.736965594166206, 0.868482797083103,
                      0.21712069927077576, 0.02714008740884697),
}


@pytest.mark.parametrize("spec", sorted(_GRID_SEARCH_ETA))
def test_convex_search_matches_the_grid_search(spec):
    law = parse_spec(spec)
    for eta, want in zip((1.0, 2.0, 8.0, 64.0), _GRID_SEARCH_ETA[spec]):
        res = eta_capacity(law, eta)
        assert res.diagnostics["method"] == "convex"
        assert res.value_bits == pytest.approx(want, abs=1e-13), eta
        assert res.diagnostics["evaluations"] <= 150, eta


@pytest.mark.parametrize("spec", sorted(_GRID_SEARCH_ETA))
def test_scan_search_evaluation_count(spec):
    law = parse_spec(spec)
    results = [eta_capacity(law, eta) for eta in (1e-20, 0.01, 0.5)]
    if not law.support().has_nonzero_atom:
        results.append(shannon_capacity(law))
    for res in results:
        assert res.diagnostics["method"] == "scan"
        assert res.diagnostics["evaluations"] <= 400


def test_scan_returns_at_once_when_the_grid_holds_plus_inf():
    # the kink -1/2 of the one atom 2 is a grid point, where the moment is
    # exactly 0: the scan stops at the +inf there, after its one grid call
    res = eta_capacity(Empirical((2.0,)), 0.5)
    assert res.value_bits == math.inf and res.optimal_d is None
    diag = res.diagnostics
    assert diag["method"] == "scan"
    assert diag["evaluations"] == diag["grid_evaluations"] == 127
    assert diag["objective_at_d"] == math.inf


@pytest.mark.parametrize("mix, sense, want", [
    # two peaks 0.09 apart in d, the higher one beside the kink at -1/3
    (FiniteMixture(((0.5, Uniform(1, 3)), (0.5, Gaussian(4, 1)))), None,
     1.9979212597844649),
    (FiniteMixture(((0.5, Uniform(1, 3)), (0.5, Gaussian(4, 1)))), 0.01,
     1.988722225496429),
    # a narrow component whose cancellation gives the global peak
    (FiniteMixture(((0.5, Uniform(1, 1.001)), (0.5, Gaussian(4, 1)))), None,
     5.463978755573842),
    (FiniteMixture(((0.2, Uniform(3, 3.0001)), (0.8, Uniform(-1, 5)))), None,
     4.551884062515886),
    (FiniteMixture(((0.3, Gaussian(2, 1e-4)), (0.7, Uniform(-2, 6)))), None,
     4.871112175061466),
])
def test_scan_finds_the_global_peak_of_mixtures(mix, sense, want):
    # pinned to the 2,001-point grid search that the coarse scan replaced
    res = shannon_capacity(mix) if sense is None else eta_capacity(mix, sense)
    assert res.value_bits == pytest.approx(want, abs=1e-10)


def test_both_searches_fill_one_diagnostics_shape():
    keys = {"method", "evaluations", "grid_evaluations", "refine_iterations",
            "objective_at_d", "flat", "bound_hit", "halfwidth", "objective"}
    mixed = FiniteMixture(((0.5, Uniform(1, 3)), (0.5, Gaussian(4, 1))))
    results = {
        "scan": [shannon_capacity(Uniform(1, 3)), eta_capacity(Uniform(1, 3), 0.5),
                 shannon_capacity(mixed), shannon_capacity(Gaussian(4, 1))],
        "convex": [eta_capacity(Uniform(1, 3), 2.0),
                   eta_capacity(Uniform(-1, 1), 2.0),  # E[B] = 0: no search
                   eta_capacity(Empirical((2.0,)), 2.0),  # cancelled: inf
                   eta_capacity(mixed, 2.0), eta_capacity(Gaussian(4, 1), 2.0)],
    }
    node_set = results["convex"][3:]
    for method, group in results.items():
        for res in group:
            diag = res.diagnostics
            assert set(diag) == keys
            assert diag["method"] == method
            assert diag["evaluations"] == (diag["grid_evaluations"]
                                           + diag["refine_iterations"])
            # uniform laws evaluate both objectives in closed form, atomic
            # laws as exact sums, and a Gaussian its log mean; the Gaussian
            # moment sums node sets, and a mixture takes its components'
            # routes
            assert diag["objective"] == ("node_set" if any(res is r for r in node_set)
                                         else "closed_form")
    zero_mean = results["convex"][1]
    assert (zero_mean.value_bits, zero_mean.optimal_d) == (0.0, 0.0)
    assert zero_mean.diagnostics["evaluations"] == 0
    assert results["convex"][2].value_bits == math.inf


@pytest.mark.parametrize("law", [Uniform(1, 3), Gaussian(4, 1)],
                         ids=lambda law: type(law).__name__)
@pytest.mark.parametrize("eta", [1e-300, 1e-20])
def test_eta_capacity_at_tiny_eta_reads_shannon(law, eta):
    # C_eta -> C_sh as eta -> 0; the weights' rounding used to be divided
    # by eta, reading 128138 bits at eta = 1e-20 on U(1, 3)
    assert eta_capacity(law, eta).value_bits == pytest.approx(
        shannon_capacity(law).value_bits, abs=1e-12)


def test_eta_search_rejects_bad_eta_without_a_search():
    # the zero-mean convex path makes no objective call, so eta is
    # checked up front
    for eta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            eta_capacity(Uniform(-1, 1), eta)
