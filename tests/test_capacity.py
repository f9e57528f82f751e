import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from actcap.capacity import (
    _build_grid,
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
    ActuationDistribution,
    Empirical,
    FiniteMixture,
    Gaussian,
    ScaledBernoulli,
    TruncatedGaussian,
    Uniform,
    parse_spec,
)
from actcap.sideinfo import si_value_curve
from actcap.simulate import _moment_ceiling_log2

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
    nodes, weights, _ = dist.quadrature_nodes((-shift / d,), eta)
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
    # itself loses digits
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
    def refuse(self, *args, **kwargs):
        raise AssertionError("a node set was built")

    monkeypatch.setattr(ActuationDistribution, "quadrature_nodes", refuse)
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
    # the concatenated node set of FiniteMixture.quadrature_nodes stays the
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

def test_maximize_matches_brute_force_uniform_2_6():
    # frozen from a 1e6-point closed-form grid scan plus local refinement:
    # d* = -0.20877943..., value = 2.58704615... bits
    d_star, val, diag = maximize_over_d(
        lambda d: uniform_log_objective(2, 6, d), 2.0, centers=(0.0, -0.25)
    )
    assert val == pytest.approx(2.5870461584325, abs=1e-9)
    assert d_star == pytest.approx(-0.2087794, abs=1e-5)
    assert val > uniform_log_objective(2, 6, -0.25)  # beats the minimax start
    assert not diag["bound_hit"]


def test_maximize_flags_boundary():
    _, _, diag = maximize_over_d(
        lambda d: uniform_log_objective(2, 6, d), 0.05
    )
    assert diag["bound_hit"]


def test_maximize_tie_breaks_toward_small_d():
    d_star, val, diag = maximize_over_d(lambda d: 0.0, 1.0)
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
        lambda d: math.nan if abs(d - 0.5) < 1e-3 else -d * d, 1.0)
    assert d_star == 0.0 and val == 0.0
    d_star, val, _ = maximize_over_d(
        lambda d: math.nan if abs(d) < 1e-3 else -(d - 0.3) ** 2, 1.0)
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
    def refuse(self, *args, **kwargs):
        raise AssertionError("a uniform objective summed its node set")

    monkeypatch.setattr(Uniform, "quadrature_nodes", refuse)
    monkeypatch.setattr(FiniteMixture, "quadrature_nodes", refuse)
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
    assert cell.objective_route == "closed_form"
    assert len(si_value_curve(mix, 3)) == 4
    assert len(si_value_curve(mix, 2, sense="eta", eta=2.0)) == 3


def test_near_zero_mean_searches_at_the_scale_of_the_spread():
    # -1/mean sits far out, but the optimum stays near -1/sigma; out there
    # |b d| overflows for the wide Gaussian, which must lose, not crash
    for near, exact in ((Gaussian(1e-300, 1), Gaussian(0, 1)),
                        (Gaussian(-7e-249, 2.0 ** 336), Gaussian(0, 1)),
                        (Uniform(-1, 1 + 2.0 ** -40), Uniform(-1, 1))):
        assert shannon_capacity(near).value_bits == pytest.approx(
            shannon_capacity(exact).value_bits, abs=1e-9)


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
        "scan": [shannon_capacity(Uniform(1, 3)), eta_capacity(Uniform(1, 3), 0.5)],
        "convex": [eta_capacity(Uniform(1, 3), 2.0),
                   eta_capacity(Uniform(-1, 1), 2.0),  # E[B] = 0: no search
                   eta_capacity(Empirical((2.0,)), 2.0),  # cancelled: inf
                   eta_capacity(mixed, 2.0)],
    }
    results["scan"].append(shannon_capacity(mixed))
    node_set = [results["convex"][2], results["convex"][3], results["scan"][2]]
    for method, group in results.items():
        for res in group:
            diag = res.diagnostics
            assert set(diag) == keys
            assert diag["method"] == method
            assert diag["evaluations"] == (diag["grid_evaluations"]
                                           + diag["refine_iterations"])
            # uniform laws evaluate their closed forms; atomic laws and a
            # mixture with a Gaussian component sum node sets
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
