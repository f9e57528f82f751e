import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from actcap import distributions
from actcap.capacity import second_moment_closed_form
from actcap.distributions import (
    DistSpecError,
    Empirical,
    EmptyCell,
    FiniteMixture,
    Gaussian,
    ScaledBernoulli,
    TruncatedGaussian,
    Uniform,
    make_rng,
    parse_spec,
)
from node_oracle import NonIntegrable, expect, quadrature_nodes

EULER_GAMMA = 0.5772156649015329


# --- random streams --------------------------------------------------------

# seeds and streams at the 32-bit and 64-bit edges
_WORDS = st.one_of(st.sampled_from([0, 1, 511, 512, 2**32 - 1, 2**32,
                                    2**32 + 1, 2**64 - 1]),
                   st.integers(0, 2**64 - 1))


def _raw(rng, n=4):
    return rng.bit_generator.random_raw(n).tolist()


def _sfc64(seed, stream):
    """SFC64 from the uint32 words (seed low, seed high, stream low, stream
    high), formed by division rather than by the shifts of make_rng."""
    words = [*divmod(seed, 2**32)[::-1], *divmod(stream, 2**32)[::-1]]
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.SFC64(seq))


@settings(max_examples=200)
@given(_WORDS, _WORDS)
def test_stream_is_sfc64_of_four_fixed_width_words(seed, stream):
    assert _raw(make_rng(seed, stream)) == _raw(_sfc64(seed, stream))
    assert _raw(make_rng(seed)) == _raw(_sfc64(seed, 0))


def test_pairs_with_the_same_variable_length_words_draw_apart():
    # a SeedSequence of the pair itself reads both as the words [0, 1, 5]
    a, b = (2**32, 5), (0, 5 * 2**32 + 1)
    assert np.array_equal(np.random.SeedSequence(a).generate_state(4),
                          np.random.SeedSequence(b).generate_state(4))
    assert _raw(make_rng(*a)) != _raw(make_rng(*b))
    assert _raw(make_rng(*a)) == _raw(make_rng(*a))
    assert _raw(make_rng(*b)) == _raw(make_rng(*b))


def test_negative_seed_rejected_like_make_rng():
    for seed, stream in ((-1, 0), (2**64, 0), (0, -1), (0, 2**64)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            make_rng(seed, stream)


@pytest.mark.parametrize("b1,b2", [(0.1, 0.7), (-1 / 3, 2 / 7), (1e-3, 1e5),
                                   (-2.5e10, 3.3)])
def test_uniform_sample_is_rng_uniform(b1, b2):
    assert np.array_equal(Uniform(b1, b2).sample(make_rng(9, 4), 1000),
                          make_rng(9, 4).uniform(b1, b2, 1000))


_LAWS = [
    Uniform(1, 3),
    Gaussian(4, 1),
    TruncatedGaussian(0.0, 1.0, -0.5, 2.0),
    ScaledBernoulli(2, 0.3),
    FiniteMixture(((0.4, Uniform(1, 3)), (0.6, Gaussian(4, 1)))),
    Empirical((0.5, 1.25, 1.25, 4.0)),
]


@pytest.mark.parametrize("law", _LAWS, ids=lambda law: type(law).__name__)
def test_sample_takes_a_shape(law):
    # simulate draws each tile as one (steps, paths) array: the values of a
    # flat draw of the same size, in C order
    tile = law.sample(make_rng(31, 2), (9, 5))
    assert tile.shape == (9, 5)
    assert np.array_equal(tile, law.sample(make_rng(31, 2), 45).reshape(9, 5))


# --- support ---------------------------------------------------------------

def test_uniform_support():
    info = Uniform(1, 3).support()
    assert (info.lower, info.upper) == (1, 3)
    assert info.atoms == ()
    assert not info.contains_zero
    assert not info.has_nonzero_atom


def test_erasure_support_atoms():
    info = ScaledBernoulli(2, 0.5).support()
    assert info.atoms == ((0.0, 0.5), (2.0, 0.5))
    assert info.contains_zero
    assert info.has_nonzero_atom


def test_many_distinct_samples_keep_their_atoms():
    # 200,000 masses of 1/200,000 added one by one read 1.0000000000023175,
    # past the 1e-12 tolerance; summed exactly they read 1
    n = 200_000
    info = Empirical(tuple(1.0 + np.arange(n) / n)).support()
    assert len(info.atoms) == n
    assert math.fsum(m for _, m in info.atoms) == 1.0
    assert (info.lower, info.upper) == (1.0, 1.0 + (n - 1) / n)


def test_gaussian_support_unbounded():
    info = Gaussian(4, 1).support()
    assert info.lower == -math.inf and info.upper == math.inf
    assert info.atoms == ()
    assert not info.is_bounded


def test_degenerate_erasure_support_and_atom_nodes():
    # the atom nodes are the support's atoms, in order, zero masses dropped
    for law, atoms in ((ScaledBernoulli(2, 0.0), ((0.0, 1.0),)),
                       (ScaledBernoulli(-2, 1.0), ((-2.0, 1.0),)),
                       (ScaledBernoulli(-2, 0.25), ((-2.0, 0.25), (0.0, 0.75)))):
        info = law.support()
        assert sorted(info.atoms) == list(atoms)
        assert (info.lower, info.upper) == (atoms[0][0], atoms[-1][0])
        nodes, weights, inner = quadrature_nodes(law)
        assert list(zip(nodes, weights)) == list(info.atoms)
        assert not inner.any()


def test_gaussian_is_the_whole_line_truncated_gaussian():
    law = Gaussian(4, 1)
    whole = TruncatedGaussian(4.0, 1.0, -math.inf, math.inf)
    assert isinstance(law, TruncatedGaussian)
    assert repr(law) == "Gaussian(mu=4, sigma=1)"
    assert law == Gaussian(4.0, 1.0) and law != whole
    assert law.cell_probability == 1.0
    assert law.moments() == whole.moments() == (4.0, 1.0, 17.0)
    assert law.std() == 1.0
    for eta in (0.0, 64.0):
        for a, b in zip(quadrature_nodes(law, (3.0,), eta),
                        quadrature_nodes(whole, (3.0,), eta)):
            np.testing.assert_array_equal(a, b)
    # the node window is mu +- (10 + sqrt(eta)) sigma
    for eta, reach in ((0.0, 10.0), (64.0, 18.0)):
        nodes = quadrature_nodes(law, (), eta)[0]
        assert 4.0 - reach < nodes.min() < 4.0 - reach + 1e-3
        assert 4.0 + reach - 1e-3 < nodes.max() < 4.0 + reach


def test_empirical_support_counts_duplicates():
    info = Empirical((1.0, 2.0, 2.0, 5.0)).support()
    assert info.lower == 1.0 and info.upper == 5.0
    assert info.atoms == ((1.0, 0.25), (2.0, 0.5), (5.0, 0.25))


def test_empirical_support_and_atom_nodes_built_once():
    law = Empirical(tuple(Uniform(1, 3).sample(make_rng(0), 200)))
    assert law.support() is law.support()
    # the objectives sum the atoms the law keeps, built once, read-only
    first = law._atom_nodes
    law.mean_log_abs(1.0, -0.3)
    law.log_abs_moment(1.0, np.array([-0.3, 0.2]), 2.0)
    assert all(a is b for a, b in zip(first, law._atom_nodes))
    assert not any(a.flags.writeable for a in first)
    assert list(zip(*first)) == list(law.support().atoms)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Uniform(3, 1)
    with pytest.raises(ValueError):
        Gaussian(0, 0)
    with pytest.raises(ValueError):
        Empirical(())
    with pytest.raises(ValueError):
        FiniteMixture(((0.7, Uniform(0, 1)), (0.7, Uniform(1, 2))))
    with pytest.raises(ValueError):
        ScaledBernoulli(0, 0.5)


# --- moments ---------------------------------------------------------------

def test_uniform_moments():
    mean, var, second = Uniform(1, 3).moments()
    assert mean == 2.0
    assert var == pytest.approx(1 / 3, abs=1e-15)
    assert second == pytest.approx(13 / 3, abs=1e-14)


def test_erasure_moments_two_point():
    mean, var, second = ScaledBernoulli(2, 0.5).moments()
    assert (mean, var, second) == (1.0, 1.0, 2.0)


def test_mixture_moments_match_monte_carlo():
    mix = FiniteMixture(((0.5, Uniform(0, 1)), (0.5, Uniform(2, 3))))
    mean, var, _ = mix.moments()
    assert mean == pytest.approx(1.5, abs=1e-12)
    assert var == pytest.approx(1 + 1 / 12, abs=1e-12)
    # five standard errors, from the exact central moments: sigma/sqrt(n)
    # for the mean, sqrt((mu4 - sigma^4)/n) for the variance
    n = 10_000_000
    mu4 = sum(w * ((u.b2 - mean) ** 5 - (u.b1 - mean) ** 5) / (5 * (u.b2 - u.b1))
              for w, u in mix.components)
    draws = mix.sample(make_rng(123), n)
    assert mean == pytest.approx(float(np.mean(draws)), abs=5 * math.sqrt(var / n))
    assert var == pytest.approx(float(np.var(draws)),
                                abs=5 * math.sqrt((mu4 - var**2) / n))


def test_truncated_gaussian_moments_match_sampling():
    _, cond = Gaussian(4, 1).restrict(3, 5)
    mean, var, _ = cond.moments()
    draws = cond.sample(make_rng(7), 2_000_000)
    assert mean == pytest.approx(float(np.mean(draws)), abs=2e-3)
    assert var == pytest.approx(float(np.var(draws)), abs=2e-3)


# --- sampling --------------------------------------------------------------

def test_sample_determinism_bitwise():
    a = Uniform(0, 1).sample(make_rng(42), 1000)
    b = Uniform(0, 1).sample(make_rng(42), 1000)
    assert np.array_equal(a, b)


def test_empirical_of_uniform_draws_law_of_large_numbers():
    samples = Uniform(1, 3).sample(make_rng(5), 1_000_000)
    emp = Empirical(tuple(samples[:1000]))
    mean = float(np.mean(emp.sample(make_rng(6), 100_000)))
    assert mean == pytest.approx(emp.moments()[0], abs=0.01)
    assert float(np.mean(samples)) == pytest.approx(2.0, abs=0.01)


def test_erasure_hit_frequency():
    draws = ScaledBernoulli(2, 0.3).sample(make_rng(11), 100_000)
    assert float(np.mean(draws == 2.0)) == pytest.approx(0.3, abs=0.01)


def test_mixture_sampling_is_seed_stable():
    mix = parse_spec("mixture:0.25*uniform:0,1|0.75*gaussian:5,2")
    a = mix.sample(make_rng(3), 500)
    b = mix.sample(make_rng(3), 500)
    assert np.array_equal(a, b)


# --- expectations ----------------------------------------------------------

def test_expect_log_singularity_closed_form():
    # integral of -ln|b| against Uniform(-c, c) is 1 - ln c
    for c in (1.0, 0.5, 2.0):
        val = expect(Uniform(-c, c), lambda b: -np.log(abs(b)), (0.0,))
        assert val == pytest.approx(1 - math.log(c), rel=1e-9)


def test_expect_polynomial():
    assert expect(Uniform(1, 3), lambda b: b * b) == pytest.approx(13 / 3, rel=1e-10)


def test_expect_gaussian_log_moment():
    val = expect(Gaussian(0, 1), lambda b: np.log(abs(b)), (0.0,))
    assert val == pytest.approx(-(EULER_GAMMA + math.log(2)) / 2, abs=1e-7)


def test_expect_normalization_all_kinds():
    dists = [
        Uniform(1, 3),
        Gaussian(4, 1),
        ScaledBernoulli(2, 0.3),
        FiniteMixture(((0.5, Uniform(0, 1)), (0.5, Gaussian(0, 1)))),
        Empirical((1.0, 2.0, 2.0)),
        TruncatedGaussian(0, 1, -1, 2),
    ]
    for dist in dists:
        assert expect(dist, lambda b: 1.0) == pytest.approx(1.0, abs=1e-10)
        mean, _, second = dist.moments()
        assert expect(dist, lambda b: b) == pytest.approx(mean, abs=1e-8)
        assert expect(dist, lambda b: b * b) == pytest.approx(second, abs=1e-8)


def test_expect_power_singularity_never_evaluated_at_break_point():
    # the innermost nodes round onto the singular point; evaluating there
    # would give |0|^-0.5 = inf
    got = expect(Uniform(1, 3), lambda b: np.abs(b - 2.0) ** -0.5, (2.0,))
    assert got == pytest.approx(2.0, abs=1e-7)


def test_expect_divergent_integrand_raises():
    with pytest.raises(NonIntegrable):
        expect(Uniform(-1, 1), lambda b: 1.0 / (b * b), (0.0,))


# --- restriction -----------------------------------------------------------

def test_restrict_uniform_half():
    prob, cond = Uniform(0, 4).restrict(0, 2)
    assert prob == 0.5
    assert cond == Uniform(0, 2)


def test_restrict_whole_support():
    prob, cond = Uniform(1, 3).restrict(1, 3, include_upper=True)
    assert prob == 1.0 and cond == Uniform(1, 3)


def test_restrict_erasure_atom():
    prob, cond = ScaledBernoulli(2, 0.3).restrict(1, 3)
    assert prob == pytest.approx(0.3)
    assert cond == Empirical((2.0,))


def test_restrict_empty_cell():
    with pytest.raises(EmptyCell):
        Uniform(0, 1).restrict(5, 6)
    with pytest.raises(EmptyCell):
        ScaledBernoulli(2, 0.3).restrict(0.5, 1.5)
    # a Gaussian cell whose mass is below the least normal double: its node
    # set read NaN with a RuntimeWarning, and the log mean integrated by
    # parts read 0.086 nats off on [38.4, 39] sigma
    for lo, hi in ((38.4, 39.0), (37.6, 40.0), (-39.0, -38.4)):
        with pytest.raises(EmptyCell):
            Gaussian(0, 1).restrict(lo, hi)
    assert Gaussian(0, 1).restrict(37.5, 38.0)[1].cell_probability > 0.0


def test_law_of_total_expectation():
    cases = [
        (Uniform(1, 3), [1.0, 1.7, 2.4, 3.0]),
        (Gaussian(4, 1), [-math.inf, 3.0, 4.5, math.inf]),
        (FiniteMixture(((0.4, Uniform(0, 2)), (0.6, Uniform(1, 5)))), [0, 2, 3, 5]),
    ]
    integrands = [
        (lambda b: b, ()),
        (lambda b: b * b, ()),
        (lambda b: -np.log(abs(1 + 0.5 * b)), (-2.0,)),
    ]
    for dist, edges in cases:
        for f, sing in integrands:
            total_p = 0.0
            total_e = 0.0
            for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                prob, cond = dist.restrict(lo, hi, include_upper=(i == len(edges) - 2))
                total_p += prob
                total_e += prob * expect(cond, f, sing)
            assert total_p == pytest.approx(1.0, abs=1e-10)
            assert total_e == pytest.approx(expect(dist, f, sing), abs=1e-7)


# --- truncated Gaussian against scipy -----------------------------------------

# standardised cells below, across and above the mean, out to the far tails
_CELLS = [(-math.inf, -9.0), (-9.0, -8.0), (-3.0, -1.0), (-math.inf, 0.5),
          (-1.0, 2.0), (-0.5, math.inf), (0.0, 1.0), (1.0, 3.0), (8.0, 9.0),
          (9.0, 10.0), (10.0, math.inf)]


def _cell(a, b, mu=1.5, sigma=2.0):
    return TruncatedGaussian(mu, sigma, mu + sigma * a, mu + sigma * b)


@pytest.mark.parametrize("a, b", _CELLS)
def test_truncated_gaussian_matches_truncnorm(a, b):
    cell = _cell(a, b)
    oracle = stats.truncnorm(a, b, loc=cell.mu, scale=cell.sigma)
    # the truncnorm density is phi / mass at any interior point
    z = min(max(0.0, a), b) if math.isinf(a) or math.isinf(b) else 0.5 * (a + b)
    mass = float(stats.norm.pdf(z) / (cell.sigma * oracle.pdf(cell.mu + cell.sigma * z)))
    assert cell.cell_probability == pytest.approx(mass, rel=1e-12)
    mean, var, second = cell.moments()
    want_mean, want_var = (float(v) for v in oracle.stats(moments="mv"))
    assert mean == pytest.approx(want_mean, rel=1e-12)
    assert var == pytest.approx(want_var, rel=1e-9)
    assert second == pytest.approx(want_var + want_mean**2, rel=1e-12)


# (cell, mass, mean, std, second_moment_closed_form bits): 60-digit mpmath
# values of the closed forms at the float ends.  The closed forms cancel on
# these narrow and tail cells; the narrow ones read a mean outside the cell
# and a std of 0.0127 and 0.0, the tail ones a std 9e-8 and 3e-9 off
_SUMMED_CELLS = [
    ((2, 1, 0.5, 0.500000000001), 1.2951473051398673e-13, 0.50000000000049999,
     2.8866874860427934e-13, 40.655650304259296),
    ((2, 1, 2, 2.00000002), 7.9788455595374505e-9, 2.0000000099999999,
     5.7735026568079626e-9, 28.367906025440889),
    ((0, 1, 37, 38), 5.7255712225245765e-300, 37.02698768612699,
     0.026968094090563075, 10.423108285850604),
    ((0, 1, 20, 21), 2.7536241153269557e-89, 20.049753067339751,
     0.049631244493875321, 8.6581245429729337),
]


@pytest.mark.parametrize("args, mass, mean, std, bits", _SUMMED_CELLS,
                         ids=["narrow", "narrow-at-mu", "tail-37", "tail-20"])
def test_narrow_and_tail_cells_read_their_own_moments(args, mass, mean, std,
                                                      bits):
    cell = TruncatedGaussian(*args)
    assert cell.cell_probability == pytest.approx(mass, rel=1e-14)
    assert cell.moments()[0] == pytest.approx(mean, rel=1e-15)
    assert cell.lo <= cell.moments()[0] <= cell.hi
    assert cell.std() == pytest.approx(std, rel=1e-14)
    assert second_moment_closed_form(cell).value_bits == pytest.approx(
        bits, rel=1e-14)


def test_upper_tail_cell_mirrors_lower_tail_cell():
    p_hi, hi = Gaussian(0, 1).restrict(8, 9)
    p_lo, lo = Gaussian(0, 1).restrict(-9, -8)
    assert p_hi == pytest.approx(p_lo, rel=1e-14)
    assert hi.moments()[0] == pytest.approx(-lo.moments()[0], rel=1e-14)
    assert hi.moments()[1] == pytest.approx(lo.moments()[1], rel=1e-14)
    assert 8.0 < hi.moments()[0] < 9.0
    # a cell whose upper-tail masses used to cancel to zero (EmptyCell)
    prob, far = Gaussian(0, 1).restrict(9, 10)
    assert prob == pytest.approx(float(stats.norm.sf(9) - stats.norm.sf(10)),
                                 rel=1e-12)
    assert 9.0 < far.moments()[0] < 10.0


def test_upper_tail_draws_stay_in_cell_around_the_mean():
    _, cell = Gaussian(0, 1).restrict(8, 9)
    draws = cell.sample(make_rng(3), 200_000)
    assert draws.min() > 8.0 and draws.max() < 9.0
    assert len(np.unique(draws)) == len(draws)  # not quantised to the ends
    err = float(np.std(draws)) / math.sqrt(len(draws))
    assert abs(float(np.mean(draws)) - cell.moments()[0]) < 5 * err


def test_inverse_cdf_matches_scipy_ndtri():
    # p = 0 and p = 1 read as the infinite quantiles, where inv_cdf raises
    p = np.concatenate([[0.0, 1.0], np.geomspace(1e-300, 0.5, 400),
                        np.linspace(0.01, 0.99, 99), 1.0 - np.geomspace(1e-16, 0.5, 200)])
    ours = distributions._ndtri(p).astype(float)
    np.testing.assert_allclose(ours, special.ndtri(p), rtol=1e-13, atol=0)


@pytest.mark.parametrize("a, b", _CELLS)
def test_truncated_gaussian_draws_match_scipy_transform(a, b):
    # one uniform per draw: below-mean cells invert Phi from lo up, cells
    # above the mean invert the mirrored cell from hi down; mu = 0 keeps the
    # comparison relative to the standardised quantile
    cell = _cell(a, b, mu=0.0)
    u = make_rng(11).random(1000)
    z = cell.cell_probability
    if a > 0.0:
        want = cell.mu - cell.sigma * special.ndtri(special.ndtr(-b) + u * z)
    else:
        want = cell.mu + cell.sigma * special.ndtri(special.ndtr(a) + u * z)
    got = cell.sample(make_rng(11), 1000)
    np.testing.assert_allclose(got, np.clip(want, cell.lo, cell.hi), rtol=1e-13)


class _StubRng:
    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        return self.u[:size]


@pytest.mark.parametrize("a, b", [(-math.inf, 0.5), (-1.0, math.inf),
                                  (-math.inf, math.inf), (-1.0, 2.0),
                                  (-2.998, math.inf), (0.5, math.inf)])
def test_truncated_gaussian_draw_ends_clip_like_ndtri(a, b):
    # u = 0 with lo = -inf asks for the quantile at p = 0, and u just below 1
    # may round p up to 1: the quantile argument is clipped into (0, 1), so
    # both draws are finite and inside the cell
    cell = _cell(a, b, mu=0.0)
    u = np.array([0.0, 1.0 - 2.0**-53])
    got = cell.sample(_StubRng(u), 2)
    assert np.all(np.isfinite(got))
    assert np.all((cell.lo <= got) & (got <= cell.hi))


# --- spec grammar ----------------------------------------------------------

def test_parse_spec_round_trips():
    assert parse_spec("uniform:1,3") == Uniform(1, 3)
    assert parse_spec("gaussian:4,1") == Gaussian(4, 1)
    assert parse_spec("erasure:2,0.5") == ScaledBernoulli(2, 0.5)
    mix = parse_spec("mixture:0.5*uniform:0,1|0.5*uniform:2,3")
    assert isinstance(mix, FiniteMixture)
    assert mix.components[0] == (0.5, Uniform(0, 1))


def test_parse_spec_empirical(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_text("1.5\n2.5\n2.5\n")
    dist = parse_spec(f"empirical:@{path}")
    assert dist == Empirical((1.5, 2.5, 2.5))


@pytest.mark.parametrize("bad", ["nope", "uniform:1", "uniform:3,1",
                                 "mixture:0.5*uniform:0,1", "erasure:0,0.5",
                                 "uniform:1,inf", "uniform:nan,1", "uniform:-inf,1",
                                 "uniform:-1e300,1e300", "uniform:0,5e-324",
                                 "gaussian:nan,1", "gaussian:inf,1", "gaussian:0,inf",
                                 "gaussian:0,nan", "gaussian:0,5e-324",
                                 "gaussian:1e300,1", "gaussian:1e20,1e-10",
                                 "erasure:inf,0.5", "erasure:nan,0.5", "erasure:1,nan",
                                 "mixture:nan*uniform:1,3|1*uniform:1,2",
                                 "mixture:inf*uniform:1,3|-inf*uniform:1,2"])
def test_parse_spec_rejects(bad):
    with pytest.raises((DistSpecError, ValueError)):
        parse_spec(bad)


def test_parse_spec_empirical_unreadable_or_not_finite(tmp_path):
    with pytest.raises(DistSpecError):
        parse_spec(f"empirical:@{tmp_path / 'missing.csv'}")
    with pytest.raises(DistSpecError):
        parse_spec(f"empirical:@{tmp_path}")  # a directory
    path = tmp_path / "samples.csv"
    path.write_text("1.5\nnan\n")
    with pytest.raises(DistSpecError):
        parse_spec(f"empirical:@{path}")


# any float text, including nan, +-inf, huge and subnormal values
_NUMBER = st.one_of(st.floats(), st.floats(-10, 10), st.floats(0, 1),
                    st.sampled_from([5e-324, 1e-310, 1e-300, 1e150, 1e300]))
_LEAF = st.builds("{}:{!r},{!r}".format,
                  st.sampled_from(["uniform", "gaussian", "erasure"]),
                  _NUMBER, _NUMBER)
_SPEC = st.one_of(_LEAF, st.builds(
    lambda w, a, b: f"mixture:{w!r}*{a}|{1 - w!r}*{b}", _NUMBER, _LEAF, _LEAF))


@settings(max_examples=500)
@given(_SPEC, st.floats(-1e3, 1e3))
def test_parse_spec_yields_finite_law_or_rejects(spec, singular):
    try:
        dist = parse_spec(spec)
    except (DistSpecError, ValueError):
        return
    assert all(math.isfinite(m) for m in dist.moments())
    for singularities in ((), (singular,)):
        nodes, weights, _ = quadrature_nodes(dist, singularities)
        assert np.isfinite(nodes).all() and np.isfinite(weights).all()


# --- array-valued objectives -------------------------------------------------

_ARRAY_REGIMES = {
    "uniform": st.builds(lambda b1, w: Uniform(b1, b1 + w),
                         st.floats(-4.0, 4.0), st.floats(2.0 ** -4, 8.0)),
    "gaussian": st.builds(Gaussian, st.floats(-4.0, 4.0),
                          st.floats(2.0 ** -4, 4.0)),
    # a cell of N(mu, sigma) from restrict, from 6 sigma below mu to 4 above
    "cell": st.builds(lambda mu, sigma, a, w: Gaussian(mu, sigma).restrict(
                          mu + a * sigma, mu + (a + w) * sigma)[1],
                      st.floats(-4.0, 4.0), st.floats(2.0 ** -4, 4.0),
                      st.floats(-6.0, 4.0), st.floats(0.1, 8.0)),
    "erasure": st.builds(ScaledBernoulli,
                         st.sampled_from([-3.0, -0.5, 0.75, 2.0, 3.5]),
                         st.floats(0.05, 0.95)),
    "empirical": st.builds(lambda xs: Empirical(tuple(xs)),
                           st.lists(st.floats(-4.0, 4.0), min_size=1,
                                    max_size=30)),
}
_ARRAY_REGIMES["mixture"] = st.builds(
    lambda w, a, b: FiniteMixture(((w, a), (1.0 - w, b))),
    st.floats(0.05, 0.95), st.one_of(*_ARRAY_REGIMES.values()),
    st.one_of(*_ARRAY_REGIMES.values()))


def straddling_grid(law):
    """The law's capacity scan grid without 0, plus every kink -1/loc of
    an atom and -1/end of a support end, node-window end or by-parts range
    end with its float neighbours, and two gains past the float range."""
    from actcap.capacity import _WINDOW, _build_grid, _grid_centers, _unit

    ends = [loc for loc, _ in law.support().atoms]
    parts = [law] + [part for _, part in getattr(law, "components", ())]
    for part in parts:
        info = part.support()
        ends += [info.lower, info.upper]
        if isinstance(part, TruncatedGaussian):
            # the window's ends, and the ends of the by-parts range, half a
            # panel beyond them, where the log mean changes branch; the
            # rounding of mu + sigma z and of the cut -(mu + 1/d) / sigma
            # can hide an ulp of z, so the cuts step by 4 ulps across it
            ends += list(part._window(0.0))
            ends += [part.mu + part.sigma * (z + k * 4.0 * math.ulp(z))
                     for z in part._log_nodes[4].tolist() for k in range(-2, 3)]
    kinks = [-1.0 / e for e in ends if e != 0.0 and math.isfinite(e)]
    with np.errstate(all="ignore"):  # a mean near 0 puts -1/mean past the range
        grid = [*_build_grid(_WINDOW / _unit(law), _grid_centers(law)),
                *kinks, *np.nextafter(kinks, math.inf),
                *np.nextafter(kinks, -math.inf), 1.7e308, -1.7e308]
    return np.array([d for d in grid if d != 0.0 and math.isfinite(d)])


@pytest.mark.parametrize("regime", sorted(_ARRAY_REGIMES))
@settings(max_examples=10)
@given(data=st.data(), eta=st.sampled_from([0.01, 0.5, 2.0, 64.0]))
def test_array_objectives_equal_their_scalar_calls(regime, data, eta):
    # every law maps a 1-D array of gains to the values of its scalar
    # calls, bit for bit: a truncated Gaussian's log mean on both sides of
    # its switch between the by-parts and the direct sum, and closed forms,
    # atom sums and mixtures gain by gain
    law = data.draw(_ARRAY_REGIMES[regime])
    grid = straddling_grid(law)
    # past the float range |b d| overflows
    with np.errstate(over="ignore"):
        for method, args in (("mean_log_abs", ()), ("log_abs_moment", (eta,))):
            got = getattr(law, method)(1.0, grid, *args)
            want = [getattr(law, method)(1.0, float(d), *args) for d in grid]
            assert got.shape == grid.shape and got.dtype == float
            assert got.tobytes() == np.array(want).tobytes(), method


def test_laws_keep_what_they_derive_per_eta(monkeypatch):
    cell = Gaussian(4.0, 1.0).restrict(4.0, 14.0)[1]
    assert cell.cell_probability is cell.cell_probability
    # the log mean keeps one node set, built once on first use and
    # read-only, for cuts outside the window (d = -0.3, 20), inside it
    # (-0.2) and within half a panel of it (-1 / 3.8), alone or in an array
    fresh = Gaussian(4.0, 1.0).restrict(4.0, 14.0)[1]._log_nodes
    builds = []
    even_panels = distributions.even_panels
    monkeypatch.setattr(distributions, "even_panels",
                        lambda *args: builds.append(args) or even_panels(*args))
    gains = [-0.3, -0.2, -1.0 / 3.8, 20.0]
    values = [cell.mean_log_abs(1.0, d) for d in gains]
    first = cell._log_nodes
    assert cell.mean_log_abs(1.0, np.array(gains)).tolist() == values
    assert len(builds) == 1 and cell._log_nodes is first
    assert not any(a.flags.writeable for a in first)
    for a, b in zip(first, fresh):
        np.testing.assert_array_equal(a, b)
    # a window that touches mu takes panels one sigma wide: 10 on [4, 14]
    assert first[-1].size == 160
    # the eta objective builds its own graded node set and leaves it
    for eta in (0.5, 2.0, 64.0):
        cell.log_abs_moment(1.0, -0.3, eta)
    assert len(builds) == 1 and cell._log_nodes is first


def test_array_objectives_reach_both_infinities():
    # a gain past the float range reads +inf, a cancelled atom -inf, and an
    # array call reads both as its scalar calls do
    law = FiniteMixture(((0.5, Empirical((0.5, 2.0))),
                         (0.5, Gaussian(4.0, 1.0).restrict(3.0, 6.0)[1])))
    grid = np.array([-1.7e308, -2.0, -0.5, 1.7e308])
    with np.errstate(over="ignore"):
        got = law.mean_log_abs(1.0, grid)
    assert got.tolist() == [math.inf, -math.inf, -math.inf, math.inf]
    # a cell holding 0 has those gains' cuts inside its window, where the
    # log mean is integrated by parts; |b d| past the float range reads
    # +inf there too, alone and in an array
    cell = Gaussian(0.0, 1.0).restrict(-1.0, 2.0)[1]
    with np.errstate(over="ignore"):
        assert cell.mean_log_abs(1.0, grid[[0, 3]]).tolist() == [math.inf] * 2
        assert cell.mean_log_abs(1.0, 1.7e308) == math.inf


def atom_sums(law, d, eta=None):
    """E ln|1 + B d| (eta None) or ln E|1 + B d|^eta by math.fsum over the
    law's atoms, an atom cancelled where d is its kink -1/loc or 1 + loc d
    is exactly 0."""
    atoms = law.support().atoms
    logs = [(m, -math.inf if (loc and d == -1.0 / loc) or 1.0 + loc * d == 0.0
             else math.log(abs(1.0 + loc * d))) for loc, m in atoms]
    mass = math.fsum(m for m, _ in logs)
    if eta is None:
        if any(log == -math.inf for _, log in logs):
            return -math.inf
        return math.fsum(m * log for m, log in logs) / mass
    top = max(eta * log for _, log in logs)
    if math.isinf(top):
        return top
    return top + math.log(math.fsum(m * math.exp(eta * log - top)
                                    for m, log in logs) / mass)


@pytest.mark.parametrize("law", [
    *(ScaledBernoulli(beta, p) for beta in (1.3265940902021773, -0.5)
      for p in (0.0, 0.3, 1.0)),
    Empirical((0.5, 2.0, 2.0, -1.5, 0.0, 2.0, 1e-3, 0.5)),
], ids=repr)
def test_atomic_objectives_are_exact_finite_sums(law):
    # at each kink, its float neighbours, past the float range and between;
    # a cancelled atom reads -inf in the log mean, though 1 + beta (-1/beta)
    # rounds to 1.1e-16 at the first beta
    locs = {1.3265940902021773, -0.5, *(loc for loc, _ in law.support().atoms)}
    kinks = [-1.0 / loc for loc in locs if loc]
    grid = np.array([*kinks, *np.nextafter(kinks, math.inf),
                     *np.nextafter(kinks, -math.inf), 1.7e308, -1.7e308,
                     -0.4, 0.7, 3.0])
    with np.errstate(over="ignore"):
        for eta in (None, 0.01, 0.5, 2.0, 64.0):
            if eta is None:
                got = law.mean_log_abs(1.0, grid)
                one = [law.mean_log_abs(1.0, float(d)) for d in grid]
            else:
                got = law.log_abs_moment(1.0, grid, eta)
                one = [law.log_abs_moment(1.0, float(d), eta) for d in grid]
            assert got.tolist() == one
            for d, value in zip(grid.tolist(), one):
                assert value == pytest.approx(atom_sums(law, d, eta),
                                              rel=1e-14, abs=1e-14), (d, eta)


def test_truncated_gaussian_moment_with_an_underflowing_panel():
    # -1/d = 5.9e-309 is a subnormal break inside the cell [0, 1]: the gap's
    # panel weight underflows to 0, whose log -inf adds nothing, and no
    # divide-by-zero warning is raised
    cell = Gaussian(0, 1).restrict(0, 1)[1]
    assert cell.log_abs_moment(1.0, -1.7e308, 2.0) == 1418.2196715612188

