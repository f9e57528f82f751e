import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actcap.distributions import (
    DistSpecError,
    Empirical,
    EmptyCell,
    FiniteMixture,
    Gaussian,
    NonIntegrable,
    ScaledBernoulli,
    TruncatedGaussian,
    Uniform,
    make_rng,
    parse_spec,
)

EULER_GAMMA = 0.5772156649015329


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


def test_gaussian_support_unbounded():
    info = Gaussian(4, 1).support()
    assert info.lower == -math.inf and info.upper == math.inf
    assert info.atoms == ()
    assert not info.is_bounded


def test_empirical_support_counts_duplicates():
    info = Empirical((1.0, 2.0, 2.0, 5.0)).support()
    assert info.lower == 1.0 and info.upper == 5.0
    assert info.atoms == ((1.0, 0.25), (2.0, 0.5), (5.0, 0.25))


def test_empirical_support_and_atom_nodes_built_once():
    law = Empirical(tuple(Uniform(1, 3).sample(make_rng(0), 200)))
    assert law.support() is law.support()
    first = law.quadrature_nodes()
    again = law.quadrature_nodes((-2.0,))
    assert all(a is b for a, b in zip(first, again))
    assert not first[1].flags.writeable


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
    draws = mix.sample(make_rng(123), 10_000_000)
    assert mean == pytest.approx(float(np.mean(draws)), abs=5e-4)
    assert var == pytest.approx(float(np.var(draws)), abs=1e-3)


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
        val = Uniform(-c, c).expect(lambda b: -np.log(abs(b)), (0.0,))
        assert val == pytest.approx(1 - math.log(c), rel=1e-9)


def test_expect_polynomial():
    assert Uniform(1, 3).expect(lambda b: b * b) == pytest.approx(13 / 3, rel=1e-10)


def test_expect_gaussian_log_moment():
    val = Gaussian(0, 1).expect(lambda b: np.log(abs(b)), (0.0,))
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
        assert dist.expect(lambda b: 1.0) == pytest.approx(1.0, abs=1e-10)
        mean, _, second = dist.moments()
        assert dist.expect(lambda b: b) == pytest.approx(mean, abs=1e-8)
        assert dist.expect(lambda b: b * b) == pytest.approx(second, abs=1e-8)


def test_expect_power_singularity_never_evaluated_at_break_point():
    # the innermost nodes round onto the singular point; evaluating there
    # would give |0|^-0.5 = inf
    got = Uniform(1, 3).expect(lambda b: np.abs(b - 2.0) ** -0.5, (2.0,))
    assert got == pytest.approx(2.0, abs=1e-7)


def test_expect_divergent_integrand_raises():
    with pytest.raises(NonIntegrable):
        Uniform(-1, 1).expect(lambda b: 1.0 / (b * b), (0.0,))


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
                total_e += prob * cond.expect(f, sing)
            assert total_p == pytest.approx(1.0, abs=1e-10)
            assert total_e == pytest.approx(dist.expect(f, sing), abs=1e-7)


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


@settings(max_examples=500, deadline=None)
@given(_SPEC, st.floats(-1e3, 1e3))
def test_parse_spec_yields_finite_law_or_rejects(spec, singular):
    try:
        dist = parse_spec(spec)
    except (DistSpecError, ValueError):
        return
    assert all(math.isfinite(m) for m in dist.moments())
    for singularities in ((), (singular,)):
        nodes, weights, _ = dist.quadrature_nodes(singularities)
        assert np.isfinite(nodes).all() and np.isfinite(weights).all()
