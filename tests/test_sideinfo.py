import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actcap.capacity import eta_capacity, second_moment_closed_form, shannon_capacity
from actcap.distributions import (
    Empirical,
    EmptyCell,
    FiniteMixture,
    Gaussian,
    ScaledBernoulli,
    Uniform,
)
from actcap.sideinfo import (
    SideCell,
    SideInformationModel,
    UnboundedSupport,
    eta_capacity_with_si,
    model_from_boundaries,
    shannon_capacity_with_si,
    si_value_curve,
    uniform_bit_partition,
)

SQRT3 = math.sqrt(3.0)


def test_uniform_bit_partition_halves():
    model = uniform_bit_partition(Uniform(0, 4), 1)
    assert len(model.cells) == 2
    assert model.cells[0].probability == pytest.approx(0.5)
    assert model.cells[0].conditional == Uniform(0, 2)
    assert model.cells[1].conditional == Uniform(2, 4)


def test_uniform_bit_partition_of_an_empirical_law():
    model = uniform_bit_partition(Empirical((1.0, 1.5, 2.0, 2.5, 3.0)), 1)
    assert [(c.label, c.probability, c.conditional) for c in model.cells] == [
        ("[1,2)", 0.4, Empirical((1.0, 1.5))),
        # the closing cell keeps its upper end
        ("[2,3)", 0.6, Empirical((2.0, 2.5, 3.0))),
    ]


def test_uniform_bit_partition_trivial():
    model = uniform_bit_partition(Gaussian(4, 1).restrict(2, 6)[1], 0)
    assert len(model.cells) == 1


def test_uniform_bit_partition_quarters():
    model = uniform_bit_partition(Uniform(-0.1, 0.3), 2)
    assert len(model.cells) == 4
    for cell in model.cells:
        assert cell.probability == pytest.approx(0.25, abs=1e-12)
        lo, hi = cell.conditional.b1, cell.conditional.b2
        assert hi - lo == pytest.approx(0.1, abs=1e-12)


def test_unbounded_support_rejected():
    with pytest.raises(UnboundedSupport):
        uniform_bit_partition(Gaussian(0, 1), 1)


def test_partition_probabilities_validated():
    with pytest.raises(ValueError):
        SideInformationModel((
            SideCell("a", 0.6, Uniform(0, 1)),
            SideCell("b", 0.6, Uniform(1, 2)),
        ))
    with pytest.raises(ValueError):
        SideInformationModel((SideCell("a", 0.0, Uniform(0, 1)),
                              SideCell("b", 1.0, Uniform(1, 2))))


def test_inconsistent_partition_rejected():
    model = SideInformationModel((
        SideCell("a", 0.5, Uniform(0, 1)),
        SideCell("b", 0.5, Uniform(5, 9)),
    ))
    with pytest.raises(ValueError):
        model.validate_against(Uniform(0, 4))


@pytest.mark.parametrize("k", [-20, 0, 20, 40])
@pytest.mark.parametrize("sense, eta", [("shannon", None), ("eta", 2.0)])
def test_staircase_is_scale_free(k, sense, eta):
    # the consistency check compared mean and variance with an absolute
    # 1e-7, so Uniform(2^20, 3 * 2^20) was rejected as inconsistent; it
    # now compares in the law's power-of-two unit, and the scan grid scales
    # with the law, so every rung keeps its bits
    scale = 2.0 ** k
    want = si_value_curve(Uniform(1.0, 3.0), 4, sense, eta)
    assert si_value_curve(Uniform(scale, 3.0 * scale), 4, sense, eta) == want


@pytest.mark.parametrize("k", [-20, 20, 40])
def test_gaussian_cells_are_scale_free(k):
    # a truncated-Gaussian cell's node set scales with the law exactly
    def cells(s):
        model = model_from_boundaries(Gaussian(4.0 * s, s),
                                      [-10.0 * s, 4.0 * s, 14.0 * s])
        res = shannon_capacity_with_si(model)
        return res.value_bits, [(r.value_bits, r.optimal_d * s)
                                for r in res.per_cell]

    assert cells(2.0 ** k) == cells(1.0)


def _floats(lo, hi):
    # none so near 0 that 2^-40 of it leaves the normal floats
    return st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 2.0 ** -20)


_UNIFORM = st.builds(lambda b1, w: lambda s: Uniform(b1 * s, (b1 + w) * s),
                     _floats(-1.0, 4.0), _floats(0.25, 4.0))
_ERASURE = st.builds(lambda beta, p: lambda s: ScaledBernoulli(beta * s, p),
                     st.sampled_from([-3.0, -0.5, 0.75, 2.0]),
                     _floats(0.05, 0.95))


def _mixture(first, second):
    return st.builds(
        lambda w, f, g: lambda s: FiniteMixture(((w, f(s)), (1.0 - w, g(s)))),
        _floats(0.1, 0.9), first, second)


# a first draw picks the regime, so each gets a share of the examples;
# each law is a function of its scale s (B -> s B), every parameter scaled
# exactly
_SI_LAWS = st.sampled_from([
    _UNIFORM, _mixture(_UNIFORM, _UNIFORM), _mixture(_ERASURE, _UNIFORM),
]).flatmap(lambda regime: regime)


@settings(max_examples=12)
@given(law=_SI_LAWS)
def test_drawn_staircase_properties(law):
    curves = {sense: si_value_curve(law(1.0), 3, sense, eta)
              for sense, eta in (("shannon", None), ("eta", 2.0))}
    shannon, eta2 = ([value for _, value in curves[s]] for s in ("shannon", "eta"))
    assert all([k for k, _ in c] == [0, 1, 2, 3] for c in curves.values())
    # Jensen: the eta = 2 staircase sits at or below the Shannon one
    assert all(e <= sh + 1e-9 for e, sh in zip(eta2, shannon))
    # B -> 2^j B moves no rung
    for j in (-40, 3, 20):
        for sense, eta in (("shannon", None), ("eta", 2.0)):
            twin = si_value_curve(law(2.0 ** j), 3, sense, eta)
            assert all(a == b or abs(a - b) <= 1e-12
                       for (_, a), (_, b) in zip(twin, curves[sense])), (j, sense)


def test_single_cell_reproduces_base():
    dist = Uniform(1, 3)
    model = uniform_bit_partition(dist, 0)
    sh = shannon_capacity_with_si(model)
    assert sh.value_bits == pytest.approx(shannon_capacity(dist).value_bits,
                                          abs=1e-8)
    e2 = eta_capacity_with_si(model, 2.0)
    assert e2.value_bits == pytest.approx(eta_capacity(dist, 2.0).value_bits,
                                          abs=1e-8)


def test_revealed_atoms_make_shannon_infinite():
    model = model_from_boundaries(ScaledBernoulli(2, 0.5), [0.0, 1.0, 2.0])
    res = shannon_capacity_with_si(model)
    assert res.value_bits == math.inf
    # the cell pinned at gain 2 is an exactly cancellable atom; the cell
    # pinned at 0 carries no control authority at all
    by_label = dict(zip((c.label for c in model.cells), res.per_cell))
    assert by_label["[1,2)"].value_bits == math.inf
    assert by_label["[0,1)"].value_bits == 0.0


def test_eta_aggregate_requires_eta():
    model = uniform_bit_partition(Uniform(1, 3), 1)
    for eta in (None, 0.0, float("nan")):
        with pytest.raises(ValueError):
            eta_capacity_with_si(model, eta)


def test_erasure_side_information_does_not_change_eta():
    # revealing whether the gain erased leaves -(1/eta) log2(1-p) unchanged:
    # the erased cell's conditional minimum is 1 at any d, the hit cell's is 0
    for p in (0.3, 0.5):
        for eta in (1.0, 2.0):
            model = model_from_boundaries(ScaledBernoulli(2, p), [0.0, 1.0, 2.0])
            res = eta_capacity_with_si(model, eta)
            assert res.value_bits == pytest.approx(-math.log2(1 - p) / eta,
                                                   abs=1e-9)


def test_low_snr_first_bit_worth_more_than_a_bit():
    dist = Uniform(0.1 - SQRT3, 0.1 + SQRT3)  # mean/sigma = 0.1, straddles 0
    base = shannon_capacity(dist).value_bits
    one_bit = shannon_capacity_with_si(uniform_bit_partition(dist, 1)).value_bits
    assert one_bit - base > 1.0


def test_snr_one_first_bit_worth_less_than_second():
    dist = Uniform(1 - SQRT3, 1 + SQRT3)  # mean/sigma = 1
    pts = dict(si_value_curve(dist, 2, sense="shannon"))
    first = pts[1] - pts[0]
    second = pts[2] - pts[1]
    assert first < 1.0
    assert first < second


def test_eta_aggregate_differs_from_weighted_average():
    # the expectation of conditional minima sits inside one log, so by
    # Jensen the aggregate sits strictly BELOW the probability-weighted
    # per-cell capacities whenever the cells differ
    model = uniform_bit_partition(Uniform(-1, 3), 1)
    res = eta_capacity_with_si(model, 2.0)
    weighted = sum(
        c.probability * r.value_bits
        for c, r in zip(model.cells, res.per_cell)
    )
    assert res.value_bits < weighted - 1e-3
    # but never below the no-information capacity
    assert res.value_bits >= eta_capacity(Uniform(-1, 3), 2.0).value_bits - 1e-7


def test_eta_aggregate_closed_form_cells():
    # two uniform cells whose conditional minima follow the closed form
    model = uniform_bit_partition(Uniform(2, 6), 1)
    res = eta_capacity_with_si(model, 2.0)
    acc = 0.0
    for cell in model.cells:
        c2 = second_moment_closed_form(cell.conditional).value_bits
        acc += cell.probability * 2.0 ** (-2.0 * c2)
    assert res.value_bits == pytest.approx(-0.5 * math.log2(acc), abs=1e-6)
    assert res.value_bits > eta_capacity(Uniform(2, 6), 2.0).value_bits


def test_eta_aggregate_survives_underflow_of_the_cell_minima():
    # 2^(-eta C) underflows past eta ~ 1075/C; the aggregate sums in log2
    pts = si_value_curve(Uniform(1, 3), 1, sense="eta", eta=2000.0)
    assert pts[0][1] == pytest.approx(
        eta_capacity(Uniform(1, 3), 2000.0).value_bits, rel=1e-15)
    assert pts[0][1] < pts[1][1] < math.inf


def test_si_value_curve_checks_bits_up_front():
    for k_max in (-1, 21):
        with pytest.raises(ValueError, match="k_max"):
            si_value_curve(Uniform(1, 3), k_max)


def test_model_from_boundaries_rejects_nan_edges():
    with pytest.raises(ValueError, match="strictly increasing"):
        model_from_boundaries(Uniform(0, 4), [0.0, math.nan, 4.0])


def test_refinement_never_hurts():
    dist = Uniform(2, 6)
    for sense, eta in (("shannon", None), ("eta", 2.0)):
        pts = si_value_curve(dist, 3, sense=sense, eta=eta)
        values = [v for _, v in pts]
        assert all(b >= a - 1e-7 for a, b in zip(values, values[1:]))


def test_high_snr_per_bit_gain_approaches_one():
    dist = Uniform(10 - SQRT3, 10 + SQRT3)
    pts = dict(si_value_curve(dist, 4, sense="shannon"))
    for k in (3, 4):
        assert 0.9 <= pts[k] - pts[k - 1] <= 1.1


def test_model_from_boundaries_rejects_empty():
    with pytest.raises(EmptyCell):
        model_from_boundaries(Uniform(0, 1), [5, 6, 7])


def test_si_value_curve_rejects_an_unknown_sense():
    with pytest.raises(ValueError, match="unknown sense 'zero_error'"):
        si_value_curve(Uniform(1, 3), 0, sense="zero_error")
