"""Laws of the multiplicative actuation gain.

Each distribution knows its support (bounds plus atoms), exact moments, how
to draw reproducible samples, its quadrature node set (atoms weighted by
their mass, density pieces covered by the graded pattern of
:mod:`actcap.quadrature` around declared singular points), and how to
condition on an interval cell.  Every expectation is one weighted sum over
that node set, the two that the capacity objectives read included, unless
a law overrides them (the uniform law in closed form, a mixture by
composition).  Constructors reject non-finite parameters and laws whose
moments overflow.  Values are immutable and safe for concurrent reads;
sampling always goes through an explicit generator.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import FAIL_REL, NonIntegrable, panel_nodes

__all__ = [
    "ActuationDistribution",
    "DistSpecError",
    "Empirical",
    "EmptyCell",
    "FiniteMixture",
    "Gaussian",
    "NonIntegrable",
    "ScaledBernoulli",
    "SupportInfo",
    "TruncatedGaussian",
    "Uniform",
    "make_rng",
    "parse_spec",
    "path_streams",
    "path_words",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

# Beyond 10 sigma the Gaussian density is below e^-50 of its peak, far below
# the 1e-9 quadrature target.  An integrand growing like |b|^eta moves the
# peak of its product with the density out by about sqrt(eta) sigma, so the
# window reaches 10 + sqrt(eta) sigma, up to 36.5 sigma.  Past that the
# density is below e^-666 of its peak, and the graded panels at the window
# end would carry subnormal weights (zero weights past about 38.6 sigma).
_GAUSS_TAIL_SIGMAS = 10.0
_GAUSS_MAX_SIGMAS = 36.5

_ATOM_MASS_TOL = 1e-12
_WEIGHT_TOL = 1e-12


class EmptyCell(ValueError):
    """Conditioning cell carries zero probability."""


class DistSpecError(ValueError):
    """Unparseable distribution specification string."""


def make_rng(seed, path=0):
    """Counter-based generator of path ``path`` under ``seed``.

    Philox keyed by the pair (seed, path) itself, one uint64 word each, with
    the counter at 0.  Distinct keys give independent streams, and a key
    gives the same draws on every run, which is what makes all Monte Carlo
    in this package reproducible.  Both words must lie in [0, 2^64).
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, path)))


def path_streams(seed, lo, hi):
    """Yield a generator for each path in [lo, hi), reading ``make_rng(seed, p)``.

    One generator is re-keyed in place for each path, so finish drawing for
    a path before advancing.  Short rows of one-word draws can instead come
    from :func:`path_words`, which computes the same streams from the same
    keys for a whole block at once.
    """
    if hi > lo:
        _key(seed, hi - 1)  # the last path's word must fit too
    rng = make_rng(seed, lo)
    bit_gen = rng.bit_generator
    state = bit_gen.state  # counter 0, empty buffer, no pending uint32
    key = state["state"]["key"]
    for p in range(lo, hi):
        key[1] = p
        bit_gen.state = state
        yield rng


def path_words(seed, lo, hi, n):
    """The first ``n`` raw uint64 words of ``make_rng(seed, p)`` for every
    path p in [lo, hi), shape (hi - lo, n).

    Philox4x64-10 (Salmon et al., SC'11) evaluated on numpy lanes, one lane
    per path and block of four words.  numpy's ``Philox`` bumps its counter
    before each block, so word 4j + i is output i of counter (j + 1, 0, 0,
    0) under the key (seed, p).  The cost is per word, not per path, so it
    beats re-keying a generator for each path only on short rows.
    """
    if hi > lo:
        _key(seed, hi - 1)  # checked first, as in path_streams
    _key(seed, lo)
    rows, blocks = hi - lo, -(-n // 4)
    # counter words (0, 2), which a round multiplies, and (1, 3); the
    # counters are the same on every path until the first key is mixed in
    even = np.zeros((2, 1, blocks), dtype=np.uint64)
    even[0, 0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    key = np.empty((2, rows, 1), dtype=np.uint64)
    key[0], key[1, :, 0] = seed, np.arange(lo, hi, dtype=np.uint64)
    for r in range(10):
        if r:
            key += _PHILOX_BUMP
        high, low = _mulhilo(even)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        even, odd = high[::-1] ^ odd ^ key, low[::-1]
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1)
    return words.reshape(rows, 4 * blocks)[:, :n]


def _mulhilo(x):
    """High and low uint64 words of the 128-bit products of the Philox
    multipliers and x.  The high word is summed from 32-bit halves, no
    partial sum passing 2^64."""
    x_hi, x_lo = x >> _HALF, x & _LOW
    t = x_hi * _MUL_LO + ((x_lo * _MUL_LO) >> _HALF)
    u = x_lo * _MUL_HI + (t & _LOW)
    return x_hi * _MUL_HI + (t >> _HALF) + (u >> _HALF), x * _PHILOX_MUL


# Philox4x64 round multipliers and key bumps, per multiplied counter word
_PHILOX_MUL = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                       dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                        dtype=np.uint64).reshape(2, 1, 1)
_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_MUL_HI, _MUL_LO = _PHILOX_MUL >> _HALF, _PHILOX_MUL & _LOW


def _key(seed, path):
    """The Philox key (seed, path), one uint64 word each."""
    words = (int(seed), int(path))
    if not all(0 <= w < 2**64 for w in words):
        raise ValueError(f"seed and path must lie in [0, 2^64), got {words}")
    return np.array(words, dtype=np.uint64)


@dataclass(frozen=True)
class SupportInfo:
    """Support bounds, atom list and derived flags of a gain law."""

    lower: float
    upper: float
    atoms: tuple[tuple[float, float], ...]
    contains_zero: bool
    has_nonzero_atom: bool

    @staticmethod
    def build(lower, upper, atoms=()):
        atoms = tuple((float(a), float(m)) for a, m in atoms if m > 0.0)
        if not lower <= upper:
            raise ValueError(f"support bounds out of order: [{lower}, {upper}]")
        for loc, _ in atoms:
            if not lower <= loc <= upper:
                raise ValueError(f"atom at {loc} outside [{lower}, {upper}]")
        mass = sum(m for _, m in atoms)
        if mass > 1.0 + _ATOM_MASS_TOL:
            raise ValueError(f"atom masses sum to {mass} > 1")
        return SupportInfo(
            lower=float(lower),
            upper=float(upper),
            atoms=atoms,
            contains_zero=lower <= 0.0 <= upper,
            has_nonzero_atom=any(loc != 0.0 for loc, _ in atoms),
        )

    @property
    def is_bounded(self):
        return self.lower > NEG_INF and self.upper < POS_INF


class ActuationDistribution:
    """Base class for gain laws; subclasses provide a support (with its
    atoms) and density pieces."""

    def support(self) -> SupportInfo:
        raise NotImplementedError

    def moments(self) -> tuple[float, float, float]:
        """(mean, variance, second moment), exact."""
        raise NotImplementedError

    def std(self) -> float:
        """Standard deviation.  Laws with a scale parameter form it without
        squaring, so it stays positive where the variance underflows."""
        return math.sqrt(self.moments()[1])

    def sample(self, rng, size):
        """Draw an array of ``size`` i.i.d. values with the supplied generator.

        Laws that spend exactly one ``rng.random()`` word per value define
        ``_from_uniform(u)``, the value of each uniform in u, and draw with
        it; :mod:`actcap.simulate` maps kernel words (:func:`path_words`)
        through the same formula.  Other laws override this method.
        """
        return self._from_uniform(rng.random(size))

    _from_uniform = None

    objective_route = "node_set"  # or "closed_form", for the diagnostics

    def restrict(self, lo, hi, *, include_upper=False):
        """Condition on the cell [lo, hi) (or [lo, hi] for a closing cell).

        Returns ``(probability, conditional distribution)``; raises
        :class:`EmptyCell` when the cell carries no mass.
        """
        raise NotImplementedError

    # hook used by the shared node set
    def _density_pieces(self, eta=0.0):
        """Density pieces as (lo, hi, pdf): pdf array-valued, absolutely
        scaled, covering the mass of f times the density for any f that
        grows no faster than |b|^eta."""
        return ()

    def quadrature_nodes(self, singularities=(), eta=0.0):
        """``(nodes, weights, inner)`` with E[f(B)] = sum(weights * f(nodes)).

        Atoms are nodes weighted by their mass.  Each density piece is
        covered by the graded pattern of :func:`panel_nodes` between its
        ends and the ``singularities`` clipped into it; ``inner`` marks the
        innermost graded panels.  ``eta`` is the growth exponent of f,
        which sets how far an unbounded piece reaches.
        """
        parts = [self._atom_nodes] if self._atom_nodes else []
        for lo, hi, pdf in self._density_pieces(eta):
            breaks = sorted({lo, hi, *(min(max(s, lo), hi) for s in singularities)})
            nodes, weights, inner = panel_nodes(breaks)
            parts.append((nodes, weights * pdf(nodes), inner))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(p) for p in zip(*parts))

    @cached_property
    def _atom_nodes(self):
        """Atom part of the node set, built once: a large empirical law
        would otherwise rebuild it on every objective evaluation."""
        atoms = self.support().atoms
        if not atoms:
            return ()
        table = np.array(atoms, dtype=float)
        table.flags.writeable = False
        locs, masses = table.T
        return locs, masses, np.zeros(len(atoms), dtype=bool)

    def expect(self, integrand, singularities=(), eta=0.0):
        """E[integrand(B)] as the node set's weighted sum over its weights' total.

        ``integrand`` maps an array of gains to an array (or a constant).
        ``singularities`` lists the locations of any integrable blow-ups of
        the integrand (logarithmic, or power law with exponent > -1), and
        ``eta`` its growth exponent at large |b|.
        Raises :class:`NonIntegrable` when the innermost graded panels
        carry more than ``FAIL_REL * max(1, |total|)``, or the sum is NaN.
        """
        nodes, weights, inner = self.quadrature_nodes(singularities, eta)
        terms = weights * integrand(nodes)
        total = float(terms.sum())
        tail = float(np.abs(terms[inner]).sum())
        if not tail <= FAIL_REL * np.maximum(1.0, abs(total)):
            raise NonIntegrable(
                f"innermost panels carry {tail!r} of {total!r}; divergent "
                "integrand or misdeclared singularity"
            )
        return total / float(weights.sum())

    def mean_log_abs(self, shift, d):
        """E ln|shift + B d| for d != 0 by :meth:`expect`: -inf when an atom is
        cancelled (:meth:`_cancelled`), ahead of overflow (+inf past the
        float range)."""
        if self._atom_nodes and self._cancelled(shift, d).any():
            return NEG_INF
        return self.expect(lambda b: self._log_abs(shift, d, b), (-shift / d,))

    def log_abs_moment(self, shift, d, eta):
        """ln E|shift + B d|^eta for d != 0, eta > 0: a log-sum-exp, no overflow."""
        nodes, weights, _ = self.quadrature_nodes((-shift / d,), eta)
        return _log_mean_exp(eta * self._log_abs(shift, d, nodes), weights)

    def _cancelled(self, shift, d):
        """Mask over the atoms that shift + B d cancels: where d is the kink
        -shift/loc as the capacity search computes it, though shift + loc d
        can round to 1e-16 there, or where shift + loc d is exactly 0."""
        locs = self._atom_nodes[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return (d == -shift / locs) | (shift + locs * d == 0.0)

    def _log_abs(self, shift, d, b):
        """ln|shift + b d| at the nodes b, -shift/d being a break point."""
        bd = b * d
        t = np.abs(shift + bd)
        if self._atom_nodes:
            gone = self._atom_nodes[0][self._cancelled(shift, d)]
            if gone.size:
                t[np.isin(b, gone)] = 0.0
        if not t.all():
            # cancellation can zero |shift + b d| at a density node a hair
            # from the singular point: it reads one ulp of the products, its
            # true size (0 costs |t|^eta a unit at tiny eta); atoms keep 0
            atoms = {loc for loc, _ in self.support().atoms}
            lost = [i for i in np.flatnonzero(t == 0.0) if b[i] not in atoms]
            t[lost] = 2.3e-16 * np.maximum(abs(shift), np.abs(bd[lost]))
        with np.errstate(divide="ignore"):
            return np.log(t)


@dataclass(frozen=True)
class Uniform(ActuationDistribution):
    b1: float
    b2: float

    def __post_init__(self):
        if not self.b1 < self.b2:
            raise ValueError(f"uniform requires b1 < b2, got [{self.b1}, {self.b2}]")
        _require_finite(self, self.b1, self.b2, 1.0 / (self.b2 - self.b1))

    def support(self):
        return SupportInfo.build(self.b1, self.b2)

    def moments(self):
        mean = 0.5 * (self.b1 + self.b2)
        var = (self.b2 - self.b1) ** 2 / 12.0
        return mean, var, var + mean * mean

    def std(self):
        return (self.b2 - self.b1) / math.sqrt(12.0)

    def _from_uniform(self, u):
        # bit for bit what rng.uniform(b1, b2) computes from the same word
        return self.b1 + (self.b2 - self.b1) * u

    objective_route = "closed_form"

    # t = shift + B d is uniform between the ends t1, t2; with s <= g their
    # magnitudes, rho = s / g, w = |d| (b2 - b1) and r = w / s, the
    # antiderivatives t ln|t| - t and sign(t) |t|^(eta+1) / (eta+1) give
    #   E ln|t|    = ln g - 1 + rho ln rho / (1 + rho)      t changes sign
    #              = ln g - 1 + log1p(r) / r                 it does not
    #   E |t|^eta  = g^eta (1 + f) / (1 + eta), where
    #            f = rho expm1(eta ln rho) / (1 + rho)       t changes sign
    #              = -expm1(-eta log1p(r)) / r               it does not.
    # Nothing differences t ln|t| or |t|^(eta+1) at the two ends, which
    # cancels near t = 1 (small |b d|) and on a narrow support, so the
    # error stays within a few ulps of the rounding of t1 and t2
    # themselves.  At small eta, f ~ eta cancels only against log1p(eta),
    # an absolute error of a few ulps times eta before the division by
    # eta.  An end at exactly 0 (s = 0) reads r = inf, the limit of both
    # forms.

    def _ends(self, shift, d):
        """(s, g, w, changes_sign) of t = shift + B d, as above.  Where both
        ends round to 0, the range reads [0, w]."""
        ta, tb = shift + self.b1 * d, shift + self.b2 * d
        small, big = sorted((abs(ta), abs(tb)))
        width = abs(d) * (self.b2 - self.b1)
        return small, big or width, width, min(ta, tb) < 0.0 < max(ta, tb)

    def mean_log_abs(self, shift, d):
        small, big, width, changes_sign = self._ends(shift, d)
        if big == POS_INF:
            return POS_INF
        if changes_sign:
            rho = small / big
            part = rho * math.log(rho) / (1.0 + rho) if rho else 0.0
        else:
            r = width / small if small else POS_INF
            part = math.log1p(r) / r if r < POS_INF else 0.0
        return math.log(big) - 1.0 + part

    def log_abs_moment(self, shift, d, eta):
        small, big, width, changes_sign = self._ends(shift, d)
        if big == POS_INF:
            return POS_INF
        if changes_sign:
            rho = small / big
            f = (rho * math.expm1(eta * math.log(rho)) / (1.0 + rho)
                 if rho else 0.0)
        else:
            r = width / small if small else POS_INF
            f = -math.expm1(-eta * math.log1p(r)) / r
        return eta * math.log(big) + math.log1p(f) - math.log1p(eta)

    def restrict(self, lo, hi, *, include_upper=False):
        nlo, nhi = max(self.b1, lo), min(self.b2, hi)
        if nhi <= nlo:
            raise EmptyCell(f"cell [{lo}, {hi}) misses Uniform({self.b1}, {self.b2})")
        prob = (nhi - nlo) / (self.b2 - self.b1)
        return prob, Uniform(nlo, nhi)

    def _density_pieces(self, eta=0.0):
        dens = 1.0 / (self.b2 - self.b1)
        return ((self.b1, self.b2, lambda b: dens),)


@dataclass(frozen=True)
class TruncatedGaussian(ActuationDistribution):
    """Gaussian conditioned on [lo, hi]; arises from restricting a Gaussian."""

    mu: float
    sigma: float
    lo: float
    hi: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not self.lo < self.hi:
            raise ValueError(f"truncation window empty: [{self.lo}, {self.hi}]")
        if self.cell_probability <= 0.0:
            raise EmptyCell(
                f"Gaussian({self.mu}, {self.sigma}) has no mass in [{self.lo}, {self.hi})"
            )
        _require_finite(self, self.mu, self.sigma, 1.0 / self.sigma)
        if self.mu + self.sigma == self.mu:
            raise ValueError(f"sigma {self.sigma} is below the float "
                             f"resolution of mu {self.mu}")

    def _lower_side(self):
        """(alpha, beta, sign): the standardised cell, mirrored through mu
        when it lies above mu, so its mass is read from a lower tail and
        1 - Phi never cancels."""
        a, b = (self.lo - self.mu) / self.sigma, (self.hi - self.mu) / self.sigma
        return (-b, -a, -1.0) if a > 0.0 else (a, b, 1.0)

    @property
    def cell_probability(self):
        a, b, _ = self._lower_side()
        if b <= 0.0:
            return _ndtr(b) - _ndtr(a)
        return 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))

    def support(self):
        return SupportInfo.build(self.lo, self.hi)

    def moments(self):
        shift, factor = self._standard_moments()
        mean = self.mu + self.sigma * shift
        var = self.sigma**2 * factor
        return mean, var, var + mean * mean

    def std(self):
        return self.sigma * math.sqrt(max(self._standard_moments()[1], 0.0))

    def _standard_moments(self):
        """Mean and variance of the cell in units of sigma about mu."""
        a, b, sign = self._lower_side()
        z = self.cell_probability
        shift = (_std_normal_pdf(a) - _std_normal_pdf(b)) / z
        return sign * shift, 1.0 + (_times_pdf(a) - _times_pdf(b)) / z - shift**2

    def _from_uniform(self, u):
        # Inverse-CDF so the per-draw count is fixed (no rejection).
        a, _, sign = self._lower_side()
        # u = 0 at an infinite end reads p = 0, and p can round up to 1:
        # keep p in (0, 1), where every quantile is finite
        p = np.clip(_ndtr(a) + u * self.cell_probability, _P_MIN, _P_MAX)
        z = _ndtri(p).astype(float)
        return np.clip(self.mu + sign * self.sigma * z, self.lo, self.hi)

    def restrict(self, lo, hi, *, include_upper=False):
        nlo, nhi = max(self.lo, lo), min(self.hi, hi)
        if nhi <= nlo:
            raise EmptyCell(f"cell [{lo}, {hi}) misses truncation [{self.lo}, {self.hi}]")
        cond = TruncatedGaussian(self.mu, self.sigma, nlo, nhi)
        return cond.cell_probability / self.cell_probability, cond

    def _density_pieces(self, eta=0.0):
        # cut the window, infinite ends included, 10 + sqrt(eta) sigma (at
        # most 36.5 sigma) beyond the nearer of mu and the opposite end
        reach = min(_GAUSS_TAIL_SIGMAS + math.sqrt(eta), _GAUSS_MAX_SIGMAS) * self.sigma
        lo = max(self.lo, min(self.mu, self.hi) - reach)
        hi = min(self.hi, max(self.mu, self.lo) + reach)
        mu, sigma = self.mu, self.sigma
        norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * self.cell_probability)
        return ((lo, hi, lambda b: norm * np.exp(-0.5 * ((b - mu) / sigma) ** 2)),)


@dataclass(frozen=True)
class Gaussian(TruncatedGaussian):
    """N(mu, sigma^2): the Gaussian truncated to the whole line."""

    lo: float = field(default=NEG_INF, init=False, repr=False)
    hi: float = field(default=POS_INF, init=False, repr=False)

    _from_uniform = None  # rng.normal spends a variable number of words

    def sample(self, rng, size):
        return rng.normal(self.mu, self.sigma, size)


@dataclass(frozen=True)
class ScaledBernoulli(ActuationDistribution):
    """Gain beta with probability p, else 0 (the erasure actuation channel)."""

    beta: float
    p: float

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("beta must be nonzero")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be a probability, got {self.p}")
        _require_finite(self, self.beta)

    def support(self):
        atoms = [a for a in ((0.0, 1.0 - self.p), (self.beta, self.p)) if a[1] > 0.0]
        locs = [loc for loc, _ in atoms]
        return SupportInfo.build(min(locs), max(locs), atoms)

    def moments(self):
        mean = self.beta * self.p
        second = self.beta**2 * self.p
        return mean, second - mean * mean, second

    def std(self):
        return abs(self.beta) * math.sqrt(self.p * (1.0 - self.p))

    def _from_uniform(self, u):
        return self.beta * np.asarray(u < self.p, dtype=float)

    def restrict(self, lo, hi, *, include_upper=False):
        kept = [
            (loc, mass)
            for loc, mass in self.support().atoms
            if _in_cell(loc, lo, hi, include_upper)
        ]
        prob = sum(m for _, m in kept)
        if prob <= 0.0:
            raise EmptyCell(f"cell [{lo}, {hi}) carries no mass")
        if len(kept) == 2:
            return prob, self
        loc, _ = kept[0]
        return prob, Empirical((loc,))


@dataclass(frozen=True)
class FiniteMixture(ActuationDistribution):
    components: tuple[tuple[float, ActuationDistribution], ...]

    def __post_init__(self):
        comps = tuple((float(w), d) for w, d in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if any(w < 0 for w, _ in comps):
            raise ValueError("mixture weights must be nonnegative")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total}, expected 1")
        _require_finite(self, *(w for w, _ in comps))
        # zero-weight components are never evaluated; sample() draws them
        object.__setattr__(self, "_positive", tuple(c for c in comps if c[0] > 0.0))

    def support(self):
        infos = [d.support() for _, d in self._positive]
        merged = Counter()
        for (w, _), info in zip(self._positive, infos):
            for loc, mass in info.atoms:
                merged[loc] += w * mass
        return SupportInfo.build(
            min(i.lower for i in infos),
            max(i.upper for i in infos),
            tuple(sorted(merged.items())),
        )

    def moments(self):
        mean = sum(w * d.moments()[0] for w, d in self.components)
        second = sum(w * d.moments()[2] for w, d in self.components)
        return mean, second - mean * mean, second

    def std(self):
        # within- plus between-component variance, where nothing cancels
        parts = [(w, d.moments()[0], d.std()) for w, d in self._positive]
        scale = _pow2_scale(max(max(abs(m), s) for _, m, s in parts))
        mean = sum(w * (m / scale) for w, m, _ in parts)
        var = sum(w * ((s / scale) ** 2 + (m / scale - mean) ** 2)
                  for w, m, s in parts)
        return scale * math.sqrt(var)

    def sample(self, rng, size):
        weights = np.array([w for w, _ in self.components])
        edges = np.cumsum(weights)
        u = rng.random(size)
        idx = np.minimum(
            np.searchsorted(edges, u, side="right"), len(self.components) - 1
        )
        draws = np.stack([np.asarray(d.sample(rng, size), dtype=float)
                          for _, d in self.components])
        return draws[idx, np.arange(size)]

    def restrict(self, lo, hi, *, include_upper=False):
        kept = []
        for w, d in self.components:
            try:
                prob, cond = d.restrict(lo, hi, include_upper=include_upper)
            except EmptyCell:
                continue
            kept.append((w * prob, cond))
        total = sum(w for w, _ in kept)
        if total <= 0.0:
            raise EmptyCell(f"cell [{lo}, {hi}) carries no mixture mass")
        if len(kept) == 1:
            return total, kept[0][1]
        return total, FiniteMixture(tuple((w / total, d) for w, d in kept))

    def _density_pieces(self, eta=0.0):
        return tuple((lo, hi, lambda b, w=w, pdf=pdf: w * pdf(b))
                     for w, d in self._positive
                     for lo, hi, pdf in d._density_pieces(eta))

    @property
    def objective_route(self):
        """The objectives below compose the components' own, normalised by
        the weights' total, so a uniform component takes its closed form."""
        routes = {d.objective_route for _, d in self._positive}
        return "closed_form" if routes == {"closed_form"} else "node_set"

    def mean_log_abs(self, shift, d):
        parts = [w * law.mean_log_abs(shift, d) for w, law in self._positive]
        if NEG_INF in parts:  # an atom cancelled exactly, ahead of overflow
            return NEG_INF
        return sum(parts) / sum(w for w, _ in self._positive)

    def log_abs_moment(self, shift, d, eta):
        weights, logs = np.array([(w, law.log_abs_moment(shift, d, eta))
                                  for w, law in self._positive]).T
        return _log_mean_exp(logs, weights)


@dataclass(frozen=True)
class Empirical(ActuationDistribution):
    """Pure atom set with mass count/n at each distinct sample value."""

    samples: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(s) for s in self.samples)
        if not vals:
            raise ValueError("empirical law needs at least one sample")
        object.__setattr__(self, "samples", vals)
        _require_finite(self, *vals)

    def support(self):
        return self._support

    @cached_property
    def _support(self):
        counts = Counter(self.samples)
        n = len(self.samples)
        atoms = tuple(sorted((v, c / n) for v, c in counts.items()))
        return SupportInfo.build(min(self.samples), max(self.samples), atoms)

    def moments(self):
        return _sample_moments(np.asarray(self.samples))

    def std(self):
        arr = np.asarray(self.samples)
        scale = _pow2_scale(float(np.max(np.abs(arr))))
        return scale * math.sqrt(max(_sample_moments(arr / scale)[1], 0.0))

    def sample(self, rng, size):
        arr = np.asarray(self.samples)
        idx = rng.integers(0, len(arr), size)
        return arr[idx]

    def restrict(self, lo, hi, *, include_upper=False):
        kept = tuple(s for s in self.samples if _in_cell(s, lo, hi, include_upper))
        if not kept:
            raise EmptyCell(f"cell [{lo}, {hi}) contains no samples")
        return len(kept) / len(self.samples), Empirical(kept)


def _log_mean_exp(logs, weights):
    """ln(sum(weights * exp(logs)) / sum(weights)) from the largest term (an
    infinite one is returned).  While the mean stays above 1/2 it is log1p of
    the mean expm1 term: at small eta every term is near 1, and the rounding
    of the weights' total would swamp a logarithm then divided by eta."""
    top = float(logs.max())
    if math.isinf(top):
        return top
    logs = logs - top
    mass = float(weights.sum())
    excess = float(weights @ np.expm1(logs)) / mass
    if excess > -0.5:
        return top + math.log1p(excess)
    total = float(weights @ np.exp(logs)) / mass
    return top + math.log(total) if total > 0.0 else NEG_INF


def _sample_moments(arr):
    mean = float(arr.mean())
    second = float((arr * arr).mean())
    return mean, second - mean * mean, second


def _pow2_scale(x):
    """Power of two with x / scale in [1, 2) for x > 0: dividing by it is
    exact, and the square of x / scale neither underflows nor overflows."""
    return math.ldexp(1.0, math.frexp(x)[1] - 1)


def _in_cell(x, lo, hi, include_upper):
    return lo <= x < hi or (include_upper and x == hi)


def _require_finite(law, *params):
    """Reject non-finite parameters or densities, and overflowing moments."""
    name = type(law).__name__
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"{name} parameters must be finite, got {params}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            moments = law.moments()
    except OverflowError:
        moments = (POS_INF,)
    if not all(math.isfinite(m) for m in moments):
        raise ValueError(f"{name} moments overflow: {moments}")


def _ndtr(z):
    """Standard normal CDF, accurate in the lower tail."""
    return 0.5 * math.erfc(-z / _SQRT2)


def _ndtri_scalar(p):
    """Standard normal quantile; p = 0 and p = 1 read -inf and inf."""
    return _STD_NORMAL.inv_cdf(p) if 0.0 < p < 1.0 else math.copysign(POS_INF, p - 0.5)


_SQRT2 = math.sqrt(2.0)
_P_MIN = math.ulp(0.0)  # the smallest positive double
_P_MAX = 1.0 - 2.0**-53  # the largest double below 1
_STD_NORMAL = statistics.NormalDist()
_ndtri = np.frompyfunc(_ndtri_scalar, 1, 1)


def _std_normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _times_pdf(z):
    """z * phi(z), which vanishes at an infinite truncation end."""
    return z * _std_normal_pdf(z) if math.isfinite(z) else 0.0


# ---------------------------------------------------------------------------
# specification grammar
#
#   uniform:b1,b2          gaussian:mu,sigma       erasure:beta,p
#   mixture:w1*<spec>|w2*<spec>                    empirical:@path.csv
# ---------------------------------------------------------------------------

def parse_spec(text) -> ActuationDistribution:
    """Parse the distribution grammar used by the CLI and config files."""
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if not sep:
        raise DistSpecError(f"missing ':' in distribution spec {text!r}")
    kind = kind.lower()
    try:
        if kind == "uniform":
            b1, b2 = _floats(rest, 2, text)
            return Uniform(b1, b2)
        if kind == "gaussian":
            mu, sigma = _floats(rest, 2, text)
            return Gaussian(mu, sigma)
        if kind == "erasure":
            beta, p = _floats(rest, 2, text)
            return ScaledBernoulli(beta, p)
        if kind == "empirical":
            if not rest.startswith("@"):
                raise DistSpecError(f"empirical spec needs @path, got {text!r}")
            return Empirical(_read_samples(rest[1:]))
        if kind == "mixture":
            comps = []
            for part in rest.split("|"):
                w_text, star, spec = part.partition("*")
                if not star:
                    raise DistSpecError(f"mixture component needs w*<spec>: {part!r}")
                comps.append((float(w_text), parse_spec(spec)))
            return FiniteMixture(tuple(comps))
    except DistSpecError:
        raise
    except (OSError, TypeError, ValueError) as exc:
        raise DistSpecError(f"invalid distribution spec {text!r}: {exc}") from exc
    raise DistSpecError(f"unknown distribution kind {kind!r} in {text!r}")


def _floats(rest, n, full):
    parts = rest.split(",")
    if len(parts) != n:
        raise DistSpecError(f"expected {n} comma-separated numbers in {full!r}")
    return [float(p) for p in parts]


def _read_samples(path):
    with open(path) as fh:
        return tuple(float(line.strip()) for line in fh if line.strip())
