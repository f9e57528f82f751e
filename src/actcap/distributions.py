"""Laws of the multiplicative actuation gain.

Each distribution knows its support (bounds plus atoms), exact moments, how
to draw reproducible samples and how to condition on an interval cell.  Of
the two functionals the capacity objectives read (at one gain or, row by
row, at a 1-D array of gains), atomic laws sum their atoms exactly, the
uniform law and the Gaussian log mean take closed forms, a mixture
composes its components, and a truncated Gaussian takes its own kernels:
its log mean sums one even-panel node set kept per law, integrated by
parts where the cut -shift/d lies within half a panel of the cell's window
and summed directly elsewhere, and its moment sums a graded node set of
:mod:`actcap.quadrature` in the log domain.  Constructors reject non-finite
parameters and laws whose moments overflow.  Values are immutable and safe
for concurrent reads; sampling always goes through an explicit generator.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import even_panels, panel_nodes

__all__ = [
    "ActuationDistribution",
    "DistSpecError",
    "Empirical",
    "EmptyCell",
    "FiniteMixture",
    "Gaussian",
    "ScaledBernoulli",
    "SupportInfo",
    "TruncatedGaussian",
    "Uniform",
    "make_rng",
    "parse_spec",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

# Beyond 10 sigma the Gaussian density is below e^-50 of its peak, far below
# the 1e-9 quadrature target.  An integrand growing like |b|^eta moves the
# peak of its product with the density out by about sqrt(eta) sigma, so the
# window reaches 10 + sqrt(eta) sigma.  Past about 38.6 sigma (eta about
# 820) the density itself underflows, so the moment reads its node weights
# from the log-density.
_GAUSS_TAIL_SIGMAS = 10.0
# a truncated Gaussian cell whose closed-form moments would lose more than
# this factor to cancellation is summed instead (TruncatedGaussian._summed)
_CLOSED_FORM_LOSS = 2.0**10

_ATOM_MASS_TOL = 1e-12
_WEIGHT_TOL = 1e-12
# node values per chunk of an array of gains: a temporary of 8k doubles
# (64 KB) stays in cache and under glibc's mmap threshold, where building
# 150k nodes at once cost about 5x their arithmetic
_CHUNK = 1 << 13


class EmptyCell(ValueError):
    """Conditioning cell carries zero probability."""


class DistSpecError(ValueError):
    """Unparseable distribution specification string."""


# Paths per random stream: sub-block s of a Monte Carlo run, paths
# SUB_BLOCK * s to SUB_BLOCK * s + SUB_BLOCK - 1, reads ``make_rng(seed, s)``
SUB_BLOCK = 512


def make_rng(seed, stream=0):
    """Generator of stream ``stream`` under ``seed``.

    SFC64 seeded by numpy's ``SeedSequence`` from four fixed-width uint32
    words: the low and high halves of ``seed``, then of ``stream``.  Fixed
    widths keep distinct pairs distinct (a sequence of variable-length
    words would read (2^32, 5) and (0, 5 2^32 + 1) alike), hashing them
    gives independent streams, and a pair gives the same draws on every
    run, which is what makes all Monte Carlo in this package reproducible:
    sub-block s of ``SUB_BLOCK`` paths reads stream s.  Both must lie in
    [0, 2^64).
    """
    pair = (int(seed), int(stream))
    if not all(0 <= w < 2**64 for w in pair):
        raise ValueError(f"seed and stream must lie in [0, 2^64), got {pair}")
    words = [half for w in pair for half in (w & 0xFFFFFFFF, w >> 32)]
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.SFC64(entropy))


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
        mass = math.fsum(m for _, m in atoms)
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


def _many(d):
    """Whether d is an array of gains rather than one gain."""
    return isinstance(d, np.ndarray) and d.ndim > 0


def _each(method, shift, d, *args):
    """``method(shift, x, *args)``, written for one gain x, at each gain of
    the 1-D array d in turn, so every value keeps the bits of its scalar
    call."""
    return np.array([method(shift, x, *args)
                     for x in np.asarray(d, dtype=float).tolist()], dtype=float)


def _chunks(index, width):
    """Slices of ``index`` holding at most about _CHUNK values of ``width``
    nodes each."""
    step = max(1, _CHUNK // width)
    return (index[i:i + step] for i in range(0, len(index), step))


def _frozen(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class ActuationDistribution:
    """Base class for gain laws; subclasses provide a support (with its
    atoms), moments, conditioning and the two objective functionals."""

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
        """Draw i.i.d. values with the supplied generator, an array of shape
        ``size`` (an int or a tuple) filled in C order.

        Laws that spend exactly one ``rng.random()`` word per value define
        ``_from_uniform(u)``, the value of each uniform in u, and draw with
        it.  Other laws override this method.
        """
        return self._from_uniform(rng.random(size))

    def objective_route(self, sense):
        """How this law evaluates the ``sense`` ("shannon" or "eta")
        objective, for the diagnostics: "closed_form" or "node_set"."""
        return "node_set"

    def restrict(self, lo, hi, *, include_upper=False):
        """Condition on the cell [lo, hi) (or [lo, hi] for a closing cell).

        Returns ``(probability, conditional distribution)``; raises
        :class:`EmptyCell` when the cell carries no mass.
        """
        raise NotImplementedError

    def mean_log_abs(self, shift, d):
        """E ln|shift + B d| for d != 0, at one gain or at each gain of a
        1-D array."""
        raise NotImplementedError

    def log_abs_moment(self, shift, d, eta):
        """ln E|shift + B d|^eta for d != 0 and eta > 0."""
        raise NotImplementedError


class _Atoms(ActuationDistribution):
    """A law of atoms (loc, m) alone, whose objectives are exact sums over
    them; an array of gains takes a row each, in chunks of ~_CHUNK terms."""

    def objective_route(self, sense):
        return "closed_form"

    @cached_property
    def _atom_nodes(self):
        """(locs, masses) of the atoms, built once and kept read-only: a
        large empirical law would otherwise rebuild them at every call."""
        return _frozen(tuple(np.array(self.support().atoms, dtype=float).T))

    def mean_log_abs(self, shift, d):
        """sum m ln|shift + loc d| / sum m: -inf when an atom is cancelled,
        ahead of overflow (+inf past the float range)."""
        masses = self._atom_nodes[1]
        return self._atom_sums(shift, d, lambda logs, gone: np.where(
            gone.any(axis=-1), NEG_INF,
            (masses * logs).sum(axis=-1) / masses.sum()))

    def log_abs_moment(self, shift, d, eta):
        """The log-sum-exp of ln m + eta ln|shift + loc d| over sum m, to
        which a cancelled atom adds nothing."""
        masses = self._atom_nodes[1]
        return self._atom_sums(shift, d, lambda logs, _: [
            _log_mean_exp(eta * row, masses) for row in logs])

    def _atom_sums(self, shift, d, total):
        """``total(logs, gone)`` over chunks of the gains x of d, a row each:
        ln|shift + loc x| at the atoms, -inf at those cancelled (``gone``),
        where x is the kink -shift/loc as the capacity search computes it
        (shift + loc x may round to 1e-16 there) or shift + loc x is 0.0."""
        locs = self._atom_nodes[0]
        gains = np.asarray(d, dtype=float).reshape(-1)
        values = np.empty(len(gains))
        # no warning where the kink of an atom at 0 is infinite, |loc x|
        # passes the float range, a cancelled atom's log is -inf or that
        # -inf meets +inf in the log mean (which then reads -inf)
        with np.errstate(all="ignore"):
            kinks = -shift / locs
            for chunk in _chunks(range(len(gains)), locs.size):
                i = slice(chunk.start, chunk.stop)
                x = gains[i, None]
                t = shift + locs * x
                gone = (x == kinks) | (t == 0.0)
                values[i] = total(np.log(np.where(gone, 0.0, np.abs(t))), gone)
        return values if _many(d) else float(values[0])


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

    def objective_route(self, sense):
        return "closed_form"

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
        if _many(d):
            return _each(self.mean_log_abs, shift, d)
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
        if _many(d):
            return _each(self.log_abs_moment, shift, d, eta)
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
        params = (self.mu, self.sigma, 1.0 / self.sigma)
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"{type(self).__name__} parameters must be "
                             f"finite, got {params}")
        if self.mu + self.sigma == self.mu:
            raise ValueError(f"sigma {self.sigma} is below the float "
                             f"resolution of mu {self.mu}")
        # a mass below the least normal double (a cell past about 37.5
        # sigma) leaves too few digits for any expectation over the cell
        if not self.cell_probability >= _NORMAL_MIN:
            raise EmptyCell(
                f"Gaussian({self.mu}, {self.sigma}) has no mass in [{self.lo}, {self.hi})"
            )
        _require_finite(self)  # the moments, once the cell has mass

    def _lower_side(self):
        """(alpha, beta, sign): the standardised cell, mirrored through mu
        when it lies above mu, so its mass is read from a lower tail and
        1 - Phi never cancels."""
        a, b = (self.lo - self.mu) / self.sigma, (self.hi - self.mu) / self.sigma
        return (-b, -a, -1.0) if a > 0.0 else (a, b, 1.0)

    @cached_property
    def cell_probability(self):
        if self._summed is not None:
            return self._summed[0]
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
        if self._summed is not None:
            return self._summed[1:]
        a, b, sign = self._lower_side()
        z = self.cell_probability
        shift = (_std_normal_pdf(a) - _std_normal_pdf(b)) / z
        return sign * shift, 1.0 + (_times_pdf(a) - _times_pdf(b)) / z - shift**2

    @cached_property
    def _summed(self):
        """(mass, mean, variance) of the cell in units of sigma about mu,
        summed over the cell itself, or None where the closed forms keep
        their digits.

        The closed forms take differences of Phi, of phi and of z phi(z)
        at the ends, which cancel on a narrow cell (the variance, about
        w^2 / 12 for a window w sigma wide, against 1) and on a tail cell
        (about 1 / z0^2 against z0^2, z0 being the cell's nearest point to
        mu).  Where the loss (1 + z0^2)(1 + z0^2 + 12 / w^2) passes
        _CLOSED_FORM_LOSS the cell is summed in its own units u in [0, w]
        from its window's lower end alpha (mirrored, so that end lies
        farthest from mu), on even panels at most 1 / max(1, |alpha|,
        |beta|) wide.  The weights phi(alpha + u) / phi(z0) stay below 1,
        and u keeps the width's digits, which alpha + u would round away."""
        _, b, sign = self._lower_side()
        lo, hi = self._window(0.0)
        width = (hi - lo) / self.sigma
        near = 1.0 + min(0.0, b)**2  # the loss, times width^2
        if not near * (near * width * width + 12.0) > (
                _CLOSED_FORM_LOSS * width * width):
            return None
        alpha = (lo - self.mu if sign > 0.0 else self.mu - hi) / self.sigma
        beta = alpha + width
        z0 = min(0.0, beta)
        gap = width if beta <= 0.0 else -alpha  # z0 - alpha
        count = max(1, math.ceil(width * max(1.0, -alpha, abs(beta))))
        u, weights = even_panels(0.0, width, count)
        weights = weights * np.exp(-0.5 * (u - gap) * (u + (alpha + z0)))
        mass = weights.sum()
        if not mass > 0.0:  # an empty cell: __post_init__ raises EmptyCell
            return 0.0, 0.0, 0.0
        mean = (weights * u).sum() / mass
        var = (weights * (u - mean)**2).sum() / mass
        return (_std_normal_pdf(z0) * float(mass), sign * (alpha + float(mean)),
                float(var))

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

    def _window(self, eta):
        """The cell cut, infinite ends included, 10 + sqrt(eta) sigma beyond
        the nearer of mu and the opposite end."""
        reach = (_GAUSS_TAIL_SIGMAS + math.sqrt(eta)) * self.sigma
        return (max(self.lo, min(self.mu, self.hi) - reach),
                min(self.hi, max(self.mu, self.lo) + reach))

    def mean_log_abs(self, shift, d):
        """E ln|shift + B d| for d != 0, at one gain or each gain of a 1-D
        array (+inf past the float range, NaN at a NaN gain), over the law's
        one node set (:meth:`_log_nodes`).  A gain whose cut lies in the
        window or within half a panel of it is integrated by parts
        (:meth:`_by_parts`); the others sum ln|shift + b d| at the nodes
        over their weights' total.  An array takes the gains of each kind in
        chunks of about _CHUNK node values, a row each, and sums each row
        along its own contiguous nodes, as the scalar call does."""
        _, _, parts_weights, _, (lower, upper), b, weights = self._log_nodes
        many = _many(d)
        if many:
            d = np.asarray(d, dtype=float)
        c = -(self.mu + shift / d) / self.sigma
        if not many:
            if lower < c < upper:
                return float(self._by_parts(c, d)[0])
            logs = self._log_abs(shift, d, b)
            return float((weights * logs).sum()) / float(weights.sum())
        inside = (lower < c) & (c < upper)
        values = np.empty(len(d))
        for i in _chunks(np.flatnonzero(~inside), b.size):
            logs = self._log_abs(shift, d[i, None], b)
            values[i] = (weights * logs).sum(axis=-1) / weights.sum()
        for i in _chunks(np.flatnonzero(inside), parts_weights.size):
            values[i] = self._by_parts(c[i, None], d[i, None])[:, 0]
        return values

    # In standard units z = (b - mu) / sigma over the window [alpha, beta],
    # shift + b d = d sigma (z - c) with c = -(mu + shift/d) / sigma, and
    # with G(z) = Phi(z) - Phi(c) and f(z) = G(z) / (z - c), integration by
    # parts gives
    #   E ln|shift + B d| = ln|d sigma| + I / M,
    #   I = ln|beta - c| G(beta) - ln|alpha - c| G(alpha) - int f dz,
    #   M = Phi(beta) - Phi(alpha) = G(beta) - G(alpha).
    # G(c) = 0, so f is entire, and one node set per law serves every cut.
    # Mirroring z -> -z when c > 0 leaves I and M as they are and puts
    # c <= 0, so each difference of Phi is read from the lower tail.  Within
    # delta = 0.2 / max(10, |c|) of c, where that difference would cancel,
    # f is read instead as the mean of phi over [c, c + s] by 5-point
    # Gauss-Legendre: there |c s| <= 0.2 and s <= 0.02, so the rule's error
    # is below 1e-19 of f.  f > 0, and at an end G = s f.  With the cut
    # inside, G(alpha) < 0 < G(beta), so I and M are sums of |s| f ln|s|
    # and |s| f, and nothing cancels.  With the cut outside, within half a
    # panel h of an end, G(alpha) and G(beta) share a sign and M cancels by
    # at most about e^0.5.  Past h/2 the cut is far enough from every node
    # for the panels to resolve ln|z - c| itself, so those gains sum it
    # directly.

    @cached_property
    def _log_nodes(self):
        """The law's one node set for its log mean, built once and kept
        read-only: (z, Phi(z), weights, (S, ln(S / sigma)), (lower, upper),
        b, w).  z holds 16-point Gauss-Legendre panels of equal width h, at
        most 1 / max(1, near) sigma, over the window in standard units, then
        its lower and upper end, weighted 0; its second row is the mirror
        -z, ends -beta and -alpha.  near is the window's nearest end to mu,
        0 when the window touches or holds mu: the log-density falls by near
        per sigma there.  Cuts in (lower, upper), the window widened by h/2,
        go by parts; the others sum at b = mu + sigma z with the weights w,
        the density over its value at the window's point z0 nearest mu,
        which stay finite at any scale.  S is the window's larger end in
        size."""
        lo, hi = self._window(0.0)
        alpha, beta = (lo - self.mu) / self.sigma, (hi - self.mu) / self.sigma
        near = min(abs(alpha), abs(beta)) if alpha * beta > 0.0 else 0.0
        count = max(1, math.ceil((beta - alpha) * max(1.0, near)))
        z, weights = even_panels(alpha, beta, count)
        pad = 0.5 * (beta - alpha) / count
        z0 = min(max(0.0, alpha), beta)
        rows = np.array([np.append(z, [alpha, beta]),
                         np.append(-z, [-beta, -alpha])])
        scale = max(abs(lo), abs(hi))
        return _frozen((rows, _lower_tail(rows), np.append(weights, [0.0, 0.0]),
                        np.array([scale, math.log(scale / self.sigma)]),
                        np.array([alpha - pad, beta + pad]),
                        self.mu + self.sigma * z,
                        weights * np.exp(-0.5 * (z - z0) * (z + z0))))

    def _by_parts(self, c, d):
        """E ln|shift + B d| integrated by parts, c being the cut in
        standard units: at one gain d, a float, read back as a 1-element
        array, or at a column d[:, None] of gains and c[:, None] of their
        cuts, one row each.  The floats of one gain and the rows of a column
        take the same IEEE operations, so both read the same bits.
        ln|d sigma| is ln|d S| - ln(S / sigma), which reads +inf where
        |b d| passes the float range."""
        z, tails, weights, (scale, log_ratio) = self._log_nodes[:4]
        size, mirror = abs(c), c > 0.0
        s = np.where(mirror, z[1], z[0]) + size  # z - c, mirrored to c <= 0
        near = np.abs(s) * np.maximum(size, 10.0) < 0.2
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (np.where(mirror, tails[1], tails[0]) - _lower_tail(-size)) / s
        if near.any():
            # phi over c + t s, t in [0, 1], at its Gauss-Legendre nodes
            u = s[near][:, None] * _MEAN_T - (near * size)[near][:, None]
            f[near] = (np.exp(-0.5 * u * u) * _MEAN_W).sum(axis=-1)
        # G = s f at the lower and upper end; an end on the cut reads ln|s|
        # as that of the least double, times G = 0
        ends = s[..., -2:]
        g = ends * f[..., -2:]
        logs = np.log(np.maximum(np.abs(ends), _P_MIN))
        parts = np.diff(g * logs) - (weights * f).sum(axis=-1, keepdims=True)
        return np.log(np.abs(d * scale)) - log_ratio + parts / np.diff(g)

    def _log_abs(self, shift, d, b):
        """ln|shift + b d| at the nodes b: one gain d, or a column of gains
        d[:, None], one row each, over one row of nodes or one row of nodes
        per gain."""
        bd = b * d
        t = np.abs(shift + bd)
        if not t.all():
            # cancellation can zero |shift + b d| at a node a hair from the
            # singular point: it reads one ulp of the products, its true
            # size (0 costs |t|^eta a unit at tiny eta)
            lost = t == 0.0
            t[lost] = 2.3e-16 * np.maximum(abs(shift), np.abs(bd[lost]))
        with np.errstate(divide="ignore"):
            return np.log(t)

    def log_abs_moment(self, shift, d, eta):
        """One log-sum-exp of ln w + eta ln|t| over the node set, ln w read
        from the log-density: at large eta the window reaches past where
        the density leaves the floats, and the mass of |t|^eta lies there.

        With t = d sigma (z + lam), the log-integrand eta ln|t| - z^2 / 2
        peaks on each side of z = -lam where z^2 + lam z = eta.  A peak more
        than 10 sigma from -shift/d is a break point too: the graded panels
        are coarse that far from a break, and at large eta nearly all the
        mass lies within a few sigma of a peak."""
        if _many(d):
            return _each(self.log_abs_moment, shift, d, eta)
        lo, hi = self._window(eta)
        lam = (self.mu + shift / d) / self.sigma
        far = -0.5 * (lam + math.copysign(math.sqrt(lam * lam + 4.0 * eta), lam))
        peaks = [self.mu + self.sigma * z for z in (far, -eta / far)
                 if abs(z + lam) > _GAUSS_TAIL_SIGMAS]
        breaks = {lo, hi, *(min(max(b, lo), hi) for b in (-shift / d, *peaks))}
        nodes, panels = panel_nodes(sorted(breaks))
        with np.errstate(divide="ignore"):  # a panel whose weight underflows
            log_w = np.log(panels) - 0.5 * ((nodes - self.mu) / self.sigma) ** 2
        log_w -= log_w.max()
        return _log_mean_exp(eta * self._log_abs(shift, d, nodes),
                             np.exp(log_w), log_w)


@dataclass(frozen=True)
class Gaussian(TruncatedGaussian):
    """N(mu, sigma^2): the Gaussian truncated to the whole line."""

    lo: float = field(default=NEG_INF, init=False, repr=False)
    hi: float = field(default=POS_INF, init=False, repr=False)

    def sample(self, rng, size):
        return rng.normal(self.mu, self.sigma, size)

    def objective_route(self, sense):
        return "closed_form" if sense == "shannon" else "node_set"

    # With lam = (mu + shift/d) / sigma, shift + B d = d sigma (Z + lam) for
    # Z standard normal, and (Z + lam)^2 is a Poisson(lam^2 / 2) mixture of
    # central chi-squares with 1 + 2k degrees of freedom, whose log means
    # are ln 2 + digamma(k + 1/2).  So
    #   E ln|shift + B d| = ln|d sigma| + (S - gamma - ln 2) / 2,
    #   S = sum_k Pois(k; lam^2 / 2) H_k,  H_k = sum_{j<=k} 2 / (2j - 1).
    # The Poisson weights are m^k / k!, m = lam^2 / 2, over their own total,
    # so no e^-m is formed.  For |lam| >= 8 the asymptotic series
    #   E ln|shift + B d| = ln|shift + d mu| - sum_k (2k - 1)!! / (2k lam^2k)
    # is summed to its smallest term, about 3e-16 at |lam| = 8: it needs no
    # more terms as |lam| grows, and it does not add ln|d sigma| to ln|lam|
    # where they cancel (small |d|).  Past the float range either form
    # reads +inf, as the node set does.

    def mean_log_abs(self, shift, d):
        if _many(d):
            return _each(self.mean_log_abs, shift, d)
        lam = (self.mu + shift / d) / self.sigma
        if abs(lam) < _ASYMPTOTIC_LAM:
            total, mass = ((0.5 * lam * lam) ** _POISSON_K @ _HARMONIC).tolist()
            return math.log(abs(d) * self.sigma) + 0.5 * (total / mass - _EULER_LN2)
        x = 1.0 / (lam * lam)
        term, tail = 0.5 * x, 0.0
        for k in range(1, _ASYMPTOTIC_TERMS + 1):
            tail += term
            if term < 1e-17:
                break
            term *= (2 * k + 1) * x * k / (k + 1)
        return math.log(abs(shift + d * self.mu)) - tail


_ASYMPTOTIC_LAM = 8.0
_ASYMPTOTIC_TERMS = 32  # the smallest term at |lam| = 8
# k = 0..96 and the columns (H_k / k!, 1 / k!): times m^k they sum to e^m S
# and e^m.  Poisson(32) carries below 1e-19 past k = 96.
_POISSON_K = np.arange(97.0)
_HARMONIC = np.array([
    (math.fsum(2.0 / (2 * j - 1) for j in range(1, k + 1)) / math.factorial(k),
     1 / math.factorial(k))
    for k in range(97)])
_EULER_LN2 = 0.5772156649015329 + math.log(2.0)


@dataclass(frozen=True)
class ScaledBernoulli(_Atoms):
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
        return np.take_along_axis(draws, idx[None], axis=0)[0]

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

    def objective_route(self, sense):
        """The objectives below compose the components' own, normalised by
        the weights' total, so each component takes its own route."""
        routes = {d.objective_route(sense) for _, d in self._positive}
        return "closed_form" if routes == {"closed_form"} else "node_set"

    # Over an array of gains each component evaluates the whole array, and
    # the parts combine gain by gain as for one gain, keeping its bits.

    def mean_log_abs(self, shift, d):
        return self._combine(self._mean_of, d,
                             lambda law, x: law.mean_log_abs(shift, x))

    def log_abs_moment(self, shift, d, eta):
        return self._combine(self._moment_of, d,
                             lambda law, x: law.log_abs_moment(shift, x, eta))

    def _combine(self, combine, d, evaluate):
        values = [evaluate(law, d) for _, law in self._positive]
        if not _many(d):
            return combine(values)
        return np.array([combine(gain) for gain in zip(*values)], dtype=float)

    def _mean_of(self, values):
        parts = [w * v for (w, _), v in zip(self._positive, values)]
        if NEG_INF in parts:  # an atom cancelled exactly, ahead of overflow
            return NEG_INF
        return sum(parts) / sum(w for w, _ in self._positive)

    def _moment_of(self, values):
        weights, logs = np.array([(w, v) for (w, _), v
                                  in zip(self._positive, values)]).T
        return _log_mean_exp(logs, weights)


@dataclass(frozen=True)
class Empirical(_Atoms):
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


def _log_mean_exp(logs, weights, log_weights=None):
    """ln(sum(weights * exp(logs)) / sum(weights)) from the largest term,
    returned if not finite.  While the mean stays above 1/2 it is log1p of
    the mean expm1 term: at small eta every term is near 1, and the rounding
    of the weights' total would swamp a logarithm then divided by eta.
    Below that, given ``log_weights`` (the logs of ``weights``), the sum
    runs in the log domain, so a term whose weight underflows still counts."""
    top = float(logs.max())
    if not math.isfinite(top):
        return top
    logs = logs - top
    mass = float(weights.sum())
    excess = float(weights @ np.expm1(logs)) / mass
    if excess > -0.5:
        return top + math.log1p(excess)
    if log_weights is not None:
        logs += log_weights
        peak = float(logs.max())
        return top + peak + math.log(float(np.exp(logs - peak).sum()) / mass)
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
_NORMAL_MIN = 2.0 ** -1022  # the smallest normal double
_P_MAX = 1.0 - 2.0**-53  # the largest double below 1
_STD_NORMAL = statistics.NormalDist()
_ndtri = np.frompyfunc(_ndtri_scalar, 1, 1)


def _lower_tail(z):
    """Phi(z) at one z or each z of an array, from ``math.erfc``, accurate
    in the lower tail."""
    if isinstance(z, np.ndarray):
        return np.array([_ndtr(x) for x in z.flat]).reshape(z.shape)
    return _ndtr(z)


# 5-point Gauss-Legendre nodes on [0, 1], weights over sqrt(2 pi): the mean
# of phi over [c, c + s] is sum(_MEAN_W * exp(-(c + s _MEAN_T)^2 / 2))
_MEAN_T, _MEAN_W = np.polynomial.legendre.leggauss(5)
_MEAN_T = 0.5 * (_MEAN_T + 1.0)
_MEAN_W = 0.5 * _MEAN_W / math.sqrt(2.0 * math.pi)


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
