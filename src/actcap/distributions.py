"""Laws of the multiplicative actuation gain.

Each distribution knows its support (bounds plus atoms), exact moments, how
to draw reproducible samples, its quadrature node set (atoms weighted by
their mass, density pieces covered by the graded pattern of
:mod:`actcap.quadrature` around declared singular points), and how to
condition on an interval cell.  Every expectation is one weighted sum over
that node set.  Constructors reject non-finite parameters and laws whose
moments overflow.  Values are immutable and safe for concurrent reads;
sampling always goes through an explicit generator.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

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
    "stream_keys",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

# Beyond 10 sigma the Gaussian density is below e^-50 of its peak, far below
# the 1e-9 quadrature target.
_GAUSS_TAIL_SIGMAS = 10.0

_ATOM_MASS_TOL = 1e-12
_WEIGHT_TOL = 1e-12


class EmptyCell(ValueError):
    """Conditioning cell carries zero probability."""


class DistSpecError(ValueError):
    """Unparseable distribution specification string."""


def make_rng(seed, *stream):
    """Counter-based generator for the (seed, stream...) key.

    Identical keys yield identical draw sequences across runs and across any
    thread scheduling, which is what makes all Monte Carlo in this package
    reproducible.
    """
    key = np.random.SeedSequence([int(seed), *map(int, stream)])
    return np.random.Generator(np.random.Philox(key))


# numpy's SeedSequence hash-and-mix constants, for a 4-word pool
_M32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_POOL = 4


def stream_keys(seed, paths):
    """Philox keys of ``make_rng(seed, p)`` for every p in ``paths``, shape (n, 2).

    Runs SeedSequence's uint32 hash-and-mix over all paths at once, one
    uint64 lane per path.  Seeds of any size are exact; paths must be below
    2^64.
    """
    seed_words = _uint32_words(int(seed))
    paths = np.asarray(paths, dtype=np.uint64)
    keys = np.empty((len(paths), 2), dtype=np.uint64)
    # SeedSequence splits a path of 2^32 or more into two words
    for wide in (False, True):
        sel = (paths > _M32) == wide
        if sel.any():
            p = paths[sel]
            words = [p & _M32] + ([p >> np.uint64(32)] if wide else [])
            keys[sel] = _seed_sequence_keys(seed_words, words)
    return keys


def path_streams(seed, lo, hi):
    """Yield a generator for each path in [lo, hi), reading ``make_rng(seed, p)``.

    One generator is re-keyed in place for each path, so finish drawing for
    a path before advancing.
    """
    keys = stream_keys(seed, np.arange(lo, hi, dtype=np.uint64))
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state  # counter 0, empty buffer, no pending uint32
    for key in keys:
        state["state"]["key"] = key
        bit_gen.state = state
        yield rng


def _uint32_words(n):
    """Little-endian uint32 words of n >= 0, as SeedSequence splits it."""
    if n < 0:
        raise ValueError(f"seed and stream entries must be >= 0, got {n}")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def _seed_sequence_keys(seed_words, path_words):
    """SeedSequence([seed, p]).generate_state(2, uint64) for arrays of p."""
    n = len(path_words[0])
    entropy = [np.full(n, w, dtype=np.uint64) for w in seed_words] + path_words
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_A) & 0xFFFFFFFF
        value = (value * np.uint64(hash_const)) & _M32
        return value ^ (value >> _SHIFT)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ (value >> _SHIFT)

    zero = np.zeros(n, dtype=np.uint64)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = [], _INIT_B
    for word in pool:
        word = word ^ np.uint64(hash_const)
        hash_const = (hash_const * _MULT_B) & 0xFFFFFFFF
        word = (word * np.uint64(hash_const)) & _M32
        out.append(word ^ (word >> _SHIFT))
    return np.stack([out[0] | (out[1] << np.uint64(32)),
                     out[2] | (out[3] << np.uint64(32))], axis=1)


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

    @property
    def atom_mass(self):
        return sum(m for _, m in self.atoms)


class ActuationDistribution:
    """Base class for gain laws; subclasses provide atoms and density pieces."""

    def support(self) -> SupportInfo:
        raise NotImplementedError

    def moments(self) -> tuple[float, float, float]:
        """(mean, variance, second moment), exact."""
        raise NotImplementedError

    def std(self) -> float:
        """Standard deviation.  Laws with a scale parameter form it without
        squaring, so it stays positive where the variance underflows."""
        return math.sqrt(self.moments()[1])

    def sample(self, rng, size=None):
        """Draw i.i.d. values with the supplied generator."""
        raise NotImplementedError

    def restrict(self, lo, hi, *, include_upper=False):
        """Condition on the cell [lo, hi) (or [lo, hi] for a closing cell).

        Returns ``(probability, conditional distribution)``; raises
        :class:`EmptyCell` when the cell carries no mass.
        """
        raise NotImplementedError

    # hooks used by the shared node set
    def _atoms(self) -> tuple[tuple[float, float], ...]:
        return ()

    def _density_pieces(self):
        """Density pieces as (lo, hi, pdf): pdf array-valued, absolutely scaled."""
        return ()

    def quadrature_nodes(self, singularities=()):
        """``(nodes, weights, inner)`` with E[f(B)] = sum(weights * f(nodes)).

        Atoms are nodes weighted by their mass.  Each density piece is
        covered by the graded pattern of :func:`panel_nodes` between its
        ends and the ``singularities`` clipped into it; ``inner`` marks the
        innermost graded panels.
        """
        parts = [self._atom_nodes] if self._atom_nodes else []
        for lo, hi, pdf in self._density_pieces():
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
        atoms = self._atoms()
        if not atoms:
            return ()
        table = np.array(atoms, dtype=float)
        table.flags.writeable = False
        locs, masses = table.T
        return locs, masses, np.zeros(len(atoms), dtype=bool)

    def expect(self, integrand, singularities=()):
        """E[integrand(B)] as one weighted sum over the node set.

        ``integrand`` maps an array of gains to an array (or a constant).
        ``singularities`` lists the locations of any integrable blow-ups of
        the integrand (logarithmic, or power law with exponent > -1).
        Raises :class:`NonIntegrable` when the innermost graded panels
        carry more than ``FAIL_REL * max(1, |total|)``, or the sum is NaN.
        """
        nodes, weights, inner = self.quadrature_nodes(singularities)
        terms = weights * integrand(nodes)
        total = float(terms.sum())
        tail = float(np.abs(terms[inner]).sum())
        if not tail <= FAIL_REL * np.maximum(1.0, abs(total)):
            raise NonIntegrable(
                f"innermost panels carry {tail!r} of {total!r}; divergent "
                "integrand or misdeclared singularity"
            )
        return total


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

    def sample(self, rng, size=None):
        return rng.uniform(self.b1, self.b2, size)

    def restrict(self, lo, hi, *, include_upper=False):
        nlo, nhi = max(self.b1, lo), min(self.b2, hi)
        if nhi <= nlo:
            raise EmptyCell(f"cell [{lo}, {hi}) misses Uniform({self.b1}, {self.b2})")
        prob = (nhi - nlo) / (self.b2 - self.b1)
        return prob, Uniform(nlo, nhi)

    def _density_pieces(self):
        dens = 1.0 / (self.b2 - self.b1)
        return ((self.b1, self.b2, lambda b: dens),)


@dataclass(frozen=True)
class Gaussian(ActuationDistribution):
    mu: float
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"gaussian requires sigma > 0, got {self.sigma}")
        _require_finite(self, self.mu, self.sigma, 1.0 / self.sigma)
        if self.mu + self.sigma == self.mu:
            raise ValueError(f"sigma {self.sigma} is below the float "
                             f"resolution of mu {self.mu}")

    def support(self):
        return SupportInfo.build(NEG_INF, POS_INF)

    def moments(self):
        return self.mu, self.sigma**2, self.sigma**2 + self.mu**2

    def std(self):
        return self.sigma

    def sample(self, rng, size=None):
        return rng.normal(self.mu, self.sigma, size)

    def restrict(self, lo, hi, *, include_upper=False):
        cond = TruncatedGaussian(self.mu, self.sigma, lo, hi)
        return cond.cell_probability, cond

    def _density_pieces(self):
        half = _GAUSS_TAIL_SIGMAS * self.sigma
        return (_gauss_piece(self.mu, self.sigma, self.mu - half,
                             self.mu + half, 1.0),)


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

    @property
    def _alpha(self):
        return (self.lo - self.mu) / self.sigma

    @property
    def _beta(self):
        return (self.hi - self.mu) / self.sigma

    @property
    def cell_probability(self):
        return float(special.ndtr(self._beta) - special.ndtr(self._alpha))

    def support(self):
        return SupportInfo.build(self.lo, self.hi)

    def moments(self):
        a, b = self._alpha, self._beta
        z = self.cell_probability
        pa, pb = _std_normal_pdf(a), _std_normal_pdf(b)
        mean = self.mu + self.sigma * (pa - pb) / z
        var = self.sigma**2 * self._variance_factor()
        return mean, var, var + mean * mean

    def std(self):
        return self.sigma * math.sqrt(max(self._variance_factor(), 0.0))

    def _variance_factor(self):
        """Variance in units of sigma^2."""
        a, b = self._alpha, self._beta
        z = self.cell_probability
        shift = (_std_normal_pdf(a) - _std_normal_pdf(b)) / z
        return 1.0 + (_times_pdf(a) - _times_pdf(b)) / z - shift**2

    def sample(self, rng, size=None):
        # Inverse-CDF so the per-draw count is fixed (no rejection).
        u = rng.random(size)
        base = special.ndtr(self._alpha)
        x = self.mu + self.sigma * special.ndtri(base + u * self.cell_probability)
        return np.clip(x, self.lo, self.hi)

    def restrict(self, lo, hi, *, include_upper=False):
        nlo, nhi = max(self.lo, lo), min(self.hi, hi)
        if nhi <= nlo:
            raise EmptyCell(f"cell [{lo}, {hi}) misses truncation [{self.lo}, {self.hi}]")
        cond = TruncatedGaussian(self.mu, self.sigma, nlo, nhi)
        return cond.cell_probability / self.cell_probability, cond

    def _density_pieces(self):
        # cut the window, infinite ends included, 10 sigma beyond the nearer
        # of mu and the opposite end, where the density is below e^-50 of
        # its maximum on the window
        reach = _GAUSS_TAIL_SIGMAS * self.sigma
        lo = max(self.lo, min(self.mu, self.hi) - reach)
        hi = min(self.hi, max(self.mu, self.lo) + reach)
        return (_gauss_piece(self.mu, self.sigma, lo, hi, self.cell_probability),)


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
        atoms = self._atoms()
        lo = min(loc for loc, _ in atoms)
        hi = max(loc for loc, _ in atoms)
        return SupportInfo.build(lo, hi, atoms)

    def moments(self):
        mean = self.beta * self.p
        second = self.beta**2 * self.p
        return mean, second - mean * mean, second

    def std(self):
        return abs(self.beta) * math.sqrt(self.p * (1.0 - self.p))

    def sample(self, rng, size=None):
        hit = rng.random(size) < self.p
        return self.beta * np.asarray(hit, dtype=float) if size is not None else (
            self.beta if hit else 0.0
        )

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

    def _atoms(self):
        atoms = ((0.0, 1.0 - self.p), (self.beta, self.p))
        return tuple(a for a in atoms if a[1] > 0.0)


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

    def support(self):
        infos = [d.support() for _, d in self.components]
        merged = Counter()
        for (w, _), info in zip(self.components, infos):
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
        parts = [(w, d.moments()[0], d.std()) for w, d in self.components]
        scale = _pow2_scale(max(max(abs(m), s) for _, m, s in parts))
        mean = sum(w * (m / scale) for w, m, _ in parts)
        second = sum(w * ((m / scale) ** 2 + (s / scale) ** 2) for w, m, s in parts)
        return scale * math.sqrt(max(second - mean * mean, 0.0))

    def sample(self, rng, size=None):
        weights = np.array([w for w, _ in self.components])
        edges = np.cumsum(weights)
        if size is None:
            u = rng.random()
            idx = int(np.searchsorted(edges, u, side="right"))
            idx = min(idx, len(self.components) - 1)
            # keep the per-call draw count fixed across realized choices
            draws = [d.sample(rng) for _, d in self.components]
            return draws[idx]
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

    def quadrature_nodes(self, singularities=()):
        nodes, weights, inner = zip(*(d.quadrature_nodes(singularities)
                                      for _, d in self.components))
        return (np.concatenate(nodes),
                np.concatenate([w * x for (w, _), x in zip(self.components, weights)]),
                np.concatenate(inner))


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

    def sample(self, rng, size=None):
        arr = np.asarray(self.samples)
        idx = rng.integers(0, len(arr), size)
        return arr[idx]

    def restrict(self, lo, hi, *, include_upper=False):
        kept = tuple(s for s in self.samples if _in_cell(s, lo, hi, include_upper))
        if not kept:
            raise EmptyCell(f"cell [{lo}, {hi}) contains no samples")
        return len(kept) / len(self.samples), Empirical(kept)

    def _atoms(self):
        return self.support().atoms


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


def _gauss_piece(mu, sigma, lo, hi, mass):
    """Density piece of N(mu, sigma^2) / mass on [lo, hi]."""
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * mass)
    return lo, hi, lambda b: norm * np.exp(-0.5 * ((b - mu) / sigma) ** 2)


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
