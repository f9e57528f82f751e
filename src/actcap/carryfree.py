"""Bit-level carry-free models: formal binary series under XOR addition and
GF(2) convolution, one-step bit cancellation, and degree-dynamics simulation.

Addition never carries between levels, so bits more than ``width`` levels
below the leading one can never influence the top ``width`` levels; a finite
window is therefore exact for everything computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import SUB_BLOCK, make_rng

__all__ = [
    "BitSeries",
    "CarryFreeGain",
    "DegreeReport",
    "ZeroStateError",
    "cf_add",
    "cf_mul",
    "cf_shannon_capacity",
    "cf_zero_error_capacity",
    "one_step_control",
    "parse_gain_spec",
    "simulate_degrees",
]

DEFAULT_WIDTH = 64


class ZeroStateError(ValueError):
    """One-step cancellation is undefined on the zero state."""


@dataclass(frozen=True)
class BitSeries:
    """Binary formal series kept as its top ``width`` coefficients.

    ``window`` holds the coefficients of levels degree, degree-1, ...,
    degree-width+1 with the leading coefficient in the most significant bit;
    the zero series has ``degree None`` and an empty window.
    """

    degree: int | None
    window: int
    width: int = DEFAULT_WIDTH

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.degree is None:
            if self.window != 0:
                raise ValueError("zero series must have an empty window")
        else:
            if self.window >> (self.width - 1) != 1:
                raise ValueError("leading coefficient must be 1")

    @property
    def is_zero(self):
        return self.degree is None

    def coeff(self, level):
        """Coefficient at ``level`` (0 outside the represented window)."""
        if self.degree is None:
            return 0
        offset = self.degree - level
        if not 0 <= offset < self.width:
            return 0
        return (self.window >> (self.width - 1 - offset)) & 1

    def shift(self, k):
        """Multiply by z^k."""
        if self.degree is None or k == 0:
            return self
        return BitSeries(self.degree + k, self.window, self.width)

    def __repr__(self):
        if self.degree is None:
            return "BitSeries(0)"
        terms = [
            f"z^{self.degree - i}"
            for i in range(self.width)
            if (self.window >> (self.width - 1 - i)) & 1
        ]
        return "BitSeries(" + " + ".join(terms) + ")"

    @staticmethod
    def zero(width=DEFAULT_WIDTH):
        return BitSeries(None, 0, width)

    @staticmethod
    def monomial(degree, width=DEFAULT_WIDTH):
        return BitSeries(degree, 1 << (width - 1), width)

    @staticmethod
    def from_levels(levels, width=DEFAULT_WIDTH):
        """Series with coefficient 1 exactly at the given levels."""
        levels = sorted(set(levels), reverse=True)
        if not levels:
            return BitSeries.zero(width)
        top = levels[0]
        window = 0
        for lv in levels:
            offset = top - lv
            if offset < width:
                window |= 1 << (width - 1 - offset)
        return BitSeries(top, window, width)


def _normalize(degree_of_msb, raw, width):
    """Strip leading zeros of a raw window anchored at ``degree_of_msb``."""
    if raw == 0:
        return BitSeries.zero(width)
    drop = width - raw.bit_length()
    window = (raw << drop) & ((1 << width) - 1)
    return BitSeries(degree_of_msb - drop, window, width)


def cf_add(x: BitSeries, y: BitSeries) -> BitSeries:
    """Level-wise XOR; the degree drops when leading bits cancel."""
    if x.width != y.width:
        raise ValueError("width mismatch")
    if x.is_zero:
        return y
    if y.is_zero:
        return x
    if x.degree < y.degree:
        x, y = y, x
    gap = x.degree - y.degree
    shifted = y.window >> gap if gap < x.width else 0
    return _normalize(x.degree, x.window ^ shifted, x.width)


def cf_mul(x: BitSeries, y: BitSeries) -> BitSeries:
    """GF(2) convolution of the coefficient sequences."""
    if x.width != y.width:
        raise ValueError("width mismatch")
    if x.is_zero or y.is_zero:
        return BitSeries.zero(x.width)
    prod = _clmul(x.window, y.window)
    # both leading bits are 1, so the product's top bit sits at 2*width - 2
    return BitSeries(x.degree + y.degree, prod >> (x.width - 1), x.width)


def _clmul(a, b):
    out = 0
    shift = 0
    while b:
        if b & 1:
            out ^= a << shift
        b >>= 1
        shift += 1
    return out


@dataclass(frozen=True)
class CarryFreeGain:
    """Random gain: known top bits, Bernoulli(1/2) bits from g_ran down.

    Levels g_det .. g_ran+1 are deterministic: a leading 1 at g_det, then
    zeros.  Levels in ``known_levels`` (at or below g_ran) are random but
    revealed to the controller each step as side information.
    """

    g_det: int
    g_ran: int
    known_levels: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.g_ran > self.g_det:
            raise ValueError("g_ran must not exceed g_det")
        object.__setattr__(self, "known_levels", frozenset(self.known_levels))
        if any(lv > self.g_ran for lv in self.known_levels):
            raise ValueError("known levels above g_ran are already deterministic")

    def cancel_depth(self):
        """Number of contiguous known gain levels from the top.

        Levels g_det..g_ran+1 are deterministic; side information extends the
        run only while the revealed levels are contiguous below g_ran.  An
        isolated known level below a gap buys nothing until the gap is filled.
        """
        depth = self.g_det - self.g_ran
        level = self.g_ran
        while level in self.known_levels:
            depth += 1
            level -= 1
        return depth

    def known_coeff(self, level, realized=None):
        """Coefficient at ``level`` if the controller knows it, else None."""
        if level == self.g_det and self.g_det > self.g_ran:
            return 1
        if self.g_ran < level < self.g_det:
            return 0
        if level in self.known_levels:
            if realized is None or level not in realized:
                raise ValueError(f"revealed level {level} needs a realized value")
            return int(realized[level])
        return None

    def window_plan(self, width=DEFAULT_WIDTH):
        """(fixed window, ((level, bit position), ...) revealed, unknown mask)."""
        fixed = 0
        unknown_mask = 0
        revealed = []
        for off in range(width):
            level = self.g_det - off
            pos = width - 1 - off
            if level in self.known_levels:
                revealed.append((level, pos))
            elif level > self.g_ran:  # deterministic region, leading bit 1
                if level == self.g_det:
                    fixed |= 1 << pos
            else:
                unknown_mask |= 1 << pos
        return fixed, tuple(revealed), unknown_mask

    def realize(self, realized, random_int, width=DEFAULT_WIDTH, plan=None):
        """Full gain realization over the top ``width`` levels.

        ``random_int`` supplies at least ``width`` fresh fair bits for the
        levels the controller cannot see.
        """
        fixed, revealed, unknown_mask = plan or self.window_plan(width)
        window = fixed | (random_int & unknown_mask)
        for level, pos in revealed:
            if realized[level]:
                window |= 1 << pos
        return _normalize(self.g_det, window, width)


def cf_zero_error_capacity(gain: CarryFreeGain) -> int:
    """Bits cancellable with probability one each step."""
    return gain.cancel_depth()


def cf_shannon_capacity(gain: CarryFreeGain) -> int:
    """Bits cancellable per step in expectation (no side information).

    One more than the zero-error figure: each level below the known run
    cancels with probability 1/2, 1/4, ... and the geometric series sums to 1.
    """
    if gain.known_levels:
        raise ValueError("expected-value formula applies without side information")
    return gain.g_det - gain.g_ran + 1


def one_step_control(state: BitSeries, gain: CarryFreeGain, realized=None):
    """Control u of degree deg(state) - g_det cancelling the top known bits.

    Solves the unit-diagonal lower-triangular GF(2) system that zeroes the
    top K = cancel_depth() state levels for every realization of the unknown
    gain bits; returns ``(u, K)``.
    """
    if state.is_zero:
        raise ZeroStateError("apply a zero control to a zero state")
    width = state.width
    k = min(gain.cancel_depth(), width)
    m = state.degree - gain.g_det
    coeffs = [0] * max(k, 1)
    # back-substitution from the leading control coefficient
    for t in range(max(k, 1)):
        acc = state.coeff(state.degree - t)
        for i in range(1, t + 1):
            acc ^= gain.known_coeff(gain.g_det - i, realized) * coeffs[t - i]
        coeffs[t] = acc & 1
    if k == 0:
        coeffs = [1]  # aim at the top bit; it cancels with probability 1/2
    window = 0
    for t, bit in enumerate(coeffs[:width]):
        if bit:
            window |= 1 << (width - 1 - t)
    return BitSeries(m, window, width), k


@dataclass
class DegreeReport:
    horizon: int
    paths: int
    g_a: int
    start_degree: int
    max_degree: np.ndarray   # per step, max over paths
    mean_degree: np.ndarray  # per step, mean over paths
    decay_mean: float        # mean one-step decay while above the noise floor
    decay_count: int


def simulate_degrees(gain: CarryFreeGain, g_a: int, horizon: int, paths: int,
                     seed=0, start_degree=32):
    """Evolve x <- z^g_a x + b u + w and track the state degree.

    The gain's hidden bits are redrawn each step; revealed levels are drawn
    too and handed to the controller before it solves for u.  The noise
    series w carries 64 fresh random bits at levels -1..-64.

    All paths step at once on uint64 lanes: a degree, a 64-level window and
    window 0 for the zero series.  Sub-block s of ``SUB_BLOCK`` paths reads
    whole raw words of ``make_rng(seed, s)``, one row of a word per path at
    a time: a row of initial windows below their leading ones, then each
    step a row of gain words and a row of noise windows.  So the n paths of
    a sub-block read one C-order matrix of ``(1 + 2 * horizon) x n`` words.
    The gain word's bits at the window positions of the unknown and the
    revealed levels are theirs; revealed levels below the window draw
    nothing.  The scalar ops on :class:`BitSeries` reading the same words
    give the same traces bit for bit.  The draws are made and decoded a
    chunk of steps at a time; only the state-dependent work runs step by
    step.
    """
    if horizon < 1 or paths < 1:
        raise ValueError("horizon and paths must be >= 1")
    width = DEFAULT_WIDTH
    reach = abs(start_degree) + horizon * abs(g_a) + width
    if reach >= _DEGREE_LIMIT:
        raise ValueError(
            f"degrees up to {reach} (start {start_degree}, {horizon} steps of "
            f"g_a={g_a}) leave the int64 range")
    if paths * reach >= _EXACT_SUM_LIMIT:
        raise ValueError(
            f"{paths} paths of degrees up to {reach} overflow the exact "
            "float64 sum behind mean_degree")
    floor = -width  # stand-in degree for an exactly-zero state
    fixed, revealed, unknown_mask = gain.window_plan(width)
    drawn = unknown_mask | sum(1 << pos for _, pos in revealed)
    cancel = max(min(gain.cancel_depth(), width), 1)

    streams = [(make_rng(seed, sub).bit_generator,
                min(SUB_BLOCK, paths - SUB_BLOCK * sub))
               for sub in range(-(-paths // SUB_BLOCK))]

    def draw(rows):
        """The next ``rows`` rows of raw words, one word per path each."""
        return np.concatenate([bg.random_raw(rows * n).reshape(rows, n)
                               for bg, n in streams], axis=1)

    win = draw(1)[0] | _TOP
    deg = np.full(paths, start_degree, dtype=np.int64)
    max_deg = np.empty(horizon + 1, dtype=np.int64)
    total = np.empty(horizon + 1, dtype=np.int64)
    max_deg[0], total[0] = start_degree, start_degree * paths
    decay_sum = decay_n = 0
    chunk = max(_MIN_CHUNK_STEPS, _CHUNK_CELLS // paths)
    for n0 in range(0, horizon, chunk):
        steps = min(chunk, horizon - n0)
        raw = draw(2 * steps).reshape(steps, 2, paths)
        b = raw[:, 0] & np.uint64(drawn) | np.uint64(fixed)
        noise_deg, noise_win = _lane_normalize(_MINUS_ONE, raw[:, 1])
        degs, wins = [deg], [win]
        for n in range(steps):
            bn = b[n]
            # top window of b * u: XOR over the control's K known-top
            # coefficients of b >> t, each solved from the bits above it;
            # deg(b * u) <= deg(z^g_a x), so the add needs no swap
            acc = win ^ bn * (win >> _SHIFTS[63])
            for t in range(1, cancel):
                acc ^= (bn >> _SHIFTS[t]) * ((acc >> _SHIFTS[63 - t]) & _ONE)
            deg, win = _lane_add(*_lane_normalize(deg + g_a, acc),
                                 noise_deg[n], noise_win[n])
            degs.append(deg)
            wins.append(win)
        degs, live = np.stack(degs), np.stack(wins) != 0
        seen = np.where(live[1:], degs[1:], floor)
        max_deg[n0 + 1:n0 + steps + 1] = seen.max(axis=1)
        total[n0 + 1:n0 + steps + 1] = seen.sum(axis=1)
        decayed = live[:-1] & live[1:] & (degs[1:] >= 0)
        decay_sum += int((degs[:-1] + g_a - degs[1:])[decayed].sum())
        decay_n += int(decayed.sum())
    return DegreeReport(
        horizon=horizon,
        paths=paths,
        g_a=g_a,
        start_degree=start_degree,
        max_degree=max_deg.astype(np.float64),
        mean_degree=total / paths,
        decay_mean=float(decay_sum) / decay_n if decay_n else math.nan,
        decay_count=decay_n,
    )


# Lane kernels.  Degrees stay inside +-2**62, so lane differences never
# overflow int64, and sums over paths stay below 2**53, so the float64
# statistics are exact whatever the summation order.
_DEGREE_LIMIT = 2**62
_EXACT_SUM_LIMIT = 2**53
# Steps drawn and decoded at once: about _CHUNK_CELLS path-steps, but at
# least _MIN_CHUNK_STEPS, since each chunk costs one draw call per sub-block.
_CHUNK_CELLS = 1 << 12
_MIN_CHUNK_STEPS = 16
# 0-d arrays: the cheapest operands for ufuncs on short lanes
_SHIFTS = [np.array(k, dtype=np.uint64) for k in range(DEFAULT_WIDTH)]
_ONE = _SHIFTS[1]
_TOP = np.array(1 << (DEFAULT_WIDTH - 1), dtype=np.uint64)
_MINUS_ONE = np.array(-1, dtype=np.int64)
_ZERO_DROP = np.array(1086, dtype=np.uint64)  # float64 exponent bias 1023 + 63


def _lane_normalize(degree_of_msb, raw):
    """:func:`_normalize` on uint64 lanes: ``(degree, window)``.

    Clearing every bit whose upper neighbour is set keeps the leading bit
    and leaves no run of ones, so the float64 conversion cannot round up to
    the next power of two and its exponent field is the exact bit length.
    A zero lane gets window 0 and a degree that no result depends on.
    """
    exponent = (raw & ~(raw >> _ONE)).astype(np.float64).view(np.uint64) \
        >> _SHIFTS[52]
    drop = _ZERO_DROP - exponent
    return degree_of_msb - drop.view(np.int64), raw << drop


def _lane_add(dx, wx, dy, wy):
    """:func:`cf_add` on lanes of normalised ``(degree, window)`` pairs."""
    swap = (wx == 0) | ((dx < dy) & (wy != 0))
    gap = np.minimum(np.abs(dx - dy), DEFAULT_WIDTH).view(np.uint64)
    top = np.where(swap, wy, wx)
    low = np.where(swap, wx, wy)
    return _lane_normalize(np.where(swap, dy, dx), top ^ (low >> gap))


def parse_gain_spec(text) -> CarryFreeGain:
    """Parse ``cf:g_det,g_ran[,known=l1/l2/...]``."""
    body = text.strip()
    if body.lower().startswith("cf:"):
        body = body[3:]
    parts = body.split(",")
    if len(parts) < 2:
        raise ValueError(f"gain spec needs cf:g_det,g_ran, got {text!r}")
    g_det, g_ran = int(parts[0]), int(parts[1])
    known = frozenset()
    for extra in parts[2:]:
        key, sep, val = extra.partition("=")
        if key.strip() != "known" or not sep:
            raise ValueError(f"unknown gain option {extra!r}")
        known = frozenset(int(x) for x in val.split("/") if x.strip())
    return CarryFreeGain(g_det, g_ran, known_levels=known)
