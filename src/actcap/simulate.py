"""Monte Carlo verification of the operational meaning of the capacities.

Scalar plant  X[n+1] = a (X[n] + B[n] U[n]) + W[n],  Y[n] = X[n] + V[n],
driven by linear memoryless controls U[n] = d Y[n], through time-major
tiles of ``_TILE`` steps.  Noise-free runs sum log2|a (1 + d B)| so growth
of many bits/step never overflows; where |d B| passes the float range a
step reads log2|a| + log2|d| + log2|B + 1/d|.  Additive-noise runs step raw
doubles, clamping every state to +-1e300.

Sub-block s of ``SUB_BLOCK`` paths reads the stream of ``make_rng(seed,
s)``.  Just before a tile is evolved, each sub-block draws it, time-major:
the gains as one (steps, paths) array, then a random_linear strategy's
gains, then V, then W.  So no array spans the horizon, and memory does not
grow with it.  A block holds ``_BLOCK`` paths, 8 sub-blocks (the last block
may be narrower), at every horizon, so draws and evolution run over many
paths per numpy call while a block's tile arrays stay near those of one
sub-block at 64 steps.  Each step sums a sub-block's paths pairwise
(numpy's summation along a contiguous axis), and sub-blocks are folded in
path order, so reports are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import eta_capacity, eta_objective, shannon_capacity
from .distributions import SUB_BLOCK, ActuationDistribution, make_rng

__all__ = [
    "AdditiveNoiseVerdict",
    "ConverseReport",
    "ScanPoint",
    "SimulationReport",
    "StrategySpec",
    "SystemSpec",
    "additive_noise_check",
    "scaling_equivalence_check",
    "simulate",
    "strong_converse_experiment",
    "threshold_scan",
]

INF = float("inf")
_LN2 = math.log(2.0)
# Paths per block, 8 sub-blocks: one numpy call per step spans them all
_BLOCK = 8 * SUB_BLOCK
_CLAMP = 1e300
# Steps per tile, part of the stream layout: (_TILE + 1) x _BLOCK tile
# arrays are about the size of one sub-block's at 64 steps
_TILE = 8
_DEAD_BAND = 0.02  # bits/step; Monte Carlo slope noise stays below this
                   # at the default 1e4 paths x 2000 steps


@dataclass(frozen=True)
class SystemSpec:
    a: float
    dist: ActuationDistribution
    x0: float = 1.0
    process_noise_std: float = 0.0
    obs_noise_std: float = 0.0

    def __post_init__(self):
        values = (self.a, self.x0, self.process_noise_std, self.obs_noise_std)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"a, x0 and the noise stds must be finite, got {values}")
        if abs(self.a) < 1.0:
            raise ValueError("open-loop gain must satisfy |a| >= 1")
        if self.x0 == 0.0:
            raise ValueError("x0 must be nonzero")
        if self.process_noise_std < 0 or self.obs_noise_std < 0:
            raise ValueError("noise stds must be nonnegative")
        # noisy states are doubles clamped to +-_CLAMP: a larger std would
        # draw inf, and a larger |x0| would start past the clamp
        if max(self.process_noise_std, self.obs_noise_std) > _CLAMP:
            raise ValueError(f"noise stds must not exceed {_CLAMP:g}")
        if not self.noise_free and abs(self.x0) > _CLAMP:
            raise ValueError(f"with noise, |x0| must not exceed {_CLAMP:g}")

    @property
    def noise_free(self):
        return self.process_noise_std == 0.0 and self.obs_noise_std == 0.0


@dataclass(frozen=True)
class StrategySpec:
    """Control law: fixed linear gain (d = 0 for none) or per-step random gain."""

    kind: str = "linear"  # "linear" | "random_linear"
    d: float = 0.0
    d_low: float = 0.0
    d_high: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "random_linear"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not math.isfinite(self.d):
            raise ValueError("d must be finite")
        # the width is formed as in rng.uniform: it must be a finite float
        if not (self.d_low <= self.d_high
                and math.isfinite(self.d_high - self.d_low)):
            raise ValueError("random gain bounds need d_low <= d_high and a "
                             "finite width d_high - d_low, got "
                             f"[{self.d_low!r}, {self.d_high!r}]")

    def describe(self):
        if self.kind == "linear":
            return f"linear(d={self.d!r})"
        return f"random_linear([{self.d_low!r}, {self.d_high!r}])"


@dataclass
class SimulationReport:
    horizon: int
    paths: int
    seed: int
    strategy: str
    eta_list: tuple[float, ...]
    thresholds: tuple[float, ...]
    mean_log2_ratio: np.ndarray          # E[log2 |X[n]/x0|], length horizon+1
    log2_moments: dict[float, np.ndarray]  # log2 E[|X[n]/x0|^eta]
    fractions: dict[float, np.ndarray]     # P(|X[n]| >= M)
    growth_slope_bits: float
    overflow_paths: int = 0

    def moment_slope_bits(self, eta, start=None):
        """LSQ slope of (1/eta) log2 E[|X|^eta] from step ``start`` (default
        the midpoint) to the end."""
        y = self.log2_moments[eta] / eta
        start = self.horizon // 2 if start is None else start
        return _fit_slope(y, start, self.horizon + 1)


def simulate(spec: SystemSpec, strategy: StrategySpec, horizon: int,
             paths: int, eta_list=(2.0,), threshold=1e6,
             seed=0) -> SimulationReport:
    """Evolve ``paths`` independent trajectories and report per-step stats."""
    if horizon < 1 or paths < 1:
        raise ValueError("horizon and paths must be >= 1")
    thresholds = tuple(float(m) for m in np.atleast_1d(threshold))
    eta_list = tuple(float(e) for e in eta_list)
    if not all(math.isfinite(v) for v in thresholds + eta_list):
        raise ValueError("thresholds and eta values must be finite")
    if not all(m > 0.0 for m in thresholds):
        raise ValueError(f"thresholds must be positive, got {thresholds}")
    if not all(e > 0.0 for e in eta_list):
        raise ValueError(f"eta values must be positive, got {eta_list}")
    log2_x0 = math.log2(abs(spec.x0))
    cutoffs = {m: math.log2(m) - log2_x0 for m in thresholds}

    total_sum = np.zeros(horizon + 1)
    total_counts = {m: np.zeros(horizon + 1, dtype=np.int64) for m in thresholds}
    total_lse = {e: np.full(horizon + 1, -INF) for e in eta_list}
    overflow = 0
    noisy = not spec.noise_free
    log2_a = math.log2(abs(spec.a))
    # one block's time-major tiles, allocated once per run and overwritten
    # by each block (the last block may be narrower)
    rows, tile_steps = min(paths, _BLOCK), min(horizon, _TILE)

    def tile(wanted, length=tile_steps, dtype=float):
        return np.empty((length, rows), dtype=dtype) if wanted else None

    b, d = tile(True), tile(strategy.kind == "random_linear")
    v, w = tile(spec.obs_noise_std > 0), tile(spec.process_noise_std > 0)
    # log2|X[n]/x0|, LSE terms and threshold flags; row 0 of dl and of x
    # carries the step before the tile
    dl, work = tile(True, tile_steps + 1), tile(True, tile_steps + 1)
    mask = tile(True, tile_steps + 1, bool)
    x, bd = tile(noisy, tile_steps + 1), tile(noisy)

    for lo in range(0, paths, _BLOCK):
        bs = min(_BLOCK, paths - lo)
        rngs = [make_rng(seed, sub) for sub in
                range(lo // SUB_BLOCK, -(-(lo + bs) // SUB_BLOCK))]
        dl[0, :bs] = 0.0
        if noisy:
            x[0, :bs] = spec.x0
        overflowed = np.zeros(bs, dtype=bool)
        for n0 in range(0, horizon, _TILE):
            steps = min(_TILE, horizon - n0)
            b_t = b[:steps, :bs]
            d_t = strategy.d if d is None else d[:steps, :bs]
            v_t, w_t = (None if t is None else t[:steps, :bs] for t in (v, w))
            noise = [(t, std) for t, std in ((v_t, spec.obs_noise_std),
                                            (w_t, spec.process_noise_std))
                     if t is not None]
            # sub-block by sub-block: gains, strategy gains, V, W
            for rng, c0 in zip(rngs, range(0, bs, SUB_BLOCK)):
                cols = slice(c0, min(c0 + SUB_BLOCK, bs))
                shape = (steps, cols.stop - c0)
                b_t[:, cols] = spec.dist.sample(rng, shape)
                if d is not None:
                    d_t[:, cols] = rng.uniform(strategy.d_low,
                                               strategy.d_high, shape)
                for t, _ in noise:
                    t[:, cols] = rng.standard_normal(shape)
            for t, std in noise:
                # what rng.normal(0.0, std) makes of the same normals: 0.0 + std z
                t *= std
                t += 0.0
            dl_t = dl[:steps + 1, :bs]
            logs = dl_t[1:]
            if noisy:
                xs = x[:steps + 1, :bs]
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
                    bd_t = np.multiply(b_t, d_t, out=bd[:steps, :bs])
                    _step_tile(spec.a, xs, bd_t, v_t, w_t)
                    np.abs(xs[1:], out=logs)
                    # a clamped |X| is exactly _CLAMP: the paths that reached it
                    overflowed |= (logs >= _CLAMP).any(axis=0)
                    np.log2(logs, out=logs)
                np.subtract(logs, log2_x0, out=logs)
                xs[0] = xs[steps]
            else:
                # log2|a (1 + d b)| below the carried log-state, then summed
                with np.errstate(over="ignore", divide="ignore"):
                    np.multiply(d_t, b_t, out=logs)
                    np.add(1.0, logs, out=logs)
                    np.abs(logs, out=logs)
                    np.log2(logs, out=logs)
                    np.add(log2_a, logs, out=logs)
                    if not logs.max() < INF:
                        # d b passed the float range: there, and only there,
                        # log2|1 + d b| is log2|d| + log2|b + 1/d|
                        big = logs == INF
                        d_big = d_t if d is None else d_t[big]
                        closed = (np.log2(np.abs(d_big))
                                  + np.log2(np.abs(b_t[big] + 1.0 / d_big)))
                        logs[big] = log2_a + closed
                # row by row: numpy accumulates a column at a time
                for k in range(steps):
                    np.add(dl_t[k], logs[k], out=logs[k])
            first = 1 if n0 else 0  # step 0 is folded with the first tile
            _fold(dl_t[first:], n0 + first, work, mask, cutoffs, total_sum,
                  total_counts, total_lse)
            dl_t[0] = dl_t[steps]
        overflow += int(overflowed.sum())

    # in place, fractions after the fit: its one temporary is freed first
    mean_log = np.divide(total_sum, paths, out=total_sum)
    for lse in total_lse.values():
        lse -= math.log2(paths)
    slope = _fit_slope(mean_log, horizon // 2, horizon + 1)
    fractions = {m: total_counts[m] / paths for m in thresholds}
    return SimulationReport(
        horizon=horizon,
        paths=paths,
        seed=seed,
        strategy=strategy.describe(),
        eta_list=eta_list,
        thresholds=thresholds,
        mean_log2_ratio=mean_log,
        log2_moments=total_lse,
        fractions=fractions,
        growth_slope_bits=slope,
        overflow_paths=overflow,
    )


def _fold(dl, first, work, mask, cutoffs, total_sum, total_counts, total_lse):
    """Add the time-major (steps, paths) slab ``dl`` of log2|X[n]/x0|, steps
    ``first`` on, into the per-step sums, threshold counts and log-sum-exp,
    with ``work`` and ``mask`` as scratch.  Each step sums a sub-block's
    paths pairwise, along the slab's contiguous axis, and sub-blocks fold in
    index order: the result is bitwise reproducible."""
    steps, bs = dl.shape
    cols = slice(first, first + steps)
    mask = mask[:steps, :bs]
    for m, cutoff in cutoffs.items():
        np.greater_equal(dl, cutoff, out=mask)
        total_counts[m][cols] += mask.sum(axis=1)
    # whole sub-blocks, then a narrower remainder: (steps, sub-block, path)
    full = bs - bs % SUB_BLOCK
    for lo, hi in ((0, full), (full, bs)):
        if hi == lo:
            continue
        run = min(hi - lo, SUB_BLOCK)
        sub = dl[:, lo:hi].reshape(steps, -1, run)
        # contiguous scratch: on a strided view the in-place subtract copies
        z = work.reshape(-1)[:sub.size].reshape(sub.shape)
        sums = sub.sum(axis=2)
        for j in range(sums.shape[1]):
            total_sum[cols] += sums[:, j]
        for e, total in total_lse.items():
            # log2 sum_paths 2^(e dl), in the work array
            try:
                with np.errstate(over="raise"):
                    np.multiply(e, sub, out=z)
            except FloatingPointError:
                _raise_eta_overflow(sub, tuple(total_lse), first)
            top = z.max(axis=2)
            with np.errstate(invalid="ignore"):
                np.subtract(z, top[:, :, None], out=z)
                np.exp2(z, out=z)
                lses = top + np.log2(z.sum(axis=2))
            lses = np.where(np.isfinite(top), lses, top)
            lse = total[cols]
            for j in range(lses.shape[1]):
                np.logaddexp2(lse, lses[:, j], out=lse)


def _raise_eta_overflow(sub, eta_list, first):
    """Raise ``ArithmeticError`` at the first sub-block of ``sub`` (steps,
    sub-blocks, paths), then eta, then step where eta dl passes the float
    range for a finite dl: the order of a fold one sub-block at a time."""
    with np.errstate(over="ignore"):
        for j in range(sub.shape[1]):
            for eta in eta_list:
                dl = sub[:, j]
                over = (np.isinf(eta * dl) > np.isinf(dl)).any(axis=1)
                if over.any():
                    raise ArithmeticError(
                        f"eta = {eta!r} times log2|X/x0| passes the float "
                        f"range at step {first + int(np.argmax(over))}"
                    ) from None


def _step_tile(a, x, bd, v, w):
    """x[k+1] = a (x[k] + bd[k] (x[k] + v[k])) + w[k] for each row of ``bd``,
    clamped to +-_CLAMP, in place and in the operation order of the per-step
    plant."""
    for k in range(len(bd)):
        xk, xn = x[k], x[k + 1]
        if v is None:
            np.multiply(bd[k], xk, out=xn)
        else:
            np.add(xk, v[k], out=xn)
            np.multiply(bd[k], xn, out=xn)
        np.add(xk, xn, out=xn)
        np.multiply(a, xn, out=xn)
        if w is not None:
            np.add(xn, w[k], out=xn)
        np.maximum(xn, -_CLAMP, out=xn)
        np.minimum(xn, _CLAMP, out=xn)


def _fit_slope(y, start, stop):
    window = np.asarray(y[start:stop], dtype=float)
    if len(window) < 2:
        return float("nan")
    if not np.all(np.isfinite(window)):
        # a statistic that collapsed to exactly zero reads as full decay
        return -INF if window[-1] == -INF else float("nan")
    # the least-squares slope sum_k c_k y_k, c_k = (k - kbar) / sum (k - kbar)^2,
    # summed pairwise by add.reduce: the bits of a BLAS dot move with its
    # thread count
    n = len(window)
    c = np.arange(n, dtype=float)
    c -= (n - 1) / 2
    c /= n * (n * n - 1) / 12
    c *= window
    return float(np.add.reduce(c))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanPoint:
    a: float
    verdict: str  # "stable" | "unstable" | "marginal"
    slope_bits: float


def threshold_scan(dist: ActuationDistribution, sense: str, a_grid, *,
                   eta: float = 2.0, horizon=2000, paths=10_000, seed=0):
    """Classify each open-loop gain as stable/unstable under the optimal d.

    The statistic is the growth slope of the mean log state for the
    expected-log sense, or of (1/eta) log2 of the empirical eta-moment for
    the moment sense; verdicts inside +-_DEAD_BAND are "marginal".

    One unit-gain run serves the whole grid: along the same draws the
    noise-free plant at gain a is a^n times the unit plant, so both slopes
    at a are the unit slope plus log2 a.
    """
    if sense == "shannon":
        cap = shannon_capacity(dist)
    elif sense == "eta":
        cap = eta_capacity(dist, eta)
    else:
        raise ValueError(f"unknown sense {sense!r}")
    if cap.optimal_d is None:
        raise ValueError("capacity has no finite optimizer for this law")
    gains = []
    for a in a_grid:
        if a <= 1.0:
            raise ValueError("scan gains must exceed 1")
        gains.append(SystemSpec(a=float(a), dist=dist).a)
    if not gains:
        return [], cap
    unit = simulate(SystemSpec(a=1.0, dist=dist),
                    StrategySpec("linear", d=cap.optimal_d), horizon, paths,
                    eta_list=(eta,), seed=seed)
    if sense == "shannon":
        unit_slope = unit.growth_slope_bits
    else:
        unit_slope = unit.moment_slope_bits(eta)
    points = []
    for a in gains:
        slope = unit_slope + math.log2(a)
        if slope < -_DEAD_BAND:
            verdict = "stable"
        elif slope > _DEAD_BAND:
            verdict = "unstable"
        else:
            verdict = "marginal"
        points.append(ScanPoint(a, verdict, slope))
    return points, cap


@dataclass
class ConverseReport:
    capacity_bits: float
    log2_a: float
    reports: dict[str, SimulationReport]


def strong_converse_experiment(dist: ActuationDistribution, a: float, m_list,
                               *, horizon=2000, paths=10_000, seed=0):
    """Above capacity, every strategy must push P(|X| >= M) to one.

    Runs the capacity-achieving gain, the do-nothing gain, and a per-step
    random gain against the same plant.  Requires an atomless law with a
    density (atomic laws fall outside the bounded-density hypothesis) and a
    margin of at least 0.1 bits above capacity.
    """
    if dist.support().atoms:
        raise ValueError("experiment requires an atomless law with a density")
    cap = shannon_capacity(dist)
    log2_a = math.log2(abs(a))
    if not log2_a > cap.value_bits + 0.1:
        raise ValueError(
            f"log2|a| = {log2_a:.4f} must exceed capacity "
            f"{cap.value_bits:.4f} by at least 0.1 bits"
        )
    d_star = cap.optimal_d
    if d_star == 0.0:
        lo, hi = -1.0, 1.0
    else:
        lo, hi = sorted((2.0 * d_star, 0.0))
    strategies = {
        "optimal": StrategySpec("linear", d=d_star),
        "zero": StrategySpec("linear", d=0.0),
        "random": StrategySpec("random_linear", d_low=lo, d_high=hi),
    }
    spec = SystemSpec(a=float(a), dist=dist)
    reports = {
        name: simulate(spec, strat, horizon, paths, eta_list=(2.0,),
                       threshold=tuple(m_list), seed=seed)
        for name, strat in strategies.items()
    }
    return ConverseReport(cap.value_bits, log2_a, reports)


@dataclass(frozen=True)
class AdditiveNoiseVerdict:
    verdict: str  # "bounded" | "unbounded"
    slope_bits: float
    sup_log2_moment: float
    ceiling_log2: float
    report: SimulationReport


def additive_noise_check(dist: ActuationDistribution, a: float, eta: float,
                         *, w_std=1.0, v_std=1.0, horizon=5000, paths=2000,
                         seed=0):
    """Drive the plant at its eta-optimal gain with additive noise and judge
    eta-moment boundedness.

    "Bounded" requires a non-trending empirical moment over the final
    quarter of the horizon and a supremum below the geometric-series ceiling
    implied by the per-step contraction and the noise moments.
    """
    cap = eta_capacity(dist, eta)
    if cap.optimal_d is None:
        raise ValueError("no finite optimizer for this law")
    d = cap.optimal_d
    spec = SystemSpec(a=float(a), dist=dist,
                      process_noise_std=w_std, obs_noise_std=v_std)
    rep = simulate(spec, StrategySpec("linear", d=d), horizon, paths,
                   eta_list=(eta,), seed=seed)
    slope = rep.moment_slope_bits(eta, start=3 * horizon // 4)
    sup = float(np.max(rep.log2_moments[eta]))
    ceiling = _moment_ceiling_log2(dist, a, eta, d, w_std, v_std)
    bounded = (rep.overflow_paths == 0 and slope <= _DEAD_BAND
               and sup <= ceiling)
    return AdditiveNoiseVerdict("bounded" if bounded else "unbounded", slope,
                                sup, ceiling, rep)


def _moment_ceiling_log2(dist, a, eta, d, w_std, v_std):
    """log2 of the closed-loop eta-moment bound from the contraction series,
    for a start at x0 = 1.

    Expanding the recursion, E|X[n]|^eta is bounded by a geometric series in
    L = E|a(1+dB)|^eta whenever L < 1 (triangle/Minkowski step per eta).
    Every term is carried in log2, so no moment overflows.
    """
    log2_l = eta * (math.log2(abs(a)) - eta_objective(dist, d, eta))
    if log2_l >= 0.0:
        return INF
    log2_m = max(
        _log2_abs_gauss_moment(w_std, eta),
        _log2_abs_gauss_moment(v_std, eta),
        dist.log_abs_moment(0.0, 1.0, eta) / _LN2,
        0.0,  # |x0|^eta
    )
    p = max(eta, 1.0)
    return (
        -p * math.log2(1.0 - 2.0 ** (log2_l / p))
        + log2_m
        + p * float(np.logaddexp2(0.0, math.log2(abs(a * d)) + log2_m / p))
    )


def _log2_abs_gauss_moment(std, eta):
    """log2 E|N(0, std^2)|^eta; -inf for std 0."""
    if std == 0.0:
        return -INF
    return (eta * (math.log(std) + 0.5 * _LN2) + math.lgamma((eta + 1) / 2)
            - 0.5 * math.log(math.pi)) / _LN2


def scaling_equivalence_check(dist: ActuationDistribution, a: float, d: float,
                              horizon=200, seed=0):
    """Max relative gap between the plant at gain a and a^k times the plant
    at gain 1, both under U = d X along the same draws.

    This is the identity :func:`threshold_scan` relies on, checked on one
    path of :func:`simulate`: the gain-a log-state must equal the unit
    log-state plus the running sum of log2|a|.  A step where both states
    are exactly zero counts as no gap.
    """
    def log_state(gain):
        spec = SystemSpec(a=gain, dist=dist)
        return simulate(spec, StrategySpec("linear", d=d), horizon, 1,
                        seed=seed).mean_log2_ratio

    scaled, unit = log_state(a), log_state(1.0)
    steps = np.full(horizon, math.log2(abs(a)))
    reference = unit + np.concatenate(([0.0], np.cumsum(steps)))
    with np.errstate(invalid="ignore"):
        gaps = np.abs(np.exp2(scaled - reference) - 1.0)
    gaps[(scaled == -INF) & (reference == -INF)] = 0.0
    return float(gaps.max())
