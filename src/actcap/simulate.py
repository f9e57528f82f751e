"""Monte Carlo verification of the operational meaning of the capacities.

Scalar plant  X[n+1] = a (X[n] + B[n] U[n]) + W[n],  Y[n] = X[n] + V[n],
driven by linear memoryless controls U[n] = d Y[n], through time-major
tiles of ``_TILE`` steps.  Noise-free runs sum log2|a (1 + d B)| so growth
of many bits/step never overflows; where |d B| passes the float range a
step reads log2|a| + log2|d| + log2|B + 1/d|.  Additive-noise runs step raw
doubles, clamping every state to +-1e300.

Path p reads the counter-based stream of ``make_rng(seed, p)``, Philox keyed
by (seed, p).  Short rows of one-word draws (no noise rows, at most
``_KERNEL_WORDS`` words per path) come from the Philox kernel
``path_words`` on the same keys, a block of paths at once; other runs
re-key one generator for each path.  Either way the stream layout is the
same, and so are the draws.
A block holds whole sub-blocks of ``_BLOCK`` paths: one at long horizons,
more at short ones, so that draws and evolution run over many paths per
numpy call while no block array outgrows that of one sub-block at
``_TILE`` steps.  Each step sums a sub-block's paths pairwise (numpy's
summation along a contiguous axis), and sub-blocks are folded in path
order, so reports are bitwise reproducible whatever the block width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import eta_capacity, eta_objective, shannon_capacity
from .distributions import ActuationDistribution, path_streams, path_words

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
_BLOCK = 512
# A block takes max(1, _WIDE_STEPS // max(horizon, 4)) sub-blocks of _BLOCK
# paths: at most 8, and one from 32 steps up, so no block array holds more
# than one sub-block's at _TILE steps
_WIDE_STEPS = 32
# Rows of at most this many one-word draws per path come from the Philox
# kernel, whose cost grows with the words; from about 100 words per path
# re-keying one generator per path is faster (table in CHANGES.md)
_KERNEL_WORDS = 64
_CLAMP = 1e300
# Steps per tile.  Both routes take about the same time from 32 to 256
# steps, while a block's tile arrays grow with the width, about 9 kB a step
# noise-free and 25 kB noisy (table in CHANGES.md)
_TILE = 64
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

    def csv_header(self):
        return (
            ["step", "mean_log2_ratio"]
            + [f"log2_moment_eta_{eta:g}" for eta in self.eta_list]
            + [f"fraction_ge_{m:g}" for m in self.thresholds]
        )

    def csv_rows(self):
        for n in range(self.horizon + 1):
            yield (
                [n, self.mean_log2_ratio[n]]
                + [self.log2_moments[eta][n] for eta in self.eta_list]
                + [self.fractions[m][n] for m in self.thresholds]
            )


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

    # each step sums a sub-block's paths pairwise, along the slab's
    # contiguous axis, and sub-blocks fold in index order: the result is
    # bitwise reproducible
    total_sum = np.zeros(horizon + 1)
    total_counts = {m: np.zeros(horizon + 1, dtype=np.int64) for m in thresholds}
    total_lse = {e: np.full(horizon + 1, -INF) for e in eta_list}
    overflow = 0
    width = _BLOCK * max(1, _WIDE_STEPS // max(horizon, 4))
    block = _Block(spec, strategy, horizon, min(paths, width))

    def fold(first, dl):
        steps, bs = dl.shape
        cols = slice(first, first + steps)
        mask = block.mask[:steps, :bs]
        for m in thresholds:
            np.greater_equal(dl, cutoffs[m], out=mask)
            total_counts[m][cols] += mask.sum(axis=1)
        # whole sub-blocks, then a narrower remainder: (steps, sub-block, path)
        full = bs - bs % _BLOCK
        for lo, hi in ((0, full), (full, bs)):
            if hi == lo:
                continue
            run = min(hi - lo, _BLOCK)
            sub = dl[:, lo:hi].reshape(steps, -1, run)
            z = block.work[:steps, lo:hi].reshape(steps, -1, run)
            sums = sub.sum(axis=2)
            for j in range(sums.shape[1]):
                total_sum[cols] += sums[:, j]
            for e in eta_list:
                # log2 sum_paths 2^(e dl), in the block's work array
                try:
                    with np.errstate(over="raise"):
                        np.multiply(e, sub, out=z)
                except FloatingPointError:
                    _raise_eta_overflow(sub, eta_list, first)
                top = z.max(axis=2)
                with np.errstate(invalid="ignore"):
                    np.subtract(z, top[:, :, None], out=z)
                    np.exp2(z, out=z)
                    lses = top + np.log2(z.sum(axis=2))
                lses = np.where(np.isfinite(top), lses, top)
                lse = total_lse[e][cols]
                for j in range(lses.shape[1]):
                    np.logaddexp2(lse, lses[:, j], out=lse)

    for lo in range(0, paths, width):
        hi = min(lo + width, paths)
        block.draw(seed, lo, hi)
        overflow += block.evolve(hi - lo, fold)

    mean_log = total_sum / paths
    log2_moments = {e: total_lse[e] - math.log2(paths) for e in eta_list}
    fractions = {m: total_counts[m] / paths for m in thresholds}
    slope = _fit_slope(mean_log, horizon // 2, horizon + 1)
    return SimulationReport(
        horizon=horizon,
        paths=paths,
        seed=seed,
        strategy=strategy.describe(),
        eta_list=eta_list,
        thresholds=thresholds,
        mean_log2_ratio=mean_log,
        log2_moments=log2_moments,
        fractions=fractions,
        growth_slope_bits=slope,
        overflow_paths=overflow,
    )


class _Block:
    """Work arrays for one block of paths, allocated once per run and
    overwritten in place by each block.  A block is a whole number of
    ``_BLOCK``-path sub-blocks (the run's last block may be narrower), wide
    only at horizons short enough that every array stays within one
    sub-block's at ``_TILE`` steps.  Only the draw rows span the horizon;
    every other array holds one time-major tile of at most ``_TILE`` steps,
    on either route.
    """

    def __init__(self, spec, strategy, horizon, rows):
        steps = min(horizon, _TILE)

        def matrix(wanted):
            return np.empty((rows, horizon)) if wanted else None

        def tile(wanted, length=steps, dtype=float):
            return np.empty((length, rows), dtype=dtype) if wanted else None

        self.spec, self.strategy, self.horizon = spec, strategy, horizon
        self.b = matrix(True)
        self.d = matrix(strategy.kind == "random_linear")
        self.v = matrix(spec.obs_noise_std > 0)
        self.w = matrix(spec.process_noise_std > 0)
        # log2|X[n]/x0|, time-major: row 0 carries the step before the tile
        self.dl = tile(True, steps + 1)
        self.work = tile(True, steps + 1)  # LSE terms
        self.mask = tile(True, steps + 1, bool)
        noisy = not spec.noise_free
        # row 0 of x carries the state into the tile
        self.x, self.bd = tile(noisy, steps + 1), tile(noisy)
        self.vt, self.wt = tile(self.v is not None), tile(self.w is not None)
        words = horizon * (1 if self.d is None else 2)
        one_word = (spec.dist._from_uniform is not None
                    and self.v is None and self.w is None)
        self.kernel_words = words if one_word and words <= _KERNEL_WORDS else 0

    def draw(self, seed, lo, hi):
        """Per-path draws in a fixed order: gains, strategy gains, V, W."""
        spec, strategy, horizon = self.spec, self.strategy, self.horizon
        if self.kernel_words:
            # the same words as the loop below, a block at a time
            words = path_words(seed, lo, hi, self.kernel_words)
            u = (words >> np.uint64(11)).astype(float) * 2.0**-53
            self.b[:hi - lo] = spec.dist._from_uniform(u[:, :horizon])
            if self.d is not None:
                self.d[:hi - lo] = (strategy.d_low + (strategy.d_high - strategy.d_low)
                                    * u[:, horizon:])
            return
        noise = [(rows[:hi - lo], std) for rows, std in
                 ((self.v, spec.obs_noise_std), (self.w, spec.process_noise_std))
                 if rows is not None]
        for i, rng in enumerate(path_streams(seed, lo, hi)):
            self.b[i] = spec.dist.sample(rng, horizon)
            if self.d is not None:
                self.d[i] = rng.uniform(strategy.d_low, strategy.d_high, horizon)
            for rows, _ in noise:
                rng.standard_normal(out=rows[i])
        for rows, std in noise:
            # what rng.normal(0.0, std) makes of the same normals: 0.0 + std z
            rows *= std
            rows += 0.0

    def evolve(self, bs, fold):
        """Call ``fold(first step, slab)`` on time-major (steps, paths) slabs
        of log2|X[n]/x0| over the first ``bs`` paths, one per tile, that
        cover steps 0 to horizon in order.  Return the number of those paths
        that hit the clamp."""
        spec, b, d = self.spec, self.b[:bs], self.d
        self.dl[0, :bs] = 0.0
        if not spec.noise_free:
            self.x[0, :bs] = spec.x0
        overflowed = np.zeros(bs, dtype=bool)
        for n0 in range(0, self.horizon, _TILE):
            n1 = min(n0 + _TILE, self.horizon)
            steps = n1 - n0
            b_t = b[:, n0:n1].T
            d_t = self.strategy.d if d is None else d[:bs, n0:n1].T
            dl = self.dl[:steps + 1, :bs]
            logs = dl[1:]
            if spec.noise_free:
                # log2|a (1 + d b)| below the carried log-state, then summed
                log2_a = math.log2(abs(spec.a))
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
                        d_big = d_t[big] if d is not None else d_t
                        closed = (np.log2(np.abs(d_big))
                                  + np.log2(np.abs(b_t[big] + 1.0 / d_big)))
                        logs[big] = log2_a + closed
                # row by row: numpy accumulates a column at a time
                for k in range(steps):
                    np.add(dl[k], logs[k], out=logs[k])
            else:
                bd, xs = self.bd[:steps, :bs], self.x[:steps + 1, :bs]
                np.multiply(b_t, d_t, out=bd)
                v = w = None
                if self.v is not None:
                    v = self.vt[:steps, :bs]
                    np.copyto(v, self.v[:bs, n0:n1].T)
                if self.w is not None:
                    w = self.wt[:steps, :bs]
                    np.copyto(w, self.w[:bs, n0:n1].T)
                with np.errstate(over="ignore", invalid="ignore",
                                 divide="ignore"):
                    _step_tile(spec.a, xs, bd, v, w)
                    np.abs(xs[1:], out=logs)
                    # a clamped |X| is exactly _CLAMP: the paths that reached it
                    overflowed |= (logs >= _CLAMP).any(axis=0)
                    np.log2(logs, out=logs)
                np.subtract(logs, math.log2(abs(spec.x0)), out=logs)
                xs[0] = xs[steps]
            first = 1 if n0 else 0  # step 0 is folded with the first tile
            fold(n0 + first, dl[first:])
            dl[0] = dl[steps]
        return int(overflowed.sum())


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
    x = np.arange(start, stop, dtype=float)
    return float(np.polyfit(x, window, 1)[0])


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
