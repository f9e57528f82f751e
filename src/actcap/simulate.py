"""Monte Carlo verification of the operational meaning of the capacities.

Scalar plant  X[n+1] = a (X[n] + B[n] U[n]) + W[n],  Y[n] = X[n] + V[n],
driven by linear memoryless controls U[n] = d Y[n].  Noise-free runs track
(sign, log2|X|) so horizons of 1e4 steps at growth rates of many bits/step
never overflow; additive-noise runs use raw doubles clamped at 1e300.

Paths use independent counter-based substreams keyed by (seed, path index),
and block results are folded in fixed index order, so reports are bitwise
reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .capacity import CapacityQuery, eta_capacity, eta_objective, shannon_capacity
from .distributions import ActuationDistribution, make_rng

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
_CLAMP = 1e300
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
    """Control law: fixed linear gain, no control, or per-step random gain."""

    kind: str = "linear"  # "linear" | "zero" | "random_linear"
    d: float = 0.0
    d_low: float = 0.0
    d_high: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "zero", "random_linear"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not math.isfinite(self.d):
            raise ValueError("d must be finite")

    def describe(self):
        if self.kind == "linear":
            return f"linear(d={self.d!r})"
        if self.kind == "zero":
            return "zero"
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
    metadata: dict = field(default_factory=dict)

    def moment_slope_bits(self, eta, start=None, stop=None):
        """LSQ slope of (1/eta) log2 E[|X|^eta] over [start, stop)."""
        y = self.log2_moments[eta] / eta
        start = self.horizon // 2 if start is None else start
        stop = self.horizon + 1 if stop is None else stop
        return _fit_slope(y, start, stop)

    def to_json_dict(self):
        return {
            "metadata": {
                "horizon": self.horizon,
                "paths": self.paths,
                "seed": self.seed,
                "strategy": self.strategy,
                "eta_list": list(self.eta_list),
                "thresholds": list(self.thresholds),
                "growth_slope_bits": _jsonable(self.growth_slope_bits),
                "overflow_paths": self.overflow_paths,
                **{k: _jsonable(v) for k, v in self.metadata.items()},
            },
            "per_step": {
                "mean_log2_ratio": _jsonable_list(self.mean_log2_ratio),
                **{
                    f"log2_moment_eta_{eta:g}": _jsonable_list(arr)
                    for eta, arr in self.log2_moments.items()
                },
                **{
                    f"fraction_ge_{m:g}": _jsonable_list(arr)
                    for m, arr in self.fractions.items()
                },
            },
        }

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


def _jsonable(x):
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)  # 'inf', '-inf', 'nan'
    return x


def _jsonable_list(arr):
    return [_jsonable(float(v)) for v in arr]


def simulate(spec: SystemSpec, strategy: StrategySpec, horizon: int,
             paths: int, eta_list=(2.0,), threshold=1e6, seed=0,
             workers=1) -> SimulationReport:
    """Evolve ``paths`` independent trajectories and report per-step stats."""
    if horizon < 1 or paths < 1:
        raise ValueError("horizon and paths must be >= 1")
    thresholds = tuple(float(m) for m in np.atleast_1d(threshold))
    eta_list = tuple(float(e) for e in eta_list)
    if not all(math.isfinite(v) for v in thresholds + eta_list):
        raise ValueError("thresholds and eta values must be finite")
    return _run(spec, strategy, horizon, paths, eta_list, thresholds,
                seed, workers)


def _run(spec, strategy, horizon, paths, eta_list, thresholds, seed, workers):
    n_blocks = (paths + _BLOCK - 1) // _BLOCK
    log2_x0 = math.log2(abs(spec.x0))

    def run_block(bi):
        lo = bi * _BLOCK
        hi = min(lo + _BLOCK, paths)
        dl, overflowed = _evolve_block(spec, strategy, horizon, lo, hi, seed)
        return _block_stats(dl, eta_list, thresholds, log2_x0) + (overflowed,)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            block_results = list(ex.map(run_block, range(n_blocks)))
    else:
        block_results = [run_block(bi) for bi in range(n_blocks)]

    # fold in fixed block order so the result is scheduling-independent
    total_sum = np.zeros(horizon + 1)
    total_counts = {m: np.zeros(horizon + 1, dtype=np.int64) for m in thresholds}
    total_lse = {e: np.full(horizon + 1, -INF) for e in eta_list}
    overflow = 0
    for sums, counts, lses, over in block_results:
        total_sum += sums
        for m in thresholds:
            total_counts[m] += counts[m]
        for e in eta_list:
            total_lse[e] = np.logaddexp2(total_lse[e], lses[e])
        overflow += over

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
        metadata={
            "a": spec.a,
            "x0": spec.x0,
            "process_noise_std": spec.process_noise_std,
            "obs_noise_std": spec.obs_noise_std,
        },
    )


def _path_draws(spec, strategy, horizon, path_index, seed):
    """Per-path draws in a fixed order: gains, strategy gains, V, W."""
    rng = make_rng(seed, path_index)
    b = np.asarray(spec.dist.sample(rng, horizon), dtype=float)
    if strategy.kind == "random_linear":
        d = rng.uniform(strategy.d_low, strategy.d_high, horizon)
    elif strategy.kind == "zero":
        d = 0.0
    else:
        d = strategy.d
    v = rng.normal(0.0, spec.obs_noise_std, horizon) if spec.obs_noise_std > 0 else None
    w = rng.normal(0.0, spec.process_noise_std, horizon) if spec.process_noise_std > 0 else None
    return b, d, v, w


def _evolve_block(spec, strategy, horizon, lo, hi, seed):
    """Returns (log2|X[n]/x0| matrix of shape (paths, horizon+1), n overflows)."""
    bs = hi - lo
    b_rows = np.empty((bs, horizon))
    d_rows = np.empty((bs, horizon)) if strategy.kind == "random_linear" else None
    v_rows = np.empty((bs, horizon)) if spec.obs_noise_std > 0 else None
    w_rows = np.empty((bs, horizon)) if spec.process_noise_std > 0 else None
    for i, p in enumerate(range(lo, hi)):
        b, d, v, w = _path_draws(spec, strategy, horizon, p, seed)
        b_rows[i] = b
        if d_rows is not None:
            d_rows[i] = d
        if v_rows is not None:
            v_rows[i] = v
        if w_rows is not None:
            w_rows[i] = w
    d_eff = d_rows if d_rows is not None else (
        0.0 if strategy.kind == "zero" else strategy.d
    )

    if spec.noise_free:
        with np.errstate(divide="ignore"):
            factors = math.log2(abs(spec.a)) + np.log2(np.abs(1.0 + d_eff * b_rows))
        dl = np.concatenate(
            [np.zeros((bs, 1)), np.cumsum(factors, axis=1)], axis=1
        )
        return dl, 0

    x = np.full(bs, float(spec.x0))
    log2_x0 = math.log2(abs(spec.x0))
    dl = np.empty((bs, horizon + 1))
    dl[:, 0] = 0.0
    overflowed = np.zeros(bs, dtype=bool)
    for n in range(horizon):
        y = x + v_rows[:, n] if v_rows is not None else x
        d_n = d_eff[:, n] if isinstance(d_eff, np.ndarray) else d_eff
        x = spec.a * (x + b_rows[:, n] * d_n * y)
        if w_rows is not None:
            x = x + w_rows[:, n]
        hit = np.abs(x) >= _CLAMP
        if hit.any():
            x = np.clip(x, -_CLAMP, _CLAMP)
            overflowed |= hit
        with np.errstate(divide="ignore"):
            dl[:, n + 1] = np.log2(np.abs(x)) - log2_x0
    return dl, int(overflowed.sum())


def _block_stats(dl, eta_list, thresholds, log2_x0):
    sums = dl.sum(axis=0)
    counts = {
        m: (dl >= math.log2(m) - log2_x0).sum(axis=0) for m in thresholds
    }
    lses = {}
    for eta in eta_list:
        z = eta * dl
        m = z.max(axis=0)
        with np.errstate(invalid="ignore"):
            lse = m + np.log2(np.exp2(z - m).sum(axis=0))
        lses[eta] = np.where(np.isfinite(m), lse, m)
    return sums, counts, lses


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
                   eta: float = 2.0, horizon=2000, paths=10_000, seed=0,
                   x0=1.0, dead_band=_DEAD_BAND, workers=1,
                   query: CapacityQuery = CapacityQuery()):
    """Classify each open-loop gain as stable/unstable under the optimal d.

    The statistic is the growth slope of the mean log state for the
    expected-log sense, or of (1/eta) log2 of the empirical eta-moment for
    the moment sense; verdicts inside +-dead_band are "marginal".
    """
    if sense == "shannon":
        cap = shannon_capacity(dist, query)
    elif sense == "eta":
        cap = eta_capacity(dist, eta, query)
    else:
        raise ValueError(f"unknown sense {sense!r}")
    if cap.optimal_d is None:
        raise ValueError("capacity has no finite optimizer for this law")
    strategy = StrategySpec("linear", d=cap.optimal_d)
    points = []
    for a in a_grid:
        if a <= 1.0:
            raise ValueError("scan gains must exceed 1")
        spec = SystemSpec(a=float(a), dist=dist, x0=x0)
        rep = simulate(spec, strategy, horizon, paths, eta_list=(eta,),
                       seed=seed, workers=workers)
        if sense == "shannon":
            slope = rep.growth_slope_bits
        else:
            slope = rep.moment_slope_bits(eta)
        if slope < -dead_band:
            verdict = "stable"
        elif slope > dead_band:
            verdict = "unstable"
        else:
            verdict = "marginal"
        points.append(ScanPoint(float(a), verdict, slope))
    return points, cap


@dataclass
class ConverseReport:
    capacity_bits: float
    log2_a: float
    reports: dict[str, SimulationReport]


def strong_converse_experiment(dist: ActuationDistribution, a: float, m_list,
                               *, horizon=2000, paths=10_000, seed=0, x0=1.0,
                               workers=1,
                               query: CapacityQuery = CapacityQuery()):
    """Above capacity, every strategy must push P(|X| >= M) to one.

    Runs the capacity-achieving gain, the do-nothing gain, and a per-step
    random gain against the same plant.  Requires an atomless law with a
    density (atomic laws fall outside the bounded-density hypothesis) and a
    margin of at least 0.1 bits above capacity.
    """
    if dist.support().atoms:
        raise ValueError("experiment requires an atomless law with a density")
    cap = shannon_capacity(dist, query)
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
        "zero": StrategySpec("zero"),
        "random": StrategySpec("random_linear", d_low=lo, d_high=hi),
    }
    reports = {}
    for name, strat in strategies.items():
        spec = SystemSpec(a=float(a), dist=dist, x0=x0)
        reports[name] = simulate(spec, strat, horizon, paths,
                                 eta_list=(2.0,), threshold=tuple(m_list),
                                 seed=seed, workers=workers)
    return ConverseReport(cap.value_bits, log2_a, reports)


@dataclass(frozen=True)
class AdditiveNoiseVerdict:
    verdict: str  # "bounded" | "unbounded"
    slope_bits: float
    sup_log2_moment: float
    ceiling_log2: float
    report: SimulationReport


def additive_noise_check(dist: ActuationDistribution, a: float, eta: float,
                         d: float | None = None, *, w_std=1.0, v_std=1.0,
                         x0=1.0, horizon=5000, paths=2000, seed=0, workers=1,
                         dead_band=_DEAD_BAND,
                         query: CapacityQuery = CapacityQuery()):
    """Drive the plant with additive noise and judge eta-moment boundedness.

    "Bounded" requires a non-trending empirical moment over the final
    quarter of the horizon and a supremum below the geometric-series ceiling
    implied by the per-step contraction and the noise moments.
    """
    if d is None:
        cap = eta_capacity(dist, eta, query)
        if cap.optimal_d is None:
            raise ValueError("no finite optimizer for this law")
        d = cap.optimal_d
    spec = SystemSpec(a=float(a), dist=dist, x0=x0,
                      process_noise_std=w_std, obs_noise_std=v_std)
    rep = simulate(spec, StrategySpec("linear", d=d), horizon, paths,
                   eta_list=(eta,), seed=seed, workers=workers)
    slope = rep.moment_slope_bits(
        eta, start=3 * horizon // 4, stop=horizon + 1
    )
    log2_x0 = math.log2(abs(x0))
    sup = float(np.max(rep.log2_moments[eta] + eta * log2_x0))
    ceiling = _moment_ceiling_log2(dist, a, eta, d, w_std, v_std, x0)
    bounded = (
        rep.overflow_paths == 0
        and slope <= dead_band
        and (math.isinf(ceiling) or sup <= ceiling)
    )
    return AdditiveNoiseVerdict(
        "bounded" if bounded else "unbounded", slope, sup, ceiling, rep
    )


def _moment_ceiling_log2(dist, a, eta, d, w_std, v_std, x0):
    """log2 of the closed-loop eta-moment bound from the contraction series.

    Expanding the recursion, E|X[n]|^eta is bounded by a geometric series in
    L = E|a(1+dB)|^eta whenever L < 1 (triangle/Minkowski step per eta).
    """
    log2_l = eta * (math.log2(abs(a)) - eta_objective(dist, d, eta))
    if log2_l >= 0.0:
        return INF
    m = max(
        _abs_gauss_moment(w_std, eta),
        _abs_gauss_moment(v_std, eta),
        dist.expect(lambda b: abs(b) ** eta, (0.0,)),
        abs(x0) ** eta,
    )
    log2_m = math.log2(m)
    scale = abs(a * d)
    if eta > 1.0:
        root = 2.0 ** (log2_l / eta)
        return (
            -eta * math.log2(1.0 - root)
            + log2_m
            + eta * math.log2(1.0 + scale * m ** (1.0 / eta))
        )
    l = 2.0**log2_l
    return -math.log2(1.0 - l) + log2_m + math.log2(1.0 + scale * m)


def _abs_gauss_moment(std, eta):
    """E|N(0, std^2)|^eta."""
    if std == 0.0:
        return 0.0
    return std**eta * 2.0 ** (eta / 2.0) * special.gamma((eta + 1) / 2) / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# exact path-equivalence between the unit-gain plant and the scaled plant
# ---------------------------------------------------------------------------

def scaling_equivalence_check(dist: ActuationDistribution, a: float, d: float,
                              horizon=200, seed=0, x0=1.0):
    """Max relative gap between the scaled plant and a^k times the unit plant.

    The unit-gain system runs U[k] = d X[k]; the scaled system runs the same
    linear law U_a[k] = d X_a[k], which along the equivalent path IS
    a^k U[k].  Both evolve in signed log2 space, so 200 steps at any growth
    rate stay representable, and the reference a^k X[k] accumulates the
    k log2|a| term explicitly on the unit trajectory.

    Feeding the unit system's control into the scaled state at literal full
    scale is numerically ill-posed: the cross-state representation dust is
    amplified by the inverse of the running product of |1 + B d| and
    swamps the identity after tens of steps.  The self-controlled form keeps
    all rounding additive in the log domain.
    """
    rng = make_rng(seed, 0)
    b = np.asarray(dist.sample(rng, horizon), dtype=float)
    log2_a = math.log2(abs(a))

    l1, s1 = _self_controlled_log_run(0.0, b, d, x0)
    l2, s2 = _self_controlled_log_run(log2_a, b, d, x0)
    worst = 0.0
    klog = 0.0
    for k in range(horizon + 1):
        worst = max(worst, _relative_gap(l2[k], s2[k], klog + l1[k], s1[k]))
        klog = log2_a + klog
    return worst


def _self_controlled_log_run(log2_gain, b, d, x0):
    """Signed log2 trajectory of X <- gain (X + B d X) for one draw path."""
    l, s = math.log2(abs(x0)), _sign(x0)
    out_l, out_s = [l], [s]
    for bk in b:
        if d == 0.0 or bk == 0.0:
            t_log, t_sign = -INF, 0
        else:
            t_log = math.log2(abs(bk * d)) + l
            t_sign = _sign(bk) * _sign(d) * s
        l, s = _signed_logadd2(l, s, t_log, t_sign)
        l = log2_gain + l
        out_l.append(l)
        out_s.append(s)
    return out_l, out_s


def _sign(x):
    return int(x > 0) - int(x < 0)


def _signed_logadd2(lx, sx, ly, sy):
    """(log2|x+y|, sign) from the signed log2 representations of x and y."""
    if sy == 0 or ly == -INF:
        return lx, sx
    if sx == 0 or lx == -INF:
        return ly, sy
    if ly > lx:
        lx, ly, sx, sy = ly, lx, sy, sx
    delta = ly - lx  # <= 0
    if sx == sy:
        return lx + math.log1p(2.0**delta) / _LN2, sx
    diff = -math.expm1(delta * _LN2)  # 1 - 2^delta, full relative precision
    if diff == 0.0:
        return -INF, 0
    return lx + math.log(diff) / _LN2, sx


def _relative_gap(lg, sg, l1, s1):
    if s1 == 0 and sg == 0:
        return 0.0
    if s1 == 0 or sg == 0:
        return INF
    return abs(sg * s1 * 2.0 ** (lg - l1) - 1.0)
