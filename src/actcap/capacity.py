"""Capacity objectives and the one-dimensional search over the control gain d.

All reported values are in bits.  Each objective is one weighted sum over
the law's quadrature node set, with b = -1/d declared as the singular
point: the Shannon objective sums -log|1 + b d|, the eta-th-moment
objective takes one weighted log-sum-exp of eta log|1 + b d|, which stays
free of overflow for every eta.  The capacities come from a coarse grid scan
(log-densified near d = 0 and near -1/mean, where the closed-form optimizers
live) followed by golden-section refinement.  The window, the densification
floor and the refinement stop are all set in a power-of-two unit of the law,
so rescaling the law by 2^k moves no bit count.  The zero-error capacity has
an exact minimax closed form over the support interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .distributions import ActuationDistribution, FiniteMixture, _pow2_scale

__all__ = [
    "CapacityResult",
    "ETA_MAX",
    "capacity_curve",
    "eta_capacity",
    "eta_objective",
    "maximize_over_d",
    "second_moment_closed_form",
    "shannon_capacity",
    "shannon_objective",
    "zero_error_capacity",
]

INF = float("inf")
_LOG2 = math.log(2.0)
# largest eta for which eta * ln x stays finite for every positive double x
# (ln x >= -744.45), so no eta-moment log overflows to inf - inf
ETA_MAX = sys.float_info.max / 745.0
_TIE_TOL = 1e-12
_GRID_POINTS = 2001
_WINDOW = 100.0  # search half-width, in inverse units of the law
_REFINE_REL = 1e-12  # golden-section stop, relative to the scale of d


@dataclass(frozen=True)
class CapacityResult:
    value_bits: float
    optimal_d: float | None
    sense: str
    eta: float | None = None
    diagnostics: dict = field(default_factory=dict)


def shannon_objective(dist: ActuationDistribution, d: float) -> float:
    """E[-log2 |1 + B d|]; +inf when the law has an atom exactly at -1/d."""
    if d == 0.0:
        return 0.0
    hit = -1.0 / d
    for loc, _ in dist.support().atoms:
        if loc == hit:
            return INF

    def integrand(b):
        bd = b * d
        t = np.abs(1.0 + bd)
        zero = t == 0.0
        if zero.any():
            # float cancellation can zero 1 + b d a hair away from the
            # declared singular point; the true magnitude there is below
            # one ulp of the products involved
            t[zero] = 2.3e-16 * np.maximum(1.0, np.abs(bd[zero]))
        return -np.log(t)

    return dist.expect(integrand, (hit,)) / _LOG2


def eta_objective(dist: ActuationDistribution, d: float, eta: float) -> float:
    """-(1/eta) log2 E[|1 + B d|^eta], as a log-sum-exp for every eta."""
    if not 0.0 < eta <= ETA_MAX:
        raise ValueError(f"eta must lie in (0, {ETA_MAX:.4g}], got {eta!r}")
    if d == 0.0:
        return 0.0
    return -_log_eta_moment(dist, 1.0, d, eta) / (eta * _LOG2)


def _log_eta_moment(dist, shift, d, eta):
    """ln E|shift + B d|^eta as one weighted log-sum-exp: -inf when the sum
    vanishes, +inf when |shift + b d| passes the float range.  d must be
    nonzero: -shift/d is declared singular."""
    nodes, weights, _ = dist.quadrature_nodes((-shift / d,), eta)
    with np.errstate(divide="ignore"):
        logs = eta * np.log(np.abs(shift + nodes * d))
    top = float(logs.max())
    if math.isinf(top):
        return top
    total = float(weights @ np.exp(logs - top))
    if total <= 0.0:
        return -INF
    return top + math.log(total)


def _build_grid(halfwidth, centers):
    h = max([halfwidth] + [2.0 * abs(c) for c in centers])
    per_center = _GRID_POINTS // 8
    backbone = max(101, _GRID_POINTS - 2 * per_center * len(centers))
    pts = [np.linspace(-h, h, backbone), np.array([0.0])]
    for c in centers:
        offs = np.geomspace(max(abs(c), halfwidth / _WINDOW) * 1e-12, h,
                            per_center)
        pts.append(np.clip(c + offs, -h, h))
        pts.append(np.clip(c - offs, -h, h))
        pts.append(np.array([c]))  # exact cusp optima must be evaluable
    # sorted distinct values, as np.unique finds them without its numpy.ma import
    grid = np.sort(np.concatenate(pts))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    return grid[(grid >= -h) & (grid <= h)]


def maximize_over_d(objective, halfwidth, centers=(0.0,)):
    """Grid scan then golden-section refinement around the best grid value,
    the smallest |d| among exact ties.

    ``halfwidth`` sets the scale of the search.  The grid spans
    [-halfwidth, halfwidth], widened to twice the farthest center, and is
    densified geometrically around each center c from 1e-12 of
    max(|c|, halfwidth / 100) outward.  Refinement stops at 1e-12 of
    max(halfwidth, |d|), so no step depends on the units of d.

    Returns ``(d_star, value, diagnostics)``.  A +inf objective value on the
    grid wins immediately; -inf (|b d| past the float range) loses like any
    other value.  ``diagnostics['bound_hit']`` flags an argmax on the search
    boundary.
    """
    if not halfwidth > 0:
        raise ValueError(f"halfwidth must be positive, got {halfwidth}")
    grid = _build_grid(halfwidth, centers)
    vals = np.array([objective(d) for d in grid])
    evals = len(grid)

    if np.isposinf(vals).any():
        winners = grid[np.isposinf(vals)]
        d_star = float(winners[np.argmin(np.abs(winners))])
        return d_star, INF, {
            "grid_evaluations": evals,
            "refine_iterations": 0,
            "objective_at_d": INF,
            "flat": False,
            "bound_hit": False,
            "halfwidth": float(grid[-1]),
        }

    best = float(np.max(vals))
    flat = int(np.count_nonzero(vals >= best - _TIE_TOL)) > 1
    top = np.flatnonzero(vals == best)
    i = int(top[np.argmin(np.abs(grid[top]))])

    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, len(grid) - 1)])
    tol = _REFINE_REL * max(halfwidth, abs(grid[i]))
    d_star, val, iters = _golden_max(objective, lo, hi, tol)
    evals += 2 * iters
    if vals[i] >= val:  # exact ties keep the canonical grid point
        d_star, val = float(grid[i]), float(vals[i])
    d_star, val = float(d_star), float(val)
    return d_star, val, {
        "grid_evaluations": evals,
        "refine_iterations": iters,
        "objective_at_d": val,
        "flat": flat,
        "bound_hit": i in (0, len(grid) - 1),
        "halfwidth": float(grid[-1]),
    }


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, tol):
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    iters = 0
    while hi - lo > tol and iters < 200:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        iters += 1
    if f1 >= f2:
        return x1, f1, iters
    return x2, f2, iters


def _grid_centers(dist):
    """Grid densification targets: the closed-form optimizers live at 0,
    -1/mean of the law and of each mixture component, and the exact
    atom-cancelling gains -1/location."""
    means = [dist.moments()[0]]
    if isinstance(dist, FiniteMixture):
        means += [comp.moments()[0] for _, comp in dist.components]
    centers = [0.0] + [-1.0 / m for m in means if m != 0.0]
    for loc, _ in dist.support().atoms:
        if loc != 0.0:
            centers.append(-1.0 / loc)
    return tuple(centers)


def _unit(dist):
    """Power-of-two extent of the law: its largest finite support end or
    sigma.  Rescaling the law by 2^k rescales the unit by 2^k, and with it
    the window, the densification floor and the refinement stop."""
    info = dist.support()
    extent = max([abs(b) for b in (info.lower, info.upper) if math.isfinite(b)]
                 + [dist.std()])
    return _pow2_scale(extent) if extent > 0.0 else 1.0


def _search(objective, dist):
    """Maximize over a window set by the law alone: _WINDOW inverse units,
    widened by maximize_over_d to hold -1/mean and every other center.
    Far out, |b d| may pass the float range; the objective then reads -inf."""
    with np.errstate(over="ignore"):
        return maximize_over_d(objective, _WINDOW / _unit(dist),
                               _grid_centers(dist))


def shannon_capacity(dist: ActuationDistribution) -> CapacityResult:
    """Capacity under the logarithmic (expected-log) stability sense.

    Infinite whenever the gain law has an atom away from zero: pinning the
    control to cancel that atom zeroes the state with positive probability
    each step, so the expected log drifts to -infinity.
    """
    if dist.support().has_nonzero_atom:
        return CapacityResult(INF, None, "shannon",
                              diagnostics={"atom_rule": True})
    d_star, val, diag = _search(lambda d: shannon_objective(dist, d), dist)
    if math.isinf(val):
        return CapacityResult(INF, None, "shannon", diagnostics=diag)
    return CapacityResult(max(val, 0.0), d_star, "shannon", diagnostics=diag)


def eta_capacity(dist: ActuationDistribution, eta: float) -> CapacityResult:
    """eta-th moment capacity; eta_objective checks eta on first call."""
    d_star, val, diag = _search(lambda d: eta_objective(dist, d, eta), dist)
    if math.isinf(val):
        return CapacityResult(INF, None, "eta", eta, diagnostics=diag)
    return CapacityResult(max(val, 0.0), d_star, "eta", eta, diagnostics=diag)


def zero_error_capacity(dist: ActuationDistribution) -> CapacityResult:
    """Worst-case capacity: exact minimax of |1 + b d| over the support.

    Zero for unbounded support (no control is safe against arbitrarily large
    gains) and for supports containing 0 (doing nothing is already optimal);
    otherwise log2 |b1+b2|/|b2-b1| achieved by d = -2/(b1+b2).
    """
    info = dist.support()
    diag = {"closed_form": True}
    if not info.is_bounded:
        return CapacityResult(0.0, None, "zero_error", diagnostics=diag)
    b1, b2 = info.lower, info.upper
    if info.contains_zero:
        return CapacityResult(0.0, 0.0, "zero_error", diagnostics=diag)
    if b1 == b2:
        return CapacityResult(INF, -1.0 / b1, "zero_error", diagnostics=diag)
    value = math.log2(abs(b1 + b2) / abs(b2 - b1))
    return CapacityResult(value, -2.0 / (b1 + b2), "zero_error", diagnostics=diag)


def second_moment_closed_form(dist: ActuationDistribution) -> CapacityResult:
    """Exact second-moment capacity (1/2) log2(1 + mean^2/var), no quadrature.

    The ratio is formed as (mean/sigma)^2, which stays finite where
    var = sigma^2 underflows.  A point mass at b != 0 is cancelled exactly
    by d = -1/b (infinite capacity); a point mass at 0 reads 0 at d = 0.
    """
    sigma = dist.std()
    if sigma <= 0.0:
        if dist.moments()[0] == 0.0:
            return CapacityResult(0.0, 0.0, "eta", 2.0,
                                  diagnostics={"degenerate": True})
        return CapacityResult(INF, None, "eta", 2.0,
                              diagnostics={"degenerate": True})
    snr = dist.moments()[0] / sigma
    value = 0.5 * math.log2(1.0 + snr * snr)
    d_star = -snr / (sigma * (1.0 + snr * snr))
    return CapacityResult(value, d_star, "eta", 2.0,
                          diagnostics={"closed_form": True})


def capacity_curve(dist: ActuationDistribution, eta_grid):
    """(eta, capacity) along an increasing eta grid; checked nonincreasing."""
    etas = [float(e) for e in eta_grid]
    if any(e <= 0 for e in etas) or any(a >= b for a, b in zip(etas, etas[1:])):
        raise ValueError("eta grid must be strictly increasing and positive")
    points = [(e, eta_capacity(dist, e).value_bits) for e in etas]
    for (_, c0), (e1, c1) in zip(points, points[1:]):
        if c1 > c0 + 1e-7:
            raise RuntimeError(
                f"capacity not nonincreasing at eta={e1}: {c0} -> {c1}"
            )
    return points
