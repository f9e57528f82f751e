"""Capacity objectives and the one-dimensional search over the control gain d.

All reported values are in bits.  Each objective is one weighted sum over
the law's quadrature node set, with b = -1/d declared as the singular
point: the Shannon objective sums -log|1 + b d|, the eta-th-moment
objective takes one weighted log-sum-exp of eta log|1 + b d|, which stays
free of overflow for every eta.  Two searches over d, chosen by the
objective's structure, give the capacities.  For eta >= 1, E|1 + B d|^eta is
convex in d: bounded Brent runs on the smooth pieces between the exactly
evaluated atom-cancelling gains.  For the Shannon sense and eta < 1, a coarse
grid scan (log-densified near d = 0 and near -1/mean, where the closed-form
optimizers live) is followed by bounded Brent refinement of every grid-local
maximum.  The window, the densification floor and the refinement stop are
all set in a power-of-two unit of the law, so rescaling the law by 2^k moves
no bit count.  The zero-error capacity has an exact minimax closed form over
the support interval.
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
_ROUND_TOL = 64 * sys.float_info.epsilon  # a tie within rounding, per bit
_BACKBONE = 50  # evenly spaced scan gains on each side of 0
_PER_CENTER = 7  # geometric scan gains on each side of each center
_WINDOW = 100.0  # search half-width, in inverse units of the law
_REFINE_REL = 1e-12  # absolute part of the Brent stop, relative to the window
_MAX_DOUBLINGS = 60  # of the convex search's bracket


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
    _check_eta(eta)
    if d == 0.0:
        return 0.0
    return -_log_eta_moment(dist, 1.0, d, eta) / (eta * _LOG2)


def _check_eta(eta):
    if not 0.0 < eta <= ETA_MAX:
        raise ValueError(f"eta must lie in (0, {ETA_MAX:.4g}], got {eta!r}")


def _log_eta_moment(dist, shift, d, eta):
    """ln E|shift + B d|^eta as one weighted log-sum-exp: -inf when the sum
    vanishes, +inf when |shift + b d| passes the float range.  d must be
    nonzero: -shift/d is declared singular.

    The sums are normalised by the weights' total and, while the mean stays
    above 1/2, taken as log1p of the mean expm1 term: at small eta every
    term is near 1, and the rounding of the weights' total would otherwise
    swamp a logarithm that is then divided by eta."""
    nodes, weights, _ = dist.quadrature_nodes((-shift / d,), eta)
    t = np.abs(shift + nodes * d)
    if not t.all():
        # as in shannon_objective, a density node a hair from the singular
        # point, where cancellation zeroes |shift + b d|, reads one ulp of
        # the products (0^eta would be a whole unit short at tiny eta); an
        # exactly cancelled atom keeps its 0
        atoms = {loc for loc, _ in dist.support().atoms}
        lost = [i for i in np.flatnonzero(t == 0.0) if nodes[i] not in atoms]
        t[lost] = 2.3e-16 * np.maximum(abs(shift), np.abs(nodes[lost] * d))
    with np.errstate(divide="ignore"):
        logs = np.log(t)
    logs *= eta
    top = float(logs.max())
    if math.isinf(top):
        return top
    logs -= top
    mass = float(weights.sum())
    excess = float(weights @ np.expm1(logs)) / mass
    if excess > -0.5:
        return top + math.log1p(excess)
    total = float(weights @ np.exp(logs)) / mass
    if total <= 0.0:
        return -INF
    return top + math.log(total)


def _build_grid(halfwidth, centers):
    h = max([halfwidth] + [2.0 * abs(c) for c in centers])
    # symmetric about an exact 0, so no backbone point sits a rounding
    # error away from it
    side = np.linspace(0.0, h, _BACKBONE + 1)[1:]
    pts = [-side, np.array([0.0]), side]
    for c in centers:
        offs = np.geomspace(max(abs(c), halfwidth / _WINDOW) * 1e-12, h,
                            _PER_CENTER)
        pts.append(np.clip(c + offs, -h, h))
        pts.append(np.clip(c - offs, -h, h))
        pts.append(np.array([c]))  # exact cusp optima must be evaluable
    # sorted distinct values, as np.unique finds them without its numpy.ma import
    grid = np.sort(np.concatenate(pts))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    return grid[(grid >= -h) & (grid <= h)]


def _counted(objective):
    """``objective`` with NaN read as -inf, and a list holding its call
    count."""
    calls = [0]

    def f(d):
        calls[0] += 1
        value = float(objective(d))
        return -INF if math.isnan(value) else value

    return f, calls


def _diagnostics(method, calls, grid_evals, value, flat, bound_hit, halfwidth):
    """The one diagnostics shape both searches fill."""
    return {
        "method": method,
        "evaluations": calls[0],
        "grid_evaluations": grid_evals,
        "refine_iterations": calls[0] - grid_evals,
        "objective_at_d": value,
        "flat": flat,
        "bound_hit": bound_hit,
        "halfwidth": halfwidth,
    }


def maximize_over_d(objective, halfwidth, centers=(0.0,)):
    """Coarse grid scan, then bounded Brent refinement between the grid
    neighbours of every grid-local maximum.  The smallest |d| wins exact
    ties on the grid; among points that tie the best within rounding, such
    as the mirror optima of a symmetric law, a negative d wins.

    ``halfwidth`` sets the scale of the search.  The grid spans
    [-halfwidth, halfwidth], widened to twice the farthest center, holds 0
    exactly, and is densified geometrically around each center c from
    1e-12 of max(|c|, halfwidth / 100) outward.  Refinement stops within
    1e-12 of max(halfwidth, |d|), so no step depends on the units of d.

    Returns ``(d_star, value, diagnostics)``.  A +inf objective value on the
    grid wins immediately; -inf (|b d| past the float range) and NaN lose
    like any other value.  ``diagnostics['bound_hit']`` flags an argmax on
    the search boundary, and ``diagnostics['flat']`` a second grid value
    within _TIE_TOL of the best.
    """
    if not halfwidth > 0:
        raise ValueError(f"halfwidth must be positive, got {halfwidth}")
    grid = _build_grid(halfwidth, centers)
    f, calls = _counted(objective)
    vals = np.array([f(d) for d in grid])
    n = len(grid)

    if np.isposinf(vals).any():
        winners = grid[np.isposinf(vals)]
        d_star = float(winners[np.argmin(np.abs(winners))])
        return d_star, INF, _diagnostics("scan", calls, n, INF, False, False,
                                         float(grid[-1]))

    best = float(np.max(vals))
    flat = int(np.count_nonzero(vals >= best - _TIE_TOL)) > 1
    top = np.flatnonzero(vals == best)
    i = int(top[np.argmin(np.abs(grid[top]))])
    found = [(float(grid[i]), best)]
    # every grid-local maximum, but none inside a plateau of exact ties,
    # where refinement has nothing to find
    padded = np.pad(vals, 1, mode="edge")
    left, right = padded[:-2], padded[2:]
    peaks = np.flatnonzero((vals >= left) & (vals >= right)
                           & ((vals > left) | (vals > right)))
    for j in peaks:
        lo, hi = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, n - 1)])
        tol = _REFINE_REL * max(halfwidth, abs(float(grid[j])))
        start = (float(grid[j]), float(vals[j])) if 0 < j < n - 1 else None
        found.append(_brent_max(f, lo, hi, tol, start, rel=0.0))
    val = max(v for _, v in found)
    ties = [(d, v) for d, v in found
            if v >= val - _ROUND_TOL * max(1.0, abs(val))]
    # max keeps the first of exact ties: the canonical grid point
    d_star, val = max(ties, key=lambda c: (c[0] < 0.0, c[1]))
    return d_star, val, _diagnostics("scan", calls, n, val, flat,
                                     i in (0, n - 1), float(grid[-1]))


_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_BRENT_REL = math.sqrt(sys.float_info.epsilon)
_BRENT_STEPS = 200


def _brent_max(f, a, b, tol, start=None, rel=_BRENT_REL):
    """Brent's bounded maximiser of f on [a, b] (Brent 1973, ch. 5): a
    parabola through the three best points where it steps inside the
    bracket and shrinks it fast enough, a golden-section step otherwise.

    ``start`` = (x, f(x)) seeds an interior point; the golden point is the
    default.  Stops once the best point lies within rel |x| + tol / 3 of
    the bracket midpoint, half-bracket permitting.  The arithmetic runs
    on x / s, s the power of two of the bracket's magnitude, so it neither
    overflows nor underflows whatever the units of x.  Returns
    ``(x, f(x))`` for the best point seen.
    """
    s = _pow2_scale(max(abs(a), abs(b)))
    a, b, tol = a / s, b / s, tol / s
    if start is None:
        x = a + _CGOLD * (b - a)
        fx = f(x * s)
    else:
        x, fx = start[0] / s, start[1]
    w = v = x
    fw = fv = fx
    step = gap = 0.0  # the last step and the one before it
    for _ in range(_BRENT_STEPS):
        mid = 0.5 * (a + b)
        tol1 = rel * abs(x) + tol / 3.0
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(gap) > tol1:  # fit the parabola through x, w and v
            r = (x - w) * (fv - fx)
            q = (x - v) * (fw - fx)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, gap = gap, step
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            step = p / q
            if x + step - a < 2.0 * tol1 or b - (x + step) < 2.0 * tol1:
                step = tol1 if x < mid else -tol1
        else:
            gap = (b - x) if x < mid else (a - x)
            step = _CGOLD * gap
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = f(u * s)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x * s, fx


def _maximize_convex(objective, dist):
    """Maximize -(1/eta) log2 E|1 + B d|^eta for eta >= 1, where the moment
    is convex in d.

    The atom-cancelling gains -1/loc split d into smooth convex pieces.
    Each is evaluated exactly, together with 0 and the far end 4 d_2 of
    the bracket, d_2 = -E[B]/E[B^2] being the eta = 2 optimum; the far end
    doubles until an interior point beats both ends.  Bounded Brent then
    refines the two pieces beside the best of these points, where
    convexity puts the optimum.  E[B] = 0 reads 0 at d = 0 by Jensen.
    """
    unit = _unit(dist)
    m = dist.moments()[0] / unit
    s = dist.std() / unit
    # -m / (m^2 + s^2), the eta = 2 optimum in units of 1 / unit, formed
    # without squaring m
    u2 = -1.0 / (m + s * (s / m)) if m != 0.0 else 0.0
    if u2 == 0.0:  # |E[B]| too small against the spread to matter
        return 0.0, 0.0, _diagnostics("convex", [0], 0, 0.0, False, False,
                                      0.0)
    f, calls = _counted(objective)
    far = 4.0 * u2 / unit
    kinks = [-1.0 / loc for loc, _ in dist.support().atoms if loc != 0.0]
    values = {0.0: f(0.0)}  # every evaluated gain on the side of d_2
    for _ in range(_MAX_DOUBLINGS + 1):
        for d in [k for k in kinks if 0.0 < k / far <= 1.0] + [far]:
            if d not in values:
                values[d] = f(d)
        order = sorted(values, key=abs)
        best = max(values.values())
        j = next(i for i, d in enumerate(order) if values[d] == best)
        if best == INF or j < len(order) - 1:
            break
        far *= 2.0
    if best == INF:
        return order[j], INF, _diagnostics("convex", calls, calls[0], INF,
                                           False, False, abs(far))
    grid_evals = calls[0]
    d_star, val = order[j], best
    tol = _REFINE_REL * abs(far)
    for k in (j - 1, j + 1):
        if 0 <= k < len(order):
            lo, hi = sorted((order[j], order[k]))
            d, v = _brent_max(f, lo, hi, tol)
            if v > val:  # exact ties keep the evaluated gain
                d_star, val = d, v
    # flat: a tie at one step of the coarse scan grid from d*
    grid = _build_grid(_WINDOW / unit, _grid_centers(dist))
    k = int(np.searchsorted(grid, d_star))
    after = k + 1 if k < len(grid) and grid[k] == d_star else k
    flat = any(f(float(grid[i])) >= val - _TIE_TOL
               for i in (k - 1, after) if 0 <= i < len(grid))
    return d_star, val, _diagnostics("convex", calls, grid_evals, val, flat,
                                     j == len(order) - 1, abs(far))


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
    """eta-th moment capacity: the convex search for eta >= 1, the scan
    below."""
    _check_eta(eta)

    def objective(d):
        return eta_objective(dist, d, eta)

    if eta >= 1.0:
        with np.errstate(over="ignore"):
            d_star, val, diag = _maximize_convex(objective, dist)
    else:
        d_star, val, diag = _search(objective, dist)
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
