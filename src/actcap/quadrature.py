"""Fixed Gauss-Legendre node patterns: one graded toward break points, and
even panels for a smooth integrand.

The graded pattern covers [breaks[0], breaks[-1]] for an integrand that is
singular at some of the break points.  Each half of every gap between
consecutive break points is covered by ``ORDER``-point Gauss-Legendre
panels that shrink by ``GRADE_RATIO`` over ``GRADE_LEVELS`` levels toward
its break point, then by ``OUTER_PANELS`` equal panels.  Logarithmic and
integrable power-law (exponent > -1) blow-ups at a break point are thereby
resolved without adaptivity, and so are the sharp edge layers of high
moments; a truncated Gaussian's eta-moment takes it, with the cut and the
integrand's peaks as break points.  An integrand with no singular point,
such as the one a truncated Gaussian's log mean leaves after integration
by parts, takes equal panels instead (:func:`even_panels`).
"""

from __future__ import annotations

import numpy as np

ORDER = 16
GRADE_RATIO = 0.15
GRADE_LEVELS = 18
OUTER_PANELS = 3

_X, _WX = np.polynomial.legendre.leggauss(ORDER)


def _half_pattern():
    """Nodes and weights on [0, 1], graded toward 0, innermost panel first."""
    edges = np.concatenate([
        [0.0],
        GRADE_RATIO ** np.arange(GRADE_LEVELS, 1, -1.0),
        np.linspace(GRADE_RATIO, 1.0, OUTER_PANELS + 1),
    ])
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = lo + 0.5 * (hi - lo) * (_X + 1.0)
    return nodes.ravel(), (0.5 * (hi - lo) * _WX).ravel()


_U, _W = _half_pattern()


def panel_nodes(breaks):
    """``(nodes, weights)`` covering [breaks[0], breaks[-1]].

    ``breaks`` is strictly increasing.  Each half of every gap carries the
    graded pattern, mapped by one affine broadcast toward its own break
    point.  Nodes that round onto a break point are dropped, so no
    integrand is evaluated at one.
    """
    breaks = np.asarray(breaks, dtype=float)
    lower, upper = breaks[:-1], breaks[1:]
    near = np.concatenate((lower, upper))[:, None]
    far = np.concatenate((upper, lower))[:, None]
    step = 0.5 * (far - near)
    nodes = near + step * _U
    keep = (nodes != near) & (nodes != far)
    return nodes[keep], (np.abs(step) * _W)[keep]


def even_panels(lo, hi, count):
    """``(nodes, weights)`` of ``count`` ``ORDER``-point Gauss-Legendre
    panels of equal width covering [lo, hi]: the rule for a smooth
    integrand, which needs no break point."""
    edges = np.linspace(lo, hi, count + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (edges[:-1, None] + half * (_X + 1.0)).ravel(), (half * _WX).ravel()
