"""One fixed Gauss-Legendre node pattern for densities with break points.

Every expectation in this package is a weighted sum over one node set.  The
break points of a density piece are its two ends plus the integrand's
declared singular points (in practice b = -1/d) clipped into the piece.
Each half of every gap between consecutive break points is covered by
``ORDER``-point Gauss-Legendre panels that shrink by ``GRADE_RATIO`` over
``GRADE_LEVELS`` levels toward its break point, then by ``OUTER_PANELS``
equal panels.  Logarithmic and integrable power-law (exponent > -1)
blow-ups at a break point are thereby resolved without adaptivity, and so
are the sharp edge layers of high moments; a divergent integrand shows
itself as a non-negligible share of the total carried by the innermost
panels.
"""

from __future__ import annotations

import numpy as np

ORDER = 16
GRADE_RATIO = 0.15
GRADE_LEVELS = 18
OUTER_PANELS = 3
# share of the total the innermost panels may carry before the integral is
# declared divergent
FAIL_REL = 1e-6


class NonIntegrable(ArithmeticError):
    """The integrand diverges at a break point, or its expectation is NaN."""


def _half_pattern():
    """Nodes, weights and innermost-panel mask on [0, 1], graded toward 0."""
    x, w = np.polynomial.legendre.leggauss(ORDER)
    edges = np.concatenate([
        [0.0],
        GRADE_RATIO ** np.arange(GRADE_LEVELS, 1, -1.0),
        np.linspace(GRADE_RATIO, 1.0, OUTER_PANELS + 1),
    ])
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = lo + 0.5 * (hi - lo) * (x + 1.0)
    inner = np.zeros(nodes.shape, dtype=bool)
    inner[0] = True
    return nodes.ravel(), (0.5 * (hi - lo) * w).ravel(), inner.ravel()


_U, _W, _INNER = _half_pattern()


def panel_nodes(breaks):
    """``(nodes, weights, inner)`` covering [breaks[0], breaks[-1]].

    ``breaks`` is strictly increasing.  Each half of every gap carries the
    graded pattern, mapped by one affine broadcast toward its own break
    point; ``inner`` marks the innermost panels.  Nodes that round onto a
    break point are dropped, so no integrand is evaluated at one.
    """
    gaps = list(zip(breaks[:-1], breaks[1:]))
    rows = [(a, b, 0.5 * (b - a)) for a, b in gaps]
    rows += [(b, a, 0.5 * (a - b)) for a, b in gaps]
    near, far, step = np.array(rows, dtype=float).T[:, :, None]
    nodes = near + step * _U
    keep = (nodes != near) & (nodes != far)
    weights = np.abs(step) * _W
    return nodes[keep], weights[keep], (keep & _INNER)[keep]
