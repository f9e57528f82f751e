"""One fixed Gauss-Legendre node pattern for densities with break points.

Every expectation in this package is a weighted sum over one node set.  The
break points of a density piece are its two ends plus the integrand's
declared singular points (in practice b = -1/d) clipped into the piece.
Each half of every gap between consecutive break points is covered by
``ORDER``-point Gauss-Legendre panels that shrink by ``GRADE_RATIO`` over
``GRADE_LEVELS`` levels toward its break point, then by ``OUTER_PANELS``
equal panels.  Logarithmic and integrable power-law (exponent > -1)
blow-ups at a break point are thereby resolved without adaptivity, and so
are the sharp edge layers of high moments.  A divergent integrand shows
itself as a non-negligible share of the total carried by the innermost
panels; ``ActuationDistribution.expect`` checks that share for the
integrands its callers pass.
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
GAP_NODES = 2 * len(_U)  # nodes of one gap before any is dropped


def _pattern(breaks):
    """Nodes, weights and keep mask of every half gap, shape (..., 2 gaps,
    nodes per half): the graded pattern mapped by one affine broadcast
    toward its own break point, over the last axis of ``breaks``."""
    lower, upper = breaks[..., :-1], breaks[..., 1:]
    near = np.concatenate((lower, upper), axis=-1)[..., None]
    far = np.concatenate((upper, lower), axis=-1)[..., None]
    step = 0.5 * (far - near)
    nodes = near + step * _U
    return nodes, np.abs(step) * _W, (nodes != near) & (nodes != far)


def panel_nodes(breaks):
    """``(nodes, weights, inner)`` covering [breaks[0], breaks[-1]].

    ``breaks`` is strictly increasing.  Each half of every gap carries the
    graded pattern, mapped toward its own break point; ``inner`` marks the
    innermost panels.  Nodes that round onto a break point are dropped, so
    no integrand is evaluated at one.
    """
    nodes, weights, keep = _pattern(np.asarray(breaks, dtype=float))
    return nodes[keep], weights[keep], (keep & _INNER)[keep]


def panel_rows(breaks):
    """:func:`panel_nodes` of every row of the 2-D array ``breaks``, in runs
    of consecutive rows that drop the same nodes.  Yields ``(start, stop,
    nodes, weights)``: one row of nodes and of weights for each row of
    ``breaks[start:stop]``.  Row by row these are the nodes and weights
    :func:`panel_nodes` returns."""
    nodes, weights, keep = (a.reshape(len(breaks), -1) for a in _pattern(breaks))
    bounds = [0, *(np.flatnonzero((keep[1:] != keep[:-1]).any(axis=1)) + 1).tolist(),
              len(breaks)]
    for start, stop in zip(bounds, bounds[1:]):
        # compress keeps the rows contiguous, as each row's sum needs
        kept = keep[start]
        yield (start, stop, np.compress(kept, nodes[start:stop], axis=1),
               np.compress(kept, weights[start:stop], axis=1))
