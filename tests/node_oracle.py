"""The generic node-set oracle the tests check closed forms and kernels
against.

A law's node set is its atoms, weighted by their mass, plus each of its
density pieces covered by the graded pattern of
:func:`actcap.quadrature.panel_nodes` between the piece's ends and the
integrand's declared singular points clipped into it.  ``expect`` is one
weighted sum over that node set, over its weights' total, checked for a
divergent integrand: a divergent integrand shows itself as a non-negligible
share of the total carried by the innermost graded panels.  No capacity
objective, search or CLI command reads this code; each law evaluates its
own objectives.
"""

from __future__ import annotations

import math

import numpy as np

from actcap import quadrature
from actcap.distributions import FiniteMixture, TruncatedGaussian, Uniform

# share of the total the innermost panels may carry before the integral is
# declared divergent
FAIL_REL = 1e-6


class NonIntegrable(ArithmeticError):
    """The integrand diverges at a break point, or its expectation is NaN."""


def density_pieces(law, eta=0.0):
    """Density pieces of ``law`` as (lo, hi, pdf): pdf array-valued,
    absolutely scaled, covering the mass of f times the density for any f
    that grows no faster than |b|^eta."""
    if isinstance(law, Uniform):
        dens = 1.0 / (law.b2 - law.b1)
        return ((law.b1, law.b2, lambda b: dens),)
    if isinstance(law, TruncatedGaussian):
        lo, hi = law._window(eta)
        mu, sigma = law.mu, law.sigma
        norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * law.cell_probability)
        return ((lo, hi, lambda b: norm * np.exp(-0.5 * ((b - mu) / sigma) ** 2)),)
    if isinstance(law, FiniteMixture):
        return tuple((lo, hi, lambda b, w=w, pdf=pdf: w * pdf(b))
                     for w, part in law._positive
                     for lo, hi, pdf in density_pieces(part, eta))
    return ()


def innermost(breaks):
    """The innermost-panel mask of ``quadrature.panel_nodes(breaks)``: the
    nodes of the first graded panel next to each break point, with the
    nodes that round onto a break point dropped as ``panel_nodes`` drops
    them."""
    breaks = np.asarray(breaks, dtype=float)
    lower, upper = breaks[:-1], breaks[1:]
    near = np.concatenate((lower, upper))[:, None]
    far = np.concatenate((upper, lower))[:, None]
    nodes = near + 0.5 * (far - near) * quadrature._U
    keep = (nodes != near) & (nodes != far)
    inner = np.zeros(nodes.shape, dtype=bool)
    inner[:, :quadrature.ORDER] = True
    return inner[keep]


def quadrature_nodes(law, singularities=(), eta=0.0):
    """``(nodes, weights, inner)`` with E[f(B)] = sum(weights * f(nodes)).

    Atoms are nodes weighted by their mass.  Each density piece is covered
    by the graded pattern between its ends and the ``singularities``
    clipped into it; ``inner`` marks the innermost graded panels.  ``eta``
    is the growth exponent of f, which sets how far an unbounded piece
    reaches."""
    parts = []
    atoms = law.support().atoms
    if atoms:
        locs, masses = np.array(atoms, dtype=float).T
        parts.append((locs, masses, np.zeros(len(atoms), dtype=bool)))
    for lo, hi, pdf in density_pieces(law, eta):
        breaks = sorted({lo, hi, *(min(max(s, lo), hi) for s in singularities)})
        nodes, weights = quadrature.panel_nodes(breaks)
        parts.append((nodes, weights * pdf(nodes), innermost(breaks)))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(p) for p in zip(*parts))


def expect(law, integrand, singularities=(), eta=0.0):
    """E[integrand(B)] as the node set's weighted sum over its weights' total.

    ``integrand`` maps an array of gains to an array (or a constant).
    ``singularities`` lists the locations of any integrable blow-ups of
    the integrand (logarithmic, or power law with exponent > -1), and
    ``eta`` its growth exponent at large |b|.  Raises
    :class:`NonIntegrable` when the innermost graded panels carry more
    than ``FAIL_REL * max(1, |total|)``, or the sum is NaN.
    """
    nodes, weights, inner = quadrature_nodes(law, singularities, eta)
    terms = weights * integrand(nodes)
    total, tail = float(terms.sum()), float(abs(terms[inner]).sum())
    if not tail <= FAIL_REL * max(1.0, abs(total)):
        raise NonIntegrable(f"innermost panels carry {tail!r} of {total!r}; "
                            "divergent integrand or misdeclared singularity")
    return total / float(weights.sum())
