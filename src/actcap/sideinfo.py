"""Capacities when the controller observes which cell of a partition the
gain fell into, and the per-bit value of that side information.

The control gain d may depend on the revealed cell.  For the expected-log
sense the conditional capacities combine linearly; for the eta sense the
expectation of the per-cell minima sits inside a single log, so the
aggregate is NOT the probability-weighted average of per-cell capacities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityResult, _unit, eta_capacity, shannon_capacity
from .distributions import ActuationDistribution, EmptyCell

__all__ = [
    "MAX_BITS",
    "SideCell",
    "SideInfoCapacityResult",
    "SideInformationModel",
    "UnboundedSupport",
    "eta_capacity_with_si",
    "model_from_boundaries",
    "shannon_capacity_with_si",
    "si_value_curve",
    "uniform_bit_partition",
]

INF = float("inf")

_PROB_TOL = 1e-10
_CONSISTENCY_TOL = 1e-7  # in the base law's power-of-two unit
MAX_BITS = 20


class UnboundedSupport(ValueError):
    """Equal-width partitioning is undefined on an unbounded support."""


@dataclass(frozen=True)
class SideCell:
    label: str
    probability: float
    conditional: ActuationDistribution


@dataclass(frozen=True)
class SideInformationModel:
    """Finite partition of the gain law: cell probabilities + conditionals."""

    cells: tuple[SideCell, ...]

    def __post_init__(self):
        if not self.cells:
            raise ValueError("side-information model needs at least one cell")
        if any(c.probability <= 0.0 for c in self.cells):
            raise ValueError("every cell must have positive probability")
        total = sum(c.probability for c in self.cells)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"cell probabilities sum to {total}, expected 1")

    def validate_against(self, base: ActuationDistribution):
        """Check the mixture of conditionals reproduces the base mean/variance.

        Both are compared in the base law's power-of-two unit (the one the
        capacity search uses), so rescaling the law by 2^k moves nothing."""
        unit = _unit(base)
        mean = sum(c.probability * (c.conditional.moments()[0] / unit)
                   for c in self.cells)
        second = sum(c.probability * (c.conditional.moments()[2] / unit / unit)
                     for c in self.cells)
        bmean, bvar, _ = base.moments()
        if (abs(mean - bmean / unit) > _CONSISTENCY_TOL
                or abs(second - mean * mean - bvar / unit / unit) > _CONSISTENCY_TOL):
            raise ValueError(
                "partition inconsistent with the base law: "
                f"mean {mean * unit} vs {bmean}, "
                f"var {(second - mean * mean) * unit * unit} vs {bvar}"
            )


@dataclass(frozen=True)
class SideInfoCapacityResult:
    value_bits: float
    sense: str
    eta: float | None
    per_cell: tuple[CapacityResult, ...]


def uniform_bit_partition(dist: ActuationDistribution,
                          k_bits: int) -> SideInformationModel:
    """Split the support into 2^k equal-width cells (empty cells dropped)."""
    if not 0 <= k_bits <= MAX_BITS:
        raise ValueError(f"k_bits must be in [0, {MAX_BITS}], got {k_bits}")
    info = dist.support()
    if not info.is_bounded:
        raise UnboundedSupport("equal-width cells need bounded support")
    n = 1 << k_bits
    width = (info.upper - info.lower) / n
    edges = [info.lower + i * width for i in range(n)] + [info.upper]
    return model_from_boundaries(dist, edges)


def model_from_boundaries(dist: ActuationDistribution, edges) -> SideInformationModel:
    """Cells [e0,e1), ..., [e_{n-1}, e_n] from an increasing boundary list."""
    edges = [float(e) for e in edges]
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError("cell boundaries must be strictly increasing")
    cells = []
    last = len(edges) - 2
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        try:
            prob, cond = dist.restrict(lo, hi, include_upper=(i == last))
        except EmptyCell:
            continue
        cells.append(SideCell(f"[{lo:g},{hi:g})", prob, cond))
    if not cells:
        raise EmptyCell("no cell carries positive probability")
    model = SideInformationModel(tuple(cells))
    model.validate_against(dist)
    return model


def shannon_capacity_with_si(model: SideInformationModel):
    """Probability-weighted expected-log capacity with cell-dependent d."""
    per_cell = tuple(shannon_capacity(c.conditional) for c in model.cells)
    if any(math.isinf(r.value_bits) for r in per_cell):
        value = INF
    else:
        value = sum(
            c.probability * r.value_bits for c, r in zip(model.cells, per_cell)
        )
    return SideInfoCapacityResult(value, "shannon", None, per_cell)


def eta_capacity_with_si(model: SideInformationModel, eta: float):
    """-(1/eta) log2 E[min_d E[|1+B d(T)|^eta | T]].

    The cell-conditional minima are 2^(-eta * C_eta(cell)); their weighted
    sum goes through one log, so this generally exceeds the weighted average
    of per-cell capacities only through Jensen's inequality, not equality.
    """
    if eta is None or not eta > 0:
        raise ValueError(f"the eta sense needs a positive eta, got {eta}")
    per_cell = tuple(eta_capacity(c.conditional, eta) for c in model.cells)
    # log2 of each weighted minimum; an infinite capacity (minimum exactly 0)
    # reads -inf, and summing in log2 keeps 2^(-eta C) from underflowing
    terms = [math.log2(c.probability) - eta * r.value_bits
             for c, r in zip(model.cells, per_cell)]
    value = -float(np.logaddexp2.reduce(terms)) / eta
    return SideInfoCapacityResult(value, "eta", eta, per_cell)


def si_value_curve(dist: ActuationDistribution, k_max: int, sense="shannon",
                   eta: float | None = None):
    """Capacity at k = 0..k_max partition bits; checked nondecreasing in k."""
    if not 0 <= k_max <= MAX_BITS:
        raise ValueError(f"k_max must be in [0, {MAX_BITS}], got {k_max}")
    points = []
    for k in range(k_max + 1):
        model = uniform_bit_partition(dist, k)
        if sense == "shannon":
            value = shannon_capacity_with_si(model).value_bits
        elif sense == "eta":
            value = eta_capacity_with_si(model, eta).value_bits
        else:
            raise ValueError(f"unknown sense {sense!r}")
        points.append((k, value))
    for (_, c0), (k1, c1) in zip(points, points[1:]):
        if c1 < c0 - 1e-7:
            raise RuntimeError(
                f"side information hurt capacity at k={k1}: {c0} -> {c1}"
            )
    return points
