"""Codimensional Hausdorff contents and measures via weighted set cover.

The content of a target set at codimension theta and scale delta is the
cheapest cover by balls of radius < delta, where a ball of radius r costs
mu(B)/r^theta.  The candidate pool is restricted to balls centered at
target points with dyadic radii in [scale_floor, delta); the infimum over
arbitrary centers differs from this restricted one by at most a
doubling-constant factor.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._neighbors import SubsetNeighbors, csr_rows
from .errors import InvalidParameter, MissingMetadata, MMTraceError, ResolutionError
from .space import Ball, FiniteMetricMeasureSpace, _distinct, dyadic_radii

EXACT_CANDIDATE_LIMIT = 24


@dataclass
class ContentQuery:
    target: np.ndarray            # point ids of E
    theta: float
    delta: float
    method: str = "greedy"        # greedy | exact | both

    def __post_init__(self):
        self.target = _distinct(np.asarray(self.target, dtype=int))
        if self.theta < 0:
            raise InvalidParameter("theta must be >= 0")
        if self.method not in ("greedy", "exact", "both"):
            raise InvalidParameter(f"unknown method {self.method!r}")


@dataclass
class CoverSolution:
    balls: list
    value: float
    method_used: str
    optimality_gap: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "balls": [{"center": int(b.center), "radius": float(b.radius)} for b in self.balls],
            "method": self.method_used,
            "gap": self.optimality_gap,
        }


def _pool_radii(space, delta: float) -> list:
    """Dyadic candidate radii in [scale_floor, delta), increasing."""
    top = min(delta * (1 - 1e-9), 4.0 * max(space.diameter, space.scale_floor))
    # powers of two in [scale_floor, top], from the largest one <= top
    radii = sorted(dyadic_radii(2.0 ** (math.frexp(top)[1] - 1), space.scale_floor))
    if not radii and space.scale_floor < delta:
        radii = [space.scale_floor]
    return radii


def _candidate_pool(space, target: np.ndarray, theta: float, delta: float):
    """Dyadic-radius balls centered at the (sorted) target points, in
    (centre, radius) order, with member positions into the target and
    their cover weights mu(B)/r^theta, mu(B) as ``space.ball_mass`` sums
    it: one sweep and one ``ball_masses`` per radius."""
    radii = _pool_radii(space, delta)
    # a throwaway layer: one-off targets would pile up in space._neighbors
    nbrs = SubsetNeighbors(space, target)
    covers = [csr_rows(*nbrs._sweep(target, r)) for r in radii]
    weights = [(space.ball_masses(target, r) / r**theta).tolist() for r in radii]
    return [Ball(int(c), r) for c in target for r in radii], _by_centre(covers), _by_centre(weights)


def _by_centre(per_radius: list) -> list:
    """Per-radius lists over the centres, flattened in (centre, radius) order."""
    return [x for at_centre in zip(*per_radius) for x in at_centre]


def _greedy_cover(n_target: int, covers, weights):
    """Lazy greedy (Minoux): a heap of (weight/gain, index, gain).  Scores
    only rise as coverage grows, so the first top whose gain is current is
    the first minimizer a full scan in (center, radius) order would take.
    Each cover lists distinct target positions, so a pick of current gain g
    leaves g fewer targets uncovered."""
    uncovered = np.ones(n_target, dtype=bool)
    left = n_target
    heap = [(w / cov.size, i, cov.size) for i, (cov, w) in enumerate(zip(covers, weights)) if cov.size]
    heapq.heapify(heap)
    chosen = []
    total = 0.0
    while left:
        if not heap:
            raise InvalidParameter("candidate pool cannot cover the target")
        _, i, gain = heapq.heappop(heap)
        now = int(np.count_nonzero(uncovered[covers[i]]))
        if now != gain:
            if now:
                heapq.heappush(heap, (weights[i] / now, i, now))
            continue
        chosen.append(i)
        total += weights[i]
        uncovered[covers[i]] = False
        left -= now
    return chosen, total


def _zero_one_program(c, sets, n_rows: int, lb, ub):
    """The x in {0, 1}^m minimising c.x subject to lb <= A x <= ub, where
    column j of the n_rows x m matrix A is the indicator of the row ids
    ``sets[j]``; the chosen j in increasing order, or None if no x is
    feasible.  Solved by HiGHS through ``scipy.optimize.milp`` with
    mip_rel_gap 0.  HiGHS prunes within an absolute 1e-6 that milp does
    not expose, so the costs go in divided by 1e-7 of the smallest nonzero
    |c_j|, which finds the optimum to 1e-13 of that cost; the divisor is at
    least 1e-16 of the largest |c_j|, keeping scaled costs below 1e16 (HiGHS
    takes 1e20 as infinite).  Among tied optima the choice is HiGHS's."""
    # imported for an exact program only: scipy.optimize alone takes 0.2 s and 9 MB
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_array

    c = np.asarray(c, dtype=float)
    if c.size == 0:
        return [] if np.all(np.asarray(lb) <= 0) else None
    nonzero = np.abs(c[c != 0])
    scale = max(1e-7 * nonzero.min(), 1e-16 * nonzero.max()) if nonzero.size else 1.0
    indptr = np.cumsum([0] + [len(s) for s in sets])
    A = csc_array((np.ones(indptr[-1]), np.concatenate(sets).astype(int), indptr), shape=(n_rows, c.size))
    res = milp(c / scale, integrality=np.ones(c.size), bounds=Bounds(0, 1),
               constraints=LinearConstraint(A, lb, ub), options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return None
    if res.status != 0:
        raise MMTraceError(f"HiGHS found no optimum: {res.message}")
    return [int(j) for j in np.flatnonzero(res.x > 0.5)]


def _exact_cover(n_target: int, covers, weights):
    """The cheapest cover as a 0-1 program, chosen indices in pool order."""
    chosen = _zero_one_program(weights, covers, n_target, 1, np.inf)
    if chosen is None:
        raise InvalidParameter("candidate pool cannot cover the target")
    return chosen, float(sum(weights[i] for i in chosen))


def hausdorff_content(space: FiniteMetricMeasureSpace, query: ContentQuery) -> CoverSolution:
    """Approximate codimension-theta Hausdorff content at scale delta.

    Greedy picks the ball minimizing cost per newly covered point; the
    exact method solves the cover as a 0-1 program with HiGHS when the pool
    has at most ``EXACT_CANDIDATE_LIMIT`` candidates, returning its balls in
    pool order (of tied optima, the one HiGHS picks); the tests hold its
    value to a subset enumeration at rel 1e-12, near ties included.
    ``both`` returns the greedy cover with its gap against the optimum.
    """
    if query.delta <= space.scale_floor:
        raise ResolutionError(
            f"delta {query.delta} must exceed scale_floor {space.scale_floor}"
        )
    target = query.target
    if target.size == 0:
        return CoverSolution(balls=[], value=0.0, method_used=query.method, optimality_gap=0.0)
    balls, covers, weights = _candidate_pool(space, target, query.theta, query.delta)
    method = query.method
    if method in ("exact", "both") and len(balls) > EXACT_CANDIDATE_LIMIT:
        raise InvalidParameter(
            f"exact cover limited to {EXACT_CANDIDATE_LIMIT} candidates, pool has {len(balls)}"
        )
    if method == "exact":
        chosen, value = _exact_cover(target.size, covers, weights)
        return CoverSolution([balls[i] for i in chosen], value, "exact", 0.0)
    chosen, value = _greedy_cover(target.size, covers, weights)
    gap = None
    if method == "both":
        exact_value = min(_exact_cover(target.size, covers, weights)[1], value)
        gap = (value - exact_value) / exact_value if exact_value > 0 else 0.0
    return CoverSolution([balls[i] for i in chosen], value, method, gap)


@dataclass
class MeasureTrace:
    value: float
    deltas: list
    values: list
    stabilized: bool


def hausdorff_measure(
    space: FiniteMetricMeasureSpace,
    target,
    theta: float,
    method: str = "greedy",
) -> MeasureTrace:
    """Content evaluated along delta = 1, 1/2, ... down to 2*scale_floor.

    Returns the last value with the whole trace; flags non-stabilization
    when the final two values differ by more than 5% relative.
    """
    target = _distinct(np.asarray(target, dtype=int))
    if target.size == 0:
        return MeasureTrace(0.0, [], [], True)
    deltas = dyadic_radii(1.0, 2.0 * space.scale_floor)
    values = [hausdorff_content(space, ContentQuery(target, theta, d, method)).value for d in deltas]
    if not values:
        raise ResolutionError("no delta scale above 2*scale_floor")
    stabilized = True
    if len(values) >= 2 and values[-1] > 0:
        stabilized = abs(values[-1] - values[-2]) / values[-1] <= 0.05
    return MeasureTrace(values[-1], deltas, values, stabilized)


def piece_measure_weights(
    space: FiniteMetricMeasureSpace,
    target,
    theta: float,
    mode: str = "content",
    cell_elements: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Discrete weight vector standing in for the restricted codimensional
    measure on the target.

    ``analytic`` uses generator-supplied cell elements (length/area per
    point); ``content`` assigns each point the content of its own cell in
    the target (a singleton on the sample cloud) at delta = 2*scale_floor.
    """
    target = np.asarray(target, dtype=int)
    if mode == "analytic":
        if cell_elements is None:
            raise MissingMetadata("analytic mode needs generator cell elements")
        w = np.asarray(cell_elements, dtype=float)
        if w.shape != target.shape:
            raise InvalidParameter("cell_elements must align with target")
        return w
    if mode != "content":
        raise InvalidParameter(f"unknown mode {mode!r}")
    # a singleton's greedy cover is its cheapest candidate ball
    radii = _pool_radii(space, 2.0 * space.scale_floor)
    return np.min([space.ball_masses(target, r) / r**theta for r in radii], axis=0)
