"""Verifiers for codimensional regularity and porosity of subsets.

A piece is a subset of the cloud with a codimension ``theta`` and a
discrete weight vector standing in for the restricted codimensional
measure.  The two-sided regularity check compares weight sums over balls
against mu(B_r)/r^theta; the lower content check replaces the weight sum
with a set-cover content; the porosity scan searches for empty holes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._neighbors import PAIR_BLOCK, csr_rows, subset_neighbors
from .content import _by_centre, _greedy_cover, _pool_radii
from .errors import EmptySet, InvalidGrid, InvalidParameter, ResolutionError
from .space import _EPS, FiniteMetricMeasureSpace, _distinct, _kd_tree, _pad, dyadic_radii


@dataclass
class SubsetPiece:
    """One Ahlfors-David regular piece: ids, codimension, weights."""

    ids: np.ndarray
    theta: float
    weights: np.ndarray
    adr_constants: Optional[tuple] = None  # (kappa1, kappa2) once verified
    label: str = ""

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=int)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.ids.size == 0:
            raise EmptySet("piece must be nonempty")
        if self.ids.size != self.weights.size:
            raise InvalidParameter("ids/weights length mismatch")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise InvalidParameter("piece weights must be finite and strictly positive")
        if not 0 <= self.theta < math.inf:
            raise InvalidParameter(f"piece codimension must be finite and >= 0, got {self.theta}")
        order = np.argsort(self.ids)
        self.ids = self.ids[order]
        self.weights = self.weights[order]
        if self.ids[0] < 0:
            raise InvalidParameter(f"negative point id {self.ids[0]}")
        repeated = self.ids[1:][np.diff(self.ids) == 0]
        if repeated.size:
            raise InvalidParameter(f"point id {repeated[0]} given more than once")


@dataclass
class PiecewiseSet:
    """Ordered union of pieces with strictly increasing codimensions."""

    pieces: list
    theta_S: float = field(init=False)
    union_ids: np.ndarray = field(init=False)
    N: int = field(init=False)

    def __post_init__(self):
        thetas = [p.theta for p in self.pieces]
        if len(thetas) == 0:
            raise InvalidParameter("need at least one piece")
        if any(b <= a for a, b in zip(thetas, thetas[1:])):
            raise InvalidParameter(f"piece codimensions must be strictly increasing, got {thetas}")
        self.theta_S = float(thetas[-1])
        self.union_ids = _distinct(np.concatenate([p.ids for p in self.pieces]))
        self.N = len(self.pieces)


@dataclass
class PorosityReport:
    sigma: float
    r_grid: list
    porous_points_per_scale: list   # bool mask over the subset, per scale
    is_porous: bool

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "r": list(map(float, self.r_grid)),
            "porous_fraction": [float(np.mean(m)) for m in self.porous_points_per_scale],
            "ok": bool(self.is_porous),
        }


def default_r_grid(space: FiniteMetricMeasureSpace, top: float = 1.0) -> list:
    """Dyadic scales from ``top`` down to 4*scale_floor."""
    return dyadic_radii(top, 4.0 * space.scale_floor) or [float(top)]


def check_adr(
    space: FiniteMetricMeasureSpace,
    piece: SubsetPiece,
    r_grid: Sequence[float],
    max_ratio: Optional[float] = None,
):
    """Two-sided regularity constants of a piece over centers x in the
    piece and radii in r_grid.

    Returns ``(kappa1, kappa2, ok)`` where kappa1/kappa2 are the extremes
    of weight(B cap S) * r^theta / mu(B_r(x)).  Since the center itself
    always carries positive weight, kappa1 cannot vanish exactly on a
    finite cloud; pass ``max_ratio`` to flag pieces whose two-sided spread
    kappa2/kappa1 exceeds it (e.g. sets with gaps) as not regular.
    """
    r_grid = list(r_grid)
    if not r_grid:
        raise InvalidGrid("r_grid must be nonempty")
    nbrs = subset_neighbors(space, piece.ids)
    lo, hi = np.inf, 0.0
    for r in r_grid:
        ratios = nbrs.ball_sums(piece.ids, r, piece.weights[None])[0] * r**piece.theta / space.masses_at_radius(r, piece.ids)
        lo = min(lo, float(np.min(ratios)))
        hi = max(hi, float(np.max(ratios)))
    ok = bool(np.isfinite(hi) and lo > 0)
    if ok and max_ratio is not None:
        ok = bool(hi / lo <= max_ratio)
    piece.adr_constants = (float(lo), float(hi))
    return float(lo), float(hi), ok


def check_lcr(
    space: FiniteMetricMeasureSpace,
    subset_ids,
    theta: float,
    r_grid: Sequence[float],
) -> float:
    """Lower content regularity constant: min over (x, r) of
    content(B_r(x) cap S; delta=r) * r^theta / mu(B_r(x)), each content the
    greedy cover ``hausdorff_content`` finds.  The local candidate pools
    share the subset's sweeps (built once per call) and ball masses per pool
    radius: a local cover is the centre's row of a sweep restricted to B_r(x)."""
    r_grid = list(r_grid)
    if not r_grid:
        raise InvalidGrid("r_grid must be nonempty")
    if theta < 0:
        raise InvalidParameter("theta must be >= 0")
    subset_ids = _distinct(np.asarray(subset_ids, dtype=int))
    nbrs = subset_neighbors(space, subset_ids)
    weights = {}   # per pool radius, the cover weight of each subset point's ball
    sweeps = {}    # per radius, the subset's sweep
    lam = np.inf
    for r in r_grid:
        if r <= space.scale_floor:
            raise ResolutionError(f"delta {r} must exceed scale_floor {space.scale_floor}")
        radii = _pool_radii(space, r)
        for rp in radii:
            if rp not in weights:
                weights[rp] = space.ball_masses(subset_ids, rp) / rp**theta
        for rad in {r, *radii} - sweeps.keys():
            sweeps[rad] = nbrs._sweep(subset_ids, rad)
        (indptr, indices), values = sweeps[r], {}   # per local set (its positions' bytes), its cover's value
        for a, mass in enumerate(space.masses_at_radius(r, subset_ids)):
            local = indices[indptr[a] : indptr[a + 1]]
            if (key := local.tobytes()) not in values:
                covers = _by_centre([_restricted(sweeps[rp], local) for rp in radii])
                values[key] = _greedy_cover(local.size, covers, _by_centre([weights[rp][local].tolist() for rp in radii]))[1]
            lam = min(lam, values[key] * r**theta / mass)
    return float(lam)


def _restricted(csr, local: np.ndarray) -> list:
    """The rows of csr, a sweep of a subset, at the sorted positions local,
    each restricted to local, as positions into local."""
    indptr, indices = csr
    lengths = indptr[local + 1] - indptr[local]
    ends = np.concatenate(([0], np.cumsum(lengths)))
    cols = indices[np.repeat(indptr[local] - ends[:-1], lengths) + np.arange(ends[-1])]
    where = np.full(indptr.size - 1, -1)
    where[local] = np.arange(local.size)
    at = where[cols]
    # per row, its kept columns end where the running count of kept ones stands
    kept = np.concatenate(([0], np.cumsum(at >= 0)))
    return csr_rows(kept[ends], at[at >= 0])


def porosity_scan(
    space: FiniteMetricMeasureSpace,
    subset_ids,
    sigma: float,
    r_grid: Sequence[float],
) -> PorosityReport:
    """Per-scale porosity masks: a center x passes at scale r when some
    ball of radius sigma*r inside B_r(x) misses the subset.

    Hole emptiness is tested with the hole radius reduced by one mesh
    cell, which keeps boundary sampling from producing false negatives.
    So x passes when B_((1-sigma)r)(x) holds a point farther than that from
    the subset: one nearest-point query per scale to those far points.  On
    a full grid with a hole under one mesh cell the far points are the
    grid points off the subset, so x passes when its ball holds more grid
    points than subset points, both counted from stencils.
    """
    if not (0 < sigma <= 1):
        raise InvalidParameter(f"sigma must lie in (0, 1], got {sigma}")
    r_grid = list(r_grid)
    if not r_grid:
        raise InvalidGrid("r_grid must be nonempty")
    nbrs = subset_neighbors(space, subset_ids)
    key = (float(sigma), tuple(map(float, r_grid)))
    if key not in nbrs.porosity_masks:
        holes = [max(sigma * r - space.resolution, 0.0) + _EPS for r in r_grid]
        d_to_s = None
        masks = []
        for r, hole in zip(r_grid, holes):
            reach = (1.0 - sigma) * r
            q = space._grid_budget(_pad(reach))
            if q is not None and space._grid_budget(hole) == 0:
                mask = space._grid_counts(nbrs.ids, q).sum(axis=1) > nbrs.counts_of(nbrs.ids, reach)
            else:
                if d_to_s is None:
                    # distance from every space point to the subset; past twice the
                    # largest hole radius it may read inf, which compares the same
                    step = max(1, PAIR_BLOCK // nbrs.ids.size)   # matrix rows per chunk
                    d_to_s = (np.concatenate([space.dist_matrix[lo : lo + step, nbrs.ids].min(axis=1)
                                              for lo in range(0, space.n, step)]) if space.coords is None
                              else nbrs._kd().query(space.coords, distance_upper_bound=2.0 * max(holes))[0])
                far = np.flatnonzero(d_to_s > hole)
                if space.coords is None:
                    mask = np.concatenate([near.any(axis=1) for _, near in nbrs._within(nbrs.ids, reach, far)])
                else:
                    # a tree for one query: a quick build beats a balanced one
                    far_tree = _kd_tree(space.coords[far], balanced_tree=False, compact_nodes=False)
                    mask = far_tree.query(space.coords[nbrs.ids])[0] <= _pad(reach)
            # read-only: every scan of this subset, sigma and grid shares it
            mask.flags.writeable = False
            masks.append(mask)
        nbrs.porosity_masks[key] = masks
    masks = nbrs.porosity_masks[key]
    is_porous = bool(all(m.all() for m in masks))
    return PorosityReport(sigma=float(sigma), r_grid=r_grid, porous_points_per_scale=list(masks), is_porous=is_porous)


def compose_piecewise(pieces: Sequence[SubsetPiece]) -> PiecewiseSet:
    """Bundle verified (or explicitly unverified) pieces into a set with
    theta(S) = theta_N."""
    return PiecewiseSet(pieces=list(pieces))


def porosity_product_sigma(sigmas: Sequence[float]) -> float:
    """Porosity constant of a union from per-piece constants: prod 2*sigma_i/3."""
    sigmas = list(sigmas)
    if not sigmas:
        raise InvalidParameter("need at least one sigma")
    if any(not (0 < s <= 1) for s in sigmas):
        raise InvalidParameter("each sigma must lie in (0, 1]")
    out = 1.0
    for s in sigmas:
        out *= 2.0 * s / 3.0
    return out

