"""Finite weighted point clouds standing in for a metric measure space.

A space is a list of points with strictly positive weights (the measure),
a metric given either by coordinates (Euclidean) or by an explicit
symmetric matrix, a mesh scale ``resolution`` and a ``scale_floor`` below
which no analysis radius is accepted.  All ball semantics are closed:
``y`` belongs to ``B_r(x)`` iff ``d(x, y) <= r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    EmptySet,
    InsufficientData,
    InvalidPoint,
    InvalidScale,
    ParameterError,
    ResolutionError,
)

Center = Union[int, np.integer, Sequence[float], np.ndarray]

# Tolerance used when asserting exact invariants that are only subject to
# float round-off (net separation, closed-ball boundaries).
_EPS = 1e-12


def _pad(radius: float) -> float:
    """The closed-ball radius padded against float round-off."""
    return radius * (1 + _EPS) + _EPS


@dataclass(frozen=True)
class Ball:
    """Closed ball; ``center`` is a point id or a coordinate vector."""

    center: Center
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise InvalidScale(f"ball radius must be >= 0, got {self.radius}")


@dataclass
class SeparatedNet:
    """A 2^-k separated subset with its index labels."""

    scale_k: int
    points: np.ndarray          # point ids, in construction order
    index_set: np.ndarray       # alpha labels 0..len-1
    separation: float
    covering_radius: Optional[float] = None
    maximal: bool = False


@dataclass
class DecayReport:
    """Fitted relative volume decay orders of the measure."""

    Q_est: float
    q_est: float
    fit_constants: dict
    residuals: float
    n_pairs: int
    central_slope: float


class FiniteMetricMeasureSpace:
    """Weighted point cloud with a metric oracle.

    Args:
        weights: strictly positive mass per point.
        coords: optional (n, dim) array; induces the Euclidean metric and
            allows spatial indexing.
        dist_matrix: optional (n, n) symmetric matrix; used when no
            coordinates are given.  Intended for instances up to ~2e4
            points.
        resolution: mesh scale h of the discretization.
        c_res: scale-floor multiplier; scale_floor = c_res * h >= h.
    """

    def __init__(
        self,
        weights: np.ndarray,
        coords: Optional[np.ndarray] = None,
        dist_matrix: Optional[np.ndarray] = None,
        resolution: float = 1.0,
        c_res: float = 1.0,
        validate: bool = True,
    ):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ParameterError("weights must be a nonempty 1-d array")
        self.n = self.weights.size
        self.coords = None if coords is None else np.asarray(coords, dtype=float)
        self.dist_matrix = None if dist_matrix is None else np.asarray(dist_matrix, dtype=float)
        if self.coords is None and self.dist_matrix is None:
            raise ParameterError("need coords or dist_matrix")
        if resolution <= 0:
            raise ParameterError("resolution must be positive")
        if c_res < 1.0:
            raise ParameterError("c_res must be >= 1 so that scale_floor >= resolution")
        self.resolution = float(resolution)
        self.scale_floor = float(c_res * resolution)
        if self.coords is not None:
            if self.coords.shape[0] != self.n:
                raise ParameterError("coords/weights length mismatch")
            # what cKDTree rejects, checked here since trees are built lazily
            if self.coords.ndim != 2 or self.coords.shape[1] == 0:
                raise ValueError("coords must be of shape (n, dim) with dim >= 1")
            if not (math.isfinite(self.coords.min()) and math.isfinite(self.coords.max())):
                raise ValueError("coords must be finite")
        # KD trees are built on first use (``_cloud_tree``): lattice spaces
        # count ball masses without them
        self._tree = None
        self._class_trees = None
        self._uniform_weight = float(self.weights[0]) if np.all(self.weights == self.weights[0]) else None
        self._lattice = None if self.coords is None else _lattice_of(self.coords, self.weights, self.resolution, self._uniform_weight)
        # few distinct weight values (e.g. boundary cell corrections): count
        # per class instead of summing per ball
        self._weight_classes = None
        if self.coords is not None and self._uniform_weight is None and self.n > 512:
            distinct = np.unique(self.weights if self._lattice is None else self._lattice[1])
            if distinct.size <= 8:
                self._weight_classes = distinct
        self._mass_cache: dict[float, np.ndarray] = {}
        # shared ball layer per subset (``_neighbors.subset_neighbors``),
        # keyed by the bytes of the sorted subset ids
        self._neighbors: dict[bytes, object] = {}
        self._diameter: Optional[float] = None
        if validate:
            self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self):
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ParameterError("all weights must be strictly positive and finite")
        if self.dist_matrix is not None:
            m = self.dist_matrix
            if m.shape != (self.n, self.n):
                raise ParameterError("dist_matrix must be n x n")
            if np.any(np.diagonal(m) != 0):
                raise ParameterError("metric must vanish on the diagonal")
            # every entry, in blocks of rows and square tiles: no n x n temporary
            step = max(1, (1 << 20) // self.n)
            for lo in range(0, self.n, step):
                if np.any(m[lo : lo + step] < 0):
                    raise ParameterError("metric must be nonnegative")
                # the diagonal holds one zero per row
                if np.count_nonzero(m[lo : lo + step] == 0) > m[lo : lo + step].shape[0]:
                    raise ParameterError("metric must be zero exactly on the diagonal")
            for lo in range(0, self.n, 256):
                for c0 in range(lo, self.n, 256):
                    if not np.all(np.abs(m[lo : lo + 256, c0 : c0 + 256] - m[c0 : c0 + 256, lo : lo + 256].T) <= 1e-12):
                        raise ParameterError("metric must be symmetric")

    # -- basic queries ---------------------------------------------------

    @property
    def ids(self) -> np.ndarray:
        return np.arange(self.n)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def dim(self) -> int:
        return 0 if self.coords is None else self.coords.shape[1]

    def check_id(self, i) -> int:
        i = int(i)
        if i < 0 or i >= self.n:
            raise InvalidPoint(f"point id {i} out of range [0, {self.n})")
        return i

    def _center_vector(self, center: Center) -> Optional[np.ndarray]:
        if isinstance(center, (int, np.integer)):
            return None
        return np.asarray(center, dtype=float)

    def distances_from(self, center: Center) -> np.ndarray:
        """Distances from a center (id or vector) to every point."""
        vec = self._center_vector(center)
        if vec is None:
            i = self.check_id(center)
            if self.dist_matrix is not None:
                return self.dist_matrix[i]
            diff = self.coords - self.coords[i]
            return np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if self.coords is None:
            raise ParameterError("vector centers need a coordinate metric")
        diff = self.coords - vec
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def distance(self, i: int, j: int) -> float:
        i, j = self.check_id(i), self.check_id(j)
        if self.dist_matrix is not None:
            return float(self.dist_matrix[i, j])
        return float(np.linalg.norm(self.coords[i] - self.coords[j]))

    @property
    def diameter(self) -> float:
        """Exact for matrix metrics and small clouds; otherwise the
        bounding-box diagonal (an upper bound, tight enough for range
        checks)."""
        if self._diameter is None:
            if self.dist_matrix is not None:
                self._diameter = float(np.max(self.dist_matrix))
            elif self.n <= 4096:
                d = 0.0
                for i in range(self.n):
                    d = max(d, float(np.max(self.distances_from(i))))
                self._diameter = d
            else:
                span = self.coords.max(axis=0) - self.coords.min(axis=0)
                self._diameter = float(np.linalg.norm(span))
        return self._diameter

    def _cloud_tree(self) -> cKDTree:
        """The KD tree of the whole cloud, built on first use."""
        if self._tree is None:
            self._tree = cKDTree(self.coords)
        return self._tree

    def members(self, center: Center, radius: float) -> np.ndarray:
        """Sorted ids of the closed ball B_radius(center)."""
        if radius < 0:
            raise InvalidScale("radius must be >= 0")
        vec = self._center_vector(center)
        if self.coords is not None:
            query = self.coords[self.check_id(center)] if vec is None else vec
            idx = self._cloud_tree().query_ball_point(query, _pad(radius))
            return np.sort(np.asarray(idx, dtype=int))
        dists = self.distances_from(center)
        return np.flatnonzero(dists <= _pad(radius))

    def ball_mass(self, center: Center, radius: float) -> float:
        m = self.members(center, radius)
        return float(np.sum(self.weights[m]))

    def masses_at_radius(self, radius: float, ids=None) -> np.ndarray:
        """mu(B_radius(x)) for every point x, or for the point ids given; the
        one cache entry per radius (NaN where not yet asked for) is filled
        only at the centres a call misses."""
        key = float(radius)
        if key not in self._mass_cache:
            self._mass_cache[key] = np.full(self.n, np.nan)
        masses = self._mass_cache[key]
        centres = self.ids if ids is None else np.asarray(ids, dtype=int)
        todo = np.unique(centres[np.isnan(masses[centres])])
        if todo.size:
            masses[todo] = self._count_masses(todo, _pad(radius))
        return masses if ids is None else masses[centres]

    def _count_masses(self, centres: np.ndarray, r: float) -> np.ndarray:
        if self.coords is None:
            # a row-wise sum: a BLAS matrix product rounds a row differently
            # depending on how many rows one call holds
            return np.where(self.dist_matrix[centres] <= r, self.weights, 0.0).sum(axis=1)
        counts = self._lattice_counts(centres, r)
        if counts is not None:
            if self._uniform_weight is not None:
                return counts.sum(axis=1) * self._uniform_weight
            # the KD class sum below, over the same integers in the same order
            per_class = self._lattice[1]
            return sum(v * counts[:, per_class == v].sum(axis=1) for v in self._weight_classes.tolist())
        q = self.coords[centres]
        tree = self._cloud_tree()
        # counting is order-free, so parallel workers stay deterministic
        if self._uniform_weight is not None:
            return tree.query_ball_point(q, r, return_length=True, workers=-1) * self._uniform_weight
        if self._weight_classes is not None:
            if self._class_trees is None:
                self._class_trees = [cKDTree(self.coords[self.weights == v]) for v in self._weight_classes]
            return sum(v * t.query_ball_point(q, r, return_length=True, workers=-1)
                       for v, t in zip(self._weight_classes.tolist(), self._class_trees))
        return np.array([float(np.sum(self.weights[np.asarray(ix, dtype=int)])) for ix in tree.query_ball_point(q, r)])

    def _lattice_counts(self, centres: np.ndarray, r: float) -> Optional[np.ndarray]:
        """Per centre, the lattice points within r by their number of
        boundary coordinates, (k, dim + 1) integers; None where the KD count
        must run instead: no lattice, the per-member sum of small clouds, or
        a radius whose ball boundary passes within round-off of a lattice
        point, where only the KD tree's own float comparison gives its
        answer."""
        if self._lattice is None or (self._uniform_weight is None and self._weight_classes is None):
            return None
        m, d = self._lattice[0], self.dim
        t = (r * m) ** 2
        full = d * m * m
        if not t >= 0:
            return None
        if t >= full + 1:
            q = full
        else:
            q = math.floor(t)
            # float distances to lattice points carry a relative error of a
            # few 1e-16 plus an absolute one from the coordinates' rounding
            if min(t - q, q + 1 - t) <= 1e-13 * t + 1e-14 * m * math.sqrt(d * t):
                return None
        out = np.empty((centres.size, d + 1), dtype=np.int64)
        for lo in range(0, centres.size, _LATTICE_ROWS):
            at = centres[lo : lo + _LATTICE_ROWS]
            idx = np.stack(np.unravel_index(at, (m + 1,) * d), axis=1).astype(np.int64)
            out[lo : lo + at.size] = _ball_counts(idx, np.full(at.size, q, dtype=np.int64), m)
        return out


# -- lattice ball counts ---------------------------------------------------

# rows per block of centres and per table of inner counts
_LATTICE_ROWS = 1 << 14


def _lattice_of(coords: np.ndarray, weights: np.ndarray, h: float, uniform: Optional[float]):
    """``(m, weight per number of boundary coordinates)`` when the cloud is
    the full grid {0, 1/m, ..., 1}^dim in 'ij' order with m = round(1/h),
    coordinates i/m exactly as ``build_grid_space`` makes them, and the
    weights uniform or one value per number of coordinates equal to 0 or 1;
    None otherwise.  Reads the cloud in blocks of ids, never a whole n x dim
    temporary."""
    n, d = coords.shape
    if not 1.0 / h <= n:   # also rejects 1/h = inf
        return None
    m = int(round(1.0 / h))
    if m < 1 or (m + 1) ** d != n:
        return None
    axis = np.arange(m + 1) / m
    edge = np.zeros(m + 1, dtype=np.int64)
    edge[[0, m]] = 1
    if uniform is not None:
        per_class = np.full(d + 1, uniform)
    else:
        # a point with c boundary coordinates, the rest (if any) interior
        if m < 2:
            return None
        probes = [np.ravel_multi_index((0,) * c + (1,) * (d - c), (m + 1,) * d) for c in range(d + 1)]
        per_class = weights[probes]
    for lo in range(0, n, _LATTICE_ROWS):
        ids = np.arange(lo, min(lo + _LATTICE_ROWS, n))
        bound = np.zeros(ids.size, dtype=np.int64)
        for a in range(d):
            i = ids // (m + 1) ** (d - 1 - a) % (m + 1)
            if not np.array_equal(coords[lo : lo + ids.size, a], axis[i]):
                return None
            bound += edge[i]
        if uniform is None and not np.array_equal(weights[lo : lo + ids.size], per_class[bound]):
            return None
    return m, per_class


def _isqrt(s: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(s)) of nonnegative integers."""
    r = np.sqrt(s.astype(float)).astype(np.int64)
    r -= r * r > s
    r += (r + 1) * (r + 1) <= s
    return r


def _ball_counts(idx: np.ndarray, s: np.ndarray, m: int) -> np.ndarray:
    """Per row of idx (lattice indices in 0..m, one column per axis) and
    integer budget s: the lattice points j in {0..m}^d with |j - idx|^2 <= s,
    split by how many of their coordinates are 0 or m; (k, d + 1) int64.

    One axis is peeled off: an offset e along it leaves the budget s - e^2
    to the other d - 1 axes, whose counts come from one recursive call per
    distinct (projection, budget) and offset |e| <= R.  Prefix sums over
    |e| give a row's sum over its offset range in O(1) gathers, and the two
    offsets that land on index 0 or m move their points up one class.  In
    one dimension the count is a clipped interval."""
    k, d = idx.shape
    s = np.maximum(s, -1)
    out = np.zeros((k, d + 1), dtype=np.int64)
    if d == 1:
        reach = _isqrt(np.maximum(s, 0))
        lo, hi = np.maximum(idx[:, 0] - reach, 0), np.minimum(idx[:, 0] + reach, m)
        ends = (lo == 0).astype(np.int64) + (hi == m)
        live = s >= 0
        out[:, 0] = (hi - lo + 1 - ends) * live
        out[:, 1] = ends * live
        return out
    top = int(s.max())
    if top < 0:
        return out
    R = min(math.isqrt(top), m)
    # peel the axis whose projections leave the fewest distinct rows
    peeled = []
    for a in range(d):
        key = np.ravel_multi_index(np.delete(idx, a, axis=1).T, (m + 1,) * (d - 1)) * (top + 2) + (s + 1)
        peeled.append((a, *np.unique(key, return_index=True, return_inverse=True)[1:]))
    a, first, inv = min(peeled, key=lambda p: p[1].size)
    proj, budget = np.delete(idx[first], a, axis=1), s[first]
    i0 = idx[:, a]
    down, up = np.minimum(i0, R), np.minimum(m - i0, R)
    e2 = np.arange(R + 1, dtype=np.int64) ** 2
    group = max(1, _LATTICE_ROWS // (R + 1))
    order = np.argsort(inv, kind="stable")
    cuts = np.searchsorted(inv[order], np.arange(0, first.size + group, group))
    for g, u0 in enumerate(range(0, first.size, group)):
        rows = order[cuts[g] : cuts[g + 1]]
        u1 = min(u0 + group, first.size)
        inner = _ball_counts(np.repeat(proj[u0:u1], R + 1, axis=0), (budget[u0:u1, None] - e2).ravel(), m)
        inner = inner.reshape(u1 - u0, R + 1, d)
        prefix = np.cumsum(inner, axis=1)
        u = inv[rows] - u0
        total = prefix[u, down[rows]] + prefix[u, up[rows]] - inner[u, 0]
        edges = inner[u, down[rows]] * (i0[rows] <= R)[:, None] + inner[u, up[rows]] * (m - i0[rows] <= R)[:, None]
        out[rows, :d] = total - edges
        out[rows, 1:] += edges
    return out


# -- operations ----------------------------------------------------------


def ball_members(space: FiniteMetricMeasureSpace, ball: Ball) -> np.ndarray:
    """Point ids of the closed ball."""
    return space.members(ball.center, ball.radius)


def mu_ball(space: FiniteMetricMeasureSpace, ball: Ball) -> float:
    """Mass of the closed ball (deterministic fixed-order summation)."""
    return space.ball_mass(ball.center, ball.radius)


def separated_net(
    space: FiniteMetricMeasureSpace,
    subset_ids: Iterable[int],
    k: int,
    maximal: bool = True,
) -> SeparatedNet:
    """Greedy 2^-k separated net of a subset, seeded at the lowest id.

    Points are scanned in increasing id order and kept when at distance
    >= 2^-k from every point already kept; scanning the whole subset makes
    the result maximal (covering radius <= 2^-k) automatically.
    """
    ids = np.sort(np.asarray(list(subset_ids), dtype=int))
    if ids.size == 0:
        raise EmptySet("cannot build a net of an empty subset")
    sep = 2.0 ** (-int(k))
    if sep < space.scale_floor - _EPS:
        raise ResolutionError(
            f"net scale 2^-{k} = {sep} below scale_floor {space.scale_floor}"
        )
    chosen = _greedy_net(space, ids, sep)
    covering = None
    if maximal:
        if space.coords is None:
            step = max(1, (1 << 20) // len(chosen))
            covering = max(float(space.dist_matrix[np.ix_(ids[lo : lo + step], chosen)].min(axis=1).max())
                           for lo in range(0, ids.size, step))
        else:
            covering = float(cKDTree(space.coords[chosen]).query(space.coords[ids])[0].max())
    return SeparatedNet(
        scale_k=int(k),
        points=np.asarray(chosen, dtype=int),
        index_set=np.arange(len(chosen)),
        separation=sep,
        covering_radius=covering,
        maximal=maximal,
    )


def _greedy_net(space, ids: np.ndarray, sep: float) -> list:
    """One scan in id order: each kept point blocks the later points
    closer than sep * (1 - _EPS) to it."""
    blocked = np.zeros(ids.size, dtype=bool)
    tree = None if space.coords is None else cKDTree(space.coords[ids])
    chosen = []
    for a, i in enumerate(ids):
        if blocked[a]:
            continue
        chosen.append(int(i))
        if tree is None:
            blocked |= space.dist_matrix[ids, i] < sep * (1 - _EPS)
        else:
            blocked[tree.query_ball_point(space.coords[i], math.nextafter(sep * (1 - _EPS), 0))] = True
    return chosen


def covering_multiplicity(space: FiniteMetricMeasureSpace, balls: Sequence[Ball]) -> int:
    """Max number of the given balls containing a single point."""
    counts = np.zeros(space.n, dtype=int)
    for b in balls:
        np.add.at(counts, ball_members(space, b), 1)
    return int(counts.max()) if len(balls) else 0


def doubling_constant(space: FiniteMetricMeasureSpace, R: float):
    """Observed doubling constant sup mu(B_2r)/mu(B_r) over r in a dyadic
    grid of [scale_floor, R] and all centers.

    The grid is anchored at scale_floor (radii scale_floor * 2^j), so the
    scans for R1 <= R2 are nested and the constant is monotone in R.
    Returns ``(C_mu, argmax)`` where argmax is the attaining ``(point id, r)``.
    """
    radii = []
    r = space.scale_floor
    while r <= R * (1 + _EPS):
        radii.append(r)
        r *= 2.0
    if not radii:
        raise ResolutionError(f"no radius in [{space.scale_floor}, {R}]")
    best = 0.0
    arg = (0, radii[0])
    for r in radii:
        small = space.masses_at_radius(r)
        big = space.masses_at_radius(2 * r)
        ratios = big / small
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best = float(ratios[i])
            arg = (i, r)
    return best, arg


def dyadic_radii(top: float, floor: float) -> list:
    """top, top/2, top/4, ... down to the last radius >= floor - _EPS.

    Halving is exact in binary floating point, so every radius is
    top * 2^-j exactly.  A floor below 2 * _EPS stops at floor/2 instead.
    """
    if not (floor > 0):
        raise InvalidScale(f"radius floor must be positive, got {floor}")
    stop = max(floor - _EPS, 0.5 * floor)
    radii = []
    r = float(top)
    while r >= stop:
        radii.append(r)
        r /= 2.0
    return radii


def decay_exponents(
    space: FiniteMetricMeasureSpace,
    R: float,
    max_centers: int = 2048,
    min_pair_radius_factor: float = 4.0,
    interior_fraction: float = 0.9,
) -> DecayReport:
    """Fit the relative volume decay orders from nested same-center balls.

    Envelope estimates come from per-pair slopes
    ``log(mass ratio)/log(radius ratio)`` over adjacent dyadic radii,
    restricted to pairs whose outer ball carries at least
    ``interior_fraction`` of the heaviest ball at that radius (boundary
    truncation would otherwise masquerade as a smaller exponent).  Radii
    below ``min_pair_radius_factor * scale_floor`` are excluded: lattice
    noise dominates below a few mesh cells.  The fit constants are taken
    over the unrestricted pair set, where they absorb boundary factors.
    """
    radii = dyadic_radii(R, space.scale_floor)
    lo = min_pair_radius_factor * space.scale_floor
    usable = [r for r in radii if r >= lo - _EPS]
    if len(usable) < 2:
        usable = radii
    if len(usable) < 2:
        raise InsufficientData("need at least two radii for decay fitting")
    # every id when n <= max_centers, since the samples are then less than 1 apart
    centers = np.unique(np.linspace(0, space.n - 1, max_centers).astype(int))
    masses = {r: space.masses_at_radius(r, centers) for r in usable}

    slopes = []
    t_all, m_all = [], []
    for a in range(len(usable) - 1):
        r_big, r_small = usable[a], usable[a + 1]
        mb, ms = masses[r_big], masses[r_small]
        rr = math.log(r_small / r_big)
        ratio = np.log(ms / mb)
        t_all.append(np.full(ratio.size, rr))
        m_all.append(ratio)
        ok = mb >= interior_fraction * np.max(mb)
        if np.any(ok):
            slopes.append(ratio[ok] / rr)
    slopes = np.concatenate(slopes) if slopes else np.array([])
    if slopes.size < 10:
        raise InsufficientData(f"only {slopes.size} interior nested pairs, need >= 10")
    Q_est = float(np.quantile(slopes, 0.9))
    q_est = float(np.quantile(slopes, 0.1))
    central = float(np.mean(slopes))
    resid = float(np.std(slopes))
    ta, ma = np.concatenate(t_all), np.concatenate(m_all)
    C_Q = float(np.max(np.exp(Q_est * ta - ma)))
    C_q = float(np.max(np.exp(ma - q_est * ta)))
    return DecayReport(
        Q_est=Q_est,
        q_est=q_est,
        fit_constants={"C(R,Q)": C_Q, "C(R,q)": C_q},
        residuals=resid,
        n_pairs=int(slopes.size),
        central_slope=central,
    )


def k_of_r(r: float) -> int:
    """The unique integer k with 2^-(k+1) < r <= 2^-k."""
    if not (r > 0) or not math.isfinite(r):
        raise InvalidScale(f"r must be a positive finite real, got {r}")
    k = int(math.floor(-math.log2(r)))
    # exact boundary fix-up against log round-off
    while r > 2.0 ** (-k):
        k -= 1
    while r <= 2.0 ** (-k - 1):
        k += 1
    return k
