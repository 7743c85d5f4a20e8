"""Finite weighted point clouds standing in for a metric measure space.

A space is a list of points with strictly positive weights (the measure),
a metric given either by coordinates (Euclidean) or by an explicit
symmetric matrix, a mesh scale ``resolution`` and a ``scale_floor`` below
which no analysis radius is accepted.  All ball semantics are closed:
``y`` belongs to ``B_r(x)`` iff ``d(x, y) <= r``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ._lattice import _LATTICE_ROWS, _ball_counts, _box_table, _budget, _indices, _lattice_of, _run_rows
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


def _distinct(a) -> np.ndarray:
    """``np.unique(a)`` of integer or finite float input, bit for bit, from
    one sort; the plain ``np.unique`` imports ``numpy.ma`` (1.3 MB)."""
    a = np.sort(np.asarray(a), axis=None)
    return a[np.append(True, a[1:] != a[:-1])[: a.size]]


def _in_sorted(a, s: np.ndarray) -> np.ndarray:
    """``np.isin(a, s)`` for sorted distinct s (all False if s is empty),
    by binary search."""
    return s[np.minimum(np.searchsorted(s, a), s.size - 1)] == a if s.size else np.zeros(np.shape(a), dtype=bool)


def _pairwise_sums(w: np.ndarray, indptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per CSR row, ``np.sum(w[row])`` bit for bit: the rows of one length
    form a 2-d array, whose ``.sum(axis=1)`` reduces each contiguous row
    with the pairwise loop ``np.sum`` runs on that row alone."""
    lengths = np.diff(indptr)
    out = np.zeros(lengths.size)
    for n in _distinct(lengths).tolist():
        rows = np.flatnonzero(lengths == n)
        out[rows] = w[ids[indptr[rows, None] + np.arange(n)]].sum(axis=1)
    return out


def _kd_tree(points: np.ndarray, **kwargs):
    """A ``scipy.spatial.cKDTree`` of the points; scipy.spatial (0.5 s and
    38 MB at import, with scipy.sparse and scipy.linalg) is loaded here.
    One per ``SubsetNeighbors`` (the whole cloud is one) and per block of
    its KD rows, a net's covering radius or a porosity scale.  A full grid
    reads integer stencils instead, except at ambiguous radii, for vector
    centres, more than ``_lattice._MAX_BOXES`` boxes and holes of a mesh cell."""
    from scipy.spatial import cKDTree

    return cKDTree(points, **kwargs)


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
        self._lattice = None if self.coords is None else _lattice_of(self.coords, self.weights, self.resolution)
        # at most 8 distinct weight values (one for uniform weights, boundary
        # cell corrections on a grid): masses count points per value
        distinct = _distinct(self.weights if self._lattice is None else self._lattice[1])
        self._weight_classes = distinct if distinct.size <= 8 else None
        self._class_layers = None   # per weight value, the shared layer of its points
        self._mass_cache: dict[float, tuple] = {}
        # shared ball layer per subset (``_neighbors.subset_neighbors``), keyed
        # by the bytes of the sorted subset ids; the whole cloud's is ``_layer``
        self._neighbors: dict[bytes, object] = {}
        self._layer = None
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

    def check_ids(self, ids) -> np.ndarray:
        """``check_id`` of every id in an array: the ids as int64."""
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids[(ids < 0) | (ids >= self.n)]
        if bad.size:
            raise InvalidPoint(f"point id {bad.flat[0]} out of range [0, {self.n})")
        return ids

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

    def _cloud(self):
        """The whole cloud as a ``SubsetNeighbors``, built on first use: its
        rows are the point-id balls, and its KD tree the cloud's."""
        if self._layer is None:
            from ._neighbors import SubsetNeighbors   # that module imports this one

            self._layer = SubsetNeighbors(weakref.proxy(self), self.ids)
        return self._layer

    def _grid_budget(self, r: float) -> Optional[int]:
        """The lattice budget of r; None off a lattice or at an ambiguous r."""
        return None if self._lattice is None else _budget(r, self._lattice[0], self.dim)

    def _grid_counts(self, centres: np.ndarray, q: int) -> np.ndarray:
        """Per point id, the grid points of budget q by boundary class, (k, d + 1) int64."""
        m = self._lattice[0]
        return np.concatenate([_ball_counts(_indices(at, m, self.dim), np.full(at.size, q, dtype=np.int64), m)
                               for at in np.split(centres, range(_LATTICE_ROWS, centres.size, _LATTICE_ROWS))])

    def members(self, center: Center, radius: float) -> np.ndarray:
        """Sorted ids of the closed ball B_radius(center)."""
        if radius < 0:
            raise InvalidScale("radius must be >= 0")
        vec = self._center_vector(center)
        if vec is None:
            return next(self.member_blocks([center], radius))[2]
        if self.coords is None:
            raise ParameterError("vector centers need a coordinate metric")
        return np.sort(np.asarray(self._cloud()._kd().query_ball_point(vec, _pad(radius)), dtype=int))

    def ball_mass(self, center: Center, radius: float) -> float:
        m = self.members(center, radius)
        return float(np.sum(self.weights[m]))

    def ball_masses(self, centres, radius: float) -> np.ndarray:
        """mu(B_radius(x)) per point id x in centres, bit for bit as
        ``ball_mass`` sums it, one block of ``member_blocks`` at a time."""
        return np.concatenate([np.zeros(0)] + [mass for *_, mass in self.member_blocks(centres, radius)])

    def member_blocks(self, centres, radius: float):
        """The closed balls B_radius(x) around the point ids x in centres,
        in blocks of about ``PAIR_BLOCK`` ids: ``(at, indptr, ids, masses)``
        for centres[at], a slice; CSR row a (int64) holds the sorted ids of
        a ball as ``members`` lists them, masses[a] its mass bit for bit as
        ``ball_mass`` sums it.  The rows are the whole cloud's
        ``SubsetNeighbors.rows_of``."""
        if radius < 0:
            raise InvalidScale("radius must be >= 0")
        centres = self.check_ids(centres).reshape(-1)
        for lo, hi, (indptr, ids) in self._cloud().rows_of(centres, radius):
            ids = ids.astype(np.int64)
            yield slice(lo, hi), indptr, ids, _pairwise_sums(self.weights, indptr, ids)

    def masses_at_radius(self, radius: float, ids=None) -> np.ndarray:
        """mu(B_radius(x)) for every point x, or for the point ids given, in
        a new array.  The one cache entry per radius, ``(known, masses)``,
        holds the sorted ids counted so far and their masses, or
        ``(None, masses)`` by id once every id is counted; a call counts
        only the ids it misses."""
        key = float(radius)
        known, masses = self._mass_cache.get(key, (np.zeros(0, dtype=np.int64), np.zeros(0)))
        centres = self.ids if ids is None else self.check_ids(ids)
        todo = np.zeros(0, dtype=np.int64) if known is None else _distinct(centres)
        todo = todo[~_in_sorted(todo, known)] if todo.size else todo
        if todo.size:
            at = np.searchsorted(known, todo)
            known, masses = np.insert(known, at, todo), np.insert(masses, at, self._count_masses(todo, radius))
            known = None if known.size == self.n else known
        self._mass_cache[key] = known, masses
        return masses[centres if known is None else np.searchsorted(known, centres)]

    def _count_masses(self, centres: np.ndarray, radius: float) -> np.ndarray:
        """The masses of ``masses_at_radius``: per ball the sum over its
        members that ``ball_mass`` takes, for more than 8 weight values or
        several on at most 512 points; else, per weight value v ascending,
        v times the count of points of weight v, from the lattice class
        counts at an unambiguous budget or from the class's own
        ``SubsetNeighbors`` (for uniform weights the whole cloud's), looked
        up once per space."""
        from ._neighbors import subset_neighbors   # that module imports this one

        classes = self._weight_classes
        if classes is None or (classes.size > 1 and self.n <= 512):
            return self.ball_masses(centres, radius)
        q = self._grid_budget(_pad(radius))
        if q is not None:
            counts = self._grid_counts(centres, q)
            return sum(v * counts[:, self._lattice[1] == v].sum(axis=1) for v in classes.tolist())
        if self._class_layers is None:
            self._class_layers = [subset_neighbors(self, np.flatnonzero(self.weights == v)) for v in classes.tolist()]
        return sum(v * layer.counts_of(centres, radius) for v, layer in zip(classes.tolist(), self._class_layers))


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
    ids = _distinct(space.check_ids(list(subset_ids)))
    if ids.size == 0:
        raise EmptySet("cannot build a net of an empty subset")
    sep = 2.0 ** (-int(k))
    if sep < space.scale_floor - _EPS:
        raise ResolutionError(
            f"net scale 2^-{k} = {sep} below scale_floor {space.scale_floor}"
        )
    chosen = _greedy_net(space, ids, sep)
    covering = None
    q = space._grid_budget(math.nextafter(sep * (1 - _EPS), 0))
    if maximal and q is not None:
        # the scan left no id without a chosen point in its stencil of budget q
        net, covering = np.zeros(space.n, dtype=bool), 0.0
        net[chosen] = True
        for at, (indptr, near) in space._cloud()._stencil_blocks(ids, q, None, False):
            row = np.repeat(at, np.diff(indptr))[net[near]]
            d = np.sqrt(((space.coords[ids[row]] - space.coords[near[net[near]]]) ** 2).sum(axis=1))
            covering = max(covering, float(np.minimum.reduceat(d, np.searchsorted(row, at)).max()))
    elif maximal:
        if space.coords is None:
            step = max(1, (1 << 20) // len(chosen))
            covering = max(float(space.dist_matrix[np.ix_(ids[lo : lo + step], chosen)].min(axis=1).max())
                           for lo in range(0, ids.size, step))
        else:
            covering = float(_kd_tree(space.coords[chosen]).query(space.coords[ids])[0].max())
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
    closer than sep * (1 - _EPS) to it, read off the grid's stencil on a
    lattice, else from the subset's KD tree or a matrix column."""
    from ._neighbors import subset_neighbors   # that module imports this one

    r = math.nextafter(sep * (1 - _EPS), 0)
    q = space._grid_budget(r)
    blocked = np.zeros(ids.size, dtype=bool)
    tree = None if space.coords is None or q is not None else subset_neighbors(space, ids)._kd()
    grid = None if q is None else space._cloud()._boxes[0]
    chosen = []
    for a, i in enumerate(ids):
        if blocked[a]:
            continue
        chosen.append(int(i))
        if q is not None:
            near = _run_rows(*_box_table(_indices(ids[a : a + 1], space._lattice[0], space.dim), q, grid))[1]
            at = np.minimum(np.searchsorted(ids, near), ids.size - 1)
            blocked[at[ids[at] == near]] = True
        elif tree is None:
            blocked |= space.dist_matrix[ids, i] < sep * (1 - _EPS)
        else:
            blocked[tree.query_ball_point(space.coords[i], r)] = True
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
    centers = _distinct(np.linspace(0, space.n - 1, max_centers).astype(int))
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
