"""The ball layer: which subset points lie within r of each subset point,
and the weighted per-ball statistics every scale sweep takes over them.

Balls are closed and padded against round-off like ``space.members``.  A
sweep at one radius is a CSR (compressed sparse row, as in scipy.sparse)
pair ``(indptr, indices)``: row a, ``indices[indptr[a]:indptr[a + 1]]``,
holds the int32 positions into the sorted subset ids of the ball around
subset point a, in increasing order.  The kernels reduce rows in blocks of
at most ``PAIR_BLOCK`` stored pairs, which bounds their temporaries.
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.spatial import cKDTree

from .space import _EPS, FiniteMetricMeasureSpace

PAIR_BLOCK = 1 << 15


def _pad(radius: float) -> float:
    return radius * (1 + _EPS) + _EPS


class SubsetNeighbors:
    """Ball membership restricted to a fixed subset of the cloud; positions
    returned by all queries index into the sorted ``ids`` array.  Obtain
    instances through ``subset_neighbors`` to share them per space."""

    def __init__(self, space: FiniteMetricMeasureSpace, ids):
        self.space = space
        self.ids = np.unique(np.asarray(ids, dtype=int))
        self._tree = None
        if space.coords is not None:
            self._tree = cKDTree(space.coords[self.ids])
        self._lists_cache: dict[float, tuple] = {}

    def members_of(self, center, radius: float) -> np.ndarray:
        """Positions (into ids) of subset points within radius of center,
        where center is a space point id or a coordinate vector."""
        r = _pad(radius)
        if self._tree is not None:
            vec = self.space._center_vector(center)
            idx = self._tree.query_ball_point(self.space.coords[int(center)] if vec is None else vec, r)
            return np.sort(np.asarray(idx, dtype=int))
        d = self.space.distances_from(center)[self.ids]
        return np.flatnonzero(d <= r)

    def counts_of(self, centres, radius: float) -> np.ndarray:
        """Per space point id in centres: the number of subset points within radius."""
        if self._tree is None:
            return np.count_nonzero(self.space.dist_matrix[np.ix_(centres, self.ids)] <= _pad(radius), axis=1)
        return self._tree.query_ball_point(self.space.coords[centres], _pad(radius), return_length=True)

    def rows_of(self, centres, radius: float):
        """Uncached CSR rows of the radius-balls around the space point ids
        in centres, restricted to the subset, in blocks of about PAIR_BLOCK
        pairs: yields ``(lo, hi, (indptr, indices))`` for centres[lo:hi]."""
        centres = np.asarray(centres, dtype=int)
        n, r = self.ids.size, _pad(radius)
        for lo, hi in _blocks(np.concatenate(([0], np.cumsum(self.counts_of(centres, radius))))):
            if self._tree is None:
                keys = np.flatnonzero(self.space.dist_matrix[np.ix_(centres[lo:hi], self.ids)] <= r)
            else:
                block = cKDTree(self.space.coords[centres[lo:hi]])
                found = block.sparse_distance_matrix(self._tree, r, output_type="ndarray")
                keys = np.sort(found["i"] * n + found["j"])
            indptr = np.searchsorted(keys, np.arange(hi - lo + 1, dtype=np.int64) * n)
            yield lo, hi, (indptr, (keys % n).astype(np.int32))

    def self_lists(self, radius: float) -> tuple:
        """CSR ``(indptr, indices)`` of the radius-balls around every subset
        point, restricted to the subset; cached per radius."""
        key = float(radius)
        if key not in self._lists_cache:
            self._lists_cache[key] = self._build(_pad(radius))
        return self._lists_cache[key]

    def _build(self, r: float) -> tuple:
        # one sorted int64 key row * n + col per stored pair
        n = self.ids.size
        if self._tree is None:
            keys = np.flatnonzero(self.space.dist_matrix[np.ix_(self.ids, self.ids)] <= r)
        else:
            # both orders of every pair i < j, plus the diagonal
            pairs = self._tree.query_pairs(r, output_type="ndarray")
            m = pairs.shape[0]
            keys = np.empty(2 * m + n, dtype=np.int64)
            keys[:m] = pairs @ np.array([n, 1])
            keys[m : 2 * m] = pairs @ np.array([1, n])
            del pairs
            keys[2 * m :] = np.arange(n, dtype=np.int64) * (n + 1)
            keys.sort()
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(keys, n, out=keys)
        return indptr, keys.astype(np.int32)

    def cross_pairs(self, other: "SubsetNeighbors", radius: float):
        """Position pairs (into self.ids, other.ids) at distance <= radius,
        sorted by (self position, other position)."""
        r = _pad(radius)
        if self._tree is None:
            return np.nonzero(self.space.dist_matrix[np.ix_(self.ids, other.ids)] <= r)
        found = self._tree.sparse_distance_matrix(other._tree, r, output_type="ndarray")
        keys = np.sort(found["i"] * other.ids.size + found["j"])
        return keys // other.ids.size, keys % other.ids.size


def subset_neighbors(space: FiniteMetricMeasureSpace, ids) -> SubsetNeighbors:
    """The space's shared ``SubsetNeighbors`` of a subset, keyed by its ids;
    it refers to the space weakly (no reference cycle through the cache),
    so it is usable while the space lives."""
    ids = np.unique(np.asarray(ids, dtype=int))
    key = ids.tobytes()
    if key not in space._neighbors:
        space._neighbors[key] = SubsetNeighbors(weakref.proxy(space), ids)
    return space._neighbors[key]


# -- per-row kernels ------------------------------------------------------


def _blocks(indptr: np.ndarray):
    """Row ranges [lo, hi) holding at most PAIR_BLOCK pairs each; a longer
    row forms a block of its own."""
    n_rows, lo = indptr.size - 1, 0
    while lo < n_rows:
        hi = int(np.searchsorted(indptr, indptr[lo] + PAIR_BLOCK, side="right")) - 1
        hi = min(max(hi, lo + 1), n_rows)
        yield lo, hi
        lo = hi


def _rows(csr):
    """Per block of rows lo..hi-1: (lo, hi, pair positions, local row
    starts, row lengths)."""
    indptr, indices = csr
    for lo, hi in _blocks(indptr):
        yield lo, hi, indices[indptr[lo] : indptr[hi]], indptr[lo:hi] - indptr[lo], np.diff(indptr[lo : hi + 1])


def _sorted_rows(csr, g: np.ndarray):
    """``_rows`` with each row in value order of g, ties by position as a
    stable argsort of the row gives, from one sort of int64 keys
    (local row) * n + (value rank); yields the keys and sorted positions."""
    by_rank = np.argsort(g, kind="stable")
    rank = np.empty(g.size, dtype=np.int64)
    rank[by_rank] = np.arange(g.size)
    for lo, hi, cols, starts, lengths in _rows(csr):
        keys = np.repeat(np.arange(hi - lo, dtype=np.int64) * g.size, lengths) + rank[cols]
        keys.sort()
        yield lo, hi, keys, by_rank[keys % g.size], starts, lengths


def _row_reduce(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row sums of x.  ``np.add.reduceat`` returns the next element for
    an empty row, so those are zeroed; the appended 0 keeps starts in range."""
    out = np.add.reduceat(np.append(x, 0.0), starts)
    out[lengths == 0] = 0.0
    return out


def row_sums(csr, w: np.ndarray) -> np.ndarray:
    """Per row: the sum of w over the ball (its mass for a weight vector)."""
    out = np.empty(csr[0].size - 1)
    for lo, hi, cols, starts, lengths in _rows(csr):
        out[lo:hi] = _row_reduce(w[cols], starts, lengths)
    return out


def centred_means(csr, w: np.ndarray, g: np.ndarray, fn) -> np.ndarray:
    """Per row a: sum_b w_b fn(g_b - g_a) / sum_b w_b over the ball."""
    out = np.empty(csr[0].size - 1)
    for lo, hi, cols, starts, lengths in _rows(csr):
        wb = w[cols]
        d = fn(g[cols] - np.repeat(g[lo:hi], lengths))
        out[lo:hi] = _row_reduce(wb * d, starts, lengths) / _row_reduce(wb, starts, lengths)
    return out


def row_deviations(csr, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per row: the best-constant deviation inf_c sum_b w_b |g_b - c| /
    sum_b w_b, taken at the weighted median ``weighted_stats`` takes (zero
    for a zero-mass ball)."""
    out = np.zeros(csr[0].size - 1)
    for lo, hi, _, pos, starts, lengths in _sorted_rows(csr, g):
        v, ww = g[pos], w[pos]
        mass = _row_reduce(ww, starts, lengths)
        cum = np.cumsum(ww)
        in_row = cum - np.repeat(np.concatenate(([0.0], cum))[starts], lengths)
        below = _row_reduce(in_row < np.repeat(mass / 2.0, lengths), starts, lengths)
        # an empty row (a centre off the subset) reads the appended 0
        median = np.append(v, 0.0)[starts + np.minimum(below.astype(np.int64), lengths - 1)]
        dev = _row_reduce(ww * np.abs(v - np.repeat(median, lengths)), starts, lengths)
        np.divide(dev, mass, out=out[lo:hi], where=mass > 0)
    return out


def pair_abs_diffs(csr_a, wa, ga, csr_b, wb, gb, ia, ib) -> np.ndarray:
    """Per pair t: the sum over x in row ia[t] of csr_a and y in row ib[t]
    of csr_b of wa[x] wb[y] |ga[x] - gb[y]|, from value-sorted rows of
    csr_a with in-row prefix sums of w and w*g (the sorted-ball cache)."""
    indptr, n = csr_a[0], ga.size
    keys = np.empty(csr_a[1].size, dtype=np.int64)
    # row a holds 0 and its prefix sums at indptr[a] + a .. indptr[a + 1] + a
    cw = np.empty(keys.size + indptr.size - 1)
    cwg = np.empty_like(cw)
    for lo, hi, k, pos, starts, lengths in _sorted_rows(csr_a, ga):
        keys[indptr[lo] : indptr[hi]] = k + lo * n
        slot = np.arange(k.size + hi - lo) - np.repeat(np.arange(hi - lo), lengths + 1)
        for dst, x in ((cw, wa[pos]), (cwg, wa[pos] * ga[pos])):
            cum = np.concatenate(([0.0], np.cumsum(x)))
            dst[indptr[lo] + lo : indptr[hi] + hi] = cum[slot] - np.repeat(cum[starts], lengths + 1)
    g_sorted = np.sort(ga)
    indptr_b, indices_b = csr_b
    lengths_b = np.diff(indptr_b)[ib]
    out = np.empty(ia.size)
    for lo, hi in _blocks(np.concatenate(([0], np.cumsum(lengths_b)))):
        lengths = lengths_b[lo:hi]
        starts = np.cumsum(lengths) - lengths
        y = indices_b[np.repeat(indptr_b[ib[lo:hi]] - starts, lengths) + np.arange(lengths.sum())]
        a, gy = np.repeat(ia[lo:hi], lengths), gb[y]
        # row a's members with value <= gy are the keys below (a, rank q)
        le = np.searchsorted(keys, a * n + np.searchsorted(g_sorted, gy, side="right")) + a
        tot = indptr[a + 1] + a
        w_le, s_le, w_tot, s_tot = cw[le], cwg[le], cw[tot], cwg[tot]
        per_y = gy * w_le - s_le + (s_tot - s_le) - gy * (w_tot - w_le)
        out[lo:hi] = _row_reduce(wb[y] * per_y, starts, lengths)
    return out
