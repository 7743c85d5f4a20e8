"""The ball layer: which subset points lie within r of each subset point,
and the weighted per-ball statistics every scale sweep takes over them.

Balls are closed and padded against round-off like ``space.members``.  A
sweep at one radius is a CSR (compressed sparse row, as in scipy.sparse)
pair ``(indptr, indices)``: row a, ``indices[indptr[a]:indptr[a + 1]]``,
holds the int32 positions into the sorted subset ids of the ball around
subset point a, in increasing order.  One row builder (``rows_of``) makes
every pair list, the whole cloud's point-id balls too, and the kernels
reduce rows, both in blocks of at most ``PAIR_BLOCK`` stored pairs (matrix
metrics compare chunks of as many entries): their temporaries stay bounded.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from ._lattice import _box_counts, _box_rows, _boxes_of, _budget, _indices
from .space import FiniteMetricMeasureSpace, _kd_tree, _pad

# a block's float64 temporaries (64 KiB) stay below glibc's default 128 KiB
# mmap threshold, so successive blocks reuse heap pages, not fresh mappings
PAIR_BLOCK = 1 << 13
# on several boxes, sorted stencil keys are built per run of whole blocks of
# up to this many pairs: a box's stencil has a fixed cost per call, which
# blocks of a few long rows would pay once per box each
STENCIL_PAIRS = 1 << 16


class SubsetNeighbors:
    """Ball membership restricted to a fixed subset of the cloud; positions
    returned by all queries index into the sorted ``ids`` array.  Obtain
    instances through ``subset_neighbors`` to share them per space."""

    def __init__(self, space: FiniteMetricMeasureSpace, ids):
        self.space = space
        self.ids = np.unique(space.check_ids(ids))
        self._tree = None   # built on the first KD query (``_kd``)
        # on a full grid, the few disjoint boxes of lattice indices the ids fill, if any
        self._boxes = None if space._lattice is None else _boxes_of(self.ids, space._lattice[0], space.dim)
        self._lists_cache: dict[float, tuple] = {}
        self._sums_cache: dict[tuple, np.ndarray] = {}
        self.porosity_masks: dict[tuple, list] = {}  # porosity_scan's, per (sigma, r_grid)

    def _cached(self, centres: np.ndarray, radius: float):
        """The cached sweep at radius and the positions of centres in it;
        (None, None) unless it is cached and every centre is in the subset."""
        csr = self._lists_cache.get(float(radius))
        if csr is not None:
            pos = np.searchsorted(self.ids, centres)
            if np.all(pos < self.ids.size) and np.array_equal(self.ids[pos], centres):
                return csr, pos
        return None, None

    def _kd(self):
        """The subset's KD tree, built on first use."""
        if self._tree is None:
            self._tree = _kd_tree(self.space.coords if self.ids.size == self.space.n else self.space.coords[self.ids])
        return self._tree

    def _within(self, centres: np.ndarray, radius: float, cols=None):
        """Per chunk of centres (space point ids) of about PAIR_BLOCK matrix
        entries, at least one chunk: its offset and its rows of
        ``dist_matrix`` at cols (default the subset's ids) <= padded radius."""
        cols = self.ids if cols is None else cols
        step = max(1, PAIR_BLOCK // max(cols.size, 1))
        for lo in range(0, max(centres.size, 1), step):
            yield lo, self.space.dist_matrix[np.ix_(centres[lo : lo + step], cols)] <= _pad(radius)

    def _stencil_budget(self, radius: float):
        """The lattice budget of the padded radius on a union of boxes; None
        where the KD path answers (other subsets and clouds, ambiguous radii)."""
        if self._boxes is None:
            return None
        return _budget(_pad(radius), self.space._lattice[0], self.space.dim)

    def _stencil_blocks(self, centres: np.ndarray, q: int, rank, ptr: np.ndarray):
        """The blocks of ``rows_of`` (row bounds ptr) from the boxes'
        stencils.  A lone box builds each block's own rows, which come out
        sorted (ranked as a cached sweep's are).  On several boxes, as a KD
        block forms them, keys local row * n + union position (or its rank)
        are built and sorted once per run of whole blocks holding at most
        STENCIL_PAIRS pairs: sorted together, each block's keys come out as
        its own sort orders them."""
        idx, n = _indices(centres, self.space._lattice[0], self.space.dim), self.ids.size
        if len(self._boxes) == 1:
            for lo, hi in _blocks(ptr):
                indptr, cols = _box_rows(idx[lo:hi], q, self._boxes[0])
                if rank is not None:
                    cols = _ranked(cols, np.diff(indptr), rank) % n
                cols = cols.astype(np.int32)   # the int64 rows are freed before the yield
                yield lo, hi, (indptr, cols)
            return
        edges = np.array([0] + [hi for _, hi in _blocks(ptr)])
        for g0, g1 in _blocks(ptr[edges], STENCIL_PAIRS):
            lo, hi = int(edges[g0]), int(edges[g1])
            keys = []
            for box in self._boxes:
                indptr, cols = _box_rows(idx[lo:hi], q, box)
                cols = cols if box.at is None else box.at[cols]
                keys.append(np.repeat(np.arange(hi - lo, dtype=np.int64) * n, np.diff(indptr))
                            + (cols if rank is None else rank[cols]))
            keys = np.concatenate(keys)
            keys.sort()
            indptr = np.searchsorted(keys, np.arange(hi - lo + 1, dtype=np.int64) * n)
            cols = np.remainder(keys, n, out=keys).astype(np.int32)
            for b0, b1 in zip(edges[g0:g1].tolist(), edges[g0 + 1 : g1 + 1].tolist()):
                at = indptr[b0 - lo : b1 - lo + 1]
                yield b0, b1, (at - at[0], cols[at[0] : at[-1]])

    def counts_of(self, centres, radius: float) -> np.ndarray:
        """Per space point id in centres: the number of subset points within
        radius (the row lengths of the cached sweep, if it serves)."""
        centres = np.asarray(centres, dtype=int)
        csr, pos = self._cached(centres, radius)
        if csr is not None:
            return csr[0][pos + 1] - csr[0][pos]
        q = self._stencil_budget(radius)
        if q is not None:
            idx = _indices(centres, self.space._lattice[0], self.space.dim)
            return sum(_box_counts(idx, q, box) for box in self._boxes)
        if self.space.coords is None:
            return np.concatenate([np.count_nonzero(near, axis=1) for _, near in self._within(centres, radius)])
        # counting is order-free, so parallel workers stay deterministic
        return self._kd().query_ball_point(self.space.coords[centres], _pad(radius), return_length=True, workers=-1)

    def rows_of(self, centres, radius: float, counts=None, rank=None):
        """CSR rows of the radius-balls around the space point ids in
        centres, restricted to the subset, in blocks of about PAIR_BLOCK
        pairs: yields ``(lo, hi, (indptr, indices))`` for centres[lo:hi];
        ``counts`` are their ``counts_of``, if known.  With ``rank`` (a
        permutation of subset positions) a row lists rank[j] for j, sorted.
        Rows are gathered from the cached sweep if it serves, else built
        uncached: as integer stencils on a union of boxes, else by KD queries."""
        centres = np.asarray(centres, dtype=int)
        n, r = self.ids.size, _pad(radius)
        csr, pos = self._cached(centres, radius)
        if csr is not None:
            for lo, hi, cols, starts, lengths in _rows(csr, pos):
                if rank is not None:
                    cols = (_ranked(cols, lengths, rank) % n).astype(np.int32)
                yield lo, hi, (np.append(starts, cols.size), cols)
            return
        if counts is None:
            # counts only cut blocks (and skip empty KD rows): one centre is one block
            counts = self.counts_of(centres, radius) if centres.size > 1 else np.ones(centres.size, dtype=np.int64)
        ptr = np.concatenate(([0], np.cumsum(counts)))
        q = self._stencil_budget(radius)
        if q is not None:
            yield from self._stencil_blocks(centres, q, rank, ptr)
            return
        # column c of a matrix block is the position of rank c
        cols = self.ids if rank is None else self.ids[np.argsort(rank)]
        for lo, hi in _blocks(ptr):
            if self.space.coords is None:
                keys = np.concatenate([np.flatnonzero(near) + at * n
                                       for at, near in self._within(centres[lo:hi], radius, cols)])
            else:
                # the block's tree holds only the centres of non-empty rows
                rows = np.flatnonzero(counts[lo:hi])
                keys = np.zeros(0, dtype=np.int64)
                if rows.size:
                    block = _kd_tree(self.space.coords[centres[lo + rows]])
                    found = block.sparse_distance_matrix(self._kd(), r, output_type="ndarray")
                    keys = rows[found["i"]] * n
                    keys += found["j"] if rank is None else rank[found["j"]]
                    del found
                    keys.sort()
            indptr = np.searchsorted(keys, np.arange(hi - lo + 1, dtype=np.int64) * n)
            yield lo, hi, (indptr, np.remainder(keys, n, out=keys).astype(np.int32))

    def ball_sums(self, centres, radius: float, weights: np.ndarray) -> np.ndarray:
        """Per weight vector over the subset (a row of the 2-d ``weights``)
        and per space point id in centres: the sum of the weights within
        radius, as ``row_sums`` gives."""
        return self._per_ball(centres, radius, lambda rows: np.array([row_sums(rows, w) for w in weights]))

    def deviations_of(self, centres, radius: float, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per space point id in centres: the best-constant deviation of g
        against w (both over the subset) on its radius-ball, as
        ``row_deviations`` gives, from value-ranked rows sorted only once."""
        by_rank = np.argsort(g, kind="stable")
        w, g = w[by_rank], g[by_rank]
        return self._per_ball(centres, radius, lambda rows: _ranked_deviations(rows, w, g), np.argsort(by_rank))

    def _per_ball(self, centres, radius: float, reduce, rank=None) -> np.ndarray:
        """``reduce`` of the rows around centres; balls holding the whole
        subset share the reduction of one full row and are never built."""
        centres = np.asarray(centres, dtype=int)
        counts = self.counts_of(centres, radius)
        whole = counts == self.ids.size
        full = reduce((np.array([0, self.ids.size]), np.arange(self.ids.size, dtype=np.int32)))
        out = np.empty(full.shape[:-1] + centres.shape)
        out[..., whole] = full
        part = np.flatnonzero(~whole)
        for lo, hi, rows in self.rows_of(centres[part], radius, counts[part], rank):
            out[..., part[lo:hi]] = reduce(rows)
        return out

    def self_lists(self, radius: float) -> tuple:
        """CSR ``(indptr, indices)`` of the radius-balls around every subset
        point, restricted to the subset; cached per radius."""
        key = float(radius)
        if key not in self._lists_cache:
            self._lists_cache[key] = self._sweep(self.ids, radius)
        return self._lists_cache[key]

    def self_sums(self, radius: float, w: np.ndarray) -> np.ndarray:
        """``row_sums`` of ``self_lists(radius)`` for the weight vector w
        over the subset; cached per radius and the digest of w's bytes."""
        key = (float(radius), hashlib.blake2b(np.ascontiguousarray(w, dtype=float).tobytes(), digest_size=16).digest())
        if key not in self._sums_cache:
            sums = row_sums(self.self_lists(radius), w)
            sums.flags.writeable = False
            self._sums_cache[key] = sums
        return self._sums_cache[key]

    def _sweep(self, centres: np.ndarray, radius: float) -> tuple:
        """CSR of the radius-balls around centres, filled from ``rows_of``."""
        counts = self.counts_of(centres, radius)
        indptr = np.zeros(centres.size + 1, dtype=np.int64)
        indices = np.empty(int(counts.sum()), dtype=np.int32)
        for lo, hi, (ptr, cols) in self.rows_of(centres, radius, counts):
            indptr[lo + 1 : hi + 1] = indptr[lo] + ptr[1:]
            indices[indptr[lo] : indptr[hi]] = cols
        return indptr, indices[: indptr[-1]]

    def cross_pairs(self, other: "SubsetNeighbors", radius: float):
        """Position pairs (into self.ids, other.ids) at distance <= radius,
        sorted by (self position, other position)."""
        indptr, indices = other._sweep(self.ids, radius)
        return np.repeat(np.arange(self.ids.size), np.diff(indptr)), indices.astype(np.int64)


def subset_neighbors(space: FiniteMetricMeasureSpace, ids) -> SubsetNeighbors:
    """The space's shared ``SubsetNeighbors`` of a subset, keyed by its ids;
    it refers to the space weakly (no reference cycle through the cache),
    so it is usable while the space lives."""
    ids = np.asarray(ids, dtype=int)
    if np.any(ids[1:] <= ids[:-1]):   # ids of a piece or a weight value come sorted
        ids = np.unique(ids)
    if ids.size == space.n and ids[0] == 0 and ids[-1] == space.n - 1:
        return space._cloud()
    key = ids.tobytes()
    if key not in space._neighbors:
        space._neighbors[key] = SubsetNeighbors(weakref.proxy(space), ids)
    return space._neighbors[key]


# -- per-row kernels ------------------------------------------------------


def _blocks(indptr: np.ndarray, budget=None):
    """Row ranges [lo, hi) holding at most budget (default PAIR_BLOCK)
    pairs each; a longer row forms a block of its own."""
    n_rows, lo = indptr.size - 1, 0
    budget = PAIR_BLOCK if budget is None else budget
    while lo < n_rows:
        hi = int(np.searchsorted(indptr, indptr[lo] + budget, side="right")) - 1
        hi = min(max(hi, lo + 1), n_rows)
        yield lo, hi
        lo = hi


def csr_rows(indptr: np.ndarray, indices: np.ndarray) -> list:
    """The rows of a CSR pair as a list of views (``np.split`` without its
    per-row overhead)."""
    return [indices[a:b] for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]


def _rows(csr, rows=None):
    """Per block of rows lo..hi-1 of csr, or of the listed rows of csr:
    (lo, hi, pair positions, local row starts, row lengths)."""
    indptr, indices = csr
    if rows is None:
        for lo, hi in _blocks(indptr):
            yield lo, hi, indices[indptr[lo] : indptr[hi]], indptr[lo:hi] - indptr[lo], np.diff(indptr[lo : hi + 1])
        return
    first = indptr[rows]
    lengths = indptr[rows + 1] - first
    ends = np.concatenate(([0], np.cumsum(lengths)))
    for lo, hi in _blocks(ends):
        starts = ends[lo:hi] - ends[lo]
        at = np.repeat(first[lo:hi] - starts, lengths[lo:hi]) + np.arange(ends[hi] - ends[lo])
        yield lo, hi, indices[at], starts, lengths[lo:hi]


def _ranked(cols: np.ndarray, lengths: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Sorted int64 keys (local row) * n + rank[col]: per row, its ranks in
    increasing order."""
    keys = np.repeat(np.arange(lengths.size, dtype=np.int64) * rank.size, lengths) + rank[cols]
    keys.sort()
    return keys


def _row_reduce(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row sums of x, zero for an empty row.  Only non-empty rows are
    reduced, so each sums exactly its own elements and a row's value does
    not depend on which rows share its block."""
    out = np.zeros(lengths.size)
    out[lengths > 0] = np.add.reduceat(x, starts[lengths > 0], dtype=float)
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


def _best_devs(v, ww, starts, lengths, out) -> None:
    """The deviation core: into out, per row of value-sorted v with
    weights ww, sum_b ww_b |v_b - median| / mass at the weighted median
    ``weighted_stats`` takes (zero for a zero-mass row)."""
    mass = _row_reduce(ww, starts, lengths)
    cum = np.cumsum(ww)
    in_row = cum - np.repeat(np.concatenate(([0.0], cum))[starts], lengths)
    below = _row_reduce(in_row < np.repeat(mass / 2.0, lengths), starts, lengths)
    # an empty row (a centre off the subset) reads the appended 0
    median = np.append(v, 0.0)[starts + np.minimum(below.astype(np.int64), lengths - 1)]
    dev = _row_reduce(ww * np.abs(v - np.repeat(median, lengths)), starts, lengths)
    np.divide(dev, mass, out=out, where=mass > 0)


def row_deviations(csr, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per row: the best-constant deviation inf_c sum_b w_b |g_b - c| /
    sum_b w_b, taken at the weighted median ``weighted_stats`` takes (zero
    for a zero-mass ball)."""
    by_rank = np.argsort(g, kind="stable")
    rank = np.argsort(by_rank)
    out = np.zeros(csr[0].size - 1)
    for lo, hi, cols, starts, lengths in _rows(csr):
        # each row in value order, ties by position as a stable argsort gives
        pos = by_rank[_ranked(cols, lengths, rank) % g.size]
        _best_devs(g[pos], w[pos], starts, lengths, out[lo:hi])
    return out


def _ranked_deviations(csr, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``row_deviations`` of rows that already list value ranks in
    increasing order, with w and g given in rank order."""
    out = np.zeros(csr[0].size - 1)
    for lo, hi, cols, starts, lengths in _rows(csr):
        _best_devs(g[cols], w[cols], starts, lengths, out[lo:hi])
    return out


def pair_abs_diffs(csr_a, wa, ga, csr_b, wb, gb, ia, ib) -> np.ndarray:
    """Per pair t: the sum over x in row ia[t] of csr_a and y in row ib[t]
    of csr_b of wa[x] wb[y] |ga[x] - gb[y]|.  A table T[a, q], the sum over
    x in row a of wa[x] |ga[x] - u[q]| for u the sorted distinct values of
    gb, comes from per-(row, value bucket) sums of w and w*g accumulated
    along the buckets; pair t sums wb[y] T[a, bucket of gb[y]] over row
    ib[t].  T holds |unique(ia)| x |u| floats: cheap when gb takes few
    values (in gluing a segment on the canonical instances, 33 at h = 1/32)."""
    u, q = np.unique(gb, return_inverse=True)
    # g_x <= u[q] exactly when t[x] <= q
    t = np.searchsorted(u, ga)
    wga = wa * ga
    rows = np.unique(ia)
    table = np.empty((rows.size, u.size))
    for lo, hi, x, _, lengths in _rows(csr_a, rows):
        key = np.repeat(np.arange(hi - lo) * (u.size + 1), lengths) + t[x]
        # per row, sums over t <= q for q = 0 .. |u|; the last is the row total
        cw, cwg = (
            np.cumsum(np.bincount(key, v, (hi - lo) * (u.size + 1)).reshape(hi - lo, -1), axis=1)
            for v in (wa[x], wga[x])
        )
        w_le, s_le, w_tot, s_tot = cw[:, :-1], cwg[:, :-1], cw[:, -1:], cwg[:, -1:]
        table[lo:hi] = u * w_le - s_le + (s_tot - s_le) - u * (w_tot - w_le)
    table, at = table.ravel(), np.searchsorted(rows, ia) * u.size
    out = np.empty(ia.size)
    for lo, hi, y, starts, lengths in _rows(csr_b, ib):
        out[lo:hi] = _row_reduce(wb[y] * table[np.repeat(at[lo:hi], lengths) + q[y]], starts, lengths)
    # a sum of |differences| that cancels to zero may round below it
    return np.maximum(out, 0.0)
