"""The ball layer: which subset points lie within r of each point, and the
weighted per-ball statistics the scale sums take over them.

Balls are closed and padded against round-off like ``space.members``.  A
block of ball rows is a CSR (compressed sparse row, as in scipy.sparse)
pair ``(indptr, indices)``: row a, ``indices[indptr[a]:indptr[a + 1]]``,
holds the int32 positions into the sorted subset ids of the ball around
centre a, in increasing order.  One row builder makes every row, the whole
cloud's point-id balls too, in blocks of at most ``PAIR_BLOCK`` stored
pairs (matrix metrics compare chunks of as many entries), and nothing
keeps them: a pass (``_per_ball``) hands each block to every reader of it,
and a reader that needs a whole sweep within one call builds it with
``_sweep``.  The kernels reduce each row on its own, so a row's value does
not depend on which rows share its block.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from ._lattice import _box_counts, _box_table, _boxes_of, _budget, _indices, _run_rows
from .space import FiniteMetricMeasureSpace, _distinct, _kd_tree, _pad

# a block's float64 temporaries (64 KiB) stay below glibc's default 128 KiB
# mmap threshold, so successive blocks reuse heap pages, not fresh mappings
PAIR_BLOCK = 1 << 13


class SubsetNeighbors:
    """Ball membership restricted to a fixed subset of the cloud; positions
    returned by all queries index into the sorted ``ids`` array.  Obtain
    instances through ``subset_neighbors`` to share them per space."""

    def __init__(self, space: FiniteMetricMeasureSpace, ids):
        self.space = space
        self.ids = _distinct(space.check_ids(ids))
        self._tree = None   # built on the first KD query (``_kd``)
        # on a full grid, the few disjoint boxes of lattice indices the ids fill, if any
        self._boxes = None if space._lattice is None else _boxes_of(self.ids, space._lattice[0], space.dim)
        self.porosity_masks: dict[tuple, list] = {}  # porosity_scan's, per (sigma, r_grid)

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

    def _stencil_blocks(self, centres: np.ndarray, q: int, rank, whole: bool):
        """The blocks of ``_row_blocks`` from the boxes' stencils.  Per chunk
        of centres one run table per box, of at most about PAIR_BLOCK runs,
        gives their counts and then their rows; the rows of a block that may
        go on past the chunk wait for the next one, so blocks end where the
        KD path ends them.  A lone box lists each row sorted; on several
        boxes, and for ranks, keys local row * n + union position (or its
        rank) are sorted, as a KD block forms them."""
        m, d, n = self.space._lattice[0], self.space.dim, self.ids.size
        idx, reach = _indices(centres, m, d), 2 * math.isqrt(q) + 1
        step = max(1, PAIR_BLOCK // max(math.prod(min(reach, e) for *_, e in b.outer) for b in self._boxes))
        pos, tables = np.zeros(0, dtype=np.int64), None
        for c0 in range(0, centres.size, step):
            chunk = [_box_table(idx[c0 : c0 + step], q, box) for box in self._boxes]
            pos = np.append(pos, np.arange(c0, min(c0 + step, centres.size)))
            tables = chunk if tables is None else [[np.concatenate(t) for t in zip(*ab)] for ab in zip(tables, chunk)]
            cuts = list(_cut(sum(lengths.sum(axis=1) for _, lengths in tables), n, whole))
            for at, full in cuts:
                if full:
                    yield pos[at], _full(n)
                    continue
                if at[-1] == pos.size - 1 and c0 + step < centres.size:
                    break   # the last block may go on
                rows = [_run_rows(starts[at], lengths[at]) for starts, lengths in tables]
                indptr, cols = rows[0]
                if len(rows) > 1 or rank is not None:
                    keys = []
                    for (ptr, u), box in zip(rows, self._boxes):
                        u = u if box.at is None else box.at[u]
                        keys.append(np.repeat(np.arange(at.size, dtype=np.int64) * n, np.diff(ptr))
                                    + (u if rank is None else rank[u]))
                    keys = np.concatenate(keys)
                    keys.sort()
                    indptr = np.searchsorted(keys, np.arange(at.size + 1, dtype=np.int64) * n)
                    cols = np.remainder(keys, n, out=keys)
                yield pos[at], (indptr, cols.astype(np.int32))
            else:
                at = np.zeros(0, dtype=np.int64)
            pos, tables = pos[at], [[t[at] for t in table] for table in tables]

    def counts_of(self, centres, radius: float) -> np.ndarray:
        """Per space point id in centres: the number of subset points within radius."""
        centres = np.asarray(centres, dtype=int)
        q = self._stencil_budget(radius)
        if q is not None:
            idx = _indices(centres, self.space._lattice[0], self.space.dim)
            return sum(_box_counts(idx, q, box) for box in self._boxes)
        if self.space.coords is None:
            return np.concatenate([np.count_nonzero(near, axis=1) for _, near in self._within(centres, radius)])
        # counting is order-free, so parallel workers stay deterministic
        return self._kd().query_ball_point(self.space.coords[centres], _pad(radius), return_length=True, workers=-1)

    def rows_of(self, centres, radius: float, counts=None):
        """CSR rows of the radius-balls around the space point ids in
        centres, restricted to the subset, in blocks of about PAIR_BLOCK
        pairs: yields ``(lo, hi, (indptr, indices))`` for centres[lo:hi];
        ``counts`` are their ``counts_of``, if known."""
        for at, rows in self._row_blocks(np.asarray(centres, dtype=int), radius, counts, None, False):
            yield int(at[0]), int(at[-1]) + 1, rows

    def _row_blocks(self, centres: np.ndarray, radius: float, counts, rank, whole: bool):
        """``rows_of``'s blocks as ``(at, rows)`` for centres[at], built as
        integer stencils on a union of boxes, else by KD queries; a row lists
        rank[j] for its subset positions j, sorted (j for rank None); with
        ``whole``, one full row stands for all balls holding the subset."""
        n, r = self.ids.size, _pad(radius)
        q = self._stencil_budget(radius)
        if q is not None:
            yield from self._stencil_blocks(centres, q, rank, whole)
            return
        if counts is None:
            # counts only cut blocks (and skip empty KD rows): one centre is one block
            counts = self.counts_of(centres, radius) if centres.size > 1 or whole else np.ones(centres.size, dtype=np.int64)
        # column c of a matrix block is the position of rank c
        cols = self.ids if rank is None else self.ids[np.argsort(rank)]
        for at, full in _cut(counts, n, whole):
            if full:
                yield at, _full(n)
                continue
            if self.space.coords is None:
                keys = np.concatenate([np.flatnonzero(near) + lo * n
                                       for lo, near in self._within(centres[at], radius, cols)])
            else:
                # the block's tree holds only the centres of non-empty rows
                rows = np.flatnonzero(counts[at])
                keys = np.zeros(0, dtype=np.int64)
                if rows.size:
                    block = _kd_tree(self.space.coords[centres[at[rows]]])
                    found = block.sparse_distance_matrix(self._kd(), r, output_type="ndarray")
                    keys = rows[found["i"]] * n
                    keys += found["j"] if rank is None else rank[found["j"]]
                    del found
                    keys.sort()
            indptr = np.searchsorted(keys, np.arange(at.size + 1, dtype=np.int64) * n)
            yield at, (indptr, np.remainder(keys, n, out=keys).astype(np.int32))

    def ball_sums(self, centres, radius: float, weights: np.ndarray) -> np.ndarray:
        """Per weight vector over the subset (a row of the 2-d ``weights``)
        and per space point id in centres: the sum of the weights within
        radius, as ``row_sums`` gives."""
        out = np.empty((len(weights), np.size(centres)))
        self._per_ball(centres, radius, [(None, None, lambda at, rows: out.__setitem__(
            (slice(None), at), np.array([row_sums(rows, w) for w in weights])))])
        return out

    def deviations_of(self, centres, radius: float, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Per space point id in centres: the best-constant deviation of g
        against w (both over the subset) on its radius-ball, from rows that
        list value ranks."""
        out = np.empty(np.size(centres))
        self._per_ball(centres, radius, [(None, *deviation_reader(w, g, value_order(g), out.__setitem__))])
        return out

    def _per_ball(self, centres, radius: float, readers) -> None:
        """One pass over the radius-balls around centres (space point ids):
        each block of rows is built once and handed to every reader
        ``(own, rank, read)`` of a row of it as ``read(at, rows)``.  ``own``
        maps positions in centres to the reader's indices (-1: not read;
        None: each position as itself), ``at`` holds those of the rows, and
        row a lists rank[j] for the subset positions j in the ball (j for
        rank None), sorted.  Balls holding the whole subset are never built:
        rows is then one full row, shared by all of at."""
        centres, n = np.asarray(centres, dtype=int), self.ids.size
        ranks = {id(rank): rank for _, rank, _ in readers}
        # built in position order if a reader reads that (a lone box lists it
        # sorted), else in the first reader's ranks; other readers re-sort
        build = readers[0][1] if all(rank is not None for rank in ranks.values()) else None
        back = None if build is None else np.argsort(build)
        relabel = {k: None if rank is build else rank if back is None else rank[back] for k, rank in ranks.items()}
        for pos, rows in self._row_blocks(centres, radius, None, build, True):
            # every row full lists every label: no re-sort
            shared = rows[0].size - 1 < pos.size or rows[0][-1] == n * (rows[0].size - 1)
            listed = {}   # per rank: the rows listing it
            for own, rank, read in readers:
                at = pos if own is None else own[pos]
                sel = np.flatnonzero(at >= 0)
                if not sel.size:
                    continue
                if id(rank) not in listed:
                    perm, (indptr, cols) = relabel[id(rank)], rows
                    listed[id(rank)] = rows if perm is None or shared else (
                        indptr, (_ranked(cols, np.diff(indptr), perm) % n).astype(np.int32))
                got = listed[id(rank)]
                if got[0].size - 1 < at.size or sel.size == at.size:
                    read(at[sel], got)
                    continue
                for lo, hi, cols, starts, _ in _rows(got, sel):
                    read(at[sel[lo:hi]], (np.append(starts, cols.size), cols))

    def _sweep(self, centres: np.ndarray, radius: float) -> tuple:
        """CSR of the radius-balls around centres, filled from ``rows_of``;
        for a reader that needs a whole sweep within one call."""
        counts = self.counts_of(centres, radius)
        indptr = np.zeros(centres.size + 1, dtype=np.int64)
        indices = np.empty(int(counts.sum()), dtype=np.int32)
        for lo, hi, (ptr, cols) in self.rows_of(centres, radius, counts):
            indptr[lo + 1 : hi + 1] = indptr[lo] + ptr[1:]
            indices[indptr[lo] : indptr[hi]] = cols
        return indptr, indices[: indptr[-1]]

    def cross_pairs(self, other: "SubsetNeighbors", radius: float):
        """Position pairs (into self.ids, other.ids) at distance <= radius,
        sorted by (self position, other position), as two int32 arrays."""
        indptr, indices = other._sweep(self.ids, radius)
        return np.repeat(np.arange(self.ids.size, dtype=np.int32), np.diff(indptr)), indices


def subset_neighbors(space: FiniteMetricMeasureSpace, ids) -> SubsetNeighbors:
    """The space's shared ``SubsetNeighbors`` of a subset, keyed by its ids;
    it refers to the space weakly (no reference cycle through the cache),
    so it is usable while the space lives."""
    ids = np.asarray(ids, dtype=int)
    if np.any(ids[1:] <= ids[:-1]):   # ids of a piece or a weight value come sorted
        ids = _distinct(ids)
    if ids.size == space.n and ids[0] == 0 and ids[-1] == space.n - 1:
        return space._cloud()
    key = ids.tobytes()
    if key not in space._neighbors:
        space._neighbors[key] = SubsetNeighbors(weakref.proxy(space), ids)
    return space._neighbors[key]


# -- per-row kernels ------------------------------------------------------


def joined(blocks: list, n: int) -> tuple:
    """The CSR of rows 0..n-1 from a list of ``_per_ball`` blocks ``(at,
    rows)`` handed over in any order, emptied as the rows are copied; a
    lone row shared by all of its at is that row for each of them."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    for at, (ptr, _) in blocks:
        indptr[at + 1] = np.diff(ptr)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.int32)
    while blocks:
        at, (ptr, cols) = blocks.pop()
        if ptr.size - 1 < at.size:
            ptr, cols = np.arange(at.size + 1) * cols.size, np.tile(cols, at.size)
        indices[np.repeat(indptr[at] - ptr[:-1], np.diff(ptr)) + np.arange(cols.size)] = cols
    return indptr, indices


def _full(n: int) -> tuple:
    """The one row of a ball holding all n subset points."""
    return np.array([0, n]), np.arange(n, dtype=np.int32)


def _cut(counts: np.ndarray, n: int, whole: bool):
    """Row positions per block of rows with these counts: ``(at, full)``.
    With whole, the rows of all n subset points come first, as one block
    (full True); the others follow in blocks of about PAIR_BLOCK pairs."""
    rows = np.arange(counts.size)
    if whole:
        full = counts == n
        if full.any():
            yield np.flatnonzero(full), True
        rows = rows[~full]
    for lo, hi in _blocks(np.concatenate(([0], np.cumsum(counts[rows])))):
        yield rows[lo:hi], False


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


def means_reader(w: np.ndarray, g: np.ndarray, fn, put):
    """``(rank, read)`` of a ``_per_ball`` reader of the subset's own points
    (its indices are their positions): ``put(at, means)``, per row a, of
    sum_b w_b fn(g_b - g_a) / sum_b w_b over the ball."""

    def read(at, rows):
        # a full row shared by all of at is reduced once per centre
        shared = np.zeros(at.size, dtype=np.int64) if rows[0].size - 1 < at.size else None
        for lo, hi, cols, starts, lengths in _rows(rows, shared):
            wb = w[cols]
            d = fn(g[cols] - np.repeat(g[at[lo:hi]], lengths))
            put(at[lo:hi], _row_reduce(wb * d, starts, lengths) / _row_reduce(wb, starts, lengths))

    return None, read


def _best_devs(v, ww, starts, lengths, out) -> None:
    """The deviation core: into out, per row of value-sorted v with
    weights ww, sum_b ww_b |v_b - median| / mass at the weighted median
    ``weighted_stats`` takes (zero for a zero-mass row): the first entry
    whose prefix sum, the row's own cumsum, reaches half the mass, so
    whichever rows share the block.  Rows of lengths within a factor 2 are
    summed side by side, each as wide as the longest: past its end a row
    reads on into the next rows (the last row repeats the block's last
    weight), so its cumsum there, at least its total, is never below half
    of it."""
    mass = _row_reduce(ww, starts, lengths)
    below = np.zeros(lengths.size, dtype=np.int64)
    size = np.frexp(lengths)[1]
    for at in (np.flatnonzero(size == e) for e in _distinct(size)):
        own = ww.take(starts[at, None] + np.arange(lengths[at].max()), mode="clip")
        below[at] = (np.cumsum(own, axis=1) < mass[at, None] / 2.0).sum(axis=1)
    # an empty row (a centre off the subset) reads the appended 0
    median = np.append(v, 0.0)[starts + np.minimum(below, lengths - 1)]
    dev = _row_reduce(ww * np.abs(v - np.repeat(median, lengths)), starts, lengths)
    np.divide(dev, mass, out=out, where=mass > 0)


def value_order(g: np.ndarray) -> tuple:
    """``(rank, by_rank)`` of values g: by_rank lists positions by value,
    ties by position (a stable argsort), and rank inverts it."""
    by_rank = np.argsort(g, kind="stable")
    return np.argsort(by_rank), by_rank


def deviation_reader(w: np.ndarray, g: np.ndarray, order: tuple, put):
    """``(rank, read)`` of a ``_per_ball`` reader: ``put(at, devs)``, per
    row, of the best-constant deviation inf_c sum_b w_b |g_b - c| / sum_b
    w_b at the weighted median ``weighted_stats`` takes (zero for a
    zero-mass ball).  order is ``value_order(g)``: rows list value ranks."""
    rank, by_rank = order
    w, g = w[by_rank], g[by_rank]

    def read(at, rows):
        # a block of rows holds at most PAIR_BLOCK pairs, or is one row
        indptr, cols = rows
        devs = np.zeros(indptr.size - 1)
        _best_devs(g[cols], w[cols], indptr[:-1], np.diff(indptr), devs)
        put(at, devs)

    return rank, read


def diff_table(csr, wa: np.ndarray, ga: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per row a of csr and sorted distinct value u[q]: T[a, q], the sum
    over x in row a of wa[x] |ga[x] - u[q]|, from per-(row, value bucket)
    sums of w and w*g accumulated along the buckets; t is
    ``np.searchsorted(u, ga)``, so g_x <= u[q] exactly when t[x] <= q."""
    table = np.empty((csr[0].size - 1, u.size))
    for lo, hi, x, _, lengths in _rows(csr):
        key = np.repeat(np.arange(hi - lo) * (u.size + 1), lengths) + t[x]
        # per row, sums over t <= q for q = 0 .. |u|; the last is the row total
        cw, cwg = (
            np.cumsum(np.bincount(key, v, (hi - lo) * (u.size + 1)).reshape(hi - lo, -1), axis=1)
            for v in (wa[x], wa[x] * ga[x])
        )
        w_le, s_le, w_tot, s_tot = cw[:, :-1], cwg[:, :-1], cw[:, -1:], cwg[:, -1:]
        table[lo:hi] = u * w_le - s_le + (s_tot - s_le) - u * (w_tot - w_le)
    return table


def table_sums(csr, rows: np.ndarray, wb: np.ndarray, at: np.ndarray, q: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per listed row rows[t] of csr: the sum over y in it of wb[y]
    table[at[t], q[y]], table a ``diff_table`` and q[y] y's value bucket,
    the flat table indices formed block by block; never below zero (a sum
    of |differences| that cancels to zero may round below it)."""
    out = np.empty(rows.size)
    for lo, hi, y, starts, lengths in _rows(csr, rows):
        flat = np.repeat(at[lo:hi] * np.int64(table.shape[1]), lengths) + q[y]
        out[lo:hi] = _row_reduce(wb[y] * table.take(flat), starts, lengths)
    return np.maximum(out, 0.0)
