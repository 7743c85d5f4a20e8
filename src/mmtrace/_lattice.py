"""Closed balls on the full grid {0, 1/m, ..., 1}^d in integers: a padded
radius holds the lattice indices j with |j - c|^2 <= q around c, for one
budget q (``_budget``) that whole-cloud counts and rows on boxes share."""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

# rows per block of centres and per table of inner counts
_LATTICE_ROWS = 1 << 14


def _lattice_of(coords: np.ndarray, weights: np.ndarray, h: float):
    """``(m, weight per number of boundary coordinates)`` when the cloud is
    the full grid {0, 1/m, ..., 1}^dim in 'ij' order with m = round(1/h),
    coordinates i/m exactly as ``build_grid_space`` makes them, and one
    weight per number of coordinates equal to 0 or 1 (uniform weights
    too; for m = 1 every point has dim such coordinates); None otherwise.
    Reads the cloud in blocks of ids, never a whole n x dim temporary."""
    n, d = coords.shape
    if not 1.0 / h <= n:   # also rejects 1/h = inf
        return None
    m = int(round(1.0 / h))
    if m < 1 or (m + 1) ** d != n:
        return None
    axis = np.arange(m + 1) / m
    edge = np.zeros(m + 1, dtype=np.int64)
    edge[[0, m]] = 1
    # a point with c boundary coordinates, the rest interior; point 0 for all when m = 1
    probes = [np.ravel_multi_index((0,) * c + (1,) * (d - c), (m + 1,) * d) if m > 1 else 0 for c in range(d + 1)]
    per_class = weights[probes]
    for lo in range(0, n, _LATTICE_ROWS):
        ids = np.arange(lo, min(lo + _LATTICE_ROWS, n))
        bound = np.zeros(ids.size, dtype=np.int64)
        for a in range(d):
            i = ids // (m + 1) ** (d - 1 - a) % (m + 1)
            if not np.array_equal(coords[lo : lo + ids.size, a], axis[i]):
                return None
            bound += edge[i]
        if not np.array_equal(weights[lo : lo + ids.size], per_class[bound]):
            return None
    return m, per_class


def _budget(r: float, m: int, d: int) -> Optional[int]:
    """q = floor((r m)^2) for the padded radius r, capped at d m^2; None
    for NaN or a ball boundary within round-off of a lattice point, where
    only the KD tree's own float comparison decides."""
    t = (r * m) ** 2
    full = d * m * m
    if not t >= 0:
        return None
    if t >= full + 1:
        return full
    q = math.floor(t)
    # float distances to lattice points carry a relative error of a few
    # 1e-16 plus an absolute one from the coordinates' rounding
    if min(t - q, q + 1 - t) <= 1e-13 * t + 1e-14 * m * math.sqrt(d * t):
        return None
    return q


def _indices(ids: np.ndarray, m: int, d: int) -> np.ndarray:
    """Lattice indices of point ids, (k, d) int64."""
    return np.stack(np.unravel_index(ids, (m + 1,) * d), axis=1).astype(np.int64)


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
    top = int(s.max(initial=-1))
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


# a subset splits into at most this many boxes before its rows take the KD
# path: one per piece of the difficult instance, three for simple3d's face
# union segment (the face, then the segment below and above the point it
# shares with the face)
_MAX_BOXES = 8


class _Box(NamedTuple):
    """An 'ij' box [lo, hi] of lattice indices, the constants ``_box_runs``
    reads (see ``_box``) and ``at``, box position -> position in the union
    of boxes, None for a lone box."""

    lo: np.ndarray
    hi: np.ndarray
    run: int
    outer: list
    fixed: list
    at: Optional[np.ndarray] = None


def _box(lo: np.ndarray, hi: np.ndarray, at: Optional[np.ndarray] = None) -> _Box:
    """The axis runs lie along, ``(axis, stride, extent)`` of the other axes
    of extent > 1, and the axes of extent 1 that only spend budget."""
    ext = (hi - lo + 1).tolist()
    free = [a for a, e in enumerate(ext) if e > 1]
    run = (free or [len(ext) - 1])[-1]
    outer = [(a, math.prod(ext[a + 1 :]), ext[a]) for a in free[:-1]]
    return _Box(lo, hi, run, outer, [a for a in range(len(ext)) if ext[a] == 1 and a != run], at)


def _boxes_of(ids: np.ndarray, m: int, d: int) -> Optional[list]:
    """The sorted unique ids as disjoint boxes, found greedily: from the
    lowest id left, a box grows along the last axis, then along each earlier
    one, as far as every point it gains is left; None past _MAX_BOXES.  The
    full grid is one box, found without a scan."""
    if ids.size == (m + 1) ** d and ids[0] == 0 and ids[-1] == ids.size - 1:
        return [_box(np.zeros(d, dtype=np.int64), np.full(d, m, dtype=np.int64))]
    left = np.ones(ids.size, dtype=bool)

    def held(lo, hi):
        """Positions in ids of the box's points ('ij' order); which are left."""
        box_ids = np.ravel_multi_index(np.indices((hi - lo + 1).tolist()).reshape(d, -1) + lo[:, None], (m + 1,) * d)
        pos = np.minimum(np.searchsorted(ids, box_ids), ids.size - 1)
        return pos, (ids[pos] == box_ids) & left[pos]

    boxes = []
    while left.any():
        if len(boxes) == _MAX_BOXES:
            return None
        lo = _indices(ids[left.argmax()][None], m, d)[0]
        hi = lo.copy()
        for a in reversed(range(d)):
            top = hi.copy()
            top[a] = m
            # per layer along a of the box stretched to the grid's edge: all left?
            full = held(lo, top)[1].reshape((top - lo + 1).tolist()).all(axis=tuple(b for b in range(d) if b != a))
            hi[a] = lo[a] + np.argmin(np.append(full, False)) - 1
        pos = held(lo, hi)[0]
        left[pos] = False
        boxes.append((lo, hi, pos))
    if len(boxes) == 1:
        boxes[0] = boxes[0][:2]   # a lone box maps its positions to themselves
    return [_box(*b) for b in boxes] or None


def _box_runs(idx: np.ndarray, q: int, box: _Box):
    """The balls |j - c|^2 <= q around the rows c of idx within the box as
    runs of consecutive box positions ('ij' order), per block of about
    _LATTICE_ROWS runs: ``(starts, lengths)``, (centres, runs) int64.
    Runs lie along the last axis of extent > 1 (every later axis has extent
    1), one per coordinate of the other axes of extent > 1 in lexicographic
    order, from a window of min(2R + 1, extent) around the centre (R =
    isqrt(q)), so a row comes out sorted; axes of extent 1 only use budget."""
    lo, hi, run = box.lo, box.hi, box.run
    R = math.isqrt(q)
    widths = [min(2 * R + 1, ext) for _, _, ext in box.outer]
    step = max(1, _LATTICE_ROWS // math.prod(widths))
    for c in (idx[c0 : c0 + step] for c0 in range(0, idx.shape[0], step)):
        k = c.shape[0]
        left = np.full((k, 1), q, dtype=np.int64) - sum((lo[a] - c[:, a, None]) ** 2 for a in box.fixed)
        start = np.zeros((k, 1), dtype=np.int64)
        for (a, stride, _), width in zip(box.outer, widths):
            j = np.minimum(np.maximum(c[:, a] - R, lo[a]), hi[a] - width + 1)[:, None] + np.arange(width)
            left = (left[:, :, None] - ((j - c[:, a, None]) ** 2)[:, None, :]).reshape(k, -1)
            start = (start[:, :, None] + ((j - lo[a]) * stride)[:, None, :]).reshape(k, -1)
        reach = _isqrt(np.maximum(left, 0))
        first, last = np.maximum(c[:, run, None] - reach, lo[run]), np.minimum(c[:, run, None] + reach, hi[run])
        yield start + (first - lo[run]), np.where(left >= 0, np.maximum(last - first + 1, 0), 0)


def _box_counts(idx: np.ndarray, q: int, box: _Box) -> np.ndarray:
    """Per centre, the number of box points in its ball, int64."""
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [n.sum(axis=1) for _, n in _box_runs(idx, q, box)])


def _box_table(idx: np.ndarray, q: int, box: _Box):
    """``_box_runs``' tables for the rows of idx, joined: ``[starts, lengths]``."""
    return [np.concatenate(t) for t in zip(*_box_runs(idx, q, box))]


def _run_rows(starts: np.ndarray, lengths: np.ndarray):
    """CSR ``(indptr, positions)``, int64, of the rows of a run table."""
    counts = lengths.sum(axis=1)
    starts, lengths = starts[lengths > 0], lengths[lengths > 0]
    # run t fills its lengths[t] slots from starts[t] on
    positions = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    return np.concatenate(([0], np.cumsum(counts))), positions
