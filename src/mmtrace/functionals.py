"""Trace-characterizing functionals on a piecewise set.

Everything here consumes a space, a piecewise set whose pieces carry
discrete codimensional weights, and a sample function given densely over
the cloud.  Scale sums run over dyadic scales 2^-k and are truncated at
the deepest scale above the resolution floor; the magnitude of the last
retained term is reported as the truncation tail.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._neighbors import (csr_rows, deviation_reader, diff_table, joined, means_reader, row_sums, subset_neighbors,
                         table_sums, value_order)
from .content import _zero_one_program
from .errors import (
    InvalidFamily,
    InvalidPair,
    InvalidParameter,
    InvalidPoint,
    InvalidScale,
    ParameterError,
    ResolutionError,
    ZeroMass,
)
# weighted_stats is unused here but stays bound: perfbench/smoke.py checks it
from .measures import EPSILON, MeasureSequence, default_k_max, weighted_stats
from .regularity import PiecewiseSet, SubsetPiece, porosity_scan
from .space import _EPS, Ball, _distinct, _in_sorted, _pad, dyadic_radii, k_of_r, separated_net


@dataclass
class SampleFunction:
    """Real values per cloud point; the trace candidate lives on S."""

    values: np.ndarray
    domain: Optional[PiecewiseSet] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.domain is not None:
            on_s = self.values[self.domain.union_ids]
            if not np.all(np.isfinite(on_s)):
                raise InvalidParameter("sample function must be finite on S")


def _values(f) -> np.ndarray:
    return f.values if isinstance(f, SampleFunction) else np.asarray(f, dtype=float)


@dataclass
class FunctionalReport:
    name: str
    value: float
    parts: dict
    params: dict
    truncation_tail: float = 0.0

    def __post_init__(self):
        self.value = float(self.value)
        self.truncation_tail = float(self.truncation_tail)
        self.parts = {k: float(v) for k, v in self.parts.items()}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "parts": {k: float(v) for k, v in self.parts.items()},
            "params": {k: (float(v) if isinstance(v, np.floating) else v) for k, v in self.params.items()},
            "truncation_tail": float(self.truncation_tail),
        }


@dataclass
class NiceFamily:
    """Disjoint balls of radius <= 1 whose c-dilations meet S."""

    balls: list
    c: float
    kind: str = "nice"   # nice | whitney


class _Pass:
    """The ball rows a batch of parts reads, in one pass over their radii,
    finest first (``calderon_maximal``'s early exit reads the finer scales):
    at each radius the rows of each subset are built once, around the union
    of its readers' centres, and handed to every reader, the subsets in no
    set order; then the radius's hooks run, and nothing read there is kept."""

    def __init__(self):
        # radius -> {id(nbrs): (nbrs, [(centres, rank, read)])}; radius -> [hook]; memos
        self.reads, self.hooks, self.memo, self.local = {}, {}, {}, {}

    def read(self, nbrs, radius: float, centres, rank, read):
        """Hand ``read(at, rows)``, at indexing centres, the rows of nbrs around
        centres (distinct point ids in any order, or a callable giving them at
        the radius) listing rank (see ``SubsetNeighbors._per_ball``)."""
        self.reads.setdefault(float(radius), {}).setdefault(id(nbrs), (nbrs, []))[1].append((centres, rank, read))

    def then(self, radius: float, hook):
        """Run hook() once every subset has been read at radius."""
        self.hooks.setdefault(float(radius), []).append(hook)

    def once(self, key, make, local: bool = False):
        """make(), made at the first call with this key; with local, kept
        only while the pass reads the current radius."""
        memo = self.local if local else self.memo
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def order(self, nbrs, f) -> tuple:
        """f's values on the subset of nbrs and their ``value_order``."""
        return self.once(("order", id(nbrs), id(f)), lambda: (lambda g: (g, value_order(g)))(_values(f)[nbrs.ids]))

    def run(self):
        for r in sorted(self.reads.keys() | self.hooks.keys()):
            for nbrs, readers in self.reads.pop(r, {}).values():
                sets = [np.asarray(c() if callable(c) else c, dtype=int) for c, _, _ in readers]
                centres, owns = _distinct(np.concatenate(list({id(s): s for s in sets}.values()))), {}
                for s in sets:
                    if id(s) not in owns and not np.array_equal(s, centres):
                        owns[id(s)] = np.full(centres.size, -1)
                        owns[id(s)][np.searchsorted(centres, s)] = np.arange(s.size)
                live = [(owns.get(id(s)), rank, read) for s, (_, rank, read) in zip(sets, readers) if s.size]
                if live:
                    nbrs._per_ball(centres, r, live)
            while self.hooks.get(r):   # a hook is dropped once run, with what it holds
                self.hooks[r].pop(0)()
            self.local.clear()
        self.memo.clear()   # its thunks may hold the pass: no cycle outlives the run


def _alone(register, *args):
    """What a registration gives (a thunk called), on a pass of its own."""
    ps = _Pass()
    out = register(ps, *args)
    ps.run()
    return out() if callable(out) else out


def _shared(register):
    """A registration made once per pass and arguments (numbers by value,
    the rest by identity), so functionals of a batch share it."""

    def shared(ps, *args):
        key = (register, *(a if isinstance(a, (int, float, str, type(None))) else id(a) for a in args))
        return ps.once(key, lambda: register(ps, *args))

    return shared


# ----------------------------------------------------------------------
# piece-level machinery
# ----------------------------------------------------------------------


def averaging_single(space, piece: SubsetPiece, f, k: int) -> np.ndarray:
    """Ball averages of f over the piece at scale 2^-k, one per piece point.

    Averages are computed relative to the center value, so constants pass
    through exactly."""
    return _alone(_averages, space, piece, f, 2.0 ** (-int(k)))


def _averages(ps, space, piece: SubsetPiece, f, r: float) -> np.ndarray:
    """``averaging_single`` at radius r, filled when ps reaches it."""
    vals, avg = _values(f)[piece.ids], np.empty(piece.ids.size)

    def put(at, means):
        avg[at] = vals[at] + means

    ps.read(subset_neighbors(space, piece.ids), r, piece.ids, *means_reader(piece.weights, vals, lambda d: d, put))
    return avg


def averaging_double(space, piece_i: SubsetPiece, piece_j: SubsetPiece, f, k: int, y: int, z: int) -> float:
    """Double ball average of |f(y') - f(z')| for a pair in the proximity set."""
    r = 2.0 ** (-int(k))
    if space.distance(int(y), int(z)) > _pad(r):
        raise InvalidPair(f"d({y},{z}) exceeds 2^-{k}")
    if int(y) not in piece_i.ids or int(z) not in piece_j.ids:
        raise InvalidPair(f"{y} is not in piece i or {z} is not in piece j")
    vals = _values(f)
    (_, _, (_, mi)), = subset_neighbors(space, piece_i.ids).rows_of([int(y)], r)
    (_, _, (_, mj)), = subset_neighbors(space, piece_j.ids).rows_of([int(z)], r)
    wi, wj = piece_i.weights[mi], piece_j.weights[mj]
    gi, gj = vals[piece_i.ids[mi]], vals[piece_j.ids[mj]]
    num = float(np.sum(wi[:, None] * wj[None, :] * np.abs(gi[:, None] - gj[None, :])))
    return num / (float(np.sum(wi)) * float(np.sum(wj)))


def weight_w(space, k: int, y, z) -> float:
    """Pair weight 1/sqrt(mu(B_k(y)) mu(B_k(z))) at scale 2^-k."""
    r = 2.0 ** (-int(k))
    if r < space.scale_floor - _EPS:
        raise ResolutionError(f"2^-{k} below scale_floor")
    my = space.ball_mass(y, r) if not isinstance(y, (int, np.integer)) else space.masses_at_radius(r, [y])[0]
    mz = space.ball_mass(z, r) if not isinstance(z, (int, np.integer)) else space.masses_at_radius(r, [z])[0]
    if my <= 0 or mz <= 0:
        raise ZeroMass("weight undefined on a zero-mass ball")
    return 1.0 / math.sqrt(my * mz)


def weight_w_alt(space, k: int, y, z) -> float:
    """Arithmetic-mean variant of the pair weight."""
    r = 2.0 ** (-int(k))
    if r < space.scale_floor - _EPS:
        raise ResolutionError(f"2^-{k} below scale_floor")
    my, mz = space.masses_at_radius(r, [int(y), int(z)])
    if my <= 0 or mz <= 0:
        raise ZeroMass("weight undefined on a zero-mass ball")
    return 0.5 * (1.0 / my + 1.0 / mz)


# ----------------------------------------------------------------------
# Besov norms on a single piece
# ----------------------------------------------------------------------


@_shared
def _besov(ps, space, piece: SubsetPiece, f, s: float, p: float, k_max, name: str):
    """The report thunk of L_p part plus sum_{k>=1} 2^(k s p) sum_x h_x
    I_k(x), I_k the deviation (besov) or the double average of
    |f - f(x)|^p (besov_alt) on the piece's 2^-k balls."""
    if not (0 < s < 1):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    k_max = default_k_max(space) if k_max is None else k_max
    h, nbrs = piece.weights, subset_neighbors(space, piece.ids)
    vals, order = ps.order(nbrs, f)
    lp = float(np.sum(h * np.abs(vals) ** p) ** (1.0 / p))
    inners = [np.empty(vals.size) for _ in range(k_max)]
    for k, inner in enumerate(inners, 1):
        if name == "besov":
            ps.read(nbrs, 2.0 ** (-k), piece.ids, *deviation_reader(h, vals, order, inner.__setitem__))
        else:
            ps.read(nbrs, 2.0 ** (-k), piece.ids, *means_reader(h, vals, lambda d: np.abs(d) ** p, inner.__setitem__))

    def report():
        semi_p = last = 0.0
        for k, inner in enumerate(inners, 1):
            last = 2.0 ** (k * s * p) * float(np.sum(h * (inner**p if name == "besov" else inner)))
            semi_p += last
        semi = semi_p ** (1.0 / p)
        return FunctionalReport(name, lp + semi, {"lp": lp, "seminorm": semi},
                                {"s": s, "p": p, "theta": piece.theta, "k_max": k_max}, last ** (1.0 / p))

    return report


def besov_norm(space, piece: SubsetPiece, f, s: float, p: float, k_max: Optional[int] = None) -> FunctionalReport:
    """Besov norm of smoothness s: L_p part plus the deviation scale sum."""
    return _alone(_besov, space, piece, f, s, p, k_max, "besov")


def besov_norm_alt(space, piece: SubsetPiece, f, s: float, p: float, k_max: Optional[int] = None) -> FunctionalReport:
    """Alternative Besov form with the double-average inner term."""
    return _alone(_besov, space, piece, f, s, p, k_max, "besov_alt")


# ----------------------------------------------------------------------
# gluing functionals
# ----------------------------------------------------------------------


def gluing(space, piecewise: PiecewiseSet, f, p: float, which: int, k_max: Optional[int] = None) -> FunctionalReport:
    """Cross-piece gluing functional; ``which`` selects the raw (1),
    averaged (2), or doubly averaged (3) mismatch term.  The cross-piece
    pairs within 2^-k are found once per scale and piece pair."""
    return _alone(_gluing, space, piecewise, f, p, which, k_max)


@_shared
def _gluing(ps, space, piecewise: PiecewiseSet, f, p: float, which: int, k_max=None):
    """``gluing``'s report thunk.  Per scale, the gluings of a pass share
    the cross pairs and gl3 the pieces' masses and balls; gl3's numerators
    are ``diff_table`` rows over the first piece's balls summed over the
    second piece's balls."""
    if which not in (1, 2, 3):
        raise InvalidParameter("which must be 1, 2, or 3")
    k_max = default_k_max(space) if k_max is None else k_max
    params = {"p": p, "which": which, "k_max": k_max}
    if piecewise.N == 1:
        return lambda: FunctionalReport(f"gl{which}", 0.0, {"total_p": 0.0},
                                        {**params, "note": "single piece, no cross pairs"})
    if not (1 < p < math.inf):
        raise ParameterError("p must lie in (1, inf)")
    vals, pieces = _values(f), piecewise.pieces
    nbrs = [subset_neighbors(space, pc.ids) for pc in pieces]
    pairs = [(i, j) for i in range(piecewise.N) for j in range(i + 1, piecewise.N)]
    piece_vals = [vals[pc.ids] for pc in pieces]
    # shift by a reference value: |g - g'| is shift-invariant and
    # constants then cancel exactly in the prefix sums
    shifted = [pv - float(vals[pieces[0].ids[0]]) for pv in piece_vals]
    k_terms, ends, masses, nums = [0.0] * k_max, piece_vals if which == 1 else None, None, None
    for k in range(1, k_max + 1):
        r = 2.0 ** (-k)
        cross = {(i, j): _cross(ps, space, pieces, nbrs, i, j, r) for i, j in pairs}
        if which == 2:
            ends = [_averages(ps, space, pc, vals, r) for pc in pieces]
        if which == 3:
            masses = [_masses(ps, nb, pc, r) for nb, pc in zip(nbrs, pieces)]
            nums = {(i, j): _numerators(ps, nbrs, pieces, shifted, i, j, r, cross[i, j]) for i, j in pairs}

        def k_term(k=k, cross=cross, ends=ends, masses=masses, nums=nums):
            total = 0.0
            for i, j in pairs:
                ia, ib, hw = cross[i, j]()
                if ia.size == 0:
                    continue
                if which < 3:
                    term = np.abs(ends[i][ia] - ends[j][ib]) ** p
                else:
                    term = (nums[i, j]() / (masses[i][ia] * masses[j][ib])) ** p
                scale = 2.0 ** (k * (p - pieces[i].theta - pieces[j].theta))
                # the ordered (i, j) + (j, i) sum is twice the i < j sum
                total += 2.0 * scale * float(np.sum(hw * term))
            k_terms[k - 1] = total

        ps.then(r, k_term)

    def report():
        total_p = last = 0.0
        for last in k_terms:
            total_p += last
        return FunctionalReport(f"gl{which}", total_p ** (1.0 / p), {"total_p": total_p}, params, last ** (1.0 / p))

    return report


def _cross(ps, space, pieces, nbrs, i: int, j: int, r: float):
    """A thunk of pieces i and j's cross pairs (ia, ib) within r and their
    weights h_i h_j / sqrt(mu(B_r(y)) mu(B_r(z))), made once per radius."""

    def make():
        ia, ib = nbrs[i].cross_pairs(nbrs[j], r)
        mu_i, mu_j = (space.masses_at_radius(r, pieces[a].ids) for a in (i, j))
        return ia, ib, pieces[i].weights[ia] * pieces[j].weights[ib] * (1.0 / np.sqrt(mu_i[ia] * mu_j[ib]))

    return lambda: ps.once(("cross", r, id(nbrs[i]), id(nbrs[j])), make, local=True)


@_shared
def _masses(ps, nb, pc, r: float) -> np.ndarray:
    """The piece's weight in each of its points' r-balls, filled when ps reaches r."""
    mass = np.empty(pc.ids.size)
    ps.read(nb, r, pc.ids, None, lambda at, rows: mass.__setitem__(at, row_sums(rows, pc.weights)))
    return mass


@_shared
def _balls(ps, nb, r: float):
    """A thunk of the subset's own r-balls as one CSR (row a around its
    position a): kept as ps hands them over, joined at r's hooks, and
    dropped after them."""
    kept = []
    ps.read(nb, r, nb.ids, None, lambda at, rows: kept.append((at, rows)))
    return lambda: ps.once(("balls", id(nb), r), lambda: joined(kept, nb.ids.size), local=True)


def _numerators(ps, nbrs, pieces, shifted, i, j, r: float, cross):
    """A thunk, per cross pair t of pieces i < j, of the sum over x in
    B_r(ia[t]) of piece i and y in B_r(ib[t]) of piece j of w_x w_y
    |g_x - g_y|: ``diff_table`` rows over piece i's balls at the heads (the
    distinct ia, found once per radius and layer pair) and the buckets of
    the values (made once per pass), summed by ``table_sums`` over piece
    j's balls at the ib once r is read."""

    def buckets():
        u, q = np.unique(shifted[j], return_inverse=True)
        return shifted, u, q, np.searchsorted(u, shifted[i])   # shifted kept, so its id stays its own

    def heads():
        return ps.once(("heads", r, id(nbrs[i]), id(nbrs[j])), lambda: _heads(nbrs[i].ids, cross()[0]), local=True)

    (_, u, q, t), balls, job = ps.once(("buckets", id(shifted), i, j), buckets), _balls(ps, nbrs[j], r), {}

    def centres():
        job["table"] = np.empty((heads()[0].size, u.size))
        return heads()[0]

    def add():
        # the table goes before the radius's terms are summed
        job["num"] = table_sums(balls(), cross()[1], pieces[j].weights, heads()[1], q, job.pop("table"))

    ps.read(nbrs[i], r, centres, None, lambda at, rows: job["table"].__setitem__(
        at, diff_table(rows, pieces[i].weights, shifted[i], u, t)))
    ps.then(r, add)
    return lambda: job["num"]


def _heads(ids: np.ndarray, ia: np.ndarray) -> tuple:
    """The ids at the distinct positions of the sorted ia, and each pair's int32 row among them."""
    new = np.diff(ia, prepend=-1) > 0   # the first pair at each position
    return ids[ia[new]], np.cumsum(new, dtype=np.int32) - 1


# ----------------------------------------------------------------------
# maximal functions and the Besov-type functional
# ----------------------------------------------------------------------


def _tilde(ps, seq: MeasureSequence, f, k: int, ids: np.ndarray, radius: float, put, among=None):
    """E~ at point ids when ps reaches 2 radius: ``put(at, e)``, e the m_k
    deviation of f|S on the doubled ball, at the positions at (of among(),
    if given) whose radius-ball meets S; E~ is zero at the others."""
    f_on_s, order = ps.order(seq.neighbors, f)
    got = []

    def centres():
        at = np.arange(ids.size) if among is None else among()
        at = at[_meets(seq.neighbors, ids[at], radius)]
        u, back = np.unique(ids[at], return_inverse=True)   # the pass reads distinct ids
        got.extend((at, back, np.empty(u.size)))
        return u

    ps.read(seq.neighbors, 2.0 * radius, centres,
            *deviation_reader(seq.weights_per_k[k], f_on_s, order, lambda a, e: got[2].__setitem__(a, e)))
    ps.then(2.0 * radius, lambda: put(got[0], got[2][got[1]]))


def tilde_e(seq: MeasureSequence, f, k: int, center, radius: float) -> float:
    """Deviation on the doubled ball, or zero when the ball misses S; the
    center is a point id."""
    if not isinstance(center, (int, np.integer)):
        raise InvalidPoint(f"tilde_e needs a point id center, got {center!r}")
    if not 0 <= k <= seq.k_max:
        raise ParameterError(f"k = {k} outside 0..{seq.k_max}")
    if radius < 0:
        raise InvalidScale(f"radius must be >= 0, got {radius}")
    e = np.zeros(1)
    _alone(_tilde, seq, f, int(k), np.array([seq.space.check_id(center)]), radius, e.__setitem__)
    return float(e[0])


def calderon_maximal(space, seq: MeasureSequence, f, eval_ids=None) -> np.ndarray:
    """Scale-penalized maximal deviation sup_r (1/r) E~ at dyadic r in
    [scale_floor, 1], evaluated at the given points (default: S).  Scales
    run from fine to coarse; a deviation is at most half the oscillation of
    f over S, so where the running maximum reaches 2^j times that (inflated
    against round-off) scale 2^-j and coarser ones cannot raise it."""
    ids, back = np.unique(seq.support_ids if eval_ids is None else space.check_ids(eval_ids), return_inverse=True)
    return _alone(_calderon, seq, f, ids)[back]


@_shared
def _calderon(ps, seq: MeasureSequence, f, ids: np.ndarray) -> np.ndarray:
    """``calderon_maximal`` at sorted unique ids, filled as ps passes its
    radii: each scale reads the centres still below its bound then."""
    f_on_s = ps.order(seq.neighbors, f)[0]
    bound = np.ptp(f_on_s) / 2.0 * (1.0 + 1e-9) if np.all(np.isfinite(f_on_s)) else math.inf
    out = np.zeros(ids.size)
    for j in range(seq.k_max, -1, -1):

        def put(at, e, j=j):
            out[at] = np.maximum(out[at], 2.0**j * e)

        _tilde(ps, seq, f, j, ids, 2.0 ** (-j), put, lambda j=j: np.flatnonzero(out < 2.0**j * bound))
    return out


def bn_functional(space, seq: MeasureSequence, piecewise: PiecewiseSet, f, p: float, sigma: float,
                  c: Optional[float] = None, k_max: Optional[int] = None) -> FunctionalReport:
    """Besov-type trace functional: L_p part, sharp-maximal part, and the
    porous-set deviation scale sum."""
    return _alone(_bn, space, seq, piecewise, f, p, sigma, c, k_max)


@_shared
def _bn(ps, space, seq: MeasureSequence, piecewise: PiecewiseSet, f, p, sigma, c=None, k_max=None):
    """``bn_functional``'s report thunk."""
    if not (0 < sigma <= 1):
        raise InvalidParameter(f"sigma must lie in (0, 1], got {sigma}")
    if c is not None and sigma >= EPSILON**2 / (4.0 * c):
        warnings.warn(
            f"sigma={sigma} outside the admissible range (0, {EPSILON ** 2 / (4 * c):.4g}) for c={c}",
            stacklevel=2,
        )
    k_max = seq.k_max if k_max is None else k_max
    if not 0 <= k_max <= seq.k_max:
        raise ParameterError(f"k_max = {k_max} outside 0..{seq.k_max}")
    S = seq.support_ids
    f_on_s, order = ps.order(seq.neighbors, f)
    lp = float(np.sum(seq.weights_per_k[0] * np.abs(f_on_s) ** p) ** (1.0 / p))
    masks = porosity_scan(space, S, sigma, [2.0 ** (-k) for k in range(1, k_max + 1)]).porous_points_per_scale
    es = [np.empty(np.count_nonzero(mask)) for mask in masks]
    for k, (mask, e) in enumerate(zip(masks, es), 1):
        mk = seq.weights_per_k[k]
        ps.read(seq.neighbors, 2.0 ** (-k), S[mask], *deviation_reader(mk, f_on_s, order, e.__setitem__))
    sharp_vals = _calderon(ps, seq, f, S)

    def bn():
        scale_p = last = 0.0
        for k, (mask, e) in enumerate(zip(masks, es), 1):
            last = 2.0 ** (k * (p - seq.theta)) * float(np.sum(seq.weights_per_k[k][mask] * e**p))
            scale_p += last
        scale_sum = scale_p ** (1.0 / p)
        sharp = float(np.sum(space.weights[S] * sharp_vals**p) ** (1.0 / p))
        params = {"p": p, "sigma": sigma, "theta": seq.theta, "k_max": k_max,
                  "continuum_mu_s_zero": bool(piecewise.pieces[0].theta > 0)}
        return FunctionalReport("bn", lp + sharp + scale_sum, {"lp": lp, "sharp": sharp, "scale_sum": scale_sum},
                                params, last ** (1.0 / p))

    return bn


# ----------------------------------------------------------------------
# nice families and the packing functional
# ----------------------------------------------------------------------


def _ball_arrays(space, balls) -> tuple:
    """The balls' centres and radii as arrays; a centre that is no point id
    of the space (a coordinate vector, or out of range) is rejected."""
    for ball in balls:
        if not isinstance(ball.center, (int, np.integer)) or not 0 <= ball.center < space.n:
            raise InvalidFamily(f"family ball center {ball.center!r} is not a point id")
    return np.array([b.center for b in balls], dtype=int), np.array([b.radius for b in balls], dtype=float)


def _by_radius(radii: np.ndarray):
    """Per distinct radius, increasing: ``(r, positions of the balls of it)``."""
    for r in _distinct(radii):
        yield float(r), np.flatnonzero(radii == r)


def _member_sets(space, centres: np.ndarray, radii: np.ndarray) -> tuple:
    """Per ball, its sorted member ids and mu(B) as ``space.ball_mass``
    sums it, from one ``space.member_blocks`` call per radius."""
    sets, masses = [None] * radii.size, np.empty(radii.size)
    for r, at in _by_radius(radii):
        for block, indptr, ids, mass in space.member_blocks(centres[at], r):
            masses[at[block]] = mass
            for a, row in zip(at[block].tolist(), csr_rows(indptr, ids)):
                sets[a] = row
    return sets, masses


def _meets(nbrs, centres: np.ndarray, radii) -> np.ndarray:
    """Per centre (a point id): whether its ball meets the subset of nbrs,
    of the radius given per centre or for all; a centre in the subset needs
    no count, the others one count query per radius."""
    meets, radii = _in_sorted(centres, nbrs.ids), np.broadcast_to(radii, centres.shape)
    probe = np.flatnonzero(~meets)
    for r, at in _by_radius(radii[probe]):
        meets[probe[at]] = nbrs.counts_of(centres[probe[at]], r) > 0
    return meets


def validate_nice_family(space, subset_ids, family: NiceFamily):
    """Assert the defining family conditions exactly on the cloud."""
    if family.c < 1:
        raise InvalidFamily("family constant c must be >= 1")
    nbrs = subset_neighbors(space, subset_ids)
    centres, radii = _ball_arrays(space, family.balls)
    if np.any(radii > 1.0 + _EPS):
        raise InvalidFamily(f"ball radius {radii[radii > 1.0 + _EPS][0]} exceeds 1")
    if not _meets(nbrs, centres, family.c * radii).all():
        raise InvalidFamily("a dilated ball misses the subset")
    if family.kind == "whitney" and _meets(nbrs, centres, radii).any():
        raise InvalidFamily("a whitney ball meets the subset")
    # per point, the two lowest indices of the balls holding it, one block
    # of member rows at a time; the first overlapping pair (b, a) in family
    # order has the lowest second index a, and b is the first index there
    first, second = np.full(space.n, radii.size), np.full(space.n, radii.size)
    for r, at in _by_radius(radii):
        for block, indptr, ids, _ in space.member_blocks(centres[at], r):
            _two_lowest(first, second, np.repeat(at[block], np.diff(indptr)), ids, radii.size + 1)
    a = int(second.min())
    if a < radii.size:
        raise InvalidFamily(f"balls {int(first[second == a].min())} and {a} share cloud points")


def _two_lowest(first: np.ndarray, second: np.ndarray, balls: np.ndarray, points: np.ndarray, k: int):
    """Merge the (ball, point) pairs into each point's two lowest ball
    indices so far, in place; k - 1 is the fill value, above every ball."""
    keys = points * k
    keys += balls
    keys.sort()
    at = keys // k
    head = np.flatnonzero(np.concatenate(([True], at[1:] != at[:-1])))
    # per point, its lowest and next lowest ball of the pairs (or k - 1)
    ids, low, low2 = at[head], keys[head] % k, np.full(head.size, k - 1)
    two = np.flatnonzero(np.diff(np.append(head, keys.size)) > 1)
    low2[two] = keys[head[two] + 1] % k
    was = first[ids]
    first[ids] = np.minimum(was, low)
    second[ids] = np.minimum(np.maximum(was, low), np.minimum(second[ids], low2))


def enumerate_or_search_nice_family(
    space,
    subset_ids,
    c: float,
    budget: int,
    term_fn: Optional[Callable[[list, np.ndarray], np.ndarray]] = None,
    kind: str = "nice",
    candidates: Optional[Sequence[Ball]] = None,
    method: str = "greedy",
    radii: Optional[Sequence[float]] = None,
) -> NiceFamily:
    """Build a valid family maximizing the sum of per-ball terms.

    ``term_fn(balls, masses)`` takes the list of pool balls (the candidates
    whose c-dilation meets the subset) and their masses mu(B), summed over
    the member sets the search reads anyway (one ``space.member_blocks``
    call per radius) as ``space.ball_mass`` sums them, and returns their
    terms as one array, in list order; the default term is the mass.
    Candidates default to balls on separated nets of the subset with
    matching dyadic radii (pass ``radii`` to pin the scale range, e.g. for
    cross-resolution comparisons).  Greedy adds the best-scoring disjoint
    ball up to the budget.  No swap of one candidate for the chosen balls
    it meets can gain: candidates come in order of decreasing term, so
    each chosen ball it meets scores at least as much.  ``method='exact'``
    (pools of at most 16 candidates) maximises the summed positive terms
    as a 0-1 program solved by HiGHS, each cloud point in at most one ball
    and at most ``budget`` balls, returning the balls in pool order (of tied
    optima, HiGHS's pick); the tests hold it to an enumeration at rel 1e-12.
    """
    if c < 1:
        raise InvalidParameter("nice families need c >= 1")
    if method not in ("greedy", "exact"):
        raise InvalidParameter(f"unknown method {method!r}")
    if kind not in ("nice", "whitney"):
        raise InvalidParameter(f"unknown kind {kind!r}")
    subset_ids = _distinct(np.asarray(subset_ids, dtype=int))
    if budget <= 0:
        return NiceFamily(balls=[], c=float(c), kind=kind)
    if candidates is None:
        candidates = [Ball(x, r) for x, r in zip(*(a.tolist() for a in _net_balls(space, subset_ids, radii)))]
    nbrs = subset_neighbors(space, subset_ids)
    centres, sizes = _ball_arrays(space, candidates)
    keep = (sizes <= 1.0 + _EPS) & _meets(nbrs, centres, c * sizes)
    if kind == "whitney":
        keep &= ~_meets(nbrs, centres, sizes)
    pool = [b for b, k in zip(candidates, keep) if k]
    member_sets, masses = _member_sets(space, centres[keep], sizes[keep])
    terms = masses if term_fn is None else np.asarray(term_fn(pool, masses), dtype=float)

    if method == "exact":
        if len(pool) > 16:
            raise InvalidParameter("exact family search limited to 16 candidates")
        # each cloud point (row < n) in at most one ball, at most budget balls (row n)
        pos = np.flatnonzero(terms > 0)
        chosen = _zero_one_program(-terms[pos], [np.append(member_sets[i], space.n) for i in pos],
                                   space.n + 1, 0, np.append(np.ones(space.n), budget))
        return NiceFamily(balls=[pool[i] for i in pos[chosen]], c=float(c), kind=kind)

    order = sorted(
        range(len(pool)),
        key=lambda i: (-terms[i], int(pool[i].center), pool[i].radius),
    )
    taken = np.zeros(space.n, dtype=bool)
    chosen: list[int] = []
    for i in order:
        if len(chosen) >= budget or terms[i] <= 0:
            break
        if not taken[member_sets[i]].any():
            chosen.append(i)
            taken[member_sets[i]] = True
    chosen.sort()
    return NiceFamily(balls=[pool[i] for i in chosen], c=float(c), kind=kind)


def _net_balls(space, subset_ids, radii=None) -> tuple:
    """Centres and radii of the balls on separated nets of the subset, one
    net per radius at most 1 (default the dyadic radii 1, ..., 2^-k_max)."""
    radii = [2.0 ** (-j) for j in range(default_k_max(space) + 1)] if radii is None else \
        [r for r in radii if r <= 1.0 + _EPS]
    nets = [separated_net(space, subset_ids, k_of_r(r), maximal=False).points for r in radii]
    return (np.concatenate([np.zeros(0, dtype=int), *nets]),
            np.repeat(np.asarray(radii, dtype=float), [net.size for net in nets]))


@_shared
def _bsn_pool(ps, space, seq: MeasureSequence, radii) -> tuple:
    """``_net_balls`` of S, made once per pass: a searched family's pool (a
    ball centred in S meets S at every dilation, so the search keeps all)."""
    return _net_balls(space, seq.support_ids, radii)


def _terms(ps, space, seq: MeasureSequence, f, p: float, c: float, centres: np.ndarray, radii: np.ndarray):
    """A thunk of the balls' terms mu(B)/r^p E~^p, E~ read on ps at the scale
    matched to each radius; mu(B) is given, or one ``space.ball_masses`` call
    per radius sums it, in the search's (``space.ball_mass``'s) rounding."""
    if np.any(radii < space.scale_floor - _EPS):
        raise ResolutionError(f"family radius {radii.min()} below scale_floor")
    e = np.zeros(radii.size)
    for r, at in _by_radius(radii):
        _tilde(ps, seq, f, min(k_of_r(r), seq.k_max), centres[at], c * r,
               lambda a, got, at=at: e.__setitem__(at[a], got))

    def terms(mass=None):
        if mass is None:
            mass = np.empty(radii.size)
            for r, at in _by_radius(radii):
                mass[at] = space.ball_masses(centres[at], r)
        return mass / radii**p * e**p

    return terms


def bsn_terms(space, seq: MeasureSequence, f, p: float, c: float, balls) -> np.ndarray:
    """Per ball: mu(B)/r^p times the p-th power of the dilated-ball
    deviation E~ at the scale matched to the radius."""
    return _alone(_terms, space, seq, f, p, c, *_ball_arrays(space, balls))


def bsn_functional(space, seq: MeasureSequence, f, p: float, c: float, family: Optional[NiceFamily] = None,
                   search_budget: int = 256, search_radii: Optional[Sequence[float]] = None) -> FunctionalReport:
    """Packing-type trace functional over one nice family (supplied or
    found by search); the searched value is a lower bound of the true
    supremum.  ``search_radii`` pins the candidate scale range, which
    keeps the lower bound comparable across resolutions."""
    return _alone(_bsn, space, seq, f, p, c, family, search_budget, search_radii)


@_shared
def _bsn(ps, space, seq: MeasureSequence, f, p: float, c: float, family=None, budget: int = 256, radii=None):
    """``bsn_functional``'s report thunk.  E~ is read on ps for the family's
    balls, or for the pool's, shared by the bsn of a pass; the family is
    searched in the thunk, and sup sums the search's own terms at it."""
    if c < 1:
        raise InvalidParameter("c must be >= 1")
    if c < 3.0 / EPSILON - _EPS:
        warnings.warn(f"c={c} below the admissible threshold {3.0 / EPSILON}", stacklevel=2)
    lp = float(np.sum(seq.weights_per_k[0] * np.abs(ps.order(seq.neighbors, f)[0]) ** p) ** (1.0 / p))
    if family is None:
        centres, radii = _bsn_pool(ps, space, seq, radii)
    else:
        validate_nice_family(space, seq.support_ids, family)
        centres, radii = _ball_arrays(space, family.balls)
    terms = _terms(ps, space, seq, f, p, c, centres, radii)

    def report():
        chosen, got = family, None
        if family is None:
            pool, found = [Ball(x, r) for x, r in zip(centres.tolist(), radii.tolist())], {}
            chosen = enumerate_or_search_nice_family(space, seq.support_ids, c, budget, candidates=pool,
                                                     term_fn=lambda _, mass: found.setdefault("terms", terms(mass)))
            at = {id(b): i for i, b in enumerate(pool)}
            got = [found["terms"][at[id(b)]] for b in chosen.balls]
        sup = float(np.sum(terms() if got is None else got)) ** (1.0 / p)
        return FunctionalReport("bsn", lp + sup, {"lp": lp, "sup": sup},
                                {"p": p, "c": c, "family_size": len(chosen.balls), "searched": family is None})

    return report


# ----------------------------------------------------------------------
# difficult-case machinery
# ----------------------------------------------------------------------


def sharp_mu_s1(space, piecewise: PiecewiseSet, f, r_top: float = 2.0) -> np.ndarray:
    """Plain maximal deviation against mu on the codimension-zero piece,
    over dyadic radii in (0, r_top], one value per point of S."""
    return _alone(_sharp_mu_s1, space, piecewise, f, r_top)


@_shared
def _sharp_mu_s1(ps, space, piecewise: PiecewiseSet, f, r_top: float = 2.0) -> np.ndarray:
    """``sharp_mu_s1``, filled when ps has passed its radii."""
    if abs(piecewise.pieces[0].theta) > 1e-12:
        raise ParameterError("sharp maximal function needs theta_1 = 0")
    nbrs1 = subset_neighbors(space, piecewise.pieces[0].ids)
    vals, order = ps.order(nbrs1, f)
    out = np.zeros(piecewise.union_ids.size)

    def put(at, dev):
        out[at] = np.maximum(out[at], dev)

    for rr in dyadic_radii(r_top, space.scale_floor):
        ps.read(nbrs1, rr, piecewise.union_ids, *deviation_reader(space.weights[nbrs1.ids], vals, order, put))
    return out


def sharp_norm_s1(space, piecewise: PiecewiseSet, f, p: float) -> float:
    """L_p(mu) norm of ``sharp_mu_s1`` over the codimension-zero piece."""
    return _alone(_sharp_norm_s1, space, piecewise, f, p)


def _sharp_norm_s1(ps, space, piecewise: PiecewiseSet, f, p: float):
    """``sharp_norm_s1``'s thunk."""
    s1, sharp = piecewise.pieces[0], _sharp_mu_s1(ps, space, piecewise, f, 2.0)
    on_s1 = np.isin(piecewise.union_ids, s1.ids, assume_unique=True)
    return lambda: float(np.sum(space.weights[s1.ids] * sharp[on_s1] ** p) ** (1.0 / p))


def combinatorial_expand(space, piecewise: PiecewiseSet, ball: Ball, c: float):
    """Grow the dilation factor until no unseen piece appears.

    Returns ``(index_set, i_bar, witnesses)`` where every piece in the
    index set has a witness x_i with B(x_i, r) inside (c + i_bar) B and the
    enlarged ball misses every other piece.
    """
    if c < 1:
        raise InvalidParameter("c must be >= 1")
    r = ball.radius
    base_members = space.members(ball.center, c * r)
    if not np.any(_in_sorted(base_members, piecewise.union_ids)):
        raise InvalidParameter("c-dilated ball must meet S")
    piece_sets = [pc.ids for pc in piecewise.pieces]
    for l in range(piecewise.N + 1):
        inner = space.members(ball.center, (c + l) * r)
        current = frozenset(i for i, ids in enumerate(piece_sets) if np.any(_in_sorted(inner, ids)))
        outer = space.members(ball.center, (c + l + 1) * r)
        new = frozenset(i for i, ids in enumerate(piece_sets) if np.any(_in_sorted(outer, ids)))
        if new == current:
            witnesses = {}
            for i in sorted(current):
                hits = inner[_in_sorted(inner, piece_sets[i])]
                witnesses[i] = int(hits[0])
            return sorted(current), l + 1, witnesses
    raise AssertionError("expansion failed to stop within N+1 steps")  # unreachable


# ----------------------------------------------------------------------
# assembled trace norms
# ----------------------------------------------------------------------


def trace_norm_simple(space, piecewise: PiecewiseSet, f, p: float, l: int = 1,
                      k_max: Optional[int] = None) -> FunctionalReport:
    """Per-piece Besov norms at the trace smoothness plus a gluing term;
    only valid when every codimension is positive."""
    return _alone(_trace_norm_simple, space, piecewise, f, p, l, k_max)


def _trace_norm_simple(ps, space, piecewise: PiecewiseSet, f, p: float, l: int = 1, k_max=None):
    """``trace_norm_simple``'s report thunk."""
    if piecewise.pieces[0].theta <= 0:
        raise ParameterError("simple-case norm needs theta_1 > 0 (use trace_norm_difficult)")
    if piecewise.theta_S >= p:
        raise ParameterError(f"theta(S) = {piecewise.theta_S} must be < p = {p}")
    parts = [_besov(ps, space, pc, f, 1.0 - pc.theta / p, p, k_max, "besov") for pc in piecewise.pieces]
    parts.append(_gluing(ps, space, piecewise, f, p, l, k_max))

    def report():
        reps, names = [part() for part in parts], [f"besov_{i + 1}" for i in range(piecewise.N)] + [f"gl{l}"]
        value = tail = 0.0
        for rep in reps:
            value += rep.value
            tail = max(tail, rep.truncation_tail)
        return FunctionalReport("trace_simple", value, {n: rep.value for n, rep in zip(names, reps)},
                                {"p": p, "l": l, "theta": piecewise.theta_S}, tail)

    return report


def trace_norm_difficult(space, piecewise: PiecewiseSet, f, p: float, k_max: Optional[int] = None) -> FunctionalReport:
    """Mixed-nature trace norm for two pieces with theta_1 = 0: L_p and
    sharp-maximal parts on the fat piece, a Besov norm on the thin piece,
    and the doubly averaged gluing term."""
    return _alone(_trace_norm_difficult, space, piecewise, f, p, k_max)


def _trace_norm_difficult(ps, space, piecewise: PiecewiseSet, f, p: float, k_max=None):
    """``trace_norm_difficult``'s report thunk."""
    if piecewise.N != 2:
        raise ParameterError("difficult-case norm needs exactly two pieces")
    th1, th2 = piecewise.pieces[0].theta, piecewise.pieces[1].theta
    if abs(th1) > 1e-12 or th2 <= 0:
        raise ParameterError("difficult-case norm needs theta_1 = 0 < theta_2")
    if th2 >= p:
        raise ParameterError(f"theta_2 = {th2} must be < p = {p}")
    s1 = piecewise.pieces[0]
    lp_s1 = float(np.sum(space.weights[s1.ids] * np.abs(_values(f)[s1.ids]) ** p) ** (1.0 / p))
    gl = _gluing(ps, space, piecewise, f, p, 3, k_max)
    sharp = _sharp_norm_s1(ps, space, piecewise, f, p)
    bes = _besov(ps, space, piecewise.pieces[1], f, 1.0 - th2 / p, p, k_max, "besov")

    def report():
        parts = {"lp_s1": lp_s1, "sharp_s1": sharp(), "besov_s2": bes().value, "gl3": gl().value}
        return FunctionalReport("trace_difficult", lp_s1 + parts["sharp_s1"] + parts["besov_s2"] + parts["gl3"],
                                parts, {"p": p, "theta": piecewise.theta_S},
                                max(bes().truncation_tail, gl().truncation_tail))

    return report
