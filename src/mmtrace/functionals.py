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

from ._neighbors import centred_means, csr_rows, pair_abs_diffs, row_deviations, subset_neighbors
from .content import _zero_one_program
from .errors import (
    InvalidFamily,
    InvalidPair,
    InvalidParameter,
    InvalidPoint,
    ParameterError,
    ResolutionError,
    ZeroMass,
)
# weighted_stats is unused here but stays bound: perfbench/smoke.py checks it
from .measures import EPSILON, MeasureSequence, default_k_max, weighted_stats
from .regularity import PiecewiseSet, SubsetPiece, porosity_scan
from .space import _EPS, Ball, _pad, dyadic_radii, k_of_r, separated_net


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


# ----------------------------------------------------------------------
# piece-level machinery
# ----------------------------------------------------------------------


def averaging_single(space, piece: SubsetPiece, f, k: int) -> np.ndarray:
    """Ball averages of f over the piece at scale 2^-k, one per piece point.

    Averages are computed relative to the center value, so constants pass
    through exactly."""
    vals = _values(f)[piece.ids]
    balls = subset_neighbors(space, piece.ids).self_lists(2.0 ** (-int(k)))
    return vals + centred_means(balls, piece.weights, vals, lambda d: d)


def averaging_double(space, piece_i: SubsetPiece, piece_j: SubsetPiece, f, k: int, y: int, z: int) -> float:
    """Double ball average of |f(y') - f(z')| for a pair in the proximity set."""
    r = 2.0 ** (-int(k))
    if space.distance(int(y), int(z)) > _pad(r):
        raise InvalidPair(f"d({y},{z}) exceeds 2^-{k}")
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
    my, mz = space.masses_at_radius(r, [int(y), int(z)])
    if my <= 0 or mz <= 0:
        raise ZeroMass("weight undefined on a zero-mass ball")
    return 0.5 * (1.0 / my + 1.0 / mz)


# ----------------------------------------------------------------------
# Besov norms on a single piece
# ----------------------------------------------------------------------


def _besov(space, piece: SubsetPiece, f, s: float, p: float, k_max, name: str, inner) -> FunctionalReport:
    """L_p part plus sum_{k>=1} 2^(k s p) sum_x h_x I_k(x), where
    ``inner(balls, h, vals)`` gives I_k from the piece's 2^-k balls."""
    if not (0 < s < 1):
        raise ParameterError(f"s must lie in (0, 1), got {s}")
    if k_max is None:
        k_max = default_k_max(space)
    vals = _values(f)[piece.ids]
    h = piece.weights
    lp = float(np.sum(h * np.abs(vals) ** p) ** (1.0 / p))
    nbrs = subset_neighbors(space, piece.ids)
    semi_p = 0.0
    last = 0.0
    for k in range(1, k_max + 1):
        term = float(np.sum(h * inner(nbrs.self_lists(2.0 ** (-k)), h, vals)))
        last = 2.0 ** (k * s * p) * term
        semi_p += last
    semi = semi_p ** (1.0 / p)
    return FunctionalReport(
        name=name,
        value=lp + semi,
        parts={"lp": lp, "seminorm": semi},
        params={"s": s, "p": p, "theta": piece.theta, "k_max": k_max},
        truncation_tail=last ** (1.0 / p),
    )


def besov_norm(space, piece: SubsetPiece, f, s: float, p: float, k_max: Optional[int] = None) -> FunctionalReport:
    """Besov norm of smoothness s: L_p part plus the deviation scale sum."""
    return _besov(
        space, piece, f, s, p, k_max, "besov",
        lambda balls, h, vals: row_deviations(balls, h, vals) ** p,
    )


def besov_norm_alt(space, piece: SubsetPiece, f, s: float, p: float, k_max: Optional[int] = None) -> FunctionalReport:
    """Alternative Besov form with the double-average inner term."""
    return _besov(
        space, piece, f, s, p, k_max, "besov_alt",
        lambda balls, h, vals: centred_means(balls, h, vals, lambda d: np.abs(d) ** p),
    )


# ----------------------------------------------------------------------
# gluing functionals
# ----------------------------------------------------------------------


def gluing(
    space,
    piecewise: PiecewiseSet,
    f,
    p: float,
    which: int,
    k_max: Optional[int] = None,
) -> FunctionalReport:
    """Cross-piece gluing functional; ``which`` selects the raw (1),
    averaged (2), or doubly averaged (3) mismatch term.  The cross-piece
    pairs within 2^-k are found once per scale and piece pair."""
    if which not in (1, 2, 3):
        raise InvalidParameter("which must be 1, 2, or 3")
    if k_max is None:
        k_max = default_k_max(space)
    params = {"p": p, "which": which, "k_max": k_max}
    if piecewise.N == 1:
        return FunctionalReport(
            name=f"gl{which}", value=0.0,
            parts={"total_p": 0.0}, params={**params, "note": "single piece, no cross pairs"},
        )
    if not (1 < p < math.inf):
        raise ParameterError("p must lie in (1, inf)")
    vals = _values(f)
    pieces = piecewise.pieces
    nbrs = [subset_neighbors(space, pc.ids) for pc in pieces]
    total_p = 0.0
    last_k_term = 0.0
    piece_vals = [vals[pc.ids] for pc in pieces]

    for k in range(1, k_max + 1):
        r = 2.0 ** (-k)
        mu_r = [space.masses_at_radius(r, pc.ids) for pc in pieces]
        if which == 2:
            avg = [averaging_single(space, pc, vals, k) for pc in pieces]
        if which == 3:
            # shift by a reference value: |g - g'| is shift-invariant and
            # constants then cancel exactly in the prefix sums
            ref = float(vals[pieces[0].ids[0]])
            shifted = [pv - ref for pv in piece_vals]
            balls = [nb.self_lists(r) for nb in nbrs]
            masses = [nb.self_sums(r, pc.weights) for nb, pc in zip(nbrs, pieces)]
        k_term = 0.0
        for i in range(piecewise.N):
            for j in range(i + 1, piecewise.N):
                ia, ib = nbrs[i].cross_pairs(nbrs[j], r)
                if ia.size == 0:
                    continue
                w_pair = 1.0 / np.sqrt(mu_r[i][ia] * mu_r[j][ib])
                hh = pieces[i].weights[ia] * pieces[j].weights[ib]
                if which == 1:
                    term = np.abs(piece_vals[i][ia] - piece_vals[j][ib]) ** p
                elif which == 2:
                    term = np.abs(avg[i][ia] - avg[j][ib]) ** p
                else:
                    num = pair_abs_diffs(
                        balls[i], pieces[i].weights, shifted[i],
                        balls[j], pieces[j].weights, shifted[j], ia, ib,
                    )
                    term = (num / (masses[i][ia] * masses[j][ib])) ** p
                scale = 2.0 ** (k * (p - pieces[i].theta - pieces[j].theta))
                # the ordered (i, j) + (j, i) sum is twice the i < j sum
                k_term += 2.0 * scale * float(np.sum(hh * w_pair * term))
        total_p += k_term
        last_k_term = k_term
    value = total_p ** (1.0 / p)
    return FunctionalReport(
        name=f"gl{which}",
        value=value,
        parts={"total_p": total_p},
        params=params,
        truncation_tail=last_k_term ** (1.0 / p),
    )


# ----------------------------------------------------------------------
# maximal functions and the Besov-type functional
# ----------------------------------------------------------------------


def _tilde_es(seq: MeasureSequence, f_on_s: np.ndarray, k: int, centres, radius: float) -> np.ndarray:
    """E~ per space point id in centres: the m_k deviation of f|S on the
    doubled ball, or zero where the radius-ball misses S.  A point of S lies
    in its own ball, so only the other centres are probed."""
    centres = np.asarray(centres, dtype=int)
    meets = np.isin(centres, seq.support_ids)
    probe = np.flatnonzero(~meets)
    meets[probe] = seq.neighbors.counts_of(centres[probe], radius) > 0
    live = np.flatnonzero(meets)
    out = np.zeros(centres.size)
    if live.size:
        out[live] = seq.neighbors.deviations_of(centres[live], 2.0 * radius, seq.weights_per_k[k], f_on_s)
    return out


def tilde_e(seq: MeasureSequence, f, k: int, center, radius: float) -> float:
    """Deviation on the doubled ball, or zero when the ball misses S; the
    center is a point id."""
    if not isinstance(center, (int, np.integer)):
        raise InvalidPoint(f"tilde_e needs a point id center, got {center!r}")
    centres = [seq.space.check_id(center)]
    return float(_tilde_es(seq, _values(f)[seq.support_ids], int(k), centres, radius)[0])


def calderon_maximal(space, seq: MeasureSequence, f, eval_ids=None) -> np.ndarray:
    """Scale-penalized maximal deviation sup_r (1/r) E~ at dyadic r in
    [scale_floor, 1], evaluated at the given points (default: S).  Scales
    run from fine to coarse; a deviation is at most half the oscillation of
    f over S, so where the running maximum reaches 2^j times that (inflated
    against round-off) scale 2^-j and coarser ones cannot raise it."""
    ids = seq.support_ids if eval_ids is None else space.check_ids(eval_ids)
    f_on_s = _values(f)[seq.support_ids]
    bound = np.ptp(f_on_s) / 2.0 * (1.0 + 1e-9) if np.all(np.isfinite(f_on_s)) else math.inf
    out = np.zeros(ids.size)
    for j in range(seq.k_max, -1, -1):
        live = np.flatnonzero(out < 2.0**j * bound)
        if not live.size:
            break
        e = 2.0**j * _tilde_es(seq, f_on_s, j, ids[live], 2.0 ** (-j))
        out[live] = np.maximum(out[live], e)
    return out


def bn_functional(
    space,
    seq: MeasureSequence,
    piecewise: PiecewiseSet,
    f,
    p: float,
    sigma: float,
    c: Optional[float] = None,
    k_max: Optional[int] = None,
) -> FunctionalReport:
    """Besov-type trace functional: L_p part, sharp-maximal part, and the
    porous-set deviation scale sum."""
    if not (0 < sigma <= 1):
        raise InvalidParameter(f"sigma must lie in (0, 1], got {sigma}")
    if c is not None and sigma >= EPSILON**2 / (4.0 * c):
        warnings.warn(
            f"sigma={sigma} outside the admissible range (0, {EPSILON ** 2 / (4 * c):.4g}) for c={c}",
            stacklevel=2,
        )
    if k_max is None:
        k_max = seq.k_max
    vals = _values(f)
    S = seq.support_ids
    f_on_s = vals[S]
    m0 = seq.weights_per_k[0]
    lp = float(np.sum(m0 * np.abs(f_on_s) ** p) ** (1.0 / p))

    # the scale sum caches the sweeps that calderon_maximal then reads
    r_grid = [2.0 ** (-k) for k in range(1, k_max + 1)]
    report = porosity_scan(space, S, sigma, r_grid)
    scale_p = 0.0
    last = 0.0
    for k in range(1, k_max + 1):
        mask = report.porous_points_per_scale[k - 1]
        mk = seq.weights_per_k[k]
        e = row_deviations(seq.neighbors.self_lists(2.0 ** (-k)), mk, f_on_s)
        last = 2.0 ** (k * (p - seq.theta)) * float(np.sum(mk[mask] * e[mask] ** p))
        scale_p += last
    scale_sum = scale_p ** (1.0 / p)
    sharp_vals = calderon_maximal(space, seq, f)
    sharp = float(np.sum(space.weights[S] * sharp_vals**p) ** (1.0 / p))
    theta1 = piecewise.pieces[0].theta
    return FunctionalReport(
        name="bn",
        value=lp + sharp + scale_sum,
        parts={"lp": lp, "sharp": sharp, "scale_sum": scale_sum},
        params={
            "p": p,
            "sigma": sigma,
            "theta": seq.theta,
            "k_max": k_max,
            "continuum_mu_s_zero": bool(theta1 > 0),
        },
        truncation_tail=last ** (1.0 / p),
    )


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
    for r in np.unique(radii):
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


def _meets(nbrs, centres: np.ndarray, radii: np.ndarray, scale: float) -> np.ndarray:
    """Per ball: whether its scale-dilation meets the subset of nbrs, from
    one count query per radius."""
    out = np.zeros(centres.size, dtype=bool)
    for r, at in _by_radius(radii):
        out[at] = nbrs.counts_of(centres[at], scale * r) > 0
    return out


def validate_nice_family(space, subset_ids, family: NiceFamily):
    """Assert the defining family conditions exactly on the cloud."""
    if family.c < 1:
        raise InvalidFamily("family constant c must be >= 1")
    nbrs = subset_neighbors(space, subset_ids)
    centres, radii = _ball_arrays(space, family.balls)
    if np.any(radii > 1.0 + _EPS):
        raise InvalidFamily(f"ball radius {radii[radii > 1.0 + _EPS][0]} exceeds 1")
    if not _meets(nbrs, centres, radii, family.c).all():
        raise InvalidFamily("a dilated ball misses the subset")
    if family.kind == "whitney" and _meets(nbrs, centres, radii, 1.0).any():
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
    subset_ids = np.unique(np.asarray(subset_ids, dtype=int))
    if budget <= 0:
        return NiceFamily(balls=[], c=float(c), kind=kind)
    if candidates is None:
        if radii is None:
            radii = [2.0 ** (-j) for j in range(default_k_max(space) + 1)]
        candidates = []
        for r in radii:
            net = separated_net(space, subset_ids, k_of_r(r), maximal=False)
            for x in net.points:
                candidates.append(Ball(int(x), float(r)))
    nbrs = subset_neighbors(space, subset_ids)
    centres, sizes = _ball_arrays(space, candidates)
    keep = (sizes <= 1.0 + _EPS) & _meets(nbrs, centres, sizes, c)
    if kind == "whitney":
        keep &= ~_meets(nbrs, centres, sizes, 1.0)
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


def bsn_terms(space, seq: MeasureSequence, f, p: float, c: float, balls) -> np.ndarray:
    """Per ball: mu(B)/r^p times the p-th power of the dilated-ball
    deviation E~ at the scale matched to the radius, from one E~ call per
    radius.  mu(B) comes from one ``space.ball_masses`` call per radius,
    in the rounding of ``space.ball_mass`` that the greedy family search
    has always ordered its ties by."""
    centres, radii = _ball_arrays(space, balls)
    mu = np.empty(radii.size)
    for r, at in _by_radius(radii):
        mu[at] = space.ball_masses(centres[at], r)
    return _bsn_terms(space, seq, f, p, c, balls, mu)


def _bsn_terms(space, seq: MeasureSequence, f, p: float, c: float, balls, mu: np.ndarray) -> np.ndarray:
    """``bsn_terms`` with the balls' masses given."""
    centres, radii = _ball_arrays(space, balls)
    if np.any(radii < space.scale_floor - _EPS):
        raise ResolutionError(f"family radius {radii.min()} below scale_floor")
    f_on_s = _values(f)[seq.support_ids]
    e = np.zeros(radii.size)
    for r in np.unique(radii):
        at = np.flatnonzero(radii == r)
        e[at] = _tilde_es(seq, f_on_s, min(k_of_r(r), seq.k_max), centres[at], c * r)
    return mu / radii**p * e**p


def bsn_functional(
    space,
    seq: MeasureSequence,
    f,
    p: float,
    c: float,
    family: Optional[NiceFamily] = None,
    search_budget: int = 256,
    search_radii: Optional[Sequence[float]] = None,
) -> FunctionalReport:
    """Packing-type trace functional over one nice family (supplied or
    found by search); the searched value is a lower bound of the true
    supremum.  ``search_radii`` pins the candidate scale range, which
    keeps the lower bound comparable across resolutions."""
    if c < 1:
        raise InvalidParameter("c must be >= 1")
    if c < 3.0 / EPSILON - _EPS:
        warnings.warn(f"c={c} below the admissible threshold {3.0 / EPSILON}", stacklevel=2)
    S = seq.support_ids
    vals = _values(f)
    lp = float(np.sum(seq.weights_per_k[0] * np.abs(vals[S]) ** p) ** (1.0 / p))
    searched = family is None
    if family is None:
        family = enumerate_or_search_nice_family(
            space,
            S,
            c,
            budget=search_budget,
            term_fn=lambda balls, masses: _bsn_terms(space, seq, f, p, c, balls, masses),
            radii=search_radii,
        )
    else:
        validate_nice_family(space, S, family)
    sup_part = float(np.sum(bsn_terms(space, seq, f, p, c, family.balls))) ** (1.0 / p)
    return FunctionalReport(
        name="bsn",
        value=lp + sup_part,
        parts={"lp": lp, "sup": sup_part},
        params={"p": p, "c": c, "family_size": len(family.balls), "searched": searched},
    )


# ----------------------------------------------------------------------
# difficult-case machinery
# ----------------------------------------------------------------------


def sharp_mu_s1(space, piecewise: PiecewiseSet, f, r_top: float = 2.0) -> np.ndarray:
    """Plain maximal deviation against mu on the codimension-zero piece,
    over dyadic radii in (0, r_top], one value per point of S."""
    if abs(piecewise.pieces[0].theta) > 1e-12:
        raise ParameterError("sharp maximal function needs theta_1 = 0")
    nbrs1 = subset_neighbors(space, piecewise.pieces[0].ids)
    mu1 = space.weights[nbrs1.ids]
    vals = _values(f)[nbrs1.ids]
    out = np.zeros(piecewise.union_ids.size)
    for rr in dyadic_radii(r_top, space.scale_floor):
        np.maximum(out, nbrs1.deviations_of(piecewise.union_ids, rr, mu1, vals), out=out)
    return out


def sharp_norm_s1(space, piecewise: PiecewiseSet, f, p: float) -> float:
    """L_p(mu) norm of ``sharp_mu_s1`` over the codimension-zero piece."""
    s1 = piecewise.pieces[0]
    on_s1 = np.isin(piecewise.union_ids, s1.ids, assume_unique=True)
    sharp = sharp_mu_s1(space, piecewise, f)[on_s1]
    return float(np.sum(space.weights[s1.ids] * sharp**p) ** (1.0 / p))


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
    if not np.any(np.isin(base_members, piecewise.union_ids)):
        raise InvalidParameter("c-dilated ball must meet S")
    piece_sets = [pc.ids for pc in piecewise.pieces]
    for l in range(piecewise.N + 1):
        inner = space.members(ball.center, (c + l) * r)
        current = frozenset(
            i for i, ids in enumerate(piece_sets) if np.any(np.isin(inner, ids, assume_unique=False))
        )
        outer = space.members(ball.center, (c + l + 1) * r)
        new = frozenset(
            i for i, ids in enumerate(piece_sets) if np.any(np.isin(outer, ids, assume_unique=False))
        )
        if new == current:
            witnesses = {}
            for i in sorted(current):
                hits = inner[np.isin(inner, piece_sets[i], assume_unique=False)]
                witnesses[i] = int(hits[0])
            return sorted(current), l + 1, witnesses
    raise AssertionError("expansion failed to stop within N+1 steps")  # unreachable


# ----------------------------------------------------------------------
# assembled trace norms
# ----------------------------------------------------------------------


def trace_norm_simple(
    space,
    piecewise: PiecewiseSet,
    f,
    p: float,
    l: int = 1,
    k_max: Optional[int] = None,
) -> FunctionalReport:
    """Per-piece Besov norms at the trace smoothness plus a gluing term;
    only valid when every codimension is positive."""
    if piecewise.pieces[0].theta <= 0:
        raise ParameterError("simple-case norm needs theta_1 > 0 (use trace_norm_difficult)")
    if piecewise.theta_S >= p:
        raise ParameterError(f"theta(S) = {piecewise.theta_S} must be < p = {p}")
    parts = {}
    tail = 0.0
    value = 0.0
    for i, pc in enumerate(piecewise.pieces):
        rep = besov_norm(space, pc, f, 1.0 - pc.theta / p, p, k_max=k_max)
        parts[f"besov_{i + 1}"] = rep.value
        value += rep.value
        tail = max(tail, rep.truncation_tail)
    gl = gluing(space, piecewise, f, p, which=l, k_max=k_max)
    parts[f"gl{l}"] = gl.value
    value += gl.value
    tail = max(tail, gl.truncation_tail)
    return FunctionalReport(
        name="trace_simple",
        value=value,
        parts=parts,
        params={"p": p, "l": l, "theta": piecewise.theta_S},
        truncation_tail=tail,
    )


def trace_norm_difficult(
    space,
    piecewise: PiecewiseSet,
    f,
    p: float,
    k_max: Optional[int] = None,
) -> FunctionalReport:
    """Mixed-nature trace norm for two pieces with theta_1 = 0: L_p and
    sharp-maximal parts on the fat piece, a Besov norm on the thin piece,
    and the doubly averaged gluing term."""
    if piecewise.N != 2:
        raise ParameterError("difficult-case norm needs exactly two pieces")
    th1, th2 = piecewise.pieces[0].theta, piecewise.pieces[1].theta
    if abs(th1) > 1e-12 or th2 <= 0:
        raise ParameterError("difficult-case norm needs theta_1 = 0 < theta_2")
    if th2 >= p:
        raise ParameterError(f"theta_2 = {th2} must be < p = {p}")
    s1 = piecewise.pieces[0]
    mu1 = space.weights[s1.ids]
    vals = _values(f)
    lp_s1 = float(np.sum(mu1 * np.abs(vals[s1.ids]) ** p) ** (1.0 / p))
    # gl3 caches the fat piece's sweeps that sharp_mu_s1 then reads
    gl = gluing(space, piecewise, f, p, which=3, k_max=k_max)
    sharp_s1 = sharp_norm_s1(space, piecewise, f, p)
    bes = besov_norm(space, piecewise.pieces[1], f, 1.0 - th2 / p, p, k_max=k_max)
    parts = {
        "lp_s1": lp_s1,
        "sharp_s1": sharp_s1,
        "besov_s2": bes.value,
        "gl3": gl.value,
    }
    return FunctionalReport(
        name="trace_difficult",
        value=lp_s1 + sharp_s1 + bes.value + gl.value,
        parts=parts,
        params={"p": p, "theta": piecewise.theta_S},
        truncation_tail=max(bes.truncation_tail, gl.truncation_tail),
    )
