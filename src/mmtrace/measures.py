"""Scale-indexed measure sequences on a piecewise set, with certification.

The concrete sequence assigns point x at scale k the mass
``sum_i 2^(k(theta - theta_i)) * h^i_x`` over the pieces containing x.
Certification scans the four defining axioms (full support, upper bound
below scale EPSILON^k, lower bound above it, controlled densities) plus a
density-point spot check on declared Borel test sets.  Scales follow the
dyadic convention EPSILON = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from ._neighbors import SubsetNeighbors, csr_rows, subset_neighbors
from .errors import ParameterError, ResolutionError
from .regularity import PiecewiseSet
from .space import _EPS, FiniteMetricMeasureSpace, _distinct, _in_sorted

EPSILON = 0.5   # dyadic scale convention: the k-th scale is EPSILON^k = 2^-k


@dataclass
class LocalStats:
    """Weighted mean, best-constant L1 deviation, and mean oscillation."""

    mean: float
    best_dev: float
    osc: float
    mass: float


def weighted_stats(values: np.ndarray, w: np.ndarray) -> LocalStats:
    """Exact E/OSC statistics of a weighted sample.

    The inner infimum of the deviation is attained at a weighted median;
    the oscillation double sum is folded to O(n log n) with prefix sums.
    Zero mass returns all-zero stats by convention.
    """
    values = np.asarray(values, dtype=float)
    w = np.asarray(w, dtype=float)
    mass = float(np.sum(w))
    if mass <= 0 or values.size == 0:
        return LocalStats(0.0, 0.0, 0.0, 0.0)
    mean = float(np.sum(w * values) / mass)
    order = np.argsort(values, kind="stable")
    v, ww = values[order], w[order]
    cum = np.cumsum(ww)
    m_idx = int(np.searchsorted(cum, mass / 2.0))
    m_idx = min(m_idx, v.size - 1)
    c = v[m_idx]
    best = float(np.sum(ww * np.abs(v - c)) / mass)
    w_before = np.concatenate(([0.0], cum[:-1]))
    s_before = np.concatenate(([0.0], np.cumsum(ww * v)[:-1]))
    cross = float(np.sum(ww * (v * w_before - s_before)))
    osc = 2.0 * cross / (mass * mass)
    return LocalStats(mean, best, osc, mass)


def local_stats(f: np.ndarray, member_ids, weights: np.ndarray) -> LocalStats:
    """Stats of f over a member set, weighted by a dense weight vector."""
    member_ids = np.asarray(member_ids, dtype=int)
    f = np.asarray(f, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return weighted_stats(f[member_ids], weights[member_ids])


@dataclass
class MeasureSequence:
    """The family {m_k} with its density factors against m_0."""

    space: FiniteMetricMeasureSpace
    piecewise: PiecewiseSet
    theta: float
    k_max: int
    support_ids: np.ndarray
    weights_per_k: np.ndarray      # (k_max+1, |S|)
    density_per_k: np.ndarray      # w_k = m_k / m_0, same shape

    def dense(self, k: int) -> np.ndarray:
        """m_k as a dense vector over all space points."""
        out = np.zeros(self.space.n)
        out[self.support_ids] = self.weights_per_k[int(k)]
        return out

    @cached_property
    def neighbors(self) -> SubsetNeighbors:
        return subset_neighbors(self.space, self.support_ids)


def default_k_max(space: FiniteMetricMeasureSpace) -> int:
    """Largest k with 2^-k >= scale_floor."""
    return int(math.floor(-math.log2(space.scale_floor) + 1e-9))


def build_measure_sequence(
    space: FiniteMetricMeasureSpace,
    piecewise: PiecewiseSet,
    theta: float,
    k_max: Optional[int] = None,
    p: Optional[float] = None,
) -> MeasureSequence:
    """Construct m_k = sum_i 2^(k(theta-theta_i)) h^i on the union.

    theta must lie in [theta_N, p); k_max defaults to the deepest scale
    above the resolution floor.
    """
    if theta < piecewise.theta_S - _EPS:
        raise ParameterError(f"theta {theta} below theta(S) = {piecewise.theta_S}")
    if p is not None and theta >= p:
        raise ParameterError(f"theta {theta} must be < p = {p}")
    if k_max is None:
        k_max = default_k_max(space)
    if k_max < 0:
        raise ResolutionError(f"scale_floor {space.scale_floor} leaves no dyadic scale in (0, 1]")
    if 2.0 ** (-k_max) < space.scale_floor - _EPS:
        raise ResolutionError(f"2^-k_max below scale_floor {space.scale_floor}")
    support = piecewise.union_ids
    weights = np.zeros((k_max + 1, support.size))
    for pc in piecewise.pieces:
        at = np.searchsorted(support, pc.ids)   # each piece scattered into the support's positions
        for k in range(k_max + 1):
            weights[k, at] += 2.0 ** (k * (theta - pc.theta)) * pc.weights
    density = weights / weights[0]
    return MeasureSequence(
        space=space,
        piecewise=piecewise,
        theta=float(theta),
        k_max=int(k_max),
        support_ids=support,
        weights_per_k=weights,
        density_per_k=density,
    )


@dataclass
class RegularityCertificate:
    C1: float
    C2: float
    C3: float
    M5_samples: dict
    passes: dict
    doubling_at_scale: dict

    def to_json(self) -> dict:
        return {
            "M1": {"pass": self.passes["M1"]},
            "M2": {"pass": self.passes["M2"], "C1": self.C1},
            "M3": {"pass": self.passes["M3"], "C2": self.C2},
            "M4": {"pass": self.passes["M4"], "C3": self.C3},
            "M5": {"pass": self.passes["M5"], "ratios": self.M5_samples},
            "doubling_at_scale": self.doubling_at_scale,
        }


def verify_regular_sequence(
    space: FiniteMetricMeasureSpace,
    seq: MeasureSequence,
    c_grid: Sequence[float] = (2.0, 4.0),
    test_sets: Optional[dict] = None,
    m5_threshold: float = 0.01,
) -> RegularityCertificate:
    """Scan the axioms of a regular sequence on the discrete instance.

    C1 is the largest m_k(B_r) r^theta / mu(B_r) over r <= eps^k, C2 the
    smallest over r in [eps^k, 1] with centers on the support, C3 the
    smallest constant enclosing all density ratios, and the M5 entries are
    the smallest relative ball masses of each test set at the deepest
    scale.
    """
    eps, theta, k_max = EPSILON, seq.theta, seq.k_max
    S = seq.support_ids
    nbrs = seq.neighbors
    m1 = bool(np.all(seq.weights_per_k > 0))

    # scale grid: radii 2^-j, j = 0..k_max; ball masses m_k(B_j) per (k, j),
    # every m_k from one ball sweep per radius (doubling radii included)
    radii = [2.0 ** (-j) for j in range(k_max + 1)]
    sums = {r: nbrs.ball_sums(S, r, seq.weights_per_k)
            for r in {*radii, *(c * eps**k for c in c_grid for k in range(k_max + 1))}}
    mk_ball = {(k, j): sums[r][k] for k in range(k_max + 1) for j, r in enumerate(radii)}

    C1 = 0.0
    C2 = math.inf
    for k in range(k_max + 1):
        for j, r in enumerate(radii):
            ratios = mk_ball[k, j] * r**theta / space.masses_at_radius(r, S)
            if j >= k:      # r <= eps^k: upper-bound regime
                C1 = max(C1, float(np.max(ratios)))
            if j <= k:      # r >= eps^k: lower-bound regime
                C2 = min(C2, float(np.min(ratios)))

    # densities: ratio w_k / w_{k+j} must sit in [eps^(theta j)/C3, C3]
    C3 = 0.0
    for k in range(k_max + 1):
        for j in range(k_max + 1 - k):
            ratio = seq.density_per_k[k] / seq.density_per_k[k + j]
            C3 = max(C3, float(np.max(ratio)))
            C3 = max(C3, float(np.max(eps ** (theta * j) / ratio)))

    m5 = {}
    if test_sets:
        mk = seq.weights_per_k[k_max]
        masks = {name: _in_sorted(S, _distinct(np.asarray(ids, dtype=int))) for name, ids in test_sets.items()}
        held = nbrs.ball_sums(S, radii[k_max], np.array([np.where(in_e, mk, 0.0) for in_e in masks.values()]))
        for (name, in_e), part in zip(masks.items(), held):
            part = part[in_e]
            total = mk_ball[k_max, k_max][in_e]
            shares = np.divide(part, total, out=np.zeros(part.size), where=total > 0)
            m5[name] = float(np.min(shares)) if shares.size else math.inf

    doubling = {}
    for c in c_grid:
        worst = 0.0
        for k in range(k_max + 1):
            big, base = sums[c * eps**k][k], mk_ball[k, k]
            worst = max(worst, float(np.max(np.divide(big, base, out=np.zeros(S.size), where=base > 0))))
        doubling[float(c)] = worst

    passes = {
        "M1": m1,
        "M2": bool(np.isfinite(C1) and C1 > 0),
        "M3": bool(np.isfinite(C2) and C2 > 0),
        "M4": bool(np.isfinite(C3) and C3 > 0),
        "M5": bool(all(v > m5_threshold for v in m5.values())) if m5 else True,
    }
    return RegularityCertificate(
        C1=C1, C2=C2, C3=C3, M5_samples=m5, passes=passes, doubling_at_scale=doubling
    )


@dataclass
class ComparisonReport:
    c: float
    per_scale: dict      # k -> (min_ratio, max_ratio)
    overall_min: float
    overall_max: float
    skipped_scales: list


def measure_comparison_check(
    space: FiniteMetricMeasureSpace,
    seq: MeasureSequence,
    piecewise: PiecewiseSet,
    c: float,
    max_centers_per_piece: int = 200,
) -> ComparisonReport:
    """Ratios m_k(cB_k(xbar)) / (2^(k(theta-theta_i)) h_i(B_k(x))) over
    sampled pairs with B_k(x) inside cB_k(xbar).  The lower bound 1 is
    exact: the i-th summand of m_k already contributes that much."""
    if c < 1:
        raise ParameterError("c must be >= 1")
    per_scale = {}
    skipped = []
    overall_min, overall_max = math.inf, 0.0
    for k in range(seq.k_max + 1):
        r = 2.0 ** (-k)
        ratios = []
        for pc in piecewise.pieces:
            centers = pc.ids
            if centers.size > max_centers_per_piece:
                sel = _distinct(np.linspace(0, centers.size - 1, max_centers_per_piece).astype(int))
                centers = centers[sel]
            denom = 2.0 ** (k * (seq.theta - pc.theta)) * subset_neighbors(space, pc.ids).ball_sums(
                centers, r, pc.weights[None])[0]
            # xbar candidates: x itself plus the lowest-id points with
            # B_k(x) inside c B_k(xbar)
            xbars, at = [], []
            live = np.flatnonzero(denom > 0)
            for rows, indptr, ids, _ in space.member_blocks(centers[live], (c - 1.0) * r):
                for a, row in zip(live[rows].tolist(), csr_rows(indptr, ids)):
                    x = int(centers[a])
                    near = ([x] + [y for y in row[:3].tolist() if y != x])[:3]
                    xbars += near
                    at += [a] * len(near)
            num = seq.neighbors.ball_sums(np.array(xbars, dtype=int), c * r, seq.weights_per_k[k][None])[0]
            ratios.append(num / denom[at])
        ratios = np.concatenate(ratios)
        if ratios.size:
            per_scale[k] = (float(ratios.min()), float(ratios.max()))
            overall_min = min(overall_min, per_scale[k][0])
            overall_max = max(overall_max, per_scale[k][1])
        else:
            skipped.append(k)
    return ComparisonReport(
        c=float(c),
        per_scale=per_scale,
        overall_min=overall_min,
        overall_max=overall_max,
        skipped_scales=skipped,
    )


def lp_tail_check(seq: MeasureSequence, f: np.ndarray, L: int, p: float) -> float:
    """Ratio of the truncated deviation sum to the L_p(m_0) norm:
    sum_{k<=L} int_S E_{m_k}(f, B_{eps^k}(x))^p dm_k / ||f||_p^p."""
    if L > seq.k_max:
        raise ParameterError(f"L = {L} exceeds k_max = {seq.k_max}")
    f = np.asarray(f, dtype=float)
    f_s = f[seq.support_ids]
    denom = float(np.sum(seq.weights_per_k[0] * np.abs(f_s) ** p))
    if denom == 0:
        return 0.0
    total = 0.0
    for k in range(L + 1):
        mk = seq.weights_per_k[k]
        e = seq.neighbors.deviations_of(seq.support_ids, EPSILON**k, mk, f_s)
        total += float(np.sum(mk * e**p))
    return total / denom
