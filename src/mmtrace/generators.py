"""Synthetic grid instances: spaces, pieces with analytic weights, and the
sample-function corpus used by the experiments."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ._lattice import _LATTICE_ROWS
from .content import piece_measure_weights
from .errors import InvalidParameter, ParameterError
from .functionals import SampleFunction
from .regularity import PiecewiseSet, SubsetPiece, check_adr, compose_piecewise, default_r_grid
from .space import FiniteMetricMeasureSpace, _distinct

_KIND_DIM = {"grid1d": 1, "grid2d": 2, "grid3d": 3}


@dataclass
class PieceSpec:
    shape: str                      # segment | square_face | region | point_cluster
    theta: float
    placement: dict = field(default_factory=dict)


@dataclass
class GeneratorSpec:
    kind: str
    h: float
    pieces: list
    c_res: float = 1.0
    name: str = ""
    mu_weights: str = "cell"   # cell | uniform

    def with_h(self, h: float) -> "GeneratorSpec":
        return replace(self, h=h)


def build_grid_space(kind: str, h: float, c_res: float = 1.0, mu_weights: str = "cell") -> FiniteMetricMeasureSpace:
    """Uniform grid on the unit cube.

    ``cell`` weights are trapezoidal cell volumes (half cells on the
    boundary), so the total mass is exactly 1 and ball masses track the
    continuum volume to second order; ``uniform`` assigns h^dim everywhere
    and carries an O(h) global surplus.
    """
    if kind not in _KIND_DIM:
        raise ParameterError(f"unknown generator kind {kind!r}")
    dim = _KIND_DIM[kind]
    m = int(round(1.0 / h))
    if abs(m * h - 1.0) > 1e-9 or m < 2:
        raise ParameterError(f"mesh h = {h} must divide the unit interval")
    if mu_weights not in ("cell", "uniform"):
        raise ParameterError(f"unknown mu_weights mode {mu_weights!r}")
    axis = np.arange(m + 1) / m
    cell = np.where((np.abs(axis) <= 1e-12) | (np.abs(axis - 1.0) <= 1e-12), h / 2.0, h)
    # the 'ij' grid written axis by axis into its final arrays: no whole-cloud copies
    coords = np.empty((m + 1,) * dim + (dim,))
    weights = np.full((m + 1,) * dim, 1.0 if mu_weights == "cell" else h**dim)
    for a in range(dim):
        along = (-1,) + (1,) * (dim - 1 - a)
        coords[..., a] = axis.reshape(along)
        if mu_weights == "cell":
            weights *= cell.reshape(along)
    return FiniteMetricMeasureSpace(weights=weights.reshape(-1), coords=coords.reshape(-1, dim), resolution=h, c_res=c_res)


def _cell_lengths(positions: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Trapezoidal cell lengths of sorted 1-d sample positions on [lo, hi]."""
    return np.diff(np.concatenate(([lo], (positions[1:] + positions[:-1]) / 2.0, [hi])))


def _match(coords_col: np.ndarray, value: float) -> np.ndarray:
    out = np.empty(coords_col.size, dtype=bool)
    for lo in range(0, coords_col.size, _LATTICE_ROWS):  # no cloud-sized float temporary
        out[lo : lo + _LATTICE_ROWS] = np.abs(coords_col[lo : lo + _LATTICE_ROWS] - value) <= 1e-9
    return out


def _nearest(coords: np.ndarray, q: np.ndarray) -> int:
    """The first id of least ``np.linalg.norm(coords - q, axis=1)``, in its bits, by blocks of _LATTICE_ROWS."""
    best = (np.inf, 0)
    for lo in range(0, coords.shape[0], _LATTICE_ROWS):
        d = np.zeros(coords[lo : lo + _LATTICE_ROWS].shape[0])
        for a in range(coords.shape[1]):   # norm's sum of squares, in its order
            d += (coords[lo : lo + _LATTICE_ROWS, a] - q[a]) ** 2
        best = min(best, (np.sqrt(d, out=d).min(), lo + int(d.argmin())))   # a tie keeps the first point
    return best[1]


def _build_piece(space, spec: PieceSpec, label: str) -> SubsetPiece:
    dim = space.dim
    coords = space.coords
    shape = spec.shape
    pl = spec.placement
    if shape == "segment":
        axis = int(pl.get("axis", 0))
        anchor = pl.get("anchor")
        if anchor is None:
            anchor = tuple(0.5 for _ in range(dim - 1))
        lo, hi = float(pl.get("lo", 0.0)), float(pl.get("hi", 1.0))
        mask = np.ones(space.n, dtype=bool)
        others = [a for a in range(dim) if a != axis]
        for a, v in zip(others, anchor):
            mask &= _match(coords[:, a], float(v))
        mask &= (coords[:, axis] >= lo - 1e-9) & (coords[:, axis] <= hi + 1e-9)
        ids = np.flatnonzero(mask)
        ids = ids[np.argsort(coords[ids, axis])]
        w = _cell_lengths(coords[ids, axis], lo, hi)
        return SubsetPiece(ids=ids, theta=spec.theta, weights=w, label=label)
    if shape == "square_face":
        if dim != 3:
            raise ParameterError("square_face needs a 3-d grid")
        axis = int(pl.get("axis", 2))
        offset = float(pl.get("offset", 0.5))
        ids = np.flatnonzero(_match(coords[:, axis], offset))
        others = [a for a in range(3) if a != axis]
        w = np.ones(ids.size)
        for a in others:
            pos = coords[ids, a]
            lengths = np.where((_match(pos, 0.0)) | (_match(pos, 1.0)), space.resolution / 2.0, space.resolution)
            w = w * lengths
        return SubsetPiece(ids=ids, theta=spec.theta, weights=w, label=label)
    if shape == "region":
        mask = np.ones(space.n, dtype=bool)
        if "halfspace" in pl:
            axis, cut, side = pl["halfspace"]
            if side == "le":
                mask &= coords[:, int(axis)] <= float(cut) + 1e-9
            else:
                mask &= coords[:, int(axis)] >= float(cut) - 1e-9
        if "box" in pl:
            lo, hi = pl["box"]
            for a in range(dim):
                mask &= (coords[:, a] >= lo[a] - 1e-9) & (coords[:, a] <= hi[a] + 1e-9)
        ids = np.flatnonzero(mask)
        # codimension-zero stand-in: the region carries the mu weights
        return SubsetPiece(ids=ids, theta=spec.theta, weights=space.weights[ids], label=label)
    if shape == "point_cluster":
        pts = np.asarray(pl["points"], dtype=float)
        ids = _distinct([_nearest(coords, q) for q in np.atleast_2d(pts)])
        w = piece_measure_weights(space, ids, spec.theta, mode="content")
        return SubsetPiece(ids=ids, theta=spec.theta, weights=w, label=label)
    raise ParameterError(f"unknown piece shape {shape!r}")


def generate(spec: GeneratorSpec, verify: bool = True):
    """Build (space, piecewise) from a generator spec; optionally run the
    two-sided regularity check on every piece and attach the constants."""
    dim = _KIND_DIM.get(spec.kind)
    if dim is None:
        raise ParameterError(f"unknown generator kind {spec.kind!r}")
    for ps in spec.pieces:
        if ps.theta >= dim:
            raise ParameterError(f"piece theta {ps.theta} must be < ambient dimension {dim}")
    space = build_grid_space(spec.kind, spec.h, spec.c_res, spec.mu_weights)
    pieces = [
        _build_piece(space, ps, label=f"{ps.shape}@{ps.theta}") for ps in spec.pieces
    ]
    piecewise = compose_piecewise(pieces)
    if verify:
        grid = default_r_grid(space)
        for pc in pieces:
            check_adr(space, pc, grid)
    return space, piecewise


# -- canonical instances ------------------------------------------------


def simple_case_spec(h: float, c_res: float = 1.0) -> GeneratorSpec:
    """3-d instance with a codimension-1 face and a codimension-2 segment
    crossing it; every codimension positive."""
    return GeneratorSpec(
        kind="grid3d",
        h=h,
        c_res=c_res,
        name="simple3d",
        pieces=[
            PieceSpec("square_face", 1.0, {"axis": 2, "offset": 0.5}),
            PieceSpec("segment", 2.0, {"axis": 2, "anchor": (0.5, 0.5)}),
        ],
    )


def difficult_case_spec(h: float, c_res: float = 1.0) -> GeneratorSpec:
    """2-d instance with a codimension-zero half-plane region and a
    codimension-1 segment sitting on its boundary."""
    return GeneratorSpec(
        kind="grid2d",
        h=h,
        c_res=c_res,
        name="difficult2d",
        pieces=[
            PieceSpec("region", 0.0, {"halfspace": (0, 0.5, "le")}),
            PieceSpec("segment", 1.0, {"axis": 1, "anchor": (0.5,)}),
        ],
    )


def nested_case_spec(h: float) -> GeneratorSpec:
    """Nested pieces: a face containing a segment (different accuracies)."""
    return GeneratorSpec(
        kind="grid3d",
        h=h,
        name="nested3d",
        pieces=[
            PieceSpec("square_face", 1.0, {"axis": 2, "offset": 0.5}),
            PieceSpec("segment", 2.0, {"axis": 0, "anchor": (0.5, 0.5)}),
        ],
    )


# -- sample functions ----------------------------------------------------

_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_BLOCK = 1 << 14  # states per block of a `random` draw: limb arrays of 128 KB stay in cache (2^12, 2^16 are slower)


def _muladd(x: list, a: int, c: int) -> list:
    """``a·x + c mod 2^128`` for states ``x`` held as four 32-bit limbs, low first, in uint64 arrays."""
    cols = [np.uint64(c >> 32 * k & _M32) for k in range(4)]
    for i, j in ((i, j) for i in range(4) for j in range(4 - i)):
        p = x[i] * np.uint64(a >> 32 * j & _M32)
        cols[i + j] += p if i + j == 3 else p & _M32  # the top limb keeps 32 bits: wrapping at 2^64 is exact
        if i + j < 3:
            cols[i + j + 1] += p >> 32
    for k in range(3):
        cols[k + 1] += cols[k] >> 32
    return [col & _M32 for col in cols]


def _uniform(seed: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(-1.0, 1.0, n)`` bit for bit, without ``numpy.random``:
    numpy's SeedSequence hash of the seed seeds a PCG64 (XSL-RR output of a 128-bit LCG), whose
    states are made a block at a time by jumps of the LCG, (A, C) -> (A², A·C + C)."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 128), 32)]  # zeros hash as absent
    h = 0x43B0D7E5

    def hashmix(v: int, mult: int = 0x931E8875) -> int:
        nonlocal h
        h, v = h * mult & _M32, v ^ h
        v = v * h & _M32
        return v ^ v >> 16

    pool = [hashmix(w) for w in words[:4]]
    for src, dst in ((s, d) for s in range(len(words)) for d in range(4) if s != d):
        v = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src] if src < 4 else words[src])) & _M32
        pool[dst] = v ^ v >> 16
    h = 0x8B51F9DD
    w = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]  # generate_state(4, np.uint64), low halves first
    state, seq = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2], w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
    a, c = 0x2360ED051FC65DA44385DF649FCCF645, (seq << 1 | 1) & _M128
    s = ((c + state) * a + c) * a + c & _M128  # PCG64's seeding steps, then the first draw's
    x, size, out = [np.array([s >> 32 * k & _M32], dtype=np.uint64) for k in range(4)], 1, np.empty(n)
    while size < min(n, _PCG_BLOCK):
        x = [np.concatenate(p) for p in zip(x, _muladd(x, a, c))]
        a, c, size = a * a & _M128, (a * c + c) & _M128, 2 * size
    for lo in range(0, n, size):
        x = _muladd(x, a, c) if lo else x
        v, r = (x[3] << 32 | x[2]) ^ (x[1] << 32 | x[0]), x[3] >> 26
        out[lo : lo + size] = ((v >> r | v << (64 - r & 63)) >> 11)[: n - lo] * 2.0**-52 - 1.0
    return out


def make_sample_function(
    space,
    piecewise: Optional[PiecewiseSet],
    family: str,
    seed: int = 0,
) -> SampleFunction:
    """Sample-function corpus: constant, linear, hoelder:alpha, step,
    random.  All are defined on the whole cloud so they also serve as
    extensions for the energy probe."""
    coords = space.coords
    if coords is None:
        raise InvalidParameter("sample families need coordinate metrics")
    dim = coords.shape[1]
    name, _, arg = family.partition(":")
    if name == "constant":
        vals = np.ones(space.n)
    elif name == "linear":
        vals = coords.sum(axis=1) / np.sqrt(dim)
    elif name == "hoelder":
        alpha = float(arg) if arg else 0.6
        if not (0 < alpha <= 1):
            raise InvalidParameter(f"hoelder exponent must lie in (0, 1], got {alpha}")
        anchor = np.full(dim, 0.5)
        vals = np.empty(space.n)
        for lo in range(0, space.n, _LATTICE_ROWS):
            vals[lo : lo + _LATTICE_ROWS] = np.linalg.norm(coords[lo : lo + _LATTICE_ROWS] - anchor, axis=1) ** alpha
    elif name == "step":
        axis = int(arg) if arg else dim - 1
        vals = (coords[:, axis] > 0.5).astype(float)
    elif name == "random":
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidParameter(f"random seed must be a non-negative integer, got {seed!r}")
        vals = _uniform(int(seed), space.n)
    else:
        raise InvalidParameter(f"unknown sample family {family!r}")
    return SampleFunction(values=vals, domain=piecewise)
