"""File formats: point clouds, pieces, sample functions, experiment configs.

Point-cloud format (coordinate metric)::

    mmspace v1; n=<int>; dim=<int>; h=<real>
    <id> <x1> ... <xdim> <weight>        # one line per point

Matrix-metric variant::

    mmspace-matrix v1; n=<int>; h=<real>
    <id> <weight>                        # n lines
    <d(1,0)>                             # lower-triangular distance block,
    <d(2,0)> <d(2,1)>                    # one row per point 1..n-1
    ...

A header sets exactly its keys, each once, as ``save_space`` writes them:
decimal integers, and ``h`` as ``repr`` writes it (``1e-05``).  Tokens
are separated by whitespace and blank lines are ignored.  An id is an
integer literal (``1.0`` is not an id) and the ids of a space file are
exactly 0..n-1, each once.  The id tables and the distance block are read
by numpy's C parser, which takes decimal reals, ``nan`` and ``inf`` but no
underscored literal such as ``1_0``.  Space files have no comments.

Pieces are a JSON sidecar.  Sample functions are `<id> <value>` lines,
each id at most once and absent ids NaN; there ``#`` starts a comment
that runs to the end of the line.  Experiment configs are
`key = value` text (see parse_config).
"""

from __future__ import annotations

import json
import re
import warnings

import numpy as np

from .errors import InvalidParameter, IoError, ParameterError
from .experiments import ExperimentConfig
from .generators import GeneratorSpec, PieceSpec
from .regularity import PiecewiseSet, SubsetPiece, compose_piecewise
from .space import FiniteMetricMeasureSpace


def save_space(space: FiniteMetricMeasureSpace, path: str):
    """Write the space's file, its id lines in blocks of 256 from one ``tolist`` each (not the cloud's at once)."""
    try:
        with open(path, "w") as fh:
            matrix = space.coords is None
            fh.write(f"mmspace-matrix v1; n={space.n}; h={space.resolution!r}\n" if matrix
                     else f"mmspace v1; n={space.n}; dim={space.dim}; h={space.resolution!r}\n")
            coords = np.empty((space.n, 0)) if matrix else space.coords   # a matrix file's id lines: the weight
            for lo in range(0, space.n, 256):
                rows = zip(coords[lo : lo + 256].tolist(), space.weights[lo : lo + 256].tolist())
                fh.write("".join(f"{i} {''.join(f'{x!r} ' for x in xs)}{w!r}\n" for i, (xs, w) in enumerate(rows, lo)))
            for i in range(1, space.n) if matrix else ():
                fh.write(" ".join(map(repr, space.dist_matrix[i, :i].tolist())) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write space to {path}: {exc}") from exc


_HEADERS = {"mmspace v1": ("n", "dim", "h"), "mmspace-matrix v1": ("n", "h")}
_GRAMMAR = {"n": "[0-9]+", "dim": "[0-9]+", "h": r"[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?"}


def _parse_header(line: str) -> tuple:
    """``(magic, fields)`` of a header line; a known format sets exactly
    its keys, each once, in the grammar save_space writes (``_GRAMMAR``)."""
    head, *items = [part.strip() for part in line.strip().split(";")]
    pairs = [tuple(t.strip() for t in item.partition("=")[::2]) for item in items if item]
    if head not in _HEADERS:
        return head, {}
    if sorted(k for k, _ in pairs) != sorted(_HEADERS[head]) or not all(re.fullmatch(_GRAMMAR[k], v) for k, v in pairs):
        raise IoError(f"a {head!r} header sets {', '.join(_HEADERS[head])} once each, as save_space writes them")
    return head, {k: float(v) if k == "h" else int(v) for k, v in pairs}


def _read_table(fh, width: int, max_rows=None, comments=None):
    """``(ids, values)`` of the ``<id> <width reals>`` lines from the file's
    position on, by numpy's C reader, up to ``max_rows`` data lines (blank
    ones skipped); a malformed line raises ValueError or DeprecationWarning."""
    with warnings.catch_warnings():
        # numpy warns about skipped blank lines and an empty table
        warnings.simplefilter("ignore", UserWarning)
        # older numpy releases read an id written `1.0`, with this warning
        warnings.simplefilter("error", DeprecationWarning)
        table = np.loadtxt(fh, dtype=[("id", np.int64), ("v", float, (width,))],
                           comments=comments, ndmin=1, max_rows=max_rows)
    return table["id"], table["v"]


def _id_rows(fh, n: int, width: int) -> np.ndarray:
    """The next ``n`` point lines as an (n, width) array ordered by id;
    the ids must be exactly 0..n-1."""
    expected = f"expected {n} point lines of an id and {width} values"
    try:
        ids, values = _read_table(fh, width, max_rows=n)
    except (ValueError, DeprecationWarning) as exc:
        raise IoError(f"{expected}: {exc}") from exc
    if ids.size != n:
        raise IoError(f"{expected}, got {ids.size} lines")
    if not np.array_equal(np.sort(ids), np.arange(n)):
        raise IoError(f"point ids must be exactly 0..{n - 1}, each once")
    rows = np.empty((n, width))
    rows[ids] = values
    return rows


def load_space(path: str, c_res: float = 1.0) -> FiniteMetricMeasureSpace:
    try:
        with open(path) as fh:
            magic, head = _parse_header(next((ln for ln in fh if ln.strip()), ""))
            if magic == "mmspace v1":
                n, dim, h = head["n"], head["dim"], head["h"]
                rows = _id_rows(fh, n, dim + 1)
                if any(ln.strip() for ln in fh):
                    raise IoError(f"{path}: text after the {n} point lines")
                return FiniteMetricMeasureSpace(weights=rows[:, dim], coords=rows[:, :dim], resolution=h, c_res=c_res)
            if magic == "mmspace-matrix v1":
                n, h = head["n"], head["h"]
                weights = _id_rows(fh, n, 1)[:, 0]
                with warnings.catch_warnings():
                    # older numpy releases stop at unparsed text with only this warning
                    warnings.simplefilter("error", DeprecationWarning)
                    block = [np.fromstring(ln, sep=" ") for ln in fh if ln.strip()]
                if [row.size for row in block] != list(range(1, n)):
                    raise IoError(f"distance block must have {n - 1} rows of lengths 1..{n - 1}")
                mat = np.zeros((n, n))
                for i, row in enumerate(block, start=1):
                    mat[i, :i] = mat[:i, i] = row
                return FiniteMetricMeasureSpace(weights=weights, dist_matrix=mat, resolution=h, c_res=c_res)
    except OSError as exc:
        raise IoError(f"cannot read space from {path}: {exc}") from exc
    except (KeyError, ValueError, IndexError, DeprecationWarning) as exc:
        raise IoError(f"malformed space file {path}: {exc}") from exc
    if not magic:
        raise IoError(f"{path} is empty")
    raise IoError(f"unknown space format {magic!r}")


def save_pieces(piecewise: PiecewiseSet, path: str):
    payload = {
        "theta_S": piecewise.theta_S,
        "pieces": [
            {
                "theta": pc.theta,
                "label": pc.label,
                "ids": [int(i) for i in pc.ids],
                "weights": [float(w) for w in pc.weights],
                "adr_constants": list(pc.adr_constants) if pc.adr_constants else None,
            }
            for pc in piecewise.pieces
        ],
    }
    try:
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
    except OSError as exc:
        raise IoError(f"cannot write pieces to {path}: {exc}") from exc


def load_pieces(path: str) -> PiecewiseSet:
    try:
        pieces = []
        for entry in json.loads(_read_text(path, "pieces"))["pieces"]:
            ids = entry["ids"]
            # json reads an integer as int; a float, bool or string id is an error
            if not isinstance(ids, list) or any(type(i) is not int for i in ids):
                raise ValueError(f"piece ids must be a list of integers, got {ids!r:.80}")
            # theta, weights and adr_constants likewise: JSON numbers, never coerced
            if any(type(v) not in (int, float) for v in [entry["theta"], *entry["weights"], *(entry.get("adr_constants") or [])]):
                raise ValueError(f"theta, weights and adr_constants must be JSON numbers in {entry!r:.80}")
            pc = SubsetPiece(
                ids=np.asarray(ids, dtype=int),
                theta=float(entry["theta"]),
                weights=np.asarray(entry["weights"], dtype=float),
                label=entry.get("label", ""),
            )
            if entry.get("adr_constants"):
                pc.adr_constants = tuple(entry["adr_constants"])
            pieces.append(pc)
    except (KeyError, TypeError, ValueError, OverflowError, ParameterError) as exc:
        raise IoError(f"cannot read pieces from {path}: {exc!r}") from exc
    return compose_piecewise(pieces)


def load_instance(space_path: str, pieces_path: str, c_res: float = 1.0):
    """``(space, piecewise)`` from a space file and a pieces file whose ids name its points."""
    space = load_space(space_path, c_res=c_res)
    piecewise = load_pieces(pieces_path)
    if piecewise.union_ids[-1] >= space.n:
        raise IoError(f"{pieces_path}: point id {piecewise.union_ids[-1]} out of range for {space.n} points")
    return space, piecewise


def save_function(values: np.ndarray, ids, path: str):
    try:
        with open(path, "w") as fh:
            for i in ids:
                fh.write(f"{int(i)} {float(values[int(i)])!r}\n")
    except OSError as exc:
        raise IoError(f"cannot write function to {path}: {exc}") from exc


def load_function(path: str, n: int) -> np.ndarray:
    """Dense value vector; entries absent from the file are NaN."""
    try:
        with open(path) as fh:
            ids, values = _read_table(fh, 1, comments="#")
        if ids.min(initial=0) < 0:
            raise ValueError(f"negative point id {ids.min()}")
        if ids.max(initial=-1) >= n:
            raise ValueError(f"point id {ids.max()} out of range for {n} points")
        counts = np.bincount(ids, minlength=n)
        if counts.max(initial=0) > 1:
            raise ValueError(f"point id {counts.argmax()} given more than once")
    except (OSError, ValueError, DeprecationWarning) as exc:
        raise IoError(f"cannot read function from {path}: {exc}") from exc
    out = np.full(n, np.nan)
    out[ids] = values[:, 0]
    return out


# -- config text ----------------------------------------------------------


def _parse_real(tok: str) -> float:
    tok = tok.strip()
    m = re.fullmatch(r"(-?\d+(?:\.\d+)?)\s*/\s*(\d+(?:\.\d+)?)", tok)
    try:
        return float(m.group(1)) / float(m.group(2)) if m else float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"not a real number: {tok!r}") from exc


def _parse_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise InvalidParameter(f"not an integer: {tok!r}") from exc


def _parse_piece(text: str) -> PieceSpec:
    toks = text.split()
    if not toks:
        raise InvalidParameter("empty piece description")
    shape = toks[0]
    theta = None
    placement = {}
    for tok in toks[1:]:
        key, _, val = tok.partition("=")
        if key == "theta":
            theta = _parse_real(val)
        elif key in ("axis",):
            placement[key] = _parse_int(val)
        elif key in ("offset", "lo", "hi", "cut"):
            placement[key] = _parse_real(val)
        elif key == "anchor":
            placement["anchor"] = tuple(_parse_real(v) for v in val.split(","))
        elif key == "halfspace":
            axis, cut, side = val.split(",")
            placement["halfspace"] = (_parse_int(axis), _parse_real(cut), side)
        else:
            raise InvalidParameter(f"unknown piece key {key!r}")
    if theta is None:
        raise InvalidParameter(f"piece {shape!r} needs theta=<real>")
    return PieceSpec(shape=shape, theta=theta, placement=placement)


def _parse_keys(text: str, required: list) -> dict:
    """``key = value`` lines (``#`` starts a comment) with the required keys set."""
    kv = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise InvalidParameter(f"config line is not key = value: {raw!r}")
        kv[key.strip()] = val.strip()
    missing = [k for k in required if not kv.get(k)]
    if missing:
        raise InvalidParameter(f"config keys missing or empty: {missing}")
    return kv


def _generator(kv: dict, h: float) -> GeneratorSpec:
    return GeneratorSpec(
        kind=kv["kind"],
        h=h,
        pieces=[_parse_piece(part) for part in kv["pieces"].split(";") if part.strip()],
        c_res=_parse_real(kv.get("c_res", "1")),
        name=kv.get("name", kv["kind"]),
    )


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse a generator spec: the keys kind, h, pieces (';'-separated),
    and optionally c_res and name, in the experiment-config format."""
    kv = _parse_keys(text, ["kind", "h", "pieces"])
    return _generator(kv, _parse_real(kv["h"]))


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key = value experiment-config format.

    Keys: name, kind, h, c_res, resolutions, pieces (';'-separated),
    functions, functionals, p, theta, c, sigma, seeds.
    """
    kv = _parse_keys(text, ["kind", "pieces", "resolutions", "functionals", "functions"])
    resolutions = [_parse_real(t) for t in kv["resolutions"].split()]
    seeds = [_parse_int(t) for t in kv.get("seeds", "0").split()]
    if any(seed < 0 for seed in seeds):
        raise InvalidParameter(f"seeds must be non-negative integers, got {seeds}")
    return ExperimentConfig(
        generator=_generator(kv, resolutions[0]),
        resolutions=resolutions,
        functionals=kv["functionals"].split(),
        functions=kv["functions"].split(),
        p=_parse_real(kv.get("p", "2.5")),
        theta=_parse_real(kv["theta"]) if "theta" in kv else None,
        c=_parse_real(kv.get("c", "6")),
        sigma=_parse_real(kv.get("sigma", "0.01")),
        seeds=seeds,
    )


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc


def load_generator_spec(path: str) -> GeneratorSpec:
    return parse_generator_spec(_read_text(path, "generator spec"))


def load_config(path: str) -> ExperimentConfig:
    return parse_config(_read_text(path, "config"))
