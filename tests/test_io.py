import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtrace as mt
from mmtrace import io as mio
from mmtrace.errors import InvalidParameter, IoError


class TestSpaceFiles:
    def test_coordinate_roundtrip(self, tmp_path, grid1d_11):
        path = tmp_path / "s.mmspace"
        mio.save_space(grid1d_11, str(path))
        header = path.read_text().splitlines()[0]
        assert header.startswith("mmspace v1; n=11; dim=1; h=0.1")
        loaded = mio.load_space(str(path))
        np.testing.assert_allclose(loaded.coords, grid1d_11.coords)
        np.testing.assert_allclose(loaded.weights, grid1d_11.weights)
        assert loaded.resolution == grid1d_11.resolution

    def test_matrix_roundtrip(self, tmp_path):
        coords = np.linspace(0, 1, 5).reshape(-1, 1)
        mat = np.abs(coords - coords.T)
        sp = mt.FiniteMetricMeasureSpace(weights=np.full(5, 0.2), dist_matrix=mat, resolution=0.25)
        path = tmp_path / "m.mmspace"
        mio.save_space(sp, str(path))
        assert path.read_text().splitlines()[0].startswith("mmspace-matrix v1; n=5")
        loaded = mio.load_space(str(path))
        np.testing.assert_allclose(loaded.dist_matrix, mat)

    def test_missing_file(self):
        with pytest.raises(IoError):
            mio.load_space("/nonexistent/space.mmspace")

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.mmspace"
        p.write_text("mmspace v1; n=3; dim=1; h=0.5\n0 0.0 1.0\n")
        with pytest.raises(IoError):
            mio.load_space(str(p))

    @pytest.mark.parametrize("ids", [(0, 1, 1), (0, -1, 2), (0, 1, 3)], ids=["duplicate", "negative", "out_of_range"])
    def test_bad_point_ids(self, tmp_path, ids):
        p = tmp_path / "bad.mmspace"
        p.write_text("mmspace v1; n=3; dim=1; h=0.5\n" + "".join(f"{i} {i / 2} 0.5\n" for i in ids))
        with pytest.raises(IoError, match="point ids"):
            mio.load_space(str(p))
        m = tmp_path / "bad_matrix.mmspace"
        m.write_text("mmspace-matrix v1; n=3; h=0.5\n" + "".join(f"{i} 0.5\n" for i in ids) + "0.5\n1.0 0.5\n")
        with pytest.raises(IoError, match="point ids"):
            mio.load_space(str(m))

    @pytest.mark.parametrize("block", ["0.5\n", "0.5\n1.0\n", "0.5\n1.0 0.5\n1.0 1.0 1.0\n"],
                             ids=["truncated", "short_row", "extra_row"])
    def test_bad_matrix_block(self, tmp_path, block):
        p = tmp_path / "bad.mmspace"
        p.write_text("mmspace-matrix v1; n=3; h=0.5\n0 0.5\n1 0.5\n2 0.5\n" + block)
        with pytest.raises(IoError, match="distance block"):
            mio.load_space(str(p))

# values that a lossy writer or reader would change: subnormals, the ends of
# the exponent range, signed zeros and values that need all 17 digits
EDGE_REALS = [5e-324, 2.225073858507201e-308, 1e-300, 1e300, 0.1, 1 / 3, 0.30000000000000004,
              123456789.12345679, 2.0 ** 52 + 1]
COORDS = st.one_of(st.sampled_from(EDGE_REALS + [-x for x in EDGE_REALS] + [0.0, -0.0]),
                   st.floats(min_value=-1e300, max_value=1e300))
POSITIVE = st.one_of(st.sampled_from(EDGE_REALS), st.floats(min_value=5e-324, max_value=1e300))


def _bit_identical(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_coordinate_roundtrip_is_bit_identical(tmp_path_factory, n, dim, data):
    coords = np.array(data.draw(st.lists(COORDS, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    weights = np.array(data.draw(st.lists(POSITIVE, min_size=n, max_size=n)))
    sp = mt.FiniteMetricMeasureSpace(weights=weights, coords=coords, resolution=data.draw(POSITIVE))
    path = str(tmp_path_factory.mktemp("rt") / "s.mmspace")
    mio.save_space(sp, path)
    loaded = mio.load_space(path)
    assert _bit_identical(loaded.coords, coords) and _bit_identical(loaded.weights, weights)
    assert loaded.resolution == sp.resolution


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_matrix_roundtrip_is_bit_identical(tmp_path_factory, n, data):
    weights = np.array(data.draw(st.lists(POSITIVE, min_size=n, max_size=n)))
    mat = np.zeros((n, n))
    rows, cols = np.tril_indices(n, -1)
    mat[rows, cols] = data.draw(st.lists(POSITIVE, min_size=rows.size, max_size=rows.size))
    mat[cols, rows] = mat[rows, cols]
    sp = mt.FiniteMetricMeasureSpace(weights=weights, dist_matrix=mat, resolution=0.5)
    path = str(tmp_path_factory.mktemp("rt") / "m.mmspace")
    mio.save_space(sp, path)
    loaded = mio.load_space(path)
    assert _bit_identical(loaded.weights, weights) and _bit_identical(loaded.dist_matrix, mat)


COORD_HEAD = "mmspace v1; n=3; dim=1; h=0.5\n"
COORD_ROWS = ["0 0.0 0.5", "1 0.5 0.5", "2 1.0 0.5"]
MATRIX_HEAD = "mmspace-matrix v1; n=3; h=0.5\n"
MATRIX_ROWS = ["0 0.5", "1 0.5", "2 0.5"]
MATRIX_BLOCK = "0.5\n1.0 0.5\n"


def _coordinate(rows, tail="", head=COORD_HEAD):
    return head + "".join(r + "\n" for r in rows) + tail


def _matrix(rows, tail="", head=MATRIX_HEAD, block=MATRIX_BLOCK):
    return head + "".join(r + "\n" for r in rows) + block + tail


MALFORMED_SPACES = {
    "coord_short_row": _coordinate(["0 0.0 0.5", "1 0.5", "2 1.0 0.5"]),
    "coord_long_row": _coordinate(["0 0.0 0.5", "1 0.5 0.5 0.5", "2 1.0 0.5"]),
    "coord_missing_row": _coordinate(COORD_ROWS[:2]),
    "coord_extra_row": _coordinate(COORD_ROWS + ["3 1.5 0.5"]),
    "coord_trailing_garbage": _coordinate(COORD_ROWS, "\nend\n"),
    "coord_float_id": _coordinate(["0 0.0 0.5", "1.0 0.5 0.5", "2 1.0 0.5"]),
    "coord_id_twice": _coordinate(["0 0.0 0.5", "0 0.5 0.5", "2 1.0 0.5"]),
    "coord_underscore": _coordinate(["0 0.0 0.5", "1 1_0 0.5", "2 1.0 0.5"]),
    "coord_comment": _coordinate(COORD_ROWS, "# a comment\n"),
    "matrix_short_row": _matrix(["0 0.5", "1", "2 0.5"]),
    "matrix_long_row": _matrix(["0 0.5", "1 0.5 0.5", "2 0.5"]),
    "matrix_missing_row": _matrix(MATRIX_ROWS[:2]),
    "matrix_extra_row": _matrix(MATRIX_ROWS + ["3 0.5"]),
    "matrix_trailing_garbage": _matrix(MATRIX_ROWS, "end\n"),
    "matrix_float_id": _matrix(["0 0.5", "1.0 0.5", "2 0.5"]),
    "matrix_id_twice": _matrix(["0 0.5", "0 0.5", "2 0.5"]),
    "matrix_underscore": _matrix(["0 0.5", "1 1_0", "2 0.5"]),
    "matrix_block_underscore": _matrix(MATRIX_ROWS, block="0.5\n1_0 0.5\n"),
    "matrix_block_garbage": _matrix(MATRIX_ROWS, block="0.5\n1.0 x\n"),
    "matrix_block_comma": _matrix(MATRIX_ROWS, block="0.5\n1.0,0.5\n"),
    "empty": "",
    "blank_lines_only": "\n   \n\t\n",
}
# headers that Python's int and float would read (n = 1_0 as 10 points,
# h = 0_5 as 5.0), or whose unknown or repeated keys were ignored
MALFORMED_SPACES.update({
    "header_underscore_n": _coordinate([f"{i} {i / 10} 0.5" for i in range(10)], head="mmspace v1; n=1_0; dim=1; h=0.5\n"),
    "header_underscore_h": _coordinate(COORD_ROWS, head="mmspace v1; n=3; dim=1; h=0_5\n"),
    "header_unicode_digit": _coordinate(COORD_ROWS, head="mmspace v1; n=\u0663; dim=1; h=0.5\n"),
    "header_signed_n": _coordinate(COORD_ROWS, head="mmspace v1; n=+3; dim=1; h=0.5\n"),
    "header_real_dim": _coordinate(COORD_ROWS, head="mmspace v1; n=3; dim=1.0; h=0.5\n"),
    "header_h_no_digits": _coordinate(COORD_ROWS, head="mmspace v1; n=3; dim=1; h=.5\n"),
    "header_unknown_key": _coordinate(COORD_ROWS, head="mmspace v1; n=3; dim=1; h=0.5; c=1\n"),
    "header_repeated_key": _coordinate(COORD_ROWS, head="mmspace v1; n=3; dim=1; h=0.5; n=3\n"),
    "header_missing_key": _coordinate(COORD_ROWS, head="mmspace v1; n=3; h=0.5\n"),
    "header_key_without_value": _coordinate(COORD_ROWS, head="mmspace v1; n=3; dim; h=0.5\n"),
    "matrix_header_dim": _matrix(MATRIX_ROWS, head="mmspace-matrix v1; n=3; dim=1; h=0.5\n"),
    "matrix_header_underscore": _matrix(MATRIX_ROWS, head="mmspace-matrix v1; n=3; h=0.2_5\n"),
})


@pytest.mark.parametrize("text", MALFORMED_SPACES.values(), ids=MALFORMED_SPACES.keys())
def test_malformed_space_files(tmp_path, text):
    path = tmp_path / "bad.mmspace"
    path.write_text(text)
    with pytest.raises(IoError):
        mio.load_space(str(path))


def test_blank_lines_between_rows_are_ignored(tmp_path):
    path = tmp_path / "s.mmspace"
    path.write_text("\n" + COORD_HEAD + "\n".join(reversed(COORD_ROWS)) + "\n\n  \n")
    loaded = mio.load_space(str(path))
    assert loaded.coords[:, 0].tolist() == [0.0, 0.5, 1.0]
    path.write_text(MATRIX_HEAD + "\n".join(MATRIX_ROWS) + "\n\n" + MATRIX_BLOCK + "\n")
    np.testing.assert_array_equal(mio.load_space(str(path)).dist_matrix[2], [1.0, 0.5, 0.0])


def test_load_space_memory_at_h_20(tmp_path):
    """The parser reads the tables straight into arrays: the loader's peak
    allocation at h = 1/20 (n = 9,261) is a small multiple of its arrays."""
    space, _ = mt.generate(mt.simple_case_spec(1 / 20), verify=False)
    path = str(tmp_path / "s.mmspace")
    mio.save_space(space, path)
    tracemalloc.start()
    try:
        loaded = mio.load_space(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.n == 9261
    assert peak <= 1.5e6


def test_matrix_block_memory_at_1500_points(tmp_path):
    """The distance block is read row by row into arrays: loading a
    1,500-point matrix file peaks at a small multiple of its matrix."""
    x = np.random.default_rng(0).uniform(size=(1500, 2))
    mat = np.sqrt(((x[:, None] - x[None]) ** 2).sum(-1))
    space = mt.FiniteMetricMeasureSpace(weights=np.full(1500, 1 / 1500), dist_matrix=mat, resolution=0.01)
    path = str(tmp_path / "m.mmspace")
    mio.save_space(space, path)
    del space
    tracemalloc.start()
    try:
        loaded = mio.load_space(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bit_identical(loaded.dist_matrix, mat)
    assert peak <= 1.5 * mat.nbytes + 2e6


def test_header_grammar_of_save_space(tmp_path):
    """Headers as ``save_space`` writes them, with spaces around the keys."""
    path = tmp_path / "s.mmspace"
    for h in ("1e-05", "1.5e+300", "0.041666666666666664", "2"):
        path.write_text(_coordinate(COORD_ROWS, head=f"mmspace v1 ;n = 3;  dim=1 ; h={h};\n"))
        assert mio.load_space(str(path)).resolution == float(h)


@pytest.mark.parametrize("which, digest", [
    ("grid1d_11", "e0407d2ed5fe4a4e508b4b4a596d4e243668c79ee95ab74f98036e17a9ee8ca2"),
    ("simple_8", "6ed8aa817f3c1f8b7be78aba6e6482a4694f240e816f9c400a46e5fa6eb0a0d4"),
])
def test_save_space_bytes_are_pinned(tmp_path, grid1d_11, which, digest):
    space = grid1d_11 if which == "grid1d_11" else mt.generate(mt.simple_case_spec(1 / 8), verify=False)[0]
    path = tmp_path / "s.mmspace"
    mio.save_space(space, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_save_space_holds_one_block_of_rows(tmp_path):
    """``save_space`` formats its id lines 256 at a time: at h = 1/20
    (n = 9,261) its peak stays below one block's Python rows (the lists
    and floats of 256 coordinate rows and weights) plus 64 KB, where a
    whole-cloud ``tolist`` would take about 1.8 MB."""
    space, _ = mt.generate(mt.simple_case_spec(1 / 20), verify=False)
    rows, weights = space.coords[:256].tolist(), space.weights[:256].tolist()
    block = (sys.getsizeof(rows) + sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in rows)
             + sys.getsizeof(weights) + sum(map(sys.getsizeof, weights)))
    path = str(tmp_path / "s.mmspace")
    mio.save_space(space, path)
    tracemalloc.start()
    try:
        mio.save_space(space, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block + 64 * 1024, (peak, block)


class TestPiecesFiles:
    def test_roundtrip(self, tmp_path):
        space, pw = mt.generate(mt.difficult_case_spec(1 / 8))
        path = tmp_path / "pieces.json"
        mio.save_pieces(pw, str(path))
        loaded = mio.load_pieces(str(path))
        assert loaded.N == 2 and loaded.theta_S == pw.theta_S
        np.testing.assert_array_equal(loaded.pieces[0].ids, pw.pieces[0].ids)
        np.testing.assert_allclose(loaded.pieces[1].weights, pw.pieces[1].weights)
        assert loaded.pieces[0].adr_constants is not None

    @pytest.mark.parametrize("payload", [
        '{"pieces": [{"ids": [0, -3], "theta": 1, "weights": [1, 1]}]}',
        '{"theta_S": 1}',
        '[]',
        '{"pieces": [{"ids": ["a"], "theta": 1, "weights": [1]}]}',
        '{"pieces": [{"ids": [1, 1, 2], "theta": 1, "weights": [1, 1, 1]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": 1, "weights": [1, NaN]}]}',
        '{"pieces": [{"ids": [], "theta": 1, "weights": []}]}',
        '{"pieces": [{"ids": [0.7, 1.2], "theta": 1, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [true, 2], "theta": 1, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": ["3", 2], "theta": 1, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [0, 1.0], "theta": 1, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": 3, "theta": 1, "weights": [1]}]}',
        '{"pieces": [{"ids": [0, 100000000000000000000000], "theta": 1, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": NaN, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": Infinity, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": -0.5, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": "1.5", "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": true, "weights": [1, 1]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": 1, "weights": ["1", true]}]}',
        '{"pieces": [{"ids": [0, 1], "theta": 1, "weights": "11"}]}',
        '{"pieces": [{"ids": [0, 1], "theta": 1, "weights": [1, 1], "adr_constants": ["a", "b"]}]}',
    ])
    def test_malformed(self, tmp_path, payload):
        path = tmp_path / "pieces.json"
        path.write_text(payload)
        with pytest.raises(IoError):
            mio.load_pieces(str(path))

    def test_ids_checked_against_the_space(self, tmp_path, grid1d_11):
        mio.save_space(grid1d_11, str(tmp_path / "s.mmspace"))
        for ids, ok in (([0, 10], True), ([0, 11], False)):
            piece = mt.SubsetPiece(ids=ids, theta=0.5, weights=[1.0, 1.0])
            mio.save_pieces(mt.compose_piecewise([piece]), str(tmp_path / "pieces.json"))
            if ok:
                space, pw = mio.load_instance(str(tmp_path / "s.mmspace"), str(tmp_path / "pieces.json"))
                assert space.n == 11 and list(pw.union_ids) == ids
            else:
                with pytest.raises(IoError, match="out of range"):
                    mio.load_instance(str(tmp_path / "s.mmspace"), str(tmp_path / "pieces.json"))


class TestFunctionFiles:
    def test_roundtrip(self, tmp_path, grid1d_11):
        vals = np.linspace(-1, 1, 11)
        path = tmp_path / "f.txt"
        mio.save_function(vals, range(11), str(path))
        loaded = mio.load_function(str(path), 11)
        np.testing.assert_allclose(loaded, vals)

    def test_partial_is_nan(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("0 1.5\n2 -0.25\n")
        loaded = mio.load_function(str(path), 4)
        assert loaded[0] == 1.5 and loaded[2] == -0.25
        assert np.isnan(loaded[1]) and np.isnan(loaded[3])

    @pytest.mark.parametrize("line", ["-1 5.0", "4 5.0", "x 5.0", "2", "2 5.0 7.0", "0 2.5", "1 1_5", "1.0 5.0"])
    def test_bad_line(self, tmp_path, line):
        path = tmp_path / "f.txt"
        path.write_text(f"0 1.5\n{line}\n")
        with pytest.raises(IoError):
            mio.load_function(str(path), 4)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("# values of f\n\n0 1.5   # the corner\n  \n3 -0.25\n")
        loaded = mio.load_function(str(path), 4)
        assert loaded[0] == 1.5 and loaded[3] == -0.25 and np.isnan(loaded[1:3]).all()
        path.write_text("# nothing given\n")
        assert np.isnan(mio.load_function(str(path), 2)).all()


class TestConfigText:
    def test_fractions_and_pieces(self):
        cfg = mio.parse_config(
            """
            kind = grid2d
            pieces = region theta=0 halfspace=0,1/2,le ; segment theta=1 axis=1 anchor=1/2
            resolutions = 1/8 1/16
            functions = linear
            functionals = trace_difficult
            p = 5/2
            """
        )
        assert cfg.p == 2.5
        assert cfg.generator.pieces[0].placement["halfspace"] == (0, 0.5, "le")
        assert cfg.generator.pieces[1].placement["anchor"] == (0.5,)

    def test_missing_key(self):
        with pytest.raises(InvalidParameter):
            mio.parse_config("kind = grid2d")

    def test_generator_spec(self):
        spec = mio.parse_generator_spec("kind = grid2d\nh = 1/8\npieces = segment theta=1 axis=1 anchor=1/2")
        assert spec.h == 0.125 and spec.name == "grid2d"
        assert spec.pieces[0].placement["anchor"] == (0.5,)
        with pytest.raises(InvalidParameter):
            mio.parse_generator_spec("kind = grid2d\nh = 1/8")
        with pytest.raises(InvalidParameter):
            mio.parse_generator_spec("kind = grid2d\nh = 1/x\npieces = segment theta=1")

    def test_bad_line(self):
        with pytest.raises(InvalidParameter):
            mio.parse_config("kind grid2d")

    @pytest.mark.parametrize("extra", ["resolutions =", "seeds = x", "seeds = 1.5", "seeds = -3", "seeds = 0 -1"])
    def test_bad_list_value(self, extra):
        text = "kind = grid1d\npieces = segment theta=0.5 axis=0\nresolutions = 1/8\nfunctions = constant\nfunctionals = bn\n"
        with pytest.raises(InvalidParameter):
            mio.parse_config(text + extra)

    def test_comments_ignored(self):
        cfg = mio.parse_config(
            """
            # full instance
            kind = grid1d   # one dimensional
            pieces = segment theta=0.5 axis=0
            resolutions = 1/8
            functions = constant
            functionals = besov:1
            """
        )
        assert cfg.generator.kind == "grid1d"
