import numpy as np
import pytest

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

    @pytest.mark.parametrize("line", ["-1 5.0", "4 5.0", "x 5.0", "2"])
    def test_bad_line(self, tmp_path, line):
        path = tmp_path / "f.txt"
        path.write_text(f"0 1.5\n{line}\n")
        with pytest.raises(IoError):
            mio.load_function(str(path), 4)


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

    @pytest.mark.parametrize("extra", ["resolutions =", "seeds = x", "seeds = 1.5"])
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
