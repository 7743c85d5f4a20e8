import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtrace as mt
from mmtrace import generators
from mmtrace._lattice import _LATTICE_ROWS
from mmtrace.errors import InvalidParameter, ParameterError


def _peak(fn):
    """fn()'s result and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _meshgrid_space(kind, h, mu_weights):
    """build_grid_space as it was written with meshgrid, stack and where."""
    dim = {"grid1d": 1, "grid2d": 2, "grid3d": 3}[kind]
    m = int(round(1.0 / h))
    axis = np.arange(m + 1) / m
    coords = np.stack([g.ravel() for g in np.meshgrid(*([axis] * dim), indexing="ij")], axis=1)
    if mu_weights == "uniform":
        return coords, np.full(coords.shape[0], h**dim)
    weights = np.ones(coords.shape[0])
    for a in range(dim):
        edge = (np.abs(coords[:, a]) <= 1e-12) | (np.abs(coords[:, a] - 1.0) <= 1e-12)
        weights *= np.where(edge, h / 2.0, h)
    return coords, weights


class TestGridSpaces:
    def test_mass_and_resolution(self):
        sp = mt.build_grid_space("grid2d", 1 / 8)
        assert sp.n == 81
        # trapezoidal cell weights integrate the unit square exactly
        assert sp.total_mass == pytest.approx(1.0, abs=1e-12)
        assert sp.scale_floor == pytest.approx(1 / 8)
        uni = mt.build_grid_space("grid2d", 1 / 8, mu_weights="uniform")
        assert uni.total_mass == pytest.approx(81 / 64)

    def test_bad_mesh(self):
        with pytest.raises(ParameterError):
            mt.build_grid_space("grid2d", 0.3)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            mt.build_grid_space("grid9d", 0.5)

    @pytest.mark.parametrize("kind", ["grid1d", "grid2d", "grid3d"])
    @pytest.mark.parametrize("mu_weights", ["cell", "uniform"])
    @pytest.mark.parametrize("h", [1 / 7, 1 / 8])
    def test_equal_to_meshgrid_reference(self, kind, mu_weights, h):
        space = mt.build_grid_space(kind, h, mu_weights=mu_weights)
        coords, weights = _meshgrid_space(kind, h, mu_weights)
        assert space.coords.tobytes() == coords.tobytes() and space.coords.shape == coords.shape
        assert space.weights.tobytes() == weights.tobytes()

    def test_unknown_weights(self):
        with pytest.raises(ParameterError):
            mt.build_grid_space("grid2d", 1 / 8, mu_weights="lumped")

    def test_memory_is_the_arrays_it_keeps(self):
        """No whole-cloud copy: the peak is the coords and weights plus 10 %,
        beside the constructor's own bounded lattice-detection blocks."""
        mt.build_grid_space("grid3d", 1 / 4)   # first-call allocations out of the way
        space, peak = _peak(lambda: mt.build_grid_space("grid3d", 1 / 40))
        weights, coords = space.weights.copy(), space.coords.copy()
        _, detection = _peak(lambda: mt.FiniteMetricMeasureSpace(weights=weights, coords=coords, resolution=1 / 40))
        assert peak <= 1.1 * (coords.nbytes + weights.nbytes) + detection


class TestGenerate:
    def test_simple_case_pieces_verified(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8))
        for pc in pw.pieces:
            k1, k2 = pc.adr_constants
            assert 0 < k1 <= k2

    def test_difficult_case_shapes(self):
        space, pw = mt.generate(mt.difficult_case_spec(1 / 8), verify=False)
        assert pw.pieces[0].theta == 0.0 and pw.pieces[1].theta == 1.0
        # the region carries plain mu weights
        np.testing.assert_allclose(pw.pieces[0].weights, space.weights[pw.pieces[0].ids])

    def test_theta_at_ambient_rejected(self):
        spec = mt.GeneratorSpec(
            kind="grid2d", h=0.25, pieces=[mt.PieceSpec("segment", 2.0, {"axis": 0})]
        )
        with pytest.raises(ParameterError):
            mt.generate(spec)

    def test_segment_weights_trapezoidal(self):
        space, pw = mt.generate(
            mt.GeneratorSpec(kind="grid1d", h=1 / 64,
                             pieces=[mt.PieceSpec("segment", 0.5, {"axis": 0})]),
            verify=False,
        )
        w = pw.pieces[0].weights
        assert w[0] == pytest.approx(1 / 128) and w[1] == pytest.approx(1 / 64)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_union_porous_at_piece_product(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 16), verify=False)
        grid = mt.default_r_grid(space)
        sigmas = []
        for pc in pw.pieces:
            best = None
            for sigma in (0.5, 0.25, 0.125):
                if mt.porosity_scan(space, pc.ids, sigma, grid).is_porous:
                    best = sigma
                    break
            assert best is not None
            sigmas.append(best)
        product = mt.porosity_product_sigma(sigmas)
        rep = mt.porosity_scan(space, pw.union_ids, product, grid)
        assert rep.is_porous

    @pytest.mark.parametrize("spec", [mt.simple_case_spec(1 / 24), mt.difficult_case_spec(1 / 32), mt.nested_case_spec(1 / 24),
                                      mt.simple_case_spec(1 / 40)], ids=["simple", "difficult", "nested", "simple_40"])
    def test_blocked_masks_equal_whole_array_masks(self, spec):
        """Segment and face ids (and the face's edge weights) equal those of
        the whole-array ``|x - v| <= 1e-9`` masks bit for bit."""
        space, pw = mt.generate(spec, verify=False)
        coords, h = space.coords, space.resolution

        def near(x, v):
            return np.abs(x - v) <= 1e-9

        for ps, pc in zip(spec.pieces, pw.pieces):
            pl = ps.placement
            if ps.shape == "segment":
                axis = pl["axis"]
                mask = (coords[:, axis] >= -1e-9) & (coords[:, axis] <= 1 + 1e-9)
                for a, v in zip([a for a in range(space.dim) if a != axis], pl["anchor"]):
                    mask &= near(coords[:, a], v)
                ids = np.flatnonzero(mask)
                want = ids[np.argsort(coords[ids, axis])]
            elif ps.shape == "square_face":
                want = np.flatnonzero(near(coords[:, pl["axis"]], pl["offset"]))
                w = np.ones(want.size)
                for a in (0, 1):
                    pos = coords[want, a]
                    w = w * np.where(near(pos, 0.0) | near(pos, 1.0), h / 2.0, h)
                assert pc.weights.tobytes() == w.tobytes()
            else:
                continue
            assert pc.ids.tobytes() == want.tobytes() and pc.ids.dtype == want.dtype

    def test_segment_masks_hold_no_cloud_sized_float(self):
        """The segment's anchor masks are made in blocks: the piece build peaks
        below one float per point of the cloud."""
        space = mt.build_grid_space("grid3d", 1 / 40)
        spec = mt.PieceSpec("segment", 2.0, {"axis": 2, "anchor": (0.5, 0.5)})
        generators._build_piece(space, spec, "warm-up")
        piece, peak = _peak(lambda: generators._build_piece(space, spec, "segment"))
        assert piece.ids.size == 41 and space.n > 4 * _LATTICE_ROWS
        assert peak < 8 * space.n

    def test_point_cluster(self):
        spec = mt.GeneratorSpec(
            kind="grid2d", h=1 / 8,
            pieces=[mt.PieceSpec("point_cluster", 1.0, {"points": [(0.5, 0.5), (0.25, 0.75)]})],
        )
        space, pw = mt.generate(spec, verify=False)
        assert pw.pieces[0].ids.size == 2
        assert np.all(pw.pieces[0].weights > 0)


    def test_point_cluster_takes_the_first_nearest_point(self):
        """``_nearest``, by blocks of _LATTICE_ROWS rows, gives the id
        ``np.argmin`` takes over the whole cloud's norms: for grid points,
        points off the grid, and a point repeated in a later block (a tie
        that the first block wins)."""
        space = mt.build_grid_space("grid3d", 1 / 40)
        rng = np.random.default_rng(0)
        cloud = rng.uniform(size=(3 * _LATTICE_ROWS, 2))
        cloud[2 * _LATTICE_ROWS + 5] = cloud[7]
        for coords, pts in ((space.coords, np.vstack([space.coords[[0, 17, space.n - 1]], rng.uniform(-0.2, 1.2, (20, 3))])),
                            (cloud, np.vstack([cloud[[7, 2 * _LATTICE_ROWS + 5, 3 * _LATTICE_ROWS - 1]],
                                               rng.uniform(size=(20, 2))]))):
            for q in pts:
                assert generators._nearest(coords, q) == int(np.argmin(np.linalg.norm(coords - q, axis=1)))
        assert generators._nearest(cloud, cloud[7]) == 7

    def test_point_cluster_memory_at_h_40(self):
        """A 2-point cluster on the 68,921-point h = 1/40 grid peaks below
        8 bytes per cloud point: no whole-cloud distance temporary."""
        space = mt.build_grid_space("grid3d", 1 / 40)
        spec = mt.PieceSpec("point_cluster", 2.0, {"points": [(0.3, 0.31, 0.7), (0.5, 0.5, 0.5)]})
        generators._build_piece(space, spec, "warm-up")
        piece, peak = _peak(lambda: generators._build_piece(space, spec, "cluster"))
        assert piece.ids.size == 2 and space.n > 4 * _LATTICE_ROWS
        assert peak < 8 * space.n


class TestSampleFunctions:
    def test_families(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        for fam in ("constant", "linear", "hoelder:0.6", "hoelder:0.3", "step", "random:2"):
            f = mt.make_sample_function(space, pw, fam, seed=2)
            assert np.all(np.isfinite(f.values))

    def test_step_jumps_across_interface(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        f = mt.make_sample_function(space, pw, "step")
        seg = pw.pieces[1]
        vals = f.values[seg.ids]
        assert set(np.unique(vals)) == {0.0, 1.0}

    def test_random_seed_reproducible(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        f1 = mt.make_sample_function(space, pw, "random", seed=5)
        f2 = mt.make_sample_function(space, pw, "random", seed=5)
        np.testing.assert_array_equal(f1.values, f2.values)

    @pytest.mark.parametrize("seed", [-1, 2.0, "3", None, [1, 2]])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        with pytest.raises(InvalidParameter):
            mt.make_sample_function(space, pw, "random", seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.uint64(7)])
    def test_numpy_integer_seeds(self, seed):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        want = mt.make_sample_function(space, pw, "random", seed=7).values
        assert mt.make_sample_function(space, pw, "random", seed=seed).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, generators._PCG_BLOCK - 1, generators._PCG_BLOCK, generators._PCG_BLOCK + 1,
                                   3 * generators._PCG_BLOCK + 17])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.one_of(st.just(0), st.integers(0, 2**64), st.integers(2**128, 2**200)))
    def test_random_equals_numpy_default_rng(self, n, seed):
        """The ``random`` family is ``np.random.default_rng(seed).uniform(-1, 1, n)``
        bit for bit: seeds of one to three 32-bit words, and of five or more,
        which take SeedSequence's extra-entropy loop; sizes around the block."""
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        got = generators._uniform(seed, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_random_family_equals_numpy_on_the_cloud(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 24), verify=False)
        for seed in (0, 7, 2**32, 3**100):
            f = mt.make_sample_function(space, pw, "random", seed=seed)
            assert f.values.tobytes() == np.random.default_rng(seed).uniform(-1.0, 1.0, space.n).tobytes()

    def test_blocked_hoelder_equals_whole_array_norm(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0.0, 1.0, (2 * _LATTICE_ROWS + 5, 3))
        space = mt.FiniteMetricMeasureSpace(weights=np.ones(coords.shape[0]), coords=coords, resolution=0.5)
        for alpha in (0.3, 1.0):
            f = mt.make_sample_function(space, None, f"hoelder:{alpha}")
            want = np.linalg.norm(coords - np.full(3, 0.5), axis=1) ** alpha
            assert f.values.tobytes() == want.tobytes()

    def test_hoelder_memory_is_values_and_one_block(self):
        space = mt.build_grid_space("grid3d", 1 / 40)
        mt.make_sample_function(space, None, "hoelder:0.6")
        _, block = _peak(lambda: np.linalg.norm(space.coords[:_LATTICE_ROWS] - np.full(3, 0.5), axis=1) ** 0.6)
        f, peak = _peak(lambda: mt.make_sample_function(space, None, "hoelder:0.6"))
        assert space.n > 4 * _LATTICE_ROWS
        assert peak <= f.values.nbytes + block + 65536

    def test_bad_family(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        with pytest.raises(InvalidParameter):
            mt.make_sample_function(space, pw, "wavelet")
        with pytest.raises(InvalidParameter):
            mt.make_sample_function(space, pw, "hoelder:1.5")
