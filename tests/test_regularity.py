import functools
import math

import numpy as np
import pytest

import mmtrace as mt
from mmtrace.errors import InvalidGrid, InvalidParameter, ResolutionError


def lcr_by_contents(space, subset_ids, theta, r_grid):
    """The defining loop: one public greedy content per (x, r)."""
    subset_ids = np.unique(subset_ids)
    lam = np.inf
    for r in r_grid:
        for x in subset_ids:
            members = space.members(int(x), r)
            local = members[np.isin(members, subset_ids)]
            sol = mt.hausdorff_content(space, mt.ContentQuery(local, theta, r, "greedy"))
            lam = min(lam, sol.value * r**theta / space.ball_mass(int(x), r))
    return float(lam)


def lcr_by_local_pools(space, subset_ids, theta, r_grid):
    """``check_lcr`` with one candidate pool per (x, r): the dyadic balls
    around each point of B_r(x) cap S, their covers read from a fresh
    ``SubsetNeighbors`` of that local set, weighted by ``ball_mass``."""
    from mmtrace._neighbors import SubsetNeighbors
    from mmtrace.content import _greedy_cover, _pool_radii

    subset_ids = np.unique(subset_ids)
    ball_mass = functools.cache(space.ball_mass)
    lam = np.inf
    for r in r_grid:
        radii = _pool_radii(space, r)
        for x, mass in zip(subset_ids, space.masses_at_radius(r, subset_ids)):
            local = np.intersect1d(space.members(int(x), r), subset_ids)
            nbrs = SubsetNeighbors(space, local)
            lists = [nbrs._sweep(nbrs.ids, rp) for rp in radii]
            covers, weights = [], []
            for a, c in enumerate(local):
                for rp, (indptr, indices) in zip(radii, lists):
                    covers.append(indices[indptr[a] : indptr[a + 1]])
                    weights.append(ball_mass(int(c), rp) / rp**theta)
            _, value = _greedy_cover(local.size, covers, weights)
            lam = min(lam, value * r**theta / mass)
    return float(lam)


class TestAdr:
    def test_whole_space_theta_zero(self, grid1d_11):
        piece = mt.SubsetPiece(ids=np.arange(11), theta=0.0, weights=grid1d_11.weights.copy())
        k1, k2, ok = mt.check_adr(grid1d_11, piece, [0.4, 0.2])
        assert ok
        assert k1 == pytest.approx(1.0, rel=1e-12)
        assert k2 == pytest.approx(1.0, rel=1e-12)

    def test_segment_in_cube(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 16), verify=False)
        k1, k2, ok = mt.check_adr(space, pw.pieces[1], mt.default_r_grid(space))
        assert ok and 0 < k1 <= k2
        assert k2 / k1 <= 16.0

    def test_gap_piece_flagged(self):
        coords = np.linspace(0, 1, 65).reshape(-1, 1)
        sp = mt.FiniteMetricMeasureSpace(weights=np.full(65, 1 / 65), coords=coords, resolution=1 / 64)
        # two end clusters separated by a long gap; the scanned radii span it
        ids = np.concatenate([np.arange(0, 4), np.arange(61, 65)])
        piece = mt.SubsetPiece(ids=ids, theta=0.0, weights=sp.weights[ids])
        grid = [1.0, 0.5, 0.25, 0.125, 0.0625]
        k1, k2, ok = mt.check_adr(sp, piece, grid, max_ratio=5.0)
        assert not ok
        assert k2 / k1 > 5.0
        # the gapless comparison piece is regular under the same threshold
        full = mt.SubsetPiece(ids=np.arange(65), theta=0.0, weights=sp.weights.copy())
        _, _, ok_full = mt.check_adr(sp, full, grid, max_ratio=5.0)
        assert ok_full

    def test_empty_grid(self, grid1d_11):
        piece = mt.SubsetPiece(ids=[0], theta=0.0, weights=[1.0])
        with pytest.raises(InvalidGrid):
            mt.check_adr(grid1d_11, piece, [])


class TestLcr:
    def test_adr_piece_passes(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        seg = pw.pieces[1]
        grid = mt.default_r_grid(space)
        k1, k2, ok = mt.check_adr(space, seg, grid)
        lam = mt.check_lcr(space, seg.ids, seg.theta, grid)
        assert lam > 0
        # quantitative containment: the cover bound degrades kappa1 at most
        # by the greedy factor
        pool = seg.ids.size * 8
        assert lam >= k1 / (1.0 + math.log(pool)) - 1e-12

    def test_union_closure(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        grid = [0.5, 0.25]
        theta = pw.theta_S
        lam1 = mt.check_lcr(space, pw.pieces[0].ids, theta, grid)
        lam2 = mt.check_lcr(space, pw.pieces[1].ids, theta, grid)
        lam_union = mt.check_lcr(space, pw.union_ids, theta, grid)
        assert lam_union > 0
        assert lam_union >= 0.5 * min(lam1, lam2)

    def test_single_point_lowest_scale(self, grid1d_11):
        lam = mt.check_lcr(grid1d_11, [5], 0.0, [2 * grid1d_11.scale_floor])
        assert lam > 0.2

    @pytest.mark.parametrize("spec", [mt.simple_case_spec, mt.difficult_case_spec])
    def test_equals_the_content_loop(self, spec):
        space, pw = mt.generate(spec(1 / 8), verify=False)
        grid = mt.default_r_grid(space)
        for subset, theta in [(pc.ids, pc.theta) for pc in pw.pieces] + [(pw.union_ids, pw.theta_S)]:
            want = lcr_by_contents(space, subset, theta, grid)
            assert mt.check_lcr(space, subset, theta, grid) == pytest.approx(want, rel=1e-12, abs=0)

    def test_equals_the_content_loop_random_cloud(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 1, size=(150, 2))
        for geometry in ({"coords": coords}, {"dist_matrix": np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))}):
            sp = mt.FiniteMetricMeasureSpace(weights=rng.uniform(0.5, 1.5, 150) / 150, resolution=1 / 16, **geometry)
            subset = np.flatnonzero(coords[:, 0] < 0.4)
            for theta in (0.0, 0.7, 1.5):
                want = lcr_by_contents(sp, subset, theta, [0.5, 0.25, 0.125])
                assert mt.check_lcr(sp, subset, theta, [0.5, 0.25, 0.125]) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("case", ["simple-8", "simple-12", "half-plane", "twin"])
    def test_equals_the_pool_per_centre_and_radius(self, case):
        """Bit for bit the formulation with one candidate pool per (x, r):
        a fresh ``SubsetNeighbors`` of B_r(x) cap S and one ``ball_mass``
        per candidate ball."""
        if case == "half-plane":
            space, pw = mt.generate(mt.difficult_case_spec(1 / 8), verify=False)
            cases = [(pw.pieces[0].ids, pw.pieces[0].theta)]
        else:
            space, pw = mt.generate(mt.simple_case_spec(1 / 12 if case == "simple-12" else 1 / 8), verify=False)
            cases = [(pc.ids, pc.theta) for pc in pw.pieces] + [(pw.union_ids, pw.theta_S)]
        if case == "twin":
            space = mt.FiniteMetricMeasureSpace(weights=space.weights * np.linspace(1.0, 2.0, space.n), coords=space.coords,
                                                resolution=space.resolution)
            assert space._lattice is None
        grid = mt.default_r_grid(space)
        for subset, theta in cases:
            assert mt.check_lcr(space, subset, theta, grid) == lcr_by_local_pools(space, subset, theta, grid)

    def test_each_local_set_is_covered_once(self):
        """At simple h = 1/20, 20 of the segment's 63 (x, r) problems over
        ``default_r_grid`` repeat an earlier local set B_r(x) cap S of their
        radius: ``check_lcr`` solves one greedy cover per (r, local set),
        and its value equals the local-pools oracle bit for bit."""
        from unittest import mock

        from mmtrace import regularity
        from mmtrace._neighbors import subset_neighbors

        space, pw = mt.generate(mt.simple_case_spec(1 / 20), verify=False)
        seg, grid = pw.pieces[1], mt.default_r_grid(space)
        nbrs, problems, distinct = subset_neighbors(space, seg.ids), 0, 0
        for r in grid:
            indptr, indices = nbrs._sweep(nbrs.ids, r)
            problems += indptr.size - 1
            distinct += len({indices[a:b].tobytes() for a, b in zip(indptr[:-1], indptr[1:])})
        assert (problems, problems - distinct) == (63, 20)
        with mock.patch.object(regularity, "_greedy_cover", side_effect=regularity._greedy_cover) as cover:
            lam = mt.check_lcr(space, seg.ids, seg.theta, grid)
        assert cover.call_count == distinct
        assert lam == lcr_by_local_pools(space, seg.ids, seg.theta, grid)

    def test_radius_at_the_floor(self, grid1d_11):
        with pytest.raises(ResolutionError):
            mt.check_lcr(grid1d_11, [4, 5], 1.0, [0.4, grid1d_11.scale_floor])


class TestPorosity:
    def test_whole_space_never_porous(self, grid1d_11):
        for sigma in (0.1, 0.5, 1.0):
            rep = mt.porosity_scan(grid1d_11, np.arange(11), sigma, [0.5, 0.25])
            assert not rep.is_porous

    def test_segment_in_cube(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        rep = mt.porosity_scan(space, pw.pieces[1].ids, 0.25, mt.default_r_grid(space))
        assert rep.is_porous

    def test_parallel_segments(self):
        coords = np.stack(
            np.meshgrid(np.linspace(0, 1, 65), np.linspace(0, 1, 65), indexing="ij"), axis=-1
        ).reshape(-1, 2)
        sp = mt.FiniteMetricMeasureSpace(
            weights=np.full(65 * 65, 1 / 65**2), coords=coords, resolution=1 / 64
        )
        # two grid rows 1/8 apart; the hole radius 0.25 * 0.25 - 1/64 is
        # three mesh cells, and such a hole fits beside each line
        near = np.abs(coords[:, 1] - 28 / 64) < 1e-9
        far = np.abs(coords[:, 1] - 36 / 64) < 1e-9
        ids = np.flatnonzero(near | far)
        assert ids.size == 130
        rep = mt.porosity_scan(sp, ids, 0.25, [0.25])
        assert rep.is_porous

    def test_sigma_monotone(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        grid = [0.5, 0.25]
        rep_small = mt.porosity_scan(space, pw.union_ids, 0.1, grid)
        rep_big = mt.porosity_scan(space, pw.union_ids, 0.3, grid)
        for m_small, m_big in zip(rep_small.porous_points_per_scale, rep_big.porous_points_per_scale):
            assert np.all(m_big <= m_small)

    def test_invalid_sigma(self, grid1d_11):
        with pytest.raises(InvalidParameter):
            mt.porosity_scan(grid1d_11, [0], 1.5, [0.5])

    def test_json_keys(self, grid1d_11):
        rep = mt.porosity_scan(grid1d_11, [0, 5], 0.25, [0.5])
        payload = rep.to_json()
        assert set(payload) == {"sigma", "r", "porous_fraction", "ok"}


class TestCompose:
    def test_theta_order(self):
        a = mt.SubsetPiece(ids=[0, 1], theta=1.0, weights=[1.0, 1.0])
        b = mt.SubsetPiece(ids=[2, 3], theta=2.0, weights=[1.0, 1.0])
        pw = mt.compose_piecewise([a, b])
        assert pw.theta_S == 2.0 and pw.N == 2
        assert list(pw.union_ids) == [0, 1, 2, 3]

    def test_single_piece(self):
        a = mt.SubsetPiece(ids=[4], theta=0.7, weights=[1.0])
        assert mt.compose_piecewise([a]).theta_S == 0.7

    def test_nested_overlapping_accepted(self):
        space, pw = mt.generate(mt.nested_case_spec(1 / 8), verify=False)
        # the segment lies inside the face: union is just the face
        assert pw.union_ids.size == pw.pieces[0].ids.size

    def test_non_increasing_rejected(self):
        a = mt.SubsetPiece(ids=[0], theta=2.0, weights=[1.0])
        b = mt.SubsetPiece(ids=[1], theta=1.0, weights=[1.0])
        with pytest.raises(InvalidParameter):
            mt.compose_piecewise([a, b])


class TestSubsetPiece:
    def test_sorted_by_id(self):
        piece = mt.SubsetPiece(ids=[3, 0, 2], theta=1.0, weights=[3.0, 1.0, 2.0])
        assert piece.ids.tolist() == [0, 2, 3] and piece.weights.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("ids, weights, match", [
        ([1, 1, 2], [1.0, 1.0, 1.0], "point id 1 given more than once"),
        ([2, 0, 2], [1.0, 2.0, 3.0], "point id 2 given more than once"),
        ([-1, 2], [1.0, 1.0], "negative point id -1"),
        ([0, 1], [1.0, float("nan")], "finite"),
        ([0, 1], [float("inf"), 1.0], "finite"),
        ([0, 1], [1.0, 0.0], "strictly positive"),
    ], ids=["repeated", "repeated_unsorted", "negative", "nan", "inf", "zero"])
    def test_rejected(self, ids, weights, match):
        with pytest.raises(InvalidParameter, match=match):
            mt.SubsetPiece(ids=ids, theta=1.0, weights=weights)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, -0.5])
    def test_theta_rejected(self, theta):
        with pytest.raises(InvalidParameter, match="codimension"):
            mt.SubsetPiece(ids=[0, 1], theta=theta, weights=[1.0, 1.0])


class TestPorosityProduct:
    def test_two_factors(self):
        assert mt.porosity_product_sigma([0.75, 0.75]) == pytest.approx(0.25)

    def test_single(self):
        assert mt.porosity_product_sigma([0.9]) == pytest.approx(0.6)

    def test_three(self):
        assert mt.porosity_product_sigma([0.75] * 3) == pytest.approx(0.125)

    def test_empty(self):
        with pytest.raises(InvalidParameter):
            mt.porosity_product_sigma([])
