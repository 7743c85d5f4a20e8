import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtrace as mt
from mmtrace.content import _candidate_pool, _exact_cover, _greedy_cover
from mmtrace.errors import InvalidParameter, MissingMetadata, ResolutionError
from oracles import oball, ogreedy_cover

PROPS = settings(max_examples=60, deadline=None)


def recompute_value(space, sol, theta):
    return sum(space.ball_mass(b.center, b.radius) / b.radius**theta for b in sol.balls)


class TestContent:
    def test_empty_target(self, grid1d_11):
        sol = mt.hausdorff_content(grid1d_11, mt.ContentQuery([], 1.0, 0.5))
        assert sol.value == 0.0 and sol.balls == []

    def test_single_point_theta_zero(self, grid1d_11):
        # cost mu(B_r) is minimized at the smallest admissible radius
        sol = mt.hausdorff_content(grid1d_11, mt.ContentQuery([5], 0.0, 0.9, "exact"))
        expected = grid1d_11.ball_mass(5, grid1d_11.scale_floor)
        assert sol.value == pytest.approx(expected, rel=1e-12)

    def test_two_points_greedy_vs_exact(self, grid1d_11):
        q = mt.ContentQuery([0, 5], 0.5, 0.3, "both")
        sol = mt.hausdorff_content(grid1d_11, q)
        balls, covers, weights = _candidate_pool(grid1d_11, q.target, 0.5, 0.3)
        assert len(balls) <= 24
        _, exact_val = _exact_cover(2, covers, weights)
        assert sol.value >= exact_val - 1e-12
        assert sol.value / exact_val <= 1.0 + math.log(len(balls))
        assert sol.optimality_gap is not None

    def test_value_matches_recomputation(self, grid1d_11):
        sol = mt.hausdorff_content(grid1d_11, mt.ContentQuery([0, 3, 7], 0.7, 0.6))
        assert sol.value == pytest.approx(recompute_value(grid1d_11, sol, 0.7), rel=1e-12)
        covered = set()
        for b in sol.balls:
            assert 0 < b.radius < 0.6
            covered |= set(map(int, mt.ball_members(grid1d_11, b)))
        assert {0, 3, 7} <= covered

    def test_delta_below_floor(self, grid1d_11):
        with pytest.raises(ResolutionError):
            mt.hausdorff_content(grid1d_11, mt.ContentQuery([0], 1.0, 0.05))

    def test_exact_limit(self):
        coords = np.linspace(0, 1, 33).reshape(-1, 1)
        sp = mt.FiniteMetricMeasureSpace(weights=np.full(33, 1 / 33), coords=coords, resolution=1 / 32)
        with pytest.raises(InvalidParameter):
            mt.hausdorff_content(sp, mt.ContentQuery(np.arange(20), 0.5, 1.0, "exact"))

    def test_exact_monotone_in_target(self, grid1d_11):
        v1 = mt.hausdorff_content(grid1d_11, mt.ContentQuery([2, 8], 0.5, 0.4, "exact")).value
        v2 = mt.hausdorff_content(grid1d_11, mt.ContentQuery([2, 5, 8], 0.5, 0.4, "exact")).value
        assert v1 <= v2 + 1e-12

    def test_exact_subadditive(self, grid1d_11):
        a = mt.hausdorff_content(grid1d_11, mt.ContentQuery([0, 2], 0.5, 0.4, "exact")).value
        b = mt.hausdorff_content(grid1d_11, mt.ContentQuery([8, 10], 0.5, 0.4, "exact")).value
        ab = mt.hausdorff_content(grid1d_11, mt.ContentQuery([0, 2, 8, 10], 0.5, 0.4, "exact")).value
        assert ab <= a + b + 1e-12

    def test_exact_delta_monotone(self, grid1d_11):
        v_small = mt.hausdorff_content(grid1d_11, mt.ContentQuery([0, 5, 10], 0.5, 0.15, "exact")).value
        v_big = mt.hausdorff_content(grid1d_11, mt.ContentQuery([0, 5, 10], 0.5, 0.8, "exact")).value
        assert v_small >= v_big - 1e-12

    def test_greedy_soundness_random(self):
        rng = np.random.default_rng(5)
        coords = np.linspace(0, 1, 17).reshape(-1, 1)
        sp = mt.FiniteMetricMeasureSpace(
            weights=rng.uniform(0.5, 1.5, 17) / 17, coords=coords, resolution=1 / 16
        )
        for trial in range(10):
            target = np.sort(rng.choice(17, size=3, replace=False))
            q = mt.ContentQuery(target, 0.8, 0.3, "both")
            sol = mt.hausdorff_content(sp, q)
            balls, covers, weights = _candidate_pool(sp, q.target, 0.8, 0.3)
            _, exact_val = _exact_cover(target.size, covers, weights)
            assert sol.value >= exact_val - 1e-12
            assert sol.value <= (1.0 + math.log(len(balls))) * exact_val + 1e-12


@st.composite
def lattice_queries(draw):
    """A uniform or two-valued lattice cloud in 1-3 dimensions (so ball
    weights tie), a target subset, a codimension and a scale."""
    dim = draw(st.integers(1, 3))
    side = draw(st.integers(2, {1: 17, 2: 6, 3: 4}[dim]))
    axes = np.meshgrid(*[np.arange(side) / (side - 1)] * dim, indexing="ij")
    coords = np.stack([a.ravel() for a in axes], axis=1)
    n = coords.shape[0]
    weights = np.full(n, 1.0 / n)
    if draw(st.booleans()):
        weights[:: draw(st.integers(2, 5))] *= 2.0
    space = mt.FiniteMetricMeasureSpace(weights=weights, coords=coords, resolution=1.0 / (side - 1))
    target = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=40))))
    theta = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    delta = draw(st.sampled_from([0.3, 0.5, 1.0, 2.5])) + space.scale_floor
    return space, target, theta, delta


class TestLazyGreedy:
    @PROPS
    @given(lattice_queries())
    def test_lattice_pools_pick_the_plain_scan(self, query):
        space, target, theta, delta = query
        _, covers, weights = _candidate_pool(space, target, theta, delta)
        chosen, total = _greedy_cover(target.size, covers, weights)
        assert chosen == ogreedy_cover(target.size, covers, weights)
        assert total == sum(weights[i] for i in chosen)

    @PROPS
    @given(st.integers(1, 12), st.data())
    def test_tied_random_pools_pick_the_plain_scan(self, n_target, data):
        covers = [np.array([e]) for e in range(n_target)]
        covers += [np.array(sorted(c)) for c in data.draw(st.lists(
            st.sets(st.integers(0, n_target - 1), min_size=1), max_size=20))]
        order = data.draw(st.permutations(range(len(covers))))
        covers = [covers[i] for i in order]
        weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]),
                                     min_size=len(covers), max_size=len(covers)))
        chosen, _ = _greedy_cover(n_target, covers, weights)
        assert chosen == ogreedy_cover(n_target, covers, weights)

    @PROPS
    @given(lattice_queries())
    def test_pool_members_and_weights(self, query):
        space, target, theta, delta = query
        balls, covers, weights = _candidate_pool(space, target, theta, delta)
        pos = {int(x): a for a, x in enumerate(target)}
        for b, cov, w in zip(balls, covers, weights):
            want = [pos[i] for i in oball(space.coords, b.center, b.radius) if i in pos]
            assert list(cov) == want
            # bit for bit: cover ties on lattices flip on last-bit changes
            assert w == space.ball_mass(b.center, b.radius) / b.radius**theta

    def test_face_cover_matches_plain_scan(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        face = pw.pieces[0]
        _, covers, weights = _candidate_pool(space, face.ids, face.theta, 0.25)
        chosen, _ = _greedy_cover(face.ids.size, covers, weights)
        assert chosen == ogreedy_cover(face.ids.size, covers, weights)


class TestMeasure:
    def test_empty(self, grid1d_11):
        assert mt.hausdorff_measure(grid1d_11, [], 1.0).value == 0.0

    def test_segment_in_cube_comparable_to_length(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        segment = pw.pieces[1]
        trace = mt.hausdorff_measure(space, segment.ids, 2.0)
        # analytic scale: mass-per-cost of a ball of radius r is ~ (4pi/3) r,
        # so covering a unit segment costs a small multiple of its length
        assert trace.value == pytest.approx(1.0, abs=3.0)
        assert 0.25 <= trace.value <= 4.0

    def test_theta_zero_whole_space(self, grid1d_11):
        trace = mt.hausdorff_measure(grid1d_11, np.arange(11), 0.0)
        assert trace.value >= grid1d_11.total_mass - 1e-12
        assert trace.value <= 3.0 * grid1d_11.total_mass

    def test_nonstabilization_flagged(self, grid1d_11):
        # theta above the ambient dimension: the delta-limit blows up
        trace = mt.hausdorff_measure(grid1d_11, np.arange(11), 2.5)
        assert not trace.stabilized
        assert trace.values == sorted(trace.values)


class TestPieceWeights:
    def test_analytic_segment_cells(self):
        coords = np.linspace(0, 1, 65).reshape(-1, 1)
        sp = mt.FiniteMetricMeasureSpace(weights=np.full(65, 1 / 65), coords=coords, resolution=1 / 64)
        cells = np.full(65, 1 / 64)
        cells[0] = cells[-1] = 1 / 128
        w = mt.piece_measure_weights(sp, np.arange(65), 1.0, "analytic", cell_elements=cells)
        assert w[0] == pytest.approx(1 / 128) and w[32] == pytest.approx(1 / 64)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_needs_metadata(self, grid1d_11):
        with pytest.raises(MissingMetadata):
            mt.piece_measure_weights(grid1d_11, [0, 1], 1.0, "analytic")

    def test_content_single_point(self, grid1d_11):
        w = mt.piece_measure_weights(grid1d_11, [4], 0.7, "content")
        sol = mt.hausdorff_content(
            grid1d_11, mt.ContentQuery([4], 0.7, 2 * grid1d_11.scale_floor)
        )
        assert w[0] == pytest.approx(sol.value, rel=1e-12)

    def test_content_equals_singleton_covers(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        for pc in pw.pieces:
            for theta in (0.0, pc.theta, 2.5):
                w = mt.piece_measure_weights(space, pc.ids, theta, "content")
                want = [mt.hausdorff_content(space, mt.ContentQuery([x], theta, 2 * space.scale_floor)).value
                        for x in pc.ids]
                assert list(w) == want

    def test_face_areas_sum_to_one(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        face = pw.pieces[0]
        assert np.sum(face.weights) == pytest.approx(1.0, abs=1e-9)
