import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtrace as mt
from mmtrace.errors import EmptySet, InsufficientData, InvalidPoint, InvalidScale, ResolutionError
from mmtrace.space import _distinct, _in_sorted
from conftest import trees_built
from oracles import ogreedy_net, omass


class TestBalls:
    def test_grid_members(self, grid1d_11):
        ids = mt.ball_members(grid1d_11, mt.Ball(5, 0.15))
        np.testing.assert_allclose(grid1d_11.coords[ids].ravel(), [0.4, 0.5, 0.6])

    def test_diameter_covers_all(self, grid1d_11):
        ids = mt.ball_members(grid1d_11, mt.Ball(0, grid1d_11.diameter))
        assert ids.size == grid1d_11.n

    def test_single_point_zero_radius(self):
        sp = mt.FiniteMetricMeasureSpace(weights=[1.0], coords=[[0.0]], resolution=0.1)
        assert list(mt.ball_members(sp, mt.Ball(0, 0.0))) == [0]

    def test_invalid_point(self, grid1d_11):
        with pytest.raises(InvalidPoint):
            mt.ball_members(grid1d_11, mt.Ball(99, 0.1))

    def test_negative_radius(self):
        with pytest.raises(InvalidScale):
            mt.Ball(0, -0.1)

    def test_mu_ball(self, grid1d_11):
        assert mt.mu_ball(grid1d_11, mt.Ball(5, 0.15)) == pytest.approx(3 / 11, rel=1e-14)
        assert mt.mu_ball(grid1d_11, mt.Ball(0, 2.0)) == pytest.approx(1.0, rel=1e-14)
        # off-cloud center below the nearest-neighbor distance: empty ball
        assert mt.mu_ball(grid1d_11, mt.Ball(np.array([0.55]), 0.01)) == 0.0

    def test_closed_ball_monotone(self, grid1d_11):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = int(rng.integers(11))
            r1, r2 = sorted(rng.uniform(0, 1, 2))
            m1 = set(mt.ball_members(grid1d_11, mt.Ball(x, r1)))
            m2 = set(mt.ball_members(grid1d_11, mt.Ball(x, r2)))
            assert m1 <= m2
            assert mt.mu_ball(grid1d_11, mt.Ball(x, r1)) <= mt.mu_ball(grid1d_11, mt.Ball(x, r2)) + 1e-15


class TestNets:
    def test_greedy_trace_by_hand(self, grid1d_11):
        net = mt.separated_net(grid1d_11, range(11), 2)
        np.testing.assert_allclose(grid1d_11.coords[net.points].ravel(), [0.0, 0.3, 0.6, 0.9])
        assert net.covering_radius <= 0.25

    def test_scale_above_diameter(self, grid1d_11):
        net = mt.separated_net(grid1d_11, range(11), -1)
        assert net.points.size == 1

    def test_separation_and_maximality_exhaustive(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(0, 1, size=(400, 2))
        sp = mt.FiniteMetricMeasureSpace(
            weights=np.full(400, 1 / 400), coords=coords, resolution=0.01
        )
        for k in (1, 2, 3):
            net = mt.separated_net(sp, range(400), k)
            sep = 2.0 ** (-k)
            pts = net.points
            for a in range(len(pts)):
                for b in range(a):
                    assert sp.distance(int(pts[a]), int(pts[b])) >= sep * (1 - 1e-12)
            assert net.covering_radius <= sep * (1 + 1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.sampled_from(["lattice", "random", "matrix"]), st.data())
    def test_equal_to_the_greedy_scan(self, dim, k, kind, data):
        # lattice spacings are powers of two, so many distances equal 2^-k exactly
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        if kind == "random":
            coords = rng.uniform(0, 1, size=(data.draw(st.integers(1, 300)), dim))
        else:
            side = data.draw(st.integers(1, {1: 33, 2: 17, 3: 9}[dim]))
            axes = np.meshgrid(*[np.arange(side) / 2.0 ** data.draw(st.integers(1, 4))] * dim, indexing="ij")
            coords = np.stack([a.ravel() for a in axes], axis=1)
        n = coords.shape[0]
        dist = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        geometry = {"dist_matrix": dist} if kind == "matrix" else {"coords": coords}
        sp = mt.FiniteMetricMeasureSpace(weights=np.ones(n), resolution=1 / 16, **geometry)
        ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        net = mt.separated_net(sp, ids, k)
        assert list(net.points) == ogreedy_net(sp.distance, ids, 2.0**-k)
        want = dist[np.ix_(ids, net.points)].min(axis=1).max()
        assert abs(net.covering_radius - want) <= 1e-12 * max(1.0, want)

    def test_empty_subset(self, grid1d_11):
        with pytest.raises(EmptySet):
            mt.separated_net(grid1d_11, [], 1)

    def test_below_floor(self, grid1d_11):
        with pytest.raises(ResolutionError):
            mt.separated_net(grid1d_11, range(11), 6)  # 2^-6 < 0.1


class TestCoveringMultiplicity:
    def test_disjoint(self, grid1d_11):
        balls = [mt.Ball(0, 0.05), mt.Ball(5, 0.05)]
        assert mt.covering_multiplicity(grid1d_11, balls) == 1

    def test_identical(self, grid1d_11):
        balls = [mt.Ball(5, 0.2)] * 4
        assert mt.covering_multiplicity(grid1d_11, balls) == 4

    def test_dilated_net_balls_bounded_across_scales(self):
        space, _ = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        mults = []
        for k in (1, 2, 3):
            net = mt.separated_net(space, range(space.n), k, maximal=False)
            balls = [mt.Ball(int(x), 2.0 * 2.0 ** (-k)) for x in net.points]
            mults.append(mt.covering_multiplicity(space, balls))
        # bounded by a constant independent of the scale
        assert max(mults) <= 64
        assert max(mults) <= 4 * min(mults)


class TestDoubling:
    def test_single_point(self):
        sp = mt.FiniteMetricMeasureSpace(weights=[2.0], coords=[[0.0]], resolution=0.05)
        c, _ = mt.doubling_constant(sp, 0.5)
        assert c == pytest.approx(1.0)

    def test_1d_range(self, grid1d_11):
        c, arg = mt.doubling_constant(grid1d_11, 0.2)
        assert 1.0 <= c <= 4.0

    def test_3d_near_eight(self):
        space, _ = mt.generate(mt.simple_case_spec(1 / 32), verify=False)
        c, _ = mt.doubling_constant(space, 0.25)
        assert 4.0 <= c <= 16.0

    def test_monotone_in_R(self, grid1d_11):
        vals = [mt.doubling_constant(grid1d_11, R)[0] for R in (0.15, 0.2, 0.3, 0.4, 0.8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_no_radius(self, grid1d_11):
        with pytest.raises(ResolutionError):
            mt.doubling_constant(grid1d_11, 0.01)


class TestDecay:
    def test_3d_grid(self):
        space, _ = mt.generate(mt.simple_case_spec(1 / 16), verify=False)
        rep = mt.decay_exponents(space, 0.5)
        assert rep.Q_est == pytest.approx(3.0, abs=0.2)
        assert rep.q_est == pytest.approx(3.0, abs=0.2)
        assert rep.q_est <= rep.Q_est

    def test_1d_grid(self):
        coords = np.linspace(0, 1, 65).reshape(-1, 1)
        sp = mt.FiniteMetricMeasureSpace(weights=np.full(65, 1 / 65), coords=coords, resolution=1 / 64)
        rep = mt.decay_exponents(sp, 0.5)
        assert rep.Q_est == pytest.approx(1.0, abs=0.2)
        assert rep.q_est == pytest.approx(1.0, abs=0.2)

    def test_insufficient(self):
        coords = np.array([[0.0], [0.5], [1.0]])
        sp = mt.FiniteMetricMeasureSpace(weights=np.full(3, 1 / 3), coords=coords, resolution=0.5)
        with pytest.raises(InsufficientData):
            mt.decay_exponents(sp, 0.5)


class TestKofR:
    @pytest.mark.parametrize("r,k", [(1.0, 0), (0.3, 1), (2.0 ** (-5), 5), (2.0, -1), (0.5, 1)])
    def test_examples(self, r, k):
        assert mt.k_of_r(r) == k

    def test_bracket_property(self):
        rng = np.random.default_rng(123)
        for r in rng.uniform(1e-9, 1.0, 1000):
            k = mt.k_of_r(float(r))
            assert 2.0 ** (-k - 1) < r <= 2.0 ** (-k)

    def test_invalid(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidScale):
                mt.k_of_r(bad)


class TestMatrixMetric:
    def test_matrix_space_roundtrip(self):
        coords = np.linspace(0, 1, 7).reshape(-1, 1)
        mat = np.abs(coords - coords.T)
        sp = mt.FiniteMetricMeasureSpace(weights=np.full(7, 1 / 7), dist_matrix=mat, resolution=1 / 6)
        ids = mt.ball_members(sp, mt.Ball(3, 1 / 6 + 1e-9))
        assert list(ids) == [2, 3, 4]

    def test_asymmetric_rejected(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(mt.ParameterError):
            mt.FiniteMetricMeasureSpace(weights=[1, 1], dist_matrix=mat, resolution=0.5)

    @pytest.mark.parametrize("defect", ["negative", "asymmetric", "zero"])
    @pytest.mark.parametrize("pair", [(0, 1), (17, 260), (298, 299), (150, 3)])
    def test_every_entry_checked(self, defect, pair):
        # n = 300: well beyond any small sample of rows
        coords = np.linspace(0, 1, 300).reshape(-1, 1)
        mat = np.abs(coords - coords.T)
        i, j = pair
        if defect == "negative":
            mat[i, j] = mat[j, i] = -0.5
        elif defect == "asymmetric":
            mat[i, j] += 0.25
        else:
            mat[i, j] = mat[j, i] = 0.0
        with pytest.raises(mt.ParameterError):
            mt.FiniteMetricMeasureSpace(weights=np.ones(300), dist_matrix=mat, resolution=1 / 299)


class TestMassesAtCentres:
    """masses_at_radius(r, ids) counts only the centres asked for, into one
    cache entry per radius, and gives the whole-cloud values bit for bit."""

    LATTICE = np.stack(np.meshgrid(*[np.arange(9) / 8.0] * 3, indexing="ij"), -1).reshape(-1, 3)
    RADII = (0.3, 0.5, 1.0)   # 0.5 and 1.0 fall exactly on lattice distances

    @classmethod
    def _space(cls, branch):
        rng = np.random.default_rng(11)
        n = cls.LATTICE.shape[0]
        if branch == "matrix":
            coords = cls.LATTICE[::4]
            dist = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
            return mt.FiniteMetricMeasureSpace(weights=rng.uniform(0.5, 1.5, len(coords)), dist_matrix=dist)
        weights = {
            "uniform": np.full(n, 1 / n),
            "classes": rng.choice([0.5, 1.0, 2.0], size=n) / n,
            "general": rng.uniform(0.5, 1.5, n) / n,
        }[branch]
        return mt.FiniteMetricMeasureSpace(weights=weights, coords=cls.LATTICE)

    @pytest.mark.parametrize("branch", ["uniform", "classes", "general", "matrix"])
    def test_equal_to_whole_cloud(self, branch):
        whole = self._space(branch)
        space = self._space(branch)
        rng = np.random.default_rng(5)
        ref = {r: whole.masses_at_radius(r).copy() for r in self.RADII}
        asked = {r: set() for r in self.RADII}

        def ask():
            # interleaved radii, shuffled chunks with repeated ids
            for chunk in np.array_split(rng.permutation(space.n), 4):
                for r in self.RADII[::-1] if chunk.size % 2 else self.RADII:
                    ids = np.concatenate([chunk, chunk[:3], chunk[::-2]])
                    np.testing.assert_array_equal(space.masses_at_radius(r, ids), ref[r][ids])
                    asked[r] |= set(ids.tolist())
                    assert set(_counted(space, r).tolist()) == asked[r]

        _, trees = trees_built(ask)
        # uniform weights count on the cloud's tree, a few values on one tree
        # per value, built once; general weights sum the members of each ball
        # (the cloud's tree and one tree per block of centres), matrices compare
        sizes = {
            "uniform": [space.n],
            "classes": sorted(np.unique(space.weights, return_counts=True)[1].tolist()),
            "matrix": [],
        }
        if branch == "general":
            assert trees.count(space.n) == 1 and len(trees) > 1 and not space._neighbors
        else:
            assert sorted(trees) == sizes[branch]
        for r in self.RADII:
            np.testing.assert_array_equal(space.masses_at_radius(r), ref[r])
            assert space.masses_at_radius(r, []).size == 0
        if branch == "matrix":
            for x in range(space.n):
                want = sum(space.weights[space.dist_matrix[x] <= 0.5 * (1 + 1e-12) + 1e-12])
                assert space.masses_at_radius(0.5, [x])[0] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("branch", ["uniform", "classes"])
    def test_counts_match_one_worker(self, branch):
        from scipy.spatial import cKDTree

        space = self._space(branch)
        ids = np.arange(0, space.n, 7)
        for r in self.RADII:
            r_pad = r * (1 + 1e-12) + 1e-12
            want = 0.0
            for value in np.unique(space.weights):
                tree = cKDTree(space.coords[space.weights == value])
                want = want + value * tree.query_ball_point(space.coords[ids], r_pad, return_length=True, workers=1)
            np.testing.assert_array_equal(space.masses_at_radius(r, ids), want)

    @pytest.mark.parametrize("values, n", [(1, 300), (3, 600), (8, 600), (3, 300), (9, 600), (None, 600)])
    def test_matrix_metric_masses(self, values, n):
        """On a matrix metric one weight value, or at most 8 on more than 512
        points, give v times the count of points of weight v, summed over v
        ascending; other weights give ``ball_masses``, bit for bit; both
        equal a per-ball sum."""
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(n + (values or 0))
        coords = rng.uniform(0.0, 1.0, (n, 2))
        dist = cdist(coords, coords)
        pool = rng.uniform(0.5, 1.5, values or n) / n
        weights = pool[np.arange(n) % pool.size]
        space = mt.FiniteMetricMeasureSpace(weights=weights, dist_matrix=dist, resolution=1 / 32)
        twin = mt.FiniteMetricMeasureSpace(weights=weights, dist_matrix=dist, resolution=1 / 32)
        counted = values is not None and (values == 1 or (values <= 8 and n > 512))
        ids = np.concatenate([rng.permutation(n)[:40], [0, n - 1]])
        for r in (0.0, 0.05, 0.2, 1 / 3, 2.0):
            got = space.masses_at_radius(r, ids)
            near = dist[ids] <= r * (1 + 1e-12) + 1e-12
            if counted:
                want = sum(v * np.count_nonzero(near[:, weights == v], axis=1) for v in np.unique(weights).tolist())
            else:
                want = twin.ball_masses(ids, r)
            np.testing.assert_array_equal(got, want)
            for a in range(ids.size):
                assert got[a] == pytest.approx(math.fsum(weights[near[a]]), rel=1e-12)

    def test_generate_counts_only_on_the_support(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8))
        assert space._mass_cache
        for r in space._mass_cache:
            assert set(_counted(space, r).tolist()) <= set(pw.union_ids.tolist())

    @pytest.mark.parametrize("branch", ["uniform", "general"])
    def test_returns_a_new_array(self, branch):
        space = self._space(branch)
        for ids in (None, [3, 5, 3], None):
            first = space.masses_at_radius(0.5, ids)
            want = first.copy()
            first[:] = -1.0
            np.testing.assert_array_equal(space.masses_at_radius(0.5, ids), want)
            np.testing.assert_array_equal(space.masses_at_radius(0.5, [5]), want[-2:-1] if ids else want[5:6])

    @pytest.mark.parametrize("branch", ["uniform", "classes", "general", "matrix"])
    def test_partial_fills_keep_the_cache_entry(self, branch):
        """Out-of-order ids with repeats, asked at one radius, give the
        masses and the cache entry of a fill by ``np.setdiff1d`` bit for bit."""
        space, twin = self._space(branch), self._space(branch)
        rng = np.random.default_rng(3)
        r, n = 0.5, space.n
        known, masses = np.zeros(0, dtype=np.int64), np.zeros(0)
        for ids in ([7, 3, 7, 3], rng.integers(0, n, 40), [], [3, 7], rng.permutation(n)[: n // 2],
                    rng.permutation(n), [n - 1, 0, n - 1]):
            got = space.masses_at_radius(r, ids)
            centres = np.asarray(ids, dtype=np.int64)
            todo = np.zeros(0, dtype=np.int64) if known is None else np.setdiff1d(centres, known)
            if todo.size:
                at = np.searchsorted(known, todo)
                known, masses = np.insert(known, at, todo), np.insert(masses, at, twin._count_masses(todo, r))
                known = None if known.size == n else known
            assert got.tobytes() == masses[centres if known is None else np.searchsorted(known, centres)].tobytes()
            cached, held = space._mass_cache[r]
            assert (cached is None) == (known is None)
            assert known is None or (cached.dtype == known.dtype and cached.tobytes() == known.tobytes())
            assert held.tobytes() == masses.tobytes()
        assert known is None

    def test_cache_holds_16_bytes_per_counted_id(self):
        """After generate and a trace_simple:1 evaluation, each radius keeps
        an int64 id and a float64 mass per counted centre, or n masses by id."""
        from mmtrace.experiments import evaluate_functional
        from mmtrace.io import parse_config

        cfg = parse_config("kind = grid3d\npieces = square_face theta=1 ; segment theta=2 axis=2\n"
                           "resolutions = 1/16\nfunctions = hoelder:0.6\nfunctionals = trace_simple:1\np = 2.5")
        space, pw = mt.generate(mt.simple_case_spec(1 / 16))
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=cfg.p)
        evaluate_functional("trace_simple:1", space, pw, seq, mt.make_sample_function(space, pw, "hoelder:0.6"), cfg)
        assert space._mass_cache
        for r, (known, masses) in space._mass_cache.items():
            assert known is None or known.nbytes == 8 * known.size
            assert (0 if known is None else known.nbytes) + masses.nbytes <= 16 * _counted(space, r).size


class TestSortedSets:
    """``space._distinct`` and ``space._in_sorted`` give ``np.unique`` and
    ``np.isin`` (on a sorted, distinct haystack) bit for bit."""

    VALUES = {
        "int32": st.integers(-(2**31), 2**31 - 1) | st.integers(-3, 3),
        "int64": st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3),
        "float64": st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 0.5, 1.0]),
    }

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(VALUES)), st.sampled_from(["1-d", "list", "2-d"]), st.data())
    def test_distinct_is_unique(self, dtype, form, data):
        a = np.array(data.draw(st.lists(self.VALUES[dtype], max_size=30), label="values"), dtype=dtype)
        if form == "2-d":
            a = a[: a.size // 3 * 3].reshape(-1, 3)
        arg = a.tolist() if form == "list" else a
        got, want = _distinct(arg), np.unique(arg)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("arg", [[], np.zeros(0, dtype=np.int32), np.zeros((0, 3)), 7, [2.5, 2.5, -1.0]])
    def test_distinct_edge_cases(self, arg):
        got, want = _distinct(arg), np.unique(arg)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(["int32", "int64", "float64"]), st.lists(st.integers(-40, 40), max_size=20),
           st.lists(st.integers(-50, 50), max_size=30), st.booleans())
    def test_in_sorted_is_isin(self, dtype, haystack, queries, as_list):
        s = np.unique(np.array(haystack, dtype=dtype))
        a = np.array(queries, dtype=np.int64)
        arg = a.tolist() if as_list else a
        got, want = _in_sorted(arg, s), np.isin(arg, s)
        assert got.dtype == want.dtype == bool and got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("queries", [[-5, 2, 3, 5, 5, 9, 12, 2, 7], [], [[1, 2], [9, 10]], [2, 2, 2]])
    @pytest.mark.parametrize("haystack", [[2, 5, 9], [], [4]])
    def test_in_sorted_edge_cases(self, queries, haystack):
        """Queries below, between and above the haystack, repeated, none,
        2-d, and an empty haystack (all False)."""
        s = np.array(haystack, dtype=np.int64)
        got, want = _in_sorted(np.array(queries, dtype=np.int64), s), np.isin(queries, s)
        assert got.dtype == bool and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def _counted(space, r):
    """The ids the mass cache entry of radius r has counted, sorted."""
    known, _ = space._mass_cache[r]
    return np.arange(space.n) if known is None else known


def _id_space(kind):
    """A 9 x 9 cell-weight grid, the same points jittered, or their
    distance matrix."""
    from scipy.spatial.distance import cdist

    grid = mt.build_grid_space("grid2d", 1 / 8)
    if kind == "grid":
        return grid
    coords = grid.coords + np.random.default_rng(2).uniform(-0.3, 0.3, grid.coords.shape) / 8
    if kind == "jittered":
        return mt.FiniteMetricMeasureSpace(weights=grid.weights, coords=coords, resolution=1 / 8)
    return mt.FiniteMetricMeasureSpace(weights=grid.weights, dist_matrix=cdist(coords, coords), resolution=1 / 8)


def _calderon_at(space, bad):
    piece = mt.SubsetPiece(ids=np.arange(9), theta=1.0, weights=np.full(9, 1 / 9))
    seq = mt.build_measure_sequence(space, mt.compose_piecewise([piece]), 1.0, p=2.5)
    return mt.calderon_maximal(space, seq, np.arange(space.n, dtype=float), eval_ids=[3, bad])


ID_ENTRIES = {
    # on a grid the cached masses were read at the id, wrapping -1 to n - 1
    "masses_at_radius": lambda space, bad: (space.masses_at_radius(0.25), space.masses_at_radius(0.25, [bad])),
    "weight_w": lambda space, bad: mt.weight_w(space, 2, 3, bad),
    "weight_w_alt": lambda space, bad: mt.weight_w_alt(space, 2, bad, 3),
    "check_adr": lambda space, bad: mt.check_adr(space, mt.SubsetPiece(ids=[3, 5, bad], theta=1.0, weights=np.ones(3)),
                                                 [0.5, 0.25]),
    "check_lcr": lambda space, bad: mt.check_lcr(space, [3, 5, bad], 0.5, [0.5]),
    "porosity_scan": lambda space, bad: mt.porosity_scan(space, [bad, 3], 0.25, [0.5]),
    "separated_net": lambda space, bad: mt.separated_net(space, [bad, 3, 5], 3),
    "hausdorff_content": lambda space, bad: mt.hausdorff_content(space, mt.ContentQuery([bad, 3], 1.0, 0.25)),
    "calderon_maximal": _calderon_at,
}


@pytest.mark.parametrize("kind", ["grid", "jittered", "matrix"])
# a SubsetPiece rejects a negative id itself, before check_adr sees it
@pytest.mark.parametrize("entry, at", [(e, at) for e in sorted(ID_ENTRIES) for at in (-1, "n") if (e, at) != ("check_adr", -1)])
def test_out_of_range_ids_are_invalid_points(entry, at, kind):
    """Every way point ids enter rejects -1 and n with ``InvalidPoint``:
    no bare numpy error, and no id -1 read as point n - 1."""
    space = _id_space(kind)
    with pytest.raises(InvalidPoint):
        ID_ENTRIES[entry](space, space.n if at == "n" else at)


GRID_SIDES = {1: (2, 700), 2: (2, 30), 3: (2, 12)}


def _kd_twin(space):
    """The same cloud and weights at a resolution no grid side matches, so
    every mass is a KD count."""
    twin = mt.FiniteMetricMeasureSpace(weights=space.weights, coords=space.coords, resolution=2.0)
    assert twin._lattice is None
    return twin


def _grid_points(dim, m):
    """Lattice ids of the corners, edge, face and interior points: every
    combination of the indices 0, 1, m // 2, m - 1 and m per axis."""
    ticks = sorted({0, 1, m // 2, m - 1, m})
    grid = np.stack(np.meshgrid(*[ticks] * dim, indexing="ij"), -1).reshape(-1, dim)
    return np.ravel_multi_index(grid.T, (m + 1,) * dim)


class TestLatticeCounts:
    """On a full grid the ball masses come from integer lattice counts,
    equal bit for bit to the KD count, and no KD tree is built."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.sampled_from(["cell", "uniform", "merged"]), st.data())
    def test_equal_to_the_kd_count(self, dim, mode, data):
        m = data.draw(st.integers(*GRID_SIDES[dim]), label="m")
        h = 1.0 / m
        space = mt.build_grid_space(f"grid{dim}d", h, mu_weights="uniform" if mode == "uniform" else "cell")
        if mode == "merged":
            # one weight per number of boundary coordinates, some of them equal
            per_class = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=dim + 1, max_size=dim + 1)))
            bound = sum(np.isin(space.coords[:, a], (0.0, 1.0)).astype(int) for a in range(dim))
            space = mt.FiniteMetricMeasureSpace(weights=per_class[bound] * h**dim, coords=space.coords, resolution=h)
        twin = _kd_twin(space)
        assert space._lattice is not None and space._lattice[0] == m
        js = data.draw(st.lists(st.integers(0, dim * m * m + 2), min_size=1, max_size=6), label="j")
        radii = [math.sqrt(j) * h for j in js] + [2.0**-k for k in range(math.ceil(math.log2(m)) + 2)]
        centres = np.concatenate([_grid_points(dim, m), data.draw(st.lists(st.integers(0, space.n - 1), max_size=20))])
        built = 0
        for r in radii:
            got, trees = trees_built(lambda: space.masses_at_radius(r, centres))
            built += len(trees)
            np.testing.assert_array_equal(got, twin.masses_at_radius(r, centres))
            for x in centres[:: max(1, centres.size // 4)]:
                assert got[centres == x][0] == pytest.approx(omass(space.coords, space.weights, int(x), r), rel=1e-12)
        r = radii[0]
        got, trees = trees_built(lambda: space.masses_at_radius(r))
        np.testing.assert_array_equal(got, twin.masses_at_radius(r))
        # class counts and stencil member sums alike: no tree on a full grid
        assert built + len(trees) == 0

    @pytest.mark.parametrize("dim, m", [(1, 40), (1, 511), (2, 16), (2, 21), (3, 7)])
    def test_small_clouds_sum_their_stencil_members(self, dim, m):
        """A non-uniform lattice cloud of at most 512 points sums each ball
        over its members, read off the lattice stencil in increasing id
        order: the KD twin's per-member sums bit for bit, and no tree."""
        space = mt.build_grid_space(f"grid{dim}d", 1 / m)
        assert space.n <= 512 and np.unique(space.weights).size > 1 and space._lattice is not None
        twin = _kd_twin(space)
        built = 0
        for r in (0.0, 1 / m, math.sqrt(2) / m, 0.1, 0.25, 1 / 3, 0.5, 1.0, 2.0):
            got, trees = trees_built(lambda: space.masses_at_radius(r))
            built += len(trees)
            np.testing.assert_array_equal(got, twin.masses_at_radius(r))
        assert built == 0
        # an ambiguous radius takes the KD tree's per-member sum
        r = (math.sqrt(5 if dim > 1 else 4) / m - 1e-12) / (1 + 1e-12)
        got, trees = trees_built(lambda: space.masses_at_radius(r))
        np.testing.assert_array_equal(got, twin.masses_at_radius(r))
        # the cloud's tree and its blocks' trees; no weight value gets a layer
        assert space.n in trees and not space._neighbors

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.sampled_from(["root", "dyadic", "ambiguous"]), st.data())
    def test_members_and_nets_read_the_grid_stencil(self, dim, kind, data):
        """Members of id centres (so ``ball_mass``) and separated nets come
        off the whole-grid stencil, equal to the KD twin's, dtypes too, and
        build no tree; vector centres and ambiguous radii ask the tree."""
        m = data.draw(st.integers(GRID_SIDES[dim][0], min(GRID_SIDES[dim][1], 64)), label="m")
        space = mt.build_grid_space(f"grid{dim}d", 1 / m)
        twin = _kd_twin(space)
        j = data.draw(st.integers(0, dim * m * m + 2), label="j")
        radius = {
            "root": math.sqrt(j) / m,
            "dyadic": 2.0 ** -data.draw(st.integers(-1, 7), label="k"),
            # padded, this radius lands on a lattice distance up to round-off
            "ambiguous": (math.sqrt(min(max(j, 1), dim * m * m)) / m - 1e-12) / (1 + 1e-12),
        }[kind]
        centres = data.draw(st.lists(st.integers(0, space.n - 1), min_size=1, max_size=8), label="centres")
        built = 0
        for x in centres:
            (got, mass), trees = trees_built(lambda: (space.members(x, radius), space.ball_mass(x, radius)))
            built += len(trees)
            want = twin.members(x, radius)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert mass == twin.ball_mass(x, radius)
        assert (built == 0) == (kind != "ambiguous")
        vec = space.coords[centres[0]] + data.draw(st.floats(-0.5, 0.5), label="shift") / m
        got, trees = trees_built(lambda: space.members(vec, radius))
        np.testing.assert_array_equal(got, twin.members(vec, radius))
        # the cloud's tree, unless an ambiguous radius built it already
        assert len(trees) == (kind != "ambiguous")
        # nets need the grid's resolution; weights off the classes make no lattice
        other = mt.FiniteMetricMeasureSpace(weights=np.arange(1.0, space.n + 1), coords=space.coords, resolution=1 / m)
        assert other._lattice is None
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        ids = np.sort(rng.choice(space.n, size=int(rng.integers(1, space.n + 1)), replace=False))
        k = data.draw(st.integers(0, int(math.log2(m))), label="k_net")
        strict = space._grid_budget(math.nextafter(2.0**-k * (1 - 1e-12), 0)) is not None
        # a fresh space, so no tree of the subset is left from the queries above
        fresh = mt.FiniteMetricMeasureSpace(weights=space.weights, coords=space.coords, resolution=1 / m)
        built = 0
        for maximal in (False, True):
            a, trees = trees_built(lambda: mt.separated_net(fresh, ids, k, maximal=maximal))
            built += len(trees)
            b = mt.separated_net(other, ids, k, maximal=maximal)
            assert a.points.tolist() == b.points.tolist()
            assert a.covering_radius == b.covering_radius
        # off the stencil both nets scan the subset's one tree, and a maximal
        # net's covering radius is one nearest-point KD query; on it the
        # covering radius is read off the stencil rows too
        assert built == (0 if strict else 2)
        # a repeated id is one point, kept at most once, as on the twin
        dup = rng.permutation(np.concatenate([ids, rng.choice(ids, size=int(rng.integers(1, ids.size + 1)))]))
        nets = [mt.separated_net(s, dup, k, maximal=False).points.tolist() for s in (space, other)]
        assert nets[0] == nets[1] == a.points.tolist()

    def _cell_grid(self, h=1 / 24):
        space = mt.build_grid_space("grid2d", h)
        assert space._lattice is not None and space._weight_classes is not None
        return space

    def test_nudged_coordinate_is_no_lattice(self):
        grid = self._cell_grid()
        coords = grid.coords.copy()
        coords[30, 1] = np.nextafter(coords[30, 1], 1.0)
        space = mt.FiniteMetricMeasureSpace(weights=grid.weights, coords=coords, resolution=1 / 24)
        assert space._lattice is None
        np.testing.assert_array_equal(space.masses_at_radius(0.25), _kd_twin(space).masses_at_radius(0.25))

    def test_weights_off_the_boundary_count_are_no_lattice(self):
        grid = self._cell_grid()
        weights = grid.weights.copy()
        # an interior point and an edge point swap weights: still three values
        weights[[26, 1]] = weights[[1, 26]]
        space = mt.FiniteMetricMeasureSpace(weights=weights, coords=grid.coords, resolution=1 / 24)
        assert space._lattice is None and space._weight_classes is not None
        np.testing.assert_array_equal(space.masses_at_radius(0.25), _kd_twin(space).masses_at_radius(0.25))

    def test_ambiguous_radius_takes_the_kd_count(self):
        space = self._cell_grid()
        twin = _kd_twin(space)
        # padded, this radius lands on sqrt(5) h up to round-off
        r = (math.sqrt(5) / 24 - 1e-12) / (1 + 1e-12)
        got, trees = trees_built(lambda: space.masses_at_radius(r))
        np.testing.assert_array_equal(got, twin.masses_at_radius(r))
        # one tree per weight value, over that value's points
        assert sorted(trees) == sorted(np.unique(space.weights, return_counts=True)[1].tolist())
        # and only once: another ambiguous radius reuses them
        r = (math.sqrt(8) / 24 - 1e-12) / (1 + 1e-12)
        assert space._grid_budget(r * (1 + 1e-12) + 1e-12) is None
        got, trees = trees_built(lambda: space.masses_at_radius(r))
        np.testing.assert_array_equal(got, twin.masses_at_radius(r))
        assert trees == []

    @pytest.mark.parametrize("kind", ["jittered", "ambiguous"])
    def test_weight_value_layers_are_found_once(self, kind):
        """Counting by weight value off the lattice counts (a jittered grid,
        or the grid at ambiguous radii) finds each value's shared layer once
        per space: a miss at a new radius calls no ``subset_neighbors``, and
        the masses are v times the points of weight v counted on that
        value's layer, summed over v ascending, bit for bit."""
        from unittest import mock

        from mmtrace import _neighbors

        grid = self._cell_grid()
        if kind == "jittered":
            coords = grid.coords + np.random.default_rng(4).uniform(-0.3, 0.3, grid.coords.shape) / 24
            space = mt.FiniteMetricMeasureSpace(weights=grid.weights, coords=coords, resolution=1 / 24)
            radii = (0.1, 0.25, 1 / 3)
        else:
            space = grid
            radii = [(math.sqrt(j) / 24 - 1e-12) / (1 + 1e-12) for j in (5, 8, 13)]
            assert all(space._grid_budget(r * (1 + 1e-12) + 1e-12) is None for r in radii)
        twin = mt.FiniteMetricMeasureSpace(weights=space.weights, coords=space.coords, resolution=1 / 24)
        values = np.unique(space.weights)
        assert space.n > 512 and 1 < values.size <= 8
        ids = np.array([5, 0, space.n - 1, 5, 300])
        found = mock.patch.object(_neighbors, "subset_neighbors", autospec=True, side_effect=_neighbors.subset_neighbors)
        for a, r in enumerate(radii):
            with found as calls:
                got = space.masses_at_radius(r, ids)
            assert calls.call_count == (values.size if a == 0 else 0)
            want = sum(v * _neighbors.subset_neighbors(twin, np.flatnonzero(twin.weights == v)).counts_of(ids, r)
                       for v in values.tolist())
            assert got.tobytes() == want.tobytes()

    def test_loaded_grid_keeps_the_lattice(self, tmp_path):
        from mmtrace import io as mio

        space = mt.build_grid_space("grid3d", 1 / 10)
        mio.save_space(space, str(tmp_path / "g.mmspace"))
        loaded = mio.load_space(str(tmp_path / "g.mmspace"))
        assert loaded._lattice is not None and loaded._weight_classes is not None
        built = 0
        for r in (0.5, math.sqrt(3) / 10, 0.1):
            got, trees = trees_built(lambda: loaded.masses_at_radius(r))
            built += len(trees)
            np.testing.assert_array_equal(got, _kd_twin(space).masses_at_radius(r))
        assert built == 0 and not loaded._neighbors

    @pytest.mark.parametrize("h", [5e-324, 2.225073858507201e-308, 1e-300, 1e300, math.nan])
    def test_any_resolution_answers(self, h):
        space = mt.FiniteMetricMeasureSpace(weights=np.ones(8), coords=np.arange(16.0).reshape(8, 2), resolution=h)
        assert space._lattice is None

    @pytest.mark.parametrize("coords", [[[0.0], [math.nan]], [[0.0], [math.inf]], [0.0, 1.0], np.zeros((2, 0))])
    def test_coords_a_tree_rejects_still_raise(self, coords):
        # no tree is built at construction any more; the same coords fail there
        with pytest.raises(ValueError):
            mt.FiniteMetricMeasureSpace(weights=np.ones(2), coords=coords, resolution=0.5)

    def test_detection_allocates_no_cloud_sized_temporary(self):
        import tracemalloc

        grid = mt.build_grid_space("grid3d", 1 / 48)
        weights, coords = grid.weights.copy(), grid.coords.copy()
        tracemalloc.start()
        try:
            space = mt.FiniteMetricMeasureSpace(weights=weights, coords=coords, resolution=1 / 48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space._lattice is not None
        # an n x dim float comparison would take coords.nbytes (2.8 MB) alone
        assert peak < coords.nbytes / 4


def _per_point_balls(space, centres, radius):
    """Per centre, the sorted closed padded ball as one single-point query
    gives it (a KD query, or a distance-matrix row) and its ``np.sum`` mass."""
    r = radius * (1 + 1e-12) + 1e-12
    if space.coords is None:
        rows = [np.flatnonzero(space.dist_matrix[x] <= r) for x in centres]
    else:
        from scipy.spatial import cKDTree

        tree = cKDTree(space.coords)
        rows = [np.sort(np.asarray(tree.query_ball_point(space.coords[x], r), dtype=int)) for x in centres]
    return rows, [float(np.sum(space.weights[row])) for row in rows]


class TestBatchedBalls:
    """``member_blocks`` and ``ball_masses`` ask one ball question for many
    centres, bit for bit what the per-point queries give."""

    # grid sides with more than 128 points, so a ball holding the cloud
    # reaches numpy's pairwise summation blocks
    SIDES = {1: (150, 400), 2: (12, 24), 3: (5, 9)}

    def _space(self, kind, weights, data):
        if kind.startswith("grid"):
            dim = int(kind[4])
            m = data.draw(st.integers(*self.SIDES[dim]), label="m")
            space = mt.build_grid_space(kind, 1 / m, mu_weights="uniform")
            if weights == "per-class":
                per_class = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=dim + 1, max_size=dim + 1)))
                bound = sum(np.isin(space.coords[:, a], (0.0, 1.0)).astype(int) for a in range(dim))
                space = mt.FiniteMetricMeasureSpace(weights=per_class[bound] / m**dim, coords=space.coords, resolution=1 / m)
            assert space._lattice is not None
            return space
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        m = data.draw(st.integers(12, 16), label="m")
        coords = mt.build_grid_space("grid2d", 1 / m).coords + rng.uniform(-0.3, 0.3, ((m + 1) ** 2, 2)) / m
        w = rng.uniform(0.5, 2.0, coords.shape[0]) / coords.shape[0]
        if kind == "matrix":
            return mt.FiniteMetricMeasureSpace(weights=w, dist_matrix=np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1)),
                                               resolution=1 / m)
        return mt.FiniteMetricMeasureSpace(weights=w, coords=coords, resolution=1 / m)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["grid1d", "grid2d", "grid3d", "jittered", "matrix"]), st.sampled_from(["uniform", "per-class"]),
           st.sampled_from(["root", "dyadic", "ambiguous"]), st.data())
    def test_batched_balls_equal_the_per_point_queries(self, kind, weights, radius_kind, data):
        from unittest import mock

        from mmtrace import _neighbors as nb

        space = self._space(kind, weights, data)
        m, d = round(1 / space.resolution), max(space.dim, 2)
        j = data.draw(st.integers(0, d * m * m + 2), label="j")
        drawn = {
            "root": math.sqrt(j) / m,
            "dyadic": 2.0 ** -data.draw(st.integers(-1, 8), label="k"),
            # padded, this radius lands on a lattice distance up to round-off
            "ambiguous": (math.sqrt(min(max(j, 1), d * m * m)) / m - 1e-12) / (1 + 1e-12),
        }[radius_kind]
        # repeated and unsorted centres
        centres = np.array(data.draw(st.lists(st.integers(0, space.n - 1), min_size=1, max_size=30), label="centres"))
        budget = data.draw(st.sampled_from([1, 7, 64, nb.PAIR_BLOCK]), label="budget")
        for radius in (0.0, 1 / m, drawn, 2.0):
            rows, masses = _per_point_balls(space, centres, radius)
            with mock.patch.object(nb, "PAIR_BLOCK", budget):
                blocks = list(space.member_blocks(centres, radius))
                got = space.ball_masses(centres, radius)
            ids = np.concatenate([block_ids for _, _, block_ids, _ in blocks])
            assert all(indptr.dtype == block_ids.dtype == np.int64 and mass.dtype == np.float64
                       for _, indptr, block_ids, mass in blocks)
            assert [row for _, indptr, _, _ in blocks for row in np.diff(indptr).tolist()] == [row.size for row in rows]
            np.testing.assert_array_equal(ids, np.concatenate(rows))
            assert got.tolist() == masses == [x for *_, mass in blocks for x in mass.tolist()]
            # the blocks tile the centres in order, each of at most budget
            # ids unless it is one row, so a large call spans several
            stops = [at.stop for at, *_ in blocks]
            assert [at.start for at, *_ in blocks] == [0] + stops[:-1] and stops[-1] == centres.size
            assert all(block_ids.size <= budget or indptr.size == 2 for _, indptr, block_ids, _ in blocks)
            assert budget > 1 or len(blocks) == centres.size
            x = int(centres[0])
            assert space.members(x, radius).dtype == rows[0].dtype
            np.testing.assert_array_equal(space.members(x, radius), rows[0])
            assert space.ball_mass(x, radius) == masses[0]
        # rows of one point, of a few and of the whole cloud (past 128)
        assert [row.size for row in _per_point_balls(space, centres, 0.0)[0]] == [1] * centres.size
        assert max(row.size for row in _per_point_balls(space, centres, 1 / m)[0]) <= 9
        assert space.n > 128 and all(row.size == space.n for row in rows)
        assert list(space.member_blocks(np.zeros(0, dtype=int), drawn)) == []
        assert space.ball_masses([], drawn).shape == (0,)

    def test_one_kd_tree_per_cloud(self):
        """Off a lattice, vector members, uniform whole-cloud masses, batched
        balls and the whole cloud's count layer share one tree of the cloud;
        only the few centres of a member block get a tree of their own."""
        from mmtrace._neighbors import subset_neighbors

        rng = np.random.default_rng(3)
        coords = mt.build_grid_space("grid2d", 1 / 14).coords + rng.uniform(-0.3, 0.3, (225, 2)) / 14
        space = mt.FiniteMetricMeasureSpace(weights=np.full(225, 1 / 225), coords=coords, resolution=1 / 14)
        assert space._lattice is None

        def queries():
            space.members(np.array([0.5, 0.5]), 0.2)
            space.masses_at_radius(0.25)
            list(space.member_blocks([0, 5, 9], 0.3))
            return subset_neighbors(space, space.ids).counts_of(space.ids, 0.1)

        counts, sizes = trees_built(queries)
        assert sorted(sizes) == [3, space.n]
        np.testing.assert_array_equal(counts, [row.size for row in _per_point_balls(space, space.ids, 0.1)[0]])

    def test_matrix_metric_calls_bound_their_temporaries(self):
        """On a 2000-point matrix metric (a 32 MB matrix) counts, rows, the
        regularity check, a porosity scan and batched ball masses compare
        row chunks of the matrix, never a centres x subset copy of it."""
        import tracemalloc

        from scipy.spatial.distance import cdist

        from mmtrace._neighbors import subset_neighbors

        rng = np.random.default_rng(0)
        coords = rng.uniform(0.0, 1.0, (2000, 2))
        space = mt.FiniteMetricMeasureSpace(weights=rng.uniform(0.5, 2.0, 2000) / 2000, dist_matrix=cdist(coords, coords),
                                            resolution=1 / 40)
        ids = np.arange(0, 2000, 2)
        piece = mt.SubsetPiece(ids=ids, theta=1.0, weights=np.full(ids.size, 1.0 / ids.size))
        nbrs = subset_neighbors(space, ids)
        calls = {
            "counts_of": lambda: nbrs.counts_of(space.ids, 0.1),
            "rows_of": lambda: [None for _ in nbrs.rows_of(space.ids, 0.1)],
            "check_adr": lambda: mt.check_adr(space, piece, [0.5, 0.25, 0.1]),
            "porosity_scan": lambda: mt.porosity_scan(space, ids, 0.25, [0.5, 0.25]),
            "ball_masses": lambda: space.ball_masses(space.ids, 0.1),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, name
