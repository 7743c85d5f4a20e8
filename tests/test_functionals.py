import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmtrace as mt
from conftest import build_tiny_instance, trees_built
from mmtrace import functionals
from mmtrace._neighbors import subset_neighbors
from mmtrace.space import dyadic_radii
from mmtrace.errors import (
    InvalidFamily,
    InvalidPair,
    InvalidParameter,
    ParameterError,
    ResolutionError,
)
from oracles import (
    OPiece,
    obesov,
    obesov_alt,
    obn,
    oball,
    obsn_family,
    ok_of_r,
    ogl,
    omass,
    osearch_family,
    osharp,
    osharp_mu_s1,
    otilde_e,
)


def opieces(pw):
    return [OPiece(pc.ids, pc.theta, pc.weights) for pc in pw.pieces]


def mk_dense_per_k(seq, space):
    return [
        {int(i): float(w) for i, w in zip(seq.support_ids, seq.weights_per_k[k])}
        for k in range(seq.k_max + 1)
    ]


class TestBesov:
    def test_constant(self, tiny_instance):
        space, pw, _ = tiny_instance
        rep = mt.besov_norm(space, pw.pieces[0], np.full(space.n, 2.0), 0.5, 2.0, k_max=3)
        assert rep.parts["seminorm"] == 0.0
        mass = float(np.sum(pw.pieces[0].weights))
        assert rep.value == pytest.approx(2.0 * mass**0.5, rel=1e-12)

    def test_homogeneity(self, tiny_instance):
        space, pw, f = tiny_instance
        r1 = mt.besov_norm(space, pw.pieces[0], f, 0.4, 2.0, k_max=3)
        r2 = mt.besov_norm(space, pw.pieces[0], 3.0 * f, 0.4, 2.0, k_max=3)
        assert r2.value == pytest.approx(3.0 * r1.value, rel=1e-12)
        assert r2.parts["seminorm"] == pytest.approx(3.0 * r1.parts["seminorm"], rel=1e-12)

    def test_invalid_smoothness(self, tiny_instance):
        space, pw, f = tiny_instance
        for s in (0.0, 1.0, -0.3):
            with pytest.raises(ParameterError):
                mt.besov_norm(space, pw.pieces[0], f, s, 2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_oracle_match(self, seed):
        space, pw, f = build_tiny_instance(seed)
        ops = opieces(pw)
        for pc, op in zip(pw.pieces, ops):
            got = mt.besov_norm(space, pc, f, 0.45, 2.0, k_max=3).value
            want = obesov(space.coords, op, f, 0.45, 2.0, 3)
            assert got == pytest.approx(want, rel=1e-12)
            got_alt = mt.besov_norm_alt(space, pc, f, 0.45, 2.0, k_max=3).value
            want_alt = obesov_alt(space.coords, op, f, 0.45, 2.0, 3)
            assert got_alt == pytest.approx(want_alt, rel=1e-12)

    def test_alt_two_point_hand_formula(self):
        # two equal-weight points at distance 0.4: only the k=1 ball sees
        # both, so the alt seminorm collapses to a single closed-form term
        coords = np.array([[0.1], [0.5]])
        sp = mt.FiniteMetricMeasureSpace(weights=[0.5, 0.5], coords=coords, resolution=1 / 8)
        h = 0.3
        pc = mt.SubsetPiece(ids=[0, 1], theta=0.5, weights=[h, h])
        f = np.array([0.0, 1.0])
        s, p = 0.45, 2.0
        rep = mt.besov_norm_alt(sp, pc, f, s, p, k_max=3)
        lp = h ** (1 / p)
        semi = (2.0 ** (s * p) * h) ** (1 / p)
        assert rep.value == pytest.approx(lp + semi, rel=1e-12)

    def test_translation_invariance_of_seminorm(self, tiny_instance):
        space, pw, f = tiny_instance
        r1 = mt.besov_norm(space, pw.pieces[0], f, 0.4, 2.0, k_max=3)
        r2 = mt.besov_norm(space, pw.pieces[0], f + 11.0, 0.4, 2.0, k_max=3)
        assert r2.parts["seminorm"] == pytest.approx(r1.parts["seminorm"], rel=1e-10, abs=1e-13)

    def test_linear_on_segment_stable_across_resolutions(self):
        vals = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            space, pw = mt.generate(mt.simple_case_spec(h), verify=False)
            seg = pw.pieces[1]
            f = mt.make_sample_function(space, pw, "linear")
            vals.append(mt.besov_norm(space, seg, f, 1 - seg.theta / 2.5, 2.5).value)
        assert all(np.isfinite(v) for v in vals)
        assert (max(vals) - min(vals)) / min(vals) < 0.25


class TestAveraging:
    def test_constant(self, tiny_instance):
        space, pw, _ = tiny_instance
        out = mt.averaging_single(space, pw.pieces[0], np.full(space.n, 1.5), 2)
        np.testing.assert_allclose(out, 1.5, rtol=1e-14)

    def test_global_mean_at_huge_scale(self, tiny_instance):
        space, pw, f = tiny_instance
        pc = pw.pieces[0]
        out = mt.averaging_single(space, pc, f, -1)   # radius 2 covers everything
        want = float(np.sum(pc.weights * f[pc.ids]) / np.sum(pc.weights))
        np.testing.assert_allclose(out, want, rtol=1e-13)

    def test_linear_midpoint_rule_on_segment(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 16), verify=False)
        seg = pw.pieces[1]
        f = space.coords[:, 2]          # linear along the segment axis
        h = space.resolution
        for k in (2, 3):
            avg = mt.averaging_single(space, seg, f, k)
            r = 2.0 ** (-k)
            zs = space.coords[seg.ids, 2]
            # windows strictly inside the segment are weight-symmetric, so
            # they average a linear function exactly
            inner = np.flatnonzero((zs >= r + h) & (zs <= 1 - r - h))
            np.testing.assert_allclose(avg[inner], zs[inner], atol=1e-12)

    def test_double_equals_osc_for_same_ball(self):
        coords = np.array([[0.0], [0.4]])
        sp = mt.FiniteMetricMeasureSpace(weights=[0.5, 0.5], coords=coords, resolution=0.4)
        pc = mt.SubsetPiece(ids=[0, 1], theta=0.5, weights=[1.0, 1.0])
        val = mt.averaging_double(sp, pc, pc, np.array([0.0, 1.0]), 1, 0, 0)
        assert val == pytest.approx(0.5, rel=1e-14)  # OSC of the two-point ball

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            space, pw, f = build_tiny_instance(100 + trial)
            pi, pj = pw.pieces
            k = int(rng.integers(1, 4))
            r = 2.0 ** (-k)
            ai = mt.averaging_single(space, pi, f, k)
            aj = mt.averaging_single(space, pj, f, k)
            for a, y in enumerate(pi.ids):
                for b, z in enumerate(pj.ids):
                    if space.distance(int(y), int(z)) <= r:
                        a2 = mt.averaging_double(space, pi, pj, f, k, int(y), int(z))
                        assert abs(ai[a] - aj[b]) <= a2 + 1e-12

    def test_invalid_pair(self, tiny_instance):
        space, pw, f = tiny_instance
        with pytest.raises(InvalidPair):
            mt.averaging_double(space, pw.pieces[0], pw.pieces[1], f, 3,
                                int(pw.pieces[0].ids[0]), int(pw.pieces[1].ids[-1])) \
                if space.distance(int(pw.pieces[0].ids[0]), int(pw.pieces[1].ids[-1])) > 0.125 \
                else pytest.skip("pieces too close in this draw")


class TestWeights:
    def test_diagonal(self, grid1d_11):
        w = mt.weight_w(grid1d_11, 2, 5, 5)
        assert w == pytest.approx(1.0 / grid1d_11.ball_mass(5, 0.25), rel=1e-12)

    def test_stability_in_dilated_balls(self, simple_instance_16):
        space, pw, _ = simple_instance_16
        rng = np.random.default_rng(3)
        k, c = 3, 2.0
        r = 2.0 ** (-k)
        ids = rng.choice(space.n, 20, replace=False)
        for y, z in zip(ids[:10], ids[10:]):
            w0 = mt.weight_w(space, k, int(y), int(z))
            ny = space.members(int(y), c * r)[:4]
            nz = space.members(int(z), c * r)[:4]
            for yy, zz in zip(ny, nz):
                ratio = mt.weight_w(space, k, int(yy), int(zz)) / w0
                assert 1 / 60 <= ratio <= 60

    def test_alt_weight_two_sided(self, simple_instance_16):
        space, pw, _ = simple_instance_16
        k, c = 3, 2.0
        r = 2.0 ** (-k)
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 25:
            y = int(rng.integers(space.n))
            near = space.members(y, c * r)
            z = int(near[int(rng.integers(near.size))])
            w = mt.weight_w(space, k, y, z)
            wa = mt.weight_w_alt(space, k, y, z)
            assert w <= wa * (1 + 1e-12)          # AM-GM, exact direction
            assert wa <= 10.0 * w                  # comparability at bounded distance
            checked += 1

    def test_below_floor(self, grid1d_11):
        with pytest.raises(ResolutionError):
            mt.weight_w(grid1d_11, 6, 0, 1)


class TestGluing:
    def test_constant_zero(self, tiny_instance):
        space, pw, _ = tiny_instance
        for which in (1, 2, 3):
            rep = mt.gluing(space, pw, np.full(space.n, 4.2), 2.0, which, k_max=3)
            assert rep.value == 0.0

    def test_single_piece_note(self, tiny_instance):
        space, pw, f = tiny_instance
        single = mt.compose_piecewise([pw.pieces[0]])
        rep = mt.gluing(space, single, f, 2.0, 1, k_max=3)
        assert rep.value == 0.0 and "note" in rep.params

    def test_no_scale_above_the_floor(self, tiny_instance):
        """On a space of scale_floor 1 no dyadic scale 2^-k, k >= 1, is
        kept (default k_max 0): every gluing is zero with a zero tail, and
        bn, whose porosity scan needs a scale, rejects the empty grid."""
        from mmtrace.errors import InvalidGrid

        space, pw, f = tiny_instance
        coarse = mt.FiniteMetricMeasureSpace(weights=space.weights, coords=space.coords, resolution=1.0)
        for which in (1, 2, 3):
            rep = mt.gluing(coarse, pw, f, 2.0, which)
            assert rep.to_json() == {"name": f"gl{which}", "value": 0.0, "parts": {"total_p": 0.0},
                                     "params": {"p": 2.0, "which": which, "k_max": 0}, "truncation_tail": 0.0}
        seq = mt.build_measure_sequence(coarse, pw, 1.5)
        assert seq.k_max == 0
        with pytest.raises(InvalidGrid):
            mt.bn_functional(coarse, seq, pw, f, 2.0, 0.25)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, np.inf, np.nan])
    def test_p_outside_one_to_infinity(self, tiny_instance, p):
        space, pw, f = tiny_instance
        assert pw.N >= 2
        for which in (1, 2, 3):
            with pytest.raises(ParameterError, match="p must lie in"):
                mt.gluing(space, pw, f, p, which, k_max=3)

    def test_gl2_le_gl3(self):
        for seed in range(10):
            space, pw, f = build_tiny_instance(200 + seed)
            g2 = mt.gluing(space, pw, f, 2.0, 2, k_max=3).value
            g3 = mt.gluing(space, pw, f, 2.0, 3, k_max=3).value
            assert g2 <= g3 * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("which", [1, 2, 3])
    def test_oracle_match(self, seed, which):
        space, pw, f = build_tiny_instance(seed)
        got = mt.gluing(space, pw, f, 2.0, which, k_max=3).value
        want = ogl(space.coords, space.weights, opieces(pw), f, 2.0, which, 3)
        assert got == pytest.approx(want, rel=1e-12)

    def test_homogeneity(self, tiny_instance):
        space, pw, f = tiny_instance
        for which in (1, 2, 3):
            v1 = mt.gluing(space, pw, f, 2.0, which, k_max=3).value
            v2 = mt.gluing(space, pw, -2.0 * f, 2.0, which, k_max=3).value
            assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_translation_invariance(self, tiny_instance):
        space, pw, f = tiny_instance
        for which in (1, 2, 3):
            v1 = mt.gluing(space, pw, f, 2.0, which, k_max=3).value
            v2 = mt.gluing(space, pw, f + 7.0, 2.0, which, k_max=3).value
            assert v2 == pytest.approx(v1, rel=1e-12)

    def test_cache_monotone(self, tiny_instance):
        space, pw, f = tiny_instance
        # the cross-piece pairs gluing reads at scale 2^-k
        n0, n1 = (subset_neighbors(space, pc.ids) for pc in pw.pieces[:2])
        for k in (1, 2):
            ia1, ib1 = n0.cross_pairs(n1, 2.0 ** (-k))
            ia2, ib2 = n0.cross_pairs(n1, 2.0 ** (-k - 1))
            pairs_k = set(zip(ia1.tolist(), ib1.tolist()))
            pairs_k1 = set(zip(ia2.tolist(), ib2.tolist()))
            assert pairs_k1 <= pairs_k
            s_k = np.isin(np.arange(pw.pieces[0].ids.size), ia1)
            s_k1 = np.isin(np.arange(pw.pieces[0].ids.size), ia2)
            assert np.all(s_k1 <= s_k)


def _extended_numerators(csr_a, wa, ga, csr_b, wb, gb, ia, ib):
    """The gl3 numerator double loop in extended precision, one product
    block per pair."""
    (pa, xa), (pb, xb) = csr_a, csr_b
    wa, ga, wb, gb = (v.astype(np.longdouble) for v in (wa, ga, wb, gb))
    out = np.empty(ia.size, dtype=np.longdouble)
    for t, (a, b) in enumerate(zip(ia, ib)):
        x, y = xa[pa[a] : pa[a + 1]], xb[pb[b] : pb[b + 1]]
        out[t] = np.sum(wa[x, None] * wb[None, y] * np.abs(ga[x, None] - gb[None, y]))
    return out


def _same_ids_instance():
    """Two pieces on the same segment of the 2-d h = 1/16 grid, so on one
    shared ball layer, with theta 0.5 and 0.75."""
    space, pw = mt.generate(mt.difficult_case_spec(1 / 16), verify=False)
    seg = pw.pieces[1]
    return space, mt.compose_piecewise([mt.SubsetPiece(ids=seg.ids, theta=t, weights=seg.weights) for t in (0.5, 0.75)])


class TestGl3Numerators:
    @pytest.mark.parametrize("spec", [mt.simple_case_spec, mt.difficult_case_spec, "same_ids"])
    def test_numerators_match_extended_precision(self, spec):
        """Every numerator gluing computes, on smooth and random functions
        and on a near-constant one with a 1e6 offset, against the double
        loop over the pieces' balls (test-local sweeps from ``rows_of``);
        also for two pieces with the same ids."""
        space, pw = _same_ids_instance() if spec == "same_ids" else mt.generate(spec(1 / 16), verify=False)
        near_constant = 1e6 + 1e-6 * np.random.default_rng(3).uniform(-1, 1, space.n)
        calls = []
        kernel = functionals._numerators

        def spy(ps, nbrs, pieces, shifted, i, j, r, cross):
            calls.append((nbrs, pieces, shifted, i, j, r, cross, kernel(ps, nbrs, pieces, shifted, i, j, r, cross)))
            return calls[-1][-1]

        with mock.patch.object(functionals, "_numerators", spy):
            for fam in ("hoelder:0.6", "random"):
                mt.gluing(space, pw, mt.make_sample_function(space, pw, fam), 2.5, which=3)
            mt.gluing(space, pw, near_constant, 2.5, which=3)
        assert len(calls) == 3 * mt.default_k_max(space)
        for nbrs, pieces, shifted, i, j, r, cross, num in calls:
            csr_a, csr_b = (_joined_rows(nbrs[a], r) for a in (i, j))
            want = _extended_numerators(csr_a, pieces[i].weights, shifted[i], csr_b, pieces[j].weights, shifted[j],
                                        *cross()[:2])
            assert np.all(np.abs(num() - want) <= 1e-13 * want)

    def test_pieces_with_the_same_ids_do_not_depend_on_the_block_size(self):
        """gl3 of two pieces that share one ball layer gives the same bits
        in blocks of 2^6, 2^10, 2^13, 2^16 and 2^20 pairs."""
        from mmtrace import _neighbors

        space, pw = _same_ids_instance()
        f = mt.make_sample_function(space, pw, "random", seed=0)
        values = []
        for budget in (1 << 6, 1 << 10, 1 << 13, 1 << 16, 1 << 20):
            with mock.patch.object(_neighbors, "PAIR_BLOCK", budget):
                values.append(mt.gluing(space, pw, f, 2.5, 3).value)
        assert values == [values[0]] * len(values)


def _joined_rows(nbrs, r):
    """The balls around a subset's own points as one CSR, from ``rows_of``."""
    blocks = list(nbrs.rows_of(nbrs.ids, r))
    lengths = np.concatenate([[0]] + [np.diff(ptr) for _, _, (ptr, _) in blocks])
    return np.cumsum(lengths), np.concatenate([np.zeros(0, np.int32)] + [cols for _, _, (_, cols) in blocks])


class TestMetricBackendAgreement:
    def test_matrix_and_coordinate_backends_match(self):
        space_c, pw_c, f = build_tiny_instance(6)
        mat = np.sqrt(((space_c.coords[:, None, :] - space_c.coords[None, :, :]) ** 2).sum(-1))
        space_m = mt.FiniteMetricMeasureSpace(
            weights=space_c.weights.copy(), dist_matrix=mat, resolution=space_c.resolution
        )
        pieces_m = [
            mt.SubsetPiece(ids=pc.ids.copy(), theta=pc.theta, weights=pc.weights.copy())
            for pc in pw_c.pieces
        ]
        pw_m = mt.compose_piecewise(pieces_m)
        for which in (1, 2, 3):
            a = mt.gluing(space_c, pw_c, f, 2.0, which, k_max=3).value
            b = mt.gluing(space_m, pw_m, f, 2.0, which, k_max=3).value
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)
        ba = mt.besov_norm(space_c, pw_c.pieces[0], f, 0.4, 2.0, k_max=3).value
        bb = mt.besov_norm(space_m, pw_m.pieces[0], f, 0.4, 2.0, k_max=3).value
        assert ba == pytest.approx(bb, rel=1e-12)


class TestMaximal:
    def test_tilde_e_zero_off_support(self):
        space, pw, f = build_tiny_instance(1)
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        far = [i for i in range(space.n) if i not in set(pw.union_ids)]
        for x in far:
            r = 0.9 * min(space.distance(x, int(s)) for s in pw.union_ids)
            if r > 0:
                assert mt.tilde_e(seq, f, 1, x, r) == 0.0

    def test_calderon_constant(self, tiny_instance):
        space, pw, _ = tiny_instance
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        out = mt.calderon_maximal(space, seq, np.full(space.n, 5.0))
        np.testing.assert_allclose(out, 0.0)

    def test_calderon_lipschitz_bounded(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        f = space.coords.sum(axis=1) / np.sqrt(3)   # 1-Lipschitz
        out = mt.calderon_maximal(space, seq, f)
        assert np.max(out) <= 10.0

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_match(self, seed):
        space, pw, f = build_tiny_instance(seed)
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        mk = mk_dense_per_k(seq, space)
        got = mt.calderon_maximal(space, seq, f)
        s_ids = set(int(i) for i in pw.union_ids)
        for pos, x in enumerate(pw.union_ids):
            want = osharp(space.coords, s_ids, mk, f, int(x), 3)
            assert got[pos] == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestBn:
    def test_constant_lp_only(self, tiny_instance):
        space, pw, _ = tiny_instance
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        rep = mt.bn_functional(space, seq, pw, np.full(space.n, 3.0), 2.0, 0.25)
        assert rep.parts["sharp"] == 0.0 and rep.parts["scale_sum"] == 0.0
        assert rep.value == pytest.approx(rep.parts["lp"], rel=1e-14)
        assert rep.params["continuum_mu_s_zero"] is True

    def test_sigma_warning(self, tiny_instance):
        space, pw, f = tiny_instance
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        with pytest.warns(UserWarning):
            mt.bn_functional(space, seq, pw, f, 2.0, 0.25, c=6.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_match(self, seed):
        space, pw, f = build_tiny_instance(seed)
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        rep = mt.bn_functional(space, seq, pw, f, 2.0, 0.25)
        mk = mk_dense_per_k(seq, space)
        want = obn(
            space.coords, space.weights, [int(i) for i in pw.union_ids], mk,
            1.5, f, 2.0, 0.25, 3, space.resolution,
        )
        assert rep.value == pytest.approx(want, rel=1e-12)


@st.composite
def family_pools(draw):
    """A 1-d or 2-d cloud (lattice or random), a subset, candidate balls at
    dyadic radii with tied terms, a budget and a family kind."""
    dim = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        side = draw(st.integers(2, {1: 20, 2: 6}[dim]))
        axes = np.meshgrid(*[np.arange(side) / 8.0] * dim, indexing="ij")
        coords = np.stack([a.ravel() for a in axes], axis=1)
    else:
        coords = rng.uniform(0, 1, size=(draw(st.integers(2, 30)), dim))
    n = coords.shape[0]
    subset = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    cands = [mt.Ball(int(c), float(r)) for c, r in zip(
        rng.integers(0, n, draw(st.integers(0, 24))), rng.choice([2.0, 1.0, 0.5, 0.25, 0.125], 24))]
    terms = {(b.center, b.radius): float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0])) for b in cands}
    return coords, subset, cands, terms, draw(st.integers(1, 8)), draw(st.sampled_from(["nice", "whitney"]))


class TestNiceFamilies:
    @settings(max_examples=80, deadline=None)
    @given(family_pools(), st.sampled_from([1.0, 2.0, 6.0]))
    def test_search_equals_the_set_oracle(self, inst, c):
        coords, subset, cands, terms, budget, kind = inst
        space = mt.FiniteMetricMeasureSpace(weights=np.ones(len(coords)), coords=coords, resolution=1 / 8)
        def term_fn(balls, masses):
            # the masses come from the search's member sets, as ball_mass sums them
            assert masses.tolist() == [space.ball_mass(b.center, b.radius) for b in balls]
            return np.array([terms[(b.center, b.radius)] for b in balls])

        fam = mt.enumerate_or_search_nice_family(space, subset, c, budget, term_fn=term_fn, kind=kind, candidates=cands)
        s_set = set(map(int, subset))
        pool = [b for b in cands if b.radius <= 1.0 and s_set & set(oball(coords, b.center, c * b.radius))
                and not (kind == "whitney" and s_set & set(oball(coords, b.center, b.radius)))]
        want = osearch_family(
            [oball(coords, b.center, b.radius) for b in pool], [terms[(b.center, b.radius)] for b in pool],
            [b.center for b in pool], [b.radius for b in pool], budget,
        )
        assert [(b.center, b.radius) for b in fam.balls] == [(pool[i].center, pool[i].radius) for i in want]
        mt.validate_nice_family(space, subset, fam)

    @settings(max_examples=80, deadline=None)
    @given(family_pools())
    def test_validation_equals_the_set_oracle(self, inst):
        coords, subset, cands, _, budget, kind = inst
        space = mt.FiniteMetricMeasureSpace(weights=np.ones(len(coords)), coords=coords, resolution=1 / 8)
        fam = mt.NiceFamily(cands[:budget], c=2.0, kind=kind)
        s_set = set(map(int, subset))
        sets = [set(oball(coords, b.center, b.radius)) for b in fam.balls]
        bad = any(b.radius > 1.0 for b in fam.balls) or any(
            not s_set & set(oball(coords, b.center, 2.0 * b.radius)) for b in fam.balls
        ) or (kind == "whitney" and any(s & s_set for s in sets))
        pairs = [(b, a) for a in range(len(sets)) for b in range(a) if sets[a] & sets[b]]
        if bad or pairs:
            with pytest.raises(InvalidFamily) as err:
                mt.validate_nice_family(space, subset, fam)
            if not bad:
                assert f"balls {pairs[0][0]} and {pairs[0][1]} share" in str(err.value)
        else:
            mt.validate_nice_family(space, subset, fam)

    def test_c_below_one_rejected(self, tiny_instance):
        space, pw, _ = tiny_instance
        with pytest.raises(InvalidParameter):
            mt.enumerate_or_search_nice_family(space, pw.union_ids, 0.5, budget=3)
        with pytest.raises(InvalidFamily):
            mt.validate_nice_family(space, pw.union_ids, mt.NiceFamily([], c=0.5))

    @pytest.mark.parametrize("option", [{"method": "Exact"}, {"method": "both"}, {"kind": "witney"}])
    def test_unknown_method_or_kind_rejected(self, tiny_instance, option):
        space, pw, _ = tiny_instance
        with pytest.raises(InvalidParameter, match="unknown"):
            mt.enumerate_or_search_nice_family(space, pw.union_ids, 2.0, budget=3, **option)

    def test_one_ball_family_valid(self, tiny_instance):
        space, pw, _ = tiny_instance
        fam = mt.NiceFamily([mt.Ball(int(pw.union_ids[0]), 0.25)], c=2.0)
        mt.validate_nice_family(space, pw.union_ids, fam)

    def test_overlapping_family_invalid(self, grid1d_11):
        fam = mt.NiceFamily([mt.Ball(3, 0.2), mt.Ball(4, 0.2)], c=2.0)
        with pytest.raises(InvalidFamily):
            mt.validate_nice_family(grid1d_11, np.arange(11), fam)

    def test_first_overlapping_pair_named(self, grid1d_11):
        # ball 2 meets balls 0 and 1; ball 3 meets ball 1
        fam = mt.NiceFamily([mt.Ball(0, 0.1), mt.Ball(3, 0.1), mt.Ball(1, 0.2), mt.Ball(4, 0.1)], c=2.0)
        with pytest.raises(InvalidFamily, match="balls 0 and 2 share"):
            mt.validate_nice_family(grid1d_11, np.arange(11), fam)

    def test_overlapping_whole_space_balls_rejected_in_bounded_memory(self):
        import tracemalloc

        space = mt.build_grid_space("grid2d", 1 / 200)
        middle = np.flatnonzero(np.abs(space.coords - 0.5).max(axis=1) < 0.05)[:60]
        fam = mt.NiceFamily([mt.Ball(int(x), 1.0) for x in middle], c=2.0)
        subset_neighbors(space, space.ids).counts_of(middle[:1], 2.0)   # the count layer is not under test
        tracemalloc.start()
        try:
            with pytest.raises(InvalidFamily, match="balls 0 and 1 share"):
                mt.validate_nice_family(space, space.ids, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every ball holds the whole cloud: all member sets at once would
        # take 60 n ids, one block of them and its merge about 15 n
        assert peak < 20 * space.n * 8

    def test_family_nets_share_the_subset_tree(self):
        """Off a lattice the nets of a family search, one per radius, scan
        the subset's one shared KD tree instead of a tree each."""
        rng = np.random.default_rng(1)
        coords = mt.build_grid_space("grid2d", 1 / 16).coords + rng.uniform(-0.2, 0.2, (289, 2)) / 16
        space = mt.FiniteMetricMeasureSpace(weights=np.full(289, 1 / 289), coords=coords, resolution=1 / 16)
        assert space._lattice is None
        line = np.arange(8 * 17, 9 * 17)
        family, sizes = trees_built(lambda: mt.enumerate_or_search_nice_family(space, line, 2.0, 4, radii=[1.0, 0.5, 0.25]))
        assert family.balls
        # the cloud's tree, the subset's, and block trees of at most 5 net points
        assert sizes.count(space.n) == sizes.count(line.size) == 1
        assert max(size for size in sizes if size not in (space.n, line.size)) <= 5

    def test_radius_above_one_invalid(self, grid1d_11):
        fam = mt.NiceFamily([mt.Ball(3, 1.5)], c=2.0)
        with pytest.raises(InvalidFamily):
            mt.validate_nice_family(grid1d_11, np.arange(11), fam)

    def test_whitney_condition(self, grid1d_11):
        subset = np.array([0, 1])
        good = mt.NiceFamily([mt.Ball(8, 0.1)], c=10.0, kind="whitney")
        mt.validate_nice_family(grid1d_11, subset, good)
        bad = mt.NiceFamily([mt.Ball(1, 0.1)], c=10.0, kind="whitney")
        with pytest.raises(InvalidFamily):
            mt.validate_nice_family(grid1d_11, subset, bad)

    def test_zero_budget(self, tiny_instance):
        space, pw, _ = tiny_instance
        fam = mt.enumerate_or_search_nice_family(space, pw.union_ids, 2.0, budget=0)
        assert fam.balls == []

    def test_search_always_valid(self):
        for seed in range(5):
            space, pw, f = build_tiny_instance(300 + seed)
            fam = mt.enumerate_or_search_nice_family(space, pw.union_ids, 2.0, budget=5)
            mt.validate_nice_family(space, pw.union_ids, fam)

    def test_greedy_swap_matches_exhaustive(self, grid1d_11):
        subset = np.arange(11)
        rng = np.random.default_rng(17)
        cands = [mt.Ball(int(c), r) for c, r in
                 zip(rng.integers(0, 11, 8), rng.choice([0.125, 0.25, 0.5], 8))]
        terms = {(b.center, b.radius): float(t) for b, t in zip(cands, rng.uniform(0.1, 1.0, 8))}
        term = lambda b: terms[(b.center, b.radius)]
        term_fn = lambda balls, masses: np.array([term(b) for b in balls])
        greedy = mt.enumerate_or_search_nice_family(
            grid1d_11, subset, 2.0, budget=8, term_fn=term_fn, candidates=cands
        )
        exact = mt.enumerate_or_search_nice_family(
            grid1d_11, subset, 2.0, budget=8, term_fn=term_fn, candidates=cands, method="exact"
        )
        v_greedy = sum(term(b) for b in greedy.balls)
        v_exact = sum(term(b) for b in exact.balls)
        assert v_greedy == pytest.approx(v_exact, rel=1e-12)


class TestBsn:
    def test_empty_family_zero(self, tiny_instance):
        space, pw, f = tiny_instance
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = mt.bsn_functional(space, seq, f, 2.0, 6.0, family=mt.NiceFamily([], c=6.0))
        assert rep.parts["sup"] == 0.0

    def test_singleton_family_hand_formula(self, tiny_instance):
        space, pw, f = tiny_instance
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        ball = mt.Ball(int(pw.union_ids[0]), 0.25)
        rep = mt.bsn_functional(space, seq, f, 2.0, 6.0, family=mt.NiceFamily([ball], c=6.0))
        k = mt.k_of_r(0.25)
        e = mt.tilde_e(seq, f, k, ball.center, 6.0 * 0.25)
        want = (space.ball_mass(ball.center, 0.25) / 0.25**2.0 * e**2.0) ** 0.5
        assert rep.parts["sup"] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_fixed_family_oracle(self, seed):
        space, pw, f = build_tiny_instance(seed)
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        balls = [mt.Ball(int(pw.union_ids[0]), 0.125)]
        far = [int(i) for i in pw.union_ids if space.distance(int(pw.union_ids[0]), int(i)) > 0.3]
        if far:
            balls.append(mt.Ball(far[0], 0.125))
        rep = mt.bsn_functional(space, seq, f, 2.0, 6.0, family=mt.NiceFamily(balls, c=6.0))
        mk = mk_dense_per_k(seq, space)
        want = obsn_family(
            space.coords, space.weights, [int(i) for i in pw.union_ids], mk, f, 2.0, 6.0,
            [(b.center, b.radius) for b in balls], 3,
        )
        assert rep.value == pytest.approx(want, rel=1e-12)

    def test_invalid_family_rejected(self, tiny_instance):
        space, pw, f = tiny_instance
        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=3)
        fam = mt.NiceFamily([mt.Ball(0, 0.3), mt.Ball(1, 0.3)], c=6.0)
        with pytest.raises(InvalidFamily):
            mt.bsn_functional(space, seq, f, 2.0, 6.0, family=fam)

    def test_large_radius_families_bounded_by_lp(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        rng = np.random.default_rng(23)
        f = rng.uniform(-1, 1, space.n)
        lp = float(np.sum(seq.weights_per_k[0] * np.abs(f[seq.support_ids]) ** 2.5) ** (1 / 2.5))
        for trial in range(5):
            centers = rng.choice(space.n, 6, replace=False)
            balls, taken = [], np.zeros(space.n, dtype=bool)
            for cpt in centers:
                b = mt.Ball(int(cpt), 0.5)
                m = space.members(b.center, b.radius)
                if not np.any(taken[m]):
                    balls.append(b)
                    taken[m] = True
            rep = mt.bsn_functional(space, seq, f, 2.5, 6.0, family=mt.NiceFamily(balls, c=6.0))
            assert rep.parts["sup"] <= 20.0 * lp

    def test_bsn_terms_of_a_mixed_list(self):
        """One call with centres on and off S, several radii and a ball
        whose c-dilation misses S: each term against the oracle E~ times
        the oracle mass."""
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
        f = mt.make_sample_function(space, pw, "random", seed=0).values
        c, s_ids = 2.0, set(map(int, pw.union_ids))
        d_s = np.min(np.linalg.norm(space.coords[:, None] - space.coords[pw.union_ids][None], axis=2), axis=1)
        far = int(np.argmax(d_s))
        near = int(np.flatnonzero((d_s > 0) & (d_s <= c * 0.125))[0])
        assert d_s[far] > c * 0.125
        balls = [mt.Ball(int(pw.union_ids[0]), 0.125), mt.Ball(near, 0.125), mt.Ball(far, 0.125),
                 mt.Ball(int(pw.union_ids[-1]), 0.5), mt.Ball(near, 1.0), mt.Ball(int(pw.union_ids[5]), 0.125)]
        got = functionals.bsn_terms(space, seq, f, 2.5, c, balls)
        mk = mk_dense_per_k(seq, space)
        for term, b in zip(got, balls):
            e = otilde_e(space.coords, s_ids, mk[min(ok_of_r(b.radius), seq.k_max)], f, b.center, c * b.radius)
            want = omass(space.coords, space.weights, b.center, b.radius) / b.radius**2.5 * e**2.5
            assert term == pytest.approx(want, rel=1e-12, abs=0.0)
        assert got[2] == 0.0 and np.all(np.delete(got, 2) > 0)

    def test_coordinate_centre_rejected(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
        for centre in (np.array([0.5, 0.5, 0.5]), space.n):
            fam = mt.NiceFamily([mt.Ball(centre, 0.125)], c=6)
            with pytest.raises(InvalidFamily, match="not a point id"):
                mt.validate_nice_family(space, pw.union_ids, fam)
            with pytest.raises(InvalidFamily, match="not a point id"):
                mt.bsn_functional(space, seq, np.zeros(space.n), 2.5, 6.0, family=fam)
            with pytest.raises(InvalidFamily, match="not a point id"):
                mt.enumerate_or_search_nice_family(space, pw.union_ids, 6.0, 4, candidates=fam.balls)


class TestSharpS1:
    def test_needs_theta_zero(self, simple_instance_16):
        space, pw, _ = simple_instance_16
        with pytest.raises(ParameterError):
            mt.sharp_mu_s1(space, pw, np.zeros(space.n))

    def test_constant_zero(self, difficult_instance_16):
        space, pw, _ = difficult_instance_16
        out = mt.sharp_mu_s1(space, pw, np.ones(space.n))
        np.testing.assert_allclose(out, 0.0)

    def test_includes_radius_two(self, difficult_instance_16):
        space, pw, _ = difficult_instance_16
        f = space.coords[:, 0]
        out = mt.sharp_mu_s1(space, pw, f)
        s1 = pw.pieces[0]
        x = int(pw.union_ids[0])
        members = s1.ids
        e2 = mt.weighted_stats(f[members], space.weights[members]).best_dev
        # sup over r includes r = 2, whose ball covers the whole fat piece
        assert out[0] >= e2 - 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle(self, seed):
        rng = np.random.default_rng(seed)
        space, pw0 = mt.generate(mt.difficult_case_spec(1 / 8), verify=False)
        f = rng.uniform(-1, 1, space.n)
        got = mt.sharp_mu_s1(space, pw0, f)
        s1_ids = set(int(i) for i in pw0.pieces[0].ids)
        for pos in (0, 3, 7):
            x = int(pw0.union_ids[pos])
            want = osharp_mu_s1(space.coords, space.weights, s1_ids, f, x, space.scale_floor)
            assert got[pos] == pytest.approx(want, rel=1e-12)


class TestCombinatorialExpand:
    def test_terminates_within_bound(self, difficult_instance_16):
        space, pw, _ = difficult_instance_16
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = int(rng.integers(space.n))
            k = int(rng.integers(1, 4))
            ball = mt.Ball(x, 2.0 ** (-k))
            try:
                idx, ibar, wit = mt.combinatorial_expand(space, pw, ball, 2.0)
            except InvalidParameter:
                continue
            assert 1 <= ibar <= pw.N + 1
            r = ball.radius
            for i, w in wit.items():
                assert space.distance(x, w) <= (2.0 + ibar - 1) * r + 1e-12
            outer = space.members(x, (2.0 + ibar) * r)
            for j in range(pw.N):
                if j not in idx:
                    assert not np.any(np.isin(outer, pw.pieces[j].ids))

    def test_constructed_ibar_two(self):
        space, pw = mt.generate(mt.difficult_case_spec(1 / 16), verify=False)
        # center far from the segment: cB misses piece 2 but (c+1)B reaches it
        coords = space.coords
        x = int(np.flatnonzero((np.abs(coords[:, 0] - 0.125) < 1e-9) & (np.abs(coords[:, 1] - 0.5) < 1e-9))[0])
        r = 2.0 ** (-3)
        c = 2.0
        d_seg = 0.375   # distance from x to the segment at x1 = 0.5
        assert c * r < d_seg <= (c + 1) * r
        idx, ibar, wit = mt.combinatorial_expand(space, pw, mt.Ball(x, r), c)
        assert idx == [0, 1] and ibar == 2

    def test_all_pieces_in_first_dilation(self):
        space, pw = mt.generate(mt.difficult_case_spec(1 / 16), verify=False)
        # a ball at the interface already meets both pieces: one step suffices
        coords = space.coords
        x = int(np.flatnonzero((np.abs(coords[:, 0] - 0.5) < 1e-9) & (np.abs(coords[:, 1] - 0.5) < 1e-9))[0])
        idx, ibar, wit = mt.combinatorial_expand(space, pw, mt.Ball(x, 0.25), 2.0)
        assert idx == [0, 1] and ibar == 1


class TestTraceNorms:
    def test_simple_needs_positive_theta(self, difficult_instance_16):
        space, pw, _ = difficult_instance_16
        with pytest.raises(ParameterError):
            mt.trace_norm_simple(space, pw, np.zeros(space.n), 2.5)

    def test_difficult_needs_theta_zero(self, simple_instance_16):
        space, pw, _ = simple_instance_16
        with pytest.raises(ParameterError):
            mt.trace_norm_difficult(space, pw, np.zeros(space.n), 2.5)

    def test_constant_simple(self, simple_instance_16):
        space, pw, _ = simple_instance_16
        rep = mt.trace_norm_simple(space, pw, np.full(space.n, 2.0), 2.5, l=1)
        assert rep.parts["gl1"] == 0.0
        lp_sum = sum(
            2.0 * float(np.sum(pc.weights)) ** (1 / 2.5) for pc in pw.pieces
        )
        assert rep.value == pytest.approx(lp_sum, rel=1e-12)

    def test_l2_le_l3(self, simple_instance_16):
        space, pw, _ = simple_instance_16
        rng = np.random.default_rng(8)
        f = rng.uniform(-1, 1, space.n)
        v2 = mt.trace_norm_simple(space, pw, f, 2.5, l=2)
        v3 = mt.trace_norm_simple(space, pw, f, 2.5, l=3)
        assert v2.parts["gl2"] <= v3.parts["gl3"] * (1 + 1e-12)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_simple_tiny_instance_oracle(self, l):
        space, pw, f = build_tiny_instance(4)
        p, k_max = 2.0, 3
        got = mt.trace_norm_simple(space, pw, f, p, l=l, k_max=k_max).value
        ops = opieces(pw)
        want = sum(
            obesov(space.coords, op, f, 1 - op.theta / p, p, k_max) for op in ops
        ) + ogl(space.coords, space.weights, ops, f, p, l, k_max)
        assert got == pytest.approx(want, rel=1e-12)

    def test_difficult_constant_seminorm_parts_vanish(self, difficult_instance_16):
        space, pw, _ = difficult_instance_16
        rep = mt.trace_norm_difficult(space, pw, np.full(space.n, 1.5), 2.5)
        assert rep.parts["sharp_s1"] == 0.0 and rep.parts["gl3"] == 0.0
        # the Besov norm of a constant reduces to its L_p part
        mass2 = float(np.sum(pw.pieces[1].weights))
        assert rep.parts["besov_s2"] == pytest.approx(1.5 * mass2 ** (1 / 2.5), rel=1e-12)

    def test_difficult_parts_compositional(self, difficult_instance_16):
        space, pw, seq = difficult_instance_16
        rng = np.random.default_rng(13)
        f = rng.uniform(-1, 1, space.n)
        rep = mt.trace_norm_difficult(space, pw, f, 2.5)
        s1 = pw.pieces[0]
        mu1 = space.weights[s1.ids]
        lp = float(np.sum(mu1 * np.abs(f[s1.ids]) ** 2.5) ** (1 / 2.5))
        assert rep.parts["lp_s1"] == pytest.approx(lp, rel=1e-12)
        sharp_vals = mt.sharp_mu_s1(space, pw, f)
        on1 = np.isin(pw.union_ids, s1.ids, assume_unique=True)
        sharp = float(np.sum(mu1 * sharp_vals[on1] ** 2.5) ** (1 / 2.5))
        assert rep.parts["sharp_s1"] == pytest.approx(sharp, rel=1e-12)
        bes = mt.besov_norm(space, pw.pieces[1], f, 1 - pw.pieces[1].theta / 2.5, 2.5)
        assert rep.parts["besov_s2"] == pytest.approx(bes.value, rel=1e-12)
        gl = mt.gluing(space, pw, f, 2.5, 3)
        assert rep.parts["gl3"] == pytest.approx(gl.value, rel=1e-12)
        assert rep.value == pytest.approx(sum(rep.parts.values()), rel=1e-12)

    @pytest.mark.parametrize("case", ["trace_difficult", "bn"])
    def test_fresh_and_warm_spaces_agree(self, case):
        """Balls asked for in advance change no bit of a report, a second
        call equals the first, and no layer keeps a sweep: every
        ``SubsetNeighbors`` attribute is no larger than its subset."""

        def instance():
            spec = mt.difficult_case_spec if case == "trace_difficult" else mt.simple_case_spec
            space, pw = mt.generate(spec(1 / 8), verify=False)
            f = mt.make_sample_function(space, pw, "random")
            if case == "trace_difficult":
                return space, pw, lambda: mt.trace_norm_difficult(space, pw, f, 2.5).to_json()
            seq = mt.build_measure_sequence(space, pw, 2.0, p=2.5)
            return space, pw, lambda: mt.bn_functional(space, seq, pw, f, 2.5, 0.25).to_json()

        space, _, run = instance()
        fresh = run()
        assert run() == fresh
        for nbrs in [space._cloud(), *space._neighbors.values()]:
            assert set(vars(nbrs)) == {"space", "ids", "_tree", "_boxes", "porosity_masks"}
            assert all(m.size == nbrs.ids.size for masks in nbrs.porosity_masks.values() for m in masks)
        warm_space, pw, warm_run = instance()
        for ids in [pw.union_ids] + [pc.ids for pc in pw.pieces]:
            nbrs = subset_neighbors(warm_space, ids)
            for r in dyadic_radii(2.0, warm_space.scale_floor):
                nbrs.deviations_of(pw.union_ids, r, np.ones(nbrs.ids.size), np.arange(nbrs.ids.size, dtype=float))
                list(nbrs.rows_of(ids, r))
        assert warm_run() == fresh

class TestOnePass:
    @pytest.mark.parametrize("case, reverse", [("simple", False), ("difficult", False), ("same_ids", False),
                                               ("simple", True), ("difficult", True), ("same_ids", True)],
                             ids=["simple", "difficult", "same_ids", "simple_reversed", "difficult_reversed",
                                  "same_ids_reversed"])
    def test_a_resolution_evaluated_together_equals_each_cell_alone(self, case, reverse):
        """One ``evaluate_functional`` call with every function and
        functional of a resolution gives, bit for bit, the report of each
        (name, function) asked alone, and of the public function; also
        where a part reads gl3's second piece before gl3 is registered,
        where the pass reads each radius's subsets in reverse order, and
        where gl3's two pieces share their ids, so one ball layer and one
        set of heads serve both sides of every function's gl3."""
        from mmtrace import experiments

        run = functionals._Pass.run

        def reversed_run(ps):
            ps.reads = {r: dict(reversed(subsets.items())) for r, subsets in ps.reads.items()}
            run(ps)

        spec = mt.simple_case_spec(1 / 12) if case == "simple" else mt.difficult_case_spec(1 / 12)
        names = {"simple": ["trace_simple:1", "trace_simple:3", "bn", "gl2", "besov_alt:2"],
                 "difficult": ["besov:2", "trace_difficult", "sharp", "gl1"],
                 "same_ids": ["besov:2", "trace_simple:3", "gl3", "gl2"]}[case]
        space, pw = _same_ids_instance() if case == "same_ids" else mt.generate(spec, verify=False)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
        cfg = experiments.ExperimentConfig(generator=spec, resolutions=[1 / 12], functionals=names, functions=[])
        fs = [mt.make_sample_function(space, pw, fam, seed=1) for fam in ("linear", "hoelder:0.6", "step", "random")]
        with mock.patch.object(functionals._Pass, "run", reversed_run if reverse else run):
            together = experiments.evaluate_functional(names, space, pw, seq, fs, cfg)
        alone = [experiments.evaluate_functional(name, space, pw, seq, f, cfg) for f in fs for name in names]
        assert [r.to_json() for r in together] == [r.to_json() for r in alone]
        f = fs[-1]
        public = (mt.trace_norm_difficult(space, pw, f, 2.5) if case == "difficult"
                  else mt.trace_norm_simple(space, pw, f, 2.5, l=3))
        assert public.to_json() == together[-len(names) + 1].to_json()

    def test_gl3_heads_are_made_once_per_radius_and_layer_pair(self):
        """Four functions' gl3 in one pass find the heads of the cross
        pairs (their distinct first positions and each pair's table row)
        once per radius and layer pair, for both layer pairs' spellings:
        two pieces apart, and one piece's ids taken twice."""
        from mmtrace import experiments

        for space, pw in (mt.generate(mt.difficult_case_spec(1 / 16), verify=False), _same_ids_instance()):
            seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
            cfg = experiments.ExperimentConfig(generator=mt.difficult_case_spec(1 / 16), resolutions=[1 / 16],
                                               functionals=["gl3"], functions=[])
            fs = [mt.make_sample_function(space, pw, fam, seed=1) for fam in ("linear", "hoelder:0.6", "step", "random")]
            with mock.patch.object(functionals, "_heads", side_effect=functionals._heads) as heads:
                together = experiments.evaluate_functional(["gl3"], space, pw, seq, fs, cfg)
            layers = [subset_neighbors(space, pc.ids).ids for pc in pw.pieces]
            assert heads.call_count == mt.default_k_max(space)
            assert all(call.args[0] is layers[0] for call in heads.call_args_list)
            assert [r.to_json() for r in together] == [mt.gluing(space, pw, f, 2.5, 3).to_json() for f in fs]

    def test_four_functions_gl3_hold_little_more_than_their_tables(self):
        """A four-function gl3 pass at difficult h = 1/32 allocates at its
        peak at most the three extra functions' largest ``diff_table`` and
        one block of PAIR_BLOCK float64 values more than a one-function
        pass: the cross pairs' heads are shared, and no function holds a
        pair-sized index array of its own."""
        import tracemalloc

        from mmtrace import _neighbors, experiments

        spec = mt.difficult_case_spec(1 / 32)
        space, pw = mt.generate(spec, verify=False)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
        cfg = experiments.ExperimentConfig(generator=spec, resolutions=[1 / 32], functionals=["gl3"], functions=[])
        fs = [mt.make_sample_function(space, pw, fam, seed=1) for fam in ("linear", "hoelder:0.6", "step", "random")]
        experiments.evaluate_functional(["gl3"], space, pw, seq, fs[:1], cfg)   # the masses cached for both
        peaks = []
        for some in (fs[:1], fs):
            tracemalloc.start()
            try:
                experiments.evaluate_functional(["gl3"], space, pw, seq, some, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        a, b = (subset_neighbors(space, pc.ids) for pc in pw.pieces)
        heads = max(np.unique(a.cross_pairs(b, 2.0 ** -k)[0]).size for k in range(1, mt.default_k_max(space) + 1))
        tables = sum(heads * np.unique(f.values[b.ids]).size * 8 for f in fs[1:])
        assert peaks[1] - peaks[0] <= tables + _neighbors.PAIR_BLOCK * 8, (peaks, tables)

    def test_calderon_alone_equals_all_at_once(self):
        """A point's value does not depend on which points share its call,
        so not on which rows share its blocks: the weighted median's
        tie-break comes from each row's own cumsum."""
        space, pw = mt.generate(mt.simple_case_spec(1 / 24), verify=False)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
        ids = seq.support_ids[:400]
        for fam in ("hoelder:0.6", "random", "linear"):
            f = mt.make_sample_function(space, pw, fam, seed=0)
            together = mt.calderon_maximal(space, seq, f, seq.support_ids)[:400]
            alone = np.concatenate([mt.calderon_maximal(space, seq, f, [x]) for x in ids])
            np.testing.assert_array_equal(alone, together)

    @pytest.mark.parametrize("case", ["simple", "difficult"])
    def test_values_do_not_depend_on_the_block_size(self, case):
        """Every kernel (deviations, sums, means, gl3 numerators) gives the
        same bits in blocks of 2^10, 2^13 and 2^16 pairs."""
        from mmtrace import _neighbors

        spec = mt.simple_case_spec(1 / 16) if case == "simple" else mt.difficult_case_spec(1 / 24)
        space, pw = mt.generate(spec, verify=False)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
        f = mt.make_sample_function(space, pw, "random", seed=2)
        nbrs = seq.neighbors
        g = f.values[nbrs.ids]

        def values():
            reports = [mt.gluing(space, pw, f, 2.5, which) for which in (2, 3)]
            reports.append(mt.besov_norm_alt(space, pw.pieces[-1], f, 0.5, 2.5))
            if case == "simple":
                reports.append(mt.bn_functional(space, seq, pw, f, 2.5, 0.01))
            else:
                reports.append(mt.trace_norm_difficult(space, pw, f, 2.5))
            return ([r.to_json() for r in reports], nbrs.deviations_of(space.ids, 0.5, seq.weights_per_k[1], g),
                    nbrs.ball_sums(space.ids, 0.25, seq.weights_per_k[:2]))

        runs = []
        for budget in (1 << 10, 1 << 13, 1 << 16):
            with mock.patch.object(_neighbors, "PAIR_BLOCK", budget):
                runs.append(values())
        for run in runs[1:]:
            assert run[0] == runs[0][0]
            np.testing.assert_array_equal(run[1], runs[0][1])
            np.testing.assert_array_equal(run[2], runs[0][2])
