import numpy as np
import pytest

import mmtrace as mt
from mmtrace.errors import ParameterError
from mmtrace.measures import EPSILON
from oracles import oball, oE, oOSC


class TestBuild:
    def test_no_cloud_sized_temporary(self):
        """The pieces are scattered into the support's positions, bit for bit
        as the dense per-point sum gives them, with no n-sized array."""
        import tracemalloc

        space, pw = mt.generate(mt.simple_case_spec(1 / 40), verify=False)
        tracemalloc.start()
        try:
            seq = mt.build_measure_sequence(space, pw, 2.0, p=2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * space.n
        for k in range(seq.k_max + 1):
            dense = np.zeros(space.n)
            for pc in pw.pieces:
                dense += 2.0 ** (k * (2.0 - pc.theta)) * np.bincount(pc.ids, pc.weights, space.n)
            np.testing.assert_array_equal(seq.weights_per_k[k], dense[pw.union_ids])

    def test_k0_is_plain_sum(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        dense = np.zeros(space.n)
        for pc in pw.pieces:
            dense[pc.ids] += pc.weights
        np.testing.assert_allclose(seq.weights_per_k[0], dense[pw.union_ids], rtol=1e-14)

    def test_single_piece_constant_in_k(self):
        space, pw0 = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        single = mt.compose_piecewise([pw0.pieces[1]])
        seq = mt.build_measure_sequence(space, single, theta=2.0, k_max=3)
        for k in range(4):
            np.testing.assert_allclose(seq.weights_per_k[k], seq.weights_per_k[0], rtol=1e-14)

    def test_exclusive_point_scaling(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        face, seg = pw.pieces
        only_face = np.setdiff1d(face.ids, seg.ids)
        x = only_face[0]
        pos = int(np.searchsorted(pw.union_ids, x))
        h1 = face.weights[np.searchsorted(face.ids, x)]
        for k in range(seq.k_max + 1):
            # theta - theta_1 = 2 - 1 = 1, so the mass doubles per scale
            assert seq.weights_per_k[k][pos] == pytest.approx(2.0**k * h1, rel=1e-13)

    def test_mass_monotone_per_piece(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        face, seg = pw.pieces
        only_face = np.isin(seq.support_ids, np.setdiff1d(face.ids, seg.ids))
        only_seg = np.isin(seq.support_ids, np.setdiff1d(seg.ids, face.ids))
        for k in range(seq.k_max):
            a, b = seq.weights_per_k[k], seq.weights_per_k[k + 1]
            assert np.all(b[only_face] > a[only_face])        # theta_i < theta grows
            np.testing.assert_allclose(b[only_seg], a[only_seg], rtol=1e-14)

    def test_theta_validation(self, simple_instance_16):
        space, pw, _ = simple_instance_16
        with pytest.raises(ParameterError):
            mt.build_measure_sequence(space, pw, theta=1.5)
        with pytest.raises(ParameterError):
            mt.build_measure_sequence(space, pw, theta=2.6, p=2.5)


    def test_neighbors_resolved_once(self):
        from unittest import mock

        from mmtrace import measures

        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        seq = mt.build_measure_sequence(space, pw, theta=2.0, p=2.5)
        with mock.patch.object(measures, "subset_neighbors", wraps=measures.subset_neighbors) as spy:
            first = seq.neighbors
            assert all(seq.neighbors is first for _ in range(3))
            mt.tilde_e(seq, np.zeros(space.n), 1, int(seq.support_ids[0]), 0.25)
        assert spy.call_count == 1
        np.testing.assert_array_equal(first.ids, seq.support_ids)


class TestVerify:
    def test_single_adr_piece_passes(self):
        space, pw0 = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        single = mt.compose_piecewise([pw0.pieces[0]])
        seq = mt.build_measure_sequence(space, single, theta=1.5, p=2.5)
        cert = mt.verify_regular_sequence(space, seq)
        assert cert.passes["M1"] and cert.passes["M2"] and cert.passes["M3"] and cert.passes["M4"]

    def test_m4_exact_closed_form(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        cert = mt.verify_regular_sequence(space, seq)
        assert cert.C3 == pytest.approx(1.0, abs=1e-12)
        eps, theta = EPSILON, seq.theta
        for k in range(seq.k_max):
            for j in range(seq.k_max + 1 - k):
                ratio = seq.density_per_k[k] / seq.density_per_k[k + j]
                assert np.all(ratio <= 1.0 + 1e-12)
                assert np.all(ratio >= eps ** (theta * j) - 1e-12)

    def test_m1_violation_detected(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        from dataclasses import replace

        weights = seq.weights_per_k.copy()
        weights[2, 7] = 0.0
        broken = replace(seq, weights_per_k=weights)
        cert = mt.verify_regular_sequence(space, broken)
        assert not cert.passes["M1"]

    def test_m5_spot_checks(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        sets = {
            "piece1": pw.pieces[0].ids,
            "piece2": pw.pieces[1].ids,
            "halfcut": pw.union_ids[space.coords[pw.union_ids, 0] <= 0.5],
        }
        cert = mt.verify_regular_sequence(space, seq, test_sets=sets)
        assert cert.passes["M5"]
        assert all(v > 0.01 for v in cert.M5_samples.values())

    def test_doubling_at_scale_bounded(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        cert = mt.verify_regular_sequence(space, seq, c_grid=(2.0, 4.0))
        assert 1.0 <= cert.doubling_at_scale[2.0] <= cert.doubling_at_scale[4.0] < 200.0

    def test_doubling_at_scale_stable_across_resolutions(self):
        vals = []
        for h in (1 / 8, 1 / 16, 1 / 32):
            space, pw = mt.generate(mt.simple_case_spec(h), verify=False)
            seq = mt.build_measure_sequence(space, pw, 2.0, p=2.5)
            cert = mt.verify_regular_sequence(space, seq, c_grid=(2.0,))
            vals.append(cert.doubling_at_scale[2.0])
        assert (max(vals) - min(vals)) / min(vals) < 0.25

    def test_certificate_json(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        cert = mt.verify_regular_sequence(space, seq)
        payload = cert.to_json()
        assert set(payload) == {"M1", "M2", "M3", "M4", "M5", "doubling_at_scale"}


class TestLocalStats:
    def test_constant(self):
        st = mt.weighted_stats(np.full(5, 3.3), np.ones(5))
        assert st.best_dev == 0.0 and st.osc == 0.0 and st.mean == pytest.approx(3.3)

    def test_two_points(self):
        st = mt.weighted_stats(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert st.best_dev == pytest.approx(0.5, rel=1e-14)
        assert st.osc == pytest.approx(0.5, rel=1e-14)

    def test_three_points(self):
        st = mt.weighted_stats(np.array([0.0, 0.0, 1.0]), np.ones(3))
        assert st.best_dev == pytest.approx(1 / 3, rel=1e-14)
        assert st.osc == pytest.approx(4 / 9, rel=1e-14)

    def test_zero_mass(self):
        st = mt.weighted_stats(np.array([1.0]), np.array([0.0]))
        assert st.mean == 0.0 and st.best_dev == 0.0 and st.osc == 0.0

    def test_matches_oracle_and_sandwich(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            vals = rng.normal(0, 2, n)
            w = rng.uniform(0.01, 2.0, n)
            st = mt.weighted_stats(vals, w)
            assert st.best_dev == pytest.approx(oE(vals, w), rel=1e-12, abs=1e-15)
            assert st.osc == pytest.approx(oOSC(vals, w), rel=1e-12, abs=1e-15)
            assert st.best_dev <= st.osc * (1 + 1e-12)
            assert st.osc <= 2 * st.best_dev * (1 + 1e-12)

    def test_local_stats_wrapper(self, grid1d_11):
        f = np.linspace(0, 1, 11)
        st = mt.local_stats(f, [3, 4, 5], np.full(11, 0.5))
        assert st.mean == pytest.approx(0.4)
        assert st.mass == pytest.approx(1.5)


class TestComparison:
    def test_lower_bound_exact(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        rep = mt.measure_comparison_check(space, seq, pw, c=2.0, max_centers_per_piece=40)
        assert rep.overall_min >= 1.0 - 1e-12
        assert np.isfinite(rep.overall_max)

    def test_single_piece_ratio_is_doubling_factor(self):
        space, pw0 = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        single = mt.compose_piecewise([pw0.pieces[1]])
        seq = mt.build_measure_sequence(space, single, theta=2.0, k_max=3)
        rep = mt.measure_comparison_check(space, seq, single, c=2.0, max_centers_per_piece=17)
        assert rep.overall_min >= 1.0 - 1e-12
        assert rep.overall_max < 50.0

    def test_per_scale_equals_a_brute_force_loop(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
        c, cap = 2.0, 17
        rep = mt.measure_comparison_check(space, seq, pw, c=c, max_centers_per_piece=cap)
        for k in range(seq.k_max + 1):
            r, mk, ratios = 2.0 ** (-k), seq.dense(k), []
            for pc in pw.pieces:
                h = dict(zip(pc.ids.tolist(), pc.weights))
                centers = pc.ids[np.unique(np.linspace(0, pc.ids.size - 1, cap).astype(int))]
                for x in centers.tolist():
                    h_ball = sum(h[i] for i in oball(space.coords, x, r) if i in h)
                    denom = 2.0 ** (k * (seq.theta - pc.theta)) * h_ball
                    near = [x] + [y for y in oball(space.coords, x, (c - 1.0) * r)[:3] if y != x]
                    ratios += [sum(mk[i] for i in oball(space.coords, y, c * r)) / denom for y in near[:3]]
            assert rep.per_scale[k] == pytest.approx((min(ratios), max(ratios)), rel=1e-12, abs=0.0)
        assert rep.skipped_scales == []


class TestLpTail:
    def test_zero_function(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        assert mt.lp_tail_check(seq, np.zeros(space.n), L=2, p=2.5) == 0.0

    def test_constant_function(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        assert mt.lp_tail_check(seq, np.ones(space.n), L=2, p=2.5) == pytest.approx(0.0, abs=1e-13)

    def test_random_bounded_across_resolutions(self):
        vals = []
        for h in (1 / 8, 1 / 16):
            space, pw = mt.generate(mt.simple_case_spec(h), verify=False)
            seq = mt.build_measure_sequence(space, pw, 2.0)
            rng = np.random.default_rng(4)
            f = rng.uniform(-1, 1, space.n)
            vals.append(mt.lp_tail_check(seq, f, L=2, p=2.5))
        assert all(np.isfinite(v) and v > 0 for v in vals)
        assert max(vals) / min(vals) < 3.0

    def test_L_exceeds_kmax(self, simple_instance_16):
        space, pw, seq = simple_instance_16
        with pytest.raises(ParameterError):
            mt.lp_tail_check(seq, np.ones(space.n), L=99, p=2.5)
