"""Acceptance suite: one test per criterion, each printing a PASS line.

Stability across resolutions is measured as (max - min)/min of the
tracked quantity over h in {1/8, 1/16, 1/32}.  Band centers were recorded
on the first certified run and are regression-tracked here.
"""

import math
import time

import numpy as np
import pytest

import mmtrace as mt
from conftest import build_tiny_instance
from mmtrace.content import _candidate_pool, _exact_cover
from mmtrace.experiments import report_to_csv, run_equivalence
from mmtrace.io import parse_config
from oracles import OPiece, obesov, obesov_alt, obn, obsn_family, ogl

P = 2.5
RESOLUTIONS = (1 / 8, 1 / 16, 1 / 32)


def relvar(vals):
    return (max(vals) - min(vals)) / min(vals)


@pytest.fixture(scope="module")
def simple_sweep():
    out = {}
    for h in RESOLUTIONS:
        space, pw = mt.generate(mt.simple_case_spec(h), verify=False)
        seq = mt.build_measure_sequence(space, pw, 2.0, p=P)
        out[h] = (space, pw, seq)
    return out


@pytest.fixture(scope="module")
def difficult_sweep():
    out = {}
    for h in RESOLUTIONS:
        space, pw = mt.generate(mt.difficult_case_spec(h), verify=False)
        seq = mt.build_measure_sequence(space, pw, 1.0, p=P)
        out[h] = (space, pw, seq)
    return out


def test_criterion_01_deviation_oscillation_sandwich():
    t0 = time.time()
    space = mt.build_grid_space("grid2d", 1 / 8)
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 200:
        center = int(rng.integers(space.n))
        radius = float(rng.uniform(0.05, 1.2))
        members = space.members(center, radius)
        if members.size == 0:
            continue
        f = rng.normal(0.0, 2.0, space.n)
        w = rng.uniform(0.05, 3.0, space.n)
        st = mt.local_stats(f, members, w)
        assert st.best_dev <= st.osc * (1 + 1e-12)
        assert st.osc <= 2.0 * st.best_dev * (1 + 1e-12)
        checked += 1
    dt = time.time() - t0
    assert dt < 5.0
    print(f"\nACCEPTANCE 1 PASS - E<=OSC<=2E exact on 200 random triples ({dt:.1f}s)")


def test_criterion_02_gluing_order(simple_sweep):
    t0 = time.time()
    space, pw, _ = simple_sweep[1 / 16]
    rng = np.random.default_rng(202)
    for trial in range(50):
        f = rng.uniform(-1.0, 1.0, space.n)
        g2 = mt.gluing(space, pw, f, P, 2).value
        g3 = mt.gluing(space, pw, f, P, 3).value
        assert g2 <= g3 * (1 + 1e-12), f"trial {trial}: GL2={g2} > GL3={g3}"
    dt = time.time() - t0
    assert dt < 60.0
    print(f"\nACCEPTANCE 2 PASS - GL2 <= GL3 on 50 random functions at h=1/16 ({dt:.1f}s)")


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    for seed in range(20):
        space, pw, f = build_tiny_instance(seed)
        assert pw.union_ids.size <= 10
        ops = [OPiece(pc.ids, pc.theta, pc.weights) for pc in pw.pieces]
        k_max, p = 3, 2.0

        got = mt.besov_norm(space, pw.pieces[0], f, 0.45, p, k_max=k_max).value
        want = obesov(space.coords, ops[0], f, 0.45, p, k_max)
        assert got == pytest.approx(want, rel=1e-12)
        got = mt.besov_norm_alt(space, pw.pieces[0], f, 0.45, p, k_max=k_max).value
        want = obesov_alt(space.coords, ops[0], f, 0.45, p, k_max)
        assert got == pytest.approx(want, rel=1e-12)

        for which in (1, 2, 3):
            got = mt.gluing(space, pw, f, p, which, k_max=k_max).value
            want = ogl(space.coords, space.weights, ops, f, p, which, k_max)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

        seq = mt.build_measure_sequence(space, pw, 1.5, k_max=k_max)
        mk = [
            {int(i): float(w) for i, w in zip(seq.support_ids, seq.weights_per_k[k])}
            for k in range(k_max + 1)
        ]
        got = mt.bn_functional(space, seq, pw, f, p, 0.25).value
        want = obn(space.coords, space.weights, [int(i) for i in pw.union_ids], mk,
                   1.5, f, p, 0.25, k_max, space.resolution)
        assert got == pytest.approx(want, rel=1e-12)

        balls = [mt.Ball(int(pw.union_ids[0]), 0.125)]
        far = [int(i) for i in pw.union_ids
               if space.distance(int(pw.union_ids[0]), int(i)) > 0.3]
        if far:
            balls.append(mt.Ball(far[0], 0.125))
        got = mt.bsn_functional(space, seq, f, p, 6.0, family=mt.NiceFamily(balls, c=6.0)).value
        want = obsn_family(space.coords, space.weights, [int(i) for i in pw.union_ids],
                           mk, f, p, 6.0, [(b.center, b.radius) for b in balls], k_max)
        assert got == pytest.approx(want, rel=1e-12)
    dt = time.time() - t0
    assert dt < 30.0
    print(f"\nACCEPTANCE 3 PASS - naive-loop oracle match to 1e-12 on 20 tiny instances ({dt:.1f}s)")


def test_criterion_04_set_cover_soundness():
    t0 = time.time()
    rng = np.random.default_rng(404)
    bound = 1.0 + math.log(12)
    coords = np.linspace(0, 1, 17).reshape(-1, 1)
    for trial in range(30):
        sp = mt.FiniteMetricMeasureSpace(
            weights=rng.uniform(0.5, 1.5, 17) / 17, coords=coords, resolution=1 / 16
        )
        n_target = int(rng.integers(2, 5))
        target = np.sort(rng.choice(17, size=n_target, replace=False))
        delta = float(rng.choice([0.3, 0.5]))
        theta = float(rng.uniform(0.2, 1.2))
        balls, covers, weights = _candidate_pool(sp, target, theta, delta)
        assert len(balls) <= 12, f"pool too large: {len(balls)}"
        sol = mt.hausdorff_content(sp, mt.ContentQuery(target, theta, delta, "greedy"))
        _, exact_val = _exact_cover(target.size, covers, weights)
        assert sol.value >= exact_val - 1e-12
        assert sol.value <= bound * exact_val * (1 + 1e-12), (
            f"trial {trial}: greedy/exact = {sol.value / exact_val}"
        )
    dt = time.time() - t0
    assert dt < 30.0
    print(f"\nACCEPTANCE 4 PASS - greedy cover within 1+ln(12) of exact on 30 instances ({dt:.1f}s)")


def test_criterion_05_adr_porosity_certification(simple_sweep):
    t0 = time.time()
    kappa_ratios = []
    for h in RESOLUTIONS:
        space, pw, _ = simple_sweep[h]
        seg = pw.pieces[1]
        grid = mt.default_r_grid(space)
        k1, k2, ok = mt.check_adr(space, seg, grid)
        assert ok and 0 < k1 <= k2
        kappa_ratios.append(k2 / k1)
        por = mt.porosity_scan(space, seg.ids, 0.25, grid)
        assert por.is_porous, f"segment not 1/4-porous at h={h}"
        for mask in por.porous_points_per_scale:
            assert mask.all()
    rv = relvar(kappa_ratios)
    assert rv < 0.25, f"kappa2/kappa1 varies {rv:.1%} across resolutions: {kappa_ratios}"
    space8 = simple_sweep[1 / 8][0]
    whole = mt.porosity_scan(space8, np.arange(space8.n), 0.25, mt.default_r_grid(space8))
    assert not whole.is_porous
    dt = time.time() - t0
    assert dt < 300.0
    print(
        f"\nACCEPTANCE 5 PASS - segment ADR ratio {kappa_ratios[-1]:.3f} varies {rv:.1%} (<25%), "
        f"1/4-porous at every scale, whole space non-porous ({dt:.1f}s)"
    )


def test_criterion_06_measure_sequence_axioms(simple_sweep):
    t0 = time.time()
    c1s, c2s = [], []
    for h in RESOLUTIONS:
        space, pw, seq = simple_sweep[h]
        sets = {
            "piece1": pw.pieces[0].ids,
            "piece2": pw.pieces[1].ids,
            "halfcut": pw.union_ids[space.coords[pw.union_ids, 0] <= 0.5],
        }
        cert = mt.verify_regular_sequence(space, seq, test_sets=sets)
        assert cert.passes["M1"]
        assert cert.C3 == pytest.approx(1.0, abs=1e-12), f"C3 = {cert.C3} at h={h}"
        assert cert.passes["M2"] and cert.passes["M3"]
        assert all(v > 0.01 for v in cert.M5_samples.values()), cert.M5_samples
        c1s.append(cert.C1)
        c2s.append(cert.C2)
    rv1, rv2 = relvar(c1s), relvar(c2s)
    assert rv1 < 0.25, f"C1 varies {rv1:.1%}: {c1s}"
    assert rv2 < 0.25, f"C2 varies {rv2:.1%}: {c2s}"
    dt = time.time() - t0
    assert dt < 300.0
    print(
        f"\nACCEPTANCE 6 PASS - M1 exact, C3=1 exact, C1~{c1s[-1]:.3f} varies {rv1:.1%}, "
        f"C2~{c2s[-1]:.3f} varies {rv2:.1%}, M5 ratios > 0.01 ({dt:.1f}s)"
    )


def test_criterion_07_combinatorial_expansion():
    t0 = time.time()
    two_piece = mt.generate(mt.difficult_case_spec(1 / 16), verify=False)
    three_spec = mt.GeneratorSpec(
        kind="grid2d",
        h=1 / 16,
        pieces=[
            mt.PieceSpec("region", 0.0, {"halfspace": (0, 0.5, "le")}),
            mt.PieceSpec("segment", 0.5, {"axis": 1, "anchor": (0.625,)}),
            mt.PieceSpec("segment", 1.0, {"axis": 1, "anchor": (0.875,)}),
        ],
    )
    three_piece = mt.generate(three_spec, verify=False)
    rng = np.random.default_rng(707)
    done = 0
    for space, pw in (two_piece, three_piece):
        per_instance = 0
        while per_instance < 250:
            x = int(rng.integers(space.n))
            k = int(rng.integers(1, 4))
            ball = mt.Ball(x, 2.0 ** (-k))
            c = float(rng.choice([1.0, 2.0, 3.0]))
            try:
                idx, ibar, wit = mt.combinatorial_expand(space, pw, ball, c)
            except mt.InvalidParameter:
                continue   # dilated ball missed S; redraw
            assert 1 <= ibar <= pw.N + 1
            for i, w in wit.items():
                assert space.distance(x, w) <= (c + ibar - 1) * ball.radius + 1e-12
            outer = space.members(x, (c + ibar) * ball.radius)
            for j in range(pw.N):
                if j not in idx:
                    assert not np.any(np.isin(outer, pw.pieces[j].ids))
            per_instance += 1
            done += 1
    dt = time.time() - t0
    assert done == 500 and dt < 30.0
    print(f"\nACCEPTANCE 7 PASS - 500 expansions, i_bar <= N+1 with valid witnesses ({dt:.1f}s)")


def test_criterion_08_besov_equivalence(simple_sweep):
    t0 = time.time()
    ratios = []
    for h in RESOLUTIONS:
        space, pw, _ = simple_sweep[h]
        seg = pw.pieces[1]
        f = mt.make_sample_function(space, pw, "hoelder:0.6")
        s = 1.0 - seg.theta / P
        b = mt.besov_norm(space, seg, f, s, P).value
        ba = mt.besov_norm_alt(space, seg, f, s, P).value
        ratios.append(ba / b)
    rv = relvar(ratios)
    assert all(1.0 <= r <= 1.6 for r in ratios), f"ratios left the recorded band: {ratios}"
    assert rv < 0.25, f"alt/plain Besov ratio varies {rv:.1%}: {ratios}"
    dt = time.time() - t0
    assert dt < 180.0
    print(
        f"\nACCEPTANCE 8 PASS - Besov alt/plain ratio {ratios[-1]:.3f} in [1.0, 1.6], "
        f"varies {rv:.1%} (<25%) ({dt:.1f}s)"
    )


def test_criterion_09_simple_trace_equivalence(simple_sweep):
    t0 = time.time()
    ratios = {}
    step_values = []
    for h in RESOLUTIONS:
        space, pw, seq = simple_sweep[h]
        for fam in ("linear", "hoelder:0.6"):
            f = mt.make_sample_function(space, pw, fam)
            bn = mt.bn_functional(space, seq, pw, f, P, 0.01, c=6.0).value
            for l in (1, 3):
                ts = mt.trace_norm_simple(space, pw, f, P, l=l).value
                ratios.setdefault((fam, l), []).append(ts / bn)
        f_step = mt.make_sample_function(space, pw, "step")
        step_values.append(mt.trace_norm_simple(space, pw, f_step, P, l=1).value)
    for key, vals in ratios.items():
        rv = relvar(vals)
        assert rv < 0.25, f"{key}: trace/bn varies {rv:.1%}: {vals}"
    assert step_values[0] < step_values[1] < step_values[2], (
        f"step trace norm not increasing with resolution: {step_values}"
    )
    dt = time.time() - t0
    assert dt < 600.0
    worst = max(relvar(v) for v in ratios.values())
    print(
        f"\nACCEPTANCE 9 PASS - trace/bn stable (worst variation {worst:.1%} < 25%), "
        f"step norm grows {step_values[0]:.2f} -> {step_values[2]:.2f} ({dt:.1f}s)"
    )


def test_criterion_10_difficult_case_assembly(difficult_sweep):
    t0 = time.time()
    pinned_radii = [1.0, 0.5, 0.25, 0.125]
    ratios = {}
    for h in RESOLUTIONS:
        space, pw, seq = difficult_sweep[h]
        for fam in ("linear", "hoelder:0.6"):
            f = mt.make_sample_function(space, pw, fam)
            rep = mt.trace_norm_difficult(space, pw, f, P)
            # parts match the standalone operations exactly
            s1 = pw.pieces[0]
            mu1 = space.weights[s1.ids]
            lp = float(np.sum(mu1 * np.abs(f.values[s1.ids]) ** P) ** (1 / P))
            assert rep.parts["lp_s1"] == pytest.approx(lp, rel=1e-12)
            sharp_vals = mt.sharp_mu_s1(space, pw, f)
            on1 = np.isin(pw.union_ids, s1.ids, assume_unique=True)
            sharp = float(np.sum(mu1 * sharp_vals[on1] ** P) ** (1 / P))
            assert rep.parts["sharp_s1"] == pytest.approx(sharp, rel=1e-12)
            bes = mt.besov_norm(space, pw.pieces[1], f, 1 - pw.pieces[1].theta / P, P).value
            assert rep.parts["besov_s2"] == pytest.approx(bes, rel=1e-12)
            gl = mt.gluing(space, pw, f, P, 3).value
            assert rep.parts["gl3"] == pytest.approx(gl, rel=1e-12)
            bsn = mt.bsn_functional(
                space, seq, f, P, 6.0, search_budget=512, search_radii=pinned_radii
            ).value
            ratios.setdefault(fam, []).append(rep.value / bsn)
    for fam, vals in ratios.items():
        rv = relvar(vals)
        assert rv < 0.35, f"{fam}: trace/bsn varies {rv:.1%}: {vals}"
    dt = time.time() - t0
    assert dt < 600.0
    worst = max(relvar(v) for v in ratios.values())
    print(
        f"\nACCEPTANCE 10 PASS - parts compositional to 1e-12, trace/bsn varies "
        f"{worst:.1%} (<35%, searched lower bound) ({dt:.1f}s)"
    )


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    cfg_text = """
    name = simple3d
    kind = grid3d
    pieces = square_face theta=1 axis=2 offset=0.5 ; segment theta=2 axis=2 anchor=0.5,0.5
    resolutions = 1/8
    functions = linear random
    functionals = trace_simple:1 gl3 bn bsn
    p = 2.5
    c = 6
    sigma = 0.01
    seeds = 3
    """
    cfg = parse_config(cfg_text)
    csv_a = report_to_csv(run_equivalence(cfg), cfg)
    csv_b = report_to_csv(run_equivalence(parse_config(cfg_text)), cfg)
    assert csv_a == csv_b
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    mt.report_emit(run_equivalence(cfg), "csv", str(a), cfg)
    mt.report_emit(run_equivalence(cfg), "csv", str(b), cfg)
    assert a.read_bytes() == b.read_bytes()
    dt = time.time() - t0
    assert dt < 60.0
    print(f"\nACCEPTANCE 11 PASS - byte-identical CSV across repeated runs ({dt:.1f}s)")
