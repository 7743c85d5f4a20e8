import numpy as np
import pytest

import mmtrace as mt
from mmtrace.errors import InsufficientData, ParameterError
from mmtrace.experiments import CSV_HEADER, RatioReport, report_to_csv, run_equivalence
from mmtrace.functionals import sharp_norm_s1
from mmtrace.io import parse_config
from oracles import odirichlet_lip

SMALL_CONFIG = """
name = simple3d
kind = grid3d
pieces = square_face theta=1 axis=2 offset=0.5 ; segment theta=2 axis=2 anchor=0.5,0.5
resolutions = 1/8
functions = constant linear
functionals = gl1 gl2 trace_simple:1
p = 2.5
c = 6
sigma = 0.01
seeds = 0
"""


class TestConfig:
    def test_parse_roundtrip(self):
        cfg = parse_config(SMALL_CONFIG)
        assert cfg.p == 2.5 and cfg.c == 6.0
        assert cfg.generator.kind == "grid3d"
        assert len(cfg.generator.pieces) == 2
        assert cfg.resolutions == [0.125]
        cfg.validate()

    def test_hypothesis_bounds_enforced(self):
        cfg = parse_config(SMALL_CONFIG)
        cfg.c = 2.0
        with pytest.raises(ParameterError):
            cfg.validate()
        cfg = parse_config(SMALL_CONFIG)
        cfg.sigma = 0.2   # >= 1/(16c)
        with pytest.raises(ParameterError):
            cfg.validate()
        cfg = parse_config(SMALL_CONFIG)
        cfg.p = 1.5       # below theta(S) = 2
        with pytest.raises(ParameterError):
            cfg.validate()

    def test_unknown_functional(self):
        cfg = parse_config(SMALL_CONFIG)
        cfg.functionals = ["sobolev"]
        with pytest.raises(ParameterError):
            cfg.validate()


class TestRunEquivalence:
    def test_degenerate_rows_flagged(self):
        cfg = parse_config(SMALL_CONFIG)
        report = run_equivalence(cfg)
        degenerate = [r for r in report.rows if r.function == "constant" and r.functional_b == "gl2"]
        assert degenerate and all(r.degenerate for r in degenerate)
        fine = [r for r in report.rows if r.function == "linear" and r.functional_a == "gl1" and r.functional_b == "gl2"]
        assert fine and all(not r.degenerate and r.ratio > 0 for r in fine)

    def test_skips_the_adr_check(self, monkeypatch, tmp_path):
        """No ADR constant reaches a report: run_equivalence runs no check_adr
        and emits what a run with the check emits."""
        from mmtrace import experiments, generators

        cfg = parse_config(SMALL_CONFIG)
        monkeypatch.setattr(experiments, "generate", lambda spec, verify=True: generators.generate(spec, True))
        mt.report_emit(run_equivalence(cfg), "json", str(tmp_path / "checked.json"), cfg)
        monkeypatch.undo()
        calls = []
        check_adr = generators.check_adr
        monkeypatch.setattr(generators, "check_adr", lambda *a, **k: calls.append(a) or check_adr(*a, **k))
        mt.report_emit(run_equivalence(cfg), "json", str(tmp_path / "run.json"), cfg)
        assert calls == []
        assert (tmp_path / "run.json").read_bytes() == (tmp_path / "checked.json").read_bytes()

    def test_gluing_chain_bounded(self):
        # GL2 <= GL3 exactly; GL3 and GL1 control each other through the
        # lp/besov terms with bounded factors
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        p = 2.5
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = rng.uniform(-1, 1, space.n)
            g1 = mt.gluing(space, pw, f, p, 1).value
            g2 = mt.gluing(space, pw, f, p, 2).value
            g3 = mt.gluing(space, pw, f, p, 3).value
            assert g2 <= g3 * (1 + 1e-12)
            lp_parts = sum(
                float(np.sum(pc.weights * np.abs(f[pc.ids]) ** p) ** (1 / p)) for pc in pw.pieces
            )
            assert g3 <= 60.0 * (g1 + lp_parts)
            besov_parts = sum(
                mt.besov_norm(space, pc, f, 1 - pc.theta / p, p).value for pc in pw.pieces
            )
            assert g1 <= 60.0 * (g2 + besov_parts)


class TestFunctionalDispatch:
    def test_sharp_and_besov_names(self):
        from mmtrace.experiments import evaluate_functional
        from mmtrace.generators import difficult_case_spec

        cfg = parse_config(SMALL_CONFIG)
        space, pw = mt.generate(difficult_case_spec(1 / 8), verify=False)
        seq = mt.build_measure_sequence(space, pw, 1.0, p=2.5)
        f = mt.make_sample_function(space, pw, "linear")
        sharp = evaluate_functional("sharp", space, pw, seq, f, cfg)
        td = evaluate_functional("trace_difficult", space, pw, seq, f, cfg)
        assert sharp.value == pytest.approx(td.parts["sharp_s1"], rel=1e-12)
        b2 = evaluate_functional("besov:2", space, pw, seq, f, cfg)
        want = mt.besov_norm(space, pw.pieces[1], f, 1 - pw.pieces[1].theta / 2.5, 2.5)
        assert b2.value == pytest.approx(want.value, rel=1e-12)

    def test_nested_instance_trace_runs(self):
        space, pw = mt.generate(mt.nested_case_spec(1 / 8), verify=False)
        f = mt.make_sample_function(space, pw, "linear")
        rep = mt.trace_norm_simple(space, pw, f, 2.5, l=1)
        assert np.isfinite(rep.value) and rep.value > 0


def _distances(coords):
    return np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))


def _matrix_twin(space):
    return mt.FiniteMetricMeasureSpace(
        weights=space.weights, dist_matrix=_distances(space.coords), resolution=space.resolution, validate=False
    )


class TestDirichletProbe:
    @pytest.mark.parametrize("matrix", [False, True])
    @pytest.mark.parametrize("spec", [mt.simple_case_spec, mt.difficult_case_spec])
    def test_matches_the_point_loop(self, spec, matrix):
        space, pw = mt.generate(spec(1 / 8), verify=False)
        f = mt.make_sample_function(space, pw, "random").values
        lip = odirichlet_lip(_distances(space.coords), f, 1.01 * space.resolution)
        if matrix:
            space = _matrix_twin(space)
        p = 2.5
        denom = np.sum(space.weights * np.abs(f) ** p) ** (1 / p) + np.sum(space.weights * lip**p) ** (1 / p)
        if pw.pieces[0].theta > 0:
            hom, thin = mt.gluing(space, pw, f, p, which=1).value, pw.pieces
        else:
            hom, thin = sharp_norm_s1(space, pw, f, p) + mt.gluing(space, pw, f, p, which=3).value, pw.pieces[1:]
        hom += sum(mt.besov_norm(space, pc, f, 1 - pc.theta / p, p).parts["seminorm"] for pc in thin)
        assert mt.dirichlet_upper_bound_probe(space, f, p, pw) == pytest.approx(hom / denom, rel=1e-12)

    @pytest.mark.parametrize("matrix", [False, True])
    def test_lowest_isolated_point_named(self, matrix):
        coords = np.array([[0.0], [0.1], [0.5], [0.8], [0.9], [1.3]])
        space = mt.FiniteMetricMeasureSpace(weights=np.ones(6), coords=coords, resolution=0.1)
        with pytest.raises(ValueError, match="2"):
            odirichlet_lip(_distances(coords), np.zeros(6), 0.101)
        pw = mt.compose_piecewise([mt.SubsetPiece(ids=np.array([0, 1]), theta=0.5, weights=np.ones(2))])
        with pytest.raises(InsufficientData, match="point 2 has"):
            mt.dirichlet_upper_bound_probe(_matrix_twin(space) if matrix else space, np.zeros(6), 2.5, pw)

    def test_constant_zero(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        F = mt.make_sample_function(space, pw, "constant")
        assert mt.dirichlet_upper_bound_probe(space, F, 2.5, pw) == 0.0

    def test_linear_stable_across_resolutions(self):
        vals = []
        for h in (1 / 8, 1 / 16):
            space, pw = mt.generate(mt.simple_case_spec(h), verify=False)
            F = mt.make_sample_function(space, pw, "linear")
            vals.append(mt.dirichlet_upper_bound_probe(space, F, 2.5, pw))
        assert all(0 < v < 10 for v in vals)
        assert max(vals) / min(vals) < 2.0

    def test_rough_not_above_band(self):
        space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
        F_lin = mt.make_sample_function(space, pw, "linear")
        r_lin = mt.dirichlet_upper_bound_probe(space, F_lin, 2.5, pw)
        F_rough = mt.make_sample_function(space, pw, "random", seed=1)
        r_rough = mt.dirichlet_upper_bound_probe(space, F_rough, 2.5, pw)
        assert r_rough <= 2.0 * r_lin


class TestEmission:
    def test_header_only_for_empty_report(self, tmp_path):
        rep = RatioReport(instance="x", cells=[], rows=[], stability={})
        out = tmp_path / "r.csv"
        mt.report_emit(rep, "csv", str(out))
        assert out.read_text() == CSV_HEADER + "\n"

    def test_csv_columns_and_roundtrip(self):
        cfg = parse_config(SMALL_CONFIG)
        report = run_equivalence(cfg)
        csv = report_to_csv(report, cfg)
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        for ln in lines[1:]:
            fields = ln.split(",")
            assert len(fields) == 10
            float(fields[1]), float(fields[3])   # resolution, value parse

    def test_json_roundtrip(self, tmp_path):
        import json

        cfg = parse_config(SMALL_CONFIG)
        report = run_equivalence(cfg)
        out = tmp_path / "r.json"
        mt.report_emit(report, "json", str(out), cfg)
        payload = json.loads(out.read_text())
        assert set(payload) == {"instance", "cells", "ratios", "stability"}
        cell = payload["cells"][0]
        assert set(cell["report"]) == {"name", "value", "parts", "params", "truncation_tail"}

    def test_bad_format(self, tmp_path):
        rep = RatioReport(instance="x", cells=[], rows=[], stability={})
        with pytest.raises(ParameterError):
            mt.report_emit(rep, "yaml", str(tmp_path / "r"))

    def test_unwritable_path(self, tmp_path):
        from mmtrace.errors import IoError

        rep = RatioReport(instance="x", cells=[], rows=[], stability={})
        with pytest.raises(IoError):
            mt.report_emit(rep, "csv", str(tmp_path))   # a directory, not a file
