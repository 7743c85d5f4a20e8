import gc
import json
import warnings
from unittest import mock

import pytest

from mmtrace import experiments
from mmtrace.cli import main

GEN_SPEC = """
name = diff2d
kind = grid2d
h = 1/8
pieces = region theta=0 halfspace=0,0.5,le ; segment theta=1 axis=1 anchor=0.5
"""

EXP_CONFIG = """
name = diff2d
kind = grid2d
pieces = region theta=0 halfspace=0,0.5,le ; segment theta=1 axis=1 anchor=0.5
resolutions = 1/8
functions = linear
functionals = trace_difficult bsn
p = 2.5
c = 6
sigma = 0.01
"""


@pytest.fixture()
def instance_dir(tmp_path):
    spec = tmp_path / "gen.cfg"
    spec.write_text(GEN_SPEC)
    out = tmp_path / "inst"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    return out


class TestCliRoundTrip:
    def test_generate_outputs(self, instance_dir):
        assert (instance_dir / "space.mmspace").exists()
        assert (instance_dir / "pieces.json").exists()

    def test_verify_adr(self, instance_dir, capsys):
        rc = main([
            "verify", "--space", str(instance_dir / "space.mmspace"),
            "--pieces", str(instance_dir / "pieces.json"), "--what", "adr",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["piece_1"]["ok"] and payload["piece_2"]["ok"]

    def test_verify_pieces_sidecar_default(self, instance_dir, capsys):
        rc = main([
            "verify", "--space", str(instance_dir / "space.mmspace"), "--what", "porosity",
        ])
        assert rc == 0
        json.loads(capsys.readouterr().out)

    def test_verify_porosity_and_seq(self, instance_dir, capsys):
        for what in ("porosity", "measure-seq", "lcr"):
            rc = main([
                "verify", "--space", str(instance_dir / "space.mmspace"),
                "--pieces", str(instance_dir / "pieces.json"), "--what", what,
            ])
            assert rc == 0
            json.loads(capsys.readouterr().out)

    def test_norms(self, instance_dir, tmp_path, capsys):
        import numpy as np

        from mmtrace.io import load_space, save_function

        space = load_space(str(instance_dir / "space.mmspace"))
        f = tmp_path / "f.txt"
        save_function(np.linspace(0, 1, space.n), range(space.n), str(f))
        # all names in one call, so one pass over the ball rows
        with mock.patch.object(experiments, "evaluate_functional", wraps=experiments.evaluate_functional) as spy:
            rc = main([
                "norms", "--space", str(instance_dir / "space.mmspace"),
                "--pieces", str(instance_dir / "pieces.json"),
                "--f", str(f), "--which", "gl3,trace_difficult",
            ])
        assert rc == 0 and spy.call_count == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"gl3", "trace_difficult"}
        assert payload["trace_difficult"]["parts"]["gl3"] == pytest.approx(
            payload["gl3"]["value"], rel=1e-12
        )

        # bn and bsn read p, c and sigma from the command line
        import mmtrace as mt
        from mmtrace.io import load_instance

        p, c, sigma = 3.0, 8.0, 0.005
        rc = main([
            "norms", "--space", str(instance_dir / "space.mmspace"),
            "--pieces", str(instance_dir / "pieces.json"),
            "--f", str(f), "--which", "bn,bsn",
            "--p", str(p), "--c", str(c), "--sigma", str(sigma),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        space, pw = load_instance(str(instance_dir / "space.mmspace"), str(instance_dir / "pieces.json"))
        fs = mt.SampleFunction(values=np.linspace(0, 1, space.n), domain=pw)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=p)
        bn = mt.bn_functional(space, seq, pw, fs, p, sigma, c=c)
        bsn = mt.bsn_functional(space, seq, fs, p, c)
        assert payload["bn"] == bn.to_json() and payload["bn"]["params"]["sigma"] == sigma
        assert payload["bsn"] == bsn.to_json()

    def test_experiment_and_report(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXP_CONFIG)
        out = tmp_path / "expout"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["report", "--in", str(out), "--format", "csv"]) == 0
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]   # report.csv is closed
        csv_text = capsys.readouterr().out
        assert csv_text.splitlines()[0].startswith("instance,resolution,functional")
        assert main(["report", "--in", str(out), "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_parameter_error_is_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(EXP_CONFIG.replace("c = 6", "c = 2"))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_generate_spec_without_pieces_is_2(self, tmp_path):
        spec = tmp_path / "gen.cfg"
        spec.write_text("kind = grid2d\nh = 1/8\n")
        assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2

    def test_generate_missing_spec_is_4(self, tmp_path):
        assert main(["generate", "--spec", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 4

    def test_io_error_is_4(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "missing"), "--format", "csv"]) == 4

    def test_missing_report_csv_is_4(self, tmp_path, capsys):
        (tmp_path / "report.json").write_text("{}")
        assert main(["report", "--in", str(tmp_path), "--format", "csv"]) == 4
        assert "report.csv" in capsys.readouterr().err

    def test_resolution_error_is_3(self, instance_dir, tmp_path):
        import numpy as np

        from mmtrace.io import load_space, save_function

        space = load_space(str(instance_dir / "space.mmspace"))
        f = tmp_path / "f.txt"
        save_function(np.zeros(space.n), range(space.n), str(f))
        # a scale floor above 1 leaves no admissible dyadic scale
        rc = main([
            "verify", "--space", str(instance_dir / "space.mmspace"),
            "--pieces", str(instance_dir / "pieces.json"),
            "--what", "measure-seq", "--c-res", "20",
        ])
        assert rc == 3

    @pytest.mark.parametrize("line", ["resolutions =", "seeds = x"])
    def test_bad_config_list_is_2(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(EXP_CONFIG + line + "\n")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_negative_seed_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(EXP_CONFIG.replace("functions = linear", "functions = random") + "seeds = -3\n")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("ids", [[0, 100000], [0, -3]])
    def test_piece_ids_outside_the_space_are_4(self, instance_dir, tmp_path, ids):
        pieces = tmp_path / "pieces.json"
        pieces.write_text(json.dumps({"pieces": [{"ids": ids, "theta": 1.0, "weights": [1.0, 1.0]}]}))
        f = tmp_path / "f.txt"
        f.write_text("0 1.0\n")
        space = str(instance_dir / "space.mmspace")
        assert main(["verify", "--space", space, "--pieces", str(pieces), "--what", "adr"]) == 4
        assert main(["norms", "--space", space, "--pieces", str(pieces), "--f", str(f), "--which", "gl1"]) == 4

    @pytest.mark.parametrize("ids, weights", [([1, 1, 2], [1.0, 2.0, 3.0]), ([0, 1], [1.0, float("nan")]), ([], []),
                                              ([0.7, 1.2], [1.0, 1.0]), ([True, 2], [1.0, 1.0]), (["3", 2], [1.0, 1.0])],
                             ids=["repeated_id", "nan_weight", "empty_ids", "fractional_ids", "bool_id", "string_id"])
    def test_malformed_pieces_are_4(self, instance_dir, tmp_path, ids, weights):
        pieces = tmp_path / "pieces.json"
        pieces.write_text(json.dumps({"pieces": [{"ids": ids, "theta": 1.0, "weights": weights}]}))
        f = tmp_path / "f.txt"
        f.write_text("0 1.0\n")
        space = str(instance_dir / "space.mmspace")
        assert main(["verify", "--space", space, "--pieces", str(pieces), "--what", "adr"]) == 4
        assert main(["norms", "--space", space, "--pieces", str(pieces), "--f", str(f), "--which", "gl1"]) == 4

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -1.0])
    def test_bad_piece_theta_is_4(self, instance_dir, tmp_path, theta):
        pieces = tmp_path / "pieces.json"
        pieces.write_text(json.dumps({"pieces": [{"ids": [0, 1], "theta": theta, "weights": [1.0, 1.0]}]}))
        f = tmp_path / "f.txt"
        f.write_text("0 1.0\n")
        space = str(instance_dir / "space.mmspace")
        assert main(["verify", "--space", space, "--pieces", str(pieces), "--what", "adr"]) == 4
        assert main(["norms", "--space", space, "--pieces", str(pieces), "--f", str(f), "--which", "gl1"]) == 4

    @pytest.mark.parametrize("field, value", [("theta", "1.5"), ("weights", ["1", True]), ("adr_constants", ["a", "b"])])
    def test_piece_numbers_given_as_strings_or_bools_are_4(self, instance_dir, tmp_path, field, value):
        entry = {"ids": [0, 1], "theta": 1.0, "weights": [1.0, 1.0], field: value}
        pieces = tmp_path / "pieces.json"
        pieces.write_text(json.dumps({"pieces": [entry]}))
        space = str(instance_dir / "space.mmspace")
        assert main(["verify", "--space", space, "--pieces", str(pieces), "--what", "adr"]) == 4

    def test_malformed_space_file_is_4(self, instance_dir, tmp_path):
        lines = (instance_dir / "space.mmspace").read_text().splitlines()
        lines[2] += " 0.5"
        space = tmp_path / "space.mmspace"
        space.write_text("\n".join(lines) + "\n")
        pieces = str(instance_dir / "pieces.json")
        assert main(["verify", "--space", str(space), "--pieces", pieces, "--what", "adr"]) == 4

    def test_malformed_space_header_is_4(self, instance_dir, tmp_path):
        lines = (instance_dir / "space.mmspace").read_text().splitlines()
        # int reads n=0_<n> as n
        lines[0] = lines[0].replace("; n=", "; n=0_")
        space = tmp_path / "space.mmspace"
        space.write_text("\n".join(lines) + "\n")
        pieces = str(instance_dir / "pieces.json")
        assert main(["verify", "--space", str(space), "--pieces", pieces, "--what", "adr"]) == 4

    @pytest.mark.parametrize("line", ["2 5.0 7.0", "0 2.5", "0 1_5"], ids=["extra_value", "id_twice", "underscore"])
    def test_malformed_function_file_is_4(self, instance_dir, tmp_path, line):
        f = tmp_path / "f.txt"
        f.write_text(f"0 1.5\n{line}\n")
        space = str(instance_dir / "space.mmspace")
        assert main(["norms", "--space", space, "--f", str(f), "--which", "gl1"]) == 4

    def test_missing_space_file_is_4(self, tmp_path):
        rc = main([
            "verify", "--space", str(tmp_path / "nope.mmspace"),
            "--pieces", str(tmp_path / "nope.json"), "--what", "adr",
        ])
        assert rc == 4
