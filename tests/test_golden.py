"""Golden values of every functional and verifier on the canonical h = 1/8
instances, pinned at rtol 1e-10 against ``tests/golden/h8.json``, and the
covers and families behind them (lower content regularity constants, one
greedy face cover, the searched ``bsn`` families) against
``tests/golden/h8_covers.json``: values at rtol 1e-10, ball lists exactly.
At h = 1/16, where coarse balls hold a whole subset, ``tests/golden/h16.json``
pins the maximal-function vectors, gl3, the ADR constants and the sequence
certificate at rtol 1e-10.

Refactors that reorder floating-point sums move values in the last few
digits; anything beyond 1e-10 relative is a behaviour change.  The file was
recorded before the ball-layer refactor; re-record only for an intended
change of definition::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import mmtrace as mt
from mmtrace.experiments import ExperimentConfig, evaluate_functional
from mmtrace.functionals import bsn_terms

GOLDEN = Path(__file__).parent / "golden" / "h8.json"
GOLDEN_COVERS = Path(__file__).parent / "golden" / "h8_covers.json"
GOLDEN_H16 = Path(__file__).parent / "golden" / "h16.json"
P, C, SIGMA = 2.5, 6.0, 0.01
FUNCTIONS = ("hoelder:0.6", "random", "step")
FUNCTIONALS = {
    "simple": ["besov:1", "besov:2", "besov_alt:1", "besov_alt:2", "gl1", "gl2", "gl3",
               "bn", "bsn", "trace_simple:1", "trace_simple:3"],
    "difficult": ["besov:2", "besov_alt:2", "gl1", "gl2", "gl3", "bn", "bsn", "sharp",
                  "trace_difficult"],
}
SPECS = {"simple": mt.simple_case_spec, "difficult": mt.difficult_case_spec}


def compute() -> dict:
    """Every pinned quantity, keyed ``instance|what|...``."""
    out = {}
    for inst, spec_fn in SPECS.items():
        space, pw = mt.generate(spec_fn(1 / 8), verify=False)
        _certificate(out, inst, space, pw)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=P)
        cfg = ExperimentConfig(
            generator=spec_fn(1 / 8), resolutions=[1 / 8], functionals=FUNCTIONALS[inst],
            functions=list(FUNCTIONS), p=P, c=C, sigma=SIGMA,
        )
        for fam in FUNCTIONS:
            f = mt.make_sample_function(space, pw, fam, seed=0)
            for L in (0, seq.k_max):
                out[f"{inst}|{fam}|lp_tail|{L}"] = mt.lp_tail_check(seq, f.values, L, P)
            for name in FUNCTIONALS[inst]:
                rep = evaluate_functional(name, space, pw, seq, f, cfg)
                out[f"{inst}|{fam}|{name}|value"] = rep.value
                out[f"{inst}|{fam}|{name}|tail"] = rep.truncation_tail
                for part, v in rep.parts.items():
                    out[f"{inst}|{fam}|{name}|{part}"] = v
    return {k: float(v) for k, v in out.items()}


def _certificate(out: dict, key: str, space, pw) -> None:
    grid = mt.default_r_grid(space)
    for i, pc in enumerate(pw.pieces):
        k1, k2, _ = mt.check_adr(space, pc, grid)
        out[f"{key}|adr|{i + 1}|kappa1"] = k1
        out[f"{key}|adr|{i + 1}|kappa2"] = k2
    seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=P)
    sets = {f"piece{i + 1}": pc.ids for i, pc in enumerate(pw.pieces)}
    cert = mt.verify_regular_sequence(space, seq, test_sets=sets)
    for name in ("C1", "C2", "C3"):
        out[f"{key}|cert|{name}"] = getattr(cert, name)
    for c, v in cert.doubling_at_scale.items():
        out[f"{key}|cert|doubling|{c}"] = v
    for name, v in cert.M5_samples.items():
        out[f"{key}|cert|M5|{name}"] = v


def compute_h16() -> dict:
    """The maximal-function vectors (``calderon_maximal`` on S, and
    ``sharp_mu_s1`` where theta_1 = 0), gl3, the ADR constants and the
    certificate at h = 1/16, keyed ``instance|what|...``."""
    out = {}
    for inst, spec_fn in SPECS.items():
        space, pw = mt.generate(spec_fn(1 / 16), verify=False)
        _certificate(out, inst, space, pw)
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=P)
        for fam in ("linear",) + FUNCTIONS:
            f = mt.make_sample_function(space, pw, fam, seed=0)
            out[f"{inst}|{fam}|calderon"] = mt.calderon_maximal(space, seq, f).tolist()
            if pw.pieces[0].theta == 0:
                out[f"{inst}|{fam}|sharp_mu_s1"] = mt.sharp_mu_s1(space, pw, f).tolist()
            gl = mt.gluing(space, pw, f, P, which=3)
            out[f"{inst}|{fam}|gl3|value"] = gl.value
            out[f"{inst}|{fam}|gl3|tail"] = gl.truncation_tail
    return {k: v if isinstance(v, list) else float(v) for k, v in out.items()}


def _ball_list(balls) -> list:
    return [[int(b.center), float(b.radius)] for b in balls]


def compute_covers() -> dict:
    """check_lcr per piece, the face cover at delta = 1/4 and the families
    ``bsn_functional`` searches, keyed ``instance|what|...``."""
    out = {}
    for inst, spec_fn in SPECS.items():
        space, pw = mt.generate(spec_fn(1 / 8), verify=False)
        grid = mt.default_r_grid(space)
        for i, pc in enumerate(pw.pieces):
            out[f"{inst}|lcr|{i + 1}"] = float(mt.check_lcr(space, pc.ids, pc.theta, grid))
        seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=P)
        for fam in FUNCTIONS:
            f = mt.make_sample_function(space, pw, fam, seed=0)
            family = mt.enumerate_or_search_nice_family(
                space, seq.support_ids, C, budget=256,
                term_fn=lambda balls, masses: bsn_terms(space, seq, f, P, C, balls),
            )
            out[f"{inst}|{fam}|bsn_family"] = _ball_list(family.balls)
    space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
    face = pw.pieces[0]
    sol = mt.hausdorff_content(space, mt.ContentQuery(face.ids, face.theta, 0.25, "greedy"))
    out["simple|face_cover|value"] = float(sol.value)
    out["simple|face_cover|balls"] = _ball_list(sol.balls)
    return out


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.fixture(scope="module")
def computed_covers():
    return compute_covers()


def test_golden_keys_match(computed):
    assert sorted(computed) == sorted(json.loads(GOLDEN.read_text()))


def test_golden_values(computed):
    golden = json.loads(GOLDEN.read_text())
    bad = {
        k: (computed[k], v)
        for k, v in golden.items()
        if k in computed and not math.isclose(computed[k], v, rel_tol=1e-10, abs_tol=0.0)
    }
    assert not bad, f"{len(bad)} of {len(golden)} golden values moved: {bad}"
    assert all(np.isfinite(list(golden.values())))


def test_golden_covers(computed_covers):
    golden = json.loads(GOLDEN_COVERS.read_text())
    assert sorted(computed_covers) == sorted(golden)
    for k, v in golden.items():
        if isinstance(v, list):
            assert computed_covers[k] == v, f"{k} moved"
        else:
            assert math.isclose(computed_covers[k], v, rel_tol=1e-10, abs_tol=0.0), (k, computed_covers[k], v)


def test_golden_h16():
    computed, golden = compute_h16(), json.loads(GOLDEN_H16.read_text())
    assert sorted(computed) == sorted(golden)
    for k, v in golden.items():
        np.testing.assert_allclose(computed[k], v, rtol=1e-10, atol=0.0, err_msg=k)
    assert all(np.all(np.isfinite(v)) for v in golden.values())


if __name__ == "__main__":
    if "--record" in sys.argv[1:]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(compute(), sort_keys=True, indent=1) + "\n")
        GOLDEN_COVERS.write_text(json.dumps(compute_covers(), sort_keys=True, indent=1) + "\n")
        GOLDEN_H16.write_text(json.dumps(compute_h16(), sort_keys=True, indent=1) + "\n")
        print(f"wrote {GOLDEN}, {GOLDEN_COVERS} and {GOLDEN_H16}")
