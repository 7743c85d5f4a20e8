"""Subprocess guards: the package keeps ``scipy.optimize`` (0.2 s and 9 MB
at import) off every path but the exact searches, and the demos run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmtrace as mt

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
assert DEMOS, "no demos found"

IMPORT_GUARD = """
import sys
import mmtrace as mt

space, pw = mt.generate(mt.difficult_case_spec(1 / 8))
mt.hausdorff_content(space, mt.ContentQuery(pw.pieces[1].ids, 1.0, 0.5))
seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
f = mt.make_sample_function(space, pw, "random", seed=0).values
mt.bsn_functional(space, seq, f, 2.5, 6.0)
assert "scipy.optimize" not in sys.modules, "a greedy path imported scipy.optimize"
mt.hausdorff_content(space, mt.ContentQuery(pw.pieces[1].ids[:2], 1.0, 0.3, "exact"))
assert "scipy.optimize" in sys.modules
"""


def run_python(args, cwd):
    src = str(Path(mt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_greedy_paths_do_not_import_scipy_optimize(tmp_path):
    out = run_python(["-c", IMPORT_GUARD], tmp_path)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    out = run_python([str(demo)], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout
