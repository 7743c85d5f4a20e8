"""Subprocess guards on what the package imports, and the demos run.

``import mmtrace`` loads no scipy module.  ``scipy.optimize`` (0.2 s and
9 MB at import) stays off every path but the exact searches.
``scipy.spatial`` (about 0.5 s and 38 MB, with the scipy.sparse and
scipy.linalg it loads) is imported only when a KD tree is built.  On a
full grid every ball query of the canonical instances reads integer
stencils (the pieces and their union are a few boxes of the grid), so a
difficult-case experiment, a simple-case ``bn`` and the checks and
searches on the simple instance run without it; the same ``bn`` on a
cloud that is no lattice loads it.

``numpy.ma`` (about 1.3 MB) stays unloaded on those paths too: numpy's
plain ``np.unique``, and the set routines built on it, import it to ask
whether an array is masked, so ``src/`` takes distinct values and sorted
membership from ``space._distinct`` and ``space._in_sorted``, and a
static check keeps those numpy calls out of it.

``numpy.random`` (11 modules with ``secrets``, ``hmac`` and
``base64``, about 2 MB) stays unloaded on those paths as well: the
``random`` sample family is drawn by ``generators._uniform``, numpy's
seeded PCG64 in plain numpy, and a static check keeps ``np.random`` out
of ``src/``.  Scipy may still load it on the paths that need scipy."""

import ast
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


SCIPY_GUARD = """
import sys
import numpy as np
import mmtrace as mt
from mmtrace import io as mio

def loaded(prefix):
    return [m for m in sys.modules if m == prefix or m.startswith(prefix + ".")]

assert not loaded("scipy"), loaded("scipy")
cfg = mio.parse_config(
    "kind = grid2d\\n"
    "pieces = region theta=0 halfspace=0,0.5,le ; segment theta=1 axis=1 anchor=0.5\\n"
    "resolutions = 1/16\\nfunctions = linear random\\nfunctionals = trace_difficult\\nseeds = 0\\n"
)
report = mt.run_equivalence(cfg)
space, pw = mt.generate(mt.difficult_case_spec(1 / 16))
f = mt.make_sample_function(space, pw, "hoelder:0.6")
assert mt.trace_norm_difficult(space, pw, f, 2.5).value > 0
mt.report_emit(report, "csv", "report.csv", cfg)
mt.report_emit(report, "json", "report.json", cfg)
for name in ("scipy.spatial", "scipy.sparse", "numpy.ma", "numpy.random"):
    assert not loaded(name), loaded(name)

space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
f = mt.make_sample_function(space, pw, "random", seed=0)
mt.bn_functional(space, seq, pw, f, 2.5, 0.01, c=6.0)
face, segment = pw.pieces
mt.check_lcr(space, segment.ids, segment.theta, mt.default_r_grid(space))
mt.hausdorff_content(space, mt.ContentQuery(face.ids, face.theta, 0.25, "greedy"))
mt.verify_regular_sequence(space, seq)
mt.bsn_functional(space, seq, f.values, 2.5, 6.0)
for name in ("scipy.spatial", "scipy.sparse", "numpy.ma", "numpy.random"):
    assert not loaded(name), loaded(name)

# the same grid with weights off the boundary classes is no lattice
twin = mt.FiniteMetricMeasureSpace(weights=space.weights * np.linspace(1.0, 2.0, space.n), coords=space.coords,
                                   resolution=space.resolution)
assert twin._lattice is None
mt.bn_functional(twin, mt.build_measure_sequence(twin, pw, pw.theta_S, p=2.5), pw, f, 2.5, 0.01, c=6.0)
assert "scipy.spatial" in sys.modules
"""


def run_python(args, cwd):
    src = str(Path(mt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_greedy_paths_do_not_import_scipy_optimize(tmp_path):
    out = run_python(["-c", IMPORT_GUARD], tmp_path)
    assert out.returncode == 0, out.stderr


def test_difficult_case_loads_no_kd_tree_module(tmp_path):
    out = run_python(["-c", SCIPY_GUARD], tmp_path)
    assert out.returncode == 0, out.stderr


def test_no_set_routine_that_imports_numpy_ma():
    """No module of the package calls ``np.unique`` without a ``return_*``
    keyword, ``np.isin`` without ``assume_unique=True``, or ``setdiff1d``,
    ``union1d``, ``intersect1d`` or ``setxor1d``: each reaches the plain
    ``np.unique``, which imports ``numpy.ma``."""
    bad = []
    for path in sorted(Path(mt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("setdiff1d", "union1d", "intersect1d", "setxor1d"):
                bad.append(f"{path.name}:{node.lineno} {node.attr}")
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            keys = {k.arg: k.value for k in node.keywords}
            if node.func.attr == "unique" and not any(k and k.startswith("return_") for k in keys):
                bad.append(f"{path.name}:{node.lineno} unique")
            sure = isinstance(keys.get("assume_unique"), ast.Constant) and keys["assume_unique"].value is True
            if node.func.attr == "isin" and not sure:
                bad.append(f"{path.name}:{node.lineno} isin")
    assert not bad, bad


def test_no_numpy_random_in_the_package():
    """No module of the package names ``np.random`` or ``numpy.random``, as an
    attribute or an import: importing it costs every job about 2 MB."""
    bad = []
    for path in sorted(Path(mt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "random" and \
                    isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                bad.append(f"{path.name}:{node.lineno} {node.value.id}.random")
            names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{name}" for name in names] + [node.module]
            if any(name == "numpy.random" or name.startswith("numpy.random.") for name in names):
                bad.append(f"{path.name}:{node.lineno} import")
    assert not bad, bad


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    out = run_python([str(demo)], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout


def test_covers_lcr_and_the_family_search_ask_each_ball_question_once():
    """A greedy content, ``check_lcr``, a searched ``bsn`` and the measure
    comparison check ask their ball questions for whole arrays of centres:
    no per-point ``members`` or ``ball_mass`` call, and each distinct subset
    is split into boxes once.  Their member rows come from the one row
    builder, the whole cloud's ``SubsetNeighbors.rows_of``."""
    from collections import Counter
    from unittest import mock

    from mmtrace import _lattice, _neighbors

    space, pw = mt.generate(mt.simple_case_spec(1 / 8), verify=False)
    seq = mt.build_measure_sequence(space, pw, pw.theta_S, p=2.5)
    f = mt.make_sample_function(space, pw, "random", seed=0).values
    face, segment = pw.pieces
    split = Counter()
    boxes_of = _lattice._boxes_of

    def counted(ids, m, d):
        split[ids.tobytes()] += 1
        return boxes_of(ids, m, d)

    cls, layer = mt.FiniteMetricMeasureSpace, _neighbors.SubsetNeighbors
    cloud_rows = []
    with mock.patch.object(cls, "members", autospec=True, side_effect=cls.members) as members, \
            mock.patch.object(cls, "ball_mass", autospec=True, side_effect=cls.ball_mass) as ball_mass, \
            mock.patch.object(layer, "rows_of", autospec=True, side_effect=layer.rows_of) as rows_of, \
            mock.patch.object(_lattice, "_boxes_of", counted), mock.patch.object(_neighbors, "_boxes_of", counted):
        for run in (lambda: mt.hausdorff_content(space, mt.ContentQuery(face.ids, face.theta, 0.25, "greedy")),
                    lambda: mt.check_lcr(space, segment.ids, segment.theta, mt.default_r_grid(space)),
                    lambda: mt.bsn_functional(space, seq, f, 2.5, 6.0).params["searched"]):
            rows_of.reset_mock()
            assert run()
            cloud_rows.append(sum(call.args[0] is space._cloud() for call in rows_of.call_args_list))
    assert members.call_count == ball_mass.call_count == 0
    # the cover's ball masses, the local pools' masses and the family's member sets
    assert all(cloud_rows), cloud_rows
    assert split and max(split.values()) == 1
    # the comparison's candidate centres (apart from the rest: the content's
    # throwaway layer of the face splits it once more)
    with mock.patch.object(cls, "members", autospec=True, side_effect=cls.members) as members, \
            mock.patch.object(layer, "rows_of", autospec=True, side_effect=layer.rows_of) as rows_of:
        assert mt.measure_comparison_check(space, seq, pw, 2.0).per_scale
    assert members.call_count == 0
    assert any(call.args[0] is space._cloud() for call in rows_of.call_args_list)


@pytest.mark.parametrize("case", ["simple", "difficult"])
def test_each_resolution_builds_each_ball_row_set_once(case):
    """Within one resolution's ``evaluate_functional`` call (all functions
    and functionals of it), each (subset, radius) block of ball rows comes
    from one pass of the row builder (``SubsetNeighbors._per_ball``) and each
    pair of pieces' cross pairs from one ``cross_pairs`` per radius; no
    other ``rows_of`` call is made.  Afterwards no layer holds pair arrays:
    every ``SubsetNeighbors`` keeps its ids, boxes, tree and porosity masks
    only."""
    from collections import Counter
    from unittest import mock

    from mmtrace import _neighbors, experiments
    from mmtrace import io as mio

    pieces = {"simple": "square_face theta=1 axis=2 offset=0.5 ; segment theta=2 axis=2 anchor=0.5,0.5",
              "difficult": "region theta=0 halfspace=0,0.5,le ; segment theta=1 axis=1 anchor=0.5"}[case]
    functionals = {"simple": "trace_simple:1 trace_simple:3 bn", "difficult": "trace_difficult sharp gl1"}[case]
    cfg = mio.parse_config(f"kind = grid{3 if case == 'simple' else 2}d\npieces = {pieces}\nresolutions = 1/8 1/12\n"
                           f"functions = linear hoelder:0.6 random\nfunctionals = {functionals}\nseeds = 0\n")
    layer, evaluate = _neighbors.SubsetNeighbors, experiments.evaluate_functional
    calls, live = [], []
    passes, cross, rows = Counter(), Counter(), Counter()

    def per_ball(self, centres, radius, readers):
        if live:
            passes[live[-1], id(self), float(radius)] += 1
        return layer._per_ball.__wrapped__(self, centres, radius, readers)

    def cross_pairs(self, other, radius):
        if live:
            cross[live[-1], id(self), id(other), float(radius)] += 1
        return layer.cross_pairs.__wrapped__(self, other, radius)

    def rows_of(self, *args, **kwargs):
        # the cloud's rows give ball masses (at radii a lattice cannot count)
        rows[bool(live) and self is not self.space._cloud()] += 1
        return layer.rows_of.__wrapped__(self, *args, **kwargs)

    def evaluated(*args):
        live.append(len(calls))
        calls.append(args)
        try:
            return evaluate(*args)
        finally:
            live.pop()

    per_ball.__wrapped__, cross_pairs.__wrapped__, rows_of.__wrapped__ = (
        layer._per_ball, layer.cross_pairs, layer.rows_of)
    with mock.patch.object(layer, "_per_ball", per_ball), mock.patch.object(layer, "cross_pairs", cross_pairs), \
            mock.patch.object(layer, "rows_of", rows_of), mock.patch.object(experiments, "evaluate_functional", evaluated):
        report = mt.run_equivalence(cfg)
    assert len(calls) == 2 and len(report.cells) == 2 * 3 * 3
    assert passes and max(passes.values()) == 1
    assert cross and max(cross.values()) == 1
    # the cross pairs' sweeps are the only subset rows asked outside a pass
    assert rows[True] == sum(cross.values())
    space = calls[-1][1]
    for nbrs in [space._cloud(), *space._neighbors.values()]:
        assert set(vars(nbrs)) == {"space", "ids", "_tree", "_boxes", "porosity_masks"}
