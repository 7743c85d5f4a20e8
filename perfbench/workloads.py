"""The three benchmark workloads, as jobs that return checkable operations.

A job returns ``(ops, eval_s)``.  ``ops`` maps an operation name to
``{"seeded": bool, "values": {key: scalar}, "error": str | None}``; an
operation is one experiment cell (resolution x function x functional), one
ratio-stability block per sample function, the report emission, or one
verifier/search call.  ``seeded`` marks outputs that depend on the
benchmark seed (everything computed from the ``random`` sample function).
``eval_s`` is the time spent inside functional evaluation; the rest of the
job's wall time is its set-up time.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

WORKLOADS = ("simple3d", "difficult2d", "verify-search")

# Resolutions per size.  "bench" is what the benchmark measures; "smoke" is
# the h = 1/8 instance the smoke tests run.
SIZES = {
    "bench": {"simple3d": ["1/12", "1/24"], "difficult2d": ["1/16", "1/32"], "verify-search": ["1/20"]},
    "smoke": {"simple3d": ["1/8"], "difficult2d": ["1/8"], "verify-search": ["1/8"]},
}

EXPERIMENTS = {
    "simple3d": {
        "kind": "grid3d",
        "pieces": "square_face theta=1 axis=2 offset=0.5 ; segment theta=2 axis=2 anchor=0.5,0.5",
        "functions": "hoelder:0.6 random",
        "functionals": "trace_simple:1 trace_simple:3 bn",
    },
    "difficult2d": {
        "kind": "grid2d",
        "pieces": "region theta=0 halfspace=0,0.5,le ; segment theta=1 axis=1 anchor=0.5",
        "functions": "linear hoelder:0.6 random",
        "functionals": "trace_difficult",
    },
}

P = 2.5
C = 6.0

def config_text(workload: str, seed: int, size: str) -> str:
    exp = EXPERIMENTS[workload]
    return "\n".join(
        [
            f"name = {workload}",
            f"kind = {exp['kind']}",
            f"pieces = {exp['pieces']}",
            f"resolutions = {' '.join(SIZES[size][workload])}",
            f"functions = {exp['functions']}",
            f"functionals = {exp['functionals']}",
            f"p = {P}",
            f"c = {C}",
            "sigma = 0.01",
            f"seeds = {seed}",
            "",
        ]
    )


def _op(seeded: bool, values=None, error=None) -> dict:
    return {"seeded": seeded, "values": values or {}, "error": error}


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _cell_name(label: str, fam: str, seed: int, functional: str) -> str:
    return f"cell h={label} f={fam} seed={seed} {functional}"


def _report_values(rep) -> dict:
    values = {"value": rep.value, "truncation_tail": rep.truncation_tail}
    values.update({f"part:{k}": v for k, v in rep.parts.items()})
    return values


class CellTimer:
    """Times every ``experiments.evaluate_functional`` call (the cell
    boundaries); the only hook in an untraced job."""

    def __init__(self, experiments_module):
        self.module = experiments_module
        self.total = 0.0

    def __enter__(self):
        inner = self.original = self.module.evaluate_functional

        def timed(*args, **kwargs):
            start = time.monotonic()
            try:
                return inner(*args, **kwargs)
            finally:
                self.total += time.monotonic() - start

        timed.__perfbench_wrapped__ = True
        self.module.evaluate_functional = timed
        return self

    def __exit__(self, *exc):
        self.module.evaluate_functional = self.original
        return False


def run_experiment(mt, workload: str, seed: int, size: str, workdir: str):
    """``io.parse_config`` -> ``run_equivalence`` -> ``report_emit`` csv+json."""
    import mmtrace.io as mio

    cfg = mio.parse_config(config_text(workload, seed, size))
    labels = dict(zip(cfg.resolutions, SIZES[size][workload]))
    expected = [
        _cell_name(labels[h], fam, seed if fam.startswith("random") else 0, fn)
        for h in cfg.resolutions
        for fam in cfg.functions
        for fn in cfg.functionals
    ]
    timer = CellTimer(mt.experiments)
    try:
        with timer:
            report = mt.run_equivalence(cfg)
    except Exception as exc:  # every cell of a failed run counts as failed
        return {n: _op("f=random" in n, error=_failure(exc)) for n in expected}, timer.total

    ops = {}
    for cell in report.cells:
        name = _cell_name(labels[cell.resolution], cell.function, cell.seed, cell.functional)
        ops[name] = _op(cell.function.startswith("random"), _report_values(cell.report))
    for key, stab in report.stability.items():
        fam, fseed, pair = key.split("|")
        name = f"ratios f={fam} seed={fseed}"
        ops.setdefault(name, _op(fam.startswith("random")))["values"][pair] = stab
    ops["emit"] = _emit(mt, report, cfg, workdir)
    return ops, timer.total


def _emit(mt, report, cfg, workdir) -> dict:
    try:
        csv_path = mt.report_emit(report, "csv", os.path.join(workdir, "report.csv"), cfg)
        json_path = mt.report_emit(report, "json", os.path.join(workdir, "report.json"), cfg)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(json_path) as fh:
            payload = json.load(fh)
    except Exception as exc:
        return _op(False, error=_failure(exc))
    return _op(False, {
        "csv_header_ok": rows[0] == mt.experiments.CSV_HEADER.split(","),
        "csv_rows_match": len(rows) - 1 == sum(1 + len(c.report.parts) for c in report.cells),
        "csv_rows": len(rows) - 1,
        "json_cells": len(payload["cells"]),
        "json_ratios": len(payload["ratios"]),
    })


def run_verify_search(mt, seed: int, size: str, workdir: str):
    """Instance files written then read back, then the certification and
    search calls on the loaded instance."""
    import mmtrace.io as mio

    h = parse_h(SIZES[size]["verify-search"][0])
    space, pw = mt.generate(mt.simple_case_spec(h), verify=False)
    f = mt.make_sample_function(space, pw, "random", seed=seed)
    paths = {k: os.path.join(workdir, k) for k in ("space.txt", "pieces.json", "f.txt")}
    mio.save_space(space, paths["space.txt"])
    mio.save_pieces(pw, paths["pieces.json"])
    mio.save_function(f.values, pw.union_ids, paths["f.txt"])

    ops = {}
    try:
        lspace = mio.load_space(paths["space.txt"])
        lpw = mio.load_pieces(paths["pieces.json"])
        lf = mio.load_function(paths["f.txt"], lspace.n)
        ops["io"] = _op(False, _round_trip(space, pw, f.values, lspace, lpw, lf))
    except Exception as exc:
        names = ("io", "check_lcr", "cover", "certificate", "bsn")
        return {n: _op(n == "bsn", error=_failure(exc)) for n in names}, 0.0
    seq = mt.build_measure_sequence(lspace, lpw, lpw.theta_S, p=P)
    segment, face = lpw.pieces[1], lpw.pieces[0]

    calls = {
        "check_lcr": (False, lambda: {
            "lambda": mt.check_lcr(lspace, segment.ids, segment.theta, mt.default_r_grid(lspace))
        }),
        "cover": (False, lambda: _cover_values(
            mt.hausdorff_content(lspace, mt.ContentQuery(face.ids, face.theta, 0.25, "greedy"))
        )),
        "certificate": (False, lambda: _cert_values(mt.verify_regular_sequence(lspace, seq))),
        "bsn": (True, lambda: _bsn_values(mt.bsn_functional(lspace, seq, lf, P, C))),
    }
    eval_s = 0.0
    for name, (seeded, call) in calls.items():
        start = time.monotonic()
        try:
            ops[name] = _op(seeded, call())
        except Exception as exc:
            ops[name] = _op(seeded, error=_failure(exc))
        eval_s += time.monotonic() - start
    return ops, eval_s


def parse_h(label: str) -> float:
    num, _, den = label.partition("/")
    return float(num) / float(den) if den else float(num)


def _round_trip(space, pw, fvals, lspace, lpw, lf) -> dict:
    pieces_equal = len(pw.pieces) == len(lpw.pieces) and all(
        np.array_equal(a.ids, b.ids) and np.array_equal(a.weights, b.weights) and a.theta == b.theta
        for a, b in zip(pw.pieces, lpw.pieces)
    )
    on_s = pw.union_ids
    return {
        "space_equal": bool(
            np.array_equal(space.coords, lspace.coords)
            and np.array_equal(space.weights, lspace.weights)
            and space.resolution == lspace.resolution
        ),
        "pieces_equal": bool(pieces_equal),
        "function_equal": bool(np.array_equal(fvals[on_s], lf[on_s])),
    }


def _cover_values(sol) -> dict:
    return {"value": sol.value, "balls": len(sol.balls)}


def _cert_values(cert) -> dict:
    return {"C1": cert.C1, "C2": cert.C2, "C3": cert.C3}


def _bsn_values(rep) -> dict:
    values = _report_values(rep)
    values["family_size"] = int(rep.params["family_size"])
    return values


def run(mt, workload: str, seed: int, size: str, workdir: str):
    if workload == "verify-search":
        return run_verify_search(mt, seed, size, workdir)
    return run_experiment(mt, workload, seed, size, workdir)
