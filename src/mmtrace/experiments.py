"""Configuration-driven equivalence experiments and report emission.

An experiment evaluates a list of functionals over a generator instance
at several resolutions for a corpus of sample functions, then reports
pairwise value ratios and their relative variation across resolutions.
Equivalence claims are operationalized as ratio stability: a genuine
two-sided comparison yields resolution-stable ratios.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InsufficientData, IoError, ParameterError
from .functionals import (
    FunctionalReport,
    SampleFunction,
    _besov,
    _bn,
    _bsn,
    _gluing,
    _Pass,
    _sharp_norm_s1,
    _trace_norm_difficult,
    _trace_norm_simple,
)
from .generators import GeneratorSpec, generate, make_sample_function
from .measures import EPSILON, MeasureSequence, build_measure_sequence
from .regularity import PiecewiseSet
from .space import FiniteMetricMeasureSpace


@dataclass
class ExperimentConfig:
    generator: GeneratorSpec
    resolutions: list
    functionals: list
    functions: list
    p: float = 2.5
    theta: Optional[float] = None
    c: float = 6.0
    sigma: float = 0.01
    seeds: list = field(default_factory=lambda: [0])

    def validate(self):
        if not (1 < self.p < math.inf):
            raise ParameterError(f"p must lie in (1, inf), got {self.p}")
        if self.c < 3.0 / EPSILON:
            raise ParameterError(
                f"c must be >= {3.0 / EPSILON} for the functional comparisons, got {self.c}"
            )
        if not (0 < self.sigma < EPSILON**2 / (4.0 * self.c)):
            raise ParameterError(
                f"sigma must lie in (0, {EPSILON ** 2 / (4.0 * self.c):.5g}), got {self.sigma}"
            )
        thetas = [ps.theta for ps in self.generator.pieces]
        if self.theta is not None and not (max(thetas) <= self.theta < self.p):
            raise ParameterError(f"theta must lie in [{max(thetas)}, {self.p})")
        if max(thetas) >= self.p:
            raise ParameterError(f"theta(S) = {max(thetas)} must be < p = {self.p}")
        if not self.resolutions:
            raise ParameterError("need at least one resolution")
        for name in self.functionals:
            _parse_functional(name)


@dataclass
class Cell:
    instance: str
    resolution: float
    function: str
    seed: int
    functional: str
    report: FunctionalReport


@dataclass
class RatioRow:
    resolution: float
    function: str
    seed: int
    functional_a: str
    functional_b: str
    ratio: Optional[float]
    degenerate: bool


@dataclass
class RatioReport:
    instance: str
    cells: list
    rows: list
    stability: dict   # "function|seed|a/b" -> max relative variation

    def to_json(self) -> dict:
        return {
            "instance": self.instance,
            "cells": [
                {
                    "instance": c.instance,
                    "resolution": c.resolution,
                    "function": c.function,
                    "seed": c.seed,
                    "functional": c.functional,
                    "report": c.report.to_json(),
                }
                for c in self.cells
            ],
            "ratios": [
                {
                    "resolution": r.resolution,
                    "function": r.function,
                    "seed": r.seed,
                    "a": r.functional_a,
                    "b": r.functional_b,
                    "ratio": r.ratio,
                    "degenerate": r.degenerate,
                }
                for r in self.rows
            ],
            "stability": self.stability,
        }


def _parse_functional(name: str):
    base, _, arg = name.partition(":")
    known = {"besov", "besov_alt", "gl1", "gl2", "gl3", "bn", "bsn", "sharp",
             "trace_simple", "trace_difficult"}
    if base not in known:
        raise ParameterError(f"unknown functional {name!r}")
    return base, arg


def evaluate_functional(
    name,
    space: FiniteMetricMeasureSpace,
    piecewise: PiecewiseSet,
    seq: MeasureSequence,
    f,
    cfg: ExperimentConfig,
):
    """Dispatch a requested functional by name (see _parse_functional);
    ``cfg`` supplies p, c and sigma (the CLI passes its parsed arguments).
    With lists of names and functions, every functional of every function
    is evaluated in one pass over the ball rows, each part once: the
    reports come per function, per name."""
    if isinstance(name, str):
        return evaluate_functional([name], space, piecewise, seq, [f], cfg)[0]
    ps = _Pass()
    reports = [_register(ps, one, space, piecewise, seq, fn, cfg) for fn in f for one in name]
    ps.run()
    return [report() for report in reports]


def _register(ps, name: str, space, piecewise, seq, f, cfg):
    """Register a functional of f on ps; returns a thunk of its report."""
    base, arg = _parse_functional(name)
    p = cfg.p
    if base in ("besov", "besov_alt"):
        pc = piecewise.pieces[int(arg) - 1 if arg else 0]
        return _besov(ps, space, pc, f, 1.0 - pc.theta / p, p, None, base)
    if base in ("gl1", "gl2", "gl3"):
        return _gluing(ps, space, piecewise, f, p, int(base[-1]))
    if base == "bn":
        return _bn(ps, space, seq, piecewise, f, p, cfg.sigma, cfg.c, None)
    if base == "bsn":
        return _bsn(ps, space, seq, f, p, cfg.c)
    if base == "sharp":
        value = _sharp_norm_s1(ps, space, piecewise, f, p)
        return lambda: FunctionalReport("sharp", value(), {"sharp": value()}, {"p": p})
    if base == "trace_simple":
        return _trace_norm_simple(ps, space, piecewise, f, p, l=int(arg) if arg else 1)
    return _trace_norm_difficult(ps, space, piecewise, f, p)


def run_equivalence(config: ExperimentConfig) -> RatioReport:
    """Evaluate every requested functional per (resolution, function), all
    of a resolution in one ``evaluate_functional`` call, and emit pairwise
    ratios with their cross-resolution stability."""
    config.validate()
    cells = []
    values = {}   # (function, seed, functional) -> {resolution: value}
    runs = [(fam, seed) for fam in config.functions
            for seed in (config.seeds if fam.split(":")[0] == "random" else [0])]
    for h in config.resolutions:
        spec = config.generator.with_h(h)
        space, piecewise = generate(spec, verify=False)   # no ADR constants reach a report
        theta = config.theta if config.theta is not None else piecewise.theta_S
        seq = build_measure_sequence(space, piecewise, theta, p=config.p)
        fs = [make_sample_function(space, piecewise, fam, seed=seed) for fam, seed in runs]
        reports = iter(evaluate_functional(list(config.functionals), space, piecewise, seq, fs, config))
        for fam, seed in runs:
            for name in config.functionals:
                rep = next(reports)
                cells.append(Cell(spec.name or spec.kind, h, fam, seed, name, rep))
                values.setdefault((fam, seed, name), {})[h] = rep.value

    rows = []
    stability = {}
    for (fam, seed), (a, b) in itertools.product(runs, itertools.combinations(config.functionals, 2)):
        ratios = []
        for h in config.resolutions:
            va = float(values[(fam, seed, a)][h])
            vb = float(values[(fam, seed, b)][h])
            degenerate = vb == 0
            ratio = None if degenerate else va / vb
            rows.append(RatioRow(h, fam, seed, a, b, ratio, degenerate))
            if ratio is not None and math.isfinite(ratio):
                ratios.append(ratio)
        stable = len(ratios) >= 2 and min(ratios) > 0
        stability[f"{fam}|{seed}|{a}/{b}"] = float((max(ratios) - min(ratios)) / min(ratios)) if stable else None
    name = config.generator.name or config.generator.kind
    return RatioReport(instance=name, cells=cells, rows=rows, stability=stability)


def dirichlet_upper_bound_probe(
    space: FiniteMetricMeasureSpace,
    F: SampleFunction,
    p: float,
    piecewise: PiecewiseSet,
    l: int = 1,
) -> float:
    """Ratio of the homogeneous trace-norm parts of F restricted to S to a
    discrete Sobolev-type norm of F; probes the upper-bound direction of
    the trace theorem with the generator-supplied extension."""
    vals = F.values if isinstance(F, SampleFunction) else np.asarray(F, dtype=float)
    indptr, y = space._cloud()._sweep(space.ids, 1.01 * space.resolution)
    x = np.repeat(space.ids, np.diff(indptr))
    x, y = x[x != y], y[x != y]
    degree = np.bincount(x, minlength=space.n)
    if not degree.all():
        raise InsufficientData(f"point {int(np.argmin(degree))} has no mesh neighbors")
    d = space.dist_matrix[x, y] if space.coords is None else np.linalg.norm(space.coords[x] - space.coords[y], axis=1)
    lip = np.maximum.reduceat(np.abs(vals[y] - vals[x]) / d, np.cumsum(degree) - degree)
    energy = float(np.sum(space.weights * lip**p))
    denom = float(np.sum(space.weights * np.abs(vals) ** p) ** (1.0 / p)) + energy ** (1.0 / p)
    # the homogeneous parts of trace_norm_simple / trace_norm_difficult, in one pass
    ps, simple = _Pass(), piecewise.pieces[0].theta > 0
    gl = _gluing(ps, space, piecewise, vals, p, l if simple else 3)
    sharp = None if simple else _sharp_norm_s1(ps, space, piecewise, vals, p)
    thin = piecewise.pieces if simple else piecewise.pieces[1:]
    besov = [_besov(ps, space, pc, vals, 1.0 - pc.theta / p, p, None, "besov") for pc in thin]
    ps.run()
    hom = gl().value if simple else sharp() + gl().value
    for bes in besov:
        hom += bes().parts["seminorm"]
    return hom / denom


# -- emission -------------------------------------------------------------

CSV_HEADER = "instance,resolution,functional,value,part,param_p,param_theta,param_c,param_sigma,seed"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def report_to_csv(report: RatioReport, cfg: Optional[ExperimentConfig] = None) -> str:
    """Flat per-part CSV with the exact canonical column set; the sample
    function is folded into the instance column."""
    p = cfg.p if cfg else None
    c = cfg.c if cfg else None
    sigma = cfg.sigma if cfg else None
    out = [CSV_HEADER]
    for cell in report.cells:
        inst = f"{cell.instance}/{cell.function}"
        theta = cell.report.params.get("theta")
        base = [
            inst,
            _fmt(float(cell.resolution)),
            cell.functional,
            _fmt(float(cell.report.value)),
            "total",
            _fmt(p),
            _fmt(theta),
            _fmt(c),
            _fmt(sigma),
            str(cell.seed),
        ]
        out.append(",".join(base))
        for part in sorted(cell.report.parts):
            row = list(base)
            row[3] = _fmt(float(cell.report.parts[part]))
            row[4] = part
            out.append(",".join(row))
    return "\n".join(out) + "\n"


def report_emit(report: RatioReport, format: str, path: str, cfg: Optional[ExperimentConfig] = None) -> str:
    """Write a report to disk as CSV or JSON; returns the path written."""
    if format not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {format!r}")
    try:
        if format == "csv":
            payload = report_to_csv(report, cfg)
        else:
            payload = json.dumps(report.to_json(), sort_keys=True, indent=1)
        with open(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc
    return path
