"""Command-line front end.

Subcommands: generate, verify, norms, experiment, report.
Exit codes: 0 ok, 2 parameter error, 3 resolution error, 4 io error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as mio
from .errors import IoError, MMTraceError, ParameterError, ResolutionError
from .experiments import report_emit, run_equivalence
from .functionals import SampleFunction
from .generators import generate
from .measures import build_measure_sequence, verify_regular_sequence
from .regularity import check_adr, check_lcr, default_r_grid, porosity_scan


def _cmd_generate(args) -> int:
    spec = mio.load_generator_spec(args.spec)
    space, piecewise = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    mio.save_space(space, os.path.join(args.out, "space.mmspace"))
    mio.save_pieces(piecewise, os.path.join(args.out, "pieces.json"))
    print(f"wrote {args.out}/space.mmspace ({space.n} points) and pieces.json")
    return 0


def _pieces_path(args) -> str:
    if args.pieces:
        return args.pieces
    return os.path.join(os.path.dirname(os.path.abspath(args.space)), "pieces.json")


def _cmd_verify(args) -> int:
    space, piecewise = mio.load_instance(args.space, _pieces_path(args), c_res=args.c_res)
    grid = default_r_grid(space)
    r = list(map(float, grid))
    out = {}
    if args.what == "adr":
        for i, pc in enumerate(piecewise.pieces):
            k1, k2, ok = check_adr(space, pc, grid)
            out[f"piece_{i + 1}"] = {"r": r, "kappa1": float(k1), "kappa2": float(k2), "ok": bool(ok)}
    elif args.what == "lcr":
        for i, pc in enumerate(piecewise.pieces):
            lam = check_lcr(space, pc.ids, pc.theta, grid)
            out[f"piece_{i + 1}"] = {"r": r, "lambda": float(lam), "ok": bool(lam > 0)}
    elif args.what == "porosity":
        rep = porosity_scan(space, piecewise.union_ids, args.sigma, grid)
        out = rep.to_json()
    elif args.what == "measure-seq":
        seq = build_measure_sequence(space, piecewise, piecewise.theta_S)
        cert = verify_regular_sequence(space, seq)
        out = cert.to_json()
    else:
        raise ParameterError(f"unknown verification target {args.what!r}")
    print(json.dumps(out, sort_keys=True, indent=1))
    return 0


def _cmd_norms(args) -> int:
    from .experiments import evaluate_functional

    space, piecewise = mio.load_instance(args.space, _pieces_path(args), c_res=args.c_res)
    values = mio.load_function(args.f, space.n)
    f = SampleFunction(values=values, domain=piecewise)
    seq = build_measure_sequence(space, piecewise, piecewise.theta_S, p=args.p)
    names = args.which.split(",")
    # one pass for all names; the parsed arguments carry the p, c and sigma the functionals read
    reps = evaluate_functional(names, space, piecewise, seq, [f], args)
    print(json.dumps({name: rep.to_json() for name, rep in zip(names, reps)}, sort_keys=True, indent=1))
    return 0


def _cmd_experiment(args) -> int:
    cfg = mio.load_config(args.config)
    report = run_equivalence(cfg)
    os.makedirs(args.out, exist_ok=True)
    report_emit(report, "csv", os.path.join(args.out, "report.csv"), cfg)
    report_emit(report, "json", os.path.join(args.out, "report.json"), cfg)
    print(f"wrote {args.out}/report.csv and report.json ({len(report.cells)} cells)")
    return 0


def _cmd_report(args) -> int:
    src = os.path.join(args.indir, "report.json")
    try:
        with open(src) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IoError(f"cannot read {src}: {exc}") from exc
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        # an OSError here names the file and exits 4 in main
        with open(os.path.join(args.indir, "report.csv")) as fh:
            sys.stdout.write(fh.read())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mmtrace", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a synthetic instance from a generator spec")
    g.add_argument("--spec", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_generate)

    v = sub.add_parser("verify", help="run a regularity verifier on an instance")
    v.add_argument("--space", required=True)
    v.add_argument("--pieces", default=None, help="defaults to pieces.json beside the space file")
    v.add_argument("--what", required=True, choices=["adr", "lcr", "porosity", "measure-seq"])
    v.add_argument("--sigma", type=float, default=0.25)
    v.add_argument("--c-res", dest="c_res", type=float, default=1.0)
    v.set_defaults(fn=_cmd_verify)

    n = sub.add_parser("norms", help="evaluate trace functionals for a sample function")
    n.add_argument("--space", required=True)
    n.add_argument("--pieces", default=None, help="defaults to pieces.json beside the space file")
    n.add_argument("--f", required=True)
    n.add_argument("--which", required=True, help="comma list, e.g. gl1,bn,trace_simple:1")
    n.add_argument("--p", type=float, default=2.5)
    n.add_argument("--c", type=float, default=6.0)
    n.add_argument("--sigma", type=float, default=0.01)
    n.add_argument("--c-res", dest="c_res", type=float, default=1.0)
    n.set_defaults(fn=_cmd_norms)

    e = sub.add_parser("experiment", help="run a configuration-driven equivalence experiment")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(fn=_cmd_experiment)

    r = sub.add_parser("report", help="re-emit a stored experiment report")
    r.add_argument("--in", dest="indir", required=True)
    r.add_argument("--format", choices=["csv", "json"], default="csv")
    r.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return 3
    except (IoError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except MMTraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
