"""One-shot probe of the 3-d simple case at h = 1/64, the round's target size.

    python3 perfbench/probe.py [--seed 0] [--h 1/64]

Not a workload and never part of a regression check: it runs once, for
minutes, and prints its timings beside the baseline rows measured when the
roadmap was written.  It times whole-cloud ``masses_at_radius`` at
r = 1, 1/2, 1/4 on ``simple_case_spec(h)`` and then a cold
``trace_norm_simple(l=1)`` on a freshly generated instance (no cached
masses or neighbour lists).  ``--h`` exists so the smoke tests can run the
probe on a small grid.  The result, with its environment, goes to
``perfbench/results/probe-<h>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mmtrace as mt  # noqa: E402

import run  # noqa: E402
from workloads import P, parse_h  # noqa: E402

# Baseline rows for h = 1/64 (n = 274,625), in seconds.
BASELINE_64 = {
    "masses_at_radius r=1": 85.5,
    "masses_at_radius r=1/2": 94.4,
    "masses_at_radius r=1/4": 36.9,
    "cold trace_norm_simple(l=1)": 140.0,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--h", default="1/64")
    args = ap.parse_args(argv)
    spec = mt.simple_case_spec(parse_h(args.h))

    space, _ = mt.generate(spec, verify=False)
    timings = {}
    for label, r in (("1", 1.0), ("1/2", 0.5), ("1/4", 0.25)):
        start = time.monotonic()
        space.masses_at_radius(r)
        timings[f"masses_at_radius r={label}"] = time.monotonic() - start
    del space

    space, pw = mt.generate(spec, verify=False)
    f = mt.make_sample_function(space, pw, "random", seed=args.seed)
    start = time.monotonic()
    rep = mt.trace_norm_simple(space, pw, f, P, l=1)
    timings["cold trace_norm_simple(l=1)"] = time.monotonic() - start

    baseline = BASELINE_64 if args.h == "1/64" else {}
    print(f"probe: simple_case_spec({args.h}), n = {space.n}, |S| = {pw.union_ids.size}")
    print(f"  {'step':<30} {'measured s':>11} {'baseline s':>11}")
    for name, secs in timings.items():
        base = baseline.get(name)
        print(f"  {name:<30} {secs:>11.2f} {base if base is not None else '-':>11}")
    result = {
        "h": args.h,
        "n": int(space.n),
        "support": int(pw.union_ids.size),
        "timings_s": timings,
        "baseline_s": baseline,
        "trace_norm_simple": rep.to_json(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": run.environment(args.seed),
    }
    os.makedirs(run.RESULTS, exist_ok=True)
    with open(os.path.join(run.RESULTS, f"probe-{args.h.replace('/', '_')}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
