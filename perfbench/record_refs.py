"""Record the reference outputs in ``perfbench/refs/`` from the current source.

    python3 perfbench/record_refs.py [--workload NAME ...] [--seeds 0 7]

Run it only on a commit whose outputs are known to be right: the benchmark
counts every later difference beyond ``rtol`` as a failed operation.  Seed
0 is the default seed and seed 7 the held-out one.  Outputs that ignore
the seed are recorded once, after checking that both seeds agree on them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import mmtrace  # noqa: E402
import mmtrace.io  # noqa: E402,F401

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record(workload: str, seeds) -> dict:
    common, by_seed = None, {}
    for seed in seeds:
        workdir = os.path.join(HERE, "work", f"record-{workload}-{seed}")
        os.makedirs(workdir, exist_ok=True)
        try:
            ops, _ = workloads.run(mmtrace, workload, seed, "bench", workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        bad = {n: p for n, p in checks.check(ops, None, seed).items() if p}
        if bad:
            raise SystemExit(f"{workload} seed {seed}: invariant checks fail: {bad}")
        this_common = {n: op["values"] for n, op in ops.items() if not op["seeded"]}
        if common is not None and json.dumps(common, sort_keys=True) != json.dumps(this_common, sort_keys=True):
            raise SystemExit(f"{workload}: seed-independent outputs differ between seeds")
        common = this_common
        by_seed[str(seed)] = {n: op["values"] for n, op in ops.items() if op["seeded"]}
    env = run.environment(seeds[0])
    return {
        "workload": workload,
        "size": "bench",
        "rtol": checks.RTOL,
        "recorded_from": {"commit": env["commit"], "src_sha256": env["src_sha256"]},
        "common": common,
        "seeds": by_seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    args = ap.parse_args(argv)
    os.makedirs(checks.REF_DIR, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        payload = record(workload, args.seeds)
        with open(checks.ref_path(workload), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(payload['common'])} seed-independent operations, "
              f"{sum(len(v) for v in payload['seeds'].values())} seeded, seeds {args.seeds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
