"""mmtrace benchmark: runs one workload for a fixed time and reports metrics.

    python3 perfbench/run.py --workload simple3d --seed 0 --seconds 30 --trace 0

Each job runs in a fresh ``python3 perfbench/job.py`` process.  Jobs are
started one after another (a closed loop with one client) until the next
one would end after ``--seconds``; at least three run.  ``--trace 0``
reports the end-to-end metrics as medians over the jobs.  ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics as
medians over the traced jobs, plus ``trace.overhead_s``.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
result file with the environment goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "mmtrace")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import layers  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

MIN_ROUNDS = {0: 3, 1: 2}  # rounds of jobs per run, untraced / traced
RUN_LIMIT_S = 170.0     # every job is stopped by then
SELF_SUM_SLACK_S = 0.25  # interpreter start-up, before the job's first timestamp
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment(seed: int) -> dict:
    """Versions, cores, thread settings, seed and program commit."""
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration")
    except (KeyError, TypeError, AttributeError):
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        # masses_at_radius queries cKDTree with workers=-1, which scipy
        # resolves to os.cpu_count()
        "ckdtree_workers": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "blas": blas,
        "seed": seed,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_job(workload, seed, size, traced, index, deadline, tag) -> dict:
    """One job in a fresh process; returns its record plus the wall time."""
    out = os.path.join(RESULTS, f"{tag}.job{index}.json")
    spans = os.path.join(RESULTS, f"{tag}.spans{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--trace", str(int(traced)), "--out", out]
    if traced:
        cmd += ["--spans", spans]
    if os.path.exists(out):
        os.remove(out)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"traced": traced, "error": "job timed out", "wall_s": time.monotonic() - t_spawn}
    except BaseException:   # interrupted or terminated: stop the job first
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not os.path.exists(out):
        return {"traced": traced, "error": f"job exited {proc.returncode}: {err.strip()[-2000:]}",
                "wall_s": time.monotonic() - t_spawn}
    with open(out) as fh:
        rec = json.load(fh)
    os.remove(out)
    rec["traced"] = traced
    rec["wall_s"] = rec["t_checked"] - t_spawn
    rec["setup_s"] = rec["wall_s"] - rec["eval_s"]
    rec["failed_ops"] = sorted(n for n, p in rec["problems"].items() if p)
    return rec


def _ops_of(jobs, reference_ops: int):
    """(attempted, failed) over jobs; a crashed job fails every operation a
    completed job of the same run attempted (at least one)."""
    attempted = failed = 0
    for job in jobs:
        if "error" in job:
            attempted += max(reference_ops, 1)
            failed += max(reference_ops, 1)
        else:
            attempted += len(job["problems"])
            failed += len(job["failed_ops"])
    return attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mmtrace benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="bench",
                    help="bench: the measured instance; smoke: h = 1/8 for the smoke tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no mmtrace source at {SRC_PACKAGE}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # a terminated run raises SystemExit, so the running job is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}.{args.size}.seed{args.seed}.trace{args.trace}"
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    kinds = [False, True] if args.trace else [False]
    jobs = []
    while True:
        for traced in kinds:
            jobs.append(run_job(args.workload, args.seed, args.size, traced, len(jobs), deadline, tag))
        if any("error" in j for j in jobs):
            break
        rounds = len(jobs) // len(kinds)
        per_round = statistics.median(
            sum(j["wall_s"] for j in jobs[i:i + len(kinds)]) for i in range(0, len(jobs), len(kinds))
        )
        elapsed = time.monotonic() - start
        if rounds >= MIN_ROUNDS[args.trace] and elapsed + per_round > args.seconds:
            break
        if elapsed + per_round > RUN_LIMIT_S - 10:
            break

    good = [j for j in jobs if "error" not in j]
    plain = [j for j in good if not j["traced"]]
    traced = [j for j in good if j["traced"]]
    reference_ops = len(good[0]["problems"]) if good else 1
    attempted, failed = _ops_of(jobs, reference_ops)
    hygiene = {}
    if traced and plain:
        digests = {j["digest"] for j in plain}
        for j in traced:
            if j["digest"] not in digests:   # traced outputs must be bit-identical
                failed += len(j["problems"]) - len(j["failed_ops"])
                j["failed_ops"] = sorted(j["problems"])
        hygiene = {
            "outputs_bit_identical": all(j["digest"] in digests for j in good) and len(digests) == 1,
            "nesting_violations": sum(j["trace"]["nesting_violations"] for j in traced),
            "surviving_wrappers": sorted({w for j in traced for w in j["trace"]["surviving_wrappers"]}),
            "self_sum_gap_s": max(abs(j["wall_s"] - j["trace"]["self_sum_s"]) for j in traced),
            "self_sum_slack_s": SELF_SUM_SLACK_S,
            "spans_per_job": statistics.median(j["trace"]["spans"] for j in traced),
        }
    hygiene_ok = not hygiene or (
        hygiene["outputs_bit_identical"]
        and hygiene["nesting_violations"] == 0
        and not hygiene["surviving_wrappers"]
        and hygiene["self_sum_gap_s"] <= SELF_SUM_SLACK_S
    )
    complete = bool(plain) and (not args.trace or bool(traced))
    correct = complete and failed == 0 and hygiene_ok and len(good) == len(jobs)

    metrics = {}
    if args.trace and complete:
        for name, unit, _, _ in layers.PER_LAYER:
            metrics[name] = {"value": statistics.median(j["trace"]["layers"][name] for j in traced),
                             "unit": unit}
        overhead = statistics.median(j["wall_s"] for j in traced) - statistics.median(j["wall_s"] for j in plain)
        metrics[layers.OVERHEAD[0]] = {"value": overhead, "unit": layers.OVERHEAD[1]}
    elif complete:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(j[name] for j in plain), "unit": unit}

    failed_frac = failed / attempted if attempted else 1.0
    result = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "run_s": time.monotonic() - start,
        "samples": {"untraced_jobs": len(plain), "traced_jobs": len(traced)},
        "statistic": "median over jobs",
        "metrics": metrics,
        "failed_frac": failed_frac,
        "attempted": attempted,
        "failed": failed,
        "hygiene": hygiene,
        "jobs": [{k: v for k, v in j.items() if k not in ("problems", "trace")} |
                 ({"layers": j["trace"]["layers"]} if "trace" in j else {}) for j in jobs],
        "problems": {n: p for j in good for n, p in j["problems"].items() if p},
        "environment": environment(args.seed),
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} size={args.size} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced jobs, medians")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<52} {failed_frac:>14.6g} ratio ({failed}/{attempted} operations)")
    for name, probs in list(result["problems"].items())[:10]:
        print(f"  FAILED {name}: {'; '.join(probs)[:300]}")
    for j in jobs:
        if "error" in j:
            print(f"  JOB ERROR: {j['error'][-500:]}")
    if hygiene and not hygiene_ok:
        print(f"  TRACE HYGIENE FAILED: {json.dumps(hygiene)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
