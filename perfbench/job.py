"""One workload job in a fresh process; ``run.py`` starts it.

    python3 perfbench/job.py --workload simple3d --seed 0 --trace 0 --out job.json

Writes a JSON record with the time the outputs were checked (``t_checked``,
on the system-wide monotonic clock, so the parent can subtract its spawn
time), the time inside functional evaluation, per-operation check results,
the peak resident set and a digest of every output.  With ``--trace 1`` the
public API of ``mmtrace`` is wrapped for the whole job and the record also
holds the per-layer metrics and the hygiene checks; the spans go to
``--spans``.
"""

import time

T0 = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _digest(ops: dict, workdir: str) -> str:
    h = hashlib.sha256(json.dumps(ops, sort_keys=True).encode())
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="bench")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t_import = time.monotonic()
    import mmtrace
    import mmtrace.io  # noqa: F401  (parse_config and the instance files)

    t_imported = time.monotonic()
    if not os.path.abspath(mmtrace.__file__).startswith(SRC + os.sep):
        print(f"mmtrace imported from {mmtrace.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    import checks
    import layers
    import workloads
    from tracer import Tracer, surviving_wrappers

    tracer = None
    if args.trace:
        tracer = Tracer(mmtrace)
        tracer.open_root("job", T0)
        tracer.phase("job.import", t_import, t_imported)
        tracer.install()

    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        try:
            ops, eval_s = workloads.run(mmtrace, args.workload, args.seed, args.size, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        t_check = time.monotonic()
        problems = checks.check(ops, checks.load_refs(args.workload, args.size), args.seed)
        digest = _digest(ops, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    t_checked = time.monotonic()

    record = {
        "t_start": T0,
        "t_checked": t_checked,
        "eval_s": eval_s,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest,
    }
    if tracer is not None:
        tracer.phase("job.check", t_check, t_checked)
        tracer.close_root(t_checked)
        record["trace"] = {
            "layers": layers.per_layer(tracer),
            "self_sum_s": tracer.self_total(),
            "root_s": t_checked - T0,
            "spans": len(tracer.spans),
            "nesting_violations": tracer.nesting_violations(),
            "surviving_wrappers": surviving_wrappers(mmtrace),
        }
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": tracer.spans,
                           "stats": tracer.stats}, fh)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
