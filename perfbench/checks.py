"""Correctness checks behind ``failed_frac``: stored references and invariants.

References live in ``refs/<workload>.json``::

    {"rtol": 1e-10,
     "common": {op: {key: value}},          # outputs that ignore the seed
     "seeds": {"<seed>": {op: {key: value}}}}

Floats are compared at ``rtol`` (the golden-value tolerance); ints, bools
and ``None`` exactly.  Every operation also passes the invariant checks:
floats finite and >= 0, bools true, and values of additive functionals
equal to the sum of their parts at 1e-12.  For a seed without recorded
references the seeded operations run the invariant checks only.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-10
COMPOSE_RTOL = 1e-12
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

# Functionals whose value is the sum of their parts.
ADDITIVE = ("trace_simple", "trace_difficult", "bn", "bsn", "besov", "besov_alt")


def ref_path(workload: str) -> str:
    return os.path.join(REF_DIR, f"{workload}.json")


def load_refs(workload: str, size: str):
    """Stored references, or None for sizes that have none."""
    if size != "bench":
        return None
    with open(ref_path(workload)) as fh:
        return json.load(fh)


def invariant_problems(name: str, values: dict) -> list:
    problems = []
    for key, v in values.items():
        if isinstance(v, bool):
            if not v:
                problems.append(f"{key} is false")
        elif isinstance(v, float) and not (math.isfinite(v) and v >= 0):
            problems.append(f"{key} = {v!r} is not finite and >= 0")
        elif isinstance(v, int) and v < 0:
            problems.append(f"{key} = {v} is negative")
    base = name.split()[-1].split(":")[0]
    if base in ADDITIVE and "value" in values:
        total = sum(v for k, v in values.items() if k.startswith("part:"))
        if abs(values["value"] - total) > COMPOSE_RTOL * abs(values["value"]):
            problems.append(f"parts sum to {total!r}, value is {values['value']!r}")
    return problems


def _same(got, want, rtol: float) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= rtol * abs(want)
    return type(got) is type(want) and got == want


def reference_problems(values: dict, ref: dict, rtol: float = RTOL) -> list:
    problems = [f"{k} missing" for k in ref if k not in values]
    problems += [f"{k} not in reference" for k in values if k not in ref]
    for key in ref:
        if key in values and not _same(values[key], ref[key], rtol):
            problems.append(f"{key} = {values[key]!r}, reference {ref[key]!r}")
    return problems


def check(ops: dict, refs, seed: int) -> dict:
    """Problems per operation (an empty list means the operation passed)."""
    expected = {}
    seed_recorded = False
    if refs is not None:
        expected.update(refs["common"])
        seeded_refs = refs["seeds"].get(str(seed))
        seed_recorded = seeded_refs is not None
        expected.update(seeded_refs or {})
    rtol = refs["rtol"] if refs is not None else RTOL
    out = {}
    for name, op in ops.items():
        if op["error"]:
            out[name] = [op["error"]]
            continue
        problems = invariant_problems(name, op["values"])
        if name in expected:
            problems += reference_problems(op["values"], expected[name], rtol)
        elif refs is not None and (seed_recorded or not op["seeded"]):
            problems.append("no reference for this operation")
        out[name] = problems
    for name in expected:
        if name not in ops:
            out[name] = ["operation missing"]
    return out
