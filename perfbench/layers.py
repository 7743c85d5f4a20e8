"""Per-layer metrics of a traced job, named ``<module>.<function>.<what>``.

``self_s`` is the time inside the named function minus the time inside the
wrapped functions it called; ``calls`` counts its calls; the other counts
come from the tracer's counter hooks.  Module names drop the leading
underscore (``mmtrace._neighbors`` -> ``neighbors``) because metric names
must start with a letter.  ``report_emit`` is defined in
``mmtrace.experiments`` but is counted under ``io`` with the instance files.
"""

from __future__ import annotations

# (metric, unit, source, key): source "self" / "calls" read the tracer's
# per-function table, "counter" reads a hook counter.
PER_LAYER = [
    ("space.masses_at_radius.self_s", "s", "self", "space.masses_at_radius"),
    ("space.masses_at_radius.calls", "count", "calls", "space.masses_at_radius"),
    ("space.masses_at_radius.misses", "count", "counter", "space.masses_at_radius.misses"),
    ("space.masses_at_radius.centers", "count", "counter", "space.masses_at_radius.centers"),
    ("space.members.calls", "count", "calls", "space.members"),
    ("space.members.self_s", "s", "self", "space.members"),
    ("space.separated_net.self_s", "s", "self", "space.separated_net"),
    ("neighbors.self_lists.self_s", "s", "self", "neighbors.self_lists"),
    ("neighbors.self_lists.pairs", "count", "counter", "neighbors.self_lists.pairs"),
    ("neighbors.members_of.calls", "count", "calls", "neighbors.members_of"),
    ("neighbors.members_of.self_s", "s", "self", "neighbors.members_of"),
    ("neighbors.cross_pairs.self_s", "s", "self", "neighbors.cross_pairs"),
    ("neighbors.cross_pairs.pairs", "count", "counter", "neighbors.cross_pairs.pairs"),
    ("measures.weighted_stats.calls", "count", "calls", "measures.weighted_stats"),
    ("measures.weighted_stats.self_s", "s", "self", "measures.weighted_stats"),
    ("measures.build_measure_sequence.self_s", "s", "self", "measures.build_measure_sequence"),
    ("measures.verify_regular_sequence.self_s", "s", "self", "measures.verify_regular_sequence"),
    ("regularity.check_adr.self_s", "s", "self", "regularity.check_adr"),
    ("regularity.check_lcr.self_s", "s", "self", "regularity.check_lcr"),
    ("regularity.porosity_scan.self_s", "s", "self", "regularity.porosity_scan"),
    ("content.hausdorff_content.calls", "count", "calls", "content.hausdorff_content"),
    ("content.hausdorff_content.self_s", "s", "self", "content.hausdorff_content"),
    ("content.hausdorff_content.balls", "count", "counter", "content.hausdorff_content.balls"),
    ("functionals.besov_norm.self_s", "s", "self", "functionals.besov_norm"),
    ("functionals.gluing.self_s", "s", "self", "functionals.gluing"),
    ("functionals.calderon_maximal.self_s", "s", "self", "functionals.calderon_maximal"),
    ("functionals.bn_functional.self_s", "s", "self", "functionals.bn_functional"),
    ("functionals.sharp_mu_s1.self_s", "s", "self", "functionals.sharp_mu_s1"),
    ("functionals.trace_norm_difficult.self_s", "s", "self", "functionals.trace_norm_difficult"),
    ("functionals.enumerate_or_search_nice_family.self_s", "s", "self",
     "functionals.enumerate_or_search_nice_family"),
    ("functionals.nice_family.balls", "count", "counter", "functionals.nice_family.balls"),
    ("functionals.bsn_term.calls", "count", "calls", "functionals.bsn_term"),
    ("generators.generate.self_s", "s", "self", "generators.generate"),
    ("experiments.evaluate_functional.calls", "count", "calls", "experiments.evaluate_functional"),
    ("experiments.run_equivalence.self_s", "s", "self", "experiments.run_equivalence"),
    ("io.save_space.self_s", "s", "self", "io.save_space"),
    ("io.load_space.self_s", "s", "self", "io.load_space"),
    ("io.bytes", "bytes", "counter", "io.bytes"),
    ("io.report_emit.self_s", "s", "self", "experiments.report_emit"),
]

# Computed by run.py from a run's traced and untraced jobs.
OVERHEAD = ("trace.overhead_s", "s")


def per_layer(tracer) -> dict:
    """Every per-layer metric of one traced job (0 for a layer not used)."""
    out = {}
    for name, _, source, key in PER_LAYER:
        if source == "counter":
            out[name] = int(tracer.counters.get(key, 0))
        else:
            calls, _, self_s = tracer.stats.get(key, (0, 0.0, 0.0))
            out[name] = calls if source == "calls" else self_s
    return out
