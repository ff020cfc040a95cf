"""Names, units and meaning of the benchmark's metrics (no heavy imports)."""

import statistics

# Worker processes set up per run; setup_s is their median.
SETUPS = 3

# Name, unit, the samples it is taken from, and what it means.  A timing
# is ``per_input(samples)`` of the speed-scaled samples (see ``speed.py``);
# the same of the wall times is printed beside it.
END_TO_END = [
    ("verdict_s", "s", "verdict", "analyze() call"),
    ("verified_s", "s", "verified", "verify_recovery() call on a reversible input"),
    ("report_s", "s", "report", "analysis_document() + json.dumps of one report"),
    ("doc_bytes", "bytes", "report", "mean over inputs of one report's JSON text"),
    ("cli_s", "s", "cli", "wall time of the workload's ncpqec subprocess"),
    ("peak_rss_mb", "MB", None, "peak RSS of the measuring worker and its subprocesses (wait4)"),
    ("setup_s", "s", None, f"median of {SETUPS} worker set-ups: import, inputs, checks, warm-up"),
    ("ok_frac", "ratio", None, "ops that returned a verified output / ops attempted"),
]


def per_input(by_input: dict[str, list[float]]) -> float:
    """Mean over inputs of each input's median.

    A workload mixes inputs of very different cost; a median of the
    pooled calls would jump between them from run to run, so each input
    gets its own median first.
    """
    return statistics.fmean(statistics.median(v) for v in by_input.values())


LAYERS = ("qec", "pseudolinalg", "superop", "equivalence", "documents", "cli")

# Per-layer metrics: (name, unit, better, the end-to-end metric and
# workload it should move).  ``.s`` is the seconds per cycle spent in a
# function, ``.self_s`` the same less its traced callees, ``.calls`` its
# calls per cycle; bytes are means over inputs.  A layer that a workload
# does not reach reads 0.
FIRST = "verdict_s on rep-d64"
PER_LAYER = [
    ("qec.ph_condition_matrix.s", "s", "lower", FIRST),
    ("qec.ph_condition_matrix.calls_per_verdict", "count", "lower", FIRST),
    ("qec.build_syndromes.self_s", "s", "lower", FIRST),
    ("pseudolinalg.polar_on_code.s", "s", "lower", FIRST),
    ("pseudolinalg.polar_on_code.calls", "count", "lower", FIRST),
    ("qec.analyze.self_s", "s", "lower", FIRST),
    ("superop.apply_map.s", "s", "lower", "verified_s on rep-d64"),
    ("superop.apply_map.calls", "count", "lower", "verified_s on rep-d64"),
    ("qec.verify_recovery.self_s", "s", "lower", "verified_s on rep-d64"),
    ("pseudolinalg.pseudo_diagonalize.s", "s", "lower", "verdict_s on corpus-small"),
    ("qec.diagonalize_conditions.self_s", "s", "lower", "verdict_s on corpus-small"),
    ("superop.transform_by_pseudounitary.s", "s", "lower", "verdict_s on corpus-small"),
    ("qec.domain_witness.self_s", "s", "lower", "verdict_s on corpus-small"),
    ("qec.witness.hit_ratio", "ratio", "higher", "verdict_s on corpus-small"),
    ("qec.negative_part_on_code.s", "s", "lower", "verdict_s on corpus-small"),
    *[(f"{layer}.failures", "count", "lower", "ok_frac on corpus-small") for layer in LAYERS],
    ("pseudolinalg.failures.PseudoDiagonalizationFailure", "count", "lower", "ok_frac on corpus-small"),
    ("qec.failures.WitnessSearchFailed", "count", "lower", "ok_frac on corpus-small"),
    ("equivalence.maps_equal.s", "s", "lower", "connect_s on corpus-small"),
    ("equivalence.connecting_pseudounitary.self_s", "s", "lower", "connect_s on corpus-small"),
    ("superop.b_from_operator_sum.s", "s", "lower", "connect_s on corpus-small"),
    ("documents.analysis_document.s", "s", "lower", "report_s on rep-d64"),
    ("documents.json_dumps.s", "s", "lower", "report_s on rep-d64"),
    ("documents.doc_bytes", "bytes", "lower", "report_s, doc_bytes on rep-d64"),
    ("documents.json_load.s", "s", "lower", "cli_s on cli-bmatrix-d16"),
    ("documents.parse_channel_document.s", "s", "lower", "cli_s on cli-bmatrix-d16"),
    ("documents.channel_doc_bytes", "bytes", "lower", "cli_s on cli-bmatrix-d16"),
    ("superop.operator_sum_from_b.s", "s", "lower", "cli_s on cli-bmatrix-d16"),
    ("cli.import_s", "s", "lower", "cli_s on rep-d64, setup_s"),
    ("cli.main.self_s", "s", "lower", "cli_s on rep-d64, setup_s"),
    ("qec.projector_from_basis.s", "s", "lower", "cli_s on rep-d64, setup_s"),
    *[
        (f"trace.overhead.{m}", "s", "lower", f"{m}: traced minus untraced, same run")
        for m in ("verdict_s", "verified_s", "report_s", "cli_s")
    ],
]
