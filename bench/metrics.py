"""Metric registry: every metric's unit, meaning, and what it should move.

Performance claims cite metrics by these names. END_TO_END are what a user of
the toolkit sees; GATED is the subset every workload reports, which
BENCHMARK.json bounds. PER_LAYER come from the traced run only.
"""

from __future__ import annotations

import statistics

from . import tracing

ALL = ("corpus", "train_prep", "eval_crowded")

# name: (unit, workloads, meaning)
END_TO_END = {
    "setup_s": ("s", ALL, "fresh interpreter until `import crowdpose_kit.cli` has "
                          "finished; shows work moved into import time"),
    "wall_s": ("s", ALL, "the workload's timed step sequence"),
    "cpu_s": ("s", ALL, "user plus system time of the repetition process and its "
                        "pool workers over the same interval"),
    "peak_rss_mb": ("MB", ALL, "peak resident memory of the repetition process plus "
                               "the largest peak among its pool workers"),
    "failed_frac": ("ratio", ALL, "steps with a nonzero exit code or a failed output "
                                  "check, divided by steps attempted"),
    "gen_scenes_per_s": ("scenes/s", ("corpus",), "`gen` throughput"),
    "augment_images_per_s": ("images/s", ("train_prep",), "`augment` throughput"),
    "encode_persons_per_s": ("persons/s", ("train_prep",), "`heatmap encode` throughput"),
    "heatmap_bytes_per_person": ("B", ("train_prep",),
                                 "exact `heatmap encode` output bytes per person"),
    "eval_images_per_s": ("images/s", ("eval_crowded",), "`eval` throughput"),
}

# Reported by every workload, never 0, bounded in BENCHMARK.json.
# failed_frac is carried by the result's attempted/failed counts instead,
# and the per-command throughputs exist on one workload each.
GATED = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")

# Which step's wall time and which item count make each throughput.
THROUGHPUT = {
    "gen_scenes_per_s": "gen",
    "augment_images_per_s": "augment",
    "encode_persons_per_s": "encode",
    "eval_images_per_s": "eval",
}

_COUNTERS = {
    "cli.bytes_written": "B",
    "cli.jobs_busy_frac": "ratio",
    "annotations.parse_dataset.bytes": "B",
    "synthgen.candidates": "count",
    "synthgen.accept_ratio": "ratio",
    "synthgen.candidate_us": "us",
    "augment.pastes.object": "count",
    "augment.pastes.body_part": "count",
    "augment.pastes.full_body": "count",
    "augment.flag_changes": "count",
    "heatmaps.keypoints_encoded": "count",
    "heatmaps.write_heatmap_pair.bytes": "B",
    "heatmaps.low_confidence": "count",
    "evaluator.oks_per_pair": "ratio",
    "evaluator.matched_at_50": "count",
    "evaluator.matched_at_75": "count",
    "evaluator.matched_at_95": "count",
    "trace.overhead_s": "s",
}


def _per_layer() -> dict:
    out = {}
    for module, func in tracing.SPANNED + tracing.LEAF_COUNTED:
        base = f"{module}.{func}"
        out[f"{base}.calls"] = "count"
        out[f"{base}.total_s"] = "s"
        out[f"{base}.self_s"] = "s"
    out[f"{tracing.READBACK}.total_s"] = "s"
    out[f"{tracing.READBACK}.self_s"] = "s"
    out.update(_COUNTERS)
    return out


# name: unit
PER_LAYER = _per_layer()

# Per-layer metrics where a larger value is the better one; the rest are
# costs. The matched counts are exact results that should not move at all.
HIGHER_IS_BETTER = ("cli.jobs_busy_frac", "synthgen.accept_ratio",
                    "evaluator.matched_at_50", "evaluator.matched_at_75",
                    "evaluator.matched_at_95")

# (layer metrics, end-to-end metrics they should move, on which workloads).
# A `*` stands for calls, total_s and self_s. Written down before measuring,
# so a trace can confirm or refute where a change's saving appears.
SHOULD_MOVE = (
    ("cli.dispatch.self_s", "wall_s, encode_persons_per_s", "train_prep"),
    ("cli.bytes_written", "heatmap_bytes_per_person", "train_prep"),
    ("cli.jobs_busy_frac", "gen_scenes_per_s, augment_images_per_s, eval_images_per_s",
     "corpus, train_prep, eval_crowded"),
    ("annotations.parse_dataset.* (with .bytes), annotations.serialize_dataset.*, "
     "annotations.validate.*", "wall_s", "eval_crowded, corpus"),
    ("synthgen.plan_corpus.*, synthgen.candidates, synthgen.accept_ratio, "
     "synthgen.candidate_us, synthgen.render_layout.*", "gen_scenes_per_s", "corpus"),
    ("seeding.substream.*", "gen_scenes_per_s", "corpus"),
    ("crowd_metrics.crowd_index_arrays.*, crowd_metrics.crowd_index.*, "
     "crowd_metrics.dataset_histogram.*", "gen_scenes_per_s, wall_s", "corpus"),
    ("masks.write_pam.*, masks.write_depth_pam.*, masks.read_pam.*, "
     "masks.composite_with_mask.*", "gen_scenes_per_s; augment_images_per_s",
     "corpus; train_prep"),
    ("augment.apply_augmentation.*, augment.load_inventory.calls, "
     "augment.pastes.{object,body_part,full_body}, augment.flag_changes",
     "augment_images_per_s", "train_prep"),
    ("heatmaps.encode.*, heatmaps.keypoints_encoded, heatmaps.write_heatmap_pair.* "
     "(with .bytes)", "encode_persons_per_s, heatmap_bytes_per_person", "train_prep"),
    ("heatmaps.read_heatmap_pair.*, heatmaps.decode.*, heatmaps.low_confidence, "
     "occloss.loss.*, occloss.loss_grad.*, bench.readback.*", "wall_s", "train_prep"),
    ("evaluator.eval_by_crowding.*, evaluator.match_greedy.*, "
     "evaluator.average_precision.*, evaluator.oks.calls, evaluator.oks_per_pair",
     "eval_images_per_s", "eval_crowded"),
    ("evaluator.matched_at_{50,75,95}", "none: exact counts; a change that moves "
     "them changed results", "eval_crowded"),
    ("trace.overhead_s", "none: traced wall_s minus untraced wall_s", "all"),
)

# The layer expected to hold the largest self-time share per workload.
RATIONALE = {
    "corpus": ("synthgen.plan_corpus",),
    "train_prep": ("heatmaps.encode", "cli.dispatch[encode]", "heatmaps.write_heatmap_pair"),
    "eval_crowded": ("evaluator.match_greedy", "evaluator.oks"),
}


def median(values) -> float:
    return statistics.median(values)


def highest_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it
    (nearest-rank), as (percentile, value); None below eleven samples."""
    data = sorted(values)
    n = len(data)
    if n <= 10:
        return None
    p = 100 * (n - 10) // n
    rank = max(1, -(-p * n // 100))
    return p, data[rank - 1]
