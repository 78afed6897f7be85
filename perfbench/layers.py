"""Per-layer metrics computed from the spans and counts of a traced run.

Training figures are per training sample (or per batch) of the traced
``optim.train`` calls; extraction figures per image of the traced
``Model.extract_feature`` calls; retrieval figures per traced evaluation
pass (its ``veri_protocol`` calls over query chunks and its ten
single-repeat ``vehicleid_protocol`` calls); file figures per call.
"""

from __future__ import annotations

from tracing import BLOCKS, FILE_CALLS, OPS, Tracer


def layer_metrics(tracer: Tracer, queries: int, skipped: int) -> dict[str, float]:
    spans = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def prefixed(prefix):
        return sum(t for name, (_, t, _) in spans.items() if name.startswith(prefix))

    def any_phase(name):
        """(calls, total seconds) of the spans called ``name`` in any phase."""
        hits = [v for key, v in spans.items() if key.split("|", 1)[1] == name]
        return sum(c for c, _, _ in hits), sum(t for _, t, _ in hits)

    samples = max(counts["train.samples"], 1)
    batches = max(counts["train.batches"], 1)
    images = max(counts["extract.images"], 1)
    m: dict[str, float] = {
        "autodiff.nodes_per_sample": counts["train.nodes"] / samples,
        "autodiff.backward.self_ms_per_sample": 1e3 * own("train|autodiff.backward") / samples,
    }
    for op in OPS:
        m[f"autodiff.op.{op}.calls_per_sample"] = calls(f"train|op.{op}") / samples
        m[f"autodiff.op.{op}.fwd_us_per_sample"] = 1e6 * total(f"train|op.{op}") / samples
        m[f"autodiff.op.{op}.bwd_us_per_sample"] = 1e6 * prefixed(f"train|bwd.{op}|") / samples
    flop, nbytes = counts["train.matmul.flop"], counts["train.matmul.bytes"]
    m["autodiff.matmul.flop_per_sample"] = flop / samples
    m["autodiff.matmul.bytes_per_sample_computed"] = nbytes / samples
    m["autodiff.matmul.flop_per_byte_computed"] = flop / max(nbytes, 1)
    m["autodiff.extract.nodes_per_image"] = sum(
        calls(f"extract|op.{op}") for op in OPS) / images

    for block in BLOCKS:
        m[f"{block}.fwd_ms_per_sample"] = 1e3 * total(f"train|blk.{block}") / samples
        m[f"{block}.bwd_ms_per_sample"] = 1e3 * sum(
            t for name, (_, t, _) in spans.items()
            if name.startswith("train|bwd.") and name.endswith(f"|{block}")) / samples
    # The pooled descriptor map is a leaf that needs no gradient, so the
    # pooling node's backward is never walked; only its forward is timed.
    m["model.gap.fwd_ms_per_sample"] = 1e3 * total("train|blk.model.gap") / samples
    m["model.forward.ms_per_sample"] = 1e3 * total("train|model.forward") / samples
    m["model.extract_feature.ms_per_image"] = (
        1e3 * total("extract|model.extract_feature") / images)
    m["optim.rmsprop_step.ms_per_batch"] = 1e3 * total("train|optim.rmsprop_step") / batches
    m["optim.train.self_ms_per_batch"] = 1e3 * own("train|optim.train") / batches

    m["retrieval.index_build.ms"] = 1e3 * total("other|retrieval.index_build") / max(
        calls("other|retrieval.index_build"), 1)
    m["retrieval.veri.self_ms"] = 1e3 * own("other|retrieval.veri")
    m["retrieval.vehicleid.self_ms"] = 1e3 * own("other|retrieval.vehicleid")
    m["retrieval.rank_items.calls"] = calls("other|retrieval.rank_items")
    m["retrieval.rank_items.ms"] = 1e3 * total("other|retrieval.rank_items")
    m["retrieval.average_precision.ms"] = 1e3 * total("other|retrieval.average_precision")
    m["retrieval.first_hit_rank.ms"] = 1e3 * total("other|retrieval.first_hit_rank")
    m["retrieval.items_ranked"] = counts["retrieval.items_ranked"]
    m["retrieval.items_ranked_per_query"] = counts["retrieval.items_ranked"] / max(queries, 1)
    m["retrieval.skipped_ratio"] = skipped / max(queries, 1)

    for name in FILE_CALLS:
        n, seconds = any_phase(name)
        m[f"{name}.ms"] = 1e3 * seconds / max(n, 1)
        m[f"{name}.bytes"] = counts[f"{name}.bytes"] / max(n, 1)
    m["data.synth_generate.s"] = any_phase("data.synth_generate")[1]
    m["data.training_items.s"] = any_phase("data.training_items")[1]
    m["trace.spans"] = sum(c for c, _, _ in spans.values())
    return m
