"""Cosine-similarity retrieval and the two evaluation protocols.

Features are l2-normalized rows (``model.unit_rows``), so the dot product of
two rows is their cosine. Every evaluation hands one (scores, relevant) pair
per query to one scorer. A stable ``np.argsort`` of the negated scores ranks
the gallery, so exact ties break toward the smaller gallery item id and
results are deterministic even with quantized features; AP adds the
precision at each relevant rank in rank order (``np.cumsum``). A query with
no relevant gallery item is skipped and counted in the report.

* Image-to-track protocol: each query is one image, gallery units are the
  tracks of all vehicles, tracks containing any image from the query's own
  camera are excluded, and a track scores the max (optionally the mean) of
  its member images' similarities.
* Repeated-sampling protocol: per repeat, a fixed-size set of vehicles is
  drawn, one random image per vehicle forms the gallery, every other image
  of those vehicles queries it, and metrics average over ten repeats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledSample
from .errors import ConfigError, ValidationError
from .model import unit_rows
from .optim import rng_for


def rank_items(similarities) -> np.ndarray:
    """Gallery positions ordered by descending similarity, ties by ascending id."""
    return np.argsort(-np.asarray(similarities, dtype=np.float64), kind="stable")


def average_precision(relevance) -> float | None:
    """Mean of precision-at-k over the relevant ranks, added in rank order;
    None if nothing is relevant."""
    ranks = np.flatnonzero(np.asarray(relevance, dtype=bool)) + 1
    if ranks.size == 0:
        return None
    return float(np.cumsum(np.arange(1, ranks.size + 1) / ranks)[-1] / ranks.size)


def first_hit_rank(relevance) -> int | None:
    relevance = np.asarray(relevance, dtype=bool)
    return int(np.argmax(relevance)) + 1 if relevance.any() else None


def cmc_at_k(ranks, k: int) -> float:
    """Fraction of queries whose first hit lands within the top k."""
    ranks = np.asarray(ranks)
    return np.count_nonzero(ranks <= k) / ranks.size if ranks.size else 0.0


@dataclass
class RetrievalIndex:
    """l2-normalized features plus the metadata retrieval needs."""

    features: np.ndarray  # (n, dim), rows normalized (zero rows left zero)
    samples: list[LabeledSample]
    zero_count: int = 0

    @classmethod
    def build(cls, features: np.ndarray, samples) -> "RetrievalIndex":
        samples = list(samples)
        feats, zero = unit_rows(features)
        if len(feats) != len(samples):
            raise ValidationError(f"{len(feats)} features but {len(samples)} samples")
        return cls(features=feats, samples=samples, zero_count=int(zero.sum()))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class EvaluationReport:
    protocol: str
    map: float
    cmc: dict[int, float]
    counts: dict[str, int]
    repeats: list[dict] = field(default_factory=list)
    seed: int | None = None

    def as_dict(self) -> dict:
        return {"protocol": self.protocol, "map": self.map,
                "cmc": {str(k): v for k, v in sorted(self.cmc.items())},
                "repeats": self.repeats, "seed": self.seed, "counts": self.counts}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _score(queries) -> tuple[float, dict[int, float], int, int]:
    """mAP, CMC@1/@5, answered and skipped counts of (scores, relevant)
    pairs, one per query; a query with nothing relevant is skipped."""
    ap_values, first_hits, skipped = [], [], 0
    for scores, relevant in queries:
        ranked = relevant[rank_items(scores)]
        ap = average_precision(ranked)
        if ap is None:
            skipped += 1
            continue
        ap_values.append(ap)
        first_hits.append(first_hit_rank(ranked))
    mean_ap = float(np.mean(ap_values)) if ap_values else 0.0
    return mean_ap, {k: cmc_at_k(first_hits, k) for k in (1, 5)}, len(ap_values), skipped


def image_retrieval_metrics(query_features, query_labels, gallery_features,
                            gallery_labels) -> EvaluationReport:
    """Direct image-to-image ranking of a fixed gallery; features are
    l2-normalized on entry."""
    qf, gf = unit_rows(query_features)[0], unit_rows(gallery_features)[0]
    if len(qf) != len(query_labels) or len(gf) != len(gallery_labels):
        raise ValidationError(f"{len(qf)}/{len(gf)} query/gallery features but "
                              f"{len(query_labels)}/{len(gallery_labels)} labels")
    labels = np.asarray(gallery_labels)
    mean_ap, cmc, answered, skipped = _score((gf @ q, labels == label)
                                             for q, label in zip(qf, query_labels))
    return EvaluationReport(protocol="image", map=mean_ap, cmc=cmc,
                            counts={"queries": answered, "skipped": skipped,
                                    "gallery": len(gallery_labels)})


def _codes(keys) -> np.ndarray:
    """Each key's index among the distinct keys in order of first appearance."""
    seen: dict = {}
    return np.array([seen.setdefault(k, len(seen)) for k in keys], dtype=np.intp)


def veri_protocol(index: RetrievalIndex, queries=None,
                  track_agg: str = "max") -> EvaluationReport:
    """Image-to-track evaluation with same-camera tracks excluded."""
    if track_agg not in ("max", "mean"):
        raise ConfigError(f"unknown track aggregation {track_agg!r}")
    samples = index.samples
    for s in samples:
        if s.camera_id is None or s.track_id is None:
            raise ValidationError(f"sample of vehicle {s.vehicle_id} lacks "
                                  "camera_id/track_id metadata")

    # Tracks in order of first appearance, so ties rank the earlier track first.
    track = _codes(s.track_id for s in samples)
    camera = _codes(s.camera_id for s in samples)
    vehicle = np.array([s.vehicle_id for s in samples])
    sizes = np.bincount(track)
    track_vehicle = vehicle[np.unique(track, return_index=True)[1]]
    mixed = np.flatnonzero(vehicle != track_vehicle[track])
    if mixed.size:
        i = mixed[0]
        raise ValidationError(f"track {samples[i].track_id} mixes vehicles "
                              f"{track_vehicle[track[i]]} and {samples[i].vehicle_id}")
    has_camera = np.zeros((len(sizes), camera.max(initial=-1) + 1), dtype=bool)
    has_camera[track, camera] = True
    # Tracks of one size reduce as rows of one (tracks, size) matrix of image
    # ids in image order, where np.mean adds in the same order as on one track.
    by_track = np.argsort(track, kind="stable")
    starts = np.cumsum(sizes) - sizes
    groups = []
    for size in np.unique(sizes):
        tracks = np.flatnonzero(sizes == size)
        groups.append((tracks, by_track[starts[tracks, None] + np.arange(size)]))
    reduce = np.max if track_agg == "max" else np.mean

    def track_scores(qi: int) -> tuple[np.ndarray, np.ndarray]:
        sims = index.features @ index.features[qi]
        scores = np.empty(len(sizes))
        for tracks, images in groups:
            scores[tracks] = reduce(sims[images], axis=1)
        candidates = np.flatnonzero(~has_camera[:, camera[qi]])
        return scores[candidates], track_vehicle[candidates] == vehicle[qi]

    if queries is None:
        queries = range(len(index))
    mean_ap, cmc, answered, skipped = _score(track_scores(qi) for qi in queries)
    return EvaluationReport(protocol="veri", map=mean_ap, cmc=cmc,
                            counts={"queries": answered, "skipped": skipped,
                                    "gallery_tracks": len(sizes),
                                    "zero_features": index.zero_count})


def vehicleid_protocol(index: RetrievalIndex, gallery_size: int,
                       repeats: int = 10, seed: int = 0) -> EvaluationReport:
    """Repeated random-gallery evaluation (one gallery image per vehicle)."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    vehicle = _codes(s.vehicle_id for s in index.samples)
    vehicle_images = [np.flatnonzero(vehicle == v) for v in range(vehicle.max(initial=-1) + 1)]
    if gallery_size < 1 or gallery_size > len(vehicle_images):
        raise ConfigError(f"gallery_size {gallery_size} not in [1, {len(vehicle_images)}]; "
                          f"choose a size up to the number of test vehicles")

    per_repeat: list[dict] = []
    for r in range(repeats):
        rng = rng_for(seed, r)
        chosen = rng.choice(len(vehicle_images), size=gallery_size, replace=False)
        gallery: list[int] = []
        query_ids: list[int] = []
        for v in chosen:
            images = vehicle_images[v]
            pick = int(rng.integers(len(images)))
            gallery.append(images[pick])
            query_ids.extend(img for k, img in enumerate(images) if k != pick)
        gallery_feats, gallery_vehicles = index.features[gallery], vehicle[gallery]
        mean_ap, cmc, answered, skipped = _score(
            (gallery_feats @ q, gallery_vehicles == v)
            for q, v in zip(index.features[query_ids], vehicle[query_ids]))
        per_repeat.append({"repeat": r, "seed": [seed, r], "map": mean_ap,
                           "cmc": {str(k): v for k, v in sorted(cmc.items())},
                           "queries": answered, "skipped": skipped,
                           "gallery": [int(i) for i in gallery]})

    mean_map = float(np.mean([p["map"] for p in per_repeat]))
    cmc = {k: float(np.mean([p["cmc"][str(k)] for p in per_repeat])) for k in (1, 5)}
    counts = {"gallery": gallery_size, "repeats": repeats,
              "queries_total": sum(p["queries"] for p in per_repeat),
              "zero_features": index.zero_count}
    return EvaluationReport(protocol="vehicleid", map=mean_map, cmc=cmc,
                            counts=counts, repeats=per_repeat, seed=seed)
