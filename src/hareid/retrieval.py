"""Cosine-similarity retrieval and the two evaluation protocols.

Gallery items are ranked by descending similarity; exact ties break toward
the smaller gallery item id, so results are deterministic even with
quantized features. A query with no relevant gallery item is skipped and
counted in the report.

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
from .errors import ConfigError, ShapeError, ValidationError
from .optim import rng_for


def cosine_similarity(u, v) -> float:
    """u.v / (|u||v|); zero-norm operands yield 0 by convention."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeError(f"cosine_similarity: shapes {u.shape} and {v.shape} differ")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def rank_items(similarities) -> list[int]:
    """Gallery positions ordered by descending similarity, ties by ascending id."""
    sims = [float(s) for s in similarities]
    return sorted(range(len(sims)), key=lambda i: (-sims[i], i))


def average_precision(relevance) -> float | None:
    """Mean of precision-at-k over the relevant ranks; None if nothing is relevant."""
    hits = 0
    total = 0.0
    for k, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / k
    if hits == 0:
        return None
    return total / hits


def first_hit_rank(relevance) -> int | None:
    for k, rel in enumerate(relevance, start=1):
        if rel:
            return k
    return None


def cmc_at_k(ranks, k: int) -> float:
    """Fraction of queries whose first hit lands within the top k."""
    ranks = list(ranks)
    if not ranks:
        return 0.0
    return sum(1 for r in ranks if r <= k) / len(ranks)


def _unit_rows(features, count: int) -> tuple[np.ndarray, int]:
    """l2-normalize the rows of a (count, dim) array, leaving zero rows zero;
    also returns how many rows were zero."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ShapeError(f"features must be (n, dim), got shape {feats.shape}")
    if count != feats.shape[0]:
        raise ValidationError(f"{feats.shape[0]} features but {count} samples")
    norms = np.linalg.norm(feats, axis=1)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    return feats / safe[:, None], int(zero.sum())


@dataclass
class RetrievalIndex:
    """l2-normalized features plus the metadata retrieval needs."""

    features: np.ndarray  # (n, dim), rows normalized (zero rows left zero)
    samples: list[LabeledSample]
    zero_count: int = 0

    @classmethod
    def build(cls, features: np.ndarray, samples) -> "RetrievalIndex":
        samples = list(samples)
        feats, zero_count = _unit_rows(features, len(samples))
        return cls(features=feats, samples=samples, zero_count=zero_count)

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


def _metrics(ap_values, ranks, ks=(1, 5)) -> tuple[float, dict[int, float]]:
    mean_ap = float(np.mean(ap_values)) if ap_values else 0.0
    return mean_ap, {k: cmc_at_k(ranks, k) for k in ks}


def _score_rankings(relevances) -> tuple[list[float], list[int], int]:
    """AP and first-hit rank of each query's ranked relevance list; a query
    with nothing relevant is skipped and counted."""
    ap_values: list[float] = []
    ranks: list[int] = []
    skipped = 0
    for relevance in relevances:
        ap = average_precision(relevance)
        if ap is None:
            skipped += 1
            continue
        ap_values.append(ap)
        ranks.append(first_hit_rank(relevance))
    return ap_values, ranks, skipped


def _evaluate_queries(gallery_feats: np.ndarray, gallery_labels, query_feats: np.ndarray,
                      query_labels) -> tuple[list[float], list[int], int]:
    return _score_rankings([gallery_labels[o] == ql for o in rank_items(gallery_feats @ qf)]
                           for qf, ql in zip(query_feats, query_labels))


def image_retrieval_metrics(query_features, query_labels, gallery_features,
                            gallery_labels) -> EvaluationReport:
    """Direct image-to-image ranking of a fixed gallery; features are
    l2-normalized on entry."""
    qf, _ = _unit_rows(query_features, len(query_labels))
    gf, _ = _unit_rows(gallery_features, len(gallery_labels))
    ap_values, ranks, skipped = _evaluate_queries(gf, list(gallery_labels), qf,
                                                  list(query_labels))
    mean_ap, cmc = _metrics(ap_values, ranks)
    return EvaluationReport(protocol="image", map=mean_ap, cmc=cmc,
                            counts={"queries": len(ap_values), "skipped": skipped,
                                    "gallery": len(gallery_labels)})


def veri_protocol(index: RetrievalIndex, queries=None,
                  track_agg: str = "max") -> EvaluationReport:
    """Image-to-track evaluation with same-camera tracks excluded."""
    if track_agg not in ("max", "mean"):
        raise ConfigError(f"unknown track aggregation {track_agg!r}")
    for s in index.samples:
        if s.camera_id is None or s.track_id is None:
            raise ValidationError(f"sample of vehicle {s.vehicle_id} lacks "
                                  "camera_id/track_id metadata")

    track_members: dict[str, list[int]] = {}
    for i, s in enumerate(index.samples):
        track_members.setdefault(s.track_id, []).append(i)
    tracks = list(track_members.values())
    track_vehicle = []
    track_cameras = []
    for members in tracks:
        vehicles = {index.samples[i].vehicle_id for i in members}
        if len(vehicles) != 1:
            raise ValidationError(f"track {index.samples[members[0]].track_id} mixes "
                                  f"vehicles {sorted(vehicles)}")
        track_vehicle.append(vehicles.pop())
        track_cameras.append({index.samples[i].camera_id for i in members})

    def track_relevance(qi: int) -> list[bool]:
        q = index.samples[qi]
        sims_img = index.features @ index.features[qi]
        candidates = [t for t in range(len(tracks)) if q.camera_id not in track_cameras[t]]
        if track_agg == "max":
            sims = [max(sims_img[i] for i in tracks[t]) for t in candidates]
        else:
            sims = [float(np.mean([sims_img[i] for i in tracks[t]])) for t in candidates]
        return [track_vehicle[candidates[o]] == q.vehicle_id for o in rank_items(sims)]

    if queries is None:
        queries = range(len(index))
    ap_values, ranks, skipped = _score_rankings(track_relevance(qi) for qi in queries)
    mean_ap, cmc = _metrics(ap_values, ranks)
    return EvaluationReport(protocol="veri", map=mean_ap, cmc=cmc,
                            counts={"queries": len(ap_values), "skipped": skipped,
                                    "gallery_tracks": len(tracks),
                                    "zero_features": index.zero_count})


def vehicleid_protocol(index: RetrievalIndex, gallery_size: int,
                       repeats: int = 10, seed: int = 0) -> EvaluationReport:
    """Repeated random-gallery evaluation (one gallery image per vehicle)."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    vehicle_images: dict[str, list[int]] = {}
    for i, s in enumerate(index.samples):
        vehicle_images.setdefault(s.vehicle_id, []).append(i)
    vehicles = list(vehicle_images)
    if gallery_size < 1 or gallery_size > len(vehicles):
        raise ConfigError(f"gallery_size {gallery_size} not in [1, {len(vehicles)}]; "
                          f"choose a size up to the number of test vehicles")

    per_repeat: list[dict] = []
    for r in range(repeats):
        rng = rng_for(seed, r)
        chosen = rng.choice(len(vehicles), size=gallery_size, replace=False)
        gallery: list[int] = []
        query_ids: list[int] = []
        for v in chosen:
            images = vehicle_images[vehicles[v]]
            pick = int(rng.integers(len(images)))
            gallery.append(images[pick])
            query_ids.extend(img for k, img in enumerate(images) if k != pick)
        gallery_feats = index.features[gallery]
        gallery_vehicles = [index.samples[i].vehicle_id for i in gallery]
        ap_values, ranks, skipped = _evaluate_queries(
            gallery_feats, gallery_vehicles, index.features[query_ids],
            [index.samples[i].vehicle_id for i in query_ids])
        mean_ap, cmc = _metrics(ap_values, ranks)
        per_repeat.append({"repeat": r, "seed": [seed, r], "map": mean_ap,
                           "cmc": {str(k): v for k, v in sorted(cmc.items())},
                           "queries": len(ap_values), "skipped": skipped,
                           "gallery": [int(i) for i in gallery]})

    mean_map = float(np.mean([p["map"] for p in per_repeat]))
    cmc = {k: float(np.mean([p["cmc"][str(k)] for p in per_repeat])) for k in (1, 5)}
    counts = {"gallery": gallery_size, "repeats": repeats,
              "queries_total": sum(p["queries"] for p in per_repeat),
              "zero_features": index.zero_count}
    return EvaluationReport(protocol="vehicleid", map=mean_map, cmc=cmc,
                            counts=counts, repeats=per_repeat, seed=seed)
