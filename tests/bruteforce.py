"""Independent brute-force retrieval enumerator used as a test oracle.

Deliberately written in plain Python loops with no reuse of the library's
ranking code. The only shared conventions are the ones the metrics are
defined by: descending cosine similarity, exact ties broken toward the
smaller gallery id, and queries without a relevant item skipped.
"""

import math

import numpy as np


def bf_normalize(vec):
    norm = math.sqrt(sum(float(x) * float(x) for x in vec))
    if norm == 0.0:
        return [0.0 for _ in vec]
    return [float(x) / norm for x in vec]


def bf_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def bf_order(sims):
    order = []
    remaining = list(range(len(sims)))
    while remaining:
        best = remaining[0]
        for i in remaining[1:]:
            if sims[i] > sims[best]:
                best = i
        order.append(best)
        remaining.remove(best)
    return order


def bf_average_precision(relevance):
    hits = 0
    acc = 0.0
    for k, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            acc += hits / k
    return None if hits == 0 else acc / hits


def bf_metrics(query_feats, query_labels, gallery_feats, gallery_labels, ks=(1, 5)):
    """mAP, CMC@k, and skipped count by full enumeration."""
    gallery = [bf_normalize(g) for g in gallery_feats]
    aps = []
    first_hits = []
    skipped = 0
    for qf, ql in zip(query_feats, query_labels):
        q = bf_normalize(qf)
        sims = [bf_dot(q, g) for g in gallery]
        order = bf_order(sims)
        relevance = [gallery_labels[o] == ql for o in order]
        ap = bf_average_precision(relevance)
        if ap is None:
            skipped += 1
            continue
        aps.append(ap)
        rank = next(k for k, rel in enumerate(relevance, start=1) if rel)
        first_hits.append(rank)
    return bf_summary(aps, first_hits, skipped, ks)


def bf_summary(aps, first_hits, skipped, ks=(1, 5)):
    mean_ap = float(np.mean(aps)) if aps else 0.0
    cmc = {}
    for k in ks:
        if first_hits:
            cmc[k] = sum(1 for r in first_hits if r <= k) / len(first_hits)
        else:
            cmc[k] = 0.0
    return mean_ap, cmc, skipped


def bf_veri(features, vehicles, cameras, tracks, queries):
    """Image-to-track mAP, CMC@k and skipped count by full enumeration.

    Tracks are numbered in order of first appearance; a track holding any
    image from the query's camera is not ranked; a track scores the max of
    its images' similarities to the query.
    """
    unit = [bf_normalize(f) for f in features]
    members = {}
    for i, t in enumerate(tracks):
        members.setdefault(t, []).append(i)
    aps = []
    first_hits = []
    skipped = 0
    for qi in queries:
        scores = []
        relevant = []
        for images in members.values():
            if any(cameras[i] == cameras[qi] for i in images):
                continue
            sims = [bf_dot(unit[qi], unit[i]) for i in images]
            score = sims[0]
            for s in sims[1:]:
                if s > score:
                    score = s
            scores.append(score)
            relevant.append(vehicles[images[0]] == vehicles[qi])
        relevance = [relevant[o] for o in bf_order(scores)]
        ap = bf_average_precision(relevance)
        if ap is None:
            skipped += 1
            continue
        aps.append(ap)
        first_hits.append(next(k for k, rel in enumerate(relevance, start=1) if rel))
    return bf_summary(aps, first_hits, skipped)


def bf_vehicleid_repeat(features, vehicles, gallery):
    """One repeated-gallery repeat from its gallery image ids: every other
    image of each gallery vehicle, in gallery then image order, queries the
    gallery."""
    query_ids = []
    for g in gallery:
        for i, v in enumerate(vehicles):
            if v == vehicles[g] and i != g:
                query_ids.append(i)
    return bf_metrics([features[i] for i in query_ids], [vehicles[i] for i in query_ids],
                      [features[g] for g in gallery], [vehicles[g] for g in gallery])
