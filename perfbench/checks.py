"""Correctness gate of the benchmark.

Every check is one operation: ``Gate.check`` counts it as attempted and, if
it fails, as failed. A check that raises counts as failed instead of ending
the run. The retrieval recomputations below are independent of hareid's
ranking code and follow the conventions of ``tests/bruteforce.py``:
descending cosine similarity, exact ties broken toward the smaller gallery
id, queries without a relevant item skipped, and (image-to-track) tracks
holding an image from the query's camera excluded. They start from the same
similarity values the protocols compute, so a correct protocol matches them
exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Unit roundoff of float64. Reordering a sum of n terms moves it by at most
# about n * U relative; the longest reductions in training are batch * H =
# 64 * 1024 terms. The reference traces allow 1e4 times that bound for
# propagation through the optimizer steps, still far below the 1e-3 relative
# change a wrong gradient or update produces in one epoch.
U = 2.0 ** -53
REFERENCE_RTOL = 1e4 * 64 * 1024 * U
# A normalized feature is o2 / ||o2||, whose norm is 1 to a few ulps.
NORM_TOL = 1e-12


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def run(self, name: str, fn, *args) -> None:
        """Call ``fn(self, *args)``; an exception counts as one failed check."""
        try:
            fn(self, *args)
        except Exception as exc:  # noqa: BLE001 - a crash in a check is a failure
            self.check(name, False, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# Training


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]


def reference_trace(hareid, config: dict) -> list[list[float]]:
    """Loss trace of the fixed reference training run described by ``config``."""
    data, model, optim = hareid.data, hareid.model, hareid.optim
    ds = data.synth_generate(data.SynthConfig(), seed=config["seed"])
    items = data.training_items(ds.split, ds.maps)[:config["items"]]
    net = model.Model(model.ModelConfig(num_models=ds.split.num_models,
                                        num_vehicles=ds.split.num_vehicles, d=ds.maps.shape[-1],
                                        hidden=config["hidden"], seed=config["seed"]))
    result = optim.train(net, items, optim.TrainSchedule(batch_size=config["batch_size"],
                                                         epochs=config["epochs"]),
                         seed=config["seed"])
    return [[r.total, r.model, r.vehicle] for _, r in result.trace]


def check_reference(gate: Gate, hareid, reference: dict, scale: float = 1.0) -> None:
    """The reference run's loss trace matches the recorded one, epoch by epoch.

    ``scale`` multiplies the recorded trace; anything but 1 breaks it on
    purpose, to test that the gate catches a mismatch.
    """
    got = reference_trace(hareid, reference["config"])
    want = [[v * scale for v in row] for row in reference["trace"]]
    gate.check("reference epochs", len(got) == len(want), f"{len(got)} != {len(want)}")
    for epoch, (g, w) in enumerate(zip(got, want)):
        ok = all(math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
                 for a, b in zip(g, w))
        gate.check(f"reference loss epoch {epoch}", ok, f"{g} vs {w}")


def check_losses_finite(gate: Gate, trace) -> None:
    for epoch, report in trace:
        gate.check(f"loss finite epoch {epoch}",
                   all(math.isfinite(v) for v in (report.total, report.model, report.vehicle)),
                   f"{report}")


# ---------------------------------------------------------------------------
# Files


def check_checkpoint(gate: Gate, hareid, path, config, params, opt, epoch, seed) -> None:
    """Loading a saved checkpoint gives back exactly what was saved, and
    saving the loaded checkpoint reproduces the file byte for byte."""
    ckpt = hareid.checkpoint.load_checkpoint(path)
    ok = (ckpt.config.to_text() == config.to_text() and ckpt.epoch == epoch
          and ckpt.seed == seed and list(ckpt.params) == list(params)
          and all(np.array_equal(ckpt.params[k], params[k].data) for k in params))
    if opt is not None:
        ok = ok and ckpt.opt is not None and all(np.array_equal(ckpt.opt.v[k], opt.v[k])
                                                 for k in params)
    resaved = Path(path).with_suffix(".resaved")
    hareid.checkpoint.save_checkpoint(resaved, ckpt.config, ckpt.params, ckpt.opt,
                                      ckpt.epoch, ckpt.seed)
    ok = ok and Path(path).read_bytes() == resaved.read_bytes()
    resaved.unlink()
    gate.check("checkpoint round trip", ok)


def check_float32_round_trip(gate: Gate, name: str, written: np.ndarray,
                             loaded: np.ndarray) -> None:
    """DESC1 and FEAT1 store float32: reading back gives the float32 rounding
    of what was written, exactly."""
    expected = np.asarray(written, dtype=np.float64).astype("<f4").astype(np.float64)
    gate.check(f"{name} round trip", loaded.shape == expected.shape
               and np.array_equal(loaded, expected))


def check_features(gate: Gate, features: np.ndarray, normalized: np.ndarray) -> None:
    """One operation per feature: unit norm, or a zero vector flagged as such."""
    norms = np.linalg.norm(features, axis=1)
    ok = np.where(normalized, np.abs(norms - 1.0) <= NORM_TOL, norms == 0.0)
    for i in np.flatnonzero(~ok):
        gate.check(f"feature {i}", False, f"norm {norms[i]!r}, flagged {bool(normalized[i])}")
    gate.attempted += int(ok.sum())


# ---------------------------------------------------------------------------
# Retrieval


def _ranked_relevance(scores, relevant) -> list[bool]:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [relevant[i] for i in order]


def _ap_and_first_hit(relevance) -> tuple[float | None, int | None]:
    hits = 0
    acc = 0.0
    first = None
    for k, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            acc += hits / k
            if first is None:
                first = k
    return (None, None) if hits == 0 else (acc / hits, first)


def check_veri_queries(gate: Gate, hareid, index, queries) -> None:
    """Per sampled query: the protocol's AP (its mAP over that one query)
    and CMC@1/@5 agree with a plain-loop recomputation."""
    samples = index.samples
    tracks: dict[str, list[int]] = {}
    for i, s in enumerate(samples):
        tracks.setdefault(s.track_id, []).append(i)
    for qi in queries:
        q = samples[qi]
        sims = index.features @ index.features[qi]
        scores, relevant = [], []
        for members in tracks.values():
            if any(samples[i].camera_id == q.camera_id for i in members):
                continue
            best = sims[members[0]]
            for i in members[1:]:
                if sims[i] > best:
                    best = sims[i]
            scores.append(best)
            relevant.append(samples[members[0]].vehicle_id == q.vehicle_id)
        ap, first = _ap_and_first_hit(_ranked_relevance(scores, relevant))
        report = hareid.retrieval.veri_protocol(index, queries=[qi], track_agg="max")
        if ap is None:
            ok = report.counts["skipped"] == 1 and report.counts["queries"] == 0
        else:
            ok = (report.counts["queries"] == 1 and report.map == ap
                  and report.cmc[1] == float(first <= 1) and report.cmc[5] == float(first <= 5))
        gate.check(f"veri query {qi}", ok, f"AP {report.map!r} vs {ap!r}, "
                   f"CMC {report.cmc} vs first hit {first}")


def check_vehicleid_repeat(gate: Gate, index, report, repeat: int) -> None:
    """Recompute every query of one repeat from its reported gallery and
    compare the repeat's mAP, CMC@1, CMC@5, query and skip counts."""
    samples = index.samples
    rep = report.repeats[repeat]
    gallery = rep["gallery"]
    gallery_vehicles = [samples[g].vehicle_id for g in gallery]
    query_ids = []
    for g in gallery:
        vehicle = samples[g].vehicle_id
        query_ids.extend(i for i, s in enumerate(samples) if s.vehicle_id == vehicle and i != g)
    gallery_feats = index.features[gallery]
    query_feats = index.features[query_ids]
    aps, firsts, skipped = [], [], 0
    for qf, qi in zip(query_feats, query_ids):
        sims = gallery_feats @ qf
        relevant = [v == samples[qi].vehicle_id for v in gallery_vehicles]
        ap, first = _ap_and_first_hit(_ranked_relevance(list(sims), relevant))
        if ap is None:
            skipped += 1
            continue
        aps.append(ap)
        firsts.append(first)
    mean_ap = float(np.mean(aps)) if aps else 0.0
    cmc = {k: (sum(1 for r in firsts if r <= k) / len(firsts) if firsts else 0.0)
           for k in (1, 5)}
    gate.check(f"vehicleid repeat {repeat} mAP", rep["map"] == mean_ap,
               f"{rep['map']!r} vs {mean_ap!r}")
    gate.check(f"vehicleid repeat {repeat} CMC@1", rep["cmc"]["1"] == cmc[1])
    gate.check(f"vehicleid repeat {repeat} CMC@5", rep["cmc"]["5"] == cmc[5])
    gate.check(f"vehicleid repeat {repeat} counts",
               rep["queries"] == len(aps) and rep["skipped"] == skipped)
