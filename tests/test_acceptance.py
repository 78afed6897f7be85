"""Acceptance gate: every criterion at its stated tolerance.

The synthetic end-to-end runs (ordering and attention localization) share one
module-scoped fixture that trains all three variants on three seeds; expect
roughly four minutes for it on one core.
"""

import math
import time

import numpy as np
import pytest

from bruteforce import bf_metrics
from conftest import record_criterion
from hareid import attention as att
from hareid import autodiff as ad
from hareid import cli
from hareid.backbone import ActivationMap
from hareid.data import SynthConfig, sample_input, synth_generate
from hareid.gru import LossReport, hierarchical_loss
from hareid.model import Model, ModelConfig
from hareid.optim import TrainSchedule, lr_schedule
from hareid.retrieval import (RetrievalIndex, image_retrieval_metrics,
                              vehicleid_protocol, veri_protocol)


@pytest.fixture(scope="module")
def synthetic_matrix():
    """Train all three variants on three seeds at the acceptance scale."""
    t0 = time.time()
    cmc1 = {"rnn_ha": [], "fc_ha": [], "rnn_h_no_attention": []}
    hit_rates = []
    for seed in (0, 1, 2):
        ds = synth_generate(SynthConfig(), seed=seed)
        for variant in cmc1:
            model, report = cli.run_variant(ds.split, ds.maps, variant, seed, hidden=64,
                                            schedule=TrainSchedule(epochs=20, batch_size=64),
                                            gallery_size=ds.split.num_vehicles,
                                            repeats=10, eval_seed=123)
            cmc1[variant].append(report.cmc[1])
            if variant == "rnn_ha":
                hits = sum(model.forward(sample_input(s, ds.maps)).attention.argmax_cell()
                           == ds.signature_cells[s.vehicle_id] for s in ds.split.test)
                hit_rates.append(hits / len(ds.split.test))
    return {"cmc1": cmc1, "hit_rates": hit_rates, "elapsed": time.time() - t0}


class TestGradientCorrectness:
    def test_gradcheck_all_variants(self, capsys):
        t0 = time.time()
        code = cli.main(["gradcheck"])  # defaults: grid 2, d 4, H 8, C 3/6, tol 1e-4
        elapsed = time.time() - t0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
        ok = (code == 0 and elapsed < 60.0 and len(lines) >= 3 * 13
              and all("PASS" in l for l in lines))
        record_criterion("gradient correctness (< 1e-4, < 60 s)", ok)
        assert code == 0
        assert elapsed < 60.0
        assert all("PASS" in l for l in lines)


class TestAttentionDistribution:
    def test_thousand_random_draws(self):
        rng = np.random.default_rng(2024)
        ok = True
        for _ in range(1000):
            h = int(rng.integers(1, 7))
            gw = int(rng.integers(1, 7))
            d = int(rng.integers(1, 9))
            amap = ActivationMap(ad.constant(rng.uniform(-3, 3, size=(h, gw, d))))
            w = ad.constant(rng.uniform(-3, 3, size=d))
            a = att.normalize_scores(att.attention_scores(w, amap)).data
            ok &= abs(a.sum() - 1.0) < 1e-9 and bool(np.all(a > 0))
        ok &= att.DEFAULT_EPSILON == 0.1
        record_criterion("attention distribution (sum 1 within 1e-9, eps = 0.1)", ok)
        assert ok


class TestLossIdentity:
    def test_thousand_random_batches(self):
        rng = np.random.default_rng(99)
        ok = True
        for _ in range(1000):
            reports = []
            for _ in range(int(rng.integers(1, 5))):
                lm = ad.constant(rng.uniform(-4, 4, size=7))
                lv = ad.constant(rng.uniform(-4, 4, size=13))
                total, rep = hierarchical_loss(lm, int(rng.integers(7)),
                                               lv, int(rng.integers(13)))
                ok &= rep.total == rep.model + rep.vehicle
                ok &= total.item() == rep.total
                reports.append(rep)
            batch = LossReport.mean(reports)
            ok &= batch.total == batch.model + batch.vehicle
        record_criterion("loss identity (total = model + vehicle, bit-exact)", ok)
        assert ok

    def test_zero_parameter_model(self):
        expected = math.log(3.0) + math.log(6.0)
        ok = True
        for variant in ("rnn_ha", "fc_ha", "rnn_h_no_attention"):
            model = Model(ModelConfig(num_models=3, num_vehicles=6, d=4, hidden=8,
                                      variant=variant, seed=0))
            for t in model.params().values():
                t.data[:] = 0.0
            amap = np.random.default_rng(1).uniform(-1, 1, size=(2, 2, 4))
            total, _, _ = model.loss(amap, 0, 0)
            ok &= abs(total.item() - expected) < 1e-12
        record_criterion("loss identity (zero params -> ln Cm + ln Cv within 1e-12)", ok)
        assert ok


class TestMetricOracle:
    def test_exact_equivalence_on_200_instances(self):
        rng = np.random.default_rng(7531)
        ok = True
        for case in range(200):
            n_gallery = int(rng.integers(1, 11))
            n_query = int(rng.integers(1, 6))
            dim = int(rng.integers(2, 6))
            labels_g = [f"v{rng.integers(5)}" for _ in range(n_gallery)]
            labels_q = [f"v{rng.integers(5)}" for _ in range(n_query)]
            gallery = rng.normal(size=(n_gallery, dim))
            queries = rng.normal(size=(n_query, dim))
            if case % 4 == 0 and n_gallery >= 2:
                gallery[-1] = gallery[0]
                labels_g[-1] = labels_g[0]
            report = image_retrieval_metrics(queries, labels_q, gallery, labels_g)
            bf_map, bf_cmc, bf_skip = bf_metrics(queries, labels_q, gallery, labels_g)
            ok &= (report.map == bf_map and report.cmc[1] == bf_cmc[1]
                   and report.cmc[5] == bf_cmc[5]
                   and report.counts["skipped"] == bf_skip)
        record_criterion("metric oracle equivalence (200 instances, exact)", ok)
        assert ok


class TestScaleInvariance:
    def test_rescaled_features_bit_identical(self):
        rng = np.random.default_rng(31)
        feats, samples = [], []
        from hareid.data import LabeledSample
        for v in range(6):
            for i in range(3):
                feats.append(rng.normal(size=8))
                samples.append(LabeledSample(str(len(feats)), f"v{v}", "m0",
                                             f"c{i % 2}", f"v{v}_c{i % 2}"))
        feats = np.stack(feats)
        ok = True
        base_v = vehicleid_protocol(RetrievalIndex.build(feats, samples),
                                    gallery_size=5, repeats=4, seed=3)
        base_t = veri_protocol(RetrievalIndex.build(feats, samples))
        for c in (0.5, 2.0, 3.7, 1e6, 1e-6):
            scaled_v = vehicleid_protocol(RetrievalIndex.build(c * feats, samples),
                                          gallery_size=5, repeats=4, seed=3)
            scaled_t = veri_protocol(RetrievalIndex.build(c * feats, samples))
            ok &= scaled_v.map == base_v.map and scaled_v.cmc == base_v.cmc
            ok &= scaled_t.map == base_t.map and scaled_t.cmc == base_t.cmc
        record_criterion("scale invariance (mAP/CMC bit-identical under c > 0)", ok)
        assert ok


class TestProtocolFidelity:
    def test_repeat_selections_reproducible(self):
        rng = np.random.default_rng(41)
        from hareid.data import LabeledSample
        feats, samples = [], []
        for v in range(8):
            for i in range(4):
                feats.append(rng.normal(size=6))
                samples.append(LabeledSample(str(len(feats)), f"v{v}", "m0"))
        runs = [vehicleid_protocol(RetrievalIndex.build(np.stack(feats), samples),
                                   gallery_size=6, repeats=10, seed=17)
                for _ in range(2)]
        ok = all(a["gallery"] == b["gallery"] and a["seed"] == b["seed"]
                 for a, b in zip(runs[0].repeats, runs[1].repeats))
        ok &= len(runs[0].repeats) == 10
        record_criterion("protocol fidelity (identical per-repeat galleries)", ok)
        assert ok

    def test_same_camera_tracks_never_ranked(self):
        # The same-camera track is the single best cosine match; correct
        # behavior excludes it, so metrics must equal the brute-force result
        # on the explicitly filtered candidate set.
        from hareid.data import LabeledSample
        feats = np.array([[1.0, 0.0], [0.999, 0.04], [0.8, 0.6], [0.0, 1.0]])
        samples = [LabeledSample("0", "A", "m", "c0", "tq"),
                   LabeledSample("1", "A", "m", "c0", "t_same_cam"),
                   LabeledSample("2", "A", "m", "c1", "t_cross"),
                   LabeledSample("3", "B", "m", "c1", "t_other")]
        report = veri_protocol(RetrievalIndex.build(feats, samples), queries=[0])
        # Candidates after the camera rule: t_cross (relevant) and t_other.
        norm = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        bf_map, bf_cmc, _ = bf_metrics([norm[0]], ["A"], norm[2:], ["A", "B"])
        ok = (report.map == bf_map == 1.0 and report.cmc[1] == bf_cmc[1] == 1.0
              and report.counts["gallery_tracks"] == 4)
        # With every candidate sharing the query camera the query is skipped.
        only_same = [LabeledSample("0", "A", "m", "c0", "tq"),
                     LabeledSample("1", "A", "m", "c0", "t1")]
        skipped = veri_protocol(RetrievalIndex.build(feats[:2], only_same), queries=[0])
        ok &= skipped.counts["skipped"] == 1 and skipped.counts["queries"] == 0
        record_criterion("protocol fidelity (same-camera tracks never ranked)", ok)
        assert ok


class TestSyntheticOrdering:
    def test_variant_ordering_and_absolute_level(self, synthetic_matrix):
        means = {v: float(np.mean(vals)) for v, vals in synthetic_matrix["cmc1"].items()}
        elapsed = synthetic_matrix["elapsed"]
        ok = (means["rnn_ha"] >= means["rnn_h_no_attention"] + 0.05
              and means["rnn_h_no_attention"] >= means["fc_ha"]
              and means["rnn_ha"] >= 0.85
              and elapsed < 15 * 60)
        record_criterion(
            f"synthetic ordering (rnn_ha {means['rnn_ha']:.3f} >= "
            f"rnn_h {means['rnn_h_no_attention']:.3f} + 0.05 >= "
            f"fc_ha {means['fc_ha']:.3f}; rnn_ha >= 0.85; {elapsed:.0f}s)", ok)
        assert means["rnn_ha"] >= means["rnn_h_no_attention"] + 0.05
        assert means["rnn_h_no_attention"] >= means["fc_ha"]
        assert means["rnn_ha"] >= 0.85
        assert elapsed < 15 * 60


class TestAttentionLocalization:
    def test_argmax_matches_signature_cell(self, synthetic_matrix):
        mean_hit = float(np.mean(synthetic_matrix["hit_rates"]))
        ok = mean_hit >= 0.80
        record_criterion(f"attention localization (hit rate {mean_hit:.3f} >= 0.80)", ok)
        assert ok


class TestScheduleFidelity:
    def test_exact_rates(self):
        schedule = TrainSchedule()
        ok = all(lr_schedule(e, schedule) == 0.001 for e in range(5))
        ok &= all(lr_schedule(e, schedule) == 0.0001 for e in range(5, 30))
        record_criterion("schedule fidelity (1e-3 for epochs 0-4, 1e-4 from 5)", ok)
        assert ok


class TestDeterminism:
    def test_two_full_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for name in ("run_a", "run_b"):
            root = tmp_path / name
            data_dir = root / "data"
            assert cli.main(["synth", "--out", str(data_dir), "--models", "3",
                             "--vehicles", "2", "--images", "4", "--grid", "3",
                             "--dim", "6", "--seed", "11"]) == 0
            run_dir = root / "train"
            assert cli.main(["train", "--manifest", str(data_dir / "manifest.csv"),
                             "--descriptors", str(data_dir / "descriptors.desc"),
                             "--out-dir", str(run_dir), "--hidden", "8",
                             "--epochs", "3", "--batch-size", "8", "--seed", "11"]) == 0
            feat = root / "features.feat"
            assert cli.main(["extract", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                             "--manifest", str(data_dir / "manifest.csv"),
                             "--descriptors", str(data_dir / "descriptors.desc"),
                             "--out", str(feat)]) == 0
            report_v = root / "vehicleid.json"
            assert cli.main(["eval", "--features", str(feat),
                             "--manifest", str(data_dir / "manifest.csv"),
                             "--protocol", "vehicleid", "--repeats", "5",
                             "--seed", "11", "--out", str(report_v)]) == 0
            report_t = root / "veri.json"
            assert cli.main(["eval", "--features", str(feat),
                             "--manifest", str(data_dir / "manifest.csv"),
                             "--protocol", "veri", "--out", str(report_t)]) == 0
            outputs.append((feat.read_bytes(), report_v.read_bytes(),
                            report_t.read_bytes(),
                            (run_dir / "checkpoint.ckpt").read_bytes()))
        ok = outputs[0] == outputs[1]
        record_criterion("determinism (byte-identical features and reports)", ok)
        assert ok
