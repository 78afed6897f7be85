import math

import numpy as np
import pytest

from bruteforce import bf_metrics, bf_vehicleid_repeat, bf_veri
from hareid.data import LabeledSample
from hareid.errors import ConfigError, ShapeError, ValidationError
from hareid.retrieval import (EvaluationReport, RetrievalIndex, average_precision,
                              cmc_at_k, first_hit_rank, image_retrieval_metrics,
                              rank_items, vehicleid_protocol, veri_protocol)


def sample(vehicle, camera=None, track=None, source="0"):
    return LabeledSample(source=source, vehicle_id=vehicle, model_id="m",
                         camera_id=camera, track_id=track)


def cosine(u, v):
    """Cosine similarity as retrieval computes it: the dot product of two
    unit rows of an index."""
    index = RetrievalIndex.build(np.array([u, v], dtype=float), [sample("a"), sample("b")])
    return float(index.features[0] @ index.features[1])


class TestCosine:
    def test_equal_vectors(self):
        u = np.array([0.3, -1.2, 2.0])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0 / math.sqrt(2.0),
                                                               abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            RetrievalIndex.build(np.array([1.0, 2.0]), [sample("a"), sample("b")])


class TestAveragePrecision:
    def test_single_relevant(self):
        assert average_precision([True]) == 1.0

    def test_hand_case(self):
        # Prefix precisions at the relevant ranks: 1/1 and 2/3.
        assert average_precision([1, 0, 1]) == pytest.approx((1.0 + 2.0 / 3.0) / 2.0,
                                                             abs=1e-12)
        assert average_precision([1, 0, 1]) == pytest.approx(0.833333, abs=1e-6)

    def test_late_hit(self):
        assert average_precision([0, 0, 1]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_no_relevant_is_none(self):
        assert average_precision([0, 0, 0]) is None


class TestCmc:
    def test_all_top1(self):
        assert cmc_at_k([1, 1], 1) == 1.0

    def test_mixed_ranks(self):
        assert cmc_at_k([3, 1], 1) == 0.5
        assert cmc_at_k([3, 1], 5) == 1.0

    def test_k_zero(self):
        assert cmc_at_k([1, 2], 0) == 0.0

    def test_nondecreasing_in_k(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(1, 20, size=50)
        values = [cmc_at_k(ranks, k) for k in range(0, 25)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestRanking:
    def test_tie_breaks_toward_smaller_id(self):
        assert rank_items([0.5, 0.7, 0.5]).tolist() == [1, 0, 2]

    def test_descending(self):
        assert rank_items([0.1, 0.9, 0.5]).tolist() == [1, 2, 0]

    def test_signed_zeros_tie(self):
        assert rank_items([-0.0, 0.0, -1.0, 0.0]).tolist() == [0, 1, 3, 2]


class TestFirstHitRank:
    def test_first_relevant_rank(self):
        assert first_hit_rank([0, 0, 1, 1]) == 3

    def test_no_relevant_is_none(self):
        assert first_hit_rank([False, False]) is None
        assert first_hit_rank([]) is None


class TestIndex:
    def test_rows_are_normalized(self):
        idx = RetrievalIndex.build(np.array([[3.0, 4.0], [0.0, 2.0]]),
                                   [sample("a"), sample("b")])
        np.testing.assert_allclose(np.linalg.norm(idx.features, axis=1), 1.0, atol=1e-12)

    def test_zero_rows_counted(self):
        idx = RetrievalIndex.build(np.array([[0.0, 0.0], [1.0, 0.0]]),
                                   [sample("a"), sample("b")])
        assert idx.zero_count == 1
        np.testing.assert_array_equal(idx.features[0], [0.0, 0.0])

    def test_count_mismatch(self):
        with pytest.raises(ValidationError):
            RetrievalIndex.build(np.ones((2, 3)), [sample("a")])


def veri_fixture(sims_by_track):
    """One query (vehicle A, camera c0) and three single-image gallery tracks
    with prescribed similarities; track 0 and 2 belong to vehicle A."""
    angle = {t: math.acos(s) for t, s in enumerate(sims_by_track)}
    feats = [np.array([1.0, 0.0])]
    meta = [sample("A", camera="c0", track="tq")]
    for t, (vehicle, cam) in enumerate([("A", "c1"), ("B", "c1"), ("A", "c2")]):
        feats.append(np.array([math.cos(angle[t]), math.sin(angle[t])]))
        meta.append(sample(vehicle, camera=cam, track=f"t{t}"))
    return RetrievalIndex.build(np.stack(feats), meta)


class TestVeriProtocol:
    def test_perfect_single_query(self):
        idx = veri_fixture([0.9, 0.5, 0.8])
        report = veri_protocol(idx, queries=[0])
        assert report.map == 1.0
        assert report.cmc[1] == 1.0
        assert report.counts["queries"] == 1

    def test_relevant_at_ranks_one_and_three(self):
        # Similarities order the tracks A(0.9) > B(0.5) > A(0.3).
        idx = veri_fixture([0.9, 0.5, 0.3])
        report = veri_protocol(idx, queries=[0])
        assert report.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert report.cmc[1] == 1.0

    def test_same_camera_tracks_never_ranked(self):
        # All gallery tracks share the query camera: the query is skipped.
        feats = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]])
        meta = [sample("A", camera="c0", track="tq"),
                sample("A", camera="c0", track="t1"),
                sample("B", camera="c0", track="t2")]
        report = veri_protocol(RetrievalIndex.build(feats, meta), queries=[0])
        assert report.counts["skipped"] == 1
        assert report.counts["queries"] == 0

    def test_own_track_excluded_via_camera_rule(self):
        idx = veri_fixture([0.9, 0.5, 0.8])
        report = veri_protocol(idx, queries=[0])
        # Gallery has 4 tracks total; the query's own track shares its camera.
        assert report.counts["gallery_tracks"] == 4

    def test_missing_metadata(self):
        idx = RetrievalIndex.build(np.ones((1, 2)), [sample("A")])
        with pytest.raises(ValidationError):
            veri_protocol(idx)

    def test_mixed_vehicle_track_rejected(self):
        feats = np.ones((2, 2))
        meta = [sample("A", camera="c0", track="t0"),
                sample("B", camera="c1", track="t0")]
        with pytest.raises(ValidationError, match="mixes"):
            veri_protocol(RetrievalIndex.build(feats, meta))

    def test_track_max_aggregation(self):
        # Vehicle A's cross-camera track holds one bad and one good image;
        # max aggregation must use the good one and beat vehicle B.
        feats = np.array([[1.0, 0.0],
                          [0.0, 1.0], [0.95, math.sqrt(1 - 0.95 ** 2)],
                          [0.9, math.sqrt(1 - 0.81)]])
        meta = [sample("A", camera="c0", track="tq"),
                sample("A", camera="c1", track="tA"), sample("A", camera="c1", track="tA"),
                sample("B", camera="c1", track="tB")]
        idx = RetrievalIndex.build(feats, meta)
        report_max = veri_protocol(idx, queries=[0], track_agg="max")
        assert report_max.cmc[1] == 1.0
        report_mean = veri_protocol(idx, queries=[0], track_agg="mean")
        assert report_mean.cmc[1] == 0.0  # (0 + 0.95)/2 < 0.9

    def test_unknown_aggregation(self):
        with pytest.raises(ConfigError):
            veri_protocol(veri_fixture([0.9, 0.5, 0.8]), track_agg="median")


def perfect_index(vehicles=2, images=2, dim=None):
    dim = dim or vehicles
    feats, meta = [], []
    for v in range(vehicles):
        for i in range(images):
            one_hot = np.zeros(dim)
            one_hot[v] = 1.0
            feats.append(one_hot)
            meta.append(sample(f"v{v}", source=str(len(feats))))
    return RetrievalIndex.build(np.stack(feats), meta)


class TestVehicleIdProtocol:
    def test_perfect_features(self):
        report = vehicleid_protocol(perfect_index(), gallery_size=2, repeats=10, seed=0)
        assert report.map == 1.0
        assert report.cmc[1] == 1.0
        assert all(p["cmc"]["1"] == 1.0 for p in report.repeats)

    def test_random_features_two_vehicle_gallery_is_a_coin_flip(self):
        rng = np.random.default_rng(1)
        feats, meta = [], []
        for v in range(6):
            for i in range(3):
                feats.append(rng.normal(size=16))
                meta.append(sample(f"v{v}", source=str(len(feats))))
        idx = RetrievalIndex.build(np.stack(feats), meta)
        report = vehicleid_protocol(idx, gallery_size=2, repeats=200, seed=2)
        assert report.cmc[1] == pytest.approx(0.5, abs=0.1)

    def test_same_seed_identical_gallery_choices(self):
        runs = [vehicleid_protocol(perfect_index(vehicles=5, images=3), gallery_size=4,
                                   repeats=6, seed=11) for _ in range(2)]
        for a, b in zip(runs[0].repeats, runs[1].repeats):
            assert a["gallery"] == b["gallery"]
            assert a["seed"] == b["seed"]

    def test_different_repeats_use_different_galleries(self):
        report = vehicleid_protocol(perfect_index(vehicles=6, images=3), gallery_size=3,
                                    repeats=8, seed=3)
        galleries = {tuple(p["gallery"]) for p in report.repeats}
        assert len(galleries) > 1

    def test_gallery_size_too_large(self):
        with pytest.raises(ConfigError, match="gallery_size"):
            vehicleid_protocol(perfect_index(), gallery_size=7)


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for case in range(200):
            n_gallery = int(rng.integers(1, 11))
            n_query = int(rng.integers(1, 6))
            dim = int(rng.integers(2, 5))
            labels_g = [f"v{rng.integers(4)}" for _ in range(n_gallery)]
            labels_q = [f"v{rng.integers(4)}" for _ in range(n_query)]
            gallery = rng.normal(size=(n_gallery, dim))
            queries = rng.normal(size=(n_query, dim))
            if case % 5 == 0 and n_gallery >= 2:
                gallery[1] = gallery[0]  # exact duplicate: exercises the tie rule
                labels_g[1] = labels_g[0]
            report = image_retrieval_metrics(queries, labels_q, gallery, labels_g)
            bf_map, bf_cmc, bf_skipped = bf_metrics(queries, labels_q, gallery, labels_g)
            assert report.map == bf_map, f"case {case}"
            assert report.cmc[1] == bf_cmc[1] and report.cmc[5] == bf_cmc[5], f"case {case}"
            assert report.counts["skipped"] == bf_skipped, f"case {case}"


def random_protocol_instance(rng):
    """Features and track metadata in shuffled order: vehicles with one to
    three tracks of one to three images, each track under a random camera.
    One feature row duplicates another (exact ties) and one is zero; a
    vehicle seen by one camera only leaves its queries nothing to rank."""
    rows = []
    for v in range(int(rng.integers(2, 6))):
        for t in range(int(rng.integers(1, 4))):
            camera = f"c{rng.integers(3)}"
            rows += [(f"v{v}", camera, f"v{v}_t{t}")] * int(rng.integers(1, 4))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    feats = rng.normal(size=(len(rows), int(rng.integers(2, 5))))
    if len(rows) >= 3:
        feats[-1] = feats[0]
        feats[1] = 0.0
    meta = [sample(v, camera=c, track=t, source=str(i)) for i, (v, c, t) in enumerate(rows)]
    return feats, meta


class TestProtocolOracle:
    @pytest.mark.parametrize("agg", ["max", "mean"])
    def test_veri_matches_brute_force(self, agg):
        rng = np.random.default_rng(8)
        skipped = 0
        for case in range(150):
            feats, meta = random_protocol_instance(rng)
            queries = range(len(meta)) if case % 3 else sorted(
                {int(q) for q in rng.integers(len(meta), size=3)})
            report = veri_protocol(RetrievalIndex.build(feats, meta), queries=queries,
                                   track_agg=agg)
            bf_map, bf_cmc, bf_skipped = bf_veri(
                feats, [s.vehicle_id for s in meta], [s.camera_id for s in meta],
                [s.track_id for s in meta], queries, agg)
            assert report.map == bf_map, f"case {case}"
            assert report.cmc == bf_cmc, f"case {case}"
            assert report.counts["skipped"] == bf_skipped, f"case {case}"
            assert report.counts["queries"] + bf_skipped == len(queries), f"case {case}"
            skipped += bf_skipped
        assert skipped > 0

    def test_vehicleid_repeats_match_brute_force(self):
        rng = np.random.default_rng(9)
        for case in range(100):
            feats, meta = random_protocol_instance(rng)
            vehicles = [s.vehicle_id for s in meta]
            gallery_size = int(rng.integers(1, len(set(vehicles)) + 1))
            report = vehicleid_protocol(RetrievalIndex.build(feats, meta), gallery_size,
                                        repeats=3, seed=case)
            for rep in report.repeats:
                gallery_vehicles = [vehicles[g] for g in rep["gallery"]]
                assert len(set(gallery_vehicles)) == gallery_size
                bf_map, bf_cmc, bf_skipped = bf_vehicleid_repeat(feats, vehicles,
                                                                 rep["gallery"])
                assert rep["map"] == bf_map, f"case {case}"
                assert rep["cmc"] == {str(k): v for k, v in bf_cmc.items()}, f"case {case}"
                assert rep["skipped"] == bf_skipped, f"case {case}"


class TestScaleInvariance:
    def test_rescaling_features_changes_nothing(self):
        rng = np.random.default_rng(5)
        feats, meta = [], []
        for v in range(5):
            for _ in range(3):
                feats.append(rng.normal(size=8) + 0.3)
                meta.append(sample(f"v{v}", source=str(len(feats))))
        feats = np.stack(feats)
        base = vehicleid_protocol(RetrievalIndex.build(feats, meta), gallery_size=4,
                                  repeats=5, seed=6)
        for c in (0.5, 2.0, 3.7, 1e6):
            scaled = vehicleid_protocol(RetrievalIndex.build(c * feats, meta),
                                        gallery_size=4, repeats=5, seed=6)
            assert scaled.map == base.map
            assert scaled.cmc == base.cmc

    def test_report_json_is_deterministic(self):
        report = EvaluationReport(protocol="image", map=0.5, cmc={1: 0.4, 5: 0.9},
                                  counts={"queries": 3})
        assert report.to_json() == report.to_json()
        assert '"1": 0.4' in report.to_json()
