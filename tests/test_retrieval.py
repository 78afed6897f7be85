import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bruteforce import bf_metrics, bf_vehicleid_repeat, bf_veri
from hareid import retrieval
from hareid.data import LabeledSample
from hareid.errors import ConfigError, ShapeError, ValidationError
from hareid.model import unit_rows
from hareid.optim import rng_for
from hareid.retrieval import (_BLOCK, _TILE_ELEMENTS, EvaluationReport, RetrievalIndex,
                              _block_queries, _exact_similarities, _tiles,
                              average_precision, cmc_at_k, first_hit_rank,
                              image_retrieval_metrics, rank_items, vehicleid_protocol,
                              veri_protocol)

# OpenBLAS runs a matrix-vector product of up to this many elements on one
# thread; the bits of a larger one depend on the BLAS thread count, so no
# in-process oracle compares against it.
ONE_THREAD_PRODUCT = 400_000


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
        # A track mean, (0 + 0.95)/2 < 0.9, would rank vehicle B first.
        assert veri_protocol(idx, queries=[0]).cmc[1] == 1.0
        assert veri_protocol(idx, queries=[0], track_agg="max").cmc[1] == 1.0

    def test_unknown_aggregation(self):
        # A track scores its best image: "max" is the one aggregation.
        for agg in ("mean", "median"):
            with pytest.raises(ConfigError, match=f"unknown track aggregation '{agg}'"):
                veri_protocol(veri_fixture([0.9, 0.5, 0.8]), track_agg=agg)


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

    def test_one_call_draw_equals_one_call_per_vehicle(self):
        # The protocol draws a repeat's gallery picks with one call; it must
        # give the numbers of one call per vehicle and leave the generator
        # where they leave it. A bound of 1 draws nothing either way.
        sizes = np.random.default_rng(0)
        for key in range(200):
            highs = sizes.integers(1, 40, size=int(sizes.integers(1, 70)))
            highs[::3] = 1
            one_call, per_vehicle = rng_for(key, key % 7), rng_for(key, key % 7)
            assert one_call.integers(highs).tolist() == [int(per_vehicle.integers(h))
                                                         for h in highs], key
            assert one_call.integers(1 << 40) == per_vehicle.integers(1 << 40), key

    @pytest.mark.parametrize("gallery_size", [1, 5, "all"])
    def test_reports_equal_a_per_vehicle_loop(self, gallery_size):
        """Each repeat's gallery is the one a loop over the drawn vehicles
        picks with one ``integers`` call each, and its metrics are the
        brute-force ones of that gallery. On an index with a one-image
        vehicle, whose pick draws nothing."""
        rng = np.random.default_rng(16)
        images = [3, 1, 4, 2, 5, 1, 2, 6, 3]
        vehicles = [f"v{v}" for v in rng.permutation(np.repeat(np.arange(9), images))]
        feats = rng.normal(size=(len(vehicles), 3))
        feats[1::7] = feats[0]  # exact ties, within and across vehicles
        index = RetrievalIndex.build(feats, [sample(v, source=str(i))
                                             for i, v in enumerate(vehicles)])
        size = 9 if gallery_size == "all" else gallery_size
        report = vehicleid_protocol(index, size, repeats=4, seed=21)
        of_vehicle = {}
        for i, v in enumerate(vehicles):
            of_vehicle.setdefault(v, []).append(i)
        by_code = list(of_vehicle.values())
        expected = []
        for r in range(4):
            draw = rng_for(21, r)
            chosen = draw.choice(len(by_code), size=size, replace=False)
            gallery = [by_code[v][int(draw.integers(len(by_code[v])))] for v in chosen]
            bf_map, bf_cmc, bf_skipped = bf_vehicleid_repeat(feats, vehicles, gallery)
            expected.append({"repeat": r, "seed": [21, r], "map": bf_map,
                             "cmc": {str(k): v for k, v in bf_cmc.items()},
                             "queries": sum(len(of_vehicle[vehicles[g]]) - 1
                                            for g in gallery),
                             "skipped": bf_skipped, "gallery": gallery})
        assert report.repeats == expected
        assert report.map == float(np.mean([e["map"] for e in expected]))


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


def random_protocol_instance(rng, vehicles=(2, 6), tracks=(1, 4), images=(1, 4),
                             dims=(2, 5)):
    """Features and track metadata in shuffled order: vehicles with one to
    three tracks of one to three images (or counts drawn from the given
    half-open ranges), each track under a random camera, and features two to
    four wide (or as ``dims`` gives). One feature row
    duplicates another (exact ties) and one is zero; a vehicle seen by one
    camera only leaves its queries nothing to rank."""
    rows = []
    for v in range(int(rng.integers(*vehicles))):
        for t in range(int(rng.integers(*tracks))):
            camera = f"c{rng.integers(3)}"
            rows += [(f"v{v}", camera, f"v{v}_t{t}")] * int(rng.integers(*images))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    feats = rng.normal(size=(len(rows), int(rng.integers(*dims))))
    if len(rows) >= 3:
        feats[-1] = feats[0]
        feats[1] = 0.0
    meta = [sample(v, camera=c, track=t, source=str(i)) for i, (v, c, t) in enumerate(rows)]
    return feats, meta


class TestProtocolOracle:
    @pytest.mark.parametrize("agg", ["max"])
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
                [s.track_id for s in meta], queries)
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


def large_protocol_instance(rng):
    """A random instance whose veri queries, every image against a gallery of
    every image, fill more than two query blocks and end in a partial one,
    with tracks of up to 13 images."""
    feats, meta = random_protocol_instance(rng, vehicles=(17, 18), tracks=(2, 4),
                                           images=(6, 14))
    sizes = Counter(s.track_id for s in meta)
    block = _block_queries(*feats.shape)
    assert len(meta) > 2 * block and len(meta) % block and max(sizes.values()) >= 9
    return feats, meta


class TestProtocolBlocks:
    """Oracle cases spanning several query blocks, and index reuse."""

    @pytest.mark.parametrize("agg", ["max"])
    def test_veri_matches_brute_force_across_blocks(self, agg):
        rng = np.random.default_rng(12)
        for case in range(8):
            feats, meta = large_protocol_instance(rng)
            queries = range(len(meta))
            report = veri_protocol(RetrievalIndex.build(feats, meta), track_agg=agg)
            bf_map, bf_cmc, bf_skipped = bf_veri(
                feats, [s.vehicle_id for s in meta], [s.camera_id for s in meta],
                [s.track_id for s in meta], queries)
            assert report.map == bf_map, f"case {case}"
            assert report.cmc == bf_cmc, f"case {case}"
            assert report.counts["skipped"] == bf_skipped, f"case {case}"
            assert report.counts["queries"] + bf_skipped == len(queries), f"case {case}"

    def test_vehicleid_matches_brute_force_across_blocks(self):
        # 1024-wide features keep 64-query blocks on a gallery of all 12
        # vehicles, so each repeat spans several blocks while the pure-Python
        # oracle ranks only 12 items per query.
        rng = np.random.default_rng(13)
        for case in range(8):
            feats, meta = random_protocol_instance(rng, vehicles=(12, 13), tracks=(2, 3),
                                                   images=(6, 8), dims=(1024, 1025))
            vehicles = [s.vehicle_id for s in meta]
            report = vehicleid_protocol(RetrievalIndex.build(feats, meta),
                                        len(set(vehicles)), repeats=2, seed=case)
            rows = feats.tolist()  # the oracle's loops read Python floats faster
            for rep in report.repeats:
                block = _block_queries(len(rep["gallery"]), feats.shape[1])
                assert rep["queries"] > 2 * block and rep["queries"] % block
                bf_map, bf_cmc, bf_skipped = bf_vehicleid_repeat(rows, vehicles,
                                                                 rep["gallery"])
                assert rep["map"] == bf_map, f"case {case}"
                assert rep["cmc"] == {str(k): v for k, v in bf_cmc.items()}, f"case {case}"
                assert rep["skipped"] == bf_skipped, f"case {case}"

    @pytest.mark.parametrize("agg", ["max"])
    @pytest.mark.parametrize("band", ["bound", "inf"])
    def test_veri_matches_brute_force_on_mixed_track_sizes(self, agg, band, monkeypatch):
        # Each vehicle has tracks of 1, 2, 9 and 17 images, shuffled so that
        # track ids interleave across the size groups of the track layout.
        # Its first and last tracks share a camera, so each excludes the
        # other, and the 17-image track also holds a second camera.
        rng = np.random.default_rng(41)
        rows = []
        for v in range(16):
            for k, size in enumerate(np.roll([1, 2, 9, 17], v)):
                rows += [(f"v{v}", f"c{(k + (size == 17) * (j % 2)) % 3}", f"v{v}_t{k}")
                         for j in range(size)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        feats = rng.normal(size=(len(rows), 4))
        meta = [sample(v, camera=c, track=t, source=str(i)) for i, (v, c, t) in enumerate(rows)]
        index = RetrievalIndex.build(feats, meta)
        assert len(meta) > 3 * _block_queries(*feats.shape)
        assert all(isinstance(tracks, np.ndarray) for tracks, _ in index.track_tables.groups)
        exact_similarities = retrieval._exact_similarities
        recomputed = [0]

        def counted(gallery, features, queries):
            recomputed[0] += len(queries)
            return exact_similarities(gallery, features, queries)

        monkeypatch.setattr(retrieval, "_exact_similarities", counted)
        if band == "inf":
            monkeypatch.setattr(retrieval, "_band", lambda *bound: np.inf)
        report = veri_protocol(index, track_agg=agg)
        assert recomputed[0] == (len(meta) if band == "inf" else 0)
        bf_map, bf_cmc, bf_skipped = bf_veri(
            feats.tolist(), [s.vehicle_id for s in meta], [s.camera_id for s in meta],
            [s.track_id for s in meta], range(len(meta)))
        assert (report.map, report.cmc, report.counts["skipped"]) == (bf_map, bf_cmc, bf_skipped)
        assert report.counts["queries"] == len(meta) - bf_skipped

    def test_reused_index_gives_the_same_reports(self):
        feats, meta = large_protocol_instance(np.random.default_rng(14))
        calls = [veri_protocol,
                 lambda idx: vehicleid_protocol(idx, gallery_size=5, repeats=3, seed=1),
                 lambda idx: veri_protocol(idx, queries=range(70, 140))]
        fresh = [call(RetrievalIndex.build(feats, meta)).as_dict() for call in calls]
        index = RetrievalIndex.build(feats, meta)
        for _ in range(2):
            assert [call(index).as_dict() for call in calls] == fresh

    def test_metadata_errors_raised_on_every_call(self):
        missing = RetrievalIndex.build(np.ones((2, 2)), [sample("A", "c0", "t0"), sample("A")])
        mixed = RetrievalIndex.build(np.ones((2, 2)), [sample("A", "c0", "t0"),
                                                       sample("B", "c1", "t0")])
        for _ in range(2):
            with pytest.raises(ValidationError, match="lacks"):
                veri_protocol(missing)
            with pytest.raises(ValidationError, match="mixes vehicles A and B"):
                veri_protocol(mixed)
        assert vehicleid_protocol(missing, gallery_size=1, repeats=1).counts["queries_total"] == 1

    @pytest.mark.parametrize("queries, named", [([-1], "-1"), ([0, 4], "4"), ([7], "7")])
    def test_query_id_out_of_range(self, queries, named):
        index = veri_fixture([0.9, 0.5, 0.8])
        with pytest.raises(ValidationError, match=f"query id {named} not in"):
            veri_protocol(index, queries=queries)

    def test_query_ids_must_be_integers(self):
        with pytest.raises(ValidationError, match="integers"):
            veri_protocol(veri_fixture([0.9, 0.5, 0.8]), queries=[0.0])


class TestGalleryTiles:
    """Similarities scored over gallery tiles, against one product per query."""

    # Each gallery's one product stays at or under ONE_THREAD_PRODUCT, so the
    # reference's bits do not depend on the BLAS thread count. 16, 64 and 256
    # are VehicleID gallery sizes; each call takes a full block's queries
    # (1024 on the 64x64 gallery), but at most 1024. At d=64 tiles have
    # 2048 rows, at d=100 1024, at d=256 512 and at d=1024 128.
    @pytest.mark.parametrize("n", [0, 1, 16, 64, 256, 1023, 2047, 2048, 2049, 3071,
                                   3072, 4097, 5120, 6147])
    def test_every_row_equals_one_product(self, n):
        rng = np.random.default_rng(n)
        dims = [d for d in (1, 3, 16, 17, 64, 100, 256, 1024) if n * d <= ONE_THREAD_PRODUCT]
        for d in dims:
            gallery = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
            features = rng.normal(size=(_BLOCK + 7, d)).astype(np.float32).astype(np.float64)
            queries = rng.integers(len(features), size=min(_block_queries(n, d), 1024))
            sims = _exact_similarities(gallery, features, queries)
            assert sims.shape == (len(queries), n)
            for qi, row in zip(queries, sims):
                assert np.array_equal(row, gallery @ features[qi]), (n, d, qi)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
    def test_unsigned_query_ids_score_like_signed(self, dtype):
        rng = np.random.default_rng(3)
        feats, meta = random_protocol_instance(rng, vehicles=(20, 21), tracks=(2, 3),
                                               images=(3, 4))
        index = RetrievalIndex.build(feats, meta)
        queries = rng.integers(len(index), size=_BLOCK + 5)
        sims = _exact_similarities(index.features, index.features, queries.astype(dtype))
        for qi, row in zip(queries, sims):
            assert np.array_equal(row, index.features @ index.features[qi])
        assert (veri_protocol(index, queries=queries.astype(dtype)).as_dict()
                == veri_protocol(index, queries=queries.tolist()).as_dict())

    @pytest.mark.parametrize("n, d, size", [(64, 64, 1024), (256, 64, 256), (5120, 64, 64),
                                            (64, 1024, 64)])
    def test_block_size_counts_gallery_rows_and_dims(self, n, d, size):
        assert _block_queries(n, d) == size

        def scored(block, sims):  # each query's one relevant item is item 0
            return sims, np.zeros((len(block), 1), dtype=np.intp), np.ones((len(block), 1), bool)

        blocks = retrieval._ranked(np.zeros((n, d)), np.zeros((1, d)),
                                   np.zeros(2 * size + 5, dtype=np.intp), 0.0, scored)
        assert [len(ranks) for ranks in blocks] == [size, size, 5]

    def test_tile_edges(self):
        # d=64: 2048-row tiles, as the 5120x64 benchmark gallery has always had.
        assert _tiles(3071, 64) == [(0, 3071)]
        assert _tiles(5120, 64) == [(0, 2048), (2048, 4096), (4096, 5120)]
        assert _tiles(6147, 64) == [(0, 2048), (2048, 4096), (4096, 6147)]
        # d=16: 8192 rows; a remainder of half a tile or more is its own tile.
        assert _tiles(12287, 16) == [(0, 12287)]
        assert _tiles(12288, 16) == [(0, 8192), (8192, 12288)]
        # d=1024: 128 rows; a 59-row remainder joins the tile before it.
        assert _tiles(1280, 1024) == [(lo, lo + 128) for lo in range(0, 1280, 128)]
        assert _tiles(191, 1024) == [(0, 191)]
        assert _tiles(192, 1024) == [(0, 128), (128, 192)]
        big = _tiles(11579, 1024)
        assert len(big) == 90 and big[-2:] == [(11264, 11392), (11392, 11579)]
        # Not a power of two, no rows, no dims, wider than the bound.
        assert _tiles(3000, 100) == [(0, 1024), (1024, 2048), (2048, 3000)]
        assert _tiles(0, 64) == [(0, 0)]
        assert _tiles(5, 0) == [(0, 5)]
        assert _tiles(40, 20000) == [(lo, lo + 4) for lo in range(0, 40, 4)]
        # Past d = 32,768 a tile still has 4 rows, over the bound.
        assert _tiles(6, 40000) == [(0, 4), (4, 6)]
        assert _tiles(9, 70000) == [(0, 4), (4, 9)]
        assert _tiles(3, _TILE_ELEMENTS + 1) == [(0, 3)]
        # Tiles cover the gallery in order, start at multiples of a
        # power-of-two row count that fits the bound, and none holds more
        # than 1.5 times the bound.
        for d in (1, 16, 17, 64, 100, 256, 1000, 1024, 20000):
            for n in (0, 1, 2, 3, 7, 100, 1279, 1280, 3071, 3072, 11579):
                tiles = _tiles(n, d)
                assert [lo for lo, _ in tiles] == [0, *(hi for _, hi in tiles[:-1])]
                assert tiles[-1][1] == n
                rows = tiles[0][1] if len(tiles) > 1 else None
                for lo, hi in tiles:
                    assert (hi - lo) * d <= 1.5 * _TILE_ELEMENTS, (n, d, lo, hi)
                    if rows is not None:
                        assert lo % rows == 0 and rows * d <= _TILE_ELEMENTS < 2 * rows * d
                        assert rows & (rows - 1) == 0

    def test_tiled_bits_do_not_depend_on_blas_threads(self):
        """Every tile is a product OpenBLAS runs on one thread, so under one,
        two and four BLAS threads, each in its own process, the similarities
        have the same bytes. In the one-thread process every row equals the
        one product ``gallery @ q``. The one products of 11579x64, 1280x1024,
        11579x1024 and 40x20000 (4-row tiles) are larger than OpenBLAS runs on
        one thread; scored as one product, the first and third give other bytes
        under two threads. 6x40000 and 7x60000 have a 4-row tile and a shorter
        last one; in 2-row and 1-row tiles their rows differed from
        ``gallery @ q``, and 7x60000's bytes under two threads from those under
        one. The rows of 1030 queries on a 64x64 gallery, more than its full
        1024-query block, are covered too."""
        script = (
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from hareid.retrieval import _exact_similarities\n"
            "one_thread = sys.argv[1] == '1'\n"
            "digest = hashlib.sha256()\n"
            "for n, d, queries in ((5120, 64, 70), (64, 64, 1030), (11579, 64, 65),\n"
            "                      (1280, 1024, 65), (11579, 1024, 65), (40, 20000, 65),\n"
            "                      (6, 40000, 65), (7, 60000, 65)):\n"
            "    rng = np.random.default_rng(n + d)\n"
            "    gallery, features = (rng.standard_normal((rows, d), dtype=np.float32)\n"
            "                         .astype(np.float64) for rows in (n, queries))\n"
            "    sims = _exact_similarities(gallery, features, np.arange(queries))\n"
            "    if one_thread:\n"
            "        for qi, row in enumerate(sims):\n"
            "            assert np.array_equal(row, gallery @ features[qi]), (n, d, qi)\n"
            "    digest.update(sims.tobytes())\n"
            "print(digest.hexdigest())\n")
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        digests = []
        for threads in ("1", "2", "4"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, path))}
            proc = subprocess.run([sys.executable, "-c", script, threads], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[1:] == digests[:1] * 2

    def test_report_bytes_do_not_depend_on_blas_threads(self):
        """The GEMM that scores a block first is threaded by OpenBLAS on these
        galleries (64 queries x 2048 rows x d=64, 64 x 1280 x 1024), and its
        bits may depend on the thread count; the ranks, checked against
        ``_band`` and recomputed from the one-thread products where the band
        cannot decide them, do not. So veri, vehicleid and image reports have
        the same bytes under one, two and four BLAS threads, each in its own
        process, on features where some queries fall back (rounded and
        duplicated rows) and on features where few do."""
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from hareid.data import LabeledSample\n"
            "from hareid.retrieval import (RetrievalIndex, image_retrieval_metrics,\n"
            "                              vehicleid_protocol, veri_protocol)\n"
            "digest = hashlib.sha256()\n"
            "for n, d, vehicles in ((2048, 64, 256), (1280, 1024, 160)):\n"
            "    rng = np.random.default_rng(n + d)\n"
            "    meta = [LabeledSample(source=str(i), vehicle_id=f'v{i % vehicles}',\n"
            "                          model_id='m', camera_id=f'c{rng.integers(4)}',\n"
            "                          track_id=f't{i % (2 * vehicles)}') for i in range(n)]\n"
            "    feats = rng.standard_normal((n, d))\n"
            "    feats[:n // 4] = np.rint(feats[:n // 4])\n"
            "    feats[n // 4:n // 2:2] = feats[n // 4 + 1:n // 2:2]\n"
            "    index = RetrievalIndex.build(feats, meta)\n"
            "    queries = np.arange(0, n, 5)\n"
            "    digest.update(veri_protocol(index, queries).to_json().encode())\n"
            "    digest.update(vehicleid_protocol(index, vehicles, 2, 3).to_json().encode())\n"
            "    labels = [s.vehicle_id for s in meta]\n"
            "    digest.update(image_retrieval_metrics(feats[:64], labels[:64], feats,\n"
            "                                          labels).to_json().encode())\n"
            "print(digest.hexdigest())\n")
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        digests = []
        for threads in ("1", "2", "4"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, path))}
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[1:] == digests[:1] * 2

    @pytest.mark.parametrize("agg", ["max"])
    def test_veri_matches_brute_force_across_tiles(self, agg):
        # d=64 gives 2048-row tiles, d=1024 128-row ones.
        rng = np.random.default_rng(15)
        for dims, images in (((64, 65), (20, 41)), ((1024, 1025), (2, 4))):
            feats, meta = random_protocol_instance(rng, vehicles=(48, 49), tracks=(3, 4),
                                                   images=images, dims=dims)
            assert len(_tiles(*feats.shape)) >= 2 and len(meta) >= 300
            queries = sorted(int(q) for q in rng.choice(len(meta), size=5, replace=False))
            report = veri_protocol(RetrievalIndex.build(feats, meta), queries=queries,
                                   track_agg=agg)
            bf_map, bf_cmc, bf_skipped = bf_veri(
                feats, [s.vehicle_id for s in meta], [s.camera_id for s in meta],
                [s.track_id for s in meta], queries)
            assert report.map == bf_map, dims
            assert report.cmc == bf_cmc, dims
            assert report.counts["skipped"] == bf_skipped, dims
            assert report.counts["queries"] + bf_skipped == len(queries), dims

    def test_vehicleid_matches_brute_force_across_tiles(self):
        # A gallery of 200 vehicles at d=1024 is two tiles of 128 and 72 rows.
        rng = np.random.default_rng(18)
        feats, meta = random_protocol_instance(rng, vehicles=(200, 201), tracks=(1, 2),
                                               images=(1, 3), dims=(1024, 1025))
        vehicles = [s.vehicle_id for s in meta]
        assert len(meta) >= 300 and len(_tiles(200, feats.shape[1])) == 2
        report = vehicleid_protocol(RetrievalIndex.build(feats, meta), 200, repeats=1, seed=3)
        rows = feats.tolist()  # the oracle's loops read Python floats faster
        for rep in report.repeats:
            bf_map, bf_cmc, bf_skipped = bf_vehicleid_repeat(rows, vehicles, rep["gallery"])
            assert rep["map"] == bf_map
            assert rep["cmc"] == {str(k): v for k, v in bf_cmc.items()}
            assert rep["skipped"] == bf_skipped


def adversarial_instance(kind: str, d: int):
    """Features and track metadata of about a hundred images in 12 vehicles
    (see ``random_protocol_instance``), made ``kind``: "random", "duplicated"
    (every odd row copies the row before it), "rounded" (integers), "zero"
    (every third row zero) or "nudged" (every odd row is the row before it
    with its first entry moved by one ulp, so its similarities are near ties
    of the other's)."""
    feats, meta = random_protocol_instance(np.random.default_rng(d), vehicles=(12, 13),
                                           tracks=(2, 4), images=(2, 6), dims=(d, d + 1))
    n = len(feats)
    if kind == "duplicated":
        feats[1::2] = feats[0:n - 1:2]
    elif kind == "rounded":
        feats = np.rint(feats)
    elif kind == "zero":
        feats[::3] = 0.0
    elif kind == "nudged":
        feats[1::2] = feats[0:n - 1:2]
        feats[1::2, 0] = np.nextafter(feats[1::2, 0], np.inf)
    return feats, meta


def adversarial_reports(feats, meta) -> list[str]:
    """The JSON of the veri, vehicleid (every vehicle, and a third of them,
    ten repeats each) and image reports of one instance."""
    index = RetrievalIndex.build(feats, meta)
    vehicles = len({s.vehicle_id for s in meta})
    queries = np.arange(0, len(meta), 3)
    gallery = np.setdiff1d(np.arange(len(meta)), queries)
    labels = np.array([s.vehicle_id for s in meta])
    return [report.to_json() for report in (
        veri_protocol(index),
        vehicleid_protocol(index, vehicles, repeats=10, seed=2),
        vehicleid_protocol(index, vehicles // 3, repeats=10, seed=3),
        image_retrieval_metrics(feats[queries], labels[queries], feats[gallery],
                                labels[gallery]))]


class TestFilteredRanking:
    """Ranks from a block's GEMM scores within ``_band``, with the undecided
    queries recomputed exactly, against every query recomputed exactly."""

    @pytest.mark.parametrize("kind, d", [("random", d) for d in (1, 3, 64, 1024, 4096)]
                             + [("duplicated", 64), ("rounded", 8), ("rounded", 64),
                                ("zero", 64), ("nudged", 3), ("nudged", 64),
                                ("nudged", 1024)])
    def test_filtered_reports_equal_exact_ones(self, kind, d, monkeypatch):
        feats, meta = adversarial_instance(kind, d)
        exact_similarities = retrieval._exact_similarities
        recomputed = [0]

        def counted(gallery, features, queries):
            recomputed[0] += len(queries)
            return exact_similarities(gallery, features, queries)

        monkeypatch.setattr(retrieval, "_exact_similarities", counted)
        filtered, filtered_rows = adversarial_reports(feats, meta), recomputed[0]
        recomputed[0] = 0
        monkeypatch.setattr(retrieval, "_band", lambda *bound: np.inf)
        exact, exact_rows = adversarial_reports(feats, meta), recomputed[0]
        assert filtered == exact
        if kind == "random" and d > 1:
            assert filtered_rows < exact_rows / 4  # the band decides most queries
        else:
            assert filtered_rows > 0  # the fallback ran

    @pytest.mark.parametrize("kind", ["random", "rounded"])
    def test_reports_do_not_depend_on_the_slots_of_a_rank_pass(self, kind, monkeypatch):
        # One slot per pass against every slot of a block in one pass, with
        # exact ties broken across passes on the rounded features.
        feats, meta = adversarial_instance(kind, 8)
        whole = adversarial_reports(feats, meta)
        monkeypatch.setattr(retrieval, "_PASS_ELEMENTS", 1)
        assert adversarial_reports(feats, meta) == whole

    def test_a_recomputed_query_may_have_fewer_relevant_items_than_its_block(self):
        # The block's relevant table is three wide (query 1 has three "a"
        # items); query 0's one "b" item ties its duplicate, so query 0 alone
        # is ranked again, from a table one wide.
        rng = np.random.default_rng(31)
        x = rng.normal(size=4)
        gallery = np.stack([x, x, *rng.normal(size=(3, 4))])
        labels = ["b", "c", "a", "a", "a"]
        queries = np.stack([x + 0.1, rng.normal(size=4)])
        report = image_retrieval_metrics(queries, ["b", "a"], gallery, labels)
        bf_map, bf_cmc, bf_skipped = bf_metrics(queries, ["b", "a"], gallery, labels)
        assert (report.map, report.cmc, report.counts["skipped"]) == (bf_map, bf_cmc, 0)

    def test_band_bounds(self):
        # About 6e-14 at d=64 and 9e-13 at d=1024, growing with the width
        # and the squared norm.
        assert 5e-14 < retrieval._band(64, 1.0) < 1e-13
        assert 5e-13 < retrieval._band(1024, 1.0) < 1e-12
        assert retrieval._band(1024, 2.0) == pytest.approx(4 * retrieval._band(1024, 1.0))
        assert retrieval._band(64, 0.0) == 0.0

    def test_near_ties_rank_as_the_exact_similarities_order_them(self):
        # Forty gallery rows within 1e-14 of one another score within a few
        # ulps of each other (and often equal) against queries near them, where
        # a reordered sum such as a GEMM's often swaps or ties two of them. Each
        # query's one relevant item ranks as the tie rule on the exact
        # similarities, the one-thread ``g @ q``, puts it.
        rng = np.random.default_rng(30)
        d = 1024
        base = rng.normal(size=d)
        gallery = np.concatenate([base + 1e-14 * rng.normal(size=(40, d)),
                                  rng.normal(size=(20, d))])
        queries = base + 0.1 * rng.normal(size=(_BLOCK + 6, d))
        relevant = np.arange(len(queries)) % 40
        g, q = unit_rows(gallery)[0], unit_rows(queries)[0]
        ranks = []
        for qi, item in enumerate(relevant):
            exact = g @ q[qi]
            ranks.append(1 + np.count_nonzero(exact > exact[item])
                         + np.count_nonzero(exact[:item] == exact[item]))
        ranks = np.array(ranks, dtype=float)
        report = image_retrieval_metrics(queries, relevant.tolist(), gallery,
                                         list(range(len(gallery))))
        assert report.map == float(np.mean(1 / ranks))
        assert report.cmc == {k: cmc_at_k(ranks, k) for k in (1, 5)}
        assert len(set(ranks)) > 5


def loop_rank(scores, relevant, real, band):
    """``_rank`` by its stated definition, one (query, slot) at a time: a real
    slot ranks 1 + the items above ``own + band``, plus, with ``band`` 0, the
    items scoring equal at a smaller position; a query is crowded where some
    real slot's ``own +/- band`` holds another item's score."""
    ranks = np.full(relevant.shape, np.inf)
    crowded = np.zeros(len(scores), dtype=bool)
    for q, row in enumerate(scores.tolist()):
        for slot, item in enumerate(relevant[q].tolist()):
            if not real[q, slot]:
                continue
            own = row[item]
            ranks[q, slot] = 1 + sum(s > own + band for s in row)
            if band == 0:
                ranks[q, slot] += sum(s == own for s in row[:item])
            crowded[q] |= any(own - band <= s <= own + band
                              for j, s in enumerate(row) if j != item)
    return ranks, crowded


def rank_table(rng, width: int, items: int = 24):
    """A (queries, items) score table with its relevant table and mask. Scores
    are multiples of 1/4, so exact ties fall among a row's candidates and
    below them; row 0's worst real item scores last, so its candidates are the
    whole row; row 1's one real item scores alone at the top, its only
    candidate; row 2 has no real slot; rows 3 on have excluded items at
    ``-inf``, and their relevant ones are never real."""
    scores = rng.integers(-4, 5, size=(9, items)) / 4
    relevant = np.stack([rng.permutation(items)[:width] for _ in scores])
    real = rng.random(relevant.shape) < 0.7
    real[0, 0] = real[1, 0] = True
    real[1, 1:] = real[2] = False
    scores[0, relevant[0, 0]] = -2.0
    scores[1, relevant[1, 0]] = 2.0
    scores[3:][rng.random((6, items)) < 0.2] = -np.inf
    real &= np.isfinite(np.take_along_axis(scores, relevant, axis=1))
    return scores, relevant, real


class TestRankDefinition:
    @pytest.mark.parametrize("pass_elements", [None, 1], ids=["one pass", "one slot a pass"])
    @pytest.mark.parametrize("band", [0.0, 0.3, np.inf], ids=["exact", "band", "inf"])
    @pytest.mark.parametrize("width", [1, 2, 16])
    def test_rank_equals_a_loop_over_its_definition(self, width, band, pass_elements,
                                                    monkeypatch):
        if pass_elements is not None:
            monkeypatch.setattr(retrieval, "_PASS_ELEMENTS", pass_elements)
        rng = np.random.default_rng(width)
        for _ in range(5):
            scores, relevant, real = rank_table(rng, width)
            with np.errstate(all="raise"):  # an infinite band makes no NaN
                ranks, crowded = retrieval._rank(scores, relevant, real, band)
            expect_ranks, expect_crowded = loop_rank(scores, relevant, real, band)
            assert np.array_equal(ranks, expect_ranks)
            assert np.array_equal(crowded, expect_crowded)
            assert ranks[0, 0] == (1 if band == np.inf else 24)
            assert np.isinf(ranks[2]).all() and not crowded[2]


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
