"""Cosine-similarity retrieval and the two evaluation protocols.

Features are l2-normalized rows (``model.unit_rows``), so the dot product of
two rows is their cosine. Every evaluation scores its queries in blocks, so no
(queries, items) array is larger than one block. A block holds ``_BLOCK``
queries, or more on a gallery of fewer than 1024 rows and dims: as many as
keep its (queries, items) similarities and its (queries, dim) query rows
within ``_BLOCK_ELEMENTS`` elements each (see ``_block_queries``), so a small
gallery's queries do not pay per-block NumPy calls that cost more than their
products.

The ranks, and so every report, are those of the exact similarities: the bits
of the one-thread BLAS matrix-vector product ``gallery @ q`` of each query,
which ``_exact_similarities`` computes over gallery tiles (see there). A block
is first scored from one GEMM, ``features[block] @ gallery.T``, which adds the
terms in another order and may move a similarity by a few ulps. Each score of
the GEMM lies within a band of its exact value, bounded from the width, a
bound on the row norms and, for a track mean, the largest track size (Higham's
gamma_n for a dot product or a sum in any order; see ``_band``). A relevant
item whose band holds no other item's score has the rank the exact scores
give it: every item above the band stays above, every item below stays below,
and no exact tie exists. A query with a relevant item whose band holds another
score (a duplicate row, a zero row, features rounded to few values, a near
tie) is scored again from its exact similarities, as a filtered geometric
predicate falls back to exact arithmetic (Shewchuk 1997). On trained or random
features the band, 6e-14 at d=64 and 9e-13 at d=1024 on unit rows, catches
almost no query; on features rounded to a few values it catches almost every
one, and those blocks cost their GEMM on top of the exact products (a veri
block then took about 1.7 times as long as with the exact products alone).

No gallery is sorted: a relevant item's rank is 1 + the number of items
scoring higher, plus those scoring equal with a smaller item id, which is the
order a stable sort of the negated scores gives, so exact ties break toward
the smaller id and results are deterministic even with quantized features.
AP adds the precision at each relevant rank in rank order (``np.cumsum``) and
the first hit is the smallest relevant rank. A query with no relevant gallery
item is skipped and counted in the report. ``rank_items``,
``average_precision`` and ``first_hit_rank`` state these definitions on one
ranking.

* Image-to-track protocol: each query is one image, gallery units are the
  tracks of all vehicles, tracks containing any image from the query's own
  camera are excluded (they score ``-inf`` and are not relevant), and a track
  scores the max (optionally the mean) of its member images' similarities.
* Repeated-sampling protocol: per repeat, a fixed-size set of vehicles is
  drawn, one random image per vehicle forms the gallery, every other image
  of those vehicles queries it, and metrics average over ten repeats.

The tables these protocols read from sample metadata (vehicle, camera and
track codes, each track's cameras, the tracks grouped by size, each vehicle's
tracks and images) are cached properties of ``RetrievalIndex``, built on
first use and reused by every later call on the same index.

A track max is scored from the cached track layout, a member-major copy of
the gallery: within each group of tracks of one size, the j-th image of
every track, for each j in turn, is one contiguous run of rows. A block's
GEMM against the copy puts member j of the group's tracks in one run of
columns, so a track max reduces (queries, tracks) slabs, with no gather. A
crowded query's exact similarities are still those of the gallery in image
order, with only their columns permuted into the layout, so every report
keeps its bytes. The copy is one more float64 gallery per index: 2.6 MB on
a 5120x64 gallery, 10.5 MB at d=1024 on 1280 images and about 95 MB at
VeRi's 11,579x1024. A track mean gathers in image order (see
``veri_protocol``). With the layout, and with ``_rank`` comparing every
relevant slot of a block in one pass, veri on the benchmark's eval_gallery
ran a median 1.54x the queries per second of a (queries, tracks, size)
gather and a loop over the slots, faster in each of ten pairs (seeds
101-110, a 2-core VM).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import LabeledSample
from .errors import ConfigError, ValidationError
from .model import unit_rows
from .optim import rng_for

_BLOCK = 64  # fewest queries scored per block
_BLOCK_ELEMENTS = 65536  # a larger block's per-query arrays: 512 KiB of float64
_TILE_ELEMENTS = 131_072  # a gallery tile's bound (rows x dim): 1 MiB of float64, half an L2
_U = np.finfo(np.float64).eps / 2  # float64's unit roundoff
_PASS_ELEMENTS = 1 << 20  # a rank pass's (queries, slots, items) comparisons: 1 MiB of bool


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


def _codes(keys) -> np.ndarray:
    """Each key's index among the distinct keys in order of first appearance."""
    seen: dict = {}
    return np.array([seen.setdefault(k, len(seen)) for k in keys], dtype=np.intp)


def _padded(counts: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row i holds the next counts[i] values; rows are padded to one width
    (at least 1). Returns the table and the mask of its real entries."""
    real = np.arange(max(int(counts.max(initial=0)), 1)) < counts[:, None]
    table = np.zeros(real.shape, dtype=np.intp)
    table[real] = values
    return table, real


class TrackTables(NamedTuple):
    """Image-to-track tables of one index; tracks are numbered in order of
    first appearance, so ties rank the earlier track first."""

    camera: np.ndarray          # (images,) camera code of each image
    camera_tracks: np.ndarray   # (cameras, tracks) True where a track holds the camera
    groups: list                # per track size: (track ids, (tracks, size) image ids);
                                # ids that form a run are its slice, so they index a view
    vehicle_tracks: np.ndarray  # (vehicles, width) each vehicle's tracks, ascending
    vehicle_has: np.ndarray     # (vehicles, width) False on padding


@dataclass
class RetrievalIndex:
    """l2-normalized features plus the metadata retrieval needs. The tables
    derived from ``samples`` are built on first use and cached, so neither
    list may change afterwards."""

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

    @cached_property
    def norm_bound(self) -> float:
        """The largest l2 norm of a feature row (about 1, or 0 if every row is
        zero), which bounds every similarity of the index."""
        return _norm_bound(self.features)

    @cached_property
    def vehicle_codes(self) -> np.ndarray:
        """(images,) vehicle code of each image, in order of first appearance."""
        return _codes(s.vehicle_id for s in self.samples)

    @cached_property
    def vehicle_images(self) -> tuple[np.ndarray, np.ndarray]:
        """(vehicles, width) table of each vehicle's image ids, ascending, by
        vehicle code, and the mask of its real entries."""
        return _padded(np.bincount(self.vehicle_codes),
                       np.argsort(self.vehicle_codes, kind="stable"))

    @cached_property
    def track_tables(self) -> TrackTables:
        """The image-to-track tables; a sample without camera/track metadata
        or a track mixing vehicles is a ValidationError (and caches nothing)."""
        samples = self.samples
        for s in samples:
            if s.camera_id is None or s.track_id is None:
                raise ValidationError(f"sample of vehicle {s.vehicle_id} lacks "
                                      "camera_id/track_id metadata")
        track = _codes(s.track_id for s in samples)
        camera = _codes(s.camera_id for s in samples)
        vehicle = self.vehicle_codes
        sizes = np.bincount(track)
        first = np.unique(track, return_index=True)[1]
        track_vehicle = vehicle[first]
        mixed = np.flatnonzero(vehicle != track_vehicle[track])
        if mixed.size:
            i = mixed[0]
            raise ValidationError(f"track {samples[i].track_id} mixes vehicles "
                                  f"{samples[first[track[i]]].vehicle_id} and "
                                  f"{samples[i].vehicle_id}")
        camera_tracks = np.zeros((camera.max(initial=-1) + 1, len(sizes)), dtype=bool)
        camera_tracks[camera, track] = True
        # Tracks of one size reduce as rows of one (tracks, size) matrix of image
        # ids in image order, where np.mean adds in the same order as on one track.
        by_track = np.argsort(track, kind="stable")
        starts = np.cumsum(sizes) - sizes
        groups = []
        for size in np.unique(sizes):
            tracks = np.flatnonzero(sizes == size)
            images = by_track[starts[tracks, None] + np.arange(size)]
            if tracks[-1] - tracks[0] + 1 == len(tracks):
                tracks = slice(tracks[0], tracks[-1] + 1)
            groups.append((tracks, images))
        vehicle_tracks, vehicle_has = _padded(np.bincount(track_vehicle),
                                              np.argsort(track_vehicle, kind="stable"))
        return TrackTables(camera, camera_tracks, groups, vehicle_tracks, vehicle_has)

    @cached_property
    def track_layout(self) -> tuple[np.ndarray, np.ndarray]:
        """The gallery in member-major order, and that order of image ids:
        group by group of ``track_tables``, the j-th image of every track of
        the group's size, for each j in turn, as one contiguous run of rows."""
        order = np.concatenate([np.empty(0, dtype=np.intp),
                                *(images.T.ravel() for _, images in self.track_tables.groups)])
        return self.features[order], order


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


def _tiles(n: int, d: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges of the gallery tiles of an (n, d) gallery.

    A tile's row count is the largest power of two whose rows x ``d`` fit
    ``_TILE_ELEMENTS`` (2048 rows at d=64, 128 at d=1024), but at least 4:
    above d = 32,768 a tile has 4 rows and more elements than the bound.
    Tile edges sit at multiples of it, and a remainder shorter than half a
    tile joins the tile before it, so no tile is a sliver that BLAS would sum
    through another kernel path, and up to d = 32,768 none holds 1.5 times
    the bound. A gallery of no rows is one empty tile.

    Every tile, the merged last one included, is a product OpenBLAS runs on
    one thread, and each of its rows equals the one-thread ``gallery @ q``.
    40x20000, 6x40000 and 7x60000 are checked; a probe found the same for
    every gallery of 2 to 13 rows at d from 20,000 to 100,000. Without the
    floor, the 2-row and 1-row tiles of such galleries differed from that
    product, some under more than one thread too. A one-image gallery of
    more than 10,000 elements is still a dot product, which OpenBLAS splits
    across threads.
    """
    rows = max(4, 1 << max((_TILE_ELEMENTS // max(d, 1)).bit_length() - 1, 0))
    edges = list(range(rows, n, rows))
    if edges and n - edges[-1] < rows // 2:
        edges.pop()
    bounds = [0, *edges, n]
    return list(zip(bounds[:-1], bounds[1:]))


def _block_queries(n: int, d: int) -> int:
    """Queries per block on an (n, d) gallery: ``_BLOCK``, or more while the
    block's (queries, n) similarities and (queries, d) query rows each stay
    within ``_BLOCK_ELEMENTS`` elements: 64 on a gallery of 1024 or more rows
    or dims, 1024 on a 64x64 one. The dims count too: at d=1024 a 1024-query
    block would gather 8 MB of query rows."""
    return max(_BLOCK, _BLOCK_ELEMENTS // max(n, d, 1))


def _exact_similarities(gallery: np.ndarray, features: np.ndarray, queries) -> np.ndarray:
    """The (queries, gallery) exact similarities of the given query rows.

    The exact path: a report ranks as these similarities do. ``_ranked``
    passes the queries of one block that ``_band`` cannot rank, so at most
    ``_block_queries`` rows are gathered. One stacked matmul per ``_tiles``
    tile; its inner loop makes the per-query BLAS matrix-vector call, not a
    GEMM, so a row does not depend on the other queries. NumPy sees a stack
    of (tile, d) @ (d, 1) products and issues the ``tile @ q`` call of each
    query from C, writing each row segment in place, so every query reads
    the tile from L2, next to the query rows. No tile call is large enough
    for OpenBLAS to split across threads, so each row is the one-thread
    ``gallery @ q`` whatever the thread count.
    """
    sims = np.empty((len(queries), len(gallery)))
    for start, stop in _tiles(*gallery.shape):
        np.matmul(gallery[start:stop], features[queries, :, None],
                  out=sims[:, start:stop, None])
    return sims


def _norm_bound(*arrays: np.ndarray) -> float:
    """The largest l2 norm of a row of the given (rows, dim) arrays."""
    return float(np.sqrt(max((np.einsum("ij,ij->i", a, a).max(initial=0.0)
                              for a in arrays), default=0.0)))


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): a result that n roundings made,
    such as a dot product of n terms or a sum of n + 1 added in any order,
    is within gamma_n times the sum of its terms' magnitudes of the exact one."""
    return n * _U / (1 - n * _U)


def _band(d: int, norm: float, terms: int) -> float:
    """Half-width of the window around a relevant item's GEMM score outside
    which every other GEMM score keeps its order against it in the exact scores.

    Rows of at most ``norm`` in l2 norm make each similarity's terms sum to at
    most norm**2 in magnitude (Cauchy-Schwarz), so a similarity computed in
    any order, a GEMM's or the exact one, lies within gamma_(d+1) norm**2 of
    the true dot product (d + 1 leaves room for a kernel adding into its zeroed
    output), and the two differ by at most twice that. A score that averages
    up to ``terms`` similarities (0: a similarity or a track max, which
    selects one) adds each side's sum and division error, 2 gamma_terms times
    the largest score. So each GEMM score is within ``delta`` of its exact
    score, and a score more than 2 delta from ``own`` keeps its side of it.
    The window is twice 2 delta + u size: that covers the rounding of
    ``own +/- window`` itself (at most u (size + window)) and of this bound
    and ``norm``, each a relative error far below 1.
    """
    size = norm * norm * (1 + _gamma(d + 1))  # bounds every computed score
    delta = 2 * _gamma(d + 1) * norm * norm
    if terms:
        delta += 2 * _gamma(terms) * size
    return 2 * (2 * delta + _U * size)


def _rank(scores, relevant, real, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of each query's relevant items, and the queries whose ranks the
    band does not decide.

    ``scores`` is a (queries, items) matrix, ``relevant`` each query's
    relevant item positions as a (queries, width) table and ``real`` the mask
    of the table's entries that count (the rest rank ``inf``). A query is
    crowded where some relevant item's band, ``own +/- band``, holds another
    item's score. A relevant item's rank is 1 + the items scoring above its
    band, which decides it unless its query is crowded. With ``band`` 0 the
    scores are exact, and a crowded query's ranks add the items scoring equal
    at a smaller position: each rank is its item's place in a stable sort of
    the negated scores, so no row is sorted.

    The slots are compared in (queries, slots, items) passes of at most
    ``_PASS_ELEMENTS`` comparisons, and at least one slot: one pass for a
    veri block of 64 queries with up to 16 relevant tracks among 1024, so a
    query with every gallery item relevant cannot make a cube of them.
    Padding compares as a score of 0, so an infinite band meets no ``-inf``
    score of an excluded item there and makes no NaN.
    """
    ranks = np.full(relevant.shape, np.inf)
    crowded = np.zeros(len(scores), dtype=bool)
    step = max(1, _PASS_ELEMENTS // max(scores.size, 1))
    for first in range(0, relevant.shape[1], step):
        items, counts = relevant[:, first:first + step], real[:, first:first + step]
        own = np.take_along_axis(scores, items, axis=1)
        np.copyto(own, 0.0, where=~counts)
        # int32 counts: a sum of booleans to the 8-byte intp took twice as long.
        row_scores = scores[:, None, :]
        above = np.sum(row_scores > (own + band)[:, :, None], axis=2, dtype=np.int32)
        near = np.sum(row_scores >= (own - band)[:, :, None], axis=2, dtype=np.int32)
        ranks[:, first:first + step] = np.where(counts, 1.0 + above, np.inf)
        close = counts & (near > above + 1)
        crowded |= close.any(axis=1)
        if band == 0 and close.any():
            rows, slots = np.nonzero(close)
            tied = scores[rows] == own[rows, slots, None]
            tied &= np.arange(scores.shape[1]) < items[rows, slots, None]
            ranks[rows, first + slots] += np.count_nonzero(tied, axis=1)
    return ranks, crowded


def _ranked(gallery: np.ndarray, features: np.ndarray, queries, norm: float, scored,
            terms: int = 0, layout=None):
    """Per block of ``queries``: the (queries, width) ranks of each query's
    relevant items, ``inf`` on entries that do not count.

    ``scored(block, similarities)`` turns a block's (queries, gallery)
    similarities into its scores, relevant items and mask (see ``_rank``);
    ``norm`` bounds the rows' l2 norms and ``terms`` is the most similarities
    one score averages. Each block is ranked from one GEMM within ``_band``;
    its crowded queries are ranked again from their exact similarities.
    ``layout``, if given, is ``(gallery[order], order)``: the GEMM reads that
    copy, and the exact similarities, still those of ``gallery``, have their
    columns taken in ``order``, so ``scored`` sees one column order.
    """
    gemm_rows, order = (gallery, None) if layout is None else layout
    band = _band(gallery.shape[1], norm, terms)
    size = _block_queries(*gallery.shape)
    for lo in range(0, len(queries), size):
        block = queries[lo:lo + size]
        ranks, crowded = _rank(*scored(block, features[block] @ gemm_rows.T), band)
        redo = block[crowded]
        if redo.size:
            exact = _exact_similarities(gallery, features, redo)
            if order is not None:
                exact = exact[:, order]
            exact_ranks = _rank(*scored(redo, exact), 0.0)[0]
            ranks[crowded] = np.inf  # their table may be narrower than the block's
            ranks[crowded, :exact_ranks.shape[1]] = exact_ranks
        yield ranks


def _score(blocks) -> tuple[float, dict[int, float], int, int]:
    """mAP, CMC@1/@5, answered and skipped counts of blocks of ranks, each a
    (queries, width) table of relevant ranks, ``inf`` on padding; a query
    with no finite rank is skipped."""
    ap_blocks, first_blocks, skipped = [np.empty(0)], [np.empty(0)], 0
    for ranks in blocks:
        hits = np.count_nonzero(np.isfinite(ranks), axis=1)
        ranks.sort(axis=1)
        answered = hits > 0
        skipped += int(np.count_nonzero(~answered))
        ranks = ranks[answered]
        # k / inf = 0: padding adds exact zeros after the last precision term.
        terms = np.arange(1, ranks.shape[1] + 1) / ranks
        ap_blocks.append(np.cumsum(terms, axis=1)[:, -1] / hits[answered])
        first_blocks.append(ranks[:, 0])
    aps, first_hits = np.concatenate(ap_blocks), np.concatenate(first_blocks)
    mean_ap = float(np.mean(aps)) if aps.size else 0.0
    return mean_ap, {k: cmc_at_k(first_hits, k) for k in (1, 5)}, aps.size, skipped


def image_retrieval_metrics(query_features, query_labels, gallery_features,
                            gallery_labels) -> EvaluationReport:
    """Direct image-to-image ranking of a fixed gallery; features are
    l2-normalized on entry."""
    qf, gf = unit_rows(query_features)[0], unit_rows(gallery_features)[0]
    if len(qf) != len(query_labels) or len(gf) != len(gallery_labels):
        raise ValidationError(f"{len(qf)}/{len(gf)} query/gallery features but "
                              f"{len(query_labels)}/{len(gallery_labels)} labels")
    labels = _codes([*gallery_labels, *query_labels])
    gallery, query = labels[:len(gf)], labels[len(gf):]

    def scored(block, sims):
        relevant = query[block, None] == gallery
        return (sims, *_padded(np.count_nonzero(relevant, axis=1), np.nonzero(relevant)[1]))

    mean_ap, cmc, answered, skipped = _score(
        _ranked(gf, qf, np.arange(len(qf)), _norm_bound(gf, qf), scored))
    return EvaluationReport(protocol="image", map=mean_ap, cmc=cmc,
                            counts={"queries": answered, "skipped": skipped,
                                    "gallery": len(gallery_labels)})


def _query_ids(queries, n: int) -> np.ndarray:
    ids = np.arange(n) if queries is None else np.asarray(queries)
    if ids.size == 0:
        return np.empty(0, dtype=np.intp)
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ValidationError(f"query ids must be a sequence of integers, got {queries!r}")
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise ValidationError(f"query id {bad[0]} not in [0, {n})")
    return ids


def veri_protocol(index: RetrievalIndex, queries=None,
                  track_agg: str = "max") -> EvaluationReport:
    """Image-to-track evaluation with same-camera tracks excluded; the
    queries are image ids (default: every image), each in [0, len(index))."""
    if track_agg not in ("max", "mean"):
        raise ConfigError(f"unknown track aggregation {track_agg!r}")
    tables = index.track_tables
    ids = _query_ids(queries, len(index))
    vehicle = index.vehicle_codes
    num_tracks = tables.camera_tracks.shape[1]
    if track_agg == "max":
        # Member j of every track of a group is one run of columns of the
        # track layout, so a track max reads whole runs, with no gather.
        layout, terms = index.track_layout, 0
        starts = np.cumsum([0] + [images.size for _, images in tables.groups])
    else:
        # A track mean gathers each track's similarities in image order and
        # adds them with np.mean over that contiguous last axis, whose order
        # fixes the bits; gathered from the layout's runs it ran slower.
        layout = None
        terms = max((images.shape[1] for _, images in tables.groups), default=0)
    # Scores are finite, so adding a camera's row (-inf on its tracks, 0 on the
    # rest) excludes its tracks; np.copyto(..., where=) took 8 times as long.
    camera_masks = np.where(tables.camera_tracks, -np.inf, 0.0)

    def scored(block, sims):
        scores = np.empty((len(block), num_tracks))
        for g, (tracks, images) in enumerate(tables.groups):
            if layout is None:
                scores[:, tracks] = np.mean(sims[:, images], axis=-1)
            else:
                runs = sims[:, starts[g]:starts[g + 1]].reshape(len(block), *images.T.shape)
                scores[:, tracks] = np.maximum.reduce(runs, axis=1)
        cameras = tables.camera[block]
        excluded = tables.camera_tracks[cameras]
        scores += camera_masks[cameras]
        relevant = tables.vehicle_tracks[vehicle[block]]
        real = (tables.vehicle_has[vehicle[block]]
                & ~np.take_along_axis(excluded, relevant, axis=1))
        return scores, relevant, real

    mean_ap, cmc, answered, skipped = _score(
        _ranked(index.features, index.features, ids, index.norm_bound, scored, terms,
                layout))
    return EvaluationReport(protocol="veri", map=mean_ap, cmc=cmc,
                            counts={"queries": answered, "skipped": skipped,
                                    "gallery_tracks": num_tracks,
                                    "zero_features": index.zero_count})


def check_repeated_gallery(vehicles: int, gallery_size: int, repeats: int) -> None:
    """Refuse a repeated-gallery protocol of no repeats, or of a gallery of
    fewer than 1 or more than ``vehicles`` vehicles."""
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if gallery_size < 1 or gallery_size > vehicles:
        raise ConfigError(f"gallery_size {gallery_size} not in [1, {vehicles}]; "
                          f"choose a size up to the number of test vehicles")


def vehicleid_protocol(index: RetrievalIndex, gallery_size: int,
                       repeats: int = 10, seed: int = 0) -> EvaluationReport:
    """Repeated random-gallery evaluation (one gallery image per vehicle)."""
    vehicle, (images, has) = index.vehicle_codes, index.vehicle_images
    vehicles = len(images)
    check_repeated_gallery(vehicles, gallery_size, repeats)

    per_repeat: list[dict] = []
    image_counts, slot = np.count_nonzero(has, axis=1), np.zeros(vehicles, dtype=np.intp)
    gallery_slots = np.arange(gallery_size)
    for r in range(repeats):
        rng = rng_for(seed, r)
        chosen = rng.choice(vehicles, size=gallery_size, replace=False)
        # One bounded draw per vehicle, in gallery order: the same numbers,
        # and the same generator state after them, as one call per vehicle.
        picks = rng.integers(image_counts[chosen])
        rows, queried = images[chosen], has[chosen]
        gallery = rows[gallery_slots, picks]
        queried[gallery_slots, picks] = False  # every other image queries
        slot[chosen] = gallery_slots  # each query's one relevant item
        mean_ap, cmc, answered, skipped = _score(_ranked(
            index.features[gallery], index.features, rows[queried], index.norm_bound,
            lambda block, sims: (sims, slot[vehicle[block], None],
                                 np.ones((len(block), 1), dtype=bool))))
        per_repeat.append({"repeat": r, "seed": [seed, r], "map": mean_ap,
                           "cmc": {str(k): v for k, v in sorted(cmc.items())},
                           "queries": answered, "skipped": skipped,
                           "gallery": gallery.tolist()})

    mean_map = float(np.mean([p["map"] for p in per_repeat]))
    cmc = {k: float(np.mean([p["cmc"][str(k)] for p in per_repeat])) for k in (1, 5)}
    counts = {"gallery": gallery_size, "repeats": repeats,
              "queries_total": sum(p["queries"] for p in per_repeat),
              "zero_features": index.zero_count}
    return EvaluationReport(protocol="vehicleid", map=mean_map, cmc=cmc,
                            counts=counts, repeats=per_repeat, seed=seed)
