"""Manifest ingestion and the synthetic coarse-to-fine generator.

Manifest CSV: header ``split,source,vehicle_id,model_id[,camera_id[,track_id]]``,
one labeled image or descriptor per row. Dense class indices are built from
the train split only; train and test vehicle sets must be disjoint and every
vehicle must sit under exactly one model.

The synthetic generator builds descriptor maps with a deliberate coarse-to-
fine structure. Every image of a model-m vehicle seen by camera c is

    f[i,j] = pattern_m + view_c[i,j] + noise        at every cell, plus
    f[cell_v] += signature_v                        at the vehicle's own cell.

* ``pattern_m`` is a per-model unit vector repeated over the whole grid, so
  global average pooling preserves it at full strength: coarse labels are
  decidable from the pooled embedding alone.
* ``signature_v`` (the "windshield sticker", of norm ``SIGNATURE_AMPLITUDE``)
  is written into one fixed cell per vehicle, so pooling attenuates it by
  1/(h*w): fine identity needs the attended embedding. Sticker contents come from a shared bank of base
  directions, each a mix of one positive-cone component of weight
  ``SIGNATURE_CONE`` (common to every sticker, so a detector trained on seen
  vehicles also fires on unseen ones) and one near-orthogonal residual (so
  different stickers are far apart). Each vehicle's sticker is its base plus
  Gaussian jitter of scale ``SIGNATURE_JITTER``, renormalized.
  Within one model every vehicle holds a different base and a different
  cell, but the same bases recur across models: telling those near-identical
  stickers apart requires the coarse model context, which is exactly what
  the hierarchy carries.
* ``view_c`` is a camera-specific field with zero spatial mean: it shifts
  individual cells (so single-cell readouts vary across cameras) while
  leaving the pooled embedding untouched.
* ``noise`` is per-image isotropic N(0, sigma^2).
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import formats
from .errors import ConfigError, ShapeError, ValidationError
from .optim import rng_for


@dataclass(frozen=True)
class LabeledSample:
    source: str  # image path, or a decimal index into a descriptor file
    vehicle_id: str
    model_id: str
    camera_id: str | None = None
    track_id: str | None = None


@dataclass
class DatasetSplit:
    train: list[LabeledSample]
    test: list[LabeledSample]
    vehicle_index: dict[str, int] = field(init=False, default_factory=dict)
    model_index: dict[str, int] = field(init=False, default_factory=dict)

    def __post_init__(self):
        vehicle_model: dict[str, str] = {}
        for sample in self.train + self.test:
            known = vehicle_model.setdefault(sample.vehicle_id, sample.model_id)
            if known != sample.model_id:
                raise ValidationError(f"vehicle {sample.vehicle_id} appears under models "
                                      f"{known} and {sample.model_id}")
        overlap = {s.vehicle_id for s in self.train} & {s.vehicle_id for s in self.test}
        if overlap:
            raise ValidationError(f"vehicles present in both splits: {sorted(overlap)}")
        for s in self.train:
            self.vehicle_index.setdefault(s.vehicle_id, len(self.vehicle_index))
            self.model_index.setdefault(s.model_id, len(self.model_index))

    @property
    def num_vehicles(self) -> int:
        return len(self.vehicle_index)

    @property
    def num_models(self) -> int:
        return len(self.model_index)

    def labels(self, sample: LabeledSample) -> tuple[int, int]:
        return self.model_index[sample.model_id], self.vehicle_index[sample.vehicle_id]


_HEADER_PREFIX = ["split", "source", "vehicle_id", "model_id"]
_HEADER_OPTIONAL = ["camera_id", "track_id"]


def load_manifest(path) -> DatasetSplit:
    rows = list(csv.reader(formats.text_lines(path)))
    if not rows:
        raise ValidationError(f"{path}: empty manifest")
    header = [c.strip() for c in rows[0]]
    expected = _HEADER_PREFIX + _HEADER_OPTIONAL[:max(0, len(header) - 4)]
    if header != expected:
        raise ValidationError(f"{path}: manifest header {header} does not match "
                              f"{expected}")
    train: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 4 or len(row) > 6:
            raise ValidationError(f"{path}:{lineno}: expected 4-6 fields, got {len(row)}")
        split, source, vehicle_id, model_id = (c.strip() for c in row[:4])
        camera_id = row[4].strip() if len(row) > 4 and row[4].strip() else None
        track_id = row[5].strip() if len(row) > 5 and row[5].strip() else None
        sample = LabeledSample(source, vehicle_id, model_id, camera_id, track_id)
        if split == "train":
            train.append(sample)
        elif split == "test":
            test.append(sample)
        else:
            raise ValidationError(f"{path}:{lineno}: unknown split {split!r}")
    return DatasetSplit(train=train, test=test)


def write_manifest(path, split: DatasetSplit) -> None:
    formats.write_csv(path, chain([_HEADER_PREFIX + _HEADER_OPTIONAL], (
        [name, s.source, s.vehicle_id, s.model_id, s.camera_id or "", s.track_id or ""]
        for name, samples in (("train", split.train), ("test", split.test)) for s in samples)))


# ---------------------------------------------------------------------------
# Synthetic data

SIGNATURE_AMPLITUDE = 3.0  # the norm of every sticker; model patterns are unit
SIGNATURE_JITTER = 0.1  # scale of the per-vehicle draw added to a sticker's base
SIGNATURE_CONE = 0.6  # shared-cone weight of the sticker bank


@dataclass
class SynthConfig:
    models: int = 8
    vehicles_per_model: int = 8   # per split; train and test each get this many
    images_per_vehicle: int = 20
    grid: int = 6
    d: int = 16
    cameras: int = 4
    noise_sigma: float = 0.1
    view_amplitude: float = 0.5

    def __post_init__(self):
        if min(self.models, self.vehicles_per_model, self.images_per_vehicle,
               self.grid, self.d, self.cameras) < 1:
            raise ConfigError("synthetic counts must be positive")
        if 2 * self.vehicles_per_model > self.grid * self.grid:
            raise ConfigError(f"grid {self.grid}x{self.grid} is too small for "
                              f"{2 * self.vehicles_per_model} distinct signature cells "
                              "per model")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise ConfigError(f"synthetic {f.name} must be finite, got {value}")
        if self.noise_sigma < 0:
            raise ConfigError(f"synthetic noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass
class SynthDataset:
    split: DatasetSplit
    maps: np.ndarray                       # (N, grid, grid, d), manifest order
    signature_cells: dict[str, tuple[int, int]]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def synth_generate(config: SynthConfig, seed: int) -> SynthDataset:
    rng = rng_for(seed)
    g, d = config.grid, config.d
    per_model = 2 * config.vehicles_per_model  # train bank then test bank

    patterns = np.stack([_unit(rng.normal(size=d)) for _ in range(config.models)])
    # Sticker residuals wrap modulo d, so bases stay distinct within a split
    # as long as vehicles_per_model <= d.
    cone = np.ones(d) / np.sqrt(d)
    sticker_bank = np.stack([_unit(SIGNATURE_CONE * cone + np.eye(d)[k % d])
                             for k in range(per_model)])
    cells = np.stack([rng.choice(g * g, size=per_model, replace=False)
                      for _ in range(config.models)])
    views = rng.normal(size=(config.cameras, g, g, d)) * (config.view_amplitude / np.sqrt(d))
    views -= views.mean(axis=(1, 2), keepdims=True)  # exact zero spatial mean

    n = config.images_per_vehicle
    cams = np.arange(n) % config.cameras
    maps = np.empty((config.models * per_model * n, g, g, d))
    samples: dict[str, list[LabeledSample]] = {"train": [], "test": []}
    signature_cells: dict[str, tuple[int, int]] = {}

    start = 0
    for split_idx, split_name in enumerate(("train", "test")):
        for m in range(config.models):
            for i in range(config.vehicles_per_model):
                slot = split_idx * config.vehicles_per_model + i
                vehicle_id = f"{split_name[:2]}_m{m}_v{i}"
                model_id = f"mod{m}"
                sig = _unit(sticker_bank[slot]
                            + SIGNATURE_JITTER * rng.normal(size=d))
                sig = sig * SIGNATURE_AMPLITUDE
                cell = int(cells[m, slot])
                row, col = cell // g, cell % g
                signature_cells[vehicle_id] = (row, col)
                # The vehicle's n images in one block. One noise draw of n
                # images takes the same numbers from the stream as n draws of
                # one image each.
                block = maps[start:start + n]
                np.add(patterns[m], views[cams], out=block)
                if config.noise_sigma > 0:
                    block += rng.normal(size=(n, g, g, d)) * config.noise_sigma
                block[:, row, col] += sig
                for j, cam in enumerate(cams):
                    samples[split_name].append(LabeledSample(
                        source=str(start + j), vehicle_id=vehicle_id, model_id=model_id,
                        camera_id=f"c{cam}", track_id=f"{vehicle_id}_c{cam}"))
                start += n

    split = DatasetSplit(train=samples["train"], test=samples["test"])
    return SynthDataset(split=split, maps=maps, signature_cells=signature_cells)


_SIGNATURE_HEADER = ["vehicle_id", "signature_row", "signature_col"]


def write_synth(ds: SynthDataset, out_dir) -> dict[str, Path]:
    """Write manifest.csv, descriptors.desc and the signature-cell sidecar; a
    refused run leaves no file and no directory behind."""
    out = Path(out_dir)
    paths = {"manifest": out / "manifest.csv",
             "descriptors": out / "descriptors.desc",
             "signatures": out / "signatures.csv"}
    # The descriptors first: the one file that can be refused (a value float32
    # cannot hold), before the writer creates the directory.
    formats.write_tensor_file(paths["descriptors"], ds.maps)
    write_manifest(paths["manifest"], ds.split)
    formats.write_csv(paths["signatures"], chain([_SIGNATURE_HEADER], (
        [vehicle_id, row, col] for vehicle_id, (row, col) in ds.signature_cells.items())))
    return paths


_CELL = re.compile(r"-?[0-9]+")  # a sidecar cell coordinate: ASCII digits, maybe negative


def load_signature_cells(path) -> dict[str, tuple[int, int]]:
    rows = list(csv.reader(formats.text_lines(path)))
    if not rows or rows[0] != _SIGNATURE_HEADER:
        raise ValidationError(f"{path}: not a signature sidecar")
    cells: dict[str, tuple[int, int]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ValidationError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        if not (_CELL.fullmatch(row[1]) and _CELL.fullmatch(row[2])):
            raise ValidationError(f"{path}:{lineno}: signature cell ({row[1]!r}, {row[2]!r}) "
                                  "is not two integers")
        if row[0] in cells:
            raise ValidationError(f"{path}:{lineno}: a second row for vehicle {row[0]!r}")
        cells[row[0]] = (int(row[1]), int(row[2]))
    return cells


def sample_input(sample: LabeledSample, maps: np.ndarray | None = None,
                 image_root=None) -> np.ndarray:
    """Resolve a sample's source to its input array."""
    # isdigit() alone also accepts superscripts and other scripts' digits.
    if sample.source.isascii() and sample.source.isdigit():
        if maps is None:
            raise ConfigError(f"sample {sample.vehicle_id} references descriptor "
                              f"{sample.source} but no descriptor file was given")
        index = int(sample.source)
        if index >= len(maps):
            raise ConfigError(f"sample {sample.vehicle_id} references descriptor "
                              f"{sample.source} but the descriptor file has {len(maps)} rows")
        return maps[index]
    return formats.read_image(Path(image_root or ".") / sample.source)


def training_items(split: DatasetSplit, maps: np.ndarray | None = None,
                   image_root=None) -> list[tuple[np.ndarray, int, int]]:
    """(input, model label, vehicle label) per training sample, inputs of one shape."""
    items = []
    for sample in split.train:
        x = sample_input(sample, maps, image_root)
        if items and x.shape != items[0][0].shape:
            raise ShapeError(f"training sample {len(items)} ({sample.source}) has input "
                             f"shape {x.shape}, sample 0 has {items[0][0].shape}")
        items.append((x, *split.labels(sample)))
    return items
