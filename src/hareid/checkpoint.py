"""Versioned binary checkpoints: model config, named parameter tensors,
optimizer state, and the (seed, epoch) pair that fully determines the rest
of a run.

Layout (all integers little-endian):

    magic b"CKPT1\\n", uint32 version,
    uint32 config_len, config text (flat key=value lines),
    uint64 seed, uint32 next_epoch,
    uint32 n_params, then per tensor:
        uint32 name_len, name utf-8, uint32 ndim, uint32 dims..., float64 data
    uint8 has_optimizer, and if set:
        float64 alpha, float64 delta (must equal ``optim.ALPHA``, ``optim.DELTA``),
        then the squared-gradient averages in the same named-tensor record format.

Saving a loaded checkpoint reproduces the file byte for byte. A save goes
through ``formats.written_whole``, as every output file does, so a failed
save leaves the previous checkpoint whole. A malformed file raises
FormatError, and so does a path that is not a regular file (a pipe): the
reader checks each length against the bytes left in the file before it reads.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from io import BufferedReader

import numpy as np

from .autodiff import Tensor
from .errors import FormatError
from .formats import open_regular_file, written_whole
from .model import ModelConfig
from .optim import ALPHA, DELTA, RmspropState

MAGIC = b"CKPT1\n"
VERSION = 1


def _write_named(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f: BufferedReader, count: int, what: str) -> bytes:
    """The next ``count`` bytes, checked against the bytes left before reading."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise FormatError(f"checkpoint truncated while reading {what}: "
                          f"expected {count} bytes, got {left}")
    return f.read(count)


def _read_text(f: BufferedReader, count: int, what: str) -> str:
    try:
        return _read_exact(f, count, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint {what} is not UTF-8: {exc}") from None


def _read_named(f) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(f, 4, "tensor name length"))
    name = _read_text(f, name_len, "tensor name")
    (ndim,) = struct.unpack("<I", _read_exact(f, 4, "tensor rank"))
    dims = struct.unpack(f"<{ndim}I", _read_exact(f, 4 * ndim, "tensor dims"))
    data = np.frombuffer(_read_exact(f, 8 * math.prod(dims), f"tensor {name}"), dtype="<f8")
    try:
        return name, data.reshape(dims).copy()
    except ValueError:  # more axes than numpy allows, or a size that overflows
        raise FormatError(f"checkpoint tensor {name} has unusable shape {dims}") from None


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    opt: RmspropState | None
    epoch: int
    seed: int


def save_checkpoint(path, config: ModelConfig, params: dict[str, Tensor | np.ndarray],
                    opt: RmspropState | None, epoch: int, seed: int) -> None:
    config_bytes = config.to_text().encode("utf-8")
    with written_whole(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(config_bytes)))
        f.write(config_bytes)
        f.write(struct.pack("<QI", seed, epoch))
        f.write(struct.pack("<I", len(params)))
        for name, value in params.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            _write_named(f, name, arr)
        if opt is None:
            f.write(struct.pack("<B", 0))
        else:
            f.write(struct.pack("<B", 1))
            f.write(struct.pack("<dd", ALPHA, DELTA))
            for name in params:
                _write_named(f, name, opt.v[name])


def load_checkpoint(path) -> Checkpoint:
    with open_regular_file(path) as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        (config_len,) = struct.unpack("<I", _read_exact(f, 4, "config length"))
        config = ModelConfig.from_text(_read_text(f, config_len, "config"))
        seed, epoch = struct.unpack("<QI", _read_exact(f, 12, "seed/epoch"))
        (n_params,) = struct.unpack("<I", _read_exact(f, 4, "parameter count"))
        params = dict(_read_named(f) for _ in range(n_params))
        (has_opt,) = struct.unpack("<B", _read_exact(f, 1, "optimizer flag"))
        opt = None
        if has_opt:
            alpha, delta = struct.unpack("<dd", _read_exact(f, 16, "optimizer constants"))
            if (alpha, delta) != (ALPHA, DELTA):
                raise FormatError(f"{path}: optimizer alpha, delta are {alpha!r}, {delta!r}; "
                                  f"expected {ALPHA!r}, {DELTA!r}")
            opt = RmspropState(v=dict(_read_named(f) for _ in range(n_params)))
        trailing = f.read(1)
        if trailing:
            raise FormatError(f"{path}: trailing bytes after checkpoint payload")
    return Checkpoint(config=config, params=params, opt=opt, epoch=epoch, seed=seed)
