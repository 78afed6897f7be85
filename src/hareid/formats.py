"""Binary and image file formats.

Descriptor and feature files share one layout, differing only in magic:

    magic (6 bytes, e.g. b"DESC1\\n"), then four little-endian uint32s
    n, h, w, d, then n*h*w*d little-endian IEEE-754 float32 values in
    row-major order with the channel axis fastest.

Feature files (FEAT1) store one vector per item as h = w = 1, d = dim.
Images are 8-bit PGM (P2/P5) or PPM (P3/P6), scaled to [0, 1] on read.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FormatError

DESC_MAGIC = b"DESC1\n"
FEAT_MAGIC = b"FEAT1\n"
_HEADER = struct.Struct("<4I")


def _write_block(path, arr: np.ndarray, magic: bytes) -> None:
    n, h, w, d = arr.shape
    with open(path, "wb") as f:
        f.write(magic)
        f.write(_HEADER.pack(n, h, w, d))
        f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_block(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as f:
        got = f.read(len(magic))
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FormatError(f"{path}: truncated header, expected {_HEADER.size} bytes, "
                              f"got {len(header)}")
        n, h, w, d = _HEADER.unpack(header)
        if min(h, w, d) < 1:
            raise FormatError(f"{path}: non-positive dimensions h={h} w={w} d={d}")
        payload = f.read()
    expected = n * h * w * d * 4
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return data.reshape(n, h, w, d)


def write_tensor_file(path, maps, magic: bytes = DESC_MAGIC) -> None:
    """Write a batch of equally shaped (h, w, d) arrays."""
    maps = [np.asarray(m, dtype=np.float64) for m in maps]
    if not maps:
        raise FormatError("refusing to write an empty tensor file")
    shape = maps[0].shape
    for m in maps:
        if m.shape != shape or m.ndim != 3:
            raise FormatError(f"inconsistent map shapes: {shape} vs {m.shape}")
    _write_block(path, np.stack(maps), magic)


def read_tensor_file(path, magic: bytes = DESC_MAGIC) -> np.ndarray:
    return _read_block(path, magic)


def write_features(path, features: np.ndarray) -> None:
    """Store (n, dim) feature vectors as a FEAT1 file."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise FormatError(f"features must be (n, dim), got shape {feats.shape}")
    _write_block(path, feats[:, None, None, :], FEAT_MAGIC)


def load_features(path) -> np.ndarray:
    block = _read_block(path, FEAT_MAGIC)
    n, h, w, d = block.shape
    if (h, w) != (1, 1):
        raise FormatError(f"{path}: feature file must have h=w=1, got h={h} w={w}")
    return block.reshape(n, d)


# ---------------------------------------------------------------------------
# Netpbm images


def _read_tokens(raw: bytes, count: int, start: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    i = start
    while len(tokens) < count:
        while i < len(raw) and raw[i:i + 1].isspace():
            i += 1
        if i < len(raw) and raw[i:i + 1] == b"#":
            while i < len(raw) and raw[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(raw) and not raw[j:j + 1].isspace():
            j += 1
        if j == i:
            raise FormatError("unexpected end of image header")
        if not raw[i:j].isdigit() or j - i > 10:
            raise FormatError(f"bad image token {raw[i:j][:16]!r}, expected a decimal number")
        tokens.append(int(raw[i:j]))
        i = j
    return tokens, i


def read_image(path) -> np.ndarray:
    """Read an 8-bit PGM or PPM image into an (H, W, C) array scaled to [0, 1]."""
    raw = Path(path).read_bytes()
    kind = raw[:2]
    if kind not in (b"P2", b"P3", b"P5", b"P6"):
        raise FormatError(f"{path}: unsupported image kind {kind!r}")
    channels = 3 if kind in (b"P3", b"P6") else 1
    (w, h, maxval), pos = _read_tokens(raw, 3, 2)
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"{path}: only 8-bit images supported, maxval={maxval}")
    n = h * w * channels
    if kind in (b"P5", b"P6"):
        pixels = np.frombuffer(raw[pos + 1:pos + 1 + n], dtype=np.uint8)
        if pixels.size < n:
            raise FormatError(f"{path}: expected {n} pixel bytes, got {pixels.size}")
        values = pixels.astype(np.float64)
    else:
        tokens, _ = _read_tokens(raw, n, pos)
        values = np.asarray(tokens, dtype=np.float64)
    return (values / maxval).reshape(h, w, channels)


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2-D uint8 grid as a plain-text (P2) PGM."""
    grid = np.asarray(values)
    if grid.ndim != 2:
        raise FormatError(f"PGM export needs a 2-D grid, got shape {grid.shape}")
    h, w = grid.shape
    lines = [f"P2\n{w} {h}\n255\n"]
    for row in grid.astype(np.uint64):
        lines.append(" ".join(str(int(v)) for v in row) + "\n")
    Path(path).write_text("".join(lines))


def attention_to_pixels(a: np.ndarray) -> np.ndarray:
    """Rescale attention weights so max -> 255 and min -> 0.

    A flat map (max == min, including the 1x1 grid) renders as all 255.
    """
    a = np.asarray(a, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    if hi == lo:
        return np.full(a.shape, 255, dtype=np.uint8)
    return np.rint((a - lo) / (hi - lo) * 255.0).astype(np.uint8)
