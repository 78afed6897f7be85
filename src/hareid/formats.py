"""Binary, image and text file formats.

Descriptor and feature files share one layout, differing only in magic:

    magic (6 bytes, e.g. b"DESC1\\n"), then four little-endian uint32s
    n, h, w, d, then n*h*w*d little-endian IEEE-754 float32 values in
    row-major order with the channel axis fastest.

Feature files (FEAT1) store one vector per item as h = w = 1, d = dim. Both
readers return the stored float32 values, and check the size a header claims
against the file's before they allocate it, so they need a regular file: a
pipe is a FormatError naming it. The writers refuse a finite value beyond
float32's range, which the cast would store as infinite.
Images are 8-bit PGM (P2/P5) or PPM (P3/P6), scaled to [0, 1] on read; a
sample above the header's maxval is a FormatError.

Every output file of the package is written through ``written_whole``: into a
sibling ``<name>.<pid>.<n>.tmp`` of its own, which replaces the target only
once it is complete, so a target holds its previous bytes or the whole new
ones, never a part, even when two writers meet on it. The writer does not
fsync: it guards against a stopped process, not a power loss.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
import re
import stat
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import IO, BinaryIO

import numpy as np

from .errors import FormatError

DESC_MAGIC = b"DESC1\n"
FEAT_MAGIC = b"FEAT1\n"
_HEADER = struct.Struct("<4I")
_TEMPORARY_SERIALS = itertools.count()  # with the pid, names each writer's own temporary


def output_target(path) -> Path:
    """The file that writing ``path`` replaces: ``path``, or the file a
    symlink names. A target that exists and is not a regular file (a pipe, a
    device, a directory), or whose nearest existing ancestor is not a
    directory, is a FormatError; nothing is created. A command that writes
    only after long work checks its outputs with this first."""
    target = Path(path)
    if target.is_symlink():
        target = Path(os.path.realpath(target))
    if target.exists() and not target.is_file():
        raise FormatError(f"{path}: not a regular file; an output must be a file or a new path")
    ancestor = next((p for p in target.parents if p.exists()), None)
    if ancestor is not None and not ancestor.is_dir():
        raise FormatError(f"{path}: {ancestor} is not a directory")
    return target


@contextlib.contextmanager
def written_whole(path, mode: str = "w") -> Iterator[IO]:
    """A file object, opened in ``mode`` ("w" for UTF-8 text with no newline
    translation, "wb" for bytes), whose content replaces ``path`` when the
    block ends without an error; on any error the target keeps its previous
    bytes and the temporary is removed. Missing parent directories are
    created, a symlink is written through to the file it names, and a target
    ``output_target`` refuses is a FormatError before anything is created.
    Each writer creates its own sibling temporary, ``<name>.<pid>.<n>.tmp``,
    exclusively and with the mode any new file gets (0666 less the umask),
    so two writers of one target each leave it whole; the last to finish
    wins."""
    target = output_target(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    for serial in _TEMPORARY_SERIALS:
        tmp = target.with_name(f"{target.name}.{os.getpid()}.{serial}.tmp")
        try:
            f = open(tmp, mode.replace("w", "x"), **text)
            break
        except FileExistsError:  # left by a killed process that had this pid
            continue
    try:
        with f:
            yield f
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, rows: Iterable[Iterable]) -> None:
    """Write ``rows`` as CSV lines, whole, through ``written_whole``."""
    with written_whole(path) as f:
        csv.writer(f).writerows(rows)


def _write_block(path, arr: np.ndarray, magic: bytes) -> None:
    """Write ``arr`` as float32, or refuse before opening ``path`` if a finite
    value is beyond float32's range: the cast would store it as infinite."""
    with np.errstate(over="ignore"):
        values = np.ascontiguousarray(arr, dtype="<f4")
    # fmin and fmax skip nans and allocate no array the size of ``values``: only
    # a cast that holds an infinity is searched for a finite value it overflowed.
    lo = np.fmin.reduce(values, axis=None, initial=0)
    hi = np.fmax.reduce(values, axis=None, initial=0)
    if (np.isinf(lo) or np.isinf(hi)) and (np.isinf(values) & np.isfinite(arr)).any():
        raise FormatError(f"{path}: a value beyond float32's range (about 3.4e38 in "
                          "magnitude) cannot be stored")
    n, h, w, d = values.shape
    with written_whole(path, "wb") as f:
        f.write(magic)
        f.write(_HEADER.pack(n, h, w, d))
        f.write(values)


def open_regular_file(path) -> BinaryIO:
    """``path`` opened for binary reading, for a reader that checks sizes
    against the file's: anything but a regular file (a pipe, a device) is a
    FormatError naming the path."""
    f = open(path, "rb")
    if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        f.close()
        raise FormatError(f"{path}: not a regular file; pass a file, not a pipe")
    return f


def _read_block(path, magic: bytes) -> np.ndarray:
    with open_regular_file(path) as f:
        head = f.read(len(magic) + _HEADER.size)
        if head[:len(magic)] != magic:
            raise FormatError(f"{path}: bad magic {head[:len(magic)]!r}, expected {magic!r}")
        if len(head) != len(magic) + _HEADER.size:
            raise FormatError(f"{path}: truncated header, expected {_HEADER.size} bytes, "
                              f"got {len(head) - len(magic)}")
        n, h, w, d = _HEADER.unpack_from(head, len(magic))
        if min(h, w, d) < 1:
            raise FormatError(f"{path}: non-positive dimensions h={h} w={w} d={d}")
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != 4 * n * h * w * d:
            raise FormatError(f"{path}: expected {4 * n * h * w * d} payload bytes, got {size}")
        return np.fromfile(f, dtype="<f4", count=n * h * w * d).reshape(n, h, w, d)


def write_tensor_file(path, maps: np.ndarray) -> None:
    """Write an (n, h, w, d) stack of maps as a DESC1 file."""
    if maps.ndim != 4:
        raise FormatError(f"tensor file needs an (n, h, w, d) stack, got shape {maps.shape}")
    if not len(maps):
        raise FormatError("refusing to write an empty tensor file")
    _write_block(path, maps, DESC_MAGIC)


def read_tensor_file(path) -> np.ndarray:
    return _read_block(path, DESC_MAGIC)


def text_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text file, read as they are consumed and with their
    line endings; a byte sequence that is not UTF-8 is a FormatError naming
    the file."""
    with open(path, newline="", encoding="utf-8") as f:
        try:
            yield from f
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def write_features(path, features: np.ndarray) -> None:
    """Store (n, dim) feature vectors as a FEAT1 file."""
    feats = np.asarray(features)
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


# Whitespace and '#' comments (each up to its newline), then one token: a run
# of non-whitespace bytes, empty only at the end of the file.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_tokens(raw: bytes, count: int, start: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    i = start
    for _ in range(count):
        match = _TOKEN.match(raw, i)
        token, i = match[1], match.end()
        if not token:
            raise FormatError("unexpected end of image header")
        if not token.isdigit() or len(token) > 10:
            raise FormatError(f"bad image token {token[:16]!r}, expected a decimal number")
        tokens.append(int(token))
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
    if values.max(initial=0) > maxval:
        raise FormatError(f"{path}: sample {int(values.max())} above maxval {maxval}")
    return (values / maxval).reshape(h, w, channels)


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2-D uint8 grid as a plain-text (P2) PGM."""
    grid = np.asarray(values)
    if grid.ndim != 2:
        raise FormatError(f"PGM export needs a 2-D grid, got shape {grid.shape}")
    h, w = grid.shape
    with written_whole(path) as f:
        f.write(f"P2\n{w} {h}\n255\n")
        for row in grid.astype(np.uint64):
            f.write(" ".join(str(int(v)) for v in row) + "\n")


def attention_to_pixels(a: np.ndarray) -> np.ndarray:
    """Rescale attention weights so max -> 255 and min -> 0.

    A flat map (max == min, including the 1x1 grid) renders as all 255.
    """
    a = np.asarray(a, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    if hi == lo:
        return np.full(a.shape, 255, dtype=np.uint8)
    return np.rint((a - lo) / (hi - lo) * 255.0).astype(np.uint8)
