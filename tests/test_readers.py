"""Every reader either parses a damaged file or raises FormatError.

Each format starts from one small valid file, then Hypothesis truncates it
or overwrites a few of its bytes. Any other exception, a MemoryError from a
corrupted count included, fails the test. The DESC1 and FEAT1 readers also
return the stored float32 values, and check a header's claimed size before
they allocate it. The binary readers refuse a pipe by name.
"""

import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hareid import formats
from hareid.checkpoint import load_checkpoint, save_checkpoint
from hareid.errors import FormatError
from hareid.model import Model, ModelConfig
from hareid.optim import RmspropState


def checkpoint_bytes(tmp_path):
    model = Model(ModelConfig(num_models=2, num_vehicles=3, d=2, hidden=2, seed=0))
    path = tmp_path / "valid.ckpt"
    save_checkpoint(path, model.config, model.params(), RmspropState.init(model.params()),
                    epoch=1, seed=0)
    return path.read_bytes()


def tensor_bytes(tmp_path, write, shape):
    path = tmp_path / "valid.bin"
    write(path, np.arange(12.0).reshape(shape))
    return path.read_bytes()


VALID = {
    "CKPT1": checkpoint_bytes,
    "DESC1": lambda tmp: tensor_bytes(tmp, formats.write_tensor_file, (2, 1, 1, 6)),
    "FEAT1": lambda tmp: tensor_bytes(tmp, formats.write_features, (2, 6)),
    "PGM P2": lambda tmp: b"P2\n# grid\n3 2\n255\n0 10 20\n30 40 255\n",
    "PGM P5": lambda tmp: b"P5\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 255]),
}
READERS = {"CKPT1": load_checkpoint, "DESC1": formats.read_tensor_file,
           "FEAT1": formats.load_features, "PGM P2": formats.read_image,
           "PGM P5": formats.read_image}


@st.composite
def damaged(draw, raw: bytes) -> bytes:
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


@pytest.mark.parametrize("kind", list(VALID))
def test_damaged_file_parses_or_is_format_error(kind, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(kind.replace(" ", "_"))
    raw = VALID[kind](tmp)
    path = tmp / "damaged"
    path.write_bytes(raw)
    READERS[kind](path)  # the undamaged file parses

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(damaged(raw))
    def check(data):
        path.write_bytes(data)
        try:
            READERS[kind](path)
        except FormatError:
            pass

    check()


TENSOR_FILES = {"DESC1": (formats.write_tensor_file, formats.read_tensor_file, (2, 3, 1, 4)),
                "FEAT1": (formats.write_features, formats.load_features, (3, 4))}


@pytest.mark.parametrize("kind", list(TENSOR_FILES))
def test_reader_returns_the_stored_float32(kind, tmp_path):
    write, read, shape = TENSOR_FILES[kind]
    values = (np.arange(np.prod(shape)).reshape(shape) - 5.0) / 7.0
    write(tmp_path / "f", values)
    got = read(tmp_path / "f")
    assert got.dtype == np.float32 and got.shape == shape
    assert got.flags.c_contiguous and got.flags.writeable
    np.testing.assert_array_equal(got, values.astype(np.float32))


@pytest.mark.parametrize("kind", list(TENSOR_FILES))
def test_value_beyond_float32_is_refused_before_the_file_is_opened(kind, tmp_path):
    # The float32 cast would store -1e39 as -inf. A value that is already
    # infinite or nan is stored as it is, and float32's largest value fits.
    write, read, shape = TENSOR_FILES[kind]
    path = tmp_path / "f"
    values = np.zeros(shape)
    values.flat[0] = np.finfo(np.float32).max
    values.flat[1] = -1e39
    with pytest.raises(FormatError) as err:
        write(path, values)
    assert str(err.value) == (f"{path}: a value beyond float32's range (about 3.4e38 in "
                              "magnitude) cannot be stored")
    assert not path.exists()
    values.flat[1], values.flat[2] = -np.inf, np.nan
    write(path, values)
    got = read(path).reshape(-1)
    assert got[0] == np.finfo(np.float32).max and got[1] == -np.inf and np.isnan(got[2])
    values.flat[3] = 1e39  # overflow beside an infinity is still found
    with pytest.raises(FormatError):
        write(tmp_path / "g", values)
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("kind", list(TENSOR_FILES))
def test_claimed_payload_is_checked_before_it_is_allocated(kind, tmp_path):
    write, read, shape = TENSOR_FILES[kind]
    path = tmp_path / "f"
    write(path, np.ones((1,) * len(shape)))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, len(formats.DESC_MAGIC), 2**32 - 1)  # n
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as err:
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"expected {(2**32 - 1) * 4} payload bytes, got 4" in str(err.value)
    assert peak < 2**20  # NumPy reports its arrays to tracemalloc


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("kind", ["CKPT1", "DESC1", "FEAT1"])
def test_pipe_is_format_error_naming_it(kind, tmp_path):
    # The readers check sizes against the file's, so a pipe holding a valid
    # file is refused up front, by name, not by a failed seek.
    raw = VALID[kind](tmp_path)
    read_end, write_end = os.pipe()
    try:
        os.set_blocking(write_end, False)  # a file too large for the pipe fails, not hangs
        assert os.write(write_end, raw) == len(raw)
        path = f"/dev/fd/{read_end}"
        with pytest.raises(FormatError) as err:
            READERS[kind](path)
    finally:
        os.close(read_end)
        os.close(write_end)
    assert str(err.value) == f"{path}: not a regular file; pass a file, not a pipe"


BAD_TOKEN = "bad image token {}, expected a decimal number"


@pytest.mark.parametrize("raw, expected", [
    # A '#' inside a token is part of it: only a token's first byte starts a comment.
    (b"P2 1 1#x\n255\n0\n", BAD_TOKEN.format(b"1#x")),
    # A comment may run to the end of the file without a newline.
    (b"P2 1 1 255 7 # last", [[[7]]]),
    (b"P2 2 1 # no maxval", "unexpected end of image header"),
    # \r, \v and \f separate tokens as space, tab and newline do.
    (b"P2\r2\x0b1\x0c255\r3\x0b4\x0c", [[[3], [4]]]),
    # A token has at most 10 digits; an error shows its first 16 bytes.
    (b"P2 1 1 0000000255 9", [[[9]]]),
    (b"P2 1 1 25500000000 0", BAD_TOKEN.format(b"25500000000")),
    (b"P2 1 1 255 " + b"9" * 20, BAD_TOKEN.format(b"9" * 16)),
    # The header ends after two of its three tokens.
    (b"P2 1 1", "unexpected end of image header"),
    (b"P5\n1 1\n", "unexpected end of image header"),
    # Comments between the samples of a plain payload.
    (b"P3 2 1 255\n1 # red\n2 #green\n# a line\n3 4\t#\n5 6", [[[1, 2, 3], [4, 5, 6]]]),
], ids=["comment after token", "comment at end of file", "header ends in comment",
        "cr vt ff separators", "ten digits", "eleven digits", "long token", "two tokens",
        "two tokens P5", "P3 comments"])
def test_netpbm_token_grammar(tmp_path, raw, expected):
    path = tmp_path / "img"
    path.write_bytes(raw)
    if isinstance(expected, str):
        with pytest.raises(FormatError) as err:
            formats.read_image(path)
        assert str(err.value) == expected
    else:
        np.testing.assert_array_equal(formats.read_image(path), np.array(expected) / 255)
