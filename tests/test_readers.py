"""Every reader either parses a damaged file or raises FormatError.

Each format starts from one small valid file, then Hypothesis truncates it
or overwrites a few of its bytes. Any other exception, a MemoryError from a
corrupted count included, fails the test.
"""

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


def tensor_bytes(tmp_path, magic):
    path = tmp_path / "valid.bin"
    formats.write_tensor_file(path, np.arange(12.0).reshape(2, 1, 1, 6), magic)
    return path.read_bytes()


VALID = {
    "CKPT1": checkpoint_bytes,
    "DESC1": lambda tmp: tensor_bytes(tmp, formats.DESC_MAGIC),
    "FEAT1": lambda tmp: tensor_bytes(tmp, formats.FEAT_MAGIC),
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
