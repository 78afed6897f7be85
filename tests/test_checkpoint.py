import numpy as np
import pytest

from hareid.checkpoint import load_checkpoint, save_checkpoint
from hareid.errors import FormatError
from hareid.model import Model, ModelConfig
from hareid.optim import RmspropState


def small_model(variant="rnn_ha", seed=3):
    return Model(ModelConfig(num_models=2, num_vehicles=4, d=3, hidden=5,
                             variant=variant, seed=seed))


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        model = small_model()
        state = RmspropState.init(model.params())
        state.v["gru.w_xz"][:] = 0.25
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.config, model.params(), state, epoch=7, seed=42)
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 7
        assert ckpt.seed == 42
        assert ckpt.config == model.config
        for name, tensor in model.params().items():
            np.testing.assert_array_equal(ckpt.params[name], tensor.data)
        np.testing.assert_array_equal(ckpt.opt.v["gru.w_xz"], state.v["gru.w_xz"])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = small_model(variant="fc_ha")
        state = RmspropState.init(model.params())
        first = tmp_path / "a.ckpt"
        save_checkpoint(first, model.config, model.params(), state, epoch=2, seed=9)
        ckpt = load_checkpoint(first)
        second = tmp_path / "b.ckpt"
        save_checkpoint(second, ckpt.config, ckpt.params, ckpt.opt, ckpt.epoch, ckpt.seed)
        assert first.read_bytes() == second.read_bytes()

    def test_optimizer_state_optional(self, tmp_path):
        model = small_model(variant="rnn_h_no_attention")
        path = tmp_path / "noopt.ckpt"
        save_checkpoint(path, model.config, model.params(), None, epoch=0, seed=0)
        assert load_checkpoint(path).opt is None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCK1" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        model = small_model()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model.config, model.params(), None, epoch=0, seed=0)
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_garbage_detected(self, tmp_path):
        model = small_model()
        path = tmp_path / "g.ckpt"
        save_checkpoint(path, model.config, model.params(), None, epoch=0, seed=0)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_checkpoint(path)

    def test_load_state_shape_mismatch(self, tmp_path):
        model = small_model()
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, model.config, model.params(), None, epoch=0, seed=0)
        ckpt = load_checkpoint(path)
        other = Model(ModelConfig(num_models=2, num_vehicles=4, d=3, hidden=6, seed=0))
        from hareid.errors import ConfigError
        with pytest.raises(ConfigError):
            other.load_state(ckpt.params)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.config, model.params(), None, epoch=1, seed=5)
        before = path.read_bytes()
        # The last tensor cannot be converted to float64: the write fails
        # after the header and every other tensor are out.
        broken = {**model.params(), "zz.bad": np.array(["not a number"])}
        with pytest.raises(ValueError):
            save_checkpoint(path, model.config, broken, None, epoch=2, seed=5)
        assert path.read_bytes() == before
        assert load_checkpoint(path).epoch == 1
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
