import numpy as np
import pytest

from hareid import autodiff as ad
from hareid import backbone, formats
from hareid.errors import ConfigError, FormatError, ShapeError


def stack_shape_oracle(h, w, layers, kernel, channels):
    # Independent recurrence: valid stride-1 conv then ceil-mode 2x2 pool per layer.
    for _ in range(layers):
        h = h - kernel + 1
        w = w - kernel + 1
        if h < 1 or w < 1:
            return None
        h = -(-h // 2)
        w = -(-w // 2)
    return (h, w, channels)


class TestConvStack:
    def test_default_16x16_lands_on_2x2x32(self):
        cfg = backbone.ConvStackConfig()
        assert stack_shape_oracle(16, 16, 3, 2, 32) == (2, 2, 32)
        params = backbone.conv_layers(cfg, np.random.default_rng(0))
        amap = backbone.conv_forward(np.random.default_rng(1).uniform(size=(1, 16, 16, 1)),
                                     params)
        assert amap.shape == (1, 2, 2, 32)

    def test_shape_matches_oracle_across_configs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            layers = int(rng.integers(1, 4))
            kernel = int(rng.integers(1, 4))
            channels = int(rng.integers(1, 5))
            size = int(rng.integers(6, 20))
            expected = stack_shape_oracle(size, size, layers, kernel, channels)
            cfg = backbone.ConvStackConfig(layers=layers, kernel=kernel, channels=channels)
            params = backbone.conv_layers(cfg, rng)
            image = rng.uniform(size=(1, size, size, 1))
            if expected is None:
                # A valid conv leaves h < 1 exactly when its input has h < kernel.
                with pytest.raises(ShapeError):
                    backbone.conv_forward(image, params)
                continue
            assert backbone.conv_forward(image, params).shape == (1, *expected)

    @pytest.mark.parametrize("name", ["layers", "kernel", "channels", "in_channels"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_settings_below_one_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            backbone.ConvStackConfig(**{name: value})

    def test_zero_image_zero_bias_gives_zero_map(self):
        cfg = backbone.ConvStackConfig(layers=2, channels=3)
        params = backbone.conv_layers(cfg, np.random.default_rng(3))
        amap = backbone.conv_forward(np.zeros((1, 10, 10, 1)), params)
        np.testing.assert_array_equal(amap.tensor.data, 0.0)

    def test_identity_one_by_one_kernel_passthrough(self):
        image = np.random.default_rng(5).uniform(size=(5, 4, 1))  # nonnegative, ReLU-safe
        out = ad.relu(ad.conv2d(ad.constant(image), ad.constant(np.ones((1, 1, 1, 1))),
                                ad.constant(np.zeros(1))))
        np.testing.assert_allclose(out.data, image, atol=1e-15)

    def test_channel_mismatch(self):
        cfg = backbone.ConvStackConfig(layers=1)
        params = backbone.conv_layers(cfg, np.random.default_rng(6))
        with pytest.raises(ShapeError, match="3 channels"):
            backbone.conv_forward(np.zeros((1, 8, 8, 3)), params)

    def test_single_image_is_refused(self):
        # Only a (B, H, W, C) stack runs; one image is a stack of one.
        cfg = backbone.ConvStackConfig(layers=1)
        params = backbone.conv_layers(cfg, np.random.default_rng(6))
        with pytest.raises(ShapeError, match=r"\(B,H,W,C\) stack"):
            backbone.conv_forward(np.zeros((8, 8, 1)), params)

    def test_gradients_match_finite_differences_on_8x8(self):
        cfg = backbone.ConvStackConfig(layers=2, kernel=2, channels=2)
        params = backbone.conv_layers(cfg, np.random.default_rng(7))
        image = np.random.default_rng(8).uniform(-1, 1, size=(1, 8, 8, 1))

        def f():
            amap = backbone.conv_forward(image, params)
            return ad.tsum(ad.softmax_cross_entropy(ad.global_average_pool(amap.tensor), [1]))

        named = {name: t for i, layer in enumerate(params)
                 for name, t in ad.named(layer, f"conv{i}").items()}
        errors = ad.grad_check_groups(f, named)
        assert max(errors.values()) < 1e-4, errors


class TestDesc1Format:
    def test_small_file(self, tmp_path):
        path = tmp_path / "two.desc"
        maps = np.arange(8.0).reshape(2, 1, 1, 4)
        formats.write_tensor_file(path, maps)
        loaded = formats.read_tensor_file(path)
        assert loaded.shape == (2, 1, 1, 4)
        np.testing.assert_array_equal(loaded[1], maps[1])

    def test_round_trip_is_identity_at_f32(self, tmp_path):
        rng = np.random.default_rng(10)
        maps = rng.uniform(-2, 2, size=(5, 2, 3, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "rt.desc"
        formats.write_tensor_file(path, maps)
        np.testing.assert_array_equal(formats.read_tensor_file(path), maps)

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        path = tmp_path / "trunc.desc"
        formats.write_tensor_file(path, np.ones((1, 1, 1, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match=r"expected 16 payload bytes, got 12"):
            formats.read_tensor_file(path)

    @pytest.mark.parametrize("maps", [np.ones((2, 1, 4)), np.ones((0, 1, 1, 4))],
                             ids=["one map", "empty stack"])
    def test_writer_takes_a_non_empty_stack(self, tmp_path, maps):
        with pytest.raises(FormatError, match="stack|empty"):
            formats.write_tensor_file(tmp_path / "w.desc", maps)
        assert not (tmp_path / "w.desc").exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.desc"
        path.write_bytes(b"NOPE!\n" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            formats.read_tensor_file(path)

    def test_zero_dimension_rejected(self, tmp_path):
        import struct
        path = tmp_path / "zdim.desc"
        path.write_bytes(formats.DESC_MAGIC + struct.pack("<4I", 1, 0, 1, 4))
        with pytest.raises(FormatError, match="non-positive"):
            formats.read_tensor_file(path)


class TestImages:
    def test_pgm_p2_round_trip(self, tmp_path):
        grid = np.array([[0, 128], [255, 64]], dtype=np.uint8)
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, grid)
        img = formats.read_image(path)
        assert img.shape == (2, 2, 1)
        np.testing.assert_allclose(img[:, :, 0] * 255.0, grid, atol=1e-12)

    def test_pgm_p5_binary(self, tmp_path):
        path = tmp_path / "img5.pgm"
        path.write_bytes(b"P5\n# comment\n3 2\n255\n" + bytes([0, 10, 20, 30, 40, 255]))
        img = formats.read_image(path)
        assert img.shape == (2, 3, 1)
        assert img[1, 2, 0] == pytest.approx(1.0)

    def test_ppm_p6(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        img = formats.read_image(path)
        assert img.shape == (1, 2, 3)
        np.testing.assert_allclose(img[0, 0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("content", [b"P2\n1 1\n10\n200\n", b"P5\n1 1\n10\n\xc8",
                                         b"P3\n1 1\n10\n0 11 0\n", b"P6\n1 1\n10\n\x00\x0b\x00"])
    def test_sample_above_maxval_rejected(self, tmp_path, content):
        path = tmp_path / "over.pnm"
        path.write_bytes(content)
        with pytest.raises(FormatError, match="above maxval 10"):
            formats.read_image(path)

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="8-bit"):
            formats.read_image(path)


class TestAttentionExport:
    def test_uniform_map_is_all_255(self):
        pixels = formats.attention_to_pixels(np.full((3, 3), 0.25))
        np.testing.assert_array_equal(pixels, np.full((3, 3), 255, dtype=np.uint8))

    def test_single_cell_is_255(self):
        pixels = formats.attention_to_pixels(np.array([[1.0]]))
        np.testing.assert_array_equal(pixels, [[255]])

    def test_linear_rescale(self):
        pixels = formats.attention_to_pixels(np.array([[0.0, 0.5, 1.0]]))
        np.testing.assert_array_equal(pixels, [[0, 128, 255]])
