import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hareid import attention as att
from hareid import autodiff as ad
from hareid.backbone import ActivationMap
from hareid.errors import ConfigError, ShapeError
from hareid.gru import Mlp


def make_params(hidden, attn_hidden, d, seed=0):
    return Mlp.init(hidden, attn_hidden, d, np.random.default_rng(seed))


def make_map(arr):
    return ActivationMap(ad.constant(np.asarray(arr, dtype=np.float64)))


def col(values):
    """A batch of one: the values as a single column."""
    return ad.constant(np.asarray(values, dtype=np.float64)[:, None])


class TestGuidanceSignal:
    def test_zero_params(self):
        p = make_params(4, 3, 5)
        for t in ad.named(p, "attn").values():
            t.data[:] = 0.0
        w = att.guidance_signal(col(np.ones(4)), p)
        np.testing.assert_array_equal(w.data, np.zeros((5, 1)))

    def test_identity_passthrough_for_nonnegative_input(self):
        p = make_params(3, 3, 3)
        p.w1.data[:] = np.eye(3)
        p.b1.data[:] = 0.0
        p.w2.data[:] = np.eye(3)
        p.b2.data[:] = 0.0
        o1 = np.array([[0.2, 0.5], [0.0, 3.0], [1.7, 0.0]])  # two samples
        np.testing.assert_array_equal(att.guidance_signal(ad.constant(o1), p).data, o1)

    def test_relu_clips_hand_case(self):
        p = make_params(1, 1, 1)
        p.w1.data[:] = [[1.0]]
        p.b1.data[:] = [0.0]
        p.w2.data[:] = [[2.0]]
        p.b2.data[:] = [0.5]
        w = att.guidance_signal(col([-1.0]), p)
        np.testing.assert_array_equal(w.data, [[0.5]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            att.guidance_signal(col(np.ones(5)), make_params(4, 3, 5))


class TestAttentionScores:
    def test_zero_guidance_gives_ln2_everywhere(self):
        s = att.attention_scores(ad.constant(np.zeros(3)), make_map(np.ones((2, 2, 3))))
        np.testing.assert_allclose(s.data, math.log(2.0), atol=1e-12)

    def test_unit_dot_product(self):
        amap = make_map([[[1.0], [0.0]]])  # 1x2 grid, d=1
        s = att.attention_scores(ad.constant([1.0]), amap)
        assert s.data[0, 0] == pytest.approx(math.log(1.0 + math.e), abs=1e-12)
        assert s.data[0, 0] == pytest.approx(1.313262, abs=1e-6)
        assert s.data[0, 1] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_negative_dot_stays_positive(self):
        amap = make_map([[[1.0]]])
        s = att.attention_scores(ad.constant([-100.0]), amap)
        assert 0.0 < s.data[0, 0] < 1e-40
        assert np.isfinite(s.data[0, 0])


class TestNormalizeScores:
    def test_equal_scores_on_2x2(self):
        a = att.normalize_scores(ad.constant(np.full((2, 2), 0.37)))
        np.testing.assert_allclose(a.data, 0.25, atol=1e-15)

    def test_hand_case_with_epsilon(self):
        a = att.normalize_scores(ad.constant([[1.0, 0.0, 0.0, 0.0]]), epsilon=0.1)
        np.testing.assert_allclose(a.data, [[11.0 / 14, 1.0 / 14, 1.0 / 14, 1.0 / 14]],
                                   atol=1e-12)
        assert a.data[0, 0] == pytest.approx(0.785714, abs=1e-6)
        assert a.data[0, 1] == pytest.approx(0.071429, abs=1e-6)

    def test_single_cell_is_forced_to_one(self):
        for s in (0.0, 5.0, 1e-30):
            a = att.normalize_scores(ad.constant([[s]]))
            assert a.data[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ConfigError):
            att.normalize_scores(ad.constant([[1.0]]), epsilon=0.0)

    def test_default_epsilon_is_point_one(self):
        assert att.DEFAULT_EPSILON == 0.1

    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_distribution_property(self, h, w, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.0, 50.0, size=(h, w))
        a = att.normalize_scores(ad.constant(scores)).data
        assert abs(a.sum() - 1.0) < 1e-9
        assert np.all(a > 0)

    def test_shift_keeps_distribution(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(-2, 2, size=(3, 3))
        for c in (-5.0, 0.0, 3.0):
            s = att.attention_scores(ad.constant([1.0]),
                                     make_map((base + c)[:, :, None]))
            a = att.normalize_scores(s).data
            assert abs(a.sum() - 1.0) < 1e-9
            assert np.all(a > 0)


class TestAttend:
    def test_near_zero_weight_suppresses_location(self):
        amap = make_map(np.ones((1, 2, 3)))
        a = ad.constant([[1e-12, 1.0 - 1e-12]])
        attended = att.attend(a, amap)
        np.testing.assert_allclose(attended.data[0, 0], 0.0, atol=1e-11)

    def test_uniform_weights_scale_by_grid_size(self):
        rng = np.random.default_rng(12)
        arr = rng.uniform(-1, 1, size=(2, 2, 5))
        attended = att.attend(ad.constant(np.full((2, 2), 0.25)), make_map(arr))
        np.testing.assert_allclose(attended.data, arr / 4.0, atol=1e-15)

    def test_single_cell_identity(self):
        arr = np.arange(4.0).reshape(1, 1, 4)
        attended = att.attend(ad.constant([[1.0]]), make_map(arr))
        np.testing.assert_array_equal(attended.data, arr)

    def test_grid_mismatch(self):
        with pytest.raises(ShapeError):
            att.attend(ad.constant(np.ones((2, 3))), make_map(np.ones((2, 2, 4))))


class TestAttentionEmbedding:
    def test_single_cell(self):
        arr = np.arange(4.0).reshape(1, 1, 1, 4)
        x2 = att.attention_embedding(ad.constant(arr))
        np.testing.assert_array_equal(x2.data, np.arange(4.0)[:, None])

    def test_uniform_attention_reproduces_quarter_gap(self):
        rng = np.random.default_rng(13)
        arr = rng.uniform(-1, 1, size=(1, 2, 2, 6))
        amap = make_map(arr)
        x1 = ad.global_average_pool(amap.tensor).data
        attended = att.attend(ad.constant(np.full((1, 2, 2), 0.25)), amap)
        x2 = att.attention_embedding(attended).data
        np.testing.assert_allclose(x2, x1 / 4.0, atol=1e-15)

    def test_one_hot_attention_on_1x2_grid(self):
        u, v = np.array([1.0, 2.0]), np.array([-3.0, 5.0])
        amap = make_map(np.stack([u, v])[None, None])  # a batch of one 1x2 grid
        attended = att.attend(ad.constant([[[1.0, 0.0]]]), amap)
        x2 = att.attention_embedding(attended).data
        np.testing.assert_allclose(x2, u[:, None] / 2.0, atol=1e-15)


class TestPipeline:
    def test_concentration_argmax(self):
        # One descriptor aligned with the guidance, the rest anti-aligned.
        arr = np.full((3, 3, 2), -10.0)
        arr[1, 2] = 10.0
        s = att.attention_scores(ad.constant([1.0, 1.0]), make_map(arr))
        a = att.normalize_scores(s)
        weights = att.AttentionWeights(a=a.data)
        assert weights.argmax_cell() == (1, 2)
        # The grid is the last two axes: a batch of one gives its sample's cell.
        assert att.AttentionWeights(a=a.data[None]).argmax_cell() == (1, 2)
        others = np.delete(a.data.reshape(-1), 1 * 3 + 2)
        assert np.all(a.data[1, 2] > others)

    def test_end_to_end_gradients(self):
        rng = np.random.default_rng(14)
        params = make_params(4, 3, 5, seed=15)
        amap = make_map(rng.uniform(-1, 1, size=(3, 2, 3, 5)))  # a batch of three
        o1 = ad.constant(rng.uniform(-1, 1, size=(4, 3)))

        def f():
            x2, _ = att.attention_pipeline(o1, amap, params)
            return ad.tsum(ad.softmax_cross_entropy(x2, [2, 0, 4]))

        errors = ad.grad_check_groups(f, ad.named(params, "attn"))
        assert max(errors.values()) < 1e-4

    def test_gradients_reach_the_map_itself(self):
        rng = np.random.default_rng(16)
        params = make_params(4, 3, 5, seed=17)
        tensor = ad.parameter(rng.uniform(-1, 1, size=(3, 2, 2, 5)))
        amap = ActivationMap(tensor)
        o1 = ad.constant(rng.uniform(-1, 1, size=(4, 3)))

        def f():
            x2, _ = att.attention_pipeline(o1, amap, params)
            return ad.tsum(ad.softmax_cross_entropy(x2, [0, 3, 1]))

        assert ad.grad_check_groups(f, {"map": tensor})["map"] < 1e-4

    def test_batch_matches_single_samples(self):
        # Every step works per sample: a batch of three distinct maps gives
        # each sample what that sample alone gives.
        rng = np.random.default_rng(18)
        params = make_params(4, 3, 5, seed=19)
        maps = rng.uniform(-1, 1, size=(3, 2, 3, 5))
        o1 = rng.uniform(-1, 1, size=(4, 3))
        x2, weights = att.attention_pipeline(ad.constant(o1), make_map(maps), params)
        assert x2.shape == (5, 3) and weights.a.shape == (3, 2, 3)
        for i in range(3):
            one, alone = att.attention_pipeline(ad.constant(o1[:, i:i + 1]),
                                                make_map(maps[i:i + 1]), params)
            np.testing.assert_allclose(x2.data[:, i], one.data[:, 0], rtol=1e-14)
            np.testing.assert_allclose(weights.a[i], alone.a[0], rtol=1e-14)
            w = params.apply(ad.constant(o1[:, i:i + 1])).data[:, 0]
            s = att.attention_scores(ad.constant(w), make_map(maps[i]))
            a = att.normalize_scores(s)
            np.testing.assert_allclose(weights.a[i], a.data, rtol=1e-14)
            attended = att.attend(a, make_map(maps[i]))
            np.testing.assert_allclose(
                x2.data[:, i], att.attention_embedding(ad.reshape(attended, (1, 2, 3, 5))).data[:, 0],
                rtol=1e-14)
