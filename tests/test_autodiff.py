import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale_sigmoid_backward
from hareid import autodiff as ad
from hareid.errors import NumericError, ShapeError


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestMatmul:
    def test_identity(self):
        b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.constant(np.eye(2)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_hand_value(self):
        out = ad.matmul(ad.constant([[1.0, 2.0], [3.0, 4.0]]), ad.constant([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))

    def test_matvec_gradients(self):
        # A weight times a batch of vectors, one column per sample; a bare
        # vector operand is not a batch and is rejected.
        rng = np.random.default_rng(0)
        a = ad.parameter(rand(rng, 3, 4))
        b = ad.parameter(rand(rng, 4, 5))

        def f():
            return ad.tsum(ad.sigmoid(ad.matmul(a, b)))

        assert max(ad.grad_check_groups(f, {"a": a, "b": b}).values()) < 1e-4
        with pytest.raises(ShapeError):
            ad.matmul(a, ad.constant(rand(rng, 4)))

    def test_stacked_product_is_per_sample(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 2, 4), rand(rng, 3, 4, 1)
        out = ad.matmul(ad.constant(a), ad.constant(b)).data
        for i in range(3):
            np.testing.assert_array_equal(out[i], a[i] @ b[i])
        with pytest.raises(ShapeError):
            ad.matmul(ad.constant(a), ad.constant(rand(rng, 2, 4, 1)))


class TestUnary:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.constant(0.0)).item() == 0.5

    def test_softplus_zero(self):
        assert ad.softplus(ad.constant(0.0)).item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_tanh_one(self):
        assert ad.tanh(ad.constant(1.0)).item() == pytest.approx(math.tanh(1.0), abs=1e-12)
        assert ad.tanh(ad.constant(1.0)).item() == pytest.approx(0.761594, abs=1e-6)

    def test_softplus_strictly_positive(self):
        x = ad.constant([-700.0, -100.0, 0.0, 100.0])
        y = ad.softplus(x).data
        assert np.all(y > 0) and np.all(np.isfinite(y))

    @given(st.floats(min_value=-18, max_value=18, allow_nan=False))
    def test_sigmoid_tanh_ranges(self, x):
        # Beyond |x| ~ 19 float64 tanh rounds to exactly +-1, so the open
        # interval is only representable inside this range.
        s = ad.sigmoid(ad.constant(x)).item()
        t = ad.tanh(ad.constant(x)).item()
        assert 0.0 < s < 1.0
        assert -1.0 < t < 1.0


class TestBinary:
    def test_mul_ones(self):
        x = ad.constant([1.5, -2.0])
        np.testing.assert_array_equal(ad.mul(x, ad.constant([1.0, 1.0])).data, x.data)

    def test_add(self):
        np.testing.assert_array_equal(ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0])).data,
                                      [4.0, 6.0])

    def test_scalar_broadcast(self):
        np.testing.assert_array_equal(ad.mul(ad.constant(0.5), ad.constant([2.0, 4.0])).data,
                                      [1.0, 2.0])

    def test_scalar_operand_grad_is_summed(self):
        s = ad.parameter(0.5)
        x = ad.constant([2.0, 4.0])
        ad.backward(ad.tsum(ad.mul(s, x)))
        assert s.grad == pytest.approx(6.0)

    def test_bias_broadcasts_over_batch_columns(self):
        # A prefix shape repeats along the trailing axes; its gradient sums
        # over them.
        bias = ad.parameter([1.0, -1.0])
        x = ad.constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = ad.add(x, bias)
        np.testing.assert_array_equal(out.data, [[2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
        ad.backward(ad.tsum(ad.mul(out, x)))
        np.testing.assert_array_equal(bias.grad, [6.0, 15.0])

    def test_non_broadcastable(self):
        with pytest.raises(ShapeError):
            ad.add(ad.constant([1.0, 2.0]), ad.constant([1.0, 2.0, 3.0]))
        # numpy would align (3,) with the trailing axis; only prefixes broadcast.
        with pytest.raises(ShapeError):
            ad.mul(ad.constant(np.ones((2, 3))), ad.constant(np.ones(3)))


class TestScaleRows:
    def test_each_row_scaled_by_its_weight(self):
        rng = np.random.default_rng(2)
        x, a = rand(rng, 3, 2, 2, 4), rand(rng, 3, 2, 2)
        out = ad.scale_rows(ad.constant(x), ad.constant(a)).data
        for idx in np.ndindex(a.shape):
            np.testing.assert_array_equal(out[idx], x[idx] * a[idx])

    @pytest.mark.parametrize("shape", [(3, 2, 2, 4), (1, 3, 2, 4), (3, 2, 2, 1), (1, 1, 1, 1)],
                             ids=["B=3", "B=1", "d=1", "B=1 d=1"])
    def test_bits_of_the_row_scaling_formulas(self, shape):
        # scale_rows is one mul node; its forward and both gradients keep the
        # bits of the row-scaling formulas below, the op's former hand-written rule.
        rng = np.random.default_rng(5)
        x, a, g = rand(rng, *shape), rand(rng, *shape[:-1]), rand(rng, *shape)
        xt, at = ad.parameter(x.copy()), ad.parameter(a.copy())
        out = ad.scale_rows(xt, at)
        assert out.op == "mul"
        ad.backward(ad.tsum(out * ad.constant(g)))  # out receives the gradient g
        assert np.array_equal(out.data, x * a[..., None])
        assert np.array_equal(xt.grad, g * a[..., None])
        assert np.array_equal(at.grad, np.sum(g * x, axis=-1))

    def test_misaligned_weights(self):
        # The weights must have exactly the leading shape of x.
        x = ad.constant(np.ones((3, 2, 2, 4)))
        for shape in [(3, 2), (2, 2, 3), (3, 2, 2, 4), (12,)]:
            with pytest.raises(ShapeError, match=r"scale_rows"):
                ad.scale_rows(x, ad.constant(np.ones(shape)))


class TestGlobalAveragePool:
    def test_constant_map(self):
        out = ad.global_average_pool(ad.constant(np.full((1, 3, 2, 4), 7.5)))
        np.testing.assert_array_equal(out.data, np.full((4, 1), 7.5))

    def test_single_location_identity(self):
        m = ad.constant(np.arange(5.0).reshape(1, 1, 1, 5))
        np.testing.assert_array_equal(ad.global_average_pool(m).data, np.arange(5.0)[:, None])

    def test_two_values(self):
        m = ad.constant(np.array([1.0, 3.0]).reshape(1, 2, 1, 1))
        np.testing.assert_array_equal(ad.global_average_pool(m).data, [[2.0]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ad.global_average_pool(ad.constant(np.zeros((0, 2))))
        with pytest.raises(ShapeError):
            ad.global_average_pool(ad.constant(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.global_average_pool(ad.constant(np.zeros((0, 2, 2, 3))))

    def test_single_map_is_refused(self):
        # Only a (B, h, w, d) stack pools; one map is a stack of one.
        with pytest.raises(ShapeError, match=r"\(B,h,w,d\) stack"):
            ad.global_average_pool(ad.constant(np.ones((2, 2, 3))))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rand(rng, 1, 2, 3, 4), rand(rng, 1, 2, 3, 4)
        a, b = 1.7, -0.3
        lhs = ad.global_average_pool(ad.constant(a * x + b * y)).data
        rhs = (a * ad.global_average_pool(ad.constant(x)).data
               + b * ad.global_average_pool(ad.constant(y)).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_backward_distributes_uniformly(self):
        x = ad.parameter(rand(np.random.default_rng(2), 1, 2, 3, 4))
        ad.backward(ad.tsum(ad.global_average_pool(x)))
        np.testing.assert_allclose(x.grad, np.full((1, 2, 3, 4), 1.0 / 6.0), atol=1e-15)

    def test_stack_pools_each_sample_into_a_column(self):
        maps = rand(np.random.default_rng(3), 3, 2, 3, 4)
        out = ad.global_average_pool(ad.constant(maps)).data
        assert out.shape == (4, 3)
        for i in range(3):
            np.testing.assert_array_equal(
                out[:, i], ad.global_average_pool(ad.constant(maps[i:i + 1])).data[:, 0])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for c in (2, 5, 10):
            loss = ad.softmax_cross_entropy(ad.constant(np.zeros(c)), 0)
            assert loss.item() == pytest.approx(math.log(c), abs=1e-12)

    def test_hand_value(self):
        loss = ad.softmax_cross_entropy(ad.constant([math.log(2.0), 0.0]), 0)
        assert loss.item() == pytest.approx(math.log(1.5), abs=1e-12)
        assert loss.item() == pytest.approx(0.405465, abs=1e-6)

    def test_confident_logits_do_not_overflow(self):
        loss = ad.softmax_cross_entropy(ad.constant([100.0, 0.0]), 0)
        assert np.isfinite(loss.data)
        assert 0.0 <= loss.item() < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(ad.constant([0.0, 1.0]), 2)
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(ad.constant([0.0, 1.0]), -1)

    def test_gradient_is_softmax_minus_onehot(self):
        z = ad.parameter([0.3, -1.2, 2.0])
        ad.backward(ad.softmax_cross_entropy(z, 1))
        p = np.exp(z.data) / np.sum(np.exp(z.data))
        expected = p - np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(z.grad, expected, atol=1e-12)

    def test_label_vector_gives_per_sample_losses(self):
        z = rand(np.random.default_rng(4), 5, 3)
        losses = ad.softmax_cross_entropy(ad.constant(z), np.array([4, 0, 2])).data
        assert losses.shape == (3,)
        for i, label in enumerate((4, 0, 2)):
            single = ad.softmax_cross_entropy(ad.constant(z[:, i]), label).item()
            assert losses[i] == pytest.approx(single, rel=1e-15)
        with pytest.raises(ShapeError):
            ad.softmax_cross_entropy(ad.constant(z), 1)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rand(rng, 6)
            assert ad.softmax_cross_entropy(ad.constant(z), int(rng.integers(6))).item() >= 0.0


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.parameter(rand(np.random.default_rng(4), 3, 2))
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_square_at_three(self):
        x = ad.parameter(3.0)
        ad.backward(ad.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ad.backward(ad.constant([1.0, 2.0]))

    def test_shared_parameter_accumulates(self):
        # The same weight used twice must collect both contributions.
        w = ad.parameter(2.0)
        x = ad.constant(3.0)
        ad.backward(ad.add(ad.mul(w, x), ad.mul(w, w)))  # wx + w^2 -> 3 + 2w = 7
        assert w.grad == pytest.approx(7.0)

    def test_only_leaves_keep_gradients(self):
        x = ad.parameter(rand(np.random.default_rng(5), 3))
        hidden = ad.sigmoid(x)
        ad.backward(ad.tsum(hidden))
        assert x.grad is not None and hidden.grad is None

    def test_topological_order(self):
        x = ad.parameter(1.0)
        y = ad.mul(x + 1.0, ad.sigmoid(x))
        order = ad.topological_order(y)
        pos = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node.parents:
                assert pos[id(parent)] < pos[id(node)]


def op_table(rng, leaf):
    """The leaves (made by ``leaf``) and one case per primitive: a batch of
    three samples with distinct values, a per-feature bias, a weight, a
    stack of maps and a stack of images with a conv kernel and bias."""
    x = leaf(rand(rng, 4, 3))  # 4 features x 3 samples
    v = leaf(rand(rng, 4))  # a per-feature bias
    w = leaf(rand(rng, 2, 4))  # a weight
    maps = leaf(rand(rng, 3, 2, 2, 4))  # three 2x2 maps of depth 4
    images = leaf(rand(rng, 2, 5, 5, 2))  # two 5x5 images of 2 channels
    kernel = leaf(rand(rng, 2, 2, 2, 3))  # 2x2 windows, 2 -> 3 channels
    bias = leaf(rand(rng, 3))
    cases = {
        "sigmoid": lambda: ad.sigmoid(x),
        "tanh": lambda: ad.tanh(x),
        "softplus": lambda: ad.softplus(x),
        "relu": lambda: ad.relu(x),
        "add": lambda: ad.add(x, v),
        "sub": lambda: ad.sub(v, ad.mul(x, x)),
        "mul": lambda: ad.mul(x, v),
        "div": lambda: ad.div(x, ad.mul(v, v) + 3.0),
        "matmul": lambda: ad.matmul(w, x),
        "stacked matmul": lambda: ad.matmul(
            ad.reshape(maps, (3, 4, 4)), ad.reshape(ad.transpose(x), (3, 4, 1))),
        "gap": lambda: ad.global_average_pool(maps),
        "scale_rows": lambda: ad.scale_rows(ad.reshape(maps, (12, 4)), ad.reshape(x, (12,))),
        "scale_rows over a map stack": lambda: ad.scale_rows(maps, ad.reshape(x, (3, 2, 2))),
        "reshape": lambda: ad.reshape(x, (3, 4)),
        "transpose": lambda: ad.transpose(x),
        "sum": lambda: ad.tsum(maps, keep=1),
        "sum to a scalar": lambda: ad.tsum(x),
        "conv2d": lambda: ad.conv2d(images, kernel, bias),
        # The odd size pools a partial window.
        "max_pool2": lambda: ad.max_pool2(images),
        "cross_entropy": lambda: ad.softmax_cross_entropy(x, [1, 3, 0]),
    }
    return [x, v, w, maps, images, kernel, bias], cases


class TestNodes:
    @pytest.mark.parametrize("leaf", [ad.parameter, ad.constant])
    def test_every_output_is_a_float64_array_needing_what_its_parents_need(self, leaf):
        _, cases = op_table(np.random.default_rng(7), leaf)
        for name, op in cases.items():
            out = op()
            assert type(out.data) is np.ndarray and out.data.dtype == np.float64, name
            assert out.requires_grad == any(p.requires_grad for p in out.parents), name
            assert out.requires_grad == (leaf is ad.parameter), name
            assert out.grad is None and out._backward is not None, name

    def test_python_number_operand_is_a_parentless_constant(self):
        x = ad.parameter([0.5, -1.5])
        for out in (1.0 - x, x + 2, 3.0 * x, x / 4.0, ad.tsum(x) / 2):
            constants = [p for p in out.parents if p is not x and p.op == "leaf"]
            assert len(constants) == 1
            c = constants[0]
            assert c.parents == () and not c.requires_grad and c._backward is None
            assert type(c.data) is np.ndarray and c.data.dtype == np.float64
            assert c.data.ndim == 0
            assert type(out.data) is np.ndarray and out.data.dtype == np.float64
            ad.backward(ad.tsum(out))
            assert c.grad is None and x.grad is not None
            x.zero_grad()


class TestGradCheck:
    def test_square(self):
        x = ad.parameter(3.0)
        assert ad.grad_check_groups(lambda: ad.mul(x, x), {"x": x})["x"] < 1e-8

    def test_gru_like_composite(self):
        rng = np.random.default_rng(5)
        wx = ad.parameter(rand(rng, 5, 5))
        wh = ad.parameter(rand(rng, 5, 5))
        b = ad.parameter(rand(rng, 5))
        x = ad.constant(rand(rng, 5, 3))  # a batch of three columns
        h = ad.constant(rand(rng, 5, 3))

        def f():
            z = ad.sigmoid(wx @ x + wh @ h + b)
            n = ad.tanh(wx @ x)
            out = (1.0 - z) * n + z * h
            return ad.tsum(ad.softmax_cross_entropy(out, [2, 0, 4]))

        errors = ad.grad_check_groups(f, {"wx": wx, "wh": wh, "b": b})
        assert max(errors.values()) < 1e-4, errors

    def test_every_primitive_against_finite_differences(self):
        # Each case runs a batch of three samples with distinct values, and
        # the loss weights every output element differently, so a gradient
        # summed over the wrong axis or routed to the wrong sample fails.
        rng = np.random.default_rng(6)
        params, cases = op_table(rng, ad.parameter)
        probes: dict[tuple[int, ...], ad.Tensor] = {}

        def weighted(t):
            probe = probes.setdefault(t.shape, ad.constant(rand(rng, *t.shape)))
            return ad.tsum(ad.mul(t, probe))

        named = {f"p{i}": p for i, p in enumerate(params)}
        for name, op in cases.items():
            errors = ad.grad_check_groups(lambda: weighted(op()), named)
            assert max(errors.values()) < 1e-4, f"{name}: rel errs {errors}"

    def test_wrong_backward_is_caught(self, monkeypatch):
        x = ad.parameter([0.4, -0.7, 1.2])

        def f():
            return ad.tsum(ad.sigmoid(x))

        assert ad.grad_check_groups(f, {"x": x})["x"] < 1e-4
        scale_sigmoid_backward(monkeypatch, 1.5)
        assert ad.grad_check_groups(f, {"x": x})["x"] > 1e-2

    def test_non_finite_loss_rejected(self):
        x = ad.parameter(1.0)

        def f():
            return ad.mul(x, ad.constant(np.inf))

        with pytest.raises(NumericError):
            ad.grad_check_groups(f, {"x": x})


class TestFiniteOutputs:
    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_random_pipelines_stay_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = ad.constant(rand(rng, 3, 3))
        y = ad.sigmoid(ad.matmul(x, ad.constant(rand(rng, 3, 3))))
        z = ad.softplus(ad.sub(ad.mul(y, y), ad.tanh(x)))
        assert np.all(np.isfinite(z.data))
