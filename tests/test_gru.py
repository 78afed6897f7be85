import math

import numpy as np
import pytest

from hareid import autodiff as ad
from hareid.errors import ShapeError
from hareid.gru import (ClassifierHead, GruParams, LossReport, classify, gru_step,
                        hierarchical_loss)


def zero_params(d, h):
    p = GruParams.init(d, h, np.random.default_rng(0))
    for t in ad.named(p, "gru").values():
        t.data[:] = 0.0
    return p


def scalar_params(weight=1.0):
    p = zero_params(1, 1)
    for name, t in ad.named(p, "gru").items():
        if name.startswith("gru.w"):
            t.data[:] = weight
    return p


def col(values):
    """A batch of one: the values as a single column."""
    return ad.constant(np.asarray(values, dtype=np.float64)[:, None])


def two_steps(x1, x2, p, h0=None):
    # The coarse-to-fine unroll of Model.forward: step 1 from h0 (None, the
    # zero state, by default), step 2 from step 1's state, both with the same
    # weights.
    s1 = gru_step(x1, h0, p)
    return s1, gru_step(x2, s1, p)


def scalar_step_oracle(x, h_prev):
    # Hand evaluation of the H = D = 1, all-weights-one, zero-bias cell.
    z = 1.0 / (1.0 + math.exp(-(x + h_prev)))
    r = z
    n = math.tanh(x + r * h_prev)
    return (1.0 - z) * n + z * h_prev, z, r, n


def numpy_gates(x, h_prev, p):
    """The update gate, reset gate and candidate of the full cell, in NumPy."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    w = {name.removeprefix("gru."): t.data for name, t in ad.named(p, "gru").items()}
    z = sig(w["w_xz"] @ x + w["w_hz"] @ h_prev + w["b_z"][:, None])
    r = sig(w["w_xr"] @ x + w["w_hr"] @ h_prev + w["b_r"][:, None])
    n = np.tanh(w["w_xg"] @ x + r * (w["w_hg"] @ h_prev) + w["b_g"][:, None])
    return z, r, n


class TestGruStep:
    def test_zero_parameters(self):
        p = zero_params(3, 4)
        v = np.array([0.3, -1.0, 2.0, 0.5])
        # Both gates sit at 0.5 and the candidate at 0, so h' = h / 2.
        h = gru_step(col([1.0, 2.0, 3.0]), col(v), p)
        np.testing.assert_allclose(h.data, 0.5 * col(v).data, atol=1e-15)

    def test_scalar_hand_case(self):
        state = gru_step(col([1.0]), col([0.0]), scalar_params())
        h, z, _, n = scalar_step_oracle(1.0, 0.0)
        assert z == pytest.approx(0.731059, abs=1e-6)
        assert n == pytest.approx(0.761594, abs=1e-6)
        # (1 - 0.731059) * 0.761594
        assert h == pytest.approx(0.204824, abs=1e-6)
        assert state.item() == pytest.approx(h, abs=1e-12)

    def test_saturated_update_gate_keeps_state(self):
        p = zero_params(2, 3)
        p.b_z.data[:] = 50.0
        h_prev = col([0.7, -0.2, 1.4])
        h = gru_step(col([5.0, -3.0]), h_prev, p)
        np.testing.assert_allclose(h.data, h_prev.data, atol=1e-9)

    def test_dimension_mismatch(self):
        p = GruParams.init(3, 4, np.random.default_rng(1))
        with pytest.raises(ShapeError):
            gru_step(col([1.0, 2.0]), col(np.zeros(4)), p)
        with pytest.raises(ShapeError):
            gru_step(col(np.zeros(3)), col(np.zeros(5)), p)
        with pytest.raises(ShapeError):  # batches of different sizes
            gru_step(ad.constant(np.zeros((3, 2))), ad.constant(np.zeros((4, 3))), p)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_zero_state_matches_explicit_zeros(self, batch):
        # The None path drops only products with an exact zero factor, so its
        # values and gradients equal the full cell's on a zero state.
        rng = np.random.default_rng(11)
        p = GruParams.init(4, 6, rng)
        for t in ad.named(p, "gru").values():
            t.data[:] = rng.uniform(-2, 2, size=t.shape)
        x = ad.constant(rng.uniform(-2, 2, size=(4, batch)))
        weights = ad.constant(rng.uniform(-1, 1, size=(6, batch)))

        def run(h_prev):
            for t in ad.named(p, "gru").values():
                t.zero_grad()
            h = gru_step(x, h_prev, p)
            ad.backward(ad.tsum(h * weights))
            return h, {k: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                       for k, t in ad.named(p, "gru").items()}

        implicit, g_implicit = run(None)
        explicit, g_explicit = run(ad.constant(np.zeros((6, batch))))
        assert np.array_equal(implicit.data, explicit.data)
        for name in g_explicit:
            assert np.array_equal(g_implicit[name], g_explicit[name]), name

    def test_gate_ranges_and_convex_combination(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p = GruParams.init(4, 6, rng)
            for t in ad.named(p, "gru").values():
                t.data[:] = rng.uniform(-2, 2, size=t.shape)
            x = ad.constant(rng.uniform(-2, 2, size=(4, 5)))  # a batch of five
            h_prev = rng.uniform(-2, 2, size=(6, 5))
            h = gru_step(x, ad.constant(h_prev), p).data
            z, r, n = numpy_gates(x.data, h_prev, p)
            assert np.all((z > 0) & (z < 1)) and np.all((r > 0) & (r < 1))
            assert np.all((n > -1) & (n < 1))
            np.testing.assert_allclose(h, (1.0 - z) * n + z * h_prev, rtol=1e-12, atol=1e-15)
            lo = np.minimum(n, h_prev)
            hi = np.maximum(n, h_prev)
            assert np.all(h >= lo - 1e-12) and np.all(h <= hi + 1e-12)
            assert np.max(np.abs(h)) <= max(np.max(np.abs(h_prev)), 1.0)


class TestClassify:
    def test_zero_head(self):
        head = ClassifierHead.init(3, 4, np.random.default_rng(3))
        head.w.data[:] = 0.0
        np.testing.assert_array_equal(classify(col(np.ones(4)), head).data, np.zeros((3, 1)))

    def test_identity_head(self):
        head = ClassifierHead.init(3, 3, np.random.default_rng(4))
        head.w.data[:] = np.eye(3)
        head.b.data[:] = 0.0
        o = np.array([[0.5, 1.0], [-1.0, 0.0], [2.0, 3.0]])  # two samples
        np.testing.assert_array_equal(classify(ad.constant(o), head).data, o)

    def test_hand_value(self):
        head = ClassifierHead.init(1, 2, np.random.default_rng(5))
        head.w.data[:] = [[1.0, 1.0]]
        head.b.data[:] = [1.0]
        assert classify(col([2.0, 3.0]), head).data[0, 0] == 6.0


class TestHierarchicalLoss:
    def test_uniform_logits(self):
        total, report = hierarchical_loss(ad.constant(np.zeros(10)), 0,
                                          ad.constant(np.zeros(100)), 0)
        expected = math.log(10.0) + math.log(100.0)
        assert total.item() == pytest.approx(expected, abs=1e-12)
        assert total.item() == pytest.approx(6.907755, abs=1e-6)
        assert report.total == total.item()

    def test_confident_logits(self):
        zm = np.zeros(5)
        zm[2] = 100.0
        zv = np.zeros(8)
        zv[7] = 100.0
        total, _ = hierarchical_loss(ad.constant(zm), 2, ad.constant(zv), 7)
        assert 0.0 <= total.item() < 1e-6

    def test_sum_definition(self):
        report = LossReport(0.3, 0.7)
        assert report.total == 1.0

    def test_total_is_branch_sum_bit_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            lm = ad.constant(rng.uniform(-3, 3, size=7))
            lv = ad.constant(rng.uniform(-3, 3, size=13))
            total, report = hierarchical_loss(lm, int(rng.integers(7)), lv, int(rng.integers(13)))
            assert report.total == report.model + report.vehicle
            assert total.item() == report.total

    def test_mean_preserves_identity(self):
        rng = np.random.default_rng(7)
        reports = [LossReport(rng.uniform(0, 2), rng.uniform(0, 2))
                   for _ in range(9)]
        mean = LossReport.mean(reports)
        assert mean.total == mean.model + mean.vehicle

    def test_batch_loss_is_mean_of_samples(self):
        rng = np.random.default_rng(8)
        lm, lv = rng.uniform(-3, 3, size=(7, 4)), rng.uniform(-3, 3, size=(13, 4))
        ym, yv = np.array([0, 6, 2, 2]), np.array([12, 0, 5, 7])
        total, report = hierarchical_loss(ad.constant(lm), ym, ad.constant(lv), yv)
        singles = [hierarchical_loss(ad.constant(lm[:, i]), ym[i], ad.constant(lv[:, i]),
                                     yv[i])[1] for i in range(4)]
        assert total.item() == report.total == report.model + report.vehicle
        mean = LossReport.mean(singles)
        assert report.model == pytest.approx(mean.model, rel=1e-15)
        assert report.vehicle == pytest.approx(mean.vehicle, rel=1e-15)
        np.testing.assert_allclose(report.per_sample, [r.total for r in singles], rtol=1e-15)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            hierarchical_loss(ad.constant(np.zeros(3)), 3, ad.constant(np.zeros(3)), 0)


class TestUnroll:
    def test_zero_parameters_give_zero_outputs(self):
        p = zero_params(3, 3)
        s1, s2 = two_steps(col([1.0, -2.0, 0.5]), col([4.0, 4.0, 4.0]), p)
        np.testing.assert_allclose(s1.data, 0.0, atol=1e-15)
        np.testing.assert_allclose(s2.data, 0.0, atol=1e-15)

    def test_scalar_two_step_hand_case(self):
        x1 = col([1.0])
        s1, s2 = two_steps(x1, x1, scalar_params())
        h1, *_ = scalar_step_oracle(1.0, 0.0)
        h2, *_ = scalar_step_oracle(1.0, h1)
        assert s1.item() == pytest.approx(h1, abs=1e-12)
        assert s2.item() == pytest.approx(h2, abs=1e-12)

    def test_provider_dimension_checked(self):
        p = GruParams.init(3, 4, np.random.default_rng(8))
        with pytest.raises(ShapeError):
            two_steps(col(np.zeros(3)), col(np.zeros(2)), p)

    def test_shared_weights_receive_gradient_from_both_branches(self):
        rng = np.random.default_rng(9)
        p = GruParams.init(3, 4, rng)
        heads = [ClassifierHead.init(2, 4, rng), ClassifierHead.init(5, 4, rng)]
        x1 = col(rng.uniform(-1, 1, size=3))
        x2 = col(rng.uniform(-1, 1, size=3))

        def branch_grad(branch, h0=None):
            for t in ad.named(p, "gru").values():
                t.zero_grad()
            s1, s2 = two_steps(x1, x2, p, h0=h0)
            target = classify(s1, heads[0]) if branch == "model" else classify(s2, heads[1])
            ad.backward(ad.tsum(ad.softmax_cross_entropy(target, [1])))
            return {k: (None if t.grad is None else t.grad.copy())
                    for k, t in ad.named(p, "gru").items()}

        g_model = branch_grad("model")
        g_vehicle = branch_grad("vehicle")
        # At t=1 the zero initial state silences the hidden-side matrices and,
        # because r only acts on W_hg @ h0, the whole reset-gate group.
        inert_at_t1 = ("gru.w_hz", "gru.w_hr", "gru.w_hg", "gru.w_xr", "gru.b_r")
        for name in g_model:
            # The fine branch reaches every shared weight through step 2.
            assert g_vehicle[name] is not None and np.any(g_vehicle[name] != 0), name
            if name in inert_at_t1:
                assert g_model[name] is None or not np.any(g_model[name]), name
            else:
                assert g_model[name] is not None and np.any(g_model[name] != 0), name

        # With a nonzero starting state the coarse branch reaches everything.
        g_model_h0 = branch_grad("model", h0=col(rng.uniform(0.5, 1.0, size=4)))
        for name in g_model_h0:
            assert g_model_h0[name] is not None and np.any(g_model_h0[name] != 0), name

    def test_grad_check_through_unroll_and_loss(self):
        rng = np.random.default_rng(10)
        p = GruParams.init(3, 4, rng)
        head_m = ClassifierHead.init(2, 4, rng)
        head_v = ClassifierHead.init(5, 4, rng)
        x1 = ad.constant(rng.uniform(-1, 1, size=(3, 3)))  # a batch of three
        x2 = ad.constant(rng.uniform(-1, 1, size=(3, 3)))

        def f():
            s1, s2 = two_steps(x1, x2, p)
            total, _ = hierarchical_loss(classify(s1, head_m), np.array([0, 1, 0]),
                                         classify(s2, head_v), np.array([4, 2, 3]))
            return total

        named = {**ad.named(p, "gru"), **ad.named(head_m, "hm"), **ad.named(head_v, "hv")}
        errors = ad.grad_check_groups(f, named)
        assert max(errors.values()) < 1e-4
