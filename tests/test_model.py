import hashlib
import math

import numpy as np
import pytest

from hareid import autodiff as ad
from hareid import gru
from hareid import model as model_module
from hareid.backbone import ConvStackConfig
from hareid.errors import ConfigError, FormatError, NumericError, ShapeError
from hareid.model import Model, ModelConfig, unit_rows

BASE = dict(num_models=3, num_vehicles=6, d=4, hidden=8, seed=0)
CONV = ConvStackConfig(channels=4)  # the default stack, emitting BASE's d channels


# Parameter names in registration order and the SHA-256 of their concatenated
# initial bytes at BASE (d=4, H=8, C=3/6, seed 0). Checkpoints are read by
# name, and the registration order fixes which draw of the seeded generator
# each tensor receives, so neither may move.
GRU_NAMES = ["gru.w_xz", "gru.w_hz", "gru.b_z", "gru.w_xr", "gru.w_hr", "gru.b_r",
             "gru.w_xg", "gru.w_hg", "gru.b_g"]
HEAD_NAMES = ["head_model.w", "head_model.b", "head_vehicle.w", "head_vehicle.b"]
ATTN_NAMES = ["attn.w1", "attn.b1", "attn.w2", "attn.b2"]
FC_NAMES = ["fc1.w1", "fc1.b1", "fc1.w2", "fc1.b2", "fc2.w1", "fc2.b1", "fc2.w2", "fc2.b2"]
CONV_NAMES = ["conv0.kernel", "conv0.bias", "conv1.kernel", "conv1.bias",
              "conv2.kernel", "conv2.bias"]
GOLDEN_INIT = {
    "rnn_ha": ({}, GRU_NAMES + HEAD_NAMES + ATTN_NAMES,
               "b8376e81142bdc66c5e91a030903918b666c51d984f0070a7de95ab67e3fc8b6"),
    "fc_ha": ({}, FC_NAMES + HEAD_NAMES + ATTN_NAMES,
              "c2b2952df70286407e4a8ce6d81fddfa44342a91fd96b44a2d6422962b9d705b"),
    "rnn_h_no_attention": ({}, GRU_NAMES + HEAD_NAMES,
                           "42fa47f343b7dff6bde2594235c39d7ec7bf68b26739c00713b999fa0569b957"),
    "rnn_ha_conv": ({"conv": CONV}, CONV_NAMES + GRU_NAMES + HEAD_NAMES + ATTN_NAMES,
                    "f14763bd9cabaecbb8739c0bb42e1f725a3e820a70a73f1b866e19b0cc6dfb11"),
}


def small_config(**overrides):
    kw = {**BASE, **overrides}
    return ModelConfig(**kw)


def random_map(rng, h=2, w=2, d=4):
    return rng.uniform(-1.0, 1.0, size=(h, w, d))


def count(model: Model) -> int:
    """The number of learned scalars of ``model``."""
    return sum(t.data.size for t in model.params().values())


class TestForward:
    def test_zero_parameters_give_uniform_loss(self):
        for variant in ("rnn_ha", "fc_ha", "rnn_h_no_attention"):
            model = Model(small_config(variant=variant))
            for t in model.params().values():
                t.data[:] = 0.0
            amap = random_map(np.random.default_rng(1))
            total, report, result = model.loss(amap, 0, 0)
            np.testing.assert_array_equal(result.logits_model.data, np.zeros((3, 1)))
            np.testing.assert_array_equal(result.logits_vehicle.data, np.zeros((6, 1)))
            expected = math.log(3.0) + math.log(6.0)
            assert total.item() == pytest.approx(expected, abs=1e-12)

    def test_logit_shapes(self):
        model = Model(small_config())
        # One map runs as a batch of one and comes back batch-shaped.
        result = model.forward(random_map(np.random.default_rng(2)))
        assert result.o2.shape == (8, 1)
        assert result.logits_model.shape == (3, 1)
        assert result.logits_vehicle.shape == (6, 1)
        assert result.attention is not None
        assert result.attention.a.shape == (1, 2, 2)

    def test_single_cell_map_degenerates_to_no_attention(self):
        # On a 1x1 grid the attention weight is forced to 1, so the full
        # model and the no-attention ablation see the same x2 = f.
        amap = random_map(np.random.default_rng(3), h=1, w=1)
        full = Model(small_config(variant="rnn_ha"))
        plain = Model(small_config(variant="rnn_h_no_attention"))
        r_full = full.forward(amap)
        r_plain = plain.forward(amap)
        np.testing.assert_allclose(r_full.o2.data, r_plain.o2.data, atol=1e-12)
        np.testing.assert_allclose(r_full.logits_vehicle.data, r_plain.logits_vehicle.data,
                                   atol=1e-12)
        assert r_full.attention.a[0, 0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_depth_mismatch_rejected(self):
        model = Model(small_config())
        with pytest.raises(ShapeError):
            model.forward(np.zeros((2, 2, 5)))

    @pytest.mark.parametrize("variant", ["rnn_ha", "fc_ha", "rnn_h_no_attention"])
    def test_grad_check_full_forward(self, variant):
        model = Model(small_config(variant=variant, seed=4))
        amap = random_map(np.random.default_rng(5))

        def f():
            total, _, _ = model.loss(amap, 1, 4)
            return total

        errors = ad.grad_check_groups(f, model.params())
        worst = max(errors.values())
        assert worst < 1e-4, f"{variant}: {worst}"


class TestVariants:
    def test_rnn_h_has_no_attention_parameters(self):
        model = Model(small_config(variant="rnn_h_no_attention"))
        assert model.attn is None
        assert not any(name.startswith("attn") for name in model.params())
        assert model.forward(random_map(np.random.default_rng(6))).attention is None

    def test_fc_ha_is_deterministic_across_runs(self):
        amap = random_map(np.random.default_rng(7))
        outs = []
        for _ in range(2):
            model = Model(small_config(variant="fc_ha", seed=9))
            outs.append(model.forward(amap).logits_vehicle.data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_parameter_count_difference_formula(self):
        # GRU block: 3H(d+H+1) with zero-bias counting 3H; fc replacement:
        # two transforms of Hd + H^2 + 2H each. Difference = Hd + H^2 - H.
        d, h = 4, 8
        rnn = Model(small_config(variant="rnn_ha"))
        fc = Model(small_config(variant="fc_ha"))
        assert count(rnn) - count(fc) == h * d + h * h - h

    def test_parameter_counts_by_construction(self):
        d, h, ht, cm, cv = 4, 8, 4, 3, 6
        gru_block = 3 * (h * d + h * h + h)
        heads = cm * h + cm + cv * h + cv
        attn = ht * h + ht + d * ht + d
        rnn = Model(small_config(variant="rnn_ha"))
        assert count(rnn) == gru_block + heads + attn
        plain = Model(small_config(variant="rnn_h_no_attention"))
        assert count(plain) == gru_block + heads

    def test_shared_seed_aligns_coarse_path_of_rnn_variants(self):
        amap = random_map(np.random.default_rng(8))
        full = Model(small_config(variant="rnn_ha", seed=11))
        plain = Model(small_config(variant="rnn_h_no_attention", seed=11))
        np.testing.assert_array_equal(full.forward(amap).logits_model.data,
                                      plain.forward(amap).logits_model.data)

    def test_identical_seed_identical_init(self):
        a = Model(small_config(seed=21))
        b = Model(small_config(seed=21))
        for name, t in a.params().items():
            np.testing.assert_array_equal(t.data, b.params()[name].data)

    @pytest.mark.parametrize("case", sorted(GOLDEN_INIT))
    def test_initial_parameters_golden(self, case):
        overrides, names, digest = GOLDEN_INIT[case]
        model = Model(small_config(variant=case.removesuffix("_conv"), **overrides))
        params = model.params()
        assert list(params) == names
        blob = b"".join(t.data.tobytes() for t in params.values())
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_hidden_size_defaults_to_1024(self):
        assert ModelConfig(num_models=2, num_vehicles=2).hidden == 1024


class TestBatch:
    @pytest.mark.parametrize("case", ["rnn_ha", "fc_ha", "rnn_h_no_attention", "rnn_ha_conv"])
    def test_batch_of_five_is_mean_of_five_singles(self, case):
        # One graph over a batch gives the mean loss and the mean gradient of
        # the samples' own graphs, up to summation order.
        conv = dict(conv=ConvStackConfig(layers=2, kernel=2, channels=4))
        model = Model(small_config(variant=case.removesuffix("_conv"), seed=23,
                                   **(conv if case.endswith("_conv") else {})))
        rng = np.random.default_rng(24)
        shape = (10, 10, 1) if case.endswith("_conv") else (2, 3, 4)
        inputs = rng.uniform(-1.0, 1.0, size=(5, *shape))
        y_model, y_vehicle = rng.integers(3, size=5), rng.integers(6, size=5)
        params = model.params()

        def loss_and_grads(inp, ym, yv):
            for t in params.values():
                t.zero_grad()
            total, report, result = model.loss(inp, ym, yv)
            ad.backward(total)
            grads = {k: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                     for k, t in params.items()}
            return total.item(), grads, result

        total, grads, result = loss_and_grads(inputs, y_model, y_vehicle)
        assert result.logits_model.shape == (3, 5) and result.o2.shape == (8, 5)
        singles = [loss_and_grads(inputs[i], int(y_model[i]), int(y_vehicle[i]))
                   for i in range(5)]
        assert total == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for name in params:
            expected = np.mean([s[1][name] for s in singles], axis=0)
            scale = max(np.max(np.abs(expected)), 1e-300)
            assert np.max(np.abs(grads[name] - expected)) <= 1e-12 * scale, name


class TestBatchOfOne:
    CASES = ["rnn_ha", "fc_ha", "rnn_h_no_attention", "rnn_ha_conv", "fc_ha_conv",
             "rnn_h_no_attention_conv"]

    @staticmethod
    def model_and_input(case, seed):
        conv = dict(conv=ConvStackConfig(layers=2, kernel=2, channels=4))
        model = Model(small_config(variant=case.removesuffix("_conv"), seed=seed,
                                   **(conv if case.endswith("_conv") else {})))
        shape = (10, 9, 1) if case.endswith("_conv") else (2, 3, 4)
        return model, np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=shape)

    @pytest.mark.parametrize("case", CASES)
    def test_forward_of_one_input_is_a_batch_of_one(self, case):
        model, x = self.model_and_input(case, 40)
        one, stack = model.forward(x), model.forward(x[None])
        for name in ("o2", "logits_model", "logits_vehicle"):
            assert np.array_equal(getattr(one, name).data, getattr(stack, name).data), name
        if one.attention is None:
            assert stack.attention is None
        else:
            assert np.array_equal(one.attention.a, stack.attention.a)

    @pytest.mark.parametrize("case", CASES)
    def test_loss_of_one_input_is_a_batch_of_one(self, case):
        model, x = self.model_and_input(case, 42)
        params = model.params()

        def loss_and_grads(inp, ym, yv):
            for t in params.values():
                t.zero_grad()
            total, report, _ = model.loss(inp, ym, yv)
            ad.backward(total)
            return total.item(), report, {k: t.grad.copy() for k, t in params.items()
                                          if t.grad is not None}

        total, report, grads = loss_and_grads(x, 2, 5)
        stack_total, stack_report, stack_grads = loss_and_grads(x[None], [2], [5])
        assert total == stack_total and report == stack_report
        assert grads.keys() == stack_grads.keys() and grads
        for name in grads:
            assert np.array_equal(grads[name], stack_grads[name]), name

    @pytest.mark.parametrize("case", ["rnn_ha", "fc_ha", "rnn_ha_conv", "fc_ha_conv"])
    def test_argmax_cell_of_a_batch_of_one(self, case):
        model, x = self.model_and_input(case, 44)
        a = model.forward(x).attention.a
        assert a.shape[0] == 1
        row, col = np.unravel_index(np.argmax(a[0]), a.shape[1:])
        assert model.forward(x).attention.argmax_cell() == (row, col)


class TestZeroStateStep:
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("variant", ["rnn_ha", "rnn_h_no_attention"])
    def test_coarse_step_has_no_state_side_products(self, variant, batch):
        # Step 1 runs from the zero state without W_h* products, so only
        # step 2 multiplies by the three state-side matrices.
        model = Model(small_config(variant=variant, seed=27))
        inputs = np.random.default_rng(28).uniform(-1.0, 1.0, size=(batch, 2, 3, 4))
        labels = np.arange(batch)
        total, _, _ = model.loss(inputs, labels % 3, labels % 6)
        state_side = {id(model.gru.w_hz), id(model.gru.w_hr), id(model.gru.w_hg)}
        products = [n for n in ad.topological_order(total)
                    if n.op == "matmul" and any(id(p) in state_side for p in n.parents)]
        assert len(products) == 3

    @pytest.mark.parametrize("case", ["rnn_ha", "rnn_h_no_attention", "rnn_ha_conv",
                                      "rnn_h_no_attention_conv"])
    def test_loss_and_gradients_match_explicit_zero_state(self, case, monkeypatch):
        # Bit for bit, including the order in which a leaf read by both
        # steps (the conv backbone's pooled x in the no-attention variant)
        # sums its gradient terms.
        conv = dict(conv=ConvStackConfig(layers=2, kernel=2, channels=4))
        model = Model(small_config(variant=case.removesuffix("_conv"), seed=29,
                                   **(conv if case.endswith("_conv") else {})))
        rng = np.random.default_rng(30)
        shape = (10, 10, 1) if case.endswith("_conv") else (2, 3, 4)
        inputs = rng.uniform(-1.0, 1.0, size=(5, *shape))
        labels = np.arange(5)

        def loss_and_grads():
            for t in model.params().values():
                t.zero_grad()
            total, _, _ = model.loss(inputs, labels % 3, labels % 6)
            ad.backward(total)
            return total.item(), {k: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                                  for k, t in model.params().items()}

        total, grads = loss_and_grads()
        monkeypatch.setattr(model_module, "gru_step", lambda x, h, p: gru.gru_step(
            x, ad.constant(np.zeros((p.hidden, x.shape[1]))) if h is None else h, p))
        explicit_total, explicit_grads = loss_and_grads()
        assert total == explicit_total
        for name in grads:
            assert np.array_equal(grads[name], explicit_grads[name]), name


class TestGraphSize:
    def test_extraction_builds_no_graph(self, monkeypatch):
        # Extraction of ingested maps runs on arrays: no node, for one map or
        # a stack, in every variant.
        ops = []
        node = ad._node

        def counting(data, op, parents):
            ops.append(op)
            return node(data, op, parents)

        monkeypatch.setattr(ad, "_node", counting)
        rng = np.random.default_rng(35)
        for variant in ("rnn_ha", "fc_ha", "rnn_h_no_attention"):
            model = Model(small_config(variant=variant, seed=34))
            model.extract_feature(random_map(rng, h=2, w=3))
            model.extract_features(rng.uniform(-1.0, 1.0, size=(5, 2, 3, 4)))
        assert ops == []

    def test_rnn_ha_loss_graph_of_64_samples_has_79_nodes(self):
        model = Model(small_config(seed=36))
        inputs = np.random.default_rng(37).uniform(-1.0, 1.0, size=(64, 2, 3, 4))
        labels = np.arange(64)
        total, _, _ = model.loss(inputs, labels % 3, labels % 6)
        assert len(ad.topological_order(total)) == 79


class TestGradientSeparation:
    def test_model_loss_ignores_attention_params(self):
        model = Model(small_config(variant="rnn_ha", seed=13))
        amap = random_map(np.random.default_rng(14))

        def grads_for(branch):
            for t in model.params().values():
                t.zero_grad()
            result = model.forward(amap)
            logits = result.logits_model if branch == "model" else result.logits_vehicle
            ad.backward(ad.tsum(ad.softmax_cross_entropy(logits, [1])))
            return {name: (None if t.grad is None else t.grad.copy())
                    for name, t in model.params().items() if name.startswith("attn")}

        for name, g in grads_for("model").items():
            assert g is None or not np.any(g), name
        vehicle = grads_for("vehicle")
        assert any(g is not None and np.any(g) for g in vehicle.values())


class TestConvBackbone:
    def test_conv_model_trains_end_to_end(self):
        cfg = ModelConfig(num_models=2, num_vehicles=3, d=4, hidden=6, seed=15,
                          conv=ConvStackConfig(layers=2, kernel=2, channels=4))
        model = Model(cfg)
        image = np.random.default_rng(16).uniform(size=(10, 10, 1))
        total, report, result = model.loss(image, 1, 2)
        assert np.isfinite(total.data)
        ad.backward(total)
        kernel = model.conv_params.kernels[0]
        assert kernel.grad is not None and np.any(kernel.grad)

    def test_stack_forward_matches_per_image_forwards(self):
        # The stack runs as one graph, its convolutions as one GEMM over every
        # image's windows; only summation order may differ from one image alone.
        model = Model(small_config(seed=25,
                                   conv=ConvStackConfig(layers=2, kernel=2, channels=4)))
        images = np.random.default_rng(26).uniform(size=(3, 9, 10, 1))
        batch = model.forward(images)
        for i, image in enumerate(images):
            single = model.forward(image)
            for name in ("o2", "logits_model", "logits_vehicle"):
                np.testing.assert_allclose(getattr(batch, name).data[:, i],
                                           getattr(single, name).data[:, 0], rtol=1e-12,
                                           atol=0, err_msg=name)
            np.testing.assert_allclose(batch.attention.a[i], single.attention.a[0],
                                       rtol=1e-12, atol=0)

    def test_conv_channel_config_mismatch(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_models=2, num_vehicles=2, d=8, conv=CONV)


class TestConfigText:
    def test_exact_text_and_round_trip(self):
        # The checkpoint format: key order, number spelling and the conv line.
        cfg = small_config(conv=CONV, variant="fc_ha", seed=5)
        assert cfg.to_text() == ("variant=fc_ha\nnum_models=3\nnum_vehicles=6\nd=4\n"
                                 "hidden=8\nattn_hidden=0\nbackbone=conv\nepsilon=0.1\n"
                                 "input_gain=8.0\nseed=5\nconv=3,2,4,1,1,1\n")
        assert ModelConfig.from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize("conv", [None, CONV],
                             ids=["ingested", "conv"])
    def test_backbone_is_conv_exactly_when_a_stack_is_set(self, conv):
        cfg = small_config(conv=conv)
        assert cfg.backbone == ("ingested" if conv is None else "conv")
        assert f"\nbackbone={cfg.backbone}\n" in cfg.to_text()
        assert ModelConfig.from_text(cfg.to_text()).conv == conv

    @pytest.mark.parametrize("case", ["ingested with a conv line", "conv without a conv line",
                                      "unknown backbone"])
    def test_backbone_line_disagreeing_with_the_conv_line_is_format_error(self, case):
        if case == "ingested with a conv line":
            text = small_config().to_text() + "conv=3,2,4,1,1,1\n"
        elif case == "conv without a conv line":
            text = small_config(conv=CONV).to_text()
            text = text.replace("conv=3,2,4,1,1,1\n", "")
        else:
            text = small_config().to_text().replace("backbone=ingested", "backbone=convv")
        with pytest.raises(FormatError, match="'backbone'"):
            ModelConfig.from_text(text)

    @pytest.mark.parametrize("key", ["seed", "variant", "epsilon", "num_models"])
    def test_missing_key_names_it(self, key):
        lines = [l for l in small_config().to_text().splitlines()
                 if not l.startswith(f"{key}=")]
        with pytest.raises(FormatError, match=f"'{key}'"):
            ModelConfig.from_text("\n".join(lines))

    def test_negative_attn_hidden_is_format_error(self):
        text = small_config().to_text().replace("attn_hidden=0", "attn_hidden=-3")
        with pytest.raises(FormatError, match="attn_hidden"):
            ModelConfig.from_text(text)

    @pytest.mark.parametrize("key,value", [("hidden", "abc"), ("epsilon", "x"),
                                           ("conv", "3,2")])
    def test_bad_value_names_key(self, key, value):
        text = small_config(conv=CONV).to_text()
        lines = [f"{key}={value}" if l.startswith(f"{key}=") else l
                 for l in text.splitlines()]
        with pytest.raises(FormatError, match=f"'{key}'"):
            ModelConfig.from_text("\n".join(lines))


    def test_zero_conv_stride_is_format_error(self):
        text = small_config(conv=CONV).to_text()
        assert "conv=3,2,4,1,1,1" in text
        with pytest.raises(FormatError, match="'conv'"):
            ModelConfig.from_text(text.replace("conv=3,2,4,1,1,1", "conv=3,2,4,1,0,1"))

    @pytest.mark.parametrize("line", ["conv=3,2,4,1,2,1", "conv=3,2,4,1,1,0"],
                             ids=["stride 2", "pool 0"])
    def test_fixed_stride_and_pool_must_read_one(self, line):
        text = small_config(conv=CONV).to_text().replace("conv=3,2,4,1,1,1", line)
        with pytest.raises(FormatError, match=f"'conv' has bad value '{line[5:]}'"):
            ModelConfig.from_text(text)

    @pytest.mark.parametrize("key,value", [("epsilon", "nan"), ("epsilon", "inf"),
                                           ("epsilon", "0.0"), ("input_gain", "nan")])
    def test_non_finite_or_non_positive_scale_is_format_error(self, key, value):
        lines = [f"{key}={value}" if l.startswith(f"{key}=") else l
                 for l in small_config().to_text().splitlines()]
        with pytest.raises(FormatError, match=f"'{key}' must be"):
            ModelConfig.from_text("\n".join(lines))

    @pytest.mark.parametrize("key,value", [("epsilon", "0.25"), ("input_gain", "1.0")])
    def test_recorded_constant_must_hold_its_value(self, key, value):
        text = small_config().to_text()
        constant = {"epsilon": "0.1", "input_gain": "8.0"}[key]
        assert f"\n{key}={constant}\n" in text
        with pytest.raises(FormatError, match=f"'{key}' must be {constant}, got '{value}'"):
            ModelConfig.from_text(text.replace(f"{key}={constant}", f"{key}={value}"))


class TestExtractFeature:
    def test_three_four_five(self):
        rows, zero = unit_rows(np.array([[3.0, 4.0], [0.0, -2.0]]))
        np.testing.assert_allclose(rows, [[0.6, 0.8], [0.0, -1.0]], atol=1e-15)
        assert not zero.any()

    def test_unit_vector_unchanged(self):
        v = np.array([[1.0, 0.0, 0.0]])
        rows, _ = unit_rows(v)
        np.testing.assert_array_equal(rows, v)

    def test_zero_vector_flagged(self):
        rows, zero = unit_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert zero.tolist() == [True, False]
        np.testing.assert_array_equal(rows[0], [0.0, 0.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_row_is_named(self, bad):
        # 1e200 is finite, but its square overflows the norm.
        values = np.ones((4, 3))
        values[2, 1] = bad
        values[3, 0] = bad
        with pytest.raises(NumericError, match="row 2 "):
            unit_rows(values)

    def test_extracted_features_are_unit_norm(self):
        model = Model(small_config(seed=17))
        rng = np.random.default_rng(18)
        for _ in range(5):
            fv = model.extract_feature(random_map(rng))
            assert fv.normalized
            assert np.linalg.norm(fv.values) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("case", ["rnn_ha", "fc_ha", "rnn_h_no_attention", "rnn_ha_conv",
                                      "fc_ha_conv", "rnn_h_no_attention_conv"])
    def test_feature_is_normalized_forward_o2(self, case):
        # Extraction runs the recurrent steps without the heads; its feature
        # is bit for bit the one a full forward pass gives.
        conv = dict(conv=ConvStackConfig(layers=2, kernel=2, channels=4))
        model = Model(small_config(variant=case.removesuffix("_conv"), seed=31,
                                   **(conv if case.endswith("_conv") else {})))
        rng = np.random.default_rng(32)
        shape = (10, 10, 1) if case.endswith("_conv") else (2, 3, 4)
        for _ in range(3):
            inp = rng.uniform(-1.0, 1.0, size=shape)
            expected, zero = unit_rows(model.forward(inp).o2.data.T)
            fv = model.extract_feature(inp)
            assert np.array_equal(fv.values, expected[0])
            assert fv.normalized == (not zero[0])
        # A stack's rows are each input's own, at any stack size: every weight
        # product stays one matrix-vector product per input.
        for n in (1, 3, 64):
            scale = 10.0 ** rng.integers(-3, 3, size=(n, 1, 1, 1))
            inputs = rng.uniform(-1.0, 1.0, size=(n, *shape)) * scale
            inputs[1:2] = 0.0  # an all-zero input has a zero o2 row
            rows, zero = model.extract_features(inputs)
            for inp, row, flag in zip(inputs, rows, zero):
                expected, expected_zero = unit_rows(model.forward(inp).o2.data.T)
                assert np.array_equal(row, expected[0])
                assert flag == expected_zero[0]

    def test_conv_stack_keeps_each_images_bits(self):
        # One conv GEMM over these 64 images can round map values differently
        # from the one-image GEMM; extraction runs the conv stack image by image.
        conv = ConvStackConfig(layers=1, kernel=2, channels=4, in_channels=4)
        model = Model(small_config(conv=conv, seed=36))
        images = np.random.default_rng(37).uniform(size=(64, 40, 40, 4))
        rows, _ = model.extract_features(images)
        assert all(np.array_equal(row, model.extract_feature(image).values)
                   for row, image in zip(rows, images))

    def test_stack_is_rejected(self):
        model = Model(small_config(seed=33))
        with pytest.raises(ShapeError, match="one map or image"):
            model.extract_feature(np.ones((2, 2, 2, 4)))

    @pytest.mark.parametrize("shape", [(2, 2, 4), (0, 2, 2, 4), (3, 2, 2, 5)])
    def test_extract_features_takes_a_stack_of_maps(self, shape):
        # One map, an empty stack and maps of the wrong depth are refused.
        model = Model(small_config(seed=33))
        with pytest.raises(ShapeError):
            model.extract_features(np.ones(shape))
