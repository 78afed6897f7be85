import numpy as np
import pytest

from hareid import autodiff as ad
from hareid.data import SynthConfig, synth_generate, training_items
from hareid.errors import ConfigError, NumericError
from hareid.model import Model, ModelConfig
from hareid.optim import (ALPHA, DELTA, DROPPED_LR, INITIAL_LR, RmspropState, TrainSchedule,
                          lr_schedule, rmsprop_step, rng_for, train)


def tiny_problem(seed, epochs=11):
    cfg = SynthConfig(models=4, vehicles_per_model=2, images_per_vehicle=6,
                      grid=3, d=8, cameras=2)
    ds = synth_generate(cfg, seed=99)
    model = Model(ModelConfig(num_models=ds.split.num_models,
                              num_vehicles=ds.split.num_vehicles,
                              d=8, hidden=16, seed=seed))
    items = training_items(ds.split, ds.maps)
    schedule = TrainSchedule(batch_size=16, epochs=epochs)
    return model, items, schedule


class TestRmsprop:
    def test_zero_gradient_leaves_parameters_untouched(self):
        p = ad.parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        state = RmspropState.init({"p": p})
        state.v["p"][:] = 0.16
        rmsprop_step({"p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        np.testing.assert_allclose(state.v["p"], 0.16 * 0.99, atol=1e-15)

    def test_first_step_magnitude(self):
        # From v = 0, one step moves by lr * g / (sqrt((1-alpha)) * |g| + delta),
        # about 10 * lr for alpha = 0.99.
        g = 0.37
        lr = 0.001
        p = ad.parameter(np.array([5.0]))
        p.grad = np.array([g])
        state = RmspropState.init({"p": p})
        rmsprop_step({"p": p}, state, lr=lr)
        expected = lr * g / (np.sqrt((1 - 0.99) * g * g) + 1e-8)
        assert 5.0 - p.data[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(10 * lr, rel=1e-5)

    def test_repeated_identical_gradients_shrink_updates(self):
        p = ad.parameter(np.array([0.0]))
        state = RmspropState.init({"p": p})
        p.grad = np.array([1.0])
        rmsprop_step({"p": p}, state, lr=0.01)
        first = abs(p.data[0])
        before = p.data[0]
        p.grad = np.array([1.0])
        rmsprop_step({"p": p}, state, lr=0.01)
        second = abs(p.data[0] - before)
        assert second < first

    def test_non_finite_gradient_aborts_without_mutation(self):
        p = ad.parameter(np.array([1.0, 2.0]))
        q = ad.parameter(np.array([3.0]))
        p.grad = np.array([0.1, np.inf])
        q.grad = np.array([0.5])
        state = RmspropState.init({"p": p, "q": q})
        with pytest.raises(NumericError, match="p"):
            rmsprop_step({"p": p, "q": q}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        np.testing.assert_array_equal(q.data, [3.0])
        np.testing.assert_array_equal(state.v["q"], [0.0])


def sliced_problem():
    # The 0-d scale, the empty vector and the 1-D bias fit in one RMSprop
    # slice; the (1000, 77) weight spans several and ends in a partial one;
    # the column-major (300, 250) weight must be updated in place through its
    # row blocks.
    rng = np.random.default_rng(12)
    params = {"s": ad.parameter(rng.uniform(-1, 1, size=())),
              "e": ad.parameter(np.zeros(0)),
              "b": ad.parameter(rng.uniform(-1, 1, size=300)),
              "w": ad.parameter(rng.uniform(-1, 1, size=(1000, 77))),
              "f": ad.parameter(np.asfortranarray(rng.uniform(-1, 1, size=(300, 250))))}
    state = RmspropState.init(params)
    return rng, params, state


class TestSlicedRmsprop:
    def test_bit_identical_to_whole_array_formula(self):
        rng, params, state = sliced_problem()
        data = {k: t.data for k, t in params.items()}
        theta = {k: t.data.copy() for k, t in params.items()}
        v = {k: np.zeros_like(t.data) for k, t in params.items()}
        for lr in (1e-3, 1e-3, 1e-4, 1e-4):
            for k, t in params.items():
                t.grad = np.asarray(rng.normal(size=t.shape) * 10.0 ** rng.integers(-6, 2))
                g = t.grad
                v[k] = ALPHA * v[k] + (1.0 - ALPHA) * g * g
                theta[k] = theta[k] - lr * g / (np.sqrt(v[k]) + DELTA)
            rmsprop_step(params, state, lr)
            for k, t in params.items():
                assert t.data is data[k], k
                assert t.data.tobytes() == np.asarray(theta[k]).tobytes(), k
                assert state.v[k].tobytes() == np.asarray(v[k]).tobytes(), k

    def test_non_finite_in_last_slice_mutates_nothing(self):
        rng, params, state = sliced_problem()
        for t in params.values():
            t.grad = rng.normal(size=t.shape)
        rmsprop_step(params, state, 1e-3)
        before = {k: (t.data.tobytes(), state.v[k].tobytes()) for k, t in params.items()}
        for t in params.values():
            t.grad = rng.normal(size=t.shape)
        params["w"].grad[-1, -1] = np.nan
        with pytest.raises(NumericError, match="parameter w"):
            rmsprop_step(params, state, 1e-3)
        assert {k: (t.data.tobytes(), state.v[k].tobytes())
                for k, t in params.items()} == before


class TestSchedule:
    def test_paper_values(self):
        assert lr_schedule(0) == 0.001
        assert lr_schedule(4) == 0.001
        assert lr_schedule(5) == 0.0001
        assert lr_schedule(100) == 0.0001

    def test_pure_step_function(self):
        rates = [lr_schedule(e) for e in range(10)]
        assert rates == [0.001] * 5 + [0.0001] * 5

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1)

    def test_invalid_schedule_config(self):
        with pytest.raises(ConfigError, match="drop_epoch must be >= 0, got -2"):
            TrainSchedule(drop_epoch=-2)
        with pytest.raises(ConfigError, match="batch_size must be >= 1, got 0"):
            TrainSchedule(batch_size=0)
        with pytest.raises(ConfigError, match="epochs must be >= 0, got -1"):
            TrainSchedule(epochs=-1)
        assert TrainSchedule(epochs=0).epochs == 0

    @pytest.mark.parametrize("drop_epoch", [0, 1, 3, 8])
    def test_rate_drops_at_the_given_epoch(self, drop_epoch):
        schedule = TrainSchedule(drop_epoch=drop_epoch)
        rates = [lr_schedule(e, schedule) for e in range(10)]
        assert rates == [INITIAL_LR] * drop_epoch + [DROPPED_LR] * (10 - drop_epoch)


class TestTrain:
    def test_zero_epochs_keeps_initialization(self):
        model, items, _ = tiny_problem(seed=0)
        before = {k: t.data.copy() for k, t in model.params().items()}
        result = train(model, items, TrainSchedule(epochs=0), seed=0)
        assert result.trace == []
        for k, t in model.params().items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_empty_dataset_rejected(self):
        model, _, schedule = tiny_problem(seed=0)
        with pytest.raises(ConfigError):
            train(model, [], schedule, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_decreases_on_synthetic_set(self, seed):
        model, items, schedule = tiny_problem(seed=seed)
        result = train(model, items, schedule, seed=seed)
        first = result.trace[0][1].total
        last = result.trace[-1][1].total
        assert np.isfinite([r.total for _, r in result.trace]).all()
        assert last < first

    def test_same_seed_gives_identical_traces(self):
        traces = []
        for _ in range(2):
            model, items, schedule = tiny_problem(seed=3, epochs=4)
            result = train(model, items, schedule, seed=3)
            traces.append([(e, r.total, r.model, r.vehicle) for e, r in result.trace])
        assert traces[0] == traces[1]

    def test_non_finite_loss_names_epoch_batch_and_item(self):
        model, items, schedule = tiny_problem(seed=6)
        poisoned = 5
        inp, y_model, y_vehicle = items[poisoned]
        inp = inp.copy()
        inp.flat[0] = np.nan
        items[poisoned] = (inp, y_model, y_vehicle)
        position = int(np.flatnonzero(rng_for(6, 0).permutation(len(items)) == poisoned)[0])
        with pytest.raises(NumericError, match=f"^epoch 0, batch {position // 16}: "
                                               f".* item {poisoned}$"):
            train(model, items, schedule, seed=6)

    def test_resume_matches_uninterrupted_run(self):
        model_a, items, schedule = tiny_problem(seed=4, epochs=6)
        full = train(model_a, items, schedule, seed=4)

        model_b, _, _ = tiny_problem(seed=4, epochs=6)
        first = TrainSchedule(batch_size=16, epochs=3)
        head = train(model_b, items, first, seed=4)
        tail = train(model_b, items, schedule, seed=4,
                     start_epoch=first.epochs, state=head.state)

        stitched = head.trace + tail.trace
        assert [(e, r.total) for e, r in stitched] == [(e, r.total) for e, r in full.trace]
        for k, t in model_a.params().items():
            np.testing.assert_array_equal(t.data, model_b.params()[k].data)

    def test_determinism_of_parameters(self):
        final = []
        for _ in range(2):
            model, items, schedule = tiny_problem(seed=5, epochs=3)
            train(model, items, schedule, seed=5)
            final.append({k: t.data.copy() for k, t in model.params().items()})
        for k in final[0]:
            np.testing.assert_array_equal(final[0][k], final[1][k])


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_seed_outside_64_bits_is_refused(bad):
    # A seed is one unsigned 64-bit key word: none outside [0, 2**64) wraps
    # onto another's stream, and none reaches a checkpoint's uint64 field.
    for key in ((bad,), (0, bad)):
        with pytest.raises(ConfigError, match="seed must be"):
            rng_for(*key)
    with pytest.raises(ConfigError, match="seed must be"):
        ModelConfig(num_models=1, num_vehicles=1, seed=bad)
    top = 2**64 - 1  # the largest seed is accepted
    rng_for(top, top)
    assert ModelConfig(num_models=1, num_vehicles=1, seed=top).seed == top
