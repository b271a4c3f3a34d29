import numpy as np
import pytest

from planact.errors import ContractError
from planact.gridworld import ACTIONS, OBJECT_NAMES, EnvConfig, collect_demos, plan_for
from planact.policy import (
    ControlModel,
    PolicyConfig,
    _batch_loss,
    _dataset_from_demos,
    bc_train,
    dataset_loss,
    evaluate_policy,
    model_policy,
    wilson_interval,
)
from planact.vocab import Vocabulary

ENV = EnvConfig(step_limit=6)
SMALL = dict(bridge_dim=16, query_count=2, hidden_dim=16, global_dim=8, conv_channels=4)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build([plan_for(name) for name in OBJECT_NAMES])


@pytest.fixture(scope="module")
def data():
    return _dataset_from_demos(collect_demos(EnvConfig(), [0, 1]), augment=False)[:6]


def make_model(vocab, seed=0, ablate_plan=False, **overrides):
    config = PolicyConfig(**{**SMALL, **overrides})
    return ControlModel(np.random.default_rng(seed), ENV, vocab, config, ablate_plan=ablate_plan)


def count_extract_calls(model, monkeypatch):
    calls = []
    original = model.bridge.extract

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(model.bridge, "extract", counted)
    return calls


class TestForward:
    @pytest.mark.parametrize("pooling", ["flat", "mean"])
    def test_logit_shape(self, vocab, data, pooling):
        obs, plan, _ = data[0]
        model = make_model(vocab, instance_pooling=pooling)
        assert model.forward(obs, plan).shape == (1, len(ACTIONS))
        assert 0 <= model.act(obs, plan) < len(ACTIONS)

    def test_cached_equals_uncached_bitwise(self, vocab, data):
        model = make_model(vocab)
        cache = {}
        for obs, plan, _ in data:
            uncached = model.forward(obs, plan).data
            first = model.forward(obs, plan, cache).data
            hit = model.forward(obs, plan, cache).data
            assert uncached.tobytes() == first.tobytes() == hit.tobytes()
        assert len(cache) == len({(o.tobytes(), p) for o, p, _ in data})

    def test_cache_hit_skips_bridge(self, vocab, data, monkeypatch):
        model = make_model(vocab)
        calls = count_extract_calls(model, monkeypatch)
        obs, plan, _ = data[0]
        cache = {}
        model.forward(obs, plan, cache)
        model.forward(obs, plan, cache)
        assert len(calls) == 1

    def test_cached_features_are_constants(self, vocab, data):
        model = make_model(vocab)
        obs, plan, _ = data[0]
        cache = {}
        model.forward(obs, plan, cache)
        (z_instance,) = cache.values()
        assert not z_instance.requires_grad

    def test_ablated_and_planless_use_zeros_without_cache(self, vocab, data, monkeypatch):
        obs, plan, _ = data[0]
        ablated = make_model(vocab, ablate_plan=True)
        calls = count_extract_calls(ablated, monkeypatch)
        cache = {}
        logits = ablated.forward(obs, plan, cache).data
        assert cache == {} and calls == []
        np.testing.assert_array_equal(logits, ablated.forward(obs, None).data)
        plain = make_model(vocab)
        assert not np.array_equal(plain.forward(obs, plan).data, plain.forward(obs, None).data)

    def test_same_seed_same_logits(self, vocab, data):
        obs, plan, _ = data[0]
        a = make_model(vocab, seed=3).forward(obs, plan).data
        b = make_model(vocab, seed=3).forward(obs, plan).data
        assert a.tobytes() == b.tobytes()

    def test_rejects_non_square_grid(self, vocab):
        with pytest.raises(ContractError):
            ControlModel(np.random.default_rng(0), EnvConfig(height=9, width=7), vocab)


class TestTrainableParameters:
    def test_frozen_bridge_left_out(self, vocab):
        names = make_model(vocab).trainable_parameters()
        assert names and not any(n.startswith(("bridge.", "grid_vision.")) for n in names)
        ablated = make_model(vocab, ablate_plan=True, train_bridge=True).trainable_parameters()
        assert set(ablated) == set(names)

    def test_train_bridge_includes_bridge(self, vocab):
        names = make_model(vocab, train_bridge=True).trainable_parameters()
        assert any(n.startswith("bridge.") for n in names)
        assert any(n.startswith("grid_vision.") for n in names)

    def test_every_trainable_parameter_gets_a_gradient(self, vocab, data):
        model = make_model(vocab, train_bridge=True)
        params = model.trainable_parameters()
        _batch_loss(model, data).backward()
        assert [name for name, p in params.items() if p.grad is None] == []


class TestBcTrain:
    def test_logged_losses_reuse_frozen_features(self, vocab, monkeypatch):
        demos = collect_demos(EnvConfig(), [0])
        model = make_model(vocab)
        initial = dataset_loss(make_model(vocab), demos)
        keys = []
        original = model.instance_features

        def recorded(obs, plan_text):
            keys.append((obs.data.tobytes(), plan_text))
            return original(obs, plan_text)

        monkeypatch.setattr(model, "instance_features", recorded)
        calls = count_extract_calls(model, monkeypatch)
        log = bc_train(model, demos, seed=0, epochs=1)
        assert keys and len(keys) == len(set(keys)) == len(calls)
        monkeypatch.undo()
        assert log.initial_loss == initial
        assert log.final_loss == dataset_loss(model, demos)


class TestEvaluation:
    @pytest.mark.parametrize(
        "successes, n, low, high",
        [
            (0, 100, 0.0, 0.036995),
            (5, 10, 0.236590, 0.763410),
            (8, 10, 0.490157, 0.943319),
            (30, 100, 0.218948, 0.395850),
            (0, 0, 0.0, 1.0),
        ],
    )
    def test_wilson_interval_known_values(self, successes, n, low, high):
        got = wilson_interval(successes, n)
        np.testing.assert_allclose(got, (low, high), atol=1e-6)

    def test_same_seeds_same_result(self, vocab):
        model = make_model(vocab)
        first = evaluate_policy(model_policy(model), ENV, episodes=3, base_seed=7)
        second = evaluate_policy(model_policy(model), ENV, episodes=3, base_seed=7)
        assert first == second
        assert [r["seed"] for r in first["per_seed"]] == [7, 8, 9]
        assert first["wilson_low"] <= first["success_rate"] <= first["wilson_high"]
