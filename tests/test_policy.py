import contextlib

import numpy as np
import pytest

from planact.errors import ContractError, DimensionError
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


def forward_one(model, obs, plan, cache=None):
    return model.forward(obs[None], [plan], cache)


def forward_rows(model, rows, cache=None):
    return model.forward(np.stack([obs for obs, _ in rows]), [plan for _, plan in rows], cache)


class TestForward:
    def test_logit_shape(self, vocab, data):
        obs, plan, _ = data[0]
        model = make_model(vocab)
        assert forward_one(model, obs, plan).shape == (1, len(ACTIONS))
        assert forward_rows(model, [(o, p) for o, p, _ in data]).shape == (len(data), len(ACTIONS))
        assert 0 <= model.act(obs, plan) < len(ACTIONS)

    def test_cached_equals_uncached_bitwise(self, vocab, data):
        model = make_model(vocab)
        cache = {}
        for obs, plan, _ in data:
            uncached = forward_one(model, obs, plan).data
            first = forward_one(model, obs, plan, cache).data
            hit = forward_one(model, obs, plan, cache).data
            assert uncached.tobytes() == first.tobytes() == hit.tobytes()
        assert len(cache) == len({(o.tobytes(), p) for o, p, _ in data})

    def test_cache_hit_skips_bridge(self, vocab, data, monkeypatch):
        model = make_model(vocab)
        calls = count_extract_calls(model, monkeypatch)
        obs, plan, _ = data[0]
        cache = {}
        forward_one(model, obs, plan, cache)
        forward_one(model, obs, plan, cache)
        assert len(calls) == 1

    def test_cached_features_are_constants(self, vocab, data):
        model = make_model(vocab)
        obs, plan, _ = data[0]
        cache = {}
        forward_one(model, obs, plan, cache)
        (z_instance,) = cache.values()
        assert not z_instance.requires_grad

    def test_ablated_and_planless_use_zeros_without_cache(self, vocab, data, monkeypatch):
        obs, plan, _ = data[0]
        ablated = make_model(vocab, ablate_plan=True)
        calls = count_extract_calls(ablated, monkeypatch)
        cache = {}
        logits = forward_one(ablated, obs, plan, cache).data
        assert cache == {} and calls == []
        np.testing.assert_array_equal(logits, forward_one(ablated, obs, None).data)
        plain = make_model(vocab)
        assert not np.array_equal(
            forward_one(plain, obs, plan).data, forward_one(plain, obs, None).data
        )

    def test_act_records_no_graph(self, vocab, data, monkeypatch):
        model = make_model(vocab, train_bridge=True)
        obs, plan, _ = data[0]
        outputs = []
        forward = model.forward

        def recorded(*args, **kwargs):
            outputs.append(forward(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(model, "forward", recorded)
        action = model.act(obs, plan)
        assert action == int(np.argmax(forward_one(model, obs, plan).data[0]))
        assert not outputs[0].requires_grad and outputs[0]._parents == ()

    def test_same_seed_same_logits(self, vocab, data):
        obs, plan, _ = data[0]
        a = forward_one(make_model(vocab, seed=3), obs, plan).data
        b = forward_one(make_model(vocab, seed=3), obs, plan).data
        assert a.tobytes() == b.tobytes()

    def test_rejects_non_square_grid(self, vocab):
        with pytest.raises(ContractError):
            ControlModel(np.random.default_rng(0), EnvConfig(height=9, width=7), vocab)

    def test_rejects_plan_count_mismatch(self, vocab, data):
        obs, plan, _ = data[0]
        with pytest.raises(DimensionError):
            make_model(vocab).forward(obs[None], [plan, plan])


class TestBatchedForward:
    """One batched ``forward`` gives the rows of one-sample ``forward`` calls."""

    SHORT_PLAN = "go to the red block"

    def rows(self, data):
        # plans of two token lengths and plan-less rows, in mixed order
        rows = [(obs, plan) for obs, plan, _ in data]
        rows[1] = (rows[1][0], self.SHORT_PLAN)
        rows[3] = (rows[3][0], None)
        rows.append((data[0][0], self.SHORT_PLAN))
        return rows

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"query_count": 3}, {"train_bridge": True}, {"train_bridge": True, "query_count": 3}],
    )
    @pytest.mark.parametrize("cached", [False, True])
    def test_rows_match_single_calls(self, vocab, data, overrides, cached):
        model = make_model(vocab, **overrides)
        rows = self.rows(data)
        single = np.concatenate([forward_one(model, obs, plan).data for obs, plan in rows])
        cache = None
        if cached:  # half of the rows are hits, half misses
            cache = {}
            forward_rows(model, rows[::2], cache)
        batched = forward_rows(model, rows, cache).data
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-10)

    def test_ablated_rows_match_single_calls(self, vocab, data):
        model = make_model(vocab, ablate_plan=True)
        rows = self.rows(data)
        single = np.concatenate([forward_one(model, obs, plan).data for obs, plan in rows])
        np.testing.assert_allclose(forward_rows(model, rows).data, single, rtol=0, atol=1e-10)

    def test_one_extract_per_plan_length(self, vocab, data, monkeypatch):
        model = make_model(vocab)
        calls = count_extract_calls(model, monkeypatch)
        cache = {}
        forward_rows(model, self.rows(data), cache)
        assert len(calls) == 2
        forward_rows(model, self.rows(data), cache)
        assert len(calls) == 2

    def test_duplicate_rows_computed_once(self, vocab, data):
        model = make_model(vocab)
        obs, plan, _ = data[0]
        cache = {}
        forward_rows(model, [(obs, plan), (obs, plan)], cache)
        assert len(cache) == 1

    def test_batch_loss_graph_size_independent_of_batch(self, vocab):
        from planact.tensor import _topo_order

        demos = collect_demos(EnvConfig(), [0, 1, 2])
        triples = _dataset_from_demos(demos, augment=True)
        model = make_model(vocab)
        cache = {}
        sizes = [len(_topo_order(_batch_loss(model, triples[:b], cache))) for b in (1, 32)]
        assert sizes[0] == sizes[1]


class TestFreezing:
    def test_frozen_bridge_builds_no_graph(self, vocab, data):
        model = make_model(vocab)
        frozen = [
            name
            for name, p in model.named_parameters().items()
            if name.startswith(("bridge.", "grid_vision.")) and p.requires_grad
        ]
        assert frozen == []
        obs = np.stack([o for o, _, _ in data])
        z = model.instance_features(obs, [p for _, p, _ in data])
        assert not z.requires_grad and z._parents == ()
        assert forward_rows(model, [(o, p) for o, p, _ in data]).requires_grad

    def test_unread_parameters_always_frozen(self, vocab):
        params = make_model(vocab, train_bridge=True).named_parameters()
        frozen = {name for name, p in params.items() if not p.requires_grad}
        assert frozen == {"bridge.proj.w", "bridge.proj.b"}


class TestConfig:
    @pytest.mark.parametrize("bc_batch", [0, -1])
    def test_rejects_empty_minibatch(self, bc_batch):
        with pytest.raises(ContractError, match="bc_batch"):
            PolicyConfig(bc_batch=bc_batch)


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

        def recorded(obs, plan_texts):
            keys.extend((o.tobytes(), p) for o, p in zip(obs, plan_texts))
            return original(obs, plan_texts)

        monkeypatch.setattr(model, "instance_features", recorded)
        calls = count_extract_calls(model, monkeypatch)
        log = bc_train(model, demos, seed=0, epochs=1)
        assert keys and len(keys) == len(set(keys)) >= len(calls) > 0
        monkeypatch.undo()
        assert log.initial_loss == initial
        assert log.final_loss == dataset_loss(model, demos)

    def test_logged_losses_record_no_graph(self, vocab, monkeypatch):
        demos = collect_demos(EnvConfig(), [0])

        def train(graph_on_logged):
            losses = []

            def recorded(*args, **kwargs):
                losses.append(_batch_loss(*args, **kwargs))
                return losses[-1]

            with monkeypatch.context() as patch:
                patch.setattr("planact.policy._batch_loss", recorded)
                if graph_on_logged:
                    patch.setattr("planact.policy.no_grad", contextlib.nullcontext)
                log = bc_train(make_model(vocab), demos, seed=0, epochs=1)
            return log, [losses[0], losses[-1]], losses[1:-1]

        log, logged, trained = train(graph_on_logged=False)
        assert trained and all(loss.requires_grad for loss in trained)
        assert not any(loss.requires_grad or loss._parents for loss in logged)
        # the same losses computed with graph recording on are bit-equal
        graph_log, graph_logged, _ = train(graph_on_logged=True)
        assert all(loss.requires_grad for loss in graph_logged)
        assert (log.initial_loss, log.final_loss) == (graph_log.initial_loss, graph_log.final_loss)
        assert log.losses == graph_log.losses


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
