import contextlib

import numpy as np
import pytest

from planact.checkpoint import restore_into
from planact.errors import ContractError, DimensionError, NumericError, ValidationError
from planact.gridworld import (
    ACTIONS,
    INTERACT,
    OBJECT_NAMES,
    Demonstration,
    EnvConfig,
    collect_demos,
    expert_action_toward,
    plan_for,
)
from planact.policy import (
    ControlModel,
    PolicyConfig,
    _batch_loss,
    _dataset_from_demos,
    bc_train,
    dataset_loss,
    evaluate_policy,
    expert_policy,
    model_policy,
    wilson_interval,
)
from planact.tensor import Tensor
from planact.vocab import Vocabulary, tokenize

ENV = EnvConfig(step_limit=6)
SMALL = dict(bridge_dim=16, query_count=2, hidden_dim=16, global_dim=8, conv_channels=4)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build([plan_for(name) for name in OBJECT_NAMES])


@pytest.fixture(scope="module")
def data():
    return _dataset_from_demos(collect_demos(EnvConfig(), [0, 1]), EnvConfig(), augment=False)[:6]


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

    def test_ablated_uses_zeros_without_cache(self, vocab, data, monkeypatch):
        obs, plan, _ = data[0]
        ablated = make_model(vocab, ablate_plan=True)
        calls = count_extract_calls(ablated, monkeypatch)
        cache = {}
        logits = forward_one(ablated, obs, plan, cache).data
        assert cache == {} and calls == []
        np.testing.assert_array_equal(logits, forward_one(ablated, obs, "go to the red block").data)
        features = np.zeros((1, ablated.config.query_count, ablated.config.bridge_dim))
        zero = ablated.policy_logits(Tensor(features), ablated.global_enc(Tensor(obs[None])))
        np.testing.assert_array_equal(logits, zero.data)
        plain = make_model(vocab)
        assert not np.array_equal(forward_one(plain, obs, plan).data, logits)

    @pytest.mark.parametrize(
        "plan",
        [pytest.param(None, id="none"), pytest.param("", id="empty"),
         pytest.param("  ", id="blank"), pytest.param(3, id="int")],
    )
    @pytest.mark.parametrize("ablate_plan", [False, True])
    def test_rejects_plan_that_is_not_text(self, vocab, data, plan, ablate_plan):
        obs, good, _ = data[0]
        model = make_model(vocab, ablate_plan=ablate_plan)
        with pytest.raises(ContractError, match="non-empty string"):
            model.forward(np.stack([obs, obs]), [good, plan])
        with pytest.raises(ContractError, match="non-empty string"):
            model.act(obs, plan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("ablate_plan", [False, True])
    def test_non_finite_observation_names_its_row(
        self, vocab, data, monkeypatch, bad, ablate_plan
    ):
        obs, plan, _ = data[0]
        broken = obs.copy()
        broken[1, 4, 5] = bad
        model = make_model(vocab, ablate_plan=ablate_plan)
        monkeypatch.setattr(model.global_enc, "convs", [])  # a layer that ran would fail
        with pytest.raises(NumericError, match="observation row 1 holds a non-finite value"):
            model.forward(np.stack([obs, broken, broken]), [plan] * 3)
        with pytest.raises(NumericError, match="observation row 0 holds a non-finite value"):
            model.act(broken, plan)

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

    def test_rejects_grid_smaller_than_receptive_field(self, vocab):
        small = EnvConfig(height=7, width=7)
        with pytest.raises(ContractError, match=r"7x7 grid is smaller than the 9x9"):
            ControlModel(np.random.default_rng(0), small, vocab)
        config = PolicyConfig(**{**SMALL, "conv_depth": 3})
        model = ControlModel(np.random.default_rng(0), small, vocab, config)
        obs = np.zeros(small.observation_shape)
        assert model.act(obs, plan_for(OBJECT_NAMES[0])) in range(len(ACTIONS))

    def test_rejects_observation_of_wrong_shape(self, vocab, data):
        _, plan, _ = data[0]
        model = make_model(vocab)
        with pytest.raises(DimensionError, match=r"do not match \(B, 4, 9, 9\)"):
            model.act(np.zeros((4, 7, 7)), plan)
        with pytest.raises(DimensionError, match=r"do not match \(B, 4, 9, 9\)"):
            model.forward(np.zeros((4, 9, 9)), [plan])

    def test_rejects_plan_count_mismatch(self, vocab, data):
        obs, plan, _ = data[0]
        with pytest.raises(DimensionError):
            make_model(vocab).forward(obs[None], [plan, plan])

    @pytest.mark.parametrize("cache", [None, {}], ids=["uncached", "cached"])
    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_rejects_empty_batch(self, vocab, cache, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        with pytest.raises(ContractError, match="the batch is empty"):
            model.forward(np.zeros((0, *ENV.observation_shape)), [], cache)


class TestBatchedForward:
    """One batched ``forward`` gives the rows of one-sample ``forward`` calls."""

    SHORT_PLAN = "go to the red block"

    def rows(self, data):
        # plans of two token lengths, in mixed order
        rows = [(obs, plan) for obs, plan, _ in data]
        rows[1] = (rows[1][0], self.SHORT_PLAN)
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

    def test_one_extract_per_distinct_plan(self, vocab, data, monkeypatch):
        model = make_model(vocab)
        calls = count_extract_calls(model, monkeypatch)
        cache = {}
        rows = self.rows(data)
        # three distinct plans, two of them of one token length
        assert len({plan for _, plan in rows}) == 3
        forward_rows(model, rows, cache)
        assert len(calls) == 3
        forward_rows(model, rows, cache)
        assert len(calls) == 3

    def test_duplicate_rows_computed_once(self, vocab, data):
        model = make_model(vocab)
        obs, plan, _ = data[0]
        cache = {}
        forward_rows(model, [(obs, plan), (obs, plan)], cache)
        assert len(cache) == 1

    def test_batch_loss_graph_size_independent_of_batch(self, vocab):
        from planact.tensor import _topo_order

        demos = collect_demos(EnvConfig(), [0, 1, 2])
        triples = _dataset_from_demos(demos, EnvConfig(), augment=True)
        model = make_model(vocab)
        cache = {}
        sizes = [len(_topo_order(_batch_loss(model, triples[:b], cache))) for b in (1, 32)]
        assert sizes[0] == sizes[1]


class TestInstanceFeatures:
    """The policy tokenizes each plan and groups rows by plan before the bridge runs."""

    PLANS = [plan_for(name) for name in OBJECT_NAMES[:3]]

    def test_one_plan_matches_bridge_extract(self, vocab, data):
        model = make_model(vocab)
        obs, plan, _ = data[0]
        features = model.instance_features(obs[None], [plan])
        tokens = model.grid_vision.encode_image(Tensor(obs[None]))
        expected = model.bridge.extract(tokens, model.bridge.plan_side(tokenize(plan, vocab)))
        assert features.shape == (1, model.config.query_count, model.config.bridge_dim)
        assert features.data.tobytes() == expected.data.tobytes()

    @pytest.mark.parametrize("train_bridge", [False, True], ids=["frozen", "joint"])
    def test_mixed_plans_match_one_plan_calls(self, vocab, data, train_bridge):
        model = make_model(vocab, train_bridge=train_bridge)
        obs = np.stack([o for o, _, _ in data])
        plans = [self.PLANS[i % 3] for i in range(len(data))]
        batched = model.instance_features(obs, plans).data
        for i, plan in enumerate(plans):
            one = model.instance_features(obs[i : i + 1], [plan]).data[0]
            np.testing.assert_allclose(batched[i], one, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cache", [None, {}], ids=["uncached", "cached"])
    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_plan_count_must_match(self, vocab, data, cache, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        obs = np.stack([data[0][0], data[1][0]])
        with pytest.raises(DimensionError, match=r"1 plans for observations of shape \(2, 4, 9, 9\)"):
            model.instance_features(obs, [data[0][1]], cache)

    @pytest.mark.parametrize("cache", [None, {}], ids=["uncached", "cached"])
    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_empty_plan_rejected(self, vocab, data, cache, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        obs = np.stack([data[0][0], data[1][0]])
        with pytest.raises(ContractError, match="every plan must be a non-empty string"):
            model.instance_features(obs, [data[0][1], "   "], cache)

    @pytest.mark.parametrize("cache", [None, {}], ids=["uncached", "cached"])
    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_empty_batch_rejected(self, vocab, cache, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        with pytest.raises(ContractError, match="the batch is empty"):
            model.instance_features(np.zeros((0, *ENV.observation_shape)), [], cache)

    @pytest.mark.parametrize(
        "train_bridge, kept", [(False, True), (True, False)], ids=["frozen", "joint"]
    )
    def test_one_plan_side_per_distinct_plan(self, vocab, data, monkeypatch, train_bridge, kept):
        model = make_model(vocab, train_bridge=train_bridge)
        first = model.bridge.blocks[0]
        calls = []
        original = first.self_attention

        def counted(x, *args, **kwargs):
            calls.append(x.shape)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(first, "self_attention", counted)
        obs = np.stack([o for o, _, _ in data[:5]])
        model.instance_features(obs, [self.PLANS[0], self.PLANS[1]] * 2 + [self.PLANS[0]])
        # two distinct plans, each run unbatched
        assert len(calls) == 2 and all(len(shape) == 2 for shape in calls)
        calls.clear()
        model.instance_features(obs, [self.PLANS[1]] * 5)
        # a frozen bridge keeps each plan's side; a trained one builds it per call
        assert len(calls) == (0 if kept else 1)


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
    @pytest.mark.parametrize(
        "field", ["global_dim", "conv_channels", "hidden_dim", "bridge_dim", "query_count"]
    )
    def test_rejects_width_below_one(self, field):
        with pytest.raises(ContractError, match=f"{field} must be at least 1, got 0"):
            PolicyConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field", ["bridge_heads", "ff_mult", "augment_symmetry", "bc_batch", "bc_peak_lr",
                  "bc_warmup_ratio"],
    )
    def test_constants_cannot_be_set(self, field):
        with pytest.raises(TypeError, match=field):
            PolicyConfig(**{field: getattr(PolicyConfig, field)})


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


# every parameter of the default ControlModel, in registration order: name,
# shape, then whether it trains with the bridge frozen and with train_bridge
DEFAULT_PARAMETERS = """
grid_vision.patch_embed.w            4x64     0 1
grid_vision.patch_embed.b            64       0 1
bridge.queries                       8x64     0 1
bridge.text_embed                    33x64    0 1
bridge.blocks.0.ln_self.gamma        64       0 1
bridge.blocks.0.ln_self.beta         64       0 1
bridge.blocks.0.self_attn.w_q.w      64x64    0 1
bridge.blocks.0.self_attn.w_q.b      64       0 1
bridge.blocks.0.self_attn.w_k.w      64x64    0 1
bridge.blocks.0.self_attn.w_k.b      64       0 1
bridge.blocks.0.self_attn.w_v.w      64x64    0 1
bridge.blocks.0.self_attn.w_v.b      64       0 1
bridge.blocks.0.self_attn.w_o.w      64x64    0 1
bridge.blocks.0.self_attn.w_o.b      64       0 1
bridge.blocks.0.ln_cross.gamma       64       0 1
bridge.blocks.0.ln_cross.beta        64       0 1
bridge.blocks.0.cross_attn.w_q.w     64x64    0 1
bridge.blocks.0.cross_attn.w_q.b     64       0 1
bridge.blocks.0.cross_attn.w_k.w     64x64    0 1
bridge.blocks.0.cross_attn.w_k.b     64       0 1
bridge.blocks.0.cross_attn.w_v.w     64x64    0 1
bridge.blocks.0.cross_attn.w_v.b     64       0 1
bridge.blocks.0.cross_attn.w_o.w     64x64    0 1
bridge.blocks.0.cross_attn.w_o.b     64       0 1
bridge.blocks.0.ln_ffn.gamma         64       0 1
bridge.blocks.0.ln_ffn.beta          64       0 1
bridge.blocks.0.ffn.lin1.w           64x128   0 1
bridge.blocks.0.ffn.lin1.b           128      0 1
bridge.blocks.0.ffn.lin2.w           128x64   0 1
bridge.blocks.0.ffn.lin2.b           64       0 1
bridge.blocks.1.ln_self.gamma        64       0 1
bridge.blocks.1.ln_self.beta         64       0 1
bridge.blocks.1.self_attn.w_q.w      64x64    0 1
bridge.blocks.1.self_attn.w_q.b      64       0 1
bridge.blocks.1.self_attn.w_k.w      64x64    0 1
bridge.blocks.1.self_attn.w_k.b      64       0 1
bridge.blocks.1.self_attn.w_v.w      64x64    0 1
bridge.blocks.1.self_attn.w_v.b      64       0 1
bridge.blocks.1.self_attn.w_o.w      64x64    0 1
bridge.blocks.1.self_attn.w_o.b      64       0 1
bridge.blocks.1.ln_ffn.gamma         64       0 1
bridge.blocks.1.ln_ffn.beta          64       0 1
bridge.blocks.1.ffn.lin1.w           64x128   0 1
bridge.blocks.1.ffn.lin1.b           128      0 1
bridge.blocks.1.ffn.lin2.w           128x64   0 1
bridge.blocks.1.ffn.lin2.b           64       0 1
bridge.ln_out.gamma                  64       0 1
bridge.ln_out.beta                   64       0 1
bridge.proj.w                        64x64    0 0
bridge.proj.b                        64       0 0
global_enc.convs.0.w                 36x16    1 1
global_enc.convs.0.b                 16       1 1
global_enc.convs.1.w                 144x16   1 1
global_enc.convs.1.b                 16       1 1
global_enc.convs.2.w                 144x16   1 1
global_enc.convs.2.b                 16       1 1
global_enc.convs.3.w                 144x32   1 1
global_enc.convs.3.b                 32       1 1
head.lin1.w                          544x64   1 1
head.lin1.b                          64       1 1
head.lin2.w                          64x64    1 1
head.lin2.b                          64       1 1
head.lin3.w                          64x5     1 1
head.lin3.b                          5        1 1
"""


class TestDefaultParameters:
    """A refactor must keep every weight's name, shape, order and trainable flag."""

    @pytest.mark.parametrize("train_bridge", [False, True], ids=["frozen", "joint"])
    def test_names_shapes_and_flags_pinned(self, train_bridge):
        vocab = Vocabulary.build(plan_for(name) for name in OBJECT_NAMES)
        config = PolicyConfig(train_bridge=train_bridge)
        model = ControlModel(np.random.default_rng(0), EnvConfig(), vocab, config)
        rows = [line.split() for line in DEFAULT_PARAMETERS.strip().splitlines()]
        expected = [(name, shape, flags[train_bridge]) for name, shape, *flags in rows]
        actual = [
            (name, "x".join(map(str, p.shape)), str(int(p.requires_grad)))
            for name, p in model.named_parameters().items()
        ]
        assert actual == expected


class TestPlanSideStore:
    """A frozen bridge keeps each plan's side for the model's life; a trained one does not."""

    @pytest.mark.parametrize("train_bridge, plan_side_runs", [(False, 1), (True, 20)])
    def test_act_runs_plan_side_once_per_plan(
        self, vocab, data, monkeypatch, train_bridge, plan_side_runs
    ):
        model = make_model(vocab, train_bridge=train_bridge)
        extracts = count_extract_calls(model, monkeypatch)
        first = model.bridge.blocks[0]
        attention = []
        original = first.self_attention

        def counted(*args, **kwargs):
            attention.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(first, "self_attention", counted)
        _, plan, _ = data[0]
        for i in range(20):
            model.act(data[i % len(data)][0], plan)
        assert len(attention) == plan_side_runs and len(extracts) == 20

    @pytest.mark.parametrize("train_bridge, plan_side_runs", [(False, 2), (True, 20)])
    def test_act_projects_text_rows_once_per_plan(
        self, vocab, data, monkeypatch, train_bridge, plan_side_runs
    ):
        model = make_model(vocab, train_bridge=train_bridge)
        n = model.config.query_count
        second = model.bridge.blocks[1]
        attn = second.self_attn
        rows = {name: [] for name in ("ln_self", "w_q", "w_k", "w_v")}

        def counted(name, layer):
            def call(x):
                rows[name].append(x.shape[-2])
                return layer(x)
            return call

        monkeypatch.setattr(second, "ln_self", counted("ln_self", second.ln_self))
        for name in ("w_q", "w_k", "w_v"):
            monkeypatch.setattr(attn, name, counted(name, getattr(attn, name)))
        plans = [plan_for(name) for name in OBJECT_NAMES[:2]]
        for i in range(20):
            model.act(data[i % len(data)][0], plans[i % 2])
        # the last block's text rows are keys and values only, so it projects
        # queries for the query rows alone
        assert rows.pop("w_q") == [n] * 20
        for name, seen in rows.items():
            with_text = [r for r in seen if r > n]
            assert len(with_text) == plan_side_runs, name
            assert len(seen) - len(with_text) == 20, name

    def test_bc_train_leaves_frozen_weights_unchanged(self, vocab):
        model = make_model(vocab)
        frozen = ("bridge.", "grid_vision.")

        def snapshot():
            return {k: v.data.tobytes() for k, v in model.named_parameters().items()}

        before = snapshot()
        bc_train(model, collect_demos(EnvConfig(), [0]), seed=0, epochs=1)
        after = snapshot()
        assert {k: v for k, v in after.items() if k.startswith(frozen)} == {
            k: v for k, v in before.items() if k.startswith(frozen)
        }
        assert any(after[k] != before[k] for k in before if not k.startswith(frozen))

    @pytest.mark.parametrize("train_bridge", [False, True])
    def test_trained_model_matches_fresh_model_with_its_weights(self, vocab, data, train_bridge):
        obs, plan, _ = data[0]
        model = make_model(vocab, train_bridge=train_bridge)
        model.act(obs, plan)  # a kept plan side would now predate training
        bc_train(model, collect_demos(EnvConfig(), [0]), seed=0, epochs=1)
        fresh = make_model(vocab, seed=1, train_bridge=train_bridge)
        restore_into(
            fresh.named_parameters(), {k: v.data for k, v in model.named_parameters().items()}
        )
        rows = [(o, p) for o, p, _ in data]
        assert forward_rows(model, rows).data.tobytes() == forward_rows(fresh, rows).data.tobytes()


class TestBcTrain:
    def test_logged_losses_reuse_frozen_features(self, vocab, monkeypatch):
        demos = collect_demos(EnvConfig(), [0])
        model = make_model(vocab)
        initial = dataset_loss(make_model(vocab), demos)
        keys = []
        original = model._extract_by_plan

        def recorded(obs, plan_texts):
            keys.extend((o.tobytes(), p) for o, p in zip(obs, plan_texts))
            return original(obs, plan_texts)

        monkeypatch.setattr(model, "_extract_by_plan", recorded)
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


class TestDemoValidation:
    # bc_train and dataset_loss validate every demo against the model's grid first
    @pytest.mark.parametrize("run", [bc_train, dataset_loss])
    def test_demo_without_steps_named(self, vocab, run):
        with pytest.raises(ValidationError, match="demonstration 0 did not succeed"):
            run(make_model(vocab), [Demonstration(seed=0)])

    @pytest.mark.parametrize("run", [bc_train, dataset_loss])
    def test_illegal_action_named(self, vocab, run):
        demo = collect_demos(ENV, [0])[0]
        obs, plan, _ = demo.steps[0]
        demo.steps.insert(0, (obs, plan, 7))
        with pytest.raises(ValidationError, match="demonstration 0 holds an illegal action"):
            run(make_model(vocab), [demo])

    @pytest.mark.parametrize("run", [bc_train, dataset_loss])
    def test_observation_shape_named(self, vocab, run):
        demo = collect_demos(ENV, [0])[0]
        demo.steps = [(obs[:, :7, :7], plan, action) for obs, plan, action in demo.steps]
        with pytest.raises(
            ValidationError,
            match=r"demonstration 0 holds an observation of shape \(4, 7, 7\), "
            r"expected \(4, 9, 9\)",
        ):
            run(make_model(vocab), [demo])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("run", [bc_train, dataset_loss])
    def test_non_finite_observation_named(self, vocab, run, bad):
        demo = collect_demos(ENV, [0])[0]
        obs, plan, action = demo.steps[1]
        broken = obs.copy()
        broken[0, 2, 3] = bad
        demo.steps[1] = (broken, plan, action)
        with pytest.raises(
            ValidationError, match="demonstration 0 holds a non-finite observation at step 1"
        ):
            run(make_model(vocab), [demo])

    @pytest.mark.parametrize("run", [bc_train, dataset_loss])
    def test_no_demos_rejected(self, vocab, run):
        with pytest.raises(ContractError, match="at least one demonstration"):
            run(make_model(vocab), [])


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

    @pytest.mark.parametrize("episodes", [0, -2])
    def test_fewer_than_one_episode_rejected(self, episodes):
        with pytest.raises(ContractError, match=f"at least one episode, got {episodes}"):
            evaluate_policy(expert_policy(), ENV, episodes=episodes)


def toward_another_object(env, obs, plan_text):
    """Walks to the object after the target and interacts there for good."""
    return expert_action_toward(env, env.object_pos[(env.target_idx + 1) % len(env.object_pos)])


def up_and_down(env, obs, plan_text):
    """Walks to the top row, then steps down and up again."""
    return 1 if env.agent_pos[0] == 0 else 0


def interact_in_place(env, obs, plan_text):
    return INTERACT


class TestFailureCause:
    LONG = EnvConfig(step_limit=30)  # every cell of the 9 x 9 grid is in reach

    @pytest.mark.parametrize(
        "policy_fn, cause",
        [
            (expert_policy(), None),
            (toward_another_object, "wrong_object"),
            (up_and_down, "oscillation"),
            (interact_in_place, "step_limit"),
        ],
    )
    def test_scripted_policy_cause(self, policy_fn, cause):
        result = evaluate_policy(policy_fn, self.LONG, episodes=5, base_seed=3)
        assert [r["cause"] for r in result["per_seed"]] == [cause] * 5
        assert [r["success"] for r in result["per_seed"]] == [cause is None] * 5
        assert result["success_rate"] == (1.0 if cause is None else 0.0)

    def test_wrong_object_outranks_oscillation(self):
        interacted = []  # episodes whose agent has interacted at the other object

        def wrong_then_oscillate(env, obs, plan_text):
            if any(env is seen for seen in interacted):
                return up_and_down(env, obs, plan_text)
            action = toward_another_object(env, obs, plan_text)
            if action == INTERACT:
                interacted.append(env)
            return action

        result = evaluate_policy(wrong_then_oscillate, self.LONG, episodes=3, base_seed=3)
        assert [r["cause"] for r in result["per_seed"]] == ["wrong_object"] * 3
