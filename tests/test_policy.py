import contextlib
import math
import re

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
    symmetry_views,
)
from planact.optim import AdamW, LrSchedule
from planact.policy import (
    GROUNDING_EPOCHS,
    ControlModel,
    PolicyConfig,
    _dataset_from_demos,
    bc_train,
    evaluate_policy,
    expert_policy,
    model_policy,
    pretrain_bridge,
    wilson_interval,
)
from planact.tensor import Tensor, _topo_order, cross_entropy, no_grad
from planact.vocab import Vocabulary, tokenize

ENV = EnvConfig(step_limit=6)
SMALL = dict(bridge_dim=16, query_count=2, hidden_dim=16, global_dim=8, conv_channels=4)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.build([plan_for(name) for name in OBJECT_NAMES])


@pytest.fixture(scope="module")
def data():
    obs, plans, actions = _dataset_from_demos(collect_demos(EnvConfig(), [0, 1]), EnvConfig())
    return list(zip(obs[::8], plans[::8], actions[::8]))[:6]


def make_model(vocab, seed=0, ablate_plan=False, **overrides):
    config = PolicyConfig(**{**SMALL, **overrides})
    return ControlModel(np.random.default_rng(seed), ENV, vocab, config, ablate_plan=ablate_plan)


def pretrained(model):
    """``model`` after grounding pretraining on one episode."""
    pretrain_bridge(model, collect_demos(ENV, [0]))
    return model


def count_extract_calls(model, monkeypatch):
    calls = []
    original = model.bridge.extract

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(model.bridge, "extract", counted)
    return calls


def forward_one(model, obs, plan):
    return model.forward(obs[None], [plan])


def forward_rows(model, rows):
    return model.forward(np.stack([obs for obs, _ in rows]), [plan for _, plan in rows])


class TestForward:
    def test_logit_shape(self, vocab, data):
        obs, plan, _ = data[0]
        model = make_model(vocab)
        assert forward_one(model, obs, plan).shape == (1, len(ACTIONS))
        assert forward_rows(model, [(o, p) for o, p, _ in data]).shape == (len(data), len(ACTIONS))
        assert 0 <= model.act(obs, plan) < len(ACTIONS)

    def test_ablated_uses_zeros(self, vocab, data, monkeypatch):
        obs, plan, _ = data[0]
        ablated = make_model(vocab, ablate_plan=True)
        calls = count_extract_calls(ablated, monkeypatch)
        logits = forward_one(ablated, obs, plan).data
        assert calls == []
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
        model = make_model(vocab)
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

    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_rejects_empty_batch(self, vocab, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        with pytest.raises(ContractError, match="the batch is empty"):
            model.forward(np.zeros((0, *ENV.observation_shape)), [])


class TestBatchedForward:
    """One batched ``forward`` gives the rows of one-sample ``forward`` calls."""

    SHORT_PLAN = "go to the red block"

    def rows(self, data):
        # plans of two token lengths, in mixed order
        rows = [(obs, plan) for obs, plan, _ in data]
        rows[1] = (rows[1][0], self.SHORT_PLAN)
        rows.append((data[0][0], self.SHORT_PLAN))
        return rows

    @pytest.mark.parametrize("overrides", [{}, {"query_count": 3}])
    def test_rows_match_single_calls(self, vocab, data, overrides):
        model = make_model(vocab, **overrides)
        rows = self.rows(data)
        single = np.concatenate([forward_one(model, obs, plan).data for obs, plan in rows])
        batched = forward_rows(model, rows).data
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("overrides", [{}, {"query_count": 3}])
    def test_pretrained_rows_match_single_calls(self, vocab, data, overrides):
        model = pretrained(make_model(vocab, **overrides))
        rows = self.rows(data)
        single = np.concatenate([forward_one(model, obs, plan).data for obs, plan in rows])
        np.testing.assert_allclose(forward_rows(model, rows).data, single, rtol=0, atol=1e-10)

    def test_ablated_rows_match_single_calls(self, vocab, data):
        model = make_model(vocab, ablate_plan=True)
        rows = self.rows(data)
        single = np.concatenate([forward_one(model, obs, plan).data for obs, plan in rows])
        np.testing.assert_allclose(forward_rows(model, rows).data, single, rtol=0, atol=1e-10)

    def test_one_extract_per_distinct_plan(self, vocab, data, monkeypatch):
        model = make_model(vocab)
        calls = count_extract_calls(model, monkeypatch)
        rows = self.rows(data)
        # three distinct plans, two of them of one token length
        assert len({plan for _, plan in rows}) == 3
        forward_rows(model, rows)
        assert len(calls) == 3


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

    @pytest.mark.parametrize("pretrain", [False, True], ids=["frozen", "pretrained"])
    def test_mixed_plans_match_one_plan_calls(self, vocab, data, pretrain):
        model = pretrained(make_model(vocab)) if pretrain else make_model(vocab)
        obs = np.stack([o for o, _, _ in data])
        plans = [self.PLANS[i % 3] for i in range(len(data))]
        batched = model.instance_features(obs, plans).data
        for i, plan in enumerate(plans):
            one = model.instance_features(obs[i : i + 1], [plan]).data[0]
            np.testing.assert_allclose(batched[i], one, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_plan_count_must_match(self, vocab, data, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        obs = np.stack([data[0][0], data[1][0]])
        with pytest.raises(DimensionError, match=r"1 plans for observations of shape \(2, 4, 9, 9\)"):
            model.instance_features(obs, [data[0][1]])

    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_empty_plan_rejected(self, vocab, data, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        obs = np.stack([data[0][0], data[1][0]])
        with pytest.raises(ContractError, match="every plan must be a non-empty string"):
            model.instance_features(obs, [data[0][1], "   "])

    @pytest.mark.parametrize("ablate_plan", [False, True], ids=["plan", "ablated"])
    def test_empty_batch_rejected(self, vocab, ablate_plan):
        model = make_model(vocab, ablate_plan=ablate_plan)
        with pytest.raises(ContractError, match="the batch is empty"):
            model.instance_features(np.zeros((0, *ENV.observation_shape)), [])

    @pytest.mark.parametrize("pretrain", [False, True], ids=["frozen", "pretrained"])
    def test_one_plan_side_per_distinct_plan(self, vocab, data, monkeypatch, pretrain):
        model = pretrained(make_model(vocab)) if pretrain else make_model(vocab)
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
        # each plan's side is kept
        assert calls == []


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

    def test_unread_parameters_always_frozen(self, vocab, monkeypatch):
        # the policy reads the bridge through extract, which never runs bridge.proj
        model = make_model(vocab)
        proj = {"bridge.proj.w", "bridge.proj.b"}
        before = {name: model.named_parameters()[name].data.tobytes() for name in proj}
        flags = []
        original = AdamW.step

        def recorded(optimizer, lr):
            flags.append({n for n, p in model.named_parameters().items() if p.requires_grad})
            return original(optimizer, lr)

        monkeypatch.setattr(AdamW, "step", recorded)
        demos = collect_demos(ENV, [0])
        pretrain_bridge(model, demos)
        bc_train(model, demos, epochs=1)
        assert flags and all(not proj & trainable for trainable in flags)
        params = model.named_parameters()
        assert not any(params[name].requires_grad for name in proj)
        assert {name: params[name].data.tobytes() for name in proj} == before


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
        ablated = make_model(vocab, ablate_plan=True).trainable_parameters()
        assert set(ablated) == set(names)

    def test_every_trainable_parameter_gets_a_gradient(self, vocab, data):
        model = make_model(vocab)
        params = model.trainable_parameters()
        rows = [(o, p) for o, p, _ in data]
        cross_entropy(forward_rows(model, rows), [a for _, _, a in data]).backward()
        assert [name for name, p in params.items() if p.grad is None] == []


# every parameter of the default ControlModel, in registration order: name,
# shape, then whether bc_train trains it
DEFAULT_PARAMETERS = """
grid_vision.patch_embed.w            4x64     0
grid_vision.patch_embed.b            64       0
bridge.queries                       8x64     0
bridge.text_embed                    33x64    0
bridge.blocks.0.ln_self.gamma        64       0
bridge.blocks.0.ln_self.beta         64       0
bridge.blocks.0.self_attn.w_q.w      64x64    0
bridge.blocks.0.self_attn.w_q.b      64       0
bridge.blocks.0.self_attn.w_k.w      64x64    0
bridge.blocks.0.self_attn.w_k.b      64       0
bridge.blocks.0.self_attn.w_v.w      64x64    0
bridge.blocks.0.self_attn.w_v.b      64       0
bridge.blocks.0.self_attn.w_o.w      64x64    0
bridge.blocks.0.self_attn.w_o.b      64       0
bridge.blocks.0.ln_cross.gamma       64       0
bridge.blocks.0.ln_cross.beta        64       0
bridge.blocks.0.cross_attn.w_q.w     64x64    0
bridge.blocks.0.cross_attn.w_q.b     64       0
bridge.blocks.0.cross_attn.w_k.w     64x64    0
bridge.blocks.0.cross_attn.w_k.b     64       0
bridge.blocks.0.cross_attn.w_v.w     64x64    0
bridge.blocks.0.cross_attn.w_v.b     64       0
bridge.blocks.0.cross_attn.w_o.w     64x64    0
bridge.blocks.0.cross_attn.w_o.b     64       0
bridge.blocks.0.ln_ffn.gamma         64       0
bridge.blocks.0.ln_ffn.beta          64       0
bridge.blocks.0.ffn.lin1.w           64x128   0
bridge.blocks.0.ffn.lin1.b           128      0
bridge.blocks.0.ffn.lin2.w           128x64   0
bridge.blocks.0.ffn.lin2.b           64       0
bridge.blocks.1.ln_self.gamma        64       0
bridge.blocks.1.ln_self.beta         64       0
bridge.blocks.1.self_attn.w_q.w      64x64    0
bridge.blocks.1.self_attn.w_q.b      64       0
bridge.blocks.1.self_attn.w_k.w      64x64    0
bridge.blocks.1.self_attn.w_k.b      64       0
bridge.blocks.1.self_attn.w_v.w      64x64    0
bridge.blocks.1.self_attn.w_v.b      64       0
bridge.blocks.1.self_attn.w_o.w      64x64    0
bridge.blocks.1.self_attn.w_o.b      64       0
bridge.blocks.1.ln_ffn.gamma         64       0
bridge.blocks.1.ln_ffn.beta          64       0
bridge.blocks.1.ffn.lin1.w           64x128   0
bridge.blocks.1.ffn.lin1.b           128      0
bridge.blocks.1.ffn.lin2.w           128x64   0
bridge.blocks.1.ffn.lin2.b           64       0
bridge.ln_out.gamma                  64       0
bridge.ln_out.beta                   64       0
bridge.proj.w                        64x64    0
bridge.proj.b                        64       0
global_enc.convs.0.w                 36x16    1
global_enc.convs.0.b                 16       1
global_enc.convs.1.w                 144x16   1
global_enc.convs.1.b                 16       1
global_enc.convs.2.w                 144x16   1
global_enc.convs.2.b                 16       1
global_enc.convs.3.w                 144x32   1
global_enc.convs.3.b                 32       1
head.lin1.w                          544x64   1
head.lin1.b                          64       1
head.lin2.w                          64x64    1
head.lin2.b                          64       1
head.lin3.w                          64x5     1
head.lin3.b                          5        1
"""


class TestDefaultParameters:
    """A refactor must keep every weight's name, shape, order and trainable flag."""

    def test_names_shapes_and_flags_pinned(self):
        vocab = Vocabulary.build(plan_for(name) for name in OBJECT_NAMES)
        model = ControlModel(np.random.default_rng(0), EnvConfig(), vocab)
        expected = [tuple(line.split()) for line in DEFAULT_PARAMETERS.strip().splitlines()]
        actual = [
            (name, "x".join(map(str, p.shape)), str(int(p.requires_grad)))
            for name, p in model.named_parameters().items()
        ]
        assert actual == expected


class TestPlanSideStore:
    """The model keeps each plan's side until ``pretrain_bridge`` clears it."""

    @pytest.mark.parametrize("pretrain", [False, True], ids=["frozen", "pretrained"])
    def test_act_runs_plan_side_once_per_plan(self, vocab, data, monkeypatch, pretrain):
        model = make_model(vocab)
        if pretrain:
            model.act(data[0][0], data[0][1])  # a side kept now is cleared by pretraining
            pretrained(model)
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
        assert len(attention) == 1 and len(extracts) == 20

    def test_act_projects_text_rows_once_per_plan(self, vocab, data, monkeypatch):
        model = make_model(vocab)
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
            assert len(with_text) == 2, name
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

    def test_trained_model_matches_fresh_model_with_its_weights(self, vocab, data):
        obs, plan, _ = data[0]
        model = make_model(vocab)
        model.act(obs, plan)  # a kept plan side would now predate training
        bc_train(model, collect_demos(EnvConfig(), [0]), seed=0, epochs=1)
        fresh = make_model(vocab, seed=1)
        restore_into(
            fresh.named_parameters(), {k: v.data for k, v in model.named_parameters().items()}
        )
        rows = [(o, p) for o, p, _ in data]
        assert forward_rows(model, rows).data.tobytes() == forward_rows(fresh, rows).data.tobytes()


def reference_bc_train(model, demos, seed, epochs):
    """``bc_train`` as one plain ``forward`` per minibatch, with no feature table."""
    cfg = model.config
    triples = [
        (view, plan, a)
        for demo in demos
        for obs, plan, action in demo.steps
        for view, a in symmetry_views(obs, action)
    ]
    logged = [step for demo in demos for step in demo.steps][:256]

    def loss_of(rows):
        logits = model.forward(np.stack([o for o, _, _ in rows]), [p for _, p, _ in rows])
        return cross_entropy(logits, [a for _, _, a in rows])

    rng = np.random.default_rng(seed)
    batches = math.ceil(len(triples) / cfg.bc_batch)
    schedule = LrSchedule(cfg.bc_peak_lr, epochs * batches, cfg.bc_warmup_ratio)
    optimizer = AdamW(list(model.trainable_parameters().values()))
    with no_grad():
        initial = loss_of(logged).item()
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(triples))
        for b in range(batches):
            optimizer.zero_grad()
            loss = loss_of([triples[i] for i in order[b * cfg.bc_batch : (b + 1) * cfg.bc_batch]])
            loss.backward()
            optimizer.step(schedule.lr_at(len(losses)))
            losses.append(loss.item())
    with no_grad():
        final = loss_of(logged).item()
    return losses, initial, final


def record_bc_train(model, demos, monkeypatch, epochs=1):
    """Run ``bc_train`` and return its log and the events it went through, in order:
    ``("features", rows)`` per ``instance_features`` call, ``("extract", rows)``,
    ``("loss", logged)`` per loss, where a logged loss is one that records no
    graph, and ``("step",)`` per optimizer step."""
    events = []

    def wrap(name, call, rows=True):
        def recorded(*args, **kwargs):
            events.append((name, args[0].shape[0]) if rows else (name,))
            return call(*args, **kwargs)
        return recorded

    def loss(*args):
        value = cross_entropy(*args)
        events.append(("loss", not value.requires_grad))
        return value

    monkeypatch.setattr(model.bridge, "extract", wrap("extract", model.bridge.extract))
    monkeypatch.setattr(model, "instance_features", wrap("features", model.instance_features))
    monkeypatch.setattr(AdamW, "step", wrap("step", AdamW.step, rows=False))
    monkeypatch.setattr("planact.policy.cross_entropy", loss)
    log = bc_train(model, demos, seed=0, epochs=epochs)
    monkeypatch.undo()
    return log, events


def kinds(events):
    """``events`` as one letter each: ``f``eatures, ``e``xtract, ``l``ogged loss,
    ``t``raining loss and optimizer ``s``tep."""
    letters = {"features": "f", "extract": "e", "step": "s"}
    return "".join(
        ("l" if e[1] else "t") if e[0] == "loss" else letters[e[0]] for e in events
    )


def recorded_loss(model, demos):
    """Mean NLL under ``model.forward`` of the first 256 recorded steps of ``demos``."""
    steps = [step for demo in demos for step in demo.steps][:256]
    with no_grad():
        logits = model.forward(np.stack([o for o, _, _ in steps]), [p for _, p, _ in steps])
        return cross_entropy(logits, [a for _, _, a in steps]).item()


# 112 training rows on ENV: three full minibatches and one of 16
TRAIN_DEMOS = [0, 4, 6]


class TestBcTrain:
    @pytest.mark.parametrize(
        "seeds", [[0], [0, 1]], ids=["16-rows", "72-rows"]  # one batch of 16; 32, 32 and 8
    )
    @pytest.mark.parametrize(
        "pretrain, ablate_plan",
        [(False, False), (True, False), (False, True)],
        ids=["frozen", "pretrained", "ablated-frozen"],
    )
    def test_matches_one_forward_per_minibatch(self, seeds, pretrain, ablate_plan):
        # the default config
        vocab = Vocabulary.build(plan_for(name) for name in OBJECT_NAMES)
        demos = collect_demos(EnvConfig(), seeds)

        def fresh():
            model = ControlModel(np.random.default_rng(0), EnvConfig(), vocab,
                                 ablate_plan=ablate_plan)
            if pretrain:
                pretrain_bridge(model, demos, seed=1)
            return model

        model, reference = fresh(), fresh()
        log = bc_train(model, demos, seed=1, epochs=2)
        expected = reference_bc_train(reference, demos, seed=1, epochs=2)
        assert (log.losses, log.initial_loss, log.final_loss) == expected
        for p, q in zip(model.parameters(), reference.parameters()):
            assert p.data.tobytes() == q.data.tobytes()

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_frozen_features_computed_once_per_row(self, vocab, monkeypatch, epochs):
        demos = collect_demos(ENV, TRAIN_DEMOS)
        rows = len(_dataset_from_demos(demos, ENV)[0])
        model = make_model(vocab)
        initial = recorded_loss(make_model(vocab), demos)
        log, events = record_bc_train(model, demos, monkeypatch, epochs=epochs)
        table = [event[1] for event in events if event[0] == "features"]
        assert rows == 112 and table == [32, 32, 32, 16]
        assert log.initial_loss == initial
        assert log.final_loss == recorded_loss(model, demos)

    def test_frozen_bridge_extracts_each_training_row_once(self, vocab, monkeypatch):
        demos = collect_demos(ENV, TRAIN_DEMOS)
        _, events = record_bc_train(make_model(vocab), demos, monkeypatch)
        first = events.index(("step",))
        extracted = [event[1] for event in events if event[0] == "extract"]
        assert sum(extracted) == 112
        assert not any(event[0] == "extract" for event in events[first:])

    def test_frozen_bridge_extracts_only_before_the_first_step(self, vocab, monkeypatch):
        model = make_model(vocab)
        log, events = record_bc_train(model, collect_demos(ENV, TRAIN_DEMOS), monkeypatch)
        # the feature table, then the logged losses and the steps read it
        seen = kinds(events)
        assert re.fullmatch(r"(fe+)+l(ts)+l", seen) and seen.count("s") == len(log.losses)

    def test_step_graph_size_independent_of_batch(self, vocab, monkeypatch):
        demos = collect_demos(ENV, TRAIN_DEMOS)
        graphs = []

        def recorded(logits, targets):
            loss = cross_entropy(logits, targets)
            if loss.requires_grad:
                graphs.append((logits.shape[0], len(_topo_order(loss))))
            return loss

        monkeypatch.setattr("planact.policy.cross_entropy", recorded)
        bc_train(make_model(vocab), demos, seed=0, epochs=1)
        assert {b for b, _ in graphs} == {32, 16} and len({n for _, n in graphs}) == 1

    def test_logged_losses_record_no_graph(self, vocab, monkeypatch):
        demos = collect_demos(EnvConfig(), [0])

        def train(graph_on_logged):
            losses = []

            def recorded(*args, **kwargs):
                losses.append(cross_entropy(*args, **kwargs))
                return losses[-1]

            with monkeypatch.context() as patch:
                patch.setattr("planact.policy.cross_entropy", recorded)
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


def grounding_names(model):
    """The parameters ``pretrain_bridge`` trains, in registration order."""
    return [
        name for name in model.named_parameters()
        if name.startswith(("bridge.", "grid_vision.")) and not name.startswith("bridge.proj.")
    ]


def weights(model):
    return {name: p.data.tobytes() for name, p in model.named_parameters().items()}


class TestPretrainBridge:
    """Grounding pretraining trains the bridge side alone, then freezes it again."""

    def test_every_step_gives_the_bridge_side_gradients(self, vocab, monkeypatch):
        model = make_model(vocab)
        names = {id(p): name for name, p in model.named_parameters().items()}
        steps = []
        original = AdamW.step

        def recorded(optimizer, lr):
            steps.append([(names.get(id(p)), p.grad is not None) for p in optimizer.params])
            return original(optimizer, lr)

        monkeypatch.setattr(AdamW, "step", recorded)
        losses = pretrain_bridge(model, collect_demos(ENV, TRAIN_DEMOS))
        # 112 rows: four minibatches per pass; the last two parameters are the head's
        assert len(steps) == len(losses) == 4 * GROUNDING_EPOCHS
        expected = [(name, True) for name in grounding_names(model)] + [(None, True)] * 2
        assert all(step == expected for step in steps)

    def test_trains_then_freezes_the_bridge_side_alone(self, vocab, data):
        model = make_model(vocab)
        model.act(data[0][0], data[0][1])
        trainable = set(model.trainable_parameters())
        before = weights(model)
        pretrain_bridge(model, collect_demos(ENV, TRAIN_DEMOS))
        after = weights(model)
        trained = grounding_names(model)
        assert [name for name in trained if after[name] == before[name]] == []
        # global_enc, head and bridge.proj keep every byte
        assert {k: v for k, v in after.items() if k not in trained} == {
            k: v for k, v in before.items() if k not in trained
        }
        assert set(model.trainable_parameters()) == trainable
        assert model.plan_sides == {}

    def test_model_that_acted_matches_fresh_model_with_its_weights(self, vocab, data):
        obs, plan, _ = data[0]
        model = make_model(vocab)
        model.act(obs, plan)  # a kept plan side would now predate pretraining
        pretrain_bridge(model, collect_demos(ENV, TRAIN_DEMOS))
        fresh = make_model(vocab, seed=1)
        restore_into(
            fresh.named_parameters(), {k: v.data for k, v in model.named_parameters().items()}
        )
        rows = [(o, p) for o, p, _ in data]
        assert forward_rows(model, rows).data.tobytes() == forward_rows(fresh, rows).data.tobytes()

    def test_same_seeds_same_losses_and_weights(self, vocab):
        demos = collect_demos(ENV, TRAIN_DEMOS)
        model, twin = make_model(vocab), make_model(vocab)
        losses = pretrain_bridge(model, demos, seed=2)
        assert pretrain_bridge(twin, demos, seed=2) == losses
        assert weights(model) == weights(twin)
        assert pretrain_bridge(make_model(vocab), demos, seed=3) != losses

    def test_labels_are_the_named_objects_cells(self, vocab, monkeypatch):
        model = make_model(vocab)
        seen, targets = [], []
        features = model.instance_features

        def recorded_features(obs, plans):
            seen.append((obs, plans))
            return features(obs, plans)

        def recorded_loss(logits, target):
            targets.append(np.asarray(target))
            return cross_entropy(logits, target)

        monkeypatch.setattr(model, "instance_features", recorded_features)
        monkeypatch.setattr("planact.policy.cross_entropy", recorded_loss)
        demos = collect_demos(ENV, TRAIN_DEMOS)
        pretrain_bridge(model, demos)
        assert len(targets) == 2 * len(seen)
        named = set()
        for (obs, plans), rows, cols in zip(seen, targets[::2], targets[1::2]):
            for o, plan, r, c in zip(obs, plans, rows, cols):
                j = [plan_for(name) for name in OBJECT_NAMES].index(plan)
                assert j < ENV.object_count and o[j, r, c] == 1.0
                named.add(j)
        assert named == set(range(ENV.object_count))

    def test_demos_validated_first(self, vocab):
        demo = collect_demos(ENV, [0])[0]
        obs, plan, _ = demo.steps[0]
        demo.steps.insert(0, (obs, plan, 7))
        with pytest.raises(ValidationError, match="demonstration 0 holds an illegal action"):
            pretrain_bridge(make_model(vocab), [demo])
        with pytest.raises(ContractError, match="at least one demonstration"):
            pretrain_bridge(make_model(vocab), [])

    def test_ablated_model_rejected(self, vocab):
        with pytest.raises(ContractError, match="ablated model reads no plan"):
            pretrain_bridge(make_model(vocab, ablate_plan=True), collect_demos(ENV, [0]))


class TestTrainingRows:
    def test_rows_in_demo_order(self):
        demos = collect_demos(ENV, TRAIN_DEMOS)
        obs, plans, actions = _dataset_from_demos(demos, ENV)
        steps = [step for demo in demos for step in demo.steps]
        assert obs.shape == (8 * len(steps), *ENV.observation_shape)
        assert obs.dtype == np.float64 and actions.shape == (len(obs),)
        assert plans == [plan for _, plan, _ in steps for _ in range(8)]
        expected = [view for o, _, action in steps for view in symmetry_views(o, action)]
        assert obs.tobytes() == np.stack([o for o, _ in expected]).tobytes()
        assert actions.tolist() == [a for _, a in expected]
        # each step's eight views start with the step as recorded
        assert obs[::8].tobytes() == np.stack([o for o, _, _ in steps]).tobytes()
        assert actions[::8].tolist() == [a for _, _, a in steps]

    @pytest.mark.parametrize("pretrain", [False, True], ids=["frozen", "pretrained"])
    def test_logged_loss_reads_the_first_256_steps(self, vocab, pretrain):
        demos = collect_demos(EnvConfig(), list(range(40)))
        assert sum(len(demo.steps) for demo in demos) > 256

        def fresh():
            config = PolicyConfig(**SMALL)
            model = ControlModel(np.random.default_rng(0), EnvConfig(), vocab, config)
            if pretrain:
                pretrain_bridge(model, demos[:1])
            return model

        model = fresh()
        log = bc_train(model, demos, epochs=1)
        assert log.initial_loss == recorded_loss(fresh(), demos)
        assert log.final_loss == recorded_loss(model, demos)

    def test_integer_observations_train_as_floats(self, vocab):
        demos = collect_demos(ENV, TRAIN_DEMOS)
        as_int = collect_demos(ENV, TRAIN_DEMOS)
        for demo in as_int:
            demo.steps = [(obs.astype(np.int8), plan, a) for obs, plan, a in demo.steps]
        model = make_model(vocab)
        twin = make_model(vocab)
        assert pretrain_bridge(model, as_int) == pretrain_bridge(twin, demos)
        assert bc_train(model, as_int) == bc_train(twin, demos)
        for p, q in zip(model.parameters(), twin.parameters()):
            assert p.data.tobytes() == q.data.tobytes()


class TestDemoValidation:
    # bc_train validates every demo against the model's grid first
    def test_demo_without_steps_named(self, vocab):
        with pytest.raises(ValidationError, match="demonstration 0 did not succeed"):
            bc_train(make_model(vocab), [Demonstration(seed=0)])

    def test_illegal_action_named(self, vocab):
        demo = collect_demos(ENV, [0])[0]
        obs, plan, _ = demo.steps[0]
        demo.steps.insert(0, (obs, plan, 7))
        with pytest.raises(ValidationError, match="demonstration 0 holds an illegal action"):
            bc_train(make_model(vocab), [demo])

    def test_observation_shape_named(self, vocab):
        demo = collect_demos(ENV, [0])[0]
        demo.steps = [(obs[:, :7, :7], plan, action) for obs, plan, action in demo.steps]
        with pytest.raises(
            ValidationError,
            match=r"demonstration 0 holds an observation of shape \(4, 7, 7\), "
            r"expected \(4, 9, 9\)",
        ):
            bc_train(make_model(vocab), [demo])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_observation_named(self, vocab, bad):
        demo = collect_demos(ENV, [0])[0]
        obs, plan, action = demo.steps[1]
        broken = obs.copy()
        broken[0, 2, 3] = bad
        demo.steps[1] = (broken, plan, action)
        with pytest.raises(
            ValidationError, match="demonstration 0 holds a non-finite observation at step 1"
        ):
            bc_train(make_model(vocab), [demo])

    def test_no_demos_rejected(self, vocab):
        with pytest.raises(ContractError, match="at least one demonstration"):
            bc_train(make_model(vocab), [])


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
