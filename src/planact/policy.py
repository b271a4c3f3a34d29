"""Plan-conditioned control: instance features from the bridge fused with a pooled
convolutional context, trained by behavioral cloning on expert demonstrations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import BridgeConfig, QueryBridge
from .errors import ContractError, DimensionError
from .gridworld import (
    ACTIONS,
    Demonstration,
    EnvConfig,
    GoalGridEnv,
    expert_action_toward,
    plan_for,
    symmetry_views,
)
from .seeding import stable_seed
from .nn import Linear, Module, gelu, set_trainable
from .optim import AdamW, AdamWConfig, LrSchedule
from .tensor import Tensor, concat, cross_entropy, no_grad, take_rows, unfold_windows, zeros
from .vision import VisionConfig, VisualEncoder
from .vocab import Vocabulary


@dataclass
class PolicyConfig:
    global_dim: int = 32
    conv_channels: int = 16
    conv_depth: int = 4
    hidden_dim: int = 64
    bridge_dim: int = 64
    query_count: int = 8
    bridge_blocks: int = 2
    bridge_heads: int = 4
    ff_mult: int = 2
    train_bridge: bool = False
    augment_symmetry: bool = True
    bc_epochs: int = 40
    bc_batch: int = 32
    bc_peak_lr: float = 2e-3
    bc_warmup_ratio: float = 0.05

    def __post_init__(self):
        if self.bc_batch < 1:
            raise ContractError(f"bc_batch must be at least 1, got {self.bc_batch}")
        if self.conv_depth < 1:
            raise ContractError("conv_depth must be at least 1")


class GlobalEncoder(Module):
    """Stack of valid (padding-free) 3x3 convolutions with global average pooling.

    Depth sets the receptive field (2*depth+1 square); the default of four
    layers sees the whole default grid, so the pooled vector can summarise
    agent/object relations at any range.  Spatial extents must satisfy
    H, W >= 2*depth + 1.
    """

    def __init__(self, rng: np.random.Generator, channels: int, config: PolicyConfig):
        self.channels = channels
        widths = [channels] + [config.conv_channels] * (config.conv_depth - 1)
        self.convs = [
            Linear(rng, widths[i] * 9, widths[i + 1] if i + 1 < len(widths) else config.global_dim)
            for i in range(config.conv_depth)
        ]

    def __call__(self, obs: Tensor) -> Tensor:
        """Pooled context (B, global_dim) of observations (B, channels, H, W)."""
        if obs.ndim != 4 or obs.shape[1] != self.channels:
            raise DimensionError(
                f"observation shape {obs.shape} does not match (B, {self.channels}, H, W)"
            )
        x = obs
        for conv in self.convs[:-1]:
            b, _, h, w = x.shape
            x = gelu(conv(unfold_windows(x, 3)))
            x = x.reshape(b, h - 2, w - 2, -1).transpose(0, 3, 1, 2)
        return gelu(self.convs[-1](unfold_windows(x, 3))).mean(axis=1)


class PolicyHead(Module):
    """Fusion MLP with two hidden layers over [instance features, global context]."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hidden: int, n_actions: int):
        self.lin1 = Linear(rng, in_dim, hidden)
        self.lin2 = Linear(rng, hidden, hidden)
        self.lin3 = Linear(rng, hidden, n_actions)

    def __call__(self, x: Tensor) -> Tensor:
        return self.lin3(gelu(self.lin2(gelu(self.lin1(x)))))


class ControlModel(Module):
    """Closed-loop policy: plan text re-queries the observation for instance features."""

    def __init__(
        self,
        rng: np.random.Generator,
        env_config: EnvConfig,
        vocab: Vocabulary,
        config: PolicyConfig | None = None,
        ablate_plan: bool = False,
    ):
        config = config or PolicyConfig()
        if env_config.height != env_config.width:
            raise ContractError("control model expects a square grid")
        self.config = config
        self.env_config = env_config
        self.ablate_plan = ablate_plan
        self.vocab = vocab
        channels = env_config.object_count + 1
        # cell-level tokens with fixed 2-d position codes: attention selects cells
        # by content (which object sits there) while the position code carries
        # per-cell coordinates the policy head can decode directions from
        self.grid_vision = VisualEncoder(
            rng,
            VisionConfig(
                channels=channels,
                image_size=env_config.height,
                patch_size=1,
                dim=config.bridge_dim,
                blocks=1,
                heads=config.bridge_heads,
                ff_mult=config.ff_mult,
            ),
        )
        self.bridge = QueryBridge(
            rng,
            vocab_size=len(vocab),
            config=BridgeConfig(
                query_count=config.query_count,
                dim=config.bridge_dim,
                lm_dim=config.bridge_dim,
                blocks=config.bridge_blocks,
                heads=config.bridge_heads,
                ff_mult=config.ff_mult,
            ),
        )
        self.global_enc = GlobalEncoder(rng, channels, config)
        instance_dim = config.query_count * config.bridge_dim  # flattened query rows
        self.head = PolicyHead(
            rng, instance_dim + config.global_dim, config.hidden_dim, len(ACTIONS)
        )
        # the bridge's language-model projection is never read by the policy; the
        # whole bridge side trains only when train_bridge is set and the plan is
        # not ablated
        frozen = ("bridge.proj.",)
        if ablate_plan or not config.train_bridge:
            frozen = ("bridge.", "grid_vision.")
        set_trainable(
            {k: v for k, v in self.named_parameters().items() if k.startswith(frozen)}, False
        )

    def instance_features(self, obs: np.ndarray, plan_texts: list[str]) -> Tensor:
        """Bridge features (B, N, D) of observations (B, c, H, W) under one plan each."""
        tokens = self.grid_vision.encode_image(Tensor(obs))
        return self.bridge.instance_features(tokens, plan_texts, self.vocab)

    def policy_logits(self, z_instance: Tensor, z_global: Tensor) -> Tensor:
        """Head over the flattened N x D query rows (B, N * D) and the context (B, G)."""
        fused = concat([z_instance.reshape(z_instance.shape[0], -1), z_global], axis=-1)
        return self.head(fused)

    def forward(
        self, obs: np.ndarray, plan_texts: list[str | None], cache: dict | None = None
    ) -> Tensor:
        """Action logits (B x actions) for observations (B, c, H, W) and one plan each.

        Rows that are ablated or have no plan use zero instance features.  With
        a ``cache`` the bridge is treated as frozen: instance features are
        computed once per distinct (observation, plan) pair, the batch's misses
        in one ``instance_features`` call, and reused as constants.
        """
        obs = np.asarray(obs, dtype=np.float64)
        if obs.ndim != 4 or obs.shape[0] != len(plan_texts):
            raise DimensionError(
                f"{len(plan_texts)} plans for observations of shape {obs.shape}"
            )
        batch = obs.shape[0]
        features = (batch, self.config.query_count, self.config.bridge_dim)
        live = [] if self.ablate_plan else [i for i, p in enumerate(plan_texts) if p is not None]
        if not live:
            z_instance = zeros(*features)
        elif cache is None:
            z_instance = self.instance_features(obs[live], [plan_texts[i] for i in live])
            if len(live) < batch:
                index = np.full(batch, len(live))
                index[live] = np.arange(len(live))
                z_instance = take_rows(concat([z_instance, zeros(1, *features[1:])]), index)
        else:
            keys = [(obs[i].tobytes(), plan_texts[i]) for i in live]
            misses = {key: i for i, key in zip(live, keys) if key not in cache}
            if misses:
                rows = list(misses.values())
                computed = self.instance_features(obs[rows], [plan_texts[i] for i in rows])
                cache.update(zip(misses, map(Tensor, computed.data)))
            z = np.zeros(features)
            z[live] = [cache[key].data for key in keys]
            z_instance = Tensor(z)
        return self.policy_logits(z_instance, self.global_enc(Tensor(obs)))

    def act(self, obs: np.ndarray, plan_text: str | None) -> int:
        """Greedy action for one observation; records no autodiff graph."""
        with no_grad():
            return int(np.argmax(self.forward(obs[None], [plan_text]).data[0]))

    def trainable_parameters(self) -> dict[str, Tensor]:
        """Parameters that require grad; ``__init__`` freezes the rest."""
        return {k: v for k, v in self.named_parameters().items() if v.requires_grad}


@dataclass
class TrainLog:
    losses: list[float] = field(default_factory=list)
    initial_loss: float = math.nan
    final_loss: float = math.nan


def _dataset_from_demos(
    demos: list[Demonstration], augment: bool
) -> list[tuple[np.ndarray, str, int]]:
    data = []
    for demo in demos:
        for obs, plan, action in demo.steps:
            if augment:
                data.extend((o, plan, a) for o, a in symmetry_views(obs, action))
            else:
                data.append((obs, plan, action))
    return data


def _batch_loss(
    model: ControlModel,
    batch: list[tuple[np.ndarray, str, int]],
    cache: dict | None = None,
) -> Tensor:
    obs = np.stack([obs for obs, _, _ in batch])
    logits = model.forward(obs, [plan for _, plan, _ in batch], cache)
    return cross_entropy(logits, [action for _, _, action in batch])


def dataset_loss(
    model: ControlModel,
    demos: list[Demonstration],
    limit: int = 256,
    cache: dict | None = None,
) -> float:
    """Mean NLL of the unaugmented expert actions; ``cache`` as in ``ControlModel.forward``.

    Only the value is returned, so no autodiff graph is recorded.
    """
    data = _dataset_from_demos(demos, augment=False)[:limit]
    with no_grad():
        return _batch_loss(model, data, cache).item()


def bc_train(
    model: ControlModel,
    demos: list[Demonstration],
    seed: int = 0,
    epochs: int | None = None,
) -> TrainLog:
    """Minimise the negative log-likelihood of expert actions under the policy.

    Training triples are expanded over the grid's eight dihedral symmetries
    (exact invariances of the environment) when ``augment_symmetry`` is set.
    With the bridge frozen, instance features are computed once per distinct
    (observation, plan) pair and reused across epochs and by the logged
    initial and final losses.
    """
    if not demos:
        raise ContractError("behavioral cloning requires at least one demonstration")
    cfg = model.config
    data = _dataset_from_demos(demos, augment=cfg.augment_symmetry)
    rng = np.random.default_rng(seed)
    epochs = cfg.bc_epochs if epochs is None else epochs
    batches_per_epoch = max(1, math.ceil(len(data) / cfg.bc_batch))
    schedule = LrSchedule(
        peak_lr=cfg.bc_peak_lr,
        total_steps=epochs * batches_per_epoch,
        warmup_ratio=cfg.bc_warmup_ratio,
    )
    params = model.trainable_parameters()
    optimizer = AdamW(list(params.values()), AdamWConfig())
    cache = None if cfg.train_bridge else {}
    log = TrainLog()
    log.initial_loss = dataset_loss(model, demos, cache=cache)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(data))
        for b in range(batches_per_epoch):
            batch = [data[i] for i in order[b * cfg.bc_batch : (b + 1) * cfg.bc_batch]]
            if not batch:
                continue
            optimizer.zero_grad()
            loss = _batch_loss(model, batch, cache)
            loss.backward()
            optimizer.step(schedule.lr_at(step))
            step += 1
            log.losses.append(loss.item())
    log.final_loss = dataset_loss(model, demos, cache=cache)
    return log


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def evaluate_policy(
    policy_fn,
    env_config: EnvConfig,
    episodes: int = 100,
    base_seed: int = 10_000,
) -> dict:
    """Greedy rollouts on fresh episodes; pure function of (policy, seeds)."""
    per_seed = []
    successes = 0
    for i in range(episodes):
        seed = base_seed + i
        env = GoalGridEnv(env_config)
        obs, caption = env.reset(seed)
        plan_text = plan_for(env.target_name)
        done = False
        success = False
        while not done:
            action = policy_fn(env, obs, plan_text)
            obs, done, success = env.step(action)
        successes += int(success)
        per_seed.append({"seed": seed, "success": bool(success)})
    rate = successes / episodes
    low, high = wilson_interval(successes, episodes)
    return {
        "success_rate": rate,
        "wilson_low": low,
        "wilson_high": high,
        "per_seed": per_seed,
    }


def model_policy(model: ControlModel):
    def policy_fn(env: GoalGridEnv, obs: np.ndarray, plan_text: str) -> int:
        return model.act(obs, None if model.ablate_plan else plan_text)

    return policy_fn


def expert_policy():
    from .gridworld import scripted_expert

    def policy_fn(env: GoalGridEnv, obs: np.ndarray, plan_text: str) -> int:
        return scripted_expert(env)

    return policy_fn


def goal_chance_policy(seed: int = 0):
    """Perfect navigation toward a uniformly chosen object: the success rate of
    this policy measures the chance of guessing the designated goal."""

    def policy_fn(env: GoalGridEnv, obs: np.ndarray, plan_text: str) -> int:
        pick = stable_seed("goal-chance", seed, tuple(env.object_pos)) % len(env.object_pos)
        return expert_action_toward(env, env.object_pos[pick])

    return policy_fn
