"""Plan-conditioned control: instance features from the bridge fused with a pooled
convolutional context, trained by behavioral cloning on expert demonstrations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bridge import BridgeConfig, PlanSide, QueryBridge
from .errors import ContractError, DimensionError, NumericError
from .gridworld import (
    ACTIONS,
    INTERACT,
    Demonstration,
    EnvConfig,
    GoalGridEnv,
    expert_action_toward,
    plan_for,
    scripted_expert,
    symmetry_views,
)
from .seeding import stable_seed
from .nn import Linear, Module, gelu, set_trainable
from .optim import AdamW, LrSchedule
from .tensor import Tensor, concat, cross_entropy, no_grad, take_rows, unfold_windows, zeros
from .vision import VisualEncoder
from .vocab import Vocabulary, tokenize


@dataclass
class PolicyConfig:
    global_dim: int = 32
    conv_channels: int = 16
    conv_depth: int = 4
    hidden_dim: int = 64
    bridge_dim: int = 64
    query_count: int = 8
    train_bridge: bool = False
    # the ClassVars are constants, not settable fields
    bridge_heads: ClassVar[int] = 4
    ff_mult: ClassVar[int] = 2
    augment_symmetry: ClassVar[bool] = True  # bc_train always augments
    bc_batch: ClassVar[int] = 32
    bc_peak_lr: ClassVar[float] = 2e-3
    bc_warmup_ratio: ClassVar[float] = 0.05

    def __post_init__(self):
        for name in ("global_dim", "conv_channels", "conv_depth", "hidden_dim", "bridge_dim",
                     "query_count"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be at least 1, got {getattr(self, name)}")


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
        x = obs.transpose(0, 2, 3, 1)  # channels-last, as unfold_windows takes it
        for conv in self.convs[:-1]:
            b, h, w, _ = x.shape
            x = gelu(conv(unfold_windows(x, 3))).reshape(b, h - 2, w - 2, -1)
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
    """Closed-loop policy: plan text re-queries the observation for instance features.

    ``grid_vision`` turns each grid cell into a token, and the model owns the
    plan text: ``instance_features`` checks each plan, tokenizes it and
    groups the batch's rows by plan, so the bridge, which sees only ids,
    runs once per distinct plan.

    With the bridge frozen (``train_bridge`` off), ``plan_sides`` keeps each
    plan's bridge plan side for the model's whole life, shared by ``act``,
    ``dataset_loss`` and ``bc_train``; it is never invalidated, so weights
    are restored only into a freshly built model, never into one that has
    already run.
    """

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
        if env_config.height < 2 * config.conv_depth + 1:
            raise ContractError(
                f"a {env_config.height}x{env_config.width} grid is smaller than the "
                f"{2 * config.conv_depth + 1}x{2 * config.conv_depth + 1} receptive field "
                f"of {config.conv_depth} convolutions"
            )
        self.config = config
        self.env_config = env_config
        self.ablate_plan = ablate_plan
        self.vocab = vocab
        self.plan_sides: dict[str, PlanSide] = {}
        channels, _, _ = env_config.observation_shape
        # cell-level tokens with fixed 2-d position codes: attention selects cells
        # by content (which object sits there) while the position code carries
        # per-cell coordinates the policy head can decode directions from
        self.grid_vision = VisualEncoder(rng, channels, env_config.height, config.bridge_dim)
        self.bridge = QueryBridge(
            rng,
            vocab_size=len(vocab),
            config=BridgeConfig(
                query_count=config.query_count,
                dim=config.bridge_dim,
                lm_dim=config.bridge_dim,
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

    def instance_features(
        self, obs: np.ndarray, plan_texts: list[str], cache: dict | None = None
    ) -> Tensor:
        """Bridge features (B, N, D) of observations (B, c, H, W) under one plan each.

        An ablated model reads no plan and returns zeros.  Otherwise rows with
        the same plan share one ``extract`` call, and the rows keep their
        order.  With a ``cache`` the bridge is treated as frozen: features are
        computed once per distinct (observation, plan) pair, the misses
        grouped as above, and reused as constants.
        """
        if len(obs) == 0:
            raise ContractError("the batch is empty: the policy needs at least one observation")
        if len(obs) != len(plan_texts):
            raise DimensionError(
                f"{len(plan_texts)} plans for observations of shape {np.shape(obs)}"
            )
        if not all(isinstance(p, str) and p.strip() for p in plan_texts):
            raise ContractError("every plan must be a non-empty string")
        if self.ablate_plan:
            return zeros(len(obs), self.config.query_count, self.config.bridge_dim)
        if cache is None:
            return self._extract_by_plan(obs, plan_texts)
        keys = [(o.tobytes(), p) for o, p in zip(obs, plan_texts)]
        misses = {key: i for i, key in enumerate(keys) if key not in cache}
        if misses:
            rows = list(misses.values())
            computed = self._extract_by_plan(obs[rows], [plan_texts[i] for i in rows])
            cache.update(zip(misses, map(Tensor, computed.data)))
        return Tensor(np.stack([cache[key].data for key in keys]))

    def _extract_by_plan(self, obs: np.ndarray, plan_texts: list[str]) -> Tensor:
        """One ``plan_side`` (unless kept) and one ``extract`` per distinct plan."""
        tokens = self.grid_vision.encode_image(Tensor(obs))
        rows_by_plan: dict[str, list[int]] = {}
        for i, plan_text in enumerate(plan_texts):
            rows_by_plan.setdefault(plan_text, []).append(i)
        sides = {} if self.config.train_bridge else self.plan_sides
        for plan_text in rows_by_plan:
            if plan_text not in sides:
                sides[plan_text] = self.bridge.plan_side(tokenize(plan_text, self.vocab))
        if len(rows_by_plan) == 1:
            return self.bridge.extract(tokens, sides[plan_texts[0]])
        parts, order = [], []
        for plan_text, rows in rows_by_plan.items():
            parts.append(self.bridge.extract(tokens[rows], sides[plan_text]))
            order += rows
        return take_rows(concat(parts, axis=0), np.argsort(order))

    def policy_logits(self, z_instance: Tensor, z_global: Tensor) -> Tensor:
        """Head over the flattened N x D query rows (B, N * D) and the context (B, G)."""
        fused = concat([z_instance.reshape(z_instance.shape[0], -1), z_global], axis=-1)
        return self.head(fused)

    def forward(
        self, obs: np.ndarray, plan_texts: list[str], cache: dict | None = None
    ) -> Tensor:
        """Action logits (B x actions) for observations (B, c, H, W) and one plan each.

        ``cache`` is as in ``instance_features``.
        """
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape[1:] != self.env_config.observation_shape:
            raise DimensionError(
                f"observations of shape {obs.shape} do not match "
                f"(B, {', '.join(map(str, self.env_config.observation_shape))})"
            )
        finite = np.isfinite(obs).all(axis=(1, 2, 3))
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NumericError(f"observation row {bad} holds a non-finite value")
        z_instance = self.instance_features(obs, plan_texts, cache)
        return self.policy_logits(z_instance, self.global_enc(Tensor(obs)))

    def act(self, obs: np.ndarray, plan_text: str) -> int:
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
    demos: list[Demonstration], env_config: EnvConfig, augment: bool
) -> list[tuple[np.ndarray, str, int]]:
    """Training triples of ``demos``, each validated against ``env_config`` first."""
    if not demos:
        raise ContractError("behavioral cloning requires at least one demonstration")
    data = []
    for demo in demos:
        demo.validate(env_config)
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
    model: ControlModel, demos: list[Demonstration], cache: dict | None = None
) -> float:
    """Mean NLL of the first 256 unaugmented expert actions; ``cache`` as in ``forward``.

    Only the value is returned, so no autodiff graph is recorded.
    """
    data = _dataset_from_demos(demos, model.env_config, augment=False)[:256]
    with no_grad():
        return _batch_loss(model, data, cache).item()


def bc_train(
    model: ControlModel,
    demos: list[Demonstration],
    seed: int = 0,
    epochs: int = 40,
) -> TrainLog:
    """Minimise the negative log-likelihood of expert actions under the policy.

    Training triples are always expanded over the grid's eight dihedral
    symmetries (exact invariances of the environment; see
    ``PolicyConfig.augment_symmetry``).
    With the bridge frozen, instance features are computed once per distinct
    (observation, plan) pair and reused across epochs and by the logged
    initial and final losses.
    """
    cfg = model.config
    data = _dataset_from_demos(demos, model.env_config, augment=cfg.augment_symmetry)
    rng = np.random.default_rng(seed)
    batches_per_epoch = math.ceil(len(data) / cfg.bc_batch)
    schedule = LrSchedule(
        peak_lr=cfg.bc_peak_lr,
        total_steps=epochs * batches_per_epoch,
        warmup_ratio=cfg.bc_warmup_ratio,
    )
    params = model.trainable_parameters()
    optimizer = AdamW(list(params.values()))
    cache = None if cfg.train_bridge else {}
    log = TrainLog()
    log.initial_loss = dataset_loss(model, demos, cache=cache)
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(data))
        for b in range(batches_per_epoch):
            batch = [data[i] for i in order[b * cfg.bc_batch : (b + 1) * cfg.bc_batch]]
            optimizer.zero_grad()
            loss = _batch_loss(model, batch, cache)
            loss.backward()
            optimizer.step(schedule.lr_at(step))
            step += 1
            log.losses.append(loss.item())
    log.final_loss = dataset_loss(model, demos, cache=cache)
    return log


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    z = 1.96  # 95% two-sided
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
    """Greedy rollouts on fresh episodes; pure function of (policy, seeds).

    Each ``per_seed`` entry records the episode's seed, ``success`` and the
    ``cause`` of a failure, the first that holds of:

    - ``None``: the agent interacted on the target's cell (success);
    - ``"wrong_object"``: the agent interacted on another object's cell at
      least once;
    - ``"oscillation"``: in the last four steps the agent moved back and forth
      between two cells (its positions after them read a, b, a, b);
    - ``"step_limit"``: any other run out of steps.

    An episode ends only on success or at the step limit, so every failure
    reached the step limit.
    """
    if episodes < 1:
        raise ContractError(f"evaluation needs at least one episode, got {episodes}")
    per_seed = []
    successes = 0
    for i in range(episodes):
        seed = base_seed + i
        env = GoalGridEnv(env_config)
        obs, caption = env.reset(seed)
        plan_text = plan_for(env.target_name)
        others = [pos for j, pos in enumerate(env.object_pos) if j != env.target_idx]
        done = False
        success = False
        wrong_object = False
        positions = []
        while not done:
            action = policy_fn(env, obs, plan_text)
            if action == INTERACT and env.agent_pos in others:
                wrong_object = True
            obs, done, success = env.step(action)
            positions.append(env.agent_pos)
        successes += int(success)
        per_seed.append(
            {"seed": seed, "success": bool(success),
             "cause": _failure_cause(success, wrong_object, positions[-4:])}
        )
    rate = successes / episodes
    low, high = wilson_interval(successes, episodes)
    return {
        "success_rate": rate,
        "wilson_low": low,
        "wilson_high": high,
        "per_seed": per_seed,
    }


def _failure_cause(success: bool, wrong_object: bool, last4: list) -> str | None:
    if success:
        return None
    if wrong_object:
        return "wrong_object"
    if len(last4) == 4 and last4[0] == last4[2] != last4[1] == last4[3]:
        return "oscillation"
    return "step_limit"


def model_policy(model: ControlModel):
    def policy_fn(env: GoalGridEnv, obs: np.ndarray, plan_text: str) -> int:
        return model.act(obs, plan_text)

    return policy_fn


def expert_policy():
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
