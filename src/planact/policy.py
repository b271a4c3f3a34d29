"""Plan-conditioned control: instance features from the bridge fused with a pooled
convolutional context, trained by behavioral cloning on expert demonstrations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .bridge import BridgeConfig, PlanSide, QueryBridge
from .errors import ContractError, DimensionError, NumericError, require_int
from .gridworld import (
    ACTIONS,
    INTERACT,
    OBJECT_NAMES,
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
    # the ClassVars are constants, not settable fields
    bridge_heads: ClassVar[int] = 4
    ff_mult: ClassVar[int] = 2
    # bc_train always augments and no code in src/ branches on this; it stays
    # because the benchmark reads it
    augment_symmetry: ClassVar[bool] = True
    bc_batch: ClassVar[int] = 32
    bc_peak_lr: ClassVar[float] = 2e-3
    bc_warmup_ratio: ClassVar[float] = 0.05

    def __post_init__(self):
        for name in ("global_dim", "conv_channels", "conv_depth", "hidden_dim", "bridge_dim",
                     "query_count"):
            require_int(name, getattr(self, name), least=1)


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

    def __call__(self, obs: np.ndarray) -> Tensor:
        """Pooled context (B, global_dim) of observations (B, channels, H, W)."""
        if isinstance(obs, Tensor):
            raise ContractError("the global encoder takes the observation array, not a Tensor")
        if obs.ndim != 4 or obs.shape[1] != self.channels:
            raise DimensionError(
                f"observation shape {obs.shape} does not match (B, {self.channels}, H, W)"
            )
        x = Tensor(obs.transpose(0, 2, 3, 1))  # channels-last, as unfold_windows takes it
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

    ``grid_vision`` and ``bridge`` are frozen at construction.  A bridge that
    was not pretrained carries no plan, so call ``pretrain_bridge`` before
    ``bc_train``; it trains both on grounding and freezes them again.
    ``plan_sides`` keeps each plan's bridge plan side, so ``act`` runs it
    once per plan, not once per decision.  Only ``pretrain_bridge`` clears
    it, so weights are restored only into a freshly built model, never into
    one that has already run.
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
        side = env_config.side
        if side < 2 * config.conv_depth + 1:
            raise ContractError(
                f"a {side}x{side} grid is smaller than the "
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
        self.grid_vision = VisualEncoder(rng, channels, side, config.bridge_dim)
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
        # only pretrain_bridge trains the bridge side
        set_trainable(
            {k: v for k, v in self.named_parameters().items()
             if k.startswith(("bridge.", "grid_vision."))},
            False,
        )

    def instance_features(self, obs: np.ndarray, plan_texts: list[str]) -> Tensor:
        """Bridge features (B, N, D) of observations (B, c, H, W) under one plan each.

        An ablated model reads no plan and returns zeros.  Otherwise rows with
        the same plan share one ``plan_side``, kept in ``plan_sides``, and one
        ``extract`` call, and the rows keep their order.
        """
        if isinstance(plan_texts, str):
            raise ContractError("plan_texts must be a list of plans, one per row, not one string")
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
        tokens = self.grid_vision.encode_image(obs)
        rows_by_plan: dict[str, list[int]] = {}
        for i, plan_text in enumerate(plan_texts):
            rows_by_plan.setdefault(plan_text, []).append(i)
        sides = self.plan_sides
        for plan_text in rows_by_plan:
            if plan_text not in sides:
                sides[plan_text] = self.bridge.plan_side(tokenize(plan_text, self.vocab))
        if len(rows_by_plan) == 1:
            return self.bridge.extract(tokens, sides[plan_texts[0]])
        parts, order = [], []
        for plan_text, rows in rows_by_plan.items():
            parts.append(self.bridge.extract(take_rows(tokens, rows), sides[plan_text]))
            order += rows
        return take_rows(concat(parts, axis=0), np.argsort(order))

    def policy_logits(self, z_instance: Tensor, z_global: Tensor) -> Tensor:
        """Head over the flattened N x D query rows (B, N * D) and the context (B, G)."""
        fused = concat([z_instance.reshape(z_instance.shape[0], -1), z_global], axis=-1)
        return self.head(fused)

    def forward(self, obs: np.ndarray, plan_texts: list[str]) -> Tensor:
        """Action logits (B x actions) for observations (B, c, H, W) and one plan each."""
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
        z_instance = self.instance_features(obs, plan_texts)
        return self.policy_logits(z_instance, self.global_enc(obs))

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
    demos: list[Demonstration], env_config: EnvConfig
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Observations (N, c, H, W), plans and actions (N,) of ``demos``, each
    validated against ``env_config`` first.  Each step gives its eight
    ``symmetry_views``, the step as recorded first, so rows 0, 8, 16, ... are
    the recorded steps in order."""
    if not demos:
        raise ContractError("training needs at least one demonstration")
    obs, plans, actions = [], [], []
    for demo in demos:
        demo.validate(env_config)
        for o, plan, action in demo.steps:
            for view, a in symmetry_views(o, action):
                obs.append(view)
                plans.append(plan)
                actions.append(a)
    return np.stack(obs).astype(np.float64, copy=False), plans, np.asarray(actions)


# passes of pretrain_bridge over the augmented rows: 1,086 steps on 200 demos;
# at two passes (724 steps) grounding had not converged on one gate seed in six
GROUNDING_EPOCHS = 3


def _fit(params: list[Tensor], n_rows: int, epochs: int, rng: np.random.Generator,
         loss_of) -> list[float]:
    """Minimise ``loss_of(rows)`` with AdamW over ``params``: each epoch visits the
    ``n_rows`` rows in ``rng.permutation`` order, in ``bc_batch``-row minibatches,
    under the warmup-plus-cosine schedule peaking at ``bc_peak_lr``.  Returns
    the per-step losses."""
    batch = PolicyConfig.bc_batch
    batches_per_epoch = math.ceil(n_rows / batch)
    schedule = LrSchedule(
        peak_lr=PolicyConfig.bc_peak_lr,
        total_steps=epochs * batches_per_epoch,
        warmup_ratio=PolicyConfig.bc_warmup_ratio,
    )
    optimizer = AdamW(params)
    losses: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(n_rows)
        for b in range(batches_per_epoch):
            optimizer.zero_grad()
            loss = loss_of(order[b * batch : (b + 1) * batch])
            loss.backward()
            optimizer.step(schedule.lr_at(len(losses)))
            losses.append(loss.item())
    return losses


def pretrain_bridge(model: ControlModel, demos: list[Demonstration], seed: int = 0) -> list[float]:
    """Train ``grid_vision`` and the bridge (not ``bridge.proj``) to ground plans,
    then freeze them again; returns the per-step losses.

    Each augmented training row of ``demos`` is paired with one object ``j``
    drawn uniformly from the grid's objects and with ``plan_for`` of its name.
    A local linear head reads the row's flattened instance features and
    predicts object ``j``'s cell, read from channel ``j``, as a row and a
    column; the loss is the cross-entropy of each.  The episode's target is
    never read.  The head is dropped afterwards.  The steps run
    ``GROUNDING_EPOCHS`` passes over the rows.  ``plan_sides`` is cleared
    before each step, so that each step builds its plan sides under the
    current weights, and again after the last step.
    """
    if model.ablate_plan:
        raise ContractError("an ablated model reads no plan, so its bridge cannot be pretrained")
    require_int("seed", seed, least=0)
    cfg, side = model.config, model.env_config.side
    obs, _, _ = _dataset_from_demos(demos, model.env_config)
    rng = np.random.default_rng(seed)
    head = Linear(rng, cfg.query_count * cfg.bridge_dim, 2 * side)
    objects = rng.integers(model.env_config.object_count, size=len(obs))
    cells = obs[np.arange(len(obs)), objects].reshape(len(obs), -1).argmax(axis=1)
    cell_rows, cell_cols = np.divmod(cells, side)
    plans = [plan_for(OBJECT_NAMES[j]) for j in objects]
    trained = {k: v for k, v in model.named_parameters().items()
               if k.startswith(("bridge.", "grid_vision.")) and not k.startswith("bridge.proj.")}
    set_trainable(trained, True)

    def loss_of(rows: np.ndarray) -> Tensor:
        model.plan_sides.clear()
        z = model.instance_features(obs[rows], [plans[i] for i in rows])
        logits = head(z.reshape(len(rows), -1))
        return (cross_entropy(logits[:, :side], cell_rows[rows])
                + cross_entropy(logits[:, side:], cell_cols[rows]))

    losses = _fit([*trained.values(), *head.parameters()], len(obs), GROUNDING_EPOCHS, rng,
                  loss_of)
    model.plan_sides.clear()
    set_trainable(trained, False)
    return losses


def bc_train(
    model: ControlModel,
    demos: list[Demonstration],
    seed: int = 0,
    epochs: int = 40,
) -> TrainLog:
    """Minimise the negative log-likelihood of expert actions under the policy.

    Only ``global_enc`` and ``head`` train.  A bridge that was not pretrained
    carries no plan, so call ``pretrain_bridge`` first; without it the policy
    does no better than guessing the goal.  Training triples are always
    expanded over the grid's eight dihedral symmetries (exact invariances of
    the environment).  The frozen bridge's instance features are constants:
    they are computed once per training row, in ``bc_batch`` chunks in data
    order, before the first step, and each step indexes them by row.  The
    initial and final logged losses are the mean NLL of the first 256
    recorded (unaugmented) steps, through the same loss as the steps, with
    no autodiff graph.
    """
    require_int("seed", seed, least=0)
    require_int("epochs", epochs, least=1)
    cfg = model.config
    obs, plans, actions = _dataset_from_demos(demos, model.env_config)
    chunks = [slice(i, i + cfg.bc_batch) for i in range(0, len(obs), cfg.bc_batch)]
    with no_grad():
        features = np.concatenate(
            [model.instance_features(obs[c], plans[c]).data for c in chunks]
        )

    def loss_of(rows: np.ndarray) -> Tensor:
        return cross_entropy(
            model.policy_logits(Tensor(features[rows]), model.global_enc(obs[rows])),
            actions[rows],
        )

    logged = np.arange(0, len(obs), 8)[:256]  # the recorded steps (see _dataset_from_demos)
    log = TrainLog()
    with no_grad():
        log.initial_loss = loss_of(logged).item()
    log.losses = _fit(list(model.trainable_parameters().values()), len(obs), epochs,
                      np.random.default_rng(seed), loss_of)
    with no_grad():
        log.final_loss = loss_of(logged).item()
    return log


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    require_int("successes", successes)
    require_int("n", n)
    if not 0 <= successes <= n:
        raise ContractError(f"need 0 <= successes <= n, got successes={successes}, n={n}")
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
    require_int("episodes", episodes, least=1)
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
