"""Goal-conditioned gridworld with a privileged shortest-path expert.

Each episode places G typed objects and the agent on distinct cells of an open
grid and designates one object as the target.  The observation encodes object
types and the agent position but never which object is the target; that
information lives only in the task caption and plan text, so a policy must
read the plan to disambiguate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ValidationError
from .plans import PlanDocument, PlanStep, render_plan

ACTIONS = ("up", "down", "left", "right", "interact")
INTERACT = 4
_MOVES = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}

OBJECT_NAMES = ("red block", "blue ball", "green key", "yellow cone", "purple ring")


@dataclass
class EnvConfig:
    height: int = 9
    width: int = 9
    object_count: int = 3
    step_limit: int = 50

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ContractError(
                f"grid height and width must be at least 1, got {self.height}x{self.width}"
            )
        if self.object_count < 1 or self.object_count > len(OBJECT_NAMES):
            raise ContractError(
                f"object_count must lie in [1, {len(OBJECT_NAMES)}], got {self.object_count}"
            )
        if self.height * self.width < self.object_count + 1:
            raise ContractError(
                f"grid {self.height}x{self.width} cannot hold {self.object_count} objects "
                "plus the agent"
            )
        if self.step_limit < 1:
            raise ContractError("step_limit must be positive")

    @property
    def observation_shape(self) -> tuple[int, int, int]:
        """(channels, H, W): one channel per object, then the agent's."""
        return (self.object_count + 1, self.height, self.width)


def caption_for(target_name: str) -> str:
    return f"go to the {target_name} and activate it"


def plan_for(target_name: str) -> str:
    """Canonical rendered plan disambiguating the episode's target."""
    doc = PlanDocument(
        task=caption_for(target_name),
        plan=f"walk over to the {target_name} and activate it with the actuator",
        actions=[PlanStep(1, "go to", [target_name]), PlanStep(2, "activate", [target_name])],
    )
    return render_plan(doc)


class GoalGridEnv:
    def __init__(self, config: EnvConfig | None = None):
        self.config = config or EnvConfig()
        self._active = False

    def reset(self, seed: int) -> tuple[np.ndarray, str]:
        cfg = self.config
        rng = np.random.default_rng(seed)
        cells = rng.permutation(cfg.height * cfg.width)[: cfg.object_count + 1]
        coords = [(int(c) // cfg.width, int(c) % cfg.width) for c in cells]
        self.object_pos = coords[: cfg.object_count]
        self.agent_pos = coords[cfg.object_count]
        self.target_idx = int(rng.integers(cfg.object_count))
        self.steps = 0
        self.done = False
        self._active = True
        return self.observation(), caption_for(OBJECT_NAMES[self.target_idx])

    @property
    def target_name(self) -> str:
        if not self._active:
            raise ContractError("target_name read before reset")
        return OBJECT_NAMES[self.target_idx]

    def observation(self) -> np.ndarray:
        if not self._active:
            raise ContractError("observation read before reset")
        cfg = self.config
        obs = np.zeros(cfg.observation_shape)
        for i, (r, c) in enumerate(self.object_pos):
            obs[i, r, c] = 1.0
        obs[cfg.object_count, self.agent_pos[0], self.agent_pos[1]] = 1.0
        return obs

    def step(self, action: int) -> tuple[np.ndarray, bool, bool]:
        if not self._active or self.done:
            raise ContractError("step called on an inactive episode")
        if action not in range(len(ACTIONS)):
            raise ContractError(f"action {action} outside the discrete space")
        cfg = self.config
        success = False
        if action == INTERACT:
            success = self.agent_pos == self.object_pos[self.target_idx]
        else:
            dr, dc = _MOVES[action]
            r = min(max(self.agent_pos[0] + dr, 0), cfg.height - 1)
            c = min(max(self.agent_pos[1] + dc, 0), cfg.width - 1)
            self.agent_pos = (r, c)
        self.steps += 1
        self.done = success or self.steps >= cfg.step_limit
        return self.observation(), self.done, success


# dihedral symmetry of the square grid: rotations remap observations and the
# four move actions consistently; interact is invariant
ROTATED_ACTION = {0: 2, 1: 3, 2: 1, 3: 0, 4: 4}
FLIPPED_ACTION = {0: 0, 1: 1, 2: 3, 3: 2, 4: 4}


def rotate_observation(obs: np.ndarray) -> np.ndarray:
    return np.rot90(obs, axes=(1, 2)).copy()


def flip_observation(obs: np.ndarray) -> np.ndarray:
    return obs[:, :, ::-1].copy()


def symmetry_views(obs: np.ndarray, action: int):
    """All eight dihedral views of a transition; object identities are unchanged."""
    for flip in (False, True):
        o = flip_observation(obs) if flip else obs
        a = FLIPPED_ACTION[action] if flip else action
        yield o, a
        for _ in range(3):
            o, a = rotate_observation(o), ROTATED_ACTION[a]
            yield o, a


def expert_action_toward(env: GoalGridEnv, goal: tuple[int, int]) -> int:
    """Shortest-path move toward ``goal`` (tie-break up<down<left<right), interact on arrival.

    The grid has no walls, so every move that shortens the Manhattan distance
    lies on a shortest path.
    """
    (r, c), (goal_r, goal_c) = env.agent_pos, goal
    if goal_r != r:
        return 0 if goal_r < r else 1
    if goal_c != c:
        return 2 if goal_c < c else 3
    return INTERACT


def scripted_expert(env: GoalGridEnv) -> int:
    """Expert move toward the designated target."""
    return expert_action_toward(env, env.object_pos[env.target_idx])


@dataclass
class Demonstration:
    seed: int
    steps: list[tuple[np.ndarray, str, int]] = field(default_factory=list)
    success: bool = False

    def validate(self, config: EnvConfig) -> None:
        if not self.success:
            raise ValidationError(f"demonstration {self.seed} did not succeed")
        if not self.steps:
            raise ValidationError(f"demonstration {self.seed} has no steps")
        if len(self.steps) > config.step_limit:
            raise ValidationError(f"demonstration {self.seed} exceeds the step limit")
        if self.steps[-1][2] != INTERACT:
            raise ValidationError(f"demonstration {self.seed} does not end with interact")
        for i, (obs, plan, action) in enumerate(self.steps):
            if np.shape(obs) != config.observation_shape:
                raise ValidationError(
                    f"demonstration {self.seed} holds an observation of shape "
                    f"{np.shape(obs)}, expected {config.observation_shape}"
                )
            if not np.isfinite(obs).all():
                raise ValidationError(
                    f"demonstration {self.seed} holds a non-finite observation at step {i}"
                )
            if action not in range(len(ACTIONS)):
                raise ValidationError(f"demonstration {self.seed} holds an illegal action")
            if not plan.strip():
                raise ValidationError(f"demonstration {self.seed} holds an empty plan")


def collect_demos(config: EnvConfig, seeds: list[int]) -> list[Demonstration]:
    """One successful expert episode per seed, stored as (observation, plan, action) triples."""
    demos = []
    for seed in seeds:
        env = GoalGridEnv(config)
        obs, _ = env.reset(seed)
        plan_text = plan_for(env.target_name)
        demo = Demonstration(seed=seed)
        done = False
        while not done:
            action = scripted_expert(env)
            demo.steps.append((obs, plan_text, action))
            obs, done, success = env.step(action)
        demo.success = success
        demo.validate(config)
        demos.append(demo)
    return demos

