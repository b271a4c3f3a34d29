"""Goal-conditioned gridworld with a privileged shortest-path expert.

Each episode places G typed objects and the agent on distinct cells of an open
grid and designates one object as the target.  The observation encodes object
types and the agent position but never which object is the target; that
information lives only in the task caption and plan text, so a policy must
read the plan to disambiguate.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write_bytes, atomic_write_text, read_jsonl
from .errors import ConfigError, ContractError, IngestError, ValidationError
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
        if self.object_count < 1 or self.object_count > len(OBJECT_NAMES):
            raise ConfigError(
                f"object_count must lie in [1, {len(OBJECT_NAMES)}], got {self.object_count}"
            )
        if self.height * self.width < self.object_count + 1:
            raise ConfigError(
                f"grid {self.height}x{self.width} cannot hold {self.object_count} objects "
                "plus the agent"
            )
        if self.step_limit < 1:
            raise ConfigError("step_limit must be positive")


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
        return OBJECT_NAMES[self.target_idx]

    def observation(self) -> np.ndarray:
        cfg = self.config
        obs = np.zeros((cfg.object_count + 1, cfg.height, cfg.width))
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
    o, a = obs, action
    for flip in (False, True):
        o = flip_observation(obs) if flip else obs
        a = FLIPPED_ACTION[action] if flip else action
        yield o, a
        for _ in range(3):
            o, a = rotate_observation(o), ROTATED_ACTION[a]
            yield o, a


def bfs_distances(env: GoalGridEnv, goal: tuple[int, int]) -> np.ndarray:
    """Breadth-first distance-to-goal field over the open grid."""
    cfg = env.config
    dist = np.full((cfg.height, cfg.width), -1, dtype=np.int64)
    dist[goal] = 0
    queue = deque([goal])
    while queue:
        r, c = queue.popleft()
        for dr, dc in _MOVES.values():
            nr, nc = r + dr, c + dc
            if 0 <= nr < cfg.height and 0 <= nc < cfg.width and dist[nr, nc] < 0:
                dist[nr, nc] = dist[r, c] + 1
                queue.append((nr, nc))
    return dist


def expert_action_toward(env: GoalGridEnv, goal: tuple[int, int]) -> int:
    """Shortest-path move toward ``goal`` (tie-break up<down<left<right), interact on arrival."""
    if env.agent_pos == goal:
        return INTERACT
    dist = bfs_distances(env, goal)
    if dist[env.agent_pos] < 0:
        raise ContractError("target unreachable from agent position")
    for action in range(4):
        dr, dc = _MOVES[action]
        nr = min(max(env.agent_pos[0] + dr, 0), env.config.height - 1)
        nc = min(max(env.agent_pos[1] + dc, 0), env.config.width - 1)
        if dist[nr, nc] < dist[env.agent_pos]:
            return action
    raise ContractError("no distance-decreasing move exists")  # pragma: no cover


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
        if len(self.steps) > config.step_limit:
            raise ValidationError(f"demonstration {self.seed} exceeds the step limit")
        if self.steps[-1][2] != INTERACT:
            raise ValidationError(f"demonstration {self.seed} does not end with interact")
        for _, plan, action in self.steps:
            if action not in range(len(ACTIONS)):
                raise ValidationError(f"demonstration {self.seed} holds an illegal action")
            if not plan.strip():
                raise ValidationError(f"demonstration {self.seed} holds an empty plan")


def collect_demos(
    config: EnvConfig, seeds: list[int], plan_fn=plan_for
) -> list[Demonstration]:
    """One successful expert episode per seed, stored as (observation, plan, action) triples."""
    demos = []
    for seed in seeds:
        env = GoalGridEnv(config)
        obs, _ = env.reset(seed)
        plan_text = plan_fn(env.target_name)
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


def save_demos(prefix: Path, demos: list[Demonstration]) -> None:
    """JSON lines with observation indices into a sibling float64 blob."""
    prefix = Path(prefix)
    lines = []
    blob = bytearray()
    obs_index = 0
    for demo in demos:
        steps = []
        for obs, plan, action in demo.steps:
            blob.extend(np.ascontiguousarray(obs, dtype="<f8").tobytes())
            steps.append({"obs_ref": obs_index, "plan": plan, "action": action})
            obs_index += 1
        lines.append(json.dumps({"seed": demo.seed, "steps": steps}))
    atomic_write_text(prefix.with_suffix(".jsonl"), "\n".join(lines) + "\n")
    atomic_write_bytes(prefix.with_suffix(".bin"), bytes(blob))


def load_demos(prefix: Path, config: EnvConfig) -> list[Demonstration]:
    """Read what ``save_demos`` wrote; a malformed line, a blob or an ``obs_ref``
    that does not fit raises."""
    prefix = Path(prefix)
    bin_path, jsonl_path = prefix.with_suffix(".bin"), prefix.with_suffix(".jsonl")
    obs_shape = (config.object_count + 1, config.height, config.width)
    obs_bytes = 8 * int(np.prod(obs_shape))
    raw = bin_path.read_bytes()
    if len(raw) % obs_bytes:
        raise ValidationError(
            f"{bin_path}: {len(raw)} bytes is not a whole number of {obs_shape} "
            f"float64 observations ({obs_bytes} bytes each)"
        )
    blob = np.frombuffer(raw, dtype="<f8").reshape(-1, *obs_shape)
    demos = []
    for lineno, row in read_jsonl(jsonl_path, {"seed": int, "steps": list}):
        steps = []
        for i, step in enumerate(row["steps"]):
            if not (
                isinstance(step, dict)
                and "obs_ref" in step
                and isinstance(step.get("plan"), str)
                and type(step.get("action")) is int
            ):
                raise IngestError(
                    f"{jsonl_path}:{lineno}: step {i} needs an obs_ref, a plan string and "
                    f"an integer action"
                )
            ref = step["obs_ref"]
            if type(ref) is not int or not 0 <= ref < len(blob):
                raise ValidationError(
                    f"{jsonl_path}: demo seed {row['seed']} step {i}: obs_ref {ref!r} is not "
                    f"one of the {len(blob)} observations in {bin_path}"
                )
            steps.append((blob[ref].copy(), step["plan"], step["action"]))
        demo = Demonstration(seed=int(row["seed"]), steps=steps, success=True)
        demo.validate(config)
        demos.append(demo)
    return demos
