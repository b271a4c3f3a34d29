import numpy as np
import pytest

from planact.errors import ContractError, ValidationError
from planact.gridworld import (
    ACTIONS,
    INTERACT,
    Demonstration,
    EnvConfig,
    GoalGridEnv,
    caption_for,
    collect_demos,
    scripted_expert,
    symmetry_views,
)
from planact.plans import parse_plan


class TestEnv:
    def test_same_seed_same_layout_and_caption(self):
        env1, env2 = GoalGridEnv(), GoalGridEnv()
        obs1, cap1 = env1.reset(42)
        obs2, cap2 = env2.reset(42)
        assert cap1 == cap2
        np.testing.assert_array_equal(obs1, obs2)
        assert env1.target_idx == env2.target_idx

    def test_observation_structure(self):
        env = GoalGridEnv(EnvConfig(object_count=3))
        obs, _ = env.reset(0)
        assert obs.shape == env.config.observation_shape == (4, 9, 9)
        assert set(np.unique(obs)) <= {0.0, 1.0}
        assert obs[3].sum() == 1.0  # exactly one agent cell
        assert obs[:3].sum() == 3.0  # one cell per object

    def test_observation_shape_of_a_smaller_grid(self):
        env = GoalGridEnv(EnvConfig(side=5, object_count=2))
        obs, _ = env.reset(0)
        assert obs.shape == env.config.observation_shape == (3, 5, 5)

    def test_observation_does_not_reveal_target(self):
        # identical layout with a different designated target must look identical
        env_a, env_b = GoalGridEnv(), GoalGridEnv()
        obs_a, _ = env_a.reset(3)
        env_b.reset(3)
        env_b.target_idx = (env_a.target_idx + 1) % env_a.config.object_count
        np.testing.assert_array_equal(obs_a, env_b.observation())

    def test_single_object_caption_disambiguates(self):
        env = GoalGridEnv(EnvConfig(object_count=1))
        _, caption = env.reset(0)
        assert caption == caption_for(env.target_name)

    def test_capacity_config_error(self):
        with pytest.raises(ContractError, match="grid 2x2 cannot hold 5 objects"):
            EnvConfig(side=2, object_count=5)

    @pytest.mark.parametrize("side", [-3, 0])
    def test_grid_side_below_one_rejected(self, side):
        with pytest.raises(ContractError, match=f"side must be at least 1, got {side}"):
            EnvConfig(side=side)

    @pytest.mark.parametrize("fields", [{"object_count": 0}, {"step_limit": 0}],
                             ids=["object_count", "step_limit"])
    def test_count_below_one_rejected_by_name(self, fields):
        name, value = next(iter(fields.items()))
        with pytest.raises(ContractError, match=f"{name} must be at least 1, got {value}"):
            EnvConfig(**fields)

    @pytest.mark.parametrize("fields", [
        {"side": 9.0}, {"side": True}, {"step_limit": 2.5}, {"object_count": True},
    ], ids=["side", "side-bool", "step_limit", "object_count"])
    def test_integer_field_must_be_an_integer(self, fields):
        name, value = next(iter(fields.items()))
        with pytest.raises(ContractError, match=f"{name} must be an integer, got {value!r}"):
            EnvConfig(**fields)

    def test_numpy_integer_fields_accepted(self):
        assert EnvConfig(side=np.int64(5)).observation_shape == (4, 5, 5)

    @pytest.mark.parametrize("seed, match", [
        (-1, "seed must be at least 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ])
    def test_invalid_seed_rejected(self, seed, match):
        with pytest.raises(ContractError, match=match):
            GoalGridEnv().reset(seed)

    def test_interact_on_target_succeeds(self):
        env = GoalGridEnv()
        env.reset(1)
        env.agent_pos = env.object_pos[env.target_idx]
        _, done, success = env.step(INTERACT)
        assert done and success

    def test_interact_on_decoy_fails_quietly(self):
        env = GoalGridEnv()
        env.reset(1)
        decoy = (env.target_idx + 1) % env.config.object_count
        env.agent_pos = env.object_pos[decoy]
        _, done, success = env.step(INTERACT)
        assert not done and not success

    def test_step_limit_exhaustion(self):
        env = GoalGridEnv(EnvConfig(step_limit=3))
        env.reset(0)
        for _ in range(3):
            _, done, success = env.step(0)
        assert done and not success

    def test_step_after_done_rejected(self):
        env = GoalGridEnv(EnvConfig(step_limit=1))
        env.reset(0)
        env.step(0)
        with pytest.raises(ContractError):
            env.step(0)

    def test_target_name_before_reset_rejected(self):
        with pytest.raises(ContractError, match="target_name read before reset"):
            GoalGridEnv().target_name

    def test_observation_before_reset_rejected(self):
        with pytest.raises(ContractError, match="observation read before reset"):
            GoalGridEnv().observation()

    def test_target_and_observation_readable_after_the_episode_ends(self):
        env = GoalGridEnv(EnvConfig(step_limit=1))
        env.reset(0)
        name = env.target_name
        obs, done, _ = env.step(0)
        assert done and env.target_name == name
        assert env.observation().tobytes() == obs.tobytes()

    @pytest.mark.parametrize("action, match", [
        (True, "action must be an integer, got True"),
        (1.0, "action must be an integer, got 1.0"),
        ("1", "action must be an integer, got '1'"),
        (-1, "action must be at least 0, got -1"),
        (5, "action 5 outside the discrete space"),
    ])
    def test_invalid_action_rejected(self, action, match):
        env = GoalGridEnv()
        env.reset(0)
        with pytest.raises(ContractError, match=match):
            env.step(action)
        assert env.steps == 0

    def test_moves_clamp_at_walls(self):
        env = GoalGridEnv()
        env.reset(0)
        env.agent_pos = (0, 0)
        env.step(0)  # up
        assert env.agent_pos == (0, 0)


class TestExpert:
    def test_interact_when_on_target(self):
        env = GoalGridEnv()
        env.reset(5)
        env.agent_pos = env.object_pos[env.target_idx]
        assert scripted_expert(env) == INTERACT

    def test_trajectory_length_matches_manhattan_oracle(self):
        for seed in range(20):
            env = GoalGridEnv()
            env.reset(seed)
            (r, c), (goal_r, goal_c) = env.agent_pos, env.object_pos[env.target_idx]
            expected = abs(goal_r - r) + abs(goal_c - c)
            steps = 0
            done = False
            while not done:
                _, done, success = env.step(scripted_expert(env))
                steps += 1
            assert success
            assert steps == expected + 1  # moves plus the final interact

    def test_expert_succeeds_on_100_episodes(self):
        wins = 0
        for seed in range(100):
            env = GoalGridEnv()
            env.reset(seed)
            done = False
            while not done:
                _, done, success = env.step(scripted_expert(env))
            wins += int(success)
        assert wins == 100

    def test_tiebreak_order(self):
        # up is preferred over left when both decrease distance
        env = GoalGridEnv()
        env.reset(0)
        env.object_pos[env.target_idx] = (2, 2)
        env.agent_pos = (4, 4)
        assert scripted_expert(env) == 0


def env_from_channels(config, obs, target_idx):
    """A fresh episode whose objects and agent sit where ``obs`` puts them."""
    env = GoalGridEnv(config)
    env.reset(0)
    cells = [tuple(int(k) for k in np.argwhere(channel)[0]) for channel in obs]
    env.object_pos, env.agent_pos = cells[:-1], cells[-1]
    env.target_idx = target_idx
    return env


class TestSymmetryViews:
    """``symmetry_views`` must commute with ``GoalGridEnv.step``: behavioural
    cloning trains on the views as if the environment had produced them."""

    @pytest.mark.parametrize("side", [3, 5, 9])
    def test_views_commute_with_step(self, side):
        config = EnvConfig(side=side)
        for seed in range(40):
            for action in range(len(ACTIONS)):
                env = GoalGridEnv(config)
                obs, _ = env.reset(seed)
                next_obs, done, success = env.step(action)
                views = zip(symmetry_views(obs, action), symmetry_views(next_obs, action))
                for (view, view_action), (next_view, _) in views:
                    viewed = env_from_channels(config, view, env.target_idx)
                    np.testing.assert_array_equal(viewed.observation(), view)
                    stepped, viewed_done, viewed_success = viewed.step(view_action)
                    np.testing.assert_array_equal(stepped, next_view)
                    assert (viewed_done, viewed_success) == (done, success)


class TestDemos:
    def test_counts(self):
        for k in (10, 25):
            demos = collect_demos(EnvConfig(), seeds=list(range(k)))
            assert len(demos) == k
            assert all(d.success for d in demos)

    def test_plans_parse_and_name_target(self):
        demos = collect_demos(EnvConfig(), seeds=[0, 1, 2])
        for demo in demos:
            doc = parse_plan(demo.steps[0][1])
            assert doc.actions[0].verb == "go to"

    def test_replay_reproduces_actions(self):
        demos = collect_demos(EnvConfig(), seeds=[7, 8])
        for demo in demos:
            env = GoalGridEnv()
            env.reset(demo.seed)
            for obs, _, action in demo.steps:
                np.testing.assert_array_equal(obs, env.observation())
                assert scripted_expert(env) == action
                env.step(action)

    @pytest.mark.parametrize(
        "change, fault",
        [
            (lambda steps: [], "has no steps"),
            (lambda steps: steps + steps[-1:] * 50, "exceeds the step limit"),
            (lambda steps: steps[:-1], "does not end with interact"),
            (lambda steps: [(steps[0][0], steps[0][1], 7)] + steps[1:], "holds an illegal action"),
            (lambda steps: [(steps[0][0], steps[0][1], -1)] + steps[1:], "holds an illegal action"),
            (lambda steps: [(steps[0][0], " ", steps[0][2])] + steps[1:], "holds an empty plan"),
            (
                lambda steps: [(steps[0][0][:, :7, :7], *steps[0][1:])] + steps[1:],
                r"holds an observation of shape \(4, 7, 7\), expected \(4, 9, 9\)",
            ),
        ],
        ids=[
            "no-steps", "over-step-limit", "no-final-interact", "illegal-action",
            "negative-action", "empty-plan",
            "observation-shape",
        ],
    )
    def test_validation_names_the_fault(self, change, fault):
        demo = collect_demos(EnvConfig(), seeds=[2])[0]
        demo.steps = change(demo.steps)
        with pytest.raises(ValidationError, match=rf"^demonstration 2 {fault}$"):
            demo.validate(EnvConfig())

    @pytest.mark.parametrize("action", [True, 1.0])
    def test_validation_rejects_a_non_integer_action(self, action):
        demo = collect_demos(EnvConfig(), seeds=[2])[0]
        obs, plan, _ = demo.steps[0]
        demo.steps[0] = (obs, plan, action)
        name = "demonstration 2 action at step 0"
        with pytest.raises(ContractError, match=f"{name} must be an integer, got {action!r}"):
            demo.validate(EnvConfig())

    def test_validation_rejects_failure(self):
        demo = Demonstration(seed=0, steps=[(np.zeros((4, 9, 9)), "plan", 0)], success=False)
        with pytest.raises(ValidationError):
            demo.validate(EnvConfig())
