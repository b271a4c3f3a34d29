import json

import numpy as np
import pytest

from planact.errors import ConfigError, ContractError, IngestError, ValidationError
from planact.gridworld import (
    ACTIONS,
    INTERACT,
    Demonstration,
    EnvConfig,
    GoalGridEnv,
    bfs_distances,
    caption_for,
    collect_demos,
    load_demos,
    plan_for,
    save_demos,
    scripted_expert,
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
        assert obs.shape == (4, 9, 9)
        assert set(np.unique(obs)) <= {0.0, 1.0}
        assert obs[3].sum() == 1.0  # exactly one agent cell
        assert obs[:3].sum() == 3.0  # one cell per object

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
        with pytest.raises(ConfigError):
            EnvConfig(height=2, width=2, object_count=5)

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

    def test_trajectory_length_matches_bfs_oracle(self):
        for seed in range(20):
            env = GoalGridEnv()
            env.reset(seed)
            expected = int(bfs_distances(env, env.object_pos[env.target_idx])[env.agent_pos])
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

    def test_save_load_roundtrip(self, tmp_path):
        config = EnvConfig()
        demos = collect_demos(config, seeds=[1, 2, 3])
        save_demos(tmp_path / "demos", demos)
        loaded = load_demos(tmp_path / "demos", config)
        assert len(loaded) == 3
        for a, b in zip(demos, loaded):
            assert a.seed == b.seed
            assert len(a.steps) == len(b.steps)
            for (oa, pa, aa), (ob, pb, ab) in zip(a.steps, b.steps):
                assert oa.tobytes() == ob.tobytes()
                assert pa == pb and aa == ab

    @pytest.mark.parametrize("ref", [10_000, -2, 1.5])
    def test_load_rejects_obs_ref_outside_blob(self, tmp_path, ref):
        config = EnvConfig()
        save_demos(tmp_path / "demos", collect_demos(config, seeds=[1, 2]))
        jsonl = tmp_path / "demos.jsonl"
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        rows[1]["steps"][2]["obs_ref"] = ref
        jsonl.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValidationError, match=r"demos\.jsonl: demo seed 2 step 2") as err:
            load_demos(tmp_path / "demos", config)
        assert "demos.bin" in str(err.value)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda line: line[:-1],
            lambda line: json.dumps({"seed": 2}),
            lambda line: line.replace('"action"', '"act"', 1),
            lambda line: line.replace('"action": ', '"action": "x", "_": ', 1),
            lambda line: line.replace('"plan": ', '"plan": 5, "_": ', 1),
        ],
        ids=["malformed-json", "missing-steps", "step-missing-action", "action-not-int",
             "plan-not-text"],
    )
    def test_load_rejects_malformed_line_naming_file_and_line(self, tmp_path, corrupt):
        config = EnvConfig()
        save_demos(tmp_path / "demos", collect_demos(config, seeds=[1, 2, 3]))
        jsonl = tmp_path / "demos.jsonl"
        lines = jsonl.read_text().splitlines()
        lines[1] = corrupt(lines[1])
        jsonl.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=r"demos\.jsonl:2: "):
            load_demos(tmp_path / "demos", config)

    @pytest.mark.parametrize("cut", [8, 3])
    def test_load_rejects_partial_observation_blob(self, tmp_path, cut):
        config = EnvConfig()
        save_demos(tmp_path / "demos", collect_demos(config, seeds=[1]))
        blob = tmp_path / "demos.bin"
        blob.write_bytes(blob.read_bytes()[:-cut])
        with pytest.raises(ValidationError, match=r"demos\.bin: \d+ bytes"):
            load_demos(tmp_path / "demos", config)

    def test_validation_rejects_failure(self):
        demo = Demonstration(seed=0, steps=[(np.zeros((4, 9, 9)), "plan", 0)], success=False)
        with pytest.raises(ValidationError):
            demo.validate(EnvConfig())
