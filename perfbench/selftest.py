"""Fast tests of the benchmark itself: every workload at a tiny size, and the checks.

    python3 -m pytest perfbench/selftest.py -q

The file name does not match ``test_*.py`` so the package's own test run does
not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from planact.gridworld import EnvConfig  # noqa: E402
from planact.policy import TrainLog  # noqa: E402
from planact.sampling import GenerationConfig  # noqa: E402
from planact.vocab import EOS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_emits_every_metric(name, trace, tmp_path):
    result, lines = run.run(name, seed=3, seconds=0.01, trace=bool(trace),
                            sizes=workloads.TINY, out_dir=tmp_path)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for metric in SPEC[kind]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result)


def test_traced_counts_reach_their_layers(tmp_path):
    def layers(name):
        result, _ = run.run(name, seed=1, seconds=0.01, trace=True, sizes=workloads.TINY,
                            out_dir=tmp_path)
        return {k: v["value"] for k, v in result["metrics"].items()}

    loop = layers("closed_loop")
    assert loop["tensor.nodes_per_decision"] > 0 and loop["bridge.extract_calls"] == 1.0
    assert loop["policy.bridge_cache_hit_rate"] == 0.0
    bc = layers("bc_train")
    assert bc["tensor.nodes_per_bc_batch"] > 0 and bc["optim.step_ms"] > 0
    assert bc["policy.bridge_cache_hit_rate"] > 0.0 and bc["gridworld.expert_ms"] > 0
    curate = layers("curate_http")
    assert curate["embedder.items_per_request"] >= 1.0 and curate["embedder.requests"] > 0
    decode = layers("plan_decode")
    assert decode["lm.positions_per_token"] >= 1.0 and decode["tensor.nodes_per_lm_forward"] > 0
    spans = (tmp_path / "spans-plan_decode-1.jsonl").read_text().splitlines()
    assert spans and json.loads(spans[0])[0]


def test_loss_check_catches_nan_and_rising_loss():
    good = TrainLog(losses=[1.7, 1.6, 1.3, 1.2], initial_loss=1.6, final_loss=1.2)
    m = workloads.Measurement()
    workloads.check_losses(m, "good", good, epochs=2, first=None)
    assert all(ok for _, ok in m.checks)
    for bad in (TrainLog(losses=[1.7, math.nan, 1.3, 1.2], initial_loss=1.6, final_loss=1.2),
                TrainLog(losses=[1.2, 1.3, 1.6, 1.7], initial_loss=1.6, final_loss=1.7)):
        m = workloads.Measurement()
        workloads.check_losses(m, "bad", bad, epochs=2, first=good)
        assert not all(ok for _, ok in m.checks)


def test_episode_check_catches_overlong_episode():
    m = workloads.Measurement()
    workloads.check_episodes(m, [3, EnvConfig().step_limit + 1], EnvConfig().step_limit)
    assert [ok for _, ok in m.checks] == [True, False]


def test_sample_check_catches_bad_ids_and_early_stop():
    cfg = GenerationConfig(samples_per_prompt=2, max_new_tokens=3)
    for samples, ok in (([[5, 6, 7], [5, EOS]], True), ([[5, 99, 7], [5, EOS]], False),
                        ([[5, 6], [5, EOS]], False), ([[5, EOS, 6], [5, EOS]], False)):
        m = workloads.Measurement()
        workloads.check_samples(m, "call", samples, vocab_size=10, cfg=cfg)
        assert all(good for _, good in m.checks) is ok, samples


def test_curation_check_catches_corrupted_output(tmp_path):
    curate = workloads.CurateHttp()
    state = curate.setup(2, workloads.TINY, tmp_path)
    try:
        m = curate.measure(state, 0.01)
        dataset = state["root"] / "http" / "dataset.jsonl"
        dataset.write_text(dataset.read_text().replace("0", "1", 1))
        curate.check(state, m)
    finally:
        curate.close(state)
    failed = [label for label, ok in m.checks if not ok]
    assert failed == ["dataset.jsonl byte-equal to the MockEmbedder run"]


def test_corpus_is_a_function_of_the_seed():
    assert workloads.make_corpus(5, workloads.FULL) == workloads.make_corpus(5, workloads.FULL)
    assert workloads.make_corpus(5, workloads.FULL) != workloads.make_corpus(6, workloads.FULL)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
