"""The four benchmark workloads.

Each workload makes its inputs from the workload seed, runs whole jobs through
planact's public API until its time is up (one caller that waits for every
result), times each operation at its entry point, and checks what the jobs
returned.  Sizes live in ``Sizes`` so the self-tests can run every workload
small.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from planact.annotate import synthetic_candidates
from planact.embedder import MockEmbedder, RemoteEmbedder, make_embed_server, serve_forever_in_thread
from planact.gridworld import (
    OBJECT_NAMES,
    EnvConfig,
    GoalGridEnv,
    collect_demos,
    plan_for,
    symmetry_views,
)
from planact.lm import LmConfig, MicroLm
from planact.pipeline import (
    PipelineConfig,
    SyntheticPlanGenerator,
    build_dataset,
    ingest,
    stage1_filter,
)
from planact.policy import (
    ControlModel,
    bc_train,
    evaluate_policy,
    expert_policy,
    goal_chance_policy,
    model_policy,
    wilson_interval,
)
from planact.prompts import ANNOTATION_TEMPLATE, assemble_prompt
from planact.sampling import GenerationConfig, generate
from planact.seeding import stable_seed
from planact.vocab import EOS, Vocabulary, tokenize_prefix

from tracing import patched, quantile

OUTPUT_FILES = ("dataset.jsonl", "vqa.jsonl", "stats.json")


@dataclass(frozen=True)
class Sizes:
    setup_reps: int = 5
    demo_steps: int = 8  # every demo has this many expert steps, so input sizes match
    bc_demos: int = 2
    bc_epochs: int = 20
    loop_setup_reps: int = 3
    loop_demos: int = 2
    loop_epochs: int = 2
    quality_episodes: int = 20
    videos: int = 10
    narrations_per_video: int = 6
    decode_prompts: int = 8
    # LmPlanGenerator's defaults: candidates_per_prompt samples of up to 48 tokens
    samples_per_prompt: int = 5
    max_new_tokens: int = 48


FULL = Sizes()
TINY = Sizes(
    setup_reps=2,
    bc_demos=1,
    bc_epochs=2,
    loop_setup_reps=2,
    loop_demos=1,
    loop_epochs=1,
    quality_episodes=2,
    videos=4,
    narrations_per_video=3,
    decode_prompts=2,
    samples_per_prompt=2,
    max_new_tokens=3,
)


@dataclass
class Measurement:
    """What one timed loop did: work items, operation latencies, checks and context."""

    wall: float = 0.0
    items: int = 0
    ops: int = 0
    latencies: list[float] = field(default_factory=list)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    context: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    @property
    def items_per_s(self) -> float:
        return self.items / self.wall if self.wall else 0.0


class Marks:
    """Latency of an operation as the interval between successive marks within one job."""

    def __init__(self, m: Measurement):
        self.m = m
        self.last: float | None = None

    def begin(self) -> None:
        self.last = None

    def mark(self) -> None:
        now = time.perf_counter()
        self.m.ops += 1
        if self.last is not None:
            self.m.latencies.append(now - self.last)
        self.last = now


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _demos(rng: np.random.Generator, env: EnvConfig, count: int, steps: int) -> list:
    """``count`` expert demos of exactly ``steps`` steps, from episode seeds drawn from ``rng``.

    On the open grid the expert walks the Manhattan distance and then
    interacts, so seeds are screened from the episode layout alone.
    """
    seeds = []
    while len(seeds) < count:
        seed = _seeds(rng, 1)[0]
        probe = GoalGridEnv(env)
        probe.reset(seed)
        (r, c), (tr, tc) = probe.agent_pos, probe.object_pos[probe.target_idx]
        if abs(r - tr) + abs(c - tc) + 1 == steps:
            seeds.append(seed)
    demos = collect_demos(env, seeds)
    if any(len(d.steps) != steps for d in demos):
        raise RuntimeError(f"expert demos are not {steps} steps long")
    return demos


def _policy_vocab() -> Vocabulary:
    return Vocabulary.build(plan_for(name) for name in OBJECT_NAMES)


# -- synthetic narrations -----------------------------------------------------------

_SUBJECTS = ("C", "the man", "the woman", "C")
_VERBS = ("picks up", "opens", "closes", "washes", "cuts", "places", "stirs", "wipes",
          "pours", "folds", "lifts", "moves", "grabs", "peels", "holds")
_OBJECTS = ("the cup", "a drawer", "the knife", "the plate", "a bowl", "the towel",
            "the lid", "a spoon", "the kettle", "a box", "the onion", "a jar")
_TAILS = ("", " on the table", " in the sink", " with the left hand", " from the shelf")
_SHORT = ("C nods", "C waits", "C looks")               # fewer than three words
_NO_VERB = ("C is in the kitchen", "C looks around the room")  # no plan can be derived
_SCENARIOS = ("kitchen", "workshop", "garden", "laundry")
_EXCLUDED = ("watching tv", "walking")


def make_caption(rng: np.random.Generator) -> str:
    parts = (_SUBJECTS, _VERBS, _OBJECTS)
    subject, verb, obj = (p[int(rng.integers(len(p)))] for p in parts)
    return f"{subject} {verb} {obj}{_TAILS[int(rng.integers(len(_TAILS)))]}"


def make_corpus(seed: int, sizes: Sizes) -> tuple[list[dict], list[dict]]:
    """Narration and meta rows with a fixed count of every kind the pipeline drops.

    Each multi-narration video holds ``narrations_per_video`` rows that pass
    stage 1, evenly spaced 4 s apart in half of the videos and 10 s apart in
    the other half, so every clip spans one or two keyframes whatever the seed.
    Rows that stage 1 drops (short, ``#unsure``) sit between them and leave the
    spacing alone; two rows have no verb the annotator knows.  Two
    single-narration videos, two excluded-scenario videos and four orphans
    come on top.  Times are multiples of 1/8 s, so clip arithmetic is exact.
    """
    rng = np.random.default_rng(stable_seed("corpus", seed))
    meta, narr = [], []

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def add(vid, scenario, rows, duration):
        meta.append({"video_id": vid, "duration_sec": duration, "scenario": scenario})
        narr.extend({"video_id": vid, "timestamp_sec": t, "narration": text} for t, text in rows)

    multi = sizes.videos - 2
    n = sizes.narrations_per_video
    survivors = multi * n
    noverb = set(rng.choice(survivors, size=max(1, survivors // 20), replace=False).tolist())
    n_drop = max(1, survivors // 10)
    slots = rng.choice(multi * (n - 1), size=2 * n_drop, replace=False)
    dropped = {int(s): ("short" if i < n_drop else "unsure") for i, s in enumerate(slots)}
    for v in range(multi):
        gap = 4.0 if v % 2 == 0 else 10.0
        start = 2.0 + int(rng.integers(0, 80)) / 8
        rows = []
        for k in range(n):
            t = start + k * gap
            rows.append((t, pick(_NO_VERB) if v * n + k in noverb else make_caption(rng)))
            kind = dropped.get(v * (n - 1) + k) if k < n - 1 else None
            if kind == "short":
                rows.append((t + gap / 2, pick(_SHORT)))
            elif kind == "unsure":
                rows.append((t + gap / 2, f"{make_caption(rng)} #unsure"))
        add(f"vid{seed}-{v:02d}", _SCENARIOS[v % len(_SCENARIOS)], rows, rows[-1][0] + 2.0 + gap)
    for v in range(multi, sizes.videos):
        add(f"vid{seed}-{v:02d}", _SCENARIOS[v % len(_SCENARIOS)],
            [(10.0 + int(rng.integers(0, 80)) / 8, make_caption(rng))], 30.0)
    for e, scenario in enumerate(_EXCLUDED):
        add(f"vid{seed}-x{e}", scenario,
            [(2.0 + 4.0 * k, make_caption(rng)) for k in range(4)], 30.0)
    for o in range(4):
        narr.append({"video_id": f"orphan{seed}-{o}", "timestamp_sec": 1.0,
                     "narration": make_caption(rng)})
    order = rng.permutation(len(narr))
    return [narr[i] for i in order], meta


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


# -- workloads ------------------------------------------------------------------------


class Workload:
    """Set up from a seed, measure for a time, check the outputs, release what set-up opened."""

    item: str
    op: str

    def setup_reps(self, sizes: Sizes) -> int:
        return sizes.setup_reps

    def check(self, state: dict, m: Measurement) -> None:
        pass

    def close(self, state: dict) -> None:
        pass


class BcTrain(Workload):
    """``bc_train`` with the default PolicyConfig on a fixed set of expert demos."""

    item = "augmented training samples"
    op = "minibatch step (interval between optimizer steps)"

    def setup(self, seed: int, sizes: Sizes, out_dir: Path) -> dict:
        rng = np.random.default_rng(stable_seed("bc_train", seed))
        env = EnvConfig()
        demos = _demos(rng, env, sizes.bc_demos, sizes.demo_steps)
        model_seed, train_seed = _seeds(rng, 2)
        vocab = _policy_vocab()
        model = ControlModel(np.random.default_rng(model_seed), env, vocab)
        triples = sum(
            len(list(symmetry_views(obs, action))) if model.config.augment_symmetry else 1
            for demo in demos
            for obs, _, action in demo.steps
        )
        return {"env": env, "demos": demos, "vocab": vocab, "model_seed": model_seed,
                "train_seed": train_seed, "triples": triples, "epochs": sizes.bc_epochs,
                "digest": _digest(*(obs for d in demos for obs, _, _ in d.steps),
                                  *(p.data for p in model.parameters()))}

    def measure(self, state: dict, seconds: float) -> Measurement:
        m = Measurement()
        marks = Marks(m)

        def timed_step(step):
            def wrapper(self, *args, **kwargs):
                out = step(self, *args, **kwargs)
                marks.mark()
                return out
            return wrapper

        first, calls = None, 0
        deadline = time.perf_counter() + seconds
        with patched("planact.optim", "AdamW.step", timed_step):
            while True:
                model = ControlModel(
                    np.random.default_rng(state["model_seed"]), state["env"], state["vocab"]
                )
                marks.begin()
                t0 = time.perf_counter()
                log = bc_train(model, state["demos"], seed=state["train_seed"],
                               epochs=state["epochs"])
                m.wall += time.perf_counter() - t0
                m.items += state["epochs"] * state["triples"]
                check_losses(m, f"bc_train call {calls}", log, state["epochs"], first)
                first, calls = first or log, calls + 1
                if time.perf_counter() >= deadline:
                    break
        m.context.update(bc_initial_loss=first.initial_loss, bc_final_loss=first.final_loss)
        return m

    def named(self, m: Measurement) -> list[tuple[str, float, str]]:
        return [("bc_samples_per_s", m.items_per_s, "1/s"),
                ("bc_initial_loss", m.context["bc_initial_loss"], "nats"),
                ("bc_final_loss", m.context["bc_final_loss"], "nats")]


def check_losses(m: Measurement, label: str, log, epochs: int, first) -> None:
    """Every loss finite, the last epoch's mean batch loss below the first epoch's,
    and the same losses as the first call."""
    per_epoch = len(log.losses) // epochs
    m.check(f"{label}: every loss finite",
            all(math.isfinite(x) for x in [log.initial_loss, log.final_loss, *log.losses]))
    m.check(f"{label}: training loss falls from the first epoch to the last",
            sum(log.losses[-per_epoch:]) < sum(log.losses[:per_epoch]))
    m.check(f"{label}: same losses as the first call",
            first is None or (log.losses, log.final_loss) == (first.losses, first.final_loss))


def check_episodes(m: Measurement, lengths: list[int], step_limit: int) -> None:
    for i, length in enumerate(lengths):
        m.check(f"episode {i}: ends within step_limit", 1 <= length <= step_limit)


class ClosedLoop(Workload):
    """Greedy ``evaluate_policy`` of a plan-conditioned ControlModel trained in set-up."""

    item = "policy decisions"
    op = "decision (one model.act call)"

    def setup_reps(self, sizes: Sizes) -> int:
        return sizes.loop_setup_reps  # each set-up trains the policy

    def setup(self, seed: int, sizes: Sizes, out_dir: Path) -> dict:
        rng = np.random.default_rng(stable_seed("closed_loop", seed))
        env = EnvConfig()
        demos = _demos(rng, env, sizes.loop_demos, sizes.demo_steps)
        model_seed, train_seed, episode_seed = _seeds(rng, 3)
        vocab = _policy_vocab()
        model = ControlModel(np.random.default_rng(model_seed), env, vocab)
        bc_train(model, demos, seed=train_seed, epochs=sizes.loop_epochs)
        return {"env": env, "demos": demos, "vocab": vocab, "model": model,
                "model_seed": model_seed, "train_seed": train_seed,
                "epochs": sizes.loop_epochs, "base_seed": episode_seed,
                "quality_episodes": sizes.quality_episodes, "digest": _digest(*(p.data for p in model.parameters()))}

    def measure(self, state: dict, seconds: float) -> Measurement:
        m = Measurement()
        model, env = state["model"], state["env"]
        episode_lengths: list[int] = []
        current = [None]

        def policy_fn(episode_env, obs, plan_text):
            if episode_env is not current[0]:
                current[0] = episode_env
                episode_lengths.append(0)
            episode_lengths[-1] += 1
            t0 = time.perf_counter()
            action = model.act(obs, plan_text)
            m.latencies.append(time.perf_counter() - t0)
            return action

        def episodes(count, base_seed):
            t0 = time.perf_counter()
            result = evaluate_policy(policy_fn, env, episodes=count, base_seed=base_seed)
            m.wall += time.perf_counter() - t0
            return result

        deadline = time.perf_counter() + seconds
        base, q = state["base_seed"], state["quality_episodes"]
        quality = episodes(q, base)
        extra = 0
        while time.perf_counter() < deadline:
            episodes(1, base + q + extra)
            extra += 1
        m.items = m.ops = len(m.latencies)
        check_episodes(m, episode_lengths, env.step_limit)
        successes = sum(r["success"] for r in quality["per_seed"])
        m.context.update(success_rate=quality["success_rate"], successes=successes,
                         episodes=q)
        return m

    def check(self, state: dict, m: Measurement) -> None:
        env, base, q = state["env"], state["base_seed"], state["quality_episodes"]
        expert = evaluate_policy(expert_policy(), env, episodes=q, base_seed=base)
        m.check("expert succeeds on every episode", expert["success_rate"] == 1.0)
        ablated = ControlModel(np.random.default_rng(state["model_seed"]), env, state["vocab"],
                               ablate_plan=True)
        bc_train(ablated, state["demos"], seed=state["train_seed"], epochs=state["epochs"])
        m.context.update(
            ablated_success_rate=evaluate_policy(
                model_policy(ablated), env, episodes=q, base_seed=base)["success_rate"],
            goal_chance_rate=evaluate_policy(
                goal_chance_policy(base), env, episodes=q, base_seed=base)["success_rate"],
            expert_success_rate=expert["success_rate"],
        )

    def named(self, m: Measurement) -> list[tuple[str, float, str]]:
        ms = [1000.0 * x for x in m.latencies]
        low, high = wilson_interval(m.context["successes"], m.context["episodes"])
        out = [("decisions_per_s", m.items_per_s, "1/s"),
               ("decision_p50_ms", quantile(ms, 0.50), "ms")]
        if len(ms) >= 1000:  # p99 needs ten samples beyond it
            out.append(("decision_p99_ms", quantile(ms, 0.99), "ms"))
        out += [("success_rate", m.context["success_rate"], "ratio"),
                ("success_wilson_low", low, "ratio"), ("success_wilson_high", high, "ratio")]
        out += [(key, m.context[key], "ratio")
                for key in ("ablated_success_rate", "goal_chance_rate", "expert_success_rate")]
        return out


class CurateHttp(Workload):
    """``build_dataset`` over a seeded corpus with a RemoteEmbedder on an in-process server."""

    item = "narrations"
    op = "clip (interval between plan-generator calls)"

    def setup(self, seed: int, sizes: Sizes, out_dir: Path) -> dict:
        narr, meta = make_corpus(seed, sizes)
        root = out_dir / "curate"
        _write_jsonl(root / "narrations.jsonl", narr)
        _write_jsonl(root / "meta.jsonl", meta)
        cfg = PipelineConfig()
        server = make_embed_server(MockEmbedder(dim=cfg.embed_dim), port=0)
        server.daemon_threads = False  # so server_close waits for every handler thread
        thread = serve_forever_in_thread(server)
        # the mock service returns unit vectors, so the client does not renormalise
        client = RemoteEmbedder(f"http://127.0.0.1:{server.server_address[1]}", normalize=False)
        return {"seed": seed, "root": root, "cfg": cfg, "server": server, "thread": thread,
                "client": client, "narrations": len(narr),
                "digest": _digest(np.frombuffer(json.dumps([narr, meta]).encode(), np.uint8))}

    def _build(self, state: dict, provider, generator, out: Path) -> dict:
        root = state["root"]
        return build_dataset(root / "narrations.jsonl", root / "meta.jsonl", state["cfg"],
                             provider, generator, out, seed=state["seed"])

    def measure(self, state: dict, seconds: float) -> Measurement:
        m = Measurement()
        marks = Marks(m)
        inner = SyntheticPlanGenerator()

        class MarkedGenerator:
            name = inner.name

            def generate(self, prompt, count, seed_key):
                marks.mark()
                return inner.generate(prompt, count, seed_key)

        state["summaries"] = summaries = []
        deadline = time.perf_counter() + seconds
        while True:
            marks.begin()
            t0 = time.perf_counter()
            summaries.append(self._build(state, state["client"], MarkedGenerator(),
                                         state["root"] / "http"))
            m.wall += time.perf_counter() - t0
            m.items += state["narrations"]
            if time.perf_counter() >= deadline:
                break
        return m

    def check(self, state: dict, m: Measurement) -> None:
        root = state["root"]
        reference = self._build(state, MockEmbedder(dim=state["cfg"].embed_dim),
                                SyntheticPlanGenerator(), root / "mock")
        check_curation(m, state, reference)

    def named(self, m: Measurement) -> list[tuple[str, float, str]]:
        return [("clips_per_s", m.items_per_s, "1/s")]

    def close(self, state: dict) -> None:
        state["server"].shutdown()
        state["server"].server_close()
        state["thread"].join()


def check_curation(m: Measurement, state: dict, reference: dict) -> None:
    """HTTP outputs byte-equal to the in-process run, and every stage-1 survivor accounted for."""
    root = state["root"]
    for i, summary in enumerate(state["summaries"]):
        m.check(f"build_dataset call {i}: stats equal the MockEmbedder run", summary == reference)
    for name in OUTPUT_FILES:
        m.check(f"{name} byte-equal to the MockEmbedder run",
                (root / "http" / name).read_bytes() == (root / "mock" / name).read_bytes())
    _, grouped, _ = ingest(root / "narrations.jsonl", root / "meta.jsonl")
    kept, _ = stage1_filter(grouped, state["cfg"])
    survivors = sum(len(records) for records in kept.values())
    s = state["summaries"][-1]
    m.check("kept + stage2_dropped + generator_failures + degenerate_spans = stage-1 survivors",
            s["kept_count"] + s["stage2_dropped"] + s["generator_failures"]
            + s["degenerate_spans"] == survivors)


class PlanDecode(Workload):
    """``sampling.generate`` called as LmPlanGenerator calls it, on a seeded MicroLm."""

    item = "new tokens"
    op = "new token (interval between MicroLm.forward calls)"

    def setup(self, seed: int, sizes: Sizes, out_dir: Path) -> dict:
        rng = np.random.default_rng(stable_seed("plan_decode", seed))
        captions = [make_caption(rng) for _ in range(sizes.decode_prompts)]
        plans = [p for i, c in enumerate(captions)
                 for p in synthetic_candidates(c, sizes.samples_per_prompt, f"{seed}/{i}")]
        vocab = Vocabulary.build(ANNOTATION_TEMPLATE.splitlines() + plans)
        model = MicroLm(np.random.default_rng(_seeds(rng, 1)[0]),
                        LmConfig(vocab_size=len(vocab)))
        prompts = [tokenize_prefix(assemble_prompt("egocot_annotation", c), vocab)
                   for c in captions]
        configs = [
            GenerationConfig(temperature=0.9, top_p=0.95, max_new_tokens=sizes.max_new_tokens,
                             samples_per_prompt=sizes.samples_per_prompt,
                             seed=stable_seed("lm-candidates", f"{seed}/{i}"))
            for i in range(len(prompts))
        ]
        return {"vocab": vocab, "model": model, "prompts": prompts, "configs": configs,
                "digest": _digest(*(p.data for p in model.parameters()),
                                  np.concatenate([np.asarray(p) for p in prompts]))}

    def measure(self, state: dict, seconds: float) -> Measurement:
        m = Measurement()
        marks = Marks(m)

        def timed_forward(forward):
            def wrapper(self, *args, **kwargs):
                marks.mark()
                return forward(self, *args, **kwargs)
            return wrapper

        model, prompts, configs = state["model"], state["prompts"], state["configs"]
        state["outputs"] = outputs = []
        deadline = time.perf_counter() + seconds
        with patched("planact.lm", "MicroLm.forward", timed_forward):
            while True:
                i = len(outputs) % len(prompts)
                marks.begin()
                t0 = time.perf_counter()
                samples = generate(model, prompts[i], None, configs[i])
                m.wall += time.perf_counter() - t0
                m.items += sum(len(s) for s in samples)
                outputs.append((i, samples))
                check_samples(m, f"generate call {len(outputs) - 1}", samples,
                              len(state["vocab"]), configs[i])
                if time.perf_counter() >= deadline:
                    break
        m.ops = m.items
        return m

    def check(self, state: dict, m: Measurement) -> None:
        i, samples = state["outputs"][0]
        head = min(8, state["configs"][i].max_new_tokens)
        cfg = replace(state["configs"][i], samples_per_prompt=1, max_new_tokens=head)
        again = generate(state["model"], state["prompts"][i], None, cfg)
        m.check("same prompt and seed give the same ids", again[0] == samples[0][:head])

    def named(self, m: Measurement) -> list[tuple[str, float, str]]:
        return [("tokens_per_s", m.items_per_s, "1/s")]


def check_samples(m: Measurement, label: str, samples, vocab_size: int, cfg) -> None:
    """Every id inside the vocabulary; every sample ends at EOS or at the token cap."""
    m.check(f"{label}: {cfg.samples_per_prompt} samples",
            len(samples) == cfg.samples_per_prompt)
    m.check(f"{label}: every id inside the vocabulary",
            all(0 <= t < vocab_size for s in samples for t in s))
    m.check(f"{label}: every sample ends at EOS or at the cap",
            all(s and EOS not in s[:-1] and (s[-1] == EOS or len(s) == cfg.max_new_tokens)
                for s in samples))


WORKLOADS = {
    "bc_train": BcTrain,
    "closed_loop": ClosedLoop,
    "curate_http": CurateHttp,
    "plan_decode": PlanDecode,
}
