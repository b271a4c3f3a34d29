import ast
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import planact
from planact.embedder import MockEmbedder, RemoteEmbedder
from planact.errors import ContractError, IngestError, PipelineError, ValidationError
from planact.pipeline import (
    ClipRecord,
    NarrationRecord,
    PipelineConfig,
    SyntheticPlanGenerator,
    build_dataset,
    compute_alpha,
    compute_beta,
    cosine_similarity,
    ensemble_similarity,
    frame_ref,
    ingest,
    keyframe_times,
    pair_clip,
    select_best_candidate,
    stage1_filter,
    stage2_filter,
)


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def narr(vid, t, text):
    return {"video_id": vid, "timestamp_sec": t, "narration": text}


def meta(vid, dur, scenario="kitchen"):
    return {"video_id": vid, "duration_sec": dur, "scenario": scenario}


@pytest.fixture
def cfg():
    return PipelineConfig()


class TestIngest:
    def test_empty_files(self, tmp_path):
        (tmp_path / "n.jsonl").write_text("")
        (tmp_path / "m.jsonl").write_text("")
        metas, grouped, orphans = ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")
        assert metas == {} and grouped == {} and orphans == 0

    def test_unsorted_input_sorted(self, tmp_path):
        write_jsonl(tmp_path / "n.jsonl", [narr("v", 9.0, "C opens a drawer"),
                                           narr("v", 1.0, "C washes a plate")])
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 30.0)])
        _, grouped, _ = ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")
        times = [r.timestamp_sec for r in grouped["v"]]
        assert times == sorted(times) == [1.0, 9.0]

    def test_timestamp_beyond_duration(self, tmp_path):
        write_jsonl(tmp_path / "n.jsonl", [narr("v", 99.0, "C opens a drawer")])
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 50.0)])
        with pytest.raises(ValidationError):
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")

    def test_malformed_line_names_line_number(self, tmp_path):
        (tmp_path / "n.jsonl").write_text('{"video_id": "v"\n')
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 50.0)])
        with pytest.raises(IngestError, match=":1:"):
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")

    def test_undecodable_bytes_name_path_and_line(self, tmp_path):
        good = json.dumps(narr("v", 1.0, "C opens a drawer")).encode()
        (tmp_path / "n.jsonl").write_bytes(good + b"\n" + good[:-2] + b"\xff\"}\n")
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 50.0)])
        with pytest.raises(IngestError, match=re.escape(f"{tmp_path / 'n.jsonl'}:2: not UTF-8")):
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")

    def test_unicode_line_separator_inside_a_string_is_not_a_line_break(self, tmp_path):
        row = narr("v", 1.0, "C opens\u2028a drawer")
        (tmp_path / "n.jsonl").write_text(json.dumps(row, ensure_ascii=False) + "\n", "utf-8")
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 50.0)])
        _, grouped, _ = ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")
        assert [r.narration for r in grouped["v"]] == [row["narration"]]

    @pytest.mark.parametrize("missing", ["n.jsonl", "m.jsonl"])
    def test_unreadable_file_named(self, tmp_path, missing):
        write_jsonl(tmp_path / "n.jsonl", [narr("v", 1.0, "C opens a drawer")])
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 50.0)])
        (tmp_path / missing).unlink()
        with pytest.raises(IngestError, match=re.escape(f"{tmp_path / missing}: cannot read")):
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")

    @pytest.mark.parametrize("field, value", [("duration_sec", True), ("timestamp_sec", False)])
    def test_boolean_time_rejected_naming_line_and_key(self, tmp_path, field, value):
        narrations = [narr("v", 1.0, "C opens a drawer"), narr("v", 3.0, "C washes a plate")]
        metas = [meta("w", 10.0), meta("v", 30.0)]
        if field == "timestamp_sec":
            narrations[1][field], path = value, tmp_path / "n.jsonl"
        else:
            metas[1][field], path = value, tmp_path / "m.jsonl"
        write_jsonl(tmp_path / "n.jsonl", narrations)
        write_jsonl(tmp_path / "m.jsonl", metas)
        with pytest.raises(IngestError, match=re.escape(f"{path}:2: key {field!r}")):
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")

    def test_orphans_dropped_and_counted(self, tmp_path):
        write_jsonl(tmp_path / "n.jsonl", [narr("ghost", 1.0, "C opens a drawer"),
                                           narr("v", 1.0, "C opens a drawer")])
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 30.0)])
        _, grouped, orphans = ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")
        assert orphans == 1 and set(grouped) == {"v"}

    @pytest.mark.parametrize("field", ["timestamp_sec", "duration_sec"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_names_line_video_and_value(self, tmp_path, field, value):
        narrations = [narr("v", 1.0, "C opens a drawer"), narr("v", 3.0, "C washes a plate")]
        metas = [meta("w", 10.0), meta("v", 30.0)]
        if field == "timestamp_sec":
            narrations[1][field], path = value, tmp_path / "n.jsonl"
        else:
            metas[1][field], path = value, tmp_path / "m.jsonl"
        write_jsonl(tmp_path / "n.jsonl", narrations)
        write_jsonl(tmp_path / "m.jsonl", metas)
        with pytest.raises(ValidationError, match=re.escape(f"{path}:2: video v: non-finite")) as info:
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")
        assert str(value) in str(info.value)

    @pytest.mark.parametrize(
        "narration, duration, problem",
        [(-1.0, 30.0, "negative timestamp -1.0"), (99.0, 30.0, "timestamp 99.0 exceeds"),
         (1.0, 0.0, "non-positive duration 0.0")],
    )
    def test_out_of_range_time_names_line_and_video(self, tmp_path, narration, duration, problem):
        write_jsonl(tmp_path / "n.jsonl", [narr("v", 2.0, "C opens a drawer"),
                                           narr("v", narration, "C washes a plate")])
        write_jsonl(tmp_path / "m.jsonl", [meta("w", 10.0), meta("v", duration)])
        path = tmp_path / ("m.jsonl" if duration <= 0 else "n.jsonl")
        with pytest.raises(ValidationError, match=re.escape(f"{path}:2: video v: {problem}")):
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")

    def test_duplicate_meta_row_rejected(self, tmp_path):
        write_jsonl(tmp_path / "n.jsonl", [narr("v", 1.0, "C opens a drawer")])
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 10.0), meta("w", 5.0), meta("v", 2.0)])
        with pytest.raises(ValidationError, match=r"m\.jsonl.*duplicate.*video v"):
            ingest(tmp_path / "n.jsonl", tmp_path / "m.jsonl")


@given(
    st.lists(st.text(min_size=1), min_size=1, max_size=4, unique=True),
    st.integers(0, 3),
    st.integers(0, 4),
)
def test_repeated_meta_row_at_any_position_names_file_and_id(ids, repeated, position):
    vid = ids[min(repeated, len(ids) - 1)]
    rows = [meta(v, 10.0) for v in ids]
    rows.insert(min(position, len(rows)), meta(vid, 3.0))
    with tempfile.TemporaryDirectory() as tmp:
        narrations, metas = Path(tmp) / "n.jsonl", Path(tmp) / "m.jsonl"
        narrations.write_text("")
        write_jsonl(metas, rows)
        with pytest.raises(ValidationError) as info:
            ingest(narrations, metas)
    assert str(metas) in str(info.value) and f"video {vid}" in str(info.value)


@given(
    st.lists(st.sampled_from(["v", "w"]), min_size=1, max_size=5),
    st.integers(0, 4),
    st.integers(0, 5),
)
def test_repeated_narration_key_at_any_position_names_line_video_and_time(vids, repeated, position):
    # distinct (video, time) keys, then one row that repeats an earlier key
    rows = [narr(vid, float(i), "C opens a drawer") for i, vid in enumerate(vids)]
    earlier = rows[min(repeated, len(rows) - 1)]
    position = min(position, len(rows))
    position = max(position, rows.index(earlier) + 1)
    rows.insert(position, narr(earlier["video_id"], earlier["timestamp_sec"], "C opens a door"))
    with tempfile.TemporaryDirectory() as tmp:
        narrations, metas = Path(tmp) / "n.jsonl", Path(tmp) / "m.jsonl"
        write_jsonl(narrations, rows)
        write_jsonl(metas, [meta("v", 10.0), meta("w", 10.0)])
        with pytest.raises(ValidationError) as info:
            ingest(narrations, metas)
    message = str(info.value)
    assert message.startswith(f"{narrations}:{position + 1}: ")
    assert f"video {earlier['video_id']} at {earlier['timestamp_sec']} s" in message


def _non_json_line(text):
    if text.splitlines() != [text] or not text.strip():
        return False
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


@given(
    st.sampled_from(["narrations", "meta"]),
    st.integers(0, 4),
    st.integers(0, 4),
    st.text(min_size=1).filter(_non_json_line),
)
def test_non_json_line_at_any_position_names_path_and_line(corrupt, rows, position, garbage):
    position = min(position, rows)
    lines = {
        "narrations": [json.dumps(narr(f"v{i}", 1.0, "C opens a drawer")) for i in range(rows)],
        "meta": [json.dumps(meta(f"v{i}", 10.0)) for i in range(rows)],
    }
    lines[corrupt].insert(position, garbage)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.jsonl" for name in lines}
        for name, path in paths.items():
            path.write_text("\n".join(lines[name]) + "\n")
        with pytest.raises(IngestError, match=re.escape(f"{paths[corrupt]}:{position + 1}:")):
            ingest(paths["narrations"], paths["meta"])


class TestStage1Filter:
    def make(self, vid, texts, scenario="kitchen"):
        return {vid: [NarrationRecord(vid, float(i), t, scenario) for i, t in enumerate(texts)]}

    def test_unsure_tag_dropped(self, cfg):
        kept, stats = stage1_filter(self.make("v", ["C washes #unsure in sink"]), cfg)
        assert kept == {} and stats.dropped_unsure == 1

    def test_short_narration_dropped(self, cfg):
        kept, stats = stage1_filter(self.make("v", ["opens door"]), cfg)
        assert kept == {} and stats.dropped_short == 1

    def test_excluded_scenario_drops_whole_video(self, cfg):
        grouped = self.make("v", ["C opens a drawer", "C washes a plate"], scenario="walking")
        kept, stats = stage1_filter(grouped, cfg)
        assert kept == {} and stats.dropped_scenario == 2

    def test_missing_narration_dropped(self, cfg):
        kept, stats = stage1_filter(self.make("v", ["", "  "]), cfg)
        assert stats.dropped_missing == 2

    def test_matches_independent_rule_oracle(self, cfg):
        # independently written per-rule predicates, applied in the same precedence
        rng = np.random.default_rng(11)
        scenarios = ["kitchen", "walking", "garden", "watching tv"]
        texts = [
            "C opens a drawer",
            "opens door",
            "",
            "C washes #unsure in sink",
            "C puts a book on the shelf",
            "C cuts a carrot with a knife",
            "ok",
        ]
        grouped = {}
        for v in range(40):
            vid = f"v{v:02d}"
            scen = scenarios[rng.integers(len(scenarios))]
            rows = [
                NarrationRecord(vid, float(i), texts[rng.integers(len(texts))], scen)
                for i in range(5)
            ]
            grouped[vid] = rows
        total = sum(len(rs) for rs in grouped.values())
        assert total == 200

        def oracle_keeps(record):
            if record.scenario.lower() in ("watching tv", "walking"):
                return False
            stripped = record.narration.strip()
            if not stripped:
                return False
            if len([w for w in stripped.replace("#", " ").split() if w]) < 3:
                return False
            if "#unsure" in stripped.lower():
                return False
            return True

        expected = {
            (r.video_id, r.timestamp_sec)
            for rows in grouped.values()
            for r in rows
            if oracle_keeps(r)
        }
        kept, _ = stage1_filter(grouped, cfg)
        got = {(r.video_id, r.timestamp_sec) for rows in kept.values() for r in rows}
        assert got == expected


class TestClipPairing:
    def test_beta_mean_gap(self):
        records = [NarrationRecord("v", t, "x") for t in [0.0, 2.0, 4.0, 6.0]]
        assert compute_beta(records) == pytest.approx(2.0)

    def test_beta_equal_spacing(self):
        records = [NarrationRecord("v", 3.0 * i, "x") for i in range(5)]
        assert compute_beta(records) == pytest.approx(3.0)

    def test_beta_single_gap(self):
        records = [NarrationRecord("v", t, "x") for t in [0.0, 10.0]]
        assert compute_beta(records) == pytest.approx(10.0)

    def test_beta_single_narration_undefined(self):
        assert compute_beta([NarrationRecord("v", 1.0, "x")]) is None

    def test_alpha_mean(self):
        assert compute_alpha([2.0, 4.0]) == pytest.approx(3.0)
        assert compute_alpha([7.0, None]) == pytest.approx(7.0)

    def test_alpha_empty_rejected(self):
        with pytest.raises(PipelineError):
            compute_alpha([None])

    def test_pair_clip_hand_evaluated(self):
        # t=2, beta=2, alpha=4.9 -> half width 2/9.8
        start, end = pair_clip(2.0, 2.0, 4.9, duration=100.0)
        assert start == pytest.approx(2.0 - 2.0 / 9.8, abs=1e-12)
        assert end == pytest.approx(2.0 + 2.0 / 9.8, abs=1e-12)

    def test_zero_beta_degenerate(self):
        assert pair_clip(5.0, 0.0, 4.9, duration=10.0) is None

    def test_clamping(self):
        start, end = pair_clip(0.05, 1.96, 4.9, duration=10.0)  # half width 0.2
        assert start == 0.0
        assert end == pytest.approx(0.25)

    def test_thousand_random_triples_match_formula(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            t = float(rng.uniform(0, 100))
            beta = float(rng.uniform(0.01, 20))
            alpha = float(rng.uniform(0.1, 20))
            span = pair_clip(t, beta, alpha, duration=math.inf)
            # direct, independently written evaluation of the pairing formula
            expected = (t - beta / (2 * alpha), t + beta / (2 * alpha))
            assert abs(span[0] - max(0.0, expected[0])) <= 1e-9
            assert abs(span[1] - expected[1]) <= 1e-9

    def test_keyframe_times_inside_span(self):
        times = keyframe_times(3.0, 7.0, 8)
        assert len(times) == 4
        assert all(3.0 < t < 7.0 for t in times)
        assert len(keyframe_times(0.0, 100.0, 8)) == 8


class TestSimilarity:
    def test_cosine_basics(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)
        assert cosine_similarity([1.0, 2.0], [-1.0, -2.0]) == pytest.approx(-1.0)

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(ContractError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_ensemble_constant(self):
        text = np.array([1.0, 0.0])
        frames = [np.array([1.0, 0.0])] * 3
        assert ensemble_similarity(frames, text) == pytest.approx(1.0)

    def test_ensemble_half(self):
        text = np.array([1.0, 0.0])
        frames = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert ensemble_similarity(frames, text) == pytest.approx(0.5)

    def test_ensemble_empty_rejected(self):
        with pytest.raises(ContractError):
            ensemble_similarity([], np.array([1.0, 0.0]))

    def test_ensemble_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            d = int(rng.integers(2, 10))
            frames = [rng.standard_normal(d) for _ in range(n)]
            text = rng.standard_normal(d)
            # independent pure-python recomputation
            total = 0.0
            for f in frames:
                dot = sum(a * b for a, b in zip(text, f))
                norm_t = math.sqrt(sum(a * a for a in text))
                norm_f = math.sqrt(sum(b * b for b in f))
                total += dot / (norm_t * norm_f)
            assert abs(ensemble_similarity(frames, text) - total / n) <= 1e-12


class FixedProvider:
    """Maps specific items to fixed vectors; everything else is orthogonal filler."""

    def __init__(self, mapping, dim=4):
        self.mapping = mapping
        self.dim = dim

    def embed(self, kind, items):
        filler = [1.0] + [0.0] * (self.dim - 1)
        return [np.asarray(self.mapping.get(item, filler)) for item in items]


class TestSelection:
    def test_single_candidate(self):
        frames = [np.array([1.0, 0.0])]
        provider = FixedProvider({}, dim=2)
        idx, _ = select_best_candidate(frames, provider.embed("text", ["only"]))
        assert idx == 0

    def test_engineered_third_candidate_wins(self):
        frames = [np.array([0.0, 0.0, 1.0, 0.0])]
        mapping = {
            "c0": [1.0, 0.0, 0.0, 0.0],
            "c1": [0.0, 1.0, 0.0, 0.0],
            "c2": [0.0, 0.0, 1.0, 0.0],
            "c3": [0.0, 0.5, 0.5, 0.0],
            "c4": [1.0, 0.0, -1.0, 0.0],
        }
        provider = FixedProvider(mapping)
        cands = ["c0", "c1", "c2", "c3", "c4"]
        idx, score = select_best_candidate(frames, provider.embed("text", cands))
        assert idx == 2 and score == pytest.approx(1.0)

    def test_tie_breaks_to_lowest_index(self):
        frames = [np.array([1.0, 0.0])]
        provider = FixedProvider({"a": [1.0, 0.0], "b": [1.0, 0.0]}, dim=2)
        idx, _ = select_best_candidate(frames, provider.embed("text", ["a", "b"]))
        assert idx == 0

    def test_matches_exhaustive_argmax_all_sizes(self):
        mock = MockEmbedder(dim=8)
        frames = mock.embed("frame", [f"f{i}" for i in range(3)])
        pool = mock.embed("text", [f"candidate text {i}" for i in range(5)])
        for size in range(1, 6):
            cands = pool[:size]
            idx, score = select_best_candidate(frames, cands)
            scores = [ensemble_similarity(frames, c) for c in cands]
            assert idx == int(np.argmax(scores))
            assert score == max(scores)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            select_best_candidate([np.array([1.0, 0.0])], [])


class TestStage2Filter:
    # build_dataset stores select_best_candidate's score of the chosen plan in sim_plan
    def make_clip(self, sim_plan):
        return ClipRecord("v", 0.0, 1.0, "C opens a drawer",
                          chosen_plan="Task: t\nPlan: p\nActions:\n1. open(drawer)",
                          sim_plan=sim_plan)

    def test_threshold_extremes(self):
        mock = MockEmbedder(dim=8)
        frames = mock.embed("frame", ["f"])
        caption_embed, plan_embed = mock.embed("text", ["C opens a drawer", "plan"])
        clip = self.make_clip(ensemble_similarity(frames, plan_embed))
        assert stage2_filter(clip, -1.0, frames, caption_embed) is True
        assert stage2_filter(clip, 1.0 - 1e-12, frames, caption_embed) is False

    def test_conjunction_semantics(self):
        frames = [np.array([1.0, 0.0, 0.0])]
        caption_embed = np.array([0.8, 0.6, 0.0])
        clip = self.make_clip(0.3)
        kept = stage2_filter(clip, 0.5, frames, caption_embed)
        assert clip.sim_caption == pytest.approx(0.8)
        assert clip.sim_plan == 0.3
        assert kept is False

    def test_missing_plan_rejected(self):
        clip = ClipRecord("v", 0.0, 1.0, "caption")
        vector = np.array([1.0, 0.0])
        with pytest.raises(ContractError):
            stage2_filter(clip, 0.0, [vector], vector)


class TestConfig:
    @pytest.mark.parametrize(
        "field", ["min_words", "unsure_tag", "excluded_scenarios", "candidates_per_prompt",
                  "keyframes_per_clip", "embed_dim"],
    )
    def test_constants_cannot_be_set(self, field):
        with pytest.raises(TypeError, match=field):
            PipelineConfig(**{field: getattr(PipelineConfig, field)})


FIXTURE_NARRATIONS = [
    narr("va", 2.0, "C opens a drawer"),
    narr("va", 5.0, "C picks up a cup"),
    narr("va", 9.0, "C washes a plate in the sink"),
    narr("va", 12.0, "C washes #unsure in sink"),
    narr("vb", 1.0, "C cuts a carrot with a knife"),
    narr("vb", 4.0, "opens door"),
    narr("vb", 8.0, "C puts a book on the shelf"),
    narr("vc", 3.0, "C folds a shirt"),
    narr("vd", 2.0, "C turns on the tap"),
    narr("vd", 6.0, "C grabs a towel"),
]
FIXTURE_META = [
    meta("va", 20.0),
    meta("vb", 15.0, "workshop"),
    meta("vc", 10.0),
    meta("vd", 12.0, "garden"),
    meta("ve", 9.0, "walking"),
]


@pytest.fixture
def fixture_paths(tmp_path):
    write_jsonl(tmp_path / "narrations.jsonl", FIXTURE_NARRATIONS)
    write_jsonl(tmp_path / "meta.jsonl", FIXTURE_META)
    return tmp_path / "narrations.jsonl", tmp_path / "meta.jsonl"


class TestBuildDataset:
    def run(self, paths, out, tau=-1.0, seed=0):
        cfg = PipelineConfig(similarity_threshold=tau)
        return build_dataset(
            paths[0], paths[1], cfg, MockEmbedder(dim=16),
            SyntheticPlanGenerator(), out, seed=seed,
        )

    def test_outputs_exist_and_rows_sorted(self, fixture_paths, tmp_path):
        out = tmp_path / "out"
        summary = self.run(fixture_paths, out)
        rows = [json.loads(l) for l in (out / "dataset.jsonl").read_text().splitlines()]
        assert summary["kept_count"] == len(rows) > 0
        keys = [(r["video_id"], r["start_sec"]) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r["actions"] and all(a["verb"] for a in r["actions"])
            assert -1.0 <= r["sim_caption"] <= 1.0
            assert -1.0 <= r["sim_plan"] <= 1.0

    def test_byte_identical_across_runs(self, fixture_paths, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        self.run(fixture_paths, out1, tau=0.0, seed=7)
        self.run(fixture_paths, out2, tau=0.0, seed=7)
        for name in ["dataset.jsonl", "vqa.jsonl", "stats.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_stats_structure(self, fixture_paths, tmp_path):
        summary = self.run(fixture_paths, tmp_path / "out")
        assert set(summary["drop_fractions"]) == {"scenario", "missing", "short", "unsure"}
        assert summary["alpha"] > 0
        assert summary["drop_fractions"]["unsure"] > 0
        assert summary["single_narration_videos"] == 1  # vc

    def test_tau_monotonicity_grid(self, fixture_paths, tmp_path):
        kept_sets = []
        for i, tau in enumerate(np.linspace(-1.0, 1.0, 11)):
            out = tmp_path / f"grid{i}"
            self.run(fixture_paths, out, tau=float(tau))
            rows = [json.loads(l) for l in (out / "dataset.jsonl").read_text().splitlines()]
            kept_sets.append({(r["video_id"], r["start_sec"]) for r in rows})
        for smaller_tau, larger_tau in zip(kept_sets, kept_sets[1:]):
            assert larger_tau.issubset(smaller_tau)

    def test_vqa_rows_reference_kept_clips(self, fixture_paths, tmp_path):
        out = tmp_path / "out"
        self.run(fixture_paths, out)
        dataset_keys = {
            (r["video_id"], r["start_sec"])
            for r in map(json.loads, (out / "dataset.jsonl").read_text().splitlines())
        }
        for row in map(json.loads, (out / "vqa.jsonl").read_text().splitlines()):
            assert (row["video_id"], row["start_sec"]) in dataset_keys
            assert row["question"] and row["answer"]

    # sha256 of dataset.jsonl, vqa.jsonl and stats.json for the fixture at seed 3 with
    # MockEmbedder(dim=16) and SyntheticPlanGenerator: how clips are batched for
    # embedding must not move a byte of the outputs
    PINNED = {
        -1.0: ("869bc4294c1d82a97638b55cfd89cbe5f4ca45c20fcc8c9936306a78ad8debb4",
               "f4e7c6d84e6d734f7a8652d80e83ce9496a5899ba6a49f7508be737fb9ed8bf5",
               "0bc852ba359b4dd1cfa5d19f521a02925aba553fa1412e59c56a9f1148ab6053"),
        0.0: ("32ec69597911869a7f7437e36ff4d613ed895e7eb0f4927f00b3301c995a62f5",
              "83e7ce290d600376cda81938431f9472b4fcd6a59fbe851dd7882dc0740d902a",
              "40b4c6fcc84bbd93fbe5802a122d6bd174565dd738ca1041d17a0131dca511d9"),
        0.1: ("bbfeddad2b4c8921c8cf485074eac56642f60b1035c63fee90c2e6bd9df9cbe3",
              "6ce7430775c651f7513772ce5f1f1605b05336fe14f660c8ee5bd7ef2c043174",
              "153c3ce12383488b61544820906724219b8795329301c84d52744c30d2223708"),
    }

    @pytest.mark.parametrize("tau, kept", [(-1.0, 8), (0.0, 3), (0.1, 2)])
    def test_outputs_match_pinned_digests(self, fixture_paths, tmp_path, tau, kept):
        out = tmp_path / "out"
        summary = self.run(fixture_paths, out, tau=tau, seed=3)
        assert summary["kept_count"] == kept and summary["stage2_dropped"] == 8 - kept
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("dataset.jsonl", "vqa.jsonl", "stats.json"))
        assert digests == self.PINNED[tau]

    def test_http_provider_byte_identical(self, fixture_paths, tmp_path, serve):
        cfg = PipelineConfig(similarity_threshold=0.0)
        remote = RemoteEmbedder(serve(MockEmbedder(dim=16)), normalize=False)
        outs = {"mock": MockEmbedder(dim=16), "http": remote}
        summaries = {
            name: build_dataset(*fixture_paths, cfg, provider, SyntheticPlanGenerator(),
                                tmp_path / name, seed=3)
            for name, provider in outs.items()
        }
        assert summaries["http"] == summaries["mock"]
        assert summaries["mock"]["kept_count"] > 0 and summaries["mock"]["stage2_dropped"] > 0
        for name in ["dataset.jsonl", "vqa.jsonl", "stats.json"]:
            assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "mock" / name).read_bytes()


class TestEmbeddingRequests:
    """A build embeds every selected clip's keyframes in one request and their texts in
    a second."""

    class LoggingProvider:
        def __init__(self):
            self.calls = []
            self.inner = MockEmbedder(dim=16)

        def embed(self, kind, items):
            self.calls.append((kind, list(items)))
            return self.inner.embed(kind, items)

    class LoggingGenerator:
        """Synthetic plans with the first repeated; "cup" captions raise, "drawer" ones
        give no parseable plan."""

        name = "logging"

        def __init__(self):
            self.log = []

        def generate(self, caption, count, seed_key):
            entry = {"caption": caption, "candidates": []}
            self.log.append(entry)
            if "cup" in caption:
                raise ValueError("no plan for this caption")
            if "drawer" in caption:
                return ["no plan here"]
            plans = SyntheticPlanGenerator().generate(caption, count, seed_key)
            entry["candidates"] = plans + plans[:1]
            return entry["candidates"]

    def test_two_requests_per_build(self, fixture_paths, tmp_path):
        provider, generator = self.LoggingProvider(), self.LoggingGenerator()
        cfg = PipelineConfig(similarity_threshold=-1.0)  # every selected clip is kept
        summary = build_dataset(*fixture_paths, cfg, provider, generator, tmp_path / "out")
        selected = [entry for entry in generator.log if entry["candidates"]]
        assert len(selected) == summary["kept_count"] > 1
        assert len(generator.log) - len(selected) == summary["generator_failures"] > 0

        (frame_kind, refs), (text_kind, texts) = provider.calls
        assert (frame_kind, text_kind) == ("frame", "text")
        assert len(refs) == len(set(refs)) and len(texts) == len(set(texts))
        rows = map(json.loads, (tmp_path / "out" / "dataset.jsonl").read_text().splitlines())
        assert set(refs) == {
            frame_ref(row["video_id"], t)
            for row in rows
            for t in keyframe_times(row["start_sec"], row["end_sec"], cfg.keyframes_per_clip)
        }
        assert set(texts) == {
            text for entry in selected for text in (*entry["candidates"], entry["caption"])
        }

    def test_no_request_when_no_clip_is_selected(self, fixture_paths, tmp_path):
        provider = self.LoggingProvider()
        summary = build_dataset(*fixture_paths, PipelineConfig(), provider,
                                FixedCandidates(["no plan here"]), tmp_path / "out")
        assert summary["kept_count"] == 0 and summary["generator_failures"] > 0
        assert provider.calls == []
        assert (tmp_path / "out" / "dataset.jsonl").read_text() == ""

    def test_two_http_requests_per_build(self, fixture_paths, tmp_path, serve):
        class CountingEmbedder(MockEmbedder):
            requests = 0

            def embed(self, kind, items):
                self.requests += 1
                return super().embed(kind, items)

        served = CountingEmbedder(dim=16)
        remote = RemoteEmbedder(serve(served), normalize=False)
        summary = build_dataset(*fixture_paths, PipelineConfig(similarity_threshold=0.0),
                                remote, SyntheticPlanGenerator(), tmp_path / "out", seed=3)
        assert summary["kept_count"] + summary["stage2_dropped"] > 1
        assert served.requests == 2

    def test_failed_request_writes_nothing(self, fixture_paths, tmp_path):
        class TextDown(MockEmbedder):
            def embed(self, kind, items):
                if kind == "text":
                    raise PipelineError("embedding service unreachable after retries")
                return super().embed(kind, items)

        out = tmp_path / "out"
        out.mkdir()
        earlier = b'{"video_id": "earlier run"}\n'
        (out / "dataset.jsonl").write_bytes(earlier)
        with pytest.raises(PipelineError, match="unreachable"):
            build_dataset(*fixture_paths, PipelineConfig(), TextDown(dim=16),
                          SyntheticPlanGenerator(), out)
        assert [path.name for path in out.iterdir()] == ["dataset.jsonl"]
        assert (out / "dataset.jsonl").read_bytes() == earlier


class FixedCandidates:
    """Plan generator that returns the same candidate list for every prompt."""

    name = "fixed"

    def __init__(self, candidates):
        self.candidates = candidates

    def generate(self, caption, count, seed_key):
        return list(self.candidates)


class TestCandidateParsing:
    def run(self, paths, out, candidates):
        return build_dataset(
            paths[0], paths[1], PipelineConfig(similarity_threshold=-1.0),
            MockEmbedder(dim=16), FixedCandidates(candidates), out,
        )

    def test_unparseable_candidates_count_as_generator_failures(self, fixture_paths, tmp_path):
        summary = self.run(fixture_paths, tmp_path / "out", ["no plan here"])
        assert summary["kept_count"] == 0 and summary["generator_failures"] > 0
        assert summary["generator_failure_reasons"] == {
            "generator_raised": 0,
            "no_candidate_parsed": summary["generator_failures"],
        }

    def test_generator_errors_counted_apart_from_parse_failures(self, fixture_paths, tmp_path):
        class Raising:
            name = "raising"

            def generate(self, caption, count, seed_key):
                raise ValueError("no plan for this caption")

        paths = fixture_paths
        summary = build_dataset(
            paths[0], paths[1], PipelineConfig(similarity_threshold=-1.0),
            MockEmbedder(dim=16), Raising(), tmp_path / "out",
        )
        reasons = summary["generator_failure_reasons"]
        assert reasons["no_candidate_parsed"] == 0
        assert reasons["generator_raised"] == summary["generator_failures"] > 0
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["generator_failure_reasons"] == reasons

    def test_generator_receives_stripped_caption(self, tmp_path):
        class Recording:
            name = "recording"

            def __init__(self):
                self.captions = []

            def generate(self, caption, count, seed_key):
                self.captions.append(caption)
                return SyntheticPlanGenerator().generate(caption, count, seed_key)

        write_jsonl(tmp_path / "n.jsonl", [narr("v", 1.0, "  C opens a drawer \n"),
                                           narr("v", 3.0, "C washes a plate")])
        write_jsonl(tmp_path / "m.jsonl", [meta("v", 30.0)])
        generator = Recording()
        build_dataset(tmp_path / "n.jsonl", tmp_path / "m.jsonl", PipelineConfig(),
                      MockEmbedder(dim=16), generator, tmp_path / "out")
        assert generator.captions == ["C opens a drawer", "C washes a plate"]

    def test_programming_errors_propagate(self, fixture_paths, tmp_path):
        with pytest.raises(TypeError):
            self.run(fixture_paths, tmp_path / "out", [None])


MODEL_MODULES = {"planact.lm", "planact.sampling", "planact.prompts"}


def imported_modules(path: Path) -> set[str]:
    """Every module a source file imports or imports from, and each ``module.name`` it
    imports; relative imports resolve against ``planact``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ("planact", base)))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_curation_imports_no_model_code():
    # the curation stage plays the outside annotator: no language model runs in it
    package = Path(planact.__file__).parent
    found = {module: sorted(imported_modules(package / f"{module}.py") & MODEL_MODULES)
             for module in ("pipeline", "annotate")}
    assert found == {"pipeline": [], "annotate": []}
