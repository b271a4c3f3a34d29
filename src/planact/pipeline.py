"""Narration-to-plan dataset curation.

Two cleaning stages around clip pairing and candidate generation:
rule-based narration filtering first, then ensemble-similarity filtering of
the generated plans against clip keyframes, keeping the best of the sampled
candidates per clip.

A plan generator has a ``name`` and a method ``generate(caption, count,
seed_key)`` that returns ``count`` candidate plan texts for the stripped
narration ``caption``, the same ones for the same ``seed_key``.  A clip gets no
plan for one of two reasons, counted apart: the generator raised
``ContractError`` or ``ValueError`` (``generator_raised``; any other error
propagates), or none of its candidates parsed (``no_candidate_parsed``).
``SyntheticPlanGenerator`` plays the outside annotator; no language model runs
during curation.

``build_dataset`` runs in three passes: pair, generate and parse every clip;
embed the keyframes of all clips that reached selection in one provider
request and their distinct texts in a second; then select and filter each
clip.  A build therefore sends two embedding requests however many clips it
holds, and none when no clip reaches selection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .annotate import build_vqa_pairs, synthetic_candidates
from .checkpoint import atomic_write_text, read_jsonl
from .errors import ContractError, ParseError, PipelineError, ValidationError
from .plans import PlanDocument, parse_plan
from .vocab import split_words


@dataclass
class NarrationRecord:
    video_id: str
    timestamp_sec: float
    narration: str
    scenario: str = ""


@dataclass
class VideoMeta:
    video_id: str
    duration_sec: float
    scenario: str


@dataclass
class PipelineConfig:
    similarity_threshold: float = 0.0
    # the ClassVars are constants, not settable fields
    min_words: ClassVar[int] = 3
    unsure_tag: ClassVar[str] = "#unsure"
    excluded_scenarios: ClassVar[tuple[str, ...]] = ("watching tv", "walking")
    candidates_per_prompt: ClassVar[int] = 5
    keyframes_per_clip: ClassVar[int] = 8
    embed_dim: ClassVar[int] = 16

    def __post_init__(self):
        if not -1.0 <= self.similarity_threshold <= 1.0:
            raise ContractError(
                f"similarity threshold must lie in [-1, 1], got {self.similarity_threshold}"
            )


@dataclass
class ClipRecord:
    video_id: str
    start_sec: float
    end_sec: float
    caption: str
    candidates: list[str] = field(default_factory=list)
    chosen_plan: str = ""
    chosen_doc: PlanDocument | None = None
    sim_caption: float = 0.0
    sim_plan: float = 0.0


@dataclass
class FilterStats:
    total: int = 0
    dropped_scenario: int = 0
    dropped_missing: int = 0
    dropped_short: int = 0
    dropped_unsure: int = 0

    def fractions(self) -> dict[str, float]:
        total = max(self.total, 1)
        return {
            "scenario": self.dropped_scenario / total,
            "missing": self.dropped_missing / total,
            "short": self.dropped_short / total,
            "unsure": self.dropped_unsure / total,
        }


# -- ingestion ---------------------------------------------------------------


def ingest(
    narrations_path: Path, meta_path: Path
) -> tuple[dict[str, VideoMeta], dict[str, list[NarrationRecord]], int]:
    """Group narrations per video, sorted by timestamp; orphans (no meta) are dropped.

    A narration row is keyed by ``(video_id, timestamp_sec)``; a key that
    repeats an earlier row's raises, as does a time or duration that is not
    finite or lies outside its video.  Returns (meta by video, sorted records by
    video, orphan count).
    """
    meta_rows = read_jsonl(meta_path, {"video_id": str, "duration_sec": (int, float), "scenario": str})
    metas: dict[str, VideoMeta] = {}
    for lineno, row in meta_rows:
        vid = row["video_id"]
        where = f"{meta_path}:{lineno}: video {vid}"
        if vid in metas:
            raise ValidationError(f"{meta_path}:{lineno}: duplicate meta row for video {vid}")
        duration = float(row["duration_sec"])
        if not math.isfinite(duration):
            raise ValidationError(f"{where}: non-finite duration {duration}")
        if duration <= 0:
            raise ValidationError(f"{where}: non-positive duration {duration}")
        metas[vid] = VideoMeta(vid, duration, row["scenario"])

    narr_rows = read_jsonl(
        narrations_path, {"video_id": str, "timestamp_sec": (int, float), "narration": str}
    )
    grouped: dict[str, list[NarrationRecord]] = {}
    first_line: dict[tuple[str, float], int] = {}
    orphans = 0
    for lineno, row in narr_rows:
        vid = row["video_id"]
        t = float(row["timestamp_sec"])
        where = f"{narrations_path}:{lineno}: video {vid}"
        if not math.isfinite(t):
            raise ValidationError(f"{where}: non-finite timestamp {t}")
        earlier = first_line.setdefault((vid, t), lineno)
        if earlier != lineno:
            raise ValidationError(
                f"{narrations_path}:{lineno}: narration of video {vid} at {t} s repeats "
                f"line {earlier}"
            )
        meta = metas.get(vid)
        if meta is None:
            orphans += 1
            continue
        if t < 0:
            raise ValidationError(f"{where}: negative timestamp {t}")
        if t > meta.duration_sec:
            raise ValidationError(f"{where}: timestamp {t} exceeds duration {meta.duration_sec}")
        grouped.setdefault(vid, []).append(
            NarrationRecord(vid, t, row["narration"], meta.scenario)
        )
    for records in grouped.values():
        records.sort(key=lambda r: r.timestamp_sec)
    return metas, grouped, orphans


# -- stage 1: rule filtering ----------------------------------------------------


def stage1_filter(
    grouped: dict[str, list[NarrationRecord]], cfg: PipelineConfig
) -> tuple[dict[str, list[NarrationRecord]], FilterStats]:
    """Drop whole excluded-scenario videos, then per-narration rules in fixed order:
    missing/empty text, fewer than ``min_words`` words, unsure tag."""
    stats = FilterStats()
    kept: dict[str, list[NarrationRecord]] = {}
    for vid in grouped:
        records = grouped[vid]
        stats.total += len(records)
        scenario = records[0].scenario.lower() if records else ""
        if scenario in cfg.excluded_scenarios:
            stats.dropped_scenario += len(records)
            continue
        survivors = []
        for r in records:
            text = r.narration.strip()
            if not text:
                stats.dropped_missing += 1
            elif len([w for w in split_words(text) if w.isalnum()]) < cfg.min_words:
                stats.dropped_short += 1
            elif cfg.unsure_tag in text.lower():
                stats.dropped_unsure += 1
            else:
                survivors.append(r)
        if survivors:
            kept[vid] = survivors
    return kept, stats


# -- clip pairing ------------------------------------------------------------------


def compute_beta(records: list[NarrationRecord]) -> float | None:
    """Mean gap between consecutive narration timestamps; None for fewer than two."""
    if len(records) < 2:
        return None
    times = [r.timestamp_sec for r in records]
    gaps = [b - a for a, b in zip(times, times[1:])]
    return sum(gaps) / len(gaps)


def compute_alpha(betas: list[float]) -> float:
    finite = [b for b in betas if b is not None]
    if not finite:
        raise PipelineError("no videos with at least two narrations; alpha undefined")
    return sum(finite) / len(finite)


def pair_clip(
    t: float, beta: float, alpha: float, duration: float
) -> tuple[float, float] | None:
    """Span of half-width beta / (2 alpha) around t, clamped to the video; None if degenerate."""
    if alpha <= 0:
        raise ContractError(f"alpha must be positive, got {alpha}")
    half = beta / (2.0 * alpha)
    start = max(0.0, t - half)
    end = min(duration, t + half)
    if not end > start:
        return None
    return start, end


def keyframe_times(start: float, end: float, max_frames: int) -> list[float]:
    """Uniformly spaced interior frame times: min(max_frames, ceil(span)) of them."""
    span = end - start
    n = max(1, min(max_frames, math.ceil(span)))
    return [start + (k + 0.5) * span / n for k in range(n)]


def frame_ref(video_id: str, t: float) -> str:
    return f"{video_id}@{t:.3f}"


# -- similarity --------------------------------------------------------------------


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ContractError(f"cosine operands disagree: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ContractError("cosine similarity undefined for zero vectors")
    return float(np.dot(u, v) / (nu * nv))


def ensemble_similarity(frame_embeds: list[np.ndarray], text_embed: np.ndarray) -> float:
    """Mean cosine similarity between the text and each keyframe embedding."""
    if not frame_embeds:
        raise ContractError("ensemble similarity requires at least one frame")
    return sum(cosine_similarity(text_embed, f) for f in frame_embeds) / len(frame_embeds)


def select_best_candidate(
    frame_embeds: list[np.ndarray], candidate_embeds: list[np.ndarray]
) -> tuple[int, float]:
    """Index and score of the candidate with the highest ensemble similarity; ties go to
    the lowest index."""
    if not candidate_embeds:
        raise ContractError("candidate list is empty")
    best_idx, best_score = 0, -math.inf
    for i, cand in enumerate(candidate_embeds):
        score = ensemble_similarity(frame_embeds, cand)
        if score > best_score:
            best_idx, best_score = i, score
    return best_idx, best_score


def stage2_filter(
    clip: ClipRecord, tau: float, frame_embeds: list[np.ndarray], caption_embed: np.ndarray
) -> bool:
    """Keep the clip iff both caption and chosen plan clear the similarity threshold.

    ``clip.sim_plan`` holds the chosen plan's score from ``select_best_candidate``;
    this sets ``clip.sim_caption``.
    """
    if not clip.chosen_plan:
        raise ContractError("stage-2 filtering requires a chosen plan")
    clip.sim_caption = ensemble_similarity(frame_embeds, caption_embed)
    return clip.sim_caption >= tau and clip.sim_plan >= tau


# -- candidate generation ---------------------------------------------------------


class SyntheticPlanGenerator:
    """Deterministic annotation stand-in deriving plans from the caption itself."""

    name = "synthetic"

    def generate(self, caption: str, count: int, seed_key: str) -> list[str]:
        return synthetic_candidates(caption, count, seed_key)


# -- orchestration -----------------------------------------------------------------


def _dataset_row(clip: ClipRecord) -> dict:
    doc = clip.chosen_doc
    return {
        "video_id": clip.video_id,
        "start_sec": clip.start_sec,
        "end_sec": clip.end_sec,
        "caption": clip.caption,
        "plan": doc.plan,
        "actions": [{"idx": s.index, "verb": s.verb, "args": list(s.args)} for s in doc.actions],
        "sim_caption": clip.sim_caption,
        "sim_plan": clip.sim_plan,
    }


def build_dataset(
    narrations_path: Path,
    meta_path: Path,
    cfg: PipelineConfig,
    provider,
    generator,
    out_dir: Path,
    seed: int = 0,
) -> dict:
    """Run both cleaning stages end to end; writes dataset, question and stats files.

    Output rows are merged in sorted (video_id, start_sec) order so the result
    does not depend on per-video processing order.  ``provider.embed(kind, items)``
    is called twice per build, once for all keyframes and once for all texts, and
    not at all when no clip reaches selection; the outputs are written only after
    both calls have returned, so a failed call leaves ``out_dir`` untouched.
    """
    out_dir = Path(out_dir)
    metas, grouped, orphans = ingest(narrations_path, meta_path)
    kept_records, stats = stage1_filter(grouped, cfg)

    betas = {vid: compute_beta(records) for vid, records in kept_records.items()}
    alpha = compute_alpha(list(betas.values()))

    # why a clip got no plan: the generator raised, or no candidate parsed
    failure_reasons = {"generator_raised": 0, "no_candidate_parsed": 0}
    counters = {
        "degenerate_spans": 0,
        "generator_failures": 0,
        "single_narration_videos": sum(1 for b in betas.values() if b is None),
        "stage2_dropped": 0,
    }
    # each clip that reaches selection, with its parsed candidates and keyframe refs
    selectable: list[tuple[ClipRecord, list[PlanDocument], list[str]]] = []
    for vid in sorted(kept_records):
        meta = metas[vid]
        beta = betas[vid] if betas[vid] is not None else alpha
        for record in kept_records[vid]:
            span = pair_clip(record.timestamp_sec, beta, alpha, meta.duration_sec)
            if span is None:
                counters["degenerate_spans"] += 1
                continue
            start, end = span
            caption = record.narration.strip()
            clip = ClipRecord(vid, start, end, caption)
            seed_key = f"{seed}/{vid}/{record.timestamp_sec:.6f}"
            try:
                raw = generator.generate(caption, cfg.candidates_per_prompt, seed_key)
            except (ContractError, ValueError):
                failure_reasons["generator_raised"] += 1
                continue
            parsed: list[tuple[str, PlanDocument]] = []
            for cand in raw:
                try:
                    parsed.append((cand, parse_plan(cand)))
                except ParseError:
                    continue
            if not parsed:
                failure_reasons["no_candidate_parsed"] += 1
                continue
            clip.candidates = [text for text, _ in parsed]
            refs = [frame_ref(vid, t) for t in keyframe_times(start, end, cfg.keyframes_per_clip)]
            selectable.append((clip, [doc for _, doc in parsed], refs))

    # two requests per build: every distinct keyframe, then every distinct text (the
    # candidates and captions; a chosen plan is one of its clip's candidates)
    frame_embeds: dict[str, np.ndarray] = {}
    text_embeds: dict[str, np.ndarray] = {}
    if selectable:
        refs = list(dict.fromkeys(ref for _, _, clip_refs in selectable for ref in clip_refs))
        frame_embeds = dict(zip(refs, provider.embed("frame", refs)))
        texts = list(dict.fromkeys(
            text for clip, _, _ in selectable for text in (*clip.candidates, clip.caption)
        ))
        text_embeds = dict(zip(texts, provider.embed("text", texts)))

    clips: list[ClipRecord] = []
    for clip, docs, refs in selectable:
        frames = [frame_embeds[ref] for ref in refs]
        idx, clip.sim_plan = select_best_candidate(frames, [text_embeds[c] for c in clip.candidates])
        clip.chosen_plan = clip.candidates[idx]
        clip.chosen_doc = docs[idx]
        if stage2_filter(clip, cfg.similarity_threshold, frames, text_embeds[clip.caption]):
            clips.append(clip)
        else:
            counters["stage2_dropped"] += 1

    clips.sort(key=lambda c: (c.video_id, c.start_sec))
    dataset_lines = [json.dumps(_dataset_row(c)) for c in clips]
    atomic_write_text(out_dir / "dataset.jsonl", "\n".join(dataset_lines) + ("\n" if dataset_lines else ""))

    vqa_lines = []
    for clip in clips:
        for pair in build_vqa_pairs(clip.caption):
            vqa_lines.append(
                json.dumps(
                    {
                        "video_id": clip.video_id,
                        "start_sec": clip.start_sec,
                        "end_sec": clip.end_sec,
                        "question": pair["question"],
                        "answer": pair["answer"],
                    }
                )
            )
    atomic_write_text(out_dir / "vqa.jsonl", "\n".join(vqa_lines) + ("\n" if vqa_lines else ""))

    counters["generator_failures"] = sum(failure_reasons.values())
    summary = {
        "drop_fractions": stats.fractions(),
        "alpha": alpha,
        "kept_count": len(clips),
        "narrations_total": stats.total,
        "orphans": orphans,
        **counters,
        "generator_failure_reasons": failure_reasons,
    }
    atomic_write_text(out_dir / "stats.json", json.dumps(summary, indent=1) + "\n")
    return summary
