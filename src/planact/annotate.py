"""Deterministic caption analysis and synthetic plan/question generation.

This module stands in for a remote annotation model: it derives a verb/object
reading of a narration caption from a fixed lexicon, then emits schema-valid
plan documents (with seeded lexical variation) and question/answer pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plans import PlanDocument, PlanStep, render_plan
from .seeding import rng_for
from .vocab import split_words

# lemma -> (third person, progressive)
_VERB_FORMS = {
    "open": ("opens", "opening"),
    "close": ("closes", "closing"),
    "pick": ("picks", "picking"),
    "put": ("puts", "putting"),
    "take": ("takes", "taking"),
    "wash": ("washes", "washing"),
    "cut": ("cuts", "cutting"),
    "lift": ("lifts", "lifting"),
    "pull": ("pulls", "pulling"),
    "push": ("pushes", "pushing"),
    "turn": ("turns", "turning"),
    "grasp": ("grasps", "grasping"),
    "pour": ("pours", "pouring"),
    "place": ("places", "placing"),
    "move": ("moves", "moving"),
    "clean": ("cleans", "cleaning"),
    "slide": ("slides", "sliding"),
    "hold": ("holds", "holding"),
    "stir": ("stirs", "stirring"),
    "wipe": ("wipes", "wiping"),
    "chop": ("chops", "chopping"),
    "peel": ("peels", "peeling"),
    "grab": ("grabs", "grabbing"),
    "carry": ("carries", "carrying"),
    "fold": ("folds", "folding"),
    "go": ("goes", "going"),
    "activate": ("activates", "activating"),
    "press": ("presses", "pressing"),
    "fetch": ("fetches", "fetching"),
    "hang": ("hangs", "hanging"),
    "throw": ("throws", "throwing"),
}

_FORM_TO_LEMMA = {
    form: lemma
    for lemma, (third, prog) in _VERB_FORMS.items()
    for form in (lemma, third, prog)
}

_PARTICLES = {"up", "down", "on", "off", "out", "to", "left", "right"}
_DETERMINERS = {"a", "an", "the", "his", "her", "its", "some", "this", "that"}
_SUBJECT_STOPWORDS = _DETERMINERS | {"is", "are", "was", "were"}
_OBJECT_STOPWORDS = {"on", "in", "at", "from", "into", "onto", "under", "near",
                     "with", "and", "then", "while"}


@dataclass
class CaptionParse:
    subject: str          # display form, e.g. "C" or "the man"
    verb: str             # lemma plus particle, e.g. "pick up"
    progressive: str      # e.g. "picking up"
    obj: str              # noun phrase, possibly empty


def analyze_caption(caption: str) -> CaptionParse | None:
    """First verb-lexicon hit plus the following noun phrase; None when no verb is found."""
    words = split_words(caption)
    verb_at = None
    lemma = None
    for i, w in enumerate(words):
        if w in _FORM_TO_LEMMA:
            verb_at, lemma = i, _FORM_TO_LEMMA[w]
            break
    if verb_at is None:
        return None
    span_end = verb_at + 1
    particle = ""
    if span_end < len(words) and words[span_end] in _PARTICLES:
        particle = words[span_end]
        span_end += 1
    verb = f"{lemma} {particle}".strip()
    progressive = f"{_VERB_FORMS[lemma][1]} {particle}".strip()

    subject_words = [w for w in words[:verb_at] if w.isalnum() and w not in _SUBJECT_STOPWORDS]
    if not subject_words:
        subject = "someone"
    elif subject_words == ["c"]:
        subject = "C"
    else:
        subject = "the " + " ".join(subject_words)

    obj_words: list[str] = []
    skipping_leading = True
    for w in words[span_end:]:
        if not w.isalnum():
            break
        if skipping_leading and w in _DETERMINERS:
            continue
        if w in _OBJECT_STOPWORDS:
            break
        skipping_leading = False
        obj_words.append(w)
    return CaptionParse(subject, verb, progressive, " ".join(obj_words))


_APPROACH_VERBS = ("reach", "move to", "approach", "go to")
_PLAN_TEMPLATES = (
    "first {approach} the {obj}, then {verb} it",
    "grasp the {obj} with the gripper and {verb} it",
    "move the gripper towards the {obj} and carefully {verb} it",
    "locate the {obj}, close the gripper on it and {verb} it",
    "bring the gripper to the {obj} and {verb} it steadily",
)
_BARE_PLAN_TEMPLATES = (
    "steer the base and {verb}",
    "adjust position and {verb} smoothly",
    "{verb} while keeping the gripper clear",
)


def synthetic_plan(caption: str, parsed: CaptionParse, rng: np.random.Generator) -> str:
    """One schema-valid plan text for ``caption``, whose reading is ``parsed``."""
    if parsed.obj:
        approach = _APPROACH_VERBS[int(rng.integers(len(_APPROACH_VERBS)))]
        template = _PLAN_TEMPLATES[int(rng.integers(len(_PLAN_TEMPLATES)))]
        plan = template.format(approach=approach, obj=parsed.obj, verb=parsed.verb)
        steps = [
            PlanStep(1, approach, [parsed.obj]),
            PlanStep(2, parsed.verb, [parsed.obj]),
        ]
    else:
        template = _BARE_PLAN_TEMPLATES[int(rng.integers(len(_BARE_PLAN_TEMPLATES)))]
        plan = template.format(verb=parsed.verb)
        steps = [PlanStep(1, parsed.verb, [])]
    doc = PlanDocument(task=caption, plan=plan, actions=steps)
    return render_plan(doc)


def synthetic_candidates(caption: str, count: int, seed_key: str) -> list[str]:
    """Deterministic list of ``count`` plan variants for one caption; empty when no
    verb/object reading exists."""
    parsed = analyze_caption(caption)
    if parsed is None:
        return []
    return [synthetic_plan(caption, parsed, rng_for("synthetic-plan", seed_key, caption, i))
            for i in range(count)]


def build_vqa_pairs(caption: str) -> list[dict[str, str]]:
    """Five question/answer pairs targeting the caption's verb and noun, or none."""
    parsed = analyze_caption(caption)
    if parsed is None or not parsed.obj:
        return []
    subj, prog, obj = parsed.subject, parsed.progressive, parsed.obj
    pairs = [
        {
            "question": f"What is the object {subj} is {prog}",
            "answer": f"The {obj}",
        },
        {
            "question": f"What operation is performed on the {obj}?",
            "answer": prog.capitalize(),
        },
        {
            "question": f"Who is {prog} the {obj}?",
            "answer": subj[0].upper() + subj[1:],
        },
        {
            "question": f"What is {subj} doing?",
            "answer": f"{prog.capitalize()} the {obj}",
        },
        {
            "question": f"Is {subj} {prog} the {obj}?",
            "answer": "Yes",
        },
    ]
    return pairs
