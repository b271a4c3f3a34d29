"""Prompt templates for plan annotation, question generation and video pre-training.

The templates are fixed strings the generators are conditioned on; the
annotation and question templates end with a one-shot worked example and the
new caption is appended below it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .seeding import rng_for

PLAN_QUESTION_PREFIX = "how to do the task that "

COT_SCHEMA_LINES = (
    'Task: {"task description"}\n'
    "Plan: {\"plan with chain-of-thought\"} Actions: {{\"number\"}: {'verb'}({'noun'})}."
)

COT_INSTRUCTION = (
    "Watch this video, identify the actions and devise a plan using chain-of-thought. "
    "Extract detailed actions using this schema:"
)

# paraphrases with the same meaning as the instruction above, drawn per sample
# during video pre-training to avoid overfitting one phrasing
COT_INSTRUCTION_PARAPHRASES = (
    COT_INSTRUCTION,
    "Watch the video, recognise what is being done and devise a plan using "
    "chain-of-thought. Extract detailed actions using this schema:",
    "Look at this video, identify the actions and produce a step-by-step plan with "
    "chain-of-thought. Extract detailed actions using this schema:",
    "Observe the video, determine the actions and compose a plan using "
    "chain-of-thought. Extract detailed actions using this schema:",
    "Watch this video, find the actions and draft a plan using chain-of-thought. "
    "Extract detailed actions using this schema:",
)

ANNOTATION_TEMPLATE = (
    "You need to generate plans with chain of thought for each task, and then extract "
    "detailed actions (collocation of nouns and verbs) from the plan.\n"
    "The action can be of the following form:\n"
    "[action_name], eg., turn left;\n"
    "[action_name] argument1, eg., pick up(apple);\n"
    "[action_name] argument1 argument2, eg., put(apple, table)\n"
    "Task: pick up a cup on the table\n"
    "plans: grasp the handle of the cup with the gripper and lift it up\n"
    "Actions:\n"
    "1. grasp(handle of the cup, gripper)\n"
    "2. lift up(cup)"
)

QUESTION_TEMPLATE = (
    "Please ask some questions accroding to the verbs and nouns in the sentence.\n"
    'For example, in this sentence "a man is picking up a cup", the verb is picking up '
    'and the noun is cup, therefor questions can be "what is the object the man is '
    'picking up?" or "what operation is performed on the cup?".\n'
    "Then You need to give the answer.\n"
    "\n"
    "input: a man is picking up a cup\n"
    "question: What is the object the man is picking up\n"
    "answer: The cup"
)

PROMPT_KINDS = ("cot", "egocot_annotation", "vqa", "pretrain")


def assemble_prompt(kind: str, caption: str, rng: np.random.Generator | None = None) -> str:
    """Instantiate the template for ``kind`` with ``caption`` substituted."""
    if not caption.strip():
        raise ContractError("caption must be non-empty")
    if kind == "cot":
        return (
            f"{COT_INSTRUCTION}\n{COT_SCHEMA_LINES}\n{PLAN_QUESTION_PREFIX}{caption}"
        )
    if kind == "pretrain":
        rng = rng or rng_for("pretrain-prompt", caption)
        instruction = COT_INSTRUCTION_PARAPHRASES[
            int(rng.integers(len(COT_INSTRUCTION_PARAPHRASES)))
        ]
        return f"{instruction}\n{COT_SCHEMA_LINES}\n{PLAN_QUESTION_PREFIX}{caption}"
    if kind == "egocot_annotation":
        return f"{ANNOTATION_TEMPLATE}\n\nTask: {caption}\nplans:"
    if kind == "vqa":
        return f"{QUESTION_TEMPLATE}\n\ninput: {caption}\nquestion:"
    raise ContractError(f"unknown prompt kind {kind!r}; expected one of {PROMPT_KINDS}")
