"""Prompt templates for plan annotation and chain-of-thought planning.

The templates are fixed strings a language model is conditioned on.  The
``egocot_annotation`` prompt ends with a one-shot worked example and the new
caption is appended below it; the ``cot`` prompt asks how to do the caption's
task under the plan schema.
"""

from __future__ import annotations

from .errors import ContractError

PLAN_QUESTION_PREFIX = "how to do the task that "

COT_SCHEMA_LINES = (
    'Task: {"task description"}\n'
    "Plan: {\"plan with chain-of-thought\"} Actions: {{\"number\"}: {'verb'}({'noun'})}."
)

COT_INSTRUCTION = (
    "Watch this video, identify the actions and devise a plan using chain-of-thought. "
    "Extract detailed actions using this schema:"
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

PROMPT_KINDS = ("cot", "egocot_annotation")


def assemble_prompt(kind: str, caption: str) -> str:
    """Instantiate the template for ``kind`` with ``caption`` substituted."""
    if not caption.strip():
        raise ContractError("caption must be non-empty")
    if kind == "cot":
        return (
            f"{COT_INSTRUCTION}\n{COT_SCHEMA_LINES}\n{PLAN_QUESTION_PREFIX}{caption}"
        )
    if kind == "egocot_annotation":
        return f"{ANNOTATION_TEMPLATE}\n\nTask: {caption}\nplans:"
    raise ContractError(f"unknown prompt kind {kind!r}; expected one of {PROMPT_KINDS}")
