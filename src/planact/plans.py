"""Structured plan documents: free-text reasoning plus a numbered verb/argument list.

The textual form has three sections ("Task:", "Plan:"/"plans:", "Actions:"),
located case-insensitively anywhere in the text so both line-broken and inline
renderings parse.  ``render_plan`` emits the canonical line-broken form and is
the exact inverse of ``parse_plan``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ContractError, ParseError

_TASK_RE = re.compile(r"task\s*:", re.IGNORECASE)
_PLAN_RE = re.compile(r"plans?\s*:", re.IGNORECASE)
_ACTIONS_RE = re.compile(r"actions\s*:", re.IGNORECASE)
_ENTRY_SPLIT_RE = re.compile(r"(?=\b\d+\s*\.\s)")
_ENTRY_RE = re.compile(
    r"^\s*(\d+)\s*\.\s*([^()\d]+?)\s*(?:\(([^()]*)\))?\s*[.;]?\s*$", re.DOTALL
)


@dataclass
class PlanStep:
    index: int
    verb: str
    args: list[str] = field(default_factory=list)


@dataclass
class PlanDocument:
    task: str
    plan: str
    actions: list[PlanStep]

    def validate(self) -> None:
        if not self.actions:
            raise ContractError("plan document requires at least one action")
        for pos, step in enumerate(self.actions, start=1):
            if step.index != pos:
                raise ContractError(
                    f"action indices must run 1..k consecutively, found {step.index} at {pos}"
                )
            if not step.verb.strip():
                raise ContractError(f"action {pos} has an empty verb")
            if len(step.args) > 2:
                raise ContractError(f"action {pos} carries more than two arguments")


def _line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def parse_plan(text: str) -> PlanDocument:
    """Extract task, plan prose and the numbered action list from ``text``."""
    actions_m = _ACTIONS_RE.search(text)
    if actions_m is None:
        raise ParseError(
            f"no Actions section found in plan text ({len(text.splitlines())} lines scanned)"
        )
    plan_m = _PLAN_RE.search(text, 0, actions_m.start())
    task_m = _TASK_RE.search(text, 0, plan_m.start() if plan_m else actions_m.start())

    task_end = plan_m.start() if plan_m else actions_m.start()
    task = text[task_m.end() : task_end].strip() if task_m else ""
    plan = text[plan_m.end() : actions_m.start()].strip() if plan_m else ""

    body = text[actions_m.end() :]
    entries = [e for e in _ENTRY_SPLIT_RE.split(body) if e.strip()]
    if not entries:
        raise ParseError(
            f"Actions section at line {_line_of(text, actions_m.start())} lists no actions"
        )
    steps: list[PlanStep] = []
    cursor = 0
    for entry in entries:
        cursor = body.index(entry, cursor)
        m = _ENTRY_RE.match(entry)
        if m is None:
            raise ParseError(
                f"malformed action line {_line_of(text, actions_m.end() + cursor)}: "
                f"{entry.strip()!r}"
            )
        index = int(m.group(1))
        verb = " ".join(m.group(2).split())
        if not verb:
            raise ParseError(
                f"malformed action line {_line_of(text, actions_m.end() + cursor)}: "
                f"{entry.strip()!r}"
            )
        raw_args = m.group(3)
        if raw_args is None or not raw_args.strip():
            args = []
        else:
            args = [" ".join(a.split()) for a in raw_args.split(",")]
        if len(args) > 2:
            raise ParseError(
                f"action {index} has {len(args)} arguments (at most two allowed): {entry.strip()!r}"
            )
        steps.append(PlanStep(index=index, verb=verb, args=args))
    doc = PlanDocument(task=task, plan=plan, actions=steps)
    try:
        doc.validate()
    except ContractError as exc:
        raise ParseError(str(exc)) from None
    return doc


def render_plan(doc: PlanDocument) -> str:
    """Canonical text form accepted by ``parse_plan``; parse(render(doc)) == doc."""
    doc.validate()
    lines = [f"Task: {doc.task}", f"Plan: {doc.plan}", "Actions:"]
    for step in doc.actions:
        if step.args:
            lines.append(f"{step.index}. {step.verb}({', '.join(step.args)})")
        else:
            lines.append(f"{step.index}. {step.verb}")
    return "\n".join(lines)
