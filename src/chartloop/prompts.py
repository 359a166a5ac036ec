"""Few-shot prompt construction for both prompting regimes.

Each prompt style is one shipped prefix file in the package data, read once
per process.  The stepwise style interleaves queries and reader answers line
by line; the two DePlot baseline styles put a linearized table between their
prefix and the question and answer with plain chain of thought.  A new prompt
is a new ``PromptStyle`` with its own shipped file.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Optional

from .protocol import QUESTION_STUB
from .tables import ChartTable


class PromptStyle(str, Enum):
    STEPWISE_5SHOT = "stepwise_5shot"
    DEPLOT_1SHOT = "deplot_1shot"
    DEPLOT_5SHOT = "deplot_5shot"


class PromptConfigError(ValueError):
    """Raised when a style gets a context table it forbids or lacks one it needs."""


# What follows the linearized table in each DePlot style, as in its exemplars.
_CONTEXT_END = {PromptStyle.DEPLOT_1SHOT: "\n\n", PromptStyle.DEPLOT_5SHOT: "\n"}


@dataclass(frozen=True)
class StepExemplar:
    """One worked example: a question plus its alternating step lines."""

    question: str
    steps: tuple[str, ...]


def _data_text(name: str) -> str:
    return resources.files("chartloop.data").joinpath(name).read_text(encoding="utf-8")


@functools.cache
def shipped_prompt_text(style: PromptStyle) -> str:
    """The stored prompt prefix for a style (everything before the question)."""
    return _data_text(f"{style.value}.txt")


def default_step_exemplars() -> tuple[StepExemplar, ...]:
    """The five worked examples of the shipped stepwise prefix.

    The prefix is a header paragraph, then one "Q: ...\\nA: ..." block per
    exemplar, blocks separated by a blank line.
    """
    blocks = shipped_prompt_text(PromptStyle.STEPWISE_5SHOT).strip("\n").split("\n\n")[1:]
    exemplars = []
    for block in blocks:
        stub, _, steps = block.partition(QUESTION_STUB.tail)
        exemplars.append(StepExemplar(stub.removeprefix(QUESTION_STUB.head),
                                      tuple(steps.split("\n"))))
    return tuple(exemplars)


def linearize_table(table: ChartTable) -> str:
    """Render a chart table in the baseline's Header/Row text form.

    Multi-series tables put one series per row under an Entity header;
    single-series tables put one x-label per row.
    """
    lines: list[str] = []
    if len(table.series) > 1:
        lines.append("Header: Entity | " + " | ".join(table.x_labels))
        for i, label in enumerate(table.series):
            cells = " | ".join(v.raw for v in table.cells[i])
            lines.append(f"Row {i + 1}: {label.name} | {cells}")
    else:
        lines.append(f"Header: Characteristic | {table.series[0].name}")
        for j, x in enumerate(table.x_labels):
            lines.append(f"Row {j + 1}: {x} | {table.cells[0][j].raw}")
    return "\n".join(lines)


def build_prompt(style: PromptStyle, question: str, context: Optional[str] = None) -> str:
    """The style's shipped prefix, then the context table for the DePlot
    styles, then the question stub "Q: ...\\nA: ".

    The stepwise style forbids a context table; the DePlot styles require the
    linearized table of the question's chart.
    """
    prefix = shipped_prompt_text(style)
    if style is PromptStyle.STEPWISE_5SHOT:
        if context is not None:
            raise PromptConfigError("stepwise prompts take no context table")
    elif context is None:
        raise PromptConfigError(f"{style.value} prompts require a context table")
    else:
        prefix += context + _CONTEXT_END[style]
    return prefix + QUESTION_STUB.render(question)
