"""The interleaved generation loop.

One episode grows a single text sequence: the reasoner completes up to an
end-of-line stop marker, the completed line is classified, atomic queries are
dispatched to the reader, and the reader's sentence is spliced back verbatim
before generation resumes.  A hard cap on protocol-line decisions bounds the
loop regardless of backend behavior.  Self-consistency runs several episodes
at a sampling temperature and majority-votes their finals by normalized form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .backends import BackendError, ReaderBackend, ReasonerBackend
from .evalkit import majority_vote
from .prompts import PromptStyle, StepExemplar, build_prompt, linearize_table
from .protocol import StepKind, parse_step
from .tables import (
    ChartTable,
    ReasoningTrace,
    Step,
    StepRole,
    Termination,
    Value,
    validate_trace,
)

STOP_MARKERS = ("\n",)


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 8
    temperature: float = 0.0
    max_tokens_per_segment: int = 256
    prompt_style: PromptStyle = PromptStyle.STEPWISE_5SHOT

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class SelfConsistencyConfig:
    n_samples: int = 1
    temperature: float = 0.4

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


def truncate_at_markers(text: str, markers: Sequence[str]) -> str:
    """Client-side stop: cut the continuation at the first marker occurrence."""
    cut = len(text)
    for marker in markers:
        index = text.find(marker)
        if index >= 0:
            cut = min(cut, index)
    return text[:cut]


def run_episode(
    question: str,
    chart_ref: str,
    reasoner: ReasonerBackend,
    reader: ReaderBackend,
    config: EpisodeConfig = EpisodeConfig(),
    exemplars: Optional[Sequence[StepExemplar]] = None,
    context_table: Optional[ChartTable] = None,
) -> ReasoningTrace:
    """Drive one reasoning episode to a conclusion or a step cap.

    The reader is invoked exactly once per query line and its answer is
    spliced back verbatim.  Unparseable (empty) continuations terminate as
    parse_error; transport failures terminate as backend_error with the
    partial trace; the trace validator runs before returning.
    """
    context = None
    if config.prompt_style is not PromptStyle.STEPWISE_5SHOT:
        if context_table is None:
            raise ValueError(f"{config.prompt_style.value} episodes need a context table")
        context = linearize_table(context_table)
    sequence = build_prompt(config.prompt_style, exemplars, question, context)

    steps: list[Step] = []

    def finish(final: Optional[Value], termination: Termination) -> ReasoningTrace:
        trace = ReasoningTrace(tuple(steps), final, termination)
        validate_trace(trace)
        return trace

    for _ in range(config.max_steps):
        try:
            continuation = reasoner.complete(
                sequence,
                stop_markers=list(STOP_MARKERS),
                temperature=config.temperature,
                max_tokens=config.max_tokens_per_segment,
            )
        except BackendError:
            return finish(None, Termination.BACKEND_ERROR)
        line = truncate_at_markers(continuation, STOP_MARKERS).rstrip("\r")
        if not line.strip():
            steps.append(Step(StepRole.PROTOCOL_ERROR, line))
            return finish(None, Termination.PARSE_ERROR)
        parsed = parse_step(line)
        if parsed.kind is StepKind.CONCLUSION:
            steps.append(Step(StepRole.CONCLUSION, line))
            return finish(parsed.final, Termination.CONCLUSION)
        if parsed.kind is StepKind.QUERY:
            steps.append(Step(StepRole.REASONER_QUERY, line))
            try:
                answer = reader.read(chart_ref, line)
            except BackendError:
                return finish(None, Termination.BACKEND_ERROR)
            steps.append(Step(StepRole.READER_ANSWER, answer))
            sequence += line + "\n" + answer + "\n"
        else:
            steps.append(Step(StepRole.PROTOCOL_ERROR, line))
            sequence += line + "\n"
    return finish(None, Termination.MAX_STEPS)


def run_self_consistency(
    question: str,
    chart_ref: str,
    reasoner: ReasonerBackend,
    reader: ReaderBackend,
    config: EpisodeConfig,
    sc: SelfConsistencyConfig,
    exemplars: Optional[Sequence[StepExemplar]] = None,
    context_table: Optional[ChartTable] = None,
) -> tuple[Optional[Value], list[ReasoningTrace]]:
    """Sample n episodes at the voting temperature and majority-vote finals.

    Episodes that produced no final answer are excluded before voting; if
    every episode failed the vote is None (a no-answer verdict).
    """
    episode_config = replace(config, temperature=sc.temperature)
    traces = [
        run_episode(question, chart_ref, reasoner, reader, episode_config,
                    exemplars=exemplars, context_table=context_table)
        for _ in range(sc.n_samples)
    ]
    finals = [t.final for t in traces if t.final is not None]
    return majority_vote(finals), traces
