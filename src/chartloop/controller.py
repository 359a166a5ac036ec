"""The interleaved generation loop.

One episode grows a single text sequence.  It starts as the prompt style's
shipped prefix (plus the linearized table for the DePlot styles) and the
question stub; the reasoner completes up to the end-of-line stop, the
completed line is parsed, atomic queries are dispatched to the reader,
and the first line of the reader's answer is spliced back before resuming.
A hard cap on protocol-line decisions bounds the loop regardless of backend
behavior.  Self-consistency runs at most N episodes at a sampling
temperature, stopping once the vote is decided, and majority-votes their
finals by normalized form.  Self-consistency samples reasoning paths, not
observations: within one question each distinct query line goes to the reader
once and the samples share its answer, whatever the reader.  The built-in
readers (``TableOracle``, ``HttpReader``) read through the same one-chart
memo, ``backends.ChartReads``, for as long as they read one chart, so the
questions of a chart asked one after another share its answers too, and a
reader server that samples gets one draw per line per chart.  On the other
side, ``SymbolicReasoner`` keeps two bounded LRU caches keyed by text, plans
by question and parses by reader line, which worker threads share without a
lock (a race costs an extra parse): the questions of a chart share the
parses of its lines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from .backends import BackendError, ChartReads, ReaderBackend, ReasonerBackend
from .evalkit import majority_vote, vote_decided, vote_key
from .prompts import PromptStyle, build_prompt, linearize_table
from .protocol import AtomicQuery, parse_step
from .tables import (
    ChartTable,
    ReasoningTrace,
    Step,
    StepRole,
    Termination,
    Value,
    validate_trace,
)

# A protocol line ends at the first newline: a reasoner that ignores the stop
# request, or a reader that answers in several lines, is cut there.
STOP_MARKER = "\n"
MAX_TOKENS_PER_SEGMENT = 256


@dataclass(frozen=True)
class EpisodeConfig:
    max_steps: int = 8
    temperature: float = 0.0
    prompt_style: PromptStyle = PromptStyle.STEPWISE_5SHOT

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass(frozen=True)
class SelfConsistencyConfig:
    # At most this many episodes, stopping once the vote is decided.
    n_samples: int = 1
    temperature: float = 0.4

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


def run_episode(
    question: str,
    chart_ref: str,
    reasoner: ReasonerBackend,
    reader: ReaderBackend,
    config: EpisodeConfig = EpisodeConfig(),
    context_table: Optional[ChartTable] = None,
) -> ReasoningTrace:
    """Drive one reasoning episode to a conclusion or a step cap.

    The reader is invoked exactly once per query line and its answer, up to
    its first newline, is spliced back as one line.  Unparseable (empty)
    continuations terminate as parse_error; transport failures terminate as
    backend_error with the partial trace; the trace validator runs before
    returning.  A context table the prompt style does not take, or a missing
    one it needs, raises ``PromptConfigError``.
    """
    context = None if context_table is None else linearize_table(context_table)
    sequence = build_prompt(config.prompt_style, question, context)

    steps: list[Step] = []

    def finish(final: Optional[Value], termination: Termination) -> ReasoningTrace:
        trace = ReasoningTrace(tuple(steps), final, termination)
        validate_trace(trace)
        return trace

    for _ in range(config.max_steps):
        try:
            continuation = reasoner.complete(
                sequence,
                stop_markers=[STOP_MARKER],
                temperature=config.temperature,
                max_tokens=MAX_TOKENS_PER_SEGMENT,
            )
        except BackendError:
            return finish(None, Termination.BACKEND_ERROR)
        line = continuation.partition(STOP_MARKER)[0].rstrip("\r")
        if not line.strip():
            steps.append(Step(StepRole.PROTOCOL_ERROR, line))
            return finish(None, Termination.PARSE_ERROR)
        said = parse_step(line)
        if isinstance(said, Value):
            steps.append(Step(StepRole.CONCLUSION, line))
            return finish(said, Termination.CONCLUSION)
        if isinstance(said, AtomicQuery):
            steps.append(Step(StepRole.REASONER_QUERY, line))
            try:
                answer = reader.read(chart_ref, line).partition(STOP_MARKER)[0].rstrip("\r")
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
    context_table: Optional[ChartTable] = None,
) -> tuple[Optional[Value], list[ReasoningTrace]]:
    """Sample at most n episodes at the voting temperature, stopping once the
    vote is decided, and majority-vote their finals.

    Episodes are drawn one at a time until the samples still to draw could
    not change the winning class (``evalkit.vote_decided``), so agreeing
    samples at n=5 stop after 3.  An episode that produced no final casts no
    vote but uses up a sample; if every episode failed the vote is None (a
    no-answer verdict).  The class is the one the full n would elect, but its
    raw form is the smallest among the samples drawn: ``7.0, 7.0, 7.0`` stops
    and returns ``7.0`` where two more ``7`` would have returned ``7``.

    The episodes read through a ``ChartReads`` memo that lives for this
    call, on the one chart it reads: each distinct query line reaches the
    reader once, and the samples share its answer.
    """
    episode_config = replace(config, temperature=sc.temperature)
    reader = ChartReads(reader.read)
    traces: list[ReasoningTrace] = []
    counts: Counter[str] = Counter()
    for remaining in range(sc.n_samples - 1, -1, -1):
        trace = run_episode(question, chart_ref, reasoner, reader, episode_config,
                            context_table=context_table)
        traces.append(trace)
        if trace.final is not None:
            counts[vote_key(trace.final)] += 1
        if vote_decided(counts, remaining):
            break
    finals = [t.final for t in traces if t.final is not None]
    return majority_vote(finals), traces
