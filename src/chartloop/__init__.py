"""chartloop: a dual-backend harness for multi-step chart question answering.

A text reasoner and a chart reader alternate over a small atomic-query
protocol; this package provides the protocol, a ground-truth reader, a
rule-based reasoner with gold answers read off the tables, the interleaving
controller with self-consistency voting, relaxed-accuracy evaluation, and
the training-data exporters.
"""

from .backends import BackendError, HttpReader, HttpReasoner, ScriptedReasoner
from .controller import (
    EpisodeConfig,
    SelfConsistencyConfig,
    run_episode,
    run_self_consistency,
)
from .evalkit import (
    EvalRecord,
    EvalReport,
    evaluate_run,
    majority_vote,
    make_record,
    normalize_answer,
    relaxed_match,
)
from .oracle import TableOracle, describe, extract_group, extract_point, resolve_entity
from .prompts import PromptStyle, build_prompt, default_step_exemplars, linearize_table
from .protocol import (
    AtomicQuery,
    ReaderAnswer,
    format_query,
    format_reader_answer,
    parse_reader_answer,
    parse_step,
)
from .symbolic import (
    QuestionPlan,
    Reduce,
    SymbolicReasoner,
    compute_gold,
    decompose,
    deduce,
    gen_questions,
)
from .tables import (
    ChartTable,
    QAInstance,
    ReasoningTrace,
    SeriesLabel,
    TemplateType,
    Value,
    bucket_length,
    underlying_length,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicQuery",
    "BackendError",
    "ChartTable",
    "EpisodeConfig",
    "EvalRecord",
    "EvalReport",
    "HttpReader",
    "HttpReasoner",
    "PromptStyle",
    "QAInstance",
    "QuestionPlan",
    "ReaderAnswer",
    "ReasoningTrace",
    "Reduce",
    "ScriptedReasoner",
    "SelfConsistencyConfig",
    "SeriesLabel",
    "SymbolicReasoner",
    "TableOracle",
    "TemplateType",
    "Value",
    "bucket_length",
    "build_prompt",
    "compute_gold",
    "decompose",
    "deduce",
    "default_step_exemplars",
    "describe",
    "evaluate_run",
    "extract_group",
    "extract_point",
    "format_query",
    "format_reader_answer",
    "gen_questions",
    "linearize_table",
    "majority_vote",
    "make_record",
    "normalize_answer",
    "parse_reader_answer",
    "parse_step",
    "relaxed_match",
    "resolve_entity",
    "run_episode",
    "run_self_consistency",
    "underlying_length",
]
