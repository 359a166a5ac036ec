import hashlib
import json

import pytest

from chartloop.prompts import (
    PromptConfigError,
    PromptStyle,
    build_prompt,
    default_step_exemplars,
    linearize_table,
    shipped_prompt_text,
)
from chartloop.symbolic import SkippedTemplate, gen_questions
from chartloop.synth import random_tables
from chartloop.tables import TemplateType


def test_stepwise_prompt_matches_shipped_text_bytes():
    question = "What is the value of Oman in 2010?"
    prompt = build_prompt(PromptStyle.STEPWISE_5SHOT, question)
    shipped = shipped_prompt_text(PromptStyle.STEPWISE_5SHOT)
    assert prompt == shipped + f"Q: {question}\nA: "


def test_stepwise_prompt_shape():
    prompt = build_prompt(PromptStyle.STEPWISE_5SHOT, "Why?")
    assert prompt.startswith("Answer the following questions step by step.\n\n")
    assert prompt.endswith("Q: Why?\nA: ")
    assert prompt.count("\nQ: ") == 6  # five exemplars plus the live question


def test_default_exemplars_alternate_roles():
    exemplars = default_step_exemplars()
    assert len(exemplars) == 5
    for exemplar in exemplars:
        assert exemplar.steps[0] == "Let's describe the figure."
        assert exemplar.steps[-1].endswith(".")
        assert "answer is" in exemplar.steps[-1]


def test_deplot_prompts_require_context(oman_samoa):
    with pytest.raises(PromptConfigError):
        build_prompt(PromptStyle.DEPLOT_1SHOT, "q")
    context = linearize_table(oman_samoa)
    prompt = build_prompt(PromptStyle.DEPLOT_1SHOT, "In which year?", context)
    assert prompt.startswith("Read the table below to answer the following questions.")
    assert prompt.rstrip().endswith("A:")
    assert context in prompt
    # The shipped exemplar block is reproduced verbatim ahead of the context.
    assert prompt.startswith(shipped_prompt_text(PromptStyle.DEPLOT_1SHOT))


def test_deplot_5shot_prompt(oman_samoa):
    context = linearize_table(oman_samoa)
    prompt = build_prompt(PromptStyle.DEPLOT_5SHOT, "q?", context)
    assert prompt.startswith("Read the table to answer the following question.")
    assert prompt.endswith(f"{context}\nQ: q?\nA: ")


def test_stepwise_rejects_context(oman_samoa):
    with pytest.raises(PromptConfigError):
        build_prompt(PromptStyle.STEPWISE_5SHOT, "q", linearize_table(oman_samoa))


def test_prompt_bytes_are_pinned():
    """Every style's prompts for the generated questions of 40 synthetic
    tables, and the stepwise exemplars, hash to fixed digests: a prompt that
    changes by one byte loses a server's cached prefix."""
    digest = hashlib.sha256()
    for table in random_tables(0, 40):
        context = linearize_table(table)
        for template in TemplateType:
            try:
                generated = gen_questions(table, template, 0, n=2)
            except SkippedTemplate:
                continue
            for qa, _ in generated:
                for style in PromptStyle:
                    table_text = None if style is PromptStyle.STEPWISE_5SHOT else context
                    prompt = build_prompt(style, qa.question, table_text)
                    digest.update(prompt.encode("utf-8") + b"\0")
    assert digest.hexdigest() == (
        "8a2161dc9b6b03d087ec33321bc1ade5aac6c7f8369ffd7ffbbcbb0d4d919434")
    exemplars = [[e.question, list(e.steps)] for e in default_step_exemplars()]
    assert hashlib.sha256(json.dumps(exemplars).encode("utf-8")).hexdigest() == (
        "5cc625bd19e255c9bc2832335091636a6cd34fcc7aa2a40ff8f19107f4500d46")


def test_linearize_multi_series(oman_samoa):
    text = linearize_table(oman_samoa)
    lines = text.split("\n")
    assert lines[0] == "Header: Entity | 2008 | 2009 | 2010 | 2011 | 2012 | 2013 | 2014"
    assert lines[1].startswith("Row 1: Oman | 183.88 | 233.80 | 210.69")
    assert len(lines) == 3


def test_linearize_single_series(segments):
    text = linearize_table(segments)
    assert text == (
        "Header: Characteristic | Value\n"
        "Row 1: Decreased | 81.00\n"
        "Row 2: No impact | 16.00\n"
        "Row 3: Increased | 3.00"
    )
