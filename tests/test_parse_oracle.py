"""The one-pass parser of ``boxdot.formulas`` against the token-object parser
it replaced (``parse_oracle.py``): every text must give an equal tree from
both, or a ``ParseError`` with the same message, line and column.  Texts are
drawn from the token alphabet with deep runs past ``MAX_NESTING``, from the
sugared syntax, and taken from the formula lines of canonical proof scripts,
the corpus and ``docs/proof-scripts``, each also cut short."""

import glob
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxdot.corpus import CORPUS_SCRIPTS
from boxdot.formulas import MAX_NESTING, ParseError, parse
from boxdot.proofs import format_derivation, random_theorem

import parse_oracle
from helpers import formula_texts, sugared_texts

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "proof-scripts")


def _outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def _assert_agree(text):
    assert _outcome(parse, text) == _outcome(parse_oracle.parse, text), repr(text)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(formula_texts(), sugared_texts))
@example("")
@example("p ->\n-> q # c")
@example("p -> # c\n  ")
@example("(p\n# c")
@example("p $ (")
@example("!" * (MAX_NESTING + 1) + "$")
def test_agrees_with_oracle(text):
    _assert_agree(text)


def _script_formulas():
    scripts = [format_derivation(random_theorem(seed, 16)[0]) for seed in range(400)]
    scripts += CORPUS_SCRIPTS.values()
    for path in sorted(glob.glob(os.path.join(DOCS, "*.proof"))):
        with open(path, encoding="utf-8") as fh:
            scripts.append(fh.read())
    texts = []
    for script in scripts:
        for line in script.splitlines():
            line = line.split("#", 1)[0]
            if ":" in line:
                texts.append(line.split(":", 1)[1].split(";", 1)[0])
    return texts


def test_agrees_on_proof_script_formulas():
    texts = _script_formulas()
    assert len(texts) > 3000
    for text in texts:
        _assert_agree(text)
        _assert_agree(text.rstrip()[:-1])


def _nested_iff(levels):
    text = "p"
    for _ in range(levels):
        text = f"({text} <-> p)"
    return text


@pytest.mark.parametrize("text", [
    "!" * MAX_NESTING + "p",
    "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
    "p" + " -> p" * MAX_NESTING,
    "!" * 3000 + "p",
    "(" * 600 + "p" + ")" * 600,
    "[.]" * 400 + "p",
    "p" + " -> p" * 2000,
    " & ".join(["p"] * (MAX_NESTING // 2 + 2)),
    " | ".join(["p"] * (MAX_NESTING // 2 + 2)),
    _nested_iff(10),
    _nested_iff(11),
    _nested_iff(16),
], ids=lambda text: f"{text[:8]}..{len(text)}")
def test_agrees_at_the_nesting_bound(text):
    _assert_agree(text)
