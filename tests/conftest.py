from __future__ import annotations

import sys
from pathlib import Path

import pytest

from ozcheck.lexer import terminal_of

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

from oracles import trace_oracle  # noqa: E402

CORPUS = TESTS_DIR / "corpus"

# The grammar fragment used by the table-construction examples: the two
# paragraph-list productions, the two class-paragraph productions, the
# heading, and minimal fillers for the optional section nonterminals.
FRAGMENT = [
    ("ParagraphList", ["Paragraph"]),
    ("ParagraphList", ["Paragraph", "ParagraphList"]),
    (
        "Paragraph",
        ["\\begin{class}", "{", "ClassHeading", "}", "\\end{class}"],
    ),
    (
        "Paragraph",
        [
            "\\begin{class}",
            "{",
            "ClassHeading",
            "}",
            "Visibility",
            "\\inherit",
            "Inheritance",
            "\\endinherit",
            "StateSchema",
            "InitialSchema",
            "Operations",
            "\\end{class}",
        ],
    ),
    ("ClassHeading", ["Word"]),
    ("Visibility", []),
    ("Inheritance", ["Word"]),
    ("StateSchema", []),
    ("InitialSchema", []),
    ("Operations", []),
]


@pytest.fixture(scope="session")
def corpus() -> Path:
    return CORPUS


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def queue_source() -> str:
    return corpus_text("queue.tex")


def naive_trace_rows(steps, tokens, g) -> list[tuple[str, str]]:
    """The trace oracle's (stack, remaining) rows for a parse of ``tokens``."""
    return trace_oracle(
        steps,
        [(p.head.name, [s.name for s in p.body]) for p in g.productions],
        [terminal_of(t, g).name for t in tokens],
        [t.lexeme for t in tokens],
    )
