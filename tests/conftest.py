from __future__ import annotations

import sys
from pathlib import Path

import pytest

from ozcheck.lexer import terminal_of, tokenize
from ozcheck.ozgrammar import build_ast, object_z_grammar, oz_parse_table, parse_spec
from ozcheck.parser import parse

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


def same_ast(a, b) -> bool:
    """``==`` that also compares what the AST's ``==`` ignores: the tokens
    that are the source positions and the tokens of predicate lines, by
    walking every named tuple through its own field names.  Loops, never
    recurses."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if x.__class__ is not y.__class__:
            return False
        names = getattr(x, "_fields", None)  # AST nodes and tokens
        if names is not None:
            pending.extend((getattr(x, f), getattr(y, f)) for f in names)
        elif x.__class__ is tuple:
            if len(x) != len(y):
                return False
            pending.extend(zip(x, y))
        elif x != y:
            return False
    return True


def ast_both_ways(source: str):
    """The AST built on reduce, as ``check_text`` builds it, after checking
    that ``build_ast`` gives the same one from the parse tree, whose
    frontier it drives again."""
    tokens = tokenize(source)
    spec = parse_spec(tokens)
    assert same_ast(spec, build_ast(parse(tokens, oz_parse_table(), object_z_grammar())))
    return spec
