"""The parse stack is bounded by nesting, not by the length of a list.

Every list rule of the shipped grammar is left-recursive, ``X -> X [sep]
item``, so each item is reduced onto the list as soon as it ends and a list
of any length holds one stack entry.  The trace prints the whole stack in
its ``pile`` column on every row, so the column is linear in the number of
rows.  Parentheses and ``\\pset`` chains still nest, by design: each level
is one more entry until it closes, as in any LR parser.
"""
from __future__ import annotations

from types import SimpleNamespace

import pytest

from ozcheck.lexer import tokenize
from ozcheck.ozgrammar import object_z_grammar, oz_parse_table, parse_spec
from ozcheck.parser import ParseError

from conftest import CORPUS
from test_earley import mutated_sources


class DepthSink:
    """A ``row`` sink that keeps the most stack entries of any row and the
    characters of every row's ``pile`` cell."""

    def __init__(self) -> None:
        self.depth = self.pile = 0

    def row(self, stack: str, remaining: str, tail: str) -> None:
        # each entry's state ends in "]" after a digit; the symbol "]" has a
        # blank before it
        self.depth = max(self.depth, stack.count("]") - stack.count(" ]"))
        self.pile += len(stack)


def traced(*sources: str) -> DepthSink:
    """The sink after driving each source, a syntax error ending its rows."""
    sink = DepthSink()
    for source in sources:
        try:
            parse_spec(tokenize(source), sink)
        except ParseError:
            pass
    return sink


def state(body: str) -> str:
    """One class whose state schema is ``body``."""
    return (f"\\begin{{class}} {{ A }} \\begin{{state}} {body} \\end{{state}} "
            "\\end{class}\n")


# Each list shape at n items.
SHAPES = {
    "declarations": lambda n: state(" \\\\ ".join(f"x{i} : \\nat" for i in range(n))),
    "classes": lambda n: "".join(
        f"\\begin{{class}} {{ C{i} }} \\begin{{state}} x : \\nat \\end{{state}} "
        "\\end{class}\n" for i in range(n)),
    "visibility names": lambda n: (
        "\\begin{class} { A } "
        f"\\visibility ( {' , '.join(f'v{i}' for i in range(n))} ) "
        "\\begin{state} v : \\nat \\end{state} \\end{class}\n"),
    "delta names": lambda n: (
        "\\begin{class} { A } \\begin{state} v : \\nat \\end{state} "
        f"\\begin{{op}} {{ Op }} \\Delta ( {' , '.join(f'v{i}' for i in range(n))} ) "
        "\\end{op} \\end{class}\n"),
    "cross parts": lambda n: state("x : " + " \\cross ".join(["\\nat"] * n)),
    "predicate lines": lambda n: state(
        "x : \\nat \\ST " + " \\\\ ".join(f"x = {i}" for i in range(n))),
    "lseq items": lambda n: state(
        "x : \\seq \\nat \\ST x = \\lseq " + " , ".join(map(str, range(n)))
        + " \\rseq"),
}
N = 40


@pytest.fixture(scope="module")
def baseline_depth() -> int:
    """The most stack entries over the corpus and the mutated sources."""
    corpus = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.tex"))]
    return traced(*corpus, *mutated_sources()).depth


@pytest.mark.parametrize("shape", SHAPES)
def test_a_longer_list_is_no_deeper_and_its_pile_grows_linearly(shape, baseline_depth):
    short, long = traced(SHAPES[shape](N)), traced(SHAPES[shape](8 * N))
    assert short.depth == long.depth <= baseline_depth
    assert 4 * short.pile < long.pile < 9 * short.pile  # about 64x if quadratic


def test_parentheses_still_nest():
    def nested(n):
        return state("x : \\nat \\ST x = " + "( " * n + "x" + " )" * n)
    assert traced(nested(8 * N)).depth - traced(nested(N)).depth == 7 * N


def test_between_paragraphs_the_stack_is_the_paragraph_list():
    """The state that item 7 of the ROADMAP restarts a paragraph in: each
    paragraph's first token is shifted onto ``$ [0] ParagraphList [k]``,
    ``k`` the goto from state 0 on ``ParagraphList``."""
    k = oz_parse_table().action[0][object_z_grammar().symbol("ParagraphList").id] >> 2
    paragraphs = ["[ T , U ]", SHAPES["predicate lines"](3),
                  "\\begin{class} { E } \\end{class}", SHAPES["classes"](2)]
    rows = []
    parse_spec(tokenize("\n".join(paragraphs)),
               SimpleNamespace(row=lambda *r: rows.append(r)))
    shifted_onto = {remaining: stack for stack, remaining, tail in rows
                    if tail.startswith("\td")}  # one shift per position
    lexemes, starts = tokenize("\n".join(paragraphs)).lexemes, [0]
    for p in [*paragraphs[:-1], SHAPES["classes"](1)]:
        starts.append(starts[-1] + len(tokenize(p)) - 1)
    assert [shifted_onto[" ".join([*lexemes[i:-1], "$"])] for i in starts] == [
        "$ [0]", *[f"$ [0] ParagraphList [{k}]"] * 4]
