"""ozcheck: a checker for Object Z class specifications written in LaTeX.

The package builds an SLR(1) parse table from a declared grammar, parses
whitespace-separated LaTeX tokens with a traced shift-reduce automaton that
builds the AST of class paragraphs on reduce, and enforces the semantic
constraints with three-level (class, block, symbol) diagnostics.  The
derivation tree is built only on request (:func:`parse`), and
:func:`build_ast` drives its frontier to the same AST.
"""
from __future__ import annotations

from . import cli
from .diagnostics import Diagnostic, render_human, render_machine
from .lexer import LexError, UnknownTokenError, tokenize
from .ozgrammar import build_ast, object_z_grammar, oz_parse_table, parse_spec
from .parser import ParseError, parse, parse_with_trace
from .semantics import analyze

__version__ = "0.1.0"


def check_text(source: str, lenient: bool = False) -> list[Diagnostic]:
    """Check one source text and return its diagnostics.

    Lexical and syntax failures yield a single diagnostic; otherwise the
    parsed specification is analyzed semantically.
    """
    return cli.check_source(source, lenient)


def check_file(path: str, lenient: bool = False) -> list[Diagnostic]:
    """Check one file; see :func:`check_text`."""
    with open(path, encoding="utf-8-sig") as fh:
        return check_text(fh.read(), lenient=lenient)


__all__ = [
    "Diagnostic",
    "LexError",
    "ParseError",
    "UnknownTokenError",
    "analyze",
    "build_ast",
    "check_file",
    "check_text",
    "object_z_grammar",
    "oz_parse_table",
    "parse",
    "parse_spec",
    "parse_with_trace",
    "render_human",
    "render_machine",
    "tokenize",
    "__version__",
]
