"""Tokenizer for Object Z sources written with the zed.sty/oz.sty LaTeX
conventions.

The input convention is whitespace separation: every lexical unit must be
delimited by blanks, tabs or newlines.  ``tokenize`` scans each content line
once with one compiled pattern: ``\\S+`` finds the units.  A lenient mode
additionally splits ``{ } [ ] ( ) , :`` glued to neighbouring units, for
sources that do not follow the convention strictly; its pattern never spans
a blank, so the pieces it finds on a line are exactly the pieces of each
blank-separated unit.

Each unit is one flat, immutable ``(lexeme, kind, index, line, column)``
named tuple, and the AST keeps a name's token as its position.  The kind is
the name of the unit's terminal: ``Word``, ``Number``, ``\\\\`` for a line
separator (a lone ``\\`` included), ``$`` for the end marker, and the lexeme
itself for every other unit.  A unit's kind depends only on its text, so
``tokenize`` classifies each distinct unit once per process, in a bounded
vocabulary shared by every call, and its repetitions share the first
occurrence's string and kind.  A word's decoration is
``lexeme[len(lexeme.rstrip("'?!")):]``, and the parser locates a syntax
error from the shifted lexemes alone, assuming they form a prefix of some
sentence, as an LR automaton guarantees.  Tokenizing is pure but for that
cache; independent sources may be processed concurrently.
"""
import re
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import diagnostics as diag
from .records import record

if TYPE_CHECKING:
    from .grammar import Grammar, Symbol


# the kinds that are not their unit's own lexeme: the generic terminals and
# the end marker
WORD, NUMBER, LINE_SEP, END_MARKER = "Word", "Number", "\\\\", "$"


@record()
class Token(NamedTuple):
    """A unit, its kind, its index in the stream and its 1-based line and
    column.  The kind is the name of the unit's terminal in a grammar with
    generic ``Word`` and ``Number`` terminals."""

    lexeme: str
    kind: str
    index: int
    line: int
    column: int


@record()
class TokenStream(tuple):
    """The tokens of one source, as a tuple ending in exactly one end marker."""

    __slots__ = ()

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(self)


class LexError(diag.DiagnosticError):
    """A unit that cannot be classified."""


class UnknownTokenError(diag.DiagnosticError):
    """A token has no dedicated terminal and no generic class in the grammar."""


_ENV_RE = re.compile(r"\\(?:begin|end)\{([^{}]*)\}\Z")
_COMMAND_RE = re.compile(r"\\[A-Za-z]+\Z")
_NUMBER_RE = re.compile(r"[0-9]+\Z")
_WORD_RE = re.compile(r"[^\W\d]\w*['?!]*\Z")
# Unicode category Cc is exactly these two ranges
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")
# the kind of each lexeme whose text fixes it; single backslashes appear in
# transcribed sources where \\ is meant
_FIXED = {"\\\\": LINE_SEP, "\\": LINE_SEP, **{c: c for c in "{}[]=+,():"}}


def _classify(unit: str, line: int, column: int) -> str:
    """Return the kind of one unit."""
    if _CONTROL_RE.search(unit):
        reason = "unsupported control character"
    elif (fixed := _FIXED.get(unit)) is not None:
        return fixed
    # the commonest kind first: a word never starts with \ or a digit
    elif _WORD_RE.fullmatch(unit):
        return WORD
    elif unit.startswith("\\begin{") or unit.startswith("\\end{"):
        m = _ENV_RE.fullmatch(unit)
        if m and m.group(1):
            return unit
        reason = "malformed environment delimiter"
    elif _COMMAND_RE.fullmatch(unit):
        return unit
    elif _NUMBER_RE.fullmatch(unit):
        return NUMBER
    else:
        reason = ("cannot classify unit; lexical units must be "
                  "whitespace-separated")
    raise LexError(f"{reason} (line {line} col {column})", diag.Diagnostic(
        diag.LEX_ERROR, unit, line, column, detail=reason))


_PREAMBLE_MARKS = ("\\documentclass", "\\usepackage", "\\begin{document}")


def _content_lines(source: str) -> Iterator[tuple[int, str]]:
    """Yield (line number, text) for the lines to tokenize.

    Comment lines (leading %) are dropped.  Sources wrapped in a LaTeX
    document (a ``\\documentclass``/``\\usepackage``/``\\begin{document}``
    line before the first class environment or bracketed paragraph) have
    that preamble skipped and stop at ``\\end{document}``.  Bare listings
    are tokenized in full.
    """
    lines = source.split("\n")
    begin = 0
    wrapped = False
    for i, line in enumerate(lines):
        stripped = line.lstrip()
        if stripped.startswith("\\begin{class}") or stripped.startswith("["):
            begin = i if wrapped else 0
            break
        if stripped.startswith(_PREAMBLE_MARKS):
            wrapped = True
    for i, line in enumerate(lines[begin:], start=begin + 1):
        stripped = line.lstrip()
        if stripped.startswith("%"):
            continue
        if wrapped and stripped.startswith("\\end{document}"):
            break
        yield i, line


_UNIT_RE = re.compile(r"\S+")
# lenient mode: punctuation glued to words is a piece of its own, and
# \begin{...}/\end{...} stay whole; no alternative matches a blank
_PIECE_RE = re.compile(
    r"\\(?:begin|end)\{[^{}\s]*\}|[{}\[\](),:]|[^{}\[\](),:\s]+"
)
# piece -> (its first sight, kind) for every call, cleared at _VOCABULARY_CAP
# (+1 per other concurrent call); a piece that fails is never stored
_VOCABULARY: dict[str, tuple[str, str]] = {}
_VOCABULARY_CAP = 1 << 14


def tokenize(source: str, lenient: bool = False) -> TokenStream:
    """Split ``source`` into a positioned token stream.

    Raises :class:`LexError` on units that cannot be classified.  The
    stream always ends with a single end marker positioned just past the
    last unit.
    """
    tokens: list[Token] = []
    append = tokens.append
    # the NamedTuple constructor without its Python-level __new__ frame
    new = tuple.__new__
    finditer = (_PIECE_RE if lenient else _UNIT_RE).finditer
    vocabulary = _VOCABULARY
    index = 0
    for line_no, line in _content_lines(source):
        for m in finditer(line):
            piece = m.group()
            column = m.start() + 1
            first = vocabulary.get(piece)
            if first is None:
                first = piece, _classify(piece, line_no, column)
                if len(vocabulary) >= _VOCABULARY_CAP:
                    vocabulary.clear()
                vocabulary[piece] = first
            append(new(Token, first + (index, line_no, column)))
            index += 1

    tokens.append(end_token(tokens))
    return TokenStream(tokens)


def end_token(tokens: "list[Token] | tuple[Token, ...]") -> Token:
    """The end marker just past the last of ``tokens``, or at 1:1."""
    if not tokens:
        return Token("", END_MARKER, 0, 1, 1)
    last = tokens[-1]
    return Token("", END_MARKER, len(tokens), last.line,
                 last.column + len(last.lexeme))


def terminal_of(token: Token, g: "Grammar") -> "Symbol":
    """Map a token to its grammar terminal: the one named by its kind.

    Where the grammar has no terminal of that name, a Word or Number token
    maps to the terminal named by its lexeme, which lets token streams
    drive grammars over ad-hoc alphabets.
    """
    sym = g.try_symbol(token.kind)
    if (sym is None or not sym.is_terminal) and token.kind in (WORD, NUMBER):
        sym = g.try_symbol(token.lexeme)
    if sym is None or not sym.is_terminal:
        lexeme, line, column = token.lexeme, token.line, token.column
        raise UnknownTokenError(
            f"no grammar terminal for {lexeme!r} (line {line} col {column})",
            diag.Diagnostic(diag.LEX_ERROR, lexeme, line, column, detail=(
                f'the unit "{lexeme}" is not part of the input vocabulary')))
    return sym
