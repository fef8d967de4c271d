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
``tokenize`` classifies each distinct unit once per call, and its
repetitions share the first occurrence's string and kind.  A word's
decoration is ``lexeme[len(lexeme.rstrip("'?!")):]``, and the parser locates
a syntax error from the shifted lexemes alone, assuming they form a prefix
of some sentence, as an LR automaton guarantees.  Tokenizing is pure;
independent sources may be processed concurrently.
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

    def __new__(cls, tokens: tuple[Token, ...]) -> "TokenStream":
        return tuple.__new__(cls, tokens)

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(self)


class LexError(Exception):
    def __init__(self, message: str, unit: str, line: int, column: int):
        super().__init__(f"{message} (line {line} col {column})")
        self.reason = message
        self.unit = unit
        self.line = line
        self.column = column

    def to_diagnostic(self) -> diag.Diagnostic:
        return diag.Diagnostic(diag.LEX_ERROR, self.unit, self.line, self.column,
                               detail=self.reason)


class UnknownTokenError(Exception):
    """A token has no dedicated terminal and no generic class in the grammar."""

    def __init__(self, token: Token):
        super().__init__(
            f"no grammar terminal for {token.lexeme!r} "
            f"(line {token.line} col {token.column})"
        )
        self.token = token

    def to_diagnostic(self) -> diag.Diagnostic:
        t = self.token
        return diag.Diagnostic(diag.LEX_ERROR, t.lexeme, t.line, t.column, detail=(
            f'the unit "{t.lexeme}" is not part of the input vocabulary'))


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
        raise LexError("unsupported control character", unit, line, column)
    fixed = _FIXED.get(unit)
    if fixed is not None:
        return fixed
    # the commonest kind first: a word never starts with \ or a digit
    if _WORD_RE.fullmatch(unit):
        return WORD
    if unit.startswith("\\begin{") or unit.startswith("\\end{"):
        m = _ENV_RE.fullmatch(unit)
        if not m or not m.group(1):
            raise LexError("malformed environment delimiter", unit, line, column)
        return unit
    if _COMMAND_RE.fullmatch(unit):
        return unit
    if _NUMBER_RE.fullmatch(unit):
        return NUMBER
    raise LexError(
        "cannot classify unit; lexical units must be whitespace-separated",
        unit,
        line,
        column,
    )


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
    # piece -> (its first occurrence, kind), so repeated pieces share one
    # string; a piece that fails raises at its first occurrence and is never
    # stored
    seen: dict[str, tuple[str, str]] = {}
    index = 0
    for line_no, line in _content_lines(source):
        for m in finditer(line):
            piece = m.group()
            column = m.start() + 1
            first = seen.get(piece)
            if first is None:
                first = seen[piece] = (piece, _classify(piece, line_no, column))
            append(new(Token, first + (index, line_no, column)))
            index += 1

    tokens.append(end_token(tokens))
    return TokenStream(tuple(tokens))


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
        raise UnknownTokenError(token)
    return sym
