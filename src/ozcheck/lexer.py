"""Tokenizer for Object Z sources written with the zed.sty/oz.sty LaTeX
conventions.

The input convention is whitespace separation: every lexical unit must be
delimited by blanks, tabs or newlines.  ``tokenize`` scans each content line
once with one compiled pattern: ``\\S+`` finds the units.  A lenient mode
additionally splits ``{ } [ ] ( ) , :`` glued to neighbouring units, for
sources that do not follow the convention strictly; its pattern never spans
a blank, so the pieces it finds on a line are exactly the pieces of each
blank-separated unit.

A unit's classification depends only on its text, so ``tokenize`` classifies
each distinct unit once per call and reuses the result for its repetitions.
Tokens are immutable ``(lexeme, kind, position)`` named tuples: a word's
decoration is ``lexeme[len(lexeme.rstrip("'?!")):]``, and the parser locates
a syntax error from the shifted lexemes alone, assuming they form a prefix
of some sentence, as an LR automaton guarantees.  Tokenizing is pure;
independent sources may be processed concurrently.
"""
import re
from enum import Enum
from typing import TYPE_CHECKING, Iterator, NamedTuple

from . import diagnostics as diag
from .records import record

if TYPE_CHECKING:
    from .grammar import Grammar, Symbol


class TokenKind(Enum):
    ENV_BEGIN = "EnvBegin"
    ENV_END = "EnvEnd"
    COMMAND = "Command"
    LBRACE = "LBrace"
    RBRACE = "RBrace"
    LBRACKET = "LBracket"
    RBRACKET = "RBracket"
    WORD = "Word"
    NUMBER = "Number"
    OPERATOR = "Operator"
    LINE_SEP = "LineSep"
    END_MARKER = "EndMarker"


@record()
class Position(NamedTuple):
    """Token index in the stream plus 1-based line and column."""

    index: int
    line: int
    column: int


@record()
class Token(NamedTuple):
    lexeme: str
    kind: TokenKind
    position: Position

    @property
    def line(self) -> int:
        return self.position.line

    @property
    def column(self) -> int:
        return self.position.column

    def __str__(self) -> str:
        return self.lexeme


@record()
class TokenStream(tuple):
    """The tokens of one source, as a tuple ending in exactly one EndMarker."""

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


_ENV_RE = re.compile(r"\\(begin|end)\{([^{}]*)\}\Z")
_COMMAND_RE = re.compile(r"\\[A-Za-z]+\Z")
_NUMBER_RE = re.compile(r"[0-9]+\Z")
_WORD_RE = re.compile(r"[^\W\d]\w*['?!]*\Z")
# Unicode category Cc is exactly these two ranges
_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f-\x9f]")
# the kind of each lexeme whose text fixes it; single backslashes appear in
# transcribed sources where \\ is meant
_FIXED = {
    "\\\\": TokenKind.LINE_SEP,
    "\\": TokenKind.LINE_SEP,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    **dict.fromkeys("=+,():", TokenKind.OPERATOR),
}


def _classify(unit: str, line: int, column: int) -> TokenKind:
    """Return the kind of one unit."""
    if _CONTROL_RE.search(unit):
        raise LexError("unsupported control character", unit, line, column)
    fixed = _FIXED.get(unit)
    if fixed is not None:
        return fixed
    # the commonest kind first: a word never starts with \ or a digit
    if _WORD_RE.fullmatch(unit):
        return TokenKind.WORD
    if unit.startswith("\\begin{") or unit.startswith("\\end{"):
        m = _ENV_RE.fullmatch(unit)
        if not m or not m.group(2):
            raise LexError("malformed environment delimiter", unit, line, column)
        return TokenKind.ENV_BEGIN if m.group(1) == "begin" else TokenKind.ENV_END
    if _COMMAND_RE.fullmatch(unit):
        return TokenKind.COMMAND
    if _NUMBER_RE.fullmatch(unit):
        return TokenKind.NUMBER
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
    stream always ends with a single EndMarker positioned just past the
    last unit.
    """
    tokens: list[Token] = []
    append = tokens.append
    # the NamedTuple constructors without their Python-level __new__ frame
    new = tuple.__new__
    finditer = (_PIECE_RE if lenient else _UNIT_RE).finditer
    # piece -> kind; a piece that fails raises at its first occurrence and
    # is never stored
    kinds: dict[str, TokenKind] = {}
    index = 0
    for line_no, line in _content_lines(source):
        for m in finditer(line):
            piece = m.group()
            column = m.start() + 1
            kind = kinds.get(piece)
            if kind is None:
                kind = kinds[piece] = _classify(piece, line_no, column)
            append(new(Token, (piece, kind,
                               new(Position, (index, line_no, column)))))
            index += 1

    if tokens:
        last = tokens[-1]
        end_pos = Position(index, last.line, last.column + len(last.lexeme))
    else:
        end_pos = Position(0, 1, 1)
    tokens.append(Token("", TokenKind.END_MARKER, end_pos))
    return TokenStream(tuple(tokens))


def terminal_of(token: Token, g: "Grammar") -> "Symbol":
    """Map a token to its grammar terminal.

    Keyword-like tokens (environments, commands, operators, braces) map to
    the terminal registered under their lexeme, and a lone ``\\`` to the
    ``\\\\`` line separator.  Word and Number tokens map to the generic
    ``Word``/``Number`` terminals when the grammar registers them, otherwise
    their lexeme is looked up directly, which lets token streams drive
    grammars over ad-hoc alphabets.
    """
    kind = token.kind
    if kind is TokenKind.END_MARKER:
        return g.end_marker

    if kind is TokenKind.LINE_SEP:
        name = "\\\\"
    elif kind is TokenKind.WORD:
        generic = g.try_symbol("Word")
        if generic is not None and generic.is_terminal:
            return generic
        name = token.lexeme
    elif kind is TokenKind.NUMBER:
        generic = g.try_symbol("Number")
        if generic is not None and generic.is_terminal:
            return generic
        name = token.lexeme
    else:
        name = token.lexeme

    sym = g.try_symbol(name)
    if sym is None or not sym.is_terminal:
        raise UnknownTokenError(token)
    return sym
