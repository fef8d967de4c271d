"""Tokenizer for Object Z sources written with the zed.sty/oz.sty LaTeX
conventions.

The input convention is whitespace separation: every lexical unit must be
delimited by blanks, tabs or newlines.  ``tokenize`` finds the content
region of a source once, splits it with one ``str.split()`` and looks each
unit up in a vocabulary of pieces; only a miss runs a pattern.  A lenient
mode additionally splits ``{ } [ ] ( ) , :`` glued to neighbouring units,
for sources that do not follow the convention strictly.

A :class:`TokenStream` is columnar: a unit's lexeme and its kind.  Its
``(lexeme, kind, index, line, column)`` :class:`Token` is built only where
a position is read, and only then is the unit's offset found.  The kind is
the name of the unit's terminal: ``Word``, ``Number``, ``\\\\`` for a line
separator (a lone ``\\`` included), ``$`` for the end marker, and the
lexeme itself for every other unit.  A piece's kind depends only on its
text, so ``tokenize`` classifies each distinct piece once per process, in a
bounded vocabulary shared by every call and both modes, and its repetitions
share the first occurrence's string and kind.  A word's decoration is
``lexeme[len(lexeme.rstrip("'?!")):]``.  Tokenizing is pure but for that
cache; independent sources may be processed concurrently.
"""
import re
from bisect import bisect_right
from itertools import accumulate, islice
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

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


class TokenStream:
    """The units of one source as the columns ``lexemes`` and ``kinds``,
    ending in exactly one end marker (``""``, ``$``).  ``stream[i]`` is the
    :class:`Token` at ``i``, built on first read and kept (``known`` may
    give some up front); a slice is a tuple of them.  Line and column come
    from a unit's offset in ``text``, whose first line is ``line``; the end
    marker stands just past the last unit, or at 1:1."""

    __slots__ = ("lexemes", "kinds", "_tokens", "_ends", "_text", "_line",
                 "_lines")

    def __init__(self, lexemes: list[str], kinds: list[str], known=None,
                 text="", line=1) -> None:
        self.lexemes, self.kinds, self._tokens = lexemes, kinds, known or {}
        self._ends, self._text, self._line, self._lines = [], text, line, None

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i):
        if i.__class__ is slice:
            return tuple(map(self.__getitem__, range(len(self.kinds))[i]))
        token = self._tokens.get(i)
        if token is None:
            i = range(len(self.kinds))[i]
            if i < len(self.kinds) - 1:
                line, column = self._position(self._start(i))
            else:  # the end marker: just past the last unit, or at 1:1
                last = self[i - 1] if i else Token("", "", 0, 1, 1)
                line, column = last.line, last.column + len(last.lexeme)
            token = self._tokens.setdefault(i, Token(
                self.lexemes[i], self.kinds[i], i, line, column))
        return token

    def _start(self, i: int) -> int:
        """The offset of unit ``i`` in ``text``: the next occurrence of its
        lexeme after the unit before it, as only blanks part them.  A read
        past the units located so far walks on to at least twice as many."""
        ends = self._ends
        if i >= len(ends):  # a new list, stored whole, as threads may read it
            k, find = len(ends), self._text.find
            cursor = ends[-1] if ends else 0
            ends = self._ends = ends + [
                cursor := find(lexeme, cursor) + len(lexeme)
                for lexeme in islice(self.lexemes, k, max(i + 1, 2 * k))]
        return ends[i] - len(self.lexemes[i])

    def _position(self, offset: int) -> tuple[int, int]:
        lines = self._lines
        if lines is None:  # the line starts, found once
            lines = self._lines = list(accumulate(
                map((1).__add__, map(len, self._text.split("\n"))), initial=0))
        k = bisect_right(lines, offset)
        return self._line + k - 1, offset - lines[k - 1] + 1

    tokens = property(tuple)
    __eq__ = lambda a, b: b.__class__ is TokenStream and a.tokens == b.tokens
    __hash__ = lambda a: hash(a.tokens)


class LexError(diag.DiagnosticError):
    """A unit that cannot be classified."""


class UnknownTokenError(diag.DiagnosticError):
    """A token whose kind names no terminal of the grammar."""


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
    raise LexError(diag.Diagnostic(diag.LEX_ERROR, unit, line, column,
                                   detail=reason))


# a line (up to "\n") that starts so after its leading blanks
_OPENING_RE = re.compile(r"^[^\S\n]*(?:\\begin\{class\}|\[)", re.M)
_PREAMBLE_RE = re.compile(
    r"^[^\S\n]*\\(?:documentclass|usepackage|begin\{document\})", re.M)
_END_DOCUMENT_RE = re.compile(r"^[^\S\n]*\\end\{document\}", re.M)
_COMMENT_RE = re.compile(r"^[^\S\n]*%.*", re.M)


def _region(source: str) -> tuple[str, int]:
    """The text to tokenize and the number of its first line.

    Comment lines (leading %) are blanked.  Sources wrapped in a LaTeX
    document (a ``\\documentclass``/``\\usepackage``/``\\begin{document}``
    line before the first class environment or bracketed paragraph) have
    that preamble skipped and stop at ``\\end{document}``.  Bare listings
    are tokenized in full.
    """
    opening = _OPENING_RE.search(source)
    head = opening.start() if opening else len(source)
    text, line = source, 1
    if _PREAMBLE_RE.search(source, 0, head):
        begin = head if opening else 0
        end = _END_DOCUMENT_RE.search(source, begin)
        text = source[begin:end and end.start()]
        line = source.count("\n", 0, begin) + 1
    if "%" in text:
        text = _COMMENT_RE.sub("", text)
    return text, line


# lenient mode: punctuation glued to words is a piece of its own, and
# \begin{...}/\end{...} stay whole; every text that classifies is one piece
_PIECE_RE = re.compile(
    r"\\(?:begin|end)\{[^{}\s]*\}|[{}\[\](),:]|[^{}\[\](),:\s]+")
# piece -> (its first sight, kind) for every call and mode, cleared at
# _VOCABULARY_CAP (+1 per other concurrent call); a failing piece is not stored
_VOCABULARY: dict[str, tuple[str, str]] = {}
_VOCABULARY_CAP = 1 << 14


def tokenize(source: str, lenient: bool = False) -> TokenStream:
    """Split ``source`` into a positioned token stream.

    Raises :class:`LexError` at the first unit that cannot be classified.
    The stream always ends with a single end marker positioned just past
    the last unit.
    """
    text, line = _region(source)
    units = text.split()
    vocabulary = _VOCABULARY
    firsts = list(map(vocabulary.get, units))  # a hit is a unit of one piece
    if not all(firsts):  # split and classify the misses, in stream order
        located = TokenStream(units, [], None, text, line)  # locates misses
        hits, firsts = firsts, []
        for i, unit in enumerate(units):
            if hits[i] is not None:
                firsts.append(hits[i])
                continue
            at = 0  # the piece's offset in its unit
            for piece in _PIECE_RE.findall(unit) if lenient else (unit,):
                first = vocabulary.get(piece)
                if first is None:
                    first = piece, _classify(
                        piece, *located._position(located._start(i) + at))
                    if len(vocabulary) >= _VOCABULARY_CAP:
                        vocabulary.clear()
                    vocabulary[piece] = first
                firsts.append(first)
                at += len(piece)
    return TokenStream([*map(itemgetter(0), firsts), ""],
                       [*map(itemgetter(1), firsts), END_MARKER],
                       None, text, line)


def terminal_of(token: Token, g: "Grammar") -> "Symbol":
    """The terminal of ``g`` named by ``token.kind``; raises
    :class:`UnknownTokenError` where ``g`` has none, as for a stray command."""
    sym = g.try_symbol(token.kind)
    if sym is None or not sym.is_terminal:
        lexeme = token.lexeme
        raise UnknownTokenError(diag.Diagnostic(
            diag.LEX_ERROR, lexeme, token.line, token.column,
            detail=f'the unit "{lexeme}" is not part of the input vocabulary'))
    return sym
