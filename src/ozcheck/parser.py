"""Table-driven shift-reduce parser with step tracing and error localization.

One driver runs the classical stack automaton over the int cells of
``ParseTable.action``, indexed by state and symbol id: on a shift it pushes
the successor state and the token; on a reduce by ``A -> Y1..Yn`` it pops n
states and n values, pushes the value the production's semantic action
makes of them (yacc's ``$$ = f($1..$n)``), then pushes the goto target,
which the exposed state's cell in ``A``'s column shifts to.  :func:`parse`
runs actions that build the derivation tree and ``ozgrammar.parse_spec``
actions that build the AST; there is no other evaluator of the actions.  A
reduce is recorded as two trace steps (the reduction itself and the goto)
so traces show the same row structure as a textbook run.  A token's
terminal depends only on its lexeme, so each distinct lexeme is mapped once
per parse.  Tree nodes and trace rows are immutable named tuples.  The
trace is built only when asked for, and its cost is linear in the bytes it
renders: the driver keeps the text of the current stack and one
remaining-input string per input position, and hands each row's fields to
one callable: :func:`parse_with_trace`'s keeps a :class:`TraceStep`, and
:meth:`TraceWriter.row` writes the row at once, so a streamed trace builds
neither a row string nor a step and holds only the current stack text and
one suffix of the input.  Its size grows with tokens times
remaining input, because every row prints the rest of the input; it is
quadratic in file length whatever the stack depth, and the ``entrée``
column is most of it.  The (class, block) localization of a syntax error
is read off the shifted lexemes when the error occurs; it assumes, as
holds for an LR automaton, that they form a prefix of some sentence.

The parser is pure with respect to its inputs; any number of parses may
share one immutable table concurrently.
"""
from functools import lru_cache
from itertools import accumulate, zip_longest
from typing import NamedTuple

from . import diagnostics as diag
from .grammar import Grammar, ParseTable, Symbol
from .lexer import Token, TokenStream, terminal_of
from .records import record


@record()
class TreeNode(NamedTuple):
    """Parse tree node; terminal leaves carry their originating token.

    Trees nest as deep as the input says, so equality and hashing walk the
    nodes in preorder instead of recursing.
    """

    symbol: Symbol
    production: int = -1
    children: tuple["TreeNode", ...] = ()
    token: Token | None = None

    def _preorder(self):
        """Each node's fields, with its child count for its children."""
        pending = [self]  # explicit stack: nesting depth is input-controlled
        while pending:
            node = pending.pop()
            yield node.symbol, node.production, len(node.children), node.token
            pending.extend(reversed(node.children))

    def __eq__(self, other) -> bool:
        return other.__class__ is TreeNode and all(
            a == b for a, b in zip_longest(self._preorder(), other._preorder()))

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def frontier(self) -> tuple[Token, ...]:
        """Terminal tokens of the subtree, left to right."""
        return tuple(n[3] for n in self._preorder() if n[3] is not None)


@record()
class TraceStep(NamedTuple):
    """One row of the trace: stack and remaining input before the action.

    Rows at one input position share one ``remaining`` string.
    """

    stack: str
    remaining: str
    kind: str  # shift | reduce | goto | accept | error
    text: str
    production: int = -1
    state: int = -1


_HEADER = "pile\tentrée\taction\n"


def render_trace(steps: list[TraceStep]) -> str:
    """Three tab-separated columns (pile, entrée, action), one row per step."""
    return "".join([_HEADER, *(f"{s.stack}\t{s.remaining}\t{s.text}\n"
                               for s in steps)])


class TraceWriter:
    """A trace that keeps no rows: the driver hands each row's fields to
    ``row``, which writes it at once, in the layout of :func:`render_trace`,
    as three ``out.write`` calls; the ``entrée`` cell is the shared
    remaining-input string itself, never copied into a row string.

    ``title`` and the column header go out just before the first row, so a
    source that fails before the drive gets neither.
    """

    def __init__(self, out, title: str) -> None:
        self._write = out.write
        self._head = title + _HEADER

    def row(self, stack: str, remaining: str, kind: str, text: str,
            production: int, state: int) -> None:
        write = self._write
        if self._head:
            write(self._head)
            self._head = ""
        write(f"{stack}\t")
        write(remaining)
        write(f"\t{text}\n")


class ParseError(diag.DiagnosticError):
    """Syntax error: the automaton consulted an error cell.

    Its diagnostic names the offending token, the enclosing class and block
    at that token, and the terminals the current state could have accepted.
    ``trace`` is the step list when :func:`parse_with_trace` raised it.
    """

    trace: list[TraceStep] | None = None


# The block each opener enters, and the closers that end only their own
# block; any \\end{...} leaves the block it is in.
_OPENERS = {
    "\\begin{class}": diag.BLOCK_CLASS_HEADING,
    "\\visibility": diag.BLOCK_VISIBILITY,
    "\\inherit": diag.BLOCK_INHERITANCE,
    "\\begin{axdef}": diag.BLOCK_LOCAL_DEFS,
    "\\begin{state}": diag.BLOCK_STATE,
    "\\begin{init}": diag.BLOCK_INIT,
    "\\begin{op}": diag.operation_block(None),
}
_CLOSERS = {
    "}": diag.BLOCK_CLASS_HEADING,
    ")": diag.BLOCK_VISIBILITY,
    "\\endinherit": diag.BLOCK_INHERITANCE,
}


def _location(shifted: tuple[Token, ...]) -> tuple[str | None, str | None]:
    """The (class, block) of a syntax error after the ``shifted`` tokens.

    An LR parser shifts only prefixes of sentences (the correct-prefix
    property), so the shifted lexemes alone fix the location: the block is
    the last one entered unless its closer or an ``\\end{...}`` came
    since, and a class or operation is named by the word two tokens after
    its ``\\begin``.  Outside a class the block is the top level.
    """
    cls, block = None, diag.BLOCK_TOP_LEVEL
    for i, token in enumerate(shifted):
        lexeme = token.lexeme
        opened = _OPENERS.get(lexeme)
        if opened is not None:
            name = shifted[i + 2].lexeme if i + 2 < len(shifted) else None
            if lexeme == "\\begin{class}":
                cls, block = name, opened
            elif lexeme == "\\begin{op}":
                block = diag.operation_block(name)
            else:
                block = opened
        elif lexeme == "\\end{class}":
            cls, block = None, diag.BLOCK_TOP_LEVEL
        elif lexeme.startswith("\\end{") or _CLOSERS.get(lexeme) == block:
            block = None
    return cls, block


def _syntax_error(tokens: TokenStream, pos: int, state: int,
                  table: ParseTable, row, stack: str,
                  remaining: str) -> ParseError:
    token = tokens[pos]
    symbol, line, column = token.lexeme or "$", token.line, token.column
    if row is not None:
        row(stack, remaining, "error", f'ERROR: unexpected "{symbol}"', -1, -1)
    expected = ", ".join(
        f'"{s.name}"' for s in table.expected_terminals(state))
    # the location depends only on the shifted tokens, so it is found here
    # instead of being tracked on every shift
    return ParseError(
        f'syntax error caused by "{symbol}" at line {line} col {column}',
        diag.Diagnostic(diag.SYNTAX_ERROR, symbol, line, column,
                        *_location(tokens[:pos]), expected))


def _drive(tokens: TokenStream, table: ParseTable, g: Grammar,
           actions: tuple, row):
    """Run the automaton on the table's int cells; return the start symbol's
    value and, unless ``row`` is None, call ``row(stack, remaining, kind,
    text, production, state)`` with the fields of each trace row.

    A shift pushes the token.  A reduce by ``p`` replaces the top n values,
    ``kids``, with ``actions[p](kids, tokens, pos)``, where ``pos`` is the
    number of tokens shifted; a None action keeps one value and makes None
    of any other number.
    """
    rows, body_len, head_id = table.action, table.body_len, table.head_id
    id_of: dict[str, int] = {}  # lexeme -> id of its terminal
    ids = []
    for token in tokens:
        sid = id_of.get(token.lexeme)
        if sid is None:
            sid = id_of[token.lexeme] = terminal_of(token, g).id
        ids.append(sid)
    states = [0]
    values: list = []
    stack = remaining = ""
    if row is not None:
        # The text of the current stack, with the end offset of each stack
        # entry's text in step with ``states``: a push appends one fragment
        # and a pop slices back to the exposed entry's end.  The remaining
        # input is joined once and sliced once per input position, by the
        # shift that reaches it, so the rows at one position share it.
        productions, symbols = g.productions, g.symbols
        stack = "$ [0]"
        ends = [len(stack)]
        reduce_texts: dict[int, str] = {}
        remaining = line = " ".join(
            [t.lexeme for t in tokens if t.lexeme] + ["$"])
        offsets = list(accumulate(
            (len(t.lexeme) + 1 if t.lexeme else 0 for t in tokens), initial=0))
    pos = 0
    while True:
        cell = rows[states[-1]][ids[pos]]
        op = cell & 3
        if op == 1:  # shift
            target = cell >> 2
            if row is not None:
                row(stack, remaining, "shift", f"d{target}", -1, target)
                stack += f" {symbols[ids[pos]].name} [{target}]"
                ends.append(len(stack))
            states.append(target)
            values.append(tokens[pos])
            pos += 1
            if row is not None:
                remaining = line[offsets[pos]:]
        elif op == 2:  # reduce
            p = cell >> 2
            n = body_len[p]
            if row is not None:
                text = reduce_texts.get(p)
                if text is None:
                    text = reduce_texts[p] = f"r{p}: {productions[p]}"
                row(stack, remaining, "reduce", text, p, -1)
            act = actions[p]
            if act is not None:
                k = len(values) - n
                kids = values[k:]
                del values[k:]
                values.append(act(kids, tokens, pos))
            elif n != 1:
                del values[len(values) - n:]
                values.append(None)
            if n:
                del states[-n:]
                if row is not None:
                    del ends[-n:]
                    stack = stack[:ends[-1]]
            exposed = states[-1]
            target = rows[exposed][head_id[p]] >> 2
            if not target:  # unreachable: no goto leads back to state 0
                raise _syntax_error(tokens, pos, exposed, table, row,
                                    stack, remaining)
            if row is not None:
                head = productions[p].head.name
                stack = f"{stack} {head}"
                row(stack, remaining, "goto",
                    f"in {exposed} with {head}: go to {target}", -1, target)
                stack += f" [{target}]"
                ends.append(len(stack))
            states.append(target)
        elif op == 3:  # accept
            if row is not None:
                row(stack, remaining, "accept", "ACCEPT", -1, -1)
            return values[-1]
        else:
            raise _syntax_error(tokens, pos, states[-1], table, row,
                                stack, remaining)


@lru_cache(maxsize=8)
def _tree_actions(g: Grammar) -> tuple:
    """Actions that build the derivation tree; a body terminal's value is
    the token shifted for it."""
    def node(p):
        head, index = p.head, p.index
        leaves = [(i, s) for i, s in enumerate(p.body) if s.is_terminal]

        def act(kids, toks, pos):
            for i, s in leaves:
                kids[i] = TreeNode(s, -1, (), kids[i])
            return TreeNode(head, index, tuple(kids))
        return act
    return tuple(node(p) for p in g.productions)


def parse(tokens: TokenStream, table: ParseTable, g: Grammar) -> TreeNode:
    """Parse a token stream into its derivation tree.

    Raises :class:`ParseError`, whose diagnostic names the offending token,
    the enclosing class/block and the expected terminals, or
    :class:`UnknownTokenError` if a token maps to no terminal of ``g``.
    """
    return _drive(tokens, table, g, _tree_actions(g), None)


def parse_with_trace(
    tokens: TokenStream, table: ParseTable, g: Grammar
) -> tuple[TreeNode, list[TraceStep]]:
    """Like :func:`parse` but also return every shift/reduce/goto/accept step.

    On a syntax error the raised :class:`ParseError` carries the trace,
    ending at the error step.
    """
    trace: list[TraceStep] = []
    keep, new = trace.append, tuple.__new__
    try:
        return _drive(tokens, table, g, _tree_actions(g),
                      lambda *fields: keep(new(TraceStep, fields))), trace
    except ParseError as e:
        e.trace = trace
        raise


def accepts(table: ParseTable, terminal_ids: list[int]) -> bool:
    """Fast accept/reject for a raw terminal-id sequence (no end marker).

    Used by the property-test harness to replay many strings against one
    table without building tokens, trees or traces.  Raises ``ValueError``
    for an id that is not a terminal of the table's grammar.
    """
    ids = [*terminal_ids, table.grammar.end_marker.id]
    terminals = frozenset(s.id for s in table.term_columns)
    if not terminals.issuperset(ids):
        raise ValueError(f"not terminal ids of {table.grammar!r}: "
                         f"{set(ids) - terminals}")
    rows, body_len, head_id = table.action, table.body_len, table.head_id
    states = [0]
    i = 0
    while True:
        cell = rows[states[-1]][ids[i]]
        op = cell & 3
        if op == 1:  # shift
            states.append(cell >> 2)
            i += 1
        elif op == 2:  # reduce
            p = cell >> 2
            n = body_len[p]
            if n:
                del states[-n:]
            target = rows[states[-1]][head_id[p]] >> 2
            if not target:
                return False
            states.append(target)
        elif op == 3:
            return True
        else:
            return False
