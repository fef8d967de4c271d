"""Table-driven shift-reduce parser with step tracing and error localization.

One driver runs the classical stack automaton over the int ACTION cells of
``ParseTable.action``: on a shift it pushes the successor state and the
token; on a reduce by ``A -> Y1..Yn`` it pops n states and n values, pushes
the value the production's semantic action makes of them (yacc's ``$$ =
f($1..$n)``), then consults the GOTO entry of the exposed state for ``A``
and pushes the target.  :func:`parse` runs actions that build the
derivation tree and ``ozgrammar.parse_spec`` actions that build the AST;
there is no other evaluator of the actions.  A reduce is recorded as two
trace steps (the reduction itself and the goto) so traces show the same row
structure as a textbook run.  A token's terminal depends only on its
lexeme, so each distinct lexeme is mapped once per parse.  Tree nodes and
trace rows are immutable named tuples.  The trace is built only when asked
for, and its cost is linear in the bytes it renders: the driver keeps the
text of the current stack and one remaining-input string per input
position, and hands each row to the trace's ``append``.  A list keeps the
rows; a :class:`TraceWriter` writes each one out at once, so a streamed
trace holds only the current stack text and one suffix of the input.  Its
size grows with tokens times remaining input, because every row prints the
rest of the input; it is quadratic in file length whatever the stack
depth, and the ``entrée`` column is most of it.  The (class, block)
localization of a syntax error is replayed from the shifted tokens when
the error occurs.

The parser is pure with respect to its inputs; any number of parses may
share one immutable table concurrently.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

from . import diagnostics as diag
from .grammar import Grammar, ParseTable, Symbol
from .lexer import Token, TokenKind, TokenStream, terminal_of


class TreeNode(NamedTuple):
    """Parse tree node; terminal leaves carry their originating token."""

    symbol: Symbol
    production: int = -1
    children: tuple["TreeNode", ...] = ()
    token: Token | None = None

    def frontier(self) -> tuple[Token, ...]:
        """Terminal tokens of the subtree, left to right."""
        out: list[Token] = []
        pending = [self]  # explicit stack: nesting depth is input-controlled
        while pending:
            node = pending.pop()
            if node.token is not None:
                out.append(node.token)
            else:
                pending.extend(reversed(node.children))
        return tuple(out)


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


def _row(step: TraceStep) -> str:
    """A step's tab-separated pile, entrée and action columns."""
    return f"{step.stack}\t{step.remaining}\t{step.text}\n"


def render_trace(steps: list[TraceStep]) -> str:
    """Three tab-separated columns (pile, entrée, action), one row per step."""
    return "".join([_HEADER, *map(_row, steps)])


class TraceWriter:
    """A trace that keeps no rows: ``append`` writes each row through
    ``out.write`` as the driver makes it, in the layout of :func:`render_trace`.

    ``title`` and the column header go out just before the first row, so a
    source that fails before the drive gets neither.
    """

    def __init__(self, out, title: str) -> None:
        self._write = out.write
        self._head = title + _HEADER

    def append(self, step: TraceStep) -> None:
        if self._head:
            self._write(self._head)
            self._head = ""
        self._write(_row(step))


class ParseError(Exception):
    """Syntax error: the automaton consulted an error cell.

    Carries the offending token, the enclosing class and block at that
    token, and the set of terminals the current state could have accepted.
    """

    def __init__(
        self,
        offending: Token,
        enclosing_class: str | None,
        enclosing_block: str | None,
        expected: tuple[str, ...],
        trace: list[TraceStep] | TraceWriter | None = None,
    ):
        self.offending = offending
        self.enclosing_class = enclosing_class
        self.enclosing_block = enclosing_block
        self.expected = expected
        self.trace = trace
        self.symbol = offending.lexeme if offending.lexeme else "$"
        where = f'"{self.symbol}" at line {offending.line} col {offending.column}'
        super().__init__(f"syntax error caused by {where}")

    def to_diagnostic(self) -> diag.Diagnostic:
        expected = ", ".join(f'"{name}"' for name in self.expected)
        return diag.Diagnostic(
            code=diag.SYNTAX_ERROR,
            symbol=self.symbol,
            line=self.offending.line,
            column=self.offending.column,
            class_name=self.enclosing_class,
            block=self.enclosing_block,
            detail=expected,
        )


class BlockTracker:
    """Derives the (class, block) localization from consumed tokens.

    The block label follows the environment nesting at the most recently
    shifted token: the heading braces of a class, a visibility list up to
    its closing parenthesis, an inheritance list up to ``\\endinherit``,
    and the state/init/op/axdef environments.
    """

    _ENV_BLOCKS = {
        "state": diag.BLOCK_STATE,
        "init": diag.BLOCK_INIT,
        "axdef": diag.BLOCK_LOCAL_DEFS,
    }

    def __init__(self) -> None:
        self.class_name: str | None = None
        self.block: str | None = None
        self._in_class = False
        self._pending_class_name = False
        self._pending_op_name = False

    def feed(self, token: Token) -> None:
        kind = token.kind
        if kind is TokenKind.ENV_BEGIN:
            if token.name == "class":
                self._in_class = True
                self.class_name = None
                self._pending_class_name = True
                self.block = diag.BLOCK_CLASS_HEADING
            elif token.name == "op":
                self.block = diag.operation_block(None)
                self._pending_op_name = True
            elif token.name in self._ENV_BLOCKS:
                self.block = self._ENV_BLOCKS[token.name]
        elif kind is TokenKind.ENV_END:
            if token.name == "class":
                self._in_class = False
                self.class_name = None
                self.block = None
                self._pending_class_name = False
            else:
                self.block = None
            self._pending_op_name = False
        elif kind is TokenKind.WORD:
            if self._pending_class_name and self.class_name is None:
                self.class_name = token.lexeme
            elif self._pending_op_name:
                self.block = diag.operation_block(token.lexeme)
                self._pending_op_name = False
        elif kind is TokenKind.RBRACE:
            if self.block == diag.BLOCK_CLASS_HEADING:
                self.block = None
                self._pending_class_name = False
        elif kind is TokenKind.COMMAND:
            if token.name == "visibility":
                self.block = diag.BLOCK_VISIBILITY
            elif token.name == "inherit":
                self.block = diag.BLOCK_INHERITANCE
            elif token.name == "endinherit":
                self.block = None
        elif kind is TokenKind.OPERATOR:
            if token.lexeme == ")" and self.block == diag.BLOCK_VISIBILITY:
                self.block = None

    def location(self) -> tuple[str | None, str | None]:
        if not self._in_class:
            return None, diag.BLOCK_TOP_LEVEL
        return self.class_name, self.block


def _syntax_error(tokens: TokenStream, pos: int, state: int,
                  table: ParseTable,
                  trace: list[TraceStep] | TraceWriter | None,
                  stack: str, remaining: str) -> ParseError:
    token = tokens[pos]
    expected = tuple(s.name for s in table.expected_terminals(state))
    # The location depends only on the shifted tokens, so it is replayed
    # here instead of being tracked on every shift.
    tracker = BlockTracker()
    for shifted in tokens[:pos]:
        tracker.feed(shifted)
    if trace is not None:
        trace.append(TraceStep(stack, remaining, "error",
                               f'ERROR: unexpected "{token.lexeme or "$"}"'))
    return ParseError(token, *tracker.location(), expected, trace)


def _drive(tokens: TokenStream, table: ParseTable, g: Grammar,
           actions: tuple, trace: list[TraceStep] | TraceWriter | None):
    """Run the automaton on the table's int cells; return the start symbol's
    value and append the trace rows to ``trace`` unless it is None.

    A shift pushes the token.  A reduce by ``p`` replaces the top n values,
    ``kids``, with ``actions[p](kids, toks, pos)``, where ``toks`` is the
    token tuple and ``pos`` the number of tokens shifted; a None action
    keeps one value and makes None of any other number.
    """
    action_rows, goto_rows = table.action, table.goto_map
    body_len, head_col = table.body_len, table.head_col
    term_index = table.term_index
    toks = tokens.tokens
    col_of: dict[str, int] = {}  # lexeme -> column of its terminal
    cols = []
    for token in toks:
        col = col_of.get(token.lexeme)
        if col is None:
            col = col_of[token.lexeme] = term_index[terminal_of(token, g).id]
        cols.append(col)
    states = [0]
    values: list = []
    stack = remaining = ""
    if trace is not None:
        # The text of the current stack, with the end offset of each stack
        # entry's text in step with ``states``: a push appends one fragment
        # and a pop slices back to the exposed entry's end.  The remaining
        # input is joined once and sliced once per input position, by the
        # shift that reaches it, so the rows at one position share it.
        productions, terminals = g.productions, table.term_columns
        stack = "$ [0]"
        ends = [len(stack)]
        reduce_texts: dict[int, str] = {}
        remaining = line = " ".join(
            [t.lexeme for t in tokens if t.lexeme] + ["$"])
        offsets = list(accumulate(
            (len(t.lexeme) + 1 if t.lexeme else 0 for t in tokens), initial=0))
    pos = 0
    while True:
        cell = action_rows[states[-1]][cols[pos]]
        op = cell & 3
        if op == 1:  # shift
            target = cell >> 2
            if trace is not None:
                trace.append(TraceStep(stack, remaining, "shift",
                                       f"d{target}", state=target))
                stack += f" {terminals[cols[pos]].name} [{target}]"
                ends.append(len(stack))
            states.append(target)
            values.append(toks[pos])
            pos += 1
            if trace is not None:
                remaining = line[offsets[pos]:]
        elif op == 2:  # reduce
            p = cell >> 2
            n = body_len[p]
            if trace is not None:
                text = reduce_texts.get(p)
                if text is None:
                    text = reduce_texts[p] = f"r{p}: {productions[p]}"
                trace.append(TraceStep(stack, remaining, "reduce", text,
                                       production=p))
            act = actions[p]
            if act is not None:
                k = len(values) - n
                kids = values[k:]
                del values[k:]
                values.append(act(kids, toks, pos))
            elif n != 1:
                del values[len(values) - n:]
                values.append(None)
            if n:
                del states[-n:]
                if trace is not None:
                    del ends[-n:]
                    stack = stack[:ends[-1]]
            exposed = states[-1]
            target = goto_rows[exposed][head_col[p]]
            if target < 0:  # unreachable on a well-formed table
                raise _syntax_error(tokens, pos, exposed, table, trace,
                                    stack, remaining)
            if trace is not None:
                head = productions[p].head.name
                stack = f"{stack} {head}"
                trace.append(TraceStep(
                    stack, remaining, "goto",
                    f"in {exposed} with {head}: go to {target}",
                    state=target))
                stack += f" [{target}]"
                ends.append(len(stack))
            states.append(target)
        elif op == 3:  # accept
            if trace is not None:
                trace.append(TraceStep(stack, remaining, "accept", "ACCEPT"))
            return values[-1]
        else:
            raise _syntax_error(tokens, pos, states[-1], table, trace,
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

    Raises :class:`ParseError` carrying the offending token, the enclosing
    class/block, and the terminals that would have been accepted.  Raises
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
    return _drive(tokens, table, g, _tree_actions(g), trace), trace


def accepts(table: ParseTable, terminal_ids: list[int]) -> bool:
    """Fast accept/reject for a raw terminal-id sequence (no end marker).

    Used by the property-test harness to replay many strings against one
    table without building tokens, trees or traces.
    """
    action_rows, goto_rows = table.action, table.goto_map
    body_len, head_col = table.body_len, table.head_col
    term_index = table.term_index
    cols = [term_index[i] for i in terminal_ids]
    cols.append(term_index[table.grammar.end_marker.id])
    states = [0]
    i = 0
    while True:
        cell = action_rows[states[-1]][cols[i]]
        op = cell & 3
        if op == 1:  # shift
            states.append(cell >> 2)
            i += 1
        elif op == 2:  # reduce
            p = cell >> 2
            n = body_len[p]
            if n:
                del states[-n:]
            target = goto_rows[states[-1]][head_col[p]]
            if target < 0:
                return False
            states.append(target)
        elif op == 3:
            return True
        else:
            return False
