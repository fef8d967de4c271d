"""Table-driven shift-reduce parser with step tracing and error localization.

One driver runs the classical stack automaton over the int cells of
``ParseTable.action``, indexed by state and symbol id: on a shift it pushes
the successor state and the token's stream index; on a reduce by
``A -> Y1..Yn`` it pops n states and n values, pushes the value the
production's semantic action makes of them (yacc's ``$$ = f($1..$n)``),
then pushes the goto target, which the exposed state's cell in ``A``'s
column shifts to (in an LR(0) automaton that cell is a shift, never to
state 0).  :func:`parse` runs actions that build the derivation tree and
``ozgrammar.parse_spec`` actions that build the AST; there is no other
evaluator of the actions.  A reduce is recorded as two trace steps
(the reduction itself and the goto) so traces show the same row structure
as a textbook run.  The drive reads the stream's columns and builds a
``Token`` only for an error: a kind names its terminal, so the ``kinds``
map to ids in one pass over ``Grammar.terminal_ids``, and ``terminal_of``
raises for the first kind that names none.

The trace is built only when asked for, and its cost is linear in the bytes
it renders.  The texts of a row that depend only on the table (the action
texts, as row tails, and the ``pile`` fragment each push appends) are made
once per table; an ``lru_cache`` keeps them for the last eight tables
traced.  The driver keeps the current stack text and one
remaining-input string per input position, and hands each row to one
callable as ``(stack, remaining, tail)``: :func:`parse_with_trace`'s looks
up the tail's other fields and keeps a :class:`TraceStep`, and
:meth:`TraceWriter.row` writes the row at once.  Every row prints the rest
of the input, so a trace is quadratic in file length whatever the stack
depth.  The (class, block) localization of a syntax error is read off the
shifted lexemes when the error occurs; it assumes, as holds for an LR
automaton, that they form a prefix of some sentence.

The parser is pure with respect to its inputs; any number of parses may
share one immutable table concurrently.
"""
from functools import lru_cache
from itertools import zip_longest
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
    """A trace that keeps no rows: the driver hands each row to ``row``,
    which writes it at once, in the layout of :func:`render_trace`,
    as three ``out.write`` calls; the ``entrée`` cell is the shared
    remaining-input string itself, never copied into a row string.

    ``title`` and the column header go out just before the first row, so a
    source that fails before the drive gets neither.
    """

    def __init__(self, out, title: str) -> None:
        self._write = out.write
        self._head = title + _HEADER

    def row(self, stack: str, remaining: str, tail: str) -> None:
        write = self._write
        if self._head:
            write(self._head)
            self._head = ""
        write(f"{stack}\t")
        write(remaining)
        write(tail)


class ParseError(diag.DiagnosticError):
    """Syntax error: the automaton consulted an error cell.

    Its diagnostic names the offending token, the enclosing class and block
    at that token, and the terminals the current state could have accepted.
    The driver hands on the error row before raising it; ``trace`` is the
    step list, ending at that row, when :func:`parse_with_trace` raised it.
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


def _location(shifted: list[str]) -> tuple[str | None, str | None]:
    """The (class, block) of a syntax error after the ``shifted`` lexemes.

    An LR parser shifts only prefixes of sentences (the correct-prefix
    property), so the shifted lexemes alone fix the location: the block is
    the last one entered unless its closer or an ``\\end{...}`` came
    since, and a class or operation is named by the word two tokens after
    its ``\\begin``.  Outside a class the block is the top level.
    """
    cls, block = None, diag.BLOCK_TOP_LEVEL
    for i, lexeme in enumerate(shifted):
        opened = _OPENERS.get(lexeme)
        if opened is not None:
            name = shifted[i + 2] if i + 2 < len(shifted) else None
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
                  table: ParseTable) -> ParseError:
    token = tokens[pos]
    expected = ", ".join(
        f'"{s.name}"' for s in table.expected_terminals(state))
    # the location depends only on the shifted lexemes, so it is found here
    # instead of being tracked on every shift
    return ParseError(diag.Diagnostic(
        diag.SYNTAX_ERROR, token.lexeme or "$", token.line, token.column,
        *_location(tokens.lexemes[:pos]), expected))


@lru_cache(maxsize=8)
def _trace_texts(table: ParseTable) -> tuple:
    """The trace texts that depend only on ``table``, an action's as the row
    tail tab, text, newline: by state, the shift tail and the ``pile`` push
    (a state but 0 has one accessing symbol); by production, the reduce tail
    and the goto row's `` head``; by exposed state, then head id, the goto
    tail; and each tail's TraceStep (kind, text, production, state)."""
    g, states = table.grammar, range(table.n_states)
    pushes, gotos = [""] * len(states), [{} for _ in states]  # 0 is not pushed
    fields = {"\tACCEPT\n": ("accept", "ACCEPT", -1, -1)}
    for state, cells in enumerate(table.action):
        for sym, cell in zip(g.symbols, cells):
            if cell & 3 == 1:
                target = cell >> 2
                pushes[target] = f" {sym.name} [{target}]"
                if not sym.is_terminal:
                    text = f"in {state} with {sym.name}: go to {target}"
                    gotos[state][sym.id] = tail = f"\t{text}\n"
                    fields[tail] = ("goto", text, -1, target)
    shifts = [f"\td{s}\n" for s in states]
    reduces = [f"\tr{i}: {p}\n" for i, p in enumerate(g.productions)]
    fields |= {t: ("shift", t[1:-1], -1, s) for s, t in enumerate(shifts)}
    fields |= {t: ("reduce", t[1:-1], p, -1) for p, t in enumerate(reduces)}
    return (shifts, pushes, reduces, [f" {p.head.name}" for p in g.productions],
            gotos, fields)


def _drive(tokens: TokenStream, table: ParseTable, actions: tuple, row):
    """Run the automaton on the table's int cells; return the start symbol's
    value and, unless ``row`` is None, call ``row(stack, remaining, tail)``
    for each trace row, ``tail`` its ``action`` cell as tab, text, newline.

    A shift pushes the token's index.  A reduce by ``p`` replaces the top n
    values, ``kids``, a fresh list, with ``actions[p](kids, tokens, pos)``,
    which may be ``kids``, where ``pos`` is the number of tokens shifted; a
    None action keeps the first value, or pushes None for an empty body.
    Raises what :func:`parse` raises.
    """
    g, rows = table.grammar, table.action
    body_len, head_id = table.body_len, table.head_id
    missing = None
    try:
        ids = list(map(g.terminal_ids.__getitem__, tokens.kinds))
    except KeyError as e:  # raised below, so the error has no KeyError context
        missing = e.args[0]
    if missing is not None:  # a kind missing here names no terminal: raises
        terminal_of(tokens[tokens.kinds.index(missing)], g)
    states = [0]
    values: list = []
    stack = remaining = ""
    if row is not None:
        # ``ends`` holds each stack entry's end in the stack text, in step
        # with ``states``.  The input is joined once; each shift slices the
        # suffix past the shifted lexeme and its blank, and the rows at a
        # position share it.  An empty lexeme, as the end marker's, takes no
        # room in the line.
        shifts, pushes, reduces, heads, gotos, _ = _trace_texts(table)
        stack = "$ [0]"
        ends = [len(stack)]
        lexemes = tokens.lexemes
        remaining = " ".join([*filter(None, lexemes), "$"])
    pos = 0
    while True:
        cell = rows[states[-1]][ids[pos]]
        op = cell & 3
        if op == 1:  # shift
            target = cell >> 2
            states.append(target)
            values.append(pos)
            pos += 1
            if row is not None:
                row(stack, remaining, shifts[target])
                stack += pushes[target]
                ends.append(len(stack))
                lexeme = lexemes[pos - 1]
                remaining = remaining[len(lexeme) + bool(lexeme):]
        elif op == 2:  # reduce
            p = cell >> 2
            n = body_len[p]
            act = actions[p]
            if act is not None:
                k = len(values) - n
                kids = values[k:]
                del values[k:]
                values.append(act(kids, tokens, pos))
            elif n > 1:
                del values[1 - n:]
            elif not n:
                values.append(None)
            del states[len(states) - n:]
            exposed, head = states[-1], head_id[p]
            target = rows[exposed][head] >> 2
            if row is not None:
                row(stack, remaining, reduces[p])
                del ends[len(ends) - n:]
                stack = stack[:ends[-1]]  # the same string if n is 0
                row(stack + heads[p], remaining, gotos[exposed][head])
                stack += pushes[target]
                ends.append(len(stack))
            states.append(target)
        elif op == 3:  # accept
            if row is not None:
                row(stack, remaining, "\tACCEPT\n")
            return values[-1]
        else:
            if row is not None:
                row(stack, remaining,
                    f'\tERROR: unexpected "{tokens.lexemes[pos] or "$"}"\n')
            raise _syntax_error(tokens, pos, states[-1], table)


@lru_cache(maxsize=8)
def _tree_actions(g: Grammar) -> tuple:
    """Actions that build the derivation tree; a body terminal's leaf holds
    the token shifted for it."""
    def node(p):
        head, index = p.head, p.index
        leaves = [(i, s) for i, s in enumerate(p.body) if s.is_terminal]

        def act(kids, toks, pos):
            for i, s in leaves:
                kids[i] = TreeNode(s, -1, (), toks[kids[i]])
            return TreeNode(head, index, tuple(kids))
        return act
    return tuple(node(p) for p in g.productions)


def parse(tokens: TokenStream, table: ParseTable) -> TreeNode:
    """Parse a token stream into its derivation tree over ``table.grammar``.

    Raises :class:`ParseError`, whose diagnostic names the offending token,
    the enclosing class/block and the expected terminals, or
    :class:`UnknownTokenError` for the first kind that names no terminal.
    """
    return _drive(tokens, table, _tree_actions(table.grammar), None)


def parse_with_trace(
    tokens: TokenStream, table: ParseTable
) -> tuple[TreeNode, list[TraceStep]]:
    """Like :func:`parse` but also return every shift/reduce/goto/accept step.

    On a syntax error the raised :class:`ParseError` carries the trace,
    ending at the error step.
    """
    trace: list[TraceStep] = []
    keep, new, fields = trace.append, tuple.__new__, _trace_texts(table)[-1]

    def step(stack, remaining, tail):  # only the error row is not the table's
        keep(new(TraceStep, (stack, remaining) + (
            fields.get(tail) or ("error", tail[1:-1], -1, -1))))
    try:
        return _drive(tokens, table, _tree_actions(table.grammar), step), trace
    except ParseError as e:
        e.trace = trace
        raise


def accepts(table: ParseTable, terminal_ids: list[int]) -> bool:
    """Fast accept/reject for a raw terminal-id sequence (no end marker).

    Used by the property-test harness to replay many strings against one
    table without building tokens, trees or traces.  Raises ``ValueError``
    for an id that is the end marker or no terminal of the table's grammar.
    """
    terminals = frozenset(s.id for s in table.term_columns[:-1])  # not the $
    if not terminals.issuperset(terminal_ids):
        raise ValueError(f"not terminal ids of {table.grammar!r}: "
                         f"{set(terminal_ids) - terminals}")
    ids = [*terminal_ids, table.grammar.end_marker.id]
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
            del states[len(states) - body_len[p]:]
            states.append(rows[states[-1]][head_id[p]] >> 2)
        elif op == 3:
            return True
        else:
            return False
