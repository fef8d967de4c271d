"""Context-free grammars and SLR(1) parse table construction.

The pipeline is the classical one: FIRST/FOLLOW fixpoints, closure and goto
over int LR(0) items, the canonical collection built breadth-first, then one
(state x symbol id) table, ACTION and GOTO alike, with reduce actions gated
by FOLLOW sets.  Construction is deterministic: states are numbered in
breadth-first discovery order and symbols are visited in registration
order, so the same grammar always yields the same table.

Everything here is a pure function of its inputs; grammars and tables are
immutable once built and safe to share between concurrent parsers.
"""
import re
from typing import Iterable, NamedTuple, Sequence

from .records import record

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"
END_MARKER_NAME = "$"


class GrammarError(ValueError):
    """Raised for structurally invalid grammars or interchange text."""


@record()
class Symbol(NamedTuple):
    """A grammar symbol; ``id`` is its position in the registration order."""

    id: int
    kind: str
    name: str

    @property
    def is_terminal(self) -> bool:
        return self.kind == TERMINAL


@record()
class Production(NamedTuple):
    """``head -> body``; index 0 is reserved for the augmentation."""

    index: int
    head: Symbol
    body: tuple[Symbol, ...]

    def __str__(self) -> str:
        rhs = " ".join(s.name for s in self.body)
        return f"{self.head.name} -> {rhs}".rstrip()


class Grammar:
    """An augmented context-free grammar with a symbol registry.

    Build one with :meth:`Grammar.build` from ``(head, body)`` name pairs.
    Heads become nonterminals, all other names terminals.  Augmentation is
    implicit: production 0 ``start' -> start`` is added here, and the end
    marker ``$`` is always registered, so callers never construct a
    malformed accept configuration themselves.

    An LR(0) item is an int, laid out production by production as in
    Bison's ``ritem``: item ``first_item[p] + dot`` has its dot before body
    position ``dot`` of production ``p``, so int order is (production, dot)
    order and item 0 is ``start' -> · start``.  ``item_symbol[i]`` is the id
    of the symbol after the dot, or -1 at the end of the body;
    ``item_production[i]`` is the item's production; ``head_items[s]`` are
    the dot-0 items of the productions of symbol ``s`` (none for a terminal).
    """

    def __init__(
        self,
        symbols: list[Symbol],
        productions: list[Production],
        start: Symbol,
        augmented_start: Symbol,
        end_marker: Symbol,
    ) -> None:
        self.symbols = symbols
        self.productions = productions
        self.start = start
        self.augmented_start = augmented_start
        self.end_marker = end_marker
        self._by_name = {s.name: s for s in symbols}
        self.terminal_ids = {s.name: s.id for s in symbols if s.is_terminal}
        self.first_item: list[int] = []
        self.item_symbol: list[int] = []
        self.item_production: list[int] = []
        self.head_items: list[list[int]] = [[] for _ in symbols]
        for p in productions:
            self.first_item.append(len(self.item_symbol))
            self.head_items[p.head.id].append(len(self.item_symbol))
            self.item_symbol += [s.id for s in p.body] + [-1]
            self.item_production += [p.index] * (len(p.body) + 1)

    @classmethod
    def build(
        cls,
        productions: Sequence[tuple[str, Sequence[str]]],
        start: str | None = None,
    ) -> "Grammar":
        if not productions:
            raise GrammarError("a grammar needs at least one production")
        heads = {head for head, _ in productions}
        if start is None:
            start = productions[0][0]
        if start not in heads:
            raise GrammarError(f"start symbol {start!r} has no production")

        symbols: list[Symbol] = []
        by_name: dict[str, Symbol] = {}

        def register(name: str, kind: str) -> Symbol:
            if not name:
                raise GrammarError("symbol display names must be non-empty")
            sym = by_name.get(name)
            if sym is None:
                sym = Symbol(len(symbols), kind, name)
                symbols.append(sym)
                by_name[name] = sym
            return sym

        for head, body in productions:
            register(head, NONTERMINAL)
            for name in body:
                register(name, NONTERMINAL if name in heads else TERMINAL)
        if END_MARKER_NAME in by_name:
            raise GrammarError("the end marker $ is reserved")
        end = register(END_MARKER_NAME, TERMINAL)

        aug_name = start + "'"
        while aug_name in by_name:
            aug_name += "'"
        aug = register(aug_name, NONTERMINAL)

        start_sym = by_name[start]
        prods = [Production(0, aug, (start_sym,))]
        for i, (head, body) in enumerate(productions, start=1):
            prods.append(
                Production(i, by_name[head], tuple(by_name[n] for n in body))
            )
        return cls(symbols, prods, start_sym, aug, end)

    def symbol(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise GrammarError(f"unknown symbol {name!r}") from None

    def try_symbol(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    @property
    def terminals(self) -> list[Symbol]:
        return [s for s in self.symbols if s.is_terminal]

    @property
    def nonterminals(self) -> list[Symbol]:
        return [s for s in self.symbols if not s.is_terminal]

    def __repr__(self) -> str:
        return (
            f"<Grammar start={self.start.name} "
            f"{len(self.productions)} productions>"
        )


def compute_first(g: Grammar) -> tuple[dict[int, frozenset[int]], frozenset[int]]:
    """Least fixpoint of the FIRST equations: ``(first, nullable)``, FIRST by
    symbol id (FIRST(t) = {t} for terminals) and the nullable symbol ids.
    Each round reads each body once, through :func:`first_of_sequence`."""
    first: dict[int, set[int]] = {s.id: set() for s in g.symbols}
    nullable: set[int] = set()
    for t in g.terminals:
        first[t.id].add(t.id)

    changed = True
    while changed:
        changed = False
        for p in g.productions:
            body_first, body_nullable = first_of_sequence(p.body, first, nullable)
            if not body_first <= first[p.head.id]:
                first[p.head.id] |= body_first
                changed = True
            if body_nullable and p.head.id not in nullable:
                nullable.add(p.head.id)
                changed = True
    return {i: frozenset(v) for i, v in first.items()}, frozenset(nullable)


def first_of_sequence(body: Iterable[Symbol], first: dict[int, frozenset[int]],
                      nullable: frozenset[int]) -> tuple[set[int], bool]:
    """FIRST of a symbol sequence and whether it derives the empty string."""
    out: set[int] = set()
    for sym in body:
        out |= first[sym.id]
        if sym.id not in nullable:
            return out, False
    return out, True


def compute_follow(g: Grammar, first: dict[int, frozenset[int]],
                   nullable: frozenset[int]) -> dict[int, frozenset[int]]:
    """Least fixpoint of the FOLLOW equations: FOLLOW by nonterminal id.

    The end marker is seeded on the augmented start, which propagates it to
    the user start symbol through production 0.  Each round reads each body
    once, right to left, carrying a trailer: FIRST of the rest of the body,
    plus FOLLOW of the head while the rest is nullable.
    """
    follow: dict[int, set[int]] = {nt.id: set() for nt in g.nonterminals}
    follow[g.augmented_start.id].add(g.end_marker.id)

    changed = True
    while changed:
        changed = False
        for p in g.productions:
            trailer = follow[p.head.id]  # rebound, never updated in place
            for sym in reversed(p.body):
                if not sym.is_terminal and not trailer <= follow[sym.id]:
                    follow[sym.id] |= trailer
                    changed = True
                trailer = (trailer | first[sym.id] if sym.id in nullable
                           else first[sym.id])
    return {i: frozenset(v) for i, v in follow.items()}


def render_item(item: int, g: Grammar) -> str:
    """``A -> α · β`` for an LR(0) item of ``g``."""
    p = g.productions[g.item_production[item]]
    names = [s.name for s in p.body]
    names.insert(item - g.first_item[p.index], "·")
    return f"{p.head.name} -> {' '.join(names)}"


def closure(items: Iterable[int], g: Grammar) -> frozenset[int]:
    """Close a set of int LR(0) items (see :class:`Grammar`) under
    nonterminal expansion at the dot: each symbol after a dot brings in its
    dot-0 items once; -1, the dot at the end, brings in nothing."""
    after, head_items = g.item_symbol, g.head_items
    out = set(items)
    work = list(out)
    expanded = {-1}
    while work:
        sym = after[work.pop()]
        if sym not in expanded:
            expanded.add(sym)
            out.update(head_items[sym])
            work += head_items[sym]
    return frozenset(out)


def goto_set(items: Iterable[int], x: Symbol, g: Grammar) -> frozenset[int]:
    """Advance every item whose dot precedes ``x`` and close the result."""
    after, sid = g.item_symbol, x.id
    kernel = [item + 1 for item in items if after[item] == sid]
    return closure(kernel, g) if kernel else frozenset()


def canonical_collection(g: Grammar) -> tuple[list[frozenset[int]],
                                              dict[tuple[int, int], int]]:
    """The canonical LR(0) collection, built breadth-first: ``(states,
    transitions)``, the states as frozensets of int items and the gotos
    keyed by (state, symbol id).

    State 0 is the closure of ``start' -> · start``.  One scan of a state
    gathers the kernel of each successor, keyed by the symbol after the dot.
    The kernels are closed in registration (id) order and new states are
    numbered in discovery order, which makes the numbering reproducible; no
    other symbol has a goto.  The tests check it against :func:`goto_set`.
    """
    after = g.item_symbol
    states = [closure([0], g)]
    index: dict[frozenset[int], int] = {states[0]: 0}
    transitions: dict[tuple[int, int], int] = {}

    for i, state in enumerate(states):  # the list is its own FIFO queue
        kernels: dict[int, list[int]] = {}
        for item in state:
            kernels.setdefault(after[item], []).append(item + 1)
        kernels.pop(-1, None)  # the completed items: no successor
        for sid in sorted(kernels):
            target = closure(kernels[sid], g)
            j = index.setdefault(target, len(states))
            if j == len(states):
                states.append(target)
            transitions[(i, sid)] = j
    return states, transitions


# A table cell is an int: 0 is the error entry, ``target*4 + SHIFT`` a
# shift to a state (a goto in a nonterminal's column), ``production*4 +
# REDUCE`` a reduce by a production and ``ACCEPT`` the accept.
SHIFT, REDUCE, ACCEPT = 1, 2, 3


def render_cell(cell: int) -> str:
    """``sN`` for a shift to state N, ``rN`` for a reduce by production N,
    ``acc`` for the accept."""
    if cell & 3 == SHIFT:
        return f"s{cell >> 2}"
    if cell & 3 == REDUCE:
        return f"r{cell >> 2}"
    return "acc"


@record()
class Conflict(NamedTuple):
    state: int
    terminal: Symbol
    actions: tuple[int, ...]  # the distinct ACTION cells, in placement order
    items: tuple[int, ...]  # the LR(0) item behind each placement


class ConflictReport:
    """Every table cell that received two distinct actions.

    Non-empty exactly when the grammar is not SLR(1).
    """

    def __init__(self, grammar: Grammar, conflicts: list[Conflict]) -> None:
        self.grammar = grammar
        self.conflicts = conflicts

    def describe(self) -> str:
        lines = [f"{len(self.conflicts)} SLR(1) conflict(s):"]
        for c in self.conflicts:
            acts = ", ".join(render_cell(a) for a in c.actions)
            lines.append(f"  state {c.state} on {c.terminal.name!r}: {acts}")
            for item in c.items:
                lines.append(f"    from {render_item(item, self.grammar)}")
        return "\n".join(lines)


class ParseTable:
    """One dense (state x symbol id) table of int cells, 0 for an error.

    ``action[state][symbol.id]`` is the ACTION cell of a terminal and, as a
    shift to the target state, the GOTO entry of a nonterminal.
    ``term_columns`` (the end marker last) and ``nonterm_columns`` (without
    the augmented start) order the dumps.  ``body_len[p]`` and
    ``head_id[p]`` are the body length of production ``p`` and its head's
    id.  Immutable after construction and safe for concurrent readers.
    """

    def __init__(self, grammar: Grammar, n_states: int):
        self.grammar = grammar
        self.n_states = n_states
        self.term_columns = grammar.terminals
        self.nonterm_columns = [
            nt for nt in grammar.nonterminals if nt is not grammar.augmented_start
        ]
        self.action: list[list[int]] = [
            [0] * len(grammar.symbols) for _ in range(n_states)
        ]
        self.body_len = [len(p.body) for p in grammar.productions]
        self.head_id = [p.head.id for p in grammar.productions]

    def dimensions(self) -> tuple[int, int]:
        """(rows, columns) of the combined ACTION+GOTO table."""
        return (self.n_states, len(self.term_columns) + len(self.nonterm_columns))

    def expected_terminals(self, state: int) -> list[Symbol]:
        """Terminals with a non-error entry in ``state``, sorted by name."""
        row = self.action[state]
        found = [sym for sym in self.term_columns if row[sym.id]]
        return sorted(found, key=lambda s: s.name)

    def dump_tsv(self) -> str:
        """Tab-separated dump with a dimensions header.

        Cells are ``sN``/``rN``/``acc`` for actions, state numbers for
        gotos, and ``.`` for error entries.
        """
        rows, cols = self.dimensions()
        out = [
            f"# productions: {len(self.grammar.productions)} (including augmentation)",
            f"# table: {rows}x{cols} "
            f"({rows} states, {len(self.term_columns)} terminals, "
            f"{len(self.nonterm_columns)} nonterminals)",
        ]
        header = ["state"]
        header += [s.name for s in self.term_columns]
        header += [s.name for s in self.nonterm_columns]
        out.append("\t".join(header))
        for i, row in enumerate(self.action):
            cells = [str(i)]
            cells += [render_cell(row[s.id]) if row[s.id] else "."
                      for s in self.term_columns]
            cells += [str(row[s.id] >> 2) if row[s.id] else "."
                      for s in self.nonterm_columns]
            out.append("\t".join(cells))
        return "\n".join(out) + "\n"


def build_table(g: Grammar) -> ParseTable | ConflictReport:
    """Fill the SLR(1) table, or report every conflicting cell.

    Shift entries come from the transitions of the canonical collection
    (on a nonterminal, the goto); a completed item ``A -> α ·`` puts a
    reduce in every FOLLOW(A) column; the completed augmentation item puts
    the single accept under the end marker.  A state's items are placed in
    (production, dot) order in a map by terminal id, settled in id order.
    """
    states, transitions = canonical_collection(g)
    follow = compute_follow(g, *compute_first(g))
    table = ParseTable(g, len(states))
    symbols, after = g.symbols, g.item_symbol
    conflicts: list[Conflict] = []

    for i, state in enumerate(states):
        placed: dict[int, list[tuple[int, int]]] = {}  # tid -> (cell, item)s
        for item in sorted(state):
            sid, p = after[item], g.item_production[item]
            if sid >= 0:
                if symbols[sid].is_terminal:
                    placed.setdefault(sid, []).append(
                        (transitions[(i, sid)] * 4 + SHIFT, item))
            elif p == 0:
                placed.setdefault(g.end_marker.id, []).append((ACCEPT, item))
            else:
                for tid in follow[table.head_id[p]]:
                    placed.setdefault(tid, []).append((p * 4 + REDUCE, item))
        for tid, cells in sorted(placed.items()):
            distinct = tuple(dict.fromkeys(cell for cell, _ in cells))
            if len(distinct) > 1:
                conflicts.append(Conflict(i, symbols[tid], distinct,
                                          tuple(item for _, item in cells)))
            else:
                table.action[i][tid] = distinct[0]

    if conflicts:
        return ConflictReport(g, conflicts)

    # Every transition is a shift cell; for a terminal it is already there.
    for (i, sid), j in transitions.items():
        table.action[i][sid] = j * 4 + SHIFT
    return table


# ---------------------------------------------------------------------------
# Grammar interchange format: one production per line, `Head -> sym sym ...`,
# `#` comment lines, and double quotes around symbols containing
# backslashes, braces, quotes or whitespace.

_INTERCHANGE_TOKEN = re.compile(r'"([^"]*)"|(\S+)')


def _needs_quote(name: str) -> bool:
    return any(c in '\\{}"' or c.isspace() for c in name) or name.startswith("#")


def _quote(name: str) -> str:
    return f'"{name}"' if _needs_quote(name) else name


def format_grammar(g: Grammar) -> str:
    """Render the user productions (augmentation excluded) as interchange text."""
    lines = [f"# {len(g.productions) - 1} productions, start {g.start.name}"]
    for p in g.productions[1:]:
        rhs = " ".join(_quote(s.name) for s in p.body)
        lines.append(f"{_quote(p.head.name)} -> {rhs}".rstrip())
    return "\n".join(lines) + "\n"


def parse_grammar_text(text: str) -> list[tuple[str, list[str]]]:
    """Parse interchange text into (head, body) pairs."""
    productions: list[tuple[str, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = [
            m.group(1) if m.group(1) is not None else m.group(2)
            for m in _INTERCHANGE_TOKEN.finditer(line)
        ]
        if len(tokens) < 2 or tokens[1] != "->":
            raise GrammarError(
                f"line {line_no}: expected 'Head -> body', got {raw!r}"
            )
        productions.append((tokens[0], tokens[2:]))
    if not productions:
        raise GrammarError("no productions in grammar text")
    return productions


def grammar_from_text(text: str, start: str | None = None) -> Grammar:
    """Build a grammar from interchange text; start defaults to the first head."""
    return Grammar.build(parse_grammar_text(text), start=start)


def dump_first_follow(g: Grammar) -> str:
    """FIRST/FOLLOW tables as text, symbols in registration order."""
    first, nullable = compute_first(g)
    follow = compute_follow(g, first, nullable)

    def names(ids: frozenset[int]) -> str:
        ordered = [g.symbols[i].name for i in sorted(ids)]
        return "{ " + ", ".join(ordered) + " }" if ordered else "{ }"

    lines = []
    for nt in g.nonterminals:
        suffix = "  (nullable)" if nt.id in nullable else ""
        lines.append(f"FIRST({nt.name}) = {names(first[nt.id])}{suffix}")
    for nt in g.nonterminals:
        lines.append(f"FOLLOW({nt.name}) = {names(follow[nt.id])}")
    return "\n".join(lines) + "\n"
