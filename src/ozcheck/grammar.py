"""Context-free grammars and SLR(1) parse table construction.

The pipeline is the classical one: FIRST/FOLLOW fixpoints, LR(0) item set
closure and goto, the canonical collection built breadth-first, then an
ACTION/GOTO table with reduce actions gated by FOLLOW sets.  Construction is
deterministic: states are numbered in breadth-first discovery order and
symbols are visited in registration order, so the same grammar always yields
the same table.

Everything here is a pure function of its inputs; grammars and tables are
immutable once built and safe to share between concurrent parsers.
"""
import re
from collections import deque
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

    def __str__(self) -> str:
        return self.name


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
        self._prods_for: dict[int, list[Production]] = {}
        for p in productions:
            self._prods_for.setdefault(p.head.id, []).append(p)

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

    def productions_for(self, head: Symbol) -> list[Production]:
        return self._prods_for.get(head.id, [])

    def __repr__(self) -> str:
        return (
            f"<Grammar start={self.start.name} "
            f"{len(self.productions)} productions>"
        )


@record()
class Item(NamedTuple):
    """LR(0) item: a production index and a dot position in its body."""

    production: int
    dot: int

    def next_symbol(self, g: Grammar) -> Symbol | None:
        body = g.productions[self.production].body
        return body[self.dot] if self.dot < len(body) else None

    def render(self, g: Grammar) -> str:
        p = g.productions[self.production]
        names = [s.name for s in p.body]
        names.insert(self.dot, "·")
        return f"{p.head.name} -> {' '.join(names)}"


class FirstSets:
    """FIRST sets plus nullability, for every registered symbol."""

    def __init__(self, first: dict[int, frozenset[int]], nullable: frozenset[int]):
        self.first = first
        self.nullable = nullable

    def of(self, sym: Symbol) -> frozenset[int]:
        return self.first[sym.id]

    def is_nullable(self, sym: Symbol) -> bool:
        return sym.id in self.nullable

    def of_sequence(self, body: Iterable[Symbol]) -> tuple[set[int], bool]:
        """FIRST of a symbol sequence and whether it derives the empty string."""
        out: set[int] = set()
        for sym in body:
            out |= self.first[sym.id]
            if sym.id not in self.nullable:
                return out, False
        return out, True


def compute_first(g: Grammar) -> FirstSets:
    """Least fixpoint of the FIRST equations; FIRST(t) = {t} for terminals."""
    first: dict[int, set[int]] = {s.id: set() for s in g.symbols}
    nullable: set[int] = set()
    for t in g.terminals:
        first[t.id].add(t.id)

    changed = True
    while changed:
        changed = False
        for p in g.productions:
            target = first[p.head.id]
            before = len(target)
            all_nullable = True
            for sym in p.body:
                target |= first[sym.id]
                if sym.id not in nullable:
                    all_nullable = False
                    break
            if all_nullable and p.head.id not in nullable:
                nullable.add(p.head.id)
                changed = True
            if len(target) != before:
                changed = True
    return FirstSets(
        {i: frozenset(v) for i, v in first.items()}, frozenset(nullable)
    )


def compute_follow(g: Grammar, first: FirstSets) -> dict[int, frozenset[int]]:
    """Least fixpoint of the FOLLOW equations over the nonterminals.

    The end marker is seeded on the augmented start, which propagates it to
    the user start symbol through production 0.
    """
    follow: dict[int, set[int]] = {nt.id: set() for nt in g.nonterminals}
    follow[g.augmented_start.id].add(g.end_marker.id)

    changed = True
    while changed:
        changed = False
        for p in g.productions:
            for i, sym in enumerate(p.body):
                if sym.is_terminal:
                    continue
                target = follow[sym.id]
                before = len(target)
                rest_first, rest_nullable = first.of_sequence(p.body[i + 1 :])
                target |= rest_first
                if rest_nullable:
                    target |= follow[p.head.id]
                if len(target) != before:
                    changed = True
    return {i: frozenset(v) for i, v in follow.items()}


def closure(items: Iterable[Item], g: Grammar) -> frozenset[Item]:
    """Close an item set under nonterminal expansion at the dot."""
    out: set[Item] = set(items)
    work = deque(out)
    while work:
        item = work.popleft()
        sym = item.next_symbol(g)
        if sym is None or sym.is_terminal:
            continue
        for p in g.productions_for(sym):
            new = Item(p.index, 0)
            if new not in out:
                out.add(new)
                work.append(new)
    return frozenset(out)


def goto_set(items: Iterable[Item], x: Symbol, g: Grammar) -> frozenset[Item]:
    """Advance every item whose dot precedes ``x`` and close the result."""
    kernel = [
        Item(i.production, i.dot + 1)
        for i in items
        if i.next_symbol(g) is x
    ]
    if not kernel:
        return frozenset()
    return closure(kernel, g)


class ItemSetCollection:
    """Canonical LR(0) collection: numbered states plus goto transitions."""

    def __init__(self, states: list[frozenset[Item]],
                 transitions: dict[tuple[int, int], int]) -> None:
        self.states = states
        self.transitions = transitions


def canonical_collection(g: Grammar) -> ItemSetCollection:
    """Build the canonical collection breadth-first.

    State 0 is the closure of ``start' -> · start``.  New states are
    numbered in discovery order, visiting the symbols after a dot in each
    state in registration (id) order, which makes the numbering
    reproducible; no other symbol has a goto.
    """
    start_state = closure([Item(0, 0)], g)
    states = [start_state]
    index: dict[frozenset[Item], int] = {start_state: 0}
    transitions: dict[tuple[int, int], int] = {}

    queue = deque([0])
    while queue:
        i = queue.popleft()
        state = states[i]
        dotted = {item.next_symbol(g) for item in state} - {None}
        for sym in sorted(dotted, key=lambda s: s.id):
            target = goto_set(state, sym, g)
            j = index.get(target)
            if j is None:
                j = len(states)
                states.append(target)
                index[target] = j
                queue.append(j)
            transitions[(i, sym.id)] = j
    return ItemSetCollection(states, transitions)


# An ACTION cell is an int: 0 is the error entry, ``target*4 + SHIFT`` a
# shift to a state, ``production*4 + REDUCE`` a reduce by a production and
# ``ACCEPT`` the accept.
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
    items: tuple[Item, ...]


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
            lines.append(
                f"  state {c.state} on {c.terminal.name!r}: {acts}"
            )
            for item in c.items:
                lines.append(f"    from {item.render(self.grammar)}")
        return "\n".join(lines)


class ParseTable:
    """Dense ACTION/GOTO tables over (state x symbol) with error sentinels.

    ``action[state][column]`` holds an int ACTION cell encoded with
    ``SHIFT``/``REDUCE``/``ACCEPT``, 0 for an error entry; columns follow
    terminal registration order (the end marker is the last terminal).  ``goto_map[state][column]`` holds a state
    number or ``-1``, with columns over the non-augmented nonterminals.
    ``body_len[p]`` and ``head_col[p]`` are the body length of production
    ``p`` and the GOTO column of its head.  Immutable after construction and
    safe for concurrent readers.
    """

    def __init__(self, grammar: Grammar, n_states: int):
        self.grammar = grammar
        self.n_states = n_states
        self.term_columns = grammar.terminals
        self.nonterm_columns = [
            nt for nt in grammar.nonterminals if nt is not grammar.augmented_start
        ]
        self.term_index = {s.id: c for c, s in enumerate(self.term_columns)}
        self.nonterm_index = {s.id: c for c, s in enumerate(self.nonterm_columns)}
        self.action: list[list[int]] = [
            [0] * len(self.term_columns) for _ in range(n_states)
        ]
        self.goto_map: list[list[int]] = [
            [-1] * len(self.nonterm_columns) for _ in range(n_states)
        ]
        self.body_len = [len(p.body) for p in grammar.productions]
        self.head_col = [
            self.nonterm_index.get(p.head.id, -1) for p in grammar.productions
        ]

    def dimensions(self) -> tuple[int, int]:
        """(rows, columns) of the combined ACTION+GOTO table."""
        return (self.n_states, len(self.term_columns) + len(self.nonterm_columns))

    def expected_terminals(self, state: int) -> list[Symbol]:
        """Terminals with a non-error entry in ``state``, sorted by name."""
        row = self.action[state]
        found = [sym for c, sym in enumerate(self.term_columns) if row[c]]
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
        for i in range(rows):
            cells = [str(i)]
            cells += [render_cell(a) if a else "." for a in self.action[i]]
            cells += [str(t) if t >= 0 else "." for t in self.goto_map[i]]
            out.append("\t".join(cells))
        return "\n".join(out) + "\n"


def build_table(g: Grammar) -> ParseTable | ConflictReport:
    """Fill the SLR(1) table, or report every conflicting cell.

    Shift entries come from terminal transitions of the canonical
    collection; a completed item ``A -> α ·`` puts a reduce in every
    FOLLOW(A) column; the completed augmentation item puts the single
    accept under the end marker.
    """
    collection = canonical_collection(g)
    first = compute_first(g)
    follow = compute_follow(g, first)
    table = ParseTable(g, len(collection.states))

    # (state, terminal id) -> list of (cell, responsible item), in placement
    # order
    cells: dict[tuple[int, int], list[tuple[int, Item]]] = {}

    def place(state: int, terminal: Symbol, cell: int, item: Item) -> None:
        cells.setdefault((state, terminal.id), []).append((cell, item))

    for i, state in enumerate(collection.states):
        for item in sorted(state, key=lambda it: (it.production, it.dot)):
            sym = item.next_symbol(g)
            if sym is not None:
                if sym.is_terminal:
                    target = collection.transitions[(i, sym.id)]
                    place(i, sym, target * 4 + SHIFT, item)
            elif item.production == 0:
                place(i, g.end_marker, ACCEPT, item)
            else:
                p = g.productions[item.production]
                for tid in sorted(follow[p.head.id]):
                    place(i, g.symbols[tid], p.index * 4 + REDUCE, item)

    conflicts: list[Conflict] = []
    for (state, tid), placed in sorted(cells.items()):
        distinct = tuple(dict.fromkeys(cell for cell, _ in placed))
        if len(distinct) > 1:
            conflicts.append(
                Conflict(
                    state,
                    g.symbols[tid],
                    distinct,
                    tuple(item for _, item in placed),
                )
            )
        else:
            table.action[state][table.term_index[tid]] = distinct[0]

    if conflicts:
        return ConflictReport(g, conflicts)

    for (i, sid), j in collection.transitions.items():
        sym = g.symbols[sid]
        if not sym.is_terminal:
            table.goto_map[i][table.nonterm_index[sid]] = j
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
    first = compute_first(g)
    follow = compute_follow(g, first)

    def names(ids: frozenset[int]) -> str:
        ordered = [g.symbols[i].name for i in sorted(ids)]
        return "{ " + ", ".join(ordered) + " }" if ordered else "{ }"

    lines = []
    for nt in g.nonterminals:
        suffix = "  (nullable)" if first.is_nullable(nt) else ""
        lines.append(f"FIRST({nt.name}) = {names(first.of(nt))}{suffix}")
    for nt in g.nonterminals:
        lines.append(f"FOLLOW({nt.name}) = {names(follow[nt.id])}")
    return "\n".join(lines) + "\n"
