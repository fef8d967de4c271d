"""Independent brute-force oracles used by the tests.

Everything here works on plain data (head/body name pairs, source text) and
never calls into the package's lexer, fixpoint or table code, so oracle and
implementation can only agree by both being right.
"""
from __future__ import annotations

import unicodedata
from collections import deque

END = "$"


def _heads(productions):
    return {h for h, _ in productions}


def first_oracle(
    productions: list[tuple[str, list[str]]],
    symbol: str,
    max_len: int = 14,
    max_forms: int = 200_000,
) -> tuple[set[str], bool]:
    """FIRST via leftmost derivation enumeration from ``symbol``.

    Returns (first terminals, nullable).  Forms longer than ``max_len`` are
    pruned; the bound is generous for the small grammars the tests use.
    """
    heads = _heads(productions)
    by_head: dict[str, list[list[str]]] = {}
    for h, b in productions:
        by_head.setdefault(h, []).append(list(b))

    firsts: set[str] = set()
    nullable = False
    seen: set[tuple[str, ...]] = set()
    queue: deque[tuple[str, ...]] = deque([(symbol,)])
    while queue:
        if len(seen) > max_forms:
            raise RuntimeError("first_oracle did not saturate")
        form = queue.popleft()
        if form in seen:
            continue
        seen.add(form)
        if not form:
            nullable = True
            continue
        lead = form[0]
        if lead not in heads:
            firsts.add(lead)
            continue
        if len(form) > max_len:
            continue
        for body in by_head[lead]:
            queue.append(tuple(body) + form[1:])
    return firsts, nullable


def _follow_units(form, heads) -> list[tuple[str, ...]]:
    """Reduce a sentential form to independent units for FOLLOW collection.

    Terminals are never rewritten, so (a) a terminal can only ever follow
    the nonterminal directly to its left: interior terminal runs collapse
    to their first terminal and leading terminals vanish; and (b) no
    adjacency can form across a terminal: the form splits at each terminal
    into units of nonterminals plus one trailing terminal.
    """
    units: list[tuple[str, ...]] = []
    current: list[str] = []
    for sym in form:
        if sym in heads:
            current.append(sym)
        elif current:
            current.append(sym)
            units.append(tuple(current))
            current = []
    if current:
        units.append(tuple(current))
    return units


def _follow_once(productions, start, max_len, max_units) -> dict[str, set[str]]:
    heads = _heads(productions)
    by_head: dict[str, list[list[str]]] = {}
    for h, b in productions:
        by_head.setdefault(h, []).append(list(b))

    follow: dict[str, set[str]] = {h: set() for h in heads}
    seen: set[tuple[str, ...]] = set()
    queue: deque[tuple[str, ...]] = deque(_follow_units((start, END), heads))
    while queue:
        if len(seen) > max_units:
            raise RuntimeError("follow_oracle did not saturate")
        unit = queue.popleft()
        if unit in seen or len(unit) > max_len:
            continue
        seen.add(unit)
        if len(unit) >= 2 and unit[-1] not in heads:
            follow[unit[-2]].add(unit[-1])
        for i, sym in enumerate(unit):
            if sym in heads:
                for body in by_head[sym]:
                    new = unit[:i] + tuple(body) + unit[i + 1 :]
                    queue.extend(_follow_units(new, heads))
    return follow


def follow_oracle(
    productions: list[tuple[str, list[str]]],
    start: str,
    max_len: int = 6,
    max_units: int = 200_000,
) -> dict[str, set[str]]:
    """FOLLOW via sentential-form enumeration from ``start $``.

    Collects the terminals found immediately after each nonterminal over
    every reachable form unit.  The depth bound grows until two
    consecutive bounds produce identical sets; raises RuntimeError when
    the unit space cannot be swept within budget.
    """
    result = _follow_once(productions, start, max_len, max_units)
    while True:
        max_len += 4
        wider = _follow_once(productions, start, max_len, max_units)
        if wider == result:
            return result
        result = wider


def language_upto(
    productions: list[tuple[str, list[str]]],
    start: str,
    max_len: int,
    max_forms: int = 400_000,
) -> set[tuple[str, ...]]:
    """All terminal strings of length <= max_len derivable from ``start``.

    Leftmost derivations with pruning on the terminal prefix length.
    """
    heads = _heads(productions)
    by_head: dict[str, list[list[str]]] = {}
    for h, b in productions:
        by_head.setdefault(h, []).append(list(b))

    out: set[tuple[str, ...]] = set()
    seen: set[tuple[str, ...]] = set()
    queue: deque[tuple[str, ...]] = deque([(start,)])
    while queue:
        if len(seen) > max_forms:
            raise RuntimeError("language_upto did not saturate")
        form = queue.popleft()
        if form in seen:
            continue
        seen.add(form)
        i = 0
        while i < len(form) and form[i] not in heads:
            i += 1
        if i > max_len:
            continue
        if i == len(form):
            out.add(form)
            continue
        if len(form) > max_len + 12:
            continue
        for body in by_head[form[i]]:
            queue.append(form[:i] + tuple(body) + form[i + 1 :])
    return out


def all_strings(alphabet: list[str], max_len: int):
    """Every string over ``alphabet`` up to ``max_len``, shortest first."""
    yield ()
    level: list[tuple[str, ...]] = [()]
    for _ in range(max_len):
        nxt = []
        for w in level:
            for a in alphabet:
                s = w + (a,)
                yield s
                nxt.append(s)
        level = nxt


def trace_oracle(
    steps,
    productions: list[tuple[str, list[str]]],
    terminals: list[str],
    lexemes: list[str],
) -> list[tuple[str, str]]:
    """(stack, remaining) of every trace step, rebuilt naively from the steps.

    ``productions`` is indexed like the trace's production numbers (the
    augmentation included), ``terminals`` and ``lexemes`` give each token's
    terminal name and text.  A shift pushes (terminal, state), a reduce pops
    its body, a goto pushes (head, state); the remaining input is every
    lexeme not yet shifted plus ``$``.  Each row is rendered from scratch.
    """
    stack: list[tuple[str, int]] = [(END, 0)]
    pending_head: str | None = None
    pos = 0
    rows = []
    for step in steps:
        text = " ".join(f"{sym} [{state}]" for sym, state in stack)
        if step.kind == "goto":
            text += " " + pending_head
        remaining = [lexeme for lexeme in lexemes[pos:] if lexeme] + [END]
        rows.append((text, " ".join(remaining)))
        if step.kind == "shift":
            stack.append((terminals[pos], step.state))
            pos += 1
        elif step.kind == "reduce":
            pending_head, body = productions[step.production]
            if body:
                del stack[-len(body) :]
        elif step.kind == "goto":
            stack.append((pending_head, step.state))
    return rows


# --- lexer -------------------------------------------------------------------

_GLUE = "{}[](),:"
_PREAMBLE = ("\\documentclass", "\\usepackage", "\\begin{document}")


def _naive_lines(source: str) -> list[tuple[int, str]]:
    """The (line number, text) pairs the lexer reads, rebuilt in full."""
    lines = source.split("\n")
    starts = [
        i for i, line in enumerate(lines)
        if line.lstrip().startswith(("\\begin{class}", "["))
    ]
    first = starts[0] if starts else len(lines)
    wrapped = any(line.lstrip().startswith(_PREAMBLE) for line in lines[:first])
    begin = first if wrapped and starts else 0
    out = []
    for i in range(begin, len(lines)):
        stripped = lines[i].lstrip()
        if stripped.startswith("%"):
            continue
        if wrapped and stripped.startswith("\\end{document}"):
            break
        out.append((i + 1, lines[i]))
    return out


def _naive_units(line: str) -> list[tuple[int, str]]:
    """(0-based offset, text) of every maximal run of non-space characters."""
    out, start = [], None
    for i, ch in enumerate(line + " "):
        if ch.isspace():
            if start is not None:
                out.append((start, line[start:i]))
                start = None
        elif start is None:
            start = i
    return out


def _naive_pieces(unit: str) -> list[tuple[int, str]]:
    """Lenient split: environment delimiters whole, punctuation alone, and
    the runs in between."""
    out, i = [], 0
    while i < len(unit):
        end = None
        for prefix in ("\\begin{", "\\end{"):
            if unit.startswith(prefix, i):
                close = unit.find("}", i + len(prefix))
                if close >= 0 and "{" not in unit[i + len(prefix):close]:
                    end = close + 1
        if end is None:
            end = i + 1
            if unit[i] not in _GLUE:
                while end < len(unit) and unit[end] not in _GLUE:
                    end += 1
        out.append((i, unit[i:end]))
        i = end
    return out


def _is_word(unit: str) -> bool:
    body = unit.rstrip("'?!")
    return (
        body != ""
        and not body[0].isdecimal()
        and all(ch.isalnum() or ch == "_" for ch in body)
    )


def _naive_classify(unit: str):
    """(kind value, None) of one unit, or (None, reason)."""
    if any(unicodedata.category(ch) == "Cc" for ch in unit):
        return None, "unsupported control character"
    if unit in ("\\\\", "\\"):
        return "LineSep", None
    for prefix, kind in (("\\begin{", "EnvBegin"), ("\\end{", "EnvEnd")):
        if unit.startswith(prefix):
            name = unit[len(prefix):-1]
            if unit.endswith("}") and name and not set(name) & set("{}"):
                return kind, None
            return None, "malformed environment delimiter"
    if (len(unit) > 1 and unit[0] == "\\"
            and all(ch.isascii() and ch.isalpha() for ch in unit[1:])):
        return "Command", None
    braces = {"{": "LBrace", "}": "RBrace", "[": "LBracket", "]": "RBracket"}
    if unit in braces:
        return braces[unit], None
    if unit in ("=", "+", ",", "(", ")", ":"):
        return "Operator", None
    if all(ch in "0123456789" for ch in unit):
        return "Number", None
    if _is_word(unit):
        return "Word", None
    return None, "cannot classify unit; lexical units must be whitespace-separated"


def naive_tokenize(source: str, lenient: bool = False):
    """Tokens of ``source`` with every unit classified on its own.

    Returns ``(tokens, error)``.  Each token is ``(lexeme, kind value,
    index, line, column)``, the end marker included.  On the first unit that
    cannot be classified, ``error`` is ``(reason, unit, line, column)`` and
    ``tokens`` is None.
    """
    tokens = []
    for line_no, line in _naive_lines(source):
        for offset, unit in _naive_units(line):
            pieces = _naive_pieces(unit) if lenient else [(0, unit)]
            for start, piece in pieces:
                column = offset + start + 1
                kind, reason = _naive_classify(piece)
                if kind is None:
                    return None, (reason, piece, line_no, column)
                tokens.append((piece, kind, len(tokens), line_no, column))
    if tokens:
        last = tokens[-1]
        end = (len(tokens), last[3], last[4] + len(last[0]))
    else:
        end = (0, 1, 1)
    tokens.append(("", "EndMarker", *end))
    return tokens, None


def naive_state_names(c, classes) -> set[str] | None:
    """State-variable names of class ``c`` and every class it inherits from.

    ``classes`` maps a parent name to its class.  The classes reachable from
    ``c`` are collected breadth-first over parent names; the answer is
    ``None`` when a reachable parent name is missing from ``classes`` or
    when some reachable class reaches itself, and otherwise the union of the
    reachable classes' own state-variable names.
    """
    def own(k):
        return {d.name for d in k.state.declarations} if k.state else set()

    def parents(k):
        return [classes.get(r.name) for r in k.inherits]

    reached = {id(c): c}
    queue = deque([c])
    while queue:
        for p in parents(queue.popleft()):
            if p is None:
                return None
            if id(p) not in reached:
                reached[id(p)] = p
                queue.append(p)
    for k in reached.values():
        seen: set[int] = set()
        pending = parents(k)
        while pending:
            p = pending.pop()
            if p is k:
                return None
            if id(p) not in seen:
                seen.add(id(p))
                pending.extend(parents(p))
    return set().union(*(own(k) for k in reached.values()))
