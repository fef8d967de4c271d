"""Shift-reduce driver: traces, trees, and error localization."""
from __future__ import annotations

import hashlib
import re
import traceback

import pytest

from ozcheck import check_text
from ozcheck.grammar import Grammar, ParseTable, build_table
from ozcheck.lexer import UnknownTokenError, terminal_of, tokenize
from ozcheck.ozgrammar import object_z_grammar, oz_parse_table, parse_spec
from ozcheck.parser import (
    ParseError,
    _trace_texts,
    accepts,
    parse,
    parse_with_trace,
    render_trace,
)

from conftest import ast_both_ways, corpus_text, naive_trace_rows, toy_tokens
from oracles import all_strings, language_upto
from randgrammars import generate_cases

# SHA-256 of the rendered trace of each corpus file, recorded from the
# per-row rendering that ``trace_oracle`` keeps as the reference.  All but
# ``empty_class.tex`` were re-recorded when each class alternative came to
# name its first section and leave the later ones optional, which renumbered
# states and productions, and all but it and ``delta_not_state_var.tex``
# again when the nine list rules became left-recursive, which changed the
# rows of every list of two or more items.  The paper's own rows stay pinned
# by acceptance criterion 1 (the empty class's trace), by
# ``test_empty_class_trace_shape_on_shipped_grammar`` and, row by row against
# the table, by ``test_trace_columns_match_naive_oracle_on_corpus``.
TRACE_DIGESTS = {
    "circular_decl.tex": "30ee5c685040f9371599665044562e9266941bd202ed05b8dc79fbba3c662257",
    "delta_not_state_var.tex": "85d6087d2c55f1fea1550e5649778dcdbe00b500d88ce97e5518310ff4bfdd5f",
    "duplicate_decl.tex": "226ca169582339c214c593ce8cb84fe678ae4713c01791b979d66a744c57e8f1",
    "empty_class.tex": "3a8508f8387c4691d4b5cc094a4fd17f7dc5445f3c8dedd3ec3ec8ffac504bd1",
    "queue.tex": "ec080af0516be0831741763f16d18a1d4c7eb37e849e0b2b2def1d20e510563f",
    "queue_semantic_errors.tex": "956aff9e6f5273417e71b3e6c576c0082b09fc29f67dd75d4229147eeca8dc12",
    "queue_syntax_error.tex": "f08b050c67a1979d61fdbb3bc0a6167805a3c271232b133b49f0486a4650012f",
    "type_name_reuse.tex": "351eead9f5ffe4e970e56b017ad517a417223c74f58b84ea26ae3290531d29d3",
    "undefined_type.tex": "07baa02a7f4c149d418ea1a97a5b338ac9157e96a8bb98b594e5917d16c86489",
}


def oz():
    return oz_parse_table(), object_z_grammar()


def traced(tokens, table):
    """The trace steps of a parse, or of its syntax error."""
    try:
        return parse_with_trace(tokens, table)[1]
    except ParseError as e:
        return e.trace


def corpus_trace(name: str):
    """Tokens and trace of a corpus file; the error trace if it fails."""
    tokens = tokenize(corpus_text(name))
    return tokens, traced(tokens, oz_parse_table())


def test_single_production_trace():
    g = Grammar.build([("S", ["a"])])
    table = build_table(g)
    tree, steps = parse_with_trace(toy_tokens("a"), table)
    assert [s.kind for s in steps] == ["shift", "reduce", "goto", "accept"]
    assert tree.symbol.name == "S"
    assert [t.lexeme for t in tree.frontier()] == ["a"]


def test_empty_class_trace_shape_on_shipped_grammar():
    table, g = oz()
    tree, steps = parse_with_trace(
        tokenize(r"\begin{class} { A } \end{class}"), table
    )
    assert [s.kind for s in steps] == [
        "shift", "shift", "shift", "reduce", "goto", "shift", "shift",
        "reduce", "goto", "reduce", "goto", "accept",
    ]
    reduced = [str(g.productions[s.production]) for s in steps
               if s.kind == "reduce"]
    assert reduced == [
        "ClassHeading -> Word",
        "Paragraph -> \\begin{class} { ClassHeading } \\end{class}",
        "ParagraphList -> Paragraph",
    ]


def test_trace_rendering_columns():
    table = oz_parse_table()
    _, steps = parse_with_trace(
        tokenize(r"\begin{class} { A } \end{class}"), table
    )
    text = render_trace(steps)
    lines = text.strip().split("\n")
    assert lines[0] == "pile\tentrée\taction"
    assert all(line.count("\t") == 2 for line in lines[1:])
    first = lines[1].split("\t")
    assert first[0] == "$ [0]"
    assert first[1] == "\\begin{class} { A } \\end{class} $"
    assert first[2].startswith("d")
    assert lines[-1].split("\t")[2] == "ACCEPT"


def test_stack_snapshots_alternate_symbols_and_states():
    table = oz_parse_table()
    _, steps = parse_with_trace(
        tokenize(r"\begin{class} { A } \end{class}"), table
    )
    state = re.compile(r"\[\d+\]")
    for s in steps:
        parts = s.stack.split()
        assert parts[0] == "$"
        assert state.fullmatch(parts[1])  # state 0 sits above the marker
        # symbols and states alternate; a goto snapshot ends on the symbol
        for i, part in enumerate(parts[1:], start=1):
            if i % 2 == 1:
                assert state.fullmatch(part)
            else:
                assert not state.fullmatch(part)


def test_queue_listing_accepts_and_frontier_matches_input(queue_source):
    table = oz_parse_table()
    tokens = tokenize(queue_source)
    tree = parse(tokens, table)
    assert [t.lexeme for t in tree.frontier()] == [
        t.lexeme for t in tokens if t.lexeme
    ]


def test_a_tree_is_built_over_the_tables_own_grammar():
    g = Grammar.build([("S", ["a", "S", "b"]), ("S", [])])
    table = build_table(g)
    tree = parse(toy_tokens("a a b b"), table)
    symbols = set(map(id, table.grammar.symbols))
    pending = [tree]
    while pending:
        node = pending.pop()
        assert id(node.symbol) in symbols
        if node.token is None:  # an inner node: its production's head and body
            p = table.grammar.productions[node.production]
            assert p.head is node.symbol
            assert [kid.symbol for kid in node.children] == list(p.body)
            pending.extend(node.children)
    assert [t.lexeme for t in tree.frontier()] == ["a", "a", "b", "b"]


def test_reduce_sequence_is_reverse_rightmost_derivation(queue_source):
    table, g = oz()
    tokens = tokenize(queue_source)
    _, steps = parse_with_trace(tokens, table)
    reduces = [g.productions[s.production] for s in steps if s.kind == "reduce"]

    form = [g.start]
    for p in reversed(reduces):
        # replace the rightmost nonterminal, which must be the head
        idx = max(i for i, sym in enumerate(form) if not sym.is_terminal)
        assert form[idx] is p.head
        form[idx : idx + 1] = list(p.body)
    # the terminal each lexeme names, read from the lexeme alone
    assert [s.name for s in form] == [
        "Number" if lexeme[0] in "0123456789" else
        "Word" if lexeme[0].isalpha() or lexeme[0] == "_" else
        "\\\\" if lexeme == "\\" else lexeme
        for lexeme in (t.lexeme for t in tokens) if lexeme
    ]


def test_shift_count_equals_token_count(queue_source):
    table = oz_parse_table()
    tokens = tokenize(queue_source)
    _, steps = parse_with_trace(tokens, table)
    shifts = sum(1 for s in steps if s.kind == "shift")
    reduces = sum(1 for s in steps if s.kind == "reduce")
    gotos = sum(1 for s in steps if s.kind == "goto")
    assert shifts == len(tokens) - 1  # everything but the end marker
    assert gotos == reduces  # each reduce is followed by its goto


@pytest.mark.parametrize("drive", [
    parse_spec, lambda tokens: parse(tokens, oz_parse_table())],
    ids=["parse_spec", "parse"])
def test_an_unknown_token_error_carries_no_key_error(drive):
    # the id pass's KeyError is handled before terminal_of raises, so a
    # traceback shows the error alone
    with pytest.raises(UnknownTokenError) as exc:
        drive(tokenize(r"\begin{class} { A } \foo \end{class}"))
    assert exc.value.diagnostic.symbol == "\\foo"
    assert exc.value.__context__ is None
    assert "KeyError" not in "".join(traceback.format_exception(exc.value))


def test_state_equals_mutation_error_location():
    table = oz_parse_table()
    tokens = tokenize(corpus_text("queue_syntax_error.tex"))
    with pytest.raises(ParseError) as exc:
        parse(tokens, table)
    d = exc.value.diagnostic
    assert d.symbol == "="
    assert d.line == 5 and d.column == 7
    assert d.class_name == "Queue"
    assert d.block == "state-schema"
    assert d.detail == '":"'
    assert d.code == "OZ-SYN-001"


def test_error_trace_ends_at_offending_token():
    table = oz_parse_table()
    tokens = tokenize(corpus_text("queue_syntax_error.tex"))
    with pytest.raises(ParseError) as exc:
        parse_with_trace(tokens, table)
    steps = exc.value.trace
    assert steps[-1].kind == "error"
    assert steps[-1].remaining.startswith("=")


def test_empty_stream_errors_at_end_marker_top_level():
    table = oz_parse_table()
    with pytest.raises(ParseError) as exc:
        parse(tokenize(""), table)
    d = exc.value.diagnostic
    assert d.symbol == "$"  # the end marker
    assert d.class_name is None
    assert d.block == "top-level"
    assert set(d.detail.split(", ")) == {'"\\begin{class}"', '"["'}


def test_error_block_labels_track_environments():
    table = oz_parse_table()
    cases = [
        (r"\begin{class} { A = } \end{class}", "class-heading", "A"),
        (r"\begin{class} { A } \visibility ( x = ) \end{class}",
         "visibility", "A"),
        (r"\begin{class} { A } \inherit B = \endinherit \end{class}",
         "inheritance", "A"),
        (r"\begin{class} { A } \begin{init} x : = \end{init} \end{class}",
         "init-schema", "A"),
        (r"\begin{class} { A } \begin{op} { Op } \Delta ( = )"
         r" \end{op} \end{class}", "operation(Op)", "A"),
        (r"\begin{class} { A } \begin{axdef} = \end{axdef} \end{class}",
         "local-definitions", "A"),
        (r"\begin{class} { A } \begin{state} x = \end{state} \end{class}",
         "state-schema", "A"),
        (r"\begin{class} { A } \begin{op} { Op } = \end{op} \end{class}",
         "operation(Op)", "A"),
    ]
    for source, block, cls in cases:
        with pytest.raises(ParseError) as exc:
            parse(tokenize(source), table)
        assert exc.value.diagnostic.block == block, source
        assert exc.value.diagnostic.class_name == cls, source


def test_corpus_trace_digests_are_pinned(corpus):
    assert sorted(p.name for p in corpus.glob("*.tex")) == sorted(TRACE_DIGESTS)
    for name, digest in TRACE_DIGESTS.items():
        _, steps = corpus_trace(name)
        rendered = render_trace(steps).encode("utf-8")
        assert hashlib.sha256(rendered).hexdigest() == digest, name


def test_trace_columns_match_naive_oracle_on_corpus(corpus):
    _, g = oz()
    last_kinds = set()
    for path in sorted(corpus.glob("*.tex")):
        tokens, steps = corpus_trace(path.name)
        got = [(s.stack, s.remaining) for s in steps]
        assert got == naive_trace_rows(steps, tokens, g), path.name
        last_kinds.add(steps[-1].kind)
    assert last_kinds == {"accept", "error"}


def test_deeply_nested_parentheses_do_not_recurse():
    depth = 10_000
    source = (
        r"\begin{class} { A } \begin{state} count : \nat \end{state}"
        r" \begin{init} count = " + "( " * depth + "0 " + ") " * depth
        + r"\end{init} \end{class}"
    )
    assert check_text(source) == []
    init = ast_both_ways(source).classes[0].init
    assert init.predicates[0].text.split() == source.split()[10:-2]


def test_tree_nodes_are_immutable():
    table = oz_parse_table()
    tree = parse(tokenize(corpus_text("empty_class.tex")), table)
    leaf = tree.children[0].children[0]
    assert leaf.token is not None and tree.token is None
    for node in (tree, leaf):
        with pytest.raises(AttributeError):
            node.children = ()
        with pytest.raises(AttributeError):
            node.extra = 1


def test_deep_trees_compare_and_hash_without_recursion():
    table = oz_parse_table()
    body = " \\\\\n".join(f"x{i} : \\nat" for i in range(5000))
    source = (f"\\begin{{class}} {{ A }}\n\\begin{{state}}\n{body}\n"
              "\\end{state}\n\\end{class}")
    tokens = tokenize(source)
    assert len(tokens) == 20_007
    a, b = parse(tokens, table), parse(tokens, table)
    assert a == b and not a != b and hash(a) == hash(b)
    other = parse(tokenize(source.replace("x4999", "y4999")), table)
    assert a != other and not a == other
    assert a != tuple(a) and not a == tuple(a)


def test_trace_rows_share_one_remaining_input_per_position(corpus):
    for path in sorted(corpus.glob("*.tex")):
        _, steps = corpus_trace(path.name)
        at_position: dict[int, str] = {}  # input position -> its suffix
        pos = 0
        for step in steps:
            assert step.remaining is at_position.setdefault(pos, step.remaining)
            if step.kind == "shift":
                pos += 1
        distinct = {id(step.remaining) for step in steps}
        assert len(distinct) == len(at_position), path.name
    with pytest.raises(AttributeError):  # rows are immutable
        steps[0].remaining = ""


def test_accepts_agrees_with_parse_on_toy_grammar():
    g = Grammar.build([("S", ["a", "S", "b"]), ("S", [])])
    table = build_table(g)
    a, b = g.symbol("a").id, g.symbol("b").id
    assert accepts(table, [])
    assert accepts(table, [a, b])
    assert accepts(table, [a, a, b, b])
    assert not accepts(table, [a])
    assert not accepts(table, [b, a])
    assert not accepts(table, [a, b, b])


def test_accepts_refuses_an_end_marker_among_the_ids():
    # ``accepts`` appends the one end marker itself; an id list holding
    # one more would be accepted at that marker, whatever followed it.
    table, g = oz()
    oz_ids = [g.terminal_ids[k] for k in ("[", "Word", "]", "$", "[")]
    assert accepts(table, oz_ids[:3])
    with pytest.raises(ValueError):
        accepts(table, oz_ids)
    toy = Grammar.build([("S", ["a", "S", "b"]), ("S", [])])
    a, b, end = toy.symbol("a").id, toy.symbol("b").id, toy.end_marker.id
    with pytest.raises(ValueError):
        accepts(build_table(toy), [a, b, end, b])


def test_accepts_refuses_ids_that_are_not_terminals():
    g = Grammar.build([("S", ["a", "S", "b"]), ("S", [])])
    table = build_table(g)
    a, b = g.symbol("a").id, g.symbol("b").id
    for bad in (g.start.id, g.augmented_start.id, -1, len(g.symbols)):
        with pytest.raises(ValueError):
            accepts(table, [a, bad, b])


def assert_rows_follow_the_table(steps, tokens, table, g):
    """Each row's stack and input from the naive oracle, and its action
    text, production and state spelled out here from the table's cells."""
    assert [(s.stack, s.remaining) for s in steps] == naive_trace_rows(
        steps, tokens, g)
    ids = [terminal_of(t, g).id for t in tokens]
    op_of = {"shift": 1, "reduce": 2, "goto": 1, "accept": 3, "error": 0}
    states, pos, head = [0], 0, None
    for step in steps:
        cell = table.action[states[-1]][
            head.id if step.kind == "goto" else ids[pos]]
        assert cell & 3 == op_of[step.kind] and (cell or step.kind == "error")
        target = cell >> 2
        if step.kind == "shift":
            expected = (f"d{target}", -1, target)
            states.append(target)
            pos += 1
        elif step.kind == "reduce":
            p = g.productions[target]
            body = "".join(f" {s.name}" for s in p.body)
            expected = (f"r{target}: {p.head.name} ->{body}", target, -1)
            del states[len(states) - len(p.body):]
            head = p.head
        elif step.kind == "goto":
            expected = (f"in {states[-1]} with {head.name}: go to {target}",
                        -1, target)
            states.append(target)
        elif step.kind == "accept":
            expected = ("ACCEPT", -1, -1)
        else:
            expected = (f'ERROR: unexpected "{tokens[pos].lexeme or "$"}"',
                        -1, -1)
        assert (step.text, step.production, step.state) == expected


def test_traces_over_interleaved_and_rebuilt_tables_follow_each_table():
    cases, sources = [], []  # sources: (productions, texts in and out)
    for case in generate_cases(seed=2101, count=10):
        language = language_upto(case.productions, "S", 5)
        words = sorted(language)[:6]
        others = [w for w in all_strings(case.terminals, 4) if w not in language]
        if len(words) >= 3 and len(cases) < 2:
            cases.append(case)
            sources.append((case.productions,
                            [" ".join(w) for w in words + others[:4]]))
    assert len(cases) == 2
    oz_sources = [corpus_text("queue.tex"), corpus_text("queue_syntax_error.tex"),
                  corpus_text("empty_class.tex")]
    for i in range(3):  # one table after another, each drive checked
        for table, g, tokens in [
                (cases[0].table, cases[0].grammar, toy_tokens(sources[0][1][i])),
                (*oz(), tokenize(oz_sources[i])),
                (cases[1].table, cases[1].grammar, toy_tokens(sources[1][1][i]))]:
            assert_rows_follow_the_table(traced(tokens, table), tokens, table, g)
    # Tables built and dropped in turn, far more than the texts are kept
    # for: each new table object is made just after the last one is
    # dropped, so it may take the freed block, and with it the id.
    table = None
    for i in range(40):
        productions, texts = sources[i % 2]
        g = Grammar.build(productions, start="S")
        built = build_table(g)
        del table
        table = ParseTable(g, built.n_states)
        table.action = built.action
        for text in texts:
            tokens = toy_tokens(text)
            assert_rows_follow_the_table(traced(tokens, table), tokens, table, g)


def test_trace_texts_are_made_once_per_table_and_never_without_a_trace(corpus):
    _trace_texts.cache_clear()
    table = oz_parse_table()
    for path in sorted(corpus.glob("*.tex")):
        source = path.read_text(encoding="utf-8")
        check_text(source)
        check_text(source, lenient=True)
        try:
            parse(tokenize(source), table)
        except ParseError:
            pass
    assert _trace_texts.cache_info().currsize == 0
    tokens = tokenize(corpus_text("queue.tex"))
    first, second = traced(tokens, table), traced(tokens, table)
    assert first == second
    shared: dict[str, str] = {}  # an action text -> its first object
    for step in first + second:
        if step.kind in ("shift", "reduce", "goto"):
            assert shared.setdefault(step.text, step.text) is step.text
    for a, b in zip(first, second):  # the second drive reuses the first's
        if a.kind in ("shift", "reduce", "goto"):
            assert b.text is a.text
    assert _trace_texts.cache_info().currsize == 1
    parse_spec(tokens)
    assert _trace_texts.cache_info().currsize == 1
