"""Shift-reduce driver: traces, trees, and error localization."""
from __future__ import annotations

import hashlib
import re

import pytest

from ozcheck import check_text
from ozcheck.grammar import Grammar, build_table
from ozcheck.lexer import tokenize
from ozcheck.ozgrammar import object_z_grammar, oz_parse_table
from ozcheck.parser import (
    ParseError,
    accepts,
    parse,
    parse_with_trace,
    render_trace,
)

from conftest import ast_both_ways, corpus_text, naive_trace_rows

# SHA-256 of the rendered trace of each corpus file, recorded from the
# per-row rendering that ``trace_oracle`` keeps as the reference; the
# paper's trace rows must not change.
TRACE_DIGESTS = {
    "circular_decl.tex": "7cb3962f0f2724afd87e24378f85c92cb361ef60afde0e49b52036851395ae0c",
    "delta_not_state_var.tex": "696961833442740ce8ffca0f50dfda55c82e4f7dfb9457855b9e5a66aee9a7d9",
    "duplicate_decl.tex": "74d5271609d28eb40ce9b72e20ac70b66031b0e344efcf8e222781917fc41daa",
    "empty_class.tex": "3a8508f8387c4691d4b5cc094a4fd17f7dc5445f3c8dedd3ec3ec8ffac504bd1",
    "queue.tex": "67b69544d6e2553b5db0f1a8ca23557d1cddc8ee6c63fe158a5e6802c6291fa5",
    "queue_semantic_errors.tex": "20a18e4da7112c111b0ae19ee0a06f6328e9e1b933fa55998ab57d65142515a6",
    "queue_syntax_error.tex": "7e2b46e43391a9d0e2db3fd9cce4c419fbed32ec015b09477a5e11e72514a993",
    "type_name_reuse.tex": "835954f6632123f524ecbda6dcf95934bac80969347a91544777ca52f345fb29",
    "undefined_type.tex": "f435643883be203f9a90cbc73c48024cf6a5322826d78cdccbe53c08ca7b7009",
}


def oz():
    return oz_parse_table(), object_z_grammar()


def corpus_trace(name: str):
    """Tokens and trace of a corpus file; the error trace if it fails."""
    table, g = oz()
    tokens = tokenize(corpus_text(name))
    try:
        return tokens, parse_with_trace(tokens, table, g)[1]
    except ParseError as e:
        return tokens, e.trace


def test_single_production_trace():
    g = Grammar.build([("S", ["a"])])
    table = build_table(g)
    tree, steps = parse_with_trace(tokenize("a"), table, g)
    assert [s.kind for s in steps] == ["shift", "reduce", "goto", "accept"]
    assert tree.symbol.name == "S"
    assert [t.lexeme for t in tree.frontier()] == ["a"]


def test_empty_class_trace_shape_on_shipped_grammar():
    table, g = oz()
    tree, steps = parse_with_trace(
        tokenize(r"\begin{class} { A } \end{class}"), table, g
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
    table, g = oz()
    _, steps = parse_with_trace(
        tokenize(r"\begin{class} { A } \end{class}"), table, g
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
    table, g = oz()
    _, steps = parse_with_trace(
        tokenize(r"\begin{class} { A } \end{class}"), table, g
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
    table, g = oz()
    tokens = tokenize(queue_source)
    tree = parse(tokens, table, g)
    assert [t.lexeme for t in tree.frontier()] == [
        t.lexeme for t in tokens if t.lexeme
    ]


def test_reduce_sequence_is_reverse_rightmost_derivation(queue_source):
    table, g = oz()
    tokens = tokenize(queue_source)
    _, steps = parse_with_trace(tokens, table, g)
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
    table, g = oz()
    tokens = tokenize(queue_source)
    _, steps = parse_with_trace(tokens, table, g)
    shifts = sum(1 for s in steps if s.kind == "shift")
    reduces = sum(1 for s in steps if s.kind == "reduce")
    gotos = sum(1 for s in steps if s.kind == "goto")
    assert shifts == len(tokens) - 1  # everything but the end marker
    assert gotos == reduces  # each reduce is followed by its goto


def test_state_equals_mutation_error_location():
    table, g = oz()
    tokens = tokenize(corpus_text("queue_syntax_error.tex"))
    with pytest.raises(ParseError) as exc:
        parse(tokens, table, g)
    d = exc.value.diagnostic
    assert d.symbol == "="
    assert d.line == 5 and d.column == 7
    assert d.class_name == "Queue"
    assert d.block == "state-schema"
    assert d.detail == '":"'
    assert d.code == "OZ-SYN-001"


def test_error_trace_ends_at_offending_token():
    table, g = oz()
    tokens = tokenize(corpus_text("queue_syntax_error.tex"))
    with pytest.raises(ParseError) as exc:
        parse_with_trace(tokens, table, g)
    steps = exc.value.trace
    assert steps[-1].kind == "error"
    assert steps[-1].remaining.startswith("=")


def test_empty_stream_errors_at_end_marker_top_level():
    table, g = oz()
    with pytest.raises(ParseError) as exc:
        parse(tokenize(""), table, g)
    d = exc.value.diagnostic
    assert d.symbol == "$"  # the end marker
    assert d.class_name is None
    assert d.block == "top-level"
    assert set(d.detail.split(", ")) == {'"\\begin{class}"', '"["'}


def test_error_block_labels_track_environments():
    table, g = oz()
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
            parse(tokenize(source), table, g)
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
    table, g = oz()
    tree = parse(tokenize(corpus_text("empty_class.tex")), table, g)
    leaf = tree.children[0].children[0]
    assert leaf.token is not None and tree.token is None
    for node in (tree, leaf):
        with pytest.raises(AttributeError):
            node.children = ()
        with pytest.raises(AttributeError):
            node.extra = 1


def test_deep_trees_compare_and_hash_without_recursion():
    table, g = oz()
    body = " \\\\\n".join(f"x{i} : \\nat" for i in range(5000))
    source = (f"\\begin{{class}} {{ A }}\n\\begin{{state}}\n{body}\n"
              "\\end{state}\n\\end{class}")
    tokens = tokenize(source)
    assert len(tokens) == 20_007
    a, b = parse(tokens, table, g), parse(tokens, table, g)
    assert a == b and not a != b and hash(a) == hash(b)
    other = parse(tokenize(source.replace("x4999", "y4999")), table, g)
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


def test_accepts_refuses_ids_that_are_not_terminals():
    g = Grammar.build([("S", ["a", "S", "b"]), ("S", [])])
    table = build_table(g)
    a, b = g.symbol("a").id, g.symbol("b").id
    for bad in (g.start.id, g.augmented_start.id, -1, len(g.symbols)):
        with pytest.raises(ValueError):
            accepts(table, [a, bad, b])
