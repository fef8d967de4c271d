"""Grammar core: FIRST/FOLLOW, item sets, canonical collection, tables."""
from __future__ import annotations

import hashlib

import pytest

from ozcheck.grammar import (
    ACCEPT,
    REDUCE,
    SHIFT,
    ConflictReport,
    Grammar,
    GrammarError,
    ParseTable,
    build_table,
    canonical_collection,
    closure,
    compute_first,
    compute_follow,
    dump_first_follow,
    format_grammar,
    goto_set,
    grammar_from_text,
    parse_grammar_text,
)
from ozcheck.parser import accepts

from conftest import FRAGMENT
from oracles import first_oracle, follow_oracle

S_TO_A = [("S", ["a"])]


def names(g, ids):
    return {g.symbols[i].name for i in ids}


def first_names(g, fs, symbol_name: str):
    return names(g, fs.of(g.symbol(symbol_name)))


def item(g, p, dot):
    """The int LR(0) item of production ``p`` with its dot at ``dot``."""
    return g.first_item[p] + dot


def follow_names(g, symbol_name: str):
    fs = compute_first(g)
    follow = compute_follow(g, fs)
    return names(g, follow[g.symbol(symbol_name).id])


# ---------------------------------------------------------------------------
# construction and registry


def test_build_registers_symbols_and_augments():
    g = Grammar.build(S_TO_A)
    assert [s.name for s in g.symbols] == ["S", "a", "$", "S'"]
    assert g.productions[0].head is g.augmented_start
    assert g.productions[0].body == (g.start,)
    assert g.productions[1].index == 1
    assert g.symbol("a").is_terminal
    assert not g.symbol("S").is_terminal


def test_build_rejects_empty_and_reserved():
    with pytest.raises(GrammarError):
        Grammar.build([])
    with pytest.raises(GrammarError):
        Grammar.build([("S", ["$"])])
    with pytest.raises(GrammarError):
        Grammar.build([("S", ["a"])], start="T")
    with pytest.raises(GrammarError):
        Grammar.build([("S", [""])])
    with pytest.raises(GrammarError):
        Grammar.build(S_TO_A).symbol("zz")


def test_augmented_start_takes_a_free_name():
    g = Grammar.build([("S", ["b", "S'"]), ("S'", ["a"])])
    assert g.augmented_start.name == "S''"
    assert g.productions[0].body == (g.symbol("S"),)
    table = build_table(g)
    assert accepts(table, [g.symbol("b").id, g.symbol("a").id])
    assert not accepts(table, [g.symbol("a").id])


# ---------------------------------------------------------------------------
# FIRST


def test_first_single_terminal_production():
    g = Grammar.build(S_TO_A)
    fs = compute_first(g)
    assert first_names(g, fs, "S") == {"a"}
    assert not fs.is_nullable(g.symbol("S"))


def test_first_of_terminal_is_itself():
    g = Grammar.build(S_TO_A)
    fs = compute_first(g)
    assert first_names(g, fs, "a") == {"a"}


def test_first_nullable_prefix():
    g = Grammar.build([("S", ["A", "b"]), ("A", [])])
    fs = compute_first(g)
    assert first_names(g, fs, "S") == {"b"}
    assert fs.is_nullable(g.symbol("A"))
    assert not fs.is_nullable(g.symbol("S"))
    got, nullable = first_oracle([("S", ["A", "b"]), ("A", [])], "S")
    assert got == {"b"} and not nullable


def test_first_fragment_matches_enumeration_to_depth_6():
    g = Grammar.build(FRAGMENT)
    fs = compute_first(g)
    assert first_names(g, fs, "Paragraph") == {"\\begin{class}"}
    oracle, nullable = first_oracle(FRAGMENT, "Paragraph", max_len=6)
    assert oracle == {"\\begin{class}"}
    assert not nullable


def test_first_fixpoint_equations_hold():
    g = Grammar.build(FRAGMENT)
    fs = compute_first(g)
    # one more pass of the defining equations must add nothing
    for p in g.productions:
        body_first, body_nullable = fs.of_sequence(p.body)
        assert body_first <= fs.of(p.head)
        if body_nullable:
            assert fs.is_nullable(p.head)


# ---------------------------------------------------------------------------
# FOLLOW


def test_follow_start_gets_end_marker():
    g = Grammar.build(S_TO_A)
    assert follow_names(g, "S") == {"$"}


def test_follow_fragment_values():
    g = Grammar.build(FRAGMENT)
    assert follow_names(g, "ParagraphList") == {"$"}
    assert follow_names(g, "Paragraph") == {"\\begin{class}", "$"}
    assert follow_names(g, "ClassHeading") == {"}"}


def test_follow_fragment_matches_enumeration():
    oracle = follow_oracle(FRAGMENT, "ParagraphList")
    assert oracle["ParagraphList"] == {"$"}
    assert oracle["Paragraph"] == {"\\begin{class}", "$"}
    assert oracle["ClassHeading"] == {"}"}


def test_follow_fixpoint_equations_hold():
    g = Grammar.build(FRAGMENT)
    fs = compute_first(g)
    follow = compute_follow(g, fs)
    for p in g.productions:
        for i, sym in enumerate(p.body):
            if sym.is_terminal:
                continue
            rest_first, rest_nullable = fs.of_sequence(p.body[i + 1 :])
            assert rest_first <= follow[sym.id]
            if rest_nullable:
                assert follow[p.head.id] <= follow[sym.id]


# ---------------------------------------------------------------------------
# closure / goto


def test_closure_of_empty_is_empty():
    g = Grammar.build(FRAGMENT)
    assert closure([], g) == frozenset()


def test_closure_of_start_item_pulls_in_all_alternatives():
    g = Grammar.build(FRAGMENT)
    state0 = closure([item(g, 0, 0)], g)
    produced = {p.index for p in g.productions if item(g, p.index, 0) in state0}
    # both ParagraphList productions and both Paragraph productions
    assert {0, 1, 2, 3, 4} <= produced


def test_closure_with_dot_before_terminal_adds_nothing():
    g = Grammar.build(FRAGMENT)
    at = item(g, 3, 0)  # dot before \begin{class}
    assert closure([at], g) == frozenset({at})


def test_goto_advances_kernel_items():
    g = Grammar.build(FRAGMENT)
    state0 = closure([item(g, 0, 0)], g)
    advanced = goto_set(state0, g.symbol("\\begin{class}"), g)
    assert item(g, 3, 1) in advanced and item(g, 4, 1) in advanced


def test_goto_on_absent_symbol_is_empty():
    g = Grammar.build(S_TO_A)
    state0 = closure([item(g, 0, 0)], g)
    assert goto_set(state0, g.end_marker, g) == frozenset()


def test_goto_result_is_already_closed():
    g = Grammar.build(FRAGMENT)
    state0 = closure([item(g, 0, 0)], g)
    advanced = goto_set(state0, g.symbol("Paragraph"), g)
    assert closure(advanced, g) == advanced


# ---------------------------------------------------------------------------
# canonical collection


def test_collection_of_single_production_grammar():
    g = Grammar.build(S_TO_A)
    coll = canonical_collection(g)
    assert len(coll.states) == 3
    assert coll.states[0] == closure([item(g, 0, 0)], g)
    assert coll.states[1] == frozenset({item(g, 0, 1)})  # S' -> S ·
    assert coll.states[2] == frozenset({item(g, 1, 1)})  # S -> a ·


def test_collection_has_no_duplicate_states():
    g = Grammar.build(FRAGMENT)
    coll = canonical_collection(g)
    assert len(set(coll.states)) == len(coll.states)


def test_fragment_heading_reduction_state_reachable_from_brace_successor():
    g = Grammar.build(FRAGMENT)
    coll = canonical_collection(g)
    s = coll.transitions[(0, g.symbol("\\begin{class}").id)]
    s = coll.transitions[(s, g.symbol("{").id)]
    s = coll.transitions[(s, g.symbol("Word").id)]
    heading_to_word = next(
        p for p in g.productions if p.head.name == "ClassHeading"
    )
    assert item(g, heading_to_word.index, 1) in coll.states[s]


def test_collection_is_deterministic():
    a = canonical_collection(Grammar.build(FRAGMENT))
    b = canonical_collection(Grammar.build(FRAGMENT))
    assert a.states == b.states
    assert a.transitions == b.transitions


# ---------------------------------------------------------------------------
# table construction


def test_table_for_single_production_grammar():
    g = Grammar.build(S_TO_A)
    table = build_table(g)
    assert isinstance(table, ParseTable)
    a = g.symbol("a").id
    end = g.end_marker.id
    assert table.action[0][a] == 2 * 4 + SHIFT
    assert table.action[0][g.start.id] == 1 * 4 + SHIFT  # the goto on S
    assert table.action[1][end] == ACCEPT
    assert table.action[2][end] == 1 * 4 + REDUCE


def test_exactly_one_accept_cell():
    for prods in (S_TO_A, FRAGMENT):
        table = build_table(Grammar.build(prods))
        accepts = [cell for row in table.action for cell in row if cell == ACCEPT]
        assert len(accepts) == 1


def test_duplicate_production_forces_reduce_reduce_conflict():
    report = build_table(Grammar.build([("S", ["a"]), ("S", ["a"])]))
    assert isinstance(report, ConflictReport)
    assert report.conflicts
    kinds = {cell & 3 for c in report.conflicts for cell in c.actions}
    assert kinds == {REDUCE}
    assert "conflict" in report.describe()


# SHA-256 of ``describe()`` for a reduce/reduce and a shift/reduce grammar,
# recorded while ACTION cells were still objects; the text must not change.
CONFLICT_DIGESTS = {
    "reduce/reduce": (
        [("S", ["a"]), ("S", ["a"])],
        "4174b0365947777a299933bc3d8824ac0f27e7f97992cda0bc59e31c49773dc1",
    ),
    "shift/reduce": (
        [("E", ["E", "+", "E"]), ("E", ["E", "*", "E"]), ("E", ["a"])],
        "828a436f956ee792ad642c53ecc0a377e1cf570d1a07be4f55fa62ef68964498",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFLICT_DIGESTS))
def test_conflict_report_text_is_pinned(name):
    productions, digest = CONFLICT_DIGESTS[name]
    report = build_table(Grammar.build(productions))
    assert isinstance(report, ConflictReport)
    text = report.describe()
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def replay_actions(table, terminal_names):
    """ACTION-cell sequence for a terminal string (gotos not recorded)."""
    g = table.grammar
    ids = [g.symbol(n).id for n in terminal_names] + [g.end_marker.id]
    states = [0]
    log = []
    i = 0
    while True:
        cell = table.action[states[-1]][ids[i]]
        assert cell, "replay hit an error cell"
        if cell & 3 == SHIFT:
            log.append("shift")
            states.append(cell >> 2)
            i += 1
        elif cell & 3 == REDUCE:
            p = g.productions[cell >> 2]
            log.append(("reduce", str(p)))
            if p.body:
                del states[-len(p.body) :]
            goto = table.action[states[-1]][p.head.id]
            assert goto & 3 == SHIFT, "a goto is a shift cell"
            states.append(goto >> 2)
        else:
            assert cell == ACCEPT
            log.append("accept")
            return log


def test_fragment_replay_matches_expected_action_sequence():
    table = build_table(Grammar.build(FRAGMENT))
    assert isinstance(table, ParseTable)
    log = replay_actions(
        table, ["\\begin{class}", "{", "Word", "}", "\\end{class}"]
    )
    assert log == [
        "shift",
        "shift",
        "shift",
        ("reduce", "ClassHeading -> Word"),
        "shift",
        "shift",
        (
            "reduce",
            "Paragraph -> \\begin{class} { ClassHeading } \\end{class}",
        ),
        ("reduce", "ParagraphList -> Paragraph"),
        "accept",
    ]


def test_table_determinism():
    t1 = build_table(Grammar.build(FRAGMENT))
    t2 = build_table(Grammar.build(FRAGMENT))
    assert t1.action == t2.action
    assert t1.dimensions() == t2.dimensions()


# ---------------------------------------------------------------------------
# interchange format and dumps


def test_interchange_round_trip():
    g = Grammar.build(FRAGMENT)
    text = format_grammar(g)
    g2 = grammar_from_text(text, start="ParagraphList")
    assert [str(p) for p in g.productions] == [str(p) for p in g2.productions]
    assert [s.name for s in g.symbols] == [s.name for s in g2.symbols]


def test_interchange_quotes_backslashes_and_braces():
    g = Grammar.build(FRAGMENT)
    text = format_grammar(g)
    assert '"\\begin{class}"' in text
    assert '"{"' in text


def test_interchange_parses_comments_and_epsilon():
    prods = parse_grammar_text("# comment\nA -> b A\nA ->\n")
    assert prods == [("A", ["b", "A"]), ("A", [])]
    with pytest.raises(GrammarError):
        parse_grammar_text("A = b\n")
    with pytest.raises(GrammarError):
        parse_grammar_text("# only a comment\n")


def test_table_dump_shape():
    table = build_table(Grammar.build(S_TO_A))
    dump = table.dump_tsv()
    lines = dump.strip().split("\n")
    assert lines[0].startswith("# productions: 2")
    assert "# table: 3x" in lines[1]
    header = lines[2].split("\t")
    assert header[0] == "state" and "$" in header and "S" in header
    assert any("acc" in line for line in lines[3:])
    assert any("s2" in line for line in lines[3:])
    assert any("r1" in line for line in lines[3:])


def test_first_follow_dump_is_deterministic_text():
    g = Grammar.build(FRAGMENT)
    text = dump_first_follow(g)
    assert text == dump_first_follow(Grammar.build(FRAGMENT))
    assert "FIRST(Paragraph) = { \\begin{class} }" in text
    assert "FOLLOW(ClassHeading) = { } }" in text
    assert "(nullable)" in text  # the filler sections are nullable
