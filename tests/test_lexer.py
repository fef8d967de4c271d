"""Tokenizer: unit classification, positions, modes, and terminal mapping."""
from __future__ import annotations

import sys
import tracemalloc
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ozcheck import lexer
from ozcheck.grammar import Grammar
from ozcheck.lexer import (
    END_MARKER,
    LINE_SEP,
    NUMBER,
    WORD,
    LexError,
    UnknownTokenError,
    terminal_of,
    tokenize,
)
from ozcheck.ozgrammar import object_z_grammar

from conftest import CORPUS, corpus_text
from oracles import naive_tokenize
from randgrammars import generate_cases


def kinds(stream):
    return [t.kind for t in stream]


def lexemes(stream):
    return [t.lexeme for t in stream]


def test_class_line():
    ts = tokenize(r"\begin{class} { A } \end{class}")
    assert kinds(ts) == [
        "\\begin{class}", "{", WORD, "}", "\\end{class}", END_MARKER]
    assert lexemes(ts)[0] == "\\begin{class}" and lexemes(ts)[4] == "\\end{class}"


def test_empty_text_yields_only_end_marker():
    ts = tokenize("")
    assert kinds(ts) == [END_MARKER]
    assert (ts[-1].index, ts[-1].line, ts[-1].column) == (0, 1, 1)


def test_declaration_line():
    ts = tokenize(r"items : \seq Item \\")
    assert kinds(ts) == [WORD, ":", "\\seq", WORD, LINE_SEP, END_MARKER]
    assert lexemes(ts)[2] == "\\seq"


def test_decorated_words_are_single_tokens():
    ts = tokenize("items' item? item!")
    assert kinds(ts)[:3] == [WORD] * 3
    assert lexemes(ts)[:3] == ["items'", "item?", "item!"]


def test_numbers_operators_brackets():
    ts = tokenize("0 42 = + , ( ) : [ ] { }")
    assert kinds(ts)[:2] == [NUMBER, NUMBER]
    # every other unit is its own kind
    assert kinds(ts)[2:12] == lexemes(ts)[2:12]


def test_transcribed_separator_pair_gives_two_line_seps():
    # sources sometimes write "\ \" where "\\" is meant; each lone
    # backslash is a line separator and the grammar absorbs runs of them
    ts = tokenize(r"count : \nat \ \hspace".replace(r"\hspace", "\\"))
    seps = [t for t in ts if t.kind == LINE_SEP]
    assert len(seps) == 2


def test_token_count_matches_unit_count():
    src = "a : \\nat \\\\ b : \\num"
    assert len(tokenize(src)) == len(src.split()) + 1


def test_positions_point_at_units():
    src = "items : \\seq Item\ncount : \\nat"
    ts = tokenize(src)
    lines = src.split("\n")
    for t in ts:
        if t.kind == END_MARKER:
            continue
        line = lines[t.line - 1]
        assert line[t.column - 1 : t.column - 1 + len(t.lexeme)] == t.lexeme


def test_positions_strictly_increase():
    ts = tokenize("a b\nc d")
    positions = [(t.index, t.line, t.column) for t in ts]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def test_malformed_environment_raises():
    with pytest.raises(LexError):
        tokenize(r"\begin{class")
    with pytest.raises(LexError):
        tokenize(r"\begin{}")
    with pytest.raises(LexError):
        tokenize(r"\end{state]")


def test_control_character_raises():
    with pytest.raises(LexError):
        tokenize("a \x07 b")


def test_glued_unit_rejected_in_strict_mode():
    with pytest.raises(LexError) as exc:
        tokenize("count:\\nat")
    d = exc.value.diagnostic
    assert d.code == "OZ-LEX-001"
    assert d.line == 1 and d.column == 1


def test_lenient_mode_splits_glued_punctuation():
    ts = tokenize(r"\begin{class}{A}", lenient=True)
    assert lexemes(ts)[:4] == ["\\begin{class}", "{", "A", "}"]
    ts = tokenize("\\visibility(count,Init)", lenient=True)
    assert lexemes(ts)[:6] == ["\\visibility", "(", "count", ",", "Init", ")"]


def test_comment_lines_are_skipped():
    ts = tokenize("% a comment line\na : \\nat")
    assert lexemes(ts)[:1] == ["a"]
    assert ts[0].line == 2


def test_preamble_skipped_when_class_present():
    src = "\\documentclass{article}\n\\begin{document}\n\\begin{class} { A }\n\\end{class}\n\\end{document}\n"
    ts = tokenize(src)
    assert lexemes(ts)[:1] == ["\\begin{class}"]
    assert ts[0].line == 3
    assert not any("document" in t.lexeme for t in ts)


def test_fragment_without_markers_tokenizes_fully():
    ts = tokenize("items : \\seq Item")
    assert len(ts) == 5


def test_tokenize_holds_at_most_200_bytes_per_token():
    # one flat five-field tuple per token: 172 B/token here, and 228 when
    # each token held a separate position tuple
    source = corpus_text("queue.tex") * 1200
    tokenize(source[:1000])  # warm the module-level caches first
    tracemalloc.start()
    try:
        ts = tokenize(source)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ts) >= 10**5
    assert held / len(ts) <= 200


def test_repeated_lexemes_share_one_string():
    ts = tokenize(corpus_text("queue.tex") * 1200)
    assert len({id(t.lexeme) for t in ts}) == len({t.lexeme for t in ts})


def dump_tokens(stream) -> str:
    """One token per line: ``index<TAB>kind<TAB>lexeme<TAB>line:col``."""
    return "".join(
        f"{t.index}\t{t.kind}\t{t.lexeme}\t{t.line}:{t.column}\n"
        for t in stream)


def test_dump_tokens_format():
    text = dump_tokens(tokenize("a : \\nat"))
    lines = text.strip().split("\n")
    assert lines[0] == "0\tWord\ta\t1:1"
    assert lines[-1].startswith("3\t$")


# ---------------------------------------------------------------------------
# whitespace-convention properties

_unit = st.sampled_from(
    ["\\begin{class}", "\\end{op}", "\\seq", "\\Delta", "{", "}", "[", "]",
     "(", ")", ":", "=", "+", ",", "\\\\", "items", "item?", "count'", "0",
     "127", "Queue"]
)


@given(st.lists(_unit, max_size=30), st.randoms())
def test_retokenizing_joined_lexemes_is_identity(units, rng):
    sep = lambda: rng.choice([" ", "  ", "\n", "\t", " \n "])
    source = sep().join(units)
    ts = tokenize(source)
    rejoined = " ".join(t.lexeme for t in ts if t.lexeme)
    ts2 = tokenize(rejoined)
    assert [(t.lexeme, t.kind) for t in ts] == [(t.lexeme, t.kind) for t in ts2]
    assert len(ts) == len(source.split()) + 1


# ---------------------------------------------------------------------------
# agreement with the naive lexer oracle

_piece = st.sampled_from(
    ["\\begin{class}", "\\end{class}", "\\begin{state}", "\\end{op}",
     "\\seq", "\\nat", "\\Delta", "{", "}", "[", "]", "(", ")", ":", "=",
     "+", ",", "\\\\", "\\", "items", "item?", "count'", "x!?", "_tmp",
     "é1", "0", "127", "Queue", "\\documentclass", "\\begin{document}",
     "\\end{document}"]
)
# glued punctuation: pieces joined without blanks
_glued = st.lists(_piece, min_size=2, max_size=3).map("".join)
_odd = st.one_of(
    _glued,
    st.sampled_from(["\\begin{", "\\end{}", "\\begin{a{b}}", "\\begin{x(y}",
                     "٣", "9x", "a\x07", "\x00", "\x7f", "\x1f", "%",
                     "\\begin{a", "b}"]),
)
_blank = st.sampled_from([" ", "  ", "\t", "\n", "\n% note\n", "\n  ",
                          "\x85", "\xa0", "\u2028", "\r"])


@pytest.mark.parametrize("lenient", [False, True])
@given(st.data())
def test_tokenize_agrees_with_naive_oracle(lenient, data):
    # glue is common in lenient sources; in strict ones it is an error
    unit = st.one_of(_piece, _glued) if lenient else _piece
    units = data.draw(st.lists(st.tuples(unit, _blank), max_size=40))
    # repeat some units so that the per-call classification memo is reused
    if units:
        units += data.draw(st.lists(st.sampled_from(units), max_size=20))
    for at, odd, blank in data.draw(
        st.lists(st.tuples(st.integers(0, 60), _odd, _blank), max_size=2)
    ):
        units.insert(at, (odd, blank))
    source = "".join(u + blank for u, blank in units)
    expected, error = naive_tokenize(source, lenient)
    try:
        ts = tokenize(source, lenient=lenient)
    except LexError as e:
        d = e.diagnostic
        assert (d.detail, d.symbol, d.line, d.column) == error
        return
    assert error is None
    assert [(t.lexeme, t.kind, t.index, t.line, t.column) for t in ts] == expected


def lexer_outcome(source: str, lenient: bool):
    """What the lexer gives on ``source``, in the oracle's terms."""
    try:
        ts = tokenize(source, lenient=lenient)
    except LexError as e:
        d = e.diagnostic
        return None, (d.detail, d.symbol, d.line, d.column)
    return [(t.lexeme, t.kind, t.index, t.line, t.column) for t in ts], None


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("source", [
    "\\begin{a b}", "\\begin{ }", "\\end{class}}", "x:\\seq", "a,,b",
    "a\x0bb", "a\x0cb", "a\x85b", "a\xa0b", "a\u2028b", "a\r\nb",
    "\\begin{class}\x85{\xa0A\u2028}\r\n\\end{class}",
])
def test_lenient_edge_cases_agree_with_naive_oracle(source, lenient):
    # an environment delimiter never spans a blank, and every Unicode blank
    # (the ones str.isspace() knows) splits units, in both modes
    assert lexer_outcome(source, lenient) == naive_tokenize(source, lenient)


_CC = [chr(c) for c in range(sys.maxunicode + 1)
       if unicodedata.category(chr(c)) == "Cc"]


def test_control_rule_is_unicode_category_cc():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert lexer._CONTROL_RE.findall(every) == _CC
    assert len(_CC) == 65


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("ch", [ch for ch in _CC if not ch.isspace()],
                         ids=lambda ch: f"U+{ord(ch):04X}")
def test_each_control_character_is_rejected_at_its_unit(ch, lenient):
    unit = f"ab{ch}cd"
    with pytest.raises(LexError) as exc:
        tokenize(f"ok\n  ok {unit} ok", lenient=lenient)
    d = exc.value.diagnostic
    assert (d.detail, d.symbol, d.line, d.column) == (
        "unsupported control character", unit, 2, 6)


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("ch", ["\u00ad", "\u200b", "\ufeff"])
def test_format_characters_are_not_control_characters(ch, lenient):
    source = f"ok ab{ch}cd"
    with pytest.raises(LexError) as exc:
        tokenize(source, lenient=lenient)
    assert exc.value.diagnostic.detail != "unsupported control character"
    assert lexer_outcome(source, lenient) == naive_tokenize(source, lenient)


_MEMO_SOURCES = {
    False: "a : \\nat \\\\\na : \\nat\n\\visibility ( a , b , a )\n",
    True: "a:\\nat \\\\\na : \\nat\n\\visibility(a,b,a)\n",
}


@pytest.mark.parametrize("lenient", [False, True])
def test_each_distinct_piece_is_classified_once_per_call(monkeypatch, lenient):
    calls: Counter = Counter()
    classify = lexer._classify

    def counting(piece, line, column):
        calls[piece] += 1
        return classify(piece, line, column)

    monkeypatch.setattr(lexer, "_classify", counting)
    for _ in range(2):  # the memo lives for one call only
        calls.clear()
        ts = tokenize(_MEMO_SOURCES[lenient], lenient=lenient)
        assert len(ts) == 16
        assert calls == Counter({t.lexeme for t in ts if t.lexeme})

    calls.clear()
    with pytest.raises(LexError) as exc:
        tokenize("ok 9x \nok 9x", lenient=lenient)
    assert calls == Counter({"ok": 1, "9x": 1})
    assert (exc.value.diagnostic.line, exc.value.diagnostic.column) == (1, 4)


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_corpus_tokenizes_as_naive_oracle(path, lenient):
    source = path.read_text(encoding="utf-8")
    assert lexer_outcome(source, lenient) == naive_tokenize(source, lenient)


def test_repeated_failing_unit_reports_its_first_occurrence():
    for lenient in (False, True):
        with pytest.raises(LexError) as exc:
            tokenize("ok 9x \nok 9x", lenient=lenient)
        d = exc.value.diagnostic
        assert (d.line, d.column) == (1, 4)


def test_token_is_immutable():
    token = tokenize("a")[0]
    with pytest.raises(AttributeError):
        token.lexeme = "b"
    with pytest.raises(AttributeError):
        token.extra = 1


# ---------------------------------------------------------------------------
# terminal mapping


def test_word_maps_to_generic_word_terminal():
    g = object_z_grammar()
    ts = tokenize("anything")
    assert terminal_of(ts[0], g).name == "Word"
    # even identifiers spelled like terminal display names stay words
    assert terminal_of(tokenize("Number")[0], g).name == "Word"


def test_end_marker_maps_to_dollar():
    g = object_z_grammar()
    ts = tokenize("")
    assert terminal_of(ts[-1], g) is g.end_marker


def test_commands_map_to_dedicated_terminals():
    g = object_z_grammar()
    ts = tokenize("\\Delta \\visibility \\begin{state} ( : \\\\ \\")
    assert terminal_of(ts[0], g).name == "\\Delta"
    assert terminal_of(ts[1], g).name == "\\visibility"
    assert terminal_of(ts[2], g).name == "\\begin{state}"
    assert terminal_of(ts[3], g).name == "("
    assert terminal_of(ts[4], g).name == ":"
    assert terminal_of(ts[5], g).name == "\\\\"
    assert terminal_of(ts[6], g).name == "\\\\"  # a lone backslash


def test_unknown_command_raises():
    g = object_z_grammar()
    ts = tokenize(r"\unknowncommand")
    with pytest.raises(UnknownTokenError) as exc:
        terminal_of(ts[0], g)
    assert exc.value.diagnostic.code == "OZ-LEX-001"


def test_word_lexeme_lookup_without_generic_terminal():
    # grammars over ad-hoc alphabets use the lexeme itself as the terminal
    g = Grammar.build([("S", ["a", "S"]), ("S", ["b"])])
    ts = tokenize("a b")
    assert terminal_of(ts[0], g).name == "a"
    assert terminal_of(ts[1], g).name == "b"
    with pytest.raises(UnknownTokenError):
        terminal_of(tokenize("c")[0], g)


def _expected_terminal(lexeme: str, g: Grammar) -> str:
    """The terminal a lexeme names in ``g``, from the lexeme alone: the
    generic class when ``g`` has it as a terminal, else the lexeme."""
    def terminal(name):
        sym = g.try_symbol(name)
        return sym is not None and sym.is_terminal

    if lexeme == "":
        return "$"
    if lexeme in ("\\", "\\\\"):
        return "\\\\"
    generic = ("Number" if lexeme.isdigit() else
               "Word" if lexeme[0].isalpha() else None)
    return generic if generic and terminal(generic) else lexeme


def test_terminal_of_on_random_grammars_maps_generic_then_lexeme():
    # each random grammar over a..d as it is; with a generic Word and the
    # terminals 42 and \ (which a lone backslash, a line separator, must not
    # take); and with a generic Number but Word a nonterminal
    units = "a b c d S A Word Number x 42 \\\\ \\ { : \\Delta \\begin{state}"
    tokens = tokenize(units)
    for case in generate_cases(seed=1719, count=20):
        for extra in ([], [("S", ["Word"]), ("S", ["42", "\\"])],
                      [("S", ["Number"]), ("Word", ["a"])]):
            g = Grammar.build(case.productions + extra)
            for t in tokens:
                name = _expected_terminal(t.lexeme, g)
                sym = g.try_symbol(name)
                if sym is None or not sym.is_terminal:
                    with pytest.raises(UnknownTokenError):
                        terminal_of(t, g)
                else:
                    assert terminal_of(t, g) is sym, (t, extra)
