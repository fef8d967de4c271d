"""Tokenizer: unit classification, positions, modes, and terminal mapping."""
from __future__ import annotations

import json
import pickle
import subprocess
import sys
import threading
import tracemalloc
import unicodedata
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ozcheck import check_text, lexer
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
from ozcheck.ozgrammar import object_z_grammar, parse_spec
from ozcheck.parser import ParseError

from conftest import CORPUS, corpus_text, toy_tokens
from oracles import naive_tokenize
from randgrammars import generate_cases
from test_trace_stream import child_env


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


def held_per_token(source: str) -> float:
    """Bytes that the stream of ``source`` holds per token, traced."""
    tokenize(source[:1000])  # warm the module-level caches first
    tracemalloc.start()
    try:
        ts = tokenize(source)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ts) >= 10**5
    return held / len(ts)


def test_tokenize_holds_at_most_200_bytes_per_token():
    # 136 B/token when each token was one flat five-field tuple, and 228
    # when each token held a separate position tuple
    assert held_per_token(corpus_text("queue.tex") * 1200) <= 200


def test_tokenize_holds_at_most_90_bytes_per_token():
    # columns of lexemes, kinds and offsets, with no token built: 58
    # B/token, most of it one int object per offset
    assert held_per_token(corpus_text("queue.tex") * 1200) <= 90


def test_a_stream_holds_at_most_30_bytes_per_token_until_a_position_is_read():
    # the lexeme and kind columns alone: 17.7 B/token, against 58.5 when
    # each unit's offset was kept from the start
    assert held_per_token(corpus_text("queue.tex") * 1200) <= 30


def test_a_clean_check_locates_no_unit(monkeypatch):
    source = corpus_text("queue.tex")
    tokenize(source)  # a miss is located, to report it if it fails
    located = []
    start = lexer.TokenStream._start
    monkeypatch.setattr(lexer.TokenStream, "_start", lambda stream, i: (
        located.append(i) or start(stream, i)))
    assert check_text(source) == [] and located == []
    assert check_text(corpus_text("queue_semantic_errors.tex")) and located


# a child process checks a clean source of over 5 * 10**5 tokens in 400 MB
# of address space and reports what its resident peak grew by per token:
# 83 B/token with a columnar stream, 141 with one token record per unit
BIG_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
from ozcheck import check_text, tokenize
source = sys.stdin.read()
check_text(source[:2000])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
found = check_text(source)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
tokens = len(tokenize(source)) - 1
print(json.dumps({"found": found, "tokens": tokens,
                  "bytes_per_token": grown * 1024 / tokens}))
"""


def test_a_clean_source_of_half_a_million_tokens_checks_in_bounded_memory():
    source = corpus_text("queue.tex") * 6000
    result = subprocess.run(
        [sys.executable, "-c", BIG_CHILD], input=source, capture_output=True,
        text=True, env=child_env(), timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    got = json.loads(result.stdout)
    assert got["found"] == [] and got["tokens"] >= 5 * 10**5
    assert got["bytes_per_token"] <= 120


# A child process with 400 MB of address space times one shape of input at
# n and at 8n units, best of three, and prints the two times: a cost that
# grows with the square of n takes 64 times as long at 8n.
LINEAR_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
from ozcheck import lexer
shape, n = sys.argv[1], int(sys.argv[2])

def words(n, distinct):
    return "\\n".join(" ".join(f"w{j % distinct}" for j in range(i, i + 10))
                     for i in range(0, n, 10))

def run(n):
    if shape == "misses":  # every unit a new piece
        source = words(n, n)
        for lenient in (False, True):
            lexer._VOCABULARY.clear()
            stream = lexer.tokenize(source, lenient)
        return stream.lexemes[n - 1] == f"w{n - 1}"
    source = words(n, 100) + (" 9x" if shape == "last-unit-fails" else "")
    # the last unit's line, and the column just past it
    at = (source.count("\\n") + 1, len(source) - source.rfind("\\n"))
    if shape == "last-unit-fails":
        for lenient in (False, True):
            try:
                lexer.tokenize(source, lenient)
                return False
            except lexer.LexError as e:
                d = e.diagnostic
                if (d.symbol, d.line, d.column + 2) != ("9x", *at):
                    return False
        return True
    stream = lexer.tokenize(source)
    order = range(n + 1) if shape == "forward" else range(n, -1, -1)
    read = {i: stream[i] for i in order}
    return (tuple(read[0]), tuple(read[n])) == (
        ("w0", "Word", 0, 1, 1), ("", "$", n, *at))

times = [float("inf")] * 2
for k, size in enumerate((n, 8 * n)):
    for _ in range(3):
        start = time.perf_counter()
        ok = run(size)
        times[k] = min(times[k], time.perf_counter() - start)
        if not ok:
            sys.exit(f"wrong outcome at {size}")
print(json.dumps(times))
"""


@pytest.mark.parametrize("shape, n", [
    ("misses", 20_000),  # past the vocabulary's cap at n already
    ("last-unit-fails", 20_000),
    ("reverse", 12_500), ("forward", 12_500),  # 10**5 positions at 8n
])
def test_lexing_and_reading_positions_take_linear_time(shape, n):
    result = subprocess.run(
        [sys.executable, "-c", LINEAR_CHILD, shape, str(n)],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    small, large = json.loads(result.stdout)
    assert large < 24 * small + 0.05, (small, large)


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
# blanks that are not line breaks, and a comment line after blanks, are
# where a split of the whole text could part from a scan of each line
_blank = st.sampled_from([" ", "  ", "\t", "\n", "\n% note\n", "\n  ",
                          "\x85", "\xa0", "\u2028", "\r", "\x0b", "\x0c",
                          "\x1c", "\x1f", "\u3000", "\r\n", "\n \t% c\n"])


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


@pytest.mark.parametrize("lenient", [False, True])
@given(st.data())
def test_positions_agree_with_naive_oracle_in_any_read_order(lenient, data):
    # a unit is located when its position is first read, so reads out of
    # stream order must find what a read in order finds; pieces glued by
    # punctuation split into pieces that all lex
    glued = st.tuples(_piece, st.sampled_from("{}[](),:"), _piece).map("".join)
    unit = st.one_of(_piece, glued) if lenient else _piece
    units = data.draw(st.lists(st.tuples(unit, _blank), max_size=40))
    source = data.draw(_blank) + "".join(u + blank for u, blank in units)
    expected, error = naive_tokenize(source, lenient)
    assert error is None
    n = len(expected)
    for order in (data.draw(st.permutations(range(n))), range(n)[::-1],
                  [n - 1, *range(n - 1)]):
        ts = tokenize(source, lenient=lenient)
        assert [tuple(ts[i]) for i in order] == [expected[i] for i in order]


def test_one_vocabulary_serves_both_modes(monkeypatch):
    # each text that classifies is one lenient piece, so a unit stored by a
    # strict call is what a lenient call would split it into
    monkeypatch.setattr(lexer, "_VOCABULARY", {})
    strict = "\\begin{a,b} \\\\ {"
    assert lexer_outcome(strict, False) == naive_tokenize(strict, False)
    for source in (strict, "\\begin{a,b}{\\\\", "{\\begin{a,b}"):
        assert lexer_outcome(source, True) == naive_tokenize(source, True)
    # a glued unit is split before it is stored, so strict mode still
    # rejects it where the oracle does
    glued = "a\n  x, b"
    assert lexer_outcome(glued, True) == naive_tokenize(glued, True)
    assert lexer_outcome(glued, False) == naive_tokenize(glued, False)
    assert naive_tokenize(glued, False)[1][1:] == ("x,", 2, 3)
    assert {"x", ","} <= lexer._VOCABULARY.keys()
    assert "x," not in lexer._VOCABULARY


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


def counting_classify(monkeypatch) -> Counter:
    """Count the pieces ``tokenize`` classifies, from an empty vocabulary."""
    calls: Counter = Counter()
    classify = lexer._classify

    def counting(piece, line, column):
        calls[piece] += 1
        return classify(piece, line, column)

    monkeypatch.setattr(lexer, "_VOCABULARY", {})
    monkeypatch.setattr(lexer, "_classify", counting)
    return calls


@pytest.mark.parametrize("lenient", [False, True])
def test_each_distinct_piece_is_classified_once_per_process(monkeypatch, lenient):
    calls = counting_classify(monkeypatch)
    first = tokenize(_MEMO_SOURCES[lenient], lenient=lenient)
    assert len(first) == 16
    assert calls == Counter({t.lexeme for t in first if t.lexeme})

    calls.clear()  # the vocabulary outlives the call
    second = tokenize(_MEMO_SOURCES[lenient], lenient=lenient)
    assert second == first and not calls
    assert all(a.lexeme is b.lexeme for a, b in zip(first, second))

    for _ in range(2):  # a piece that fails is never stored
        with pytest.raises(LexError) as exc:
            tokenize("ok 9x \nok 9x", lenient=lenient)
        assert (exc.value.diagnostic.line, exc.value.diagnostic.column) == (1, 4)
        assert "ok" in lexer._VOCABULARY and "9x" not in lexer._VOCABULARY
    assert calls == Counter({"ok": 1, "9x": 2})


@pytest.mark.parametrize("lenient", [False, True])
def test_vocabulary_stays_within_its_cap(monkeypatch, lenient):
    calls = counting_classify(monkeypatch)
    cap = lexer._VOCABULARY_CAP
    sizes = []
    classify = lexer._classify

    def sizing(piece, line, column):
        sizes.append(len(lexer._VOCABULARY))
        return classify(piece, line, column)

    monkeypatch.setattr(lexer, "_classify", sizing)
    words = [f"w{i}" for i in range(cap + cap // 2)]
    # one source with more distinct pieces than the cap, whose last line
    # repeats pieces from before and after the clear; then sources of a
    # quarter cap each, two of them repeating earlier ones
    lines = [" ".join(words[i:i + 64]) for i in range(0, len(words), 64)]
    sources = ["\n".join(lines + [f"{words[0]} ( {words[-1]} ) {words[cap]}"])]
    sources += [" ".join(f"v{k}x{i}" for i in range(cap // 4)) for k in range(6)]
    sources += [sources[1], sources[-1]]
    for source in sources:
        assert lexer_outcome(source, lenient) == naive_tokenize(source, lenient)
        assert len(lexer._VOCABULARY) <= cap
    # a store only follows a classification, which sees the size it left
    assert max(sizes) <= cap and min(sizes[cap:]) <= 1  # cleared when full
    # each piece classified once until a clear: no piece more than twice
    assert calls.most_common(1)[0][1] <= 2


@pytest.mark.parametrize("cap", [lexer._VOCABULARY_CAP, 8])
def test_concurrent_checks_share_the_vocabulary(monkeypatch, cap):
    # a cap of 8 clears the vocabulary while the other threads read it
    paths = sorted(CORPUS.iterdir())
    jobs = [[(p.read_text(encoding="utf-8"), lenient) for p in paths[k::4]
             for lenient in (False, True)] for k in range(4)]
    monkeypatch.setattr(lexer, "_VOCABULARY_CAP", cap)
    monkeypatch.setattr(lexer, "_VOCABULARY", {})
    expected = [[check_text(source, lenient) for source, lenient in job]
                for job in jobs]
    monkeypatch.setattr(lexer, "_VOCABULARY", {})
    start = threading.Barrier(4)
    results: list = [None] * 4

    def worker(k):
        try:
            start.wait(timeout=60)
            results[k] = [[check_text(source, lenient)
                           for source, lenient in jobs[k]] for _ in range(20)]
        except Exception as e:  # reported by the assertion below
            results[k] = e

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[e] * 20 for e in expected]


def test_threads_reading_one_stream_find_the_oracles_positions():
    # each round, four threads start reading the positions of one fresh
    # stream together, each in its own order; a walk that wrote into a list
    # another thread reads, or published one half filled, would misplace a
    # unit
    source = corpus_text("queue.tex") * 200  # a walk long enough to switch in
    expected, _ = naive_tokenize(source, True)
    n = len(expected)
    orders = [range(n), range(n - 1, -1, -1), range(0, n, 7),
              [*range(n - 1, -1, -3), *range(n)]]
    rounds = 5
    streams = [tokenize(source, lenient=True) for _ in range(rounds)]
    start = threading.Barrier(4)
    results: list = [None] * 4

    def worker(k):
        try:
            read = results[k] = []
            for stream in streams:
                start.wait(timeout=60)  # all four on the same stream
                read.append([tuple(stream[i]) for i in orders[k]])
        except Exception as e:  # reported by the assertion below
            results[k] = e

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[[expected[i] for i in order]] * rounds
                       for order in orders]


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_corpus_tokenizes_as_naive_oracle(path, lenient):
    source = path.read_text(encoding="utf-8")
    assert lexer_outcome(source, lenient) == naive_tokenize(source, lenient)


def test_a_unit_past_column_two_to_the_twentieth_keeps_its_column():
    # no packed line/column encoding: 1.1 M blanks before the unit
    source = "a\n" + " " * 1_100_000 + "x y"
    for lenient in (False, True):
        outcome = lexer_outcome(source, lenient)
        assert outcome == naive_tokenize(source, lenient)
        assert outcome[0][1:3] == [("x", WORD, 1, 2, 1_100_001),
                                   ("y", WORD, 2, 2, 1_100_003)]


@pytest.mark.parametrize("lenient", [False, True])
def test_a_wrapped_source_with_no_unit_ends_in_the_end_marker_at_1_1(lenient):
    # a preamble and no class: the region stops at \end{document} before
    # any unit
    source = ("% title\n  \n\\end{document}\n\\documentclass{article}\n"
              "\\usepackage{oz}\n")
    assert lexer_outcome(source, lenient) == naive_tokenize(source, lenient)
    assert lexer_outcome(source, lenient) == ([("", END_MARKER, 0, 1, 1)], None)


@pytest.mark.parametrize("lenient", [False, True])
def test_end_document_in_a_comment_does_not_stop_the_lexer(lenient):
    source = ("\\documentclass{article}\n\\begin{document}\n"
              "\\begin{class} { A }\n  % \\end{document}\n\\end{class}\n"
              "\\end{document}\n\\begin{class} { B } \\end{class}\n")
    outcome = lexer_outcome(source, lenient)
    assert outcome == naive_tokenize(source, lenient)
    assert [t[0] for t in outcome[0]] == [
        "\\begin{class}", "{", "A", "}", "\\end{class}", ""]
    assert outcome[0][4][3] == 5


def test_repeated_failing_unit_reports_its_first_occurrence():
    for lenient in (False, True):
        with pytest.raises(LexError) as exc:
            tokenize("ok 9x \nok 9x", lenient=lenient)
        d = exc.value.diagnostic
        assert (d.line, d.column) == (1, 4)


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_a_stream_builds_each_token_once_and_agrees_with_its_columns(
        path, lenient):
    source = path.read_text(encoding="utf-8")
    stream = tokenize(source, lenient=lenient)
    n = len(stream)
    for i in (0, n // 2, n - 1, -1, -n):
        assert stream[i] is stream[i] and stream[i] is stream[i % n]
    for a, b in [(0, n), (3, 9), (n - 2, n + 5), (-4, -1), (5, 2)]:
        assert stream[a:b] == tuple(stream[i] for i in range(n)[a:b])
    with pytest.raises(IndexError):
        stream[n]
    with pytest.raises(IndexError):
        stream[-n - 1]
    expected, error = naive_tokenize(source, lenient)
    assert error is None
    assert stream.tokens == tuple(tokenize(source, lenient=lenient)) == tuple(
        lexer.Token(*t) for t in expected)
    assert all(a is b for a, b in zip(stream.tokens, stream))
    assert stream.lexemes == [t.lexeme for t in stream.tokens]
    assert stream.kinds == [t.kind for t in stream.tokens]


def test_a_parse_error_from_a_read_stream_still_pickles():
    stream = tokenize("\\begin{class} { Q = } \\end{class}")
    stream.tokens  # every token built and kept by the stream
    with pytest.raises(ParseError) as raised:
        parse_spec(stream)
    back = pickle.loads(pickle.dumps(raised.value))
    assert back.diagnostic == raised.value.diagnostic
    assert (back.diagnostic.symbol, back.diagnostic.column) == ("=", 19)


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


def test_a_word_names_no_terminal_of_a_lexeme_alphabet():
    # a word's kind is Word, never its lexeme; a grammar whose terminals are
    # lexemes is driven by toy_tokens, whose kinds are the lexemes
    g = Grammar.build([("S", ["a", "S"]), ("S", ["b"])])
    with pytest.raises(UnknownTokenError) as exc:
        terminal_of(tokenize("a b")[0], g)
    d = exc.value.diagnostic
    assert (d.code, d.symbol, d.line, d.column) == ("OZ-LEX-001", "a", 1, 1)
    assert [terminal_of(t, g).name for t in toy_tokens("a b")[:-1]] == ["a", "b"]
    with pytest.raises(UnknownTokenError):
        terminal_of(toy_tokens("c")[0], g)


def _expected_terminal(lexeme: str) -> str:
    """The name of the terminal a unit's kind names, from its lexeme alone."""
    if lexeme == "":
        return "$"
    if lexeme in ("\\", "\\\\"):
        return "\\\\"
    return ("Number" if lexeme.isdigit() else
            "Word" if lexeme[0].isalpha() else lexeme)


def test_terminal_of_on_random_grammars_maps_each_kind_to_its_own_terminal():
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
                name = _expected_terminal(t.lexeme)
                sym = g.try_symbol(name)
                if sym is None or not sym.is_terminal:
                    with pytest.raises(UnknownTokenError):
                        terminal_of(t, g)
                else:
                    assert terminal_of(t, g) is sym, (t, extra)
