"""Randomized properties: oracle agreement, replay counts, determinism."""
from __future__ import annotations

import hashlib
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ozcheck import check_text
from ozcheck.diagnostics import Diagnostic
from ozcheck.grammar import (
    Grammar,
    ParseTable,
    build_table,
    canonical_collection,
    compute_first,
    compute_follow,
    dump_first_follow,
    first_of_sequence,
    goto_set,
)
from ozcheck.ozgrammar import object_z_grammar
from ozcheck.parser import accepts, parse_with_trace

from conftest import CORPUS, naive_trace_rows, toy_tokens
from oracles import first_oracle, language_upto
from randgrammars import (
    check_first_follow_agreement,
    check_language_agreement,
    generate_cases,
    random_productions,
)


def test_parser_agrees_with_enumeration_on_random_grammars():
    for case in generate_cases(seed=987001, count=25):
        check_language_agreement(case, max_len=8)


def test_first_follow_agree_with_enumeration_on_random_grammars():
    for case in generate_cases(seed=987002, count=25):
        check_first_follow_agreement(case)


def test_first_matches_enumeration_up_to_six_nonterminals():
    rng = random.Random(987004)
    checked = 0
    while checked < 30:
        productions, _ = random_productions(rng, max_nts=6, max_prods=12)
        g = Grammar.build(productions, start="S")
        first, nullable_ids = compute_first(g)
        for nt in g.nonterminals:
            if nt is g.augmented_start:
                continue
            oracle, nullable = first_oracle(productions, nt.name)
            got = {g.symbols[i].name for i in first[nt.id]}
            assert got == oracle, (productions, nt.name)
            assert (nt.id in nullable_ids) == nullable, (productions, nt.name)
        checked += 1


def test_first_follow_equations_hold_on_random_grammars():
    rng = random.Random(555)
    for _ in range(40):
        productions, _ = random_productions(rng)
        g = Grammar.build(productions, start="S")
        first, nullable = compute_first(g)
        follow = compute_follow(g, first, nullable)
        for p in g.productions:
            body_first, body_nullable = first_of_sequence(p.body, first, nullable)
            assert body_first <= first[p.head.id]
            if body_nullable:
                assert p.head.id in nullable
            for i, sym in enumerate(p.body):
                if sym.is_terminal:
                    continue
                rest_first, rest_nullable = first_of_sequence(
                    p.body[i + 1 :], first, nullable)
                assert rest_first <= follow[sym.id]
                if rest_nullable:
                    assert follow[p.head.id] <= follow[sym.id]


def test_replay_of_accepted_strings_counts_shifts_and_reduces():
    """Accepted strings shift once per token and reduce once per
    derivation step (checked by replaying the reduces as a rightmost
    derivation in reverse), and their trace columns match the oracle."""
    for case in generate_cases(seed=987003, count=12):
        g, table = case.grammar, case.table
        words = sorted(language_upto(case.productions, "S", 6))[:8]
        for w in words:
            if not w:
                continue  # toy_tokens("") has no units to shift
            tokens = toy_tokens(" ".join(w))
            tree, steps = parse_with_trace(tokens, table)
            shifts = [s for s in steps if s.kind == "shift"]
            reduces = [s for s in steps if s.kind == "reduce"]
            gotos = [s for s in steps if s.kind == "goto"]
            assert len(shifts) == len(w)
            assert len(gotos) == len(reduces)
            assert steps[-1].kind == "accept"
            assert [(s.stack, s.remaining) for s in steps] == (
                naive_trace_rows(steps, tokens, g)
            )

            # reduce sequence reversed is a rightmost derivation of w
            form = [g.start]
            for s in reversed(reduces):
                p = g.productions[s.production]
                idx = max(
                    i for i, sym in enumerate(form) if not sym.is_terminal
                )
                assert form[idx] is p.head
                form[idx : idx + 1] = list(p.body)
            assert tuple(sym.name for sym in form) == w
            assert len(reduces) > 0


def test_table_construction_is_deterministic_on_random_grammars():
    rng = random.Random(777)
    for _ in range(15):
        productions, _ = random_productions(rng)
        g1 = Grammar.build(productions, start="S")
        g2 = Grammar.build(productions, start="S")
        t1, t2 = build_table(g1), build_table(g2)
        if isinstance(t1, ParseTable):
            assert isinstance(t2, ParseTable)
            assert t1.action == t2.action
            assert t1.dump_tsv() == t2.dump_tsv()
        else:
            assert not isinstance(t2, ParseTable)
            assert t1.describe() == t2.describe()


# SHA-256 over the grammars of random_productions(random.Random(20261018)),
# 300 of them, each contributing dump_first_follow, then dump_tsv() (or
# describe() when the grammar is not SLR(1)), then the accepts verdicts on
# 30 words drawn from random.Random(index); recorded while LR(0) items were
# still records and the table still had separate ACTION and GOTO halves.
RANDOM_GRAMMAR_DIGEST = "fb919b1a4d7287bac66dbcfa78a836275344bc0c0ea4da0b7bc054f47b437784"


def test_grammar_toolkit_output_is_pinned_on_random_grammars():
    rng = random.Random(20261018)
    h = hashlib.sha256()
    tables = reports = 0
    for index in range(300):
        productions, _ = random_productions(rng)
        g = Grammar.build(productions, start="S")
        h.update(dump_first_follow(g).encode())
        table = build_table(g)
        if not isinstance(table, ParseTable):
            reports += 1
            h.update(table.describe().encode())
            continue
        tables += 1
        h.update(table.dump_tsv().encode())
        ids = [t.id for t in g.terminals if t is not g.end_marker]
        words = random.Random(index)
        for _ in range(30):
            n = words.randint(0, 6) if ids else 0
            word = words.choices(ids, k=n)
            h.update(f"{word} {accepts(table, word)}\n".encode())
    assert (tables, reports) == (143, 157)
    assert h.hexdigest() == RANDOM_GRAMMAR_DIGEST


def test_collection_has_a_transition_exactly_where_goto_is_non_empty():
    grammars = [case.grammar for case in generate_cases(seed=987003, count=25)]
    for g in grammars + [object_z_grammar()]:
        states, transitions = canonical_collection(g)
        for (i, state), x in product(enumerate(states), g.symbols):
            j = transitions.get((i, x.id))
            expected = frozenset() if j is None else states[j]
            assert goto_set(state, x, g) == expected, (g, i, x.name)


# ---------------------------------------------------------------------------
# check_text is total: any text yields diagnostics, never an exception

# the shipped grammar's terminals, with sample units for Word and Number,
# plus units outside the vocabulary
_VOCAB = sorted(
    {s.name for s in object_z_grammar().terminals} - {"$", "Word", "Number"}
) + ["Queue", "items", "x'", "n?", "0", "42", "\\", "\\undefined", "%"]
_CORPUS = sorted(p.read_text(encoding="utf-8") for p in CORPUS.glob("*.tex"))


def assert_total(source: str, lenient: bool) -> None:
    diagnostics = check_text(source, lenient=lenient)
    assert isinstance(diagnostics, list)
    assert all(isinstance(d, Diagnostic) for d in diagnostics)


@pytest.mark.parametrize("lenient", [False, True])
@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(_VOCAB + [" ", "\n"]), max_size=80).map(" ".join),
))
def test_check_text_is_total_on_arbitrary_text(lenient, source):
    assert_total(source, lenient)


@pytest.mark.parametrize("lenient", [False, True])
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_check_text_is_total_on_corpus_mutations(lenient, data):
    # units and the blanks between them; an edit replaces up to two of these
    # pieces with one, so it inserts, deletes, replaces or glues units
    pieces = re.findall(r"\S+|\s+", data.draw(st.sampled_from(_CORPUS)))
    edit = st.tuples(
        st.integers(0, 10**4),
        st.integers(0, 2),
        st.sampled_from(_VOCAB + ["", " ", "\n"]),
    )
    for at, width, text in data.draw(st.lists(edit, min_size=1, max_size=4)):
        at %= len(pieces) + 1
        pieces[at:at + width] = [text]
    assert_total("".join(pieces), lenient)
