"""The Earley oracle against the LR parser: the language, the error token
and the terminals OZ-SYN-001 lists.

``oracles.earley_prefix`` reads only a grammar's productions, so it shares
no FIRST, FOLLOW, item numbering or table with the code under test.
"""
from __future__ import annotations

import random
import re
from functools import lru_cache

import pytest

from ozcheck.lexer import tokenize
from ozcheck.ozgrammar import object_z_grammar, oz_parse_table, parse_spec
from ozcheck.parser import ParseError, accepts, parse_with_trace

from conftest import toy_tokens
from oracles import END, all_strings, earley_prefix, language_upto
from randgrammars import generate_cases
from test_ozgrammar import mutate, random_specification


@lru_cache(maxsize=1)
def mutated_sources() -> tuple[str, ...]:
    """The 3,000 mutated sources of
    ``test_mutated_specifications_output_is_pinned``."""
    rng = random.Random(20261019)
    return tuple(mutate(random_specification(rng), rng) for _ in range(3000))


@lru_cache(maxsize=1)
def mutated_runs() -> list[tuple]:
    """For each of the ``mutated_sources``: its kinds without the end
    marker, ``earley_prefix`` of them, ``accepts`` of them, and the index
    of ``parse_spec``'s error token and the terminals its diagnostic lists,
    or None twice if it parses."""
    g, table = object_z_grammar(), oz_parse_table()
    runs = []
    for source in mutated_sources():
        tokens = tokenize(source)
        kinds = tokens.kinds[:-1]
        error = listed = None
        try:
            parse_spec(tokens)
        except ParseError as e:
            d = e.diagnostic
            error = next(t.index for t in tokens
                         if (t.line, t.column) == (d.line, d.column))
            listed = set(re.findall(r'"(.*?)"(?:, |$)', d.detail))  # quoted
        runs.append((kinds, earley_prefix(g, kinds),
                     accepts(table, [g.terminal_ids[k] for k in kinds]),
                     error, listed))
    return runs


def test_earley_agrees_with_the_parser_on_mutated_specifications():
    accepted = 0
    for kinds, (consumed, _, complete), accepts_it, error, _ in mutated_runs():
        assert (consumed == len(kinds) and complete) == accepts_it, kinds
        assert error == (None if accepts_it else consumed), kinds
        accepted += accepts_it
    assert 0 < accepted < 3000


def test_earley_agrees_with_the_parser_on_random_grammars():
    for case in generate_cases(seed=20261021, count=25):
        g = case.grammar
        ids = {t: g.symbol(t).id for t in case.terminals}
        for w in all_strings(case.terminals, 5):
            consumed, _, complete = earley_prefix(g, w)
            accepts_it = accepts(case.table, [ids[t] for t in w])
            assert (consumed == len(w) and complete) == accepts_it, (
                case.productions, w)
            if not accepts_it:  # the error token is the one after the shifts
                with pytest.raises(ParseError) as raised:
                    parse_with_trace(toy_tokens(" ".join(w)), case.table)
                shifts = [s for s in raised.value.trace if s.kind == "shift"]
                assert len(shifts) == consumed, (case.productions, w)


def test_earley_agrees_with_enumeration_on_short_strings():
    """The sentences up to length 6 are what Earley accepts, and along each
    of them every next terminal, or ``$`` at its end, is in the set
    Earley gives for the prefix before it."""
    for case in generate_cases(seed=20261022, count=25):
        g = case.grammar
        language = language_upto(case.productions, "S", 6)
        for w in all_strings(case.terminals, 6):
            consumed, _, complete = earley_prefix(g, w)
            assert (consumed == len(w) and complete) == (w in language), (
                case.productions, w)
        for sentence in language:
            for i, after in enumerate([*sentence, END]):
                consumed, expected, _ = earley_prefix(g, sentence[:i])
                assert consumed == i and after in expected, (
                    case.productions, sentence, i)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the expected list is read off the SLR state's row, "
    "which FOLLOW-set reductions may have reached on the offending token"))
def test_syntax_errors_list_exactly_the_terminals_that_can_follow():
    for kinds, (_, expected, _), _, error, listed in mutated_runs():
        if error is not None:
            assert listed == expected, kinds[:error + 1]
