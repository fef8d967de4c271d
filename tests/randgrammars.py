"""Random-grammar harness shared by the property and acceptance tests.

Generates small random grammars, keeps the conflict-free ones, and checks
the implementation against the enumeration oracles:

* ``accepts`` must agree with brute-force derivation enumeration on every
  string up to the length bound over the grammar's terminal alphabet;
* FIRST/FOLLOW fixpoints must equal the enumeration-derived sets.

Alphabet sizes are weighted towards two and three terminals so exhaustive
string spaces stay small enough to sweep; a slice of four-terminal
grammars keeps the upper bound honest.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from ozcheck.grammar import Grammar, ParseTable, build_table, compute_first, compute_follow
from ozcheck.parser import accepts

from oracles import all_strings, first_oracle, follow_oracle, language_upto

NT_NAMES = ["S", "A", "B", "C", "D", "E"]
T_NAMES = ["a", "b", "c", "d"]


@dataclass
class GrammarCase:
    productions: list[tuple[str, list[str]]]
    terminals: list[str]
    grammar: Grammar
    table: ParseTable
    oracle_follow: dict[str, set[str]]


def random_productions(
    rng: random.Random, max_nts: int = 5, max_prods: int = 10
) -> tuple[list, list]:
    n_nts = rng.randint(1, max_nts)
    n_ts = rng.choices([2, 3, 4], weights=[6, 3, 1])[0]
    nts = NT_NAMES[:n_nts]
    ts = T_NAMES[:n_ts]
    symbols = nts + ts

    productions: list[tuple[str, list[str]]] = []
    for nt in nts:
        productions.append((nt, [rng.choice(symbols) for _ in range(rng.randint(0, 3))]))
    while len(productions) < rng.randint(n_nts, max_prods):
        head = rng.choice(nts)
        productions.append((head, [rng.choice(symbols) for _ in range(rng.randint(0, 3))]))
    rng.shuffle(productions)
    return productions, ts


def _all_reachable(productions: list[tuple[str, list[str]]]) -> bool:
    """Every head reachable from S, so the definitional FOLLOW (which the
    enumeration oracle computes) coincides with the fixpoint."""
    heads = {h for h, _ in productions}
    reached = {"S"}
    changed = True
    while changed:
        changed = False
        for head, body in productions:
            if head in reached:
                for sym in body:
                    if sym in heads and sym not in reached:
                        reached.add(sym)
                        changed = True
    return reached == heads


def generate_cases(seed: int, count: int) -> list[GrammarCase]:
    """``count`` distinct conflict-free grammars from one seed.

    Grammars whose sentential-form space cannot be swept by the
    enumeration oracles within budget (rare, and only meaningful when the
    oracle terminates) are skipped and replaced.
    """
    rng = random.Random(seed)
    cases: list[GrammarCase] = []
    seen: set[tuple] = set()
    while len(cases) < count:
        productions, ts = random_productions(rng)
        key = tuple((h, tuple(b)) for h, b in productions)
        if key in seen:
            continue
        seen.add(key)
        if not _all_reachable(productions):
            continue
        g = Grammar.build(productions, start="S")
        table = build_table(g)
        if not isinstance(table, ParseTable):
            continue
        try:
            oracle_follow = follow_oracle(productions, "S")
        except RuntimeError:
            continue
        used = [t for t in ts if g.try_symbol(t) is not None]
        cases.append(GrammarCase(productions, used, g, table, oracle_follow))
    return cases


def check_language_agreement(case: GrammarCase, max_len: int = 8) -> int:
    """Assert accept/reject agreement on every string up to ``max_len``.

    Returns the number of strings checked.
    """
    g = case.grammar
    derivable = language_upto(case.productions, "S", max_len)
    ids = {t: g.symbol(t).id for t in case.terminals}
    checked = 0
    for w in all_strings(case.terminals, max_len):
        expected = w in derivable
        got = accepts(case.table, [ids[x] for x in w])
        assert got == expected, (case.productions, w, got, expected)
        checked += 1
    return checked


def check_first_follow_agreement(case: GrammarCase) -> None:
    """Assert FIRST/FOLLOW fixpoints equal the enumeration oracles."""
    g = case.grammar
    first, nullable = compute_first(g)
    follow = compute_follow(g, first, nullable)
    for nt in g.nonterminals:
        if nt is g.augmented_start:
            continue
        oracle_first, oracle_nullable = first_oracle(case.productions, nt.name)
        got_first = {g.symbols[i].name for i in first[nt.id]}
        assert got_first == oracle_first, (case.productions, nt.name)
        assert (nt.id in nullable) == oracle_nullable, (case.productions, nt.name)

    for nt in g.nonterminals:
        if nt is g.augmented_start:
            continue
        got = {g.symbols[i].name for i in follow[nt.id]}
        assert got == case.oracle_follow[nt.name], (case.productions, nt.name)
