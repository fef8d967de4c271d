"""Acceptance criteria, one test per criterion.

Each test prints an ``ACCEPTANCE ... PASS`` line when its assertions hold
(run with ``pytest -v -rA`` to see them); a failing criterion fails the
test the usual way.
"""
from __future__ import annotations

import io
import time

from ozcheck import check_text
from ozcheck.cli import RunConfig, run
from ozcheck.grammar import ParseTable, build_table
from ozcheck.lexer import tokenize
from ozcheck.ozgrammar import object_z_grammar, oz_parse_table
from ozcheck.parser import parse_with_trace

from conftest import corpus_text
from randgrammars import (
    check_first_follow_agreement,
    check_language_agreement,
    generate_cases,
)


def _pass(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_empty_class_trace_reproduction():
    started = time.perf_counter()
    g = object_z_grammar()
    table = oz_parse_table()
    tokens = tokenize(r"\begin{class} { A } \end{class}")
    tree, steps = parse_with_trace(tokens, table)

    assert [s.kind for s in steps] == [
        "shift", "shift", "shift", "reduce", "goto", "shift", "shift",
        "reduce", "goto", "reduce", "goto", "accept",
    ]
    reduced = [
        str(g.productions[s.production]) for s in steps if s.kind == "reduce"
    ]
    assert reduced == [
        "ClassHeading -> Word",
        "Paragraph -> \\begin{class} { ClassHeading } \\end{class}",
        "ParagraphList -> Paragraph",
    ]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"trace took {elapsed:.3f}s"
    _pass("1 empty-class trace reproduction")


def test_criterion_2_queue_end_to_end_clean(corpus, queue_source):
    assert check_text(queue_source) == []
    out, err = io.StringIO(), io.StringIO()
    code = run(
        RunConfig(inputs=[str(corpus / "queue.tex")], format="machine"),
        stdout=out,
        stderr=err,
    )
    assert code == 0
    assert out.getvalue() == "" and err.getvalue() == ""
    _pass("2 queue end-to-end clean")


def test_criterion_3_state_syntax_error_localization():
    diagnostics = check_text(corpus_text("queue_syntax_error.tex"))
    assert len(diagnostics) == 1
    d = diagnostics[0]
    assert d.code == "OZ-SYN-001"
    assert d.class_name == "Queue"
    assert d.block == "state-schema"
    assert d.symbol == "="
    _pass("3 syntax-error localization (class, block, symbol)")


def test_criterion_4_dual_semantic_error():
    diagnostics = check_text(corpus_text("queue_semantic_errors.tex"))
    assert len(diagnostics) == 2
    circular, undefined = diagnostics
    assert circular.code == "OZ-SEM-101"
    assert circular.detail == "m" and circular.symbol == "mess"
    assert circular.class_name == "Queue"
    assert circular.block == "state-schema"
    assert undefined.code == "OZ-SEM-102"
    assert undefined.symbol == "mess"
    _pass("4 dual semantic error (circular + undefined)")


def test_criterion_5_constraint_corpus():
    # (file, code, symbols the report may name)
    expectations = [
        ("circular_decl.tex", "OZ-SEM-101", {"a", "b"}),
        ("undefined_type.tex", "OZ-SEM-102", {"Trame"}),
        ("duplicate_decl.tex", "OZ-SEM-103", {"a"}),
        ("type_name_reuse.tex", "OZ-SEM-104", {"Message"}),
        ("delta_not_state_var.tex", "OZ-SEM-105", {"cste"}),
    ]
    for name, code, symbols in expectations:
        diagnostics = check_text(corpus_text(name))
        with_code = [d for d in diagnostics if d.code == code]
        assert len(with_code) == 1, (name, diagnostics)
        assert with_code[0].symbol in symbols, (name, with_code[0])
    # the duplicate report points at the second occurrence
    dup = check_text(corpus_text("duplicate_decl.tex"))[0]
    assert dup.line == 4
    _pass("5 constraint corpus codes 101-105")


def test_criterion_6_grammar_health():
    table = build_table(object_z_grammar())
    assert isinstance(table, ParseTable), "shipped grammar has conflicts"
    dump = table.dump_tsv()
    header = dump.split("\n", 2)
    n_prods = len(object_z_grammar().productions)
    assert header[0] == (
        f"# productions: {n_prods} (including augmentation)"
    )
    rows, cols = table.dimensions()
    assert header[1].startswith(f"# table: {rows}x{cols} ")
    # dimensions are reproducible across builds
    again = build_table(object_z_grammar())
    assert again.dimensions() == (rows, cols)
    assert again.dump_tsv() == dump
    _pass(
        f"6 grammar health ({n_prods} productions, table {rows}x{cols}, "
        "0 conflicts)"
    )


def test_criterion_7_oracle_equivalence():
    started = time.perf_counter()
    cases = generate_cases(seed=424242, count=50)
    assert len(cases) >= 50
    strings = 0
    for case in cases:
        assert len(case.grammar.nonterminals) - 1 <= 5
        assert len(case.grammar.productions) - 1 <= 10
        strings += check_language_agreement(case, max_len=8)
        check_first_follow_agreement(case)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _pass(
        f"7 oracle equivalence (50 grammars, {strings} strings, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_8_cli_determinism(corpus):
    paths = sorted(str(p) for p in corpus.glob("*.tex"))
    configs = [
        RunConfig(inputs=paths, format="machine"),
        RunConfig(inputs=paths, format="text"),
        RunConfig(inputs=paths, format="text", locale="fr"),
        RunConfig(inputs=paths, format="machine", trace=True),
        RunConfig(dump_grammar=True, dump_table=True, dump_first_follow=True),
    ]

    def one_run() -> tuple:
        results = []
        for cfg in configs:
            out, err = io.StringIO(), io.StringIO()
            code = run(cfg, stdout=out, stderr=err)
            results.append((code, out.getvalue(), err.getvalue()))
        return tuple(results)

    first, second = one_run(), one_run()
    assert first == second
    _pass("8 byte-identical outputs across runs")
