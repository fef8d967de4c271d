"""Command-line driver: exit codes, streams, dumps, determinism."""
from __future__ import annotations

import ast
import hashlib
import importlib
import inspect
import io
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ozcheck
from ozcheck import cli, lexer, parser
from ozcheck.cli import (EXIT_INTERNAL, RunConfig, build_arg_parser,
                         check_text, main, run)
from ozcheck.diagnostics import DiagnosticError
from ozcheck.grammar import Grammar, build_table, grammar_from_text
from ozcheck.ozgrammar import parse_spec

from caseset import case_lines
from conftest import TESTS_DIR, corpus_text, toy_tokens
from test_trace_stream import child_env

# SHA-256 over the exit status and stdout of ``run`` on each corpus file in
# every combination of --format, --locale and --lenient (see
# ``output_digest``), recorded before tokens and tree nodes became named
# tuples (``inheritance.tex``'s when the file was added, before inheritance
# was resolved in one pass); the diagnostics must not change.
OUTPUT_DIGESTS = {
    "circular_decl.tex": "1bb2875ce833a7a2fb5a02fed70ee3b716a6283fd94fd0561e41ad15cd636cb0",
    "delta_not_state_var.tex": "8f847de77f1c39576aac0a6d4009b0726c42eacdba4c5ca6b0d96ae24b6b7cc3",
    "duplicate_decl.tex": "a6434289e90e27dcf80f6ddd4862dccbc2d2a3ab4d67069fce631238dd32c948",
    "empty_class.tex": "b9827c2a97f064d97175047dd0a4dc511a2cdd5ca0929022572d29025359c8ee",
    "inheritance.tex": "95512c887b5d2fde325477c3c5c531fe808356a2e4fb3d3878f579f53fa97a09",
    "queue.tex": "b9827c2a97f064d97175047dd0a4dc511a2cdd5ca0929022572d29025359c8ee",
    "queue_semantic_errors.tex": "a194e55ec1fbddaff72f88704d4516369a06dd2fae486be66dd80290432f7573",
    "queue_syntax_error.tex": "d99bc6b7a791b82eb55ee532354fe29843bfdbe9b03e6496e6d8371906a56ee2",
    "type_name_reuse.tex": "37da042fd91de255757b34c02289334758fb26fd835d5e36bdae650299785216",
    "undefined_type.tex": "41b86f76b3146b3c1946da89dd0c342e002330e2bb810a955a4fe7c56ddb3edc",
}


def invoke(cfg: RunConfig) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def path_of(corpus, name: str) -> str:
    return str(corpus / name)


def test_clean_file_machine_format_is_silent(corpus):
    code, out, err = invoke(
        RunConfig(inputs=[path_of(corpus, "queue.tex")], format="machine")
    )
    assert code == 0
    assert out == "" and err == ""


def test_syntax_error_file_yields_one_machine_line(corpus):
    code, out, err = invoke(
        RunConfig(
            inputs=[path_of(corpus, "queue_syntax_error.tex")],
            format="machine",
        )
    )
    assert code == 1
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("OZ-SYN-001\tQueue\tstate-schema\t=\t")
    assert err == ""


def test_text_format_prefixes_path(corpus):
    path = path_of(corpus, "duplicate_decl.tex")
    code, out, _ = invoke(RunConfig(inputs=[path]))
    assert code == 1
    assert out.startswith(f"{path}: error[OZ-SEM-103]")


def test_bad_format_or_locale_in_a_config_is_a_usage_error(corpus):
    path = path_of(corpus, "queue.tex")
    for cfg in (RunConfig(inputs=[path], format="json"),
                RunConfig(inputs=[path], locale="de")):
        assert invoke(cfg) == (2, "", "usage: bad --format or --locale value\n")


def test_nonexistent_path_exits_2(corpus):
    code, out, err = invoke(RunConfig(inputs=["/no/such/file.tex"]))
    assert code == 2
    assert out == ""
    assert "cannot read" in err


def test_undecodable_file_is_usage_error(tmp_path):
    path = tmp_path / "latin.tex"
    path.write_bytes(b"\xff\xfe\\begin{class} { A } \\end{class}\n")
    code, out, err = invoke(RunConfig(inputs=[str(path)]))
    assert code == 2
    assert out == ""
    assert err == f"ozcheck: cannot read {path}: not valid UTF-8\n"


def test_control_characters_in_paths_are_escaped(tmp_path):
    path = tmp_path / "x\x1b[31m.tex"
    path.write_text("\\begin{class} { A } \\begin{state} x : T \\end{state}"
                    " \\end{class}\n", encoding="utf-8")
    missing = tmp_path / "gone\x1b.tex"
    shown, missing_shown = (str(p).replace("\x1b", "\\x1b") for p in (path, missing))
    runs = [
        (RunConfig(inputs=[str(path)]), f"{shown}: error[OZ-SEM-102]", ""),
        (RunConfig(inputs=[str(path)], trace=True), f"# trace: {shown}\n", ""),
        (RunConfig(inputs=[str(missing)]), "",
         f"ozcheck: cannot read {missing_shown}: "),
    ]
    for cfg, out_start, err_start in runs:
        _, out, err = invoke(cfg)
        assert "\x1b" not in out and "\x1b" not in err
        assert out.startswith(out_start) and err.startswith(err_start)
        assert "\\x1b" in out + err


def test_no_inputs_without_dump_is_usage_error():
    code, out, err = invoke(RunConfig())
    assert code == 2 and "usage" in err


def test_multi_file_run_aggregates_exit_code(corpus):
    code, out, _ = invoke(
        RunConfig(
            inputs=[
                path_of(corpus, "queue.tex"),
                path_of(corpus, "undefined_type.tex"),
            ],
            format="machine",
        )
    )
    assert code == 1
    assert out.count("\n") == 1  # only the faulty file printed


def test_trace_flag_prints_rows(corpus):
    code, out, _ = invoke(
        RunConfig(inputs=[path_of(corpus, "empty_class.tex")], trace=True)
    )
    assert code == 0
    assert out.startswith("# trace: ")
    assert "pile\tentrée\taction" in out
    assert "ACCEPT" in out


def test_trace_on_syntax_error_ends_with_error_row(corpus):
    code, out, _ = invoke(
        RunConfig(
            inputs=[path_of(corpus, "queue_syntax_error.tex")], trace=True
        )
    )
    assert code == 1
    trace_rows = [l for l in out.splitlines() if "\t" in l]
    assert trace_rows[-1].split("\t")[2].startswith("ERROR")


def test_dump_grammar_round_trips():
    code, out, _ = invoke(RunConfig(dump_grammar=True))
    assert code == 0
    g = grammar_from_text(out, start="ParagraphList")
    assert g.start.name == "ParagraphList"


def test_dump_table_reports_dimensions():
    code, out, _ = invoke(RunConfig(dump_table=True))
    assert code == 0
    head = out.split("\n", 2)
    assert head[0].startswith("# productions: ")
    assert head[1].startswith("# table: ")


# SHA-256 of each dump of the shipped grammar (77 productions, a 144x73
# table).  Re-recorded when each class alternative came to name its first
# section and leave the later ones optional, instead of chaining them through
# four SectionsAfter* nonterminals: that renumbered states and productions
# and shrank the table.  Re-recorded again when the nine list rules became
# left-recursive, which changed their bodies, the table and
# FOLLOW(ParagraphList).  Otherwise the dumps must not change.
DUMP_DIGESTS = {
    "dump_table": "0b1f6a1ed7e7937ecdb57aaa61cce0f4d6aef4d015db356187cb1975b7a81253",
    "dump_grammar": "8565e084a7028aa918d7be10f783204b575beaac0eef70816936d63576453d8b",
    "dump_first_follow": "2d102c0a99c132ec34e1d1256bce5d1cd08008d8cf23d2b186abd8cb83cd388d",
}


def test_dump_digests_are_pinned():
    for flag, digest in DUMP_DIGESTS.items():
        code, out, _ = invoke(RunConfig(**{flag: True}))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flag


def test_dump_first_follow_lists_sets():
    code, out, _ = invoke(RunConfig(dump_first_follow=True))
    assert code == 0
    assert "FIRST(ParagraphList)" in out
    assert "FOLLOW(ParagraphList) = { \\begin{class}, [, $ }" in out


def test_locale_fr_output(corpus):
    code, out, _ = invoke(
        RunConfig(
            inputs=[path_of(corpus, "queue_syntax_error.tex")], locale="fr"
        )
    )
    assert "la syntaxe est incorrecte" in out


def test_lenient_flag_accepts_glued_input(tmp_path):
    source = "\\begin{class}{A}\n\\end{class}\n"
    path = tmp_path / "glued.tex"
    path.write_text(source, encoding="utf-8")
    code, out, _ = invoke(RunConfig(inputs=[str(path)], format="machine"))
    assert code == 1 and "OZ-LEX-001" in out
    code, out, _ = invoke(
        RunConfig(inputs=[str(path)], format="machine", lenient_lexing=True)
    )
    assert code == 0 and out == ""


def test_lex_error_reported_as_diagnostic(tmp_path):
    path = tmp_path / "bad.tex"
    path.write_text("\\begin{class} { A=B } \\end{class}\n", encoding="utf-8")
    code, out, _ = invoke(RunConfig(inputs=[str(path)], format="machine"))
    assert code == 1
    assert out.startswith("OZ-LEX-001\t")


def test_byte_order_mark_is_read_as_no_text(corpus, tmp_path, monkeypatch):
    for name in sorted(p.name for p in corpus.glob("*.tex")):
        text = (corpus / name).read_bytes()
        for folder, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / folder).mkdir(exist_ok=True)
            (tmp_path / folder / name).write_bytes(data)
        runs = {}
        for folder in ("plain", "bom"):
            monkeypatch.chdir(tmp_path / folder)
            runs[folder] = [
                invoke(RunConfig(inputs=[name], format=fmt, trace=True))
                for fmt in ("text", "machine")
            ] + [ozcheck.check_file(name)]
        assert runs["bom"] == runs["plain"], name


def test_runs_are_byte_identical(corpus):
    cfg = RunConfig(
        inputs=sorted(str(p) for p in corpus.glob("*.tex")),
        format="machine",
        trace=True,
    )
    outputs = [invoke(cfg) for _ in range(2)]
    assert outputs[0] == outputs[1]


def output_digest(name: str) -> str:
    """Digest of ``run`` on ``corpus/<name>``, from the tests directory."""
    h = hashlib.sha256()
    for fmt, locale, lenient in itertools.product(
        ("text", "machine"), ("en", "fr"), (False, True)
    ):
        code, out, _ = invoke(RunConfig(
            inputs=[f"corpus/{name}"], format=fmt, locale=locale,
            lenient_lexing=lenient,
        ))
        h.update(f"{fmt} {locale} {lenient} {code}\n{out}".encode())
    return h.hexdigest()


def test_corpus_output_digests_are_pinned(corpus, monkeypatch):
    assert sorted(p.name for p in corpus.glob("*.tex")) == sorted(OUTPUT_DIGESTS)
    monkeypatch.chdir(TESTS_DIR)
    for name, digest in OUTPUT_DIGESTS.items():
        assert output_digest(name) == digest, name


@pytest.mark.parametrize("source, kind", [
    ("a \x07 b", lexer.LexError),
    ("\\foo", lexer.UnknownTokenError),
    (corpus_text("queue_syntax_error.tex"), parser.ParseError),
], ids=["control-character", "unknown-command", "syntax-error"])
def test_a_failure_is_raised_as_the_diagnostic_check_text_returns(source, kind):
    with pytest.raises(kind) as raised:
        parse_spec(lexer.tokenize(source))
    assert isinstance(raised.value, DiagnosticError)
    assert check_text(source) == [raised.value.diagnostic]


@pytest.mark.parametrize("stage", ["tokenize", "parse_spec", "analyze"])
def test_internal_error_is_not_a_finding(stage, corpus, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, stage, crash)
    assert main([path_of(corpus, "queue.tex")]) == EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.err == "ozcheck: internal error: ValueError: boom\n"
    assert captured.out == ""


def test_arg_parser_maps_flags():
    ns = build_arg_parser().parse_args(
        ["--trace", "--format", "machine", "--locale", "fr", "--lenient",
         "a.tex", "b.tex"]
    )
    assert ns.trace and ns.format == "machine" and ns.locale == "fr"
    assert ns.lenient and ns.inputs == ["a.tex", "b.tex"]


def test_startup_does_not_import_argparse():
    # in a child process: pytest itself imports argparse; only main parses
    # flags, so a process that checks through run never needs it
    src = str(Path(ozcheck.__file__).parents[1])
    code = ("import sys, ozcheck.cli; ozcheck.oz_parse_table(); "
            "print('argparse' in sys.modules)")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_main_bad_flag_exits_2(capsys):
    assert main(["--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err


def test_module_entry_point(corpus):
    # the child runs the package the tests import, installed or not
    src = str(Path(ozcheck.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-m", "ozcheck", "--format", "machine",
         path_of(corpus, "queue.tex")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == ""
    result = subprocess.run(
        [sys.executable, "-m", "ozcheck", "--format", "machine",
         path_of(corpus, "queue_syntax_error.tex")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 1
    assert result.stdout.startswith("OZ-SYN-001")


def test_output_does_not_depend_on_the_hash_seed(corpus):
    # the seed orders sets of strings; no output byte may follow it
    argv = [sys.executable, "-m", "ozcheck", "--trace", "--format", "machine",
            "--locale", "fr", "--dump-table", "--dump-grammar",
            "--dump-first-follow", *map(str, sorted(corpus.glob("*.tex")))]
    first, second = (
        subprocess.run(argv, capture_output=True, timeout=120,
                       env={**child_env(), "PYTHONHASHSEED": seed})
        for seed in ("0", "3"))
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout and first.stdout


def test_sources_parse_at_the_declared_python_floor():
    # nothing else holds the package to pyproject's requires-python: a newer
    # construct, such as ``except*``, fails to parse at the floor
    root = TESTS_DIR.parent
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                      (root / "pyproject.toml").read_text(encoding="utf-8"))
    version = tuple(map(int, floor.groups()))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* E:\n    pass\n", feature_version=version)
    sources = sorted((root / "src" / "ozcheck").glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=version)


def test_names_the_benchmark_wraps_exist():
    # perfbench/spans.py replaces these module attributes by name, among
    # them imports of ozcheck.cli that the CLI itself never calls
    spans = (TESTS_DIR.parent / "perfbench" / "spans.py").read_text(encoding="utf-8")
    wrapped = next(
        ast.literal_eval(node.value) for node in ast.parse(spans).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"])
    assert wrapped
    for module, attribute, _ in wrapped:
        assert callable(getattr(importlib.import_module(module), attribute)), (
            module, attribute)


def test_names_the_benchmark_reads_outside_wrapped_exist():
    # perfbench/spans.py reads these directly and replaces parser.terminal_of
    assert callable(lexer.terminal_of) and callable(parser.terminal_of)
    assert callable(parser.accepts)
    assert issubclass(lexer.UnknownTokenError, Exception)
    assert issubclass(parser.ParseError, Exception)
    assert lexer.tokenize("x").tokens == tuple(lexer.tokenize("x"))


def test_terminal_of_maps_only_the_kinds_a_grammar_lacks(monkeypatch):
    # the benchmark's lexer.terminal_of.us_per_tok counts the calls made
    # through parser.terminal_of
    calls: list = []

    def counting(token, g):
        calls.append(token)
        return lexer.terminal_of(token, g)

    monkeypatch.setattr(parser, "terminal_of", counting)
    parse_spec(lexer.tokenize(corpus_text("queue.tex")))
    assert calls == []

    # an ad-hoc alphabet whose kinds are its lexemes: no token is mapped
    g = Grammar.build([("S", ["{", "L", "}"]), ("L", ["a", "L"]),
                       ("L", ["7", "L"]), ("L", ["b"])])
    tokens = toy_tokens("{ a 7 a b }")
    tree = parser.parse(tokens, build_table(g))
    assert [leaf.lexeme for leaf in tree.frontier()] == "{ a 7 a b }".split()
    assert calls == []

    calls.clear()
    with pytest.raises(lexer.UnknownTokenError) as exc:
        parse_spec(lexer.tokenize("\\foo \\bar"))
    assert exc.value.diagnostic.symbol == "\\foo"
    assert [t.lexeme for t in calls] == ["\\foo"]


def test_keywords_the_benchmark_passes_to_run_config_exist():
    # perfbench/worker.py builds one cli.RunConfig per file by keyword
    worker = (TESTS_DIR.parent / "perfbench" / "worker.py").read_text(encoding="utf-8")
    keywords = {
        kw.arg for node in ast.walk(ast.parse(worker))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "RunConfig"
        for kw in node.keywords
    }
    assert {"inputs", "lenient_lexing"} <= keywords
    assert keywords <= set(inspect.signature(RunConfig).parameters)


def test_case_set_names_are_unique_and_its_lines_repeat():
    lines = list(case_lines(generated=False))
    names = [line.split("\t")[0] for line in lines]
    assert len(set(names)) == len(names) == 10 * 16 + 3
    assert list(case_lines(generated=False)) == lines
    assert not any(line.split("\t")[1].isalpha() for line in lines)  # no crash
