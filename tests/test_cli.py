"""Command-line driver: exit codes, streams, dumps, determinism."""
from __future__ import annotations

import io
import subprocess
import sys

from ozcheck.cli import RunConfig, build_arg_parser, main, run
from ozcheck.grammar import grammar_from_text


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


def test_dump_first_follow_lists_sets():
    code, out, _ = invoke(RunConfig(dump_first_follow=True))
    assert code == 0
    assert "FIRST(ParagraphList)" in out
    assert "FOLLOW(ParagraphList) = { $ }" in out


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


def test_runs_are_byte_identical(corpus):
    cfg = RunConfig(
        inputs=sorted(str(p) for p in corpus.glob("*.tex")),
        format="machine",
        trace=True,
    )
    outputs = [invoke(cfg) for _ in range(2)]
    assert outputs[0] == outputs[1]


def test_arg_parser_maps_flags():
    ns = build_arg_parser().parse_args(
        ["--trace", "--format", "machine", "--locale", "fr", "--lenient",
         "a.tex", "b.tex"]
    )
    assert ns.trace and ns.format == "machine" and ns.locale == "fr"
    assert ns.lenient and ns.inputs == ["a.tex", "b.tex"]


def test_main_bad_flag_exits_2(capsys):
    assert main(["--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err


def test_module_entry_point(corpus):
    result = subprocess.run(
        [sys.executable, "-m", "ozcheck", "--format", "machine",
         path_of(corpus, "queue.tex")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == ""
    result = subprocess.run(
        [sys.executable, "-m", "ozcheck", "--format", "machine",
         path_of(corpus, "queue_syntax_error.tex")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stdout.startswith("OZ-SYN-001")
