"""The CLI's streamed ``--trace``: bytes, headers, memory and a closed output."""
from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import ozcheck
from ozcheck.cli import RunConfig, run
from ozcheck.lexer import LexError, UnknownTokenError, tokenize
from ozcheck.ozgrammar import object_z_grammar, oz_parse_table
from ozcheck.parser import ParseError, parse, parse_with_trace, render_trace

from conftest import naive_trace_rows
from test_ozgrammar import random_specification


def invoke(paths: list[Path], trace: bool, lenient: bool = False) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(inputs=[str(p) for p in paths], trace=trace,
                         lenient_lexing=lenient), stdout=out, stderr=err)
    assert err.getvalue() == ""
    return code, out.getvalue()


def library_trace(source: str, lenient: bool = False):
    """Tokens and trace steps of ``source`` from ``parse_with_trace``, the
    error trace if it fails to parse; None if it fails before the drive."""
    try:
        tokens = tokenize(source, lenient=lenient)
        return tokens, parse_with_trace(tokens, oz_parse_table(), object_z_grammar())[1]
    except (LexError, UnknownTokenError):
        return None
    except ParseError as e:
        return tokens, e.trace


def expected_run(path: Path, lenient: bool = False):
    """The exit status of the untraced run of ``path``; the title and
    ``render_trace`` of its library trace, if it has one, then that run's
    diagnostics; and the library trace's steps, or None."""
    traced = library_trace(path.read_text(encoding="utf-8"), lenient)
    code, diagnostics = invoke([path], trace=False, lenient=lenient)
    if traced is None:
        return code, diagnostics, None
    return code, f"# trace: {path}\n" + render_trace(traced[1]) + diagnostics, traced[1]


def test_stream_equals_library_trace_on_corpus_and_random_sources(corpus, tmp_path):
    rng = random.Random(10)
    sources = [p.read_text(encoding="utf-8") for p in sorted(corpus.glob("*.tex"))]
    for _ in range(300):
        source = random_specification(rng)
        units = source.split()
        del units[rng.randrange(len(units))]
        sources += [source, " ".join(units)]
    path = tmp_path / "spec.tex"
    last_kinds = set()
    for source in sources:
        path.write_text(source, encoding="utf-8")
        for lenient in (False, True):
            code, out, steps = expected_run(path, lenient)
            assert invoke([path], trace=True, lenient=lenient) == (code, out), source
            last_kinds.add(steps[-1].kind if steps else None)
    assert last_kinds == {"accept", "error"}


def deep_sources() -> dict[str, str]:
    """A state schema of 500 declarations and a file of 200 classes, both
    right-recursive lists, each whole and without its last ``\\end{class}``."""
    decls = " \\\\\n".join(f"v{i} : \\nat" for i in range(500))
    state = f"\\begin{{class}} {{ Deep }}\n\\begin{{state}}\n{decls}\n\\end{{state}}\n"
    classes = "".join(
        f"\\begin{{class}} {{ C{i} }}\n\\begin{{state}}\nx : \\nat\n"
        "\\end{state}\n\\end{class}\n" for i in range(200))
    return {
        "state": state + "\\end{class}\n",
        "state-broken": state,
        "classes": classes,
        "classes-broken": classes.removesuffix("\\end{class}\n"),
    }


def test_streamed_columns_match_oracle_on_deep_inputs(tmp_path):
    g = object_z_grammar()
    for name, source in deep_sources().items():
        path = tmp_path / f"{name}.tex"
        path.write_text(source, encoding="utf-8")
        tokens, steps = library_trace(source)
        assert steps[-1].kind == ("error" if name.endswith("broken") else "accept")
        out = invoke([path], trace=True)[1]
        lines = out.split("\n")
        assert lines[:2] == [f"# trace: {path}", "pile\tentrée\taction"]
        rows = [line.split("\t") for line in lines[2:2 + len(steps)]]
        assert [(r[0], r[1]) for r in rows] == naive_trace_rows(steps, tokens, g), name
        assert [r[2] for r in rows] == [s.text for s in steps], name
        assert "\n".join(lines[2 + len(steps):]) == invoke([path], trace=False)[1]


def test_no_trace_header_without_a_drive_and_one_per_file(corpus, tmp_path):
    lex_error = tmp_path / "lex.tex"
    lex_error.write_text("a\x07b\n", encoding="utf-8")
    unknown = tmp_path / "unknown.tex"
    unknown.write_text("\\frob\n", encoding="utf-8")
    for path in (lex_error, unknown):
        assert library_trace(path.read_text(encoding="utf-8")) is None
        status, out = invoke([path], trace=True)
        assert status == 1
        assert out == invoke([path], trace=False)[1]
        assert out.startswith(f"{path}: ") and "\t" not in out
    paths = [corpus / "queue.tex", lex_error, corpus / "queue_syntax_error.tex",
             unknown, corpus / "queue_semantic_errors.tex", corpus / "empty_class.tex"]
    status, out = invoke(paths, trace=True)
    assert status == 1
    assert out == "".join(expected_run(p)[1] for p in paths)
    assert out.count("pile\tentrée\taction\n") == 4


def child_env() -> dict[str, str]:
    # the child runs the package the tests import, installed or not
    src = str(Path(ozcheck.__file__).parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_closed_output_is_an_io_failure(tmp_path):
    path = tmp_path / "deep.tex"
    path.write_text(deep_sources()["state"], encoding="utf-8")
    assert len(tokenize(path.read_text(encoding="utf-8"))) > 2000
    with subprocess.Popen(
        [sys.executable, "-m", "ozcheck", "--trace", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as child:
        head = child.stdout.read(100)
        child.stdout.close()  # the reader goes away, as `| head -c 100` does
        _, err = child.communicate(timeout=60)
    assert head == expected_run(path)[1].encode("utf-8")[:100]
    assert child.returncode == 2
    lines = err.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("ozcheck: cannot write output: ")


# Traces a file to a sink that keeps no rows, in a child whose address space
# is capped at LIMIT_MB, and prints what the sink counted as JSON.
BOUNDED_CHILD = """
import json, resource, sys
limit = int(sys.argv[2]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from ozcheck.cli import RunConfig, run

class Sink:
    def __init__(self):
        self.lines = 0
        self.head = ""  # the text up to the first row's end
        self.tail = ""  # the last 1000 characters written

    def write(self, text):
        if self.lines < 3:
            self.head += text
        i = text.find("\\n")  # str.find is a memchr, str.count is not
        while i >= 0:
            self.lines += 1
            i = text.find("\\n", i + 1)
        self.tail = (self.tail + text[-1000:])[-1000:]
        return len(text)

sink = Sink()
status = run(RunConfig(inputs=[sys.argv[1]], trace=True), stdout=sink)
print(json.dumps({"status": status, "lines": sink.lines,
                  "head": sink.head.split("\\n")[:3],
                  "last": sink.tail.split("\\n")[-2]}))
"""
LIMIT_MB = 400


def test_trace_memory_is_bounded_by_the_stack_text(tmp_path):
    # 2*10^4 tokens of one right-recursive declaration list: the stack text
    # of one row is about 10^5 characters and the trace about 8 GB.
    decls = " \\\\\n".join(f"v{i} : \\nat" for i in range(5000))
    source = f"\\begin{{class}} {{ Big }}\n\\begin{{state}}\n{decls}\n\\end{{state}}\n\\end{{class}}\n"
    path = tmp_path / "big.tex"
    path.write_text(source, encoding="utf-8")
    tokens = tokenize(source)
    assert len(tokens) > 20_000
    shifts = reduces = 0
    pending = [parse(tokens, oz_parse_table(), object_z_grammar())]
    while pending:
        node = pending.pop()
        if node.token is not None:
            shifts += 1
        else:
            reduces += 1
            pending.extend(node.children)
    assert shifts == len(tokens) - 1
    # any accepted file shifts the same first token and ends in the same row
    _, small = library_trace(deep_sources()["state"])
    lexemes = " ".join(t.lexeme for t in tokens if t.lexeme)
    result = subprocess.run(
        [sys.executable, "-c", BOUNDED_CHILD, str(path), str(LIMIT_MB)],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    got = json.loads(result.stdout)
    assert got["status"] == 0
    assert got["lines"] == 2 + 1 + shifts + 2 * reduces
    assert got["head"] == [f"# trace: {path}", "pile\tentrée\taction",
                           f"$ [0]\t{lexemes} $\t{small[0].text}"]
    assert got["last"] == render_trace(small[-1:]).split("\n")[1]
    assert small[-1].text == "ACCEPT"
