"""Command-line entry point: lexer -> parser and AST -> semantic checks.

Diagnostics, traces and dumps go to standard output; usage and I/O
failures, an output that cannot be written among them, go to the error
stream with exit status 2.  Exit status is 0 only when every input file
produced zero diagnostics, 1 otherwise.  An internal failure is reported on
the error stream with exit status 3, so it is never mistaken for a finding.
The parse table is built once at startup and shared across all input files.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import diagnostics as diag
from .diagnostics import Diagnostic, render_human, render_machine
from .grammar import dump_first_follow, format_grammar
from .lexer import tokenize
# perfbench/spans.py wraps parse, parse_with_trace, render_trace and
# build_ast here by name; the CLI calls none of them: parse_spec builds the
# AST in its one drive, and a TraceWriter streams the trace rows.
from .ozgrammar import build_ast, object_z_grammar, oz_parse_table, parse_spec
from .parser import TraceWriter, parse, parse_with_trace, render_trace
from .semantics import analyze

EXIT_CLEAN = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class RunConfig:
    def __init__(self, inputs: list[str] | None = None, trace: bool = False,
                 dump_table: bool = False, dump_grammar: bool = False,
                 dump_first_follow: bool = False, format: str = "text",
                 locale: str = "en", lenient_lexing: bool = False) -> None:
        self.inputs = [] if inputs is None else inputs
        self.trace = trace
        self.dump_table = dump_table
        self.dump_grammar = dump_grammar
        self.dump_first_follow = dump_first_follow
        self.format = format
        self.locale = locale
        self.lenient_lexing = lenient_lexing


def check_text(
    source: str, lenient: bool = False, trace: TraceWriter | None = None
) -> list[Diagnostic]:
    """Run the full pipeline over one source text.

    Returns the diagnostics, sorted by position.  One drive of the
    automaton builds the AST on reduce, traced or not; no parse tree is
    built.  Unless ``trace`` is None the drive hands its rows to it as it
    makes them, so a :class:`TraceWriter` writes the trace before the
    diagnostics are known, and nothing if lexing fails or a token has no
    terminal.  The first lexical or syntax failure stops the pipeline for
    that source with the one diagnostic it is raised as (a
    :class:`~ozcheck.diagnostics.DiagnosticError`); semantic checks run
    only on parsed specifications.
    """
    try:
        tokens = tokenize(source, lenient=lenient)
        spec = parse_spec(tokens, trace)
    except diag.DiagnosticError as e:
        return [e.diagnostic]
    return analyze(spec)


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ozcheck",
        description=(
            "Check Object Z class specifications written in LaTeX "
            "(zed.sty/oz.sty conventions, whitespace-separated tokens)."
        ),
    )
    p.add_argument("inputs", nargs="*", metavar="FILE", help=".tex input files")
    p.add_argument("--trace", action="store_true",
                   help="print the shift-reduce trace for each file")
    p.add_argument("--dump-table", action="store_true",
                   help="print the ACTION/GOTO table as TSV and exit")
    p.add_argument("--dump-grammar", action="store_true",
                   help="print the grammar in interchange format and exit")
    p.add_argument("--dump-first-follow", action="store_true",
                   help="print the FIRST/FOLLOW tables and exit")
    p.add_argument("--format", choices=["text", "machine"], default="text",
                   help="diagnostic rendering (default: text)")
    p.add_argument("--locale", choices=["en", "fr"], default="en",
                   help="message language (default: en)")
    p.add_argument("--lenient", action="store_true",
                   help="also split { } [ ] ( ) , : glued to words")
    return p


def run(cfg: RunConfig, stdout=None, stderr=None) -> int:
    """Execute one configured run; returns the exit status."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr

    if not (cfg.inputs or cfg.dump_table or cfg.dump_grammar or cfg.dump_first_follow):
        print("usage: at least one input file is required", file=err)
        return EXIT_USAGE
    if cfg.format not in ("text", "machine") or cfg.locale not in ("en", "fr"):
        print("usage: bad --format or --locale value", file=err)
        return EXIT_USAGE

    if cfg.dump_grammar:
        out.write(format_grammar(object_z_grammar()))
    if cfg.dump_table:
        out.write(oz_parse_table().dump_tsv())
    if cfg.dump_first_follow:
        out.write(dump_first_follow(object_z_grammar()))

    any_diagnostics = False
    for path in cfg.inputs:
        shown = diag._visible(path)  # a path is echoed input too
        try:
            with open(path, encoding="utf-8-sig") as fh:
                source = fh.read()
        except OSError as e:
            print(f"ozcheck: cannot read {shown}: {e.strerror}", file=err)
            return EXIT_USAGE
        except UnicodeDecodeError:
            print(f"ozcheck: cannot read {shown}: not valid UTF-8", file=err)
            return EXIT_USAGE

        rows = TraceWriter(out, f"# trace: {shown}\n") if cfg.trace else None
        diagnostics = check_text(source, cfg.lenient_lexing, rows)
        if diagnostics:
            any_diagnostics = True
        if cfg.format == "machine":
            out.write(render_machine(diagnostics, locale=cfg.locale))
        else:
            for d in diagnostics:
                out.write(f"{shown}: {render_human(d, locale=cfg.locale)}\n")

    return EXIT_DIAGNOSTICS if any_diagnostics else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()  # a closed output fails here, not at exit
        return status
    except OSError as e:  # run reports unreadable inputs; this is the output
        _discard_stdout()
        print(f"ozcheck: cannot write output: {e.strerror or e}",
              file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # last resort: a crash must not read as a finding
        print(f"ozcheck: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_INTERNAL


def _discard_stdout() -> None:
    """Point the standard output at the null device, so the interpreter's
    final flush of what could not be written fails no more (the SIGPIPE
    note of the Python ``signal`` documentation)."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # not backed by a file descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _main(argv: list[str] | None) -> int:
    parser = build_arg_parser()
    try:
        ns = vars(parser.parse_args(argv))
    except SystemExit as e:
        # argparse exits 2 on bad flags and 0 on --help; keep the contract
        return int(e.code or 0)
    # every option is named after its RunConfig field except --lenient
    return run(RunConfig(lenient_lexing=ns.pop("lenient"), **ns))


if __name__ == "__main__":
    sys.exit(main())
