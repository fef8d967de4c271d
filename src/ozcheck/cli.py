"""Command-line entry point: lexer -> parser and AST -> semantic checks.

Diagnostics and dumps go to standard output; usage and I/O failures go to
the error stream with exit status 2.  Exit status is 0 only when every
input file produced zero diagnostics, 1 otherwise.  An internal failure is
reported on the error stream with exit status 3, so it is never mistaken
for a finding.  The parse table is built once at startup and shared across
all input files.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import diagnostics as diag
from .diagnostics import Diagnostic, render_human, render_machine
from .grammar import dump_first_follow, format_grammar
from .lexer import LexError, UnknownTokenError, tokenize
# perfbench/spans.py wraps parse, parse_with_trace and build_ast here by name
from .ozgrammar import build_ast, object_z_grammar, oz_parse_table, parse_spec
from .parser import ParseError, parse, parse_with_trace, render_trace
from .semantics import analyze

EXIT_CLEAN = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@dataclass
class RunConfig:
    inputs: list[str] = field(default_factory=list)
    trace: bool = False
    dump_table: bool = False
    dump_grammar: bool = False
    dump_first_follow: bool = False
    format: str = "text"
    locale: str = "en"
    lenient_lexing: bool = False

    @property
    def has_dump(self) -> bool:
        return self.dump_table or self.dump_grammar or self.dump_first_follow


def check_source(
    source: str, lenient: bool = False, want_trace: bool = False
) -> tuple[list[Diagnostic], list]:
    """Run the full pipeline over one source text.

    Returns the diagnostics, sorted by position, plus the parse trace
    (empty unless requested).  One drive of the automaton builds the AST on
    reduce, traced or not; no parse tree is built.  The first lexical or
    syntax failure stops the pipeline for that source with one diagnostic;
    semantic checks run only on parsed specifications.
    """
    steps: list | None = [] if want_trace else None
    try:
        tokens = tokenize(source, lenient=lenient)
        spec = parse_spec(tokens, steps)
    except (LexError, UnknownTokenError) as e:
        return [e.to_diagnostic()], []
    except ParseError as e:
        return [e.to_diagnostic()], steps or []
    return analyze(spec), steps or []


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

    if not cfg.inputs and not cfg.has_dump:
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
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as e:
            print(f"ozcheck: cannot read {path}: {e.strerror}", file=err)
            return EXIT_USAGE
        except UnicodeDecodeError:
            print(f"ozcheck: cannot read {path}: not valid UTF-8", file=err)
            return EXIT_USAGE

        diagnostics, steps = check_source(
            source, lenient=cfg.lenient_lexing, want_trace=cfg.trace
        )
        if cfg.trace and steps:
            out.write(f"# trace: {path}\n")
            out.write(render_trace(steps))
        if diagnostics:
            any_diagnostics = True
        if cfg.format == "machine":
            out.write(render_machine(diagnostics, locale=cfg.locale))
        else:
            for d in diagnostics:
                out.write(f"{path}: {render_human(d, locale=cfg.locale)}\n")

    return EXIT_DIAGNOSTICS if any_diagnostics else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except Exception as e:  # last resort: a crash must not read as a finding
        print(f"ozcheck: internal error: {type(e).__name__}: {e}",
              file=sys.stderr)
        return EXIT_INTERNAL


def _main(argv: list[str] | None) -> int:
    parser = build_arg_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags and 0 on --help; keep the contract
        return int(e.code or 0)
    cfg = RunConfig(
        inputs=list(ns.inputs),
        trace=ns.trace,
        dump_table=ns.dump_table,
        dump_grammar=ns.dump_grammar,
        dump_first_follow=ns.dump_first_follow,
        format=ns.format,
        locale=ns.locale,
        lenient_lexing=ns.lenient,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
