"""Spans around the public functions of each ozcheck module, kept in memory.

The traced run replaces, from outside the program, every module attribute
through which the pipeline calls a public function with a timing wrapper.
Each call becomes a span (name, parent span, file, start, end).  The
per-token mapping ``terminal_of`` is called once per token, so its calls
are summed into one aggregate span per enclosing parse instead.

Counts (tokens, shifts, reduces, diagnostics by code, trace size) are
derived from the captured arguments and results after each file, outside
every timed span.  ``parser.accepts`` is not on the CLI path; it is timed
on the same token streams after each file, as the floor the full parser is
compared against.
"""
from __future__ import annotations

import gc
import json
from collections import Counter
from time import perf_counter_ns

from generate import SEMANTIC_CODES

# (module, attribute, span name) for every call the pipeline makes by name.
WRAPPED = (
    ("ozcheck.cli", "run", "cli.run"),
    ("ozcheck.cli", "tokenize", "lexer.tokenize"),
    ("ozcheck.cli", "parse", "parser.parse"),
    ("ozcheck.cli", "parse_with_trace", "parser.parse_with_trace"),
    ("ozcheck.cli", "render_trace", "parser.render_trace"),
    ("ozcheck.cli", "build_ast", "ozgrammar.build_ast"),
    ("ozcheck.cli", "analyze", "semantics.analyze"),
    ("ozcheck.cli", "render_machine", "diagnostics.render_machine"),
    ("ozcheck.cli", "render_human", "diagnostics.render_human"),
    ("ozcheck.ozgrammar", "build_table", "ozgrammar.build_table"),
    ("ozcheck.grammar", "canonical_collection", "grammar.canonical_collection"),
    ("ozcheck.grammar", "compute_first", "grammar.compute_first"),
    ("ozcheck.grammar", "compute_follow", "grammar.compute_follow"),
)



def _us_per(ns: int, n: int) -> float:
    """Microseconds per unit; 0.0 when the workload never reached the layer."""
    return ns / 1000 / n if n else 0.0


def tree_counts(tree) -> tuple[int, int]:
    """(leaves, inner nodes) of a parse tree: its shifts and its reduces."""
    leaves = inner = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.token is not None:
            leaves += 1
        else:
            inner += 1
            stack.extend(node.children)
    return leaves, inner


class Recorder:
    """Installs the wrappers and accumulates spans and per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: list[tuple] = []  # captured by the wrappers for one file
        self.stack = [0]  # open span ids; 0 is the root
        self.child_ns = [0]  # time covered by child spans, per open span
        self.next_id = 1
        self.file = -1
        self.term_ns = 0
        self.term_calls = 0
        self.gc_ns = 0
        self.gc_gen2 = 0
        self._gc_t0 = 0
        self.acc: Counter = Counter()
        self.codes: Counter = Counter()

    # --- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every function in WRAPPED and ``parser.terminal_of``.

        Must run before the parse table is first built, so that the table
        construction is traced too.
        """
        import importlib

        from ozcheck import lexer, parser

        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self._wrap(getattr(module, attr), name))
        self.terminal_of = lexer.terminal_of
        self.accepts = parser.accepts
        self.unknown_token = lexer.UnknownTokenError
        self.parse_error = parser.ParseError
        parser.terminal_of = self._wrap_terminal_of(lexer.terminal_of)

    def _wrap(self, fn, name: str):
        rec = self

        def traced(*args, **kwargs):
            sid = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1]
            rec.stack.append(sid)
            rec.child_ns.append(0)
            term0, calls0 = rec.term_ns, rec.term_calls
            result = error = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                t1 = perf_counter_ns()
                rec.stack.pop()
                child = rec.child_ns.pop()
                rec.child_ns[-1] += t1 - t0
                rec.spans.append((sid, parent, rec.file, name, t0, t1,
                                  type(error).__name__ if error else None))
                rec.calls.append((name, sid, t1 - t0, child,
                                  rec.term_ns - term0, rec.term_calls - calls0,
                                  args, result, error))

        return traced

    def _wrap_terminal_of(self, fn):
        rec = self

        def traced(token, g):
            t0 = perf_counter_ns()
            try:
                return fn(token, g)
            finally:
                rec.term_ns += perf_counter_ns() - t0
                rec.term_calls += 1

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_t0
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def start_gc_accounting(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_accounting(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # --- derivation (outside every timed span) ------------------------------
    def finish_file(self, table, g) -> None:
        """Derive the counts of the file just checked and time ``accepts``."""
        acc = self.acc
        file_tokens = 0
        streams = []
        for name, sid, dur, child, term_ns, term_calls, args, result, error in self.calls:
            if error is None or name != "lexer.tokenize":
                acc[name + ".ns"] += dur  # tokenize is timed on the calls that succeed
            if name == "cli.run":
                acc["cli.files"] += 1
                acc["cli.glue_ns"] += dur - child
            elif name == "lexer.tokenize":
                if error is None:
                    file_tokens = len(result) - 1
                    acc["lexer.tokens"] += file_tokens
                    acc["lexer.tokenize.tokens"] += file_tokens
                    streams.append(result)
                else:
                    acc["lexer.errors"] += 1
            elif name in ("parser.parse", "parser.parse_with_trace"):
                if name == "parser.parse":
                    acc["parser.parse.tokens"] += len(args[0]) - 1
                    acc["parser.parse.terminal_ns"] += term_ns
                if term_calls:
                    self.spans.append((self.next_id, sid, self.file,
                                       "lexer.terminal_of", None, term_ns,
                                       term_calls))
                    self.next_id += 1
                if isinstance(error, self.unknown_token):
                    acc["lexer.errors"] += 1
                elif isinstance(error, self.parse_error):
                    acc["parser.syntax_errors"] += 1
                tree, steps = None, None
                if name == "parser.parse" and error is None:
                    tree = result
                elif name == "parser.parse_with_trace":
                    tree, steps = (result if error is None
                                   else (None, getattr(error, "trace", None)))
                if tree is not None:
                    shifts, reduces = tree_counts(tree)
                    acc["parser.shifts"] += shifts
                    acc["parser.reduces"] += reduces
                if steps:
                    acc["parser.trace_steps"] += len(steps)
            elif name == "parser.render_trace":
                acc["parser.render_trace.steps"] += len(args[0])
                acc["parser.trace_bytes"] += len(result.encode("utf-8"))
            elif name == "ozgrammar.build_ast":
                acc["ozgrammar.build_ast.tokens"] += file_tokens
                acc["ozgrammar.classes"] += len(result.classes)
            elif name == "semantics.analyze":
                acc["semantics.analyze.tokens"] += file_tokens
                self.codes.update(d.code for d in result)
            elif name == "diagnostics.render_machine":
                acc["diagnostics.count"] += len(args[0])
            elif name == "diagnostics.render_human":
                acc["diagnostics.count"] += 1
        acc["lexer.terminal_of.ns"] += self.term_ns
        acc["lexer.terminal_of.calls"] += self.term_calls
        self.term_ns = self.term_calls = 0
        self.calls.clear()
        for stream in streams:
            self._time_accepts(stream, table, g)

    def _time_accepts(self, stream, table, g) -> None:
        try:
            ids = [self.terminal_of(t, g).id for t in stream.tokens[:-1]]
        except self.unknown_token:
            return
        t0 = perf_counter_ns()
        self.accepts(table, ids)
        t1 = perf_counter_ns()
        self.spans.append((self.next_id, 0, self.file, "parser.accepts", t0, t1, None))
        self.next_id += 1
        self.acc["parser.accepts.ns"] += t1 - t0
        self.acc["parser.accepts.tokens"] += len(ids)

    # --- results ------------------------------------------------------------
    def metrics(self, table) -> dict[str, tuple[float, str]]:
        a = self.acc
        parse = _us_per(a["parser.parse.ns"], a["parser.parse.tokens"])
        accepts = _us_per(a["parser.accepts.ns"], a["parser.accepts.tokens"])
        states, columns = table.dimensions()
        m = {
            "lexer.tokenize.us_per_tok": (
                _us_per(a["lexer.tokenize.ns"], a["lexer.tokenize.tokens"]), "us/tok"),
            "lexer.terminal_of.us_per_tok": (
                _us_per(a["lexer.terminal_of.ns"], a["lexer.terminal_of.calls"]), "us/tok"),
            "lexer.tokens": (a["lexer.tokens"], "count"),
            "lexer.errors": (a["lexer.errors"], "count"),
            "parser.parse.us_per_tok": (parse, "us/tok"),
            "parser.drive.us_per_tok": (_us_per(
                a["parser.parse.ns"] - a["parser.parse.terminal_ns"],
                a["parser.parse.tokens"]), "us/tok"),
            "parser.accepts.us_per_tok": (accepts, "us/tok"),
            "parser.parse_over_accepts": (parse / accepts if accepts else 0.0, "ratio"),
            "parser.shifts": (a["parser.shifts"], "count"),
            "parser.reduces": (a["parser.reduces"], "count"),
            "parser.syntax_errors": (a["parser.syntax_errors"], "count"),
            "parser.parse_with_trace.us_per_step": (_us_per(
                a["parser.parse_with_trace.ns"], a["parser.trace_steps"]), "us/step"),
            "parser.render_trace.us_per_step": (_us_per(
                a["parser.render_trace.ns"], a["parser.render_trace.steps"]), "us/step"),
            "parser.trace_steps": (a["parser.trace_steps"], "count"),
            "parser.trace_bytes": (a["parser.trace_bytes"], "bytes"),
            "ozgrammar.build_ast.us_per_tok": (_us_per(
                a["ozgrammar.build_ast.ns"], a["ozgrammar.build_ast.tokens"]), "us/tok"),
            "ozgrammar.classes": (a["ozgrammar.classes"], "count"),
            "ozgrammar.table_build_ms": (a["ozgrammar.build_table.ns"] / 1e6, "ms"),
            "grammar.canonical_collection_ms": (
                a["grammar.canonical_collection.ns"] / 1e6, "ms"),
            "grammar.first_follow_ms": ((a["grammar.compute_first.ns"]
                                         + a["grammar.compute_follow.ns"]) / 1e6, "ms"),
            "grammar.table_states": (states, "count"),
            "grammar.table_columns": (columns, "count"),
            "semantics.analyze.us_per_tok": (_us_per(
                a["semantics.analyze.ns"], a["semantics.analyze.tokens"]), "us/tok"),
        }
        for code in SEMANTIC_CODES:
            m[f"semantics.diagnostics.{code}"] = (self.codes[code], "count")
        m["diagnostics.render.us_per_diag"] = (_us_per(
            a["diagnostics.render_machine.ns"] + a["diagnostics.render_human.ns"],
            a["diagnostics.count"]), "us/diag")
        m["diagnostics.count"] = (a["diagnostics.count"], "count")
        m["cli.glue_us_per_file"] = (_us_per(a["cli.glue_ns"], a["cli.files"]), "us/file")
        m["runtime.gc_ms"] = (self.gc_ns / 1e6, "ms")
        m["runtime.gc_gen2_collections"] = (self.gc_gen2, "count")
        return m

    def write_spans(self, path: str) -> None:
        """One JSON object per line; aggregate spans carry total_ns and calls."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, file, name, start, end, extra in self.spans:
                if start is None:
                    rec = {"id": sid, "parent": parent, "file": file, "name": name,
                           "total_ns": end, "calls": extra}
                else:
                    rec = {"id": sid, "parent": parent, "file": file, "name": name,
                           "start_ns": start, "end_ns": end, "error": extra}
                fh.write(json.dumps(rec) + "\n")
