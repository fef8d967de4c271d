"""The CLI case set: one line per case, with its name, its exit status and
the SHA-256 of its standard output and of its standard error.

Run it in two checkouts and compare the lines to see every case whose
output differs between them::

    python tests/caseset.py > cases.txt

Each case runs ``ozcheck.cli.run`` of this checkout in process, with
``StringIO`` streams, from a temporary directory that holds each input
under a relative path, so no line depends on where the checkout is.  The
cases are:

* the corpus files under all 16 combinations of ``--trace``, ``--format``,
  ``--locale`` and ``--lenient``;
* ``--dump-grammar``, ``--dump-table`` and ``--dump-first-follow``;
* every ``perfbench/generate.py`` file of seeds 1-3 of each workload that
  ``BENCHMARK.json`` declares, with its own options and again with
  ``--trace`` (once, when its own options trace already).
"""
from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ozcheck.cli import RunConfig, run  # noqa: E402

SEEDS = (1, 2, 3)
DUMPS = ("dump_grammar", "dump_table", "dump_first_follow")


def _name(path: str, cfg: RunConfig) -> str:
    flags = [f"--format={cfg.format}", f"--locale={cfg.locale}"]
    flags += ["--trace"] * cfg.trace + ["--lenient"] * cfg.lenient_lexing
    return " ".join([path, *flags])


def corpus_cases(tmp: Path):
    """(name, config) of each corpus case, its input copied under ``tmp``."""
    (tmp / "corpus").mkdir()
    for source in sorted((ROOT / "tests" / "corpus").glob("*.tex")):
        path = f"corpus/{source.name}"
        shutil.copyfile(source, tmp / path)
        for trace, fmt, locale, lenient in itertools.product(
                (False, True), ("text", "machine"), ("en", "fr"), (False, True)):
            cfg = RunConfig([path], trace=trace, format=fmt, locale=locale,
                            lenient_lexing=lenient)
            yield _name(path, cfg), cfg
    for dump in DUMPS:
        yield "--" + dump.replace("_", "-"), RunConfig(**{dump: True})


def generated_cases(tmp: Path):
    """(name, config) of each generated case, its input written under
    ``tmp``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import generate

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for workload, seed in itertools.product(
            [w["name"] for w in declared], SEEDS):
        folder = tmp / workload / str(seed)
        folder.mkdir(parents=True)
        for f in generate.WORKLOADS[workload](seed):
            path = f"{workload}/{seed}/{f.name}"
            (tmp / path).write_text(f.text, encoding="utf-8")
            for trace in dict.fromkeys((f.trace, True)):
                cfg = RunConfig([path], trace=trace, format=f.format,
                                locale=f.locale, lenient_lexing=f.lenient)
                yield _name(path, cfg), cfg


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_lines(generated: bool = True):
    """Yield each case's line: name, exit status (or the name of the
    exception ``run`` raised), SHA-256 of stdout, SHA-256 of stderr."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            cases = corpus_cases(Path(tmp))
            if generated:
                cases = itertools.chain(cases, generated_cases(Path(tmp)))
            for name, cfg in cases:
                out, err = io.StringIO(), io.StringIO()
                try:
                    status = str(run(cfg, stdout=out, stderr=err))
                except Exception as e:  # a crash is a case's outcome too
                    status = type(e).__name__
                yield "\t".join([name, status, _digest(out.getvalue()),
                                 _digest(err.getvalue())])
        finally:
            os.chdir(here)


if __name__ == "__main__":
    for line in case_lines():
        print(line)
