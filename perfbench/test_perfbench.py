"""Tests of the benchmark itself: seeded inputs and their reference verdicts.

Run from the root of the repository with ``python -m pytest perfbench``.
"""
from __future__ import annotations

import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import generate
import verdicts

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from ozcheck import tokenize  # noqa: E402
from ozcheck.cli import RunConfig, run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(generate.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(workload):
    make = generate.WORKLOADS[workload]
    assert make(7) == make(7)
    assert [f.text for f in make(7)] != [f.text for f in make(8)]


def test_mixed_workload_covers_every_verdict():
    files = generate.many_files_mixed(3)
    codes = Counter(c for f in files for c in set(f.codes))
    for code in generate.SEMANTIC_CODES + (generate.SYN, generate.LEX):
        assert codes[code] > 0, code
    assert sum(1 for f in files if not f.codes) > len(files) // 3
    assert {(f.format, f.locale) for f in files} == {
        ("machine", "en"), ("machine", "fr"), ("text", "en"), ("text", "fr")}


def test_trace_files_have_the_stated_sizes():
    files = generate.trace(5)
    assert [f.tokens for f in files] == list(generate.TRACE_SIZES)
    assert [i for i, f in enumerate(files) if f.codes] == list(generate.TRACE_BROKEN)


@pytest.mark.parametrize("workload,seed", [
    ("bulk-clean", 11), ("many-files-mixed", 11), ("many-files-mixed", 12),
    ("trace", 11),
])
def test_expected_verdicts_hold(workload, seed, monkeypatch):
    directory = Path(__file__).resolve().parent / "work" / f"test-{workload}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(directory)
    failures = []
    for f in generate.WORKLOADS[workload](seed):
        Path(f.name).write_text(f.text, encoding="utf-8")
        cfg = RunConfig(inputs=[f.name], trace=f.trace, format=f.format,
                        locale=f.locale, lenient_lexing=f.lenient)
        out, err = io.StringIO(), io.StringIO()
        status = crash = None
        try:
            status = run(cfg, stdout=out, stderr=err)
        except Exception as e:  # reported below with the file name
            crash = e
        cause = verdicts.failure(vars(f), status, crash, out.getvalue(), err.getvalue())
        if cause:
            failures.append(f"{f.name}: {cause}")
        if generate.LEX not in f.codes:
            assert len(tokenize(f.text, lenient=f.lenient)) - 1 == f.tokens, f.name
    assert failures == []


def test_french_messages_map_to_their_codes():
    from ozcheck.diagnostics import CODE_CATALOG, Diagnostic, render_human

    for code in CODE_CATALOG:
        d = Diagnostic(code=code, symbol="x", line=1, column=1, class_name="C",
                       block="state-schema", detail="C -> C")
        line = f"a.tex: {render_human(d, locale='fr')}\n"
        assert verdicts.codes_in(line, "a.tex", "text", "fr") == [code]


@pytest.mark.parametrize("workload,trace", [("many-files-mixed", 0), ("trace", 1)])
def test_one_command_prints_every_declared_metric(workload, trace):
    root = Path(__file__).resolve().parents[1]
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
