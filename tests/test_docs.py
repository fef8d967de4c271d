"""The README's examples run as written."""
from __future__ import annotations

import re
import shlex
import shutil

from ozcheck.cli import build_arg_parser, main

from conftest import CORPUS, TESTS_DIR


def readme_block(section: str, language: str) -> str:
    """The first ``language`` code block of the README section ``section``."""
    readme = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    rest = readme[readme.index(f"\n## {section}\n"):]
    return re.search(rf"```{language}\n(.*?)```", rest, re.DOTALL).group(1)


def command_lines() -> list[list[str]]:
    """The arguments of each ``ozcheck`` line of the "Command line" block,
    without its comment."""
    return [shlex.split(line, comments=True)[1:]
            for line in readme_block("Command line", "sh").splitlines()
            if line.startswith("ozcheck ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    shutil.copy(CORPUS / "queue.tex", tmp_path / "spec.tex")
    monkeypatch.chdir(tmp_path)
    lines = command_lines()
    assert lines
    for args in lines:
        assert main(args) == 0, args
    assert capsys.readouterr().err == ""


def test_readme_command_lines_show_every_option():
    shown = {arg for args in command_lines() for arg in args}
    options = {opt for action in build_arg_parser()._actions
               if action.dest != "help" for opt in action.option_strings}
    assert options and options <= shown


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    block = readme_block("Library", "python")
    shutil.copy(CORPUS / "queue.tex", tmp_path / "spec.tex")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == ""  # queue.tex has no findings
