"""The README's examples run as written."""
from __future__ import annotations

import re
import shutil

from conftest import CORPUS, TESTS_DIR


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    shutil.copy(CORPUS / "queue.tex", tmp_path / "spec.tex")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == ""  # queue.tex has no findings
