"""The package's public surface: ``selfmix.__all__`` and the README's use of it."""
from __future__ import annotations

import re
from functools import reduce
from pathlib import Path

import selfmix

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_sorted_unique_and_every_name_resolves():
    names = selfmix.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(selfmix, name)]
    assert missing == []


def test_every_name_the_readme_calls_on_the_package_resolves():
    text = README.read_text(encoding="utf-8")
    paths = set(re.findall(r"\bsm\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", text))
    assert paths
    missing = []
    for path in sorted(paths):
        try:
            reduce(getattr, path.split("."), selfmix)
        except AttributeError:
            missing.append(path)
    assert missing == []


def test_the_readme_python_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(0.0 <= float(v) <= 1.0 for v in printed)
