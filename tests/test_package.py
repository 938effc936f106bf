"""Package metadata and the public namespace the README documents."""

import math
from pathlib import Path
import re

import polybvp


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    assert polybvp.__version__ == declared


def readme_block(heading):
    """The first fenced block after a README heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = text.split("\n" + heading + "\n", 1)[1]
    return after.split("```", 2)[1].split("\n", 1)[1]


def test_all_is_the_readme_export_list():
    names = readme_block("### Exported names").split()
    assert len(names) == len(set(names))
    assert sorted(polybvp.__all__) == sorted(names)


def test_every_exported_name_resolves():
    for name in polybvp.__all__:
        assert getattr(polybvp, name) is not None, name


def test_readme_quick_start_runs_as_written(capsys):
    code = readme_block("## Quick start (Python)")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3
    assert all(math.isfinite(float(v)) for v in printed)
