"""Every demo, and the README's quickstart, imports against the current library
and runs to the end."""

import importlib.util
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # demos write their CSVs into the working directory
    monkeypatch.chdir(tmp_path)
    _load(path).main()
    assert capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    # the one python block under "Library quickstart", run as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md quickstart", "exec"), {})
    phi_total, correction = map(float, capsys.readouterr().out.split())
    assert math.isfinite(phi_total) and math.isfinite(correction) and correction != 0
