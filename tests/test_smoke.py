"""README quick start and demos run clean against the top-level API."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "weak_values_tour.py",
    "strong_clicks.py",
    "weak_pointers.py",
    "disturbance_and_crossings.py",
)
TOP_LEVEL_EXTRAS = {"Scenario", "load", "save", "WvlabError", "ScenarioError"}


def _quick_start_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]


def _quick_start() -> str:
    return re.search(r"```python\n(.*?)```", _quick_start_section(), re.S).group(1)


def _module_entries() -> dict[str, list[str]]:
    """Module -> the backticked identifiers of its README entry."""
    entries = re.findall(r"^- `(wvlab\.\w+)`:(.*?)(?=^- |\Z)", _quick_start_section(), re.M | re.S)
    return {module: re.findall(r"`([A-Za-z_]\w*)`", body) for module, body in entries}


def _child(args) -> subprocess.CompletedProcess:
    """A Python child on args in development mode, every warning an error."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120,
    )


def test_readme_quick_start_runs():
    proc = _child(["-c", _quick_start()])
    assert proc.returncode == 0 and proc.stderr == ""
    assert "{'D': 1.0, 'O': 0.0}" in proc.stdout


def test_readme_module_entries_name_what_the_modules_define():
    entries = _module_entries()
    assert set(entries) == {f"wvlab.{m}" for m in ("qcore", "twosv", "pointer", "runner", "scenario")}
    for module, names in entries.items():
        mod = importlib.import_module(module)
        assert names, module
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, f"README names {module} attributes it does not define: {missing}"


def test_top_level_exports_are_what_readme_and_demos_use():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used = set()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        used |= {
            node.attr
            for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "wvlab"
        }
    for demo in DEMOS:
        tree = ast.parse((ROOT / "demos" / demo).read_text(encoding="utf-8"))
        used |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "wvlab"
            for alias in node.names
        }
    wvlab = importlib.import_module("wvlab")
    exported = set(wvlab.__all__)
    assert not exported - used - TOP_LEVEL_EXTRAS, "exported but used by no README block or demo"
    assert not (used | TOP_LEVEL_EXTRAS) - exported, "used but not exported"
    assert all(hasattr(wvlab, name) for name in exported)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _child([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout
