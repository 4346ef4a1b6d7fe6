"""README quick start and demos run clean against the top-level API."""

from __future__ import annotations

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


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _child(args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_readme_quick_start_runs():
    proc = _child(["-c", _quick_start()])
    assert proc.returncode == 0 and proc.stderr == ""
    assert "{'D': 1.0, 'O': 0.0}" in proc.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _child([str(ROOT / "demos" / demo)])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout
