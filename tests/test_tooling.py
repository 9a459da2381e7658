"""The benchmark tracer and the experiment scripts still find every library
name they use, so a deletion fails here rather than in a traced run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab.disk

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    original = growthlab.disk.sup_bracket
    tracing.Tracer()          # resolves every TARGETS entry with getattr
    assert growthlab.disk.sup_bracket is original     # and installs nothing


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
