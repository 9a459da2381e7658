"""The benchmark tracer, its CLI round and the experiment scripts still find
every library name and flag they use, so a deletion or a refusal fails here
rather than in a benchmark run; each script also runs once at a tiny size."""

import contextlib
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


def test_cli_suite_round_ok(monkeypatch, tmp_path):
    """One round of the benchmark's cli_suite: a refusal of one of its command
    lines fails here rather than in the benchmark."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    suite = workloads.CliSuite(growthlab, 20260808, str(tmp_path / "cli"))
    suite.build()
    outcomes, _ = suite.round(0, contextlib.nullcontext)
    assert len(outcomes) == len(suite.commands(0, "")) and all(o.ok for o in outcomes)


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script, args, last", [pytest.param(*case, id=case[0]) for case in [
    ("run_growth_separation.py", ["--trials", "2", "--n-top", "4"], "flatness ranking: "),
    ("run_saturation_sweep.py", ["--trials", "2", "--n-list", "4,6"],
     "while the blockwise score column grows like nu itself."),
    ("estimate_riesz_constant.py", ["--n-terms", "2,3", "--offsets", "0,1"],
     "conservative empirical constant: "),
    ("run_cap_stability.py", ["--degrees", "2,4", "--combos", "2"], "      4 "),
]])
def test_script_tiny_run(script, args, last):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last), proc.stdout
