"""The benchmark tracer, its workloads and the experiment scripts still find
every library name and flag they use and pass their checks, so a deletion, a
refusal or a broken check fails here rather than in a benchmark run; each
script also runs once at a tiny size, and refuses a bad input as the CLI does."""

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab.disk

ROOT = Path(__file__).resolve().parents[1]

with pytest.MonkeyPatch.context() as mp:
    mp.syspath_prepend(str(ROOT / "perfbench"))
    import workloads


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    original = growthlab.disk.sup_bracket
    tracing.Tracer()          # resolves every TARGETS entry with getattr
    assert growthlab.disk.sup_bracket is original     # and installs nothing


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_ok(tmp_path, name):
    """One round of each benchmark workload at the benchmark's seed: every
    operation it attempts must pass its check."""
    work = workloads.WORKLOADS[name](growthlab, 20260808, str(tmp_path / name))
    work.build()
    outcomes, _ = work.round(0, contextlib.nullcontext)
    assert outcomes and all(o.ok for o in outcomes)


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("*.py")))
def test_script_help_exits_zero(script):
    proc = run_script(script, ["--help"])
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
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last), proc.stdout


@pytest.mark.parametrize("script, args, code", [pytest.param(*case, id=case[0]) for case in [
    ("run_cap_stability.py", ["--degrees", "200"], "DEGREE_BUDGET"),
    ("run_growth_separation.py", ["--trials", "0"], "DOMAIN"),
    ("run_saturation_sweep.py", ["--n-list", "30"], "DEGREE_BUDGET"),
]])
def test_script_refuses_like_the_cli(script, args, code):
    proc = run_script(script, args)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == code
