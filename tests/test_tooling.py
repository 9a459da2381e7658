"""The benchmark tracer, its workloads and the experiment scripts still find
every library name and flag they use and pass their checks, so a deletion, a
refusal or a broken check fails here rather than in a benchmark run; each
script also runs once at a tiny size, and refuses a bad input as the CLI does."""

import contextlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import growthlab.cli
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


def test_readme_examples_parse():
    """Every `growthlab ...` example line of the README parses with its subcommand's
    parser, so a retired or renamed flag in the docs fails here; each subcommand has one."""
    lines = [l for l in (ROOT / "README.md").read_text().splitlines()
             if l.startswith("growthlab ")]
    for line in lines:
        cmd, *argv = shlex.split(line, comments=True)[1:]
        growthlab.cli._parser(cmd).parse_args(argv)
    assert {l.split()[1] for l in lines} == set(growthlab.cli.SUBCOMMANDS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_ok(tmp_path, name):
    """One round of each benchmark workload at the benchmark's seed: every
    operation it attempts must pass its check."""
    work = workloads.WORKLOADS[name](growthlab, 20260808, str(tmp_path / name))
    work.build()
    outcomes, _ = work.round(0, contextlib.nullcontext)
    assert outcomes and all(o.ok for o in outcomes)


# retired script -> the growthlab command that replaced it, which its refusal cases now run
RETIRED = {"run_cap_stability.py": ["cap"],
           "estimate_riesz_constant.py": ["probe-riesz", "--signed"],
           "run_growth_separation.py": ["growth", "--scheme", "loglog", "--k-max", "4", "--radii",
                                        "0.9375,0.99609375,0.9999847412109375"]}


def run_script(script, args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = (["-m", "growthlab.cli", *RETIRED[script]] if script in RETIRED
               else [str(ROOT / "scripts" / script)])
    return subprocess.run([sys.executable, *command, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))

# script -> (tiny-size arguments, start of the last stdout line)
TINY_RUNS = {
    "run_saturation_sweep.py": (["--trials", "2", "--n-list", "4,6"],
                                "while the blockwise score column grows like nu itself."),
}

# (script, bad arguments, error code); a script's first case has its bare name as id and the
# others add their code.  The growth script's first case, --trials 0, went: it failed after the
# manifest was written; test_cli::test_ensemble_config_refused_before_output now covers it.
REFUSALS = [
    pytest.param("run_cap_stability.py", ["--degrees", "200"], "DEGREE_BUDGET",
                 id="run_cap_stability.py"),
    pytest.param("estimate_riesz_constant.py", ["--n-terms", "2", "--offsets", "-10"], "DOMAIN",
                 id="estimate_riesz_constant.py"),
    pytest.param("run_growth_separation.py", ["--trials", "x"], "CONFIG_INVALID",
                 id="run_growth_separation.py-CONFIG_INVALID"),
    pytest.param("run_saturation_sweep.py", ["--n-list", "30"], "DEGREE_BUDGET",
                 id="run_saturation_sweep.py"),
    pytest.param("run_saturation_sweep.py", ["--n-list", "x"], "CONFIG_INVALID",
                 id="run_saturation_sweep.py-CONFIG_INVALID"),
]


def test_every_script_runs_and_refuses():
    """No script escapes the tiny run or the coded-refusal check, and no retired
    script is back in scripts/."""
    assert sorted(TINY_RUNS) == SCRIPTS
    refused = {case.values[0] for case in REFUSALS}
    assert sorted(refused - set(RETIRED)) == SCRIPTS
    assert set(RETIRED) <= refused and not set(RETIRED) & set(SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_exits_zero(script):
    proc = run_script(script, ["--help"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", sorted(TINY_RUNS))
def test_script_tiny_run(script):
    args, last = TINY_RUNS[script]
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith(last), proc.stdout


@pytest.mark.parametrize("script, args, code", REFUSALS)
def test_script_refuses_like_the_cli(tmp_path, script, args, code):
    proc = run_script(script, args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["error"] == code
    assert not any(tmp_path.iterdir())      # refused before any output directory
