"""Pinned outputs: every file and the stdout of one tiny seeded run per subcommand.

Each case runs `growthlab <argv> --out DIR` in process, at the default seed, and
compares what it writes with tests/pinned/<case>/.  Text, integers and hashes must
match exactly and other numbers to a relative 1e-12, since the wave-table product
goes through BLAS, whose summation order can differ across CPUs.  JSON files are
compared as written, so their layout is pinned too; only the values of the keys
wall_time, output_dir and config_path are blanked, and the output directory and
wall time that stdout names.

A change that alters an output on purpose rewrites every pin with

    PYTHONPATH=src python tests/test_pinned.py

and lists each changed file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from growthlab import cli, reporting

PINNED = Path(__file__).parent / "pinned"
# the value of an unpinned key, on its own line as write_json puts it
UNPINNED = re.compile(r'^(\s*"(?:wall_time|output_dir|config_path)": ).*?(,?)$', re.M)
RTOL = 1e-12

# the dispatch file of the "run" case: a gaussian ensemble on a constant-nu scheme
RUN_CONFIG = {"subcommand": "growth",
              "argv": ["--scheme", "saturating", "--nu", "constant", "--k-max", "5",
                       "--model", "gaussian", "--trials", "4", "--radii", "0.5,0.9,0.99"]}

# the README examples at tiny sizes, then `run --config` and a weight-spec candidate
CASES = {
    "weights": ["weights", "--family", "power", "--alpha", "1", "--ratio-A", "2", "--n0", "1",
                "--k-max", "10"],
    "scheme": ["scheme", "--scheme", "rudin_shapiro", "--k-max", "6"],
    "check": ["check", "--scheme", "loglog", "--k-max", "3", "--kind", "l2_log",
              "--weight", "logpower:0.5"],
    "census": ["census", "--scheme", "rudin_shapiro", "--k-max", "6", "--weight", "power:1"],
    "growth": ["growth", "--scheme", "loglog", "--k-max", "3", "--trials", "4",
               "--radii", "block"],
    "probe-sz": ["probe-sz", "--scheme", "saturating", "--nu", "sqrt", "--k-max", "6",
                 "--n-list", "4,6", "--trials", "10"],
    "probe-riesz": ["probe-riesz", "--n-terms", "2,3", "--offsets", "0,1", "--signed"],
    "cap": ["cap", "--degrees", "2,4", "--combos", "2"],
    "bloch": ["bloch", "--scheme", "rudin_shapiro", "--k-max", "6", "--w-weight", "power:1"],
    "analytic": ["analytic", "--scheme", "loglog", "--k-max", "3", "--trials", "4",
                 "--radii", "0.9,0.99"],
    "run": ["run", "--config", "{config}"],
    "growth-power": ["growth", "--scheme", "loglog", "--k-max", "3", "--trials", "4",
                     "--candidates", "power:1"],
}

# a number not inside a word, so hex digests and version strings stay text
NUMBER = re.compile(r"(?<![\w.])([-+]?\d+\.?\d*(?:[eE][-+]?\d+)?)(?![\w.])")


def run_case(name, work: Path) -> dict:
    """{file name: normalized text} of the case's outputs, stdout as stdout.txt."""
    config = work / "run.json"
    config.write_text(json.dumps(RUN_CONFIG))
    out = work / name
    argv = [a.replace("{config}", str(config)) for a in CASES[name]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv + ["--out", str(out)])
    assert code == 0, (name, code)
    files = {"stdout.txt": re.sub(r"wall \d+\.\ds", "wall *s",
                                  stdout.getvalue().replace(str(out), "<out>"))}
    for path in sorted(out.iterdir()):
        text = path.read_text()
        files[path.name] = UNPINNED.sub(r"\1*\2", text) if path.suffix == ".json" else text
    return files


def _same_number(got: str, want: str) -> bool:
    is_float = [any(c in s for c in ".eE") for s in (got, want)]
    if is_float != [True, True]:
        return got == want
    return math.isclose(float(got), float(want), rel_tol=RTOL, abs_tol=0.0)


def first_difference(got: str, want: str):
    """The first (line number, got, want) that differs, or None."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        gs, ws = NUMBER.split(g), NUMBER.split(w)
        if len(gs) != len(ws) or not all(
                (a == b) if k % 2 == 0 else _same_number(a, b)
                for k, (a, b) in enumerate(zip(gs, ws))):
            return i, g, w
    if len(got_lines) != len(want_lines):
        n = min(len(got_lines), len(want_lines))
        return n + 1, got_lines[n:n + 1], want_lines[n:n + 1]
    return None


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_pins(name, tmp_path):
    files = run_case(name, tmp_path)
    pinned = PINNED / name
    assert sorted(files) == sorted(p.name for p in pinned.iterdir())
    for filename, text in files.items():
        diff = first_difference(text, (pinned / filename).read_text())
        assert diff is None, f"{name}/{filename} line {diff[0]}: {diff[1]!r} != {diff[2]!r}"


@pytest.mark.parametrize("got, want, same", [
    ("r,0.5,1.0000000000001", "r,0.5,1.0", True),
    ("r,0.5,1.000000000001", "r,0.5,1.0", False),
    ("n,4", "n,4.0", False),                           # an integer stays an integer
    ('"config_hash": "3fa9e1"', '"config_hash": "3fa9e2"', False),
    ("slope +0.1234", "slope +0.1235", False),
    ("a\nb", "a", False),
])
def test_comparison_rules(got, want, same):
    assert (first_difference(got, want) is None) == same


def test_json_layout_is_pinned(tmp_path, monkeypatch):
    # the same values on one line are not the pinned file
    monkeypatch.setattr(reporting, "JSON_INDENT", None)
    files = run_case("weights", tmp_path)
    assert first_difference(files["audit.json"], (PINNED / "weights" / "audit.json").read_text())


def test_unpinned_values_blanked():
    text = '{\n  "config_path": null,\n  "output_dir": "/a,b",\n  "wall_time": 0.5\n}\n'
    assert UNPINNED.sub(r"\1*\2", text) == \
        '{\n  "config_path": *,\n  "output_dir": *,\n  "wall_time": *\n}\n'


def rewrite():
    with tempfile.TemporaryDirectory() as work:
        for name in CASES:
            files = run_case(name, Path(work))
            shutil.rmtree(PINNED / name, ignore_errors=True)
            (PINNED / name).mkdir(parents=True)
            for filename, text in files.items():
                (PINNED / name / filename).write_text(text)
            print(f"pinned {name}: {', '.join(files)}")


if __name__ == "__main__":
    sys.exit(rewrite())
