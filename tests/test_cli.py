import json
import re

import pytest

from growthlab import schemes
from growthlab.cli import main
from growthlab.mclab import EnsembleReport, ExperimentConfig, fit_growth


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _block_rows(out):
    return [l for l in (out / "blocks.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("k,")]


def test_weights_blocks_csv(tmp_path, capsys):
    out = tmp_path / "w"
    code, _, err = run_cli(capsys, "weights", "--family", "power", "--alpha", "1",
                           "--ratio-A", "2", "--n0", "1", "--k-max", "10",
                           "--out", str(out))
    assert code == 0 and err == ""
    ns = [int(l.split(",")[1]) for l in _block_rows(out)]
    assert ns == [2**k for k in range(11)]
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "complete"
    assert man["tool_version"]


def test_check_score_report(tmp_path, capsys):
    out = tmp_path / "c"
    code, _, _ = run_cli(capsys, "check", "--scheme", "loglog", "--k-max", "4",
                         "--kind", "l2_log", "--weight", "logpower:0.5",
                         "--out", str(out))
    assert code == 0
    rep = json.loads((out / "score.json").read_text())
    ratios = [c["ratio"] for c in rep["checkpoints"] if c["ratio"] > 0]
    assert ratios[-1] / ratios[0] > 1.5   # growing checkpoints
    assert rep["criterion"] == "l2_log"


def test_missing_config_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "CONFIG_INVALID"


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "UNKNOWN_SUBCOMMAND"


def test_bad_flag_value(capsys, tmp_path):
    code, _, err = run_cli(capsys, "weights", "--alpha", "-1", "--out", str(tmp_path / "x"))
    assert code == 2
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "NON_POSITIVE_EXPONENT"


def test_growth_run_and_rerun_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    args = ["growth", "--scheme", "loglog", "--k-max", "2", "--trials", "10",
            "--radii", "0.5,0.9", "--seed", "7"]
    assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("wall_time"), r2.pop("wall_time")
    assert r1 == r2
    assert (out1 / "quantiles.csv").exists()


def test_analytic_subcommand(tmp_path, capsys):
    out = tmp_path / "an"
    code, _, _ = run_cli(capsys, "analytic", "--scheme", "loglog", "--k-max", "2",
                         "--trials", "6", "--radii", "0.5,0.9", "--out", str(out))
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["flavor"] == "analytic"
    assert rep["config"]["model"] == {"kind": "steinhaus"}
    assert all(v > 0 for v in rep["lower_med"])


def test_run_dispatch_from_config(tmp_path, capsys):
    cfg = {"subcommand": "weights",
           "argv": ["--family", "power", "--alpha", "2", "--k-max", "3"]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r"
    code, _, _ = run_cli(capsys, "run", "--config", str(path), "--out", str(out))
    assert code == 0
    assert (out / "blocks.csv").exists()


def test_census_subcommand(tmp_path, capsys):
    out = tmp_path / "cen"
    code, _, _ = run_cli(capsys, "census", "--scheme", "rudin_shapiro", "--k-max", "10",
                         "--weight", "power:1", "--out", str(out))
    assert code == 0
    lines = (out / "census.csv").read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert not any("seed" in c for c in comments)      # census draws no random numbers
    assert any("config_hash" in c for c in comments)
    assert [l for l in lines if not l.startswith("#")][0] == "n,N_n,fraction,threshold_at_n"
    assert (out / "liminf.csv").exists()


def test_probe_riesz_subcommand(tmp_path, capsys):
    out = tmp_path / "rz"
    code, outtext, _ = run_cli(capsys, "probe-riesz", "--n-terms", "2,3",
                               "--out", str(out))
    assert code == 0
    assert "c_emp=1.000000" in outtext
    assert (out / "riesz.csv").exists()


def _csv_records(path):
    """The data rows of a result CSV as dicts keyed by its header."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_cap_summary_matches_csv(tmp_path, capsys):
    # degree 1's least constant falls below half of degree 4's, the reference
    out = tmp_path / "cap"
    code, text, _ = run_cli(capsys, "cap", "--degrees", "4,1", "--combos", "3", "--out", str(out))
    assert code == 0
    assert "  warning: degree 1 fell below half the reference 3.3828" in text.splitlines()
    rows = _csv_records(out / "cap.csv")
    for n in (4, 1):
        cs = sorted(float(r["c_implied"]) for r in rows if r["degree"] == str(n))
        grid = {r["grid_K"] for r in rows if r["degree"] == str(n)}
        assert len(cs) == 3 and len(grid) == 1
        assert (f"degree {n}: min c_implied = {cs[0]:.4f}, median {cs[1]:.4f}, "
                f"max {cs[2]:.4f}, grid_K {grid.pop()}") in text.splitlines()


@pytest.mark.parametrize("radii, candidates", [
    ("0.9375,0.99609375,0.9999847412109375", None),
    ("0.5,0.9", None),
    ("0.9,0.99,0.999", "sqrt_log,sqrt_log_loglog,power:0.25"),
], ids=["three_radii", "two_radii", "long_labels"])
def test_growth_summary_matches_report(tmp_path, capsys, radii, candidates):
    out = tmp_path / "g"
    picked = [] if candidates is None else ["--candidates", candidates]
    code, text, _ = run_cli(capsys, "growth", "--scheme", "loglog", "--k-max", "4",
                            "--radii", radii, *picked, "--trials", "4", "--out", str(out))
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    names = ExperimentConfig.candidates if candidates is None else candidates.split(",")
    lines = text.splitlines()
    start = lines.index(f"trials=4 seed=20260808 hash={rep['config_hash'][:12]}")
    table = lines[start + 1:start + 2 + len(rep["radii"])]
    assert table[0].split() == ["r", "n(r)", "median", "q10", "q90"] + ["/" + n for n in names]
    rows = [line.split() for line in table[1:]]
    ratios = rep["candidate_ratios"]
    assert rows == [[f"{r:.8f}", f"{n:.0f}", f"{med:.4f}", f"{q10:.4f}", f"{q90:.4f}"]
                    + [f"{ratios[name][i]:.4f}" for name in names]
                    for i, (r, n, med, q10, q90) in enumerate(zip(
                        rep["radii"], rep["n_of_r"], rep["lower_med"], rep["lower_q10"],
                        rep["lower_q90"]))]
    # every column is right-aligned under its header, however long the label
    ends = [[m.end() for m in re.finditer(r"\S+", line)] for line in table]
    assert all(e == ends[0] for e in ends)
    ranking = [line for line in lines if line.startswith("flatness ranking:")]
    if len(rep["radii"]) < 3:
        assert ranking == []
        return
    report = EnsembleReport(**{k: v for k, v in rep.items() if k != "wall_time"})
    assert ranking == ["flatness ranking: " + ", ".join(
        f"{row.name} (slope {row.slope:+.4f})" for row in fit_growth(report).rows)]
    assert ranking == [lines[-1]]


def test_probe_riesz_summary_matches_csv(tmp_path, capsys):
    out = tmp_path / "rz"
    code, text, _ = run_cli(capsys, "probe-riesz", "--signed", "--n-terms", "2,3",
                            "--offsets", "0,1", "--out", str(out))
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("n_terms=2: c_emp=")
    assert lines[0].endswith(", patterns 4, worst +- @ N=1")
    assert lines[1].startswith("n_terms=3: c_emp=")
    assert lines[1].endswith(", patterns 8, worst ++- @ N=0")
    least = min(float(r["ratio"]) for r in _csv_records(out / "riesz.csv"))
    assert lines[2] == f"conservative empirical constant: {least:.5f}"
    assert lines[2].endswith(" 0.90267")


def test_bloch_subcommand(tmp_path, capsys):
    out = tmp_path / "b"
    code, _, _ = run_cli(capsys, "bloch", "--scheme", "rudin_shapiro", "--k-max", "8",
                         "--weight", "power:1", "--w-weight", "power:1",
                         "--out", str(out))
    assert code == 0
    rep = json.loads((out / "bloch_score.json").read_text())
    assert rep["criterion"] == "blockwise"
    assert (out / "bloch_targets.csv").exists()


def test_stderr_is_line_delimited_json(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--scheme", "nope", "--out", str(tmp_path / "x"))
    assert code == 2
    for line in err.strip().splitlines():
        json.loads(line)


def test_run_config_pointer_diagnostic(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"subcommand": "run"}))
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "CONFIG_INVALID"
    assert diag["pointer"] == "/subcommand"


def test_threads_env_ignored(tmp_path, capsys, monkeypatch):
    # GROWTHLAB_THREADS is no setting: any value, even a non-integer, leaves every byte alone
    args = ["growth", "--scheme", "loglog", "--k-max", "2", "--trials", "4",
            "--radii", "0.5,0.9"]
    monkeypatch.setenv("GROWTHLAB_THREADS", "abc")
    assert run_cli(capsys, *args, "--out", str(tmp_path / "abc"))[0] == 0
    monkeypatch.delenv("GROWTHLAB_THREADS")
    assert run_cli(capsys, *args, "--out", str(tmp_path / "unset"))[0] == 0
    for name in ("quantiles.csv", "candidates.csv"):
        assert (tmp_path / "abc" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes()
    ra, ru = (json.loads((tmp_path / d / "report.json").read_text()) for d in ("abc", "unset"))
    ra.pop("wall_time"), ru.pop("wall_time")
    assert ra == ru
    assert "threads" not in ra["config"]


def test_growth_from_experiment_config_file(tmp_path, capsys):
    cfg = {"scheme": {"name": "loglog", "k_max": 2}, "model": {"kind": "rademacher"},
           "seed": 5, "trials": 6, "radii": [0.5, 0.9]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g"
    code, _, _ = run_cli(capsys, "growth", "--config", str(path), "--out", str(out))
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["config"]["seed"] == 5
    assert rep["config"]["trials"] == 6


@pytest.mark.parametrize("subcommand", ["growth", "analytic"])
@pytest.mark.parametrize("extra", [["--trials", "3"], ["--refine"], ["--seed", "20260808"]])
def test_config_with_other_flags_rejected(tmp_path, capsys, subcommand, extra):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"scheme": {"name": "loglog", "k_max": 2},
                                "model": {"kind": "rademacher"}, "seed": 5, "trials": 2,
                                "radii": [0.5]}))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, subcommand, "--config", str(path), *extra, "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert extra[0] in diag["detail"]
    assert not out.exists()


def test_check_missing_scheme_flag(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", "--kind", "l2_cum", "--out", str(tmp_path / "x"))
    assert code == 2
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "CONFIG_INVALID"
    assert diag["pointer"] == "/scheme"


def test_config_flag_only_where_read(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", "--config", str(tmp_path / "missing.json"),
                           "--scheme", "loglog", "--k-max", "2", "--out", str(tmp_path / "c"))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "CONFIG_INVALID"


def test_nan_radius_rejected_before_report(tmp_path, capsys):
    out = tmp_path / "g"
    code, _, err = run_cli(capsys, "growth", "--scheme", "loglog", "--k-max", "2",
                           "--trials", "2", "--radii", "0.5,nan", "--out", str(out))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "RADIUS_OUT_OF_RANGE"
    assert not (out / "report.json").exists()


def test_failed_run_marks_manifest(tmp_path, capsys):
    out = tmp_path / "g"
    code, _, err = run_cli(capsys, "growth", "--scheme", "loglog", "--k-max", "2",
                           "--trials", "0", "--radii", "0.5", "--out", str(out))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "DOMAIN"
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "failed"
    assert man["error"] == "DOMAIN"


def _diagnostic(capsys, *argv):
    code, _, err = run_cli(capsys, *argv)
    return code, json.loads(err.strip().splitlines()[-1])


@pytest.mark.parametrize("flag, argv", [
    ("--radii", ["growth", "--scheme", "loglog", "--k-max", "2", "--radii", "0.5,abc"]),
    ("--n-list", ["probe-sz", "--scheme", "saturating", "--n-list", "a"]),
    ("--n-terms", ["probe-riesz", "--n-terms", "2,3.5"]),
    ("--offsets", ["probe-riesz", "--offsets", "0,"]),
    ("--degrees", ["cap", "--degrees", "2,x"]),
])
def test_bad_comma_list_rejected(tmp_path, capsys, flag, argv):
    out = tmp_path / "o"
    code, diag = _diagnostic(capsys, *argv, "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert flag in diag["detail"]
    assert not out.exists()


def test_dense_budget_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(schemes, "MAX_SCHEME_SPAN", 1000)   # hadamard k-max 10 has degree 1024
    for sub in ("check", "census"):
        code, diag = _diagnostic(capsys, sub, "--scheme", "hadamard", "--weight", "power:1",
                                 "--k-max", "10", "--out", str(tmp_path / sub))
        assert (code, diag["error"]) == (2, "DEGREE_BUDGET")


def test_scheme_span_budget_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(schemes, "MAX_SCHEME_SPAN", 1000)   # k-max 10 spans 1023
    code, diag = _diagnostic(capsys, "scheme", "--scheme", "rudin_shapiro",
                             "--weight", "power:1", "--k-max", "10",
                             "--out", str(tmp_path / "s"))
    assert (code, diag["error"]) == (2, "DEGREE_BUDGET")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv, code", [
    (["growth", "--radii", "0.5,1.0"], "RADIUS_OUT_OF_RANGE"),
    (["growth", "--radii", "0.5,inf"], "RADIUS_OUT_OF_RANGE"),
    (["growth", "--oversample", "nan"], "DOMAIN"),
    (["analytic", "--oversample", "inf"], "DOMAIN"),
    (["growth", "--oversample", "3"], "DOMAIN"),
    (["growth", "--threads", "2"], "CONFIG_INVALID"),      # a removed flag
    (["analytic", "--threads", "2"], "CONFIG_INVALID"),
])
def test_ensemble_config_checked_before_manifest(tmp_path, capsys, argv, code):
    out = tmp_path / "g"
    code_, diag = _diagnostic(capsys, *argv, "--scheme", "loglog", "--k-max", "2",
                              "--trials", "2", "--out", str(out))
    assert (code_, diag["error"]) == (2, code)
    assert not out.exists()


@pytest.mark.parametrize("radii", [0.5, "0.5", "0", {"r": 0.5}, []])
def test_config_file_radii_checked_before_manifest(tmp_path, capsys, radii):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"scheme": {"name": "loglog", "k_max": 2},
                                "model": {"kind": "rademacher"}, "seed": 5, "trials": 2,
                                "radii": radii}))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert not out.exists()


_EXP = {"scheme": {"name": "loglog", "k_max": 2}, "model": {"kind": "rademacher"},
        "seed": 5, "trials": 2, "radii": [0.5]}


@pytest.mark.parametrize("cfg", [
    [_EXP],                                                      # not an object
    {k: v for k, v in _EXP.items() if k != "scheme"},            # missing key
    dict(_EXP, oversampel=1000),                                 # unknown key
    dict(_EXP, seed="x"),
    dict(_EXP, trials=2.5),
    dict(_EXP, threads=2),                                       # a removed key
    dict(_EXP, oversample="abc"),
    dict(_EXP, oversample=None),
    dict(_EXP, max_evals=None),
    dict(_EXP, refine="false"),
    dict(_EXP, candidates="sqrt_log"),
    dict(_EXP, flavor="complex"),
    dict(_EXP, scheme=5),
    dict(_EXP, model="rademacher"),
    dict(_EXP, model={}),
    dict(_EXP, model={"kind": "gaussian", "sigma": "x"}),
    dict(_EXP, model={"kind": "rademacher", "sigma": 0.25}),    # sigma it never reads
    # blocks a loglog scheme never reads, which once set the "block" radii
    dict(_EXP, radii="block", scheme={"name": "loglog", "k_max": 3, "blocks": {
        "weight": {"family": "power", "alpha": 1.0}, "A": 2.0, "n": [1, 2, 4, 8]}}),
])
def test_malformed_config_file_rejected_before_manifest(tmp_path, capsys, cfg):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert not out.exists()


def test_bloch_reciprocal_weight_family_refused(tmp_path, capsys):
    blocks = {"weight": {"family": "bloch_reciprocal", "inner": {"family": "power", "alpha": 1.0}},
              "A": 2.0, "n": [1, 2, 4]}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(dict(_EXP, scheme={"name": "hadamard", "blocks": blocks})))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert "bloch_reciprocal" in diag["detail"]
    assert not out.exists()


def test_threads_config_key_unknown(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(dict(_EXP, threads=2)))
    code, diag = _diagnostic(capsys, "growth", "--config", str(path),
                             "--out", str(tmp_path / "g"))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert "unknown ['threads']" in diag["detail"]
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("sub, cfg", [
    ("growth", dict(_EXP, model={"kind": "steinhaus"}, flavor="analytic")),
    ("analytic", _EXP),                                          # flavor defaults to real
    ("analytic", dict(_EXP, flavor="real_harmonic")),
])
def test_config_flavor_must_match_subcommand(tmp_path, capsys, sub, cfg):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, sub, "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert "flavor" in diag["detail"]
    assert not out.exists()


@pytest.mark.parametrize("scheme", [{"name": "loglog"}, {"name": "uniform"}])
def test_config_scheme_missing_field(tmp_path, capsys, scheme):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(dict(_EXP, scheme=scheme)))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert "lacks" in diag["detail"]
    assert not out.exists()


@pytest.mark.parametrize("scheme", [
    {"name": "loglog", "k_max": "x"},
    {"name": "loglog", "k_max": 2.5},
    {"name": "random"},                   # random schemes are not rebuilt from provenance
    {"name": "saturating", "blocks": {}, "nu": "sqrt"},
])
def test_config_scheme_malformed_rejected_before_manifest(tmp_path, capsys, scheme):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(dict(_EXP, scheme=scheme)))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert ("unknown scheme" if scheme["name"] == "random" else "malformed") in diag["detail"]
    assert not out.exists()


_SAT = ["--scheme", "saturating", "--weight", "power:1", "--nu", "sqrt"]

# subcommand run -> {csv file: header}; renaming a row field must show up here
_CSV_HEADERS = [
    (["weights", "--k-max", "4"], {"blocks.csv": "k,n_k,g_nk"}),
    (["scheme", *_SAT, "--k-max", "4"], {"scheme.csv": "j,a_j0,a_j1"}),
    (["check", *_SAT, "--k-max", "4"], {"score.csv": "n,ratio"}),
    (["census", "--scheme", "rudin_shapiro", "--weight", "power:1", "--k-max", "4"],
     {"census.csv": "n,N_n,fraction,threshold_at_n", "liminf.csv": "j,value,running_min"}),
    (["growth", "--scheme", "loglog", "--k-max", "2", "--trials", "2"],
     {"quantiles.csv": "r,n_of_r,lower_q10,lower_med,lower_q90,upper_q10,upper_med,upper_q90",
      "candidates.csv": "candidate,r,ratio"}),
    (["probe-sz", *_SAT, "--k-max", "4", "--trials", "4", "--n-list", "4"],
     {"sz.csv": "n_index,n,big_r,t4_ratio,q05,q50,q95"}),
    (["probe-riesz", "--n-terms", "2"], {"riesz.csv": "n_terms,offset,pattern,ratio"}),
    (["cap", "--degrees", "2", "--combos", "1"],
     {"cap.csv": "degree,alpha,fraction,grid_K,c_implied"}),
    (["bloch", "--scheme", "hadamard", "--weight", "power:1", "--k-max", "4"],
     {"bloch_targets.csv": "k,n_k,block_l2,target,rhs,ratio"}),
]


def test_csv_headers_pinned(tmp_path, capsys):
    for argv, headers in _CSV_HEADERS:
        out = tmp_path / argv[0]
        code, _, _ = run_cli(capsys, *argv, "--out", str(out))
        assert code == 0, argv
        for name, header in headers.items():
            lines = (out / name).read_text().splitlines()
            assert next(l for l in lines if not l.startswith("#")) == header, name


@pytest.mark.parametrize("oversample", ["nan", "inf", "2", "64"])
def test_probe_riesz_oversample_checked(tmp_path, capsys, oversample):
    # the Riesz grid is fixed at mclab.RIESZ_OVERSAMPLE: any --oversample, 64 too, is refused
    out = tmp_path / "r"
    code, diag = _diagnostic(capsys, "probe-riesz", "--signed", "--n-terms", "4",
                             "--oversample", oversample, "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert not out.exists()


def test_probe_riesz_grid_limit_exit_2(tmp_path, capsys, monkeypatch):
    from growthlab import disk
    # {4, 16} has period 4, so its grid is that of degree 4: 64 pi 4 -> M = 1024; {5, 17}
    # has none, and degree 17 needs 4096
    monkeypatch.setattr(disk, "MAX_GRID", 1024)
    code, _, _ = run_cli(capsys, "probe-riesz", "--n-terms", "2", "--out", str(tmp_path / "ok"))
    assert code == 0
    code, diag = _diagnostic(capsys, "probe-riesz", "--n-terms", "2", "--offsets", "1",
                             "--out", str(tmp_path / "big"))
    assert (code, diag["error"], diag["pointer"]) == (2, "BUDGET_EXCEEDED", "/offsets")
    assert not (tmp_path / "big").exists()


def test_probe_riesz_grid_sized_by_common_period(tmp_path, capsys):
    # the 8-term comb at offset 20004 has period gcd(20008, 12) = 4: 64 pi 85540 / 4 -> 2^23
    # angles, within MAX_GRID; at 20005 it has none, and 64 pi 85541 needs 2^25
    code, _, _ = run_cli(capsys, "probe-riesz", "--n-terms", "8", "--offsets", "20004",
                         "--out", str(tmp_path / "ok"))
    assert code == 0
    assert len((tmp_path / "ok" / "riesz.csv").read_text().splitlines()) == 3   # one row
    out = tmp_path / "none"
    code, diag = _diagnostic(capsys, "probe-riesz", "--n-terms", "8", "--offsets", "20005",
                             "--out", str(out))
    assert (code, diag["error"], diag["pointer"]) == (2, "BUDGET_EXCEEDED", "/offsets")
    assert not out.exists()


@pytest.mark.parametrize("argv, code, pointer", [
    (["--offsets", "0,10000000"], "BUDGET_EXCEEDED", "/offsets"),
    (["--offsets", "-5"], "DOMAIN", "/offsets"),
    (["--n-terms", "2,9"], "DOMAIN", "/n_terms"),
])
def test_probe_riesz_checked_before_manifest(tmp_path, capsys, argv, code, pointer):
    out = tmp_path / "r"
    got, diag = _diagnostic(capsys, "probe-riesz", *argv, "--out", str(out))
    assert (got, diag["error"], diag["pointer"]) == (2, code, pointer)
    assert not out.exists()


@pytest.mark.parametrize("offsets, code", [("-10", "DOMAIN"), ("10000000", "BUDGET_EXCEEDED")])
def test_riesz_script_prints_the_diagnostic(capsys, offsets, code):
    # the retired estimate_riesz_constant.py run is probe-riesz --signed
    got, out, err = run_cli(capsys, "probe-riesz", "--signed", "--n-terms", "2",
                            "--offsets", offsets)
    assert (got, out) == (2, "")
    assert json.loads(err.strip().splitlines()[-1])["error"] == code


@pytest.mark.parametrize("argv, code", [
    (["--ratio-A", "inf"], "OVERFLOW"),
    (["--log-base", "nan"], "CONFIG_INVALID"),
    (["--alpha", "inf"], "NON_POSITIVE_EXPONENT"),
])
def test_weights_non_finite_rejected(tmp_path, capsys, argv, code):
    out = tmp_path / "w"
    code_, diag = _diagnostic(capsys, "weights", *argv, "--out", str(out))
    assert (code_, diag["error"]) == (2, code)
    assert not out.exists()


def test_non_finite_flag_never_reaches_a_manifest(tmp_path, capsys):
    # cap's range check lets a NaN alpha through; strict JSON refuses it before the manifest
    out = tmp_path / "c"
    code, diag = _diagnostic(capsys, "cap", "--degrees", "2", "--combos", "1",
                             "--alpha", "nan", "--out", str(out))
    assert (code, diag["error"]) == (2, "NON_FINITE")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--audit-x-max", "10"], ["--require-doubling"]])
def test_weights_removed_flags_refused(tmp_path, capsys, flags):
    out = tmp_path / "w"
    code, diag = _diagnostic(capsys, "weights", *flags, "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert not out.exists()


@pytest.mark.parametrize("combos", ["0", "-2"])
def test_cap_without_combos_rejected_before_manifest(tmp_path, capsys, combos):
    out = tmp_path / "cap"
    code, diag = _diagnostic(capsys, "cap", "--degrees", "4", "--combos", combos,
                             "--out", str(out))
    assert (code, diag["error"], diag["pointer"]) == (2, "DOMAIN", "/combos")
    assert not out.exists()


@pytest.mark.parametrize("flags, code, pointer", [
    (["--alpha", "1.5"], "DOMAIN", "/alpha"),
    (["--alpha", "0"], "DOMAIN", "/alpha"),
    (["--degrees", "200"], "DEGREE_BUDGET", "/degrees"),
    (["--degrees", "4,-3"], "DOMAIN", "/degrees"),
    (["--degrees", "-3"], "DOMAIN", "/degrees"),
    (["--degrees", "4,0"], "DOMAIN", "/degrees"),       # c/n^2 is not defined at n = 0
])
def test_cap_bad_alpha_or_degrees_rejected_before_manifest(tmp_path, capsys, flags, code,
                                                           pointer):
    out = tmp_path / "cap"
    exit_code, diag = _diagnostic(capsys, "cap", "--combos", "1", *flags, "--out", str(out))
    assert (exit_code, diag["error"], diag["pointer"]) == (2, code, pointer)
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_probe_sz_without_trials_rejected_before_manifest(tmp_path, capsys, trials):
    out = tmp_path / "sz"
    code, diag = _diagnostic(capsys, "probe-sz", *_SAT, "--k-max", "4", "--n-list", "4",
                             "--trials", trials, "--out", str(out))
    assert (code, diag["error"], diag["pointer"]) == (2, "DOMAIN", "/trials")
    assert not out.exists()


@pytest.mark.parametrize("flags, code, pointer", [
    (["--model", "foo"], "CONFIG_INVALID", "/model"),
    (["--n-list", "9"], "BLOCKS_TOO_SHORT", "/n_list"),
    (["--n-list", "4,0"], "BLOCKS_TOO_SHORT", "/n_list"),
    (["--n-list", "1"], "EMPTY_BLOCKS", "/n_list"),    # the scheme starts at j = 3
])
def test_probe_sz_bad_model_or_n_list_rejected_before_manifest(tmp_path, capsys, flags, code,
                                                               pointer):
    out = tmp_path / "sz"
    exit_code, diag = _diagnostic(capsys, "probe-sz", *_SAT, "--k-max", "6", "--trials", "2",
                                  *flags, "--out", str(out))
    assert (exit_code, diag["error"], diag["pointer"]) == (2, code, pointer)
    assert not out.exists()


@pytest.mark.parametrize("sub", ["census", "check"])
@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_empty_n_max_is_empty_range(tmp_path, capsys, sub, n_max):
    out = tmp_path / sub
    code, diag = _diagnostic(capsys, sub, "--scheme", "loglog", "--k-max", "2",
                             "--n-max", n_max, "--out", str(out))
    assert (code, diag["error"]) == (2, "EMPTY_RANGE")
    assert not out.exists()


# scheme -> the scheme flags it reads; check reads --weight besides
_SCHEME_READS = {
    "loglog": {"--k-max"},
    "uniform": {"--weight", "--ratio-A", "--n0", "--k-max", "--rule"},
    "saturating": {"--weight", "--ratio-A", "--n0", "--k-max", "--nu"},
    "riesz_lacunary": {"--weight", "--ratio-A", "--n0", "--k-max", "--nu"},
    "rudin_shapiro": {"--weight", "--ratio-A", "--n0", "--k-max"},
    "hadamard": {"--weight", "--ratio-A", "--n0", "--k-max"},
}
_SCHEME_FLAG_VALUES = {"--weight": "power:1", "--ratio-A": "4", "--n0": "1", "--k-max": "2",
                       "--rule": "g_over_n", "--nu": "sqrt"}


def test_scheme_reads_table_covers_registry():
    assert set(_SCHEME_READS) == set(schemes.SCHEMES)


@pytest.mark.parametrize("sub", ["growth", "check"])
@pytest.mark.parametrize("scheme", sorted(_SCHEME_READS))
@pytest.mark.parametrize("flag", sorted(_SCHEME_FLAG_VALUES))
def test_scheme_flag_read_or_refused(tmp_path, capsys, sub, scheme, flag):
    base = [sub, "--scheme", scheme, "--k-max", "2"]
    if scheme == "riesz_lacunary":           # its combs need n_k >= 4 n_(k-1)
        base += ["--ratio-A", "4"]
    if sub == "growth":
        base += ["--trials", "2"]
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, *base, flag, _SCHEME_FLAG_VALUES[flag], "--out", str(out))
    if flag in _SCHEME_READS[scheme] or (sub == "check" and flag == "--weight"):
        assert code == 0, err
        assert json.loads((out / "manifest.json").read_text())["status"] == "complete"
    else:
        diag = json.loads(err.strip().splitlines()[-1])
        assert (code, diag["error"]) == (2, "CONFIG_INVALID")
        assert diag["pointer"] == "/" + flag[2:].replace("-", "_")
        assert flag in diag["detail"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["weights", "--k-max", "2"],
    ["scheme", "--scheme", "loglog", "--k-max", "2"],
    ["check", "--scheme", "loglog", "--k-max", "2"],
    ["census", "--scheme", "loglog", "--k-max", "2"],
    ["bloch", "--scheme", "hadamard", "--k-max", "2"],
    ["probe-riesz", "--n-terms", "2"],
], ids=lambda argv: argv[0])
def test_seedless_subcommands_refuse_seed(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run_cli(capsys, *argv, "--out", str(out))[0] == 0     # runs without the flag
    out = tmp_path / "seeded"
    code, diag = _diagnostic(capsys, *argv, "--seed", "5", "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert "--seed" in diag["detail"]
    assert not out.exists()


def test_manifest_and_csv_record_seed_only_where_drawn(tmp_path, capsys):
    for argv, seed in ([["census", "--scheme", "rudin_shapiro", "--k-max", "4"], None],
                       [["probe-riesz", "--n-terms", "2"], None],
                       [["bloch", "--scheme", "hadamard", "--k-max", "4"], None],
                       [["cap", "--degrees", "2", "--combos", "1", "--seed", "9"], 9],
                       [["growth", "--scheme", "loglog", "--k-max", "2", "--trials", "2",
                         "--seed", "9"], 9]):
        out = tmp_path / argv[0]
        assert run_cli(capsys, *argv, "--out", str(out))[0] == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed
        for csv in out.glob("*.csv"):
            notes = [l for l in csv.read_text().splitlines() if l.startswith("# ")]
            assert ("# seed: 9" in notes) == (seed is not None), csv
            assert any(l.startswith("# config_hash: ") for l in notes), csv


def test_weights_power_refuses_log_base(tmp_path, capsys):
    out = tmp_path / "w"
    code, diag = _diagnostic(capsys, "weights", "--family", "power", "--log-base", "3",
                             "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert not out.exists()
    assert run_cli(capsys, "weights", "--family", "logpower", "--log-base", "3",
                   "--k-max", "3", "--out", str(out))[0] == 0


# -- one process, many runs: each subcommand's parser is built once and shared --

def test_defaults_do_not_carry_between_runs(tmp_path, capsys):
    assert run_cli(capsys, "weights", "--k-max", "3", "--out", str(tmp_path / "a"))[0] == 0
    assert run_cli(capsys, "weights", "--out", str(tmp_path / "b"))[0] == 0
    assert len(_block_rows(tmp_path / "a")) == 4
    assert len(_block_rows(tmp_path / "b")) == 11         # the default --k-max of 10


def test_config_still_replaces_flags_after_a_flag_run(tmp_path, capsys):
    # the flag run sets --trials 3, so a parser that kept it as the default would
    # no longer see --trials 3 as given beside --config
    assert run_cli(capsys, "growth", "--scheme", "loglog", "--k-max", "2", "--trials", "3",
                   "--radii", "0.5", "--out", str(tmp_path / "flags"))[0] == 0
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"scheme": {"name": "loglog", "k_max": 2},
                                "model": {"kind": "rademacher"}, "seed": 5, "trials": 2,
                                "radii": [0.5]}))
    out = tmp_path / "refused"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--trials", "3",
                             "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert diag["detail"].endswith("also given: --trials")
    assert not out.exists()
    out = tmp_path / "config"
    assert run_cli(capsys, "growth", "--config", str(path), "--out", str(out))[0] == 0
    assert json.loads((out / "report.json").read_text())["config"]["trials"] == 2


def test_run_config_redispatches_after_other_runs(tmp_path, capsys):
    assert run_cli(capsys, "weights", "--k-max", "2", "--out", str(tmp_path / "w"))[0] == 0
    for name, argv, rows in (("short", ["--k-max", "3"], 4), ("default", [], 11)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"subcommand": "weights", "argv": argv}))
        out = tmp_path / name
        assert run_cli(capsys, "run", "--config", str(path), "--out", str(out))[0] == 0
        assert json.loads((out / "manifest.json").read_text())["subcommand"] == "weights"
        assert len(_block_rows(out)) == rows


def test_weight_spec_trailing_fields_rejected_before_manifest(tmp_path, capsys):
    out = tmp_path / "c"
    code, diag = _diagnostic(capsys, "check", "--scheme", "saturating", "--weight",
                             "logpower:1:2:junk", "--nu", "sqrt", "--k-max", "4",
                             "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert "logpower:1:2:junk" in diag["detail"]
    assert not out.exists()
