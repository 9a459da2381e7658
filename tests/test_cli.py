import json
import os

import pytest

from growthlab import schemes
from growthlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_blocks_csv(tmp_path, capsys):
    out = tmp_path / "w"
    code, _, err = run_cli(capsys, "weights", "--family", "power", "--alpha", "1",
                           "--ratio-A", "2", "--n0", "1", "--k-max", "10",
                           "--out", str(out))
    assert code == 0 and err == ""
    lines = [l for l in (out / "blocks.csv").read_text().splitlines()
             if l and not l.startswith("#") and not l.startswith("k,")]
    ns = [int(l.split(",")[1]) for l in lines]
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
    assert any("seed" in c for c in comments)
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


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    args = ["growth", "--scheme", "loglog", "--k-max", "2", "--trials", "4",
            "--radii", "0.5,0.9"]
    monkeypatch.setenv("GROWTHLAB_THREADS", "3")
    assert run_cli(capsys, *args, "--out", str(tmp_path / "env3"))[0] == 0
    monkeypatch.setenv("GROWTHLAB_THREADS", "abc")
    code, diag = _diagnostic(capsys, *args, "--out", str(tmp_path / "abc"))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert not (tmp_path / "abc").exists()
    monkeypatch.delenv("GROWTHLAB_THREADS")
    assert run_cli(capsys, *args, "--threads", "1", "--out", str(tmp_path / "t1"))[0] == 0
    for name in ("quantiles.csv", "candidates.csv"):
        assert (tmp_path / "env3" / name).read_bytes() == (tmp_path / "t1" / name).read_bytes()
    r3, r1 = (json.loads((tmp_path / d / "report.json").read_text()) for d in ("env3", "t1"))
    r3.pop("wall_time"), r1.pop("wall_time")
    assert r3 == r1
    assert "threads" not in r3["config"]


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
    (["growth", "--threads", "0"], "CONFIG_INVALID"),
    (["analytic", "--threads", "-1"], "CONFIG_INVALID"),
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
    dict(_EXP, threads=0),
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
])
def test_malformed_config_file_rejected_before_manifest(tmp_path, capsys, cfg):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert not out.exists()


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
    {"name": "random"},
    {"name": "saturating", "blocks": {}, "nu": "sqrt"},
])
def test_config_scheme_malformed_rejected_before_manifest(tmp_path, capsys, scheme):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(dict(_EXP, scheme=scheme)))
    out = tmp_path / "g"
    code, diag = _diagnostic(capsys, "growth", "--config", str(path), "--out", str(out))
    assert (code, diag["error"]) == (2, "CONFIG_INVALID")
    assert "malformed" in diag["detail"]
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


@pytest.mark.parametrize("oversample", ["nan", "inf", "2"])
def test_probe_riesz_oversample_checked(tmp_path, capsys, oversample):
    out = tmp_path / "r"
    code, diag = _diagnostic(capsys, "probe-riesz", "--signed", "--n-terms", "4",
                             "--oversample", oversample, "--out", str(out))
    assert (code, diag["error"]) == (2, "DOMAIN")
    assert not out.exists()


def test_probe_riesz_grid_limit_exit_2(tmp_path, capsys, monkeypatch):
    from growthlab import disk
    monkeypatch.setattr(disk, "MAX_GRID", 1024)   # degree 16: 16 pi 16 -> M = 1024
    code, _, _ = run_cli(capsys, "probe-riesz", "--n-terms", "2", "--oversample", "16",
                         "--out", str(tmp_path / "ok"))
    assert code == 0
    code, diag = _diagnostic(capsys, "probe-riesz", "--n-terms", "2", "--oversample", "32",
                             "--out", str(tmp_path / "big"))
    assert (code, diag["error"]) == (2, "BUDGET_EXCEEDED")
    man = json.loads((tmp_path / "big" / "manifest.json").read_text())
    assert (man["status"], man["error"]) == ("failed", "BUDGET_EXCEEDED")


@pytest.mark.parametrize("argv, code", [
    (["--audit-x-max", "inf"], "DOMAIN"),
    (["--audit-x-max", "nan"], "DOMAIN"),
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


def test_weights_manifest_records_audit_flags(tmp_path, capsys):
    base = ["weights", "--family", "logpower", "--k-max", "3"]
    mans = {}
    for name, extra in [("a", ["--audit-x-max", "10"]), ("b", ["--audit-x-max", "1e9"]),
                        ("c", ["--audit-x-max", "10", "--require-doubling"])]:
        code, _, _ = run_cli(capsys, *base, *extra, "--out", str(tmp_path / name))
        assert code == 0
        mans[name] = json.loads((tmp_path / name / "manifest.json").read_text())
    assert mans["a"]["config"]["audit_x_max"] == 10.0
    assert mans["c"]["config"]["require_doubling"] is True
    assert len({m["config_hash"] for m in mans.values()}) == 3
    d_hat = {n: json.loads((tmp_path / n / "audit.json").read_text())["d_hat"] for n in "ab"}
    assert d_hat["a"] != d_hat["b"]


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


@pytest.mark.parametrize("sub", ["census", "check"])
@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_empty_n_max_is_empty_range(tmp_path, capsys, sub, n_max):
    out = tmp_path / sub
    code, diag = _diagnostic(capsys, sub, "--scheme", "loglog", "--k-max", "2",
                             "--n-max", n_max, "--out", str(out))
    assert (code, diag["error"]) == (2, "EMPTY_RANGE")
    assert not out.exists()
