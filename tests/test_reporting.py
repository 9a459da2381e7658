import json
from dataclasses import dataclass

import numpy as np
import pytest

from growthlab import GrowthLabError
from growthlab.reporting import canonical_json, format_csv, record_json, write_csv, write_json


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_output_refuses_non_finite(tmp_path, value):
    with pytest.raises(GrowthLabError) as ei:
        canonical_json({"x": [1.0, value]})
    assert ei.value.code == "NON_FINITE"
    path = tmp_path / "out" / "r.json"
    with pytest.raises(GrowthLabError) as ei:
        write_json(path, {"a": 1, "x": value})
    assert ei.value.code == "NON_FINITE"
    assert not path.exists()


def test_write_json_finite_round_trip(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": [0.1, 2], "a": {"c": None}})
    assert path.read_text() == '{\n  "a": {\n    "c": null\n  },\n  "b": [\n    0.1,\n    2\n  ]\n}\n'
    assert json.loads(path.read_text()) == {"a": {"c": None}, "b": [0.1, 2]}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_csv_output_refuses_non_finite(tmp_path, value):
    rows = [(1, 0.5), (2, value)]
    with pytest.raises(GrowthLabError) as ei:
        format_csv(["n", "x"], rows)
    assert ei.value.code == "NON_FINITE"
    path = tmp_path / "out" / "r.csv"
    with pytest.raises(GrowthLabError) as ei:
        write_csv(path, ["n", "x"], rows)
    assert ei.value.code == "NON_FINITE"
    assert not path.exists()


def test_write_csv_finite_bytes(tmp_path):
    path = tmp_path / "r.csv"
    write_csv(path, ["n", "x"], [(1, 0.1), (2, np.float64(2.5))], comments=["c"])
    assert path.read_text() == "# c\nn,x\n1,0.1\n2,2.5\n"


@dataclass(frozen=True)
class _Row:
    n: int
    x: float


@dataclass(frozen=True)
class _Report:
    name: str
    rows: tuple
    pair: tuple


def test_record_json_nests_records():
    rep = _Report("r", (_Row(1, 0.5), _Row(2, 1.5)), (1, 2))
    assert record_json(rep) == {"name": "r", "rows": [{"n": 1, "x": 0.5}, {"n": 2, "x": 1.5}],
                                "pair": [1, 2]}
