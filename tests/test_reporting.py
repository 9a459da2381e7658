import json

import pytest

from growthlab import GrowthLabError
from growthlab.reporting import canonical_json, write_json


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
