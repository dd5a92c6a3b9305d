import csv
import json
import math
import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from newswarn.artifacts import write_csv, write_json


def read_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(st.floats(), min_size=1, max_size=8), as_numpy=st.booleans())
@example(values=[5e-324, -5e-324, 2.2250738585072009e-308], as_numpy=False)
@example(values=[5e-324, -5e-324, 2.2250738585072009e-308], as_numpy=True)
@example(values=[0.0, -0.0, 1.7976931348623157e308, -1e300], as_numpy=False)
@example(values=[0.0, -0.0, 1.7976931348623157e308, -1e300], as_numpy=True)
@example(values=[math.nan, math.inf, -math.inf, 0.1], as_numpy=False)
@example(values=[math.nan, math.inf, -math.inf, 0.1], as_numpy=True)
def test_floats_read_back_bit_for_bit(tmp_path, values, as_numpy):
    cells = [np.float64(v) if as_numpy else v for v in values]
    path = tmp_path / "t.csv"
    write_csv(path, [f"c{i}" for i in range(len(cells))], [cells])
    header, row = read_rows(path)
    assert header == [f"c{i}" for i in range(len(cells))]
    for v, text in zip(values, row):
        assert text == repr(v)
        back = float(text)
        assert math.isnan(back) if math.isnan(v) else bits(back) == bits(v)


def test_ints_and_strings_are_written_unchanged(tmp_path):
    row = [0, -7, 2**70, np.int64(12), "plain", "a,b", 'say "hi"', "", "naïve"]
    path = tmp_path / "t.csv"
    write_csv(path, ["h"] * len(row), [row, ("x", 1)])
    assert read_rows(path)[1:] == [[str(c) for c in row], ["x", "1"]]


def test_json_is_sorted_indented_and_ends_with_a_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": [1, 0.5], "a": {"z": None, "y": "s"}})
    text = path.read_text(encoding="utf-8")
    assert text == '{\n "a": {\n  "y": "s",\n  "z": null\n },\n "b": [\n  1,\n  0.5\n ]\n}\n'
    assert json.loads(text) == {"b": [1, 0.5], "a": {"z": None, "y": "s"}}
