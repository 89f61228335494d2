"""Deterministic JSON reports with full-precision floats."""

import json

import numpy as np
import pytest

from dpkit import report
from dpkit.cli import main
from dpkit.report import dumps_report, format_float, write_report

import replay
import report_reference


def test_floats_carry_17_significant_digits():
    x = 0.1 + 0.2
    assert format_float(x) == "0.30000000000000004"
    assert float(format_float(np.pi)) == np.pi


def test_nonfinite_floats_become_strings():
    assert format_float(np.inf) == '"inf"'
    assert format_float(-np.inf) == '"-inf"'
    assert format_float(np.nan) == '"nan"'


def test_keys_sorted_and_stable():
    a = dumps_report({"b": 1, "a": 2, "c": {"z": 0, "y": 1}}, timestamp=False)
    b = dumps_report({"c": {"y": 1, "z": 0}, "a": 2, "b": 1}, timestamp=False)
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_output_parses_as_json():
    data = {
        "name": "run",
        "values": [1.5, 2, True, None, "text"],
        "nested": {"flag": False, "arr": np.array([1.0, 2.0])},
        "count": np.int64(5),
        "x": np.float64(0.25),
    }
    parsed = json.loads(dumps_report(data, timestamp=False))
    assert parsed["nested"]["arr"] == [1.0, 2.0]
    assert parsed["count"] == 5
    assert parsed["values"][2] is True and parsed["values"][3] is None


def test_timestamp_toggle():
    with_ts = json.loads(dumps_report({"a": 1}))
    without = json.loads(dumps_report({"a": 1}, timestamp=False))
    assert "generated_at" in with_ts
    assert "generated_at" not in without


def test_identical_bytes_without_timestamp():
    data = {"pi": np.pi, "list": [1, 2, 3]}
    assert dumps_report(data, timestamp=False) == dumps_report(data, timestamp=False)


def test_rejects_non_string_keys():
    with pytest.raises(TypeError):
        dumps_report({1: "x"}, timestamp=False)


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_report({"x": object()}, timestamp=False)


def test_write_report_creates_directories(tmp_path):
    path = write_report(tmp_path / "deep" / "dir" / "report.json", {"ok": True})
    assert path.exists()
    assert json.loads(path.read_text())["ok"] is True


@pytest.mark.parametrize(
    "text",
    [
        'say "hi"',
        "back\\slash \\u0041",
        "naïve ε ∞ 日本",
        "line\u2028para\u2029",
        "\x00\x1b\x1f\x7f",
        "",
    ],
)
def test_strings_match_the_old_writer(text):
    data = {text: [text, {"k": text}]}
    assert dumps_report(data, timestamp=False) == report_reference.dumps_report(data)


def test_five_control_characters_take_short_escapes():
    data = {"s": "a\bb\tc\nd\fe\rf\x0b"}
    old = report_reference.dumps_report(data)
    for code, short in ((8, "b"), (9, "t"), (10, "n"), (12, "f"), (13, "r")):
        old = old.replace(f"\\u{code:04x}", f"\\{short}")
    assert dumps_report(data, timestamp=False) == old
    assert json.loads(old)["s"] == data["s"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ci_replayed_reports_match_the_old_writer(tmp_path, monkeypatch):
    written = []
    dumps = report.dumps_report

    def recording(data, timestamp=True):
        written.append(data)
        return dumps(data, timestamp)

    monkeypatch.setattr(report, "dumps_report", recording)
    for run in replay.RUNS:
        n = len(written)
        assert main(replay.prepare(run, tmp_path)) == run["exit"], run["name"]
        # a run that ends in a verdict writes exactly its own report
        reports = run["exit"] in (0, 1) and "--list" not in run.get("args", [])
        assert [data["command"] for data in written[n:]] == [run["command"]] * reports, run["name"]
        assert (tmp_path / run["name"] / "report.json").exists() == reports, run["name"]
    for data in written:
        assert dumps(data, timestamp=False) == report_reference.dumps_report(data)
