"""Deterministic JSON reports with full-precision floats."""

import json

import numpy as np
import pytest

from dpkit import report
from dpkit.cli import main
from dpkit.report import dumps_report, format_float, write_report

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


# the CLI runs that CI replays byte for byte, with the same configs
_VARIABLE = {
    "p": {"kind": "affine", "a": [0.4, 0.0], "b": 1.8},
    "q": {"kind": "affine", "a": [0.0, 0.4], "b": 2.6},
    "mu": {"kind": "expr", "expr": "0.2 + 0.8*x*y"},
}
_CONVECTION = {
    "mesh": {"kind": "rect", "nx": 16, "ny": 16},
    "fields": {
        "p": 2.0,
        "q": {"kind": "affine", "a": [0.4, 0.0], "b": 2.6},
        "mu": {"kind": "expr", "expr": "0.2 + 0.8*x*y"},
    },
    "problem": {
        "kind": "term", "expr": "1 + 0.5*sin(pi*x)*sin(pi*y) + 0.2*xi1", "r": 2.0,
        "a1": 0.2, "a2": 0.0, "alpha": 1.5, "b1": 0.1, "b2": 0.35, "omega": 2.25,
    },
}
_RHS = {"kind": "rhs", "expr": "1 + sin(pi*x)*sin(2*pi*y)"}
_CI_REPLAYS = [
    ("solve", {"mesh": {"kind": "rect", "nx": 16, "ny": 16},
               "problem": {"kind": "builtin", "name": "poisson-2d"}}, []),
    ("verify", {"mesh": {"kind": "interval", "n": 64},
                "problem": {"kind": "builtin", "name": "dp-1d"}}, ["--seed", "1"]),
    ("solve", _CONVECTION, []),
    ("norm", _CONVECTION, ["--input", "{out}/2/solution.csv", "--which", "sobolev"]),
    ("solve", {"mesh": {"kind": "rect", "nx": 32, "ny": 32}, "fields": _VARIABLE,
               "problem": _RHS}, []),
    ("solve", {"mesh": {"kind": "rect", "nx": 64, "ny": 64}, "fields": _VARIABLE,
               "problem": _RHS}, []),
    ("solve", {"mesh": {"kind": "rect", "nx": 16, "ny": 16},
               "fields": {"p": 4.0, "q": 6.0, "mu": 1.0},
               "problem": {"kind": "rhs", "expr": "1"}}, []),
    ("convergence", {"mesh": {"kind": "rect", "nx": 16, "ny": 16}},
     ["--case", "poisson-2d", "--meshes", "16,32,64,128"]),
    ("validate", {"mesh": {"kind": "rect", "nx": 32, "ny": 32},
                  "fields": {"p": {"kind": "affine", "a": [0.2, 0.0], "b": 1.6},
                             "q": {"kind": "affine", "a": [0.0, 0.2], "b": 2.0},
                             "mu": {"kind": "expr", "expr": "0.2 + 0.8*x*y"}}}, []),
    ("eigen", {"mesh": {"kind": "rect", "nx": 16, "ny": 16}}, ["--r", "3"]),
]


def test_ci_replayed_reports_match_the_old_writer(tmp_path, monkeypatch):
    written = []
    dumps = report.dumps_report

    def recording(data, timestamp=True):
        written.append(data)
        return dumps(data, timestamp)

    monkeypatch.setattr(report, "dumps_report", recording)
    for k, (command, config, args) in enumerate(_CI_REPLAYS):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(dict(config, output_dir=str(k))))
        args = [a.format(out=tmp_path) for a in args]
        assert main([command, str(path), *args, "--no-timestamp"]) == 0
    assert [data["command"] for data in written] == [run[0] for run in _CI_REPLAYS]
    for data in written:
        assert dumps(data, timestamp=False) == report_reference.dumps_report(data)
