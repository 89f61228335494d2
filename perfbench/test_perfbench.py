"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_dpkit()

import dpkit  # noqa: E402
import dpkit.cli  # noqa: E402
import dpkit.fem  # noqa: E402
import dpkit.fields  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    path = HERE / "_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    first = list(itertools.islice(workloads.jobs(name, 7), 20))
    again = list(itertools.islice(workloads.jobs(name, 7), 20))
    other = list(itertools.islice(workloads.jobs(name, 8), 20))
    assert first == again
    assert first != other
    for job in first:
        for key, spec in workloads.RANGES[name].items():
            if isinstance(spec, tuple):
                assert spec[0] <= job[key] <= spec[1]
            else:
                assert job[key] in spec


def _snapshot():
    for layer in spans.LAYERS:  # the tracer imports them; import them first
        importlib.import_module(f"dpkit.{layer}")
    owners = [m for n, m in sorted(sys.modules.items()) if n == "dpkit" or n.startswith("dpkit.")]
    owners += [dpkit.fields.DoublePhase, dpkit.fem.Mesh, dpkit.fem.DiscreteFunction]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_restore_originals():
    before = _snapshot()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="inside a job"):
        with tracer.installed(0):
            assert dpkit.solve.luxemburg_norm is not before[(id(dpkit.solve), "luxemburg_norm")]
            assert dpkit.solve.spla.spsolve is not sys.modules["scipy.sparse.linalg"].spsolve
            raise RuntimeError("inside a job")
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert dpkit.solve.spla is sys.modules["scipy.sparse.linalg"]


@pytest.mark.parametrize("name", ["verify-catalogue", "cli-convection-2d"])
def test_traced_job_output_equals_untraced(name, workdir):
    workload = workloads.WORKLOADS[name]()
    workload.setup(workdir)
    job = next(workloads.jobs(name, 3))
    tracer = spans.Tracer()
    plain = run.execute(workload, job, "plain")
    traced = run.execute(workload, job, "traced", tracer, 0)
    assert plain.failures == [] and traced.failures == []
    assert plain.artifact and traced.artifact == plain.artifact
    assert traced.layers["cli.self_s"] > 0.0
    assert tracer.spans and all(rec[spans.END] >= rec[spans.START] for rec in tracer.spans)


def test_thread_cap_matches_the_cli():
    assert run.THREAD_VARS == dpkit.cli._THREAD_VARS


def test_declared_metrics_match_the_code():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.E2E_METRICS
    assert declared_layers == spans.LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-catalogue",
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1])


def test_fails_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "newton-2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
