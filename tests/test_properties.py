"""The verify catalogue: sharing inputs within a run, and vacuous passes."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from dpkit import properties
from dpkit.fem import DiscreteFunction
from dpkit.properties import property_names, run_properties


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_results_do_not_depend_on_sharing(seed):
    full = run_properties(seed)
    alone = [run_properties(seed, names=[name])[0] for name in property_names()]
    assert full == alone
    assert run_properties(seed) == full


def test_a_run_keeps_no_input_after_it_returns(monkeypatch):
    seen = []

    def probe(run):
        u = run.functions(6)[0]
        assert not u.values.flags.writeable and not u.gradients.flags.writeable
        seen.append([weakref.ref(x) for x in (run, *run.meshes(), u, run.phases(1)[0][1])])
        return True, "probe"

    monkeypatch.setattr(properties, "_PROPERTIES", [*properties._PROPERTIES, ("probe", probe)])
    for _ in range(2):
        run_properties(0, names=["modular-unit-ball", "solver-zero-boundary", "probe"])
        gc.collect()
        assert all(ref() is None for ref in seen[-1])
    assert len(seen) == 2  # the second run built its inputs again


def _only(name):
    (result,) = run_properties(0, names=[name])
    return result


def test_critical_exponent_fails_when_no_phase_satisfies_H(monkeypatch):
    monkeypatch.setattr(properties, "check_condition_H", lambda *a: SimpleNamespace(passed=False))
    result = _only("fields-critical-exponent-dominates-q")
    assert not result.passed
    assert result.detail == "no phase satisfies condition H: nothing checked"


def test_jacobian_psd_fails_when_every_phase_is_skipped(monkeypatch):
    monkeypatch.setattr(properties, "field_bounds", lambda field, mesh: (1.5, 3.0))
    result = _only("operator-jacobian-symmetric-psd")
    assert not result.passed
    assert result.detail == "no phase has p- >= 2: nothing checked"


def test_strict_monotonicity_fails_when_every_pair_is_identical(monkeypatch):
    def same(mesh, rng):
        return DiscreteFunction(mesh, np.zeros(mesh.num_nodes))

    monkeypatch.setattr(properties, "random_smooth_function", same)
    result = _only("operator-strict-monotonicity")
    assert not result.passed
    assert result.detail == "every pair was identical: nothing checked"
