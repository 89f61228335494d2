"""Release acceptance checklist: thirteen end-to-end criteria, one test each.

Every test prints a single PASS/FAIL line with the measured quantity, so a
``pytest tests/test_acceptance.py -s`` run reads as a checklist.  The
tolerances and runtime budgets asserted here are the package's contract;
loosening them is a release decision, not a test fix.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from dpkit.cli import main as cli_main
from dpkit.eigen import first_eigenvalue
from dpkit.errors import PreconditionError
from dpkit.fem import DiscreteFunction, build_interval_mesh, build_rect_mesh
from dpkit.fields import (
    DoublePhase,
    ScalarField,
    check_A1_characterization,
    check_A1_sufficient,
    constant_phase,
)
from dpkit.modular import (
    check_norm_modular,
    luxemburg_norm,
    modular,
    reverse_holder_check,
)
from dpkit.operator import (
    apply_operator,
    energy,
    gradient_check,
    monotonicity_probe,
    simon_inequality,
)
from dpkit.problems import manufactured_case
from dpkit.properties import (
    gradient_check_pair,
    random_smooth_function,
    standard_phase_configs,
)
from dpkit.solve import verify_uniqueness, weak_residual


def _check(tag: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _meshes():
    return [
        build_interval_mesh(0.0, 1.0, 64),
        build_rect_mesh((0.0, 1.0), (0.0, 1.0), 16, 16),
    ]


@pytest.fixture(scope="module")
def ball_samples():
    """500 random nonzero functions spread over two meshes and five configs.

    Scales span 10^-3 .. 10^3 so the norm computation is exercised well away
    from the unit sphere on both sides.
    """
    meshes = _meshes()
    configs = {m.dim: standard_phase_configs(m.dim) for m in meshes}
    rng = np.random.default_rng(20260815)
    samples = []
    for i in range(500):
        mesh = meshes[i % 2]
        name, phase = configs[mesh.dim][(i // 2) % 5]
        u = random_smooth_function(mesh, rng) * float(10.0 ** rng.uniform(-3.0, 3.0))
        samples.append((name, phase, u))
    return samples


def test_c01_unit_ball_property(ball_samples):
    t0 = time.perf_counter()
    worst = 0.0
    for _, phase, u in ball_samples:
        lam = luxemburg_norm(u, phase, "value")
        assert lam > 0.0
        worst = max(worst, abs(modular(u * (1.0 / lam), phase, "value").total - 1.0))
    elapsed = time.perf_counter() - t0
    _check(
        "C01 unit-ball property",
        worst <= 1e-10 and elapsed <= 30.0,
        f"max |rho(u/||u||) - 1| = {worst:.3e} over 500 functions, {elapsed:.1f} s",
    )


def test_c02_norm_modular_relations(ball_samples):
    worst = np.inf
    worst_tag = ""
    for name, phase, u in ball_samples:
        for which in ("value", "sobolev"):
            rep = check_norm_modular(u, phase, which)
            for relation, slack in rep.slacks:
                if slack < worst:
                    worst, worst_tag = slack, f"{relation} [{name}/{which}]"
    _check(
        "C02 norm-modular relations",
        worst >= -1e-12,
        f"min slack {worst:.3e} ({worst_tag}) over 500 functions x 2 modulars",
    )


def test_c03_constant_function_norm_fixture():
    # Independent oracle: for u = 1 on a unit-measure domain with p = 2,
    # q = 3, mu = 1 the norm solves lambda^-2 + lambda^-3 = 1, i.e. the
    # real root of g(l) = l^3 - l - 1, bisected here from scratch.
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid**3 - mid - 1.0 > 0.0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    mesh = build_interval_mesh(0.0, 1.0, 64)
    u = DiscreteFunction(mesh, np.ones(mesh.num_nodes))
    lam = luxemburg_norm(u, constant_phase(2.0, 3.0, 1.0, dim=3), "value")
    err = abs(lam - 1.3247180)
    _check(
        "C03 constant-function norm fixture",
        err <= 1e-6 and abs(lam - oracle) <= 1e-9,
        f"||1|| = {lam:.9f}, bisection oracle {oracle:.9f}, |err| = {err:.2e}",
    )


def test_c04_strict_monotonicity():
    rng = np.random.default_rng(41)
    worst = np.inf
    count = 0
    for mesh in _meshes():
        for _, phase in standard_phase_configs(mesh.dim):
            for _ in range(100):
                u = random_smooth_function(mesh, rng)
                v = random_smooth_function(mesh, rng)
                assert not np.array_equal(u.values, v.values)
                worst = min(worst, monotonicity_probe(u, v, phase))
                count += 1
    _check(
        "C04 strict monotonicity",
        count == 1000 and worst > 0.0,
        f"min <A(u)-A(v), u-v> = {worst:.3e} over {count} pairs (incl. p = 1.5)",
    )


def test_c05_derivative_consistency():
    mesh = build_interval_mesh(0.0, 1.0, 32)
    rng = np.random.default_rng(5)
    pairs = [gradient_check_pair(mesh, rng) for _ in range(100)]

    phase = constant_phase(2.5, 3.5, 1.0, dim=3)
    lo, hi = np.inf, -np.inf
    for u, h in pairs:
        ratio = gradient_check(u, h, phase, eps=1e-4) / gradient_check(
            u, h, phase, eps=5e-5
        )
        lo, hi = min(lo, ratio), max(hi, ratio)

    # Quadratic case: the central difference is exact, so only rounding is
    # left; eps = 1e-2 keeps the 1/(2 eps) noise amplification at ~50x.
    quad = constant_phase(2.0, 2.0, 0.0, dim=3)
    eps = 1e-2
    worst_abs = 0.0
    for u, h in pairs:
        fd = (energy(u + eps * h, quad) - energy(u + (-eps) * h, quad)) / (2.0 * eps)
        worst_abs = max(worst_abs, abs(fd - apply_operator(u, h, quad)))

    _check(
        "C05 derivative consistency",
        3.5 <= lo and hi <= 4.5 and worst_abs <= 1e-12,
        f"error ratios in [{lo:.3f}, {hi:.3f}] over 100 pairs; "
        f"quadratic-case |fd - pairing| <= {worst_abs:.2e}",
    )


def test_c06_vector_inequality_sweep():
    rng = np.random.default_rng(6)
    xi = rng.uniform(-10.0, 10.0, size=(100_000, 2))
    eta = rng.uniform(-10.0, 10.0, size=(100_000, 2))
    t0 = time.perf_counter()
    failures = 0
    for p in (1.1, 1.5, 2.0, 2.5, 3.0, 4.0):
        res = simon_inequality(xi, eta, p, tol=1e-12)
        failures += int(np.sum(~res.passed))
    elapsed = time.perf_counter() - t0
    _check(
        "C06 vector inequalities",
        failures == 0 and elapsed <= 5.0,
        f"{failures} failures over 6 x 100000 pairs, {elapsed:.2f} s",
    )


def _positive_steps(mesh, rng) -> DiscreteFunction:
    """Random positive blockwise-constant nodal levels in [0.1, 10]."""
    n = mesh.num_nodes
    n_blocks = int(rng.integers(2, 9))
    edges = np.sort(rng.choice(np.arange(1, n), size=n_blocks - 1, replace=False))
    levels = rng.uniform(0.1, 10.0, size=n_blocks)
    vals = np.empty(n)
    start = 0
    for level, stop in zip(levels, [*edges.tolist(), n]):
        vals[start:stop] = level
        start = stop
    return DiscreteFunction(mesh, vals)


def test_c07_reverse_holder_sweep():
    mesh = build_interval_mesh(0.0, 1.0, 32)
    rng = np.random.default_rng(77)
    worst = np.inf
    for _ in range(1000):
        f = _positive_steps(mesh, rng)
        g = _positive_steps(mesh, rng)
        r0, r1 = rng.uniform(1.5, 3.0, size=2)
        r = ScalarField.affine([r1 - r0], r0)
        worst = min(worst, reverse_holder_check(f, g, r).slack)
    _check(
        "C07 reverse Hoelder",
        worst >= -1e-12,
        f"min slack {worst:.3e} over 1000 positive step-function pairs",
    )


def test_c08_eigenvalue_accuracy():
    t0 = time.perf_counter()
    lam1 = first_eigenvalue(build_interval_mesh(0.0, 1.0, 512), 2.0).value
    lam2 = first_eigenvalue(build_rect_mesh((0.0, 1.0), (0.0, 1.0), 64, 64), 2.0).value
    elapsed = time.perf_counter() - t0
    rel1 = abs(lam1 - np.pi**2) / np.pi**2
    rel2 = abs(lam2 - 2.0 * np.pi**2) / (2.0 * np.pi**2)
    _check(
        "C08 first eigenvalue",
        rel1 <= 0.005 and rel2 <= 0.01 and elapsed <= 60.0,
        f"interval n=512 off by {rel1:.2%}, square 64x64 off by {rel2:.2%}, "
        f"{elapsed:.1f} s",
    )


def test_c09_manufactured_convergence_rate():
    case = manufactured_case("poisson-1d")
    errors = [case.l2_error(case.solve(case.build_mesh(n)).u) for n in (32, 64, 128, 256)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    _check(
        "C09 manufactured convergence",
        all(3.5 <= r <= 4.5 for r in ratios),
        "L2 ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_c10_double_phase_solve():
    case = manufactured_case("dp-1d")
    rep = case.solve(case.build_mesh(256))
    recomputed = weak_residual(rep.u, case.term, case.phase)
    _check(
        "C10 double-phase solve",
        rep.converged and recomputed <= 1e-10 and (rep.coercivity or 0.0) > 0.0,
        f"recomputed weak residual {recomputed:.3e}, "
        f"coercivity margin {rep.coercivity:.4f}",
    )


def test_c11_uniqueness_multistart_and_precondition():
    case = manufactured_case("convection-linear")
    mesh = case.build_mesh(128)
    rep = verify_uniqueness(case.phase, mesh, case.term)
    with pytest.raises(PreconditionError):
        verify_uniqueness(case.phase, mesh, dataclasses.replace(case.term, c1=1e6))
    _check(
        "C11 uniqueness",
        rep.passed and rep.margin >= 0.3 and rep.max_disagreement <= 1e-8,
        f"margin {rep.margin:.4f}, {rep.solutions}-start disagreement "
        f"{rep.max_disagreement:.3e}; inflated c1 raised the precondition error",
    )


def _smooth_triples(seed: int, count: int):
    """Random Lipschitz (p, q, mu) nodal tables with q/p straddling 1 + 1/N."""
    rng = np.random.default_rng(seed)
    mesh = build_interval_mesh(0.0, 1.0, 32)
    x = mesh.nodes[:, 0]
    out = []
    for _ in range(count):
        p_vals = rng.uniform(1.4, 1.9) + rng.uniform(0.05, 0.3) * np.sin(
            rng.integers(1, 4) * np.pi * x + rng.uniform(0.0, np.pi)
        )
        ratio = 1.0 + rng.uniform(0.5, 1.5) / 3.0
        mu_vals = rng.uniform(0.1, 1.0) + rng.uniform(0.0, 0.5) * np.sin(
            rng.integers(1, 4) * np.pi * x + rng.uniform(0.0, np.pi)
        ) ** 2
        phase = DoublePhase(
            ScalarField.from_table(mesh, p_vals),
            ScalarField.from_table(mesh, ratio * p_vals),
            ScalarField.from_table(mesh, mu_vals),
            3,
        )
        out.append((mesh, phase))
    return out


def test_c12_validator_consistency():
    hits = 0
    for mesh, phase in _smooth_triples(12, 50):
        if check_A1_sufficient(phase, mesh, alpha=1.0).passed:
            hits += 1
            beta, _ = check_A1_characterization(phase, mesh)
            assert beta > 0.0, f"sufficient triple with beta_max = {beta}"
    _check(
        "C12 validator consistency",
        1 <= hits <= 50,
        f"{hits}/50 triples passed the sufficient test; every one had beta_max > 0",
    )


def test_c13_deterministic_verification_reports(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"mesh": {"kind": "interval", "n": 16}, "seed": 123}))
    payloads = []
    for run in ("first", "second"):
        outdir = tmp_path / run
        code = cli_main(
            ["verify", str(cfg), "--no-timestamp", "--output-dir", str(outdir)]
        )
        assert code == 0
        payloads.append((outdir / "report.json").read_bytes())
    _check(
        "C13 deterministic reports",
        payloads[0] == payloads[1],
        f"two verification runs produced identical {len(payloads[0])}-byte reports",
    )
