"""The benchmark's workloads: a seeded job generator, one job, its checks.

dpkit only ever receives what a user would hand it: a JSON run
configuration on the command line, or a mesh, a phase and a forcing
callable through the library.  Every per-job input is drawn from the
benchmark's ``--seed`` by ``jobs()``, so one seed always gives the same job
sequence.  No check needs a stored answer, so any seed works.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

import numpy as np

import dpkit.cli
import dpkit.config
import dpkit.properties
import dpkit.solve

# Ranges every per-job draw comes from, printed with the run metadata: a
# tuple (lo, hi) is drawn uniformly, a list or range by uniform choice.
RANGES = {
    "cli-convection-2d": {"a": (0.5, 1.5), "k": [1, 2, 3], "m": [1, 2, 3], "d": (0.1, 0.5)},
    "newton-2d": {"a": (0.5, 1.5), "k": [1, 2, 3], "m": [1, 2, 3]},
    "verify-catalogue": {"s": range(1_000_000)},
}

CLI_MESH = 48  # cells per side of the unit square in cli-convection-2d
NEWTON_MESH = 128  # cells per side in newton-2d
WEAK_TOL = 1e-8  # SolverOptions.weak_tol: the convection solve's own stopping bound


def jobs(workload: str, seed: int):
    """Endless, deterministic sequence of job parameter dicts for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    ranges = RANGES[workload]
    while True:
        job = {
            name: rng.uniform(*spec) if isinstance(spec, tuple) else rng.choice(spec)
            for name, spec in ranges.items()
        }
        yield job


class Outcome:
    """What one job produced: its artifact bytes and the check failures."""

    def __init__(self, artifact: bytes, failures: list):
        self.artifact = artifact
        self.failures = failures


# ----------------------------------------------------------------------
# cli-convection-2d: what a CLI user waits for.  One in-process
# ``dpkit solve`` of a convection problem passes through config parsing,
# the r = 2 eigenvalue behind the coercivity margin, Picard plus Newton,
# the O(N^2) hat-norm diagnostic (where modular work shows) and report and
# CSV writing.


def convection_config(job: dict) -> dict:
    a, k, m, d = job["a"], job["k"], job["m"], job["d"]
    # f = g + d*xi1 with g = 1 + a sin(k pi x) sin(m pi y) satisfies the
    # declared bounds: |f| <= (1 + a) + d |xi| and, by Young's inequality,
    # f s <= (d/2)|xi|^2 + (d/2 + 1/4) s^2 + (1 + a)^2.
    return {
        "mesh": {"kind": "rect", "nx": CLI_MESH, "ny": CLI_MESH},
        "fields": {
            "p": 2.0,
            "q": {"kind": "affine", "a": [0.4, 0.0], "b": 2.6},
            "mu": {"kind": "expr", "expr": "0.2 + 0.8*x*y"},
        },
        "problem": {
            "kind": "term",
            "expr": f"1 + {a!r}*sin({k}*pi*x)*sin({m}*pi*y) + {d!r}*xi1",
            "r": 2.0,
            "a1": d,
            "a2": 0.0,
            "alpha": 1.0 + a,
            "b1": d / 2.0,
            "b2": d / 2.0 + 0.25,
            "omega": (1.0 + a) ** 2,
        },
        "output_dir": "out",
    }


def _run_cli(argv: list) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return dpkit.cli.main(argv)


def _read_report(report_path: Path, code: int) -> tuple:
    """(bytes, parsed report or None if missing, failures so far) of a CLI job."""
    if not report_path.is_file():
        return b"", None, [f"exit code {code}, no report.json"]
    raw = report_path.read_bytes()
    return raw, json.loads(raw), [f"exit code {code}"] if code else []


class CliConvection:
    name = "cli-convection-2d"
    sizes = {"mesh": f"{CLI_MESH}x{CLI_MESH} unit square"}

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir

    def prepare(self, job: dict, tag: str) -> Path:
        jobdir = self.workdir / tag
        jobdir.mkdir(parents=True)
        path = jobdir / "run.json"
        path.write_text(json.dumps(convection_config(job)))
        return path

    def run(self, path: Path) -> int:
        return _run_cli(["--threads", "1", "solve", str(path), "--no-timestamp"])

    def check(self, path: Path, code: int) -> Outcome:
        raw, rep, failures = _read_report(path.parent / "out" / "report.json", code)
        if rep is None:
            return Outcome(raw, failures)
        if rep.get("converged") is not True:
            failures.append("not converged")
        if not rep.get("weak_residual", np.inf) <= WEAK_TOL:
            failures.append(f"weak_residual {rep.get('weak_residual')} > {WEAK_TOL}")
        if not rep.get("coercivity_margin", 0.0) > 0.0:
            failures.append(f"coercivity_margin {rep.get('coercivity_margin')} <= 0")
        shutil.rmtree(path.parent)
        return Outcome(raw, failures)


# ----------------------------------------------------------------------
# newton-2d: the library user's forcing sweep.  Mesh and phase are built
# once and reused, so time goes to operator assembly, field sampling and
# the sparse solve, with no modular calls; a per-(mesh, phase, order) cache
# could hit here and only here.


class NewtonSweep:
    name = "newton-2d"
    sizes = {"mesh": f"{NEWTON_MESH}x{NEWTON_MESH} unit square"}

    def setup(self, workdir: Path) -> None:
        cfg = dpkit.config.parse_config(
            {
                "mesh": {"kind": "rect", "nx": NEWTON_MESH, "ny": NEWTON_MESH},
                "fields": {
                    "p": {"kind": "affine", "a": [0.4, 0.0], "b": 1.8},
                    "q": {"kind": "affine", "a": [0.0, 0.4], "b": 2.6},
                    "mu": {"kind": "expr", "expr": "0.2 + 0.8*x*y"},
                },
            },
            workdir,
        )
        cfg.phase.validate(cfg.mesh, cfg.order)  # p, q > 1 and mu >= 0 on the samples
        self.mesh, self.phase, self.order = cfg.mesh, cfg.phase, cfg.order
        self.options = cfg.solver_options()

    def prepare(self, job: dict, tag: str):
        a, k, m = job["a"], job["k"], job["m"]

        def forcing(pts):
            return 1.0 + a * np.sin(k * np.pi * pts[:, 0]) * np.sin(m * np.pi * pts[:, 1])

        return forcing

    def run(self, forcing):
        return dpkit.solve.solve_monotone(self.phase, self.mesh, forcing, self.options)

    def check(self, forcing, report) -> Outcome:
        failures = []
        if not report.converged:
            failures.append("not converged")
        res = dpkit.solve.residual_norm(report.u, self.phase, forcing, self.order)
        if not res <= self.options.newton_tol:
            failures.append(f"recomputed residual {res:.3e} > {self.options.newton_tol:.1e}")
        return Outcome(report.u.values.tobytes(), failures)


# ----------------------------------------------------------------------
# verify-catalogue: what CI users run.  Many small calls into every layer
# on freshly built 1D and 8x8 meshes, so per-call overhead and cache misses
# dominate and bookkeeping added for big meshes shows its cost here.


class VerifyCatalogue:
    name = "verify-catalogue"
    sizes = {"mesh": "catalogue meshes (1D n<=512, 8x8 square)"}

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.config = workdir / "verify.json"
        self.config.write_text(json.dumps({"mesh": {"kind": "interval", "n": 8}}))

    def prepare(self, job: dict, tag: str) -> list:
        out = self.workdir / tag
        return [
            "--threads", "1", "verify", str(self.config), "--seed", str(job["s"]),
            "--no-timestamp", "--output-dir", str(out),
        ]

    def run(self, argv: list) -> int:
        return _run_cli(argv)

    def check(self, argv: list, code: int) -> Outcome:
        out = Path(argv[argv.index("--output-dir") + 1])
        raw, rep, failures = _read_report(out / "report.json", code)
        if rep is None:
            return Outcome(raw, failures)
        failed = [p["name"] for p in rep["properties"] if not p["passed"]]
        if failed:
            failures.append(f"properties failed: {', '.join(failed)}")
        expected = len(dpkit.properties.property_names())
        if len(rep["properties"]) != expected:
            failures.append(f"{len(rep['properties'])} properties ran, expected {expected}")
        shutil.rmtree(out)
        return Outcome(raw, failures)


WORKLOADS = {w.name: w for w in (CliConvection, NewtonSweep, VerifyCatalogue)}
