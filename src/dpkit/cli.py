"""Command-line interface.

Subcommands: validate, norm, eigen, solve, verify, convergence.  Every run
reads one JSON configuration (see the config module) and writes a
deterministic report.json; exit codes follow a fixed contract:

    0  success
    1  a mathematical check or property failed
    2  usage or configuration error
    3  a numeric method failed to converge

Importing ``dpkit`` or this module loads no numpy, and heavy imports happen
inside the command handlers, so ``--threads`` caps the BLAS worker pool
before numpy is loaded.  Without it, the standard OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS variables cap it as usual.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, NumericError, PreconditionError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _apply_threads(threads: int | None) -> None:
    if threads is None:
        return
    if threads < 1:
        raise ValueError("--threads must be at least 1")
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpkit",
        description="variable-exponent double-phase toolkit",
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="cap BLAS worker threads"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument(
            "--output-dir", default=None, help="override the config output directory"
        )
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the generated_at field for byte-reproducible reports",
        )

    p = sub.add_parser("validate", help="check structural hypotheses on the fields")
    common(p)
    p.add_argument(
        "--check",
        default="H",
        choices=["base", "H", "Hprime", "Hprime-relaxed", "Hpp", "A1", "A1-sufficient", "all"],
        help="which hypothesis set gates the exit code (all checks are always reported)",
    )
    p.add_argument("--alpha", type=float, default=1.0, help="Hölder exponent for A1 checks")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("norm", help="Luxemburg norm and modular of a nodal function")
    common(p)
    p.add_argument("--input", required=True, help="solution CSV on the config mesh")
    p.add_argument(
        "--which",
        default="value",
        choices=["value", "gradient", "sobolev"],
        help="which modular defines the norm",
    )
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("eigen", help="first Dirichlet eigenvalue of the r-Laplacian")
    common(p)
    p.add_argument("--r", type=float, default=2.0, help="exponent r > 1")
    p.add_argument(
        "--eigenfunction", default=None, help="also write the eigenfunction CSV here"
    )
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("solve", help="solve the configured problem")
    common(p)
    p.add_argument("--vtk", action="store_true", help="also write solution.vtk")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the seeded invariant catalogue")
    common(p)
    p.add_argument(
        "--names", default=None, help="comma-separated property subset to run"
    )
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--list", action="store_true", help="list property names and exit")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convergence", help="mesh-refinement error sweep for a case")
    common(p)
    p.add_argument("--case", default=None, help="built-in case (default: from config)")
    p.add_argument(
        "--meshes", default="32,64,128,256", help="comma-separated cell counts"
    )
    p.set_defaults(func=cmd_convergence)
    return parser


def _load(args):
    from .config import load_config

    cfg = load_config(args.config)
    if args.output_dir is not None:
        from pathlib import Path

        cfg.output_dir = Path(args.output_dir)
    return cfg


def _write(cfg, args, data) -> None:
    from .report import write_report

    path = write_report(
        cfg.output_dir / "report.json", data, timestamp=not args.no_timestamp
    )
    print(f"report written to {path}")


def cmd_validate(args) -> int:
    from .fields import (
        check_A1_characterization,
        check_A1_sufficient,
        check_condition_base,
        check_condition_H,
        check_condition_Hpp,
        check_condition_Hprime,
    )

    cfg = _load(args)
    phase = cfg.require_phase()
    mesh, order, seed = cfg.mesh, cfg.order, cfg.seed
    beta_max, a1_report = check_A1_characterization(phase, mesh, seed=seed)
    reports = {
        "base": check_condition_base(phase, mesh, order),
        "H": check_condition_H(phase, mesh, order),
        "Hprime": check_condition_Hprime(phase, mesh, order, seed=seed),
        "Hprime-relaxed": check_condition_Hprime(
            phase, mesh, order, relaxed=True, seed=seed
        ),
        "Hpp": check_condition_Hpp(phase, mesh, order, seed=seed),
        "A1-sufficient": check_A1_sufficient(phase, mesh, args.alpha, order, seed=seed),
        "A1": a1_report,
    }
    status = {name: rep.passed for name, rep in reports.items()}
    selected = list(status) if args.check == "all" else [args.check]
    passed = all(status[name] for name in selected)
    data = {
        "command": "validate",
        "check": args.check,
        "passed": passed,
        "beta_max": beta_max,
        "reports": {name: r.to_dict() for name, r in reports.items()},
        "seed": seed,
    }
    _write(cfg, args, data)
    for name, rep in sorted(reports.items()):
        gate = " (gating)" if name in selected else ""
        print(f"{name}: {'pass' if status[name] else 'FAIL'}{gate}")
        for check in rep.checks:
            print(f"  {check.name}: margin {check.margin:.6g}")
    print(f"A1 beta_max: {beta_max:.6g}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_norm(args) -> int:
    from .fem import DiscreteFunction
    from .io import load_solution
    from .modular import luxemburg_report, modular

    cfg = _load(args)
    phase = cfg.require_phase()
    values = load_solution(args.input, cfg.mesh)
    u = DiscreteFunction(cfg.mesh, values)
    res = luxemburg_report(u, phase, args.which, cfg.options.norm_tol, cfg.order)
    parts = modular(u, phase, args.which, cfg.order)
    data = {
        "command": "norm",
        "which": args.which,
        "norm": res.norm,
        "iterations": res.iterations,
        "modular": {
            "total": parts.total,
            "p_part": parts.p_part,
            "q_part": parts.q_part,
        },
    }
    _write(cfg, args, data)
    print(f"norm[{args.which}] = {res.norm:.12g} ({res.iterations} iterations)")
    return EXIT_OK


def cmd_eigen(args) -> int:
    from .eigen import first_eigenvalue
    from .fem import DiscreteFunction
    from .io import save_solution

    cfg = _load(args)
    res = first_eigenvalue(cfg.mesh, args.r, cfg.eigen_tol, cfg.order)
    data = {
        "command": "eigen",
        "r": res.r,
        "lambda": res.value,
        "iterations": res.iterations,
    }
    _write(cfg, args, data)
    if args.eigenfunction:
        save_solution(args.eigenfunction, res.eigenfunction)
        print(f"eigenfunction written to {args.eigenfunction}")
    print(f"lambda_(1,{args.r:g}) = {res.value:.12g} after {res.iterations} iterations")
    return EXIT_OK


def cmd_solve(args) -> int:
    from .io import save_mesh, save_solution, save_vtk
    from .modular import luxemburg_norm
    from .operator import energy
    from .solve import residual_norm, solve_convection, solve_monotone, weak_residual

    cfg = _load(args)
    opts = cfg.solver_options()
    case, term, rhs = cfg.case, cfg.term, cfg.rhs
    if term is None and rhs is None:
        raise ConfigError("config has no problem to solve (add 'problem')")
    phase = cfg.require_phase()
    solver, forcing = (solve_monotone, rhs) if term is None else (solve_convection, term)
    rep = solver(phase, cfg.mesh, forcing, opts)
    weak = weak_residual(rep.u, forcing, phase, opts.order, opts.norm_tol)
    recomputed = residual_norm(rep.u, phase, rhs, opts.order) if term is None else weak
    data = {
        "command": "solve",
        "converged": rep.converged,
        "residual": rep.residual,
        "residual_recomputed": recomputed,
        "weak_residual": weak,
        "newton_iterations": rep.newton_iterations,
        "outer_iterations": rep.outer_iterations,
        "energy": energy(rep.u, phase, cfg.order),
        "solution_norm": luxemburg_norm(
            rep.u, phase, "gradient", opts.norm_tol, cfg.order
        ),
    }
    if rep.coercivity is not None:
        data["coercivity_margin"] = rep.coercivity
        data["eigenvalue"] = rep.eigenvalue
    if case is not None:
        data["case"] = case.name
        if case.exact is not None:
            data["l2_error"] = case.l2_error(rep.u, cfg.order)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    save_mesh(cfg.mesh, cfg.output_dir)
    save_solution(cfg.output_dir / "solution.csv", rep.u)
    if args.vtk:
        save_vtk(cfg.output_dir / "solution.vtk", rep.u)
    _write(cfg, args, data)
    print(
        f"solved: residual {rep.residual:.3e} "
        f"({rep.newton_iterations} Newton / {rep.outer_iterations} outer iterations)"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .properties import property_names, run_properties

    if args.list:
        for name in property_names():
            print(name)
        return EXIT_OK
    cfg = _load(args)
    seed = cfg.seed if args.seed is None else args.seed
    names = args.names.split(",") if args.names else None
    results = run_properties(seed=seed, names=names)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'pass' if r.passed else 'FAIL':4s}  {r.name:{width}s}  {r.detail}")
    passed = all(r.passed for r in results)
    data = {
        "command": "verify",
        "seed": seed,
        "passed": passed,
        "properties": [r.to_dict() for r in results],
    }
    _write(cfg, args, data)
    print(f"{sum(r.passed for r in results)}/{len(results)} properties passed")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_convergence(args) -> int:
    from .problems import L2_RATE_WINDOW, manufactured_case

    cfg = _load(args)
    if args.case is not None:
        case = manufactured_case(args.case)
    elif cfg.case is not None:
        case = cfg.case
    else:
        raise ConfigError("no case given: use --case or a builtin problem in the config")
    if case.exact is None:
        raise ConfigError(f"case {case.name!r} has no exact solution to converge to")
    try:
        sizes = [int(s) for s in args.meshes.split(",") if s]
    except ValueError:
        raise ConfigError(f"--meshes must be comma-separated integers, got {args.meshes!r}")
    if len(sizes) < 2 or any(n < 1 for n in sizes):
        raise ConfigError("--meshes needs at least two positive cell counts")
    errors, ratios, passed = case.convergence(sizes, cfg.solver_options())
    data = {
        "command": "convergence",
        "case": case.name,
        "meshes": sizes,
        "l2_errors": errors,
        "ratios": ratios,
        "rate_window": list(L2_RATE_WINDOW),
        "passed": passed,
    }
    _write(cfg, args, data)
    for n, e in zip(sizes, errors):
        print(f"n={n:5d}  L2 error {e:.6e}")
    print("ratios: " + ", ".join(f"{r:.3f}" for r in ratios))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_threads(args.threads)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2, like any other usage error
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a mesh or run too large for memory
        print(f"configuration error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
