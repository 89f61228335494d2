"""Finite-element toolkit for double-phase problems with variable exponents.

The package discretizes the operator

    u -> -div( |grad u|^{p(x)-2} grad u + mu(x) |grad u|^{q(x)-2} grad u )

with P1 finite elements, provides the Musielak-Orlicz modular/norm machinery
behind it, checks the structural hypotheses on the exponents, and solves the
associated equations (with and without convection terms) together with the
first eigenvalue problems used by the solvability margins.

Importing the package loads none of its modules: each exported name is looked
up in its home module on first use, so that ``dpkit --threads`` can cap the
BLAS worker pool before numpy is loaded.
"""

import importlib.util

# each exported name and the module that defines it; ``dpkit.modular`` is the
# module, so its function ``modular`` is imported from there
_HOMES = {
    "EigenResult": "eigen",
    "coercivity_margin": "eigen",
    "first_eigenvalue": "eigen",
    "mass_matrix": "eigen",
    "rayleigh_quotient": "eigen",
    "stiffness_matrix": "eigen",
    "uniqueness_margin": "eigen",
    "ConfigError": "errors",
    "DpkitError": "errors",
    "NumericError": "errors",
    "PreconditionError": "errors",
    "DiscreteFunction": "fem",
    "Mesh": "fem",
    "Quadrature": "fem",
    "build_interval_mesh": "fem",
    "build_rect_mesh": "fem",
    "integrate": "fem",
    "interpolate": "fem",
    "ConditionCheck": "fields",
    "ConditionReport": "fields",
    "DoublePhase": "fields",
    "ScalarField": "fields",
    "check_A1_characterization": "fields",
    "check_A1_sufficient": "fields",
    "check_condition_H": "fields",
    "check_condition_Hpp": "fields",
    "check_condition_Hprime": "fields",
    "check_condition_base": "fields",
    "constant_phase": "fields",
    "critical_exponent": "fields",
    "critical_exponent_field": "fields",
    "estimate_holder": "fields",
    "estimate_log_holder": "fields",
    "field_bounds": "fields",
    "LuxemburgResult": "modular",
    "ModularReport": "modular",
    "NormModularReport": "modular",
    "check_norm_modular": "modular",
    "luxemburg_norm": "modular",
    "luxemburg_report": "modular",
    "modular_sobolev": "modular",
    "poincare_ratio": "modular",
    "reverse_holder_check": "modular",
    "sobolev_conjugate_inverse": "modular",
    "truncate": "modular",
    "uniform_convexity_probe": "modular",
    "weighted_seminorm": "modular",
    "DualBoundResult": "operator",
    "SimonResult": "operator",
    "apply_operator": "operator",
    "assemble_jacobian": "operator",
    "assemble_load": "operator",
    "assemble_residual": "operator",
    "boundedness_estimate": "operator",
    "energy": "operator",
    "gradient_check": "operator",
    "monotonicity_probe": "operator",
    "simon_inequality": "operator",
    "ManufacturedCase": "problems",
    "case_names": "problems",
    "growth_example_term": "problems",
    "manufactured_case": "problems",
    "ConvectionTerm": "solve",
    "SolveReport": "solve",
    "SolverOptions": "solve",
    "UniquenessReport": "solve",
    "check_growth": "solve",
    "solve_convection": "solve",
    "solve_monotone": "solve",
    "verify_uniqueness": "solve",
    "weak_residual": "solve",
}
__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, or a submodule, imported on first use and not stored here."""
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if importlib.util.find_spec(f".{name}", __name__) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)
