"""Frozen copies of the four p* = N p / (N - p) expressions that
``fields._critical_exponent`` replaced.

``critical_exponent`` and ``critical_exponent_field`` are the old public
bodies verbatim; ``condition_H`` and ``growth`` are the expressions that
``check_condition_H`` and ``solve.check_growth`` computed inline, as
functions of the sampled p.  The one formula must reproduce each of them
bit for bit.
"""

import numpy as np

from dpkit.fields import ScalarField


def critical_exponent(p: ScalarField, x, dim: int) -> float:
    """The Sobolev conjugate exponent N p(x) / (N - p(x)) at a point."""
    val = p(np.atleast_1d(np.asarray(x, dtype=float)))
    val = float(np.asarray(val).reshape(-1)[0])
    if val >= dim:
        raise ValueError(f"critical exponent undefined: p(x) = {val} >= N = {dim}")
    return dim * val / (dim - val)


def critical_exponent_field(p: ScalarField, dim: int) -> ScalarField:
    """The Sobolev conjugate exponent as a field; errors where p(x) >= N."""

    def fn(pts):
        vals = np.asarray(p(pts), dtype=float)
        if np.any(vals >= dim):
            bad = pts[np.argmax(vals >= dim)]
            raise ValueError(
                f"critical exponent undefined at {bad.tolist()}: p >= N = {dim}"
            )
        return dim * vals / (dim - vals)

    return ScalarField(fn, "callback", {"derived": "critical-exponent"})


def condition_H(p: np.ndarray, N: int) -> np.ndarray:
    ok = p < N
    return np.where(ok, N * p / np.where(ok, N - p, 1.0), np.inf)


def growth(p: np.ndarray, N: int) -> np.ndarray:
    return np.where(p < N, N * p / np.maximum(N - p, 1e-300), np.inf)
