"""Frozen copy of the scalar bracketed Luxemburg root, kept as the reference.

``_luxemburg_roots`` now runs Newton in log space, with other arithmetic, so
its norms agree with this root to the accuracy both stops guarantee, as
:func:`agrees` checks, rather than bit for bit.  The root is kept verbatim,
with the power-sum record it took.
"""

from dataclasses import dataclass

import numpy as np

from dpkit.errors import NumericError


@dataclass(frozen=True)
class _PowerSum:
    """rho(t u) = coefs . t**expos with nonnegative coefs and expos > 1."""

    coefs: np.ndarray
    expos: np.ndarray

    @property
    def empty(self) -> bool:
        return self.coefs.size == 0

    def value(self, t: float = 1.0) -> float:
        if self.empty:
            return 0.0
        if t == 1.0:
            return float(self.coefs.sum())
        return float(self.coefs @ np.power(t, self.expos))


def _luxemburg_root(terms: _PowerSum, tol: float) -> tuple[float, int]:
    """Solve rho(t u) = 1 for t and return (lambda, iterations) with lambda = 1/t.

    Stops when |rho(u/lambda) - 1| <= tol * e_max * min(1/lambda, 1): for
    norms above one this makes lambda accurate to about tol absolutely, and
    for norms below one it caps the admissible modular residual at
    tol * e_max.  Also stops when the bracket collapses to adjacent floats
    (lambda then carries no representable error).  Raises NumericError if the
    iteration budget runs out with a live bracket.
    """
    if terms.empty:
        return 0.0, 0
    m1 = terms.value(1.0)
    if m1 == 0.0:
        return 0.0, 0
    if not np.isfinite(m1):
        raise NumericError("modular overflow while bracketing the Luxemburg norm")
    e_lo = float(terms.expos.min())
    e_hi = float(terms.expos.max())
    lam_bounds = sorted((m1 ** (1.0 / e_lo), m1 ** (1.0 / e_hi)))
    t_lo, t_hi = 1.0 / lam_bounds[1], 1.0 / lam_bounds[0]
    # floating-point slack, then geometric expansion if rounding flipped a sign
    t_lo *= 1.0 - 1e-12
    t_hi *= 1.0 + 1e-12
    for _ in range(64):
        if terms.value(t_lo) - 1.0 <= 0.0:
            break
        t_lo *= 0.5
    for _ in range(64):
        if terms.value(t_hi) - 1.0 >= 0.0:
            break
        t_hi *= 2.0
    t = t_hi
    for it in range(1, 301):
        powv = np.power(t, terms.expos)
        h = float(terms.coefs @ powv) - 1.0
        if abs(h) <= tol * e_hi * min(t, 1.0):
            return 1.0 / t, it
        if h > 0.0:
            t_hi = t
        else:
            t_lo = t
        slope = float((terms.coefs * terms.expos) @ powv) / t
        t_new = t - h / slope if slope > 0.0 else 0.5 * (t_lo + t_hi)
        if not t_lo < t_new < t_hi:
            t_new = 0.5 * (t_lo + t_hi)
        if t_new == t:  # bracket exhausted: t is exact to machine precision
            return 1.0 / t, it
        t = t_new
    raise NumericError(
        "Luxemburg norm did not reach the modular tolerance "
        f"(bracket [{1.0 / t_hi}, {1.0 / t_lo}], "
        f"residual target {tol * e_hi * min(t, 1.0)})"
    )


def scalar_root(coefs: np.ndarray, expos: np.ndarray, tol: float) -> tuple[float, int]:
    """(lambda, iterations) of the power sum coefs . t**expos, by the scalar root."""
    return _luxemburg_root(_PowerSum(coefs, expos), tol)


def agrees(lam: float, coefs: np.ndarray, expos: np.ndarray, tol: float) -> bool:
    """|lam - lam_ref| <= 2 tol (e_max / e_min) max(lam_ref, 1) + 8 eps lam_ref.

    lam_ref is the scalar root of the power sum coefs . t**expos.  Each
    root's stop puts it within tol * e_max / e_min of the true norm:
    absolutely above one, relatively below one.  The 8 eps term covers
    rounding.
    """
    ref = scalar_root(coefs, expos, tol)[0]
    if ref == 0.0:  # no terms, or all of them zero
        return lam == 0.0
    bound = 2.0 * tol * (expos.max() / expos.min()) * max(ref, 1.0)
    return abs(lam - ref) <= bound + 8.0 * np.finfo(float).eps * ref
