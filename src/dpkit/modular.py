"""Modulars, Luxemburg norms and related inequalities on discrete functions.

The integrand is H(x, t) = t^p(x) + mu(x) t^q(x).  For a P1 function u every
modular evaluated by quadrature is a finite sum

    rho(t u) = sum_k c_k t^{e_k},   c_k >= 0,  e_k > 1,

with one term per quadrature sample and part (plain p-part, weighted q-part;
gradient samples are constant per element).  This representation makes the
Luxemburg norm a one-dimensional root-find in t = 1/lambda for the strictly
increasing convex map t -> rho(t u), which is solved by bracketed bisection
with Newton acceleration: the bracket comes from the norm-modular sandwich,
bisection guarantees convergence, Newton steps inside the bracket give the
usual quadratic tail.

``_part_terms`` is the one term builder: every modular, Luxemburg norm and
hat norm takes its terms from it.  ``_parts`` lists a variant's parts in term
order (p-part, then q-part, of |u|, then of |grad u|), and the hat patches
build their p- and q-terms the same way and in the same order, which is what
makes a hat norm equal its full-mesh norm bit for bit.

``_luxemburg_roots`` is the one root-finder.  It solves a block of
equal-length power sums at once: a single-function norm is a block of one
row, and the hat-function norms (the dual-norm diagnostics) go through it in
blocks of hats, once per mesh, phase, tolerance and order.  The sums over
terms are vectorized over the rows (row sums, stacked ``matmul`` dot
products, ``power`` of each row's t), while each row's bracket and step are
taken in Python floats, so a row's result does not depend on the block it is
solved in.

The inequality checks pass to fixed tolerances: ``NORM_MODULAR_TOL`` for
:func:`check_norm_modular` and ``REVERSE_HOLDER_TOL`` for
:func:`reverse_holder_check`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .fem import DEFAULT_QUAD_ORDER, DiscreteFunction, Mesh
from .fields import DoublePhase

__all__ = [
    "ModularReport",
    "NormModularReport",
    "ConvexityProbe",
    "ReverseHolderResult",
    "LuxemburgResult",
    "modular",
    "modular_sobolev",
    "luxemburg_norm",
    "luxemburg_report",
    "weighted_seminorm",
    "check_norm_modular",
    "sobolev_conjugate_inverse",
    "reverse_holder_check",
    "truncate",
    "uniform_convexity_probe",
    "poincare_ratio",
    "DEFAULT_NORM_TOL",
]

DEFAULT_NORM_TOL = 1e-12
NORM_MODULAR_TOL = 1e-12  # pass tolerance of the scale-free sandwich slacks
NORM_ROOT_TOL = 1e-14  # root tolerance of the norm in check_norm_modular
UNIT_NORM_BAND = 1e-12  # |norm - 1| at or below which a norm counts as one
SOBOLEV_QUAD_TOL = 1e-10  # absolute and relative tolerance of the conjugate's quadrature
REVERSE_HOLDER_TOL = 1e-12  # pass tolerance of lhs - rhs in the reverse Hölder check

# --------------------------------------------------------------------------
# power-sum representation of quadrature modulars


def _part_terms(
    samples: np.ndarray, expo: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coefs, expos, keep) of weight * samples**expo, flattened over the shape
    of ``expo``: ``keep`` marks the entries kept, those of nonzero coefficient."""
    s = np.broadcast_to(samples, expo.shape).reshape(-1)
    e = expo.reshape(-1)
    w = np.broadcast_to(weight, expo.shape).reshape(-1)
    keep = (w != 0.0) & (s != 0.0)
    return w[keep] * np.power(s[keep], e[keep]), e[keep], keep


# the public modular variants, by the samples each takes: |u|, |grad u| or both
_VARIANTS = {"value": ("value",), "gradient": ("gradient",), "sobolev": ("value", "gradient")}


def _check_variant(which: str) -> None:
    if which not in _VARIANTS:
        raise ValueError(f"unknown modular variant {which!r}, expected one of {list(_VARIANTS)}")


def _parts(u: DiscreteFunction, phase: DoublePhase, order: int, which: str) -> list:
    """(coefs, expos) of each part of a modular variant, in term order.

    For each of |u| and |grad u| that the variant takes, the p-part and then
    the q-part.
    """
    p, q, mu, w = phase.at_quadrature(u.mesh, order)
    parts = []
    for on in _VARIANTS[which]:
        s = np.abs(u.values_at(order)) if on == "value" else u.gradient_norms()[:, None]
        parts += [_part_terms(s, p, w)[:2], _part_terms(s, q, w * mu)[:2]]
    return parts


def _collect_terms(
    u: DiscreteFunction, phase: DoublePhase, order: int, which: str
) -> tuple[np.ndarray, np.ndarray]:
    coefs, expos = zip(*_parts(u, phase, order, which))
    return np.concatenate(coefs), np.concatenate(expos)


def _row_dots(a: np.ndarray, b: np.ndarray) -> list:
    """Row-by-row dot products as floats, each summed as the 1-D ``a[i] @ b[i]``."""
    if a.shape[0] == 1:  # skip the stacking, which costs more than a short sum
        return [float(a[0] @ b[0])]
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0].tolist()


def _take(a: np.ndarray, rows: list) -> np.ndarray:
    """``a[rows]`` for ascending distinct rows, without a copy when that is all of a."""
    return a if len(rows) == a.shape[0] else a[rows]


def _luxemburg_roots(
    coefs: np.ndarray, expos: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve rho_i(t) = 1 for every row of equal-length power sums.

    Row i is rho_i(t) = coefs[i] . t**expos[i]; returns arrays of
    lambda_i = 1/t_i and of iteration counts.  A row stops when
    |rho_i(t) - 1| <= tol * e_max * min(t, 1): for norms above one this
    makes lambda accurate to about tol absolutely, and for norms below one it
    caps the admissible modular residual at tol * e_max.  It also stops when
    the bracket collapses to adjacent floats (lambda then carries no
    representable error).  Rows whose sum vanishes get lambda = 0 after zero
    iterations.  Raises NumericError on a non-finite modular, or for the
    first row whose iteration budget runs out with a live bracket.

    Each step takes one ``power`` over the live rows' exponents and two row
    dot products (rho and its slope); the bracket and the Newton-or-bisection
    step of each row are then taken in Python floats, and finished rows leave
    the block.  Every row's arithmetic is thus the same whatever else is in
    the block, and a single function is a block of one row.
    """
    if not 0.0 < tol < math.inf:  # tol = inf would stop every row after one step
        raise ValueError("tol must be positive and finite")
    lam = np.zeros(coefs.shape[0])
    its = np.zeros(coefs.shape[0], dtype=int)
    m1 = coefs.sum(axis=1).tolist()
    if not all(map(math.isfinite, m1)):
        raise NumericError("modular overflow while bracketing the Luxemburg norm")
    live = [i for i, m in enumerate(m1) if m != 0.0]
    if not live:
        return lam, its
    C, E = _take(coefs, live), _take(expos, live)
    powv = np.empty_like(E)  # one buffer for every power evaluation
    m1 = [m1[i] for i in live]
    e_hi = E.max(axis=1).tolist()
    t_lo, t_hi = [], []
    # the norm-modular sandwich plus floating-point slack, in Python float
    # powers: numpy's vectorized power may differ in the last bit
    for m, lo, hi in zip(m1, E.min(axis=1).tolist(), e_hi):
        a, b = sorted((m ** (1.0 / lo), m ** (1.0 / hi)))
        t_lo.append(1.0 / b * (1.0 - 1e-12))
        t_hi.append(1.0 / a * (1.0 + 1e-12))

    def rho(rows: list, t: list) -> list:
        out = [m1[i] for i in rows]  # at t = 1 the plain sum
        other = [k for k, i in enumerate(rows) if t[i] != 1.0]
        if other:
            sel = [rows[k] for k in other]
            tk = np.array([t[i] for i in sel])[:, None]
            pw = np.power(tk, _take(E, sel), out=powv[: len(sel)])
            for k, v in zip(other, _row_dots(_take(C, sel), pw)):
                out[k] = v
        return out

    # geometric expansion if rounding flipped a sign
    for t_end, factor, holds in ((t_lo, 0.5, operator.le), (t_hi, 2.0, operator.ge)):
        rows = list(range(len(live)))
        for _ in range(64):
            rows = [i for i, v in zip(rows, rho(rows, t_end)) if not holds(v - 1.0, 0.0)]
            if not rows:
                break
            for i in rows:
                t_end[i] *= factor
    CE = C * E
    target = [tol * e for e in e_hi]
    t = list(t_hi)
    for it in range(1, 301):
        pw = np.power(np.array(t)[:, None], E, out=powv[: len(t)])
        go = []
        for i, (r, dot) in enumerate(zip(_row_dots(C, pw), _row_dots(CE, pw))):
            h, ti = r - 1.0, t[i]
            if abs(h) <= target[i] * min(ti, 1.0):
                t_new = ti
            else:
                if h > 0.0:
                    t_hi[i] = ti
                else:
                    t_lo[i] = ti
                slope = dot / ti
                t_new = ti - h / slope if slope > 0.0 else 0.5 * (t_lo[i] + t_hi[i])
                if not t_lo[i] < t_new < t_hi[i]:
                    t_new = 0.5 * (t_lo[i] + t_hi[i])
            if t_new == ti:  # converged, or bracket exhausted: t is exact
                lam[live[i]] = 1.0 / ti
                its[live[i]] = it
            else:
                t[i] = t_new
                go.append(i)
        if not go:
            return lam, its
        if len(go) < len(live):
            C, E, CE = C[go], E[go], CE[go]
            live, t_lo, t_hi, t, target = (
                [v[i] for i in go] for v in (live, t_lo, t_hi, t, target)
            )
    raise NumericError(
        "Luxemburg norm did not reach the modular tolerance "
        f"(bracket [{1.0 / t_hi[0]}, {1.0 / t_lo[0]}], "
        f"residual target {target[0] * min(t[0], 1.0)})"
    )


# Hats per batched root: bounds the term arrays, so peak memory stays flat.
_HAT_BLOCK = 256


def _hat_norms(mesh: Mesh, phase: DoublePhase, tol: float, order: int) -> np.ndarray:
    """Read-only gradient Luxemburg norms of the free-node hats, in node order.

    The mesh keeps the latest norms per (order, tol) in :meth:`Mesh.cached`,
    keyed by the three field objects as :meth:`DoublePhase.at_quadrature`
    keys its samples: a solve and its residual checks build them once, and
    reassigning a field (say ``phase.mu``) misses the cache.

    A hat's gradient is its local basis gradient on each element of its
    patch and zero elsewhere, so its power sum is built from the patch alone:
    the same terms, in the same order, as the full-mesh function would give
    (p-terms, then q-terms, by ascending element, zero weights dropped).  The
    hats go through :func:`_luxemburg_roots` in blocks of ``_HAT_BLOCK``,
    grouped by term count, so each norm equals the full-mesh function's
    :func:`luxemburg_norm` bit for bit, at a total cost linear in the mesh
    size.
    """
    key = (phase.p, phase.q, phase.mu)
    return mesh.cached(
        ("hat_norms", order, tol), key, lambda: _patch_norms(mesh, phase, tol, order)
    )


def _patch_norms(mesh: Mesh, phase: DoublePhase, tol: float, order: int) -> np.ndarray:
    p, q, mu, w = phase.at_quadrature(mesh, order)
    wmu = w * mu
    # |grad phi| of each (element, local vertex), as gradient_norms() gives it
    s = np.sqrt(np.sum(mesh.basis_gradients**2, axis=2))
    nv, nq = mesh.elements.shape[1], p.shape[1]
    flat = mesh.elements.ravel()
    by_node = np.argsort(flat, kind="stable")  # ascending element within each node
    counts = np.bincount(flat, minlength=mesh.num_nodes)
    starts = np.cumsum(counts) - counts
    free = mesh.free_nodes
    norms = np.empty(free.size)
    for lo in range(0, free.size, _HAT_BLOCK):
        nodes = free[lo : lo + _HAT_BLOCK]
        k = counts[nodes]
        hat = np.repeat(np.arange(nodes.size), k)  # block hat of each patch entry
        offset = np.arange(hat.size) - (np.cumsum(k) - k)[hat]
        e, v = np.divmod(by_node[starts[nodes][hat] + offset], nv)
        grads = s[e, v][:, None]
        coefs, expos, keep = zip(
            _part_terms(grads, p[e], w[e]), _part_terms(grads, q[e], wmu[e])
        )
        hats = np.repeat(hat, nq)  # block hat of each (patch entry, sample)
        owner = np.concatenate([hats[k] for k in keep])
        by_hat = np.argsort(owner, kind="stable")  # p-terms, then q-terms, of each hat
        coefs = np.concatenate(coefs)[by_hat]
        expos = np.concatenate(expos)[by_hat]
        n_terms = np.bincount(owner, minlength=nodes.size)
        first = np.cumsum(n_terms) - n_terms
        block = norms[lo : lo + nodes.size]
        for n in np.unique(n_terms):
            rows = np.flatnonzero(n_terms == n)
            idx = first[rows, None] + np.arange(n)
            block[rows] = _luxemburg_roots(coefs[idx], expos[idx], tol)[0]
    return norms


# --------------------------------------------------------------------------
# public modular / norm API


@dataclass(frozen=True)
class ModularReport:
    """A modular split into its plain p-part and weighted q-part."""

    p_part: float
    q_part: float

    @property
    def total(self) -> float:
        return self.p_part + self.q_part


def modular(
    u: DiscreteFunction,
    phase: DoublePhase,
    on: str = "value",
    order: int = DEFAULT_QUAD_ORDER,
) -> ModularReport:
    """rho_H of u (``on="value"``), of |grad u| (``on="gradient"``) or of both
    (``on="sobolev"``, the value modular plus the gradient modular)."""
    _check_variant(on)
    sums = [float(coefs.sum()) for coefs, _ in _parts(u, phase, order, on)]
    return ModularReport(sum(sums[0::2]), sum(sums[1::2]))


def modular_sobolev(
    u: DiscreteFunction, phase: DoublePhase, order: int = DEFAULT_QUAD_ORDER
) -> ModularReport:
    """The full Sobolev modular, ``modular(u, phase, "sobolev", order)``."""
    return modular(u, phase, "sobolev", order)


def luxemburg_norm(
    u: DiscreteFunction,
    phase: DoublePhase,
    which: str = "value",
    tol: float = DEFAULT_NORM_TOL,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """Luxemburg norm inf{lambda > 0 : rho(u / lambda) <= 1}.

    ``which`` selects the modular: ``"value"`` for the Lebesgue-space norm,
    ``"gradient"`` for the zero-trace Sobolev norm, ``"sobolev"`` for the
    full Sobolev modular.  Returns 0 for functions vanishing at every
    quadrature sample.
    """
    return luxemburg_report(u, phase, which, tol, order).norm


@dataclass(frozen=True)
class LuxemburgResult:
    """Luxemburg norm together with its root-finder iteration count."""

    norm: float
    iterations: int
    which: str
    tol: float


def luxemburg_report(
    u: DiscreteFunction,
    phase: DoublePhase,
    which: str = "value",
    tol: float = DEFAULT_NORM_TOL,
    order: int = DEFAULT_QUAD_ORDER,
) -> LuxemburgResult:
    """Like :func:`luxemburg_norm` but reporting the iteration count too."""
    _check_variant(which)
    coefs, expos = _collect_terms(u, phase, order, which)
    lam, its = _luxemburg_roots(coefs[None], expos[None], tol)
    return LuxemburgResult(float(lam[0]), int(its[0]), which, tol)


def weighted_seminorm(
    u: DiscreteFunction,
    phase: DoublePhase,
    tol: float = DEFAULT_NORM_TOL,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """The mu-weighted q(.)-seminorm inf{tau : int mu (|u|/tau)^q dx <= 1}.

    Vanishes whenever mu |u| vanishes at all quadrature samples, which is
    what makes it a seminorm rather than a norm.
    """
    _, q, mu, w = phase.at_quadrature(u.mesh, order)
    coefs, expos, _ = _part_terms(np.abs(u.values_at(order)), q, w * mu)
    return float(_luxemburg_roots(coefs[None], expos[None], tol)[0][0])


@dataclass
class NormModularReport:
    """Norm, modular, and the slack of every applicable norm–modular relation.

    Each entry of ``slacks`` is (name, value); nonnegative values mean the
    relation holds.  Slacks are normalized by the magnitude of the larger
    side of each inequality, so the pass tolerance is scale-free: in the
    single-exponent case the sandwich degenerates to an equality between
    quantities that grow like norm^p, and a raw difference would drown in
    rounding noise long before the relation itself failed.  ``passed``
    applies ``tol``, which is ``NORM_MODULAR_TOL``.
    """

    norm: float
    modular: float
    regime: str
    slacks: list
    tol: float

    @property
    def passed(self) -> bool:
        return all(v >= -self.tol for _, v in self.slacks)


def check_norm_modular(
    u: DiscreteFunction,
    phase: DoublePhase,
    which: str = "value",
    order: int = DEFAULT_QUAD_ORDER,
) -> NormModularReport:
    """Verify the norm–modular sandwich and sign equivalences for one function.

    For ||u|| > 1:  ||u||^{p-} <= rho(u) <= ||u||^{q+};
    for ||u|| < 1 the exponents swap; at ||u|| = 1 the modular equals one.
    The exponent bounds are taken over the active quadrature samples, where
    the discrete modular lives.  A slack passes down to ``-NORM_MODULAR_TOL``.
    """
    _check_variant(which)
    coefs, expos = _collect_terms(u, phase, order, which)
    lam = float(_luxemburg_roots(coefs[None], expos[None], NORM_ROOT_TOL)[0][0])
    rho = float(coefs.sum())
    if lam == 0.0:
        return NormModularReport(
            0.0, rho, "zero", [("modular zero", -abs(rho))], NORM_MODULAR_TOL
        )
    e_lo = float(expos.min())
    e_hi = float(expos.max())

    def rel(hi_side: float, lo_side: float) -> float:
        return (hi_side - lo_side) / max(1.0, abs(hi_side), abs(lo_side))

    slacks = []
    if abs(lam - 1.0) <= UNIT_NORM_BAND:
        regime = "unit"
        slacks.append(("modular equals one at unit norm", UNIT_NORM_BAND * e_hi - abs(rho - 1.0)))
    elif lam > 1.0:
        regime = "above-one"
        slacks.append(("rho >= norm^p-", rel(rho, lam**e_lo)))
        slacks.append(("rho <= norm^q+", rel(lam**e_hi, rho)))
        slacks.append(("sign: rho > 1 when norm > 1", rel(rho, 1.0)))
    else:
        regime = "below-one"
        slacks.append(("rho >= norm^q+", rel(rho, lam**e_hi)))
        slacks.append(("rho <= norm^p-", rel(lam**e_lo, rho)))
        slacks.append(("sign: rho < 1 when norm < 1", rel(1.0, rho)))
    return NormModularReport(lam, rho, regime, slacks, NORM_MODULAR_TOL)


# --------------------------------------------------------------------------
# Sobolev conjugate


def sobolev_conjugate_inverse(phase: DoublePhase, x, s: float) -> float:
    """Inverse of the Sobolev conjugate of H at a point x, evaluated at s.

    Computes  int_0^s  H1^{-1}(x, tau) / tau^{(N+1)/N}  d tau  where H1
    agrees with H above t = 1 and is linear below.  On the linear branch the
    integrand is tau^{-1/N} / H(x, 1), integrated in closed form; the rest is
    adaptive quadrature with the scalar inverse of H obtained by bracketed
    root-finding on [1, tau^{1/p(x)}].
    """
    from scipy.integrate import quad  # deferred: slow to import, and only used here
    from scipy.optimize import brentq

    N = phase.dim
    if N < 2:
        raise ValueError("the Sobolev conjugate requires ambient dimension N >= 2")
    s = float(s)
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    if s == 0.0:
        return 0.0
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    pv, qv, muv = (float(np.atleast_1d(v)[0]) for v in phase.at(xp[None, :]))
    h1 = 1.0 + muv  # H(x, 1)
    s_lin = min(s, h1)
    result = (N / (N - 1.0)) * s_lin ** ((N - 1.0) / N) / h1
    if s > h1:

        def h_inverse(tau):
            hi = tau ** (1.0 / pv)
            if muv == 0.0:
                return hi
            return brentq(
                lambda t: t**pv + muv * t**qv - tau, 1.0, max(hi, 1.0 + 1e-15),
                xtol=1e-14, rtol=8.9e-16,
            )

        val, abserr = quad(
            lambda tau: h_inverse(tau) / tau ** ((N + 1.0) / N),
            h1,
            s,
            epsabs=SOBOLEV_QUAD_TOL,
            epsrel=SOBOLEV_QUAD_TOL,
            limit=200,
        )
        if abserr > 10.0 * SOBOLEV_QUAD_TOL * max(1.0, abs(val)):
            raise NumericError(
                f"Sobolev-conjugate quadrature error {abserr} exceeds tolerance {SOBOLEV_QUAD_TOL}"
            )
        result += val
    return float(result)


# --------------------------------------------------------------------------
# inequalities and probes


@dataclass(frozen=True)
class ReverseHolderResult:
    lhs: float
    rhs: float
    tol: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tol


def reverse_holder_check(
    f: DiscreteFunction,
    g: DiscreteFunction,
    r,
    order: int = DEFAULT_QUAD_ORDER,
) -> ReverseHolderResult:
    """Reverse Hölder inequality for a variable exponent r with r- > 1.

    Checks  max{||fg||_1^{1/r-}, ||fg||_1^{1/r+}}
            >= 1/2 || |f|^{1/r(.)} ||_1 * min{ || |g|^{-1/(r-1)} ||_1^{(1-r+)/r-},
                                               || |g|^{-1/(r-1)} ||_1^{(1-r-)/r+} }

    with exponent bounds and integrals taken over the quadrature samples,
    to the tolerance ``REVERSE_HOLDER_TOL``.
    """
    if g.mesh is not f.mesh:
        raise ValueError("f and g must live on the same mesh")
    _, w, _ = f.mesh.quadrature_points(order)
    fv = np.abs(f.values_at(order))
    gv = np.abs(g.values_at(order))
    if np.any(gv == 0.0):
        raise ValueError("g must be nonzero at every quadrature sample")
    rv = f.mesh.sample(r, order)
    r_lo, r_hi = float(rv.min()), float(rv.max())
    if r_lo <= 1.0:
        raise ValueError(f"reverse Hölder requires r > 1, got minimum {r_lo}")
    norm_fg = float(np.sum(w * fv * gv))
    int_f = float(np.sum(w * fv ** (1.0 / rv)))
    int_g = float(np.sum(w * gv ** (-1.0 / (rv - 1.0))))
    lhs = max(norm_fg ** (1.0 / r_lo), norm_fg ** (1.0 / r_hi))
    rhs = 0.5 * int_f * min(
        int_g ** ((1.0 - r_hi) / r_lo), int_g ** ((1.0 - r_lo) / r_hi)
    )
    return ReverseHolderResult(lhs, rhs, REVERSE_HOLDER_TOL)


def truncate(u: DiscreteFunction, sign: int = 1) -> DiscreteFunction:
    """Nodal positive part max(u, 0) (sign=+1) or negative part max(-u, 0).

    For P1 functions the nodal truncation satisfies u = u+ - u- and
    |u| = u+ + u- exactly at the nodes, hence as discrete functions.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return DiscreteFunction(
        u.mesh, np.maximum(sign * u.values, 0.0), zero_boundary=u.zero_boundary
    )


@dataclass(frozen=True)
class ConvexityProbe:
    branch: str  # "within-eps" or "separated"
    delta: float


def uniform_convexity_probe(
    phase: DoublePhase, x, t: float, s: float, eps: float
) -> ConvexityProbe:
    """Dichotomy underlying uniform convexity of the modular.

    Either |t - s| <= eps * max(t, s) (branch "within-eps"), or the midpoint
    value improves on the average:  H(x, (t+s)/2) <= (1 - delta)/2 * (H(x,t)
    + H(x,s)) with the observed delta > 0 returned.
    """
    if not (t >= 0.0 and s >= 0.0):
        raise ValueError("t and s must be nonnegative")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if abs(t - s) <= eps * max(t, s):
        return ConvexityProbe("within-eps", 0.0)
    xp = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    ht = float(phase.h_at(xp, t)[0])
    hs = float(phase.h_at(xp, s)[0])
    hm = float(phase.h_at(xp, 0.5 * (t + s))[0])
    delta = 1.0 - 2.0 * hm / (ht + hs)
    if delta <= 0.0:
        raise NumericError(
            f"convexity defect non-positive (delta={delta}) for t={t}, s={s}"
        )
    return ConvexityProbe("separated", delta)


def poincare_ratio(
    u: DiscreteFunction,
    phase: DoublePhase,
    tol: float = DEFAULT_NORM_TOL,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """||u||_H / || |grad u| ||_H for a nonzero zero-trace function."""
    if not u.zero_boundary:
        raise ValueError("the Poincaré ratio applies to zero-trace functions")
    grad_norm = luxemburg_norm(u, phase, "gradient", tol, order)
    if grad_norm == 0.0:
        raise ValueError("u vanishes identically; the ratio is undefined")
    return luxemburg_norm(u, phase, "value", tol, order) / grad_norm
