"""Modulars, Luxemburg norms and related inequalities on discrete functions.

The integrand is H(x, t) = t^p(x) + mu(x) t^q(x).  For a P1 function u every
modular evaluated by quadrature is a finite sum

    rho(u / lambda) = sum_k w_k (s_k / lambda)^{e_k},   w_k, s_k > 0,  e_k > 1,

with one term per quadrature sample and part (plain p-part, weighted q-part;
gradient samples are constant per element).  A modular sums the terms in
this power form.  The Luxemburg norm is the root of rho(u / lambda) = 1,
found in log form: with tau = -log lambda and a_k = log w_k + e_k log s_k,
log rho is the log-sum-exp of the affine maps a_k + e_k tau, convex and
increasing in tau, so Newton from above converges to the root without a
bracket, and no sum can overflow however large rho(u) is.

``_part_terms`` is the one term builder: every modular, Luxemburg norm and
hat norm takes its terms from it.  ``_parts`` lists a variant's parts in term
order (p-part, then q-part, of |u|, then of |grad u|), and the hat patches
build their p- and q-terms the same way and in the same order, which is what
makes a hat norm equal its full-mesh norm bit for bit.

``_luxemburg_roots`` is the one root-finder.  It solves a block of
equal-length sums at once: a single-function norm is a block of one row, and
the hat-function norms (the dual-norm diagnostics) go through it in blocks
of hats, once per mesh, phase, tolerance and order.  The sums over terms are
vectorized over the rows, while each row's stop and step are taken in Python
floats, so a row's result does not depend on the block it is solved in.
rho grows along rays, so ||u|| <= r exactly when rho(u / r) <= 1: a yes/no
question about a norm, such as the Picard stop, needs one modular sum and no
root.

The inequality checks pass to fixed tolerances: ``NORM_MODULAR_TOL`` for
:func:`check_norm_modular` and ``REVERSE_HOLDER_TOL`` for
:func:`reverse_holder_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .fem import DEFAULT_QUAD_ORDER, DiscreteFunction, Mesh, _lengths
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(w, s, e, keep) of weight * samples**expo flattened over the shape of
    ``expo``: the terms w * s**e of nonzero w and s, and the mask keeping them."""
    s = np.broadcast_to(samples, expo.shape).reshape(-1)
    e = expo.reshape(-1)
    w = np.broadcast_to(weight, expo.shape).reshape(-1)
    keep = (w != 0.0) & (s != 0.0)
    return w[keep], s[keep], e[keep], keep


def _powers(w: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The terms w * s**e that a modular sums; inf where one overflows."""
    with np.errstate(over="ignore"):
        return w * np.power(s, e)


def _logs(w: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The terms in log form, log w + e log s, finite for every kept term."""
    return np.log(w) + e * np.log(s)


# the public modular variants, by the samples each takes: |u|, |grad u| or both
_VARIANTS = {"value": ("value",), "gradient": ("gradient",), "sobolev": ("value", "gradient")}


def _check_variant(which: str) -> None:
    if which not in _VARIANTS:
        raise ValueError(f"unknown modular variant {which!r}, expected one of {list(_VARIANTS)}")


def _parts(u: DiscreteFunction, phase: DoublePhase, order: int, which: str) -> list:
    """(w, s, e) of each part of a modular variant, in term order.

    For each of |u| and |grad u| that the variant takes, the p-part and then
    the q-part.
    """
    p, q, mu, w = phase.at_quadrature(u.mesh, order)
    parts = []
    for on in _VARIANTS[which]:
        s = np.abs(u.values_at(order)) if on == "value" else u.gradient_norms()[:, None]
        parts += [_part_terms(s, p, w)[:3], _part_terms(s, q, w * mu)[:3]]
    return parts


def _collect_terms(
    u: DiscreteFunction, phase: DoublePhase, order: int, which: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(map(np.concatenate, zip(*_parts(u, phase, order, which))))


def _luxemburg_roots(
    logs: np.ndarray, expos: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve rho_i = 1 for every row of equal-length sums in log form.

    Row i is rho_i(tau) = sum_k exp(logs[i, k] + expos[i, k] * tau), with
    tau = -log lambda (a zero term has log -inf); returns arrays of lambda_i
    and of iteration counts.  Newton on the convex increasing log rho_i runs
    from tau_0 = min_k(-logs[i, k] / expos[i, k]), where the largest term is
    1 and none is larger, and only lowers tau, so rho_i stays in [1, n].

    A row stops when rho_i - 1 <= tol * e_max * min(t, 1), t = 1 / lambda:
    lambda is then within tol * e_max / e_min of the norm, absolutely for
    norms above one and relatively below, up to the rounding of tau (about
    |tau| ulp, relative).  It also stops at the rounding floor: when the
    computed rho_i <= 1, which in exact arithmetic only the root reaches, or
    when a step leaves tau unchanged.  Rows without terms get lambda = 0
    after zero iterations.  Raises NumericError for a norm outside the float
    range, or for the first row whose 300-iteration budget runs out.

    Each iteration takes one multiply-add, one ``exp``, one row sum and one
    row dot over the live rows; each row's stop and step are then taken in
    Python floats, and finished rows leave the block.  So a row's result does
    not depend on its block, and a single function is a block of one row.
    """
    if not 0.0 < tol < math.inf:  # tol = inf would stop every row after one step
        raise ValueError("tol must be positive and finite")
    taus = np.min(-logs / expos, axis=1, initial=math.inf)
    its = np.zeros(taus.size, dtype=int)
    live = np.flatnonzero(np.isfinite(taus)).tolist()
    A, E = logs[live], expos[live]
    tau, target = taus[live].tolist(), (tol * E.max(axis=1, initial=0.0)).tolist()
    buf = np.empty_like(A)  # one buffer for every sum's terms
    for it in range(1, 301):
        z = np.multiply(E, np.array(tau)[:, None], out=buf[: len(tau)])
        np.exp(np.add(z, A, out=z), out=z)
        slopes = np.matmul(E[:, None, :], z[:, :, None])[:, 0, 0].tolist()  # d rho / d tau
        go = []
        for i, (rho, slope) in enumerate(zip(z.sum(axis=1).tolist(), slopes)):
            prev = tau[i]
            if rho - 1.0 > target[i] * math.exp(min(prev, 0.0)):
                tau[i] -= math.log(rho) * rho / slope
            if tau[i] == prev:
                taus[live[i]], its[live[i]] = prev, it
            else:
                go.append(i)
        if not go:
            break
        if len(go) < len(live):
            A, E = A[go], E[go]
            live, tau, target = ([v[i] for i in go] for v in (live, tau, target))
    else:
        raise NumericError(
            f"Luxemburg norm missed its tolerance in 300 iterations (tau = -log lambda {tau[0]})"
        )
    with np.errstate(over="ignore"):
        lam = np.exp(-taus)
    if not np.all(np.isfinite(lam)):
        raise NumericError("Luxemburg norm outside the float range")
    return lam, its


def _root(w: np.ndarray, s: np.ndarray, e: np.ndarray, tol: float) -> tuple[float, int]:
    """(lambda, iterations) of one function's terms w * s**e."""
    lam, its = _luxemburg_roots(_logs(w, s, e)[None], e[None], tol)
    return float(lam[0]), int(its[0])


# Hats per batched root: bounds the term arrays, so peak memory stays flat.
_HAT_BLOCK = 256


def _hat_norms(mesh: Mesh, phase: DoublePhase, tol: float, order: int) -> np.ndarray:
    """Read-only gradient Luxemburg norms of the free-node hats, in node order.

    The mesh keeps the latest norms per (order, tol) in :meth:`Mesh.cached`,
    keyed by the three field objects as :meth:`DoublePhase.at_quadrature`
    keys its samples: a solve and its residual checks build them once, and
    reassigning a field (say ``phase.mu``) misses the cache.

    A hat's gradient is its local basis gradient on each element of its
    patch and zero elsewhere, so its log-form terms are built from the patch
    alone: the same terms, in the same order, as the full-mesh function would
    give (p-terms, then q-terms, by ascending element, zero weights dropped).
    The hats go through :func:`_luxemburg_roots` in blocks of ``_HAT_BLOCK``,
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
    s = _lengths(mesh.basis_gradients)  # |grad phi| of each (element, local vertex)
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
        terms = _part_terms(grads, p[e], w[e]), _part_terms(grads, q[e], wmu[e])
        hats = np.repeat(hat, nq)  # block hat of each (patch entry, sample)
        owner = np.concatenate([hats[keep] for *_, keep in terms])
        by_hat = np.argsort(owner, kind="stable")  # p-terms, then q-terms, of each hat
        logs = np.concatenate([_logs(*t[:3]) for t in terms])[by_hat]
        expos = np.concatenate([t[2] for t in terms])[by_hat]
        n_terms = np.bincount(owner, minlength=nodes.size)
        first = np.cumsum(n_terms) - n_terms
        block = norms[lo : lo + nodes.size]
        for n in np.unique(n_terms):
            rows = np.flatnonzero(n_terms == n)
            idx = first[rows, None] + np.arange(n)
            block[rows] = _luxemburg_roots(logs[idx], expos[idx], tol)[0]
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
    sums = [float(_powers(*part).sum()) for part in _parts(u, phase, order, on)]
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
    lam, its = _root(*_collect_terms(u, phase, order, which), tol)
    return LuxemburgResult(lam, its, which, tol)


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
    return _root(*_part_terms(np.abs(u.values_at(order)), q, w * mu)[:3], tol)[0]


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
    w, s, expos = _collect_terms(u, phase, order, which)
    lam = _root(w, s, expos, NORM_ROOT_TOL)[0]
    rho = float(_powers(w, s, expos).sum())
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
