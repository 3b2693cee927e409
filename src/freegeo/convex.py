"""Convex analysis on a real inner-product space: inf-convolution, Legendre
transforms, displacement interpolation pairs, and curvature checkers.

Points can be floats, real numpy vectors, or MatrixTuples (with the real part
of the tr_n inner product); all routines dispatch on the backend through the
small vector shims below.  Inner minimizations use a damped proximal
fixed-point iteration with a golden-section fallback, stopping when the
strong-convexity certificate bounds the value error by the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matcore import MatrixTuple, real_inner

__all__ = [
    "ScalarFn",
    "ProxOptions",
    "InterpolationPair",
    "ConvexityReport",
    "inner",
    "vnorm",
    "quadratic_q",
    "inf_convolution",
    "hopf_lax",
    "legendre_strongly_convex",
    "legendre_fn",
    "interpolation_pair",
    "check_strong_convexity",
    "check_semiconcavity",
    "duality_gap",
    "ConvergenceError",
    "AdmissibilityError",
]


class ConvergenceError(ArithmeticError):
    pass


class AdmissibilityError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Backend shims


def inner(x, y) -> float:
    if isinstance(x, MatrixTuple):
        return real_inner(x, y)
    if np.isscalar(x) or isinstance(x, (int, float)):
        return float(x) * float(y)
    return float(np.dot(np.ravel(x), np.ravel(y)))


def vnorm(x) -> float:
    return math.sqrt(max(inner(x, x), 0.0))


def _axpy(a: float, x, y):
    """a*x + y on any backend."""
    if isinstance(x, MatrixTuple):
        return a * x + y
    if np.isscalar(x) or isinstance(x, (int, float)):
        return a * float(x) + float(y)
    return a * np.asarray(x, dtype=float) + np.asarray(y, dtype=float)


def _scale(a: float, x):
    if isinstance(x, MatrixTuple):
        return a * x
    if np.isscalar(x) or isinstance(x, (int, float)):
        return a * float(x)
    return a * np.asarray(x, dtype=float)


def _numeric_gradient(fn: Callable, x, h: float = 1e-6):
    if np.isscalar(x) or isinstance(x, (int, float)):
        return (fn(float(x) + h) - fn(float(x) - h)) / (2 * h)
    if isinstance(x, MatrixTuple):
        # gradient in the tr_n real metric: d f(x + t e) / dt = <g, e>_tr
        ent = np.array(x.entries)
        g = np.zeros_like(ent)
        for idx in np.ndindex(ent.shape):
            for unit in (1.0, 1.0j):
                e = np.zeros_like(ent)
                e[idx] = unit
                fp = fn(MatrixTuple(ent + h * e))
                fm = fn(MatrixTuple(ent - h * e))
                # <g, e>_tr = g[idx]-component / n, so scale back by n
                g[idx] += (fp - fm) / (2 * h) * unit * x.n
        return MatrixTuple(g)
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        e = np.zeros_like(x)
        e[idx] = 1.0
        g[idx] = (fn(x + h * e) - fn(x - h * e)) / (2 * h)
    return g


@dataclass
class ScalarFn:
    """A scalar function of a point with optional subgradient and declared curvature.

    ``strong_convexity`` is the constant c >= 0 with f - (c/2)||.||^2 convex;
    ``semiconcavity`` is the constant u (possibly inf) with f - (u/2)||.||^2 concave.
    """

    fn: Callable
    grad: Callable | None = None
    strong_convexity: float = 0.0
    semiconcavity: float = math.inf
    name: str = ""

    def __call__(self, x) -> float:
        return float(self.fn(x))

    def gradient(self, x):
        if self.grad is not None:
            return self.grad(x)
        return _numeric_gradient(self.fn, x)


def quadratic_q() -> ScalarFn:
    """q(x) = ||x||^2 / 2, the self-dual quadratic."""
    return ScalarFn(
        fn=lambda x: 0.5 * inner(x, x),
        grad=lambda x: x,
        strong_convexity=1.0,
        semiconcavity=1.0,
        name="q",
    )


@dataclass(frozen=True)
class ProxOptions:
    tol: float = 1e-12  # value-accuracy target for the inner infimum
    max_iter: int = 10_000
    damping: float = 0.5


# ---------------------------------------------------------------------------
# Inf-convolution (Hopf-Lax)


def _golden_section(fn, x_lo, x_hi, iters=80):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    seg = lambda t: _axpy(1.0 - t, x_lo, _scale(t, x_hi))
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(seg(c)), fn(seg(d))
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(seg(c))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(seg(d))
    t = (a + b) / 2
    return seg(t)


def _prox_argmin(phi: ScalarFn, t: float, x, opts: ProxOptions):
    """Minimize psi(y) = phi(y) + ||x-y||^2/(2t); returns (y*, psi(y*)).

    Uses the damped fixed point y <- (1-a) y + a (x - t grad phi(y)), which is
    gradient descent on psi with step a*t; psi is (1/t)-strongly convex, so
    (t/2)||grad psi||^2 bounds the value gap and serves as the stopping rule.
    """
    if t <= 0:
        raise ValueError("inf-convolution time must be positive")
    y = x
    psi = lambda z: phi(z) + inner(_axpy(-1.0, z, x), _axpy(-1.0, z, x)) / (2 * t)
    f_y = psi(y)
    alpha = opts.damping
    stalls = 0
    armijo = 0.1
    for _ in range(opts.max_iter):
        g_phi = phi.gradient(y)
        # grad psi = grad phi + (y - x)/t; the update with damping a is
        # gradient descent on psi with step a*t
        g_psi = _axpy(1.0 / t, _axpy(-1.0, x, y), g_phi)
        g_sq = inner(g_psi, g_psi)
        gap_bound = 0.5 * t * g_sq
        if gap_bound <= opts.tol:
            return y, f_y
        target = _axpy(-t, g_phi, x)  # fixed-point image x - t grad phi(y)
        accepted = False
        a = alpha
        while a > 1e-12:
            y_new = _axpy(1.0 - a, y, _scale(a, target))
            f_new = psi(y_new)
            # sufficient decrease keeps marginally-stable zigzags from crawling
            if f_new <= f_y - armijo * a * t * g_sq:
                y, f_y = y_new, f_new
                alpha = min(opts.damping, a * 1.3)
                accepted = True
                break
            a *= 0.5
        if not accepted:
            stalls += 1
            y_gs = _golden_section(psi, y, target)
            f_gs = psi(y_gs)
            if f_gs < f_y - 1e-18:
                y, f_y = y_gs, f_gs
            elif stalls > 2:
                return y, f_y
    raise ConvergenceError(
        f"proximal iteration did not reach tol={opts.tol} in {opts.max_iter} steps"
    )


def inf_convolution(phi: ScalarFn, t: float, x, opts: ProxOptions | None = None) -> float:
    """inf_y [phi(y) + ||x - y||^2 / (2 t)], up to opts.tol."""
    _, val = _prox_argmin(phi, t, x, opts or ProxOptions())
    return val


def hopf_lax(phi: ScalarFn, t: float, opts: ProxOptions | None = None) -> ScalarFn:
    """The inf-convolution phi_t as a ScalarFn with its inherited curvature.

    phi_t is always 1/t-semiconcave; u-semiconcavity of phi improves this to
    1/(t + 1/u), and c-strong convexity of phi yields 1/(t + 1/c).
    """
    opts = opts or ProxOptions()
    u_inv = 0.0 if math.isinf(phi.semiconcavity) else 1.0 / phi.semiconcavity
    u_new = 1.0 / (t + u_inv)
    c_new = 1.0 / (t + 1.0 / phi.strong_convexity) if phi.strong_convexity > 0 else 0.0

    def value(x):
        return inf_convolution(phi, t, x, opts)

    def grad(x):
        # grad phi_t(x) = (x - y*) / t with y* the prox point
        y_star, _ = _prox_argmin(phi, t, x, opts)
        return _scale(1.0 / t, _axpy(-1.0, y_star, x))

    return ScalarFn(value, grad, strong_convexity=c_new, semiconcavity=u_new,
                    name=f"hopf_lax({phi.name or 'phi'}, {t})")


# ---------------------------------------------------------------------------
# Legendre transform of strongly convex functions


def legendre_strongly_convex(phi: ScalarFn, y, opts: ProxOptions | None = None) -> float:
    """sup_x [<x,y> - phi(x)] via L(phi)(y) = ||y||^2/(2c) - (phi - c q)_{1/c}(y/c)."""
    c = phi.strong_convexity
    if c <= 0:
        raise ValueError("legendre_strongly_convex requires a declared constant c > 0")
    tilde = ScalarFn(
        fn=lambda z: phi(z) - 0.5 * c * inner(z, z),
        grad=(lambda z: _axpy(-c, z, phi.gradient(z))) if phi.grad is not None else None,
        strong_convexity=0.0,
    )
    try:
        val = inf_convolution(tilde, 1.0 / c, _scale(1.0 / c, y), opts)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"inner inf-convolution diverged; declared convexity constant c={c} "
            f"is likely invalid ({exc})"
        ) from exc
    return inner(y, y) / (2 * c) - val


def legendre_fn(phi: ScalarFn, opts: ProxOptions | None = None) -> ScalarFn:
    """The Legendre transform as a ScalarFn: convex and 1/c-semiconcave."""
    c = phi.strong_convexity
    inner_opts = opts or ProxOptions()

    def value(y):
        return legendre_strongly_convex(phi, y, inner_opts)

    def grad(y):
        tilde = ScalarFn(
            fn=lambda z: phi(z) - 0.5 * c * inner(z, z),
            grad=(lambda z: _axpy(-c, z, phi.gradient(z))) if phi.grad is not None else None,
        )
        x_star, _ = _prox_argmin(tilde, 1.0 / c, _scale(1.0 / c, y), inner_opts)
        return x_star

    return ScalarFn(value, grad, strong_convexity=0.0, semiconcavity=1.0 / c,
                    name=f"legendre({phi.name or 'phi'})")


# ---------------------------------------------------------------------------
# Interpolation pairs (displacement convex duality)


@dataclass
class InterpolationPair:
    """Dual pair (phi_{s,t}, psi_{s,t}) for the displacement interpolation.

    With (phi, psi) admissible and 0 <= s <= t <= 1, the derived pair is
    admissible, phi_{s,t} is (1-t)/(1-s)-strongly convex and t/s-semiconcave,
    psi_{s,t} is s/t-strongly convex and (1-s)/(1-t)-semiconcave, and duality
    gaps vanish along the interpolated points x_r = (1-r) x0 + r x1.
    """

    s: float
    t: float
    base_phi: ScalarFn
    base_psi: ScalarFn
    phi_st: ScalarFn = field(init=False)
    psi_st: ScalarFn = field(init=False)
    prox_opts: ProxOptions = field(default_factory=ProxOptions)

    def __post_init__(self):
        self.phi_st = _interp_fn(self.base_phi, self.s, self.t, self.prox_opts)
        self.psi_st = _interp_fn(self.base_psi, 1.0 - self.t, 1.0 - self.s, self.prox_opts)


def _interp_fn(phi: ScalarFn, s: float, t: float, opts: ProxOptions) -> ScalarFn:
    """The function phi_{s,t} of the interpolation construction.

    Boundary cases dispatch to closed forms: s = t gives q, s = 0 gives
    (1-t)/2 ||x||^2 + t phi(x).  For 0 < s the generic formula reduces to a
    quadratic plus a scaled inf-convolution at time s of z -> (1-s) phi(z/(1-s)).
    """
    if not 0.0 <= s <= t <= 1.0:
        raise ValueError("need 0 <= s <= t <= 1")
    if s == t:
        return quadratic_q()
    if s == 0.0:
        if t == 1.0:
            return ScalarFn(phi.fn, phi.grad, phi.strong_convexity, phi.semiconcavity,
                            name=phi.name)
        fn = lambda x: 0.5 * (1 - t) * inner(x, x) + t * phi(x)
        grad = (lambda x: _axpy(1 - t, x, _scale(t, phi.gradient(x)))) if phi.grad else None
        c_new = (1 - t) + t * phi.strong_convexity
        u_new = (1 - t) + t * phi.semiconcavity
        return ScalarFn(fn, grad, c_new, u_new, name=f"interp(0,{t})")

    # generic 0 < s <= t (t possibly 1): quadratic + inf-convolution form
    scaled = ScalarFn(
        fn=lambda z: (1 - s) * phi(_scale(1.0 / (1 - s), z)),
        grad=(lambda z: phi.gradient(_scale(1.0 / (1 - s), z))) if phi.grad else None,
        strong_convexity=phi.strong_convexity / (1 - s),
        semiconcavity=phi.semiconcavity / (1 - s),
    )
    quad_coeff = (1 - t) / (1 - s)
    mix = (t - s) / (1 - s)

    def fn(x):
        return 0.5 * quad_coeff * inner(x, x) + mix * inf_convolution(scaled, s, x, opts)

    def grad(x):
        y_star, _ = _prox_argmin(scaled, s, x, opts)
        hl_grad = _scale(1.0 / s, _axpy(-1.0, y_star, x))
        return _axpy(quad_coeff, x, _scale(mix, hl_grad))

    c_new = quad_coeff  # hopf-lax part is convex, quadratic part is exact
    u_new = t / s
    return ScalarFn(fn, grad if phi.grad else None, c_new, u_new, name=f"interp({s},{t})")


def interpolation_pair(
    phi: ScalarFn,
    psi: ScalarFn,
    s: float,
    t: float,
    admissibility_samples: list[tuple] | None = None,
    tol: float = 1e-8,
    prox_opts: ProxOptions | None = None,
) -> InterpolationPair:
    """Build (phi_{s,t}, psi_{s,t}); optionally spot-check admissibility first."""
    if admissibility_samples:
        for x, y in admissibility_samples:
            gap = duality_gap(phi, psi, x, y)
            if gap < -tol:
                raise AdmissibilityError(
                    f"pair violates phi(x)+psi(y) >= <x,y> by {-gap:.3e} at a sampled pair"
                )
    return InterpolationPair(s, t, phi, psi, prox_opts=prox_opts or ProxOptions())


# ---------------------------------------------------------------------------
# Curvature checkers and duality gap


@dataclass(frozen=True)
class ConvexityReport:
    max_violation: float
    n_checked: int
    worst: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.max_violation <= 0.0

    def to_json(self) -> dict:
        return {
            "max_violation": None if math.isinf(self.max_violation) else self.max_violation,
            "n_checked": self.n_checked,
            "ok": self.ok,
        }


def check_strong_convexity(f: ScalarFn | Callable, c: float, sample_pairs) -> ConvexityReport:
    """Midpoint inequality f((1-a)x + a y) <= (1-a)f(x) + a f(y) - (c/2)a(1-a)||x-y||^2.

    Returns the maximal violation over the sampled (x, y, alpha) triples;
    a positive value refutes c-strong convexity.
    """
    return _midpoint_check(f, c, sample_pairs, concave=False)


def check_semiconcavity(f: ScalarFn | Callable, u: float, sample_pairs) -> ConvexityReport:
    """Mirror of check_strong_convexity with the reversed inequality.

    f((1-a)x + a y) >= (1-a)f(x) + a f(y) - (u/2)a(1-a)||x-y||^2; u = inf
    passes vacuously.
    """
    if math.isinf(u):
        n = len(list(sample_pairs))
        return ConvexityReport(-math.inf, n, None)
    return _midpoint_check(f, u, sample_pairs, concave=True)


def _midpoint_check(f, curvature: float, sample_pairs, concave: bool) -> ConvexityReport:
    """Largest violation of the midpoint inequality with the given curvature constant."""
    fn = f.fn if isinstance(f, ScalarFn) else f
    worst, worst_at = -math.inf, None
    count = 0
    for x, y, alpha in sample_pairs:
        xa = _axpy(1.0 - alpha, x, _scale(alpha, y))
        d = _axpy(-1.0, y, x)
        lhs = fn(xa)
        rhs = ((1 - alpha) * fn(x) + alpha * fn(y)
               - 0.5 * curvature * alpha * (1 - alpha) * inner(d, d))
        v = rhs - lhs if concave else lhs - rhs
        count += 1
        if v > worst:
            worst, worst_at = v, (x, y, alpha)
    return ConvexityReport(worst, count, worst_at)


def duality_gap(phi: ScalarFn | Callable, psi: ScalarFn | Callable, x, y) -> float:
    """phi(x) + psi(y) - <x, y>; zero certifies y in the subgradient of phi at x."""
    fp = phi.fn if isinstance(phi, ScalarFn) else phi
    fq = psi.fn if isinstance(psi, ScalarFn) else psi
    return fp(x) + fq(y) - inner(x, y)
