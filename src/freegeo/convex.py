"""Convex analysis on a real inner-product space: inf-convolution, Legendre
transforms, displacement interpolation pairs, and curvature checkers.

Points are floats, real numpy vectors or MatrixTuples.  Every routine works
with the ``+``, ``-`` and scalar ``*`` that all three implement; ``inner`` (on
MatrixTuples the real part of the tr_n inner product) and the memo key
``_point_key`` are the two functions that look at a point's type.  Inner
minimizations are gradient descent with Barzilai-Borwein steps, stopping when
the strong-convexity certificate bounds the value error by _PROX_TOL, or
raising ConvergenceError; they take the analytic ``grad`` of the function
minimised over.

The derived functions ``hopf_lax``, ``legendre_fn`` and the generic branch of
the interpolation pair solve one prox per point for their value and gradient
together, and remember the last _MEMO_SIZE points they solved at (first in,
first out), keyed by the point's type, dtype, shape and bytes;
``inf_convolution`` and ``legendre_strongly_convex`` are the values of the
first two at one point.  A solve is deterministic, so a remembered answer is
the bits a fresh solve would give.  An entry holds the key bytes and one
gradient, 2 MiB each for MatrixTuple points with n = 256, m = 2, so a live
derived function then holds at most 16 x 4 MiB = 64 MiB.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matcore import MatrixTuple, real_inner

__all__ = [
    "ScalarFn",
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


_MEMO_SIZE = 16  # points remembered per derived function

# The inner prox solve: value-accuracy target of its infimum, step budget, and
# the trial step, as a fraction of t, of the first step and of any step where
# the last two accepted points show no positive curvature (every other trial
# is the Barzilai-Borwein step).
_PROX_TOL = 1e-12
_PROX_MAX_ITER = 10_000
_PROX_DAMPING = 0.5


# ---------------------------------------------------------------------------
# Inner product


def inner(x, y) -> float:
    if type(x) is float and type(y) is float:  # the scalar solvers' hot path
        return x * y
    if isinstance(x, MatrixTuple):
        return real_inner(x, y)
    if np.isscalar(x):
        return float(x) * float(y)
    return float(np.dot(np.ravel(x), np.ravel(y)))


def vnorm(x) -> float:
    return math.sqrt(max(inner(x, x), 0.0))


@dataclass
class ScalarFn:
    """A scalar function of a point with a gradient and declared curvature.

    ``grad`` is needed by every routine that minimises over the function
    (inf-convolution, Hopf-Lax, Legendre, interpolation pairs); ``gradient``
    raises a ValueError naming the function when it is None.  The checkers and
    ``duality_gap`` use values only.  ``strong_convexity`` is the constant
    c >= 0 with f - (c/2)||.||^2 convex; ``semiconcavity`` is the constant u
    (possibly inf) with f - (u/2)||.||^2 concave.
    """

    fn: Callable
    grad: Callable | None = None
    strong_convexity: float = 0.0
    semiconcavity: float = math.inf
    name: str = ""

    def __call__(self, x) -> float:
        return float(self.fn(x))

    def gradient(self, x):
        if self.grad is None:
            name = self.name or getattr(self.fn, "__qualname__", repr(self.fn))
            raise ValueError(f"ScalarFn {name} has no grad; minimising over it needs one")
        return self.grad(x)


def quadratic_q() -> ScalarFn:
    """q(x) = ||x||^2 / 2, the self-dual quadratic."""
    return ScalarFn(
        fn=lambda x: 0.5 * inner(x, x),
        grad=lambda x: x,
        strong_convexity=1.0,
        semiconcavity=1.0,
        name="q",
    )


# ---------------------------------------------------------------------------
# Inf-convolution (Hopf-Lax)


def _check_time(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise ValueError(f"inf-convolution time t must be finite and > 0, got {t}")


def _prox_argmin(phi: ScalarFn, t: float, x):
    """Minimize psi(y) = phi(y) + ||x-y||^2/(2t); returns (y*, psi(y*)).

    Each step is y <- (1-a) y + a (x - t grad phi(y)), gradient descent on psi
    with step a*t.  The trial a is the Barzilai-Borwein step
    <s, s> / (t <s, r>) of the last two accepted points (s the change in y, r
    the change in grad psi), clamped to 1; it is _PROX_DAMPING on the first
    step and when <s, r> <= 0.  The trial is halved until it decreases psi
    sufficiently below the largest of the last 10 accepted values (the
    nonmonotone Armijo test of Grippo, Lampariello and Lucidi that Raydan pairs
    with these steps; against the last value alone, long steps along a flat
    direction are refused while a steep one is off its minimum).  psi is
    (1/t)-strongly convex, so (t/2)||grad psi||^2 bounds the value gap and
    serves as the stopping rule: every returned point carries that
    certificate.  A trial halved to 1e-12 without a decrease (a ``grad`` that
    disagrees with ``fn``, or a phi that is not convex enough) raises
    ConvergenceError, as does running out of _PROX_MAX_ITER steps.
    """
    _check_time(t)
    inv_t = 1.0 / t

    def psi(z):
        d = x - z
        return phi(z) + inner(d, d) / (2 * t)

    y = x
    f_y = psi(y)
    y_prev = g_prev = None
    recent = deque([f_y], maxlen=10)
    armijo = 0.1
    for _ in range(_PROX_MAX_ITER):
        g_phi = phi.gradient(y)
        g_psi = inv_t * (y - x) + g_phi
        g_sq = inner(g_psi, g_psi)
        gap_bound = 0.5 * t * g_sq
        if gap_bound <= _PROX_TOL:
            return y, f_y
        a = _PROX_DAMPING
        if y_prev is not None:
            s = y - y_prev
            sr = inner(s, g_psi - g_prev)
            if sr > 0.0:
                a = min(1.0, inner(s, s) / (t * sr))
        target = x - t * g_phi  # fixed-point image x - t grad phi(y)
        while a > 1e-12:
            y_new = (1.0 - a) * y + a * target
            f_new = psi(y_new)
            if f_new <= max(recent) - armijo * a * t * g_sq:
                break
            a *= 0.5
        else:
            raise ConvergenceError(
                f"proximal line search found no decrease down to a step of 1e-12 at the "
                f"certificate (t/2)||grad psi||^2 = {gap_bound:.3e} > tol={_PROX_TOL}; "
                f"grad may disagree with the function"
            )
        y_prev, g_prev = y, g_psi
        y, f_y = y_new, f_new
        recent.append(f_y)
    raise ConvergenceError(
        f"proximal iteration did not reach tol={_PROX_TOL} in {_PROX_MAX_ITER} steps"
    )


def _point_key(x) -> tuple:
    """A point's type, dtype, shape and bytes: equal keys are bit-identical points."""
    arr = x.entries if isinstance(x, MatrixTuple) else np.asarray(x)
    return type(x), arr.dtype.str, arr.shape, arr.tobytes()


def _memoised(solve: Callable) -> tuple[Callable, Callable]:
    """(value, grad) closures over one memo of ``solve(x) -> (value, gradient)``.

    The memo keeps the last _MEMO_SIZE points, first in first out, so that a
    value and a gradient at one point, or a checker's repeated visits, cost one
    solve.  ``grad`` hands out a copy, so a caller that writes into a returned
    array cannot change a later answer.
    """
    memo: dict = {}

    def lookup(x):
        key = _point_key(x)
        hit = memo.get(key)
        if hit is None:
            hit = solve(x)
            if len(memo) >= _MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = hit
        return hit

    return (lambda x: lookup(x)[0]), (lambda x: copy.copy(lookup(x)[1]))


def inf_convolution(phi: ScalarFn, t: float, x) -> float:
    """inf_y [phi(y) + ||x - y||^2 / (2 t)], up to _PROX_TOL: the value of hopf_lax."""
    return hopf_lax(phi, t)(x)


def hopf_lax(phi: ScalarFn, t: float) -> ScalarFn:
    """The inf-convolution phi_t as a ScalarFn with its inherited curvature.

    phi_t is always 1/t-semiconcave; u-semiconcavity of phi improves this to
    1/(t + 1/u), and c-strong convexity of phi yields 1/(t + 1/c).
    """
    _check_time(t)
    # 1/inf = 0 gives the bare 1/t; a u = 0 (phi concave, so affine) stays 0
    u_new = 1.0 / (t + 1.0 / phi.semiconcavity) if phi.semiconcavity > 0 else 0.0
    c_new = 1.0 / (t + 1.0 / phi.strong_convexity) if phi.strong_convexity > 0 else 0.0

    def solve(x):
        # grad phi_t(x) = (x - y*) / t with y* the prox point
        y_star, val = _prox_argmin(phi, t, x)
        return val, (1.0 / t) * (x - y_star)

    value, grad = _memoised(solve)
    return ScalarFn(value, grad, strong_convexity=c_new, semiconcavity=u_new,
                    name=f"hopf_lax({phi.name or 'phi'}, {t})")


# ---------------------------------------------------------------------------
# Legendre transform of strongly convex functions


def legendre_strongly_convex(phi: ScalarFn, y) -> float:
    """sup_x [<x,y> - phi(x)]: the value of legendre_fn."""
    return legendre_fn(phi)(y)


def legendre_fn(phi: ScalarFn) -> ScalarFn:
    """The Legendre transform as a ScalarFn: convex and 1/c-semiconcave.

    L(phi)(y) = ||y||^2/(2c) - v with v the value of the prox of phi - c q at
    time 1/c and point y/c; the prox point x* = grad L(phi)(y) is the maximiser.
    """
    c = phi.strong_convexity
    if not c > 0:
        raise ValueError(f"the Legendre transform of {phi.name or 'phi'} requires a "
                         f"declared strong-convexity constant c > 0, got {c}")
    tilde = ScalarFn(
        fn=lambda z: phi(z) - 0.5 * c * inner(z, z),
        grad=lambda z: phi.gradient(z) - c * z,
    )

    def solve(y):
        try:
            x_star, val = _prox_argmin(tilde, 1.0 / c, (1.0 / c) * y)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"inner inf-convolution diverged; declared convexity constant c={c} "
                f"is likely invalid ({exc})"
            ) from exc
        return inner(y, y) / (2 * c) - val, x_star

    value, grad = _memoised(solve)
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

    def __post_init__(self):
        self.phi_st = _interp_fn(self.base_phi, self.s, self.t)
        self.psi_st = _interp_fn(self.base_psi, 1.0 - self.t, 1.0 - self.s)


def _interp_fn(phi: ScalarFn, s: float, t: float) -> ScalarFn:
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
        grad = lambda x: (1 - t) * x + t * phi.gradient(x)
        c_new = (1 - t) + t * phi.strong_convexity
        u_new = (1 - t) + t * phi.semiconcavity
        return ScalarFn(fn, grad, c_new, u_new, name=f"interp(0,{t})")

    # generic 0 < s <= t (t possibly 1): quadratic + inf-convolution form
    scaled = ScalarFn(
        fn=lambda z: (1 - s) * phi((1.0 / (1 - s)) * z),
        grad=lambda z: phi.gradient((1.0 / (1 - s)) * z),
        strong_convexity=phi.strong_convexity / (1 - s),
        semiconcavity=phi.semiconcavity / (1 - s),
    )
    quad_coeff = (1 - t) / (1 - s)
    mix = (t - s) / (1 - s)

    def solve(x):
        y_star, val = _prox_argmin(scaled, s, x)
        return (0.5 * quad_coeff * inner(x, x) + mix * val,
                quad_coeff * x + mix * ((1.0 / s) * (x - y_star)))

    fn, grad = _memoised(solve)
    c_new = quad_coeff  # hopf-lax part is convex, quadratic part is exact
    u_new = t / s
    return ScalarFn(fn, grad, c_new, u_new, name=f"interp({s},{t})")


def interpolation_pair(
    phi: ScalarFn,
    psi: ScalarFn,
    s: float,
    t: float,
    admissibility_samples: list[tuple] | None = None,
) -> InterpolationPair:
    """Build (phi_{s,t}, psi_{s,t}); optionally spot-check admissibility first,
    allowing each sampled duality gap a shortfall of 1e-8 below 0."""
    if admissibility_samples:
        for x, y in admissibility_samples:
            gap = duality_gap(phi, psi, x, y)
            if gap < -1e-8:
                raise AdmissibilityError(
                    f"pair violates phi(x)+psi(y) >= <x,y> by {-gap:.3e} at a sampled pair"
                )
    return InterpolationPair(s, t, phi, psi)


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
        xa = (1.0 - alpha) * x + alpha * y
        d = x - y
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
