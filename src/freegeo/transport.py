"""Couplings and Wasserstein computations between ensembles.

Empirical W2 between equal-size ensembles is an optimal assignment under
squared tr_n cost; the value is an upper bound on the distance between the
underlying measures, which is the honest direction for every inequality
checked downstream.  The assignment reads a cost matrix built from one real
Gram product, ||x||^2 + ||y||^2 - 2<x, y>, whose entries differ from direct
differences by rounding only (at most 1e-14 for 256 samples of two 32 x 32
matrices, entries up to 4.4); the plan cost it reports is recomputed from
direct differences over the chosen pairs only, so a self-pairing costs
exactly 0.  One-dimensional spectral marginals use exact quantile coupling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .convex import ScalarFn
from .gibbs import Ensemble

__all__ = [
    "TransportPlan",
    "Quantile1D",
    "empirical_w2",
    "optimal_inner_product",
    "displacement",
    "spectral_w2_1d",
    "hermitian_spectra",
    "kantorovich_potentials_1d",
    "SinkhornError",
]

MAX_EXACT_COUNT = 4096


class SinkhornError(RuntimeError):
    pass


def _flat(e: Ensemble) -> np.ndarray:
    return e.samples.reshape(e.count, -1)


def _cost_matrix(a: Ensemble, b: Ensemble) -> np.ndarray:
    """C[i, j] = ||x_i - y_j||_{tr_n}^2 from one real Gram product, clipped at 0.

    Each complex sample is viewed as its interleaved real and imaginary parts,
    so Re<x, y> is a real dot product and the whole matrix costs one GEMM.
    """
    fa = _flat(a).view(np.float64)
    fb = _flat(b).view(np.float64)
    cost = fa @ fb.T
    cost *= -2.0
    cost += np.einsum("ij,ij->i", fa, fa)[:, None]
    cost += np.einsum("ij,ij->i", fb, fb)[None, :]
    cost /= a.n
    return np.maximum(cost, 0.0, out=cost)


def _pair_cost(a: Ensemble, b: Ensemble, perm: np.ndarray) -> float:
    """Mean of ||x_i - y_perm(i)||_{tr_n}^2 by direct differences over the pairs only."""
    fa, fb = _flat(a), _flat(b)
    return float((np.sum(np.abs(fa - fb[perm]) ** 2, axis=1) / a.n).mean())


def _ensemble_hash(e: Ensemble) -> str:
    """The first 16 hex digits of SHA-256 over the samples' bytes, read from the array's
    own buffer (``tobytes`` would copy a large_n ensemble first)."""
    return hashlib.sha256(np.ascontiguousarray(e.samples)).hexdigest()[:16]


@dataclass(frozen=True)
class TransportPlan:
    """A bijective pairing between two equal-count ensembles and its mean cost."""

    source: Ensemble = field(repr=False)
    target: Ensemble = field(repr=False)
    pairing: np.ndarray = field(repr=False)  # target index for each source index
    cost: float = 0.0
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        perm = np.asarray(self.pairing, dtype=int)
        if sorted(perm.tolist()) != list(range(self.source.count)):
            raise ValueError("pairing must be a bijection")
        perm = perm.copy()
        perm.setflags(write=False)
        object.__setattr__(self, "pairing", perm)

    @property
    def w2(self) -> float:
        return math.sqrt(max(self.cost, 0.0))

    def to_json(self) -> dict:
        return {
            "source": _ensemble_hash(self.source),
            "target": _ensemble_hash(self.target),
            "permutation": self.pairing.tolist(),
            "cost": self.cost,
        }


def _check_compatible(a: Ensemble, b: Ensemble):
    if a.n != b.n or a.m != b.m:
        raise ValueError(f"ensembles differ in shape: ({a.n},{a.m}) vs ({b.n},{b.m})")


def empirical_w2(a: Ensemble, b: Ensemble, method: str = "exact",
                 eps_reg: float | None = None, max_iter: int = 20_000,
                 tol: float = 1e-6) -> tuple[float, TransportPlan]:
    """W2 between two empirical ensembles under squared tr_n cost.

    ``exact`` solves the assignment problem; ``sinkhorn`` returns the entropic
    value at regularization eps_reg (default 0.01 x median cost) together with
    a rounded permutation plan.  Both need equal counts.  The plan's
    ``diagnostics`` hold the assignment size and, for ``sinkhorn``, its
    iteration count and final L1 marginal error.  scipy.optimize loads at
    the first call, not when this module is imported.
    """
    from scipy.optimize import linear_sum_assignment

    _check_compatible(a, b)
    if method not in ("exact", "sinkhorn"):
        raise ValueError(f"unknown method {method!r}")
    if a.count != b.count:
        raise ValueError(f"{method} method needs equal counts (plans are permutations), "
                         f"got {a.count} vs {b.count}")
    if method == "exact" and a.count > MAX_EXACT_COUNT:
        raise ValueError(f"exact assignment capped at {MAX_EXACT_COUNT} samples")
    if method == "sinkhorn" and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    cost = _cost_matrix(a, b)
    diagnostics = {"assignment_size": a.count}
    if method == "exact":
        rows, cols = linear_sum_assignment(cost)
    else:
        if eps_reg is None:
            med = float(np.median(cost))
            eps_reg = 0.01 * med if med > 0 else 1e-6
        value, coupling, iterations, marginal_error = _sinkhorn(cost, eps_reg, max_iter, tol)
        diagnostics.update(sinkhorn_iterations=iterations,
                           sinkhorn_marginal_error=marginal_error)
        rows, cols = linear_sum_assignment(-coupling)
    perm = np.empty(a.count, dtype=int)
    perm[rows] = cols
    plan = TransportPlan(a, b, perm, _pair_cost(a, b, perm), diagnostics)
    if method == "exact":
        return plan.w2, plan
    return math.sqrt(max(value, 0.0)), plan


def _sinkhorn(cost: np.ndarray, eps: float, max_iter: int, tol: float):
    """Log-domain Sinkhorn with uniform marginals.

    Returns (<P, C>, P, iterations, L1 marginal error of P before its final
    normalisation).  Stops on the L1 marginal violation of the implied plan;
    at very small eps the soft-min saturates in float arithmetic, so a stalled
    pair of potentials with acceptable marginals also counts as converged.
    """
    na, nb = cost.shape
    log_mu = -math.log(na)
    log_nu = -math.log(nb)
    f = np.zeros(na)
    g = np.zeros(nb)
    marginal_tol = max(tol, 1e-12)
    for it in range(max_iter):
        s = (-cost + f[:, None] + g[None, :]) / eps
        f_new = f + eps * (log_mu - _logsumexp_rows(s))
        s = (-cost + f_new[:, None] + g[None, :]) / eps
        g_new = g + eps * (log_nu - _logsumexp_rows(s.T))
        stalled = max(np.max(np.abs(f_new - f)), np.max(np.abs(g_new - g))) \
            < 1e-13 * max(1.0, np.max(np.abs(f_new)), np.max(np.abs(g_new)))
        f, g = f_new, g_new
        if it % 10 == 0 or stalled or it == max_iter - 1:
            p = np.exp((-cost + f[:, None] + g[None, :]) / eps)
            err = float(np.abs(p.sum(axis=1) - 1.0 / na).sum()
                        + np.abs(p.sum(axis=0) - 1.0 / nb).sum())
            if err < marginal_tol or (stalled and err < 1e3 * marginal_tol):
                p /= p.sum()
                return float(np.sum(p * cost)), p, it + 1, err
    raise SinkhornError(
        f"sinkhorn failed to converge in {max_iter} iterations (marginal error {err:.3e})"
    )


def _logsumexp_rows(s: np.ndarray) -> np.ndarray:
    mx = np.max(s, axis=1)
    return mx + np.log(np.sum(np.exp(s - mx[:, None]), axis=1))


def optimal_inner_product(a: Ensemble, b: Ensemble):
    """C(a, b) = (E||x||^2 + E||y||^2 - W2^2) / 2 by exact assignment; the paired mean."""
    _, plan = empirical_w2(a, b)
    ex = a.mean_squared_norm()
    ey = b.mean_squared_norm()
    c_val = 0.5 * (ex + ey - plan.cost)
    return c_val, plan


def displacement(plan: TransportPlan, t: float) -> Ensemble:
    """Samples (1-t) x_i + t y_{pairing(i)}: the empirical Wasserstein geodesic."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("interpolation parameter t must lie in [0, 1]")
    src = plan.source.samples
    tgt = plan.target.samples[plan.pairing]
    mixed = (1.0 - t) * src + t * tgt
    prov = {
        "displacement_t": t,
        "source": _ensemble_hash(plan.source),
        "target": _ensemble_hash(plan.target),
    }
    return Ensemble(mixed, prov, {})


def hermitian_spectra(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every matrix of a (k, n, n) Hermitian stack, shape (k, n).

    One batched ``eigvalsh``, which reads one triangle only, so each matrix
    must be finite and Hermitian to allclose's predicate at atol 1e-10 and
    rtol 1e-5; otherwise ``ValueError``.
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (k, n, n) stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("spectral input has non-finite entries")
    ah = np.swapaxes(a.conj(), 1, 2)
    if not np.all(np.abs(a - ah) <= 1e-10 + 1e-5 * np.abs(ah)):
        raise ValueError("spectral inputs must be Hermitian")
    return np.linalg.eigvalsh(a)


def spectral_w2_1d(x: np.ndarray, y: np.ndarray) -> float:
    """W2 between empirical spectral distributions of two Hermitian matrices.

    Sorted-eigenvalue (quantile) coupling, exact in one dimension; the
    spectra and their input checks are ``hermitian_spectra``'s.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("inputs must be square matrices of the same size")
    ex, ey = hermitian_spectra(np.stack([x, y]))  # ascending: the quantile coupling
    return float(np.sqrt(np.mean((ex - ey) ** 2)))


# ---------------------------------------------------------------------------
# 1-D quantile machinery and Kantorovich potentials


@dataclass(frozen=True)
class Quantile1D:
    """Empirical distribution on the line: sorted support, uniform weights."""

    support: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.sort(np.asarray(self.support, dtype=float).ravel())
        if arr.size == 0:
            raise ValueError("empty support")
        arr.setflags(write=False)
        object.__setattr__(self, "support", arr)

    @property
    def count(self) -> int:
        return self.support.size

    def quantile(self, u) -> np.ndarray:
        """Left-continuous empirical quantile function at levels u in (0, 1)."""
        idx = np.minimum((np.asarray(u) * self.count).astype(int), self.count - 1)
        return self.support[idx]

    def midpoint_quantiles(self, k: int) -> np.ndarray:
        return self.quantile((np.arange(k) + 0.5) / k)

    def second_moment(self) -> float:
        return float(np.mean(self.support**2))

    def w2(self, other: "Quantile1D") -> float:
        """Exact quantile-coupling W2; counts may differ (piecewise-constant CDFs)."""
        if self.count == other.count:
            return float(np.sqrt(np.mean((self.support - other.support) ** 2)))
        widths, qa, qb = self._cells(other)
        return float(np.sqrt(np.sum(widths * (qa - qb) ** 2)))

    def inner_product(self, other: "Quantile1D") -> float:
        """Monotone-coupling inner product: integral of Q_a(u) Q_b(u) du."""
        widths, qa, qb = self._cells(other)
        return float(np.sum(widths * qa * qb))

    def _cells(self, other: "Quantile1D"):
        """Widths of the level cells between both CDFs' jumps, and both quantiles on them."""
        cuts = np.union1d(np.arange(1, self.count) / self.count,
                          np.arange(1, other.count) / other.count)
        edges = np.concatenate(([0.0], cuts, [1.0]))
        mids = (edges[:-1] + edges[1:]) / 2
        return np.diff(edges), self.quantile(mids), other.quantile(mids)


class _MonotoneMap:
    """Continuous nondecreasing piecewise-linear map through (x_i, y_i) knots,
    extended with slope one beyond the data."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.concatenate(([True], np.diff(xs) > 1e-14))
        self.xs = xs[keep]
        self.ys = ys[keep]
        if np.any(np.diff(self.ys) < -1e-12):
            raise ValueError("targets must be nondecreasing for a monotone map")
        # the kept knots increase strictly, so every segment has a finite slope
        self.slopes = np.diff(self.ys) / np.diff(self.xs)
        self.seg_int = np.concatenate(
            ([0.0], np.cumsum((self.ys[1:] + self.ys[:-1]) / 2 * np.diff(self.xs))))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        xs, ys = self.xs, self.ys
        out = np.empty_like(x)
        below = x < xs[0]
        above = x > xs[-1]
        out[below] = ys[0] + (x[below] - xs[0])
        out[above] = ys[-1] + (x[above] - xs[-1])
        mid = ~(below | above)
        if np.any(mid):
            out[mid] = np.interp(x[mid], xs, ys)
        return out

    def integral(self, x):
        """Integral of the map from xs[0] to x (piecewise quadratic, exact).

        Arrays are evaluated elementwise and keep their shape; a scalar gives
        a float.
        """
        xa = np.asarray(x, dtype=float)
        xs, ys, seg_int = self.xs, self.ys, self.seg_int
        out = np.empty_like(xa)
        below = xa <= xs[0]
        above = (xa >= xs[-1]) & ~below
        mid = ~(below | above)
        d = xs[0] - xa[below]
        out[below] = -(ys[0] * d - d * d / 2)
        d = xa[above] - xs[-1]
        out[above] = seg_int[-1] + ys[-1] * d + d * d / 2
        xm = xa[mid]
        k = np.searchsorted(xs, xm, side="right") - 1
        d = xm - xs[k]
        out[mid] = seg_int[k] + ys[k] * d + self.slopes[k] * d * d / 2
        return float(out) if out.ndim == 0 else out

    def inverse_point(self, y: float) -> float:
        """A point x with map(x) = y (left end of a flat piece when not unique)."""
        xs, ys = self.xs, self.ys
        if y <= ys[0]:
            return xs[0] + (y - ys[0])
        if y >= ys[-1]:
            return xs[-1] + (y - ys[-1])
        # ys[0] < y < ys[-1], so the knot k below y has ys[k] < y <= ys[k + 1]
        k = int(np.searchsorted(ys, y, side="left")) - 1
        t = (y - ys[k]) / (ys[k + 1] - ys[k])
        return xs[k] + t * (xs[k + 1] - xs[k])


def kantorovich_potentials_1d(mu: Quantile1D, nu: Quantile1D):
    """Convex potentials (phi, psi) for the quantile coupling of (mu, nu).

    phi integrates the monotone rearrangement T pushing mu to nu, so the
    subgradient of phi maps mu's support onto nu's; psi is the exact Legendre
    transform of phi (phi has quadratic tails by the slope-one extension of
    T).  The Fenchel gap phi(x) + psi(y) - x y is nonnegative everywhere and
    vanishes on the quantile pairing.
    """
    xs = mu.support
    ys = nu.midpoint_quantiles(mu.count) if mu.count != nu.count else nu.support
    tmap = _MonotoneMap(xs, ys)

    def psi_val(y):
        # exact Legendre transform: the sup of xy - phi(x) sits at T(x) = y
        xstar = tmap.inverse_point(float(y))
        return float(xstar * y - tmap.integral(xstar))

    phi = ScalarFn(tmap.integral, grad=lambda x: float(tmap(np.atleast_1d(x))[0]),
                   strong_convexity=0.0, name="kantorovich_phi")
    psi = ScalarFn(psi_val, grad=lambda y: tmap.inverse_point(float(y)),
                   strong_convexity=0.0, name="kantorovich_psi")
    return phi, psi
