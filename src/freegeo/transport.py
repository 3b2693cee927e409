"""Couplings and Wasserstein computations between ensembles.

Empirical W2 between equal-size ensembles is an optimal assignment under
squared tr_n cost; the value is an upper bound on the distance between the
underlying measures, which is the honest direction for every inequality
checked downstream.  One-dimensional spectral marginals use exact quantile
coupling.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .convex import ScalarFn
from .gibbs import Ensemble

__all__ = [
    "TransportPlan",
    "Quantile1D",
    "empirical_w2",
    "optimal_inner_product",
    "displacement",
    "spectral_w2_1d",
    "kantorovich_potentials_1d",
    "SinkhornError",
]

MAX_EXACT_COUNT = 4096


class SinkhornError(RuntimeError):
    pass


def _flat(e: Ensemble) -> np.ndarray:
    return e.samples.reshape(e.count, -1)


def _cost_matrix(a: Ensemble, b: Ensemble) -> np.ndarray:
    """C[i, j] = ||x_i - y_j||_{tr_n}^2 by direct differences (exact on ties)."""
    fa, fb = _flat(a), _flat(b)
    cost = np.empty((a.count, b.count))
    chunk = max(1, 2**22 // max(fb.size, 1))
    for lo in range(0, a.count, chunk):
        hi = min(lo + chunk, a.count)
        diff = fa[lo:hi, None, :] - fb[None, :, :]
        cost[lo:hi] = np.sum(np.abs(diff) ** 2, axis=2) / a.n
    return cost


def _ensemble_hash(e: Ensemble) -> str:
    return hashlib.sha256(np.ascontiguousarray(e.samples).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class TransportPlan:
    """A bijective pairing between two equal-count ensembles and its mean cost."""

    source: Ensemble = field(repr=False)
    target: Ensemble = field(repr=False)
    pairing: np.ndarray = field(repr=False)  # target index for each source index
    cost: float = 0.0

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

    ``exact`` solves the assignment problem (counts must match); ``sinkhorn``
    returns the entropic value at regularization eps_reg (default 0.01 x
    median cost) together with a rounded permutation plan.
    """
    _check_compatible(a, b)
    cost = _cost_matrix(a, b)
    if method == "exact":
        if a.count != b.count:
            raise ValueError(f"exact method needs equal counts, got {a.count} vs {b.count}")
        if a.count > MAX_EXACT_COUNT:
            raise ValueError(f"exact assignment capped at {MAX_EXACT_COUNT} samples")
        rows, cols = linear_sum_assignment(cost)
        perm = np.empty(a.count, dtype=int)
        perm[rows] = cols
        mean_cost = float(cost[rows, cols].mean())
        plan = TransportPlan(a, b, perm, mean_cost)
        return plan.w2, plan
    if method == "sinkhorn":
        if eps_reg is None:
            med = float(np.median(cost))
            eps_reg = 0.01 * med if med > 0 else 1e-6
        value, coupling = _sinkhorn(cost, eps_reg, max_iter, tol)
        if a.count == b.count:
            rows, cols = linear_sum_assignment(-coupling)
            perm = np.empty(a.count, dtype=int)
            perm[rows] = cols
            mean_cost = float(cost[rows, cols].mean())
            plan = TransportPlan(a, b, perm, mean_cost)
        else:
            raise ValueError("sinkhorn plans are rounded to a permutation; counts must match")
        return math.sqrt(max(value, 0.0)), plan
    raise ValueError(f"unknown method {method!r}")


def _sinkhorn(cost: np.ndarray, eps: float, max_iter: int, tol: float):
    """Log-domain Sinkhorn with uniform marginals; returns (<P, C>, P).

    Stops on the L1 marginal violation of the implied plan; at very small eps
    the soft-min saturates in float arithmetic, so a stalled pair of
    potentials with acceptable marginals also counts as converged.
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
                return float(np.sum(p * cost)), p
    raise SinkhornError(
        f"sinkhorn failed to converge in {max_iter} iterations (marginal error {err:.3e})"
    )


def _logsumexp_rows(s: np.ndarray) -> np.ndarray:
    mx = np.max(s, axis=1)
    return mx + np.log(np.sum(np.exp(s - mx[:, None]), axis=1))


def optimal_inner_product(a: Ensemble, b: Ensemble, method: str = "exact"):
    """C(a, b) = (E||x||^2 + E||y||^2 - W2^2) / 2; equals the paired mean inner product."""
    w2, plan = empirical_w2(a, b, method=method)
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


def spectral_w2_1d(x: np.ndarray, y: np.ndarray, atol: float = 1e-10) -> float:
    """W2 between empirical spectral distributions of two Hermitian matrices.

    Sorted-eigenvalue (quantile) coupling, exact in one dimension.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("inputs must be square matrices of the same size")
    if not np.allclose(x, x.conj().T, atol=atol) or not np.allclose(y, y.conj().T, atol=atol):
        raise ValueError("spectral_w2_1d requires Hermitian inputs")
    ex = np.sort(np.linalg.eigvalsh(x))
    ey = np.sort(np.linalg.eigvalsh(y))
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

    @classmethod
    def from_eigs(cls, mat: np.ndarray) -> "Quantile1D":
        return cls(np.linalg.eigvalsh(np.asarray(mat)))

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
        """Integral of the map from xs[0] to x (piecewise quadratic, exact)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xs, ys = self.xs, self.ys
        seg_int = np.concatenate(([0.0], np.cumsum((ys[1:] + ys[:-1]) / 2 * np.diff(xs))))
        out = np.empty_like(x)
        for i, xv in enumerate(x):
            if xv <= xs[0]:
                d = xs[0] - xv
                out[i] = -(ys[0] * d - d * d / 2)
            elif xv >= xs[-1]:
                d = xv - xs[-1]
                out[i] = seg_int[-1] + ys[-1] * d + d * d / 2
            else:
                k = int(np.searchsorted(xs, xv, side="right")) - 1
                d = xv - xs[k]
                if xs[k + 1] > xs[k]:
                    slope = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
                else:
                    slope = 0.0
                out[i] = seg_int[k] + ys[k] * d + slope * d * d / 2
        return out if out.size > 1 else float(out[0])

    def inverse_point(self, y: float) -> float:
        """A point x with map(x) = y (left end of a flat piece when not unique)."""
        xs, ys = self.xs, self.ys
        if y <= ys[0]:
            return xs[0] + (y - ys[0])
        if y >= ys[-1]:
            return xs[-1] + (y - ys[-1])
        k = int(np.searchsorted(ys, y, side="left"))
        k = max(k - 1, 0)
        while k < len(ys) - 1 and ys[k + 1] < y:
            k += 1
        if ys[k + 1] == ys[k]:
            return xs[k]
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

    def phi_val(x):
        return float(tmap.integral(x))

    def psi_val(y):
        # exact Legendre transform: the sup of xy - phi(x) sits at T(x) = y
        xstar = tmap.inverse_point(float(y))
        return float(xstar * y - tmap.integral(xstar))

    phi = ScalarFn(phi_val, grad=lambda x: float(tmap(np.atleast_1d(x))[0]),
                   strong_convexity=0.0, name="kantorovich_phi")
    psi = ScalarFn(psi_val, grad=lambda y: tmap.inverse_point(float(y)),
                   strong_convexity=0.0, name="kantorovich_psi")
    return phi, psi
