"""Batch experiments reproducing the quantitative finite-n relations.

Each run_* function takes a RunConfig and returns a Report whose metrics
carry explicit targets, tolerances, and any finite-n slack entering a bound.
All randomness flows from the config seed, so reports reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .. import entropy as en
from .. import gibbs, logic, transport as tp
from ..matcore import (MatrixTuple, Seed, real_inner, sample_gue, sigma_max, tensor_embed,
                       tracial_norm)
from .config import RunConfig, parse_float_list, parse_str_list
from .report import Metric, Report

__all__ = [
    "run_counterexample",
    "run_talagrand",
    "run_geodesic",
    "run_moment_fixed_point",
    "run_qf_convergence",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# Counterexample suite (almost-commuting triple vs its low-entropy companion)


def _counterexample_draw(eps: float, k: int, l: int, seed: Seed):
    """One draw of the coupled pair (X, Y) at n = k*l.

    X = sqrt(1-eps) (G1 x I, G2 x I, I x G3) + sqrt(eps) (S1', S2', S3') with
    independent GUE blocks; Y = (X1, X2, eps S3') realizes the companion law,
    coupled so the first two coordinates coincide.  Also returns the second
    moments of G3 and S3' whose exact means (both 1) serve as control variates.
    """
    n = k * l
    g1 = sample_gue(k, seed.derive(1))
    g2 = sample_gue(k, seed.derive(2))
    g3 = sample_gue(l, seed.derive(3))
    sp = [sample_gue(n, seed.derive(4 + j)) for j in range(3)]
    a1, a3 = tensor_embed(g1, g3)
    a2, _ = tensor_embed(g2, g3)
    amats = [a1, a2, a3]
    x = [math.sqrt(1 - eps) * amats[j] + math.sqrt(eps) * sp[j] for j in range(3)]
    y = [x[0], x[1], eps * sp[2]]
    controls = (
        float(np.trace(g3 @ g3).real) / l,
        float(np.trace(sp[2] @ sp[2]).real) / n,
    )
    return MatrixTuple.from_matrices(*x), MatrixTuple.from_matrices(*y), controls


def run_counterexample(cfg: RunConfig) -> Report:
    eps = cfg["epsilon"]
    k, l, samples = cfg["k"], cfg["l"], cfg["samples"]
    n = k * l
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must be in (0, 1], got {eps}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    for key, size in (("k", k), ("l", l)):
        if size < 1:
            raise ValueError(f"{key} must be >= 1, got {size}")
    if n > 256:
        raise ValueError("counterexample supports n = k*l <= 256")
    if samples > 65535:
        raise ValueError(f"counterexample supports samples <= 65535 (one derived seed "
                         f"stream each), got {samples}")
    seed = Seed(cfg["seed"])
    report = Report("counterexample", cfg)

    comm_ops, comm_trs, dist2s, dist2s_cv, spectral = [], [], [], [], []
    max_opnorm = 0.0
    rows = []
    for i in range(samples):
        x, y, (mom_g3, mom_s3) = _counterexample_draw(eps, k, l, seed.derive(i))
        c13 = x.entries[0] @ x.entries[2] - x.entries[2] @ x.entries[0]
        comm_op = float(sigma_max(c13[None])[0])
        # y shares slots 0-1 with x, so R needs only x and y's third slot.  Every
        # slot is a real combination of GUE blocks and their tensor embeddings,
        # exactly Hermitian, so its operator norm is its largest |eigenvalue|,
        # and one eigvalsh per matrix serves R and the spectral W2 alike
        spectra = tp.hermitian_spectra(np.stack([*x.entries, y.entries[2]]))
        max_opnorm = max(max_opnorm, float(np.max(np.abs(spectra[:, [0, -1]]))))
        comm_tr = float(np.sqrt(np.sum(np.abs(c13) ** 2) / n))
        d2 = tracial_norm(x - y) ** 2
        # unbiased control-variate estimate: E tr(G3^2) = E tr(S3'^2) = 1 exactly,
        # removing the dominant small-block fluctuation from the distance
        d2_cv = d2 - (1 - eps) * (mom_g3 - 1.0) \
            - (math.sqrt(eps) - eps) ** 2 * (mom_s3 - 1.0)
        sw = tp.Quantile1D(spectra[2]).w2(tp.Quantile1D(spectra[3]))
        comm_ops.append(comm_op)
        comm_trs.append(comm_tr)
        dist2s.append(d2)
        dist2s_cv.append(d2_cv)
        spectral.append(sw)
        rows.append({"sample": i, "commutator_opnorm": comm_op,
                     "commutator_trnorm": comm_tr, "coupled_dist2": d2,
                     "coupled_dist2_controlled": d2_cv, "spectral_w2": sw})
    report.series["samples"] = rows

    # (i) commutator norm against 24 sqrt(eps) with Tracy-Widom-scale slack
    tw_slack = 5.0 * n ** (-2.0 / 3.0)
    band = 24.0 * math.sqrt(eps) * (1.0 + tw_slack)
    mean_comm = float(np.mean(comm_ops))
    report.add("commutator_norm", Metric(
        value=mean_comm, target=band, tolerance=0.0, passed=mean_comm <= band,
        provenance="operator-norm bound 24 sqrt(eps), semicircular norm 2",
        comparison="upper_bound",
        slack={"tracy_widom_factor": tw_slack, "mean_trnorm": float(np.mean(comm_trs))},
    ))

    # (ii) coupled distance against [1 - 2 eps^{3/2} + eps^2]^{1/2}
    target_dist = math.sqrt(1 - 2 * eps**1.5 + eps**2)
    meas_dist = math.sqrt(float(np.mean(dist2s_cv)))
    tol_dist = 0.01
    report.add("coupled_distance", Metric(
        value=meas_dist, target=target_dist, tolerance=tol_dist,
        passed=abs(meas_dist - target_dist) <= tol_dist,
        provenance="coupling with matching first two coordinates; control-variate"
                   " mean over samples",
        slack={
            "raw_value": math.sqrt(float(np.mean(dist2s))),
            "monte_carlo_sd": float(np.std(dist2s_cv) / math.sqrt(samples)),
            "raw_monte_carlo_sd": float(np.std(dist2s) / math.sqrt(samples)),
        },
    ))

    # (iii) spectral 1-D marginal lower bound 1 - eps; the finite-n slack is
    # 0.02 at the reference size n = 64 and scales like 1/n (the Jensen gap
    # of the small-block second moment)
    spec_slack = 0.02 * 64.0 / n
    spec_target = 1 - eps - spec_slack
    mean_spec = float(np.mean(spectral))
    report.add("spectral_lower_bound", Metric(
        value=mean_spec, target=spec_target, tolerance=0.0,
        passed=mean_spec >= spec_target,
        provenance="third-coordinate quantile coupling lower bound 1 - eps",
        comparison="lower_bound", slack={"finite_n": spec_slack},
    ))

    # (iv) entropy/transport trade-off with measured deficit a and excess b
    chi_target = 2 * en.semicircular_entropy(1.0) + en.semicircular_entropy(eps)
    h_model = 2 * en.semicircular_entropy(eps) + en.semicircular_entropy(eps**2)
    a_deficit = chi_target - h_model
    meas2 = float(np.mean(dist2s_cv))
    brackets = {
        "bracket_low": max(meas2 - (1 - eps**1.5) ** 2, 0.0),
        "bracket_high": max(meas2 - (1 - eps) ** 2, 0.0),
    }
    rhs = eps**0.25
    ok = True
    values = {}
    for label, b_excess in brackets.items():
        lhs = math.exp(a_deficit / 2.0) * (
            (25 + 6 * max_opnorm) * math.sqrt(eps) + 2 * max_opnorm * math.sqrt(b_excess)
        )
        values[label] = lhs
        ok = ok and lhs >= rhs
    report.add("tradeoff_inequality", Metric(
        value=min(values.values()), target=rhs, tolerance=0.0, passed=ok,
        provenance="analytic entropy deficit; distance bracket endpoints for the"
                   " non-computable coupled infimum",
        comparison="lower_bound",
        slack={"a_deficit": a_deficit, "R": max_opnorm, **brackets},
    ))
    return report


# ---------------------------------------------------------------------------
# Talagrand inequality for Gibbs ensembles


def _half_split_bias(ens: gibbs.Ensemble) -> float:
    """Same-law matching cost between ensemble halves: the finite-sample slack."""
    half = ens.count // 2
    if half < 2:
        return 0.0
    a = gibbs.Ensemble(ens.samples[:half])
    b = gibbs.Ensemble(ens.samples[half : 2 * half])
    _, plan = tp.empirical_w2(a, b)
    return plan.cost


def run_talagrand(cfg: RunConfig) -> Report:
    n, m = cfg["n"], cfg["m"]
    c = cfg["c"]
    gamma = cfg["quartic"]
    alpha = cfg["tilt"]
    samples = cfg["samples"]
    if cfg["seeds"] < 1:
        raise ValueError(f"seeds must be >= 1, got {cfg['seeds']}")
    report = Report("talagrand", cfg)

    base = gibbs.Potential.quadratic(c, m)
    if gamma:
        base = base.with_quartic(gamma, slots=[0])
    tilted = base.with_tilt([alpha] + [0.0] * (m - 1))

    ratios = []
    rows = []
    chains = []  # sampler diagnostics of the mu, nu and TI node chains per seed
    for s in range(cfg["seeds"]):
        seed = Seed(cfg["seed"], s)
        mu_ens = gibbs.sample_gibbs(base, n, m, samples, gibbs.SamplerOptions(seed=seed.derive(1)))
        nu_ens = gibbs.sample_gibbs(tilted, n, m, samples, gibbs.SamplerOptions(seed=seed.derive(2)))
        chains += [{"seed": s, "measure": name, **ens.diagnostics}
                   for name, ens in (("mu", mu_ens), ("nu", nu_ens))]
        _, plan = tp.empirical_w2(mu_ens, nu_ens)
        d2_raw = plan.cost
        bias = 0.5 * (_half_split_bias(mu_ens) + _half_split_bias(nu_ens))

        if gamma == 0.0:
            kl = n * n * alpha * alpha / (2 * c)
            kl_prov = "analytic Gaussian translate"
        else:
            delta, _, _, ti_chains = en.thermo_delta(base, tilted, n, m, seed=seed.derive(3),
                                                     nodes=cfg["ti_nodes"],
                                                     samples_per_node=max(64, samples // 2))
            chains += [{"seed": s, "measure": "ti", **row} for row in ti_chains]
            tilt_vals = [alpha * float(np.trace(t.entries[0]).real) / n for t in nu_ens.tuples()]
            kl = -n * n * float(np.mean(tilt_vals)) - delta
            kl_prov = "log-partition thermodynamic integration"
        bound = 2.0 * kl / (c * n * n)
        ratio = d2_raw / bound if bound > 0 else math.inf
        ratio_corr = max(d2_raw - bias, 0.0) / bound if bound > 0 else math.inf
        ratios.append(ratio)
        rows.append({"seed": s, "d2_raw": d2_raw, "bias": bias, "kl": kl,
                     "bound": bound, "ratio": ratio, "ratio_corrected": ratio_corr})
    report.series["seeds"] = rows
    report.series["chains"] = chains

    mean_ratio = float(np.mean(ratios))
    if gamma == 0.0 and alpha != 0.0:
        tol = 0.10
        passed = all(abs(r - 1.0) <= tol for r in ratios)
        report.add("equality_ratio", Metric(
            value=mean_ratio, target=1.0, tolerance=tol, passed=passed,
            provenance=f"Gaussian translate equality case; KL {kl_prov}",
            slack={"matching_bias": float(np.mean([r["bias"] for r in rows])),
                   "worst_ratio": float(np.max(np.abs(np.array(ratios) - 1.0)))},
        ))
    else:
        passed = all(r <= 1.0 for r in ratios)
        report.add("inequality_ratio", Metric(
            value=float(np.max(ratios)), target=1.0, tolerance=0.0, passed=passed,
            provenance=f"W2^2 <= (2/c n^2) KL; KL {kl_prov}",
            comparison="upper_bound",
            slack={"matching_bias": float(np.mean([r["bias"] for r in rows]))},
        ))
    return report


# ---------------------------------------------------------------------------
# Geodesic entropy sandwich (classical low-dimensional analog)


def _gaussian_map(cov0, cov1):
    """A of the optimal transport map T(x) = m1 + A (x - m0) between Gaussians."""
    s0 = np.atleast_2d(cov0)
    s1 = np.atleast_2d(cov1)
    r0 = _sqrtm_sym(s0)
    r0i = np.linalg.inv(r0)
    mid = _sqrtm_sym(r0 @ s1 @ r0)
    return r0i @ mid @ r0i


def _sqrtm_sym(s):
    vals, vecs = np.linalg.eigh(np.atleast_2d(s))
    if np.any(vals <= 0):
        raise ValueError("covariance must be positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def _broadcast_vec(text: str, dim: int, fill: float) -> np.ndarray:
    vals = parse_float_list(text) or [fill]
    if len(vals) == 1:
        vals = vals * dim
    if len(vals) != dim:
        raise ValueError(f"expected 1 or {dim} comma-separated values, got {len(vals)}")
    return np.array(vals)


def run_geodesic(cfg: RunConfig) -> Report:
    dim = cfg["dim"]
    mean0 = _broadcast_vec(cfg["mean0"], dim, 0.0)
    mean1 = _broadcast_vec(cfg["mean1"], dim, 0.0)
    cov0 = np.diag(_broadcast_vec(cfg["cov0"], dim, 1.0))
    cov1 = np.diag(_broadcast_vec(cfg["cov1"], dim, 1.0))
    grid = parse_float_list(cfg["grid"])
    if not all(0 < t < 1 for t in grid):
        raise ValueError(f"grid points must lie in (0, 1), got {cfg['grid']!r}")
    if len(grid) < 2:  # the sandwich compares pairs of points
        raise ValueError(f"grid must name >= 2 points, got {cfg['grid']!r}")
    tol = cfg["tolerance"]
    rng = Seed(cfg["seed"]).rng()
    report = Report("geodesic", cfg)

    a = _gaussian_map(cov0, cov1)
    base = rng.multivariate_normal(mean0, cov0, size=cfg["samples"])
    tmap = lambda x: mean1[None, :] + (x - mean0[None, :]) @ a.T

    h_rows = []
    h_knn = {}
    h_exact = {}
    for t in grid:
        mt = (1 - t) * np.eye(dim) + t * a
        pushed = (1 - t) * base + t * tmap(base)
        h_exact[t] = 0.5 * (dim * math.log(2 * math.pi * math.e)
                            + float(np.linalg.slogdet(cov0)[1])) \
            + float(np.linalg.slogdet(mt)[1])
        h_knn[t] = en.knn_entropy(pushed, k=cfg["knn_k"])
        h_rows.append({"t": t, "h_exact": h_exact[t], "h_knn": h_knn[t]})
    report.series["entropies"] = h_rows

    worst_lo, worst_hi = math.inf, math.inf
    all_ok = True
    pair_rows = []
    for i, s in enumerate(grid):
        for t in grid[i + 1 :]:
            lower = dim * math.log((1 - t) / (1 - s))
            upper = dim * math.log(t / s)
            for label, table in (("knn", h_knn), ("exact", h_exact)):
                dh = table[t] - table[s]
                ok = (lower - tol <= dh <= upper + tol)
                all_ok = all_ok and ok
                if label == "knn":
                    worst_lo = min(worst_lo, dh - lower)
                    worst_hi = min(worst_hi, upper - dh)
                pair_rows.append({"s": s, "t": t, "estimator": label, "dh": dh,
                                  "lower": lower, "upper": upper, "ok": ok})
    report.series["sandwich"] = pair_rows
    report.add("sandwich", Metric(
        value=float(min(worst_lo, worst_hi)), target=0.0, tolerance=tol,
        passed=all_ok,
        provenance="entropy difference between displacement interpolants vs "
                   "d log((1-t)/(1-s)) and d log(t/s)",
        comparison="lower_bound",
        slack={"estimator_tolerance": tol, "samples": cfg["samples"]},
    ))
    return report


# ---------------------------------------------------------------------------
# Quasi-moment fixed point (classical 1-D analog)


def _grid_entropy(weights: np.ndarray, dx: float) -> float:
    p = weights[weights > 0]
    return float(-np.sum(p * np.log(p / dx)))


def run_moment_fixed_point(cfg: RunConfig) -> Report:
    t_reg = cfg["t"]
    iters = cfg["iterations"]
    kq = cfg["quantiles"]
    if not 0 < t_reg < math.inf:
        raise ValueError(f"regularization t must be finite and > 0, got {t_reg}")
    if cfg["matrix_scale"]:
        return run_moment_matrix_scale(cfg)
    if cfg["grid_points"] < 2:
        raise ValueError(f"grid_points must be >= 2, got {cfg['grid_points']}")
    if iters < 1:
        raise ValueError(f"iterations must be >= 1, got {iters}")
    if kq < 1:
        raise ValueError(f"quantiles must be >= 1, got {kq}")
    from scipy.special import ndtri  # the Gaussian quantile that norm.ppf calls

    report = Report("moment", cfg)

    if cfg["mu"] == "delta0":
        mu = tp.Quantile1D(np.zeros(1))
    elif cfg["mu"] == "gaussian":
        mu = tp.Quantile1D(ndtri((np.arange(kq) + 0.5) / kq))
    else:
        mu = tp.Quantile1D(np.array(parse_float_list(cfg["mu"])))
    if mu.count > 10_000:
        raise ValueError("mu is capped at 10^4 atoms")

    half = cfg["grid_halfwidth"] or (6.0 / math.sqrt(t_reg)
                                     + float(np.max(np.abs(mu.support))) + 2.0)
    grid = np.linspace(-half, half, cfg["grid_points"])
    dx = grid[1] - grid[0]

    nu = tp.Quantile1D(ndtri((np.arange(kq) + 0.5) / kq))
    rows = []
    w2_steps = []
    for it in range(iters):
        phi, _ = tp.kantorovich_potentials_1d(nu, mu)  # subgradient pushes nu to mu
        log_w = -phi.fn(grid) - t_reg * grid**2 / 2.0  # the whole grid at once
        log_w -= log_w.max()
        weights = np.exp(log_w)
        total = weights.sum() * dx
        if not math.isfinite(total) or total <= 0:
            raise ArithmeticError("Gibbs density underflowed on the grid")
        weights = weights / weights.sum()

        cdf = np.cumsum(weights)
        levels = (np.arange(kq) + 0.5) / kq
        nu_next = tp.Quantile1D(np.interp(levels, cdf, grid))
        step = nu.w2(nu_next)
        w2_steps.append(step)

        h_val = _grid_entropy(weights, dx)
        c_val = mu.inner_product(nu_next)
        q_val = 0.5 * float(np.sum(weights * grid**2))
        obj = h_val - c_val - t_reg * q_val
        rows.append({"iteration": it, "objective": obj, "entropy": h_val,
                     "inner_product": c_val, "quadratic": q_val, "w2_step": step})
        nu = nu_next
    report.series["iterates"] = rows

    objs = [r["objective"] for r in rows]
    drops = [max(objs[i] - objs[i + 1], 0.0) for i in range(len(objs) - 1)]
    max_drop = max(drops, default=0.0)
    report.add("objective_monotone", Metric(
        value=max_drop, target=0.0, tolerance=0.02, passed=max_drop <= 0.02,
        provenance="alternating maximization of h(nu) - C(mu, nu) - t (nu, q)",
        slack={"grid_points": cfg["grid_points"], "quantiles": kq},
    ))

    residual = w2_steps[-1] if w2_steps else math.nan
    early = max(w2_steps[: max(2, len(w2_steps) // 4)], default=1.0)
    report.add("terminal_residual", Metric(
        value=residual, target=0.0, tolerance=max(2.0 * early, 1e-3),
        passed=residual <= max(2.0 * early, 1e-3),
        provenance="W2 distance between the last iterate and its Gibbs update",
        slack={"early_step": early},
    ))

    if cfg["mu"] == "delta0":
        target_atoms = ndtri((np.arange(kq) + 0.5) / kq) / math.sqrt(t_reg)
        w2_to_target = nu.w2(tp.Quantile1D(target_atoms))
        report.add("gaussian_fixed_point", Metric(
            value=w2_to_target, target=0.0, tolerance=0.01,
            passed=w2_to_target <= 0.01,
            provenance="calculus-of-variations maximizer N(0, 1/t) for mu = delta_0",
            slack={"quantile_discretization": 1.0 / kq},
        ))
    return report


# ---------------------------------------------------------------------------
# Matrix-scale quasi-moment sampler (behind the matrix_scale flag)


class _EnvelopePotential:
    """t-strongly convex potential sup_x [re<x,y> - eta(x)/eps] + t q(y).

    eta is the summed absolute deviation of all degree-<=2 moments of x from
    those of the scalar-tuple target a I; the absolute (rather than squared)
    form keeps the envelope gain O(eps) even in directions where moments move
    only quadratically, so the sup collapses to the target at rate eps.  The
    exact sup is a supremum of affine functions of y, hence convex, and its
    gradient is the inner maximizer plus t y (the envelope rule).  The value
    computed here is a local ascent: the inner sup over the operator-norm
    ball of the given radius runs on ``logic._ascend`` warm-started from the
    last maximizer, so once that ascent moves the value depends on the query
    history and can break convexity slightly (midpoint violations of a few
    1e-3 at ``type_epsilon`` 0.2).  A query of another size than the last
    one (the sampler's convexity spot check runs at min(n, 8)) restarts from
    the target a I at its own size.  Meets the sampler's potential contract:
    ``c``, ``formula_text()`` and ``bind(m)``.
    """

    def __init__(self, target: np.ndarray, t: float, eps: float, radius: float,
                 n: int, m: int):
        self.c = t
        self.t = t
        self.eps = eps
        self.radius = radius
        self.target = np.atleast_1d(np.asarray(target, dtype=float))
        # (word, slot word) for every word of degree 1 or 2, as qf_type reads them
        words, slot_words, _ = logic._qf_words(m, 2)
        self.words = [(w, sw) for w, sw in zip(words, slot_words) if w]
        start = MatrixTuple.scalar(self.target, n)
        self.tau = logic.qf_type(start, 2).moments
        self._warm = start.entries
        self._opts = logic.EvalOptions(starts=1, iters=30, step=0.25 * eps, tol=1e-13 / radius)

    def formula_text(self) -> str:
        return (f"envelope: sup_x [re<x,y> - eta(x)/{self.eps}] + {self.t}*q, "
                f"target {self.target.tolist()}, radius {self.radius}")

    def _eta(self, x: MatrixTuple):
        """eta(x), and the trace polynomial whose real part has the gradient of eta at x."""
        moments = logic.qf_type(x, 2).moments
        diffs = [(moments[w] - self.tau[w], sw) for w, sw in self.words]
        # d|m_w - tau| = re(conj(unit(m_w - tau)) dm_w): freeze the unit factor
        # as a coefficient and take the cyclic derivative of the trace polynomial
        return (sum(abs(d) for d, _ in diffs),
                [(np.conj(d) / abs(d), sw) for d, sw in diffs if abs(d) > 1e-14])

    def _solve(self, y: MatrixTuple):
        """(maximizer, value) of the inner sup.  ``value`` keeps the unit-coefficient
        terms of its last eta for ``gradient``: one ``trace_pass`` per accepted point."""
        eta_terms = []

        def value(x: np.ndarray) -> float:
            xt = MatrixTuple(x)
            eta, eta_terms[:] = self._eta(xt)
            return real_inner(xt, y) - eta / self.eps

        def gradient(x: np.ndarray) -> np.ndarray:
            return y.entries - logic.trace_pass(eta_terms, x, range(len(x)))[1] / self.eps

        warm = self._warm
        if warm.shape != y.entries.shape:
            warm = MatrixTuple.scalar(self.target, y.n).entries
        fx, self._warm = logic._ascend(value, gradient, warm, self.radius, self._opts)
        return self._warm, fx

    def bind(self, m: int):
        """The sampler's kernel ``entries -> (value, gradient)``; nothing is bound,
        since the inner ascent carries its warm start from call to call."""

        def value_and_gradient(entries: np.ndarray) -> tuple[float, np.ndarray]:
            y = MatrixTuple(entries)
            x_star, sup_val = self._solve(y)
            return sup_val + 0.5 * self.t * real_inner(y, y), x_star + self.t * entries

        return value_and_gradient


def run_moment_matrix_scale(cfg: RunConfig) -> Report:
    """Quasi-moment sampling at matrix scale with envelope gradients.

    For a scalar-tuple target a I the maximizer of the regularized objective
    is exactly the Gaussian ensemble tilted by <a, .>: mean tuple -a/t I and
    E||Y||^2 = 2m/t + ||a||^2/t^2, which anchors the check.
    """
    n, m = cfg["n"], cfg["m"]
    t_reg = cfg["t"]
    a_val = cfg["target"]
    eps, radius = cfg["type_epsilon"], cfg["radius"]
    if not 0 < eps < math.inf:
        raise ValueError(f"type_epsilon must be finite and > 0, got {eps}")
    if not math.isfinite(a_val):
        raise ValueError(f"target must be finite, got {a_val}")
    if not (radius > 0 and abs(a_val) <= radius < math.inf):
        raise ValueError(f"radius must be finite, > 0 and >= |target| = {abs(a_val)}, got {radius}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    report = Report("moment", cfg)
    pot = _EnvelopePotential(np.full(m, a_val), t_reg, eps, radius, n, m)
    ens = gibbs.sample_gibbs(pot, n, m, cfg["count"],
                             gibbs.SamplerOptions(seed=Seed(cfg["seed"]),
                                                  convexity_spot_pairs=6))
    mean_diag = float(np.trace(ens.mean_tuple().entries[0]).real / n)
    mean_sq = ens.mean_squared_norm()
    target_mean = -a_val / t_reg
    target_sq = 2 * m / t_reg + m * (a_val / t_reg) ** 2
    # O(eps) envelope bias plus Monte Carlo noise
    tol_mean = 0.1 + 2.0 * eps
    tol_sq = 0.1 * target_sq + 2.0 * eps
    report.add("mean_tuple", Metric(
        value=mean_diag, target=target_mean, tolerance=tol_mean,
        passed=abs(mean_diag - target_mean) <= tol_mean,
        provenance="envelope-gradient Gibbs sampler vs tilted-Gaussian maximizer",
        slack={"type_epsilon": eps,
               "acceptance": ens.diagnostics["acceptance_rate"]},
    ))
    report.add("second_moment", Metric(
        value=mean_sq, target=target_sq, tolerance=tol_sq,
        passed=abs(mean_sq - target_sq) <= tol_sq,
        provenance="E||Y||^2 of the quasi-moment ensemble vs 2m/t + ||a||^2/t^2",
        slack={"type_epsilon": eps},
    ))
    report.series["diagnostics"] = [dict(ens.diagnostics)]
    return report


# ---------------------------------------------------------------------------
# Quantifier-free concentration trend across the n-ladder


def run_qf_convergence(cfg: RunConfig) -> Report:
    ladder = [int(v) for v in parse_float_list(cfg["n_ladder"])]
    formulas = parse_str_list(cfg["formulas"])
    m = cfg["m"]
    samples = cfg["samples"]
    if samples < 2:
        raise ValueError(f"samples must be >= 2 (the spread needs two values), got {samples}")
    if not ladder:
        raise ValueError(f"n_ladder must name at least one size, got {cfg['n_ladder']!r}")
    if min(ladder) < 1:
        raise ValueError(f"n_ladder sizes must be >= 1, got {cfg['n_ladder']!r}")
    report = Report("qfconv", cfg)
    pot = gibbs.Potential.quadratic(cfg["c"], m)
    parsed = [(text, logic.parse(text)) for text in formulas]
    if not all(logic.is_quantifier_free(ast) for _, ast in parsed):
        raise ValueError("qfconv requires quantifier-free formulas")

    rows = []
    chains = []  # sampler diagnostics, one row per n
    stds: dict[str, list[float]] = {text: [] for text in formulas}
    for idx, n in enumerate(ladder):
        ens = gibbs.sample_gibbs(pot, n, m, samples,
                                 gibbs.SamplerOptions(seed=Seed(cfg["seed"], idx)))
        chains.append({"n": n, **ens.diagnostics})
        for text, ast in parsed:
            vals = np.array([logic.evaluate(ast, t) for t in ens.tuples()])
            sd = float(vals.std(ddof=1))
            stds[text].append(sd)
            rows.append({"n": n, "formula": text, "std": sd, "std_times_n": sd * n,
                         "mean": float(vals.mean())})
    report.series["ladder"] = rows
    report.series["chains"] = chains

    # relative sd of a std estimate is ~ 1/sqrt(2 (samples - 1))
    noise = 3.0 / math.sqrt(2.0 * (samples - 1))
    all_monotone = True
    all_endpoint = True
    worst_slope = -math.inf
    for text, series in stds.items():
        if max(series) == 0.0:
            continue  # constant formula: zero spread at every n
        all_endpoint = all_endpoint and (series[-1] <= series[0])
        for i in range(len(series) - 1):
            if series[i + 1] > series[i] * (1.0 + noise) + 1e-15:
                all_monotone = False
        slope = np.polyfit(np.log(ladder), np.log(np.maximum(series, 1e-300)), 1)[0]
        worst_slope = max(worst_slope, slope)
    if math.isinf(worst_slope):
        worst_slope = -1.0  # every formula constant: vacuous rate
    report.add("std_decay_monotone", Metric(
        value=1.0 if (all_monotone and all_endpoint) else 0.0, target=1.0,
        tolerance=0.0, passed=all_monotone and all_endpoint,
        provenance="across-sample std of formula values decays along the n-ladder",
        slack={"noise_allowance": noise},
    ))
    report.add("concentration_rate", Metric(
        value=worst_slope, target=-1.0, tolerance=0.5,
        passed=worst_slope <= -0.5,
        provenance="log-log slope of std vs n; concentration predicts about -1",
        comparison="upper_bound", slack={"ladder": ladder},
    ))
    return report


RUNNERS = {
    "counterexample": run_counterexample,
    "talagrand": run_talagrand,
    "geodesic": run_geodesic,
    "moment": run_moment_fixed_point,
    "qfconv": run_qf_convergence,
}


def run_experiment(cfg: RunConfig) -> Report:
    if cfg.experiment not in RUNNERS:
        raise ValueError(f"no runner for experiment {cfg.experiment!r}")
    return RUNNERS[cfg.experiment](cfg)
