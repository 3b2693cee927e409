"""Normalized entropy of Gibbs ensembles and the analytic reference values.

The working convention: Lebesgue measure lives in tr_n-orthonormal
coordinates (real dimension 2 m n^2), log-partition functions are measured
against it, and the normalized entropy is h*(mu) = h(mu)/n^2 + 2 m log n.
With this convention the Gaussian reference pot = q gives exactly
m log(2 pi e) at every n, which is the self-test that pins the volume
normalization (the conversion from entrywise coordinates would be
-m n^2 log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gibbs import Potential, SamplerOptions, sample_gibbs
from .matcore import Seed

__all__ = [
    "EntropyReport",
    "gaussian_log_partition",
    "thermo_delta",
    "gibbs_entropy",
    "semicircular_entropy",
    "log_energy_integral",
    "entropy_linear_change",
    "knn_entropy",
]


def gaussian_log_partition(c: float, n: int, m: int) -> float:
    """log of the integral of exp(-n^2 (c/2)||X||^2) in tr_n-orthonormal Lebesgue."""
    if c <= 0:
        raise ValueError("c must be positive")
    return m * n * n * math.log(2 * math.pi / (c * n * n))


@dataclass(frozen=True)
class EntropyReport:
    h_n: float
    log_z: float
    mean_potential: float
    error_bar: float
    ladder: list = field(default_factory=list)  # (lambda, mean d-statistic, std err)
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "h_n": self.h_n,
            "log_z": self.log_z,
            "mean_potential": self.mean_potential,
            "error_bar": self.error_bar,
            "ladder": [list(row) for row in self.ladder],
            "meta": self.meta,
        }


def _mix_potential(pot_a: Potential, pot_b: Potential, lam: float) -> Potential:
    terms = [((1.0 - lam) * coef, word) for coef, word in pot_a.terms]
    terms += [(lam * coef, word) for coef, word in pot_b.terms]
    c_mix = (1.0 - lam) * pot_a.c + lam * pot_b.c
    return Potential(terms, c_mix, name=f"mix({lam:.4f})")


def thermo_delta(pot_a: Potential, pot_b: Potential, n: int, m: int,
                 seed: Seed = Seed(), nodes: int = 16, samples_per_node: int = 128):
    """log Z_b - log Z_a by thermodynamic integration along the linear path.

    d/dlam log Z_lam = -n^2 E_lam[phi_b - phi_a]; the lambda integral uses a
    Gauss-Legendre grid with one MALA ensemble per node.  Returns
    (delta_log_z, error_bar, ladder, chains): ``chains`` holds each node
    chain's sampler diagnostics with the node's ``lambda``.
    """
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    lams = 0.5 * (xs + 1.0)
    weights = 0.5 * ws
    ladder, chains = [], []
    total = 0.0
    var_total = 0.0
    for k, (lam, w) in enumerate(zip(lams, weights)):
        pot_lam = _mix_potential(pot_a, pot_b, float(lam))
        ens = sample_gibbs(pot_lam, n, m, samples_per_node,
                           SamplerOptions(seed=seed.derive(k + 1)))
        dvals = np.array([pot_b.value(t) - pot_a.value(t) for t in ens.tuples()])
        ess = max(ens.diagnostics.get("ess", len(dvals)), 1.0)
        mean_d = float(dvals.mean())
        se_d = float(dvals.std(ddof=1) / math.sqrt(ess)) if len(dvals) > 1 else 0.0
        ladder.append((float(lam), mean_d, se_d))
        chains.append({"lambda": float(lam), **ens.diagnostics})
        total += w * mean_d
        var_total += (w * se_d) ** 2
    delta = -n * n * total
    err = n * n * math.sqrt(var_total)
    return delta, err, ladder, chains


def gibbs_entropy(pot: Potential, n: int, m: int, seed: Seed = Seed(),
                  nodes: int = 16, samples_per_node: int = 128,
                  samples_final: int = 256) -> EntropyReport:
    """Normalized entropy h* of the Gibbs ensemble for ``pot``.

    log Z comes from the analytic Gaussian reference (c/2)||.||^2 plus
    thermodynamic integration; the identity
    h = log Z + n^2 int(phi) d mu then gives h* after normalization.  ``meta``
    holds the integration's own error on log Z (``log_z_error``), each TI node
    chain's diagnostics (``ti_chains``) and the final chain's (``final_chain``).
    """
    ref = Potential.quadratic(pot.c, m)
    log_z_ref = gaussian_log_partition(pot.c, n, m)
    delta, err_ti, ladder, ti_chains = thermo_delta(ref, pot, n, m, seed=seed, nodes=nodes,
                                                    samples_per_node=samples_per_node)
    log_z = log_z_ref + delta
    final = sample_gibbs(pot, n, m, samples_final, SamplerOptions(seed=seed.derive(0)))
    pvals = np.array([pot.value(t) for t in final.tuples()])
    ess = max(final.diagnostics.get("ess", len(pvals)), 1.0)
    mean_pot = float(pvals.mean())
    err_pot = float(pvals.std(ddof=1) / math.sqrt(ess))
    h_n = log_z / (n * n) + mean_pot + 2 * m * math.log(n)
    error_bar = err_ti / (n * n) + err_pot
    meta = {
        "n": n,
        "m": m,
        "potential": pot.formula_text(),
        "c": pot.c,
        "volume_convention": "tr_n-orthonormal Lebesgue (entrywise offset -m n^2 log n)",
        "log_z_reference": log_z_ref,
        "log_z_error": err_ti,
        "ti_chains": ti_chains,
        "final_chain": dict(final.diagnostics),
    }
    return EntropyReport(h_n, log_z, mean_pot, error_bar, ladder, meta)


# ---------------------------------------------------------------------------
# Analytic references


def semicircular_entropy(variance: float) -> float:
    """Free entropy of one semicircular variable: (1/2) log(2 pi e) + (1/2) log var."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    return 0.5 * math.log(2 * math.pi * math.e) + 0.5 * math.log(variance)


def log_energy_integral(variance: float) -> float:
    """Double integral of log|s - t| against the semicircle law of given variance.

    Equals -1/4 + (1/2) log(variance): the logarithmic potential of the
    semicircle is s^2/(4 var) - 1/2 + (1/2) log(variance) on its support, and
    integrating once more gives the stated value.  Consistent with the
    identity semicircular_entropy(v) = log_energy_integral(v) + 3/4
    + (1/2) log(2 pi), and cross-validated by 2-D quadrature in the tests.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    return -0.25 + 0.5 * math.log(variance)


def entropy_linear_change(h_in: float, a: np.ndarray) -> float:
    """Entropy after an invertible linear pushforward: h + log|det A|."""
    a = np.asarray(a, dtype=float)
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0 or not math.isfinite(logdet):
        raise ValueError("transformation must be invertible")
    return h_in + logdet


def knn_entropy(points: np.ndarray, k: int = 4) -> float:
    """Kozachenko-Leonenko differential entropy estimate for a low-dim cloud.

    Intended for classical desk-scale checks (dimension <= 6); mildly biased
    for small samples, with bias shrinking in the sample count.  scipy.spatial
    and scipy.special load at the first call, not when this module is imported.
    """
    from scipy.spatial import cKDTree
    from scipy.special import digamma, gammaln

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    count, dim = pts.shape
    if dim > 6:
        raise ValueError("knn_entropy is restricted to dimension <= 6")
    if count < 100:
        raise ValueError("need at least 100 points")
    dists = np.sort(pts, axis=0)
    if dim == 1 and np.median(np.diff(dists[:, 0])) == 0.0:
        raise ValueError("degenerate (duplicate-heavy) cloud")
    tree = cKDTree(pts)
    eps, _ = tree.query(pts, k=k + 1)
    radii = eps[:, k]
    if np.any(radii <= 0):
        raise ValueError("degenerate (duplicate-heavy) cloud")
    log_vd = (dim / 2) * math.log(math.pi) - gammaln(dim / 2 + 1)
    return float(
        digamma(count) - digamma(k) + log_vd + dim * np.mean(np.log(radii))
    )
