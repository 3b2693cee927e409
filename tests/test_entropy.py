"""Normalized Gibbs entropy, analytic references, kNN estimator."""

import math

import numpy as np
import pytest

from freegeo import entropy as en, gibbs
from freegeo.matcore import Seed

LOG_2PIE = math.log(2 * math.pi * math.e)


# ---------------------------------------------------------------------------
# Analytic references


def test_semicircular_entropy_values():
    assert en.semicircular_entropy(1.0) == pytest.approx(0.5 * LOG_2PIE)
    eps = 0.3
    assert en.semicircular_entropy(eps**2) == pytest.approx(0.5 * LOG_2PIE + math.log(eps))
    assert en.semicircular_entropy(math.e**2) == pytest.approx(0.5 * LOG_2PIE + 1.0)
    with pytest.raises(ValueError):
        en.semicircular_entropy(0.0)


def test_log_energy_values():
    assert en.log_energy_integral(1.0) == pytest.approx(-0.25)
    assert en.log_energy_integral(1.1) == pytest.approx(-0.25 + 0.5 * math.log(1.1))


def semicircle_log_energy_quadrature(variance, outer_nodes=400, inner_nodes=400):
    """2-D quadrature of log|s-t| against the semicircle density.

    The diagonal log singularity is split off analytically:
    U(s) = rho(s) * integral of log|s-t| dt  +  integral of
    (rho(t)-rho(s)) log|s-t| dt, with the first piece in closed form and the
    second bounded; the outer integral uses the substitution s = 2 sigma
    sin(theta), under which the density is a smooth cosine-squared weight.
    """
    sig = math.sqrt(variance)
    edge = 2.0 * sig

    def rho(t):
        return np.sqrt(np.maximum(edge**2 - t**2, 0.0)) / (2 * math.pi * variance)

    xs, ws = np.polynomial.legendre.leggauss(inner_nodes)

    def inner_smooth(s):
        # integral of (rho(t) - rho(s)) log|s-t| dt, split at t = s
        total = 0.0
        for lo, hi in ((-edge, s), (s, edge)):
            if hi - lo < 1e-14:
                continue
            t = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
            vals = (rho(t) - rho(s)) * np.log(np.maximum(np.abs(t - s), 1e-300))
            total += 0.5 * (hi - lo) * float(ws @ vals)
        return total

    def log_primitive(u):
        return u * math.log(u) - u if u > 0 else 0.0

    xo, wo = np.polynomial.legendre.leggauss(outer_nodes)
    theta = 0.5 * math.pi * xo
    s_nodes = edge * np.sin(theta)
    weights = wo * np.cos(theta) ** 2  # (2/pi) cos^2 d(theta), theta = (pi/2) x
    total = 0.0
    for s, w in zip(s_nodes, weights):
        closed = rho(s) * (log_primitive(edge - s) + log_primitive(s + edge))
        total += w * (closed + inner_smooth(s))
    return total


@pytest.mark.parametrize("variance", [1.0, 1.1, 2.0])
def test_log_energy_vs_quadrature(variance):
    oracle = semicircle_log_energy_quadrature(variance)
    assert en.log_energy_integral(variance) == pytest.approx(oracle, abs=1e-3)


def test_semicircular_entropy_log_energy_identity():
    # chi = double log-energy integral + 3/4 + (1/2) log(2 pi)
    for var in (0.5, 1.0, 2.5):
        lhs = en.semicircular_entropy(var)
        rhs = en.log_energy_integral(var) + 0.75 + 0.5 * math.log(2 * math.pi)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_entropy_linear_change():
    assert en.entropy_linear_change(1.2, np.eye(3)) == pytest.approx(1.2)
    lam = 2.5
    assert en.entropy_linear_change(0.0, lam * np.eye(4)) == pytest.approx(4 * math.log(lam))
    with pytest.raises(ValueError):
        en.entropy_linear_change(0.0, np.zeros((2, 2)))


def test_entropy_linear_change_vs_knn():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    cloud = rng.normal(size=(5000, 3))
    h_in = en.knn_entropy(cloud)
    h_out = en.knn_entropy(cloud @ a.T)
    assert h_out - h_in == pytest.approx(np.linalg.slogdet(a)[1], abs=0.1)


# ---------------------------------------------------------------------------
# kNN estimator


def test_knn_gaussian():
    rng = np.random.default_rng(0)
    h = en.knn_entropy(rng.normal(size=5000))
    assert h == pytest.approx(0.5 * LOG_2PIE, abs=0.05)


def test_knn_uniform():
    rng = np.random.default_rng(1)
    assert en.knn_entropy(rng.uniform(size=5000)) == pytest.approx(0.0, abs=0.05)


def test_knn_scaling_consistency():
    rng = np.random.default_rng(2)
    cloud = rng.normal(size=(5000, 2))
    lam = 3.0
    assert en.knn_entropy(lam * cloud) - en.knn_entropy(cloud) == pytest.approx(
        2 * math.log(lam), abs=0.05)


def test_knn_guards():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError):
        en.knn_entropy(rng.normal(size=(50, 1)))
    with pytest.raises(ValueError):
        en.knn_entropy(np.zeros((500, 1)))
    with pytest.raises(ValueError):
        en.knn_entropy(rng.normal(size=(500, 7)))


# ---------------------------------------------------------------------------
# Gibbs entropy by thermodynamic integration


def test_gaussian_anchor_small():
    rep = en.gibbs_entropy(gibbs.Potential.quadratic(1.0, 1), 6, 1, seed=Seed(17),
                           nodes=8, samples_per_node=64, samples_final=192)
    assert rep.h_n == pytest.approx(LOG_2PIE, abs=0.02 * LOG_2PIE)
    # pot = reference: the TI integrand vanishes identically
    assert abs(rep.log_z - en.gaussian_log_partition(1.0, 6, 1)) < 1e-9


def test_scaled_gaussian():
    c = 2.0
    rep = en.gibbs_entropy(gibbs.Potential.quadratic(c, 1), 6, 1, seed=Seed(18),
                           nodes=8, samples_per_node=64, samples_final=192)
    assert rep.h_n == pytest.approx(LOG_2PIE - math.log(c), abs=0.05)


def quartic_entropy_quadrature(gamma, n=2, nodes=8):
    """h* for q + gamma tr_n((x*x)^2) at n=2, m=1 by 8-D Gauss-Hermite.

    Integration in tr_n-orthonormal coordinates z (entries = sqrt(n) z):
    log Z = log Z_ref + log E_ref exp(-n^2 gamma Q), and the Gibbs mean
    potential is the reweighted reference expectation of q + gamma Q.  The
    tensor grid is walked in chunks over the first two coordinates to bound
    memory.  Returns (h, log_z).
    """
    d = 2 * n * n
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    sigma = 1.0 / n  # reference sd per orthonormal coordinate

    rest = np.meshgrid(*([x] * (d - 2)), indexing="ij")
    z_rest = np.stack([g.ravel() for g in rest], axis=1)
    w_rest = np.ones(z_rest.shape[0])
    for i in range(d - 2):
        w_rest *= np.tile(np.repeat(w, nodes ** (d - 3 - i)), nodes**i)

    mass = 0.0
    pot_weighted = 0.0
    for i in range(nodes):
        for j in range(nodes):
            z = np.empty((z_rest.shape[0], d))
            z[:, 0] = x[i]
            z[:, 1] = x[j]
            z[:, 2:] = z_rest
            z = z * sigma
            ent = math.sqrt(n) * (z[:, : n * n] + 1j * z[:, n * n :]).reshape(-1, n, n)
            xx = np.einsum("sab,scb->sac", ent, np.conj(ent))  # X X^*
            big_q = np.real(np.einsum("sab,sba->s", xx, xx)) / n
            small_q = 0.5 * np.sum(z**2, axis=1)
            boltz = np.exp(-n * n * gamma * big_q)
            mass += w[i] * w[j] * float(w_rest @ boltz)
            pot_weighted += w[i] * w[j] * float(w_rest @ ((small_q + gamma * big_q) * boltz))
    log_z = en.gaussian_log_partition(1.0, n, 1) + math.log(mass)
    mean_pot = pot_weighted / mass
    h = log_z / (n * n) + mean_pot + 2 * math.log(n)
    return h, log_z


def test_quartic_entropy_vs_quadrature_oracle():
    gamma, n = 0.15, 2
    pot = gibbs.Potential.quadratic(1.0, 1).with_quartic(gamma)
    rep = en.gibbs_entropy(pot, n, 1, seed=Seed(19), nodes=12,
                           samples_per_node=192, samples_final=384)
    h_oracle, log_z_oracle = quartic_entropy_quadrature(gamma, n=n, nodes=8)
    assert rep.h_n == pytest.approx(h_oracle, abs=0.02 * abs(h_oracle))
    # log Z within three of the integration's own error bars, and those bars
    # small enough that a less precise estimator still fails
    err = rep.meta["log_z_error"]
    assert abs(rep.log_z - log_z_oracle) <= 3 * err
    assert 0 < err <= 0.05


def test_report_keeps_each_ti_node_chain_and_the_log_z_error():
    rep = en.gibbs_entropy(gibbs.Potential.quadratic(1.0, 1).with_quartic(0.25), 4, 1,
                           seed=Seed(26), nodes=3, samples_per_node=8, samples_final=8)
    chains = rep.meta["ti_chains"]
    assert [row["lambda"] for row in chains] == [lam for lam, _, _ in rep.ladder]
    assert all(row["steps"] > 0 and row["thin"] >= 1 for row in chains)
    assert rep.meta["log_z_error"] > 0


def test_ti_roundtrip_consistency():
    # integrating q -> phi -> q returns log Z differences summing to zero
    pot = gibbs.Potential.quadratic(1.0, 1).with_quartic(0.2)
    ref = gibbs.Potential.quadratic(1.0, 1)
    fwd, err_f, _, _ = en.thermo_delta(ref, pot, 4, 1, seed=Seed(20), nodes=8,
                                       samples_per_node=96)
    bwd, err_b, _, _ = en.thermo_delta(pot, ref, 4, 1, seed=Seed(21), nodes=8,
                                       samples_per_node=96)
    assert abs(fwd + bwd) <= 2 * (err_f + err_b) + 1e-3


def test_log_z_monotone_in_added_term():
    # adding a nonnegative potential term can only shrink Z
    ref = gibbs.Potential.quadratic(1.0, 1)
    small = gibbs.Potential.quadratic(1.0, 1).with_quartic(0.1)
    big = gibbs.Potential.quadratic(1.0, 1).with_quartic(0.3)
    d_small, e1, _, _ = en.thermo_delta(ref, small, 4, 1, seed=Seed(22), nodes=6,
                                        samples_per_node=96)
    d_big, e2, _, _ = en.thermo_delta(ref, big, 4, 1, seed=Seed(23), nodes=6,
                                      samples_per_node=96)
    assert d_small < 0 and d_big < d_small + 2 * (e1 + e2)


def test_anchor_n_independence():
    # the +2m log n normalization makes the Gaussian value n-independent
    reps = [en.gibbs_entropy(gibbs.Potential.quadratic(1.0, 1), n, 1, seed=Seed(24, n),
                             nodes=6, samples_per_node=48, samples_final=160)
            for n in (4, 8)]
    spread = abs(reps[0].h_n - reps[1].h_n)
    assert spread <= 2 * (reps[0].error_bar + reps[1].error_bar)


def test_report_identity_holds_by_construction():
    rep = en.gibbs_entropy(gibbs.Potential.quadratic(1.0, 2), 4, 2, seed=Seed(25),
                           nodes=6, samples_per_node=48, samples_final=96)
    n, m = 4, 2
    assert rep.h_n == pytest.approx(
        rep.log_z / n**2 + rep.mean_potential + 2 * m * math.log(n), abs=1e-12)
