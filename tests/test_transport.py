"""Empirical W2, spectral couplings, displacement, 1-D Kantorovich potentials."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from freegeo import gibbs, matcore as mc, transport as tp

RNG = np.random.default_rng(31415)


def random_ensemble(count, n, m, rng=RNG, shift=0.0):
    samp = rng.normal(size=(count, m, n, n)) + 1j * rng.normal(size=(count, m, n, n))
    samp[:, 0] += shift * np.eye(n)
    return gibbs.Ensemble(samp)


# ---------------------------------------------------------------------------
# empirical W2


def test_identical_ensembles_zero_distance():
    a = random_ensemble(20, 4, 1)
    w, plan = tp.empirical_w2(a, a)
    assert w == 0.0
    assert np.array_equal(np.sort(plan.pairing), np.arange(20))
    assert plan.cost == 0.0


def test_translation_is_optimal():
    rng = np.random.default_rng(1)
    samp = rng.normal(size=(30, 2, 4, 4)) + 1j * rng.normal(size=(30, 2, 4, 4))
    a = gibbs.Ensemble(samp)
    c = 0.75
    shifted = samp.copy()
    shifted[:, 0] += c * np.eye(4)
    b = gibbs.Ensemble(shifted)
    w, _ = tp.empirical_w2(a, b)
    assert w == pytest.approx(c, abs=1e-10)


def test_scalar_ensembles_match_quantile_coupling():
    # n = 1 scalars: the assignment solution is the sorted (quantile) coupling
    rng = np.random.default_rng(2)
    xs = rng.normal(size=40)
    ys = rng.normal(size=40) + 0.3
    a = gibbs.Ensemble(xs.reshape(-1, 1, 1, 1).astype(complex))
    b = gibbs.Ensemble(ys.reshape(-1, 1, 1, 1).astype(complex))
    w, _ = tp.empirical_w2(a, b)
    oracle = np.sqrt(np.mean((np.sort(xs) - np.sort(ys)) ** 2))
    assert w == pytest.approx(oracle, abs=1e-8)


def test_diagonal_scalar_tuples_match_spectral():
    # samples c_i I: empirical W2 equals the 1-D quantile value of the scalars
    rng = np.random.default_rng(3)
    lam = rng.normal(size=25)
    muv = rng.normal(size=25) * 2.0
    n = 3
    a = gibbs.Ensemble(np.stack([(l * np.eye(n))[None] for l in lam]))
    b = gibbs.Ensemble(np.stack([(v * np.eye(n))[None] for v in muv]))
    w, _ = tp.empirical_w2(a, b)
    oracle = tp.spectral_w2_1d(np.diag(np.asarray(lam, dtype=complex)),
                               np.diag(np.asarray(muv, dtype=complex)))
    assert w == pytest.approx(oracle, abs=1e-8)


def test_count_mismatch_raises():
    with pytest.raises(ValueError):
        tp.empirical_w2(random_ensemble(4, 3, 1), random_ensemble(5, 3, 1))


def test_triangle_inequality():
    rng = np.random.default_rng(4)
    ens = [random_ensemble(15, 3, 1, rng, shift=s) for s in (0.0, 0.4, 1.0)]
    w01, _ = tp.empirical_w2(ens[0], ens[1])
    w12, _ = tp.empirical_w2(ens[1], ens[2])
    w02, _ = tp.empirical_w2(ens[0], ens[2])
    assert w02 <= w01 + w12 + 1e-8


def test_sinkhorn_value_envelope():
    rng = np.random.default_rng(5)
    a = random_ensemble(24, 3, 1, rng)
    b = random_ensemble(24, 3, 1, rng, shift=0.5)
    w_exact, _ = tp.empirical_w2(a, b)
    for eps_reg in (0.5, 2.0):
        w_sink, plan = tp.empirical_w2(a, b, method="sinkhorn", eps_reg=eps_reg)
        assert w_sink**2 >= w_exact**2 - eps_reg * np.log(a.count) - 1e-9
        assert plan.cost >= w_exact**2 - 1e-9


def test_sinkhorn_default_regularization_tight_clouds():
    rng = np.random.default_rng(15)
    samp = rng.normal(size=(16, 1, 2, 2)) + 1j * rng.normal(size=(16, 1, 2, 2))
    a = gibbs.Ensemble(samp)
    b = gibbs.Ensemble(samp + 0.05 * np.eye(2))
    w_exact, _ = tp.empirical_w2(a, b)
    w_sink, _ = tp.empirical_w2(a, b, method="sinkhorn", max_iter=200_000)
    assert w_sink >= w_exact - 1e-6


def test_sinkhorn_nonconvergence_raises():
    rng = np.random.default_rng(6)
    a = random_ensemble(10, 2, 1, rng)
    b = random_ensemble(10, 2, 1, rng, shift=2.0)
    with pytest.raises(tp.SinkhornError):
        tp.empirical_w2(a, b, method="sinkhorn", eps_reg=1e-9, max_iter=3)


def _direct_cost(a, b):
    """Reference cost matrix: C[i, j] = ||x_i - y_j||_{tr_n}^2 by direct differences."""
    fa, fb = tp._flat(a), tp._flat(b)
    return np.sum(np.abs(fa[:, None, :] - fb[None, :, :]) ** 2, axis=2) / a.n


@settings(max_examples=150, deadline=None)
@given(counts=st.tuples(st.integers(1, 12), st.integers(1, 12)), m=st.integers(1, 3),
       n=st.integers(1, 6), scale=st.sampled_from([1e-3, 1.0, 37.0, 1e3]),
       shared=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_gram_cost_matrix_matches_direct_differences(counts, m, n, scale, shared, seed):
    # some of b's samples are copies of a's, so entries near 0 are covered
    rng = np.random.default_rng(seed)
    a = random_ensemble(counts[0], n, m, rng)
    samp = random_ensemble(counts[1], n, m, rng).samples.copy()
    k = min(shared, counts[0], counts[1])
    samp[:k] = a.samples[rng.permutation(counts[0])[:k]]
    a = gibbs.Ensemble(a.samples * scale)
    b = gibbs.Ensemble(samp * scale)
    cost = tp._cost_matrix(a, b)
    assert cost.shape == counts
    assert np.all(cost >= 0.0)
    norms = [np.max(np.sum(np.abs(tp._flat(e)) ** 2, axis=1) / n) for e in (a, b)]
    np.testing.assert_allclose(cost, _direct_cost(a, b), rtol=0,
                               atol=1e-12 * (1.0 + norms[0] + norms[1]))


@pytest.mark.parametrize("method", ["exact", "sinkhorn"])
def test_duplicated_samples_self_distance_exactly_zero(method):
    rng = np.random.default_rng(16)
    base = random_ensemble(7, 3, 2, rng).samples
    a = gibbs.Ensemble(base[rng.integers(0, 7, size=20)])  # every sample repeated
    w, plan = tp.empirical_w2(a, a, method=method)
    assert plan.cost == 0.0
    if method == "exact":
        assert w == 0.0


@pytest.mark.parametrize("seed", [17, 18, 19])
def test_exact_plan_matches_direct_difference_assignment(seed):
    # the assignment of the direct-difference matrix, and its mean pair cost
    # in the same summation order, bit for bit
    rng = np.random.default_rng(seed)
    a = random_ensemble(40, 4, 2, rng)
    b = random_ensemble(40, 4, 2, rng, shift=0.3)
    _, plan = tp.empirical_w2(a, b)
    rows, cols = linear_sum_assignment(_direct_cost(a, b))
    assert plan.pairing.tolist() == cols[np.argsort(rows)].tolist()
    assert plan.cost == float(_direct_cost(a, b)[rows, cols].mean())


@pytest.mark.parametrize("case", ["unknown_method", "unequal_exact", "unequal_sinkhorn",
                                  "over_cap", "max_iter_zero"])
def test_invalid_w2_inputs_fail_before_the_cost_matrix(monkeypatch, case):
    def no_cost(a, b):
        raise AssertionError("cost matrix built for invalid input")

    monkeypatch.setattr(tp, "_cost_matrix", no_cost)
    monkeypatch.setattr(tp, "MAX_EXACT_COUNT", 3)
    rng = np.random.default_rng(21)
    a, b, c = (random_ensemble(k, 2, 1, rng) for k in (4, 4, 3))
    args, match = {
        "unknown_method": ((a, b, "greedy"), "unknown method"),
        "unequal_exact": ((a, c, "exact"), "equal counts"),
        "unequal_sinkhorn": ((a, c, "sinkhorn"), "equal counts"),
        "over_cap": ((a, b, "exact"), "capped at 3"),
        "max_iter_zero": ((a, b, "sinkhorn", None, 0), "max_iter"),
    }[case]
    with pytest.raises(ValueError, match=match):
        tp.empirical_w2(*args)


def test_plan_diagnostics():
    rng = np.random.default_rng(20)
    a = random_ensemble(12, 3, 1, rng)
    b = random_ensemble(12, 3, 1, rng, shift=0.5)
    _, plan = tp.empirical_w2(a, b)
    assert plan.diagnostics == {"assignment_size": 12}
    _, plan = tp.empirical_w2(a, b, method="sinkhorn", eps_reg=0.5, tol=1e-8)
    diag = plan.diagnostics
    assert set(diag) == {"assignment_size", "sinkhorn_iterations", "sinkhorn_marginal_error"}
    assert diag["assignment_size"] == 12 and diag["sinkhorn_iterations"] >= 1
    assert 0.0 <= diag["sinkhorn_marginal_error"] < 1e-8


# ---------------------------------------------------------------------------
# optimal inner product


def test_inner_product_identity_coupling():
    a = random_ensemble(20, 4, 1)
    c, _ = tp.optimal_inner_product(a, a)
    assert c == pytest.approx(a.mean_squared_norm(), abs=1e-8)


def test_inner_product_consistency_identity():
    rng = np.random.default_rng(7)
    a = random_ensemble(18, 3, 2, rng)
    b = random_ensemble(18, 3, 2, rng, shift=0.3)
    c, plan = tp.optimal_inner_product(a, b)
    paired = np.mean([mc.real_inner(a[i], b[plan.pairing[i]]) for i in range(a.count)])
    assert c == pytest.approx(paired, abs=1e-8)
    # W2^2 + 2C = E||x||^2 + E||y||^2 identically
    assert plan.cost + 2 * c == pytest.approx(
        a.mean_squared_norm() + b.mean_squared_norm(), abs=1e-8)


def test_inner_product_independent_mean_zero():
    # high ambient dimension keeps the matching gain between independent
    # mean-zero clouds small relative to the norm scale
    rng = np.random.default_rng(8)
    a = random_ensemble(40, 10, 2, rng)
    b = random_ensemble(40, 10, 2, rng)
    c, plan = tp.optimal_inner_product(a, b)
    total = a.mean_squared_norm() + b.mean_squared_norm()
    assert abs(c) <= 0.15 * total / 2
    assert plan.cost == pytest.approx(total, rel=0.2)


# ---------------------------------------------------------------------------
# displacement interpolation


def test_displacement_endpoints():
    rng = np.random.default_rng(9)
    a = random_ensemble(12, 3, 1, rng)
    b = random_ensemble(12, 3, 1, rng, shift=0.6)
    _, plan = tp.empirical_w2(a, b)
    assert np.array_equal(tp.displacement(plan, 0.0).samples, a.samples)
    assert np.array_equal(tp.displacement(plan, 1.0).samples, b.samples[plan.pairing])


def test_displacement_geodesic_property():
    rng = np.random.default_rng(10)
    a = random_ensemble(15, 3, 1, rng)
    b = random_ensemble(15, 3, 1, rng, shift=0.8)
    w, plan = tp.empirical_w2(a, b)
    for s, t in [(0.0, 0.5), (0.25, 0.75), (0.3, 1.0)]:
        ws_t, _ = tp.empirical_w2(tp.displacement(plan, s), tp.displacement(plan, t))
        assert ws_t == pytest.approx(abs(t - s) * w, abs=1e-8)


def test_displacement_domain():
    a = random_ensemble(5, 2, 1)
    _, plan = tp.empirical_w2(a, a)
    with pytest.raises(ValueError):
        tp.displacement(plan, 1.5)


# ---------------------------------------------------------------------------
# spectral W2


def test_spectral_self_zero():
    g = mc.sample_gue(50, mc.Seed(1))
    assert tp.spectral_w2_1d(g, g) == 0.0


def test_spectral_scaling_oracle():
    g = mc.sample_gue(60, mc.Seed(2))
    lam = 0.35
    rms = np.sqrt(np.mean(np.linalg.eigvalsh(g) ** 2))
    assert tp.spectral_w2_1d(g, lam * g) == pytest.approx((1 - lam) * rms, abs=1e-10)


def test_spectral_gue_vs_scaled_gue():
    eps = 0.25
    g1 = mc.sample_gue(400, mc.Seed(3, 0))
    g2 = mc.sample_gue(400, mc.Seed(3, 1))
    assert tp.spectral_w2_1d(g1, eps * g2) == pytest.approx(1 - eps, abs=0.03)


def test_spectral_requires_hermitian():
    rng = np.random.default_rng(11)
    bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        tp.spectral_w2_1d(bad, bad)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_spectral_rejects_non_finite_entries(bad):
    eye = np.eye(2)
    for a, b in ((np.diag([bad, 1.0]), eye), (eye, np.diag([1.0, bad]))):
        with pytest.raises(ValueError, match="non-finite"):
            tp.spectral_w2_1d(a, b)


# ---------------------------------------------------------------------------
# Quantile1D and Kantorovich potentials


def test_quantile_w2_unequal_counts():
    a = tp.Quantile1D(np.array([0.0, 1.0]))
    b = tp.Quantile1D(np.array([0.0, 0.5, 1.0]))
    # piecewise-exact integral of (Q_a - Q_b)^2 over (0,1):
    # pieces (0,1/3): 0; (1/3,1/2): 0.5^2; (1/2,2/3): 0.5^2; (2/3,1): 0
    oracle = np.sqrt(0.25 / 6 + 0.25 / 6)
    assert a.w2(b) == pytest.approx(oracle, abs=1e-12)


def test_kantorovich_identity_pair_is_quadratic():
    mu = tp.Quantile1D(np.linspace(-2, 2, 9))
    phi, psi = tp.kantorovich_potentials_1d(mu, mu)
    for x in mu.support:
        assert phi(x) - phi(0.0) == pytest.approx(0.5 * x * x, abs=1e-12)
        assert phi(x) + psi(x) - x * x == pytest.approx(0.0, abs=1e-12)


def test_kantorovich_shift_pair():
    c = 0.7
    mu = tp.Quantile1D(np.linspace(-1, 1, 11))
    nu = tp.Quantile1D(np.linspace(-1, 1, 11) + c)
    phi, _ = tp.kantorovich_potentials_1d(mu, nu)
    for x in (-1.0, 0.0, 0.5):
        assert phi(x) - phi(0.0) == pytest.approx(0.5 * x * x + c * x, abs=1e-12)


def test_kantorovich_dilation_pair():
    mu = tp.Quantile1D([-1.0, 1.0])
    nu = tp.Quantile1D([-2.0, 2.0])
    phi, psi = tp.kantorovich_potentials_1d(mu, nu)
    # map y = 2x inside the hull: phi(x) = x^2 + const
    assert phi(1.0) - phi(0.0) == pytest.approx(1.0, abs=1e-12)
    assert phi(0.5) - phi(0.0) == pytest.approx(0.25, abs=1e-12)
    gaps = [phi(x) + psi(y) - x * y for x in mu.support for y in nu.support]
    assert min(gaps) >= -1e-8
    for x, y in zip(mu.support, nu.support):
        assert phi(x) + psi(y) - x * y == pytest.approx(0.0, abs=1e-10)


def test_kantorovich_gap_nonnegative_everywhere():
    rng = np.random.default_rng(12)
    mu = tp.Quantile1D(np.sort(rng.normal(size=16)))
    nu = tp.Quantile1D(np.sort(rng.normal(size=16) * 1.7 + 0.4))
    phi, psi = tp.kantorovich_potentials_1d(mu, nu)
    for x in np.linspace(-4, 4, 40):
        for y in np.linspace(-6, 6, 40):
            assert phi(x) + psi(y) - x * y >= -1e-8


def test_kantorovich_degenerate_target():
    # pushing a spread measure onto a point mass: flat transport map
    nu = tp.Quantile1D(np.zeros(1))
    mu = tp.Quantile1D(np.linspace(-1, 1, 8))
    phi, _ = tp.kantorovich_potentials_1d(mu, nu)
    assert phi(0.5) - phi(-0.5) == pytest.approx(0.0, abs=1e-12)


def _integral_oracle(xs, ys, x):
    """Trapezoid rule over the knots left of x, with the slope-one tails."""
    if x < xs[0]:
        return -np.trapezoid([ys[0] - (xs[0] - x), ys[0]], [x, xs[0]])
    inside = xs[xs < x]
    end = ys[-1] + (x - xs[-1]) if x > xs[-1] else np.interp(x, xs, ys)
    return np.trapezoid(np.append(ys[: inside.size], end), np.append(inside, x))


@st.composite
def monotone_maps(draw):
    coord = st.floats(-5, 5, allow_nan=False)
    k = draw(st.integers(1, 12))
    xs = draw(st.lists(coord, min_size=k, max_size=k))
    # knots closer than 1e-14 to their left neighbour, which the map drops
    xs += [xs[i] + 5e-15 for i in draw(st.lists(st.integers(0, k - 1), max_size=3))]
    xs = np.sort(xs)
    ys = np.sort(draw(st.lists(coord, min_size=xs.size, max_size=xs.size)))
    tmap = tp._MonotoneMap(xs, ys)
    pts = draw(st.lists(st.floats(-9, 9, allow_nan=False), max_size=20))
    return tmap, np.concatenate((pts, xs, tmap.xs[:1] - 1.0, tmap.xs[-1:] + 1.0))


@settings(max_examples=200, deadline=None)
@given(monotone_maps())
def test_monotone_integral_array_matches_scalar_and_oracle(case):
    tmap, pts = case
    assert np.all(np.diff(tmap.xs) > 1e-14)
    vec = tmap.integral(pts)
    assert vec.shape == pts.shape
    scalar = np.array([tmap.integral(p) for p in pts])
    assert vec.tobytes() == scalar.tobytes()  # bit for bit, signed zeros included
    oracle = np.array([_integral_oracle(tmap.xs, tmap.ys, p) for p in pts])
    np.testing.assert_allclose(vec, oracle, rtol=0, atol=1e-12)


def test_monotone_integral_keeps_shape():
    tmap = tp._MonotoneMap(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert isinstance(tmap.integral(0.5), float)
    assert isinstance(tmap.integral(np.float64(0.5)), float)
    one = tmap.integral(np.array([0.5]))
    assert isinstance(one, np.ndarray) and one.shape == (1,) and one[0] == 0.25
    grid = np.array([[-1.0, 0.5], [1.0, 2.0]])
    assert tmap.integral(grid).shape == (2, 2)
    assert tmap.integral(np.array([])).shape == (0,)


def test_monotone_inverse_point_flat_pieces():
    # flat piece on [1, 3] at height 1: a knot value returns its left end
    tmap = tp._MonotoneMap(np.array([0.0, 1, 2, 3, 4]), np.array([0.0, 1, 1, 1, 2]))
    got = [tmap.inverse_point(y) for y in (-1.0, 0.0, 0.5, 1.0, 1.25, 2.0, 3.0)]
    assert got == [-1.0, 0.0, 0.5, 1.0, 3.25, 4.0, 5.0]
    tmap = tp._MonotoneMap(np.array([-2.0, -1, 0, 0.5, 1, 3]),
                           np.array([-1.0, -1, 0, 0, 0, 4]))
    got = [tmap.inverse_point(y) for y in (-1.5, -1.0, -0.5, 0.0, 1.0, 4.0)]
    assert got == [-2.5, -2.0, -0.5, 0.0, 1.5, 3.0]
    tmap = tp._MonotoneMap(np.array([0.0, 0.1, 0.2, 0.3]), np.array([0.1, 0.2, 0.2, 0.3]))
    got = [tmap.inverse_point(y) for y in (0.1, 0.15, 0.2, 0.25, 0.3)]
    assert got == [0.0, 0.04999999999999999, 0.1, 0.25, 0.3]


def test_kantorovich_phi_on_grid_matches_pointwise():
    rng = np.random.default_rng(5)
    mu = tp.Quantile1D(np.round(rng.normal(size=40), 1))
    nu = tp.Quantile1D(np.round(rng.normal(size=13)))
    phi, _ = tp.kantorovich_potentials_1d(mu, nu)
    grid = np.linspace(-5, 5, 301)
    assert phi.fn(grid).tobytes() == np.array([phi(x) for x in grid]).tobytes()


def test_plan_serialization_fields():
    a = random_ensemble(6, 2, 1)
    _, plan = tp.empirical_w2(a, a)
    blob = plan.to_json()
    assert set(blob) == {"source", "target", "permutation", "cost"}
    assert blob["source"] == blob["target"]


def test_ensemble_hash_reads_the_sample_bytes():
    # SHA-256 of the samples' own buffer: the digest of their bytes, as the
    # copying ``tobytes`` hash gave (literal recorded with it)
    e = gibbs.Ensemble(np.arange(18).reshape(2, 1, 3, 3) * (1 + 0.5j))
    assert tp._ensemble_hash(e) == "9301fc8b3b07131b"
    big = random_ensemble(5, 4, 2)
    assert tp._ensemble_hash(big) == hashlib.sha256(big.samples.tobytes()).hexdigest()[:16]
