"""Trace geometry, isometries, and reference samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegeo import matcore as mc

RNG = np.random.default_rng(20240817)


def random_tuple(n, m, rng=RNG):
    return mc.MatrixTuple(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))


def test_inner_product_identity():
    x = mc.MatrixTuple(np.eye(4)[None])
    assert mc.trace_inner_product(x, x) == pytest.approx(1.0)


def test_inner_product_zero():
    x = mc.MatrixTuple.zero(3, 2)
    y = random_tuple(3, 2)
    assert mc.trace_inner_product(x, y) == 0


def test_inner_product_entrywise_oracle():
    # direct entrywise summation, scaled by 1/n
    x = random_tuple(2, 1)
    y = random_tuple(2, 1)
    oracle = np.sum(np.conj(x.entries) * y.entries) / 2
    assert mc.trace_inner_product(x, y) == pytest.approx(complex(oracle), abs=1e-12)


def test_inner_product_conjugate_symmetry():
    x, y = random_tuple(3, 2), random_tuple(3, 2)
    assert mc.trace_inner_product(x, y) == pytest.approx(
        np.conj(mc.trace_inner_product(y, x)), abs=1e-12
    )


def test_dimension_mismatch_raises():
    with pytest.raises(mc.DimensionMismatchError):
        mc.trace_inner_product(random_tuple(3, 1), random_tuple(4, 1))


@given(a=st.floats(-5, 5), b=st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_inner_product_linear_in_second_argument(a, b):
    rng = np.random.default_rng(7)
    x, y, z = (random_tuple(3, 2, rng) for _ in range(3))
    lhs = mc.trace_inner_product(x, a * y + b * z)
    rhs = a * mc.trace_inner_product(x, y) + b * mc.trace_inner_product(x, z)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_cauchy_schwarz_bulk():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x, y = random_tuple(3, 2, rng), random_tuple(3, 2, rng)
        assert abs(mc.trace_inner_product(x, y)) <= x.norm() * y.norm() * (1 + 1e-12)


def test_tracial_norm_vs_operator_norm():
    rng = np.random.default_rng(13)
    for _ in range(50):
        x = random_tuple(5, 3, rng)
        assert x.norm() <= np.sqrt(x.m) * mc.operator_norm(x) * (1 + 1e-12)


def test_operator_norm_scalar():
    x = mc.MatrixTuple.scalar([-2.5], 4)
    assert mc.operator_norm(x) == pytest.approx(2.5)


def test_operator_norm_diag():
    x = mc.MatrixTuple(np.diag([1.0, 3.0])[None])
    assert mc.operator_norm(x) == pytest.approx(3.0)


def test_operator_norm_svd_oracle():
    x = random_tuple(3, 1)
    oracle = np.linalg.svd(x.entries[0], compute_uv=False)[0]
    assert mc.operator_norm(x) == pytest.approx(oracle, abs=1e-10)


@given(n=st.integers(1, 16), hermitian=st.booleans(), log_scale=st.floats(-300, 300),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_sigma_max_matches_svd(n, hermitian, log_scale, seed):
    # entry scales 1e-300..1e300: squaring unscaled entries would leave the
    # double range at either end
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    if hermitian:
        a = a + np.conj(np.swapaxes(a, 1, 2))
    a *= 10.0 ** log_scale
    oracle = np.array([np.linalg.svd(mat, compute_uv=False)[0] for mat in a])
    np.testing.assert_allclose(mc.sigma_max(a), oracle, rtol=1e-12, atol=0.0)


def test_sigma_max_zero_matrix():
    assert mc.sigma_max(np.zeros((2, 5, 5), dtype=complex)).tolist() == [0.0, 0.0]
    assert mc.operator_norm(mc.MatrixTuple.zero(4, 3)) == 0.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
def test_operator_norm_rejects_non_finite_entries(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    x = mc.MatrixTuple(np.stack([np.eye(3), a]))
    with pytest.raises(ValueError, match="non-finite"):
        mc.operator_norm(x)


def test_sa_embedding_hermitian_input():
    h = RNG.normal(size=(4, 4))
    h = h + h.T
    x = mc.MatrixTuple(h[None].astype(complex))
    y = mc.sa_embedding(x)
    assert np.allclose(y.entries[0], h)
    assert np.allclose(y.entries[1], 0)


def test_sa_embedding_imaginary_identity():
    x = mc.MatrixTuple((1j * np.eye(3))[None])
    y = mc.sa_embedding(x)
    assert np.allclose(y.entries[0], 0)
    assert np.allclose(y.entries[1], np.eye(3))


def test_sa_embedding_isometry_and_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = random_tuple(4, 2, rng)
        y = mc.sa_embedding(x)
        assert all(np.allclose(y.entries[k], y.entries[k].conj().T) for k in range(y.m))
        assert y.norm() == pytest.approx(x.norm(), abs=1e-12)
        back = mc.sa_embedding_inverse(y)
        assert np.max(np.abs(back.entries - x.entries)) < 1e-12


def test_ginibre_variance_monte_carlo():
    # E tr_n(X*X) = 1, averaged over 200 draws at n=50
    vals = [
        mc.trace_inner_product(x, x).real
        for i in range(200)
        for x in [mc.sample_ginibre(50, 1, mc.Seed(123, i))]
    ]
    assert np.mean(vals) == pytest.approx(1.0, abs=0.05)


def test_ginibre_determinism():
    a = mc.sample_ginibre(8, 2, mc.Seed(5, 9))
    b = mc.sample_ginibre(8, 2, mc.Seed(5, 9))
    assert np.array_equal(a.entries, b.entries)
    c = mc.sample_ginibre(8, 2, mc.Seed(5, 10))
    assert not np.array_equal(a.entries, c.entries)


def test_ginibre_mean_clt_bound():
    n, draws = 8, 500
    acc = np.zeros((n, n), dtype=complex)
    for i in range(draws):
        acc += mc.sample_ginibre(n, 1, mc.Seed(77, i)).entries[0]
    mean = acc / draws
    # entrywise sd of the mean is 1/sqrt(draws * n)
    assert np.max(np.abs(mean)) <= 4.0 / np.sqrt(draws * n)


def test_gue_hermitian():
    g = mc.sample_gue(30, mc.Seed(1, 0))
    assert np.allclose(g, g.conj().T)


def test_gue_second_moment_monte_carlo():
    vals = [
        np.trace(g @ g).real / 100
        for i in range(100)
        for g in [mc.sample_gue(100, mc.Seed(2024, i))]
    ]
    assert np.mean(vals) == pytest.approx(1.0, abs=0.03)


def test_gue_semicircle_kolmogorov():
    # Kolmogorov distance between the empirical spectral CDF at n=400 and the
    # semicircle CDF computed by quadrature of the density.
    n = 400
    g = mc.sample_gue(n, mc.Seed(31337, 0))
    eigs = np.sort(np.linalg.eigvalsh(g))

    grid = np.linspace(-2.0, 2.0, 4001)
    dens = np.sqrt(np.maximum(4.0 - grid**2, 0.0)) / (2 * np.pi)
    cdf = np.cumsum(dens) * (grid[1] - grid[0])
    cdf /= cdf[-1]

    emp = np.searchsorted(eigs, grid, side="right") / n
    assert np.max(np.abs(emp - cdf)) <= 0.05


def test_tensor_embed_commutes_exactly():
    a = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    ta, tb = mc.tensor_embed(a, b)
    assert np.array_equal(ta @ tb, tb @ ta)


def test_tensor_embed_trace():
    ta, _ = mc.tensor_embed(np.diag([1.0, 2.0]), np.eye(3))
    assert np.trace(ta).real / 6 == pytest.approx(1.5)


def test_tensor_embed_operator_norm():
    a = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    ta, _ = mc.tensor_embed(a, np.eye(5))
    lhs = np.linalg.norm(ta, ord=2)
    rhs = np.linalg.svd(a, compute_uv=False)[0]
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tensor_embed_size_guard():
    with pytest.raises(ValueError):
        mc.tensor_embed(np.eye(100), np.eye(100))


def test_seed_stream_reproducibility():
    r1 = mc.Seed(42, 3).rng().standard_normal(5)
    r2 = mc.Seed(42, 3).rng().standard_normal(5)
    assert np.array_equal(r1, r2)


@pytest.mark.parametrize("offset", [-1, 65535, 65536])
def test_seed_derive_rejects_colliding_offsets(offset):
    # derive(-1) was the parent stream itself, Seed(5, 0).derive(65536) was
    # Seed(5, 1).derive(0), and derive(65535) the stream 65536 next to both
    with pytest.raises(ValueError, match=r"offset must be in \[0, 65535\), got "):
        mc.Seed(5, 0).derive(offset)


def test_seed_derive_keeps_children_apart():
    first, last = mc.Seed(5, 0).derive(0), mc.Seed(5, 0).derive(65534)
    assert (first.stream_id, last.stream_id) == (1, 65535)
    assert mc.Seed(5, 1).derive(0).stream_id == 65537


# ---------------------------------------------------------------------------
# Ownership: one allocation per tuple, read-only arrays shared


def test_tuple_copies_a_writable_array_once():
    a = RNG.normal(size=(2, 3, 3)) + 0j
    x = mc.MatrixTuple(a)
    kept = x.entries.copy()
    a[:] = 7.0
    assert np.array_equal(x.entries, kept)
    assert not x.entries.flags.writeable


def test_tuple_copies_a_read_only_view_of_a_writable_base():
    a = RNG.normal(size=(2, 3, 3)) + 0j
    view = a[:]
    view.setflags(write=False)
    x = mc.MatrixTuple(view)
    a[:] = 7.0
    assert not np.shares_memory(x.entries, a)
    assert not np.any(x.entries == 7.0)


def test_tuple_keeps_a_read_only_array_and_converts_once():
    a = RNG.normal(size=(2, 4, 4)) + 1j * RNG.normal(size=(2, 4, 4))
    a.setflags(write=False)
    assert mc.MatrixTuple(a).entries is a
    assert mc.MatrixTuple(a[1:]).entries.base is a  # a view of it is kept too
    real = RNG.normal(size=(1, 3, 3))
    x = mc.MatrixTuple(real)  # the dtype conversion is the one copy
    assert x.entries.dtype == np.complex128 and not np.shares_memory(x.entries, real)
    assert x.entries.flags.c_contiguous and not x.entries.flags.writeable
    t = mc.MatrixTuple(np.swapaxes(a, 1, 2))  # a read-only but transposed view: C order
    assert t.entries.flags.c_contiguous and np.array_equal(t.entries, np.swapaxes(a, 1, 2))


def test_producers_hand_over_their_fresh_array(monkeypatch):
    # every operation keeps the array it just computed: no second copy
    handed = []
    freeze = mc.frozen
    monkeypatch.setattr(mc, "frozen", lambda arr: handed.append(freeze(arr)) or arr)
    x, y = random_tuple(4, 2), random_tuple(4, 2)
    u, _ = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
    makes = [lambda: x + y, lambda: x - y, lambda: 2.0 * x, lambda: -x, x.adjoint,
             lambda: x.conjugate_by(u), lambda: mc.MatrixTuple.from_matrices(*x.entries),
             lambda: mc.MatrixTuple.zero(4, 2), lambda: mc.MatrixTuple.scalar([1.0, 2.0], 4),
             lambda: mc.sa_embedding(x), lambda: mc.sample_ginibre(4, 2, mc.Seed(1))]
    for make in makes:
        out = make()
        assert out.entries is handed[-1]
    assert np.array_equal(x.adjoint().entries, np.conj(np.swapaxes(x.entries, 1, 2)))
    assert x.adjoint().entries.flags.c_contiguous


def test_tuple_sum_allocates_its_result_only():
    import tracemalloc

    x, y = random_tuple(64, 2), random_tuple(64, 2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        z = x + y
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * z.entries.nbytes
