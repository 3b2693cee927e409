"""Potentials, MALA sampling against exact Gaussian oracles, diagnostics, file IO."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegeo import entropy, gibbs, logic, matcore as mc

SEED = mc.Seed(4242)


def random_tuple(n, m, rng):
    return mc.MatrixTuple(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))


# ---------------------------------------------------------------------------
# Potential: values and cyclic-derivative gradients


def test_quadratic_value_matches_norm():
    rng = np.random.default_rng(1)
    x = random_tuple(5, 2, rng)
    pot = gibbs.Potential.quadratic(3.0, 2)
    assert pot.value(x) == pytest.approx(1.5 * mc.tracial_norm(x) ** 2, abs=1e-10)


def test_quadratic_gradient_is_cx():
    rng = np.random.default_rng(2)
    x = random_tuple(4, 2, rng)
    g = gibbs.Potential.quadratic(2.5, 2).gradient(x)
    assert np.max(np.abs(g.entries - 2.5 * x.entries)) < 1e-12


def test_tilt_gradient_at_zero_is_tilt():
    a = [0.3 + 0.2j]
    pot = gibbs.Potential.quadratic(1.0, 1).with_tilt(a)
    g = pot.gradient(mc.MatrixTuple.zero(4, 1))
    assert np.allclose(g.entries[0], a[0] * np.eye(4))


def fd_gradient(f, entries, h=1e-6):
    """Central-difference tr_n gradient of a real function f of an (m, n, n) array.

    <g, e> = re sum(conj(g) e) / n, so the (re, im) partial derivatives of f
    at entry (j, a, b) are (re g_jab, im g_jab) / n.
    """
    n = entries.shape[1]
    grad = np.zeros_like(entries)
    for pos in np.ndindex(entries.shape):
        for unit in (1.0, 1.0j):
            bump = np.zeros_like(entries)
            bump[pos] = h * unit
            grad[pos] += (f(entries + bump) - f(entries - bump)) / (2 * h) * unit * n
    return grad


def assert_gradient_matches_fd(pot, x):
    grad = pot.value_and_gradient(x)[1]
    fd = fd_gradient(lambda e: pot.value(mc.MatrixTuple(e)), x)
    assert np.max(np.abs(grad - fd), initial=0.0) <= 1e-6 * (1.0 + np.max(np.abs(grad)))


@pytest.mark.parametrize("builder", [
    lambda: gibbs.Potential.quadratic(1.0, 1),
    lambda: gibbs.Potential.quadratic(1.0, 1).with_tilt([0.4 - 0.7j]),
    lambda: gibbs.Potential.quadratic(1.0, 1).with_quartic(0.3),
    lambda: gibbs.Potential.quadratic(2.0, 2).with_tilt([0.5, -0.25]).with_quartic(0.1),
    lambda: gibbs.Potential.from_formula("re tr(0.5*x1'*x1 + 0.25*x1)", c=1.0),
])
def test_gradient_matches_finite_differences(builder):
    rng = np.random.default_rng(3)
    pot = builder()
    x = random_tuple(4, pot._m(), rng)
    assert_gradient_matches_fd(pot, x.entries)


potential_terms = st.lists(
    st.tuples(st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
              st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=4).map(tuple)),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(terms=potential_terms, n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_value_and_gradient_match_central_differences(terms, n, seed):
    # random words: starred letters, length-1 words (tilts) and the empty word
    pot = gibbs.Potential(terms, c=1.0)
    rng = np.random.default_rng(seed)
    x = 0.5 * (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n)))
    value, grad = pot.value_and_gradient(x)
    tup = mc.MatrixTuple(x)
    assert pot.value(tup) == value
    assert pot.gradient(tup).entries.tobytes() == grad.tobytes()
    assert_gradient_matches_fd(pot, x)


def test_from_formula_roundtrip():
    pot = gibbs.Potential.from_formula("re tr(0.5*x1'*x1 + 0.25*x1)", c=1.0)
    rng = np.random.default_rng(4)
    x = random_tuple(3, 1, rng)
    direct = 0.5 * mc.tracial_norm(x) ** 2 + 0.25 * (np.trace(x.entries[0]) / 3).real
    assert pot.value(x) == pytest.approx(direct, abs=1e-10)


def test_from_formula_rejects_quantifiers():
    with pytest.raises(ValueError):
        gibbs.Potential.from_formula("sup{y:1.0} re tr(y*x1)", c=1.0)


def test_formula_text_parses_and_matches():
    pot = gibbs.Potential.quadratic(2.0, 1).with_tilt([0.3]).with_quartic(0.2)
    ast = logic.parse(pot.formula_text())
    rng = np.random.default_rng(5)
    x = random_tuple(4, 1, rng)
    assert logic.evaluate(ast, x) == pytest.approx(pot.value(x), abs=1e-10)


def test_formula_text_adds_duplicate_words():
    # a thermodynamic-integration mixture repeats the quadratic words of both ends
    pot = entropy._mix_potential(gibbs.Potential.quadratic(1.0, 2),
                                 gibbs.Potential.quadratic(1.0, 2).with_quartic(0.2), 0.3)
    ast = logic.parse(pot.formula_text())
    x = random_tuple(3, 2, np.random.default_rng(6))
    assert logic.evaluate(ast, x) == pytest.approx(pot.value(x), abs=1e-10)


# ---------------------------------------------------------------------------
# Sampler: exact Gaussian oracles


def test_sampler_gaussian_second_moment():
    # density exp(-n^2 c q): each tr_n-orthonormal coordinate is N(0, 1/(c n^2)),
    # so E ||X||^2 = 2 m / c
    pot = gibbs.Potential.quadratic(1.0, 1)
    ens = gibbs.sample_gibbs(pot, 8, 1, 300, gibbs.SamplerOptions(seed=SEED))
    assert ens.mean_squared_norm() == pytest.approx(2.0, abs=0.1)


def test_sampler_scaled_potential():
    pot = gibbs.Potential.quadratic(2.0, 1)
    ens = gibbs.sample_gibbs(pot, 8, 1, 300, gibbs.SamplerOptions(seed=mc.Seed(7)))
    assert ens.mean_squared_norm() == pytest.approx(1.0, abs=0.06)


def test_sampler_stationary_covariance():
    # sample covariance in tr_n-orthonormal coordinates matches (1/(c n^2)) I within 10%
    n, c = 8, 1.0
    ens = gibbs.sample_gibbs(gibbs.Potential.quadratic(c, 1), n, 1, 400,
                             gibbs.SamplerOptions(seed=mc.Seed(8)))
    coords = ens.samples.reshape(ens.count, -1) / math.sqrt(n)
    var = np.concatenate([np.var(coords.real, axis=0), np.var(coords.imag, axis=0)])
    assert np.mean(var) == pytest.approx(1.0 / (c * n * n), rel=0.1)


def test_sampler_determinism():
    pot = gibbs.Potential.quadratic(1.0, 1)
    opts = gibbs.SamplerOptions(seed=mc.Seed(99, 5))
    a = gibbs.sample_gibbs(pot, 6, 1, 40, opts)
    b = gibbs.sample_gibbs(pot, 6, 1, 40, opts)
    assert a.samples.tobytes() == b.samples.tobytes()


# SHA-256 of sample_gibbs(...).samples: any change to a floating-point operation
# or an RNG draw of the chain moves them
GOLDEN_POTENTIALS = {
    "quadratic": (lambda: gibbs.Potential.quadratic(1.0, 1), 1),
    "tilt": (lambda: gibbs.Potential.quadratic(1.0, 2).with_tilt([0.4 - 0.3j, 0.2]), 2),
    "quartic+tilt": (lambda: gibbs.Potential.quadratic(2.0, 2).with_tilt([0.5, -0.25])
                     .with_quartic(0.1), 2),
}
GOLDEN_SAMPLES = {
    ("quadratic", 4): "86e7e9464d56cf4d970d70a96cb23baf9a9aa83aa0b08b41d33caeb57763f544",
    ("quadratic", 8): "70dc9dedfea3462906e732c517dda237cf8bdf777610f6abc5e9d918fdd920b7",
    ("tilt", 4): "384ad1d4afc5ef96184a839b268b6b5e4a254ab92157f6afe7ace988bb0859e8",
    ("tilt", 8): "aee78017af8626374f270e7912d90fa95dcd1703d162bb968b7c451f1b19aee6",
    ("quartic+tilt", 4): "afffca96f261b818f8381d81bfb3eb2754fb87b42731ace833778d0324d344de",
    ("quartic+tilt", 8): "454a17fb632f3236ce1c741005e42b8555a01d4901e438283b4b180f8e959c3b",
}


@pytest.mark.parametrize("name,n", sorted(GOLDEN_SAMPLES))
def test_sampler_golden_samples(name, n):
    build, m = GOLDEN_POTENTIALS[name]
    ens = gibbs.sample_gibbs(build(), n, m, 6, gibbs.SamplerOptions(seed=mc.Seed(2024, n)))
    assert hashlib.sha256(ens.samples.tobytes()).hexdigest() == GOLDEN_SAMPLES[(name, n)]


def test_gibbs_entropy_golden_value():
    rep = entropy.gibbs_entropy(gibbs.Potential.quadratic(1.0, 1).with_quartic(0.25), 8, 1,
                                seed=mc.Seed(31), nodes=4, samples_per_node=8,
                                samples_final=16)
    assert repr(rep.h_n) == "np.float64(1.9552233859297723)"


def test_adaptation_window_flag_reports_a_hit():
    build, m = GOLDEN_POTENTIALS["tilt"]
    diag = gibbs.sample_gibbs(build(), 4, m, 6,
                              gibbs.SamplerOptions(seed=mc.Seed(2024, 4))).diagnostics
    assert diag["adapt_final_rate"] == pytest.approx(0.58)
    assert diag["adapt_in_window"] is True


def test_adaptation_window_flag_reports_a_miss():
    # a tiny fixed step accepts nearly every proposal, far above the window
    opts = gibbs.SamplerOptions(seed=SEED, step=1e-7, adapt_steps=50, pilot_steps=50)
    diag = gibbs.sample_gibbs(gibbs.Potential.quadratic(1.0, 1), 4, 1, 4, opts).diagnostics
    assert diag["adapt_final_rate"] > opts.target_accept[1]
    assert diag["adapt_in_window"] is False


def test_adaptation_window_flag_without_a_window():
    opts = gibbs.SamplerOptions(seed=SEED, adapt_steps=20, pilot_steps=50)
    diag = gibbs.sample_gibbs(gibbs.Potential.quadratic(1.0, 1), 4, 1, 4, opts).diagnostics
    assert diag["adapt_final_rate"] is None
    assert diag["adapt_in_window"] is False


def test_sampler_tilt_mean_shift():
    alpha = 0.8
    pot = gibbs.Potential.quadratic(1.0, 1).with_tilt([alpha])
    ens = gibbs.sample_gibbs(pot, 8, 1, 300, gibbs.SamplerOptions(seed=mc.Seed(10)))
    mean_diag = float(np.trace(ens.mean_tuple().entries[0]).real / 8)
    assert mean_diag == pytest.approx(-alpha, abs=0.05)


def test_sampler_rejects_nonconvex_declaration():
    # declared c twice the true curvature fails the spot check
    bad = gibbs.Potential([(0.5, ((0, True), (0, False)))], c=2.0)
    with pytest.raises(gibbs.SamplerError):
        gibbs.sample_gibbs(bad, 4, 1, 10, gibbs.SamplerOptions(seed=SEED))


def test_sampler_acceptance_collapse_aborts():
    # an absurd fixed step keeps acceptance at zero through every halving
    pot = gibbs.Potential.quadratic(1.0, 1)
    opts = gibbs.SamplerOptions(seed=SEED, step=1e9, max_halvings=5)
    with pytest.raises(gibbs.SamplerError, match="acceptance collapsed"):
        gibbs.sample_gibbs(pot, 4, 1, 10, opts)


def test_unitary_conjugation_invariance_of_statistics():
    pot = gibbs.Potential.quadratic(1.0, 1).with_quartic(0.2)
    ens = gibbs.sample_gibbs(pot, 6, 1, 80, gibbs.SamplerOptions(seed=mc.Seed(11)))
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    rotated = ens.conjugate_by(q)
    f = logic.parse("re tr(x1*x1'*x1*x1')")
    v0 = np.mean([logic.evaluate(f, t) for t in ens.tuples()])
    v1 = np.mean([logic.evaluate(f, t) for t in rotated.tuples()])
    assert v1 == pytest.approx(v0, abs=1e-9)


# ---------------------------------------------------------------------------
# gradient_at_zero


def test_gradient_at_zero_quadratic():
    est, bounds = gibbs.gradient_at_zero(gibbs.Potential.quadratic(1.0, 1), [0.5, 1.0, 2.0])
    assert np.allclose(est, 0.0, atol=1e-12)
    assert np.all(bounds >= 0.0)


def test_gradient_at_zero_tilt():
    a = 0.6
    pot = gibbs.Potential.quadratic(1.0, 1).with_tilt([a])
    est, bounds = gibbs.gradient_at_zero(pot, [1.0, 2.0, 4.0])
    assert est[0] == pytest.approx(a, abs=1e-10)
    assert np.all(np.abs(est[0]) <= bounds + 1e-12)


def test_gradient_at_zero_trace_term():
    pot = gibbs.Potential.from_formula("re tr(0.5*x1'*x1 + x1)", c=1.0)
    est, _ = gibbs.gradient_at_zero(pot, [1.0])
    assert est[0] == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# norm tail / expectation bound / Herbst checks


@pytest.fixture(scope="module")
def gaussian_ensemble():
    pot = gibbs.Potential.quadratic(1.0, 1)
    return gibbs.sample_gibbs(pot, 16, 1, 400, gibbs.SamplerOptions(seed=mc.Seed(123)))


def test_norm_tail_theta(gaussian_ensemble):
    rep = gibbs.norm_tail_check(gaussian_ensemble, c=1.0)
    assert rep.ok
    assert 0.0 <= rep.theta <= 4.0


def test_norm_tail_large_delta_vanishes(gaussian_ensemble):
    rep = gibbs.norm_tail_check(gaussian_ensemble, c=1.0, deltas=[5.0, 10.0])
    assert rep.frequencies[-1] == 0.0


def test_norm_tail_theta_stability():
    pots = gibbs.Potential.quadratic(1.0, 1)
    thetas = []
    for s in range(2):
        ens = gibbs.sample_gibbs(pots, 12, 1, 300, gibbs.SamplerOptions(seed=mc.Seed(55, s)))
        thetas.append(gibbs.norm_tail_check(ens, c=1.0).theta)
    assert abs(thetas[0] - thetas[1]) <= 0.2 * max(max(thetas), 1.0)


def test_expectation_bound_gaussian(gaussian_ensemble):
    pot = gibbs.Potential.quadratic(1.0, 1)
    rep = gibbs.expectation_bound_check(gaussian_ensemble, pot)
    # LHS = sqrt(2m/c); the printed bound sqrt(m)(c^{-1/2} + C/c) holds since C = m/2
    assert rep.lhs == pytest.approx(math.sqrt(2.0), abs=0.05)
    assert rep.c_constant == pytest.approx(0.5, abs=0.01)
    assert rep.ok
    assert rep.lhs <= rep.rhs_proof_scaling


def test_expectation_bound_scaled():
    pot = gibbs.Potential.quadratic(2.0, 1)
    ens = gibbs.sample_gibbs(pot, 8, 1, 200, gibbs.SamplerOptions(seed=mc.Seed(77)))
    rep = gibbs.expectation_bound_check(ens, pot)
    assert rep.lhs == pytest.approx(1.0, abs=0.05)
    assert rep.ok


def test_expectation_bound_insufficient_samples():
    pot = gibbs.Potential.quadratic(1.0, 1)
    tiny = gibbs.Ensemble(np.zeros((1, 1, 4, 4), dtype=complex))
    rep = gibbs.expectation_bound_check(tiny, pot)
    assert not rep.sufficient_samples and not rep.ok


def test_herbst_lipschitz_trace_passes(gaussian_ensemble):
    rep = gibbs.herbst_check(gaussian_ensemble, "re tr(x1)", c=1.0, lipschitz=1.0)
    assert rep.ok


def test_herbst_constant_formula(gaussian_ensemble):
    rep = gibbs.herbst_check(gaussian_ensemble, "re tr(x1*x1') - re tr(x1*x1')",
                             c=1.0, lipschitz=1.0)
    assert rep.ok
    assert np.all(rep.frequencies == 0.0)


def test_herbst_detects_wrong_lipschitz_constant(gaussian_ensemble):
    # tr(x^2) has no uniform Lipschitz bound; declaring L = 1 must fail
    rep = gibbs.herbst_check(gaussian_ensemble, "re tr(x1*x1)", c=1.0, lipschitz=1.0)
    assert not rep.ok


def test_herbst_estimated_lipschitz(gaussian_ensemble):
    # difference-quotient estimation of L makes the trace formula pass
    rep = gibbs.herbst_check(gaussian_ensemble, "re tr(x1)", c=1.0)
    assert 0.0 < rep.lipschitz <= 1.5
    assert rep.ok


def test_herbst_lipschitz_estimate_uses_eval_opts(monkeypatch):
    # sup{y:1} re tr(y x) is the normalized nuclear norm: its gradient is the
    # polar factor, so L = 1
    rng = np.random.default_rng(12)
    ens = gibbs.Ensemble(rng.normal(size=(4, 1, 2, 2)) + 1j * rng.normal(size=(4, 1, 2, 2)))
    opts = logic.EvalOptions(starts=2, iters=40)
    seen = []
    evaluate = logic.evaluate

    def spy(f, x, o=None):
        seen.append(o)
        return evaluate(f, x, o)

    monkeypatch.setattr(logic, "evaluate", spy)
    rep = gibbs.herbst_check(ens, "sup{y:1.0} re tr(y*x1)", c=1.0, eval_opts=opts)
    assert len(seen) > ens.count and all(o is opts for o in seen)
    assert rep.lipschitz == pytest.approx(1.0, abs=1e-3)


def test_ensemble_provenance_fields(gaussian_ensemble):
    prov = gaussian_ensemble.provenance
    assert {"potential", "potential_hash", "seed", "sampler"} <= set(prov)


# ---------------------------------------------------------------------------
# Ensemble file format


def test_fige_roundtrip(tmp_path, gaussian_ensemble):
    path = tmp_path / "e.fige"
    gibbs.save_ensemble(gaussian_ensemble, path)
    back = gibbs.load_ensemble(path)
    assert back.samples.tobytes() == gaussian_ensemble.samples.tobytes()
    assert back.provenance == gaussian_ensemble.provenance
    assert back.diagnostics["acceptance_rate"] == pytest.approx(
        gaussian_ensemble.diagnostics["acceptance_rate"])


def test_fige_magic_guard(tmp_path):
    bad = tmp_path / "bad.fige"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        gibbs.load_ensemble(bad)
