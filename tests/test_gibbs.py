"""Potentials, MALA sampling against exact Gaussian oracles, diagnostics, file IO."""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def reference_mala(pot, n, m, seed, tau, steps, thin, count):
    """Textbook MALA (Roberts and Tweedie, Bernoulli 2, 1996) for the density
    exp(-E) with E = n^2 phi, at the fixed step tau, from x = 0.

    The proposal is the forward Langevin mean x - tau grad E(x) plus sqrt(2 tau)
    standard tr_n Gaussian noise, drawn one step at a time from the noise
    stream of the chain seeded ``seed`` (real and imaginary parts
    interleaved); the acceptance ratio uses the forward and backward means
    and a uniform drawn from the chain's acceptance stream.  Runs ``steps``
    steps and returns the state after every ``thin``-th of the last
    ``count * thin``.
    """
    noise_rng, accept_rng = gibbs._chain_rngs(seed.derive(1))
    kernel = pot.bind(m)

    def energy(entries):
        value, grad = kernel(entries)
        return n * n * value.real, n * n * grad

    def sq_norm(a):
        return np.vdot(a, a).real / n

    x = np.zeros((m, n, n), dtype=complex)
    e_x, grad_x = energy(x)
    samples = []
    for k in range(steps, 0, -1):  # k steps left, this one included
        g = noise_rng.standard_normal((m, n, n, 2))
        mean_x = x - tau * grad_x
        y = mean_x + math.sqrt(2 * tau) * math.sqrt(n) * (g[..., 0] + 1j * g[..., 1])
        e_y, grad_y = energy(y)
        mean_y = y - tau * grad_y
        log_alpha = e_x - e_y + (sq_norm(y - mean_x) - sq_norm(x - mean_y)) / (4 * tau)
        if math.log(max(accept_rng.random(), 1e-300)) < log_alpha:
            x, e_x, grad_x = y, e_y, grad_y
        if k <= count * thin and (k - 1) % thin == 0:
            samples.append(x)
    return np.array(samples)


def assert_gradient_matches_fd(pot, x):
    grad = pot.bind(len(x))(x)[1]
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


coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def related_terms(draw, slots):
    """(coef, slot word) terms over slots 0 .. slots-1, and then terms whose words
    repeat one of them: a duplicate, a cyclic rotation, the adjoint or the empty word."""
    words = st.lists(st.tuples(st.integers(0, slots - 1), st.booleans()), max_size=4)
    terms = draw(st.lists(st.tuples(coefficients, words.map(tuple)), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 4))):
        word = draw(st.sampled_from(terms))[1]
        kind = draw(st.sampled_from(["duplicate", "rotation", "adjoint", "empty"]))
        if kind == "rotation" and word:
            k = draw(st.integers(1, len(word)))
            word = word[k:] + word[:k]
        elif kind == "adjoint":
            word = tuple((j, not star) for j, star in reversed(word))
        elif kind == "empty":
            word = ()
        terms.append((draw(coefficients), word))
    return terms


@settings(max_examples=40, deadline=None)
@given(terms=related_terms(2), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
# a gradient builds x1^* x1^*, the prefix the first word's value reads as (x1 x1)^*
@example(terms=[(1.0, ((0, True), (0, True), (0, False))),
                (1j, ((0, False), (0, True), (0, True), (0, True)))], n=2, seed=0)
def test_value_and_gradient_match_central_differences(terms, n, seed):
    # random words: starred letters, length-1 words (tilts), the empty word, and
    # words that share products: duplicates, cyclic rotations and adjoint pairs
    pot = gibbs.Potential(terms, c=1.0)
    rng = np.random.default_rng(seed)
    x = 0.5 * (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n)))
    value, grad = pot.bind(2)(x)
    tup = mc.MatrixTuple(x)
    assert pot.value(tup) == value.real
    assert pot.gradient(tup).entries.tobytes() == grad.tobytes()
    assert_gradient_matches_fd(pot, x)


@pytest.mark.parametrize("terms,c,message", [
    ([], math.nan, "c must be finite and positive, got nan"),
    ([], math.inf, "c must be finite and positive, got inf"),
    ([], 0.0, "c must be finite and positive, got 0.0"),
    ([(math.inf, ((0, False),))], 1.0,
     r"coefficient \(inf\+0j\) of word \(\(0, False\),\) is not finite"),
    ([(complex(0.5, math.nan), ((0, False),))], 1.0, "coefficient .*nan.* is not finite"),
    ([(0.5, ((0, True), (-1, False)))], 1.0, r"slot -1 in word .* is negative"),
])
def test_potential_rejects_bad_terms(terms, c, message):
    # nan <= 0 is False, so a nan c used to pass; slot -1 read the last matrix
    with pytest.raises(ValueError, match=message):
        gibbs.Potential(terms, c)


def matmuls(pot, grad_slots):
    plan = logic._trace_plan(tuple(w for _, w in pot.terms), grad_slots)
    return sum(b is not None for _, b, _ in plan.steps)


def test_plan_builds_each_product_once():
    # tr(x^* x) is vdot(x, x) and its gradient is x itself: no product; the
    # quartic tr((x^* x)^2) builds x x^* x once, for its value and all four
    # gradient terms; the plan does not depend on the gradient slots
    q = gibbs.Potential.quadratic(1.0, 2)
    for grad_slots in (None, (0, 1), (1,)):
        assert matmuls(q, grad_slots) == 0
        assert matmuls(q.with_quartic(0.1, slots=[0]), grad_slots) == 2
        assert matmuls(q.with_quartic(0.1), grad_slots) == 4


def test_plan_merges_duplicate_words():
    # a TI mix of q with itself carries each word twice and evaluates it once
    q = gibbs.Potential.quadratic(1.0, 2)
    mix = entropy._mix_potential(q, q, 0.3)
    plan = logic._trace_plan(tuple(w for _, w in mix.terms), (0, 1))
    assert len(mix.terms) == 4
    assert len(plan.reads) == 2
    assert all(len(groups) == 1 for groups, _ in plan.grads)


def test_plan_cache_is_keyed_by_words_not_coefficients():
    pot = gibbs.Potential.quadratic(1.0, 2).with_quartic(0.1)
    x = random_tuple(3, 2, np.random.default_rng(12)).entries
    kernel = pot.bind(2)
    before = logic._trace_plan.cache_info()
    value, grad = logic.trace_pass([(2.5 * c, w) for c, w in pot.terms], x, range(2))
    after = logic._trace_plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    ref_value, ref_grad = kernel(x)
    assert value.real == pytest.approx(2.5 * ref_value.real, rel=1e-12)
    assert np.allclose(grad, 2.5 * ref_grad, rtol=1e-12, atol=0)


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


@pytest.mark.parametrize("master", [61, 62, 63])
def test_quadratic_chain_mean_squared_norm_within_four_standard_errors(master):
    # E ||X||^2_{tr_n} = 2m/c exactly (2mn^2 coordinates of variance 1/(c n^2)).
    # A mis-scaled noise draw breaks detailed balance and moves this mean (by
    # 17 standard errors at 5% too little noise); reference_mala reads the
    # chain's own draws, so only an exact moment checks the law of the noise
    n, m, c = 16, 2, 1.0
    ens = gibbs.sample_gibbs(gibbs.Potential.quadratic(c, m), n, m, 64,
                             gibbs.SamplerOptions(seed=mc.Seed(master)))
    sq = np.sum(np.abs(ens.samples) ** 2, axis=(1, 2, 3)) / n
    se = sq.std(ddof=1) / math.sqrt(ens.diagnostics["ess"])
    assert abs(sq.mean() - 2 * m / c) <= 4 * se


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
    # a thermodynamic-integration node: the shared quadratic words merge
    "ti-mix": (lambda: entropy._mix_potential(gibbs.Potential.quadratic(1.0, 1),
                                              gibbs.Potential.quadratic(1.0, 1)
                                              .with_quartic(0.25), 0.3), 1),
    # the talagrand experiment's base: a quartic on the first of two slots
    "quartic-slot0": (lambda: gibbs.Potential.quadratic(1.0, 2).with_quartic(0.5, slots=[0]),
                      2),
}
GOLDEN_SAMPLES = {
    ("quadratic", 4): "db6d59de0bd5f5b216556d86f32135ba38e2562544bc3e7a0c6497e09ff4e54c",
    ("quadratic", 8): "bfc1668ac7003eeb38ffbbab44feb307fbf17ee763564804ba85b5e5f17d8e85",
    ("tilt", 4): "8046ad7a6e681e6ea0de4a8b182180fac9636465b566e1ff1465bb7786e49535",
    ("tilt", 8): "681bb13fce494cb03f323122a11b6585374e12fc4d3ea8bebe67460e7803762b",
    ("quartic+tilt", 4): "fa6e1387c80c825dedd5770baa1251459e3bd437300bce1571a447e9676fbb94",
    ("quartic+tilt", 8): "728aace73d847ee0b4dc59ff2a639c078942523bcb678de73502c99aef3bd512",
    # n = 6: n^2 is not a power of two
    ("quartic+tilt", 6): "8659185d08fa95abc7426d61c7e6595d6d478ec06809118d46f71e9fe66ea9c9",
    ("ti-mix", 8): "d4a8ff2001b7637f3f9ee2b1d407dd45d974c527c52996293e062b6e4c0d866c",
    ("quartic-slot0", 8): "c49d0fa8d135acbbf601925e186f0d1e20129ddbf99d908acc09a5b259abe4b9",
}


@pytest.mark.parametrize("name,n", sorted(GOLDEN_SAMPLES))
def test_sampler_golden_samples(name, n):
    build, m = GOLDEN_POTENTIALS[name]
    ens = gibbs.sample_gibbs(build(), n, m, 6, gibbs.SamplerOptions(seed=mc.Seed(2024, n)))
    assert hashlib.sha256(ens.samples.tobytes()).hexdigest() == GOLDEN_SAMPLES[(name, n)]


@pytest.mark.parametrize("name,n", sorted(GOLDEN_SAMPLES))
def test_golden_chains_end_adaptation_in_window(name, n):
    build, m = GOLDEN_POTENTIALS[name]
    diag = gibbs.sample_gibbs(build(), n, m, 6,
                              gibbs.SamplerOptions(seed=mc.Seed(2024, n))).diagnostics
    assert diag["halvings"] == 0
    assert diag["adapt_in_window"] is True


def test_recording_accepts_at_the_rate_the_pilot_measured():
    # the chain records at the step the pilot ran at, so the two rates differ
    # by sampling error alone: no bias.  One chain's gap has SD about 0.025, so
    # the mean over 16 chains is held to three of its standard errors (a chain
    # that records at 1.25x the frozen step reads about -20 of them)
    gaps = []
    for s in range(16):
        diag = gibbs.sample_gibbs(gibbs.Potential.quadratic(1.0, 1), 8, 1, 200,
                                  gibbs.SamplerOptions(seed=mc.Seed(2024 + s, 8))).diagnostics
        gaps.append(diag["acceptance_rate"] - diag["adapt_final_rate"])
    gaps = np.array(gaps)
    assert abs(gaps.mean()) <= 3 * gaps.std(ddof=1) / math.sqrt(gaps.size)


@pytest.mark.parametrize("n,m", [(6, 1), (8, 2)])
def test_numpy_draws_and_arithmetic_the_mala_step_relies_on(n, m):
    # the goldens above rest on these equalities; a numpy release that breaks
    # one fails here instead of moving the goldens
    (a_noise, a_accept), (b_noise, b_accept) = (gibbs._chain_rngs(mc.Seed(2024, n))
                                                for _ in range(2))
    # one block fill of several steps' noise is the per-step fills one after
    # another, and one block of uniforms is that many random() calls
    block = np.empty((5, 2 * m * n * n))
    a_noise.standard_normal(out=block[:3])
    assert block[:3].tobytes() == b"".join(b_noise.standard_normal((m, n, n, 2)).tobytes()
                                           for _ in range(3))
    u = a_accept.random(out=np.empty(50))
    assert [v.hex() for v in u.tolist()] == [b_accept.random().hex() for _ in range(50)]
    # a shorter fill into the same buffer reads on from where the last stopped
    a_noise.standard_normal(out=block[:2])
    assert block[:2].tobytes() == b_noise.standard_normal((2, m, n, n, 2)).tobytes()
    # noise sqrt(2 sigma/n)(g1 + i g2) scaled from a block row into the flat
    # real view of a complex buffer, as sample_gibbs builds it
    g = block[1].reshape(m, n, n, 2)
    noise = np.empty((m, n, n), dtype=np.complex128)
    scale = math.sqrt(2 * 0.37 / n)
    np.multiply(block[1], scale, out=noise.reshape(-1).view(np.float64))
    assert noise.tobytes() == (scale * g[..., 0] + 1j * (scale * g[..., 1])).tobytes()


def test_chain_stream_is_sfc64_over_the_seed_sequence_of_seed_rng():
    # the chain's noise and acceptance streams are SFC64 over the two children
    # of the SeedSequence that Seed.rng() runs Philox over
    seed = mc.Seed(2024, 7).derive(1)
    seq = seed.rng().bit_generator.seed_seq
    assert (seq.entropy, seq.spawn_key) == (2024, (seed.stream_id,))
    for k, (stream, child) in enumerate(zip(gibbs._chain_rngs(seed), seq.spawn(2))):
        assert isinstance(stream.bit_generator, np.random.SFC64)
        assert child.spawn_key == (seed.stream_id, k)
        expected = np.random.Generator(np.random.SFC64(child))
        assert stream.standard_normal(64).tobytes() == expected.standard_normal(64).tobytes()


def test_chain_streams_differ_from_each_other_and_from_seed_streams():
    # the spawned children's keys (stream_id, 0) and (stream_id, 1) are no
    # Seed's key, so neither stream repeats another's bits, whatever the bit
    # generator over them
    seed = mc.Seed(2024, 7)
    noise, accept = (g.bit_generator.random_raw(16).tobytes()
                     for g in gibbs._chain_rngs(seed.derive(1)))
    others = {np.random.SFC64(s.sequence()).random_raw(16).tobytes()
              for s in (seed, seed.derive(0), seed.derive(1), seed.derive(2))}
    others |= {s.rng().bit_generator.random_raw(16).tobytes()
               for s in (seed, seed.derive(0), seed.derive(1))}
    assert noise != accept
    assert not {noise, accept} & others


@pytest.mark.parametrize("block_bytes", [1, 2**40])
def test_chain_bits_do_not_depend_on_the_block_length(monkeypatch, block_bytes):
    # one step per fill, and one fill per phase (a block longer than the whole
    # chain), give the ensemble of the default block, bit for bit
    build, m = GOLDEN_POTENTIALS["quartic+tilt"]
    opts = gibbs.SamplerOptions(seed=mc.Seed(2024, 6))
    # the default block holds 227 steps here: adaptation takes 4 fills
    assert gibbs._BLOCK_BYTES // (16 * m * 6 * 6) == 227
    default = gibbs.sample_gibbs(build(), 6, m, 5, opts)
    monkeypatch.setattr(gibbs, "_BLOCK_BYTES", block_bytes)
    ens = gibbs.sample_gibbs(build(), 6, m, 5, opts)
    assert ens.samples.tobytes() == default.samples.tobytes()
    assert ens.diagnostics == default.diagnostics


REFERENCE_POTENTIALS = {
    "quadratic": lambda m: gibbs.Potential.quadratic(1.0, m),
    "quartic+tilt": lambda m: gibbs.Potential.quadratic(2.0, m)
    .with_tilt([0.5, -0.25][:m]).with_quartic(0.1),
    "ti-mix": lambda m: entropy._mix_potential(gibbs.Potential.quadratic(1.0, m),
                                               gibbs.Potential.quadratic(1.0, m)
                                               .with_quartic(0.25), 0.3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_POTENTIALS))
@pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (6, 1), (6, 2)])
def test_sampler_matches_textbook_mala(name, n, m):
    # sample_gibbs steps in phi units and takes its acceptance ratio from the
    # expanded identity; at a fixed step it is the same chain as the textbook form
    pot = REFERENCE_POTENTIALS[name](m)
    opts = gibbs.SamplerOptions(seed=mc.Seed(2024, 10 * n + m), adapt_steps=0)
    ens = gibbs.sample_gibbs(pot, n, m, 5, opts)
    diag = ens.diagnostics
    ref = reference_mala(pot, n, m, opts.seed, diag["step"], diag["steps"], diag["thin"], 5)
    assert np.max(np.abs(ens.samples - ref)) <= 1e-12


class CountingRng:
    """A Generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


def test_mala_step_work_count(monkeypatch):
    # per step one kernel call; per block of steps one normal fill and one
    # uniform fill, a phase's last block ending at its last step; the plan and
    # its coefficients are bound once per chain, and nothing else binds
    rngs, binds = {}, []
    chain_rngs, bind_trace = gibbs._chain_rngs, logic.bind_trace

    def counting_rngs(seed):
        rngs[seed] = tuple(CountingRng(g) for g in chain_rngs(seed))
        return rngs[seed]

    def counting_bind(terms, grad_slots=None):
        kernel = bind_trace(terms, grad_slots)
        binds.append([tuple(grad_slots) if grad_slots is not None else None, 0])
        record = binds[-1]

        def run(entries):
            record[1] += 1
            return kernel(entries)

        return run

    monkeypatch.setattr(gibbs, "_chain_rngs", counting_rngs)
    monkeypatch.setattr(logic, "bind_trace", counting_bind)
    monkeypatch.setattr(gibbs, "_BLOCK_BYTES", 16 * 2 * 4 * 4 * 32)  # 32 steps per block
    build, m = GOLDEN_POTENTIALS["quartic+tilt"]
    opts = gibbs.SamplerOptions(seed=mc.Seed(2024, 4), adapt_steps=120, pilot_steps=80)
    count = 5
    ens = gibbs.sample_gibbs(build(), 4, m, count, opts)
    # the pilot runs at the frozen step, so it counts toward the 10 IAT burn-in
    extra_burn = max(0, math.ceil(10 * ens.diagnostics["iat"]) - opts.pilot_steps)
    phases = [opts.adapt_steps, opts.pilot_steps, extra_burn, count * ens.diagnostics["thin"]]
    steps = sum(phases)
    fills = sum(math.ceil(k / 32) for k in phases)
    assert list(rngs) == [opts.seed.derive(1)]  # one chain, two generators
    noise, accept = rngs[opts.seed.derive(1)]
    assert (noise.calls, accept.calls) == ({"standard_normal": fills}, {"random": fills})
    assert ens.diagnostics["steps"] == steps
    # the extra calls are the start point and the convexity spot check's 36
    # values, three for each of its 12 pairs, through the same kernel
    assert binds == [[(0, 1), steps + 1 + 36]]


def test_gibbs_entropy_golden_value():
    rep = entropy.gibbs_entropy(gibbs.Potential.quadratic(1.0, 1).with_quartic(0.25), 8, 1,
                                seed=mc.Seed(31), nodes=4, samples_per_node=8,
                                samples_final=16)
    assert repr(rep.h_n) == "np.float64(1.9233061728705887)"


def test_adaptation_window_flag_reports_a_hit():
    build, m = GOLDEN_POTENTIALS["tilt"]
    diag = gibbs.sample_gibbs(build(), 4, m, 6,
                              gibbs.SamplerOptions(seed=mc.Seed(2024, 4))).diagnostics
    assert diag["adapt_final_rate"] == pytest.approx(405 / 600)  # the pilot's 600 steps
    assert diag["adapt_in_window"] is True


def test_adaptation_window_flag_reports_a_miss():
    # a tiny fixed step accepts nearly every proposal, far above the window
    opts = gibbs.SamplerOptions(seed=SEED, step=1e-7, adapt_steps=50, pilot_steps=50)
    diag = gibbs.sample_gibbs(gibbs.Potential.quadratic(1.0, 1), 4, 1, 4, opts).diagnostics
    assert diag["adapt_final_rate"] > gibbs._TARGET_ACCEPT[1]
    assert diag["adapt_in_window"] is False


def test_adaptation_window_flag_without_a_window():
    # the flag reads the pilot's acceptance, so only a chain with no pilot has none
    opts = gibbs.SamplerOptions(seed=SEED, adapt_steps=20, pilot_steps=0)
    diag = gibbs.sample_gibbs(gibbs.Potential.quadratic(1.0, 1), 4, 1, 4, opts).diagnostics
    assert diag["adapt_final_rate"] is None
    assert diag["adapt_in_window"] is False


def test_sampler_tilt_mean_shift():
    alpha = 0.8
    pot = gibbs.Potential.quadratic(1.0, 1).with_tilt([alpha])
    ens = gibbs.sample_gibbs(pot, 8, 1, 300, gibbs.SamplerOptions(seed=mc.Seed(10)))
    mean_diag = float(np.trace(ens.mean_tuple().entries[0]).real / 8)
    assert mean_diag == pytest.approx(-alpha, abs=0.05)


def test_sampler_rejects_a_potential_with_more_slots_than_m(monkeypatch):
    # slot 1 does not exist at m = 1; it used to surface as an IndexError from
    # the trace kernel inside the convexity spot check
    def no_spot_check(*args):
        raise AssertionError("ran the spot check")

    monkeypatch.setattr(gibbs, "_convexity_spot", no_spot_check)
    pot = gibbs.Potential.from_formula("0.5*re tr(x1*x1') + 0.5*re tr(x2*x2')", c=1.0)
    with pytest.raises(ValueError, match="the potential uses 2 matrix slots but m = 1"):
        gibbs.sample_gibbs(pot, 4, 1, 3, gibbs.SamplerOptions(seed=SEED))


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


@pytest.mark.parametrize("kwargs, match", [
    ({"step": 0.0}, "step must be None or finite and > 0, got 0.0"),
    ({"step": -1.0}, "step must be None or finite and > 0, got -1.0"),
    ({"step": math.nan}, "step must be None or finite and > 0, got nan"),
    ({"step": math.inf}, "step must be None or finite and > 0, got inf"),
    ({"adapt_steps": -1}, "adapt_steps must be >= 0, got -1"),
    ({"pilot_steps": -5}, "pilot_steps must be >= 0, got -5"),
    ({"max_halvings": -1}, "max_halvings must be >= 0, got -1"),
    ({"convexity_spot_pairs": 0}, "convexity_spot_pairs must be >= 1, got 0"),
    ({"convexity_spot_pairs": -3}, "convexity_spot_pairs must be >= 1, got -3"),
])
def test_sampler_options_reject_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        gibbs.SamplerOptions(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"step": 1e-7}, {"step": 1e9}, {"step": None}, {"adapt_steps": 0}, {"adapt_steps": 20},
    {"pilot_steps": 0}, {"max_halvings": 0}, {"max_halvings": 5},
    {"adapt_steps": 0, "pilot_steps": 0}, {"convexity_spot_pairs": 1},
])
def test_sampler_options_accept_edge_values(kwargs):
    assert gibbs.SamplerOptions(**kwargs)


@pytest.mark.parametrize("count", [0, -1])
def test_sampler_rejects_nonpositive_count(count):
    with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
        gibbs.sample_gibbs(gibbs.Potential.quadratic(1.0, 1), 4, 1, count,
                           gibbs.SamplerOptions(seed=SEED))


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


def test_conjugate_by_matches_slotwise_products():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    samples = rng.normal(size=(4, 2, 5, 5)) + 1j * rng.normal(size=(4, 2, 5, 5))
    want = np.array([[q @ x @ q.conj().T for x in tup] for tup in samples])
    ens = gibbs.Ensemble(samples)
    np.testing.assert_allclose(ens.conjugate_by(q).samples, want, rtol=0.0, atol=1e-13)
    for i, x in enumerate(ens.tuples()):
        np.testing.assert_allclose(x.conjugate_by(q).entries, want[i], rtol=0.0, atol=1e-13)


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


@pytest.mark.parametrize("s", range(8))
def test_norm_tail_theta_is_the_smallest_that_holds(s):
    # exact Ginibre samples; theta sits where the (allowed + 1)-th largest
    # statistic is not counted, so the check holds at theta and fails just below
    rng = mc.Seed(900 + s).rng()
    shape = (400, 1, 16, 16)
    ens = gibbs.Ensemble((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                         / math.sqrt(32.0))
    rep = gibbs.norm_tail_check(ens, c=1.0)
    assert rep.ok
    assert rep.theta > 0.0
    centred = ens.samples[:, 0] - ens.mean_tuple().entries[0]
    stats = np.linalg.norm(centred, ord=2, axis=(1, 2))
    below = [np.mean(stats - d > rep.theta - 1e-9) for d in rep.grid]
    assert np.any(np.array(below) > rep.bounds)


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
    for name in ("evaluate", "value_and_gradient"):
        def spy(f, x, o=None, name=name, real=getattr(logic, name)):
            seen.append((name, o))
            return real(f, x, o)

        monkeypatch.setattr(logic, name, spy)
    rep = gibbs.herbst_check(ens, "sup{y:1.0} re tr(y*x1)", c=1.0, eval_opts=opts)
    assert len(seen) > ens.count and all(o is opts for _, o in seen)
    assert {name for name, _ in seen} == {"evaluate", "value_and_gradient"}
    assert rep.lipschitz == pytest.approx(1.0, abs=1e-3)


def test_ensemble_provenance_fields(gaussian_ensemble):
    prov = gaussian_ensemble.provenance
    assert {"potential", "potential_hash", "seed", "sampler"} <= set(prov)
    assert prov["sampler"]["rng"] == "SFC64"  # the generator that reproduces the chain


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


@pytest.fixture(scope="module")
def small_fige(tmp_path_factory):
    rng = np.random.default_rng(77)
    samples = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
    ens = gibbs.Ensemble(samples, {"potential": "q", "seed": [1, 2]},
                         {"acceptance_rate": 0.5})
    path = tmp_path_factory.mktemp("fige") / "small.fige"
    gibbs.save_ensemble(ens, path)
    return ens, path.read_bytes()


def test_fige_corrupt_files_fail_clearly(tmp_path, small_fige):
    ens, data = small_fige
    path = tmp_path / "corrupt.fige"
    sample_bytes = ens.samples.nbytes
    cases = {
        "truncated": (data[:100], rf"declares {sample_bytes} sample bytes .* 78 bytes"),
        "inflated count": (data[:14] + (4).to_bytes(8, "little") + data[22:],
                           rf"declares {sample_bytes * 4 // 3} sample bytes"),
        "cut-off metadata": (data[:-5], "corrupt FIGE metadata"),
        "no metadata": (data[: 22 + sample_bytes], "corrupt FIGE metadata"),
        "non-object metadata": (data[: 22 + sample_bytes] + b"[]", "not a JSON object"),
        "short header": (data[:10], "header cut off after 10 bytes"),
        "nan sample": (data[:22] + np.array([np.nan], "<c16").tobytes() + data[38:],
                       "non-finite"),
    }
    for name, (blob, message) in cases.items():
        path.write_bytes(blob)
        with pytest.raises(ValueError, match=message) as info:
            gibbs.load_ensemble(path)
        assert str(path) in str(info.value), name


@pytest.mark.parametrize("n, m", [(2, 0), (0, 1)])
def test_fige_header_with_no_matrices_fails_clearly(tmp_path, n, m):
    # m = 0 used to load, and w2 reported 0.0; n = 0 failed later with "invalid
    # numeric entries" or "m and n must be positive", neither naming the file
    path = tmp_path / "empty_shape.fige"
    gibbs.save_ensemble(gibbs.Ensemble(np.zeros((3, m, n, n), dtype=complex)), path)
    with pytest.raises(ValueError) as info:
        gibbs.load_ensemble(path)
    assert str(info.value) == f"{path}: header declares n {n} and m {m}; both must be >= 1"


@settings(max_examples=300, deadline=None)
@given(op=st.sampled_from(["truncate", "extend", "header"]), data=st.data())
def test_fige_fuzz_fails_clearly_or_loads_exactly(tmp_path_factory, small_fige, op, data):
    ens, blob = small_fige
    if op == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif op == "extend":
        blob = blob + data.draw(st.binary(min_size=1, max_size=64))
    else:
        small = st.integers(0, 12)
        fields = (data.draw(st.one_of(st.just(1), st.integers(0, 2**16 - 1))),
                  data.draw(st.one_of(small, st.integers(0, 2**32 - 1))),
                  data.draw(st.one_of(small, st.integers(0, 2**32 - 1))),
                  data.draw(st.one_of(small, st.integers(0, 2**64 - 1))))
        blob = blob[:4] + struct.pack("<HIIQ", *fields) + blob[22:]
    path = tmp_path_factory.mktemp("fuzz") / "f.fige"
    path.write_bytes(blob)
    try:
        back = gibbs.load_ensemble(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert back.samples.tobytes() == ens.samples.tobytes()
    assert (back.provenance, back.diagnostics) == (ens.provenance, ens.diagnostics)
