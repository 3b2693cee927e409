"""Inf-convolution, Legendre transform, interpolation pairs, curvature checks."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import expit

from freegeo import convex as cx
from freegeo.matcore import MatrixTuple

RNG = np.random.default_rng(2718)


def quad(c, a=0.0):
    """(c/2)||x||^2 + <a, x> with analytic gradient (scalar or vector backend)."""
    return cx.ScalarFn(
        fn=lambda x: 0.5 * c * cx.inner(x, x) + cx.inner(a, x),
        grad=lambda x: c * x + a,
        strong_convexity=c,
        semiconcavity=c,
    )


def sample_triples(count, dim=None, rng=RNG, scale=2.0):
    out = []
    for _ in range(count):
        if dim is None:
            x, y = scale * rng.normal(), scale * rng.normal()
        else:
            x, y = scale * rng.normal(size=dim), scale * rng.normal(size=dim)
        out.append((x, y, float(rng.uniform())))
    return out


# ---------------------------------------------------------------------------
# inf_convolution


def test_inf_convolution_of_zero():
    zero = cx.ScalarFn(lambda x: 0.0, grad=lambda x: 0.0 * x)
    for t in (0.1, 1.0, 3.0):
        assert cx.inf_convolution(zero, t, 1.7) == pytest.approx(0.0, abs=1e-10)


def test_inf_convolution_quadratic_oracle():
    # phi = (c/2)x^2: minimize (c/2)y^2 + (x-y)^2/(2t) -> value c x^2 / (2 (1+ct))
    for c, t, x in [(1.0, 0.5, 1.3), (3.0, 0.2, -0.7), (0.5, 2.0, 2.5)]:
        val = cx.inf_convolution(quad(c), t, x)
        assert val == pytest.approx(c * x**2 / (2 * (1 + c * t)), abs=1e-9)


def test_inf_convolution_linear_oracle():
    # phi = <a, x>: complete the square -> <a,x> - t ||a||^2 / 2
    a = np.array([0.3, -1.1])
    lin = cx.ScalarFn(lambda x: cx.inner(a, x), grad=lambda x: a)
    x = np.array([1.0, 2.0])
    for t in (0.25, 1.0):
        assert cx.inf_convolution(lin, t, x) == pytest.approx(
            cx.inner(a, x) - t * cx.inner(a, a) / 2, abs=1e-9
        )


def test_hopf_lax_of_an_affine_function_declared_0_semiconcave():
    # an affine phi is 0-semiconcave and so is phi_t; hopf_lax used to divide
    # by that u, and inf_convolution reads hopf_lax's value
    a = np.array([0.3, -1.1])
    lin = cx.ScalarFn(lambda x: cx.inner(a, x), grad=lambda x: a, semiconcavity=0.0)
    x = np.array([1.0, 2.0])
    assert cx.hopf_lax(lin, 0.5).semiconcavity == 0.0
    assert cx.inf_convolution(lin, 0.5, x) == pytest.approx(
        cx.inner(a, x) - 0.5 * cx.inner(a, a) / 2, abs=1e-9)


def test_inf_convolution_matrix_backend():
    x = MatrixTuple(RNG.normal(size=(1, 3, 3)) + 1j * RNG.normal(size=(1, 3, 3)))
    val = cx.inf_convolution(quad(2.0, a=0.0 * x), 0.5, x)
    assert val == pytest.approx(2 * cx.inner(x, x) / (2 * (1 + 1.0)), abs=1e-8)


def test_hopf_lax_curvature_facts():
    # all four inf-convolution curvature rules on a smooth convex function
    rng = np.random.default_rng(5)
    k = 1.5
    # softplus has second derivative bounded by k/4, so semiconcavity k/4
    f = cx.ScalarFn(
        fn=lambda x: 0.5 * x * x + np.logaddexp(0.0, k * x) / k,
        grad=lambda x: x + 1.0 / (1.0 + np.exp(-k * x)),
        strong_convexity=1.0,
        semiconcavity=1.0 + k / 4,
    )
    t = 0.7
    ft = cx.hopf_lax(f, t)
    triples = sample_triples(40, rng=rng)
    # 1/t-semiconcave always
    assert cx.check_semiconcavity(ft, 1 / t, triples).max_violation <= 1e-8
    # sharpened semiconcavity 1/(t + 1/u)
    assert cx.check_semiconcavity(ft, 1 / (t + 1 / f.semiconcavity), triples).max_violation <= 1e-8
    # convexity preserved
    assert cx.check_strong_convexity(ft, 0.0, triples).max_violation <= 1e-8
    # strong convexity 1/(t + 1/c)
    assert cx.check_strong_convexity(ft, 1 / (t + 1 / f.strong_convexity), triples).max_violation <= 1e-8


@pytest.mark.parametrize("build", [
    lambda: cx.hopf_lax(cx.ScalarFn(abs, grad=np.sign), 0.0),
    lambda: cx.hopf_lax(cx.quadratic_q(), math.nan),
    lambda: cx.hopf_lax(cx.quadratic_q(), -1.0),
    lambda: cx.inf_convolution(cx.quadratic_q(), math.inf, 0.7),
    lambda: cx.inf_convolution(cx.quadratic_q(), math.nan, 0.7),
], ids=["hopf-lax t=0", "hopf-lax t=nan", "hopf-lax t=-1", "inf-conv t=inf", "inf-conv t=nan"])
def test_inf_convolution_rejects_bad_time(build):
    # t = 0 used to divide by zero, t = inf returned q(x) instead of 0, t = nan returned nan
    with pytest.raises(ValueError, match=r"time t must be finite and > 0, got (0\.0|nan|-1\.0|inf)"):
        build()


def test_prox_divergence_reported():
    bad = cx.ScalarFn(lambda x: -2.0 * x * x, grad=lambda x: -4.0 * x)  # concave
    with pytest.raises(cx.ConvergenceError):
        cx.inf_convolution(bad, 1.0, 1.0)


@pytest.mark.parametrize("x", [1.0, np.array([1.0, -0.5]),
                               MatrixTuple(np.ones((1, 2, 2)))], ids=["float", "vector", "tuple"])
def test_prox_with_a_wrong_gradient_raises(x):
    # grad points uphill, so no trial step decreases psi; a golden-section
    # fallback used to return the start after three stalls, uncertified
    wrong = cx.ScalarFn(lambda z: cx.inner(z, z), grad=lambda z: -2.0 * z, name="wrong")
    with pytest.raises(cx.ConvergenceError, match=r"certificate \(t/2\)\|\|grad psi\|\|\^2 = "
                                                  r"\S+ > tol=1e-12"):
        cx.inf_convolution(wrong, 0.5, x)
    with pytest.raises(cx.ConvergenceError, match="certificate"):
        cx.hopf_lax(wrong, 0.5).gradient(x)


# ---------------------------------------------------------------------------
# Legendre transform


def test_legendre_self_dual_q():
    q = cx.quadratic_q()
    for y in (-1.5, 0.0, 2.2):
        assert cx.legendre_strongly_convex(q, y) == pytest.approx(0.5 * y * y, abs=1e-9)


def test_legendre_scaled_quadratic():
    for c, y in [(2.0, 1.0), (0.5, -2.0)]:
        assert cx.legendre_strongly_convex(quad(c), y) == pytest.approx(
            y * y / (2 * c), abs=1e-9
        )


def test_legendre_tilted_quadratic():
    # phi = q + <a, x> -> L phi(y) = ||y - a||^2 / 2
    a, y = 0.8, 1.9
    assert cx.legendre_strongly_convex(quad(1.0, a), y) == pytest.approx(
        0.5 * (y - a) ** 2, abs=1e-9
    )


def test_legendre_requires_constant():
    with pytest.raises(ValueError):
        cx.legendre_strongly_convex(cx.ScalarFn(lambda x: abs(x)), 1.0)
    # c = 0 used to divide by zero while legendre_fn built the transform
    flat = cx.ScalarFn(lambda x: x * x, grad=lambda x: 2 * x, name="flat")
    with pytest.raises(ValueError, match="flat requires .* c > 0, got 0.0"):
        cx.legendre_fn(flat)


@pytest.mark.parametrize("call", [
    lambda f: cx.inf_convolution(f, 0.5, 1.0),
    lambda f: cx.hopf_lax(f, 0.5)(1.0),
    lambda f: cx.legendre_strongly_convex(f, 1.0),
    lambda f: cx.interpolation_pair(f, cx.quadratic_q(), 0.3, 0.6).phi_st(1.0),
], ids=["inf_convolution", "hopf_lax", "legendre", "interpolation"])
def test_minimising_needs_a_gradient(call):
    gradless = cx.ScalarFn(lambda x: x * x, strong_convexity=2.0, name="gradless")
    with pytest.raises(ValueError, match="ScalarFn gradless has no grad"):
        call(gradless)


def test_fenchel_young_on_random_pairs():
    rng = np.random.default_rng(8)
    phi = quad(1.7, 0.4)
    psi = cx.legendre_fn(phi)
    for _ in range(200):
        x, y = 2 * rng.normal(), 2 * rng.normal()
        assert cx.duality_gap(phi, psi, x, y) >= -1e-8


# ---------------------------------------------------------------------------
# Duality gap


def test_duality_gap_quadratic_pair():
    q = cx.quadratic_q()
    assert cx.duality_gap(q, q, 1.3, 1.3) == pytest.approx(0.0, abs=1e-12)
    h = 0.4
    assert cx.duality_gap(q, q, 1.3, 1.3 + h) == pytest.approx(h * h / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# Convexity / semiconcavity checkers


def test_check_quadratic_equality_case():
    rep = cx.check_strong_convexity(cx.quadratic_q(), 1.0, sample_triples(100))
    assert rep.max_violation <= 1e-10


def test_check_detects_false_constant():
    # f = x^2 is 2-strongly convex but not 3-strongly convex; x=0, y=1, a=1/2
    f = cx.ScalarFn(lambda x: x * x)
    rep = cx.check_strong_convexity(f, 3.0, [(0.0, 1.0, 0.5)])
    assert rep.max_violation == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_check_exp_is_convex():
    f = cx.ScalarFn(lambda x: math.exp(x))
    rep = cx.check_strong_convexity(f, 0.0, sample_triples(100, scale=1.0))
    assert rep.max_violation <= 1e-10


def test_check_semiconcavity_mirror():
    rep = cx.check_semiconcavity(cx.quadratic_q(), 1.0, sample_triples(100))
    assert rep.max_violation <= 1e-10
    f = cx.ScalarFn(lambda x: -(x * x))  # concave, 0-semiconcave
    assert cx.check_semiconcavity(f, 0.0, sample_triples(50)).max_violation <= 1e-10
    # -x^2 is not (-3)-semiconcave... but x^2 is NOT 1-semiconcave: violation found
    g = cx.ScalarFn(lambda x: 2 * x * x)
    assert cx.check_semiconcavity(g, 1.0, [(0.0, 1.0, 0.5)]).max_violation > 0


def test_check_semiconcavity_infinite_passes():
    f = cx.ScalarFn(lambda x: math.exp(3 * x))
    assert cx.check_semiconcavity(f, math.inf, sample_triples(20)).max_violation == -math.inf


def test_report_serialization():
    rep = cx.check_strong_convexity(cx.quadratic_q(), 1.0, sample_triples(10))
    blob = rep.to_json()
    assert blob["n_checked"] == 10 and blob["ok"] in (True, False)


def test_subgradient_consistency_with_finite_differences():
    # directional derivatives from the supplied gradient match central
    # differences at smooth sample points
    rng = np.random.default_rng(33)
    f = quad(1.8, a=np.array([0.3, -0.4]))
    for _ in range(20):
        x = rng.normal(size=2)
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        h = 1e-6
        fd = (f(x + h * d) - f(x - h * d)) / (2 * h)
        assert fd == pytest.approx(cx.inner(f.gradient(x), d), abs=1e-5)


# ---------------------------------------------------------------------------
# Interpolation pairs


def admissible_quadratic_pair(rng):
    """phi(x) = (a/2)x^2 + b x + e with psi its Legendre transform (closed form)."""
    a = float(rng.uniform(0.3, 3.0))
    b = float(rng.normal())
    e = float(rng.normal())
    phi = cx.ScalarFn(
        fn=lambda x: 0.5 * a * x * x + b * x + e,
        grad=lambda x: a * x + b,
        strong_convexity=a,
        semiconcavity=a,
    )
    psi = cx.ScalarFn(
        fn=lambda y: (y - b) ** 2 / (2 * a) - e,
        grad=lambda y: (y - b) / a,
        strong_convexity=1 / a,
        semiconcavity=1 / a,
    )
    return phi, psi, a, b


def test_interpolation_midpoint_is_q():
    rng = np.random.default_rng(21)
    phi, psi, _, _ = admissible_quadratic_pair(rng)
    pair = cx.interpolation_pair(phi, psi, 0.5, 0.5)
    for x in (-2.0, 0.0, 1.4):
        assert pair.phi_st(x) == pytest.approx(0.5 * x * x, abs=1e-12)
        assert pair.psi_st(x) == pytest.approx(0.5 * x * x, abs=1e-12)


def test_interpolation_endpoints_identity():
    rng = np.random.default_rng(22)
    phi, psi, _, _ = admissible_quadratic_pair(rng)
    pair = cx.interpolation_pair(phi, psi, 0.0, 1.0)
    for x in (-1.0, 0.3, 2.0):
        assert pair.phi_st(x) == pytest.approx(phi(x), abs=1e-12)
        assert pair.psi_st(x) == pytest.approx(psi(x), abs=1e-12)


def test_interpolation_grid_oracle():
    # phi = psi = q, s=0.25, t=0.75: dense 1-D grid minimization of the raw formula
    q = cx.quadratic_q()
    s, t = 0.25, 0.75
    pair = cx.interpolation_pair(q, q, s, t)
    grid = np.linspace(-30, 30, 2_000_001)
    for x in (-1.2, 0.0, 0.8, 2.0):
        raw = (
            t / (2 * s) * x * x
            - (t - s) / s * x * grid
            + (t - s) * (1 - s) / (2 * s) * grid**2
            + (t - s) * 0.5 * grid**2
        )
        assert pair.phi_st(x) == pytest.approx(float(raw.min()), abs=1e-6)
        # for the (q, q) base pair the interpolation collapses to q
        assert pair.phi_st(x) == pytest.approx(0.5 * x * x, abs=1e-9)


def test_interpolation_admissibility_guard():
    q = cx.quadratic_q()
    bad = cx.ScalarFn(lambda y: -10.0 - 0.0 * y)  # way below the Legendre bound
    with pytest.raises(cx.AdmissibilityError):
        cx.interpolation_pair(q, bad, 0.2, 0.8, admissibility_samples=[(1.0, 1.0)])


def test_interpolation_four_conclusions_small():
    # smaller version of the acceptance suite: 5 random pairs, generic (s, t)
    rng = np.random.default_rng(23)
    for _ in range(5):
        phi, psi, a, b = admissible_quadratic_pair(rng)
        s, t = sorted(rng.uniform(0.05, 0.95, size=2))
        if t - s < 1e-3:
            t = min(0.95, s + 0.1)
        pair = cx.interpolation_pair(phi, psi, s, t)
        # (1) admissibility of the derived pair
        for _ in range(10):
            x, y = 2 * rng.normal(), 2 * rng.normal()
            assert cx.duality_gap(pair.phi_st, pair.psi_st, x, y) >= -1e-8
        # (2)/(3) curvature at the interpolation constants
        triples = sample_triples(15, rng=rng)
        assert cx.check_strong_convexity(pair.phi_st, (1 - t) / (1 - s), triples).max_violation <= 1e-8
        assert cx.check_semiconcavity(pair.phi_st, t / s, triples).max_violation <= 1e-8
        assert cx.check_strong_convexity(pair.psi_st, s / t, triples).max_violation <= 1e-8
        assert cx.check_semiconcavity(pair.psi_st, (1 - s) / (1 - t), triples).max_violation <= 1e-8
        # (4) zero gap propagates along the interpolation
        x0 = float(rng.normal())
        x1 = a * x0 + b  # gradient point: duality_gap(phi, psi, x0, x1) == 0
        assert cx.duality_gap(phi, psi, x0, x1) == pytest.approx(0.0, abs=1e-10)
        xs = (1 - s) * x0 + s * x1
        xt = (1 - t) * x0 + t * x1
        assert cx.duality_gap(pair.phi_st, pair.psi_st, xs, xt) <= 1e-8


# ---------------------------------------------------------------------------
# Golden pin: derived values and gradients on every point type


def smooth_convex(a, b, k):
    """(a/2)||x||^2 + <b, x> + k sqrt(1 + ||x||^2): a-strongly convex, (a + k)-semiconcave."""
    return cx.ScalarFn(
        fn=lambda x: 0.5 * a * cx.inner(x, x) + cx.inner(b, x)
        + k * math.sqrt(1.0 + cx.inner(x, x)),
        grad=lambda x: (a + k / math.sqrt(1.0 + cx.inner(x, x))) * x + b,
        strong_convexity=a,
        semiconcavity=a + k,
        name="smooth",
    )


def pin_points():
    """(x, y, b) of each point type: float, 2-vector, MatrixTuple with m = 2, n = 3."""
    rng = np.random.default_rng(808)

    def tup():
        return MatrixTuple(rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3)))

    return [
        (0.7, -1.1, 0.3),
        (np.array([0.7, -1.2]), np.array([-0.4, 0.9]), np.array([0.3, -0.5])),
        (tup(), tup(), 0.3 * tup()),
    ]


def pin_bytes(value):
    arr = np.asarray(value.entries if isinstance(value, MatrixTuple) else value)
    return arr.dtype.str.encode() + arr.tobytes()


def pin_digest():
    """SHA-256 over the bytes of every value, gradient and checker report below."""
    digest = hashlib.sha256()
    for x, y, b in pin_points():
        phi = smooth_convex(1.3, b, 0.4)
        psi = cx.legendre_fn(phi)
        ft = cx.hopf_lax(phi, 0.6)
        out = [ft(x), ft.gradient(x), psi(y), psi.gradient(y),
               cx.legendre_strongly_convex(phi, x)]
        for s, t in ((0.0, 0.4), (0.3, 0.8)):
            pair = cx.interpolation_pair(phi, psi, s, t)
            out += [pair.phi_st(x), pair.phi_st.gradient(x),
                    pair.psi_st(y), pair.psi_st.gradient(y),
                    cx.duality_gap(pair.phi_st, pair.psi_st, x, y)]
        triples = [(x, y, 0.25), (y, x, 0.6)]
        for rep in (cx.check_strong_convexity(ft, 1 / (0.6 + 1 / 1.3), triples),
                    cx.check_semiconcavity(ft, 1 / 0.6, triples),
                    cx.check_strong_convexity(pair.phi_st, 0.2 / 0.7, triples),
                    cx.check_semiconcavity(pair.psi_st, 0.7 / 0.2, triples)):
            out += [rep.max_violation, float(rep.n_checked)]
        for v in out:
            digest.update(pin_bytes(v))
    return digest.hexdigest()


def test_golden_pin_derived_functions():
    # re-recorded when the prox solver took Barzilai-Borwein steps: against the
    # damped solver, values moved by at most 4.8e-13 and gradients by at most
    # 9.9e-7, inside the bound sqrt(2 tol / t) that the prox stopping rule puts
    # on the error of (x - y*) / t
    assert pin_digest() == "7321787fcd44e04ef861705cee6d3d82f136a8b8b5ebbb1bd5802a1f1e6bdbdc"


def test_prox_work_count(monkeypatch):
    # gradient calls of a fixed reference set: a Hopf-Lax value and gradient,
    # a Legendre value and gradient and both functions of one interpolation
    # pair at each pin point; the shifted function of the Legendre transform
    # calls phi.gradient inside its own gradient, so it counts twice per step.
    # A gradient after a value at the same point reuses the value's solve
    # (156 when each call solved its own prox)
    calls = 0
    real = cx.ScalarFn.gradient

    def spy(self, x):
        nonlocal calls
        calls += 1
        return real(self, x)

    monkeypatch.setattr(cx.ScalarFn, "gradient", spy)
    for x, y, b in pin_points():
        phi = smooth_convex(1.3, b, 0.4)
        ft, psi = cx.hopf_lax(phi, 0.6), cx.legendre_fn(phi)
        pair = cx.interpolation_pair(phi, smooth_convex(0.7, -1.0 * b, 0.2), 0.3, 0.8)
        ft(x), ft.gradient(x), psi(y), psi.gradient(y), pair.phi_st(x), pair.psi_st(y)
    assert calls == 110


# ---------------------------------------------------------------------------
# The prox solver against closed-form and 1-D oracles across conditioning


@st.composite
def prox_points(draw):
    """(x, b, u) of one point type: float, 2-vector or MatrixTuple with m = 2, n = 2."""
    kind = draw(st.sampled_from(["float", "vector", "tuple"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "float":
        draw_point = lambda: float(rng.normal())
    elif kind == "vector":
        draw_point = lambda: rng.normal(size=2)
    else:
        draw_point = lambda: MatrixTuple(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
    x, b, u = 2.0 * draw_point(), draw_point(), draw_point()
    return x, b, (1.0 / cx.vnorm(u)) * u


def assert_prox_certified(phi, t, x, value):
    # the solver stops on (t/2)||grad psi||^2 <= tol; value is the oracle's psi(y*)
    y, f_y = cx._prox_argmin(phi, t, x)
    g_psi = (1.0 / t) * (y - x) + phi.gradient(y)
    assert 0.5 * t * cx.inner(g_psi, g_psi) <= cx._PROX_TOL
    assert f_y == pytest.approx(value, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(prox_points(), st.floats(0.01, 10.0), st.floats(0.1, 10.0))
def test_prox_quadratic_oracle(xbu, a, t):
    # phi = (a/2)||y||^2 + <b, y> has the prox point y* = (x - t b) / (1 + a t)
    x, b, _ = xbu
    phi = quad(a, b)
    y_star = (1.0 / (1.0 + a * t)) * (x - t * b)
    d = x - y_star
    assert_prox_certified(phi, t, x, phi(y_star) + cx.inner(d, d) / (2 * t))


@settings(max_examples=40, deadline=None)
@given(prox_points(), st.floats(0.01, 2.0), st.floats(0.0, 6.0), st.floats(-1.0, 1.0),
       st.floats(0.1, 10.0))
def test_prox_softplus_oracle(xbu, a, log_k, shift, t):
    # phi = (a/2)||y||^2 + softplus(k(<u, y> - shift))/k with a unit u, up to
    # k = 1e6; the prox point is (x - t sigma u)/(1 + a t), where sigma is the
    # sigmoid at the root p of p (1 + a t) = <u, x> - t sigma(k(p - shift))
    x, _, u = xbu
    k = 10.0 ** log_k
    phi = cx.ScalarFn(
        fn=lambda y: 0.5 * a * cx.inner(y, y) + np.logaddexp(0.0, k * (cx.inner(u, y) - shift)) / k,
        grad=lambda y: a * y + float(expit(k * (cx.inner(u, y) - shift))) * u,
        strong_convexity=a,
        semiconcavity=a + k / 4,
    )
    ux = cx.inner(u, x)
    p = brentq(lambda p: p * (1.0 + a * t) - ux + t * expit(k * (p - shift)),
               (ux - t) / (1.0 + a * t) - 1.0, ux / (1.0 + a * t) + 1.0, xtol=1e-15)
    y_star = (1.0 / (1.0 + a * t)) * (x - t * float(expit(k * (p - shift))) * u)
    d = x - y_star
    assert_prox_certified(phi, t, x, phi(y_star) + cx.inner(d, d) / (2 * t))


# ---------------------------------------------------------------------------
# The memo of derived functions: one prox solve per point, never a stale answer


def count_solves(monkeypatch):
    """The points at which the derived functions call the prox solver."""
    points = []
    real = cx._prox_argmin

    def spy(phi, t, x):
        points.append(x)
        return real(phi, t, x)

    monkeypatch.setattr(cx, "_prox_argmin", spy)
    return points


def derived_functions(b):
    """Hopf-Lax, Legendre and both generic interpolation functions of smooth_convex tilts b."""
    phi = smooth_convex(1.3, b, 0.4)
    pair = cx.interpolation_pair(phi, smooth_convex(0.7, -1.0 * b, 0.2), 0.3, 0.8)
    return {"hopf_lax": cx.hopf_lax(phi, 0.6), "legendre": cx.legendre_fn(phi),
            "phi_st": pair.phi_st, "psi_st": pair.psi_st}


def test_memo_keys_points_by_type_and_shape(monkeypatch):
    # 1.0 and np.array([1.0]) have the same bytes; each still gets its own solve
    solves = count_solves(monkeypatch)
    q = cx.quadratic_q()
    points = [1.0, np.array([1.0]), MatrixTuple(np.ones((1, 1, 1)))]
    for f in (cx.hopf_lax(q, 0.5), cx.legendre_fn(q), cx.interpolation_pair(q, q, 0.3, 0.6).phi_st):
        del solves[:]
        for _ in range(2):
            values = [f(x) for x in points]
            grads = [f.gradient(x) for x in points]
            assert [type(g) for g in grads] == [float, np.ndarray, MatrixTuple]
            assert grads[1].shape == (1,)
            assert values[0] == values[1]
        assert len(solves) == 3


def test_memo_resolves_a_point_changed_in_place(monkeypatch):
    solves = count_solves(monkeypatch)
    for name in ("hopf_lax", "legendre", "phi_st"):
        del solves[:]
        f = derived_functions(np.array([0.3, -0.5]))[name]
        x = np.array([0.7, -1.2])
        first = pin_bytes(f(x)), pin_bytes(f.gradient(x))
        x[0] = 2.0
        again = pin_bytes(f(x)), pin_bytes(f.gradient(x))
        fresh = derived_functions(np.array([0.3, -0.5]))[name]
        assert again == (pin_bytes(fresh(x)), pin_bytes(fresh.gradient(x)))
        assert again != first
        x[0] = 0.7
        assert (pin_bytes(f(x)), pin_bytes(f.gradient(x))) == first
        assert len(solves) == 3


def test_memo_keeps_the_last_16_points_first_in_first_out(monkeypatch):
    solves = count_solves(monkeypatch)
    f = cx.hopf_lax(smooth_convex(1.3, 0.3, 0.4), 0.6)
    xs = [0.1 * k for k in range(17)]
    for x in xs[:16]:
        f(x)
    for x in xs[:16]:
        f.gradient(x)
    assert len(solves) == 16
    f(xs[16])  # evicts xs[0], the first in
    f.gradient(xs[1])  # a hit, which does not renew xs[1]
    assert len(solves) == 17
    f(xs[0])  # evicts xs[1]
    f(xs[1])
    assert len(solves) == 19


def test_memo_hands_out_gradients_a_caller_may_change():
    # legendre_fn's gradient is the prox point itself; writing into a returned
    # array must not reach the memo
    y = np.array([-0.4, 0.9])
    for name, f in derived_functions(np.array([0.3, -0.5])).items():
        g = f.gradient(y)
        expected = g.copy()
        g[:] = 99.0
        assert np.array_equal(f.gradient(y), expected), name


@settings(max_examples=40, deadline=None)
@given(prox_points(), st.sampled_from(["hopf_lax", "legendre", "phi_st", "psi_st"]),
       st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=12))
def test_memo_matches_a_fresh_first_call(xbu, name, calls):
    # interleaved, repeated value and gradient calls at three points of one type
    x, b, u = xbu
    points = [x, b, u]
    f = derived_functions(b)[name]
    for i, want_gradient in calls:
        fresh = derived_functions(b)[name]
        if want_gradient:
            assert pin_bytes(f.gradient(points[i])) == pin_bytes(fresh.gradient(points[i]))
        else:
            assert pin_bytes(f(points[i])) == pin_bytes(fresh(points[i]))


# ---------------------------------------------------------------------------
# Derived gradients against central differences of their own values


@st.composite
def point_and_direction(draw):
    """(x, unit direction d, tilt b) as floats or as a MatrixTuple with m = 2, n = 2."""
    if draw(st.booleans()):
        return draw(st.floats(-2.0, 2.0)), 1.0, draw(st.floats(-1.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def tup():
        return MatrixTuple(rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))

    x, d, b = tup(), tup(), 0.5 * tup()
    return x, (1.0 / cx.vnorm(d)) * d, b


def assert_gradient_matches_values(f, x, d, h=1e-4):
    # a prox stops once its gradient norm is below sqrt(2 tol / t), which bounds
    # the error of every derived gradient here by sqrt(2e-12 / 0.05) < 1e-5
    slope = (f(x + h * d) - f(x - h * d)) / (2 * h)
    g = f.gradient(x)
    assert cx.inner(g, d) == pytest.approx(slope, abs=1e-5 * (1.0 + cx.vnorm(g)))


@settings(max_examples=30, deadline=None)
@given(point_and_direction(), st.floats(0.5, 2.0), st.floats(0.0, 1.0), st.floats(0.2, 2.0))
def test_hopf_lax_and_legendre_gradients(pdb, a, k, t):
    x, d, b = pdb
    phi = smooth_convex(a, b, k)
    assert_gradient_matches_values(cx.hopf_lax(phi, t), x, d)
    assert_gradient_matches_values(cx.legendre_fn(phi), x, d)


@settings(max_examples=30, deadline=None)
@given(point_and_direction(),
       st.sampled_from([(0.0, 0.4), (0.0, 1.0), (0.3, 0.3), (0.3, 1.0)])
       | st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).map(sorted))
def test_interpolation_pair_gradients(pdb, times):
    x, d, b = pdb
    s, t = times
    pair = cx.interpolation_pair(smooth_convex(1.3, b, 0.4), smooth_convex(0.7, -1.0 * b, 0.2),
                                 s, t)
    assert_gradient_matches_values(pair.phi_st, x, d)
    assert_gradient_matches_values(pair.psi_st, x, d)
