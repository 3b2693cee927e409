"""Formula parsing, evaluation, and quantifier-free type extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freegeo import logic, matcore as mc
from freegeo.logic import EvalOptions, NcPolynomial, parse, print_formula

RNG = np.random.default_rng(555)


def random_tuple(n, m, rng=RNG):
    return mc.MatrixTuple(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)))


# ---------------------------------------------------------------------------
# NcPolynomial algebra


def test_adjoint_involution():
    p = NcPolynomial.variable("x1") * NcPolynomial.variable("x2", star=True) * (2 + 1j)
    p = p + NcPolynomial.constant(3.0)
    assert p.adjoint().adjoint() == p


def test_evaluation_star_homomorphism():
    rng = np.random.default_rng(1)
    x = random_tuple(4, 2, rng)
    env = {"x1": x.entries[0], "x2": x.entries[1]}
    p = NcPolynomial.variable("x1") + 0.5 * NcPolynomial.variable("x2", star=True)
    q = NcPolynomial.variable("x2") * NcPolynomial.variable("x1")
    lhs = (p * q).evaluate(env, 4)
    rhs = p.evaluate(env, 4) @ q.evaluate(env, 4)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(p.adjoint().evaluate(env, 4) - p.evaluate(env, 4).conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# Parser


def test_parse_atom_with_adjoint():
    f = parse("re tr(x1' * x2)")
    assert isinstance(f, logic.Atom)
    assert f.poly == NcPolynomial.variable("x1", star=True) * NcPolynomial.variable("x2")


def test_parse_quantifier():
    f = parse("sup{y:1.0} re tr(y * x1)")
    assert isinstance(f, logic.Quant)
    assert f.kind == "sup" and f.var == "y" and f.radius == 1.0
    assert isinstance(f.body, logic.Atom)


def test_parse_connective():
    f = parse("max(re tr(x1), 0.0)")
    assert isinstance(f, logic.Call)
    assert f.func == "max"
    assert isinstance(f.args[0], logic.Atom) and isinstance(f.args[1], logic.Const)


def test_parse_errors():
    with pytest.raises(logic.ParseError):
        parse("re tr(x1")  # unbalanced
    with pytest.raises(logic.ParseError):
        parse("re tr(z9)")  # unbound variable
    with pytest.raises(logic.ParseError):
        parse("sup{y:0.0} re tr(y)")  # non-positive radius
    with pytest.raises(logic.ParseError):
        parse("re tr(x1) @ 2")  # stray character


SAMPLE_FORMULAS = [
    "re tr(x1)",
    "tr(x1*x1')",
    "re tr(x1' * x2 - 0.5*x1)",
    "re tr((x1-x2)'*(x1-x2))",
    "re tr(2i*x1 + (1.0-3.0i)*x2*x1)",
    "sup{y:1.0} re tr(y * x1)",
    "inf{w:2.5} (re tr(w'*w) - re tr(x1))",
    "max(re tr(x1), 0.0) + min(re tr(x2), 1.0)",
    "sqrt(abs(re tr(x1))) * exp(re tr(x2) / 4.0)",
    "(re tr(x1))^2.0 - log(2.0)",
    "-re tr(x1) / (1.0 + re tr(x2*x2'))",
]


@pytest.mark.parametrize("text", SAMPLE_FORMULAS)
def test_parse_print_roundtrip(text):
    ast = parse(text)
    assert parse(print_formula(ast)) == ast


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_roundtrip_random_polynomial_atoms(seed):
    rng = np.random.default_rng(seed)
    p = NcPolynomial.constant(complex(rng.normal(), rng.normal()))
    for _ in range(rng.integers(1, 4)):
        w = NcPolynomial.constant(1.0)
        for _ in range(rng.integers(1, 4)):
            w = w * NcPolynomial.variable(f"x{rng.integers(1, 4)}", star=bool(rng.integers(2)))
        p = p + complex(rng.normal(), rng.normal()) * w
    ast = logic.Atom(p, take_real=True)
    assert parse(print_formula(ast)) == ast


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_atom_identity():
    x = mc.MatrixTuple(np.eye(5)[None])
    assert logic.evaluate(parse("re tr(x1)"), x) == pytest.approx(1.0)


def test_eval_quantifier_free_exact():
    rng = np.random.default_rng(2)
    x = random_tuple(4, 2, rng)
    f = parse("max(re tr(x1*x2' - 0.25*x1), 0.0) + sqrt(re tr(x1'*x1))")
    a, b = x.entries
    direct = max((np.trace(a @ b.conj().T) / 4 - 0.25 * np.trace(a) / 4).real, 0.0)
    direct += np.sqrt((np.trace(a.conj().T @ a) / 4).real)
    assert logic.evaluate(f, x) == pytest.approx(direct, abs=1e-10)


def test_eval_plain_tr_rejects_imaginary():
    x = mc.MatrixTuple((1j * np.eye(3))[None])
    with pytest.raises(logic.EvalError):
        logic.evaluate(parse("tr(x1)"), x)
    # but a manifestly real combination is fine
    assert logic.evaluate(parse("tr(x1*x1')"), x) == pytest.approx(1.0)


def test_eval_connective_domain_errors():
    x = mc.MatrixTuple((-np.eye(2))[None].astype(complex))
    with pytest.raises(logic.EvalError):
        logic.evaluate(parse("log(re tr(x1))"), x)
    with pytest.raises(logic.EvalError):
        logic.evaluate(parse("sqrt(re tr(x1))"), x)


def test_eval_free_variable_guard():
    x = random_tuple(3, 1)
    with pytest.raises(logic.EvalError):
        logic.evaluate(parse("re tr(x2)"), x)


def test_sup_of_trace_is_one():
    # |tr_n y| <= operator_norm(y) <= 1, attained at y = I
    x = mc.MatrixTuple(np.zeros((1, 4, 4), dtype=complex) + np.eye(4))
    v = logic.evaluate(parse("sup{y:1.0} re tr(y)"), x, EvalOptions(starts=4, iters=80))
    assert v == pytest.approx(1.0, abs=1e-7)


def delta_predicate(radius):
    return parse(f"inf{{y:{radius}}} 0.5*tr((x1-y)'*(x1-y))")


def spectral_truncation_oracle(mat, radius):
    sv = np.linalg.svd(mat, compute_uv=False)
    return 0.5 * np.sum(np.maximum(sv - radius, 0.0) ** 2) / mat.shape[0]


def test_delta_predicate_vs_spectral_oracle():
    rng = np.random.default_rng(99)
    n, radius = 5, 1.0
    opts = EvalOptions(starts=2, iters=300, tol=1e-12)
    for _ in range(10):
        lam = rng.normal(0, 1.3, n) + 1j * rng.normal(0, 1.3, n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        mat = q @ np.diag(lam) @ q.conj().T
        x = mc.MatrixTuple(mat[None])
        v = logic.evaluate(delta_predicate(radius), x, opts)
        assert v == pytest.approx(spectral_truncation_oracle(mat, radius), abs=1e-6)


def test_delta_predicate_zero_inside_ball():
    # delta_R'(x) = 0 whenever operator_norm(x) <= R'
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat *= 0.9 / np.linalg.norm(mat, ord=2)
    x = mc.MatrixTuple(mat[None])
    v = logic.evaluate(delta_predicate(1.0), x, EvalOptions(starts=2, iters=100))
    assert abs(v) <= 1e-9


def test_quantifier_monotone_in_starts_and_iters():
    rng = np.random.default_rng(5)
    x = random_tuple(4, 1, rng)
    f = parse("sup{y:1.0} (re tr(y*x1) - re tr(y'*y*x1'*x1))")
    seed = mc.Seed(8, 0)
    lo = logic.evaluate(f, x, EvalOptions(starts=2, iters=20, seed=seed))
    hi = logic.evaluate(f, x, EvalOptions(starts=6, iters=120, seed=seed))
    assert hi >= lo - 1e-9


def test_unitary_invariance_of_evaluation():
    rng = np.random.default_rng(6)
    x = random_tuple(4, 2, rng)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    xu = x.conjugate_by(q)
    for text in ["re tr(x1*x2*x1')", "max(re tr(x1), re tr(x2*x2'))"]:
        f = parse(text)
        assert logic.evaluate(f, xu) == pytest.approx(logic.evaluate(f, x), abs=1e-10)
    g = parse("sup{y:1.0} re tr(y*x1)")
    v1 = logic.evaluate(g, x, EvalOptions(starts=4, iters=120))
    v2 = logic.evaluate(g, xu, EvalOptions(starts=4, iters=120))
    assert v1 == pytest.approx(v2, abs=1e-4)


def test_depth_cap():
    f = parse("sup{y:1.0} inf{w:1.0} sup{v:1.0} re tr(y*w*v)")
    x = random_tuple(2, 1)
    with pytest.raises(logic.EvalError):
        logic.evaluate(f, x, EvalOptions(max_depth=2))


def test_nested_quantifier_saddle():
    # sup_y inf_w re tr(y w) = 0: the inner inf is minus the mean singular
    # value of y, so the outer sup is attained at y = 0
    f = parse("sup{y:1.0} inf{w:1.0} re tr(y*w)")
    x = mc.MatrixTuple(np.eye(2)[None])
    v = logic.evaluate(f, x, EvalOptions(starts=3, iters=40, seed=mc.Seed(4)))
    assert v == pytest.approx(0.0, abs=1e-6)


def test_reused_bound_name_matches_distinct_names():
    # y is reused by a sibling quantifier and shadowed by a nested one
    reused = parse("sup{y:1.0} (re tr(y*x1) - inf{y:0.5} re tr(y*y'*x1*x1'))"
                   " + inf{y:1.0} re tr(y*x1')")
    distinct = parse("sup{a:1.0} (re tr(a*x1) - inf{b:0.5} re tr(b*b'*x1*x1'))"
                     " + inf{c:1.0} re tr(c*x1')")
    x = random_tuple(2, 1, np.random.default_rng(8))
    opts = EvalOptions(starts=2, iters=3, seed=mc.Seed(6))
    assert logic.evaluate(reused, x, opts) == logic.evaluate(distinct, x, opts)


# ---------------------------------------------------------------------------
# Slot-word kernel

NAMES = ["x1", "x2", "y", "z"]
polynomials = st.dictionaries(
    st.lists(st.tuples(st.sampled_from(NAMES), st.booleans()), max_size=4).map(tuple),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    max_size=5).map(NcPolynomial)


@settings(max_examples=60, deadline=None)
@given(poly=polynomials, n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_trace_pass_matches_polynomial_evaluation(poly, n, seed):
    # free x1, x2 and the bound names y, z in the two slots after them; the
    # empty word is a constant and the empty polynomial is zero
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
    env = dict(zip(NAMES, mats))
    value = logic.trace_pass(logic.compile_poly(poly, {"y": 2, "z": 3}, m=2), mats)[0]
    ref = np.trace(poly.evaluate(env, n)) / n
    # |tr_n(w)| <= product of the letters' Frobenius norms
    scale = 1.0 + sum(abs(c) * np.prod([np.linalg.norm(env[name]) for name, _ in w])
                      for w, c in poly.terms.items())
    assert abs(value - ref) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# Quantifier-free types


def test_qf_type_identity_tuple():
    x = mc.MatrixTuple(np.eye(4)[None])
    t = logic.qf_type(x, 3)
    for w in t.words():
        assert t.moment(w) == pytest.approx(1.0, abs=1e-12)


def test_qf_type_invariants():
    rng = np.random.default_rng(12)
    x = random_tuple(5, 2, rng)
    t = logic.qf_type(x, 4)
    assert t.moment(()) == pytest.approx(1.0)
    # traciality and adjoint-conjugation on pairs of short words
    letters = [(f"x{j}", s) for j in (1, 2) for s in (False, True)]
    for l1 in letters:
        for l2 in letters:
            w, v = (l1,), (l2,)
            assert t.moment(w + v) == pytest.approx(t.moment(v + w), abs=1e-10)
    for w in t.words():
        w_adj = tuple((name, not s) for name, s in reversed(w))
        assert t.moment(w_adj) == pytest.approx(np.conj(t.moment(w)), abs=1e-10)


def test_qf_type_matches_direct_trace():
    rng = np.random.default_rng(13)
    x = random_tuple(4, 1, rng)
    t = logic.qf_type(x, 3)
    a = x.entries[0]
    direct = np.trace(a @ a.conj().T @ a) / 4
    assert t.moment((("x1", False), ("x1", True), ("x1", False))) == pytest.approx(
        complex(direct), abs=1e-12
    )


def test_qf_type_gue_semicircle_moments():
    g = mc.sample_gue(200, mc.Seed(909, 0))
    t = logic.qf_type(mc.MatrixTuple(g[None]), 3)
    assert abs(t.moment((("x1", False),) * 2) - 1.0) <= 0.1
    assert abs(t.moment((("x1", False),) * 3)) <= 0.1


def test_qf_type_independent_ginibre():
    x = mc.sample_ginibre(200, 2, mc.Seed(910, 0))
    t = logic.qf_type(x, 2)
    assert abs(t.moment((("x1", False), ("x2", False)))) <= 0.1


def test_qf_distance_metric_properties():
    rng = np.random.default_rng(14)
    a = logic.qf_type(random_tuple(4, 1, rng), 3)
    b = logic.qf_type(random_tuple(4, 1, rng), 3)
    assert logic.qf_distance(a, a) == 0.0
    assert logic.qf_distance(a, b) == pytest.approx(logic.qf_distance(b, a))
    with pytest.raises(ValueError):
        logic.qf_distance(a, logic.qf_type(random_tuple(4, 1, rng), 2))


def test_qf_distance_gue_concentration():
    a = logic.qf_type(mc.MatrixTuple(mc.sample_gue(200, mc.Seed(21, 0))[None]), 4)
    b = logic.qf_type(mc.MatrixTuple(mc.sample_gue(200, mc.Seed(21, 1))[None]), 4)
    assert logic.qf_distance(a, b) <= 0.2
