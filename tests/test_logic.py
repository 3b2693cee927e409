"""Formula parsing, evaluation, and quantifier-free type extraction."""

import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freegeo import logic, matcore as mc
from freegeo.logic import EvalOptions, NcPolynomial, parse, print_formula
from test_gibbs import fd_gradient, related_terms

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


@pytest.mark.parametrize("text, value", [("(re tr(x1))^-1.0", "pow(0.0, -1.0)"),
                                         ("(1e200 + re tr(x1))^2.0", "pow(1e+200, 2.0)")])
def test_eval_pow_errors_are_eval_errors(text, value):
    # zero to a negative power, and an overflowing power
    x = mc.MatrixTuple(np.zeros((1, 2, 2), dtype=complex))
    with pytest.raises(logic.EvalError, match=re.escape(value)):
        logic.evaluate(parse(text), x)


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


NESTED = "sup{y:1.0} inf{z:1.0} re tr(y*z*x1 + z'*x2)"


def nested_case():
    return mc.sample_ginibre(2, 2, mc.Seed(3, 1)), EvalOptions(starts=4, iters=40, seed=mc.Seed(1))


def test_nested_quantifier_solves_each_inner_problem_once(monkeypatch):
    # the outer ascent's gradient is kept from its value call, which solved the
    # inner inf; re-solving it there made 1,772 inner and outer ascents.  The
    # inner body is affine in z, so each inner inf runs one ascent; at four
    # starts per inner inf this case made 1,132 ascents and read
    # -0.47813745709600897
    calls = 0
    real = logic._ascend

    def spy(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(logic, "_ascend", spy)
    v = logic.evaluate(parse(NESTED), *nested_case())
    assert v.hex() == (-0.4781369444672449).hex()
    assert calls == 294


def trace_norm_oracle(a, b, iters=1000):
    """max over |y| <= 1 of -||a y + b^*||_1 / n, by projected subgradient descent.

    The best iterate is a feasible point, so this is a lower bound on the max.
    """
    n = a.shape[0]
    y = np.zeros((n, n), dtype=complex)
    best = -np.inf
    for k in range(iters):
        u, s, vh = np.linalg.svd(a @ y + b.conj().T)
        best = max(best, -s.sum() / n)
        u, s, vh = np.linalg.svd(y - 0.5 / np.sqrt(k + 1) * a.conj().T @ (u @ vh))
        y = (u * np.minimum(s, 1.0)) @ vh
    return best


def test_nested_quantifier_against_trace_norm_oracle():
    # inf over |z| <= 1 of re tr_n(z A) is -||A||_1 / n, so NESTED equals
    # -min over |y| <= 1 of ||x1 y + x2^*||_1 / n.  The inner infs are exact
    # (linear bodies), so the evaluator's value is a lower bound; its outer
    # ascent ends 7.8e-3 below the oracle on this case
    x, opts = nested_case()
    oracle = trace_norm_oracle(*x.entries)
    v = logic.evaluate(parse(NESTED), x, opts)
    assert oracle - 1e-2 <= v <= oracle + 1e-9


@pytest.mark.parametrize("kind,body,curvature,certified", [
    ("sup", "re tr(y*x1)", "affine", True),
    ("inf", "0.5*tr((x1-y)'*(x1-y))", "convex", True),  # the delta predicate
    ("sup", "re tr(y*x1) - re tr(y'*y)", "concave", True),
    ("sup", "re tr(x1'*x1) - 2.0", "constant", True),
    ("sup", "re tr(y*x1) + sqrt(re tr(x1'*x1))", "affine", True),
    ("sup", "-(2.0*re tr(y*y')) + re tr(y*x1)/4.0", "concave", True),
    ("sup", "re tr(y'*y)", "convex", False),
    ("sup", "re tr(y*y)", None, False),
    ("sup", "re tr(1i*y'*y)", None, False),
    ("sup", "re tr(y'*y*x1'*x1)", None, False),
    ("sup", "re tr(y'*y) - re tr(y*y')", None, False),
    ("sup", "sqrt(re tr(y'*y))", None, False),
    ("sup", "abs(re tr(y))", None, False),
    ("sup", "min(re tr(y*x1), -re tr(y'*y))", None, False),  # a kink can stall one start
    ("sup", "max(re tr(y), re tr(y'))", None, False),
    ("sup", "re tr(y)*re tr(y)", None, False),
    ("sup", "re tr(x1)*re tr(y)", None, False),
    ("sup", "-2.0*re tr(y)", None, False),  # the factor -2.0 is neg(2.0), not a Const
    ("sup", "(re tr(y))^1.0", None, False),
    ("sup", "inf{w:1.0} re tr(y*w)", None, False),  # a quantifier over a body holding y
])
def test_body_curvature_table(kind, body, curvature, certified):
    q, _ = logic._compile(parse(f"{kind}{{y:1.0}} {body}"), 1)
    assert logic._curvature(q.body, q.slot) == curvature
    assert q.certified == certified


def test_a_negative_const_factor_flips_the_curvature():
    q, _ = logic._compile(parse("sup{y:1.0} 2.0*re tr(y'*y)"), 1)
    atom = q.body.args[1]
    assert logic._curvature(q.body, q.slot) == "convex"
    assert logic._curvature(logic.Arith("*", (logic.Const(-2.0), atom)), q.slot) == "concave"
    assert logic._curvature(logic.Arith("/", (atom, logic.Const(-2.0))), q.slot) == "concave"


def test_inner_quantifier_gets_its_own_certificate():
    outer, _ = logic._compile(parse("sup{y:1.0} inf{w:1.0} re tr(y*w)"), 1)
    assert not outer.certified
    assert outer.body.certified


def spy_ascents(mp):
    """Patch ``_ascend`` to record the (value, point) each ascent returns."""
    runs = []
    real = logic._ascend

    def spy(*args):
        runs.append(real(*args))
        return runs[-1]

    mp.setattr(logic, "_ascend", spy)
    return runs


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), radius=st.floats(0.1, 3.0), log_scale=st.floats(-6.0, 6.0),
       delta=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=6, radius=0.1, log_scale=-6.0, delta=False, seed=0)
@example(n=6, radius=3.0, log_scale=6.0, delta=True, seed=1)
def test_certified_quantifier_runs_one_ascent_to_the_svd_oracle(n, radius, log_scale, delta,
                                                                 seed):
    # the linear body sup re tr_n(c y x1) is c r ||x1||_1 / n; the delta
    # predicate inf c/2 |x1 - y|^2_tr is c/2 sum (s_i - r)_+^2 / n, with x1
    # scaled to operator norm 2r so that it is positive.  The value is exact up
    # to 1e-9 relative or the acceptance margin 1e-15 of a line-search trial,
    # which a body of scale 1e-6 reaches.  The Frank-Wolfe gap
    # r ||g||_1 / n - re tr_n(g^* y) of the ascended function at the returned
    # point bounds how far its value is from the optimum.  For the linear body
    # it is 1e-9 relative; for the delta predicate it is first order in the
    # distance to the optimum, whose value is second order (up to 7e-4
    # relative at 1e-6 scale), so no 1e-9 bound holds for it
    scale = 10.0 ** log_scale
    a = mc.sample_ginibre(n, 1, mc.Seed(seed)).entries[0]
    if delta:
        a = a * (2.0 * radius / np.linalg.norm(a, ord=2))
        text = f"inf{{y:{radius!r}}} {0.5 * scale!r}*tr((x1-y)'*(x1-y))"
    else:
        text = f"sup{{y:{radius!r}}} re tr({scale!r}*y*x1)"
    s = np.linalg.svd(a, compute_uv=False)
    oracle = scale * (0.5 * np.sum(np.maximum(s - radius, 0.0) ** 2) if delta
                      else radius * s.sum()) / n
    with pytest.MonkeyPatch.context() as mp:
        runs = spy_ascents(mp)
        v = logic.evaluate(parse(text), mc.MatrixTuple(a[None]))
    assert len(runs) == 1
    assert v == pytest.approx(oracle, rel=1e-9, abs=logic._GAIN_MARGIN)
    fy, y = runs[0]
    assert fy == (-v if delta else v)
    g = scale * (a - y) if delta else scale * a.conj().T
    gap = radius * np.linalg.svd(g, compute_uv=False).sum() / n - np.vdot(g, y).real / n
    assert abs(v - oracle) <= gap + 1e-13 * oracle
    if not delta:
        assert gap <= 1e-9 * oracle


def test_certified_quantifier_draws_nothing_from_its_rng(monkeypatch):
    x = random_tuple(4, 1, np.random.default_rng(30))

    def rng(self):
        raise AssertionError("a certified quantifier drew from its RNG")

    monkeypatch.setattr(mc.Seed, "rng", rng)
    runs = spy_ascents(monkeypatch)
    logic.evaluate(delta_predicate(1.0), x, EvalOptions(starts=5))
    assert len(runs) == 1


@pytest.mark.parametrize("body,value", [
    ("sqrt(re tr(y'*y))", "0x1.0000000000002p+0"),
    ("sqrt(re tr(y'*y*x1'*x1))", "0x1.ac9b472ae5c90p-1"),
])
def test_uncertified_quantifier_keeps_every_start_and_its_bits(monkeypatch, body, value):
    # an uncertified body runs every start, from the same points, to the same bits
    runs = spy_ascents(monkeypatch)
    v = logic.evaluate(parse(f"sup{{y:1.0}} {body}"), mc.sample_ginibre(3, 1, mc.Seed(5)),
                       EvalOptions(seed=mc.Seed(7)))
    assert len(runs) == EvalOptions().starts
    assert v.hex() == value


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (6, 0)])
def test_min_and_max_bodies_leave_their_kink(monkeypatch, n, seed):
    # every trial from the zero start, where re tr(y*x1) and re tr(y*x2) tie
    # at 0, lowers one of them when re tr(x1^* x2) < 0, so one start reads 0.
    # The sup of their min lies between its value at y = u / ||u||_op, with
    # u = x1^*/|x1| + x2^*/|x2|, and r ||(x1 + x2)/2||_1 / n (minimax at t = 1/2)
    x = mc.sample_ginibre(n, 2, mc.Seed(seed))
    a, b = x.entries
    assert np.vdot(a, b).real < 0
    u = a.conj().T / np.linalg.norm(a) + b.conj().T / np.linalg.norm(b)
    y = u / np.linalg.norm(u, 2)
    lower = min(np.trace(y @ a).real, np.trace(y @ b).real) / n
    upper = np.linalg.svd((a + b) / 2, compute_uv=False).sum() / n
    runs = spy_ascents(monkeypatch)
    v = logic.evaluate(parse("sup{y:1.0} min(re tr(y*x1), re tr(y*x2))"), x)
    w = logic.evaluate(parse("inf{y:1.0} max(re tr(y*x1), re tr(y*x2))"), x)
    assert len(runs) == 2 * EvalOptions().starts
    assert 0 < lower <= v <= upper + 1e-12
    assert -upper - 1e-12 <= w <= -lower < 0


def test_quantifier_gradient_only_at_the_latest_value_point(monkeypatch):
    def ascend(value, gradient, y0, radius, opts):
        y = np.array(y0)
        fy = value(y)
        assert np.array_equal(gradient(y), gradient(y))
        gradient(y + 0.1)
        return fy, y

    monkeypatch.setattr(logic, "_ascend", ascend)
    with pytest.raises(RuntimeError, match="only kept at its latest value point"):
        logic.evaluate(delta_predicate(1.0), random_tuple(2, 1, np.random.default_rng(4)),
                       EvalOptions(starts=1, iters=1))


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


# subsets of the slots 0, 1, 2 in any order, as the gradient's stacking order
grad_slot_orders = st.permutations(range(3)).flatmap(
    lambda order: st.integers(1, 3).map(lambda k: tuple(order[:k])))


@settings(max_examples=60, deadline=None)
@given(terms=related_terms(3), grad_slots=grad_slot_orders, n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
# the product x2 x1 enters the gradient of x1 (as a later term) and of x3: the
# first of the two must not scale the shared product in place
@example(terms=[(1.0, ((1, False), (1, False))), (0.5j, ((0, True), (1, True), (0, False))),
                (-0.7, ((2, False), (0, True), (1, True)))], grad_slots=(0, 1, 2), n=2, seed=3)
def test_trace_pass_plan_matches_references(terms, grad_slots, n, seed):
    # merged duplicates, rotations and adjoints that share products, the empty
    # word, and a gradient stacked in a permuted subset of the slots
    rng = np.random.default_rng(seed)
    mats = 0.5 * (rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n)))

    def reference(entries):
        env = {f"x{j + 1}": entries[j] for j in range(3)}
        poly = NcPolynomial()
        for coef, word in terms:
            poly = poly + NcPolynomial({tuple((f"x{j + 1}", star) for j, star in word): coef})
        return np.trace(poly.evaluate(env, n)) / n

    value, grad = logic.trace_pass(terms, mats, grad_slots)
    assert logic.trace_pass(terms, mats)[0] == value  # the same bits without a gradient
    scale = 1.0 + sum(abs(c) * np.prod([np.linalg.norm(mats[j]) for j, _ in w]) for c, w in terms)
    assert abs(value - reference(mats)) <= 1e-12 * scale
    fd = fd_gradient(lambda e: reference(e).real, mats)[list(grad_slots)]
    assert grad.shape == (len(grad_slots), n, n)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# Analytic formula gradients

# trace polynomials in the free x1 (slot 0) and a bound y (slot 1)
xy_polynomials = st.dictionaries(
    st.lists(st.tuples(st.sampled_from(["x1", "y"]), st.booleans()), min_size=1,
             max_size=3).map(tuple),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0, allow_nan=False,
                       allow_infinity=False),
    min_size=1, max_size=3).map(NcPolynomial)


def _positive(f):
    """1 + f^2: an argument on which sqrt, log, / and fractional powers are smooth."""
    return logic.Arith("+", (logic.Const(1.0), logic.Arith("pow", (f, logic.Const(2.0)))))


qf_bodies = st.recursive(
    st.builds(logic.Atom, xy_polynomials),
    lambda kids: st.one_of(
        st.builds(lambda op, a, b: logic.Arith(op, (a, b)), st.sampled_from("+-*"), kids, kids),
        st.builds(lambda a, b: logic.Arith("/", (a, _positive(b))), kids, kids),
        st.builds(lambda a: logic.Arith("neg", (a,)), kids),
        st.builds(lambda a, e: logic.Arith("pow", (a, logic.Const(e))), kids,
                  st.sampled_from([2.0, 3.0])),
        st.builds(lambda a, e: logic.Arith("pow", (_positive(a), logic.Const(e))), kids,
                  st.sampled_from([0.5, 1.5, -1.0])),
        st.builds(lambda f, a, b: logic.Call(f, (a, b)), st.sampled_from(["max", "min"]),
                  kids, kids),
        st.builds(lambda f, a: logic.Call(f, (a,)), st.sampled_from(["abs", "exp"]), kids),
        st.builds(lambda f, a: logic.Call(f, (_positive(a),)), st.sampled_from(["sqrt", "log"]),
                  kids),
    ), max_leaves=6)


def _away_from_kinks(node, env, margin=1e-3):
    """No abs argument and no max/min gap within ``margin`` of 0 anywhere in the tree."""
    if not isinstance(node, (logic.Arith, logic.Call)):
        return True
    vals = [logic._eval_node(a, env, None)[0] for a in node.args]
    if isinstance(node, logic.Call) and node.func in ("abs", "max", "min"):
        if abs(vals[0] if node.func == "abs" else vals[0] - vals[1]) < margin:
            return False
    return all(_away_from_kinks(a, env, margin) for a in node.args)


@settings(max_examples=100, deadline=None)
@given(body=qf_bodies, n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_formula_gradient_matches_finite_differences(body, n, seed):
    # the reverse pass through + - * / pow max min abs sqrt exp log against
    # central differences, with respect to the free x1 and the bound y
    compiled = logic._compile(logic.Quant("sup", "y", 1.0, body), 1)[0].body
    rng = np.random.default_rng(seed)
    entries = (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))) / np.sqrt(2 * n)

    def value(e):
        return logic._eval_node(compiled, list(e), None)[0]

    try:
        val = value(entries)
    except logic.EvalError as exc:  # only a power can fail on these bodies
        assert str(exc).startswith("pow(")
        val = np.inf
    assume(abs(val) < 1e6 and _away_from_kinks(compiled, list(entries)))
    grad = logic._eval_node(compiled, list(entries), None, (0, 1))[1]
    assert grad.shape == (2, n, n)
    fd = fd_gradient(value, entries)
    assert np.max(np.abs(grad - fd)) <= 1e-6 * (1.0 + np.max(np.abs(grad)) + abs(val))


def test_envelope_gradient_is_polar_factor():
    # sup{y:1} re tr(y x) is the normalized nuclear norm of x; by the envelope
    # rule its tr_n gradient is the polar factor u v^* of x = u s v^*
    x = random_tuple(4, 1, np.random.default_rng(21))
    u, s, vh = np.linalg.svd(x.entries[0])
    val, grad = logic.value_and_gradient(parse("sup{y:1.0} re tr(y*x1)"), x,
                                         EvalOptions(starts=2, iters=100))
    assert val == pytest.approx(np.sum(s) / 4, abs=1e-9)
    assert np.max(np.abs(grad.entries[0] - u @ vh)) <= 1e-6


def test_envelope_gradient_taken_at_best_start():
    # the zero start ties, follows the first argument and ends at the polar
    # factor of x1 (value 3); the identity start, run last, stays at y = I on
    # the second argument (value 1).  The gradient belongs to the best point.
    f = parse("sup{y:1.0} max(re tr(y*x1), 2.0*re tr(y*x2))")
    x = mc.MatrixTuple(np.stack([np.diag([3.0, -3.0]), 0.5 * np.eye(2)]).astype(complex))
    val, grad = logic.value_and_gradient(f, x, EvalOptions(starts=2, iters=50))
    assert val == pytest.approx(3.0, abs=1e-12)
    assert np.max(np.abs(grad.entries - np.stack([np.diag([1.0, -1.0]), np.zeros((2, 2))]))) \
        <= 1e-12


@pytest.mark.parametrize("body,starts", [
    ("sqrt(re tr(y'*y))", 3),   # slope 0 at 0: the zero start stays, the others reach 1
    ("(re tr(y'*y))^0.5", 3),
    ("abs(re tr(y))", 1),       # right derivative 1 at 0: the zero start climbs to y = I
    ("max(re tr(y), re tr(y'))", 1),  # a tie follows the first argument
])
def test_kink_at_zero_start_reaches_sup(body, starts):
    # every body is 0 at the zero start, where its connective has no
    # derivative, and has sup 1 over the unit ball
    x = random_tuple(3, 1, np.random.default_rng(22))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = logic.evaluate(parse(f"sup{{y:1.0}} {body}"), x, EvalOptions(starts=starts, iters=60))
    assert v == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_ends_the_ascent(monkeypatch, bad):
    projected = []
    project = logic._project_ball

    def spy(y, radius):
        projected.append(np.all(np.isfinite(y)))
        return project(y, radius)

    monkeypatch.setattr(logic, "_project_ball", spy)
    y0 = 0.5 * np.eye(2, dtype=complex)
    fy, y = logic._ascend(lambda y: 1.0, lambda y: np.full((2, 2), bad, dtype=complex),
                          y0, 1.0, EvalOptions())
    assert fy == 1.0 and np.array_equal(y, y0)
    assert projected == [True]


def test_ascent_iteration_makes_constant_trace_passes(monkeypatch):
    # one iteration on the n = 6 delta predicate: one value-and-gradient pass
    # at the start and one per line-search trial (each trial projects once, as
    # does the start), the gradient at the current point kept from its value
    # pass (1 + 1 + trials before); central differences made 4n^2 = 144
    n = 6
    x = random_tuple(n, 1, np.random.default_rng(23))
    counts = {"trace_pass": 0, "_project_ball": 0}
    project, bind = logic._project_ball, logic.bind_trace

    def spy_project(*args):
        counts["_project_ball"] += 1
        return project(*args)

    def spy_bind(terms, grad_slots=None):  # a trace pass is one call of a bound kernel
        kernel = bind(terms, grad_slots)

        def run(entries):
            counts["trace_pass"] += 1
            return kernel(entries)

        return run

    monkeypatch.setattr(logic, "_project_ball", spy_project)
    monkeypatch.setattr(logic, "bind_trace", spy_bind)
    logic.evaluate(delta_predicate(1.0), x, EvalOptions(starts=1, iters=1))
    trials = counts["_project_ball"] - 1
    assert trials >= 1
    assert counts["trace_pass"] == 1 + trials
    assert counts["trace_pass"] < 4 * n * n


def test_ascent_ends_on_its_stationarity_certificate(monkeypatch):
    # the last gradient call is followed by at most one line-search trial:
    # the ascent stops when a trial's first-order gain certifies that it
    # cannot gain more than the acceptance margin; halving the step down to
    # its floor made 32 trials there
    events = []
    real = logic._ascend

    def spy(value, gradient, *args):
        def v(y):
            events.append("v")
            return value(y)

        def g(y):
            events.append("g")
            return gradient(y)

        return real(v, g, *args)

    monkeypatch.setattr(logic, "_ascend", spy)
    x = random_tuple(6, 1, np.random.default_rng(27))
    logic.evaluate(parse("sup{y:1.0} re tr(y*x1)"), x, EvalOptions(starts=1))
    last = len(events) - 1 - events[::-1].index("g")
    assert events[last + 1:].count("v") <= 1


@pytest.mark.parametrize("scale", [1e-9, 1e6])
def test_stopping_certificate_scales_with_the_body(scale):
    # sup over |y| <= 1 of re tr_n(c y x1) is c ||x1||_1 / n; the stopping
    # test must scale with the body: a fixed bound on the gradient mapping
    # stops the 1e-9 body at its best start, up to 90% short
    for i in range(4):
        x = mc.sample_ginibre(6, 1, mc.Seed(2000 + i))
        v = logic.evaluate(parse(f"sup{{y:1.0}} re tr({scale}*y*x1)"), x, EvalOptions(seed=mc.Seed(i)))
        oracle = scale * np.linalg.svd(x.entries[0], compute_uv=False).sum() / 6
        assert v == pytest.approx(oracle, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), n=st.integers(1, 5), radius=st.floats(0.1, 3.0),
       inside=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_project_ball_stack_equals_per_matrix_calls(k, n, radius, inside, seed):
    # matrices flagged inside are scaled into their ball, the others far out
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    for j in range(k):
        norm = np.linalg.norm(stack[j], ord=2)
        stack[j] *= radius * (rng.uniform(0.1, 0.99) if inside[j] else rng.uniform(1.5, 4.0)) / norm
    projected = logic._project_ball(stack, radius)
    expected = np.stack([logic._project_ball(mat, radius) for mat in stack])
    assert np.array_equal(projected, expected)
    for j in range(k):
        if inside[j]:
            assert np.array_equal(projected[j], stack[j])
        else:
            assert np.linalg.norm(projected[j], ord=2) == pytest.approx(radius, rel=1e-12)


def test_ascend_on_a_stack_reaches_the_projection():
    # the maximizer of -||y - c||^2 over a product of operator-norm balls is
    # the slotwise singular-value truncation of c; the gradient is only asked
    # for at the point of the latest value call
    rng = np.random.default_rng(24)
    c = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    c[1] *= 0.1 / np.linalg.norm(c[1], ord=2)  # inside the unit ball
    last = []

    def value(y):
        last[:] = [y]
        return -float(np.vdot(y - c, y - c).real)

    def gradient(y):
        assert y is last[0]
        return -2.0 * (y - c)

    fy, y = logic._ascend(value, gradient, np.zeros_like(c), 1.0,
                          EvalOptions(iters=400, tol=1e-14))
    assert np.allclose(y, logic._project_ball(c, 1.0), atol=1e-6)
    assert fy == value(y)


@pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
def test_eval_options_reject_a_non_positive_or_non_finite_step(step):
    with pytest.raises(ValueError, match="step"):
        EvalOptions(step=step)
    assert EvalOptions(step=0.5).step == 0.5 and EvalOptions().step is None


@pytest.mark.parametrize("name,value", [("tol", np.nan), ("tol", np.inf), ("tol", 0.0),
                                        ("tol", -1e-9), ("max_depth", -1)])
def test_eval_options_reject_a_bad_tol_or_max_depth(name, value):
    # a non-finite tol made the step floor non-finite, so every ascent stopped
    # at its start; max_depth -1 refused even quantifier-free formulas
    with pytest.raises(ValueError, match=name):
        EvalOptions(**{name: value})
    x = mc.sample_ginibre(4, 1, mc.Seed(1))
    assert logic.evaluate(parse("re tr(x1)"), x, EvalOptions(max_depth=0)) \
        == pytest.approx(np.trace(x.entries[0]).real / 4, rel=1e-14)
    oracle = np.linalg.svd(x.entries[0], compute_uv=False).sum() / 4
    assert logic.evaluate(parse("sup{y:1.0} re tr(y*x1)"), x) == pytest.approx(oracle, rel=1e-12)


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


@pytest.mark.parametrize("m,degree", [(2, 0), (2, 1), (2, 4), (3, 3)])
def test_qf_type_every_word_matches_direct_product(m, degree):
    rng = np.random.default_rng(14)
    x = random_tuple(3, m, rng)
    t = logic.qf_type(x, degree)
    assert list(t.moments) == logic._all_words(m, degree)
    for w, mom in t.moments.items():
        prod = np.eye(3, dtype=complex)
        for name, star in w:
            a = x.entries[int(name[1:]) - 1]
            prod = prod @ (a.conj().T if star else a)
        assert mom == pytest.approx(complex(np.trace(prod)) / 3, abs=1e-12)
    again = logic.qf_type(x, degree)  # second call reuses the cached words and trace plan
    assert repr(again.moments) == repr(t.moments)


@pytest.mark.parametrize("m,degree,n", [(1, 2, 4), (2, 3, 5), (2, 4, 6), (3, 3, 3)])
def test_qf_type_reads_the_trace_pass_plan(m, degree, n):
    # the moments are the per-word reads of the one kernel: summed in word
    # order they give trace_pass's value of the sum of all words, bit for bit
    x = random_tuple(n, m, np.random.default_rng(15))
    t = logic.qf_type(x, degree)
    total = 0.0
    for mom in t.moments.values():
        total += mom
    unit = logic.NcPolynomial(dict.fromkeys(t.moments, 1.0))
    assert total == logic.trace_pass(logic.compile_poly(unit), x.entries)[0]


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


# ---------------------------------------------------------------------------
# Kernel pin

def _pin_term_lists():
    """Fixed term lists for the kernel pin: the sampler's potentials, a
    permuted-gradient example, and random words over three slots with
    duplicates, adjoints and rotations of earlier words mixed in."""
    quadratic = [(0.5, ((j, True), (j, False))) for j in range(2)]
    quartic = [(0.1, ((j, True), (j, False), (j, True), (j, False))) for j in range(2)]
    tilt = [(0.5 - 0.25j, ((0, False),)), (-0.25, ((1, False),))]
    lists = [quadratic, quadratic + tilt + quartic, quadratic + quartic + [(2.0, ())],
             [(1.0, ((1, False), (1, False))), (0.5j, ((0, True), (1, True), (0, False))),
              (-0.7, ((2, False), (0, True), (1, True)))]]
    rng = np.random.default_rng(2501)
    for _ in range(24):
        terms = []
        for _ in range(int(rng.integers(1, 7))):
            if terms and rng.random() < 0.4:  # reuse an earlier word, turned
                word = terms[int(rng.integers(len(terms)))][1]
                cut = int(rng.integers(len(word) + 1))
                word = word[cut:] + word[:cut]
                if rng.random() < 0.5:
                    word = logic._adjoint(word)
            else:
                word = tuple((int(rng.integers(3)), bool(rng.integers(2)))
                             for _ in range(int(rng.integers(0, 5))))
            coef = complex(*rng.normal(size=2)) if rng.random() < 0.7 else float(rng.normal())
            terms.append((coef, word))
        lists.append(terms)
    return lists


_PIN_GRAD_SLOTS = [None, (0,), (0, 1, 2), (2, 0), (0, 1, 2, 3)]  # slot 3 is in no word


def kernel_pin_outputs():
    """trace_pass and bind_trace values and gradients on the pin's term lists,
    then qf_type moments, in a fixed order."""
    rng = np.random.default_rng(2502)
    out = []
    for terms in _pin_term_lists():
        for n in (1, 3, 8):
            mats = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
            again = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
            for slots in _PIN_GRAD_SLOTS:
                out += logic.trace_pass(terms, mats, slots)
                kernel = logic.bind_trace(terms, slots)
                out += kernel(mats) + kernel(again)
    for m, degree, n in ((1, 4, 3), (2, 3, 4), (3, 2, 5), (2, 0, 2)):
        t = logic.qf_type(random_tuple(n, m, rng), degree)
        out += list(t.moments.values())
    return out


def test_each_plan_is_compiled_once(monkeypatch):
    # the compiled kernel lives on the cached plan: binding the same terms
    # again, a trace pass on the same words with other coefficients and a
    # second qf_type compile nothing new
    emitted = []
    emit = logic._emit

    def spy(*args):
        emitted.append(args)
        return emit(*args)

    monkeypatch.setattr(logic, "_emit", spy)
    logic._trace_plan.cache_clear()
    logic._qf_words.cache_clear()
    rng = np.random.default_rng(26)
    x = random_tuple(3, 2, rng)
    terms = [(0.5, ((0, True), (0, False))), (0.25j, ((0, False), (1, True), (1, False)))]
    first, second = logic.bind_trace(terms, (0, 1)), logic.bind_trace(terms, (0, 1))
    assert len(emitted) == 1
    for a, b in zip(first(x.entries), second(x.entries)):
        assert np.array_equal(a, b)
    for scale in (1.0, -2.0):
        logic.trace_pass([(scale * c, w) for c, w in terms], x.entries)
    assert len(emitted) == 2
    logic.qf_type(x, 3)
    logic.qf_type(random_tuple(3, 2, rng), 3)
    assert len(emitted) == 3


def test_kernel_pin_covers_every_plan_feature():
    # every read form, conjugated reads, adjoint and in-place gradient groups,
    # identity coefficients and a gradient slot no word reads
    forms, conj, adjoint, in_place, eye, empty = set(), False, False, False, False, False
    for terms in _pin_term_lists():
        for slots in _PIN_GRAD_SLOTS:
            plan = logic._trace_plan(tuple(w for _, w in terms), slots)
            forms |= {r[0] for r in plan.reads}
            conj |= any(r[1] for r in plan.reads)
            for groups, eyes in plan.grads or ():
                adjoint |= any(g[1] for g in groups)
                in_place |= any(g[3] for g in groups)
                eye |= bool(eyes)
                empty |= not groups and not eyes
    assert (forms, conj, adjoint, in_place, eye, empty) == ({0, 1, 2, 3}, True, True, True,
                                                           True, True)


# SHA-256 over the type, dtype and bytes of every value and gradient of the
# trace kernel and every qf_type moment above, recorded before the kernel's
# loop body was last rewritten: a rewrite must keep every bit
KERNEL_PIN = "c3bb0ebe881a21b51b9d4f0d65e417e9884661c7ccb89883ecdb5889314721c9"


def test_kernel_pin():
    digest = hashlib.sha256()
    for v in kernel_pin_outputs():
        digest.update(type(v).__name__.encode())
        if v is not None:  # trace_pass without gradient slots
            arr = np.asarray(v)
            digest.update(arr.dtype.str.encode() + arr.tobytes())
    assert digest.hexdigest() == KERNEL_PIN

