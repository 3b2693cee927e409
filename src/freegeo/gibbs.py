"""Gibbs random-matrix ensembles: density proportional to exp(-n^2 phi(X)).

Potentials are strongly convex scalar functions of a MatrixTuple.  A trace
polynomial's value and its cyclic-derivative gradient come from one pass of
``logic.trace_pass`` over each slot word: shared prefix and suffix products,
with identity factors skipped, and the value read off as tr_n of the last
prefix product.  Sampling is Metropolis-adjusted Langevin in the tr_n metric
on raw (m, n, n) arrays, one value-and-gradient call per proposal, with step
adaptation during burn-in only, so the recorded chain satisfies detailed
balance.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import logic
from .convex import _numeric_gradient, check_strong_convexity
from .matcore import MatrixTuple, Seed, tracial_norm

__all__ = [
    "Potential",
    "Ensemble",
    "SamplerOptions",
    "SamplerError",
    "sample_gibbs",
    "gradient_at_zero",
    "norm_tail_check",
    "expectation_bound_check",
    "herbst_check",
    "save_ensemble",
    "load_ensemble",
]

Word = logic.Word

FIGE_MAGIC = b"FIGE"
FIGE_VERSION = 1


class SamplerError(RuntimeError):
    pass


class Potential:
    """phi(X) = sum_i re[coef_i tr_n(word_i(X))], declared c-strongly convex.

    Words use letters (j, star) with j a 0-based slot index; value and
    gradient in the tr_n real inner product come from ``logic.trace_pass``.
    """

    def __init__(self, terms: list[tuple[complex, tuple[tuple[int, bool], ...]]],
                 c: float, name: str = ""):
        if c <= 0:
            raise ValueError("strong-convexity constant c must be positive")
        self.terms = [(complex(coef), tuple(word)) for coef, word in terms if coef != 0]
        self.c = float(c)
        self.name = name

    # -- constructors ----------------------------------------------------

    @classmethod
    def quadratic(cls, c: float, m: int) -> "Potential":
        """(c/2) sum_j tr_n(x_j^* x_j) = c q; the Gaussian reference."""
        terms = [(c / 2, ((j, True), (j, False))) for j in range(m)]
        return cls(terms, c, name=f"{c}*q" if c != 1 else "q")

    def with_tilt(self, tilt) -> "Potential":
        """Add the linear term re<a, x> for a scalar tuple a (one value per slot)."""
        vals = np.atleast_1d(np.asarray(tilt, dtype=complex))
        terms = list(self.terms)
        for j, a in enumerate(vals):
            if a != 0:
                terms.append((np.conj(a), ((j, False),)))
        return Potential(terms, self.c, name=f"{self.name}+tilt")

    def with_quartic(self, gamma: float, slots=None) -> "Potential":
        """Add gamma * tr_n((x_j^* x_j)^2) on the given slots (default all)."""
        slots = range(self._m()) if slots is None else slots
        terms = list(self.terms)
        for j in slots:
            terms.append((gamma, ((j, True), (j, False), (j, True), (j, False))))
        return Potential(terms, self.c, name=f"{self.name}+{gamma}*quartic")

    @classmethod
    def from_formula(cls, f: logic.Formula | str, c: float) -> "Potential":
        """Build from a quantifier-free formula that is a linear combination of atoms."""
        ast = logic.parse(f) if isinstance(f, str) else f
        if not logic.is_quantifier_free(ast):
            raise ValueError(
                "Gibbs potentials must be quantifier-free; sup/inf gradients are unsupported"
            )
        return cls(logic.compile_poly(_formula_to_poly(ast)), c, name=logic.print_formula(ast))

    # -- evaluation -------------------------------------------------------

    def _m(self) -> int:
        return 1 + max((j for _, w in self.terms for j, _ in w), default=0)

    def value(self, x: MatrixTuple) -> float:
        return logic.trace_pass(self.terms, x.entries)[0].real

    def gradient(self, x: MatrixTuple) -> MatrixTuple:
        return MatrixTuple(logic.trace_pass(self.terms, x.entries, with_gradient=True)[1])

    def value_and_gradient(self, entries: np.ndarray) -> tuple[float, np.ndarray]:
        """phi and its tr_n gradient at the (m, n, n) array ``entries``, in one pass."""
        total, grad = logic.trace_pass(self.terms, entries, with_gradient=True)
        return total.real, grad

    def formula_text(self) -> str:
        """``re tr(...)`` text of phi; terms on the same word add."""
        words: dict[Word, complex] = {}
        for coef, word in self.terms:
            w = tuple((f"x{j + 1}", star) for j, star in word)
            words[w] = words.get(w, 0) + coef
        return f"re tr({logic._print_poly(logic.NcPolynomial(words))})"


def _formula_to_poly(f: logic.Formula) -> logic.NcPolynomial:
    """Flatten +/-/scalar-multiple combinations of re-trace atoms into one polynomial."""
    if isinstance(f, logic.Atom):
        return f.poly
    if isinstance(f, logic.Const):
        return logic.NcPolynomial.constant(f.value)
    if isinstance(f, logic.Arith):
        if f.op == "+":
            return _formula_to_poly(f.args[0]) + _formula_to_poly(f.args[1])
        if f.op == "-":
            return _formula_to_poly(f.args[0]) - _formula_to_poly(f.args[1])
        if f.op == "neg":
            return -_formula_to_poly(f.args[0])
        if f.op == "*":
            for a, b in ((f.args[0], f.args[1]), (f.args[1], f.args[0])):
                if isinstance(a, logic.Const):
                    return a.value * _formula_to_poly(b)
        if f.op == "/" and isinstance(f.args[1], logic.Const):
            return (1.0 / f.args[1].value) * _formula_to_poly(f.args[0])
    raise ValueError(
        "potential formula must be a linear combination of trace atoms; "
        f"cannot handle node {type(f).__name__}"
    )


# ---------------------------------------------------------------------------
# Ensembles


@dataclass(frozen=True)
class Ensemble:
    """An immutable batch of sampled MatrixTuples (an empirical measure)."""

    samples: np.ndarray = field(repr=False)  # (count, m, n, n) complex128
    provenance: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 4 or arr.shape[2] != arr.shape[3]:
            raise ValueError(f"expected samples of shape (count, m, n, n), got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def count(self) -> int:
        return self.samples.shape[0]

    @property
    def m(self) -> int:
        return self.samples.shape[1]

    @property
    def n(self) -> int:
        return self.samples.shape[2]

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> MatrixTuple:
        return MatrixTuple(self.samples[i])

    def tuples(self):
        return (MatrixTuple(self.samples[i]) for i in range(self.count))

    def mean_tuple(self) -> MatrixTuple:
        return MatrixTuple(self.samples.mean(axis=0))

    def mean_squared_norm(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) / (self.n * self.count))

    def conjugate_by(self, u: np.ndarray) -> "Ensemble":
        rotated = np.einsum("ab,sjbc,dc->sjad", u, self.samples, np.conj(u))
        return Ensemble(rotated, dict(self.provenance), dict(self.diagnostics))


def save_ensemble(e: Ensemble, path) -> None:
    """Binary layout: magic, version u16, n u32, m u32, count u64, complex128
    matrices row-major little-endian, then a trailing JSON metadata block."""
    meta = {"provenance": e.provenance, "diagnostics": e.diagnostics}
    with open(path, "wb") as fh:
        fh.write(FIGE_MAGIC)
        fh.write(struct.pack("<HIIQ", FIGE_VERSION, e.n, e.m, e.count))
        fh.write(np.ascontiguousarray(e.samples.astype("<c16")).tobytes())
        fh.write(json.dumps(meta).encode("utf-8"))


def load_ensemble(path) -> Ensemble:
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)
    if buf.read(4) != FIGE_MAGIC:
        raise ValueError("not a FIGE ensemble file")
    version, n, m, count = struct.unpack("<HIIQ", buf.read(18))
    if version != FIGE_VERSION:
        raise ValueError(f"unsupported FIGE version {version}")
    nbytes = count * m * n * n * 16
    arr = np.frombuffer(buf.read(nbytes), dtype="<c16").reshape(count, m, n, n)
    tail = buf.read()
    meta = json.loads(tail.decode("utf-8")) if tail else {}
    return Ensemble(arr.astype(np.complex128), meta.get("provenance", {}),
                    meta.get("diagnostics", {}))


# ---------------------------------------------------------------------------
# MALA sampler


@dataclass(frozen=True)
class SamplerOptions:
    seed: Seed = field(default_factory=Seed)
    step: float | None = None  # initial tau; default 0.5 / (c n^2)
    adapt_steps: int = 800
    pilot_steps: int = 600
    thin: int | None = None  # default 2x the integrated autocorrelation time
    target_accept: tuple[float, float] = (0.5, 0.7)
    collapse_threshold: float = 0.05
    max_halvings: int = 10
    convexity_spot_pairs: int = 12


def _convexity_spot(value, c: float, n: int, m: int, seed: Seed, pairs: int) -> float:
    """Max violation of the c-strong-convexity midpoint inequality on random pairs."""
    rng = seed.rng()
    triples = []
    for _ in range(pairs):
        a = MatrixTuple(rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        b = MatrixTuple(rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        triples.append((a, b, float(rng.uniform())))
    return check_strong_convexity(value, c, triples).max_violation


def _std_noise(rng, n, m):
    # standard Gaussian for the tr_n real inner product: the orthonormal
    # coordinates are entries/sqrt(n), so entries are sqrt(n)(g1 + i g2)
    return np.sqrt(float(n)) * (
        rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
    )


def _iat(series: np.ndarray) -> float:
    """Integrated autocorrelation time by the standard windowing rule."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    if x.size < 8 or np.allclose(x, 0):
        return 1.0
    acf = np.correlate(x, x, mode="full")[x.size - 1 :]
    if acf[0] <= 0:
        return 1.0
    acf = acf / acf[0]
    tau = 1.0
    for k in range(1, min(x.size // 2, 2000)):
        if acf[k] < 0.05:
            break
        tau += 2.0 * acf[k]
    return max(tau, 1.0)


def sample_gibbs(pot: Potential, n: int, m: int, count: int,
                 opts: SamplerOptions | None = None) -> Ensemble:
    """MALA chain targeting density proportional to exp(-n^2 pot(X)).

    Step size adapts toward the target acceptance window during burn-in and
    is frozen afterwards; burn-in is extended by 10x the pilot-estimated
    autocorrelation time, and output is thinned so samples are near
    independent.  Fully deterministic given the seed.
    """
    opts = opts or SamplerOptions()
    if pot.c <= 0:
        raise SamplerError("sampler requires a strongly convex potential (c > 0)")
    viol = _convexity_spot(pot.value, pot.c, min(n, 8), m, opts.seed.derive(0),
                           opts.convexity_spot_pairs)
    if viol > 1e-8:
        raise SamplerError(
            f"potential fails the declared c={pot.c} strong-convexity spot check "
            f"(violation {viol:.3e}); all concentration bounds would be void"
        )

    rng = opts.seed.derive(1).rng()
    tau = opts.step if opts.step is not None else 0.5 / (pot.c * n * n)
    nn = n * n
    # the chain state is raw (m, n, n) arrays; the energy is n^2 phi
    x = np.zeros((m, n, n), dtype=np.complex128)
    v_x, g_x = pot.value_and_gradient(x)
    v_x, g_x = nn * v_x, g_x * nn

    halvings = 0
    accept_window: list[float] = []
    final_rate = None
    stat_series: list[float] = []
    accepted_total = 0
    proposed_total = 0

    def sq_norm(d):
        return float(np.real(np.einsum("jab,jab->", np.conj(d), d)) / n)

    def mala_step(x, v_x, g_x, tau):
        noise = _std_noise(rng, n, m)
        mean_fwd = x + g_x * (-tau)
        prop = mean_fwd + noise * math.sqrt(2 * tau)
        v_p, g_p = pot.value_and_gradient(prop)
        v_p, g_p = nn * v_p, g_p * nn
        mean_bwd = prop + g_p * (-tau)
        d_fwd = prop - mean_fwd
        d_bwd = x - mean_bwd
        log_alpha = v_x - v_p + (-sq_norm(d_bwd) + sq_norm(d_fwd)) / (4 * tau)
        if math.log(max(rng.uniform(), 1e-300)) < log_alpha:
            return prop, v_p, g_p, True
        return x, v_x, g_x, False

    # phase 1: adaptation
    for step_idx in range(opts.adapt_steps):
        x, v_x, g_x, ok = mala_step(x, v_x, g_x, tau)
        accept_window.append(1.0 if ok else 0.0)
        if len(accept_window) >= 50:
            rate = final_rate = float(np.mean(accept_window))
            accept_window.clear()
            lo, hi = opts.target_accept
            if rate < opts.collapse_threshold:
                tau /= 2.0
                halvings += 1
                if halvings > opts.max_halvings:
                    raise SamplerError(
                        f"acceptance collapsed below {opts.collapse_threshold} "
                        f"after {halvings} step halvings (tau={tau:.3e})"
                    )
            elif rate < lo:
                tau /= 1.4
            elif rate > hi:
                tau *= 1.4

    # phase 2: pilot for autocorrelation (step frozen from here on)
    for _ in range(opts.pilot_steps):
        x, v_x, g_x, ok = mala_step(x, v_x, g_x, tau)
        stat_series.append(v_x)
    tau_int = _iat(np.array(stat_series))
    thin = opts.thin if opts.thin is not None else max(1, int(math.ceil(2 * tau_int)))
    extra_burn = int(math.ceil(10 * tau_int))
    for _ in range(extra_burn):
        x, v_x, g_x, _ = mala_step(x, v_x, g_x, tau)

    # phase 3: recording
    out = np.empty((count, m, n, n), dtype=np.complex128)
    for i in range(count):
        for _ in range(thin):
            x, v_x, g_x, ok = mala_step(x, v_x, g_x, tau)
            proposed_total += 1
            accepted_total += 1 if ok else 0
        out[i] = x

    acc_rate = accepted_total / max(proposed_total, 1)
    ess = count * thin / (2.0 * tau_int)
    diagnostics = {
        "acceptance_rate": acc_rate,
        "step": tau,
        "iat": tau_int,
        "thin": thin,
        "ess": min(ess, float(count)),
        "halvings": halvings,
        # the last 50-step adaptation window; None if adaptation was shorter
        "adapt_final_rate": final_rate,
        "adapt_in_window": (final_rate is not None
                            and opts.target_accept[0] <= final_rate <= opts.target_accept[1]),
    }
    text = pot.formula_text()
    provenance = {
        "potential": text,
        "potential_hash": hashlib.sha256(text.encode()).hexdigest()[:16],
        "c": pot.c,
        "seed": [opts.seed.master_seed, opts.seed.stream_id],
        "n": n,
        "m": m,
        "count": count,
        "sampler": {"step": tau, "thin": thin, "adapt_steps": opts.adapt_steps},
    }
    return Ensemble(out, provenance, diagnostics)


# ---------------------------------------------------------------------------
# Quantitative diagnostics


def gradient_at_zero(pot: Potential, r_list, m: int | None = None, n: int = 8):
    """Scalar-tuple subgradient estimate at 0 plus the box bound per radius.

    The bound is (1/R) sup over the real box [-R, R]^m of scalar tuples of
    phi - phi(0); convexity puts the sup at a vertex, so it is evaluated
    exactly on the 2^m vertices.
    """
    m = m if m is not None else pot._m()
    zero = MatrixTuple.zero(n, m)
    g = pot.gradient(zero)
    estimate = np.array([np.trace(g.entries[j]) / n for j in range(m)])
    phi0 = pot.value(zero)
    bounds = []
    for r in r_list:
        best = -math.inf
        for signs in np.ndindex(*(2,) * m):
            vals = [r if s else -r for s in signs]
            best = max(best, pot.value(MatrixTuple.scalar(vals, n)) - phi0)
        bounds.append(best / r)
    return estimate, np.array(bounds)


@dataclass(frozen=True)
class TailReport:
    theta: float
    grid: np.ndarray
    frequencies: np.ndarray
    bounds: np.ndarray

    @property
    def ok(self) -> bool:
        return bool(np.all(self.frequencies <= self.bounds + 1e-12))


def norm_tail_check(e: Ensemble, c: float, deltas=None) -> TailReport:
    """Smallest Theta with ``freq{||X_j - mean|| >= c^{-1/2}(Theta + delta)} <= 2 exp(-n delta^2)``."""
    deltas = np.asarray(deltas if deltas is not None else np.linspace(0.1, 1.5, 8))
    mean = e.mean_tuple()
    stats = np.array([
        math.sqrt(c) * float(np.linalg.norm(e.samples[i, j] - mean.entries[j], ord=2))
        for i in range(e.count)
        for j in range(e.m)
    ])
    stats.sort()
    total = stats.size
    theta = 0.0
    for d in deltas:
        bound = 2.0 * math.exp(-e.n * d * d)
        allowed = int(math.floor(min(bound, 1.0) * total))
        # smallest threshold with at most `allowed` exceedances
        idx = total - allowed
        t_d = stats[idx - 1] - d if idx >= 1 else 0.0
        theta = max(theta, t_d)
    theta = max(theta, 0.0)
    freqs = np.array([
        float(np.mean(stats >= theta + d)) for d in deltas
    ])
    bounds = np.array([min(2.0 * math.exp(-e.n * d * d), 1.0) for d in deltas])
    return TailReport(theta, deltas, freqs, bounds)


@dataclass(frozen=True)
class ExpectationBoundReport:
    lhs: float
    rhs: float
    rhs_proof_scaling: float
    c_constant: float
    sufficient_samples: bool

    @property
    def ok(self) -> bool:
        return self.sufficient_samples and self.lhs <= self.rhs


def expectation_bound_check(e: Ensemble, pot: Potential,
                            eval_opts: logic.EvalOptions | None = None,
                            min_samples: int = 8) -> ExpectationBoundReport:
    """Check (E ||X||^2)^{1/2} <= c^{-1/2} m^{1/2} + c^{-1} C m^{1/2}.

    C = sup of phi - phi(0) over the unit operator-norm ball, estimated with
    a sup-quantifier formula per slot.  The companion value with the extra
    sqrt(2) from the dimension count of the underlying real space is reported
    alongside.
    """
    m, n = e.m, e.n
    c = pot.c
    if e.count < min_samples:
        return ExpectationBoundReport(float("nan"), float("nan"), float("nan"),
                                      float("nan"), False)
    phi0 = pot.value(MatrixTuple.zero(n, m))
    body = pot.formula_text()
    text = body
    for j in range(m):
        text = f"sup{{b{j + 1}:1.0}} " + text.replace(f"x{j + 1}", f"b{j + 1}")
    f = logic.parse(f"({text}) - {logic._fmt_num(phi0)}")
    opts = eval_opts or logic.EvalOptions(starts=4, iters=120, max_depth=max(2, m))
    c_const = logic.evaluate(f, MatrixTuple.zero(n, 1), opts)
    lhs = math.sqrt(e.mean_squared_norm())
    rhs = math.sqrt(m) * (c ** -0.5 + c_const / c)
    rhs_proof = math.sqrt(2 * m / c) + math.sqrt(m) * c_const / c
    return ExpectationBoundReport(lhs, rhs, rhs_proof, c_const, True)


@dataclass(frozen=True)
class HerbstReport:
    grid: np.ndarray
    frequencies: np.ndarray
    bounds: np.ndarray
    slack: np.ndarray
    lipschitz: float

    @property
    def ok(self) -> bool:
        return bool(np.all(self.frequencies <= self.bounds + self.slack))


def herbst_check(e: Ensemble, f: logic.Formula | str, c: float,
                 lipschitz: float | None = None, deltas=None,
                 eval_opts: logic.EvalOptions | None = None) -> HerbstReport:
    """Empirical deviation frequencies of a Lipschitz formula against
    2 exp(-c n^2 delta^2 / 2 L^2), with a 3-sigma binomial allowance per grid point.

    If no Lipschitz constant is supplied it is estimated as the largest
    sampled gradient norm (difference quotients between random samples
    underestimate L badly in high dimension, so quotients are taken along
    gradient directions: exact for trace polynomials via the cyclic
    derivative, central differences otherwise).
    """
    ast = logic.parse(f) if isinstance(f, str) else f
    opts = eval_opts or logic.EvalOptions()
    vals = np.array([logic.evaluate(ast, t, opts) for t in e.tuples()])
    if lipschitz is None:
        lipschitz = max(_formula_lipschitz(ast, e, opts), 1e-12)
    n = e.n
    scale = lipschitz / (n * math.sqrt(c))
    deltas = np.asarray(deltas if deltas is not None else
                        [k * scale for k in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)])
    dev = np.abs(vals - vals.mean())
    count = e.count
    freqs = np.array([float(np.mean(dev >= d)) for d in deltas])
    bounds = np.array([
        min(2.0 * math.exp(-c * n * n * d * d / (2 * lipschitz**2)), 1.0) for d in deltas
    ])
    slack = np.array([
        3.0 * math.sqrt(max(b * (1 - b), 1.0 / count) / count) + 1.0 / count for b in bounds
    ])
    return HerbstReport(deltas, freqs, bounds, slack, lipschitz)


def _formula_lipschitz(ast: logic.Formula, e: Ensemble, opts: logic.EvalOptions,
                       max_samples: int = 12) -> float:
    """Largest gradient norm of the formula over a few ensemble members."""
    idx = range(0, e.count, max(1, e.count // max_samples))
    try:
        pot = Potential.from_formula(ast, c=1.0)
        return max(tracial_norm(pot.gradient(e[i])) for i in idx)
    except ValueError:
        pass

    def value(t: MatrixTuple) -> float:
        return logic.evaluate(ast, t, opts)

    return max((tracial_norm(_numeric_gradient(value, e[i], h=1e-5)) for i in list(idx)[:4]),
               default=0.0)
