"""Gibbs random-matrix ensembles: density proportional to exp(-n^2 phi(X)).

Potentials are strongly convex scalar functions of a MatrixTuple.  A trace
polynomial's value and its cyclic-derivative gradient come from one call of
``logic.trace_pass``, which follows a plan built once per set of slot
words: duplicate words merged, each distinct product built once (the
quadratic needs none, the quartic two), and each word's value read as an
O(n^2) contraction of a product the gradient also uses.  The plan is
written out once as straight-line numpy code, so a call interprets none
of it.  Sampling is
Metropolis-adjusted Langevin in the tr_n metric on raw (m, n, n) arrays.  The
step starts at the dimension-scaled 0.5 (2mn^2)^(-1/3) / (c n^2) and is tuned
during burn-in only, by dual averaging of its log toward the middle of the
target acceptance window (Hoffman and Gelman 2014), then frozen at the
averaged iterate.  A pilot at the frozen step measures the acceptance the
chain reports and the autocorrelation time that sets thinning, so the
recorded chain satisfies detailed balance at a measured step.  The sampler
asks three things of a potential: ``c``, ``formula_text()`` and ``bind(m)``,
the value-and-gradient kernel a chain binds once; for ``Potential`` that is
the ``logic.bind_trace`` kernel itself (the plan's compiled code with its
coefficients and gradient sums bound once).  The chain state lives in the step's closure; each step makes one
kernel call, scales its row of a block of normals into the real view of the
increment buffer (real and imaginary parts interleaved), compares a log
uniform of a block of acceptance draws, and does its arithmetic in reused
buffers.  A chain has two streams, one for the noise and one for the
acceptance uniforms, each filled for up to ``_BLOCK_BYTES`` of noise worth
of steps in one call; a phase's last fill ends at its last step, and each
stream is read in order, so the chain's bits do not depend on the block
length.  A chain never jumps in its streams, so they are SFC64 over the two
children of its seed's ``SeedSequence`` (``_chain_rngs``), which fills
normals faster than the Philox of ``Seed.rng()``; every other stream of the
program stays on Philox.  The chain runs in phi units: it uses phi and its
tr_n gradient g as the kernel returns them, with the step sigma = n^2 tau.
The acceptance ratio comes from the identity |d + tau grad E_x|^2 -
|d - tau grad E_y|^2 = 2 tau <d, grad E_x + grad E_y> + tau^2 (|grad E_x|^2 -
|grad E_y|^2) for the increment d = y - x and the energy E = n^2 phi, with
|g|^2 carried along with the state, so a step makes seven array passes
besides the draw and the kernel.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import logic
from .convex import check_strong_convexity
from .matcore import MatrixTuple, Seed, sigma_max, tracial_norm

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
_FIGE_HEADER = struct.Struct("<HIIQ")  # version, n, m, count (after the magic)


class SamplerError(RuntimeError):
    pass


class Potential:
    """phi(X) = sum_i re[coef_i tr_n(word_i(X))], declared c-strongly convex.

    Words use letters (j, star) with j a 0-based slot index; value and
    gradient in the tr_n real inner product come from ``logic.trace_pass``.
    """

    def __init__(self, terms: list[tuple[complex, tuple[tuple[int, bool], ...]]],
                 c: float, name: str = ""):
        if not 0 < c < math.inf:
            raise ValueError(f"strong-convexity constant c must be finite and positive, got {c}")
        kept = []
        for coef, word in terms:
            coef = complex(coef)
            if not cmath.isfinite(coef):
                raise ValueError(f"coefficient {coef} of word {word} is not finite")
            for j, _ in word:
                if j < 0:
                    raise ValueError(f"slot {j} in word {word} is negative")
            if coef != 0:
                kept.append((coef, tuple((j, bool(star)) for j, star in word)))
        # immutable, like the words that key the plan cache of trace_pass
        self.terms = tuple(kept)
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
        return MatrixTuple(logic.trace_pass(self.terms, x.entries, range(x.m))[1])

    def bind(self, m: int):
        """The kernel ``entries -> (phi, tr_n gradient)`` on (m, n, n) arrays, with the
        trace plan and the coefficient sums bound once: ``logic.bind_trace``
        itself, so phi comes back complex and its real part is the value.  A
        potential that uses more than m slots raises ``ValueError``."""
        if self._m() > m:
            raise ValueError(f"the potential uses {self._m()} matrix slots but m = {m}")
        return logic.bind_trace(self.terms, range(m))

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
        rotated = u @ self.samples @ u.conj().T
        return Ensemble(rotated, dict(self.provenance), dict(self.diagnostics))


def save_ensemble(e: Ensemble, path) -> None:
    """Binary layout: magic, version u16, n u32, m u32, count u64, complex128
    matrices row-major little-endian, then a trailing JSON metadata block."""
    meta = {"provenance": e.provenance, "diagnostics": e.diagnostics}
    with open(path, "wb") as fh:
        fh.write(FIGE_MAGIC)
        fh.write(_FIGE_HEADER.pack(FIGE_VERSION, e.n, e.m, e.count))
        fh.write(np.ascontiguousarray(e.samples.astype("<c16")).tobytes())
        fh.write(json.dumps(meta).encode("utf-8"))


def load_ensemble(path) -> Ensemble:
    """Read a FIGE file; a corrupt or inconsistent file raises ValueError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    start = len(FIGE_MAGIC) + _FIGE_HEADER.size
    if data[: len(FIGE_MAGIC)] != FIGE_MAGIC:
        raise ValueError(f"{path}: not a FIGE ensemble file")
    if len(data) < start:
        raise ValueError(f"{path}: FIGE header cut off after {len(data)} bytes")
    version, n, m, count = _FIGE_HEADER.unpack_from(data, len(FIGE_MAGIC))
    if version != FIGE_VERSION:
        raise ValueError(f"{path}: unsupported FIGE version {version}")
    if n < 1 or m < 1:
        raise ValueError(f"{path}: header declares n {n} and m {m}; both must be >= 1")
    size = count * m * n * n
    if 16 * size > len(data) - start:
        raise ValueError(f"{path}: header declares {16 * size} sample bytes "
                         f"(count {count}, m {m}, n {n}) but {len(data) - start} "
                         f"bytes follow the header")
    arr = np.frombuffer(data, dtype="<c16", count=size, offset=start)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite sample values")
    # the metadata block runs to the end of the file, so a header that claims
    # too many samples leaves an empty block or a fragment of one
    try:
        meta = json.loads(data[start + 16 * size :].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: corrupt FIGE metadata block: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: FIGE metadata is not a JSON object")
    return Ensemble(arr.reshape(count, m, n, n),
                    meta.get("provenance", {}), meta.get("diagnostics", {}))


# ---------------------------------------------------------------------------
# MALA sampler

# Dual averaging of the log step: the constants Hoffman and Gelman recommend
# (JMLR 15, 2014, section 3.2).
_DA_GAMMA = 0.05
_DA_T0 = 10
_DA_KAPPA = 0.75
# The averaging keeps log tau at most log 16 below the step it (re)started
# from, so that it cannot chase a step toward zero, where every proposal is
# accepted and the chain does not move.  Only a collapsed window lowers the
# step further: it halves it and restarts the averaging there.
_DA_SPAN = math.log(16.0)
_WINDOW = 50  # steps per acceptance-collapse window
_COLLAPSE = 0.05  # a window accepting less than this share halves the step
_TARGET_ACCEPT = (0.5, 0.7)  # the pilot's acceptance window; adaptation aims at its middle
_THIN_IATS = 2  # recorded states are this many integrated autocorrelation times apart
_BLOCK_BYTES = 256 * 1024  # noise per block fill; one step's if that is larger


@dataclass(frozen=True)
class SamplerOptions:
    seed: Seed = field(default_factory=Seed)
    step: float | None = None  # initial tau; default 0.5 (2mn^2)^(-1/3) / (c n^2)
    adapt_steps: int = 800
    pilot_steps: int = 600
    max_halvings: int = 10
    convexity_spot_pairs: int = 12

    def __post_init__(self):
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ValueError(f"step must be None or finite and > 0, got {self.step}")
        if self.adapt_steps < 0:
            raise ValueError(f"adapt_steps must be >= 0, got {self.adapt_steps}")
        if self.pilot_steps < 0:
            raise ValueError(f"pilot_steps must be >= 0, got {self.pilot_steps}")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")
        # zero pairs would switch the strong-convexity spot check off
        if self.convexity_spot_pairs < 1:
            raise ValueError("convexity_spot_pairs must be >= 1, got "
                             f"{self.convexity_spot_pairs}")


def _chain_rngs(seed: Seed) -> tuple[np.random.Generator, np.random.Generator]:
    """The noise and acceptance generators of the MALA chain seeded ``seed``:
    SFC64 over the two children ``seed.sequence().spawn(2)`` of the
    ``SeedSequence`` that ``seed.rng()`` runs Philox over."""
    noise, accept = (np.random.Generator(np.random.SFC64(child))
                     for child in seed.sequence().spawn(2))
    return noise, accept


def _convexity_spot(kernel, c: float, n: int, m: int, seed: Seed, pairs: int) -> float:
    """Max violation of the c-strong-convexity midpoint inequality on random pairs,
    with phi from the chain's bound ``kernel``."""
    rng = seed.rng()
    triples = []
    for _ in range(pairs):
        a = MatrixTuple(rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        b = MatrixTuple(rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n)))
        triples.append((a, b, float(rng.uniform())))
    return check_strong_convexity(lambda x: kernel(x.entries)[0].real, c, triples).max_violation


def _iat(series: np.ndarray) -> float:
    """Integrated autocorrelation time by the standard windowing rule."""
    x = np.asarray(series, dtype=float)
    if x.size < 8:
        return 1.0
    x = x - x.mean()
    if np.allclose(x, 0):
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

    ``pot`` needs only ``c``, ``formula_text()`` and ``bind(m)``, the kernel
    that maps an (m, n, n) array to phi (whose ``.real`` is taken) and its
    tr_n gradient; the chain binds it once and runs the convexity spot check
    through it too.  Phase 1 (``adapt_steps``) moves log tau by dual
    averaging toward the middle of the acceptance window 0.5-0.7, fed each
    step's min(1, e^{log alpha}), and freezes tau at the averaged iterate.
    The averaging keeps tau at or above 1/16 of the step it (re)started
    from; a 50-step window accepting less than 5% halves tau and restarts
    the averaging there, and more than ``max_halvings`` halvings raise
    ``SamplerError``.  Phase 2, a pilot of ``pilot_steps`` at the frozen
    tau, gives ``adapt_final_rate`` (its acceptance) and the autocorrelation
    time; burn-in runs on to 10x that time, counting the pilot, and output
    is thinned to 2x that time so samples are near independent.  The chain
    itself steps by sigma = n^2 tau (phi units, see the module docstring);
    ``diagnostics`` report tau as ``step`` and every MALA step of the chain
    as ``steps``.  A potential that uses more than m slots raises
    ``ValueError``.  Fully deterministic given the seed.
    """
    opts = opts or SamplerOptions()
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    kernel = pot.bind(m)
    viol = _convexity_spot(kernel, pot.c, min(n, 8), m, opts.seed.derive(0),
                           opts.convexity_spot_pairs)
    if viol > 1e-8:
        raise SamplerError(
            f"potential fails the declared c={pot.c} strong-convexity spot check "
            f"(violation {viol:.3e}); all concentration bounds would be void"
        )

    noise_rng, accept_rng = _chain_rngs(opts.seed.derive(1))
    nn = n * n
    # sigma = n^2 tau is the step in phi units: tau grad(n^2 phi) = sigma g.
    # MALA's step scales as d^(-1/3) in the real dimension d = 2mn^2 (Roberts
    # and Rosenthal, JRSS-B 60, 1998).
    sigma = (opts.step * nn if opts.step is not None
             else 0.5 * (2 * m * nn) ** (-1 / 3) / pot.c)

    # Reused per-step buffers.  Standard Gaussian noise in the tr_n real inner
    # product has entries sqrt(n)(g1 + i g2), since the orthonormal coordinates
    # are entries/sqrt(n).  A step's 2mn^2 normals are scaled into the flat
    # real view of the complex increment d, real and imaginary parts
    # interleaved.
    d = np.empty((m, n, n), dtype=np.complex128)
    d_re = d.reshape(-1).view(np.float64)
    prop, g_sum = (np.empty((m, n, n), dtype=np.complex128) for _ in range(2))
    # Block draws: each stream fills the draws of up to ``block`` steps in one
    # call, into the chain's one pair of reused buffers, and log u is taken
    # for the whole block.  A phase knows its length and its fills stop at its
    # last step, so no draw is left unused, and since each stream is read in
    # order the chain's bits do not depend on the block length.
    block = max(1, _BLOCK_BYTES // d_re.nbytes)
    noise_buf, u_buf = np.empty((0, d_re.size)), np.empty(0)

    def draws(steps):
        """(noise, log u) for each of the next ``steps`` steps."""
        nonlocal noise_buf, u_buf
        rows = min(block, steps)
        if len(u_buf) < rows:  # grows to the longest phase's block
            noise_buf, u_buf = np.empty((rows, d_re.size)), np.empty(rows)
        noise, u = noise_buf, u_buf
        for start in range(0, steps, block):
            k = min(block, steps - start)
            noise_rng.standard_normal(out=noise[:k])
            log_u = accept_rng.random(out=u[:k])
            np.log(np.maximum(log_u, 1e-300, out=log_u), out=log_u)
            yield from zip(noise[:k], log_u.tolist())

    # the chain state: x, phi(x), its gradient and |g_x|^2; prop is a free buffer
    x = np.zeros((m, n, n), dtype=np.complex128)
    v_x, g_x = kernel(x)
    v_x = float(v_x.real)
    gg_x = float(np.vdot(g_x, g_x).real) / n

    def mala_step(sigma, noise, log_u):
        """One MALA step of the chain state from its draws; returns (accepted, alpha).

        The proposal is y = x + d with d = sqrt(2 sigma/n)(g1 + i g2) - sigma g_x,
        and the module docstring's identity gives log alpha = n^2 [phi(x) -
        phi(y) + <d, g_x + g_y>/2 + sigma (|g_x|^2 - |g_y|^2)/4] in the tr_n
        inner product; the step accepts if log u < log alpha.  alpha is the
        acceptance probability min(1, e^{log alpha}), with a NaN log alpha (a
        rejected proposal) counted as 0."""
        nonlocal x, v_x, g_x, gg_x, prop
        np.multiply(noise, math.sqrt(2 * sigma / n), out=d_re)
        np.subtract(d, np.multiply(g_x, sigma, out=prop), out=d)
        np.add(x, d, out=prop)
        v_p, g_p = kernel(prop)
        # Python floats: the same double operations as numpy scalars, cheaper
        v_p = float(v_p.real)
        gg_p = float(np.vdot(g_p, g_p).real) / n
        dg = float(np.vdot(d, np.add(g_x, g_p, out=g_sum)).real) / n
        log_alpha = nn * (v_x - v_p + 0.5 * dg + 0.25 * sigma * (gg_x - gg_p))
        alpha = 1.0 if log_alpha >= 0 else (math.exp(log_alpha) if log_alpha < 0 else 0.0)
        if log_u < log_alpha:
            x, prop = prop, x
            v_x, g_x, gg_x = v_p, g_p, gg_p
            return True, alpha
        return False, alpha

    # phase 1: dual averaging of log sigma toward the middle of the target
    # window; log sigma is log tau shifted by log n^2, so the span and the
    # halvings mean the same in either unit
    target = 0.5 * (_TARGET_ACCEPT[0] + _TARGET_ACCEPT[1])
    mu = log_avg = math.log(sigma)
    t, h_bar, window_accepts, halvings = 0, 0.0, 0, 0
    for step_idx, (noise, log_u) in enumerate(draws(opts.adapt_steps), 1):
        ok, alpha = mala_step(sigma, noise, log_u)
        window_accepts += ok
        t += 1
        h_bar += (target - alpha - h_bar) / (t + _DA_T0)
        log_sigma = max(mu - _DA_SPAN, mu - math.sqrt(t) / _DA_GAMMA * h_bar)
        eta = t ** -_DA_KAPPA
        log_avg = eta * log_sigma + (1.0 - eta) * log_avg
        sigma = math.exp(log_sigma)
        if step_idx % _WINDOW == 0:
            if window_accepts < _COLLAPSE * _WINDOW:
                sigma /= 2.0
                halvings += 1
                if halvings > opts.max_halvings:
                    raise SamplerError(
                        f"acceptance collapsed below {_COLLAPSE} "
                        f"after {halvings} step halvings (tau={sigma / nn:.3e})"
                    )
                # restart the averaging from the halved step
                mu = log_avg = math.log(sigma)
                t, h_bar = 0, 0.0
            window_accepts = 0
    sigma = math.exp(log_avg)

    # phase 2: pilot at the frozen step, for its acceptance and autocorrelation
    # of the energy n^2 phi
    pilot_accepts = 0
    stat_series: list[float] = []
    for noise, log_u in draws(opts.pilot_steps):
        pilot_accepts += mala_step(sigma, noise, log_u)[0]
        stat_series.append(nn * v_x)
    final_rate = pilot_accepts / opts.pilot_steps if opts.pilot_steps else None
    tau_int = _iat(np.array(stat_series))
    thin = max(1, int(math.ceil(_THIN_IATS * tau_int)))
    # the pilot already ran at the frozen kernel, so it counts as burn-in
    extra_burn = max(0, int(math.ceil(10 * tau_int)) - opts.pilot_steps)
    for noise, log_u in draws(extra_burn):
        mala_step(sigma, noise, log_u)

    # phase 3: recording
    out = np.empty((count, m, n, n), dtype=np.complex128)
    accepted_total = 0
    recording = draws(count * thin)
    for i in range(count):
        for _ in range(thin):
            accepted_total += mala_step(sigma, *next(recording))[0]
        out[i] = x

    tau = sigma / nn
    diagnostics = {
        "acceptance_rate": accepted_total / (count * thin),
        "step": tau,
        "iat": tau_int,
        "thin": thin,
        "ess": min(count * thin / (2.0 * tau_int), float(count)),
        "halvings": halvings,
        # every MALA step of the chain: adaptation, pilot, burn-in and recording
        "steps": opts.adapt_steps + opts.pilot_steps + extra_burn + count * thin,
        # acceptance of the pilot at the frozen step; None without a pilot
        "adapt_final_rate": final_rate,
        "adapt_in_window": (final_rate is not None
                            and _TARGET_ACCEPT[0] <= final_rate <= _TARGET_ACCEPT[1]),
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
        "sampler": {"step": tau, "thin": thin, "adapt_steps": opts.adapt_steps,
                    "rng": "SFC64"},
    }
    return Ensemble(out, provenance, diagnostics)


# ---------------------------------------------------------------------------
# Quantitative diagnostics


def gradient_at_zero(pot: Potential, r_list):
    """Scalar-tuple subgradient estimate at 0 plus the box bound per radius.

    The bound is (1/R) sup over the real box [-R, R]^m of scalar tuples (at
    n = 8, m the potential's slots) of phi - phi(0); convexity puts the sup at
    a vertex, so it is evaluated exactly on the 2^m vertices.
    """
    m, n = pot._m(), 8
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
    """Smallest Theta with ``freq{||X_j - mean|| > c^{-1/2}(Theta + delta)} <= 2 exp(-n delta^2)``
    at every grid point delta."""
    deltas = np.asarray(deltas if deltas is not None else np.linspace(0.1, 1.5, 8))
    centred = (e.samples - e.samples.mean(axis=0)).reshape(-1, e.n, e.n)
    stats = math.sqrt(c) * sigma_max(centred)
    stats.sort()
    total = stats.size
    theta = 0.0
    for d in deltas:
        bound = 2.0 * math.exp(-e.n * d * d)
        allowed = int(math.floor(min(bound, 1.0) * total))
        # at most `allowed` statistics lie strictly above the threshold when it
        # sits at the (allowed + 1)-th largest
        idx = total - allowed
        t_d = stats[idx - 1] - d if idx >= 1 else 0.0
        theta = max(theta, t_d)
    theta = max(theta, 0.0)
    # compared in the form theta was computed in, stats - delta, so that no
    # rounding of theta + delta lets the statistic that set theta exceed it
    freqs = np.array([float(np.mean(stats - d > theta)) for d in deltas])
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


def expectation_bound_check(e: Ensemble, pot: Potential) -> ExpectationBoundReport:
    """Check (E ||X||^2)^{1/2} <= c^{-1/2} m^{1/2} + c^{-1} C m^{1/2}.

    C = sup of phi - phi(0) over the unit operator-norm ball, estimated with
    a sup-quantifier formula per slot.  The companion value with the extra
    sqrt(2) from the dimension count of the underlying real space is reported
    alongside.  An ensemble of fewer than 8 samples gives a NaN report marked
    insufficient.
    """
    m, n = e.m, e.n
    c = pot.c
    if e.count < 8:
        return ExpectationBoundReport(float("nan"), float("nan"), float("nan"),
                                      float("nan"), False)
    phi0 = pot.value(MatrixTuple.zero(n, m))
    body = pot.formula_text()
    text = body
    for j in range(m):
        text = f"sup{{b{j + 1}:1.0}} " + text.replace(f"x{j + 1}", f"b{j + 1}")
    f = logic.parse(f"({text}) - {logic._fmt_num(phi0)}")
    opts = logic.EvalOptions(starts=4, iters=120, max_depth=max(2, m))
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
                 lipschitz: float | None = None,
                 eval_opts: logic.EvalOptions | None = None) -> HerbstReport:
    """Empirical deviation frequencies of a Lipschitz formula against
    2 exp(-c n^2 delta^2 / 2 L^2), with a 3-sigma binomial allowance per grid point.

    The grid is delta = k L / (n sqrt(c)) for k in 1, 1.5, 2, 2.5, 3, 4.  If no
    Lipschitz constant is supplied it is estimated as the largest sampled
    gradient norm (difference quotients between random samples underestimate
    L badly in high dimension), from the formula's analytic gradient: cyclic
    derivative plus envelope rule.
    """
    ast = logic.parse(f) if isinstance(f, str) else f
    opts = eval_opts or logic.EvalOptions()
    vals = np.array([logic.evaluate(ast, t, opts) for t in e.tuples()])
    if lipschitz is None:
        lipschitz = max(_formula_lipschitz(ast, e, opts), 1e-12)
    n = e.n
    scale = lipschitz / (n * math.sqrt(c))
    deltas = np.asarray([k * scale for k in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)])
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


def _formula_lipschitz(ast: logic.Formula, e: Ensemble, opts: logic.EvalOptions) -> float:
    """Largest gradient norm of the formula over about 12 evenly spaced ensemble members."""
    idx = range(0, e.count, max(1, e.count // 12))
    return max((tracial_norm(logic.value_and_gradient(ast, e[i], opts)[1]) for i in idx),
               default=0.0)
