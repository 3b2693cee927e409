"""Continuous-logic formulas on matrix tuples: parser, evaluator, moment extraction.

A formula is built from trace-polynomial atoms ``re tr(p)``, sup/inf
quantifiers over operator-norm balls, and a fixed library of continuous
connectives.  Syntax: adjoint is a postfix prime (``x1'``), products inside
``tr(...)`` use an explicit ``*``, quantifiers read ``sup{y:1.0} body``.

Atoms are compiled to slot words once per ``evaluate`` call, and one kernel,
``trace_pass``, evaluates every trace polynomial from such words.

Quantified values are computed by projected multistart gradient search over
the ball.  When the quantifier's body is quantifier-free, a returned sup is a
certified lower bound (and an inf an upper bound) up to the optimizer
tolerance; once quantifiers nest, the inner values are themselves
approximate and the outer value has no certified direction.  ``exp`` clamps
its argument at 700.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass, field, replace

import numpy as np

from .matcore import MatrixTuple, Seed

__all__ = [
    "NcPolynomial",
    "Formula",
    "Atom",
    "Const",
    "Arith",
    "Call",
    "Quant",
    "EvalOptions",
    "QfType",
    "compile_poly",
    "trace_pass",
    "parse",
    "print_formula",
    "evaluate",
    "qf_type",
    "qf_distance",
    "ParseError",
    "EvalError",
]

# A letter is (name, starred); a word is a tuple of letters.
Letter = tuple[str, bool]
Word = tuple[Letter, ...]
# A compiled term is (coef, slot word): letters (slot, starred), slots 0-based.
Term = tuple[complex, tuple[tuple[int, bool], ...]]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EvalError(ArithmeticError):
    pass


class NcPolynomial:
    """Element of the free unital *-algebra on named indeterminates.

    Stored as a map word -> complex coefficient.  Supports +, -, *, scalar
    multiplication and the adjoint involution; evaluation substitutes
    matrices for letters and is a *-homomorphism.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, complex] | None = None):
        self.terms: dict[Word, complex] = {}
        if terms:
            for w, c in terms.items():
                if c != 0:
                    self.terms[w] = self.terms.get(w, 0) + c
            self.terms = {w: c for w, c in self.terms.items() if c != 0}

    @classmethod
    def variable(cls, name: str, star: bool = False) -> "NcPolynomial":
        return cls({((name, star),): 1.0 + 0.0j})

    @classmethod
    def constant(cls, c: complex) -> "NcPolynomial":
        return cls({(): complex(c)})

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return NcPolynomial(out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (other * -1)

    def __mul__(self, other) -> "NcPolynomial":
        if isinstance(other, NcPolynomial):
            out: dict[Word, complex] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    out[w] = out.get(w, 0) + c1 * c2
            return NcPolynomial(out)
        return NcPolynomial({w: c * other for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "NcPolynomial":
        return self * -1

    def adjoint(self) -> "NcPolynomial":
        out: dict[Word, complex] = {}
        for w, c in self.terms.items():
            w_adj = tuple((name, not star) for (name, star) in reversed(w))
            out[w_adj] = out.get(w_adj, 0) + np.conj(c)
        return NcPolynomial(out)

    def evaluate(self, env: dict[str, np.ndarray], n: int) -> np.ndarray:
        """Substitute matrices for letters; returns the n x n matrix value."""
        out = np.zeros((n, n), dtype=np.complex128)
        eye = np.eye(n, dtype=np.complex128)
        for w, c in self.terms.items():
            acc = eye
            for name, star in w:
                mat = env[name]
                acc = acc @ (mat.conj().T if star else mat)
            out += c * acc
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, NcPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"NcPolynomial({_print_poly(self)!r})"


# ---------------------------------------------------------------------------
# Formula AST


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    poly: NcPolynomial
    take_real: bool = True  # False = plain tr(...), imaginary part must vanish


@dataclass(frozen=True)
class Const(Formula):
    value: float


@dataclass(frozen=True)
class Arith(Formula):
    op: str  # '+', '-', '*', '/', 'neg', 'pow'
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Call(Formula):
    func: str  # max, min, abs, sqrt, exp, log
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class Quant(Formula):
    kind: str  # 'sup' | 'inf'
    var: str
    radius: float
    body: Formula


@dataclass(frozen=True)
class EvalOptions:
    """Controls the quantifier optimizer; defaults match desk-scale use."""

    starts: int = 8
    iters: int = 200
    step: float | None = None  # initial step, default = quantifier radius
    tol: float = 1e-9
    seed: Seed = field(default_factory=Seed)
    max_depth: int = 2
    fd_step: float = 1e-5  # central-difference step, scaled by radius

    def __post_init__(self):
        if self.starts < 1 or self.iters < 1 or self.tol <= 0:
            raise ValueError("starts >= 1, iters >= 1, tol > 0 required")


_CALL_ARITY = {"max": 2, "min": 2, "abs": 1, "sqrt": 1, "exp": 1, "log": 1}
_VAR_RE = _re.compile(r"^x([1-9][0-9]*)$")


def quantifier_depth(f: Formula) -> int:
    if isinstance(f, Quant):
        return 1 + quantifier_depth(f.body)
    if isinstance(f, (Arith, Call)):
        return max((quantifier_depth(a) for a in f.args), default=0)
    return 0


def is_quantifier_free(f: Formula) -> bool:
    return quantifier_depth(f) == 0


# ---------------------------------------------------------------------------
# Slot words: compile step and the trace-word kernel


def _slot(name: str, bound: dict[str, int], m: int | None) -> int:
    """Slot of a letter name: its binder's slot, or j-1 for a free x_j (j <= m if m is given)."""
    if name in bound:
        return bound[name]
    mm = _VAR_RE.match(name)
    if mm is None:
        raise EvalError(f"unbound variable {name!r}")
    if m is not None and int(mm.group(1)) > m:
        raise EvalError(f"free variable {name!r} exceeds tuple length m={m}")
    return int(mm.group(1)) - 1


def compile_poly(poly: NcPolynomial, bound: dict[str, int] | None = None,
                 m: int | None = None) -> list[Term]:
    """The terms of ``poly`` as [(coef, ((slot, star), ...))], in term order.

    Names resolve lexically: ``bound`` maps the quantifier variables in scope
    to their slots, any other name must be a free ``x_j`` (slot j-1).
    """
    bound = bound or {}
    return [(coef, tuple((_slot(name, bound, m), star) for name, star in w))
            for w, coef in poly.terms.items()]


def _times(b, a):
    """b @ a, where None stands for the identity."""
    if b is None:
        return a
    if a is None:
        return b
    return b @ a


def _or_eye(mat, n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128) if mat is None else mat


def trace_pass(terms, entries, with_gradient: bool = False):
    """(sum_i coef_i tr_n(word_i), tr_n gradient of its real part or None), one pass per term.

    ``entries[j]`` is the matrix in slot j: an (m, n, n) array, or any list
    when no gradient is wanted.  prefixes[p] is the product of the first p
    letters, suffixes[p] that of the letters from p on; None stands for the
    identity, which is never multiplied.  An occurrence of x_j with prefix A
    and suffix B adds (coef B A)^* to slot j of the gradient, one of x_j^*
    adds coef B A.
    """
    n = entries[0].shape[0]
    total = 0.0
    grad = np.zeros_like(entries) if with_gradient else None
    for coef, word in terms:
        mats = [entries[j].conj().T if star else entries[j] for j, star in word]
        prefixes = [None]
        for a in mats:
            prefixes.append(_times(prefixes[-1], a))
        total += coef * np.trace(_or_eye(prefixes[-1], n)) / n
        if grad is None:
            continue
        k = len(word)
        suffixes = [None] * (k + 1)
        for i in range(k - 1, 0, -1):
            suffixes[i] = _times(mats[i], suffixes[i + 1])
        for p, (j, star) in enumerate(word):
            ba = _or_eye(_times(suffixes[p + 1], prefixes[p]), n)
            if star:
                grad[j] += coef * ba
            else:
                grad[j] += np.conj(coef) * ba.conj().T
    return total, grad


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[()+\-*/^{}:,']))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        mm = _TOKEN_RE.match(text, pos)
        if not mm:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if mm.lastgroup is None:
            break
        kind = mm.lastgroup
        tokens.append((kind, mm.group(kind), mm.start(kind)))
        pos = mm.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    # -- formula level -------------------------------------------------

    def parse_formula(self, bound: frozenset[str]) -> Formula:
        node = self.parse_product(bound)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.parse_product(bound)
            node = Arith(op, (node, rhs))
        return node

    def parse_product(self, bound: frozenset[str]) -> Formula:
        node = self.parse_unary(bound)
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rhs = self.parse_unary(bound)
            node = Arith(op, (node, rhs))
        return node

    def parse_unary(self, bound: frozenset[str]) -> Formula:
        if self.peek()[1] == "-":
            self.next()
            return Arith("neg", (self.parse_unary(bound),))
        return self.parse_power(bound)

    def parse_power(self, bound: frozenset[str]) -> Formula:
        node = self.parse_primary(bound)
        if self.peek()[1] == "^":
            self.next()
            kind, val, pos = self.next()
            neg = False
            if val == "-":
                neg = True
                kind, val, pos = self.next()
            if kind != "num" or val.endswith("i"):
                raise ParseError("exponent must be a real number literal", pos)
            expo = float(val)
            node = Arith("pow", (node, Const(-expo if neg else expo)))
        return node

    def parse_primary(self, bound: frozenset[str]) -> Formula:
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            node = self.parse_formula(bound)
            self.expect(")")
            return node
        if kind == "num":
            self.next()
            if val.endswith("i"):
                raise ParseError("imaginary literals are only allowed inside tr(...)", pos)
            return Const(float(val))
        if kind == "ident":
            if val in _CALL_ARITY:
                return self.parse_call(bound)
            if val in ("sup", "inf"):
                return self.parse_quant(bound)
            if val in ("re", "tr"):
                return self.parse_atom(bound)
            raise ParseError(f"unknown identifier {val!r} in formula", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def parse_call(self, bound: frozenset[str]) -> Formula:
        _, name, pos = self.next()
        arity = _CALL_ARITY[name]
        self.expect("(")
        args = [self.parse_formula(bound)]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.parse_formula(bound))
        self.expect(")")
        if len(args) != arity:
            raise ParseError(f"{name} takes {arity} argument(s), got {len(args)}", pos)
        return Call(name, tuple(args))

    def parse_quant(self, bound: frozenset[str]) -> Formula:
        _, kind, pos = self.next()
        self.expect("{")
        k2, var, vpos = self.next()
        if k2 != "ident":
            raise ParseError("quantifier variable name expected", vpos)
        if _VAR_RE.match(var):
            raise ParseError(f"bound variable {var!r} shadows a free-variable name", vpos)
        self.expect(":")
        k3, radius, rpos = self.next()
        neg = False
        if radius == "-":
            neg = True
            k3, radius, rpos = self.next()
        if k3 != "num" or radius.endswith("i"):
            raise ParseError("quantifier radius must be a real number", rpos)
        r = float(radius)
        if neg or r <= 0:
            raise ParseError("quantifier radius must be positive", rpos)
        self.expect("}")
        body = self.parse_formula(bound | {var})
        return Quant(kind, var, r, body)

    def parse_atom(self, bound: frozenset[str]) -> Formula:
        _, first, pos = self.next()
        take_real = False
        if first == "re":
            take_real = True
            k, val, p2 = self.next()
            if val != "tr":
                raise ParseError("'re' must be followed by 'tr'", p2)
        self.expect("(")
        poly = self.parse_poly(bound)
        self.expect(")")
        return Atom(poly, take_real)

    # -- polynomial level ------------------------------------------------

    def parse_poly(self, bound: frozenset[str]) -> NcPolynomial:
        node = self.parse_poly_term(bound)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.parse_poly_term(bound)
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_poly_term(self, bound: frozenset[str]) -> NcPolynomial:
        node = self.parse_poly_factor(bound)
        while self.peek()[1] == "*":
            self.next()
            node = node * self.parse_poly_factor(bound)
        return node

    def parse_poly_factor(self, bound: frozenset[str]) -> NcPolynomial:
        kind, val, pos = self.peek()
        if val == "-":
            self.next()
            return -self.parse_poly_factor(bound)
        if val == "(":
            self.next()
            node = self.parse_poly(bound)
            self.expect(")")
            return self._postfix(node)
        if kind == "num":
            self.next()
            if val.endswith("i"):
                return NcPolynomial.constant(1.0j * float(val[:-1]))
            return NcPolynomial.constant(float(val))
        if kind == "ident":
            self.next()
            if not _VAR_RE.match(val) and val not in bound:
                raise ParseError(f"unbound variable {val!r}", pos)
            return self._postfix(NcPolynomial.variable(val))
        raise ParseError(f"unexpected token {val!r} in polynomial", pos)

    def _postfix(self, node: NcPolynomial) -> NcPolynomial:
        while self.peek()[1] == "'":
            self.next()
            node = node.adjoint()
        return node


def parse(text: str) -> Formula:
    """Parse formula text into an AST with resolved scoping."""
    p = _Parser(text)
    node = p.parse_formula(frozenset())
    kind, val, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", pos)
    return node


# ---------------------------------------------------------------------------
# Printer (parse(print_formula(f)) == f on ASTs)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return repr(float(v))
    return repr(v)


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0:
        return _fmt_num(c.real) if c.real >= 0 else f"(0.0-{_fmt_num(-c.real)})"
    if c.real == 0:
        return f"{_fmt_num(c.imag)}i" if c.imag >= 0 else f"(0.0-{_fmt_num(-c.imag)}i)"
    im = f"+{_fmt_num(c.imag)}i" if c.imag >= 0 else f"-{_fmt_num(-c.imag)}i"
    return f"({_fmt_num(c.real)}{im})"


def _print_poly(p: NcPolynomial) -> str:
    if not p.terms:
        return "0.0"
    parts = []
    for w in sorted(p.terms, key=lambda w: (len(w), w)):
        c = p.terms[w]
        letters = "*".join(name + ("'" if star else "") for name, star in w)
        if not letters:
            parts.append(_fmt_coeff(c))
        elif c == 1:
            parts.append(letters)
        else:
            parts.append(f"{_fmt_coeff(c)}*{letters}")
    return "+".join(parts)


def print_formula(f: Formula) -> str:
    if isinstance(f, Const):
        return _fmt_num(f.value)
    if isinstance(f, Atom):
        head = "re tr" if f.take_real else "tr"
        return f"{head}({_print_poly(f.poly)})"
    if isinstance(f, Call):
        return f"{f.func}({', '.join(print_formula(a) for a in f.args)})"
    if isinstance(f, Quant):
        return f"{f.kind}{{{f.var}:{_fmt_num(f.radius)}}} ({print_formula(f.body)})"
    if isinstance(f, Arith):
        if f.op == "neg":
            return f"(-{print_formula(f.args[0])})"
        if f.op == "pow":
            base, expo = f.args
            return f"({print_formula(base)})^{_fmt_num(expo.value)}"
        return f"({print_formula(f.args[0])} {f.op} {print_formula(f.args[1])})"
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Evaluation

_IMAG_TOL = 1e-9


def evaluate(f: Formula, x: MatrixTuple, opts: EvalOptions | None = None) -> float:
    """Interpret the formula at the tuple X.

    Quantifier-free formulas are exact matrix arithmetic; each sup/inf is a
    projected multistart gradient search over the operator-norm ball, so the
    result is one-sided up to optimizer error when the quantifier's body is
    quantifier-free.  Deterministic given opts.seed.
    """
    opts = opts or EvalOptions()
    compiled, slots = _compile(f, x.m)
    if quantifier_depth(f) > opts.max_depth:
        raise EvalError(
            f"quantifier depth {quantifier_depth(f)} exceeds cap {opts.max_depth}"
        )
    env = list(x.entries) + [None] * (slots - x.m)
    val = _eval_node(compiled, env, opts)
    if not math.isfinite(val):
        raise EvalError(f"non-finite formula value {val}")
    return val


@dataclass(frozen=True)
class _SlotAtom(Formula):
    terms: tuple[Term, ...]
    take_real: bool


@dataclass(frozen=True)
class _SlotQuant(Formula):
    sign: float  # +1 for sup, -1 for inf
    radius: float
    slot: int
    qid: int  # pre-order quantifier number: a fixed RNG stream per quantifier
    body: Formula


def _compile(f: Formula, m: int) -> tuple[Formula, int]:
    """f with atoms compiled to slot words and quantifiers numbered, and the slot count.

    Each quantifier's variable gets its own slot after the m free ones; names
    resolve lexically, so an inner binder of a name shadows the outer one.
    """
    qids = 0

    def walk(node: Formula, bound: dict[str, int]) -> Formula:
        nonlocal qids
        if isinstance(node, Atom):
            return _SlotAtom(tuple(compile_poly(node.poly, bound, m)), node.take_real)
        if isinstance(node, (Arith, Call)):
            return replace(node, args=tuple(walk(a, bound) for a in node.args))
        if isinstance(node, Quant):
            qid, qids = qids, qids + 1
            body = walk(node.body, {**bound, node.var: m + qid})
            return _SlotQuant(1.0 if node.kind == "sup" else -1.0, node.radius, m + qid,
                              qid, body)
        return node

    compiled = walk(f, {})
    return compiled, m + qids


def _eval_node(f, env, opts) -> float:
    if isinstance(f, Const):
        return f.value
    if isinstance(f, _SlotAtom):
        val = trace_pass(f.terms, env)[0]
        if f.take_real:
            return float(val.real)
        scale = max(1.0, abs(val))
        if abs(val.imag) > _IMAG_TOL * scale:
            raise EvalError(f"tr(...) has non-real value {val}; use re tr(...)")
        return float(val.real)
    if isinstance(f, Arith):
        if f.op == "neg":
            return -_eval_node(f.args[0], env, opts)
        a = _eval_node(f.args[0], env, opts)
        if f.op == "pow":
            expo = f.args[1].value
            if a < 0 and expo != int(expo):
                raise EvalError(f"fractional power of negative value {a}")
            return float(a**expo)
        b = _eval_node(f.args[1], env, opts)
        if f.op == "+":
            return a + b
        if f.op == "-":
            return a - b
        if f.op == "*":
            return a * b
        if f.op == "/":
            if b == 0:
                raise EvalError("division by zero in connective")
            return a / b
        raise EvalError(f"unknown operator {f.op}")
    if isinstance(f, Call):
        vals = [_eval_node(a, env, opts) for a in f.args]
        if f.func == "max":
            return max(vals)
        if f.func == "min":
            return min(vals)
        if f.func == "abs":
            return abs(vals[0])
        if f.func == "sqrt":
            if vals[0] < 0:
                raise EvalError(f"sqrt of negative value {vals[0]}")
            return math.sqrt(vals[0])
        if f.func == "exp":
            return math.exp(min(vals[0], 700.0))
        if f.func == "log":
            if vals[0] <= 0:
                raise EvalError(f"log of non-positive value {vals[0]}")
            return math.log(vals[0])
        raise EvalError(f"unknown connective {f.func}")
    if isinstance(f, _SlotQuant):
        return _eval_quant(f, env, opts)
    raise TypeError(f"not a formula node: {f!r}")


def _project_ball(y: np.ndarray, radius: float) -> np.ndarray:
    """Singular-value truncation onto the operator-norm ball of given radius."""
    u, s, vh = np.linalg.svd(y)
    if s.size and s[0] <= radius:
        return y
    return (u * np.minimum(s, radius)) @ vh


def _eval_quant(f: _SlotQuant, env: list, opts: EvalOptions) -> float:
    sign = f.sign
    radius = f.radius
    n = env[0].shape[0]
    rng = opts.seed.derive(f.qid).rng()

    def objective(y: np.ndarray) -> float:
        env[f.slot] = y
        return sign * _eval_node(f.body, env, opts)

    starts = [np.zeros((n, n), dtype=np.complex128), radius * np.eye(n, dtype=np.complex128)]
    while len(starts) < opts.starts:
        g = (rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
        starts.append(_project_ball(radius * g, radius))
    starts = starts[: opts.starts]

    best = -math.inf
    for y0 in starts:
        val = _ascend(objective, y0, radius, opts)
        best = max(best, val)
    return sign * best


def _fd_gradient(objective, y: np.ndarray, h: float) -> np.ndarray:
    """Entrywise central differences; gradient as a complex matrix direction."""
    n = y.shape[0]
    g = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            for unit in (1.0, 1.0j):
                yp = y.copy()
                yp[a, b] += h * unit
                ym = y.copy()
                ym[a, b] -= h * unit
                d = (objective(yp) - objective(ym)) / (2 * h)
                g[a, b] += d * unit
    return g


def _ascend(objective, y0: np.ndarray, radius: float, opts: EvalOptions) -> float:
    """Projected gradient ascent with multiplicative line search on step size."""
    y = _project_ball(y0, radius)
    fy = objective(y)
    step = opts.step if opts.step is not None else radius
    min_step = max(opts.tol * radius, 1e-14)
    h = opts.fd_step * radius
    for _ in range(opts.iters):
        g = _fd_gradient(objective, y, h)
        gnorm = np.linalg.norm(g)
        if gnorm < 1e-14:
            break
        direction = g / gnorm
        improved = False
        while step >= min_step:
            y_new = _project_ball(y + step * direction, radius)
            f_new = objective(y_new)
            if f_new > fy + 1e-15:
                y, fy = y_new, f_new
                step *= 1.3
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return fy


# ---------------------------------------------------------------------------
# Quantifier-free types (moment maps)


@dataclass(frozen=True)
class QfType:
    """All *-monomial moments of a tuple up to a degree bound."""

    m: int
    degree: int
    moments: dict[Word, complex] = field(repr=False)

    def moment(self, word: Word) -> complex:
        return self.moments[word]

    def words(self) -> list[Word]:
        return sorted(self.moments, key=lambda w: (len(w), w))


def _all_words(m: int, degree: int) -> list[Word]:
    letters: list[Letter] = [(f"x{j + 1}", star) for j in range(m) for star in (False, True)]
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(degree):
        frontier = [w + (l,) for w in frontier for l in letters]
        words.extend(frontier)
    return words


def qf_type(x: MatrixTuple, max_degree: int) -> QfType:
    """moment(w) = tr_n(w(X)) for every word of length <= max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    env = {f"x{j + 1}": x.entries[j] for j in range(x.m)}
    half = (max_degree + 1) // 2
    # cache products for words up to half the degree; pair with tr(AB) contraction
    prod: dict[Word, np.ndarray] = {(): np.eye(x.n, dtype=np.complex128)}
    for w in _all_words(x.m, half):
        if w and w not in prod:
            name, star = w[-1]
            mat = env[name]
            prod[w] = prod[w[:-1]] @ (mat.conj().T if star else mat)
    moments: dict[Word, complex] = {}
    for w in _all_words(x.m, max_degree):
        k = len(w) // 2
        a, b = prod[w[:k]], prod[w[k:]]
        moments[w] = complex(np.einsum("ab,ba->", a, b) / x.n)
    return QfType(x.m, max_degree, moments)


def qf_distance(a: QfType, b: QfType, weights=None) -> float:
    """Weighted sup of |moment differences|; a metric at fixed degree.

    ``weights`` maps word length to a positive weight (default all 1).
    """
    if a.degree != b.degree or a.m != b.m:
        raise ValueError("qf_distance requires matching degree and tuple length")
    if weights is None:
        weights = {}
    best = 0.0
    for w, mom in a.moments.items():
        wt = float(weights.get(len(w), 1.0)) if isinstance(weights, dict) else float(weights(len(w)))
        best = max(best, wt * abs(mom - b.moments[w]))
    return best
