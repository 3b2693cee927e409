"""Continuous-logic formulas on matrix tuples: parser, evaluator, moment extraction.

A formula is built from trace-polynomial atoms ``re tr(p)``, sup/inf
quantifiers over operator-norm balls, and a fixed library of continuous
connectives.  Syntax: adjoint is a postfix prime (``x1'``), products inside
``tr(...)`` use an explicit ``*``, quantifiers read ``sup{y:1.0} body``.

Atoms are compiled to slot words once per ``evaluate`` call, and one kernel,
``trace_pass``, evaluates every trace polynomial from such words, following
a plan it builds once per set of words: duplicate words merged, each
distinct matrix product built once, adjoints read as conjugate transposes
and values as O(n^2) contractions.  Each plan is written out once as
straight-line numpy code and compiled (``_emit``), so no call interprets
it; ``bind_trace`` binds a plan's kernel to one coefficient set, and
``qf_type`` reads every word's moment from code emitted from the same
plans.

Quantified values are computed by projected multistart gradient search over
the ball (one start when the body is certified concave in the quantified
variable, convex for inf, by the composition rules of ``_curvature``), with
the analytic gradient (cyclic derivative plus envelope rule):
one pass over the compiled formula gives a node's value and its gradient,
atoms through kernels bound once per atom and gradient slots for the call
(``bind_trace``), connectives by the chain rule (fixed one-sided
choices at kinks), and a nested sup/inf through the gradient of its body at
its best point (Danskin's envelope rule).  Each ascent ends on a
projected-gradient certificate, checked before a line-search trial is
evaluated.  When the quantifier's body is quantifier-free, a returned sup is
a certified lower bound (and an inf an upper bound) up to the optimizer
tolerance; once quantifiers nest, the inner values are themselves
approximate and the outer value has no certified direction.  ``exp`` clamps
its argument at 700.
"""

from __future__ import annotations

import functools
import math
import re as _re
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

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
    "bind_trace",
    "trace_pass",
    "parse",
    "print_formula",
    "evaluate",
    "value_and_gradient",
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
    """Controls the quantifier optimizer; defaults match desk-scale use.

    ``starts`` counts the ascents of each uncertified quantifier: one whose
    body the composition rules of ``_curvature`` do not certify concave in
    its variable (convex for ``inf``).  A certified quantifier runs one
    ascent, from the zero start, whatever ``starts`` is.
    """

    starts: int = 8
    iters: int = 200
    step: float | None = None  # initial step, default = quantifier radius
    tol: float = 1e-9
    seed: Seed = field(default_factory=Seed)
    max_depth: int = 2

    def __post_init__(self):
        if self.starts < 1 or self.iters < 1:
            raise ValueError("starts >= 1, iters >= 1 required")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.step is not None and not 0 < self.step < math.inf:
            raise ValueError(f"step must be None or finite and > 0, got {self.step}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")


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


def _adjoint(word):
    """The slot word of w^*: letters reversed, stars flipped."""
    return tuple((j, not star) for j, star in reversed(word))


class _TracePlan(NamedTuple):
    """How ``trace_pass`` evaluates one tuple of slot words; see ``_trace_plan``."""

    merge: tuple[int, ...]  # term i adds its coefficient to distinct word merge[i]
    slots: tuple[int, ...]  # mats[k] = entries[slots[k]] for k < len(slots)
    steps: tuple  # (a, b, into): mats[a] @ mats[b] (mats[a]^H if b is None), in mats[into]'s array
    reads: tuple[tuple[int, bool, int, int], ...]  # (form, conj, a, b) per distinct word
    grads: tuple | None  # per gradient slot: ((a, adjoint, coefs, in_place), ...), identity coefs
    source: str  # the code ``_emit`` compiled from the five fields above
    kernel: Callable  # kernel(coefs, sums, entries) -> (value, gradient or None)
    traces: Callable  # traces(entries) -> Tr of each distinct word, in the order of reads


@functools.lru_cache(maxsize=256)
def _trace_plan(words: tuple, grad_slots: tuple | None) -> _TracePlan:
    """The products ``trace_pass`` builds for these slot words and how it reads them.

    Identical words merge.  A word's value tr(w) = tr(P a) needs the product
    of its prefix P = w[:-1], and its gradient the product of the cyclic
    remainder of each letter in a gradient slot; the last letter's remainder
    is P itself, so the value needs no product the gradient lacks.  A matrix
    is built once, as the product of a built prefix and a letter, and a word
    whose adjoint is built is read as that product's conjugate transpose.
    Longer words are built first, so that shorter ones find their prefixes.

    A read (form, conj, a, b) is tr of mats[a] (form 1), np.vdot(mats[a],
    mats[b]) = tr(mats[a]^H mats[b]) (form 2), tr(mats[a] mats[b]) (form 3)
    or 1 (form 0), conjugated if ``conj``.  The gradient in a slot is the sum
    over its (matrix, adjoint) groups of the group's summed coefficients
    times the matrix or its adjoint, plus its identity coefficients on the
    diagonal; a coefficient is (word, conj).  The plan carries its code:
    ``_emit`` writes these fields out once as the plan's ``kernel`` and
    ``traces``.
    """
    index: dict = {}
    merge = tuple(index.setdefault(w, len(index)) for w in words)
    slots = tuple(sorted({j for w in index for j, _ in w}))
    table = {((j, False),): k for k, j in enumerate(slots)}  # word -> index in mats
    steps: list = []

    def build(w) -> int:
        if w not in table:
            if len(w) == 1:  # a starred letter as a matmul operand
                steps.append((table[_adjoint(w)], None))
            else:
                steps.append((build(w[:-1]), build(w[-1:])))
            table[w] = len(slots) + len(steps) - 1
        return table[w]

    def prefix_len(w) -> int:  # length of the longest prefix of w already built
        k = len(w)
        while k > 1 and w[:k] not in table:
            k -= 1
        return k

    def ref(w, lean=False) -> tuple[int, bool]:  # (a, adjoint): w(X) = mats[a] or its adjoint
        if len(w) == 1:
            return table[((w[0][0], False),)], w[0][1]
        adj = _adjoint(w)
        if w in table or adj in table:
            return (table[w], False) if w in table else (table[adj], True)
        if prefix_len(adj) - prefix_len(w) + lean > 0:  # ties go to ``lean``
            return build(adj), True
        return build(w), False

    # values first, and read as chosen here, so that their bits do not depend on
    # grad_slots: a gradient may later build the other orientation of a prefix;
    # a prefix leans to the orientation the last letter's gradient reads directly
    prefix_refs = {w: ref(w[:-1], not w[-1][1]) for w in sorted(
        dict.fromkeys(w for w in index if len(w) > 1), key=len, reverse=True)}
    # gradient: the letter at p of coef * w contributes coef M(r) with
    # r = w[p+1:] + w[:p] when starred, conj(coef) M(r)^H = conj(coef) M(r^*) when not
    contribs = []
    if grad_slots is not None:
        pos = {j: s for s, j in enumerate(grad_slots)}
        for u, w in enumerate(index):
            for p, (j, star) in enumerate(w):
                if j in pos:
                    r = w[p + 1:] + w[:p]
                    contribs.append((pos[j], r if star else _adjoint(r), (u, not star)))
    for g in sorted(dict.fromkeys(g for _, g, _ in contribs if g), key=len, reverse=True):
        ref(g)

    reads = []
    for w in index:
        if not w:
            reads.append((0, False, 0, 0))
            continue
        if len(w) == 1:
            a, star = ref(w)
            reads.append((1, star, a, 0))
            continue
        (a, p_adj), (b, last_adj) = prefix_refs[w], ref(w[-1:])
        if p_adj == last_adj:  # tr(P a) or tr(P^H a^H) = conj tr(a P)
            reads.append((3, p_adj, a, b))
        else:  # tr(P^H a) = vdot(P, a), tr(P a^H) = vdot(a, P)
            reads.append((2, False, b, a) if last_adj else (2, False, a, b))

    groups: list = [{} for _ in grad_slots or ()]
    eyes: list = [[] for _ in grad_slots or ()]
    for s, g, coef in contribs:
        (groups[s].setdefault(ref(g), []) if g else eyes[s]).append(coef)
    # a product that no later group reads is scaled in place: no temporary
    last_group = {a: (s, k) for s, gr in enumerate(groups) for k, (a, _) in enumerate(gr)}
    grads = None if grad_slots is None else tuple(
        (tuple((a, adj, tuple(cs), a >= len(slots) and last_group[a] == (s, k))
               for k, ((a, adj), cs) in enumerate(gr.items())), tuple(eye))
        for s, (gr, eye) in enumerate(zip(groups, eyes)))

    # a step writes into the array of a product or conjugated letter that no
    # later step, read or gradient needs: fewer fresh arrays, fewer page faults
    kept = {k for read in reads for k in read[2:]} | {a for gr in groups for a, _ in gr}
    last_step = {k: t for t, step in enumerate(steps) for k in step}
    free: list = []
    for t, (a, b) in enumerate(steps):
        steps[t] = (a, b, free.pop() if free else None)
        free += [k for k in dict.fromkeys((a, b)) if k is not None and k >= len(slots)
                 and last_step[k] == t and k not in kept]
    steps, reads = tuple(steps), tuple(reads)
    return _TracePlan(merge, slots, steps, reads, grads, *_emit(slots, steps, reads, grads))


def _emit(slots, steps, reads, grads):
    """(source, kernel, traces): a plan's slots, steps, reads and gradient groups
    written out as straight-line numpy code, compiled once.

    ``kernel(coefs, sums, entries)`` builds the products of ``steps`` (mats[k]
    is the local ``m<k>``), reads each distinct word and sums coefs[u] tr / n
    over them in read order; with gradient slots it then writes each slot's
    gradient, per group the summed coefficient times the product or its
    adjoint (in place into a product no later group reads), plus the
    identity coefficient on the diagonal.  ``traces(entries)`` builds the
    same products and returns the reads.  Every index, read form, flag and
    output array is a literal of the source; the merged coefficients and
    ``sums``, the gradient groups' summed coefficients in slot and group
    order with each slot's identity coefficient last, are arguments, so one
    kernel serves every coefficient set of its plan.  A conjugated letter is
    the transpose of a C-ordered array, so a step that reuses its array
    writes into that transpose.
    """
    body = [f"m{k} = entries[{j}]" for k, j in enumerate(slots)]
    conjugated = set()  # mats that are the transpose of their array
    for k, (a, b, into) in enumerate(steps, len(slots)):
        if into is None:  # a fresh array: no out= keyword for numpy to parse
            rhs = f"np.conjugate(m{a}).T" if b is None else f"m{a} @ m{b}"
        else:
            out = f"m{into}.T" if into in conjugated else f"m{into}"
            rhs = (f"np.conjugate(m{a}, out={out}).T" if b is None
                   else f"np.matmul(m{a}, m{b}, out={out})")
        if b is None:
            conjugated.add(k)
        body.append(f"m{k} = {rhs}")
    body.append("n = m0.shape[0]" if slots else "n = entries[0].shape[0]")

    trs = []
    for form, conj, a, b in reads:
        if form == 2:  # the common form, and never conjugated
            trs.append(f"np.vdot(m{a}, m{b})")
            continue
        if form == 1:  # the reduction ndarray.trace runs, without its wrapper
            tr = f"np.add.reduce(m{a}.diagonal())"
        elif form == 3:
            tr = f'np.einsum("ij,ji->", m{a}, m{b})'
        else:
            tr = "n"
        trs.append(f"{tr}.conjugate()" if conj else tr)

    tail = ["value = 0.0"] + [f"value += coefs[{u}] * {tr} / n" for u, tr in enumerate(trs)]
    if grads is None:
        tail.append("return value, None")
    else:
        tail.append(f"grad = np.empty(({len(grads)}, n, n), dtype=np.complex128)")
        i = 0  # the next index into sums
        for s, (groups, eye) in enumerate(grads):
            tail.append(f"g = grad[{s}]")
            if not groups:
                tail.append("g.fill(0)")
            for k, (a, adj, _, in_place) in enumerate(groups):
                mat, coef = f"m{a}.T" if adj else f"m{a}", f"sums[{i}]"
                i += 1
                if k == 0:  # the first group writes the slot's array
                    tail.append(f"np.conjugate(np.multiply({mat}, {coef}, out=g), out=g)"
                                if adj else f"np.multiply({mat}, {coef}, out=g)")
                elif adj:
                    tail += ([f"part = {mat}", f"np.multiply(part, {coef}, out=part)"]
                             if in_place else [f"part = np.multiply({mat}, {coef})"])
                    tail += ["np.conjugate(part, out=part)", "g += part"]
                else:
                    tail.append(f"g += np.multiply({mat}, {coef}, out={mat})"
                                if in_place else f"g += np.multiply({mat}, {coef})")
            if eye:
                tail += ["diag = g.reshape(-1)[::n + 1]", f"diag += sums[{i}]"]
                i += 1
        tail.append("return value, grad")

    indent = "\n    "
    source = (f"def kernel(coefs, sums, entries):{indent}{indent.join(body + tail)}\n\n\n"
              f"def traces(entries):{indent}{indent.join(body)}{indent}"
              f"return [{', '.join(trs)}]\n")
    namespace = {"np": np}
    exec(compile(source, "<trace plan>", "exec"), namespace)
    return source, namespace["kernel"], namespace["traces"]


def _sum_coefs(coefs, spec):
    total = 0j
    for u, conj in spec:
        total += coefs[u].conjugate() if conj else coefs[u]
    return total


def _bind(terms, grad_slots):
    """(plan, merged coefficient per distinct word, summed gradient coefficients or None).

    The sums hold, per gradient slot, each of its groups' summed
    coefficients, then its identity coefficient if it has one: the order in
    which the plan's kernel reads them.  A group's sum is conjugated for an
    adjoint group, since coef M^H = conj(conj(coef) M^T) needs no conjugate
    copy of the product.
    """
    plan = _trace_plan(tuple([w for _, w in terms]),
                       None if grad_slots is None else tuple(grad_slots))
    coefs = [0j] * len(plan.reads)
    for (coef, _), u in zip(terms, plan.merge):
        coefs[u] += coef
    if plan.grads is None:
        return plan, coefs, None
    sums = []
    for groups, eye in plan.grads:
        for _, adj, spec, _ in groups:
            coef = _sum_coefs(coefs, spec)
            # a numpy scalar: the exact value np.multiply would convert it to
            sums.append(np.complex128(coef.conjugate() if adj else coef))
        if eye:
            sums.append(np.complex128(_sum_coefs(coefs, eye)))
    return plan, coefs, sums


def bind_trace(terms, grad_slots=None):
    """``trace_pass(terms, ., grad_slots)`` as a function of ``entries`` alone.

    The plan lookup, the merged coefficients of duplicate words and the
    coefficient sum of every gradient group are done here, once: the result
    is the plan's compiled kernel with them bound, so each call runs only
    the matrix work, the same floating-point operations as ``trace_pass``.
    """
    plan, coefs, sums = _bind(terms, grad_slots)
    return functools.partial(plan.kernel, coefs, sums)


def trace_pass(terms, entries, grad_slots=None):
    """(sum_i coef_i tr_n(word_i), tr_n gradient of its real part or None).

    ``entries[j]`` is the matrix in slot j, an (m, n, n) array or a list;
    only the slots that occur in the words are read.  The gradient is taken
    with respect to the slots in ``grad_slots``, stacked in that order as a
    (len(grad_slots), n, n) array; letters in other slots, and words with
    none of these slots, add nothing to it.  An occurrence of x_j with
    cyclic remainder r (the letters after it, then those before it) adds
    (coef r)^* to slot j of the gradient, one of x_j^* adds coef r.

    The work follows the plan ``_trace_plan`` compiles once per (words,
    grad_slots), whatever the coefficients: identical words merge, each
    distinct product is one matmul, adjoints are read as conjugate
    transposes, each value is an O(n^2) contraction of a product the
    gradient also uses with the word's last letter, and gradient
    contributions are summed per (slot, product) before they are scaled.
    The plan is written out once as straight-line numpy code (``_emit``),
    so a call interprets nothing of it.  A caller that evaluates the same
    terms many times binds them once with ``bind_trace``.
    """
    plan, coefs, sums = _bind(terms, grad_slots)
    return plan.kernel(coefs, sums, entries)


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
    projected multistart gradient search over the operator-norm ball, driven
    by the analytic gradient (cyclic derivative plus envelope rule), so the
    result is one-sided up to optimizer error when the quantifier's body is
    quantifier-free.  A quantifier whose body the composition rules certify
    concave in its variable (convex for inf; affine for either, see
    ``_curvature``) has no local optimum but the global one and runs one
    ascent, from zero; any other runs opts.starts.  Each ascent stops before
    a line-search trial whose first-order gain is at most the acceptance
    margin of 1e-15, which for a concave body no trial could beat (see
    ``_ascend``), or when its step falls below opts.tol times the radius.
    Deterministic given opts.seed.
    """
    return _evaluate(f, x, opts, None)[0]


def value_and_gradient(f: Formula, x: MatrixTuple,
                       opts: EvalOptions | None = None) -> tuple[float, MatrixTuple]:
    """The value of ``evaluate`` and its tr_n gradient with respect to x1 ... xm.

    Analytic gradient (cyclic derivative plus envelope rule): atoms take the
    cyclic derivative, connectives the chain rule (kinks get the fixed
    one-sided choices listed at ``_connective``), and a sup/inf the gradient
    of its body at the best point its search found.
    """
    val, grad = _evaluate(f, x, opts, range(x.m))
    if not np.all(np.isfinite(grad)):
        raise EvalError("non-finite formula gradient")
    return val, MatrixTuple(grad)


def _evaluate(f: Formula, x: MatrixTuple, opts: EvalOptions | None, slots):
    opts = opts or EvalOptions()
    compiled, nslots = _compile(f, x.m)
    if quantifier_depth(f) > opts.max_depth:
        raise EvalError(
            f"quantifier depth {quantifier_depth(f)} exceeds cap {opts.max_depth}"
        )
    env = list(x.entries) + [None] * (nslots - x.m)
    val, grad = _eval_node(compiled, env, opts, slots)
    if not math.isfinite(val):
        raise EvalError(f"non-finite formula value {val}")
    return val, grad


@dataclass(frozen=True)
class _SlotAtom(Formula):
    terms: tuple[Term, ...]
    take_real: bool
    # gradient slots -> bind_trace(terms, slots), bound on first use; the tree
    # that ``_compile`` builds lives for one call, and so do its kernels
    kernels: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class _SlotQuant(Formula):
    sign: float  # +1 for sup, -1 for inf
    radius: float
    slot: int
    qid: int  # pre-order quantifier number: a fixed RNG stream per quantifier
    body: Formula
    certified: bool  # every local optimum of the body over the ball is the global one


_FLIP = {"convex": "concave", "concave": "convex"}


def _sum_curvature(parts) -> str | None:
    """The curvature of a sum of terms with these curvatures."""
    parts = set(parts)
    curved = parts - {"constant", "affine"}
    if None in parts or len(curved) > 1:
        return None
    return curved.pop() if curved else "affine" if "affine" in parts else "constant"


def _atom_curvature(terms, slot: int) -> str | None:
    """Each word with at most one letter of the slot is affine in it, and a real
    multiple of y'*y or y*y' (whose real part is that multiple of |y|^2_tr)
    convex or concave by its sign; any other word is uncertified."""
    parts = []
    for coef, word in terms:
        k = sum(j == slot for j, _ in word)
        if k <= 1:
            parts.append(("constant", "affine")[k])
        elif len(word) == 2 and word[0][1] != word[1][1] and coef.imag == 0:
            parts.append("convex" if coef.real > 0 else "concave")
        else:
            return None
    return _sum_curvature(parts)


def _curvature(f: Formula, slot: int) -> str | None:
    """'constant', 'affine', 'convex' or 'concave': what the composition rules of
    disciplined convex programming (Grant, Boyd and Ye 2006) certify of a
    compiled node as a function of the matrix in ``slot``; None certifies nothing.

    A node in which the slot does not occur is constant.  Sums and negations
    combine curvatures, as do products with a Const and quotients by one (a
    negative Const flips convex and concave).  Every other connective of the
    slot, and a quantifier whose body holds it, is uncertified: min and max
    among them, whose kinks an ascent from one start can stall on.
    """
    if isinstance(f, Const):
        return "constant"
    if isinstance(f, _SlotAtom):
        return _atom_curvature(f.terms, slot)
    if isinstance(f, _SlotQuant):
        return "constant" if _curvature(f.body, slot) == "constant" else None
    parts = [_curvature(a, slot) for a in f.args]
    if all(p == "constant" for p in parts):
        return "constant"
    if isinstance(f, Call):
        return None
    if f.op == "neg":
        return _FLIP.get(parts[0], parts[0])
    if f.op in ("+", "-"):
        a, b = parts
        return _sum_curvature((a, _FLIP.get(b, b) if f.op == "-" else b))
    if f.op in ("*", "/"):
        k = 1 if isinstance(f.args[1], Const) else 0  # the Const factor, or the divisor
        if not isinstance(f.args[k], Const) or (f.op == "/" and k == 0):
            return None
        other = parts[1 - k]
        return _FLIP.get(other, other) if f.args[k].value < 0 else other
    return None  # pow


def _compile(f: Formula, m: int) -> tuple[Formula, int]:
    """f with atoms compiled to slot words and quantifiers numbered, and the slot count.

    Each quantifier's variable gets its own slot after the m free ones; names
    resolve lexically, so an inner binder of a name shadows the outer one.
    Each quantifier records whether its body is certified concave in its slot
    (convex for inf, affine for either; see ``_curvature``).
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
            certified = ("constant", "affine", "concave" if node.kind == "sup" else "convex")
            return _SlotQuant(1.0 if node.kind == "sup" else -1.0, node.radius, m + qid,
                              qid, body, _curvature(body, m + qid) in certified)
        return node

    compiled = walk(f, {})
    return compiled, m + qids


def _zero_gradient(env, slots):
    return None if slots is None else np.zeros((len(slots),) + env[0].shape,
                                               dtype=np.complex128)


def _eval_node(f, env, opts, slots=None):
    """(value, tr_n gradient) of a compiled node at the slot environment ``env``.

    The gradient is taken with respect to the slots in ``slots`` and stacked
    as a (len(slots), n, n) array; it is None when ``slots`` is None.  Atoms
    take the cyclic derivative from their ``bind_trace`` kernel for these
    slots, bound on the atom's first visit, connectives the chain rule, and
    quantifiers the envelope rule (see ``_eval_quant``).
    """
    if isinstance(f, Const):
        return f.value, _zero_gradient(env, slots)
    if isinstance(f, _SlotAtom):
        kernel = f.kernels.get(slots)
        if kernel is None:
            kernel = f.kernels[slots] = bind_trace(f.terms, slots)
        val, grad = kernel(env)
        if not f.take_real:
            scale = max(1.0, abs(val))
            if abs(val.imag) > _IMAG_TOL * scale:
                raise EvalError(f"tr(...) has non-real value {val}; use re tr(...)")
        return float(val.real), grad
    if isinstance(f, _SlotQuant):
        return _eval_quant(f, env, opts, slots)
    if isinstance(f, (Arith, Call)):
        args = [_eval_node(a, env, opts, slots) for a in f.args]
        value, partials = _connective(f, [a for a, _ in args])
        if slots is None:
            return value, None
        grad = _zero_gradient(env, slots)
        for k, (_, g) in zip(partials, args):
            if k != 0:
                grad += k * g
        return value, grad
    raise TypeError(f"not a formula node: {f!r}")


def _connective(f, vals: list[float]) -> tuple[float, tuple[float, ...]]:
    """Value of an Arith or Call node from its argument values, and its partial derivatives.

    Where a connective has no derivative the partials take a fixed one-sided
    value: a tie in max or min follows the first argument, the one the value
    is taken from; abs at 0 takes its right derivative 1; exp at or above
    its clamp at 700 has slope 0; sqrt at 0, and pow at 0 with an exponent
    below 1, whose right derivatives are infinite, take 0.
    """
    if isinstance(f, Arith):
        if f.op == "neg":
            return -vals[0], (-1.0,)
        a, b = vals
        if f.op == "pow":
            if a < 0 and b != int(b):
                raise EvalError(f"fractional power of negative value {a}")
            try:
                value = float(a**b)
            except (ZeroDivisionError, OverflowError):
                raise EvalError(f"pow({a!r}, {b!r}) has no finite value") from None
            if a != 0:
                return value, (b * value / a, 0.0)
            return value, (1.0 if b == 1 else 0.0, 0.0)
        if f.op == "+":
            return a + b, (1.0, 1.0)
        if f.op == "-":
            return a - b, (1.0, -1.0)
        if f.op == "*":
            return a * b, (b, a)
        if f.op == "/":
            if b == 0:
                raise EvalError("division by zero in connective")
            return a / b, (1.0 / b, -(a / b) / b)
        raise EvalError(f"unknown operator {f.op}")
    if f.func in ("max", "min"):
        a, b = vals
        first = not (b > a if f.func == "max" else b < a)
        return (a, (1.0, 0.0)) if first else (b, (0.0, 1.0))
    (a,) = vals
    if f.func == "abs":
        return abs(a), (1.0 if a >= 0 else -1.0,)
    if f.func == "sqrt":
        if a < 0:
            raise EvalError(f"sqrt of negative value {a}")
        value = math.sqrt(a)
        return value, (0.5 / value if value > 0 else 0.0,)
    if f.func == "exp":
        value = math.exp(min(a, 700.0))
        return value, (value if a < 700.0 else 0.0,)
    if f.func == "log":
        if a <= 0:
            raise EvalError(f"log of non-positive value {a}")
        return math.log(a), (1.0 / a,)
    raise EvalError(f"unknown connective {f.func}")


def _project_ball(y: np.ndarray, radius: float) -> np.ndarray:
    """Singular-value truncation of one matrix, or of each in a (k, n, n) stack, onto its
    operator-norm ball; a matrix already inside its ball comes back bit-unchanged."""
    if np.vdot(y, y).real <= radius * radius:  # the Frobenius norm bounds every operator norm
        return y
    u, s, vh = np.linalg.svd(y)
    tops = s[..., :1].ravel().tolist()  # each matrix's operator norm
    if max(tops) <= radius:
        return y
    out = (u * np.minimum(s, radius)[..., None, :]) @ vh
    if min(tops) <= radius:  # a stack with some matrices inside their balls
        out = np.where(s[..., :1, None] <= radius, y, out)
    return out


def _eval_quant(f: _SlotQuant, env: list, opts: EvalOptions, slots=None):
    """(value, gradient) of a sup/inf node: the best of projected ascents from several starts.

    A certified node (``_SlotQuant.certified``, see ``_compile``) runs one ascent, from the
    zero start, and draws nothing from its RNG; any other runs
    ``opts.starts``: zero, radius times the identity, then random points of
    the ball from the node's own stream.

    Envelope (Danskin) rule: the gradient with respect to ``slots`` is the
    body's gradient at the best point found, with the quantified slot held
    there.  Each ascent point costs one evaluation of the body: ``value``
    takes the body's gradient in the quantified slot along with its value and
    keeps it, and ``gradient`` returns the kept array.  A body value does not
    depend on which slots it is differentiated in, so the bits are those of a
    value-only evaluation.  ``gradient`` raises if handed any array but the
    one of the latest ``value`` call, which ``_ascend`` never does.
    """
    sign = f.sign
    radius = f.radius
    n = env[0].shape[0]
    latest = [None, None]  # the latest value point and the body's gradient there

    def value(y: np.ndarray) -> float:
        env[f.slot] = y
        val, grad = _eval_node(f.body, env, opts, (f.slot,))
        latest[:] = y, grad[0]
        return sign * val

    def gradient(y: np.ndarray) -> np.ndarray:
        if y is not latest[0]:
            raise RuntimeError("a quantifier's gradient is only kept at its latest value point")
        return sign * latest[1]

    starts = [np.zeros((n, n), dtype=np.complex128)]
    if not f.certified:
        starts.append(radius * np.eye(n, dtype=np.complex128))
        rng = opts.seed.derive(f.qid).rng()
        while len(starts) < opts.starts:
            g = (rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
            starts.append(_project_ball(radius * g, radius))
        starts = starts[: opts.starts]

    best, best_y = -math.inf, starts[0]
    for y0 in starts:
        val, y = _ascend(value, gradient, y0, radius, opts)
        if val > best:
            best, best_y = val, y
    if slots is None:
        return sign * best, None
    env[f.slot] = best_y
    return sign * best, _eval_node(f.body, env, opts, slots)[1]


# A line-search trial must raise the value by more than this to be accepted.
_GAIN_MARGIN = 1e-15


def _ascend(value, gradient, y0: np.ndarray, radius: float, opts: EvalOptions):
    """Projected gradient ascent with multiplicative line search on step size.

    ``y0`` is one matrix or a (k, n, n) stack, each matrix held in its own
    ball.  Returns the last accepted (value, point).  A trial point is
    accepted when it raises the value by more than ``_GAIN_MARGIN``; the step
    then grows by 1.3, and it halves after a rejected trial.

    The ascent ends on a projected-gradient certificate: before a trial
    y+ = P(y + s g/|g|) is evaluated (P the projection onto the balls, s the
    step), its first-order gain re tr_n(g^* (y+ - y)) is compared with
    ``_GAIN_MARGIN``, and at or below it the ascent stops at y without
    calling ``value``.  That costs one projection.  For a concave value the
    first-order gain bounds what the trial can gain, and it only shrinks
    with the step, so no later trial could have been accepted either; like
    the acceptance test, it compares a gain in the value's own units with
    the margin.  The backstops are ``opts.iters`` accepted steps and a step
    halved below max(opts.tol * radius, 1e-14), which is how an ascent at a
    kink of its value ends.  A gradient norm below 1e-14 n or not finite
    also ends it.

    ``gradient`` is the tr_n gradient, n times the entrywise one.  It is
    only called with the very array passed to the latest ``value`` call, so
    a caller may compute the gradient inside ``value`` and hand it back (as
    quantifiers do) or keep what ``value`` computed towards it (as the
    envelope potential does).
    """
    y = _project_ball(y0, radius)
    fy = value(y)
    n = y.shape[-1]
    step = opts.step if opts.step is not None else radius
    min_step = max(opts.tol * radius, 1e-14)
    for _ in range(opts.iters):
        g = gradient(y)
        gnorm = np.linalg.norm(g)
        if not 1e-14 * n <= gnorm < math.inf:
            break
        direction = g / gnorm
        improved = False
        while step >= min_step:
            y_new = _project_ball(y + step * direction, radius)
            if np.vdot(g, y_new - y).real <= n * _GAIN_MARGIN:  # n times the first-order gain
                break
            f_new = value(y_new)
            if f_new > fy + _GAIN_MARGIN:
                y, fy = y_new, f_new
                step *= 1.3
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return fy, y


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


@functools.lru_cache(maxsize=32)
def _qf_words(m: int, max_degree: int):
    """Every word of length <= max_degree over m letters, its slot word, and the plan
    that reads them (the slot words in the same order)."""
    words = _all_words(m, max_degree)
    slot_words = tuple([w for _, w in compile_poly(NcPolynomial(dict.fromkeys(words, 1.0)))])
    return words, slot_words, _trace_plan(slot_words, None)


def qf_type(x: MatrixTuple, max_degree: int) -> QfType:
    """moment(w) = tr_n(w(X)) for every word of length <= max_degree."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    words, _, plan = _qf_words(x.m, max_degree)
    traces = plan.traces(x.entries)
    return QfType(x.m, max_degree, {w: complex(tr / x.n) for w, tr in zip(words, traces)})


def qf_distance(a: QfType, b: QfType) -> float:
    """Sup of |moment differences| over all words; a metric at fixed degree."""
    if a.degree != b.degree or a.m != b.m:
        raise ValueError("qf_distance requires matching degree and tuple length")
    return max(abs(mom - b.moments[w]) for w, mom in a.moments.items())
