"""Complex matrix tuples with the normalized-trace geometry, plus reference samplers.

Everything downstream measures lengths in the tr_n metric: tr_n = (1/n) Tr,
so that tr_n(I) = 1 and tuples of different sizes are comparable.  Matrix
storage is dense complex128; the supported regime is desk scale (n up to a
few hundred).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MatrixTuple",
    "Seed",
    "immutable",
    "frozen",
    "trace_inner_product",
    "real_inner",
    "tracial_norm",
    "operator_norm",
    "sigma_max",
    "sa_embedding",
    "sa_embedding_inverse",
    "sample_ginibre",
    "sample_gue",
    "tensor_embed",
]

MAX_TENSOR_SIZE = 4096


class DimensionMismatchError(ValueError):
    """Raised when two tuples do not share the same (n, m)."""


@dataclass(frozen=True)
class Seed:
    """Deterministic RNG handle: (master_seed, stream_id) -> one ``SeedSequence``.

    ``rng()`` runs the counter-based Philox generator over that sequence.  The
    MALA sampler runs SFC64 over the two children ``sequence().spawn(2)`` of
    its chain seed, one stream for the noise and one for the acceptance
    uniforms (``gibbs._chain_rngs``): a chain reads its streams in order, in
    blocks, and never needs Philox's counter jumps, and SFC64 fills normals
    faster.  The children's spawn keys are two entries long, so no chain
    stream shares its sequence with a ``Seed``.  Two draws with the same
    (master_seed, stream_id) produce identical output; distinct stream_ids
    give independent streams for parallel chains.
    """

    master_seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")

    def sequence(self) -> np.random.SeedSequence:
        """The seed sequence of this stream: entropy master_seed, spawn key (stream_id,)."""
        return np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(seed=self.sequence()))

    def derive(self, offset: int) -> "Seed":
        """Child seed for a sub-stream (chains, quantifier nodes, ladder nodes).

        Offsets 0 <= offset < 65535 keep the children of stream s inside
        s * 65536 + [1, 65535], apart from those of every other stream; a
        negative offset can return the parent itself and a larger one another
        stream's child, so both raise.
        """
        if not 0 <= offset < 65535:
            raise ValueError(f"Seed.derive offset must be in [0, 65535), got {offset}: "
                             "a seed has at most 65535 derived streams (one per "
                             "counterexample sample, TI node, chain or quantifier)")
        return Seed(self.master_seed, self.stream_id * 65536 + 1 + offset)


def _read_only_throughout(arr) -> bool:
    """Whether nothing can write arr's memory: arr and every array down its
    ``.base`` chain are read-only, and the chain ends at an array that owns
    its memory (not at a foreign buffer)."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def immutable(values) -> np.ndarray:
    """``values`` as a read-only, aligned, C-contiguous complex128 array that no
    other code can write: the one ownership rule of ``MatrixTuple`` and
    ``gibbs.Ensemble``.

    An array of that layout that is read-only all the way down its ``.base``
    chain is kept as is, so views of a tuple or an ensemble share its memory.
    Anything else is copied once: a writable array, or a read-only view of a
    writable base.  A dtype or layout conversion, or a list, counts as that
    one copy.  A producer that has just allocated its array hands it over
    with ``frozen``, uncopied.
    """
    arr = np.asarray(values, dtype=np.complex128, order="C")
    fresh = (arr is not values and arr.base is None
             and isinstance(values, (np.ndarray, list, tuple)))
    if not fresh and not (arr.flags.aligned and _read_only_throughout(arr)):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array that its caller has just allocated, and holds no other
    reference to, read-only and return it: ``immutable`` then keeps it."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MatrixTuple:
    """A point X in M_n^m: m dense complex n x n matrices, immutable.

    The array has shape (m, n, n) and follows ``immutable``'s ownership rule.
    Vector-space operations and the tr_n inner product are the only
    structure; all operations return new tuples.
    """

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = immutable(self.entries)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected shape (m, n, n), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("m and n must be positive")
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def zero(cls, n: int, m: int) -> "MatrixTuple":
        return cls(frozen(np.zeros((m, n, n), dtype=np.complex128)))

    @classmethod
    def from_matrices(cls, *mats: np.ndarray) -> "MatrixTuple":
        return cls(frozen(np.stack([np.asarray(a, dtype=np.complex128) for a in mats])))

    @classmethod
    def scalar(cls, values, n: int) -> "MatrixTuple":
        """Tuple of scalar multiples of the identity (c_1 I, ..., c_m I)."""
        vals = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        eye = np.eye(n, dtype=np.complex128)
        return cls(frozen(np.stack([v * eye for v in vals])))

    def __add__(self, other: "MatrixTuple") -> "MatrixTuple":
        _check_same_shape(self, other)
        return MatrixTuple(frozen(self.entries + other.entries))

    def __sub__(self, other: "MatrixTuple") -> "MatrixTuple":
        _check_same_shape(self, other)
        return MatrixTuple(frozen(self.entries - other.entries))

    def __mul__(self, scalar) -> "MatrixTuple":
        return MatrixTuple(frozen(self.entries * scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "MatrixTuple":
        return MatrixTuple(frozen(-self.entries))

    def adjoint(self) -> "MatrixTuple":
        out = np.empty_like(self.entries)  # C order, as the rule keeps it
        return MatrixTuple(frozen(np.conjugate(np.swapaxes(self.entries, 1, 2), out=out)))

    def norm(self) -> float:
        return tracial_norm(self)

    def real_inner(self, other: "MatrixTuple") -> float:
        return real_inner(self, other)

    def conjugate_by(self, u: np.ndarray) -> "MatrixTuple":
        """U X U* slotwise, for a fixed n x n unitary U."""
        return MatrixTuple(frozen(u @ self.entries @ u.conj().T))


def _check_same_shape(x: MatrixTuple, y: MatrixTuple) -> None:
    if x.entries.shape != y.entries.shape:
        raise DimensionMismatchError(
            f"tuple shapes differ: {x.entries.shape} vs {y.entries.shape}"
        )


def trace_inner_product(x: MatrixTuple, y: MatrixTuple) -> complex:
    """<X, Y> = sum_j tr_n(X_j^* Y_j); conjugate-symmetric, linear in Y."""
    _check_same_shape(x, y)
    return complex(np.einsum("jab,jab->", np.conj(x.entries), y.entries) / x.n)


def real_inner(x: MatrixTuple, y: MatrixTuple) -> float:
    """Real part of the tr_n inner product (the ambient real inner-product space)."""
    _check_same_shape(x, y)
    return float(np.real(np.einsum("jab,jab->", np.conj(x.entries), y.entries)) / x.n)


def tracial_norm(x: MatrixTuple) -> float:
    return float(np.sqrt(np.sum(np.abs(x.entries) ** 2) / x.n))


def sigma_max(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a (k, n, n) stack, shape (k,).

    One batched ``eigvalsh`` of the Gram stack X*X.  Each matrix is divided by
    its largest entry modulus first, so that squaring neither overflows nor
    underflows, and the Gram of a nonzero matrix then has a diagonal entry, so
    a largest eigenvalue, of at least 1.  The relative error is that of this
    eigenvalue, O(n) roundings.  A zero matrix gives 0; a non-finite entry
    raises.
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (k, n, n) stack, got shape {a.shape}")
    scale = np.max(np.abs(a), axis=(1, 2), initial=0.0)
    if not np.all(np.isfinite(scale)):
        raise ValueError("sigma_max input has non-finite entries")
    scale[scale == 0.0] = 1.0
    b = a / scale[:, None, None]
    top = np.linalg.eigvalsh(np.swapaxes(b.conj(), 1, 2) @ b)[:, -1]
    return scale * np.sqrt(top)


def operator_norm(x: MatrixTuple) -> float:
    """max_j of the largest singular value of X_j."""
    return float(np.max(sigma_max(x.entries)))


def sa_embedding(x: MatrixTuple) -> MatrixTuple:
    """Isometry M_n^m -> (M_n)_sa^{2m}: X_j -> ((X_j+X_j*)/2, (X_j-X_j*)/2i)."""
    out = np.empty((2 * x.m, x.n, x.n), dtype=np.complex128)
    for j in range(x.m):
        a = x.entries[j]
        out[2 * j] = (a + a.conj().T) / 2.0
        out[2 * j + 1] = (a - a.conj().T) / 2.0j
    return MatrixTuple(frozen(out))


def sa_embedding_inverse(y: MatrixTuple) -> MatrixTuple:
    """Inverse of sa_embedding: (A_j, B_j) -> A_j + i B_j."""
    if y.m % 2:
        raise ValueError("sa_embedding output has even tuple length")
    m = y.m // 2
    out = np.empty((m, y.n, y.n), dtype=np.complex128)
    for j in range(m):
        out[j] = y.entries[2 * j] + 1.0j * y.entries[2 * j + 1]
    return MatrixTuple(frozen(out))


def sample_ginibre(n: int, m: int, seed: Seed) -> MatrixTuple:
    """m independent Ginibre matrices, entry variance 1/n, so E tr_n(X*X) = 1."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = seed.rng()
    scale = 1.0 / np.sqrt(2.0 * n)
    re = rng.standard_normal((m, n, n))
    im = rng.standard_normal((m, n, n))
    return MatrixTuple(frozen(scale * (re + 1.0j * im)))


def sample_gue(n: int, seed: Seed) -> np.ndarray:
    """One GUE matrix normalized so E tr_n(X^2) = 1 (semicircle on [-2, 2])."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = seed.rng()
    scale = 1.0 / np.sqrt(2.0 * n)
    a = scale * (rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n)))
    # (A + A*)/sqrt(2) has entry variance 1/n and is Hermitian
    return (a + a.conj().T) / np.sqrt(2.0)


def tensor_embed(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A otimes I_l, I_k otimes B) as n = k*l matrices; the outputs commute exactly."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    k, l = a.shape[0], b.shape[0]
    if a.shape != (k, k) or b.shape != (l, l):
        raise ValueError("tensor_embed expects square matrices")
    if k * l > MAX_TENSOR_SIZE:
        raise ValueError(f"tensor size {k * l} exceeds supported limit {MAX_TENSOR_SIZE}")
    return np.kron(a, np.eye(l)), np.kron(np.eye(k), b)
