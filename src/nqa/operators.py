"""Sparse real operators over the word basis, with dense conversion and application.

An operator is a pruned mapping word -> float coefficient; words are an
orthonormal basis under the normalized Frobenius pairing
<A, B> = 2^-m tr(A^T B), so decomposition is coefficient readout.

Every operator's terms pass one check (`_kept`): a non-finite
coefficient raises NumericError, and coefficients at or below PRUNE_TOL
are pruned.  Terms are then kept in the canonical order of
`words.order_key` (the label order), computed without building labels.

Two independent routes exist on purpose.  The symbolic route multiplies
words by the twisted XOR rule and never touches a matrix.  The dense route
(`to_dense`) builds Kronecker products of the four 2x2 blocks, and vector
application uses the signed-permutation action
B(alpha, beta)|x> = (-1)^(beta . x) |x xor alpha> without forming a matrix.

`op_mul` has two paths that agree bit for bit.  Products of fewer than
_PACKED_MIN_PAIRS term pairs, and all products on more than 32 slots, take
a scalar loop, one word_mul per term pair.  The rest run on the packed
engine: `words.packed_mul` is broadcast over blocks of term pairs and the
contributions are added into direct bins (when 4^m is at most the pair
count) or into a sorted array of the words met so far.  `from_dense` also
hands its coefficients to the operator as packed arrays.

Structured forms with deliberately unexpanded factors live here too:
FactoredOperator (a plain product of factors) and ProductReflection
(scale * (identity - 2 * product of commuting projectors)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import DenseCapError, DimensionError, HomogeneityError, NumericError
from .words import (
    BlockIndex,
    NqaWord,
    epsilon,
    packed_mul,
    packed_order_key,
    parity,
    parity_table,
    word_mul,
    word_transpose,
)

# Bound under a private name: the constructor calls the key once per term,
# and the benchmark tracer (bench/tracing.py) wraps every public function
# it finds in a module, which would cost more than the key itself.
from .words import order_key as _order_key

__all__ = [
    "PRUNE_TOL",
    "DENSE_CAP",
    "NqaOperator",
    "FactoredOperator",
    "ProductReflection",
    "op_mul",
    "tensor",
    "op_transpose",
    "commutator",
    "anticommutator",
    "epsilon_commutator",
    "supercommutator",
    "frobenius",
    "word_to_dense",
    "from_dense",
    "to_dense",
    "apply",
    "is_orthogonal",
    "basis_state",
    "uniform_state",
]

PRUNE_TOL = 1e-14
DENSE_CAP = 12

# op_mul runs on the packed engine from this many term pairs up (and m <=
# 32).  Measured crossover: the packed path has a fixed cost of ~0.1 ms,
# which is what the scalar loop spends on ~30 pairs.
_PACKED_MIN_PAIRS = 32
# Term pairs handed to one packed_mul call; working memory is ~50 bytes a pair.
_CHUNK_PAIRS = 1 << 14

_BLOCK_2X2 = {
    BlockIndex.I: np.array([[1.0, 0.0], [0.0, 1.0]]),
    BlockIndex.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    BlockIndex.Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
    BlockIndex.W: np.array([[0.0, -1.0], [1.0, 0.0]]),
}


def _check_dense_cap(m: int) -> None:
    if m > DENSE_CAP:
        raise DenseCapError(f"dense conversion capped at m <= {DENSE_CAP}, got m={m}")


def _kept(coeff: float) -> bool:
    """Whether a merged coefficient survives pruning at PRUNE_TOL.

    Every operator's terms pass through here, so a NaN or an infinity is
    an error instead of a pruned or plausible-looking term.
    """
    if not math.isfinite(coeff):
        raise NumericError(f"non-finite coefficient {coeff} in an operator")
    return abs(coeff) > PRUNE_TOL


def word_to_dense(word: NqaWord) -> np.ndarray:
    """Kronecker product of the word's 2x2 blocks, slot 1 most significant."""
    _check_dense_cap(word.m)
    out = np.array([[1.0]])
    for block in word.blocks():
        out = np.kron(out, _BLOCK_2X2[block])
    return out


class NqaOperator:
    """Real linear combination of words on a fixed slot count.

    Terms are pruned at PRUNE_TOL and kept sorted by word literal (the
    order of words.order_key), so iteration, equality, and serialization
    are deterministic regardless of construction order.  A non-finite
    coefficient raises NumericError.  Instances are treated as immutable
    values.
    """

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Mapping[NqaWord, float] | Iterable[tuple[NqaWord, float]] | None = None):
        if m < 1:
            raise DimensionError(f"an operator needs at least one slot, got m={m}")
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        acc: dict[NqaWord, float] = {}
        for word, coeff in items:
            if word.m != m:
                raise DimensionError(f"word {word.label} has {word.m} slots, operator has {m}")
            acc[word] = acc.get(word, 0.0) + float(coeff)
        kept = sorted((w for w, c in acc.items() if _kept(c)), key=_order_key)
        self._assign(m, {w: acc[w] for w in kept})

    @classmethod
    def _from_packed(cls, m: int, alpha: np.ndarray, beta: np.ndarray, coeffs: np.ndarray) -> "NqaOperator":
        """Operator of distinct packed words on m <= 32 slots, already merged.

        The array-wise twin of the constructor: the same finiteness check,
        pruning and canonical order, and every kept word is built (and
        range-checked) by NqaWord.
        """
        if not 1 <= m <= 32:
            raise DimensionError(f"packed operator terms need 1 <= m <= 32, got m={m}")
        order = np.argsort(packed_order_key(alpha, beta))
        terms = {
            NqaWord(m, x, z): c
            for x, z, c in zip(alpha[order].tolist(), beta[order].tolist(), coeffs[order].tolist())
            if _kept(c)
        }
        out = object.__new__(cls)
        out._assign(m, terms)
        return out

    def _assign(self, m: int, terms: dict[NqaWord, float]) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("NqaOperator is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "NqaOperator":
        return cls(m)

    @classmethod
    def identity(cls, m: int) -> "NqaOperator":
        return cls(m, {NqaWord.identity(m): 1.0})

    @classmethod
    def from_word(cls, word: NqaWord, coeff: float = 1.0) -> "NqaOperator":
        return cls(word.m, {word: coeff})

    @classmethod
    def from_label(cls, label: str, coeff: float = 1.0) -> "NqaOperator":
        return cls.from_word(NqaWord.from_label(label), coeff)

    @classmethod
    def from_table(cls, m: int, table: Iterable[tuple[str, float]]) -> "NqaOperator":
        return cls(m, [(NqaWord.from_label(lbl), c) for lbl, c in table])

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> Mapping[NqaWord, float]:
        return MappingProxyType(self._terms)

    def items(self):
        return self._terms.items()

    def coeff(self, word: NqaWord) -> float:
        return self._terms.get(word, 0.0)

    def to_table(self) -> list[tuple[str, float]]:
        return [(w.label, c) for w, c in self._terms.items()]

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NqaOperator):
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    def __hash__(self):
        return hash((self.m, tuple(self._terms.items())))

    def allclose(self, other: "NqaOperator", tol: float = 1e-12) -> bool:
        if self.m != other.m:
            return False
        words = self._terms.keys() | other._terms.keys()
        return all(abs(self.coeff(w) - other.coeff(w)) <= tol for w in words)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " ".join(f"{c:+g}*{w.label}" for w, c in self._terms.items())

    def __repr__(self) -> str:
        return f"<NqaOperator m={self.m} {self}>"

    # -- grading -------------------------------------------------------------

    def homogeneous_word(self) -> NqaWord | None:
        """The single word of a degree-homogeneous operator, None when zero."""
        if not self._terms:
            return None
        if len(self._terms) > 1:
            raise HomogeneityError("operator mixes more than one word degree")
        return next(iter(self._terms))

    def op_parity(self) -> int | None:
        """Common exponent parity of all terms, None when zero."""
        parities = {parity(w) for w in self._terms}
        if not parities:
            return None
        if len(parities) > 1:
            raise HomogeneityError("operator mixes even and odd words")
        return parities.pop()

    # -- arithmetic ----------------------------------------------------------

    def _require_same_m(self, other: "NqaOperator") -> None:
        if self.m != other.m:
            raise DimensionError(f"slot counts differ: {self.m} vs {other.m}")

    def __add__(self, other: "NqaOperator") -> "NqaOperator":
        if not isinstance(other, NqaOperator):
            return NotImplemented
        self._require_same_m(other)
        acc = dict(self._terms)
        for w, c in other.items():
            acc[w] = acc.get(w, 0.0) + c
        return NqaOperator(self.m, acc)

    def __sub__(self, other: "NqaOperator") -> "NqaOperator":
        if not isinstance(other, NqaOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NqaOperator":
        return NqaOperator(self.m, {w: -c for w, c in self.items()})

    def __mul__(self, scalar) -> "NqaOperator":
        if isinstance(scalar, NqaOperator):
            raise TypeError("use A @ B for the operator product; * is scalar scaling")
        s = float(scalar)
        return NqaOperator(self.m, {w: s * c for w, c in self.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "NqaOperator") -> "NqaOperator":
        if not isinstance(other, NqaOperator):
            return NotImplemented
        return op_mul(self, other)

    def tensor(self, other: "NqaOperator") -> "NqaOperator":
        return tensor(self, other)

    def transpose(self) -> "NqaOperator":
        return op_transpose(self)

    # -- dense route ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        _check_dense_cap(self.m)
        n = 1 << self.m
        out = np.zeros((n, n))
        for word, coeff in self.items():
            out += coeff * word_to_dense(word)
        return out

    def apply(self, vec) -> np.ndarray:
        """Apply to a state vector by signed permutations, no matrix built."""
        v = np.asarray(vec, dtype=np.float64)
        n = 1 << self.m
        if v.shape != (n,):
            raise DimensionError(f"state vector must have length {n}, got shape {v.shape}")
        idx = np.arange(n)
        out = np.zeros(n)
        for word, coeff in self.items():
            src = idx ^ word.alpha
            if word.beta:
                signs = parity_table(word.beta, self.m)
                out += coeff * (signs[src] * v[src])
            else:
                out += coeff * v[src]
        return out

    def frobenius(self, other: "NqaOperator") -> float:
        return frobenius(self, other)

    def is_orthogonal(self, tol: float = 1e-12) -> bool:
        return is_orthogonal(self, tol)


# ---------------------------------------------------------------------------
# module-level operations


def op_mul(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    """Operator product via the twisted word rule.

    Products of at least _PACKED_MIN_PAIRS term pairs on m <= 32 slots run
    on the packed engine (`_op_mul_packed`); smaller ones, and every product
    on more slots, take the scalar loop (`_op_mul_scalar`), one word_mul
    per term pair.  Both add each result word's contributions in the same
    pair order (a's terms, then b's, in canonical order), so they agree bit
    for bit.
    """
    a._require_same_m(b)
    if a.m <= 32 and len(a) * len(b) >= _PACKED_MIN_PAIRS:
        return _op_mul_packed(a, b)
    return _op_mul_scalar(a, b)


def _op_mul_scalar(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    acc: dict[NqaWord, float] = {}
    for wu, cu in a.items():
        for wv, cv in b.items():
            sign, w = word_mul(wu, wv)
            contrib = cu * cv if sign > 0 else -(cu * cv)
            acc[w] = acc.get(w, 0.0) + contrib
    return NqaOperator(a.m, acc)


def _packed_terms(op: NqaOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(op)
    alpha = np.fromiter((w.alpha for w in op._terms), np.uint64, n)
    beta = np.fromiter((w.beta for w in op._terms), np.uint64, n)
    return alpha, beta, np.fromiter(op._terms.values(), np.float64, n)


def _op_mul_packed(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    """op_mul by broadcasting packed_mul over row blocks of a's terms.

    Each result word is keyed alpha << m | beta and its sum lives in one
    slot of `sums`.  With 4^m at most the pair count the slots are direct
    bins, one per possible word; otherwise `keys` holds the sorted words
    met so far and grows block by block.  np.add.at adds in index order,
    which is the scalar loop's pair order, so the sums are bit-identical.
    A block has _CHUNK_PAIRS pairs, or as many as `keys` has entries when
    that is more, so each merge costs no more than the block it merges.
    """
    m = a.m
    a_alpha, a_beta, a_coeff = _packed_terms(a)
    b_alpha, b_beta, b_coeff = _packed_terms(b)
    binned = 1 << 2 * m <= len(a) * len(b)
    keys = np.empty(0, np.uint64)
    sums = np.zeros(1 << 2 * m if binned else 0)
    start = 0
    # an overflow leaves a non-finite sum, which _from_packed rejects
    with np.errstate(over="ignore", invalid="ignore"):
        while start < len(a):
            rows = max(1, max(_CHUNK_PAIRS, len(keys)) // len(b))
            block = slice(start, start + rows)
            start += rows
            sign, alpha, beta = packed_mul(a_alpha[block, None], a_beta[block, None], b_alpha, b_beta)
            contrib = np.multiply.outer(a_coeff[block], b_coeff)
            np.negative(contrib, out=contrib, where=sign.astype(bool))
            word_keys = ((alpha << m) | beta).ravel()
            if binned:
                slots = word_keys.astype(np.intp)
            else:
                merged = np.union1d(keys, word_keys)
                grown = np.zeros(len(merged))
                grown[np.searchsorted(merged, keys)] = sums
                keys, sums = merged, grown
                slots = np.searchsorted(keys, word_keys)
            np.add.at(sums, slots, contrib.ravel())
    if binned:
        hit = np.flatnonzero(sums)
        keys, sums = hit.astype(np.uint64), sums[hit]
    return NqaOperator._from_packed(m, keys >> m, keys & ((1 << m) - 1), sums)


def tensor(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    """Slot concatenation; a's slots stay most significant."""
    m = a.m + b.m
    acc: dict[NqaWord, float] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = NqaWord(m, wa.alpha << b.m | wb.alpha, wa.beta << b.m | wb.beta)
            acc[w] = acc.get(w, 0.0) + ca * cb
    return NqaOperator(m, acc)


def op_transpose(a: NqaOperator) -> NqaOperator:
    return NqaOperator(a.m, {w: (c if word_transpose(w).sign > 0 else -c) for w, c in a.items()})


def commutator(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    return op_mul(a, b) - op_mul(b, a)


def anticommutator(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    return op_mul(a, b) + op_mul(b, a)


def epsilon_commutator(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    """Color bracket [a, b] = ab - epsilon(g, h) ba on degree-homogeneous operators."""
    a._require_same_m(b)
    if a.is_zero() or b.is_zero():
        # the bracket vanishes whatever grading the other side carries
        return NqaOperator.zero(a.m)
    wa = a.homogeneous_word()
    wb = b.homogeneous_word()
    if epsilon(wa, wb) > 0:
        return op_mul(a, b) - op_mul(b, a)
    return op_mul(a, b) + op_mul(b, a)


def supercommutator(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    """Z2 bracket [a, b] = ab - (-1)^(p(a) p(b)) ba on parity-homogeneous operators."""
    a._require_same_m(b)
    if a.is_zero() or b.is_zero():
        return NqaOperator.zero(a.m)
    pa = a.op_parity()
    pb = b.op_parity()
    if pa & pb:
        return op_mul(a, b) + op_mul(b, a)
    return op_mul(a, b) - op_mul(b, a)


def frobenius(a: NqaOperator, b: NqaOperator) -> float:
    """Normalized pairing 2^-m tr(A^T B); words are orthonormal, so it is
    the plain dot product of coefficient tables."""
    a._require_same_m(b)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    return sum(c * large.coeff(w) for w, c in small.items())


# ---------------------------------------------------------------------------
# dense conversions


def _walsh_last_axis(a: np.ndarray) -> np.ndarray:
    """Parity sums T[.., beta] = sum_x (-1)^(beta . x) a[.., x] by butterflies."""
    rows, n = a.shape
    out = a.copy()
    h = 1
    while h < n:
        out = out.reshape(rows, n // (2 * h), 2, h)
        top = out[:, :, 0, :] + out[:, :, 1, :]
        bot = out[:, :, 0, :] - out[:, :, 1, :]
        out = np.stack((top, bot), axis=2)
        h *= 2
    return out.reshape(rows, n)


def from_dense(matrix, *, tol: float = PRUNE_TOL) -> NqaOperator:
    """Decompose a real 2^m x 2^m matrix into word coefficients.

    Evaluates a_g = 2^-m tr(B_g^T M) column-wise: the word's matrix has a
    single (-1)^(beta . x) entry per column x at row x xor alpha, so each
    trace is a signed gather along a permuted diagonal, with the beta sums
    shared through a Walsh butterfly.
    """
    M = np.asarray(matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    m = n.bit_length() - 1
    if n < 2 or (1 << m) != n:
        raise DimensionError(f"matrix dimension {n} is not a power of two >= 2")
    _check_dense_cap(m)
    idx = np.arange(n)
    gathered = np.empty((n, n))
    for alpha in range(n):
        gathered[alpha] = M[idx ^ alpha, idx]
    coeffs = (_walsh_last_axis(gathered) / n).ravel()
    # keys alpha << m | beta; NaN and infinities are kept for the operator's check
    hit = np.flatnonzero(~(np.abs(coeffs) <= tol))
    keys = hit.astype(np.uint64)
    return NqaOperator._from_packed(m, keys >> m, keys & (n - 1), coeffs[hit])


def to_dense(obj) -> np.ndarray:
    """Dense form of an operator, structured form, or array."""
    if isinstance(obj, np.ndarray):
        return np.asarray(obj, dtype=np.float64)
    return obj.to_dense()


def apply(obj, vec) -> np.ndarray:
    """Apply an operator or structured form to a state vector."""
    return obj.apply(vec)


def is_orthogonal(obj, tol: float = 1e-12) -> bool:
    """Whether Q^T Q = identity within tol in the max norm (dense check)."""
    q = to_dense(obj)
    n = q.shape[0]
    return float(np.max(np.abs(q.T @ q - np.eye(n)))) <= tol


# ---------------------------------------------------------------------------
# state vectors


def basis_state(m: int, index) -> np.ndarray:
    """Unit vector |x>; index is an integer or a bit string, slot 1 leftmost."""
    if isinstance(index, str):
        if len(index) != m or any(ch not in "01" for ch in index):
            raise DimensionError(f"basis bit string must be {m} characters of 0/1, got {index!r}")
        index = int(index, 2)
    n = 1 << m
    if not 0 <= index < n:
        raise DimensionError(f"basis index {index} outside 0..{n - 1}")
    v = np.zeros(n)
    v[index] = 1.0
    return v


def uniform_state(m: int) -> np.ndarray:
    n = 1 << m
    return np.full(n, 1.0 / np.sqrt(n))


# ---------------------------------------------------------------------------
# structured forms


@dataclass(frozen=True, slots=True)
class FactoredOperator:
    """An ordered product of operator factors, kept unexpanded.

    `factors` reads left to right as a matrix product; an empty tuple is
    the identity.  Application to vectors therefore runs right to left.
    """

    m: int
    factors: tuple[NqaOperator, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.m != self.m:
                raise DimensionError(f"factor has {f.m} slots, product declared {self.m}")

    def __len__(self) -> int:
        return len(self.factors)

    def apply(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.float64)
        for f in reversed(self.factors):
            v = f.apply(v)
        return v

    def expand(self) -> NqaOperator:
        out = NqaOperator.identity(self.m)
        for f in self.factors:
            out = op_mul(out, f)
        return out

    def to_dense(self) -> np.ndarray:
        _check_dense_cap(self.m)
        n = 1 << self.m
        out = np.eye(n)
        for f in self.factors:
            out = out @ f.to_dense()
        return out


@dataclass(frozen=True, slots=True)
class ProductReflection:
    """scale * (identity - 2 * product of factors), factors commuting projectors.

    Never expanded implicitly; `expand` is the explicit escape hatch.
    """

    m: int
    factors: tuple[NqaOperator, ...]
    scale: int = 1

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.scale not in (1, -1):
            raise DimensionError(f"reflection scale must be +1 or -1, got {self.scale}")
        for f in self.factors:
            if f.m != self.m:
                raise DimensionError(f"factor has {f.m} slots, reflection declared {self.m}")

    def __len__(self) -> int:
        return len(self.factors)

    def apply(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.float64)
        w = v
        for f in reversed(self.factors):
            w = f.apply(w)
        out = v - 2.0 * w
        return out if self.scale > 0 else -out

    def projector(self) -> NqaOperator:
        out = NqaOperator.identity(self.m)
        for f in self.factors:
            out = op_mul(out, f)
        return out

    def expand(self) -> NqaOperator:
        out = NqaOperator.identity(self.m) - 2.0 * self.projector()
        return out if self.scale > 0 else -out

    def to_dense(self) -> np.ndarray:
        _check_dense_cap(self.m)
        n = 1 << self.m
        prod = np.eye(n)
        for f in self.factors:
            prod = prod @ f.to_dense()
        out = np.eye(n) - 2.0 * prod
        return out if self.scale > 0 else -out
