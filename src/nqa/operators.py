"""Sparse real operators over the word basis, with dense conversion and application.

An operator on m <= SLOT_CAP = 64 slots is three read-only columns in
canonical term order: the words' exponent masks `alpha` and `beta`
(uint64) and their coefficients `coeffs` (float64).  Words are an
orthonormal basis under the normalized Frobenius pairing
<A, B> = 2^-m tr(A^T B), so decomposition is coefficient readout.
NqaWord objects are built only when a caller asks for words.

Every operator passes one canonicalisation, `_merge` in the constructor:
a stable sort into the label order of `words.order_key`, np.add.at over
each word's coefficients in input order, NumericError on a non-finite
sum, and pruning at PRUNE_TOL.  `op_mul` broadcasts the twisted XOR rule
over blocks of term pairs and never touches a matrix.  The dense route
rests on the signed-permutation action B(alpha, beta)|x> =
(-1)^(beta . x) |x xor alpha>, which `to_dense` scatters, `apply` runs on
a vector, and `from_dense` inverts with a Walsh butterfly.  Independent
oracles live in tests/helpers.py and bench/reference.py.

Structured forms with deliberately unexpanded factors live here too:
FactoredOperator (a plain product of factors) and Reflection (scale *
(identity - 2 P), P a product of one-slot projectors given by a pattern
over '01+.'), the form of multi-controlled Z and both Grover reflections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import DenseCapError, DimensionError, HomogeneityError, NumericError
from .words import NqaWord, epsilon, packed_mul, packed_order_key, packed_transpose_parity

__all__ = [
    "PRUNE_TOL",
    "DENSE_CAP",
    "STATE_CAP",
    "SLOT_CAP",
    "NqaOperator",
    "FactoredOperator",
    "Reflection",
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
# State vectors (and expanded reflections) stop at 2^STATE_CAP entries
# (terms): the size of the largest dense matrix, and as many terms as
# from_dense can emit.
STATE_CAP = 2 * DENSE_CAP
# An operator stores each word as two uint64 masks.
SLOT_CAP = 64

# Term pairs in one op_mul block; working memory is ~50 bytes a pair.
_CHUNK_PAIRS = 1 << 14

# Matrix entries written by one np.add.at call in to_dense; working memory
# beyond the output is ~30 bytes an entry.
_CHUNK_ENTRIES = 1 << 14

# one byte per block letter, indexed by x_bit | z_bit << 1
_LETTERS = np.frombuffer(b"IXZW", dtype=np.uint8)


def _check_dense_cap(m: int) -> None:
    if m > DENSE_CAP:
        raise DenseCapError(f"dense conversion capped at m <= {DENSE_CAP}, got m={m}")


def _check_state_cap(m: int) -> None:
    if m > STATE_CAP:
        raise DenseCapError(f"state vectors capped at m <= {STATE_CAP}, got m={m}")


def _check_slots(m: int) -> None:
    if m < 1:
        raise DimensionError(f"an operator needs at least one slot, got m={m}")
    if m > SLOT_CAP:
        raise DimensionError(f"operators are capped at m <= {SLOT_CAP} slots, got m={m}")


def _merge(m: int, alpha: np.ndarray, beta: np.ndarray, coeffs: np.ndarray):
    """Sort terms into label order and add up each word's coefficients.

    Returns (alpha, beta, sums), one row per word.  The label order is
    lexicographic over packed_order_key of slots 1-32 and, above 32 slots,
    of the rest.  The sort is stable and np.add.at adds in index order, so
    each sum is the running sum of the word's coefficients in input order,
    from 0.0, bit for bit.  (Without repeats the sums are the coefficients
    themselves, which differ from that only in the sign of a zero.)
    """
    if len(coeffs) < 2:
        return alpha, beta, coeffs
    cut = max(m - 32, 0)
    keys = [packed_order_key(alpha >> np.uint64(cut), beta >> np.uint64(cut), m - cut)]
    if cut:
        low = np.uint64((1 << cut) - 1)
        keys.append(packed_order_key(alpha & low, beta & low, cut))
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), bool)
    new[0] = True
    for k in keys:
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    if new.all():
        return alpha[order], beta[order], coeffs[order]
    sums = np.zeros(np.count_nonzero(new))
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects non-finite sums
        np.add.at(sums, np.cumsum(new) - 1, coeffs[order])
    return alpha[order[new]], beta[order[new]], sums


def _stack(a: "NqaOperator", b: "NqaOperator", b_coeffs: np.ndarray):
    """The columns of a followed by those of b, with b_coeffs for b's coefficients."""
    return (np.concatenate((a.alpha, b.alpha)), np.concatenate((a.beta, b.beta)),
            np.concatenate((a.coeffs, b_coeffs)))


def word_to_dense(word: NqaWord) -> np.ndarray:
    """The word's signed permutation matrix (Kronecker product of its 2x2
    blocks, slot 1 most significant)."""
    return NqaOperator.from_word(word).to_dense()


class NqaOperator:
    """Real linear combination of words on 1 <= m <= SLOT_CAP slots.

    Built from words, `NqaOperator(m, {word: coeff})` or (word, coeff)
    pairs, or from columns, `NqaOperator(m, alpha=..., beta=...,
    coeffs=...)`.  Terms are merged, pruned at PRUNE_TOL and kept sorted by
    word literal, so iteration, equality, and serialization are
    deterministic regardless of construction order.  A non-finite
    coefficient raises NumericError.  The columns are read-only and
    instances are immutable values.
    """

    __slots__ = ("m", "alpha", "beta", "coeffs")

    def __init__(self, m: int, terms: Mapping[NqaWord, float] | Iterable | None = None, *,
                 alpha=(), beta=(), coeffs=()):
        _check_slots(m)
        if terms is not None:
            alpha, beta, coeffs = [], [], []
            for word, coeff in terms.items() if isinstance(terms, Mapping) else terms:
                if word.m != m:
                    raise DimensionError(f"word {word.label} has {word.m} slots, operator has {m}")
                alpha.append(word.alpha)
                beta.append(word.beta)
                coeffs.append(coeff)
        alpha, beta = np.asarray(alpha, dtype=np.uint64), np.asarray(beta, dtype=np.uint64)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 1 or not alpha.shape == beta.shape == coeffs.shape:
            raise DimensionError("alpha, beta and coeffs must be 1-d columns of one length")
        if terms is None and m < 64 and len(coeffs) and (alpha | beta).max() >> m:
            raise DimensionError(f"packed exponents out of range for m={m}")
        alpha, beta, sums = _merge(m, alpha, beta, coeffs)
        finite = np.isfinite(sums)
        if not finite.all():
            raise NumericError(f"non-finite coefficient {float(sums[~finite][0])} in an operator")
        kept = np.abs(sums) > PRUNE_TOL
        object.__setattr__(self, "m", m)
        for name, column in (("alpha", alpha[kept]), ("beta", beta[kept]), ("coeffs", sums[kept])):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

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

    def _labels(self) -> list[str]:
        letters = np.empty((len(self), self.m), np.uint8)
        for slot in range(self.m):
            shift = np.uint64(self.m - 1 - slot)
            letters[:, slot] = _LETTERS[(self.alpha >> shift & 1) | (self.beta >> shift & 1) << 1]
        return letters.view(f"S{self.m}").ravel().astype(str).tolist()

    @property
    def terms(self) -> Mapping[NqaWord, float]:
        return MappingProxyType(dict(self.items()))

    def items(self) -> Iterator[tuple[NqaWord, float]]:
        """(word, coeff) pairs in canonical order; each word is built as it is reached."""
        columns = zip(self.alpha.tolist(), self.beta.tolist(), self.coeffs.tolist())
        return ((NqaWord(self.m, a, b), c) for a, b, c in columns)

    def coeff(self, word: NqaWord) -> float:
        if word.m != self.m:
            return 0.0
        row = np.flatnonzero((self.alpha == word.alpha) & (self.beta == word.beta))
        return float(self.coeffs[row[0]]) if len(row) else 0.0

    def to_table(self) -> list[tuple[str, float]]:
        return list(zip(self._labels(), self.coeffs.tolist()))

    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NqaOperator):
            return NotImplemented
        pairs = zip((self.alpha, self.beta, self.coeffs), (other.alpha, other.beta, other.coeffs))
        return self.m == other.m and all(np.array_equal(x, y) for x, y in pairs)

    def __hash__(self):
        return hash((self.m, tuple(self.items())))

    def allclose(self, other: "NqaOperator", tol: float = 1e-12) -> bool:
        if self.m != other.m:
            return False
        _, _, diff = _merge(self.m, *_stack(self, other, -other.coeffs))
        return bool(np.all(np.abs(diff) <= tol))

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " ".join(f"{c:+g}*{label}" for label, c in self.to_table())

    def __repr__(self) -> str:
        return f"<NqaOperator m={self.m} {self}>"

    # -- grading -------------------------------------------------------------

    def homogeneous_word(self) -> NqaWord | None:
        """The single word of a degree-homogeneous operator, None when zero."""
        if self.is_zero():
            return None
        if len(self) > 1:
            raise HomogeneityError("operator mixes more than one word degree")
        return NqaWord(self.m, int(self.alpha[0]), int(self.beta[0]))

    def op_parity(self) -> int | None:
        """Common exponent parity of all terms, None when zero."""
        if self.is_zero():
            return None
        parities = (np.bitwise_count(self.alpha) + np.bitwise_count(self.beta)) & 1
        if parities.min() != parities.max():
            raise HomogeneityError("operator mixes even and odd words")
        return int(parities[0])

    # -- arithmetic ----------------------------------------------------------

    def _require_same_m(self, other: "NqaOperator") -> None:
        if self.m != other.m:
            raise DimensionError(f"slot counts differ: {self.m} vs {other.m}")

    def _with_coeffs(self, coeffs: np.ndarray) -> "NqaOperator":
        return NqaOperator(self.m, alpha=self.alpha, beta=self.beta, coeffs=coeffs)

    def __add__(self, other: "NqaOperator") -> "NqaOperator":
        if not isinstance(other, NqaOperator):
            return NotImplemented
        self._require_same_m(other)
        alpha, beta, coeffs = _stack(self, other, other.coeffs)
        return NqaOperator(self.m, alpha=alpha, beta=beta, coeffs=coeffs)

    def __sub__(self, other: "NqaOperator") -> "NqaOperator":
        if not isinstance(other, NqaOperator):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "NqaOperator":
        return self._with_coeffs(-self.coeffs)

    def __mul__(self, scalar) -> "NqaOperator":
        if isinstance(scalar, NqaOperator):
            raise TypeError("use A @ B for the operator product; * is scalar scaling")
        s = float(scalar)
        with np.errstate(over="ignore"):  # the constructor rejects non-finite coefficients
            return self._with_coeffs(s * self.coeffs)

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
        """Dense matrix by scatter: word B(alpha, beta) puts (-1)^(beta . x)
        at row x xor alpha of column x.

        np.add.at adds in index order, term by term in canonical order and
        starting from 0.0, so every entry is the same sum, bit for bit, as
        adding the words' Kronecker matrices one after another.  Terms go
        in blocks of about _CHUNK_ENTRIES entries.
        """
        _check_dense_cap(self.m)
        n = 1 << self.m
        out = np.zeros(n * n)
        alpha, beta, coeff = self.alpha, self.beta, self.coeffs
        cols = np.arange(n)
        x = cols.astype(np.uint64)
        step = max(1, _CHUNK_ENTRIES >> self.m)
        for start in range(0, len(coeff), step):
            block = slice(start, start + step)
            flat = (alpha[block, None] ^ x).astype(np.intp) << self.m
            flat |= cols
            odd = np.bitwise_count(beta[block, None] & x) & 1
            np.add.at(out, flat, np.where(odd, -coeff[block, None], coeff[block, None]))
        return out.reshape(n, n)

    def apply(self, vec) -> np.ndarray:
        """Apply to a state vector by signed permutations, no matrix built:
        out[x] gains coeff * (-1)^(beta . y) v[y] at y = x xor alpha."""
        v = np.asarray(vec, dtype=np.float64)
        n = 1 << self.m
        if v.shape != (n,):
            raise DimensionError(f"state vector must have length {n}, got shape {v.shape}")
        idx = np.arange(n)
        out = np.zeros(n)
        for alpha, beta, coeff in zip(self.alpha.tolist(), self.beta.tolist(), self.coeffs.tolist()):
            src = idx ^ alpha
            if beta:
                signs = 1.0 - 2.0 * (np.bitwise_count(src & beta) & 1)
                out += coeff * (signs * v[src])
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
    """Operator product via the twisted word rule, over blocks of term pairs.

    A block pairs some of a's terms with all of b's through `packed_mul`.
    Each word's contributions are added in pair order (a's terms, then
    b's, both in canonical order), so every coefficient is the same sum,
    bit for bit, as a loop over the pairs: into one bin per possible word
    when 4^m is at most the pair count, otherwise by `_merge`, which folds
    the words met so far into the next block.  A block has _CHUNK_PAIRS
    pairs, or as many as there are words met so far, so each merge costs
    no more than the block it merges.
    """
    a._require_same_m(b)
    m = a.m
    binned = 1 << 2 * m <= len(a) * len(b)
    alpha = beta = np.empty(0, np.uint64)
    sums = np.zeros(1 << 2 * m if binned else 0)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects non-finite sums
        while start < len(a):
            if start and not binned:
                alpha, beta, sums = _merge(m, alpha, beta, sums)
            block = slice(start, start + max(1, max(_CHUNK_PAIRS, len(alpha)) // max(1, len(b))))
            start = block.stop
            odd, pair_alpha, pair_beta = packed_mul(a.alpha[block, None], a.beta[block, None], b.alpha, b.beta)
            contrib = np.multiply.outer(a.coeffs[block], b.coeffs)
            np.negative(contrib, out=contrib, where=odd.view(bool))
            pairs = (pair_alpha.ravel(), pair_beta.ravel(), contrib.ravel())
            if binned:
                np.add.at(sums, (pairs[0] << np.uint64(m) | pairs[1]).astype(np.intp), pairs[2])
            elif len(sums):
                alpha, beta, sums = (np.concatenate(column) for column in zip((alpha, beta, sums), pairs))
            else:
                alpha, beta, sums = pairs
    if binned:
        words = np.flatnonzero(sums)
        alpha, beta, sums = words >> m, words & ((1 << m) - 1), sums[words]
    return NqaOperator(m, alpha=alpha, beta=beta, coeffs=sums)


def tensor(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    """Slot concatenation; a's slots stay most significant."""
    _check_slots(a.m + b.m)
    shift = np.uint64(b.m)
    with np.errstate(over="ignore"):  # the constructor rejects non-finite coefficients
        coeffs = np.multiply.outer(a.coeffs, b.coeffs).ravel()
    alpha = (a.alpha[:, None] << shift | b.alpha).ravel()
    return NqaOperator(a.m + b.m, alpha=alpha, beta=(a.beta[:, None] << shift | b.beta).ravel(), coeffs=coeffs)


def op_transpose(a: NqaOperator) -> NqaOperator:
    odd = packed_transpose_parity(a.alpha, a.beta).astype(bool)
    return a._with_coeffs(np.where(odd, -a.coeffs, a.coeffs))


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
    the dot product of the coefficient tables, summed in the order of the
    shorter one."""
    a._require_same_m(b)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    alpha, beta, _ = _stack(large, small, small.coeffs)
    # a word is at most once in each operator, and the stable sort puts
    # large's copy first
    order = np.lexsort((beta, alpha))
    shared = (alpha[order[1:]] == alpha[order[:-1]]) & (beta[order[1:]] == beta[order[:-1]])
    partner = np.zeros(len(small))
    partner[order[1:][shared] - len(large)] = large.coeffs[order[:-1][shared]]
    return sum((small.coeffs * partner).tolist())


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
    # rows alpha << m | beta; NaN and infinities are kept for the operator's check
    hit = np.flatnonzero(~(np.abs(coeffs) <= tol))
    words = hit.astype(np.uint64)
    return NqaOperator(m, alpha=words >> np.uint64(m), beta=words & np.uint64(n - 1), coeffs=coeffs[hit])


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
    _check_state_cap(m)
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
    _check_state_cap(m)
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
class Reflection:
    """scale * (identity - 2 P), P a product of one-slot projectors.

    `pattern` gives P slot by slot, slot 1 first: '0' and '1' project onto
    that basis state, '+' onto the uniform state (I + X)/2, and '.' leaves
    the slot alone.  Never expanded implicitly; `expand` is the explicit
    escape hatch, 2^len(self) terms.
    """

    pattern: str
    scale: int = 1

    def __post_init__(self):
        if not self.pattern or any(ch not in "01+." for ch in self.pattern):
            raise DimensionError(f"reflection pattern must be a nonempty '01+.' string, got {self.pattern!r}")
        if self.scale not in (1, -1):
            raise DimensionError(f"reflection scale must be +1 or -1, got {self.scale}")

    @property
    def m(self) -> int:
        return len(self.pattern)

    @property
    def factors(self) -> tuple[NqaOperator, ...]:
        """One 2-term projector per slot that is not '.', slot 1 first."""
        out = []
        for k, ch in enumerate(self.pattern):
            if ch != ".":
                mask = 1 << (self.m - 1 - k)
                word = NqaWord(self.m, mask, 0) if ch == "+" else NqaWord(self.m, 0, mask)
                coeff = -0.5 if ch == "1" else 0.5
                out.append(NqaOperator(self.m, {NqaWord.identity(self.m): 0.5, word: coeff}))
        return tuple(out)

    def __len__(self) -> int:
        return self.m - self.pattern.count(".")

    def _reflect(self, a: np.ndarray) -> np.ndarray:
        """The reflection applied to the columns of a (2^m rows), O(2^m) each.

        The 0/1 slots index a block, which is averaged over the '+' slots.
        Runs of equal slots share one axis, so the diffusion averages a
        flat vector (numpy's fast path, and bit for bit its v.mean()).
        """
        kinds = groupby(self.pattern, lambda ch: ch if ch in "+." else "01")
        runs = [(kind, "".join(run)) for kind, run in kinds]
        t = a.reshape(tuple(1 << len(run) for _, run in runs) + a.shape[1:])
        index = tuple(int(run, 2) if kind == "01" else slice(None) for kind, run in runs)
        kept = [kind for kind, _ in runs if kind != "01"]
        axes = tuple(i for i, kind in enumerate(kept) if kind == "+")
        block = t[index]
        w = block.mean(axis=axes, keepdims=True) if axes else block
        new = block - 2.0 * w if self.scale > 0 else 2.0 * w - block
        if new.shape == t.shape:  # no 0/1 slot: the block is all of t
            return new.reshape(a.shape)
        out = t * float(self.scale)
        out[index] = new
        return out.reshape(a.shape)

    def apply(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (1 << self.m,):
            raise DimensionError(f"state vector must have length {1 << self.m}, got shape {v.shape}")
        return self._reflect(v)

    def projector(self) -> NqaOperator:
        return FactoredOperator(self.m, self.factors).expand()

    def expand(self) -> NqaOperator:
        if len(self) > STATE_CAP:
            raise DenseCapError(
                f"expanding {len(self)} projectors gives 2^{len(self)} terms, capped at 2^{STATE_CAP}"
            )
        out = NqaOperator.identity(self.m) - 2.0 * self.projector()
        return out if self.scale > 0 else -out

    def to_dense(self) -> np.ndarray:
        _check_dense_cap(self.m)
        return self._reflect(np.eye(1 << self.m))
