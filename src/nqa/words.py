"""Bit-packed tensor words over the block alphabet {I, X, Z, W}.

An m-slot word B(alpha, beta) is the Kronecker product, slot 1 leftmost,
of the real 2x2 blocks X^a Z^b with per-slot exponent pairs

    (0,0) -> I    (1,0) -> X    (0,1) -> Z    (1,1) -> W = XZ,

always X before Z inside a slot.  The exponent vectors alpha and beta are
packed into plain integers with slot k at bit (m - k), so the leftmost
character of a word literal is the most significant bit and packed words
combine with basis indices by integer XOR: B(alpha, beta) sends basis
vector |x> to (-1)^(beta . x) |x xor alpha>.

Products follow the twisted rule

    B(a, b) B(a', b') = (-1)^(b . a') B(a xor a', b xor b'),

so the sign stays in {+1, -1}, every product is again a single word, and
word multiplication is associative with B(0, 0) as the identity.  The
symmetric bicharacter epsilon(g, h) = (-1)^(b.a' + b'.a) records whether
two words commute (+1) or anticommute (-1).

The canonical order of words is the order of their labels, I < W < X < Z
in each slot with slot 1 most significant.  Per slot that is the numeric
order of the two-bit digit ((x ^ z) << 1) | z, so `order_key` and its
packed twin sort words by integer comparison, with no label string built.

Scalar functions operate on NqaWord objects and arbitrary m; the packed_*
functions are the vectorized engine over numpy uint64 lanes (m <= 64, and
m <= 32 for packed_order_key) that backs the operator product, dense
application and decomposition elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DimensionError

__all__ = [
    "BlockIndex",
    "NqaWord",
    "SignedWord",
    "word_mul",
    "word_transpose",
    "omega",
    "epsilon",
    "degree",
    "parity",
    "order_key",
    "packed_mul",
    "packed_order_key",
    "packed_transpose_parity",
    "parity_table",
]

_ALPHABET = "IXZW"


class BlockIndex(Enum):
    """The four real 2x2 blocks, indexed by their (X, Z) exponent bits."""

    I = (0, 0)
    X = (1, 0)
    Z = (0, 1)
    W = (1, 1)

    @property
    def x_bit(self) -> int:
        return self.value[0]

    @property
    def z_bit(self) -> int:
        return self.value[1]

    @classmethod
    def from_bits(cls, x_bit: int, z_bit: int) -> "BlockIndex":
        return _BLOCK_BY_BITS[(x_bit & 1, z_bit & 1)]


_BLOCK_BY_BITS = {b.value: b for b in BlockIndex}


@dataclass(frozen=True, slots=True, repr=False)
class NqaWord:
    """One m-slot word, exponent vectors packed as integers."""

    m: int
    alpha: int
    beta: int

    def __post_init__(self):
        if self.m < 1:
            raise DimensionError(f"a word needs at least one slot, got m={self.m}")
        span = 1 << self.m
        if not (0 <= self.alpha < span and 0 <= self.beta < span):
            raise DimensionError(
                f"packed exponents out of range for m={self.m}: "
                f"alpha={self.alpha}, beta={self.beta}"
            )

    @classmethod
    def identity(cls, m: int) -> "NqaWord":
        return cls(m, 0, 0)

    @classmethod
    def single(cls, m: int, slot: int, block: BlockIndex) -> "NqaWord":
        """The word with `block` at `slot` (1-based) and I elsewhere."""
        if not 1 <= slot <= m:
            raise DimensionError(f"slot {slot} outside 1..{m}")
        shift = m - slot
        return cls(m, block.x_bit << shift, block.z_bit << shift)

    @classmethod
    def from_label(cls, label: str) -> "NqaWord":
        """Parse a literal such as 'ZIZ' (leftmost character is slot 1)."""
        if not label:
            raise DimensionError("empty word literal")
        alpha = beta = 0
        for ch in label:
            if ch not in _ALPHABET:
                raise DimensionError(f"bad block letter {ch!r} in word literal {label!r}")
            block = BlockIndex[ch]
            alpha = alpha << 1 | block.x_bit
            beta = beta << 1 | block.z_bit
        return cls(len(label), alpha, beta)

    @property
    def label(self) -> str:
        chars = []
        for slot in range(1, self.m + 1):
            shift = self.m - slot
            chars.append(BlockIndex.from_bits(self.alpha >> shift, self.beta >> shift).name)
        return "".join(chars)

    def block(self, slot: int) -> BlockIndex:
        if not 1 <= slot <= self.m:
            raise DimensionError(f"slot {slot} outside 1..{self.m}")
        shift = self.m - slot
        return BlockIndex.from_bits(self.alpha >> shift, self.beta >> shift)

    def blocks(self) -> tuple[BlockIndex, ...]:
        return tuple(self.block(k) for k in range(1, self.m + 1))

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"NqaWord({self.label!r})"


class SignedWord(NamedTuple):
    """A word together with a plus-or-minus-one sign, never folded together."""

    sign: int
    word: NqaWord


def _same_m(u: NqaWord, v: NqaWord) -> None:
    if u.m != v.m:
        raise DimensionError(f"slot counts differ: {u.m} vs {v.m}")


def word_mul(u: NqaWord, v: NqaWord) -> SignedWord:
    """Twisted product: sign is the parity of beta_u AND alpha_v."""
    _same_m(u, v)
    sign = -1 if (u.beta & v.alpha).bit_count() & 1 else 1
    return SignedWord(sign, NqaWord(u.m, u.alpha ^ v.alpha, u.beta ^ v.beta))


def word_transpose(u: NqaWord) -> SignedWord:
    """Transpose flips each slot's XZ order: sign (-1)^(alpha . beta)."""
    sign = -1 if (u.alpha & u.beta).bit_count() & 1 else 1
    return SignedWord(sign, u)


def omega(u: NqaWord, v: NqaWord) -> int:
    """Commutation grading bit: beta_u . alpha_v + beta_v . alpha_u mod 2."""
    _same_m(u, v)
    return ((u.beta & v.alpha).bit_count() + (v.beta & u.alpha).bit_count()) & 1


def epsilon(u: NqaWord, v: NqaWord) -> int:
    """Symmetric bicharacter: +1 when the words commute, -1 when they anticommute."""
    return -1 if omega(u, v) else 1


def degree(u: NqaWord) -> tuple[int, int]:
    """The word's exponent class (alpha, beta); one word per class."""
    return (u.alpha, u.beta)


def parity(u: NqaWord) -> int:
    """Total exponent parity (|alpha| + |beta|) mod 2, additive under products."""
    return (u.alpha.bit_count() + u.beta.bit_count()) & 1


def order_key(u: NqaWord) -> int:
    """Integer whose order among words of one m is the order of their labels.

    Slot k contributes the base-4 digit ((x ^ z) << 1) | z, which is 0, 1,
    2, 3 for I, W, X, Z; reading the bits of a mask as base-4 digits spreads
    them to the even bit positions.
    """
    return (int(format(u.alpha ^ u.beta, "b"), 4) << 1) | int(format(u.beta, "b"), 4)


# ---------------------------------------------------------------------------
# Packed vector engine: words as parallel uint64 lanes, m <= 64.

_PACKED_DTYPE = np.uint64


def _as_packed(a: Iterable[int] | np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=_PACKED_DTYPE)


def packed_mul(
    alpha_u: np.ndarray,
    beta_u: np.ndarray,
    alpha_v: np.ndarray,
    beta_v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched twisted product on packed words.

    Arguments are equal-shaped uint64 arrays (or int sequences).  Returns
    (sign_parity, alpha, beta) where sign_parity is 0 for +1 and 1 for -1,
    as a uint8 array.
    """
    au, bu, av, bv = map(_as_packed, (alpha_u, beta_u, alpha_v, beta_v))
    sign_parity = (np.bitwise_count(bu & av) & 1).astype(np.uint8)
    return sign_parity, au ^ av, bu ^ bv


_SPREAD_STEPS = tuple(
    (shift, _PACKED_DTYPE(mask))
    for shift, mask in (
        (16, 0x0000FFFF0000FFFF),
        (8, 0x00FF00FF00FF00FF),
        (4, 0x0F0F0F0F0F0F0F0F),
        (2, 0x3333333333333333),
        (1, 0x5555555555555555),
    )
)


def _spread_bits(x: np.ndarray) -> np.ndarray:
    """Move bit k of each 32-bit lane to bit 2k."""
    x = x & _PACKED_DTYPE(0xFFFFFFFF)
    for shift, mask in _SPREAD_STEPS:
        x = (x | (x << _PACKED_DTYPE(shift))) & mask
    return x


def packed_order_key(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """order_key on packed words with m <= 32, as uint64."""
    a, b = map(_as_packed, (alpha, beta))
    return (_spread_bits(a ^ b) << _PACKED_DTYPE(1)) | _spread_bits(b)


def packed_transpose_parity(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Transpose sign parities, 0 for +1 and 1 for -1, as uint8."""
    a, b = map(_as_packed, (alpha, beta))
    return (np.bitwise_count(a & b) & 1).astype(np.uint8)


def parity_table(mask: int, m: int) -> np.ndarray:
    """Signs (-1)^(mask . x) for every basis index x < 2^m, as float64."""
    if m > 64:
        raise DimensionError(f"parity table limited to m <= 64, got {m}")
    idx = np.arange(1 << m, dtype=_PACKED_DTYPE)
    bits = np.bitwise_count(idx & _PACKED_DTYPE(mask)) & 1
    return 1.0 - 2.0 * bits.astype(np.float64)
