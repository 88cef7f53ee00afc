"""Reference answers for the benchmark, written without importing nqa.

Every function here works from the definitions alone, so a bug in the
package cannot hide in its own oracle:

* a word B(alpha, beta) on m slots is the Kronecker product, slot 1
  leftmost, of the 2x2 blocks I, X, Z, W = XZ, where slot k carries the
  bit (m - k) of alpha (the X exponent) and of beta (the Z exponent);
* it acts on basis vectors as B|x> = (-1)^(beta . x) |x xor alpha>;
* words multiply by the twisted rule
  B(a, b) B(a', b') = (-1)^(b . a') B(a xor a', b xor b');
* the coefficient of B(alpha, beta) in a 2^m x 2^m matrix M is
  2^-m sum_x (-1)^(beta . x) M[x xor alpha, x].

Operators are plain dicts {(alpha, beta): coeff}.
"""

from __future__ import annotations

import math

import numpy as np

BLOCKS = {
    "I": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "W": np.array([[0.0, -1.0], [1.0, 0.0]]),
}
_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "W"}
_BITS = {v: k for k, v in _LETTER.items()}


def label(alpha: int, beta: int, m: int) -> str:
    return "".join(
        _LETTER[(alpha >> (m - k)) & 1, (beta >> (m - k)) & 1] for k in range(1, m + 1)
    )


def bits(word: str) -> tuple[int, int]:
    alpha = beta = 0
    for ch in word:
        a, b = _BITS[ch]
        alpha = alpha << 1 | a
        beta = beta << 1 | b
    return alpha, beta


def from_labels(table) -> dict[tuple[int, int], float]:
    """{(alpha, beta): coeff} from (label, coeff) pairs, summing repeats."""
    out: dict[tuple[int, int], float] = {}
    for word, coeff in table:
        key = bits(word)
        out[key] = out.get(key, 0.0) + coeff
    return out


def word_product(a1: int, b1: int, a2: int, b2: int) -> tuple[int, int, int]:
    """Scalar twisted product: (sign, alpha, beta)."""
    sign = -1 if (b1 & a2).bit_count() & 1 else 1
    return sign, a1 ^ a2, b1 ^ b2


# ---------------------------------------------------------------------------
# dense oracles


def kron_dense(op: dict[tuple[int, int], float], m: int) -> np.ndarray:
    """Kronecker oracle: sum_w c_w B_w1 (x) ... (x) B_wm, contracted one
    slot at a time against the four 2x2 blocks."""
    coeffs = np.zeros(4 ** m)
    if op:
        keys = np.array(list(op), dtype=np.int64).reshape(-1, 2)
        index = np.zeros(len(keys), dtype=np.int64)
        for k in range(1, m + 1):
            a = (keys[:, 0] >> (m - k)) & 1
            b = (keys[:, 1] >> (m - k)) & 1
            index = index * 4 + a + 2 * b  # letters in the order I, X, Z, W
        np.add.at(coeffs, index, np.fromiter(op.values(), dtype=np.float64, count=len(op)))
    blocks = np.stack([BLOCKS[ch] for ch in "IXZW"])
    out = coeffs.reshape((4,) * m)
    for _ in range(m):
        out = np.tensordot(out, blocks, axes=([0], [0]))  # slot k becomes (row_k, col_k)
    out = out.transpose(list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2)))
    return out.reshape(1 << m, 1 << m)


def signs(beta: int, n: int) -> np.ndarray:
    """(-1)^(beta . x) for x < n."""
    x = np.arange(n, dtype=np.uint64)
    return 1.0 - 2.0 * (np.bitwise_count(x & np.uint64(beta)) & 1)


def trace_coeff(matrix: np.ndarray, alpha: int, beta: int) -> float:
    """2^-m sum_x (-1)^(beta . x) M[x xor alpha, x] for one word."""
    n = matrix.shape[0]
    x = np.arange(n)
    return float(np.dot(signs(beta, n), matrix[x ^ alpha, x]) / n)


def trace_coeffs(matrix: np.ndarray) -> np.ndarray:
    """All coefficients C[alpha, beta] of M by the trace formula, as one
    gather and one product with the (-1)^(beta . x) sign matrix."""
    n = matrix.shape[0]
    x = np.arange(n)
    gathered = matrix[x[:, None] ^ x[None, :], x[None, :]]  # [alpha, x]
    sign_matrix = np.stack([signs(beta, n) for beta in range(n)])  # [beta, x]
    return gathered @ sign_matrix.T / n


def apply_words(op: dict[tuple[int, int], float], vec: np.ndarray) -> np.ndarray:
    """Apply by the basis action B|x> = (-1)^(beta . x) |x xor alpha>."""
    n = vec.shape[0]
    x = np.arange(n)
    out = np.zeros(n)
    for (alpha, beta), coeff in op.items():
        out[x ^ alpha] += coeff * signs(beta, n) * vec
    return out


# ---------------------------------------------------------------------------
# symbolic oracles


def product_coeff(a: dict, b: dict, alpha: int, beta: int) -> float:
    """Coefficient of B(alpha, beta) in the product ab, by the sign rule."""
    total = 0.0
    for (a1, b1), c1 in a.items():
        c2 = b.get((a1 ^ alpha, b1 ^ beta))
        if c2 is not None:
            sign, _, _ = word_product(a1, b1, a1 ^ alpha, b1 ^ beta)
            total += sign * c1 * c2
    return total


def hadamard_conjugate(op: dict[tuple[int, int], float], m: int, slots) -> dict:
    """H_S op H_S for the H-layer on `slots`: per slot X <-> Z and W -> -W."""
    out = {}
    for (alpha, beta), coeff in op.items():
        for k in slots:
            bit = 1 << (m - k)
            a, b = alpha & bit, beta & bit
            if a and b:
                coeff = -coeff
            alpha = (alpha & ~bit) | (bit if b else 0)
            beta = (beta & ~bit) | (bit if a else 0)
        out[(alpha, beta)] = out.get((alpha, beta), 0.0) + coeff
    return out


def single_word(m: int, slot: int, letter: str) -> tuple[int, int]:
    a, b = _BITS[letter]
    shift = m - slot
    return a << shift, b << shift


def cz_table(m: int, p: int, q: int) -> dict:
    """CZ = (I + Z_p + Z_q - Z_p Z_q) / 2."""
    zp, zq = single_word(m, p, "Z"), single_word(m, q, "Z")
    return {(0, 0): 0.5, zp: 0.5, zq: 0.5, (0, zp[1] | zq[1]): -0.5}


def cnot_table(m: int, c: int, t: int) -> dict:
    """CNOT = (I + Z_c + X_t - Z_c X_t) / 2, control first."""
    zc, xt = single_word(m, c, "Z"), single_word(m, t, "X")
    return {(0, 0): 0.5, zc: 0.5, xt: 0.5, (xt[0], zc[1]): -0.5}


def h_table(m: int, k: int) -> dict:
    s = 1.0 / math.sqrt(2.0)
    return {single_word(m, k, "X"): s, single_word(m, k, "Z"): s}


# ---------------------------------------------------------------------------
# algorithms


def grover_expected(m: int) -> tuple[int, float, float]:
    """(iterations, theta, success) from the closed form sin^2((2t+1) theta)."""
    theta = math.asin(2.0 ** (-m / 2.0))
    t = round(math.pi / (4.0 * theta) - 0.5)
    return t, theta, math.sin((2 * t + 1) * theta) ** 2


def grover_iterate(m: int, marked: int) -> np.ndarray:
    """Diffusion after oracle: (2/n J - I)(I - 2 e e^T)."""
    n = 1 << m
    oracle = np.eye(n)
    oracle[marked, marked] = -1.0
    return (np.full((n, n), 2.0 / n) - np.eye(n)) @ oracle


def bv_secret(m: int, factors) -> str:
    """XOR of the factor list: wires listed an odd number of times."""
    flags = [0] * m
    for k in factors:
        flags[k - 1] ^= 1
    return "".join(str(f) for f in flags)


# ---------------------------------------------------------------------------
# comparisons


def close(got: float, want: float, scale: float = 1.0, rel: float = 1e-9) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(scale))


def tables_close(got: dict, want: dict, rel: float = 1e-9) -> bool:
    """Coefficient-wise agreement; a word missing on one side counts as 0."""
    scale = max((abs(c) for c in want.values()), default=1.0)
    return all(
        close(got.get(k, 0.0), want.get(k, 0.0), scale, rel) for k in got.keys() | want.keys()
    )


def dense_close(got: np.ndarray, want: np.ndarray, rel: float = 1e-9) -> bool:
    if got.shape != want.shape:
        return False
    scale = float(np.max(np.abs(want))) if want.size else 1.0
    return bool(np.max(np.abs(got - want), initial=0.0) <= rel * max(1.0, scale))
