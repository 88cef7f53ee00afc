"""Shared test utilities: an independent dense oracle, the scalar product
reference and random generators.

dense_word builds matrices straight from the four 2x2 blocks with np.kron,
so comparisons against it exercise the symbolic layer without trusting its
own dense bridge.  op_mul_reference multiplies term by term with word_mul,
so comparisons against it check the columnar op_mul bit for bit.
"""

import numpy as np

from nqa import ComplexNqaOperator, NqaOperator, NqaWord, word_mul

BLOCKS = {
    "I": np.array([[1.0, 0.0], [0.0, 1.0]]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "W": np.array([[0.0, -1.0], [1.0, 0.0]]),
}


def dense_word(label: str) -> np.ndarray:
    out = np.array([[1.0]])
    for ch in label:
        out = np.kron(out, BLOCKS[ch])
    return out


def dense_operator(op: NqaOperator) -> np.ndarray:
    n = 1 << op.m
    out = np.zeros((n, n))
    for label, coeff in op.to_table():
        out += coeff * dense_word(label)
    return out


def op_mul_reference(a: NqaOperator, b: NqaOperator) -> NqaOperator:
    """The operator product by one word_mul per term pair, each word's
    contributions added in pair order from 0.0."""
    acc: dict[NqaWord, float] = {}
    b_items = list(b.items())
    for wu, cu in a.items():
        for wv, cv in b_items:
            sign, w = word_mul(wu, wv)
            contrib = cu * cv if sign > 0 else -(cu * cv)
            acc[w] = acc.get(w, 0.0) + contrib
    return NqaOperator(a.m, acc)


def dense_complex(op: ComplexNqaOperator) -> np.ndarray:
    return dense_operator(op.re) + 1j * dense_operator(op.im)


def random_word(rng: np.random.Generator, m: int) -> NqaWord:
    return NqaWord(m, int(rng.integers(0, 1 << m)), int(rng.integers(0, 1 << m)))


def random_operator(rng: np.random.Generator, m: int, terms: int = 4) -> NqaOperator:
    table = {}
    for _ in range(terms):
        table[random_word(rng, m)] = float(rng.normal())
    return NqaOperator(m, table)


def random_complex(rng: np.random.Generator, m: int, terms: int = 3) -> ComplexNqaOperator:
    return ComplexNqaOperator(
        m, random_operator(rng, m, terms), random_operator(rng, m, terms)
    )


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))
