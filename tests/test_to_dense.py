"""The scatter to_dense against the Kronecker oracle, bit for bit.

helpers.dense_operator adds coeff * (Kronecker matrix of the word) term by
term in canonical order, starting from zeros; to_dense must give the same
bytes, not merely close values.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_operator
from nqa import NqaOperator, NqaWord, word_to_dense
from nqa import operators


def _random_operator(rng, m, terms):
    words = rng.integers(0, 1 << m, size=(terms, 2))
    coeffs = rng.choice([-1.0, 0.5, 1e-8, 3.0], size=terms) * rng.normal(size=terms)
    return NqaOperator(m, [(NqaWord(m, int(a), int(b)), c) for (a, b), c in zip(words, coeffs)])


def _full_operator(rng, m):
    words = itertools.product(range(1 << m), repeat=2)
    return NqaOperator(m, {NqaWord(m, a, b): float(rng.normal()) for a, b in words})


def _assert_bit_identical(op):
    got = op.to_dense()
    want = dense_operator(op)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_words_exhaustive(m):
    for alpha, beta in itertools.product(range(1 << m), repeat=2):
        word = NqaWord(m, alpha, beta)
        assert word_to_dense(word).tobytes() == dense_operator(NqaOperator.from_word(word)).tobytes()
        _assert_bit_identical(NqaOperator.from_word(word, -0.3))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4096), st.integers(0, 2**32 - 1))
def test_matches_kronecker_sum_property(m, terms, seed):
    # up to 4^m distinct terms after merging: every entry gets many
    # contributions, so a change of summation order would show
    rng = np.random.default_rng(seed)
    _assert_bit_identical(_random_operator(rng, m, min(terms, 4**m)))


def test_chunk_boundaries():
    rng = np.random.default_rng(5)
    # m = 6: blocks of 2^14 >> 6 = 256 terms, so 16 blocks, and one short of
    # and one past the first boundary
    full = _full_operator(rng, 6)
    _assert_bit_identical(full)
    step = operators._CHUNK_ENTRIES >> 6
    for size in (step, step + 1):
        _assert_bit_identical(NqaOperator(6, list(full.items())[:size]))


def test_tiny_chunks_split_word_groups(monkeypatch):
    # blocks of 3 terms split runs of words sharing alpha (and so sharing
    # entries) across np.add.at calls
    monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 3 << 4)
    rng = np.random.default_rng(6)
    _assert_bit_identical(_full_operator(rng, 4))
    _assert_bit_identical(_random_operator(rng, 4, 50))


def test_empty_operator_is_zero_matrix():
    out = NqaOperator.zero(3).to_dense()
    assert out.shape == (8, 8) and not out.any()
