"""The two op_mul paths: the packed engine against the scalar loop and the
dense oracle, plus the non-finite checks every operator passes."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_operator
from nqa import NqaOperator, NqaWord, NumericError, from_dense, op_mul
from nqa import operators
from nqa.operators import _op_mul_packed, _op_mul_scalar

# exact cancellations, products pruned at PRUNE_TOL, and generic values
_COEFF_STYLES = ("normal", "signs")


def _operator(rng, m, terms, style="normal"):
    table = {}
    while len(table) < min(terms, 4**m):
        word = NqaWord(m, int(rng.integers(0, 1 << m)), int(rng.integers(0, 1 << m)))
        if style == "normal":
            table[word] = float(rng.normal())
        else:
            table[word] = float(rng.choice([-1.0, 1.0, -0.5, 0.1, 1e-8]))
    return NqaOperator(m, table)


def _terms(op):
    # the to_table() rows with words in place of labels: the same order and
    # exact coefficients, without building an O(m) label per term
    return op.m, list(op.items())


def _assert_paths_agree(a, b):
    want = _terms(_op_mul_scalar(a, b))
    assert _terms(_op_mul_packed(a, b)) == want
    assert _terms(op_mul(a, b)) == want


def _binned(m, a, b):
    return 4**m <= len(a) * len(b)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 48),
    st.integers(1, 48),
    st.sampled_from(_COEFF_STYLES),
    st.integers(0, 2**32 - 1),
)
def test_packed_matches_scalar_property(m, ka, kb, style, seed):
    # 1..2304 pairs straddle _PACKED_MIN_PAIRS; m <= 5 bins, larger m sorts
    rng = np.random.default_rng(seed)
    _assert_paths_agree(_operator(rng, m, ka, style), _operator(rng, m, kb, style))


@pytest.mark.parametrize(
    "m, ka, kb, binned",
    [
        (3, 8, 8, True),
        (6, 70, 80, True),
        (10, 8, 8, False),
        (20, 40, 40, False),
        (32, 30, 30, False),
    ],
)
def test_packed_matches_scalar_on_both_reductions(m, ka, kb, binned):
    rng = np.random.default_rng(m)
    for style in _COEFF_STYLES:
        a, b = _operator(rng, m, ka, style), _operator(rng, m, kb, style)
        assert _binned(m, a, b) == binned
        _assert_paths_agree(a, b)


@pytest.mark.parametrize("m, terms", [(5, 512), (12, 300)])
def test_packed_spans_several_blocks(m, terms):
    rng = np.random.default_rng(100 + m)
    a, b = _operator(rng, m, terms), _operator(rng, m, terms)
    assert len(a) * len(b) > operators._CHUNK_PAIRS
    assert _binned(m, a, b) == (m == 5)
    _assert_paths_agree(a, b)


def test_scalar_path_above_32_slots():
    rng = np.random.default_rng(33)
    a, b = _operator(rng, 33, 12), _operator(rng, 33, 12)
    assert len(a) * len(b) >= operators._PACKED_MIN_PAIRS
    assert _terms(op_mul(a, b)) == _terms(_op_mul_scalar(a, b))


def test_packed_matches_dense_oracle():
    rng = np.random.default_rng(44)
    for m in (1, 2, 3, 4):
        for ka, kb in ((6, 6), (16, 16), (40, 64)):
            a, b = _operator(rng, m, ka), _operator(rng, m, kb)
            got = dense_operator(_op_mul_packed(a, b))
            want = dense_operator(a) @ dense_operator(b)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_op_mul_performance():
    rng = np.random.default_rng(9)
    a, b = _operator(rng, 5, 1024), _operator(rng, 5, 1024)
    assert len(a) == len(b) == 1024
    op_mul(_operator(rng, 5, 8), _operator(rng, 5, 8))  # warm
    start = time.perf_counter()
    op_mul(a, b)
    assert time.perf_counter() - start < 0.5

    full = [NqaOperator(6, {NqaWord(6, x, z): float(rng.normal()) for x in range(64) for z in range(64)})
            for _ in range(2)]
    start = time.perf_counter()
    prod = op_mul(*full)
    assert time.perf_counter() - start < 1.0
    assert len(prod) == 4096


def test_constructor_rejects_non_finite():
    x = NqaWord.from_label("X")
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericError):
            NqaOperator(1, {x: bad})
    with pytest.raises(NumericError):
        NqaOperator(1, [(x, 1e308), (x, 1e308)])  # the merge overflows


def test_from_dense_rejects_non_finite():
    with pytest.raises(NumericError):
        from_dense([[float("nan"), 0.0], [0.0, 1.0]])
    with pytest.raises(NumericError):
        from_dense([[1.0, float("inf")], [0.0, 1.0]])


def test_op_mul_overflow_rejected_on_both_paths():
    big = 1e200 * NqaOperator.from_label("X")
    with pytest.raises(NumericError):
        op_mul(big, big)
    rng = np.random.default_rng(3)
    wide = 1e200 * _operator(rng, 4, 16)
    assert len(wide) ** 2 >= operators._PACKED_MIN_PAIRS
    with pytest.raises(NumericError):
        op_mul(wide, wide)
    with pytest.raises(NumericError):
        _op_mul_scalar(wide, wide)
