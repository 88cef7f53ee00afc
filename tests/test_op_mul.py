"""The columnar op_mul against the scalar reference and the dense oracle,
the constructor's merge order, the non-finite checks every operator
passes, the 64-slot operator cap and the read-only columns."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_operator, op_mul_reference
from nqa import (
    ComplexNqaOperator,
    DimensionError,
    NqaOperator,
    NqaWord,
    NumericError,
    from_dense,
    op_mul,
    phi,
    tensor,
    word_mul,
)
from nqa import operators

# exact cancellations, products pruned at PRUNE_TOL, and generic values
_COEFF_STYLES = ("normal", "signs")


def _random_word(rng, m):
    alpha, beta = rng.integers(0, 1 << m, size=2, dtype=np.uint64).tolist()
    return NqaWord(m, alpha, beta)


def _operator(rng, m, terms, style="normal"):
    table = {}
    while len(table) < min(terms, 4**m):
        word = _random_word(rng, m)
        if style == "normal":
            table[word] = float(rng.normal())
        else:
            table[word] = float(rng.choice([-1.0, 1.0, -0.5, 0.1, 1e-8]))
    return NqaOperator(m, table)


def _terms(op):
    # the to_table() rows with words in place of labels: the same order and
    # exact coefficients, without building an O(m) label per term
    return op.m, list(op.items())


def _assert_matches_reference(a, b):
    assert _terms(op_mul(a, b)) == _terms(op_mul_reference(a, b))


def _binned(m, a, b):
    return 4**m <= len(a) * len(b)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 64),
    st.integers(1, 48),
    st.integers(1, 48),
    st.sampled_from(_COEFF_STYLES),
    st.integers(0, 2**32 - 1),
)
def test_packed_matches_scalar_property(m, ka, kb, style, seed):
    # m <= 5 can bin, larger m merges; above 32 slots the label order takes
    # two key halves
    rng = np.random.default_rng(seed)
    _assert_matches_reference(_operator(rng, m, ka, style), _operator(rng, m, kb, style))


@pytest.mark.parametrize(
    "m, ka, kb, binned",
    [
        (3, 8, 8, True),
        (6, 70, 80, True),
        (10, 8, 8, False),
        (20, 40, 40, False),
        (32, 30, 30, False),
        (33, 30, 30, False),
        (64, 30, 30, False),
    ],
)
def test_packed_matches_scalar_on_both_reductions(m, ka, kb, binned):
    rng = np.random.default_rng(m)
    for style in _COEFF_STYLES:
        a, b = _operator(rng, m, ka, style), _operator(rng, m, kb, style)
        assert _binned(m, a, b) == binned
        _assert_matches_reference(a, b)


@pytest.mark.parametrize("m, terms", [(5, 512), (12, 300), (40, 200)])
def test_packed_spans_several_blocks(m, terms):
    rng = np.random.default_rng(100 + m)
    a, b = _operator(rng, m, terms), _operator(rng, m, terms)
    assert len(a) * len(b) > operators._CHUNK_PAIRS
    assert _binned(m, a, b) == (m == 5)
    _assert_matches_reference(a, b)


def test_op_mul_above_32_slots():
    # words that differ only in slots 33..m, and only in slots 1..32, so the
    # product's label order needs both key halves
    rng = np.random.default_rng(33)
    for m in (33, 40, 64):
        low = [NqaWord(m, x, z) for x, z in ((1, 0), (0, 1), (1, 1), (3, 2))]
        high = [NqaWord(m, x << (m - 32), z << (m - 32)) for x, z in ((1, 0), (0, 1), (1, 1))]
        a = NqaOperator(m, {w: float(rng.normal()) for w in low + high})
        b = NqaOperator(m, {w: float(rng.normal()) for w in high + low})
        _assert_matches_reference(a, b)
        labels = [label for label, _ in op_mul(a, b).to_table()]
        assert labels == sorted(labels, key=lambda s: s.translate(str.maketrans("IWXZ", "0123")))


def test_packed_matches_dense_oracle():
    rng = np.random.default_rng(44)
    for m in (1, 2, 3, 4):
        for ka, kb in ((6, 6), (16, 16), (40, 64)):
            a, b = _operator(rng, m, ka), _operator(rng, m, kb)
            got = dense_operator(op_mul(a, b))
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


def test_constructor_merges_repeats_in_input_order():
    # 1000 copies of one word over 40 orders of magnitude: a pairwise sum
    # (np.add.reduceat) rounds differently from the running sum
    rng = np.random.default_rng(7)
    coeffs = (rng.normal(size=1000) * 10.0 ** rng.integers(-20, 20, size=1000)).tolist()
    x, z = NqaWord.from_label("XZ"), NqaWord.from_label("ZI")
    terms = [(x, c) for c in coeffs]
    want = 0.0
    for c in coeffs:
        want += c
    assert want != float(np.sum(coeffs))
    op = NqaOperator(2, terms[:500] + [(z, 1.0)] + terms[500:])
    assert op.to_table() == [("XZ", want), ("ZI", 1.0)]
    cols = NqaOperator(2, alpha=[x.alpha] * 1000, beta=[x.beta] * 1000, coeffs=coeffs)
    assert cols.coeffs.tolist() == [want]


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
    # one pair, the merging reduction and the binned one, and the reference
    big = 1e200 * NqaOperator.from_label("X")
    with pytest.raises(NumericError):
        op_mul(big, big)
    rng = np.random.default_rng(3)
    for m in (4, 8):
        wide = 1e200 * _operator(rng, m, 16)
        with pytest.raises(NumericError):
            op_mul(wide, wide)
        with pytest.raises(NumericError):
            op_mul_reference(wide, wide)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the slot check")


def test_operators_capped_at_64_slots(monkeypatch):
    w65 = NqaWord(65, (1 << 64) | 1, 1 << 64)
    sign, prod = word_mul(w65, w65)  # words keep arbitrary m
    assert (sign, prod) == (-1, NqaWord.identity(65))
    assert w65.label == "W" + "I" * 63 + "X"
    a33 = NqaOperator.from_word(NqaWord.identity(33))
    a32 = NqaOperator.from_word(NqaWord.identity(32))
    wide = ComplexNqaOperator.from_real(NqaOperator.from_word(NqaWord.identity(64)))
    monkeypatch.setattr(operators, "np", _NoNumpy())
    for build in (
        lambda: NqaOperator(65, {w65: 1.0}),
        lambda: NqaOperator(65),
        lambda: tensor(a33, a32),
        lambda: phi(wide),
    ):
        with pytest.raises(DimensionError, match="64"):
            build()


def test_columns_are_read_only():
    op = NqaOperator.from_table(2, [("XZ", 1.0), ("ZI", -2.0)])
    for column in (op.alpha, op.beta, op.coeffs):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
    with pytest.raises(AttributeError):
        op.coeffs = np.zeros(2)
    assert op.alpha.dtype == op.beta.dtype == np.uint64
    assert op.coeffs.dtype == np.float64


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(0, 20), st.integers(0, 2**32 - 1))
def test_columns_read_back_as_words(m, terms, seed):
    rng = np.random.default_rng(seed)
    op = _operator(rng, m, terms)
    items = list(op.items())
    assert op.to_table() == [(w.label, c) for w, c in items]
    assert dict(op.terms) == dict(items)
    assert all(op.coeff(w) == c for w, c in items)
    assert hash(op) == hash((m, tuple(items)))
    assert op == NqaOperator(m, reversed(items))
