"""Word-level arithmetic against the dense block oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BLOCKS, dense_word
from nqa import (
    BlockIndex,
    DimensionError,
    NqaWord,
    degree,
    epsilon,
    omega,
    order_key,
    packed_mul,
    packed_order_key,
    packed_transpose_parity,
    parity,
    word_mul,
    word_transpose,
)

ALL_LABELS_2 = [a + b for a in "IXZW" for b in "IXZW"]


def test_block_relations():
    i, x, z, w = BLOCKS["I"], BLOCKS["X"], BLOCKS["Z"], BLOCKS["W"]
    assert np.array_equal(x @ x, i)
    assert np.array_equal(z @ z, i)
    assert np.array_equal(w @ w, -i)
    assert np.array_equal(x @ z, w)
    assert np.array_equal(z @ x, -w)


def test_block_bit_indexing():
    assert BlockIndex.I.value == (0, 0)
    assert BlockIndex.X.value == (1, 0)
    assert BlockIndex.Z.value == (0, 1)
    assert BlockIndex.W.value == (1, 1)
    assert BlockIndex.from_bits(1, 1) is BlockIndex.W


def test_label_roundtrip_exhaustive_m3():
    for a in "IXZW":
        for b in "IXZW":
            for c in "IXZW":
                label = a + b + c
                word = NqaWord.from_label(label)
                assert word.label == label
                assert word.m == 3
                assert [blk.name for blk in word.blocks()] == [a, b, c]


def test_packing_slot_one_is_most_significant():
    word = NqaWord.from_label("XIZ")
    assert word.alpha == 0b100
    assert word.beta == 0b001
    assert NqaWord.single(3, 1, BlockIndex.X) == NqaWord(3, 0b100, 0)
    assert NqaWord.single(3, 3, BlockIndex.Z) == NqaWord(3, 0, 0b001)


def test_word_validation():
    with pytest.raises(DimensionError):
        NqaWord(0, 0, 0)
    with pytest.raises(DimensionError):
        NqaWord(2, 4, 0)
    with pytest.raises(DimensionError):
        NqaWord.from_label("XY")
    with pytest.raises(DimensionError):
        NqaWord.from_label("")


def test_basis_action_exhaustive_m3():
    # column x of the dense matrix must be (-1)^(beta.x) at row (x xor alpha)
    for alpha in range(8):
        for beta in range(8):
            word = NqaWord(3, alpha, beta)
            mat = dense_word(word.label)
            for x in range(8):
                col = mat[:, x]
                expected = np.zeros(8)
                expected[x ^ alpha] = -1.0 if bin(beta & x).count("1") % 2 else 1.0
                assert np.array_equal(col, expected), word.label


def test_twisted_product_exhaustive_m2():
    for la in ALL_LABELS_2:
        for lb in ALL_LABELS_2:
            u, v = NqaWord.from_label(la), NqaWord.from_label(lb)
            sign, prod = word_mul(u, v)
            assert np.array_equal(
                dense_word(la) @ dense_word(lb), sign * dense_word(prod.label)
            ), (la, lb)


def test_transpose_exhaustive_m2():
    for la in ALL_LABELS_2:
        word = NqaWord.from_label(la)
        sign, same = word_transpose(word)
        assert same == word
        assert np.array_equal(dense_word(la).T, sign * dense_word(la))
        # involution
        sign2, _ = word_transpose(same)
        assert sign * sign2 == 1 or sign == sign2  # sign in {+1,-1}, squares to +1
        assert sign2 == sign


def test_commutation_grading_exhaustive_m2():
    for la in ALL_LABELS_2:
        for lb in ALL_LABELS_2:
            u, v = NqaWord.from_label(la), NqaWord.from_label(lb)
            su, uv = word_mul(u, v)
            sv, vu = word_mul(v, u)
            assert uv == vu
            assert su * sv == epsilon(u, v)
            assert epsilon(u, v) == epsilon(v, u)
            assert omega(u, v) == (0 if epsilon(u, v) == 1 else 1)


def test_associativity_seeded():
    rng = np.random.default_rng(7)
    m = 8
    for _ in range(10_000):
        a, b, c = (NqaWord(m, int(rng.integers(0, 256)), int(rng.integers(0, 256))) for _ in range(3))
        s1, ab = word_mul(a, b)
        s2, ab_c = word_mul(ab, c)
        t1, bc = word_mul(b, c)
        t2, a_bc = word_mul(a, bc)
        assert ab_c == a_bc
        assert s1 * s2 == t1 * t2


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.data())
def test_sign_bicharacter_property(m, data):
    bits = st.integers(0, (1 << m) - 1)
    u = NqaWord(m, data.draw(bits), data.draw(bits))
    v = NqaWord(m, data.draw(bits), data.draw(bits))
    w = NqaWord(m, data.draw(bits), data.draw(bits))
    # sign(u, v*w) * sign(v, w) == sign(u*v, w) * sign(u, v)  (cocycle identity)
    s_vw, vw = word_mul(v, w)
    s_u_vw, _ = word_mul(u, vw)
    s_uv, uv = word_mul(u, v)
    s_uv_w, _ = word_mul(uv, w)
    assert s_u_vw * s_vw == s_uv_w * s_uv
    # parity is additive
    assert parity(uv) == (parity(u) + parity(v)) % 2
    # degree is the exponent pair
    assert degree(u) == (u.alpha, u.beta)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_product_matches_dense_property(m, data):
    bits = st.integers(0, (1 << m) - 1)
    u = NqaWord(m, data.draw(bits), data.draw(bits))
    v = NqaWord(m, data.draw(bits), data.draw(bits))
    sign, prod = word_mul(u, v)
    assert np.allclose(
        dense_word(u.label) @ dense_word(v.label), sign * dense_word(prod.label)
    )


def test_packed_mul_matches_scalar():
    rng = np.random.default_rng(5)
    n = 4096
    hi = np.uint64(0xFFFFFFFFFFFFFFFF)
    au = rng.integers(0, hi, size=n, dtype=np.uint64, endpoint=True)
    bu = rng.integers(0, hi, size=n, dtype=np.uint64, endpoint=True)
    av = rng.integers(0, hi, size=n, dtype=np.uint64, endpoint=True)
    bv = rng.integers(0, hi, size=n, dtype=np.uint64, endpoint=True)
    par, alpha, beta = packed_mul(au, bu, av, bv)
    for k in range(0, n, 97):
        u = NqaWord(64, int(au[k]), int(bu[k]))
        v = NqaWord(64, int(av[k]), int(bv[k]))
        sign, prod = word_mul(u, v)
        assert int(alpha[k]) == prod.alpha
        assert int(beta[k]) == prod.beta
        assert (-1) ** int(par[k]) == sign


def test_packed_transpose_parity_matches_scalar():
    rng = np.random.default_rng(6)
    n = 512
    alpha = rng.integers(0, 1 << 48, size=n, dtype=np.uint64)
    beta = rng.integers(0, 1 << 48, size=n, dtype=np.uint64)
    par = packed_transpose_parity(alpha, beta)
    for k in range(0, n, 31):
        sign, _ = word_transpose(NqaWord(64, int(alpha[k]), int(beta[k])))
        assert (-1) ** int(par[k]) == sign


def _packed_keys(words):
    alpha = np.array([w.alpha for w in words], dtype=np.uint64)
    beta = np.array([w.beta for w in words], dtype=np.uint64)
    return packed_order_key(alpha, beta)


def test_order_key_is_label_order_exhaustive_m3():
    for m in (1, 2, 3):
        words = [NqaWord(m, a, b) for a in range(1 << m) for b in range(1 << m)]
        by_label = sorted(words, key=lambda w: w.label)
        assert sorted(words, key=order_key) == by_label
        keys = _packed_keys(words)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [order_key(w) for w in words]
        assert [words[i] for i in np.argsort(keys)] == by_label


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 70), st.data())
def test_order_key_is_label_order_property(m, data):
    bits = st.integers(0, (1 << m) - 1)
    u = NqaWord(m, data.draw(bits), data.draw(bits))
    v = NqaWord(m, data.draw(bits), data.draw(bits))
    assert (order_key(u) < order_key(v)) == (u.label < v.label)
    assert (order_key(u) == order_key(v)) == (u == v)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 32), st.data())
def test_packed_order_key_matches_scalar(m, data):
    bits = st.integers(0, (1 << m) - 1)
    words = data.draw(st.lists(st.builds(NqaWord, st.just(m), bits, bits), min_size=1, max_size=40))
    assert _packed_keys(words).tolist() == [order_key(w) for w in words]


def test_str_and_repr():
    word = NqaWord.from_label("ZIZ")
    assert str(word) == "ZIZ"
    assert repr(word) == "NqaWord('ZIZ')"
