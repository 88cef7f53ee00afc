"""Operator algebra against the independent dense oracle."""

import itertools

import numpy as np
import pytest

from helpers import dense_operator, dense_word, random_operator, random_word
from nqa import (
    DenseCapError,
    DimensionError,
    FactoredOperator,
    HomogeneityError,
    NqaOperator,
    NqaWord,
    Reflection,
    STATE_CAP,
    anticommutator,
    basis_state,
    commutator,
    epsilon,
    epsilon_commutator,
    frobenius,
    from_dense,
    is_orthogonal,
    op_mul,
    op_transpose,
    single_gate,
    supercommutator,
    tensor,
    to_dense,
    uniform_state,
    word_mul,
)


def test_construction_merges_and_prunes():
    w = NqaWord.from_label("XZ")
    op = NqaOperator(2, [(w, 0.5), (w, 0.5), (NqaWord.from_label("II"), 1e-16)])
    assert op.to_table() == [("XZ", 1.0)]
    assert NqaOperator(2, [(w, 0.25), (w, -0.25)]).is_zero()


def test_terms_sorted_by_label():
    op = NqaOperator.from_table(2, [("ZZ", 1.0), ("IX", 2.0), ("XI", 3.0)])
    assert [lbl for lbl, _ in op.to_table()] == ["IX", "XI", "ZZ"]


def test_immutability_and_equality():
    a = NqaOperator.from_label("XZ")
    b = NqaOperator.from_table(2, [("XZ", 1.0)])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.m = 3
    with pytest.raises(TypeError):
        a.terms[NqaWord.from_label("II")] = 1.0


def test_mixed_m_rejected():
    a = NqaOperator.from_label("X")
    b = NqaOperator.from_label("XX")
    for fn in (op_mul, commutator, anticommutator, frobenius):
        with pytest.raises(DimensionError):
            fn(a, b)
    with pytest.raises(TypeError):
        a * b  # scalar slot only


def test_scalar_arithmetic():
    a = NqaOperator.from_table(1, [("X", 1.0), ("Z", 2.0)])
    assert (2.0 * a).to_table() == [("X", 2.0), ("Z", 4.0)]
    assert (a - a).is_zero()
    assert (-a).to_table() == [("X", -1.0), ("Z", -2.0)]


def test_product_differential_random():
    rng = np.random.default_rng(42)
    for _ in range(500):
        m = int(rng.integers(1, 4))
        a = random_operator(rng, m)
        b = random_operator(rng, m)
        lhs = dense_operator(op_mul(a, b))
        rhs = dense_operator(a) @ dense_operator(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert np.max(np.abs(dense_operator(a @ b) - rhs)) <= 1e-12


def test_transpose_differential_random():
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        a = random_operator(rng, m)
        assert np.array_equal(dense_operator(op_transpose(a)), dense_operator(a).T)
        assert np.array_equal(dense_operator(a.transpose()), dense_operator(a).T)


def test_tensor_differential_random():
    rng = np.random.default_rng(44)
    for _ in range(200):
        ma = int(rng.integers(1, 3))
        mb = int(rng.integers(1, 3))
        a = random_operator(rng, ma)
        b = random_operator(rng, mb)
        got = dense_operator(tensor(a, b))
        want = np.kron(dense_operator(a), dense_operator(b))
        assert np.max(np.abs(got - want)) <= 1e-12


def test_to_dense_and_from_dense_roundtrip():
    rng = np.random.default_rng(45)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        a = random_operator(rng, m, terms=6)
        assert np.max(np.abs(to_dense(a) - dense_operator(a))) == 0.0
        back = from_dense(to_dense(a))
        assert back.allclose(a, tol=1e-12)


def test_from_dense_exact_single_words():
    for la in ("I", "X", "Z", "W"):
        for lb in ("I", "X", "Z", "W"):
            label = la + lb
            op = from_dense(dense_word(label))
            assert op.to_table() == [(label, 1.0)]


def test_from_dense_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        from_dense(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        from_dense(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        from_dense(np.zeros((1, 1)))
    with pytest.raises(DenseCapError):
        NqaOperator.identity(13).to_dense()


def test_frobenius_orthonormal_words():
    # <B_g, B_h> = delta_{gh} checked via the dense trace definition
    labels = [a + b for a in "IXZW" for b in "IXZW"]
    for la in labels:
        for lb in labels:
            da, db = dense_word(la), dense_word(lb)
            want = np.trace(da.T @ db) / 4.0
            got = frobenius(NqaOperator.from_label(la), NqaOperator.from_label(lb))
            assert got == (1.0 if la == lb else 0.0)
            assert abs(got - want) <= 1e-15


def test_frobenius_matches_dense_trace():
    rng = np.random.default_rng(46)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        a = random_operator(rng, m)
        b = random_operator(rng, m)
        want = np.trace(dense_operator(a).T @ dense_operator(b)) / (1 << m)
        assert abs(frobenius(a, b) - want) <= 1e-12


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(47)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        a = random_operator(rng, m, terms=5)
        v = rng.normal(size=1 << m)
        assert np.max(np.abs(a.apply(v) - dense_operator(a) @ v)) <= 1e-12


def test_commutators_match_dense():
    rng = np.random.default_rng(48)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        a = random_operator(rng, m)
        b = random_operator(rng, m)
        da, db = dense_operator(a), dense_operator(b)
        assert np.max(np.abs(dense_operator(commutator(a, b)) - (da @ db - db @ da))) <= 1e-12
        assert np.max(np.abs(dense_operator(anticommutator(a, b)) - (da @ db + db @ da))) <= 1e-12


def test_epsilon_commutator_vanishes_on_words():
    # the graded bracket of two single words is identically zero
    for m in (1, 2, 3):
        for au in range(1 << m):
            for bu in range(1 << m):
                u = NqaWord(m, au, bu)
                x = NqaOperator.from_word(u)
                for av in range(1 << m):
                    for bv in range(1 << m):
                        v = NqaWord(m, av, bv)
                        assert epsilon_commutator(x, NqaOperator.from_word(v)).is_zero()


def test_epsilon_commutator_definition():
    rng = np.random.default_rng(49)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        u, v = random_word(rng, m), random_word(rng, m)
        x = NqaOperator.from_word(u, float(rng.normal()))
        y = NqaOperator.from_word(v, float(rng.normal()))
        want = op_mul(x, y) - float(epsilon(u, v)) * op_mul(y, x)
        assert epsilon_commutator(x, y) == want


def test_supercommutator_matches_parity_rule():
    rng = np.random.default_rng(50)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        u, v = random_word(rng, m), random_word(rng, m)
        x = NqaOperator.from_word(u)
        y = NqaOperator.from_word(v)
        sign = -1.0 if (u.alpha.bit_count() + u.beta.bit_count()) % 2 and (v.alpha.bit_count() + v.beta.bit_count()) % 2 else 1.0
        want = op_mul(x, y) - sign * op_mul(y, x)
        assert supercommutator(x, y) == want


def test_homogeneity_checks():
    x = NqaOperator.from_label("X")
    mixed = x + NqaOperator.from_label("Z")
    assert x.homogeneous_word() == NqaWord.from_label("X")
    assert NqaOperator.zero(1).homogeneous_word() is None
    with pytest.raises(HomogeneityError):
        mixed.homogeneous_word()
    with pytest.raises(HomogeneityError):
        epsilon_commutator(mixed, x)
    # zero on either side short-circuits to zero
    assert epsilon_commutator(NqaOperator.zero(1), mixed).is_zero()


def test_states_and_orthogonality():
    v = basis_state(3, "101")
    assert v[0b101] == 1.0 and v.sum() == 1.0
    assert np.array_equal(v, basis_state(3, 5))
    u = uniform_state(2)
    assert np.allclose(u, 0.5)
    h = single_gate("H", 1, 1)
    assert is_orthogonal(h)
    assert not is_orthogonal(2.0 * h)


def test_factored_operator_semantics():
    h1 = single_gate("H", 1, 2)
    h2 = single_gate("H", 2, 2)
    fac = FactoredOperator(2, (h1, h2))
    assert len(fac) == 2
    v = np.arange(4.0)
    # factors apply right to left, matching the expanded product
    want = to_dense(h1) @ to_dense(h2) @ v
    assert np.allclose(fac.apply(v), want)
    assert np.allclose(to_dense(fac), to_dense(h1) @ to_dense(h2))
    assert fac.expand().allclose(h1 @ h2)
    with pytest.raises(DimensionError):
        FactoredOperator(2, (h1, single_gate("H", 1, 1)))


def test_reflection_semantics():
    p1 = single_gate("P1", 1, 2)
    p2 = single_gate("P1", 2, 2)
    refl = Reflection("11")
    assert refl.m == 2 and len(refl) == 2
    assert refl.factors == (p1, p2)
    dense = np.eye(4) - 2.0 * (to_dense(p1) @ to_dense(p2))
    assert np.array_equal(to_dense(refl), dense)
    v = np.arange(4.0) + 1.0
    assert np.array_equal(refl.apply(v), dense @ v)
    assert refl.expand() == from_dense(dense)
    assert refl.projector() == p1 @ p2
    flipped = Reflection("11", scale=-1)
    assert np.array_equal(to_dense(flipped), -dense)
    for bad in ("", "1x", "11 "):
        with pytest.raises(DimensionError):
            Reflection(bad)
    with pytest.raises(DimensionError):
        Reflection("11", scale=2)
    with pytest.raises(DimensionError):
        refl.apply(np.ones(8))


_SLOT_PROJECTORS = {
    "0": np.diag([1.0, 0.0]),
    "1": np.diag([0.0, 1.0]),
    "+": np.full((2, 2), 0.5),
    ".": np.eye(2),
}


def test_reflection_patterns_match_kronecker_oracle():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        n = 1 << m
        for chars in itertools.product("01+.", repeat=m):
            pattern = "".join(chars)
            proj = np.array([[1.0]])
            for ch in pattern:
                proj = np.kron(proj, _SLOT_PROJECTORS[ch])
            for scale in (1, -1):
                refl = Reflection(pattern, scale)
                want = scale * (np.eye(n) - 2.0 * proj)
                dense = refl.to_dense()
                assert np.array_equal(dense, want), (pattern, scale)
                assert np.array_equal(dense_operator(refl.expand()), want), (pattern, scale)
                v = rng.standard_normal(n)
                assert np.allclose(refl.apply(v), dense @ v, rtol=0, atol=1e-15), (pattern, scale)
                assert len(refl) == len(refl.factors) == m - pattern.count(".")


def test_state_and_expansion_caps_allocate_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    monkeypatch.setattr(np, "full", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(FactoredOperator, "expand", refuse)
    for m in (STATE_CAP + 1, 40):
        with pytest.raises(DenseCapError):
            uniform_state(m)
        with pytest.raises(DenseCapError):
            basis_state(m, 0)
        with pytest.raises(DenseCapError):
            Reflection("1" * m).expand()
        with pytest.raises(DenseCapError):
            Reflection("." + "+" * m, scale=-1).expand()
    # at the cap the check passes and the allocation is reached
    with pytest.raises(AssertionError):
        uniform_state(STATE_CAP)
    with pytest.raises(AssertionError):
        Reflection("1" * STATE_CAP + "." * 16).expand()


def test_str_output():
    op = NqaOperator.from_table(2, [("II", 0.5), ("XZ", -0.25)])
    assert str(op) == "+0.5*II -0.25*XZ"
    assert str(NqaOperator.zero(2)) == "0"
