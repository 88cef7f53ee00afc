"""Gate library: pinned coefficient tables plus dense textbook forms."""

import math

import numpy as np
import pytest

from helpers import dense_complex, dense_operator
from nqa import (
    DimensionError,
    ExponentialFormError,
    NqaOperator,
    bell_transform,
    cartan_factors,
    cphase_complex,
    iswap_complex,
    lifted_gate,
    mcz,
    phi,
    real_exponential,
    single_gate,
    sqrtswap_complex,
    to_dense,
    two_gate,
    word_pair,
)
from nqa.words import BlockIndex

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_single_gate_tables():
    assert single_gate("H", 1, 1).to_table() == [("X", INV_SQRT2), ("Z", INV_SQRT2)]
    assert single_gate("X", 2, 2).to_table() == [("IX", 1.0)]
    assert single_gate("P0", 1, 1).to_table() == [("I", 0.5), ("Z", 0.5)]
    assert single_gate("P1", 1, 1).to_table() == [("I", 0.5), ("Z", -0.5)]
    theta = 0.37
    assert single_gate("RY", 1, 1, theta).to_table() == [
        ("I", math.cos(theta / 2.0)),
        ("W", math.sin(theta / 2.0)),
    ]
    assert single_gate("ROT", 1, 1, theta).to_table() == [
        ("I", math.cos(theta)),
        ("W", math.sin(theta)),
    ]
    assert single_gate("REF", 1, 1, theta).to_table() == [
        ("X", math.sin(2.0 * theta)),
        ("Z", math.cos(2.0 * theta)),
    ]


def test_phaseful_single_gate_tables():
    s = single_gate("S", 1, 1)
    assert s.re.to_table() == [("I", INV_SQRT2)]
    assert s.im.to_table() == [("Z", -INV_SQRT2)]
    t = single_gate("T", 1, 1)
    assert t.re.to_table() == [("I", math.cos(math.pi / 8.0))]
    assert t.im.to_table() == [("Z", -math.sin(math.pi / 8.0))]
    theta = 1.1
    rz = single_gate("RZ", 1, 1, theta)
    assert rz.re.to_table() == [("I", math.cos(theta / 2.0))]
    assert rz.im.to_table() == [("Z", -math.sin(theta / 2.0))]


def test_single_gate_dense_textbook():
    h = dense_operator(single_gate("H", 1, 1))
    assert np.allclose(h, np.array([[1.0, 1.0], [1.0, -1.0]]) * INV_SQRT2)
    s = dense_complex(single_gate("S", 1, 1))
    # S = e^{-i pi/4 Z} up to global phase: diag(e^{-i pi/4}, e^{+i pi/4})
    assert np.allclose(s, np.diag([np.exp(-1j * np.pi / 4.0), np.exp(1j * np.pi / 4.0)]))
    theta = 0.9
    ry = dense_operator(single_gate("RY", 1, 1, theta))
    c, sn = math.cos(theta / 2.0), math.sin(theta / 2.0)
    assert np.allclose(ry, np.array([[c, -sn], [sn, c]]))


def test_single_gate_argument_checks():
    with pytest.raises(DimensionError):
        single_gate("H", 3, 2)
    with pytest.raises(DimensionError):
        single_gate("H", 1, 1, 0.5)  # H takes no angle
    with pytest.raises(DimensionError):
        single_gate("RY", 1, 1)  # RY needs one
    with pytest.raises(DimensionError):
        single_gate("NOPE", 1, 1)


def test_two_gate_tables():
    assert two_gate("CZ", (1, 2), 2).to_table() == [
        ("II", 0.5), ("IZ", 0.5), ("ZI", 0.5), ("ZZ", -0.5),
    ]
    assert two_gate("CNOT", (1, 2), 2).to_table() == [
        ("II", 0.5), ("IX", 0.5), ("ZI", 0.5), ("ZX", -0.5),
    ]
    assert two_gate("SWAP", (1, 2), 2).to_table() == [
        ("II", 0.5), ("WW", -0.5), ("XX", 0.5), ("ZZ", 0.5),
    ]
    assert two_gate("PI_EVEN", (1, 2), 2).to_table() == [("II", 0.5), ("ZZ", 0.5)]
    assert two_gate("PI_ODD", (1, 2), 2).to_table() == [("II", 0.5), ("ZZ", -0.5)]


def test_two_gate_dense_textbook():
    assert np.allclose(to_dense(two_gate("CZ", (1, 2), 2)), np.diag([1.0, 1.0, 1.0, -1.0]))
    cnot = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    assert np.allclose(to_dense(two_gate("CNOT", (1, 2), 2)), cnot)
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(to_dense(two_gate("SWAP", (1, 2), 2)), swap)


def test_two_gate_embedding_and_checks():
    # CZ on slots (1, 3) of m=3 acts as CZ x I reordered: check dense directly
    op = two_gate("CZ", (1, 3), 3)
    want = np.diag([1.0 if not (x >> 2 & 1 and x & 1) else -1.0 for x in range(8)])
    assert np.allclose(to_dense(op), want)
    with pytest.raises(DimensionError):
        two_gate("CZ", (1, 1), 2)
    with pytest.raises(DimensionError):
        two_gate("CZ", (1, 3), 2)
    with pytest.raises(DimensionError):
        two_gate("BASIS_PROJECTOR", (1, 2), 2)  # needs bits


def test_basis_projector():
    op = two_gate("BASIS_PROJECTOR", (1, 2), 2, "10")
    dense = np.zeros((4, 4))
    dense[0b10, 0b10] = 1.0
    assert np.allclose(to_dense(op), dense)
    assert len(op) == 4  # product of two rank-one slot projectors
    with pytest.raises(DimensionError):
        two_gate("BASIS_PROJECTOR", (1, 2), 2, "102")


def test_word_pair():
    w = word_pair(3, 1, BlockIndex.X, 3, BlockIndex.Z)
    assert w.label == "XIZ"


def test_bell_transform_table_and_columns():
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    assert bell_transform().to_table() == [
        ("II", scale), ("IX", -scale), ("WI", -scale), ("WX", scale),
        ("XI", scale), ("XX", scale), ("ZI", scale), ("ZX", scale),
    ]
    dense = to_dense(bell_transform())
    h_first = to_dense(two_gate("CNOT", (1, 2), 2)) @ np.kron(
        dense_operator(single_gate("H", 1, 1)), np.eye(2)
    )
    assert np.max(np.abs(dense - h_first)) <= 1e-15
    # columns are the four Bell states
    r = INV_SQRT2
    assert np.allclose(dense[:, 0], [r, 0.0, 0.0, r])
    assert np.allclose(dense[:, 2], [r, 0.0, 0.0, -r])
    assert np.allclose(dense[:, 1], [0.0, r, r, 0.0])
    assert np.allclose(dense[:, 3], [0.0, r, -r, 0.0])


def test_mcz_semantics_and_size():
    for m, controls in ((2, (1, 2)), (3, (1, 3)), (4, (2, 3, 4))):
        refl = mcz(controls, m)
        dense = to_dense(refl)
        diag = np.ones(1 << m)
        mask = 0
        for c in controls:
            mask |= 1 << (m - c)
        for x in range(1 << m):
            if x & mask == mask:
                diag[x] = -1.0
        assert np.allclose(dense, np.diag(diag))
        assert len(refl.projector()) == 1 << len(controls)
        if len(controls) >= 2:
            assert len(refl.expand()) == 1 << len(controls)
    # a single control collapses to a plain Z word
    assert mcz((2,), 3).expand().to_table() == [("IZI", 1.0)]
    # duplicate controls collapse (projectors are idempotent)
    assert mcz((1, 1, 2), 2).expand() == mcz((1, 2), 2).expand()
    with pytest.raises(DimensionError):
        mcz((), 2)
    with pytest.raises(DimensionError):
        mcz((3,), 2)


def test_mcz_dense_is_expanded_table():
    for m in range(1, 7):
        for controls in ((1,), tuple(range(1, m + 1)), tuple(range(m, 0, -2))):
            refl = mcz(controls, m)
            assert refl.to_dense().tobytes() == dense_operator(refl.expand()).tobytes()


def test_iswap_dense():
    got = dense_complex(iswap_complex())
    want = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1j, 0.0],
        [0.0, 1j, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.max(np.abs(got - want)) <= 1e-15


def test_sqrtswap_dense_and_square():
    got = dense_complex(sqrtswap_complex())
    p, q = (1.0 + 1j) / 2.0, (1.0 - 1j) / 2.0
    want = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, p, q, 0.0],
        [0.0, q, p, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    assert np.max(np.abs(got - want)) <= 1e-15
    square = sqrtswap_complex() @ sqrtswap_complex()
    assert square.im.is_zero()
    assert square.re.allclose(two_gate("SWAP", (1, 2), 2), tol=1e-15)


def test_cphase_dense():
    for angle in (0.0, 0.4, math.pi / 2.0, math.pi):
        got = dense_complex(cphase_complex(angle))
        want = np.diag([1.0, 1.0, 1.0, np.exp(1j * angle)])
        assert np.max(np.abs(got - want)) <= 1e-14


def test_lifted_tables_on_three_slots():
    assert lifted_gate("ISWAP").to_table() == [
        ("III", 0.5), ("WWW", -0.5), ("XXW", 0.5), ("ZZI", 0.5),
    ]
    assert lifted_gate("SQRTSWAP").to_table() == [
        ("III", 0.75), ("IIW", 0.25), ("WWI", -0.25), ("WWW", 0.25),
        ("XXI", 0.25), ("XXW", -0.25), ("ZZI", 0.25), ("ZZW", -0.25),
    ]
    theta = 0.8
    rz = lifted_gate("RZ", theta)
    assert rz.to_table() == [
        ("III", math.cos(theta / 2.0)), ("ZIW", -math.sin(theta / 2.0)),
    ]
    with pytest.raises(DimensionError):
        lifted_gate("ISWAP", 1.0)
    with pytest.raises(DimensionError):
        lifted_gate("NOPE")


def test_cartan_factors_compose_to_iswap():
    fac = cartan_factors(math.pi / 4.0, math.pi / 4.0, 0.0)
    assert len(fac) == 3
    got = fac.expand()
    assert got.allclose(phi(iswap_complex()), tol=1e-12)


def test_cartan_factors_commute():
    fac = cartan_factors(0.3, 0.7, 1.1)
    a, b, c = fac.factors
    assert (a @ b).allclose(b @ a, tol=1e-15)
    assert (b @ c).allclose(c @ b, tol=1e-15)


def test_real_exponential():
    w = NqaOperator.from_label("W")
    theta = 0.6
    rot = real_exponential(w, theta)
    assert rot.allclose(single_gate("ROT", 1, 1, theta), tol=1e-15)
    x = NqaOperator.from_label("X")
    hyp = real_exponential(x, theta)
    assert hyp.to_table() == [("I", math.cosh(theta)), ("X", math.sinh(theta))]
    dense = to_dense(hyp)
    want = np.cosh(theta) * np.eye(2) + np.sinh(theta) * dense_operator(x)
    assert np.allclose(dense, want)
    with pytest.raises(ExponentialFormError):
        real_exponential(NqaOperator.from_table(1, [("X", 1.0), ("Z", 1.0)]), 0.5)
    with pytest.raises(ExponentialFormError):
        real_exponential(NqaOperator.from_table(1, [("X", 1.0), ("W", 1.0)]), 0.5)
