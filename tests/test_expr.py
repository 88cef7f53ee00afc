"""Expression grammar, canonical printing, and evaluation."""

import math

import numpy as np
import pytest

from nqa import (
    EvaluationError,
    NqaOperator,
    ParseError,
    evaluate,
    format_expr,
    parse,
    single_gate,
    two_gate,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_scalar_forms():
    assert evaluate("1/2*II").to_table() == [("II", 0.5)]
    assert evaluate("0.25*X").to_table() == [("X", 0.25)]
    assert evaluate("sqrt(2)*Z").to_table() == [("Z", math.sqrt(2.0))]
    got = evaluate("1/sqrt(2)*(X+Z)")
    assert got.allclose(single_gate("H", 1, 1), tol=1e-15)
    assert evaluate("3/4*W").to_table() == [("W", 0.75)]


def test_exponent_scalars():
    assert evaluate("2.5e-3*X").to_table() == [("X", 0.0025)]
    assert evaluate("1E2*X + 3e+1*Z").to_table() == [("X", 100.0), ("Z", 30.0)]
    assert evaluate("RY(5e-1,1,1)") == evaluate("RY(0.5,1,1)")
    assert evaluate("H(1e0)") == evaluate("H(1)")
    # absolute pruning still drops tiny coefficients
    assert evaluate("1e-15*X").is_zero()
    # no digits after the e: the e stays a (bad) word, as before
    with pytest.raises(ParseError, match="'e' is neither a word"):
        parse("2e*X")
    with pytest.raises(ParseError):
        parse("2e-*X")
    with pytest.raises(ParseError, match="rational scalars need integer parts"):
        parse("1e3/2*X")
    with pytest.raises(EvaluationError, match="slot must be a nonnegative integer"):
        evaluate("H(1e400)")


def test_gate_products():
    # 1/sqrt(2) is not dyadic, so the conjugation lands a couple of ulp off
    conj = evaluate("H(1,1)*Z(1,1)*H(1,1)").to_table()
    assert len(conj) == 1 and conj[0][0] == "X"
    assert abs(conj[0][1] - 1.0) <= 1e-15
    assert evaluate("CZ(1,2)*CZ(1,2)").to_table() == [("II", 1.0)]
    assert evaluate("CZ(1,2)").allclose(two_gate("CZ", (1, 2), 2))
    # slot-count default: largest slot mentioned
    assert evaluate("H(2)").m == 2
    assert evaluate("H(1)").to_table() == single_gate("H", 1, 1).to_table()


def test_tensor_binds_tighter_than_product():
    got = evaluate("X(x)Z")
    assert got.to_table() == [("XZ", 1.0)]
    sum_tensor = evaluate("(X+Z)(x)I")
    assert sum_tensor.to_table() == [("XI", 1.0), ("ZI", 1.0)]
    chained = evaluate("X(x)Z(x)W")
    assert chained.to_table() == [("XZW", 1.0)]
    mixed = evaluate("X(x)Z*Z(x)Z")
    want = NqaOperator.from_label("XZ") @ NqaOperator.from_label("ZZ")
    assert mixed == want


def test_sum_difference_scaling():
    got = evaluate("2*X - Z + 0.5*W")
    assert got.to_table() == [("W", 0.5), ("X", 2.0), ("Z", -1.0)]
    nested = evaluate("X - (Z + W)")
    assert nested.to_table() == [("W", -1.0), ("X", 1.0), ("Z", -1.0)]


def test_structured_gates_in_expressions():
    assert evaluate("MCZ(1,2)").allclose(two_gate("CZ", (1, 2), 2), tol=1e-15)
    proj = evaluate("PROJ(10,1,2)")
    dense = proj.to_dense()
    want = np.zeros((4, 4))
    want[2, 2] = 1.0
    assert np.allclose(dense, want)
    # bit pattern keeps its leading zero through the lexer
    proj01 = evaluate("PROJ(01,1,2)")
    assert proj01.to_dense()[1, 1] == 1.0
    bell = evaluate("BELL()")
    assert len(bell) == 8


def test_phaseful_gates_must_cancel():
    with pytest.raises(EvaluationError):
        evaluate("S(1,1)")
    with pytest.raises(EvaluationError):
        evaluate("S(1,1)*S(1,1)")  # equals -i Z, still complex
    got = evaluate("S(1,1)*S(1,1)*S(1,1)*S(1,1)")
    assert got.allclose(NqaOperator.from_label("I") * -1.0, tol=1e-15)
    rz = evaluate("RZ(0.8,1,1)*RZ(-0.8,1,1)")
    assert rz.allclose(NqaOperator.from_label("I"), tol=1e-15)


def test_lifted_gates_in_expressions():
    iswap = evaluate("ISWAP()")
    assert iswap.m == 3
    assert iswap.to_table() == [("III", 0.5), ("WWW", -0.5), ("XXW", 0.5), ("ZZI", 0.5)]
    sq = evaluate("SQRTSWAP()*SQRTSWAP()")
    swap_lift = evaluate("SWAP(1,2)(x)I")
    assert sq.allclose(swap_lift, tol=1e-12)
    rz3 = evaluate("RZ(0.6)")
    assert rz3.m == 3
    cart = evaluate("CARTAN(0.3,0.4,0.5)")
    assert cart.m == 3


def test_bare_scalar_is_an_error():
    with pytest.raises(EvaluationError):
        evaluate("1/2")
    with pytest.raises(EvaluationError):
        evaluate("2*3")
    with pytest.raises(EvaluationError):
        evaluate("X + 1")


def test_dimension_mismatch_reported():
    with pytest.raises(EvaluationError):
        evaluate("X + ZZ")
    with pytest.raises(EvaluationError):
        evaluate("X*ZZ")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("X + ")
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse("XY")
    assert err.value.position == 0
    assert "column 1" in str(err.value)
    with pytest.raises(ParseError):
        parse("H(1")
    with pytest.raises(ParseError):
        parse("1/0*X")
    with pytest.raises(ParseError):
        parse("-X")
    with pytest.raises(ParseError):
        parse("X & Z")
    with pytest.raises(ParseError):
        parse("X Z")  # juxtaposition is not a product


def test_unknown_gate_and_arity_errors():
    with pytest.raises(EvaluationError):
        evaluate("Q(1)")
    with pytest.raises(EvaluationError):
        evaluate("H()")
    with pytest.raises(EvaluationError):
        evaluate("H(1,2,3)")
    with pytest.raises(EvaluationError):
        evaluate("CZ(1,1)")
    with pytest.raises(EvaluationError):
        evaluate("RY(1)")  # missing slot
    with pytest.raises(EvaluationError):
        evaluate("H(0.5)")  # slots are integers


def test_gate_args_accept_negative_and_scalar_forms():
    a = evaluate("RY(-0.5,1,1)")
    b = single_gate("RY", 1, 1, -0.5)
    assert a.allclose(b, tol=1e-15)
    c = evaluate("ROT(1/2,1,1)")
    assert c.allclose(single_gate("ROT", 1, 1, 0.5), tol=1e-15)
    d = evaluate("CPHASE(1/sqrt(2))")
    assert d.m == 3


def test_format_round_trip_stability():
    cases = [
        "1/sqrt(2)*(X+Z)",
        "H(1,1)*Z(1,1)*H(1,1)",
        "X - (Z + W)",
        "2*X-Z+0.5*W",
        "X(x)Z(x)W",
        "(X+Z)(x)I",
        "0.5*(II + ZI + IZ - ZZ)",
        "RY(-0.5,1,1)*ROT(1/2,1,1)",
        "sqrt(2)*Z - 3/4*W",
        "PROJ(01,1,2)",
        "X*(Z*W)",
        "X(x)(Z(x)W)",
        "2.5e-3*X + 1E2*(Z - 3e+1*W)",
        "RY(-5e-1,1,1)",
    ]
    for src in cases:
        once = format_expr(parse(src))
        twice = format_expr(parse(once))
        assert once == twice, src
        # printing preserves meaning for operator-valued expressions
        assert evaluate(src) == evaluate(once)


def test_format_examples():
    assert format_expr(parse("1/sqrt(2)*(X+Z)")) == "1/sqrt(2)*(X + Z)"
    assert format_expr(parse("X-(Z+W)")) == "X - (Z + W)"
    assert format_expr(parse("h(1,1)")) == "H(1,1)"
    assert format_expr(parse("X(x)Z*W(x)I")) == "X(x)Z*W(x)I"
    assert format_expr(parse("2(II+ZZ)")) == "2*(II + ZZ)"
    assert format_expr(parse("2.5e-3X+1E+2*Z")) == "2.5e-3*X + 1E+2*Z"


def test_evaluate_accepts_parsed_nodes():
    node = parse("X+Z")
    assert evaluate(node).to_table() == [("X", 1.0), ("Z", 1.0)]
