"""Gate constructors as exact word coefficient tables.

Real gates return NqaOperator on the requested register; phaseful gates
(S, T, Rz) return ComplexNqaOperator and are lifted explicitly by the
caller through realify.phi, which keeps the extra lane visible.  Lifted
two-qubit forms (iSWAP, sqrtSWAP, Cartan factors, CPhase, lifted Rz) are
produced by realifying their complex tables and land on three slots, the
phase lane last.

Conventions: slots are 1-based, slot 1 most significant; CNOT takes
(control, target); MCZ is kept as a structured Reflection
identity - 2 * product of P1 projectors on the controls (pattern '1' on
the controls, '.' elsewhere) and is never expanded implicitly.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DimensionError, ExponentialFormError
from .operators import (
    NqaOperator,
    FactoredOperator,
    Reflection,
    op_mul,
)
from .realify import ComplexNqaOperator, phi
from .words import BlockIndex, NqaWord

__all__ = [
    "single_gate",
    "two_gate",
    "mcz",
    "lifted_gate",
    "bell_transform",
    "real_exponential",
    "SINGLE_GATE_NAMES",
    "TWO_GATE_NAMES",
    "LIFTED_GATE_NAMES",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)

SINGLE_GATE_NAMES = ("H", "X", "Z", "W", "S", "T", "RZ", "RY", "ROT", "REF", "P0", "P1")
TWO_GATE_NAMES = ("CZ", "CNOT", "SWAP", "PI_EVEN", "PI_ODD", "BASIS_PROJECTOR")
LIFTED_GATE_NAMES = ("ISWAP", "SQRTSWAP", "CARTAN", "CPHASE", "RZ")

_PARAMETRIC_SINGLE = {"RZ", "RY", "ROT", "REF"}


def _check_slot(slot: int, m: int) -> None:
    if not 1 <= slot <= m:
        raise DimensionError(f"slot {slot} outside 1..{m}")


def _single_word(m: int, slot: int, block: BlockIndex) -> NqaWord:
    return NqaWord.single(m, slot, block)


def _op(m: int, terms: Iterable[tuple[NqaWord, float]]) -> NqaOperator:
    return NqaOperator(m, list(terms))


def single_gate(name: str, slot: int, m: int, angle: float | None = None):
    """One-slot gate embedded with identity elsewhere.

    H, X, Z, W, Ry(angle), Rot(angle), Ref(angle), P0, P1 are real and
    return NqaOperator; S, T, Rz(angle) return ComplexNqaOperator.
    """
    key = name.upper()
    if key not in SINGLE_GATE_NAMES:
        raise DimensionError(f"unknown single gate {name!r}")
    _check_slot(slot, m)
    if key in _PARAMETRIC_SINGLE:
        if angle is None:
            raise DimensionError(f"gate {key} needs an angle")
    elif angle is not None:
        raise DimensionError(f"gate {key} takes no angle")

    ident = NqaWord.identity(m)
    x = _single_word(m, slot, BlockIndex.X)
    z = _single_word(m, slot, BlockIndex.Z)
    w = _single_word(m, slot, BlockIndex.W)

    if key == "H":
        return _op(m, [(x, _SQRT_HALF), (z, _SQRT_HALF)])
    if key == "X":
        return _op(m, [(x, 1.0)])
    if key == "Z":
        return _op(m, [(z, 1.0)])
    if key == "W":
        return _op(m, [(w, 1.0)])
    if key == "P0":
        return _op(m, [(ident, 0.5), (z, 0.5)])
    if key == "P1":
        return _op(m, [(ident, 0.5), (z, -0.5)])
    if key == "RY":
        half = angle / 2.0
        return _op(m, [(ident, math.cos(half)), (w, math.sin(half))])
    if key == "ROT":
        return _op(m, [(ident, math.cos(angle)), (w, math.sin(angle))])
    if key == "REF":
        return _op(m, [(z, math.cos(2.0 * angle)), (x, math.sin(2.0 * angle))])

    # phaseful: cos(t) * 1 - i sin(t) * Z_slot
    if key == "S":
        c, s = _SQRT_HALF, _SQRT_HALF
    elif key == "T":
        c, s = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
    else:  # RZ
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return ComplexNqaOperator(m, _op(m, [(ident, c)]), _op(m, [(z, -s)]))


def two_gate(name: str, slots: Sequence[int], m: int, bits: str | None = None) -> NqaOperator:
    """Two-slot gate on distinct slots (p, q), identity elsewhere.

    CZ, CNOT (control first), SWAP, PI_EVEN, PI_ODD, and
    BASIS_PROJECTOR with bits in {'00','01','10','11'}.
    """
    key = name.upper()
    if key not in TWO_GATE_NAMES:
        raise DimensionError(f"unknown two-slot gate {name!r}")
    if len(slots) != 2:
        raise DimensionError(f"gate {key} needs exactly two slots, got {tuple(slots)}")
    p, q = slots
    _check_slot(p, m)
    _check_slot(q, m)
    if p == q:
        raise DimensionError(f"gate {key} needs distinct slots, got {p} twice")
    if key == "BASIS_PROJECTOR":
        if bits is None or len(bits) != 2 or any(b not in "01" for b in bits):
            raise DimensionError("BASIS_PROJECTOR needs a two-character bit string")
    elif bits is not None:
        raise DimensionError(f"gate {key} takes no bit string")

    ident = NqaWord.identity(m)
    zp = _single_word(m, p, BlockIndex.Z)
    zq = _single_word(m, q, BlockIndex.Z)

    if key == "CZ":
        zz = word_pair(m, p, BlockIndex.Z, q, BlockIndex.Z)
        return _op(m, [(ident, 0.5), (zp, 0.5), (zq, 0.5), (zz, -0.5)])
    if key == "CNOT":
        xq = _single_word(m, q, BlockIndex.X)
        zx = word_pair(m, p, BlockIndex.Z, q, BlockIndex.X)
        return _op(m, [(ident, 0.5), (zp, 0.5), (xq, 0.5), (zx, -0.5)])
    if key == "SWAP":
        xx = word_pair(m, p, BlockIndex.X, q, BlockIndex.X)
        ww = word_pair(m, p, BlockIndex.W, q, BlockIndex.W)
        zz = word_pair(m, p, BlockIndex.Z, q, BlockIndex.Z)
        return _op(m, [(ident, 0.5), (xx, 0.5), (ww, -0.5), (zz, 0.5)])
    if key in ("PI_EVEN", "PI_ODD"):
        zz = word_pair(m, p, BlockIndex.Z, q, BlockIndex.Z)
        sign = 0.5 if key == "PI_EVEN" else -0.5
        return _op(m, [(ident, 0.5), (zz, sign)])
    # BASIS_PROJECTOR: product of one-slot projectors
    first = single_gate("P0" if bits[0] == "0" else "P1", p, m)
    second = single_gate("P0" if bits[1] == "0" else "P1", q, m)
    return op_mul(first, second)


def word_pair(m: int, p: int, bp: BlockIndex, q: int, bq: BlockIndex) -> NqaWord:
    """Word with the given blocks at two distinct slots, I elsewhere."""
    if p == q:
        raise DimensionError("word_pair needs distinct slots")
    wp = NqaWord.single(m, p, bp)
    wq = NqaWord.single(m, q, bq)
    return NqaWord(m, wp.alpha | wq.alpha, wp.beta | wq.beta)


def mcz(controls: Iterable[int], m: int) -> Reflection:
    """Multi-controlled Z: identity - 2 * product of P1 projectors on the controls.

    Returned as the Reflection with pattern '1' on the controls and '.'
    elsewhere; `apply` and `to_dense` cost O(2^m) per column, and expanding
    into 2^|C| block terms is an explicit `.expand()` call, never automatic.
    """
    ctrl = set(controls)  # duplicate controls collapse: projectors are idempotent
    if not ctrl:
        raise DimensionError("mcz needs at least one control slot")
    for k in sorted(ctrl):
        _check_slot(k, m)
    return Reflection("".join("1" if k in ctrl else "." for k in range(1, m + 1)))


def bell_transform() -> NqaOperator:
    """CNOT(1->2) after H on slot 1, expanded on two slots."""
    return op_mul(two_gate("CNOT", (1, 2), 2), single_gate("H", 1, 2))


def _complex_two(m: int, re_terms, im_terms) -> ComplexNqaOperator:
    return ComplexNqaOperator(m, NqaOperator.from_table(m, re_terms), NqaOperator.from_table(m, im_terms))


def iswap_complex() -> ComplexNqaOperator:
    return _complex_two(
        2,
        [("II", 0.5), ("ZZ", 0.5)],
        [("XX", 0.5), ("WW", -0.5)],
    )


def sqrtswap_complex() -> ComplexNqaOperator:
    return _complex_two(
        2,
        [("II", 0.75), ("XX", 0.25), ("ZZ", 0.25), ("WW", -0.25)],
        [("II", 0.25), ("XX", -0.25), ("ZZ", -0.25), ("WW", 0.25)],
    )


def cphase_complex(angle: float) -> ComplexNqaOperator:
    quarter = (math.cos(angle) - 1.0) / 4.0
    diag = [("II", 1.0 + quarter), ("IZ", -quarter), ("ZI", -quarter), ("ZZ", quarter)]
    s = math.sin(angle) / 4.0
    off = [("II", s), ("IZ", -s), ("ZI", -s), ("ZZ", s)]
    return _complex_two(2, diag, off)


def cartan_factors(theta_x: float, theta_y: float, theta_z: float) -> FactoredOperator:
    """Three commuting lifted factors of the two-qubit Cartan kernel."""
    fx = phi(_complex_two(2, [("II", math.cos(theta_x))], [("XX", math.sin(theta_x))]))
    fy = phi(_complex_two(2, [("II", math.cos(theta_y))], [("WW", -math.sin(theta_y))]))
    fz = phi(_complex_two(2, [("II", math.cos(theta_z))], [("ZZ", math.sin(theta_z))]))
    return FactoredOperator(3, (fx, fy, fz))


def lifted_gate(name: str, *params: float):
    """Realified two-qubit forms on three slots, phase lane last.

    ISWAP and SQRTSWAP take no parameters, CPHASE and RZ take one angle,
    CARTAN takes three; CARTAN returns a FactoredOperator of its three
    commuting factors, everything else an expanded NqaOperator.
    """
    key = name.upper()
    if key not in LIFTED_GATE_NAMES:
        raise DimensionError(f"unknown lifted gate {name!r}")
    if key == "ISWAP":
        _need_params(key, params, 0)
        return phi(iswap_complex())
    if key == "SQRTSWAP":
        _need_params(key, params, 0)
        return phi(sqrtswap_complex())
    if key == "CPHASE":
        _need_params(key, params, 1)
        return phi(cphase_complex(params[0]))
    if key == "RZ":
        _need_params(key, params, 1)
        return phi(single_gate("RZ", 1, 2, params[0]))
    _need_params(key, params, 3)
    return cartan_factors(*params)


def _need_params(name: str, params: tuple, count: int) -> None:
    if len(params) != count:
        raise DimensionError(f"gate {name} takes {count} parameter(s), got {len(params)}")


def real_exponential(generator: NqaOperator, angle: float, tol: float = 1e-12) -> NqaOperator:
    """exp(angle * G) for G with G @ G = +1 or -1.

    G @ G = -1 gives cos(angle) + sin(angle) G, G @ G = +1 gives
    cosh(angle) + sinh(angle) G; anything else is rejected.
    """
    square = op_mul(generator, generator)
    ident = NqaWord.identity(generator.m)
    lead = square.coeff(ident)
    residual = square - NqaOperator.from_word(ident, lead)
    off = max((abs(c) for c in residual.coeffs.tolist()), default=0.0)
    if off > tol or min(abs(lead - 1.0), abs(lead + 1.0)) > tol:
        raise ExponentialFormError(
            f"generator square is {lead:+g}*1 + (off-identity mass {off:g}), need exactly +1 or -1"
        )
    if lead < 0.0:
        c, s = math.cos(angle), math.sin(angle)
    else:
        c, s = math.cosh(angle), math.sinh(angle)
    return NqaOperator.from_word(ident, c) + s * generator
