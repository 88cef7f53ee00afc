"""Realification: complex operators become real ones on one extra slot.

A complex operator A + iB (A, B real word combinations on m slots) maps to

    phi(A + iB) = A (x) I + B (x) W

with the phase lane appended as the LAST slot, so every real word keeps
its label and gains a trailing I or W.  Because W * W = -I inside a slot,
the lane multiplies exactly like the imaginary unit, making phi a star
homomorphism: phi(UV) = phi(U) phi(V) and phi(U^dagger) = phi(U)^T.  In
particular U is unitary exactly when phi(U) is orthogonal.

(The equivalent block-matrix presentation puts the lane first and writes
phi(U) as [[A, -B], [B, A]]; only the lane-last form is implemented.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .operators import NqaOperator, op_mul, op_transpose, tensor

__all__ = ["ComplexNqaOperator", "phi", "complex_mul", "complex_dagger"]


@dataclass(frozen=True, slots=True)
class ComplexNqaOperator:
    """A pair of real word combinations standing for re + i * im."""

    m: int
    re: NqaOperator
    im: NqaOperator

    def __post_init__(self):
        if self.re.m != self.m or self.im.m != self.m:
            raise DimensionError(
                f"parts have {self.re.m}/{self.im.m} slots, operator declared {self.m}"
            )

    @classmethod
    def from_real(cls, a: NqaOperator) -> "ComplexNqaOperator":
        return cls(a.m, a, NqaOperator.zero(a.m))

    @classmethod
    def zero(cls, m: int) -> "ComplexNqaOperator":
        return cls(m, NqaOperator.zero(m), NqaOperator.zero(m))

    @classmethod
    def identity(cls, m: int) -> "ComplexNqaOperator":
        return cls(m, NqaOperator.identity(m), NqaOperator.zero(m))

    def is_real(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return self.im.is_zero()
        return bool(np.all(np.abs(self.im.coeffs) <= tol))

    def dagger(self) -> "ComplexNqaOperator":
        return ComplexNqaOperator(self.m, op_transpose(self.re), -op_transpose(self.im))

    def __add__(self, other: "ComplexNqaOperator") -> "ComplexNqaOperator":
        if not isinstance(other, ComplexNqaOperator):
            return NotImplemented
        return ComplexNqaOperator(self.m, self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexNqaOperator") -> "ComplexNqaOperator":
        if not isinstance(other, ComplexNqaOperator):
            return NotImplemented
        return ComplexNqaOperator(self.m, self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexNqaOperator":
        return ComplexNqaOperator(self.m, -self.re, -self.im)

    def __mul__(self, scalar) -> "ComplexNqaOperator":
        if isinstance(scalar, (ComplexNqaOperator, NqaOperator)):
            raise TypeError("use A @ B for the operator product; * is scalar scaling")
        z = complex(scalar)
        return ComplexNqaOperator(
            self.m,
            z.real * self.re - z.imag * self.im,
            z.real * self.im + z.imag * self.re,
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "ComplexNqaOperator") -> "ComplexNqaOperator":
        if not isinstance(other, ComplexNqaOperator):
            return NotImplemented
        return complex_mul(self, other)

    def tensor(self, other: "ComplexNqaOperator") -> "ComplexNqaOperator":
        if not isinstance(other, ComplexNqaOperator):
            raise TypeError("tensor partner must be a ComplexNqaOperator")
        return ComplexNqaOperator(
            self.m + other.m,
            tensor(self.re, other.re) - tensor(self.im, other.im),
            tensor(self.re, other.im) + tensor(self.im, other.re),
        )

    def allclose(self, other: "ComplexNqaOperator", tol: float = 1e-12) -> bool:
        return (
            self.m == other.m
            and self.re.allclose(other.re, tol)
            and self.im.allclose(other.im, tol)
        )

    def to_dense(self) -> np.ndarray:
        """Complex dense form, for verification against matrix arithmetic."""
        return self.re.to_dense() + 1j * self.im.to_dense()

    def __str__(self) -> str:
        return f"({self.re}) + i*({self.im})"


def complex_mul(u: ComplexNqaOperator, v: ComplexNqaOperator) -> ComplexNqaOperator:
    """(A + iB)(C + iD) = (AC - BD) + i(AD + BC)."""
    if u.m != v.m:
        raise DimensionError(f"slot counts differ: {u.m} vs {v.m}")
    return ComplexNqaOperator(
        u.m,
        op_mul(u.re, v.re) - op_mul(u.im, v.im),
        op_mul(u.re, v.im) + op_mul(u.im, v.re),
    )


def complex_dagger(u: ComplexNqaOperator) -> ComplexNqaOperator:
    return u.dagger()


# the phase lane: I for the real part, W (which squares to -I) for the imaginary part
_LANE_RE = NqaOperator.from_label("I")
_LANE_IM = NqaOperator.from_label("W")


def phi(u: ComplexNqaOperator | NqaOperator) -> NqaOperator:
    """Realify: real part gains a trailing I, imaginary part a trailing W."""
    if isinstance(u, NqaOperator):
        u = ComplexNqaOperator.from_real(u)
    return tensor(u.re, _LANE_RE) + tensor(u.im, _LANE_IM)
