"""Structured-oracle algorithms: parity recovery and amplitude amplification.

The parity oracle for a secret s is the product of Z words on the support
wires, so conjugating by Hadamard layers turns |0...0> into |s> exactly;
recovery reads the secret off the factor list in a number of elementary
steps linear in m plus the factor count, never touching a vector.  A wire
appearing an even number of times cancels (Z^2 = 1): the recovered secret
is the XOR of the factor list.

Grover's oracle and diffusion are rank-one Reflections (patterns: the
marked string; '+' on every slot with scale -1), each applied in O(2^m)
work and described by m one-slot projectors; the expanded diffusion would
have 2^m block terms.  Spectral analysis reduces an orthogonal iterate
to its symmetric part, whose eigenvalues are the cosines of the rotation
phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import DimensionError, NumericError
from .gates import single_gate
from .operators import (
    FactoredOperator,
    Reflection,
    _check_state_cap,
    basis_state,
    to_dense,
    is_orthogonal,
    uniform_state,
)

__all__ = [
    "BvOracleSpec",
    "BvRecovery",
    "bv_oracle",
    "bv_recover",
    "bv_circuit",
    "GroverSpec",
    "grover_oracle",
    "grover_diffusion",
    "grover_iterate_dense",
    "grover_run",
    "GroverRun",
    "grover_theta",
    "grover_auto_iterations",
    "grover_success_formula",
    "eigenphases",
    "is_clifford_spectrum",
]


# ---------------------------------------------------------------------------
# parity oracle


@dataclass(frozen=True, slots=True)
class BvOracleSpec:
    """Oracle description: slot count and the ordered factor list (may repeat)."""

    m: int
    factors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for k in self.factors:
            if not 1 <= k <= self.m:
                raise DimensionError(f"factor wire {k} outside 1..{self.m}")

    @classmethod
    def from_support(cls, m: int, support: Iterable[int]) -> "BvOracleSpec":
        wires = sorted(set(support))
        return cls(m, tuple(wires))

    @classmethod
    def from_factors(cls, m: int, factors: Iterable[int]) -> "BvOracleSpec":
        return cls(m, tuple(factors))

    @property
    def secret_mask(self) -> int:
        """XOR of the factor list: wires with odd multiplicity."""
        mask = 0
        for k in self.factors:
            mask ^= 1 << (self.m - k)
        return mask

    @property
    def secret(self) -> str:
        return format(self.secret_mask, f"0{self.m}b")


@dataclass(frozen=True, slots=True)
class BvRecovery:
    secret: str
    steps: int
    factored_size: int


def bv_oracle(spec: BvOracleSpec) -> FactoredOperator:
    """The oracle as a product of single-Z factors, one per list entry."""
    return FactoredOperator(spec.m, tuple(single_gate("Z", k, spec.m) for k in spec.factors))


def bv_recover(spec: BvOracleSpec) -> BvRecovery:
    """Read the secret from the factor list in O(m + L) counted steps."""
    steps = 0
    flags = []
    for _ in range(spec.m):
        flags.append(0)
        steps += 1
    for k in spec.factors:
        flags[k - 1] ^= 1
        steps += 1
    chars = []
    for bit in flags:
        chars.append("1" if bit else "0")
        steps += 1
    return BvRecovery("".join(chars), steps, len(spec.factors))


def bv_circuit(spec: BvOracleSpec) -> np.ndarray:
    """Final state of H-layer, oracle, H-layer on |0...0>, applied factored."""
    h_layer = [single_gate("H", k, spec.m) for k in range(1, spec.m + 1)]
    circuit = FactoredOperator(
        spec.m,
        tuple(h_layer) + tuple(bv_oracle(spec).factors) + tuple(h_layer),
    )
    return circuit.apply(basis_state(spec.m, 0))


# ---------------------------------------------------------------------------
# amplitude amplification


@dataclass(frozen=True, slots=True)
class GroverSpec:
    """Search description: slot count, marked bit string, iteration budget.

    iterations None means the closed-form budget round(pi/(4 theta) - 1/2)
    with theta = arcsin(2^(-m/2)).
    """

    m: int
    marked: str
    iterations: int | None = None

    def __post_init__(self):
        if len(self.marked) != self.m or any(ch not in "01" for ch in self.marked):
            raise DimensionError(
                f"marked pattern must be {self.m} characters of 0/1, got {self.marked!r}"
            )
        _check_state_cap(self.m)
        if self.iterations is not None and self.iterations < 0:
            raise DimensionError("iteration budget cannot be negative")

    @property
    def marked_index(self) -> int:
        return int(self.marked, 2)


def grover_oracle(spec: GroverSpec) -> Reflection:
    """Sign flip on the marked basis state: the reflection with pattern spec.marked."""
    return Reflection(spec.marked)


def grover_diffusion(m: int) -> Reflection:
    """Reflection about the uniform state, 2|s><s| - identity: pattern '+' * m, scale -1."""
    return Reflection("+" * m, scale=-1)


def grover_theta(m: int) -> float:
    return math.asin(2.0 ** (-m / 2.0))


def grover_auto_iterations(m: int) -> int:
    theta = grover_theta(m)
    return round(math.pi / (4.0 * theta) - 0.5)


def grover_success_formula(m: int, t: int) -> float:
    """Closed-form success probability sin^2((2t+1) theta)."""
    return math.sin((2 * t + 1) * grover_theta(m)) ** 2


@dataclass(frozen=True, slots=True)
class GroverRun:
    spec: GroverSpec
    iterations: int
    trace: tuple[float, ...]
    success: float
    theta: float


def grover_run(spec: GroverSpec) -> GroverRun:
    """Iterate diffusion after oracle, tracking the marked amplitude squared.

    trace[t] is the success probability after t full iterations; the
    structured reflections keep every step at O(2^m) work.
    """
    iterations = spec.iterations if spec.iterations is not None else grover_auto_iterations(spec.m)
    oracle = grover_oracle(spec)
    diffusion = grover_diffusion(spec.m)
    marked = spec.marked_index
    v = uniform_state(spec.m)
    trace = [float(v[marked] ** 2)]
    for _ in range(iterations):
        v = diffusion.apply(oracle.apply(v))
        trace.append(float(v[marked] ** 2))
    return GroverRun(
        spec=spec,
        iterations=iterations,
        trace=tuple(trace),
        success=trace[-1],
        theta=grover_theta(spec.m),
    )


def grover_iterate_dense(spec: GroverSpec) -> np.ndarray:
    """Dense matrix of one Grover iteration (diffusion after oracle)."""
    return grover_diffusion(spec.m).to_dense() @ grover_oracle(spec).to_dense()


# ---------------------------------------------------------------------------
# spectra of orthogonal iterates


def eigenphases(q, tol: float = 1e-9) -> np.ndarray:
    """Rotation phases of an orthogonal matrix, ascending in [0, pi].

    Eigenvalues of (Q + Q^T)/2 are the cosines of the phases; the matrix
    is checked to be orthogonal first.
    """
    dense = to_dense(q)
    if not is_orthogonal(dense, tol):
        raise NumericError("eigenphases needs an orthogonal matrix")
    sym = (dense + dense.T) / 2.0
    cosines = np.clip(linalg.sym_eigenvalues(sym), -1.0, 1.0)
    return np.sort(np.arccos(cosines))


def is_clifford_spectrum(phases: Sequence[float], tol: float = 1e-7) -> bool:
    """Whether every phase sits within tol of a multiple of pi/2.

    The default tolerance is loose on purpose: phases produced by
    eigenphases() go through arccos, which turns an eigenvalue error of
    1e-16 near +/-1 into a phase error around 1e-8.  Anything tighter
    than ~1e-7 would misclassify exact Clifford gates on rounding noise.
    """
    quarter = math.pi / 2.0
    for phase in np.asarray(phases, dtype=np.float64):
        nearest = round(phase / quarter) * quarter
        if abs(phase - nearest) > tol:
            return False
    return True
