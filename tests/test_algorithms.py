"""Structured-oracle recovery and amplitude amplification."""

import itertools
import math

import numpy as np
import pytest

from helpers import dense_operator
from nqa import (
    BvOracleSpec,
    DenseCapError,
    DimensionError,
    FactoredOperator,
    NumericError,
    basis_state,
    bv_circuit,
    bv_oracle,
    bv_recover,
    eigenphases,
    grover_auto_iterations,
    grover_diffusion,
    grover_iterate_dense,
    grover_oracle,
    grover_run,
    grover_success_formula,
    grover_theta,
    GroverSpec,
    Reflection,
    is_clifford_spectrum,
    single_gate,
    to_dense,
    two_gate,
    uniform_state,
)


def test_bv_exhaustive_small():
    for m in (1, 2, 3, 4):
        for r in range(m + 1):
            for support in itertools.combinations(range(1, m + 1), r):
                spec = BvOracleSpec.from_support(m, support)
                want = "".join("1" if k in support else "0" for k in range(1, m + 1))
                assert spec.secret == want
                rec = bv_recover(spec)
                assert rec.secret == want
                assert rec.factored_size == len(support)
                # the H-conjugated circuit lands exactly on |s>
                final = bv_circuit(spec)
                target = basis_state(m, want)
                assert np.max(np.abs(final - target)) <= 1e-12


def test_bv_duplicate_factors_xor():
    spec = BvOracleSpec.from_factors(3, (3, 1, 3))
    assert spec.secret == "100"
    assert bv_recover(spec).secret == "100"
    final = bv_circuit(spec)
    assert np.max(np.abs(final - basis_state(3, "100"))) <= 1e-12
    # an even number of repeats cancels to the identity wire
    empty = BvOracleSpec.from_factors(2, (1, 1))
    assert empty.secret == "00"


def test_bv_oracle_is_factored_product_of_z():
    spec = BvOracleSpec.from_factors(3, (2, 3))
    oracle = bv_oracle(spec)
    assert isinstance(oracle, FactoredOperator)
    assert len(oracle) == 2
    want = to_dense(single_gate("Z", 2, 3)) @ to_dense(single_gate("Z", 3, 3))
    assert np.allclose(to_dense(oracle), want)
    # expanded, duplicate Z factors fold into one word
    assert oracle.expand().to_table() == [("IZZ", 1.0)]


def test_bv_step_bound():
    rng = np.random.default_rng(80)
    for _ in range(100):
        m = int(rng.integers(1, 16))
        length = int(rng.integers(0, 3 * m))
        factors = [int(rng.integers(1, m + 1)) for _ in range(length)]
        spec = BvOracleSpec.from_factors(m, factors)
        rec = bv_recover(spec)
        assert rec.steps <= 4 * (m + length)
        assert rec.secret == spec.secret


def test_bv_validation():
    with pytest.raises(DimensionError):
        BvOracleSpec.from_support(2, (3,))
    with pytest.raises(DimensionError):
        BvOracleSpec.from_factors(2, (0,))


def test_grover_m2_exact():
    run = grover_run(GroverSpec(2, "11"))
    assert run.iterations == 1
    assert run.success == 1.0
    assert run.trace == (0.25, 1.0)


def test_grover_m3_closed_form():
    run = grover_run(GroverSpec(3, "101"))
    assert run.iterations == 2
    assert abs(run.success - 121.0 / 128.0) <= 1e-15
    for t, p in enumerate(run.trace):
        assert abs(p - grover_success_formula(3, t)) <= 1e-12


def test_grover_trace_matches_closed_form_up_to_m6():
    for m in range(1, 7):
        marked = format(0, f"0{m}b")
        run = grover_run(GroverSpec(m, marked))
        assert run.iterations == grover_auto_iterations(m)
        for t, p in enumerate(run.trace):
            assert abs(p - grover_success_formula(m, t)) <= 1e-10


def test_grover_trace_matches_dense_iterate():
    for m in (2, 3, 4, 5):
        spec = GroverSpec(m, "1" * m, iterations=4)
        run = grover_run(spec)
        q = grover_iterate_dense(spec)
        v = uniform_state(m)
        for t in range(1, 5):
            v = q @ v
            assert abs(run.trace[t] - v[spec.marked_index] ** 2) <= 1e-10


def test_grover_m2_trace_periodicity():
    # theta = pi/6 at m=2, so the closed form repeats every three iterations
    run = grover_run(GroverSpec(2, "10", iterations=7))
    assert run.trace == (0.25, 1.0, 0.25, 0.25, 1.0, 0.25, 0.25, 1.0)


def test_reflection_structures():
    spec = GroverSpec(3, "011")
    oracle = grover_oracle(spec)
    assert oracle == Reflection("011")
    dense = to_dense(oracle)
    want = np.eye(8)
    want[spec.marked_index, spec.marked_index] = -1.0
    assert np.array_equal(dense, want)

    diffusion = grover_diffusion(3)
    assert diffusion == Reflection("+++", scale=-1)
    dd = to_dense(diffusion)
    assert np.array_equal(dd, 2.0 / 8.0 * np.ones((8, 8)) - np.eye(8))

    v = np.arange(8.0)
    assert np.array_equal(oracle.apply(v), want @ v)
    assert np.allclose(diffusion.apply(v), dd @ v)
    with pytest.raises(DimensionError):
        oracle.apply(np.ones(4))


def test_grover_trace_is_rank_one_loop():
    # the oracle negates the marked amplitude, the diffusion reflects about the mean
    for m in range(1, 17):
        marked = format((0b1011011 * m) % (1 << m), f"0{m}b")
        run = grover_run(GroverSpec(m, marked))
        k = int(marked, 2)
        v = np.full(1 << m, 1.0 / np.sqrt(1 << m))
        trace = [float(v[k] ** 2)]
        for _ in range(run.iterations):
            v[k] = -v[k]
            v = 2 * v.mean() - v
            trace.append(float(v[k] ** 2))
        assert run.trace == tuple(trace)


def test_reflection_dense_is_expanded_table():
    for m in range(1, 7):
        marked = format((0b1011011 * m) % (1 << m), f"0{m}b")
        for refl in (grover_oracle(GroverSpec(m, marked)), grover_diffusion(m)):
            dense = to_dense(refl)
            assert dense.tobytes() == dense_operator(refl.expand()).tobytes()


def test_grover_run_reports_sizes():
    run = grover_run(GroverSpec(4, "0110"))
    assert run.theta == grover_theta(4)
    # the reflections stay m one-slot projectors; only expand() builds 2^m terms
    for m in (2, 4, 7):
        assert len(grover_oracle(GroverSpec(m, "1" * m))) == m
        assert len(grover_diffusion(m)) == m
        assert len(grover_diffusion(m).expand()) == 2**m


def test_eigenphases_of_grover_iterate():
    for m in (2, 3, 4):
        spec = GroverSpec(m, "1" * m)
        phases = eigenphases(grover_iterate_dense(spec))
        n = 1 << m
        # the rotation phase is well conditioned through arccos
        assert np.max(np.abs(phases[:2] - 2.0 * grover_theta(m))) <= 1e-9
        # the -1 eigenvalues sit where arccos loses digits, so pin the cosines
        assert np.max(np.abs(np.cos(phases[2:]) + 1.0)) <= 1e-12
        assert phases.shape == (n,)
        assert not is_clifford_spectrum(phases, tol=1e-7)


def test_eigenphases_of_clifford_gates():
    for gate in (single_gate("H", 1, 1), two_gate("CZ", (1, 2), 2), two_gate("SWAP", (1, 2), 2)):
        assert is_clifford_spectrum(eigenphases(gate))
    with pytest.raises(NumericError):
        eigenphases(np.diag([2.0, 1.0]))


def test_grover_spec_validation():
    with pytest.raises(DimensionError):
        GroverSpec(2, "111")
    with pytest.raises(DimensionError):
        GroverSpec(2, "ab")
    with pytest.raises(DimensionError):
        GroverSpec(2, "11", iterations=-1)
    with pytest.raises(DenseCapError):
        GroverSpec(40, "1" * 40)
