"""The max-norm helper and the hand-rolled symmetric eigensolver."""

import logging
import warnings

import numpy as np
import pytest

from helpers import random_orthogonal
from nqa import (
    DimensionError,
    NumericError,
    max_norm,
    sym_eigenvalues,
)
from nqa import linalg


def _close_to_eigvalsh(a):
    want = np.linalg.eigvalsh(a)
    return np.max(np.abs(sym_eigenvalues(a) - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_mat_helpers_match_numpy():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 7))
    assert max_norm(a) == np.max(np.abs(a))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 64])
def test_known_spectrum_roundtrip(n):
    rng = np.random.default_rng(n)
    target = np.sort(rng.normal(size=n) * 3.0)
    q = random_orthogonal(rng, n)
    a = q @ np.diag(target) @ q.T
    got = sym_eigenvalues(a)
    assert np.max(np.abs(got - target)) <= 1e-10


def test_spectrum_invariants_small():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8):
        s = rng.normal(size=(n, n))
        a = (s + s.T) / 2.0
        eig = sym_eigenvalues(a)
        assert abs(np.sum(eig) - np.trace(a)) <= 1e-10 * max(1.0, np.abs(eig).sum())
        assert abs(np.prod(eig) - np.linalg.det(a)) <= 1e-8 * max(1.0, abs(np.prod(eig)))


def test_degenerate_and_diagonal():
    assert np.allclose(sym_eigenvalues(np.eye(6)), np.ones(6))
    a = np.diag([3.0, -1.0, 2.0])
    assert np.allclose(sym_eigenvalues(a), [-1.0, 2.0, 3.0])
    assert np.allclose(sym_eigenvalues(np.zeros((4, 4))), np.zeros(4))


def test_rejects_nonsymmetric():
    for scale in (1.0, 1e-100):
        with pytest.raises(NumericError, match="symmetric"):
            sym_eigenvalues(np.array([[0.0, scale], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        sym_eigenvalues(np.zeros((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericError, match="finite"):
            sym_eigenvalues(np.array([[1.0, bad], [bad, 0.0]]))
        with pytest.raises(NumericError, match="finite"):
            sym_eigenvalues(np.array([[bad]]))


@pytest.mark.parametrize("n", range(2, 10))
def test_round_robin_visits_every_pair_once(n):
    seen = []
    for p, q in linalg._round_robin(n):
        assert np.all(p < q)
        assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
        seen += zip(p.tolist(), q.tolist())
    assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_off_diagonal_mass_does_not_cancel():
    # sum(A*A) - sum(diag**2) gives 0 here: 1e-18 is below the ulp of 2e16
    a = np.array([[1e8, 1e-9], [1e-9, -1e8]])
    assert linalg._off_diagonal(a) == pytest.approx(np.sqrt(2.0) * 1e-9, rel=1e-15)


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_random_n128_converges_without_warnings(seed):
    # before the off-diagonal mass was measured directly, these three raised
    # NumericError after 100 sweeps, with overflow warnings from tau**2
    g = np.random.default_rng(seed).standard_normal((128, 128))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _close_to_eigvalsh(g + g.T)


def test_cap_size_finishes():
    n = linalg.MAX_EIG_DIM
    g = np.random.default_rng(n).standard_normal((n, n))
    assert _close_to_eigvalsh(g + g.T)


def test_above_cap_rejected_before_any_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("a rotation ran")

    monkeypatch.setattr(linalg, "_rotate", no_sweep)
    n = linalg.MAX_EIG_DIM + 1
    with pytest.raises(DimensionError, match=f"n={n}"):
        sym_eigenvalues(np.eye(n))


@pytest.mark.parametrize(
    "a",
    [
        [[1e160, 1e159], [1e159, 0.0]],
        [[1e-160, 3e-161], [3e-161, 2e-160]],
        [[1.0, 1.0, 1e-15], [1.0, 1e10, 1.0], [1e-15, 1.0, -1e-5]],
    ],
)
def test_scale_extremes_match_eigvalsh(a):
    a = np.array(a)
    want = np.linalg.eigvalsh(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sym_eigenvalues(a)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_reports_sweeps_and_residual(monkeypatch, caplog):
    g = np.random.default_rng(1).standard_normal((16, 16))
    a = g + g.T
    with caplog.at_level(logging.DEBUG, logger="nqa"):
        sym_eigenvalues(a)
    (record,) = [r for r in caplog.records if r.name == "nqa"]
    assert record.levelno == logging.DEBUG
    assert "n=16" in record.getMessage() and "sweeps, off-diagonal" in record.getMessage()

    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(NumericError, match=r"in 1 sweeps: off-diagonal \S+ above threshold \S+"):
        sym_eigenvalues(a)
