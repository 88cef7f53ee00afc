"""The symmetric eigensolver used as the spectral oracle, and a max-norm helper.

Dense matrices and state vectors are plain float64 numpy arrays.  The
eigensolver is a hand-written Jacobi iteration (no library eigensolver is
used anywhere in the package), so spectra reported by the algorithm and
correlation modules rest on nothing beyond plane rotations.

Each sweep visits every (p, q) plane once in round-robin order (Brent &
Luk 1985; Golub & Van Loan, section 8.5): n - 1 rounds of n/2 disjoint
pairs, an odd n padded with an index that pairs with nothing.  The
rotations of one round touch disjoint rows and columns, so a round is
applied to all its pairs at once.  Convergence is measured on the
off-diagonal mass itself, sqrt(2 * sum(triu(A, 1)**2)), never as a
difference of two sums of squares, which cancels, and is reached when it
falls to tol * ||A||_F.  The matrix is first scaled by a power of two
(exact) so that no sum of squares overflows or underflows.

The size cap MAX_EIG_DIM = 256 is the largest size the tests show
finishing: a sweep costs O(n^3), about 0.3 s at n = 256 on a 2-vCPU host,
and a random n = 256 matrix takes about 9 sweeps.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from .errors import DimensionError, NumericError

__all__ = [
    "MAX_EIG_DIM",
    "max_norm",
    "sym_eigenvalues",
]

MAX_EIG_DIM = 256
_MAX_SWEEPS = 100


def _as_square(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_norm(a) -> float:
    """Largest absolute entry; call as max_norm(a - b) for comparisons."""
    a = np.asarray(a, dtype=np.float64)
    return float(np.max(np.abs(a))) if a.size else 0.0


@functools.lru_cache(maxsize=16)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The n - 1 rounds of a round-robin tournament on n indices, as (p, q)
    index arrays with p < q; each round pairs every index at most once."""
    players = list(range(n + (n & 1)))
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = [
            (min(u, v), max(u, v))
            for u, v in zip(players[:half], reversed(players[half:]))
            if max(u, v) < n
        ]
        p, q = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        p.setflags(write=False)
        q.setflags(write=False)
        rounds.append((p, q))
        players.insert(1, players.pop())
    return tuple(rounds)


def _log_debug(msg: str, *args) -> None:
    """Log on the "nqa" logger at DEBUG level, if logging is in use.

    A program that never imported logging has configured no handler that
    could show the record, and importing it would cost every CLI process
    ~7 ms and ~0.3 MB.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("nqa").debug(msg, *args)


def _off_diagonal(a: np.ndarray) -> float:
    return float(np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2)))


def _rotate(work: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """One round: annihilate work[p, q] for every pair, in place.

    t = tan(theta) is the smaller root of t^2 + 2 tau t - 1 = 0 with
    tau = (a_qq - a_pp) / (2 a_pq), written as
    sign(d) 2 a_pq / (|d| + hypot(d, 2 a_pq)) with d = a_qq - a_pp: the
    same value without forming tau, so a tiny a_pq neither overflows tau
    nor squares it, and a_pq = 0 gives t = 0.
    """
    apq = work[p, q]
    d = work[q, q] - work[p, p]
    twice = 2.0 * apq
    denom = np.abs(d) + np.hypot(d, twice)
    t = np.divide(np.where(d >= 0.0, twice, -twice), denom, out=np.zeros_like(apq), where=denom > 0.0)
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    _mix(work, (slice(None), p), (slice(None), q), c, s)
    _mix(work, p, q, c[:, None], s[:, None])
    work[p, q] = 0.0
    work[q, p] = 0.0


def _mix(work: np.ndarray, at_p, at_q, c: np.ndarray, s: np.ndarray) -> None:
    """work[at_p], work[at_q] = c * old_p - s * old_q, s * old_p + c * old_q."""
    old_p = work[at_p]  # fancy indexing copies
    new_q = work[at_q]
    new_p = old_p * c
    new_p -= new_q * s
    new_q *= c
    old_p *= s
    new_q += old_p
    work[at_p] = new_p
    work[at_q] = new_q


def sym_eigenvalues(a, tol: float = 1e-12) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending, by round-robin Jacobi sweeps.

    Sweeps run until the off-diagonal Frobenius mass drops below
    tol * ||A||_F, a bound relative to the matrix at every scale.
    Non-symmetric or non-finite input, n above MAX_EIG_DIM and failure to
    converge within the sweep limit are hard errors; a converged call logs
    its sweep count and residual at DEBUG level on the "nqa" logger.
    """
    work = _as_square(a)
    n = work.shape[0]
    if n > MAX_EIG_DIM:
        raise DimensionError(f"eigensolver capped at n <= {MAX_EIG_DIM}, got n={n}")
    if not np.isfinite(work).all():
        raise NumericError("sym_eigenvalues needs a finite matrix")
    # relative, like the convergence threshold, so no tiny non-symmetric matrix passes
    if max_norm(work - work.T) > tol * max_norm(work):
        raise NumericError("sym_eigenvalues needs a symmetric matrix")
    if n == 1:
        return work.diagonal().copy()

    # work = A * 2^-e with max|work| in [0.5, 1): exact, and no sum of squares overflows
    e = int(np.frexp(max_norm(work))[1])
    work = np.ldexp(work, -e)
    work = (work + work.T) / 2.0
    threshold = tol * float(np.sqrt(np.sum(work * work)))
    sweeps = 0
    while (off := _off_diagonal(work)) > threshold:
        if sweeps == _MAX_SWEEPS:
            raise NumericError(
                f"Jacobi iteration did not converge in {sweeps} sweeps: off-diagonal "
                f"{np.ldexp(off, e):.3g} above threshold {np.ldexp(threshold, e):.3g}"
            )
        for p, q in _round_robin(n):
            _rotate(work, p, q)
        sweeps += 1
    _log_debug(
        "sym_eigenvalues n=%d: %d sweeps, off-diagonal %.3g <= threshold %.3g",
        n, sweeps, np.ldexp(off, e), np.ldexp(threshold, e),
    )
    return np.ldexp(np.sort(work.diagonal()), e)
