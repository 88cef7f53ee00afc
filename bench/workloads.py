"""The three workloads: seeded inputs, one fixed job list each, and checks.

A workload is built by `build(name, seed, nqa, scratch)`, which returns
the job list of one pass.  The job classes and their order are fixed; the seed
draws every operator, matrix, slot, marked string and factor list.  The
order interleaves classes, so the cost of a pass does not depend on where
a run stops.

Each job holds a zero-argument `call` that makes the program call, and a
`check` that compares the result with the independent references in
`reference.py`.  Checks run outside the timed interval; a reference is
computed on first use and kept, and a result equal to one already
verified for the same job is accepted without recomputing it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

WORKLOADS = ("algebra", "dense", "cli")


@dataclass
class Job:
    """One job: `call` is a zero-argument callable, or for cli the argv."""

    name: str
    call: Callable[[], object] | list[str]
    check: Callable[[object], bool]
    digest: str
    verified: tuple | None = None  # fingerprint of the first result that passed its check


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.tobytes())
        elif isinstance(part, dict):
            h.update(repr(sorted(part.items())).encode())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _once(fn):
    """Compute a reference on first use."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# ---------------------------------------------------------------------------
# random inputs


def rand_table(rng, m: int, k: int, parity: int | None = None) -> dict:
    """k distinct words with coefficients of magnitude in [0.5, 1.5).

    With `parity`, only words whose exponent count |alpha| + |beta| has
    that parity are drawn."""
    table: dict[tuple[int, int], float] = {}
    limit = 1 << m
    while len(table) < k:
        a = int(rng.integers(0, limit))
        b = int(rng.integers(0, limit))
        if parity is not None and (a.bit_count() + b.bit_count()) & 1 != parity:
            continue
        if (a, b) not in table:
            table[(a, b)] = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5))
    return table


def full_table(rng, m: int) -> dict:
    """Every one of the 4^m words, each with a nonzero coefficient."""
    n = 1 << m
    coeffs = rng.choice((-1.0, 1.0), size=n * n) * rng.uniform(0.5, 1.5, size=n * n)
    return {(i >> m, i & (n - 1)): float(c) for i, c in enumerate(coeffs)}


def scatter_dense(table: dict, m: int) -> np.ndarray:
    """Matrix of a word table from the basis action, M[x ^ alpha, x] += c s_beta(x)."""
    n = 1 << m
    x = np.arange(n)
    out = np.zeros((n, n))
    for (a, b), c in table.items():
        out[x ^ a, x] += c * ref.signs(b, n)
    return out


def rand_symmetric(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g + g.T


# ---------------------------------------------------------------------------
# nqa operators to and from plain tables


def operator_of(nqa, table: dict, m: int):
    """The nqa operator of a {(alpha, beta): coeff} table."""
    word = nqa.words.NqaWord
    return nqa.operators.NqaOperator(m, {word(m, a, b): c for (a, b), c in table.items()})


def table_of(op) -> dict:
    return {(w.alpha, w.beta): c for w, c in op.items()}


def array_of(op) -> np.ndarray:
    """Coefficients as a 2^m x 2^m array indexed [alpha, beta]."""
    out = np.zeros((1 << op.m, 1 << op.m))
    for w, c in op.items():
        out[w.alpha, w.beta] = c
    return out


def _fingerprint(result):
    """A tuple a verified result is remembered by, so that the benchmark
    holds no large copies: arrays by a hash of their bytes, operators by a
    hash of their terms, CLI results (code, stdout, stderr) as they are."""
    if isinstance(result, np.ndarray):
        return (result.shape, hashlib.sha1(np.ascontiguousarray(result).tobytes()).hexdigest())
    if hasattr(result, "re"):
        return (_fingerprint(result.re), _fingerprint(result.im))
    if hasattr(result, "items"):
        return (result.m, len(result), hash(tuple((w.alpha, w.beta, c) for w, c in result.items())))
    return result


def verify(job: Job, result) -> bool:
    """Check a result; one equal to a result already verified for this job
    is accepted without recomputing the check."""
    key = _fingerprint(result)
    if job.verified is not None and job.verified == key:
        return True
    ok = bool(job.check(result))
    if ok and job.verified is None:
        job.verified = key
    return ok


# ---------------------------------------------------------------------------
# algebra


def _sampled_words(rng, got: dict, a: dict, b: dict, n_out=160, n_pairs=48):
    """Words of the result, plus words the product of a and b must reach."""
    words = list(got)
    if len(words) > n_out:
        words = [words[i] for i in rng.choice(len(words), n_out, replace=False)]
    ka, kb = list(a), list(b)
    for _ in range(n_pairs):
        u = ka[int(rng.integers(len(ka)))]
        v = kb[int(rng.integers(len(kb)))]
        words.append((u[0] ^ v[0], u[1] ^ v[1]))
    return words


def _check_products(m, terms, got: dict, seed: int) -> bool:
    """Sampled coefficients of sum_i s_i a_i b_i by the scalar sign rule.

    `terms` is a list of (s, a, b); a result word no pair can reach must
    be absent."""
    rng = np.random.default_rng(seed)
    words = set()
    for _, a, b in terms:
        words.update(_sampled_words(rng, got, a, b))
    for alpha, beta in words:
        want = sum(s * ref.product_coeff(a, b, alpha, beta) for s, a, b in terms)
        if not ref.close(got.get((alpha, beta), 0.0), want, 1.0, 1e-9):
            return False
    return True


def _algebra_jobs(rng, nqa):
    ops = nqa.operators
    rz = nqa.realify

    jobs: list[Job] = []

    def binary(kind, m, ka, kb, pa=None, pb=None):
        ta, tb = rand_table(rng, m, ka, pa), rand_table(rng, m, kb, pb)
        A, B = operator_of(nqa, ta, m), operator_of(nqa, tb, m)
        if kind == "supercommutator":
            s = 1 if (pa and pb) else -1
        else:
            s = {"op_mul": 0, "commutator": -1, "anticommutator": 1}[kind]
        terms = [(1, ta, tb)] + ([(s, tb, ta)] if s else [])
        tag = 2 ** 31 + len(jobs)
        if m <= 6:
            dense = _once(lambda: sum(
                sgn * (ref.kron_dense(x, m) @ ref.kron_dense(y, m)) for sgn, x, y in terms
            ))
            check = lambda out: out.m == m and ref.dense_close(ref.kron_dense(table_of(out), m), dense())
        else:
            check = lambda out: out.m == m and _check_products(m, terms, table_of(out), tag)
        jobs.append(Job(
            f"{kind} m={m} {ka}x{kb}",
            lambda: getattr(ops, kind)(A, B),
            check,
            _digest(kind, m, ta, tb),
        ))

    def eps_bracket(m):
        ta, tb = rand_table(rng, m, 1), rand_table(rng, m, 1)
        A, B = operator_of(nqa, ta, m), operator_of(nqa, tb, m)
        jobs.append(Job(
            f"epsilon_commutator m={m} 1x1",
            lambda: ops.epsilon_commutator(A, B),
            # single words epsilon-commute, so the colour bracket vanishes
            lambda out: out.m == m and len(out) == 0,
            _digest("eps", m, ta, tb),
        ))

    def tensor(ma, mb, ka, kb):
        ta, tb = rand_table(rng, ma, ka), rand_table(rng, mb, kb)
        A, B = operator_of(nqa, ta, ma), operator_of(nqa, tb, mb)
        m = ma + mb
        if m <= 8:
            dense = _once(lambda: np.kron(ref.kron_dense(ta, ma), ref.kron_dense(tb, mb)))
            check = lambda out: out.m == m and ref.dense_close(ref.kron_dense(table_of(out), m), dense())
        else:
            # the slot concatenation is injective: every pair gives its own word
            want = {(a1 << mb | a2, b1 << mb | b2): c1 * c2
                    for (a1, b1), c1 in ta.items() for (a2, b2), c2 in tb.items()}
            check = lambda out: out.m == m and ref.tables_close(table_of(out), want)
        jobs.append(Job(f"tensor m={ma}+{mb} {ka}x{kb}", lambda: ops.tensor(A, B), check,
                        _digest("tensor", ma, mb, ta, tb)))

    def transpose(m, k):
        ta = full_table(rng, m) if k == 4 ** m else rand_table(rng, m, k)
        A = operator_of(nqa, ta, m)
        if m <= 6:
            dense = _once(lambda: ref.kron_dense(ta, m).T)
            check = lambda out: out.m == m and ref.dense_close(ref.kron_dense(table_of(out), m), dense())
        else:
            # W^T = -W and I, X, Z are symmetric: one sign per W slot
            want = {(a, b): (-c if (a & b).bit_count() & 1 else c) for (a, b), c in ta.items()}
            check = lambda out: out.m == m and ref.tables_close(table_of(out), want)
        jobs.append(Job(f"op_transpose m={m} {k}", lambda: ops.op_transpose(A), check,
                        _digest("transpose", m, ta)))

    def realify(m, k):
        tre, tim = rand_table(rng, m, k), rand_table(rng, m, k)
        U = rz.ComplexNqaOperator(m, operator_of(nqa, tre, m), operator_of(nqa, tim, m))
        if m + 1 <= 6:
            w = ref.BLOCKS["W"]
            dense = _once(lambda: np.kron(ref.kron_dense(tre, m), np.eye(2))
                          + np.kron(ref.kron_dense(tim, m), w))
            check = lambda out: out.m == m + 1 and ref.dense_close(ref.kron_dense(table_of(out), m + 1), dense())
        else:
            want = {}
            for (a, b), c in tre.items():
                want[(a << 1, b << 1)] = want.get((a << 1, b << 1), 0.0) + c
            for (a, b), c in tim.items():
                key = (a << 1 | 1, b << 1 | 1)
                want[key] = want.get(key, 0.0) + c
            check = lambda out: out.m == m + 1 and ref.tables_close(table_of(out), want)
        jobs.append(Job(f"phi m={m} {k}+{k}", lambda: rz.phi(U), check, _digest("phi", m, tre, tim)))

    def complex_mul(m, k):
        t = [rand_table(rng, m, k) for _ in range(4)]
        U = rz.ComplexNqaOperator(m, operator_of(nqa, t[0], m), operator_of(nqa, t[1], m))
        V = rz.ComplexNqaOperator(m, operator_of(nqa, t[2], m), operator_of(nqa, t[3], m))
        re_terms = [(1, t[0], t[2]), (-1, t[1], t[3])]
        im_terms = [(1, t[0], t[3]), (1, t[1], t[2])]
        tag = 2 ** 31 + len(jobs)
        if m <= 6:
            def want():
                u = ref.kron_dense(t[0], m) + 1j * ref.kron_dense(t[1], m)
                v = ref.kron_dense(t[2], m) + 1j * ref.kron_dense(t[3], m)
                return u @ v
            dense = _once(want)
            check = lambda out: out.m == m and ref.dense_close(
                ref.kron_dense(table_of(out.re), m) + 1j * ref.kron_dense(table_of(out.im), m), dense())
        else:
            check = lambda out: (out.m == m and _check_products(m, re_terms, table_of(out.re), tag)
                                 and _check_products(m, im_terms, table_of(out.im), tag + 1))
        jobs.append(Job(f"complex_mul m={m} {k}+{k}", lambda: rz.complex_mul(U, V), check,
                        _digest("cmul", m, *t)))

    # One pass of 46 jobs.  Small m (4-6): products saturate the 4^m
    # words and the constructor merges; large m (10-16): products rarely
    # collide and the constructor mostly sorts.  Six op_mul jobs of 256 x
    # 256 terms at m=4 and m=5 (~200 ms, pure word arithmetic) sit just
    # below the two heaviest jobs, so the 90th percentile falls inside one
    # block of like jobs rather than between two job classes.
    plan = [
        lambda: binary("op_mul", 4, 64, 64),
        lambda: binary("op_mul", 10, 64, 64),
        lambda: tensor(3, 3, 32, 32),
        lambda: binary("commutator", 4, 64, 64),
        lambda: transpose(16, 2000),
        lambda: binary("op_mul", 5, 128, 128),
        lambda: realify(5, 64),
        lambda: binary("op_mul", 12, 96, 96),
        lambda: eps_bracket(5),
        lambda: binary("supercommutator", 5, 64, 64, 1, 1),
        lambda: complex_mul(4, 32),
        lambda: binary("op_mul", 4, 256, 256),
        lambda: tensor(6, 6, 64, 64),
        lambda: binary("anticommutator", 5, 64, 64),
        lambda: transpose(6, 4096),
        lambda: binary("op_mul", 10, 64, 64),
        lambda: realify(14, 300),
        lambda: binary("op_mul", 5, 256, 256),
        lambda: binary("op_mul", 6, 128, 128),
        lambda: binary("op_mul", 4, 256, 256),
        lambda: binary("commutator", 12, 48, 48),
        lambda: binary("op_mul", 4, 64, 64),
        lambda: complex_mul(10, 16),
        lambda: binary("op_mul", 5, 1024, 1024),
        lambda: eps_bracket(12),
        lambda: binary("op_mul", 16, 128, 128),
        lambda: binary("supercommutator", 5, 64, 64, 0, 1),
        lambda: binary("op_mul", 5, 128, 128),
        lambda: tensor(3, 3, 32, 32),
        lambda: binary("op_mul", 5, 256, 256),
        lambda: transpose(16, 2000),
        lambda: binary("op_mul", 4, 64, 64),
        lambda: binary("op_mul", 10, 64, 64),
        lambda: realify(5, 64),
        lambda: binary("anticommutator", 12, 48, 48),
        lambda: binary("op_mul", 6, 128, 128),
        lambda: complex_mul(4, 32),
        lambda: binary("op_mul", 4, 256, 256),
        lambda: tensor(6, 6, 64, 64),
        lambda: binary("commutator", 5, 64, 64),
        lambda: binary("op_mul", 5, 256, 256),
        lambda: transpose(6, 4096),
        lambda: binary("op_mul", 5, 128, 128),
        lambda: realify(14, 300),
        lambda: binary("op_mul", 12, 96, 96),
        lambda: binary("op_mul", 4, 64, 64),
    ]
    for make in plan:
        make()
    return jobs


# ---------------------------------------------------------------------------
# dense


def interleave(spec):
    """Spread the (make, count) classes of a round evenly over it."""
    slots = [((k + 0.5) / count, n, make) for n, (make, count) in enumerate(spec) for k in range(count)]
    return [make for _, _, make in sorted(slots, key=lambda slot: slot[:2])]


def _dense_jobs(rng, nqa):
    ops = nqa.operators
    alg = nqa.algorithms
    jobs: list[Job] = []

    def from_dense_full(m):
        mat = rng.standard_normal((1 << m, 1 << m))
        want = _once(lambda: ref.trace_coeffs(mat))
        jobs.append(Job(f"from_dense full m={m}", lambda: ops.from_dense(mat),
                        lambda out: out.m == m and ref.dense_close(array_of(out), want()),
                        _digest("fd", mat)))

    def from_dense_sparse(m, k):
        table = rand_table(rng, m, k)
        mat = scatter_dense(table, m)

        def check(out):
            got = table_of(out)
            # Parseval: ||M||_F^2 = 2^m sum c^2 rules out any missing mass
            mass = float(np.sum(mat * mat))
            return (out.m == m and ref.tables_close(got, table)
                    and ref.close(sum(c * c for c in got.values()) * (1 << m), mass, mass))

        jobs.append(Job(f"from_dense sparse m={m} {k}", lambda: ops.from_dense(mat), check,
                        _digest("fds", m, table)))

    def to_dense(m, k):
        table = full_table(rng, m) if k == 4 ** m else rand_table(rng, m, k)
        A = operator_of(nqa, table, m)
        if m <= 8:
            want = _once(lambda: ref.kron_dense(table, m))
            check = lambda out: ref.dense_close(out, want())
        else:
            def check(out):
                mass = float(np.sum(out * out))
                return (all(ref.close(ref.trace_coeff(out, a, b), c) for (a, b), c in table.items())
                        and ref.close(mass, (1 << m) * sum(c * c for c in table.values()), mass))
        jobs.append(Job(f"to_dense m={m} {k}", lambda: ops.to_dense(A), check,
                        _digest("td", m, table)))

    def apply(m, k):
        table = rand_table(rng, m, k)
        A = operator_of(nqa, table, m)
        vec = rng.standard_normal(1 << m)
        want = _once(lambda: ref.apply_words(table, vec))
        jobs.append(Job(f"apply m={m} {k}", lambda: ops.apply(A, vec),
                        lambda out: ref.dense_close(out, want()), _digest("ap", m, table, vec)))

    def eig(n):
        sym = rand_symmetric(rng, n)
        want = _once(lambda: np.linalg.eigvalsh(sym))
        jobs.append(Job(f"sym_eigenvalues n={n}", lambda: nqa.linalg.sym_eigenvalues(sym),
                        lambda out: ref.dense_close(np.asarray(out), want()), _digest("eig", sym)))

    def phases(m):
        marked = "".join(rng.choice(("0", "1"), size=m))
        spec = alg.GroverSpec(m, marked)
        q = ref.grover_iterate(m, int(marked, 2))
        want = _once(lambda: np.sort(np.linalg.eigvalsh((q + q.T) / 2.0)))
        jobs.append(Job(
            f"eigenphases grover m={m}",
            lambda: alg.eigenphases(alg.grover_iterate_dense(spec)),
            lambda out: ref.dense_close(np.sort(np.cos(out)), want()),
            _digest("ph", m, marked),
        ))

    # One round has 56 jobs in latency tiers (typical latencies on a 2-vCPU
    # VM in brackets):
    #   24 below the median block: eigenphases m=4/5, sparse from_dense
    #      m=8, apply m=12/14, eig n=16 (2-15 ms);
    #    8 in the median block: sparse to_dense m=8 (~22 ms);
    #   15 between the blocks: eigenphases m=6, apply m=16, from_dense
    #      m=6, eig n=32, sparse from_dense m=10 (40-80 ms);
    #    6 in the 90th-percentile block: sparse to_dense m=10 (~180 ms);
    #    3 heavy jobs: to_dense of a full m=6 operator, from_dense of a
    #      full m=8 matrix, eig n=128 or n=80 (0.4-2 s).
    # Each percentile then falls in the middle of a block of one job class,
    # with the next classes about 2x cheaper and dearer, so per-job noise
    # or a change in one class's speed does not move a percentile onto
    # another class.  Every job that
    # ran is timed, including the failing Jacobi ones, so the ranks do not
    # depend on which jobs fail.  The job list is three rounds with fresh
    # inputs; only the first has the n=128 eigenvalue job, because whether
    # Jacobi converges there moves its time by ~1 s, and one such job per
    # list keeps that from dominating the spread between seeds.
    def round_plan(big_eig):
        return interleave([
            (lambda: phases(4), 3), (lambda: phases(5), 2), (lambda: from_dense_sparse(8, 16), 7),
            (lambda: apply(12, 256), 3), (lambda: apply(14, 64), 3), (lambda: eig(16), 6),
            (lambda: to_dense(8, 24), 8),
            (lambda: phases(6), 1), (lambda: apply(16, 64), 2), (lambda: from_dense_full(6), 6),
            (lambda: eig(32), 4), (lambda: from_dense_sparse(10, 8), 2),
            (lambda: to_dense(10, 12), 6),
            (lambda: to_dense(6, 4096), 1), (lambda: from_dense_full(8), 1), (lambda: eig(big_eig), 1),
        ])

    plan = round_plan(128) + round_plan(80) + round_plan(80)
    for make in plan:
        make()
    return jobs


# ---------------------------------------------------------------------------
# cli


def _parse_table(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if lines == ["0"]:
        return {}
    return ref.from_labels((w, float(c)) for w, c in (ln.split() for ln in lines))


def _ok(result, check_stdout) -> bool:
    code, out, err = result
    return code == 0 and check_stdout(out)


def _json_ok(result, check_payload) -> bool:
    code, out, _ = result
    return code == 0 and check_payload(json.loads(out))


_KNOWN_GATES = {
    "H(1,1)": np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),
    "P0(1,1)": np.diag([1.0, 0.0]),
    "P1(1,1)": np.diag([0.0, 1.0]),
    "CZ(1,2)": np.diag([1.0, 1.0, 1.0, -1.0]),
    "CNOT(1,2)": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float),
    "SWAP(1,2)": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float),
    "PI_EVEN(1,2)": np.diag([1.0, 0.0, 0.0, 1.0]),
    "PI_ODD(1,2)": np.diag([0.0, 1.0, 1.0, 0.0]),
}
_PHASE_GATES = {"S(1,1)": 1j, "T(1,1)": complex(math.cos(math.pi / 4), math.sin(math.pi / 4))}


def _gates_ok(payload) -> bool:
    seen = set()
    for entry in payload:
        name = entry["gate"]
        seen.add(name)
        if "terms" in entry:
            table = ref.from_labels((t["word"], t["coeff"]) for t in entry["terms"])
            m = len(entry["terms"][0]["word"])
            dense = ref.kron_dense(table, m)
            if name in _KNOWN_GATES:
                if not ref.dense_close(dense, _KNOWN_GATES[name]):
                    return False
            elif not ref.dense_close(dense.T @ dense, np.eye(1 << m)):
                return False
        else:
            re_t = ref.from_labels((t["word"], t["coeff"]) for t in entry["re"])
            im_t = ref.from_labels((t["word"], t["coeff"]) for t in entry["im"])
            dense = ref.kron_dense(re_t, 1) + 1j * ref.kron_dense(im_t, 1)
            # equal to diag(1, phase) up to a global phase
            if np.max(np.abs(dense / dense[0, 0] - np.diag([1.0, _PHASE_GATES[name]]))) > 1e-9:
                return False
    return seen >= set(_KNOWN_GATES) | set(_PHASE_GATES)


def _cl22_ok(payload) -> bool:
    """16 distinct two-slot words; generators of signature (2, 2) that
    anticommute; every row the signed product of its generators."""
    if len(payload) != 16 or len({r["word"] for r in payload}) != 16:
        return False
    gens = {r["monomial"]: ref.bits(r["word"]) for r in payload if len(r["monomial"]) == 2}
    if sorted(gens) != ["e1", "e2", "e3", "e4"]:
        return False
    for i, name in enumerate(("e1", "e2", "e3", "e4")):
        a, b = gens[name]
        square = -1 if (a & b).bit_count() & 1 else 1
        if square != (1 if i < 2 else -1):
            return False
        for other in ("e1", "e2", "e3", "e4")[i + 1:]:
            a2, b2 = gens[other]
            if ((b & a2).bit_count() + (b2 & a).bit_count()) & 1 != 1:
                return False
    for row in payload:
        sign, alpha, beta = 1, 0, 0
        mono = row["monomial"]
        if mono != "1":
            for k in mono.split("e")[1:]:
                a, b = gens["e" + k]
                s, alpha, beta = ref.word_product(alpha, beta, a, b)
                sign *= s
        if (alpha, beta) != ref.bits(row["word"]) or sign != (1 if row["sign"] == "+" else -1):
            return False
    return True


def _cli_jobs(rng, scratch):
    jobs: list[Job] = []
    sqrt2 = math.sqrt(2.0)

    def add(name, argv, check, *inputs):
        # matrix files are named by job index, so the digest takes their contents
        paths = [a for a in argv if a.startswith(scratch)]
        jobs.append(Job(name, argv, check, _digest([a for a in argv if a not in paths], *inputs)))

    def slots(m, k):
        return [int(s) + 1 for s in rng.choice(m, size=k, replace=False)]

    def h_layer(m):
        return "*".join(f"H({k},{m})" for k in range(1, m + 1))

    def eval_gate(m):
        kind = ("H", "CZ", "CNOT")[len(jobs) % 3]
        p, q = slots(m, 2)
        if kind == "H":
            expr, want = f"H({p},{m})", ref.h_table(m, p)
        elif kind == "CZ":
            expr, want = f"CZ({p},{q},{m})", ref.cz_table(m, p, q)
        else:
            expr, want = f"CNOT({p},{q},{m})", ref.cnot_table(m, p, q)
        add(f"eval gate m={m}", ["eval", expr],
            lambda r: _ok(r, lambda out: ref.tables_close(_parse_table(out), want)))

    def eval_conj(m, middle):
        p, q = slots(m, 2)
        if middle == "Z":
            inner, table = f"Z({p},{m})", {ref.single_word(m, p, "Z"): 1.0}
        else:
            inner, table = f"CZ({p},{q},{m})", ref.cz_table(m, p, q)
        want = ref.hadamard_conjugate(table, m, range(1, m + 1))
        add(f"eval H-layer*{middle}*H-layer m={m}", ["eval", f"{h_layer(m)}*{inner}*{h_layer(m)}"],
            lambda r: _ok(r, lambda out: ref.tables_close(_parse_table(out), want)))

    def eval_words(m):
        (a1, b1), (a2, b2), (a3, b3) = rand_table(rng, m, 3)
        sign, a, b = ref.word_product(a1, b1, a2, b2)
        want = {(a, b): float(sign)}
        want[(a3, b3)] = want.get((a3, b3), 0.0) - 0.5
        expr = f"{ref.label(a1, b1, m)}*{ref.label(a2, b2, m)} - 1/2*{ref.label(a3, b3, m)}"
        add(f"eval words m={m}", ["eval", expr],
            lambda r: _ok(r, lambda out: ref.tables_close(_parse_table(out), want)))

    def decompose(m, k=None):
        if k is None:
            mat = rng.standard_normal((1 << m, 1 << m))
            want = _once(lambda: {key: c for key, c in np.ndenumerate(ref.trace_coeffs(mat))
                                  if abs(c) > 1e-12})
        else:
            table = rand_table(rng, m, k)
            mat = scatter_dense(table, m)
            want = lambda: table
        path = os.path.join(scratch, f"matrix-{len(jobs)}.json")
        with open(path, "w") as fh:
            json.dump(mat.tolist(), fh)
        add(f"decompose m={m}" + (" sparse" if k else " full"), ["decompose", "--matrix", path],
            lambda r: _ok(r, lambda out: ref.tables_close(_parse_table(out), want())), mat)

    def grover(m):
        marked = "".join(rng.choice(("0", "1"), size=m))
        t, theta, success = ref.grover_expected(m)
        add(f"grover m={m}", ["grover", "--m", str(m), "--marked", marked, "--json"],
            lambda r: _json_ok(r, lambda p: p["marked"] == marked and p["iterations"] == t
                               and ref.close(p["theta"], theta) and ref.close(p["success"], success)))

    def bv(m, style):
        if style == "support":
            wires = sorted(slots(m, int(rng.integers(1, m))))
        else:
            wires = [int(w) + 1 for w in rng.integers(0, m, size=int(rng.integers(m, 2 * m)))]
        secret = ref.bv_secret(m, wires)
        add(f"bv m={m} {style}", ["bv", "--m", str(m), f"--{style}", ",".join(map(str, wires)), "--json"],
            lambda r: _json_ok(r, lambda p: p["secret"] == secret and p["factors"] == len(wires)))

    def chsh(mode):
        spectrum = [-2 * sqrt2, 0.0, 0.0, 2 * sqrt2]
        if mode == "report":
            argv = ["chsh", "report", "--json"]
            check = lambda p: (ref.dense_close(np.array(p["quantum_spectrum"]), np.array(spectrum))
                               and p["classical_values"] == [-2, 2] and p["classical_bound"] == 2.0
                               and ref.close(p["gap"], 2 * sqrt2 - 2))
        elif mode == "quantum":
            argv = ["chsh", "quantum", "--json"]
            check = lambda p: (ref.dense_close(np.sort(p["spectrum"]), np.array(spectrum))
                               and ref.dense_close(np.linalg.eigvalsh(np.array(p["matrix"])), np.array(spectrum)))
        else:
            argv = ["chsh", "classical", "--n", "64", "--seed", str(int(rng.integers(1 << 30))), "--json"]
            check = lambda p: set(p["values"]) <= {-2, 2} and p["values"] and p["bound"] == 2.0
        add(f"chsh {mode}", argv, lambda r: _json_ok(r, check))

    def check_cmd(name):
        seed = str(int(rng.integers(1 << 30)))
        argv = {"jacobi": ["check", "jacobi", "--m", "3", "--trials", "40", "--seed", seed],
                "phi": ["check", "phi", "--m", "2", "--trials", "20", "--seed", seed],
                "dict": ["check", "dict", "--seed", seed]}[name] + ["--json"]
        add(f"check {name}", argv,
            lambda r: _json_ok(r, lambda p: [x["name"] for x in p] == [name] and all(x["passed"] for x in p)))

    def table(which):
        add(f"table {which}", ["table", which, "--json"],
            lambda r: _json_ok(r, _cl22_ok if which == "cl22" else _gates_ok))

    def malformed(kind):
        m = int(rng.integers(3, 8))
        if kind == "gate":
            argv = ["eval", f"FOO({m})"]
        elif kind == "parse":
            argv = ["eval", f"{ref.label(1, 0, m)} +"]
        elif kind == "grover":
            argv = ["grover", "--m", str(m), "--marked", "1" * (m - 1)]
        elif kind == "bv":
            argv = ["bv", "--m", str(m), "--support", f"1,{m + 1}"]
        else:
            path = os.path.join(scratch, f"matrix-{len(jobs)}.json")
            with open(path, "w") as fh:
                json.dump(rng.standard_normal((3, 3)).tolist(), fh)
            argv = ["decompose", "--matrix", path]
        add(f"malformed {kind}", argv,
            lambda r: r[0] == 2 and r[2].startswith("error:") and r[1] == "", m)

    plan = [
        lambda: eval_gate(6), lambda: grover(10), lambda: decompose(3), lambda: bv(20, "support"),
        lambda: eval_conj(6, "Z"), lambda: chsh("report"), lambda: malformed("gate"),
        lambda: check_cmd("jacobi"), lambda: eval_words(8), lambda: grover(12),
        lambda: decompose(6, 8), lambda: table("cl22"), lambda: eval_conj(8, "CZ"),
        lambda: bv(32, "factors"), lambda: malformed("parse"), lambda: eval_gate(8),
        lambda: grover(14), lambda: decompose(4), lambda: check_cmd("phi"), lambda: eval_conj(10, "Z"),
        lambda: chsh("quantum"), lambda: bv(48, "support"), lambda: malformed("grover"),
        lambda: eval_gate(10), lambda: grover(16), lambda: decompose(7, 8), lambda: table("gates"),
        lambda: eval_conj(6, "CZ"), lambda: check_cmd("dict"), lambda: bv(64, "factors"),
        lambda: malformed("bv"), lambda: eval_words(10), lambda: grover(18), lambda: decompose(5),
        lambda: chsh("classical"), lambda: malformed("decompose"),
    ]
    for make in plan:
        make()
    return jobs


def build(name: str, seed: int, nqa, scratch: str) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "algebra":
        return _algebra_jobs(rng, nqa)
    if name == "dense":
        return _dense_jobs(rng, nqa)
    return _cli_jobs(rng, scratch)
