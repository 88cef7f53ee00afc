"""Self-test of the benchmark: inputs follow the seed, work counts repeat.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (sets the BLAS thread variables and the import path)
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)

import nqa  # noqa: E402
import nqa.algorithms  # noqa: E402,F401
import nqa.cli  # noqa: E402,F401

# the counts a traced run reports that measure work, not time
WORK_COUNTS = (
    "words.products",
    "operators.NqaOperator.terms_in",
    "operators.NqaOperator.terms_out",
    "operators.to_dense.entries",
    "operators.apply.work",
    "operators.from_dense.terms_out",
    "linalg.sym_eigenvalues.failed",
)
PREFIX = 14  # jobs per traced pass in this test, to keep it short


def job_list(name, seed, tmp_path):
    scratch = tmp_path / f"{name}-{seed}"
    scratch.mkdir(parents=True)
    return workloads.build(name, seed, nqa, str(scratch))


def work_counts(name, seed, tmp_path):
    jobs = job_list(name, seed, tmp_path)[:PREFIX]
    runner = run.CliRunner.in_process if name == "cli" else None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally = run.one_pass(jobs, runner, tracer)
    finally:
        tracer.uninstall()
    assert tally.wrong == 0
    _, calls, _, _ = tracing.self_times(tracer.spans)
    return {k: tracer.counts[k] for k in WORK_COUNTS}, dict(calls)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_job_list(name, tmp_path):
    first = job_list(name, 3, tmp_path)
    second = job_list(name, 3, tmp_path / "again")
    assert [(j.name, j.digest) for j in first] == [(j.name, j.digest) for j in second]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_job_list(name, tmp_path):
    first = [j.digest for j in job_list(name, 3, tmp_path)]
    second = [j.digest for j in job_list(name, 4, tmp_path)]
    assert first != second


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_work_counts_repeat(name, tmp_path):
    first = work_counts(name, 5, tmp_path)
    second = work_counts(name, 5, tmp_path / "again")
    assert first == second


def test_tracing_restores_the_package():
    before = nqa.operators.op_mul, nqa.gates.op_mul, nqa.operators.NqaOperator.__init__
    tracer = tracing.Tracer()
    tracer.install()
    assert nqa.gates.op_mul is nqa.operators.op_mul is not before[0]
    tracer.uninstall()
    assert (nqa.operators.op_mul, nqa.gates.op_mul, nqa.operators.NqaOperator.__init__) == before
