#!/usr/bin/env python3
"""nqa benchmark: three seeded closed-loop workloads, checked against
independent references, with an optional traced run for per-layer numbers.

    python3 bench/run.py --workload algebra --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

Run from the repository root; the package is imported from ./src.  One
client sends the next job when the previous one has finished.  A run makes
whole passes over the workload's fixed job list, as many as bring the timed
work closest to `--seconds`, and at least 100 jobs.  Each job is checked outside the
timed interval.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics; `--trace 1` makes one untraced and one traced pass of
the job list and reports the per-layer metrics (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# One BLAS thread, so that timings do not depend on the core count; set
# before numpy loads, in this process and in every child process.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, BENCH)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100
SETUP_REPEATS = 5
STARTUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        path = os.path.join(git, name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> str:
    """Thread count OpenBLAS reports, or the variable we set if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln}
        for path in paths:
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    getter = getattr(lib, fn)
                    getter.restype = ctypes.c_int
                    return str(getter())
    except OSError:
        pass
    return f"{BLAS_THREADS} (OPENBLAS_NUM_THREADS)"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


# ---------------------------------------------------------------------------
# running jobs


class CliRunner:
    """Runs `python -m nqa.cli` children one at a time, or `cli.main` in-process."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.env = child_env()
        self.peak_kb = 0

    def subprocess(self, argv):
        out_path = os.path.join(self.scratch, "stdout")
        err_path = os.path.join(self.scratch, "stderr")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "nqa.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=self.env,
            )
            # wait4 gives this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode()

    @staticmethod
    def in_process(argv):
        import contextlib
        import io

        import nqa.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = nqa.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()


def run_job(job, runner, tracer=None):
    """(seconds, ok, wrong): wrong means an answer that disagrees with the
    reference, or an exception that is not an NqaError.  The tracer, if
    any, records spans only while the job's call runs."""
    from nqa.errors import NqaError

    call = job.call if runner is None else (lambda: runner(job.call))
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result = call()
    except NqaError as exc:
        elapsed = time.perf_counter() - start
        print(f"job failed: {job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False, False
    except Exception as exc:  # an exception the program should not raise
        elapsed = time.perf_counter() - start
        print(f"job failed: {job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return elapsed, False, True
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = time.perf_counter() - start
    ok = workloads.verify(job, result)
    if not ok:
        print(f"job wrong: {job.name}", file=sys.stderr)
    return elapsed, ok, not ok


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.busy = 0.0
        self.latencies: list[float] = []
        self.by_class: dict[str, list[float]] = {}
        self.failures: dict[str, int] = {}

    def add(self, job, elapsed, ok, wrong):
        self.attempted += 1
        self.busy += elapsed
        if not wrong:
            self.latencies.append(elapsed)
            self.by_class.setdefault(job.name, []).append(elapsed)
        if not ok:
            self.failed += 1
            self.wrong += wrong
            self.failures[job.name] = self.failures.get(job.name, 0) + 1


def timed_loop(jobs, runner, seconds: float) -> Tally:
    """Whole passes over the job list: as many as bring the timed work
    closest to `seconds`, and at least MIN_JOBS jobs."""
    tally = Tally()
    passes = 0
    while passes == 0 or tally.attempted < MIN_JOBS or tally.busy * (1 + 0.5 / passes) < seconds:
        for job in jobs:
            tally.add(job, *run_job(job, runner))
        passes += 1
    return tally


def one_pass(jobs, runner, tracer=None) -> Tally:
    tally = Tally()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        tally.add(job, *run_job(job, runner, tracer))
    return tally


# ---------------------------------------------------------------------------
# set-up


def import_seconds(env) -> float:
    """Time to import nqa, measured inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import nqa; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env=env, check=True)
    return float(done.stdout)


def command_ms(argv, env, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, capture_output=True, cwd=ROOT, env=env, check=True)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def set_up(args, scratch, repeats: int):
    """Import nqa, then build the job list `repeats` times; each set-up
    sample is one import (fresh interpreter) plus one build."""
    import nqa
    import nqa.algorithms  # noqa: F401  (submodules the workloads reach through nqa.*)
    import nqa.cli  # noqa: F401

    env = child_env()
    samples = []
    jobs = None
    for _ in range(repeats):
        imported = import_seconds(env)
        start = time.perf_counter()
        jobs = workloads.build(args.workload, args.seed, nqa, scratch)
        samples.append(imported + time.perf_counter() - start)
    return jobs, statistics.median(samples)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(tally: Tally, setup_s: float, peak_kb: int) -> dict:
    lat = tally.latencies
    if len(lat) < MIN_JOBS // 2:
        raise SystemExit(f"error: only {len(lat)} of {tally.attempted} jobs gave an answer to time")
    return {
        "setup_s": setup_s,
        "jobs_per_s": tally.attempted / tally.busy,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer, traced: Tally, untraced: Tally, startup) -> dict:
    self_s, calls, tagged, top = tracing.self_times(tracer.spans)
    counts = tracer.counts

    def own(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    ctor = "operators.NqaOperator.__init__"
    op_mul_self = own("operators.op_mul")
    m = {
        "words.products": counts["words.products"],
        "words.parity_table.calls": calls["words.parity_table"],
        "words.parity_table.self_s": own("words.parity_table"),
        "operators.NqaOperator.calls": calls[ctor],
        "operators.NqaOperator.self_s": own(ctor),
        "operators.NqaOperator.terms_in": counts["operators.NqaOperator.terms_in"],
        "operators.NqaOperator.terms_out": counts["operators.NqaOperator.terms_out"],
        "operators.NqaOperator.keep_ratio": (
            counts["operators.NqaOperator.terms_out"] / counts["operators.NqaOperator.terms_in"]
            if counts["operators.NqaOperator.terms_in"] else 0.0),
        "operators.op_mul.calls": calls["operators.op_mul"],
        "operators.op_mul.self_s": op_mul_self,
        "operators.op_mul.pairs_per_s": counts["words.products"] / op_mul_self if op_mul_self else 0.0,
        "operators.op_mul.small_m.self_s": tagged[("operators.op_mul", "small_m")],
        "operators.op_mul.large_m.self_s": tagged[("operators.op_mul", "large_m")],
        "operators.brackets.self_s": own("operators.commutator", "operators.anticommutator",
                                         "operators.epsilon_commutator", "operators.supercommutator"),
        "operators.tensor.self_s": own("operators.tensor"),
        "operators.op_transpose.self_s": own("operators.op_transpose"),
        "realify.phi.self_s": own("realify.phi"),
        "realify.complex_mul.self_s": own("realify.complex_mul"),
        "operators.to_dense.calls": calls["operators.NqaOperator.to_dense"],
        "operators.to_dense.self_s": own("operators.NqaOperator.to_dense"),
        "operators.to_dense.entries": counts["operators.to_dense.entries"],
        "operators.from_dense.calls": calls["operators.from_dense"],
        "operators.from_dense.self_s": own("operators.from_dense"),
        "operators.from_dense.terms_out": counts["operators.from_dense.terms_out"],
        "operators.apply.calls": calls["operators.NqaOperator.apply"],
        "operators.apply.self_s": own("operators.NqaOperator.apply"),
        "operators.apply.work": counts["operators.apply.work"],
        "linalg.sym_eigenvalues.calls": calls["linalg.sym_eigenvalues"],
        "linalg.sym_eigenvalues.self_s": own("linalg.sym_eigenvalues"),
        "linalg.sym_eigenvalues.failed": counts["linalg.sym_eigenvalues.failed"],
        "expr.parse.self_s": own("expr.parse"),
        "expr.evaluate.self_s": own("expr.evaluate"),
        "cli.main.self_s": own("cli.main"),
        "cli.startup_ms": startup[0],
        "cli.python_ms": startup[1],
    }
    # self time of each module; with trace.untraced_s these add up to trace.wall_s
    for module in LAYERS:
        m[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)
    m["trace.wall_s"] = traced.busy
    m["trace.untraced_s"] = traced.busy - top
    m["trace.overhead_frac"] = traced.busy / untraced.busy - 1.0
    return m


LAYERS = ("words", "operators", "realify", "linalg", "gates", "expr", "algorithms", "chsh",
          "checks", "clifford22", "cli")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# modes


def run_untraced(args, scratch) -> tuple[dict, Tally]:
    jobs, setup_s = set_up(args, scratch, SETUP_REPEATS)
    if args.workload == "cli":
        cli = CliRunner(scratch)
        tally = timed_loop(jobs, cli.subprocess, args.seconds)
        peak_kb = cli.peak_kb
    else:
        tally = timed_loop(jobs, None, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return end_to_end(tally, setup_s, peak_kb), tally


def run_traced(args, scratch) -> tuple[dict, Tally, list]:
    jobs, _ = set_up(args, scratch, 1)
    runner = CliRunner.in_process if args.workload == "cli" else None
    untraced = one_pass(jobs, runner)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = one_pass(jobs, runner, tracer)
    finally:
        tracer.uninstall()
    if args.workload == "cli":
        env = child_env()
        startup = (command_ms([sys.executable, "-c", "import nqa"], env, STARTUP_REPEATS),
                   command_ms([sys.executable, "-c", "pass"], env, STARTUP_REPEATS))
    else:
        startup = (0.0, 0.0)
    metrics = per_layer(tracer, traced, untraced, startup)
    layer_sum = sum(metrics[f"{mod}.self_s"] for mod in LAYERS) + metrics["trace.untraced_s"]
    if abs(layer_sum - traced.busy) > 0.01 * traced.busy:
        print(f"trace: self times + untraced = {layer_sum:.6f} s, wall {traced.busy:.6f} s",
              file=sys.stderr)
        traced.wrong += 1
    spans = [[s[0], s[1], s[2], s[3], s[4]] for s in tracer.spans]
    return metrics, traced, spans


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}")
            return done.returncode
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, res in rows.items():
        with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")) as fh:
            samples = json.load(fh)["latency_samples"]
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}"
              f" latency_samples={samples}")
        print(f"   fail_frac {res['failed'] / res['attempted']:.6g} ratio")
        for key, val in res["metrics"].items():
            print(f"   {key} {val['value']:.6g} {val['unit']}")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nqa", "__init__.py")):
        print(f"error: no nqa package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.trace:
            metrics, tally, spans = run_traced(args, scratch)
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics, tally = run_untraced(args, scratch)
            spans = None
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment(args)
    record = {
        "env": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failures": tally.failures,
        "latency_samples": len(tally.latencies),
        "median_ms_by_class": {k: statistics.median(v) * 1e3 for k, v in sorted(tally.by_class.items())},
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT, stem + ".spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": spans}, fh)

    print("env " + json.dumps(env))
    print(f"attempted {tally.attempted}  failed {tally.failed}  "
          f"fail_frac {tally.failed / tally.attempted:.6g}  latency samples {len(tally.latencies)}")
    for name, job_count in sorted(tally.failures.items()):
        print(f"  failed: {name} x{job_count}")
    for key, val in metrics.items():
        print(f"{key} {val:.6g} {units[key]}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
