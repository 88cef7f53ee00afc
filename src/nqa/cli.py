"""Command line front end.

Subcommands: eval, decompose, bv, grover, chsh, table, check.  Every
subcommand accepts --json for machine-readable output; human output is
deterministic and sorted.  Exit codes: 0 on success, 1 when a check
fails, 2 on usage or domain errors.  A domain error prints one line to
stderr: `error: <text>`, or with --json the object
{"error": <message>, "kind": <exception class>, "column": <1-based column
in the expression, or null>}.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .algorithms import GroverSpec, BvOracleSpec, bv_recover, grover_run
from .checks import CHECK_NAMES, run_checks
from .chsh import (
    ClassicalModel,
    chsh_quantum_matrix,
    chsh_quantum_spectrum,
    classical_value_set,
    classical_values,
    nonembeddability_report,
)
from .clifford22 import dictionary
from .errors import NqaError
from .expr import evaluate
from .gates import bell_transform, lifted_gate, single_gate, two_gate
from .operators import NqaOperator, from_dense

__all__ = ["main"]


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _table_rows(op: NqaOperator) -> list[dict]:
    return [{"word": label, "coeff": coeff} for label, coeff in op.to_table()]


def _print_table(op: NqaOperator, indent: str = "") -> None:
    if op.is_zero():
        print(f"{indent}0")
        return
    for label, coeff in op.to_table():
        print(f"{indent}{label}  {coeff:+.12g}")


def _print_dense(matrix: np.ndarray) -> None:
    for row in matrix:
        print("  ".join(f"{v: .9f}" for v in row))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    op = evaluate(args.expr)
    if args.json:
        if args.dense:
            payload = {"m": op.m, "terms": _table_rows(op), "dense": op.to_dense().tolist()}
        else:
            payload = _table_rows(op)
        print(json.dumps(payload))
        return 0
    _print_table(op)
    if args.dense:
        print("dense:")
        _print_dense(op.to_dense())
    return 0


def _cmd_decompose(args) -> int:
    # matrix file is a JSON array of arrays (row-major)
    try:
        if args.matrix == "-":
            rows = json.load(sys.stdin)
        else:
            with open(args.matrix) as fh:
                rows = json.load(fh)
        matrix = np.array(rows, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("expected an array of arrays")
    except (OSError, ValueError) as exc:
        raise NqaError(f"could not read matrix: {exc}") from None
    op = from_dense(matrix, tol=args.tol)
    if args.json:
        print(json.dumps({"m": op.m, "terms": _table_rows(op)}))
        return 0
    _print_table(op)
    return 0


def _parse_wires(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise NqaError(f"wire lists are comma-separated integers, got {text!r}") from None


def _cmd_bv(args) -> int:
    if args.support is not None:
        spec = BvOracleSpec.from_support(args.m, _parse_wires(args.support))
    else:
        spec = BvOracleSpec.from_factors(args.m, _parse_wires(args.factors))
    recovery = bv_recover(spec)
    length = len(spec.factors)
    bound = 4 * (spec.m + length)
    if args.json:
        print(json.dumps({
            "m": spec.m,
            "factors": length,
            "secret": recovery.secret,
            "steps": recovery.steps,
            "step_bound": bound,
        }))
        return 0
    print(f"m = {spec.m}")
    print(f"oracle factors = {length}")
    print(f"secret = {recovery.secret}")
    print(f"steps = {recovery.steps} (bound {bound})")
    return 0


def _cmd_grover(args) -> int:
    if args.iters == "auto":
        iterations = None
    else:
        try:
            iterations = int(args.iters)
        except ValueError:
            raise NqaError(f"--iters takes an integer or 'auto', got {args.iters!r}") from None
    spec = GroverSpec(args.m, args.marked, iterations)
    run = grover_run(spec)
    if args.json:
        payload = {
            "m": run.spec.m,
            "marked": run.spec.marked,
            "iterations": run.iterations,
            "theta": run.theta,
            "success": run.success,
        }
        if args.trace:
            payload["trace"] = list(run.trace)
        print(json.dumps(payload))
        return 0
    print(f"m = {run.spec.m}")
    print(f"marked = {run.spec.marked}")
    print(f"iterations = {run.iterations}")
    print(f"theta = {_fmt(run.theta)}")
    print(f"success = {_fmt(run.success)}")
    if args.trace:
        for t, p in enumerate(run.trace):
            print(f"t={t} p={_fmt(p)}")
    return 0


def _cmd_chsh(args) -> int:
    if args.mode == "quantum":
        spectrum = [float(v) for v in chsh_quantum_spectrum()]
        if args.json:
            print(json.dumps({
                "spectrum": spectrum,
                "matrix": chsh_quantum_matrix().tolist(),
            }))
            return 0
        for value in spectrum:
            print(f"eigenvalue {_fmt(value)}")
        return 0
    if args.mode == "classical":
        if args.n is not None:
            model = ClassicalModel.random(args.n, args.seed)
            observed = sorted(int(v) for v in set(classical_values(model).tolist()))
            label = f"{args.n} random hidden states (seed {args.seed})"
        else:
            observed = sorted(classical_value_set())
            label = "16 exhaustive assignments"
        if args.json:
            print(json.dumps({"assignments": label, "values": observed, "bound": 2.0}))
            return 0
        print(f"assignments = {label}")
        print("values = " + ", ".join(str(v) for v in observed))
        print("bound = 2")
        return 0
    report = nonembeddability_report()
    if args.json:
        print(json.dumps({
            "quantum_spectrum": list(report.quantum_spectrum),
            "classical_values": list(report.classical_values),
            "classical_bound": report.classical_bound,
            "quantum_norm": report.quantum_norm,
            "gap": report.gap,
        }))
        return 0
    print("quantum spectrum = " + ", ".join(_fmt(v) for v in report.quantum_spectrum))
    print(f"quantum norm = {_fmt(report.quantum_norm)}")
    print("classical values = " + ", ".join(str(v) for v in report.classical_values))
    print(f"classical bound = {_fmt(report.classical_bound)}")
    print(f"gap = {_fmt(report.gap)}")
    return 0


def _gate_listing() -> list[tuple[str, object]]:
    return [
        ("H(1,1)", single_gate("H", 1, 1)),
        ("P0(1,1)", single_gate("P0", 1, 1)),
        ("P1(1,1)", single_gate("P1", 1, 1)),
        ("S(1,1)", single_gate("S", 1, 1)),
        ("T(1,1)", single_gate("T", 1, 1)),
        ("CZ(1,2)", two_gate("CZ", (1, 2), 2)),
        ("CNOT(1,2)", two_gate("CNOT", (1, 2), 2)),
        ("SWAP(1,2)", two_gate("SWAP", (1, 2), 2)),
        ("PI_EVEN(1,2)", two_gate("PI_EVEN", (1, 2), 2)),
        ("PI_ODD(1,2)", two_gate("PI_ODD", (1, 2), 2)),
        ("BELL()", bell_transform()),
        ("ISWAP()", lifted_gate("ISWAP")),
        ("SQRTSWAP()", lifted_gate("SQRTSWAP")),
    ]


def _cmd_table(args) -> int:
    if args.which == "cl22":
        rows = dictionary()
        if args.json:
            print(json.dumps([
                {"word": w, "pauli": p, "monomial": body, "sign": sign}
                for w, p, body, sign in rows
            ]))
            return 0
        for w, p, body, sign in rows:
            print(f"{w:<4} {p:<10} {sign}{body}")
        return 0
    entries = _gate_listing()
    if args.json:
        payload = []
        for name, gate in entries:
            if isinstance(gate, NqaOperator):
                payload.append({"gate": name, "terms": _table_rows(gate)})
            else:
                payload.append({
                    "gate": name,
                    "re": _table_rows(gate.re),
                    "im": _table_rows(gate.im),
                })
        print(json.dumps(payload))
        return 0
    for name, gate in entries:
        print(name)
        if isinstance(gate, NqaOperator):
            _print_table(gate, indent="  ")
        else:
            print("  re:")
            _print_table(gate.re, indent="    ")
            print("  im:")
            _print_table(gate.im, indent="    ")
    return 0


def _cmd_check(args) -> int:
    results = run_checks(args.name, args.m, args.trials, args.seed)
    if args.json:
        print(json.dumps([
            {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nqa",
        description="Symbolic calculus for real multi-qubit operators over I, X, Z, W.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an operator expression")
    p.add_argument("expr", help="expression, e.g. '1/sqrt(2)*(X+Z)' or 'CZ(1,2)*CZ(1,2)'")
    p.add_argument("--dense", action="store_true", help="also print the dense matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("decompose", help="decompose a dense matrix into words")
    p.add_argument("--matrix", required=True, help="whitespace text matrix file, or - for stdin")
    p.add_argument("--tol", type=float, default=1e-12, help="drop coefficients at or below this")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bv", help="recover a secret from a structured parity oracle")
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--support", help="comma-separated wires carrying a Z factor")
    group.add_argument("--factors", help="comma-separated factor wires, duplicates kept")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bv)

    p = sub.add_parser("grover", help="run amplitude amplification on one marked string")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--marked", required=True, help="marked bit string of length m")
    p.add_argument("--iters", default="auto", help="iteration count, or 'auto'")
    p.add_argument("--trace", action="store_true", help="print success probability per step")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_grover)

    p = sub.add_parser("chsh", help="correlation operator spectra vs sign models")
    p.add_argument("mode", choices=("quantum", "classical", "report"))
    p.add_argument("--n", type=int, help="classical mode: sample this many random hidden states")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chsh)

    p = sub.add_parser("table", help="print the reference tables")
    p.add_argument("which", choices=("cl22", "gates"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("check", help="run the internal consistency checks")
    p.add_argument("name", choices=CHECK_NAMES + ("all",))
    p.add_argument("--m", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NqaError as exc:
        if args.json:
            column = None if exc.position is None else exc.position + 1
            error = {"error": exc.message, "kind": type(exc).__name__, "column": column}
            print(json.dumps(error), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
