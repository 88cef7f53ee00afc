"""End-to-end runs of every CLI subcommand."""

import json
import math

import numpy as np
import pytest

from nqa.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_human(capsys):
    code, out, err = run(capsys, "eval", "1/2*(II+ZI+IZ-ZZ)")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "II  +0.5",
        "IZ  +0.5",
        "ZI  +0.5",
        "ZZ  -0.5",
    ]


def test_eval_json_sorted(capsys):
    code, out, _ = run(capsys, "eval", "--json", "Z+X")
    assert code == 0
    terms = json.loads(out)
    assert terms == [{"word": "X", "coeff": 1.0}, {"word": "Z", "coeff": 1.0}]


def test_eval_dense_json(capsys):
    code, out, _ = run(capsys, "eval", "--json", "--dense", "H(1,1)")
    payload = json.loads(out)
    assert code == 0
    assert payload["m"] == 1
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(payload["dense"], [[r, r], [r, -r]])
    assert payload["terms"][0]["word"] == "X"


def test_eval_zero_prints_zero(capsys):
    code, out, _ = run(capsys, "eval", "X-X")
    assert code == 0
    assert out.strip() == "0"


def test_eval_errors_exit_2(capsys):
    code, out, err = run(capsys, "eval", "S(1,1)")
    assert code == 2
    assert out == "" and "error:" in err
    code, _, err = run(capsys, "eval", "X +")
    assert code == 2
    assert "column" in err


def test_json_errors(capsys):
    cases = [
        (["eval", "X(", "--json"], "ParseError", "gate arguments are scalars", 3),
        (["eval", "--json", "1/2 + X"], "EvaluationError", "cannot add a scalar and an operator", 5),
        (["eval", "S(1,1)", "--json"], "EvaluationError", None, None),
        (["grover", "--m", "3", "--marked", "11", "--json"], "DimensionError", None, None),
        (["eval", "Z(65)", "--json"], "EvaluationError", "operators are capped at m <= 64 slots, got m=65", 1),
    ]
    for argv, kind, message, column in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        payload = json.loads(err)
        assert sorted(payload) == ["column", "error", "kind"]
        assert payload["kind"] == kind and payload["column"] == column
        if message is not None:
            assert payload["error"] == message
        # the same error without --json keeps its text line
        code, out, plain = run(capsys, *[a for a in argv if a != "--json"])
        assert code == 2 and out == ""
        prefix = "" if column is None else f"column {column}: "
        assert plain == f"error: {prefix}{payload['error']}\n"


def test_decompose(tmp_path, capsys):
    target = tmp_path / "mat.json"
    target.write_text("[[0, 1], [1, 0]]")
    code, out, _ = run(capsys, "decompose", "--matrix", str(target))
    assert code == 0
    assert out.splitlines() == ["X  +1"]
    code, out, _ = run(capsys, "decompose", "--matrix", str(target), "--json")
    assert json.loads(out) == {"m": 1, "terms": [{"word": "X", "coeff": 1.0}]}
    # 3x3 is a valid JSON matrix but not a power-of-two operator
    bad = tmp_path / "bad.json"
    bad.write_text("[[0, 1, 2], [1, 0, 2], [2, 2, 2]]")
    code, _, err = run(capsys, "decompose", "--matrix", str(bad))
    assert code == 2 and "error:" in err
    # malformed JSON and a missing file both map to usage errors
    ugly = tmp_path / "ugly.json"
    ugly.write_text("0 1\n1 0\n")
    code, _, err = run(capsys, "decompose", "--matrix", str(ugly))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "decompose", "--matrix", str(tmp_path / "missing.json"))
    assert code == 2


def test_bv(capsys):
    code, out, _ = run(capsys, "bv", "--m", "4", "--support", "1,3")
    assert code == 0
    lines = out.splitlines()
    assert "secret = 1010" in lines
    assert any(line.startswith("steps = ") for line in lines)
    code, out, _ = run(capsys, "bv", "--m", "3", "--factors", "3,1,3", "--json")
    payload = json.loads(out)
    assert payload["secret"] == "100"
    assert payload["factors"] == 3
    assert payload["steps"] <= payload["step_bound"]
    code, _, err = run(capsys, "bv", "--m", "2", "--support", "5")
    assert code == 2 and "error:" in err


def test_grover(capsys):
    code, out, _ = run(capsys, "grover", "--m", "3", "--marked", "101", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert "iterations = 2" in lines
    assert "success = 0.9453125" in lines
    assert lines[-1].startswith("t=2 p=")
    code, out, _ = run(capsys, "grover", "--m", "2", "--marked", "11", "--json", "--trace")
    payload = json.loads(out)
    assert payload["iterations"] == 1
    assert payload["success"] == 1.0
    assert payload["trace"] == [0.25, 1.0]
    code, _, err = run(capsys, "grover", "--m", "2", "--marked", "11", "--iters", "x")
    assert code == 2
    code, _, err = run(capsys, "grover", "--m", "2", "--marked", "511")
    assert code == 2


def test_beyond_state_cap_exits_2(capsys):
    code, out, err = run(capsys, "grover", "--m", "40", "--marked", "1" * 40)
    assert code == 2 and out == ""
    assert err == "error: state vectors capped at m <= 24, got m=40\n"
    code, out, err = run(capsys, "eval", "MCZ(" + ",".join(map(str, range(1, 41))) + ")")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "capped at 2^24" in err


def test_chsh(capsys):
    code, out, _ = run(capsys, "chsh", "quantum")
    assert code == 0
    values = [float(line.split()[-1]) for line in out.splitlines()]
    assert abs(max(values) - 2.0 * math.sqrt(2.0)) <= 1e-9
    code, out, _ = run(capsys, "chsh", "classical")
    assert "values = -2, 2" in out
    code, out, _ = run(capsys, "chsh", "classical", "--n", "10", "--seed", "3")
    assert code == 0
    code, out, _ = run(capsys, "chsh", "report", "--json")
    payload = json.loads(out)
    assert abs(payload["gap"] - (2.0 * math.sqrt(2.0) - 2.0)) <= 1e-9


def test_table(capsys):
    code, out, _ = run(capsys, "table", "cl22")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert lines[0].startswith("II")
    assert lines[-1].startswith("WW")
    code, out, _ = run(capsys, "table", "gates", "--json")
    payload = json.loads(out)
    names = [entry["gate"] for entry in payload]
    assert "H(1,1)" in names and "ISWAP()" in names
    s_entry = next(e for e in payload if e["gate"] == "S(1,1)")
    assert "re" in s_entry and "im" in s_entry


def test_check(capsys):
    code, out, _ = run(capsys, "check", "dict")
    assert code == 0
    assert out.startswith("PASS dict:")
    code, out, _ = run(capsys, "check", "all", "--trials", "25", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [entry["name"] for entry in payload] == ["jacobi", "phi", "dict"]
    assert all(entry["passed"] for entry in payload)


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
