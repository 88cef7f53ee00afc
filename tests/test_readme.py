"""The README's CLI examples, run through cli.main and compared byte for byte.

Only examples whose output the README shows in full are compared: `chsh`
prints one JSON line that the README wraps, `table` is shown without its
output, and the `check` output is elided.
"""

import re
import shlex
from pathlib import Path

import pytest

from nqa.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FULL_OUTPUT = ("eval", "decompose", "bv", "grover")


def _examples():
    """(setup files, argv, expected stdout) for each full-output example."""
    cli = re.search(r"^## CLI\n.*?^```text\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    examples = []
    for chunk in cli.split("\n\n"):
        lines = chunk.strip("\n").splitlines()
        commands = [shlex.split(line[2:]) for line in lines if line.startswith("$ ")]
        runs = [argv[1:] for argv in commands if argv[0] == "nqa"]
        if len(runs) != 1 or runs[0][0] not in FULL_OUTPUT:
            continue
        files = {}
        for argv in commands:
            if argv[0] == "echo":
                assert argv[2] == ">", f"unsupported setup line {argv}"
                files[argv[3]] = argv[1] + "\n"
        output = "".join(line + "\n" for line in lines if not line.startswith("$ "))
        examples.append((files, runs[0], output))
    return examples


EXAMPLES = _examples()


def test_every_full_output_subcommand_has_an_example():
    assert sorted({argv[0] for _, argv, _ in EXAMPLES}) == sorted(FULL_OUTPUT)
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("files, argv, output", EXAMPLES, ids=[f"{i}-{e[1][0]}" for i, e in enumerate(EXAMPLES)])
def test_readme_example(files, argv, output, tmp_path, monkeypatch, capsys):
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == output
