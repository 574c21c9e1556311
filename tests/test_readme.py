"""The README's CLI lines and library example run as documented."""

import re
import shlex
from pathlib import Path

import pytest

from chainsweep import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# every CLI example except the one that needs a gate file on disk
CLI_LINES = [line for line in README.splitlines()
             if line.startswith("chainsweep ") and "--gate-file" not in line]


def test_readme_has_examples():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_runs(line, capsys):
    assert cli.main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_library_example_prints_its_comments(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # the first word of each print line's comment is the value it prints; a
    # trailing "..." documents a prefix
    documented = [line.split("#", 1)[1].split()[0].rstrip(",")
                  for line in code.splitlines() if line.startswith("print(")]
    assert len(printed) == len(documented)
    for got, doc in zip(printed, documented):
        matches = got.startswith(doc[:-3]) if doc.endswith("...") else got == doc
        assert matches, f"printed {got!r}, README says {doc!r}"
