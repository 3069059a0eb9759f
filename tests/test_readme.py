"""README examples: every command of the CLI block and the Python API block run."""

import re
import shlex
from pathlib import Path

import pytest

from resokit import cli
from resokit.verify import SYNTHETIC_SPECIES_CSV

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, language):
    """Body of the first ```language block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [
    line for line in fenced_block("## CLI", "sh").splitlines() if line.startswith("resokit ")
]


def test_cli_block_has_commands():
    assert len(CLI_LINES) >= 9


@pytest.mark.parametrize("line", CLI_LINES, ids=[line[len("resokit "):] for line in CLI_LINES])
def test_cli_example_runs(capsys, tmp_path, monkeypatch, line):
    # species.csv is the battery's synthetic table; its row 1 is synthB at 543.25 G
    (tmp_path / "species.csv").write_text(SYNTHETIC_SPECIES_CSV)
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out


def test_python_api_block_runs(capsys):
    exec(compile(fenced_block("## Python API", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out
