"""The README's library tour and CLI examples, checked as written, so the documented API cannot drift from the code."""

import re
import shlex
from pathlib import Path

import pytest

from latinsq import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(name):
    text = README.read_text()
    tail = text[text.index(f"## {name}"):]
    return tail[: tail.index("\n## ", 1)]


def test_readme_library_tour_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```", _section("Library tour"), re.M | re.S)
    exec(compile(block, f"{README}:Library tour", "exec"), {})


def test_readme_cli_examples_parse():
    (block,) = re.findall(r"^```bash\n(.*?)^```", _section("CLI"), re.M | re.S)
    commands = [
        shlex.split(part)
        for line in block.splitlines()
        for part in line.split("#", 1)[0].split("|")
        if part.strip()
    ]
    assert len(commands) >= 8 and all(argv[0] == "latinsq" for argv in commands), commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
