"""README's CLI examples and Library snippet run as written."""

import re
import shlex
from pathlib import Path

import pytest

from sectorbalance.cli import run_cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(lang: str, heading: str) -> str:
    """The first fenced ``lang`` block below ``heading``."""
    return re.search(rf"{re.escape(heading)}\n.*?```{lang}\n(.*?)```", README, re.S).group(1)


# Each `sectorbalance` command of the CLI block, continuations joined and
# trailing comments dropped.
CLI_LINES = [" ".join(line.split(" #")[0].split())
             for line in _block("sh", "## CLI").replace("\\\n", " ").splitlines()
             if line.startswith("sectorbalance ")]
AREAS_FLAGS = next(line for line in CLI_LINES if line.startswith("sectorbalance areas ")
                   ).split(" ", 2)[2]


# The full-size `verify` battery is left to tests/test_acceptance.py.
@pytest.mark.parametrize("line", [line for line in CLI_LINES if line != "sectorbalance verify"])
def test_cli_example_exits_0(capsys, tmp_path, line):
    argv = shlex.split(line.replace("...", AREAS_FLAGS))[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert run_cli(argv) == 0, capsys.readouterr().err


def test_library_snippet_runs():
    exec(compile(_block("python", "## Library"), "README.md", "exec"), {})
