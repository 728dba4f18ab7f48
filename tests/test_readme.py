"""The README's code examples still run against the public API."""

import glob
import re
import shlex
import shutil
from pathlib import Path

from turncue.cli import cli

REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


def test_library_use_block_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "('light_audio', " in capsys.readouterr().out


def test_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # Each line runs in a scratch directory holding a copy of the repo's
    # configs, after the shell would have expanded its globs.
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    shutil.copytree(REPO / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "turncue" for argv in commands)
    for argv in commands:
        args = [p for a in argv[1:] for p in (sorted(glob.glob(a)) if "*" in a else [a])]
        assert cli(args) == 0, (argv, capsys.readouterr().err)
