"""The README's examples run as written: its python block, and every ``hbs``
command of its sh blocks, in order, in one working directory."""

import re
import shlex
from pathlib import Path

from hbs.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def hbs_commands():
    text = "\n".join(blocks("sh")).replace("\\\n", " ")
    return [shlex.split(line) for line in text.splitlines() if line.startswith("hbs ")]


def test_python_example_runs():
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_command_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = hbs_commands()
    assert [argv[1] for argv in commands] == [
        "gen", "prune", "validate", "reconstruct", "gen", "matmul", "topk",
        "bench", "speedup",
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
