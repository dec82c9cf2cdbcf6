"""README's library quick start runs as written, and its CLI flag lists
match the parser."""

import pathlib
import re

import numpy as np

from conftest import command_flags, synthetic_stream, write_csv
from elmstream import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
    # Yeast-shaped: 103 features, 14 labels; 210 rows stream as the
    # quick start's init block of 150 and two blocks of 30.
    ds = synthetic_stream(270, 103, 14, seed=12)
    write_csv(tmp_path / "train.csv", ds.subset(np.arange(210)))
    write_csv(tmp_path / "test.csv", ds.subset(np.arange(210, 270)))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.strip().split("\n")
    names = [line.split(":")[0] for line in lines]
    assert names == ["prequential hamming loss", "hamming loss"]
    for line in lines:
        assert 0.0 <= float(line.split(":")[1]) < 0.5


def test_cli_flag_lists_match_the_parser():
    text = README.read_text(encoding="utf-8")
    section = text.split("Flags by command:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = {command: set() for command in cli._HANDLERS}
    for item in section.split("\n* "):
        head, body = item.removeprefix("* ").split(":", 1)
        commands = list(cli._HANDLERS) if head == "every command" else re.findall(r"`(\w+)`", head)
        assert commands, head
        for command in commands:
            listed[command] |= set(re.findall(r"`(--[a-z-]+)", body))
    assert listed == {command: set(flags) for command, flags in command_flags().items()}
