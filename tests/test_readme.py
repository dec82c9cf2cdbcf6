"""README's library quick start runs as written and imports what the
package exports, its CLI flag lists match the parser, and its fixture
files regenerate as it says."""

import importlib
import importlib.util
import pathlib
import pkgutil
import re

import numpy as np

import elmstream
from conftest import DATA_DIR, command_flags, synthetic_stream, write_csv
from elmstream import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def quick_start():
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)


def test_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    code = quick_start()
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


def test_exports_are_the_quick_start_imports_and_the_error_classes():
    imports = re.search(r"from elmstream import \((.*?)\)", quick_start(), re.DOTALL).group(1)
    errors = ["DataError", "NumericalError", "ShapeError", "SingularMatrixError"]
    assert sorted(elmstream.__all__) == sorted(imports.replace(",", " ").split() + errors)
    assert all(issubclass(getattr(elmstream, name), Exception) for name in errors)
    # Every submodule exports only names it defines.
    for info in pkgutil.iter_modules(elmstream.__path__):
        module = importlib.import_module(f"elmstream.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], (info.name, missing)


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


def test_fixtures_regenerate_byte_for_byte(tmp_path):
    # README: tests/data/*.csv are regenerable via tools/make_fixtures.py.
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    assert sorted(p.name for p in DATA_DIR.glob("*.csv")) == sorted(make_fixtures.SPECS)
    for name, spec_args in make_fixtures.SPECS.items():
        make_fixtures.make_file(tmp_path / name, *spec_args)
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name
