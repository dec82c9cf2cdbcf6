"""tools/mutate.py's allowlist of equivalent mutants names code that exists."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_equivalent_mutant_names_a_line_of_its_module():
    # A key ends "in `<stripped source line>`", with " #2" and so on for a
    # repeat on that line. A key whose line was edited or removed would
    # never match a survivor again, and would only hide what it once named.
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    stale = []
    for key in mutate.EQUIVALENT:
        module = key.split(":", 1)[0]
        line = re.search(r" in `(.*)`(?: #\d+)?$", key).group(1)
        source = (ROOT / mutate.PACKAGE / module).read_text(encoding="utf-8")
        if line not in {text.strip() for text in source.splitlines()}:
            stale.append(key)
    assert stale == []
