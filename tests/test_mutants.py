"""The mutation gate's list, checked without running pytest per mutant."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "mutants.py")
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_old_text_occurs_exactly_once():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.reason, m.name
        assert mutants.occurrences(mutants.ROOT, m) == 1, m.name


def test_every_recorded_test_exists():
    for m in mutants.MUTANTS:
        path, name = m.test.split("::")
        assert path.startswith("tests/test_") and path != "tests/test_mutants.py", m.name
        with open(os.path.join(mutants.ROOT, path), encoding="utf-8") as fh:
            assert f"\ndef {name}(" in fh.read(), m.name
