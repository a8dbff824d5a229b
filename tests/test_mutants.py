"""The mutant list (tests/mutants.py) still targets the source."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).parent / "mutants.py"


def _mutants_module():
    spec = importlib.util.spec_from_file_location("mutants", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_patches_text_that_occurs_once_in_src():
    mutants = _mutants_module()
    sources = [path.read_text(encoding="utf-8") for path in mutants.SRC.rglob("*.py")]
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        assert sum(text.count(mutant.old) for text in sources) == 1, mutant.name
        assert mutant.old in (mutants.SRC / mutant.module).read_text(encoding="utf-8")
        assert mutant.new != mutant.old and mutant.tests, mutant.name
        assert all((mutants.ROOT / test).is_file() for test in mutant.tests), mutant.name
