"""``tools/mutants.py``: each seeded fault applies to this tree, and each
rung it reports names a test of this tree. Running the mutants
takes minutes; CI does it after tier-1."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_every_mutation_applies_once(tmp_path):
    for name, module, text, replacement in mutants.MUTANTS:
        src = tmp_path / name.replace(" ", "_")
        shutil.copytree(ROOT / "src", src)
        assert mutants.mutate(src, module, text, replacement), name
        assert (src / "cppa" / module).read_text() != (ROOT / "src" / "cppa" / module).read_text()
    assert not mutants.mutate(src, "solver.py", "no such text", "")


def test_every_rung_names_a_ladder_test():
    assert set(mutants.RUNGS.values()) == {"per LP", "per run", "per run (MILP)", "end to end",
                                           "cost", "per cut", "cold start", "dual state",
                                           "kernel", "verdict cost", "factor"}
    for test in mutants.RUNGS:
        path, function = test.split("::")
        assert f"\ndef {function}(" in (ROOT / path).read_text(), test
