"""``tools/scale.py``: the scale report of cold CP/CH runs and warm N-1
outages, and the price move against another tree."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("scale", ROOT / "tools" / "scale.py")
scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale)


@pytest.fixture
def own_imports(monkeypatch):
    """Leave sys.path, and the project's modules in sys.modules, as the test
    found them."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        if name.partition(".")[0] in ("cppa", "cppa_base", "gen", "ab_cases"):
            del sys.modules[name]


def test_a_tree_against_itself_reports_equal_figures(own_imports, capsys):
    assert scale.main(["--buses", "4", "--seed", "1", "--n1", "--base", str(ROOT)]) == 0
    change, base, move = capsys.readouterr().out.splitlines()
    pattern = (r"4 buses, seed 1, (change|base): cold (\d+) rounds, (\d+) pivots, "
               r"[0-9.]+ s; warm N-1 (\d+) outages, (\d+) pivots")
    figures = [re.fullmatch(pattern, text).groups() for text in (change, base)]
    assert figures[0][0] == "change" and figures[1][0] == "base"
    assert figures[0][1:] == figures[1][1:]
    assert int(figures[0][3]) > 1  # outages
    assert move == "4 buses, seed 1: largest price move 0 $/MWh"


def test_the_price_move_is_the_largest_gap_over_runs_and_buses():
    a = [({1: 10.0, 2: 20.0}, {1: 1.0, 2: 2.0}), ({1: 10.0}, None)]
    b = [({1: 10.5, 2: 19.0}, {1: 1.0, 2: 4.5}), ({1: 13.0}, None)]
    assert scale.price_move(a, b) == 3.0
    assert scale.price_move(a, a) == 0.0
