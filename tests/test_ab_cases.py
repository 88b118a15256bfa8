"""``tools/ab_cases.py``: two trees' ``cppa`` timed case by case in one
process, with a byte comparison of their artifacts."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab_cases", ROOT / "tools" / "ab_cases.py")
ab_cases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_cases)


@pytest.fixture
def own_imports(monkeypatch):
    """Leave sys.path and sys.modules as the test found them."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_summary_reports_each_round_and_the_median():
    # (base, change) seconds per round
    assert ab_cases.summary([(2.0, 1.9), (2.0, 2.1), (1.0, 0.9)]) == [
        "round 1: change/base 0.9500 (change won)",
        "round 2: change/base 1.0500 (base won)",
        "round 3: change/base 0.9000 (change won)",
        "median change/base 0.9500, range 0.9000-1.0500, change won 2 of 3 rounds",
    ]


def test_a_tree_against_itself_writes_equal_artifacts(own_imports, capsys):
    code = ab_cases.main(["--base", str(ROOT), "--workload", "cp_ch_cold",
                          "--cases", "2", "--rounds", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "cp_ch_cold seed 1: 2 cases, 2 rounds"
    assert [line.split(":")[0] for line in out[1:3]] == ["round 1", "round 2"]
    assert out[3].startswith("median change/base ") and out[3].endswith(" of 2 rounds")
    assert out[4] == "byte-equal prices.csv: 2 of 2, byte-equal allocation.json: 2 of 2"
    # the base side is a second copy of the package, under its own name,
    # loaded from the base tree
    assert sys.modules["cppa_base.cli"] is not sys.modules["cppa.cli"]
    assert (Path(sys.modules["cppa_base.solver"].__file__).resolve()
            == (ROOT / "src" / "cppa" / "solver.py").resolve())



def test_each_side_prices_the_outages_from_its_own_cut_stores(own_imports, tmp_path,
                                                              monkeypatch, capsys):
    # build_jobs runs the N-1 workload's bases through the CLI it is
    # given, whose stores the jobs read, and leaves the harness its own CLI
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import harness
    from cppa import cli

    ran = []
    recording = SimpleNamespace(EXIT_OK=cli.EXIT_OK,
                                main=lambda argv: ran.append(argv) or cli.main(argv))
    workload = harness.WORKLOADS["cp_n1_warm"]
    jobs = ab_cases.build_jobs(harness, recording, workload, 1, tmp_path / "cases", 2)
    assert harness.cli is cli
    assert len(jobs) == 2
    stores = {argv[argv.index("--cuts-out") + 1] for argv in ran}
    assert len(ran) == len(stores) == workload.bases
    assert all(job.argv[job.argv.index("--cuts-in") + 1] in stores for job in jobs)

    # main builds the base side's jobs with the base package, the change
    # side's with this one
    sides = []
    build_jobs = ab_cases.build_jobs
    monkeypatch.setattr(ab_cases, "build_jobs", lambda harness, cli, *args: (
        sides.append(cli.__name__) or build_jobs(harness, cli, *args)))
    code = ab_cases.main(["--base", str(ROOT), "--workload", "cp_n1_warm",
                          "--cases", "2", "--rounds", "1"])
    assert code == 0
    assert sides == ["cppa_base.cli", "cppa.cli"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "byte-equal prices.csv: 2 of 2, byte-equal allocation.json: 2 of 2")
