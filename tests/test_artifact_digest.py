"""``tools/artifact_digest.py --compare``: the parity summary of a
change's artifact digest against its parent's."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
spec = importlib.util.spec_from_file_location("artifact_digest", PATH)
artifact_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_digest)


def _case(prices, rounds=5, problems=(), allocation=([1.0, 0.5, 0.0, 0.0, 0.0], [0.5, 0.0]),
          **hashes):
    entry = {"exit": 0, "rounds": rounds, "prices.csv": "p", "allocation.json": "a",
             "report.json": "r", "prices": prices, "problems": list(problems)}
    if allocation is not None:
        entry["allocation"] = [list(row) for row in allocation]
    entry.update(hashes)
    return entry


PARENT = {
    "cp_ch_cold 1 ring4_s1_i0": _case([[10.0, 0.5], [12.0, 0.25]]),
    "cp_ch_cold 1 ring4_s1_i1": _case([[11.0, 0.5]], problems=["duals off HiGHS"]),
    "cp_n1_warm 1 ring4_s1_i0.cuts.json": "s",
    "dc_ip_commit 1 mesh12_s1_i0": _case([[20.0, None]]),
    "dc_ip_commit 1 mesh12_s1_i9": _case([[20.0, None]]),
}
CHANGE = {
    "cp_ch_cold 1 ring4_s1_i0": _case([[10.0, 0.5], [12.0 + 2e-9, 0.25]],
                                      **{"prices.csv": "p2", "report.json": "r2"}),
    "cp_ch_cold 1 ring4_s1_i1": _case([[11.0, 0.5]], rounds=6, allocation=None,
                                      **{"allocation.json": "a2"}),
    "cp_n1_warm 1 ring4_s1_i0.cuts.json": "s2",
    # a dispatch moved by 2^-48, as a pivot on another inverse may move it
    "dc_ip_commit 1 mesh12_s1_i0": _case([[20.0, None]], problems=["objective off"],
                                         allocation=([1.0, 0.5 + 2.0**-48, 0.0, 0.0, 0.0],
                                                     [0.5, 0.0]),
                                         **{"allocation.json": "a2"}),
}


def test_compare_summarizes_parity_by_case():
    assert artifact_digest.compare(PARENT, CHANGE) == [
        "cases: 3 in both, 1 only in the parent, 0 only in the change",
        "exit codes equal: 3 of 3",
        "rounds equal: 2 of 3",
        "byte-equal prices.csv: 2 of 3",
        "byte-equal allocation.json: 1 of 3",
        "byte-equal report.json: 2 of 3",
        "byte-equal cut stores: 0 of 1",
        "largest price difference: 2e-09 $/MWh (cp_ch_cold 1 ring4_s1_i0), "
        "over 3 cases priced on both sides",
        "largest allocation difference: 3.55e-15 (dc_ip_commit 1 mesh12_s1_i0), "
        "over 2 cases allocated on both sides",
        "oracle problems new: 1",
        "  dc_ip_commit 1 mesh12_s1_i0: objective off",
        "oracle problems fixed: 1",
        "  cp_ch_cold 1 ring4_s1_i1: duals off HiGHS",
    ]


def test_compare_reads_two_digest_files(tmp_path, capsys):
    paths = []
    for name, digest in (("parent", PARENT), ("change", PARENT)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digest))
    assert artifact_digest.main(["--compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["exit codes equal: 4 of 4", "rounds equal: 4 of 4"]
    assert "largest price difference: 0 $/MWh" in out[7]
    assert "largest allocation difference: 0 " in out[8]
    assert out[-2:] == ["oracle problems new: 0", "oracle problems fixed: 0"]


def test_an_entry_holds_the_allocation_values(tmp_path):
    (tmp_path / "allocation.json").write_text(json.dumps({
        "generators": [{"id": 4, "on": 1.0, "p": 0.25, "q": 0.0, "sd": 0.0, "su": 1.0}],
        "loads": [{"id": 1, "p": 0.5, "q": -0.125}],
        "version": "cppa-alloc-v1"}))
    entry = artifact_digest._case_entry(0, tmp_path, None, None)
    assert entry["allocation"] == [[1.0, 0.25, 0.0, 0.0, 1.0], [0.5, -0.125]]


def _with(digest, key, **fields):
    """A copy of the digest with the case ``key``'s ``fields`` replaced."""
    return {**digest, key: {**digest[key], **fields}}


CASE = "cp_ch_cold 1 ring4_s1_i0"
STORE = "cp_n1_warm 1 ring4_s1_i0.cuts.json"


@pytest.mark.parametrize("change, code", [
    (PARENT, 0),
    # the oracle's problems and the decoded prices are not compared
    (_with(PARENT, CASE, problems=["duals off HiGHS"], prices=[[10.5, 0.5]]), 0),
    (CHANGE, 1),
    (_with(PARENT, CASE, exit=2), 1),
    (_with(PARENT, CASE, rounds=6), 1),
    (_with(PARENT, CASE, **{"prices.csv": "p2"}), 1),
    (_with(PARENT, CASE, **{"allocation.json": "a2"}), 1),
    (_with(PARENT, CASE, **{"report.json": "r2"}), 1),
    ({**PARENT, STORE: "s2"}, 1),
    ({k: v for k, v in PARENT.items() if k != STORE}, 1),
    ({**PARENT, "dc_ip_commit 1 mesh12_s1_i10": PARENT[CASE]}, 1),
], ids=["identical", "problems-only", "change", "exit", "rounds", "prices", "allocation",
        "report", "store", "key-missing", "key-added"])
def test_compare_exits_1_unless_the_digests_are_at_parity(tmp_path, capsys, change, code):
    paths = [tmp_path / "parent.json", tmp_path / "change.json"]
    for path, digest in zip(paths, (PARENT, change)):
        path.write_text(json.dumps(digest))
    assert artifact_digest.main(["--compare", *map(str, paths)]) == code
    assert capsys.readouterr().out.startswith("cases: ")
