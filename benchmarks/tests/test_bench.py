"""Tests of the benchmark itself: generator determinism, the workload
properties it relies on, trace accounting, and the output contract.

    python -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import harness
import run
import tracing
from cppa import netio

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _case_bytes(tmp_path, seed, tag):
    blobs = []
    for wl in harness.WORKLOADS.values():
        for i in range(4):
            path = tmp_path / f"{tag}_{wl.name}_{i}.json"
            netio.save_case(gen.make_case(wl.ladder[i % len(wl.ladder)], seed, i), path)
            blobs.append(path.read_bytes())
    return blobs


def test_generator_is_deterministic(tmp_path):
    assert _case_bytes(tmp_path, 11, "a") == _case_bytes(tmp_path, 11, "b")
    assert _case_bytes(tmp_path, 11, "a") != _case_bytes(tmp_path, 12, "c")


def test_ring_cases_survive_every_single_outage():
    case = gen.make_case(harness.WORKLOADS["cp_n1_warm"].ladder[0], 3, 0)
    assert gen.n1_outages(case) == [b.id for b in case.branches]


def _traced_cases(name, count, tmp_path):
    """Per-case tracer counts and reports for the first ``count`` jobs."""
    jobs, _ = harness.build_jobs(harness.WORKLOADS[name], 5, tmp_path / name, count)
    out = []
    for job in jobs[:count]:
        with harness.Capture() as capture, tracing.Tracer() as tracer:
            attempt = harness.measure([job], capture, harness.Clock(), 1, tracer=tracer)[0]
        assert not attempt.problems
        out.append((tracer, attempt))
    return out


def test_dc_ip_commit_cases_branch(tmp_path):
    for tracer, attempt in _traced_cases("dc_ip_commit", 3, tmp_path):
        assert tracer.counts["milp_nodes"] > 1
        assert attempt.report["rounds"] == 1
        assert tracer.counts["generated"] == 0


def test_cp_ch_cold_cases_loop_and_self_times_cover_the_case(tmp_path):
    for tracer, attempt in _traced_cases("cp_ch_cold", 1, tmp_path):
        assert attempt.report["rounds"] > 1
        calls, total, self_s = tracing.summarize(tracer.spans)
        assert calls["solver.milp"] == 0
        assert sum(self_s.values()) == pytest.approx(total["cli.main"], rel=1e-9)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace_flag,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace_flag, section):
    proc = _run(ROOT, "--workload", "dc_ip_commit", "--seed", "2",
                "--seconds", "0.1", "--trace", trace_flag)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "cp_ch_cold", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
