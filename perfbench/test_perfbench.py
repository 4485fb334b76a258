"""Self-test of the benchmark.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from speed import REF_MS, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == "0" else "per_layer"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    for name, unit in declared.items():
        assert printed[name] == unit
    if trace == "0":
        assert printed["fail_ratio"] == printed["unresolved_ratio"] == "ratio"


def test_tampered_hole_certificate_raises_fail_ratio(tmp_path):
    workload = WORKLOADS["hole-queries"]
    hf, cases, _ = run.set_up(workload, 3, True, tmp_path, 1)

    def tampered(call, points):
        def wrapped():
            cert = call()
            if cert is None:
                return None
            outside = next(p for p in points if p not in cert.vertices)
            return dataclasses.replace(cert, vertices=cert.vertices[:-1] + (outside,))
        return wrapped

    for case in cases:
        case.run = tampered(case.run, case.points)
    m = run.measure(cases, 0)
    failed, _, problem = run.check_all(hf, workload, cases, m.results)
    assert failed / len(m.results) > 0, problem
    assert "bad hole certificate" in problem


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(
        tmp_path, "--workload", "hole-queries", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_correction_uses_the_reference_around_the_interval():
    probe = SpeedProbe()
    probe.start_ns = [0, 10**9, 2 * 10**9, 3 * 10**9]
    probe.end_ns = [start + 10**6 for start in probe.start_ns]
    probe.ms = [1.0, 2.0, 4.0, 8.0]
    # No sample inside: the ones just before and after count.
    wall, corrected = probe.correct(12 * 10**8, 18 * 10**8)
    assert wall == pytest.approx(600.0)
    assert corrected == pytest.approx(600.0 * REF_MS / 3.0)
    # The samples at 1 s and 2 s are inside: their time is left out, and
    # the mean runs from the sample at 0 s to the one at 3 s.
    wall, corrected = probe.correct(5 * 10**8, 25 * 10**8)
    assert wall == pytest.approx(2000.0 - 6.0)
    assert corrected == pytest.approx(1994.0 * REF_MS / 3.75)


def test_speed_probe_samples_while_open():
    with SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(probe.ms) >= 10
    assert probe.start_ns == sorted(probe.start_ns)
