"""The benchmark's own tests.

Run with ``python -m pytest perfbench`` from the repository root (the
default test run collects ``tests/`` only).  Workloads run at tiny
sizes here; the numbers they produce mean nothing, the names, checks
and digests do.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.run import Clock, measure
from perfbench.tracer import Tracer, layer_hooks, layer_totals, root_wall
from perfbench.workloads import FabricCollective, PaperGrid, ServiceSweep

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """Each workload at a size that runs in well under a second."""
    return {
        "paper-grid": lambda: PaperGrid(n=8, num_slots=300),
        "fabric-collective": lambda: FabricCollective(
            n=8, num_slots=600, window_slots=200
        ),
        "service-sweep": lambda: ServiceSweep(
            n=4, num_slots=200, switches=("ufs", "sprinklers"), loads=(0.5,),
            seeds_per_job=2,
        ),
    }[name]()


@pytest.fixture
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    return tmp_path


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(["paper-grid", "fabric-collective", "service-sweep"])


@pytest.mark.parametrize("name", ["paper-grid", "fabric-collective", "service-sweep"])
def test_timing_wrappers_leave_results_bit_identical(name, work_dir):
    workload = tiny(name)
    reference = workload.warm(3, str(work_dir))
    tracer = Tracer("test")
    originals = [
        (target, attr, getattr(target, attr, None))
        for target, attr, *_ in layer_hooks()
    ]
    tracer.install()
    tracer.active = True
    try:
        traced = workload.job(3, Clock(tracer), traced=True)
        cached = workload.cached_job(3, Clock(tracer), traced=True)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.records, "no spans recorded"
    assert tracer.missing == []
    assert traced.digest == reference.digest
    assert cached.digest == reference.digest
    for target, attr, original in originals:
        assert getattr(target, attr, None) is original, f"{attr} not restored"
    plain = workload.job(3, Clock(Tracer("plain")), traced=False)
    assert plain.digest == reference.digest


@pytest.mark.parametrize("name", ["paper-grid", "fabric-collective", "service-sweep"])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_the_benchmark_metrics(name, trace, work_dir):
    metrics, checks, digest, _ = measure(tiny(name), 5, 0, trace, work_dir)
    assert checks and all(ok for _, ok in checks), [c for c, ok in checks if not ok]
    assert len(digest) == 64
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert value == value, f"{m['name']} is NaN"
    if not trace:
        assert all(value > 0 for value, _ in metrics.values())


def test_timings_are_scaled_by_the_host_gauge(work_dir, monkeypatch, capsys):
    # A gauge reading twice its reference time means a host at half
    # speed: every reported time halves and the rate doubles.
    monkeypatch.setattr(run, "gauge", lambda: 2 * run.GAUGE_REFERENCE_S)
    metrics, _, _, _ = measure(tiny("paper-grid"), 5, 0, False, work_dir)
    measured = json.loads(
        next(l for l in capsys.readouterr().out.splitlines() if l.startswith("measured "))[9:]
    )
    for name in ("setup_s", "job_s", "cached_job_s"):
        assert metrics[name][0] == pytest.approx(measured[name] / 2), name
    assert run.host_scale(1.0, 3.0) == run.GAUGE_REFERENCE_S / 2.0


def test_layer_self_times_partition_the_root_wall():
    def rec(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent, "attrs": {}}

    records = [
        rec("bench.job", 0.0, 10.0, None),
        rec("experiment.run_single", 1.0, 9.0, 0),
        rec("fold.run_single_fast", 2.0, 8.0, 1),
        rec("traffic.draw", 2.5, 4.0, 2),
        rec("kernels.model", 4.0, 7.0, 2),
        rec("kernels.polled", 5.0, 6.0, 4),
    ]
    totals, by_name = layer_totals(records)
    assert root_wall(records) == 10.0
    assert sum(t["self"] for t in totals.values()) == 10.0
    assert totals["kernels"]["busy"] == totals["kernels"]["self"] == 3.0
    assert totals["fold"]["self"] == 1.5
    assert by_name["kernels.polled"] == 1.0


def test_missing_hook_and_idle_layer_fail_checks(work_dir, monkeypatch):
    from repro.sim import composite

    monkeypatch.delattr(composite, "run_fabric")
    workload = tiny("paper-grid")
    monkeypatch.setattr(workload, "exercised", workload.exercised + ("composite",))
    _, checks, _, _ = measure(workload, 5, 0, True, work_dir)
    failed = [name for name, ok in checks if not ok]
    assert failed == [
        "required layer hooks installed (missing: repro.sim.composite.run_fabric)",
        "traced composite busy",
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
