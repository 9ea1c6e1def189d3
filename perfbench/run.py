"""The repository benchmark: one workload, its metrics, and its output checks.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with the program unmodified.  ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics instead; its span
records are written to ``.bench_out/`` at exit.  Both modes run every
output check, print the workload's result digest and a provenance line,
and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Repetitions each mode makes at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: A cached job is short, so each untraced repetition resubmits it until
#: the resubmissions add up to this share of the job's own time.  A
#: traced repetition resubmits once, so its layer times are per
#: (job + one cached job).
CACHED_SHARE = 0.25
#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Float rounding allowed between a layer's busy and self time.
PARTITION_TOLERANCE = 1e-6
#: The host gauge: fixed reference work (pure-Python additions, then
#: NumPy sorts and cumulative sums taking about as long) timed right
#: before and after every measured interval.  The host's cores are
#: shared, and other tenants' load makes them slower for seconds to
#: minutes at a time without any steal or CPU-time signal; the gauge
#: slows with them.
GAUGE_ADDS = 400_000
GAUGE_SORT = 500_000
GAUGE_SORT_ROUNDS = 3
#: The gauge's time on the reference host (its median reading on
#: the machine the README's baseline names).  Every timing metric is
#: reported in seconds at this host speed: measured seconds times
#: ``GAUGE_REFERENCE_S`` over the mean of the two gauge readings around
#: the interval.
GAUGE_REFERENCE_S = 0.045


_gauge_buffers = None


def gauge() -> float:
    """Time the host gauge's reference work once (seconds).

    The NumPy part sorts and sums into preallocated buffers, so the
    reading does not depend on the allocator's state, which the
    program's own allocations change.
    """
    global _gauge_buffers
    import numpy

    if _gauge_buffers is None:
        data = numpy.random.default_rng(0).random(GAUGE_SORT)
        _gauge_buffers = (data, numpy.empty_like(data), numpy.empty_like(data))
    data, work, out = _gauge_buffers
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_ADDS):
        total += i
    for _ in range(GAUGE_SORT_ROUNDS):
        work[:] = data
        work.sort()
        numpy.cumsum(work, out=out)
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference host speed."""
    return GAUGE_REFERENCE_S / ((before + after) / 2.0)


@dataclass
class Rep:
    """One repetition: a job and its cached resubmissions, measured
    (``*_s``) and at the reference host speed (``*_host_s``)."""

    job_s: float
    cached_job_s: List[float]
    job_host_s: float
    cached_job_host_s: List[float]
    outcome: object
    cached: List[object]


class Clock:
    """Times the user-visible part of a job; the root span of a trace."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.last = 0.0

    @contextmanager
    def __call__(self, phase: str):
        with self.tracer.span(f"bench.{phase}"):
            start = time.perf_counter()
            yield self.tracer
            self.last = time.perf_counter() - start


def provenance(workload, seed: int, seconds: int, trace: bool) -> Dict:
    """Where a number came from: code, backend, toolchain and machine."""
    import numpy

    from repro.sim.kernels.compiled import compiled_available, get_kernel_backend

    # The ceiling keeps git from searching directories above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True, env=env,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None  # a plain checkout; src_sha256 still names the code
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": h.hexdigest(),
        "kernel_backend": get_kernel_backend(),
        "numba_available": compiled_available(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "window_slots": workload.window_slots,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def setup_probe(name: str, work_dir: Path) -> Dict:
    """Run the set-up probe once in a fresh interpreter, between two
    host-gauge readings."""
    before = gauge()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), name, str(work_dir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("ready") - spawned
    out["gauge"] = [before, gauge()]
    out["scale"] = host_scale(*out["gauge"])
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Run the workload; returns (metrics, checks, digest, tracer)."""
    from perfbench.tracer import Tracer

    tracer = Tracer(run_id=f"{workload.name}-seed{seed}-pid{os.getpid()}")
    reference = workload.warm(seed, str(work_dir))
    checks: List[Tuple[str, bool]] = list(reference.checks)
    reps: Dict[bool, List[Rep]] = {False: [], True: []}
    readings: List[float] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while (
        len(reps[False]) < MIN_REPS
        or (trace and len(reps[True]) < MIN_REPS)
        or time.perf_counter() < deadline
    ):
        traced = trace and i % 2 == 1
        i += 1
        clock = Clock(tracer)
        if traced:
            tracer.install()
            tracer.active = True
        try:
            g0 = gauge()
            outcome = workload.job(seed, clock, traced)
            job_s = clock.last
            g1 = gauge()
            cached, cached_s = [], []
            while not cached_s or (not traced and sum(cached_s) < CACHED_SHARE * job_s):
                cached.append(workload.cached_job(seed, clock, traced))
                cached_s.append(clock.last)
            g2 = gauge()
        finally:
            tracer.active = False
            tracer.uninstall()
        label = "traced" if traced else "untraced"
        checks += outcome.checks
        checks.append((f"{label} job digest", outcome.digest == reference.digest))
        for again in cached:
            checks += again.checks
            checks.append((f"{label} cached digest", again.digest == reference.digest))
        readings += [g0, g1, g2]
        job_scale, cached_scale = host_scale(g0, g1), host_scale(g1, g2)
        reps[traced].append(Rep(
            job_s, cached_s, job_s * job_scale, [c * cached_scale for c in cached_s],
            outcome, cached,
        ))

    plain = reps[False]
    workers = getattr(workload, "workers", 0)
    # Peak resident memory: this process plus, for pooled workloads, the
    # largest worker's peak once per worker (read before any set-up
    # probe, which is a child process too).
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak_kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probes = [setup_probe(workload.name, work_dir) for _ in range(SETUP_PROBES)]

    if not trace:
        print("measured " + json.dumps({
            "setup_s": _median([p["setup_s"] for p in probes]),
            "job_s": _median([r.job_s for r in plain]),
            "cached_job_s": _median([s for r in plain for s in r.cached_job_s]),
            "gauge_s": _median(readings + [g for p in probes for g in p["gauge"]]),
        }))
        metrics = {
            "setup_s": (_median([p["setup_s"] * p["scale"] for p in probes]), "s"),
            "pkts_per_s": (
                _median([r.outcome.packets / r.job_host_s for r in plain]), "1/s"
            ),
            "job_s": (_median([r.job_host_s for r in plain]), "s"),
            "cached_job_s": (
                _median([s for r in plain for s in r.cached_job_host_s]), "s"
            ),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(workload, reps, tracer, probes, reference, checks)
    return metrics, checks, reference.digest, tracer


def layer_metrics(workload, reps, tracer, probes, reference, checks) -> Dict:
    """Per-layer metrics from the traced repetitions."""
    from perfbench.tracer import layer_totals, root_wall

    traced: List[Rep] = reps[True]
    count = len(traced)
    records = tracer.records
    wall = root_wall(records)
    totals, by_name = layer_totals(records)

    def layer(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    # The partition: every layer's busy or self time.
    parts = {
        "traffic.busy_s": layer("traffic", "busy"),
        "kernels.busy_s": layer("kernels", "busy"),
        "fold.self_s": layer("fold", "self"),
        "composite.self_s": layer("composite", "self"),
        "experiment.self_s": layer("experiment", "self"),
        "store.busy_s": layer("store", "busy"),
        "service.self_s": layer("service", "self"),
        "bench.self_s": layer("bench", "self"),
    }
    # The parts add up to wall by construction (layer_totals); what can
    # break is a hook that no longer reaches its layer, so every required
    # hook must have been installed and every layer the workload runs
    # through must read busy.
    checks.append((
        f"required layer hooks installed (missing: {', '.join(tracer.missing) or 'none'})",
        not tracer.missing,
    ))
    for name in workload.exercised:
        busy = layer(name, "busy") if name in totals else by_name.get(name, 0.0)
        checks.append((f"traced {name} busy", busy > 0))
    for name in ("traffic", "kernels", "store"):
        checks.append((
            f"{name} busy equals its self time",
            abs(layer(name, "busy") - layer(name, "self")) <= PARTITION_TOLERANCE * max(wall, 1.0),
        ))

    metrics: Dict[str, Tuple[float, str]] = {}
    for key, seconds in parts.items():
        metrics[key] = (seconds / count, "s")
    packets = sum(r.outcome.packets for r in traced)
    traffic_busy = layer("traffic", "busy")
    metrics["traffic.share"] = (traffic_busy / wall, "ratio")
    metrics["traffic.pkts_per_s"] = (
        layer("traffic", "packets") / traffic_busy if traffic_busy else 0.0, "1/s"
    )
    metrics["kernels.share"] = (layer("kernels", "busy") / wall, "ratio")
    from repro.models import PAPER_SWITCHES

    for switch in PAPER_SWITCHES:
        metrics[f"kernels.{switch}.busy_s"] = (
            by_name.get(f"kernels.{switch}", 0.0) / count, "s"
        )
    metrics["kernels.formation_s"] = (by_name.get("kernels.formation", 0.0) / count, "s")
    metrics["kernels.polled_s"] = (by_name.get("kernels.polled", 0.0) / count, "s")
    metrics["fold.share"] = (layer("fold", "self") / wall, "ratio")
    metrics["fold.late_packets"] = (reference.late_packets, "count")
    metrics["composite.share"] = (layer("composite", "self") / wall, "ratio")

    fetches = [r for r in records if r["name"].startswith("store.")]
    fetch_ms = [1e3 * (r["end"] - r["start"]) for r in fetches]
    stats = workload.store_stats()
    metrics["store.fetch_ms_p50"] = (_percentile(fetch_ms, 0.5), "ms")
    metrics["store.fetch_ms_p90"] = (_percentile(fetch_ms, 0.9), "ms")
    metrics["store.fetches"] = (len(fetches) / count, "count")
    metrics["store.hit_ratio"] = (
        sum(1 for r in fetches if r["attrs"].get("hit")) / len(fetches) if fetches else 0.0,
        "ratio",
    )
    metrics["store.bytes_per_entry"] = (
        stats.total_bytes / stats.entries if stats.entries else 0.0, "B"
    )

    cold = [r.outcome.layer for r in traced]
    warm = [c.layer for r in traced for c in r.cached]
    workers = getattr(workload, "workers", 0)
    busy = [c.get("worker_busy_s", 0.0) for c in cold]
    metrics["service.submit_s"] = (_median([c.get("submit_s", 0.0) for c in cold]), "s")
    metrics["service.worker_busy_s"] = (_median(busy), "s")
    metrics["service.utilization"] = (
        _median([b / (workers * r.job_s) for b, r in zip(busy, traced)]) if workers else 0.0,
        "ratio",
    )
    metrics["service.overhead_s"] = (
        _median([r.job_s - b / workers for b, r in zip(busy, traced)]) if workers else 0.0,
        "s",
    )
    waits = [w for c in cold for w in c.get("queue_waits", [])]
    metrics["service.queue_wait_s_p50"] = (_percentile(waits, 0.5), "s")
    metrics["service.shards_new"] = (_median([c.get("shards_new", 0) for c in cold]), "count")
    metrics["service.shards_cached"] = (
        _median([c.get("shards_cached", 0) for c in warm]), "count"
    )
    metrics["service.requeues"] = (
        sum(c.get("requeues", 0) for c in cold + warm), "count"
    )

    metrics["setup.import_s"] = (_median([p["import_s"] for p in probes]), "s")
    metrics["setup.resolve_s"] = (_median([p["resolve_s"] for p in probes]), "s")
    metrics["setup.pool_start_s"] = (_median([p["pool_start_s"] for p in probes]), "s")

    untraced_job = _median([r.job_host_s for r in reps[False]])
    traced_job = _median([r.job_host_s for r in traced])
    metrics["trace.overhead"] = (traced_job / untraced_job - 1.0, "ratio")

    print(f"layer table: {workload.name} ({count} traced reps, {wall / count:.4f} s wall per rep)")
    print(f"  {'layer':<12} {'busy s/rep':>11} {'share':>7} {'pkts/s':>14}")
    for key, seconds in parts.items():
        rate = packets / seconds if seconds > 0 else 0.0
        print(f"  {key.split('.')[0]:<12} {seconds / count:>11.4f} {seconds / wall:>7.3f} {rate:>14.0f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    trace = bool(args.trace)
    stamp = provenance(workload, args.seed, int(args.seconds), trace)
    print("provenance " + json.dumps(stamp, sort_keys=True))
    out_dir = ROOT / ".bench_out"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, checks, result_digest, tracer = measure(
            workload, args.seed, args.seconds, trace, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        spans = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(str(spans), {**stamp, "hooks": tracer.installed})
        print(f"spans {len(tracer.records)} records -> {spans.relative_to(ROOT)}")

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)
    print(f"digest {workload.name} seed={args.seed} {result_digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_frac {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
