"""The benchmark's workloads: what each job runs and how its output is checked.

Every workload exposes the same surface to :mod:`perfbench.run`:

* ``resolve()`` — the set-up a user pays before the first simulation
  (model, fabric and scenario resolution); the set-up probe times it in
  a fresh interpreter.
* ``start_pool(root)`` — returns a closer; starts worker processes where
  the workload has any (set-up too).
* ``warm(seed, root)`` — one untimed job that fills lazy state and the
  store the cached job reads; returns its :class:`Outcome`, whose digest
  every later job must reproduce.
* ``job(seed, clock, traced)`` / ``cached_job(...)`` — one timed job;
  only the part a user waits for runs inside ``clock``.
* ``exercised`` — the layers (or span names) a traced job must spend
  time in; the traced run fails a check for each that reads 0.

A workload's inputs are a pure function of its sizes and the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "FabricCollective",
    "Outcome",
    "PaperGrid",
    "ServiceSweep",
    "WORKLOADS",
    "digest",
    "untimed",
]

#: Switches the paper proves reordering-free; the baseline load-balanced
#: switch reorders by design and is exempt from the late-packet check.
ORDERED_SWITCHES = ("sprinklers", "ufs", "pf", "foff")


def digest(payloads: Sequence[Dict]) -> str:
    """SHA-256 over the canonical JSON of result dicts, in order."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one job produced, and the output checks it passed or failed.

    Holds a digest of the result dicts, not the dicts: a run keeps an
    outcome per repetition, and retained results would inflate the
    benchmark's own memory peak.
    """

    digest: str
    packets: int
    late_packets: int
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: Per-job layer facts only the workload can see (service timings
    #: and counts).
    layer: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def of(cls, payloads: Sequence[Dict], checks, layer=None) -> "Outcome":
        return cls(
            digest=digest(payloads),
            packets=sum(p.get("injected", 0) for p in payloads),
            late_packets=sum(p.get("late_packets", 0) for p in payloads),
            checks=checks,
            layer=layer or {},
        )


def _result_checks(
    payloads: Sequence[Dict], cells: int, ordered: Callable[[str], bool]
) -> List[Tuple[str, bool]]:
    checks = [("one result per cell", len(payloads) == cells)]
    for p in payloads:
        name = p["switch_name"]
        checks.append((f"{name}: departed <= injected", p["departed"] <= p["injected"]))
        if ordered(name):
            checks.append((f"{name}: zero late packets", p["late_packets"] == 0))
    return checks


def _fresh_dir(root: str, name: str) -> str:
    path = os.path.join(root, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class _LibraryWorkload:
    """A workload whose job is direct library calls (``_calls``); its
    cached job repeats them against a store the warm-up job filled."""

    name = ""
    store = None

    def _calls(self, seed: int, store) -> List:
        raise NotImplementedError

    def _outcome(self, results) -> Outcome:
        raise NotImplementedError

    def start_pool(self, root: str) -> Callable[[], None]:
        return lambda: None

    def warm(self, seed: int, root: str) -> Outcome:
        from repro.store import ExperimentStore

        self.store = ExperimentStore(_fresh_dir(root, f"{self.name}-store"))
        return self._outcome(self._calls(seed, self.store))

    def job(self, seed: int, clock, traced: bool) -> Outcome:
        with clock("job"):
            results = self._calls(seed, None)
        return self._outcome(results)

    def cached_job(self, seed: int, clock, traced: bool) -> Outcome:
        with clock("cached_job"):
            results = self._calls(seed, self.store)
        return self._outcome(results)

    def store_stats(self):
        return self.store.stats()


class PaperGrid(_LibraryWorkload):
    """The paper's section-6 grid as users call it: ``delay_vs_load_sweep``
    on the uniform (Fig. 6) and diagonal (Fig. 7) matrices, every paper
    switch, vectorized engine, monolithic replay, no retained samples."""

    name = "paper-grid"
    window_slots: Optional[int] = None
    loads = (0.9,)
    patterns = ("uniform", "diagonal")
    exercised = ("traffic", "kernels", "fold", "kernels.formation", "kernels.polled")

    def __init__(self, n: int = 32, num_slots: int = 5_000) -> None:
        self.n = n
        self.num_slots = num_slots

    def resolve(self) -> None:
        from repro import models
        from repro.sim.experiment import TRAFFIC_PATTERNS

        for switch in models.PAPER_SWITCHES:
            models.get(switch)
        for pattern in self.patterns:
            for load in self.loads:
                TRAFFIC_PATTERNS[pattern](self.n, load)

    def _calls(self, seed: int, store) -> List:
        from repro.sim.experiment import delay_vs_load_sweep

        results = []
        for pattern in self.patterns:
            results.extend(delay_vs_load_sweep(
                pattern,
                n=self.n,
                loads=self.loads,
                num_slots=self.num_slots,
                seed=seed,
                keep_samples=False,
                engine="vectorized",
                store=store,
            ))
        return results

    def _outcome(self, results) -> Outcome:
        from repro.models import PAPER_SWITCHES

        payloads = [r.to_dict(include_samples=False) for r in results]
        cells = len(self.patterns) * len(self.loads) * len(PAPER_SWITCHES)
        return Outcome.of(
            payloads, _result_checks(payloads, cells, lambda s: s in ORDERED_SWITCHES)
        )


class FabricCollective(_LibraryWorkload):
    """A phased all-to-all collective replayed through both multi-stage
    fabrics with ``run_single``: scenario traffic, streamed windows and
    the library default ``keep_samples=True``."""

    name = "fabric-collective"
    load = 0.8
    scenario = "alltoall-phased"
    fabrics = ("leaf-spine", "dual-sprinklers")
    exercised = ("traffic", "kernels", "composite")

    def __init__(
        self, n: int = 32, num_slots: int = 10_000, window_slots: int = 2_000
    ) -> None:
        self.n = n
        self.num_slots = num_slots
        self.window_slots = window_slots

    def resolve(self) -> None:
        from repro import models
        from repro.scenarios.registry import resolve_scenario

        for fabric in self.fabrics:
            models.lookup_fabric(fabric)
        resolve_scenario(self.scenario)

    def _calls(self, seed: int, store) -> List:
        from repro.sim.experiment import run_single

        return [
            run_single(
                fabric,
                num_slots=self.num_slots,
                seed=seed,
                engine="vectorized",
                scenario=self.scenario,
                n=self.n,
                load=self.load,
                store=store,
                window_slots=self.window_slots,
            )
            for fabric in self.fabrics
        ]

    def _outcome(self, results) -> Outcome:
        payloads = [r.to_dict(include_samples=False) for r in results]
        return Outcome.of(
            payloads, _result_checks(payloads, len(self.fabrics), lambda s: True)
        )


def timed_execute_shard(payload: Dict) -> Dict:
    """The service's shard runner, stamped with the time the worker began.

    ``time.monotonic`` is one system-wide clock on Linux, so the stamp
    compares with the parent's submit time (queue wait).
    """
    from repro.service.jobs import execute_shard

    start = time.monotonic()
    out = execute_shard(payload)
    out["bench_start"] = start
    return out


class ServiceSweep:
    """One closed-loop client of the simulation service: a sweep of many
    small shards submitted to a fresh store, drained, then resubmitted
    to a new service over the populated store (every shard cached)."""

    name = "service-sweep"
    window_slots: Optional[int] = None
    workers = min(2, os.cpu_count() or 1)
    exercised = ("service", "store")

    def __init__(
        self,
        n: int = 8,
        num_slots: int = 2_000,
        switches: Tuple[str, ...] = ORDERED_SWITCHES,
        loads: Tuple[float, ...] = (0.3, 0.5, 0.7, 0.9),
        seeds_per_job: int = 8,
    ) -> None:
        self.n = n
        self.num_slots = num_slots
        self.switches = switches
        self.loads = loads
        self.seeds_per_job = seeds_per_job
        self.root = ""
        self.store_path = ""

    @property
    def shards(self) -> int:
        return len(self.switches) * len(self.loads) * self.seeds_per_job

    def resolve(self) -> None:
        from repro import models
        from repro.service import SimulationService  # noqa: F401  (loads the service)

        for switch in self.switches:
            models.get(switch)

    def start_pool(self, root: str) -> Callable[[], None]:
        from repro.service import SimulationService

        service = SimulationService(
            _fresh_dir(root, "service-probe-store"), workers=self.workers
        ).start()
        return service.stop

    def _request(self, seed: int):
        from repro.service.jobs import JobRequest

        return JobRequest(
            workload="uniform",
            switches=self.switches,
            loads=self.loads,
            n=self.n,
            num_slots=self.num_slots,
            seeds=tuple(seed * self.seeds_per_job + i for i in range(self.seeds_per_job)),
            engine="vectorized",
        )

    def _serve(self, seed: int, clock, phase: str, traced: bool) -> Outcome:
        """Start a service on the current store, run one job, stop it."""
        from repro.service import SimulationService

        done: List[Dict] = []
        if traced:
            service = SimulationService(
                self.store_path, workers=self.workers, runner=timed_execute_shard
            )
            on_done = service.pool.on_done

            def record(task_id, payload):
                done.append(payload)
                on_done(task_id, payload)

            service.pool.on_done = record
        else:
            service = SimulationService(self.store_path, workers=self.workers)
        service.start()
        try:
            with clock(phase) as tracer:
                submitted = time.monotonic()
                with tracer.span("service.submit"):
                    job_id = service.submit(self._request(seed))
                submit_s = time.monotonic() - submitted
                with tracer.span("service.wait"):
                    finished = service.wait(job_id, timeout=120.0)
                entries = []
                drain = service.results(job_id)
                while True:
                    with tracer.span("service.results"):
                        entry = next(drain, None)
                    if entry is None:
                        break
                    entries.append(entry)
            sources = service.status(job_id)["sources"]
            requeues = service.pool.requeues
        finally:
            service.stop()
        payloads = [e.get("result") or {} for e in entries]
        checks = [("job finished", finished)]
        checks += [(f"shard {e['key'][:12]} done", e.get("status") == "done") for e in entries]
        checks += _result_checks(
            [p for p in payloads if p], self.shards, lambda s: s in ORDERED_SWITCHES
        )
        if phase == "cached_job":
            checks.append(("warm job all cached", sources.get("cached") == self.shards))
        busy = sum(p["wall_s"] for p in done)
        waits = [p["bench_start"] - submitted for p in done]
        layer = {
            "submit_s": submit_s,
            "worker_busy_s": busy,
            "queue_waits": waits,
            "shards_new": sources.get("new", 0),
            "shards_cached": sources.get("cached", 0),
            "requeues": requeues,
        }
        return Outcome.of(payloads, checks, layer)

    def warm(self, seed: int, root: str) -> Outcome:
        self.root = root
        self.store_path = _fresh_dir(root, "service-store")
        cold = self._serve(seed, untimed, "job", traced=False)
        self._serve(seed, untimed, "cached_job", traced=False)
        return cold

    def job(self, seed: int, clock, traced: bool) -> Outcome:
        _fresh_dir(self.root, "service-store")
        return self._serve(seed, clock, "job", traced)

    def cached_job(self, seed: int, clock, traced: bool) -> Outcome:
        return self._serve(seed, clock, "cached_job", traced)

    def store_stats(self):
        from repro.store import ExperimentStore

        return ExperimentStore(self.store_path).stats()


class _NullTracer:
    def span(self, name: str, **attrs):
        return nullcontext(attrs)


def untimed(phase: str):
    """A clock that times nothing (warm-up jobs)."""
    return nullcontext(_NullTracer())


WORKLOADS: Dict[str, Callable[[], object]] = {
    PaperGrid.name: PaperGrid,
    FabricCollective.name: FabricCollective,
    ServiceSweep.name: ServiceSweep,
}
