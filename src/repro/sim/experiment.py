"""Experiment orchestration: engines, scenarios, caching, sweeps.

This is the layer the figure generators and benchmarks sit on: it knows
how to run any registered switch (:mod:`repro.models`) on either engine,
how to run declarative workload scenarios (:mod:`repro.scenarios`), how
to cache results in the experiment store (:mod:`repro.store`), and how
to sweep load levels the way the paper's §6 does.

Switch resolution goes through the switch-model registry exclusively.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from .. import models, telemetry
from ..models import PAPER_SWITCHES
from ..scenarios.build import build_batch_traffic, build_traffic
from ..scenarios.registry import SCENARIOS, resolve_scenario
from ..scenarios.spec import ScenarioSpec, effective_matrix
from ..sim.engine import SimulationEngine
from ..sim.fast_engine import run_single_fast
from ..sim.kernels.compiled import KERNEL_BACKENDS, kernel_backend
from ..sim.metrics import SimulationResult
from ..sim.rng import traffic_rng
from ..store import ExperimentStore, coerce_store
from ..traffic.generator import TrafficGenerator
from ..traffic.matrices import diagonal_matrix, uniform_matrix

__all__ = [
    "ENGINES",
    "PAPER_SWITCHES",
    "TRAFFIC_PATTERNS",
    "fabric_run_params",
    "resolve_run_params",
    "run_single",
    "delay_vs_load_sweep",
    "single_run_params",
]

#: Simulation engines: the per-packet object model (the auditable
#: reference and ordering oracle) and the NumPy batch replay of
#: :mod:`repro.sim.fast_engine` (identical results, built for the paper's
#: 200k-slot scale).
ENGINES: Sequence[str] = ("object", "vectorized")


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ValueError(f"unknown engine {engine!r}; known: {known}")


#: The two workload patterns of the paper's §6.
TRAFFIC_PATTERNS: Dict[str, Callable[[int, float], np.ndarray]] = {
    "uniform": uniform_matrix,
    "diagonal": diagonal_matrix,
}


def single_run_params(
    switch_name: str,
    matrix: np.ndarray,
    num_slots: int,
    seed: int,
    load_label: float,
    warmup_fraction: float,
    keep_samples: bool,
    engine: str,
    spec: Optional[ScenarioSpec],
    switch_params: Optional[Dict] = None,
) -> Dict:
    """The experiment store's cache-key parameters for one run.

    The workload identity is the scenario spec's dict form when the run
    is declarative, or a SHA-256 digest of the raw matrix bytes for ad-hoc
    matrices (see EXPERIMENTS.md, "cache-key scheme").  ``load_label``
    must be the workload-determining load for scenario runs (``run_single``
    guarantees this by keying on the scenario's target load).
    """
    if spec is not None:
        workload: Dict = {"scenario": spec.to_dict()}
    else:
        digest = hashlib.sha256(
            np.ascontiguousarray(matrix, dtype=float).tobytes()
        ).hexdigest()
        workload = {"matrix_sha256": digest}
    params = {
        "schema": 1,
        "kind": "run_single",
        "switch": switch_name,
        "engine": engine,
        "n": int(matrix.shape[0]),
        "slots": int(num_slots),
        "seed": int(seed),
        "load": float(load_label),
        "warmup_fraction": float(warmup_fraction),
        "keep_samples": bool(keep_samples),
        "workload": workload,
    }
    if switch_params:
        # Only present when non-default, so pre-existing cache keys (all
        # default-parameter runs) are unchanged.
        params["switch_params"] = dict(switch_params)
    return params


def fabric_run_params(
    fabric_spec,
    matrix: np.ndarray,
    num_slots: int,
    seed: int,
    load_label: float,
    warmup_fraction: float,
    keep_samples: bool,
    engine: str,
    spec: Optional[ScenarioSpec],
) -> Dict:
    """Store cache-key parameters for a multi-stage fabric run.

    Same scheme as :func:`single_run_params` with ``kind="run_fabric"``
    and the full fabric spec embedded: two fabrics sharing a name but
    differing in stages, parameters, or port maps never collide.
    """
    params = single_run_params(
        fabric_spec.name, matrix, num_slots, seed, load_label,
        warmup_fraction, keep_samples, engine, spec,
    )
    params["kind"] = "run_fabric"
    params["fabric"] = fabric_spec.to_dict()
    return params


def _captured(span_name: str, execute: Callable[[], SimulationResult]) -> SimulationResult:
    """Execute one run under a telemetry capture; when telemetry is on,
    attach the capture payload (wall seconds, peak RSS, metrics snapshot
    — process-cumulative at run exit) as ``extras["telemetry"]``.

    The attach happens *before* any store save, so traces of cached
    sweeps can tell computed runs from hits: a hit's result carries the
    telemetry of the run that computed it, not of the fetch.  Disabled
    telemetry leaves the result byte-identical to an uninstrumented run.
    """
    cap = telemetry.capture(span_name)
    with cap:
        result = execute()
    if cap.result is not None:
        result.extras["telemetry"] = cap.result
    return result


def _run_single_fabric(
    fabric_spec,
    matrix: Optional[np.ndarray],
    num_slots: int,
    seed: int,
    load_label: float,
    warmup_fraction: float,
    keep_samples: bool,
    engine: str,
    scenario,
    n: Optional[int],
    load: Optional[float],
    store,
    switch_params: Optional[Dict],
    window_slots: Optional[int],
) -> SimulationResult:
    """The fabric branch of :func:`run_single`: same workload resolution
    and store protocol, execution through
    :func:`repro.sim.composite.run_fabric`."""
    if switch_params:
        raise ValueError(
            f"fabric {fabric_spec.name!r}: per-stage parameters belong in "
            f"the FabricSpec stages, not switch_params"
        )
    spec: Optional[ScenarioSpec] = None
    if scenario is not None:
        if matrix is not None:
            raise ValueError("pass either matrix or scenario, not both")
        spec = resolve_scenario(scenario)
        if n is None or load is None:
            raise ValueError("scenario runs require n and load")
        matrix = effective_matrix(spec, n, load)
        if math.isnan(load_label):
            load_label = float(load)
    elif matrix is None:
        raise ValueError("need a matrix or a scenario")
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    spec_load = float(load) if load is not None else None

    # Imported here, not at module scope: the fabric built-ins resolve
    # their stage names against the switch registry, which is still
    # filling in while this module first loads (models -> builtin ->
    # kernels -> sim package -> here).
    from ..sim.composite import run_fabric

    def execute() -> SimulationResult:
        batch_traffic = (
            build_batch_traffic(
                spec, matrix.shape[0], spec_load, seed, num_slots
            )
            if spec is not None
            else None
        )
        return run_fabric(
            fabric_spec,
            matrix,
            num_slots,
            seed=seed,
            load_label=load_label,
            warmup_fraction=warmup_fraction,
            keep_samples=keep_samples,
            engine=engine,
            batch_traffic=batch_traffic,
            window_slots=window_slots,
        )

    cache = coerce_store(store)
    if cache is None:
        return _captured("run.fabric", execute)
    params = fabric_run_params(
        fabric_spec, matrix, num_slots, seed,
        spec_load if spec is not None else load_label,
        warmup_fraction, keep_samples, engine, spec,
    )
    cached = cache.fetch(params)
    if cached is not None:
        return cached
    result = _captured("run.fabric", execute)
    cache.save(params, result)
    return result


def _execute_single(
    switch_name: str,
    matrix: np.ndarray,
    num_slots: int,
    seed: int,
    load_label: float,
    warmup_fraction: float,
    keep_samples: bool,
    engine: str,
    spec: Optional[ScenarioSpec],
    spec_load: Optional[float] = None,
    switch_params: Optional[Dict] = None,
    window_slots: Optional[int] = None,
) -> SimulationResult:
    """The uncached simulation (the store wraps exactly this function)."""
    n = matrix.shape[0]
    model = models.get(switch_name)
    switch_params = switch_params or {}
    if engine == "vectorized" and model.supports_engine(
        "vectorized", switch_params
    ):
        batch_traffic = (
            build_batch_traffic(spec, n, spec_load, seed, num_slots)
            if spec is not None
            else None
        )
        return run_single_fast(
            switch_name,
            matrix,
            num_slots,
            seed=seed,
            load_label=load_label,
            warmup_fraction=warmup_fraction,
            keep_samples=keep_samples,
            batch_traffic=batch_traffic,
            switch_params=switch_params,
            # The windowed replay is an execution detail (bit-identical
            # results, bounded memory); switches without a stream kernel
            # simply keep the monolithic replay.
            window_slots=(
                window_slots if model.stream_kernel is not None else None
            ),
        )
    switch = model.build(n, matrix, seed, **switch_params)
    if spec is not None:
        traffic = build_traffic(spec, n, spec_load, seed, num_slots)
    else:
        traffic = TrafficGenerator(matrix, traffic_rng(seed))
    sim = SimulationEngine(
        switch,
        traffic,
        warmup_fraction=warmup_fraction,
        keep_samples=keep_samples,
    )
    return sim.run(num_slots, load_label=load_label)


def run_single(
    switch_name: str,
    matrix: Optional[np.ndarray] = None,
    num_slots: int = 0,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    engine: str = "object",
    scenario=None,
    n: Optional[int] = None,
    load: Optional[float] = None,
    store: Union[None, str, ExperimentStore] = None,
    switch_params: Optional[Dict] = None,
    window_slots: Optional[int] = None,
    backend: Optional[str] = None,
) -> SimulationResult:
    """Build switch + traffic from a seed and simulate one configuration.

    ``switch_name`` is any name or alias in the switch-model registry
    (:func:`repro.models.available` lists them); aliases are canonicalized
    before anything else, so store cache keys are alias-independent.  A
    registered *fabric* name (:func:`repro.models.available_fabrics`) or
    a :class:`~repro.models.FabricSpec` is also accepted and dispatches
    to the multi-stage runner (:func:`repro.sim.composite.run_fabric`),
    with per-stage metrics in the result's extras.
    ``switch_params`` passes schema-checked constructor parameters (e.g.
    ``{"threshold": 8}`` for PF) through the model; a vectorized run
    falls back to the object engine when a requested parameter is not in
    the kernel's declared ``kernel_params`` (UFS's finite
    ``input_buffer`` drops packets, which the array replay does not
    model), and parameterized runs get their own store cache keys.

    Workload selection — exactly one of:

    * ``matrix`` — an explicit rate matrix (the historical API), or
    * ``scenario`` with ``n`` and ``load`` — a declarative scenario
      (registry name, spec file path, dict, or
      :class:`~repro.scenarios.spec.ScenarioSpec`); the switch is
      provisioned from the scenario's effective matrix and traffic is
      built by :mod:`repro.scenarios.build` (identically for both
      engines).

    ``engine="vectorized"`` routes through the NumPy batch engine
    (:mod:`repro.sim.fast_engine`) whenever the switch's registered model
    carries a kernel — which reproduces the object engine's results
    exactly — and transparently falls back to the object engine otherwise
    (CMS, hashing, adaptive Sprinklers), so mixed sweeps keep working.

    ``store`` (an :class:`~repro.store.ExperimentStore` or its directory
    path) caches the result content-addressed by the full configuration;
    a hit skips the simulation entirely.

    ``window_slots`` streams the vectorized replay in windows of that
    many slots (bounded arrival memory, bit-identical results — see
    :func:`repro.sim.fast_engine.run_single_fast`); because results are
    identical it does not enter the store cache key, and engines or
    switches that cannot stream simply ignore it.

    ``backend`` selects the kernel backend ("numpy" or "compiled") for
    this run (:mod:`repro.sim.kernels.compiled`); ``None`` keeps
    whatever is globally active.  Compiled results are bit-identical to
    NumPy's, so the backend never enters the store cache key — a run
    computed on one backend is a cache hit for the other.
    """
    if backend is not None:
        with kernel_backend(backend):
            return run_single(
                switch_name, matrix, num_slots, seed, load_label,
                warmup_fraction, keep_samples, engine, scenario, n, load,
                store, switch_params, window_slots,
            )
    _check_engine(engine)
    fabric_spec = models.lookup_fabric(switch_name)
    if fabric_spec is not None:
        # A registered fabric name (or FabricSpec) dispatches to the
        # multi-stage runner; fabric and switch names share a namespace.
        return _run_single_fabric(
            fabric_spec, matrix, num_slots, seed, load_label,
            warmup_fraction, keep_samples, engine, scenario, n, load,
            store, switch_params, window_slots,
        )
    switch_name = models.canonical_name(switch_name)
    models.get(switch_name).validate_params(switch_params or {})
    spec: Optional[ScenarioSpec] = None
    if scenario is not None:
        if matrix is not None:
            raise ValueError("pass either matrix or scenario, not both")
        spec = resolve_scenario(scenario)
        if n is None or load is None:
            raise ValueError("scenario runs require n and load")
        matrix = effective_matrix(spec, n, load)
        if math.isnan(load_label):
            load_label = float(load)
    elif matrix is None:
        raise ValueError("need a matrix or a scenario")
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")

    spec_load = float(load) if load is not None else None

    def execute() -> SimulationResult:
        return _execute_single(
            switch_name, matrix, num_slots, seed, load_label,
            warmup_fraction, keep_samples, engine, spec, spec_load,
            switch_params, window_slots,
        )

    cache = coerce_store(store)
    if cache is None:
        return _captured("run.single", execute)
    params = single_run_params(
        switch_name, matrix, num_slots, seed,
        spec_load if spec is not None else load_label,
        warmup_fraction, keep_samples, engine, spec, switch_params,
    )
    cached = cache.fetch(params)
    if cached is not None:
        return cached
    result = _captured("run.single", execute)
    cache.save(params, result)
    return result


def resolve_run_params(
    switch_name: str,
    matrix: Optional[np.ndarray] = None,
    num_slots: int = 0,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    engine: str = "object",
    scenario=None,
    n: Optional[int] = None,
    load: Optional[float] = None,
    switch_params: Optional[Dict] = None,
    backend: Optional[str] = None,
) -> Dict:
    """The store cache-key parameters :func:`run_single` would use, without
    running anything.

    Performs the same resolution as :func:`run_single` — fabric dispatch,
    alias canonicalization, parameter validation, scenario resolution,
    workload-load keying — and returns the exact params dict the store
    would be keyed by, so callers that plan work ahead of execution (the
    simulation service's shard dedup) and :func:`run_single` itself can
    never disagree on a key.  Raises the same errors for the same invalid
    configurations.

    ``backend`` is validated and then deliberately *excluded* from the
    key: compiled and NumPy kernels produce bit-identical results, so
    they must share cache entries.
    """
    if backend is not None and backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; known: "
            + ", ".join(KERNEL_BACKENDS)
        )
    _check_engine(engine)
    fabric_spec = models.lookup_fabric(switch_name)
    if fabric_spec is not None and switch_params:
        raise ValueError(
            f"fabric {fabric_spec.name!r}: per-stage parameters belong in "
            f"the FabricSpec stages, not switch_params"
        )
    if fabric_spec is None:
        switch_name = models.canonical_name(switch_name)
        models.get(switch_name).validate_params(switch_params or {})
    spec: Optional[ScenarioSpec] = None
    if scenario is not None:
        if matrix is not None:
            raise ValueError("pass either matrix or scenario, not both")
        spec = resolve_scenario(scenario)
        if n is None or load is None:
            raise ValueError("scenario runs require n and load")
        matrix = effective_matrix(spec, n, load)
        if math.isnan(load_label):
            load_label = float(load)
    elif matrix is None:
        raise ValueError("need a matrix or a scenario")
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    spec_load = float(load) if load is not None else None
    key_load = spec_load if spec is not None else load_label
    if fabric_spec is not None:
        return fabric_run_params(
            fabric_spec, matrix, num_slots, seed, key_load,
            warmup_fraction, keep_samples, engine, spec,
        )
    return single_run_params(
        switch_name, matrix, num_slots, seed, key_load,
        warmup_fraction, keep_samples, engine, spec, switch_params,
    )


def delay_vs_load_sweep(
    pattern: str,
    n: int = 32,
    loads: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
    num_slots: int = 50_000,
    switches: Optional[Sequence[str]] = None,
    seed: int = 0,
    keep_samples: bool = False,
    engine: str = "object",
    store: Union[None, str, ExperimentStore] = None,
    window_slots: Optional[int] = None,
    backend: Optional[str] = None,
) -> List[SimulationResult]:
    """The paper's §6 experiment grid: all switches across a load sweep.

    ``pattern`` is a :data:`TRAFFIC_PATTERNS` key ("uniform" for Fig. 6,
    "diagonal" for Fig. 7) or any scenario designator accepted by
    :func:`repro.scenarios.resolve_scenario` (registry name or spec-file
    path).  Returns one result per (switch, load).  ``engine="vectorized"``
    runs each supported switch on the fast batch engine (same seeds, same
    results, paper-scale wall-clock); ``store`` caches every cell so a
    repeated sweep recomputes nothing.
    """
    spec: Optional[ScenarioSpec] = None
    is_name = isinstance(pattern, str) and not pattern.endswith(
        (".toml", ".json")
    )
    if is_name and pattern in TRAFFIC_PATTERNS:
        pass  # the §6 matrix-family path
    elif is_name and pattern not in SCENARIOS:
        known = ", ".join(sorted(TRAFFIC_PATTERNS) + sorted(SCENARIOS))
        raise ValueError(
            f"unknown pattern {pattern!r}; known patterns and "
            f"scenarios: {known}"
        )
    else:
        # A registered name, spec file, dict, or ScenarioSpec; file and
        # validation errors propagate with their own messages.
        spec = resolve_scenario(pattern)
    _check_engine(engine)
    if switches is None:
        switches = PAPER_SWITCHES
    cache = coerce_store(store)
    results: List[SimulationResult] = []
    sweep_span = telemetry.trace(
        "sweep.delay_vs_load",
        pattern=spec.name if spec is not None else str(pattern),
        n=n,
        engine=engine,
        loads=len(loads),
        switches=len(switches),
    )
    with sweep_span, kernel_backend(backend):
        results.extend(_sweep_cells(
            spec, pattern, n, loads, switches, num_slots, seed,
            keep_samples, engine, cache, window_slots,
        ))
    return results


def _sweep_cells(
    spec, pattern, n, loads, switches, num_slots, seed,
    keep_samples, engine, cache, window_slots,
) -> List[SimulationResult]:
    """The sweep grid body of :func:`delay_vs_load_sweep`."""
    results: List[SimulationResult] = []
    for load in loads:
        matrix = (
            TRAFFIC_PATTERNS[pattern](n, load) if spec is None else None
        )
        for name in switches:
            results.append(
                run_single(
                    name,
                    matrix,
                    num_slots,
                    seed=seed,
                    load_label=load,
                    keep_samples=keep_samples,
                    engine=engine,
                    scenario=spec,
                    n=n if spec is not None else None,
                    load=load if spec is not None else None,
                    store=cache,
                    window_slots=window_slots,
                )
            )
    return results
