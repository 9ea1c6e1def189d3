"""Independent replications: the honest way to error-bar a simulation.

Batch means (``sim/stats.py``) error-bars a *single* run; independent
replications — the same configuration under ``R`` different seeds —
additionally capture run-to-run variability (placement randomness,
traffic randomness), which for Sprinklers is exactly where the §4
probability statements live.  This module runs replications (optionally
in parallel) and summarizes any result metric across them with a
Student-t confidence interval.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import stats as scipy_stats

from .. import telemetry
from .metrics import SimulationResult
from .parallel import SweepJob, run_jobs

__all__ = ["ReplicatedResult", "replicate"]


class ReplicatedResult(NamedTuple):
    """Cross-replication summary of one scalar metric."""

    metric: str
    mean: float
    half_width: float
    confidence: float
    replications: int
    values: tuple

    @property
    def interval(self) -> tuple:
        """The (low, high) confidence interval for the metric's mean."""
        return (self.mean - self.half_width, self.mean + self.half_width)


def replicate(
    switch_name: str,
    matrix: Optional[np.ndarray] = None,
    num_slots: int = 0,
    replications: int = 10,
    base_seed: int = 0,
    metric: Callable[[SimulationResult], float] = lambda r: r.mean_delay,
    metric_name: str = "mean_delay",
    confidence: float = 0.95,
    load_label: float = float("nan"),
    max_workers: Optional[int] = 1,
    engine: str = "object",
    scenario=None,
    n: Optional[int] = None,
    load: Optional[float] = None,
    store=None,
    switch_params: Optional[dict] = None,
) -> ReplicatedResult:
    """Run ``replications`` independent seeds of one configuration.

    Seeds are ``base_seed .. base_seed + R - 1``; each seed independently
    redraws the placement *and* the traffic, so the interval covers both
    sources of randomness.  ``engine="vectorized"`` runs each replication
    on the batch engine — identical per-seed results, so identical
    intervals, at paper-scale speed.

    The workload is either an explicit ``matrix`` or a declarative
    ``scenario`` with ``n`` and ``load`` (see
    :func:`repro.sim.experiment.run_single`); ``store`` caches each
    seed's result, so re-running (or widening) a replication study only
    simulates seeds it has not seen.  ``switch_params`` replicates a
    parameterized switch (e.g. PF at a custom ``threshold``), threaded
    through every seed's job and cache key.  ``max_workers`` runs the
    seeds on a process pool.

    >>> from repro.traffic.matrices import uniform_matrix
    >>> res = replicate("load-balanced", uniform_matrix(4, 0.5), 800,
    ...                 replications=3)
    >>> res.replications
    3
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for an interval")
    from .. import models
    from ..scenarios.registry import resolve_scenario
    from ..store import store_dir

    scenario_dict = None
    if scenario is not None:
        if n is None or load is None:
            raise ValueError("scenario replications require n and load")
        scenario_dict = resolve_scenario(scenario).to_dict()
        # The job's load_label doubles as the scenario's target load.
        load_label = float(load)
    # A fabric name replicates through run_single's fabric dispatch; the
    # scenario / store / pool machinery works unchanged because the job
    # carries the name.
    fabric_spec = models.lookup_fabric(switch_name)
    if fabric_spec is not None:
        canonical = fabric_spec.name
    else:
        canonical = models.canonical_name(switch_name)
    with telemetry.trace(
        "run.replicate",
        switch=canonical,
        replications=replications,
        engine=engine,
    ):
        jobs = [
            SweepJob(
                canonical, matrix, num_slots, base_seed + r, load_label,
                engine, scenario=scenario_dict, n=n,
                store=store_dir(store), switch_params=switch_params,
            )
            for r in range(replications)
        ]
        results = run_jobs(jobs, max_workers=max_workers)
    values = [float(metric(result)) for result in results]
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1)) / math.sqrt(replications)
    t_crit = float(
        scipy_stats.t.ppf(0.5 + confidence / 2.0, df=replications - 1)
    )
    return ReplicatedResult(
        metric=metric_name,
        mean=mean,
        half_width=t_crit * stderr,
        confidence=confidence,
        replications=replications,
        values=tuple(values),
    )
