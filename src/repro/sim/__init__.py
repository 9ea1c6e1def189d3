"""Simulation harness: engine, metrics, experiments, seeded randomness."""

from .engine import SimulationEngine, simulate
from .experiment import (
    ENGINES,
    PAPER_SWITCHES,
    TRAFFIC_PATTERNS,
    delay_vs_load_sweep,
    run_single,
)
from .fast_engine import run_single_fast
from .metrics import DelayStats, SimulationMetrics, SimulationResult
from .parallel import SweepJob, parallel_delay_sweep, run_jobs
from .replication import ReplicatedResult, replicate
from .stats import BatchMeansResult, batch_means, compare_means, mser_truncation
from .rng import RngRegistry, derive_seed, spawn_generator

__all__ = [
    "BatchMeansResult",
    "DelayStats",
    "ENGINES",
    "PAPER_SWITCHES",
    "ReplicatedResult",
    "RngRegistry",
    "SimulationEngine",
    "SimulationMetrics",
    "SweepJob",
    "SimulationResult",
    "TRAFFIC_PATTERNS",
    "batch_means",
    "compare_means",
    "mser_truncation",
    "parallel_delay_sweep",
    "delay_vs_load_sweep",
    "derive_seed",
    "replicate",
    "run_jobs",
    "run_single",
    "run_single_fast",
    "simulate",
    "spawn_generator",
]
