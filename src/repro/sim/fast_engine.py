"""Vectorized batch simulation engine (structure-of-arrays, NumPy).

The object engine in :mod:`repro.sim.engine` advances one slot at a time,
constructing a Python object per packet and dispatching through the switch
class hierarchy — faithful, auditable, and far too slow for the paper's
200k-slot Figs. 6-7 regime.  This module simulates the same switches by
*replaying their deterministic dynamics on flat arrays*, one vectorized
pass per pipeline stage instead of one Python iteration per packet per
slot.

Per-switch data paths live in :mod:`repro.sim.kernels` and are resolved
through the switch-model registry (:mod:`repro.models`): a switch is
vectorizable iff its :class:`~repro.models.SwitchModel` carries a kernel,
and every kernel declares :data:`~repro.models.Capability.EXACT_REPLAY`
— given the same seed it reproduces the object engine's per-packet
departure slots *exactly* (pinned by the engine-equivalence tests).  The
object engine remains the ordering-audit oracle because it exercises the
real data-path code.

Vectorized today: ``sprinklers`` (oracle sizing), ``ufs``, ``pf``
(padding is deterministic given frame formation), ``foff`` (resequencer
replay via a per-flow departure-time sort), ``load-balanced`` and
``output-queued`` — ask ``repro.models.available(engine="vectorized")``
rather than hardcoding the list.  Switches whose control loops are
feedback-coupled (adaptive Sprinklers) or not yet modeled (CMS, hashing)
keep the object engine.

**Windowed (streaming) replay** — ``run_single_fast(...,
window_slots=W)`` draws and replays the run in consecutive ``W``-slot
windows through the switch's resumable stream kernel
(:data:`~repro.models.Capability.STREAMING`), with bit-identical results
and O(``W``) peak arrival-array memory instead of O(run).  Independent
replications run seed by seed (:func:`repro.sim.replication.replicate`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import models, telemetry
from ..sim.metrics import SimulationMetrics, SimulationResult
from ..sim.rng import traffic_rng
from ..traffic.batch import BatchTrafficGenerator
from ..traffic.matrices import validate_matrix
from .kernels.base import Departures, composite_argsort
from .kernels.compiled import compiled_active, kernel_backend
from .kernels.compiled.fold_pass import fold_running_max

__all__ = ["run_single_fast"]


# ---------------------------------------------------------------------------
# Metrics assembly
# ---------------------------------------------------------------------------


def _fold_reordering(
    voq: np.ndarray, seq: np.ndarray, prev_max: np.ndarray
) -> tuple:
    """Vectorized :class:`~repro.switching.resequencer.ReorderingDetector`
    step over one (voq, observation)-sorted event block.

    Per VOQ in observation order, a packet is late iff an
    earlier-observed packet of its VOQ carries a higher sequence number.
    ``prev_max`` carries each VOQ's running max across blocks (windows);
    it is seeded from and updated **in place**.  Returns ``(late_mask,
    prev)`` where ``prev`` is the per-packet predecessor max (for
    displacement).  The segmented running max uses a monotone offset:
    voq ids are sorted, so adding ``voq * (max seq + 1)`` makes the
    global running max segment-local.
    """
    if compiled_active():
        prev = np.empty(len(voq), dtype=np.int64)
        fold_running_max(voq, seq, prev_max, prev)
        return prev > seq, prev
    big = int(seq.max()) + 1
    run = np.maximum.accumulate(seq + voq * big) - voq * big
    prev = np.empty(len(run), dtype=np.int64)
    prev[0] = -1
    prev[1:] = run[:-1]
    first = np.r_[True, voq[1:] != voq[:-1]]
    prev[first] = -1
    prev = np.maximum(prev, prev_max[voq])
    bounds = np.flatnonzero(np.r_[first, True])
    last = bounds[1:] - 1
    prev_max[voq[last]] = np.maximum(run, prev)[last]
    return prev > seq, prev


class _MetricsAccumulator:
    """Streaming fold of :class:`Departures` into run metrics.

    Consumes departures one finalized window at a time (windows arrive in
    nondecreasing departure order, as the stream kernels guarantee) and
    carries exactly the state the final :class:`SimulationResult` needs:
    scalar delay statistics, the retained samples (observation order),
    the per-VOQ running max sequence number of the vectorized
    :class:`~repro.switching.resequencer.ReorderingDetector` — a packet
    is late iff an earlier-observed packet of its VOQ carries a higher
    sequence number — and the delay-breakdown sums.  The monolithic path
    is the one-window special case, so both paths share this logic.
    """

    def __init__(self, n: int, warmup: int, keep_samples: bool) -> None:
        self.n = n
        self.warmup = warmup
        self.keep_samples = keep_samples
        self.count = 0
        self.total = 0
        self.total_sq = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.hist: Dict[int, int] = {}
        self.samples: List[int] = []
        self.departed = 0
        self.late = 0
        self.displacement = 0
        self._prev_max = np.full(n * n, -1, dtype=np.int64)
        self.has_breakdown = False
        self.assembly_total = 0
        self.input_queue_total = 0
        self.transit_total = 0

    def add(self, dep: Departures) -> None:
        if len(dep.voq) == 0:
            return
        self.departed += len(dep.voq)

        # Reordering: per VOQ in observation order, a packet is late iff
        # the running max sequence number already exceeds its own.
        within = dep.wire if dep.wire_is_rank else dep.departure
        order = composite_argsort(dep.voq, within)
        voq = dep.voq[order]
        seq = dep.seq[order]
        late, prev = _fold_reordering(voq, seq, self._prev_max)
        if late.any():
            self.late += int(late.sum())
            self.displacement = max(
                self.displacement, int(np.max(prev[late] - seq[late]))
            )

        # Delay statistics over measured (post-warm-up arrival) packets.
        measured = dep.arrival >= self.warmup
        delays = dep.departure[measured] - dep.arrival[measured]
        self.count += int(len(delays))
        self.total += int(delays.sum())
        self.total_sq += int(np.sum(delays * delays))
        if len(delays):
            self.min = (
                int(delays.min()) if self.min is None
                else min(self.min, int(delays.min()))
            )
            self.max = (
                int(delays.max()) if self.max is None
                else max(self.max, int(delays.max()))
            )
            # The exact sparse delay histogram: integer slot-count delays
            # fold per window, so percentiles stay exact with zero
            # retained per-packet arrays (the fused-metrics path).
            hist = self.hist
            values, counts = np.unique(delays, return_counts=True)
            for value, cnt in zip(values.tolist(), counts.tolist()):
                hist[value] = hist.get(value, 0) + cnt
        if self.keep_samples:
            # Order-sensitive statistics (MSER truncation, batch means
            # in delay_ci) require the object engine's observation
            # order: departure slot, then the kernel's within-slot
            # tie-break.  Finalized windows never interleave in that
            # order, so per-window sorted blocks concatenate exactly.
            obs = composite_argsort(dep.departure[measured], dep.wire[measured])
            self.samples.extend(delays[obs].tolist())

        if dep.assembled is not None and dep.tx is not None:
            self.has_breakdown = True
            self.assembly_total += int(
                (dep.assembled[measured] - dep.arrival[measured]).sum()
            )
            self.input_queue_total += int(
                (dep.tx[measured] - dep.assembled[measured]).sum()
            )
            self.transit_total += int(
                (dep.departure[measured] - dep.tx[measured]).sum()
            )

    def result(
        self,
        switch_name: str,
        injected: int,
        num_slots: int,
        load_label: float,
        extras: Optional[Dict[str, float]] = None,
    ) -> SimulationResult:
        """Build a :class:`SimulationResult` identical to the object
        engine's."""
        metrics = SimulationMetrics(keep_samples=self.keep_samples)
        stats = metrics.delays
        stats.count = self.count
        stats.total = self.total
        stats.total_sq = self.total_sq
        if self.count:
            stats.min = self.min
            stats.max = self.max
        stats._hist = dict(self.hist)
        if self.keep_samples:
            stats._samples = self.samples
        metrics.measured_departures = self.count

        metrics.reordering.observed = self.departed
        metrics.reordering.late_packets = self.late
        metrics.reordering.max_displacement = self.displacement

        if self.has_breakdown:
            metrics.breakdown_count = self.count
            metrics.assembly_total = self.assembly_total
            metrics.input_queue_total = self.input_queue_total
            metrics.transit_total = self.transit_total

        return SimulationResult(
            switch_name=switch_name,
            n=self.n,
            load=load_label,
            slots=num_slots,
            warmup=self.warmup,
            metrics=metrics,
            injected=injected,
            departed=self.departed,
            extras=extras,
        )


def _result_from_departures(
    switch_name: str,
    n: int,
    dep: Departures,
    injected: int,
    num_slots: int,
    warmup_fraction: float,
    load_label: float,
    keep_samples: bool,
    extras: Optional[Dict[str, float]] = None,
) -> SimulationResult:
    """Build a :class:`SimulationResult` from one monolithic replay."""
    warmup = int(num_slots * warmup_fraction)
    acc = _MetricsAccumulator(n, warmup, keep_samples)
    acc.add(dep)
    return acc.result(switch_name, injected, num_slots, load_label, extras)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _observe_throughput(span, slots: int, packets: int) -> None:
    """Window-rate observations off a finished span (``span`` is None on
    the disabled path's null handle, making this a no-op)."""
    if span is None or not span.dur_s:
        return
    telemetry.observe("replay.window.slots_per_s", slots / span.dur_s)
    telemetry.observe("replay.window.packets_per_s", packets / span.dur_s)


def _checked_model(switch_name: str, switch_params: Dict) -> "models.SwitchModel":
    """Resolve a switch model and validate vectorized-engine support."""
    model = models.get(switch_name)
    if model.kernel is None:
        known = ", ".join(models.available(engine="vectorized"))
        raise ValueError(
            f"switch {switch_name!r} has no vectorized data path "
            f"(supported: {known}); use the object engine"
        )
    model.validate_params(switch_params)
    unsupported = set(switch_params) - set(model.kernel_params)
    if unsupported:
        raise ValueError(
            f"switch {switch_name!r}: parameters {sorted(unsupported)} are "
            f"not modeled by the vectorized kernel (kernel honors: "
            f"{sorted(model.kernel_params) or 'none'}); use the object "
            f"engine"
        )
    return model


def run_single_fast(
    switch_name: str,
    matrix,
    num_slots: int,
    seed: int = 0,
    load_label: float = float("nan"),
    warmup_fraction: float = 0.1,
    keep_samples: bool = True,
    batch_traffic: Optional[BatchTrafficGenerator] = None,
    switch_params: Optional[Dict] = None,
    window_slots: Optional[int] = None,
    backend: Optional[str] = None,
) -> SimulationResult:
    """Vectorized counterpart of :func:`repro.sim.experiment.run_single`.

    Same seed discipline (traffic and placement seeds derived identically),
    same measurement conventions (warm-up by arrival slot, ordering checked
    on every departure), same result schema — different internals: the
    whole run is drawn as one arrival batch and replayed by the switch's
    registered kernel (:mod:`repro.sim.kernels`, resolved through
    :mod:`repro.models`).

    ``batch_traffic`` substitutes a pre-built packet source (the scenario
    subsystem passes its nonstationary batch generator here); ``matrix``
    then only provisions the switch (e.g. Sprinklers' placement).
    ``switch_params`` must be parameters the model's kernel declares in
    ``kernel_params`` (this entry point raises rather than falling back).

    ``window_slots`` switches to the *streaming* replay: traffic is drawn
    and replayed in consecutive windows of that many slots through the
    model's resumable stream kernel, producing a bit-identical result
    with O(``window_slots``) peak arrival-array memory — the mode for
    multi-million-slot runs that cannot materialize their arrivals at
    once.  Requires the model to declare
    :data:`~repro.models.Capability.STREAMING`.

    ``backend`` selects the kernel backend for this run (``"numpy"`` or
    ``"compiled"``; see :mod:`repro.sim.kernels.compiled`).  Results are
    bit-identical across backends; ``None`` keeps whatever is active.
    """
    if backend is not None:
        with kernel_backend(backend):
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
                window_slots=window_slots,
            )
    switch_params = switch_params or {}
    model = _checked_model(switch_name, switch_params)
    if num_slots <= 0:
        raise ValueError("num_slots must be positive")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    matrix = validate_matrix(matrix)
    n = matrix.shape[0]
    if batch_traffic is None:
        batch_traffic = BatchTrafficGenerator(matrix, traffic_rng(seed))
    if batch_traffic.n != n:
        raise ValueError("batch traffic size does not match matrix")

    if window_slots is None:
        with telemetry.trace(
            "replay.monolithic", switch=model.reported_name, slots=num_slots
        ) as run_span:
            with telemetry.trace("traffic.draw"):
                batch = batch_traffic.draw(num_slots)
            with telemetry.trace("kernel.replay"):
                dep, extras = model.kernel(
                    batch, matrix, seed, **switch_params
                )
            run_span.set(packets=len(batch))
        _observe_throughput(run_span.span, num_slots, len(batch))
        return _result_from_departures(
            model.reported_name,
            n,
            dep,
            injected=len(batch),
            num_slots=num_slots,
            warmup_fraction=warmup_fraction,
            load_label=load_label,
            keep_samples=keep_samples,
            extras=extras,
        )

    if window_slots <= 0:
        raise ValueError("window_slots must be positive")
    if model.stream_kernel is None:
        known = ", ".join(
            models.available(engine="vectorized", capability="streaming")
        )
        raise ValueError(
            f"switch {switch_name!r} has no streaming kernel "
            f"(streaming switches: {known}); drop window_slots"
        )
    # The windowed replay runs through the Stage adapter — the same
    # window-in / finalized-departures-out interface the multi-stage
    # fabrics compose (repro.sim.stage / repro.sim.composite).
    from .stage import KernelStage

    stage = KernelStage(model, matrix, seed, num_slots, switch_params)
    warmup = int(num_slots * warmup_fraction)
    acc = _MetricsAccumulator(n, warmup, keep_samples)
    with telemetry.trace(
        "replay.stream",
        switch=model.reported_name,
        slots=num_slots,
        window_slots=window_slots,
    ):
        if window_slots >= num_slots:
            # One window is the whole run: a single flush pass does it all.
            with telemetry.trace("traffic.draw"):
                batch = batch_traffic.draw(num_slots)
            injected = len(batch)
            final, extras = stage.finish(batch)
        else:
            injected = 0
            windows = telemetry.traced_iter(
                "traffic.draw",
                batch_traffic.draw_chunks(num_slots, window_slots),
            )
            for window in windows:
                injected += len(window)
                with telemetry.trace(
                    "replay.window",
                    slots=window.num_slots,
                    packets=len(window),
                ) as span:
                    acc.add(stage.feed(window))
                _observe_throughput(span.span, window.num_slots, len(window))
                telemetry.count("replay.windows")
        with telemetry.trace("replay.finish"):
            if window_slots < num_slots:
                final, extras = stage.finish()
            acc.add(final)
    return acc.result(
        model.reported_name, injected, num_slots, load_label, extras
    )
