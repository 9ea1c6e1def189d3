"""Vectorized kernel: the baseline load-balanced switch (Chang et al.)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    WindowedStream,
    mid_residues,
    replay_polled_queues,
    segmented_fifo_service,
)

__all__ = ["departures", "stream"]


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the baseline load-balanced switch (no aggregation, reorders)."""
    n = batch.n
    # Stage 1: one FIFO per input, served every slot.  Arrivals are
    # already (slot, input)-sorted, hence in FIFO order within each input.
    order = np.argsort(batch.inputs, kind="stable")
    tx = np.empty(len(batch.slots), dtype=np.int64)
    tx[order] = segmented_fifo_service(
        batch.inputs[order], batch.slots[order]
    )
    mid = (batch.inputs + tx) % n
    departure = replay_polled_queues(
        mid * n + batch.outputs,
        np.zeros(len(tx), dtype=np.int64),
        tx + 1,
        tx,
        mid_residues(n),
        n,
    )
    dep = Departures(
        voq=batch.voqs,
        seq=batch.seqs,
        arrival=batch.slots,
        departure=departure,
        wire=mid,
        tx=tx,
    )
    return dep, None


class _LoadBalancedStream(WindowedStream):
    """Windowed replay of the baseline LB switch.

    Stage 1 is a bank of per-input FIFOs served every slot — a
    :class:`PolledQueueBank` with period 1 — and stage 2 the usual
    per-(mid, output) polled queues.
    """

    def __init__(self, matrix: np.ndarray, seed: int, total_slots: int) -> None:
        super().__init__(matrix.shape[0])
        n = self.n
        # Stage-1 events arrive in generation order — FIFO order within
        # every input queue — so the bank can group by radix sort alone.
        self._stage1 = PolledQueueBank(
            np.zeros(n, dtype=np.int64), 1, presorted=True
        )
        self._stage2 = PolledQueueBank(mid_residues(n), n)

    def _round(self, arrivals, boundary):
        n = self.n
        slots, inputs, outputs, seqs, gidx = arrivals
        tx, _, payload = self._stage1.feed(
            inputs,
            np.zeros(len(slots), dtype=np.int64),
            slots,
            gidx,
            (inputs * n + outputs, seqs, slots, inputs),
            boundary,
        )
        voq, seqs, slots, inputs = payload
        mid = (inputs + tx) % n
        departure, tx, payload = self._stage2.feed(
            mid * n + voq % n,
            np.zeros(len(tx), dtype=np.int64),
            tx + 1,
            tx,
            (voq, seqs, slots, mid),
            boundary,
        )
        voq, seqs, slots, mid = payload
        return Departures(
            voq=voq,
            seq=seqs,
            arrival=slots,
            departure=departure,
            wire=mid,
            tx=tx,
        )


def stream(matrix: np.ndarray, seed: int, total_slots: int) -> _LoadBalancedStream:
    """Resumable LB replay (see :class:`_LoadBalancedStream`)."""
    return _LoadBalancedStream(matrix, seed, total_slots)
