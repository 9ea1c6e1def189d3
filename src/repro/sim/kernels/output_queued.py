"""Vectorized kernel: the ideal output-queued reference switch."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    WindowedStream,
    segmented_fifo_service,
)

__all__ = ["departures", "stream"]


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the ideal output-queued reference switch."""
    order = np.argsort(batch.outputs, kind="stable")
    service = np.empty(len(batch.slots), dtype=np.int64)
    service[order] = segmented_fifo_service(
        batch.outputs[order], batch.slots[order]
    )
    dep = Departures(
        voq=batch.voqs,
        seq=batch.seqs,
        arrival=batch.slots,
        departure=service + 1,  # cut-through floor of 1 slot
        wire=batch.outputs,  # OQ departures are observed in output order
    )
    return dep, None


class _OutputQueuedStream(WindowedStream):
    """Windowed replay of the OQ reference switch: one period-1 FIFO
    bank keyed by output."""

    def __init__(self, matrix: np.ndarray, seed: int, total_slots: int) -> None:
        super().__init__(matrix.shape[0])
        # Arrivals reach the bank in generation order — FIFO order
        # within every output queue — so radix grouping suffices.
        self._bank = PolledQueueBank(
            np.zeros(self.n, dtype=np.int64), 1, presorted=True
        )

    def _round(self, arrivals, boundary):
        slots, inputs, outputs, seqs, gidx = arrivals
        # Departure is service + 1, so finalize services below
        # boundary - 1 to keep finalized departures strictly windowed.
        service, _, payload = self._bank.feed(
            outputs,
            np.zeros(len(slots), dtype=np.int64),
            slots,
            gidx,
            (inputs * self.n + outputs, seqs, slots, outputs),
            None if boundary is None else boundary - 1,
        )
        voq, seqs, slots, outputs = payload
        return Departures(
            voq=voq,
            seq=seqs,
            arrival=slots,
            departure=service + 1,
            wire=outputs,
        )


def stream(matrix: np.ndarray, seed: int, total_slots: int) -> _OutputQueuedStream:
    """Resumable OQ replay (see :class:`_OutputQueuedStream`)."""
    return _OutputQueuedStream(matrix, seed, total_slots)
