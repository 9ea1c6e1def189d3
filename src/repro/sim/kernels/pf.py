"""Vectorized kernel: Padded Frames (paper §2.3, Jaramillo-Milan-Srikant).

PF is UFS with a padding escape hatch: an input with no full frame pads
its longest VOQ (if it holds at least ``threshold = max(1, N // 2)``
packets, matching :class:`~repro.switching.pf.PaddedFramesSwitch`'s
default) up to a full frame with fake cells.  Padding is deterministic
given frame formation — which VOQ is padded, and by how much, is a pure
function of the cycle-boundary occupancies — so the whole data path
replays exactly:

1. frame formation per input per cycle (:mod:`.frames`);
2. every frame, padded or not, deposits cell ``k`` (real packets first,
   then fakes) on intermediate port ``k`` at ``start + k``;
3. the per-output intermediate FIFOs replay as polled queues — with the
   fake cells *included*, because they consume stage-2 service like real
   ones (that is the price of padding the paper charges PF for);
4. fakes are discarded at the output: excluded from the departure record
   but counted for the ``padding_overhead`` extra.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    WindowedStream,
    concat_ranges,
    mid_residues,
    replay_polled_queues,
)
from .frames import (
    FrameFormationStream,
    FramedPacketBuffer,
    build_frame_schedule,
    drain_cut,
    drain_horizon,
    frame_membership,
    pf_rule,
)

__all__ = ["departures", "stream"]


def _check_threshold(n: int, threshold: Optional[int]) -> int:
    if threshold is None:
        threshold = max(1, n // 2)
    if not 1 <= threshold <= n:
        # Same contract as PaddedFramesSwitch: threshold 0 would pad
        # empty VOQs forever, threshold > n would never pad at all.
        raise ValueError(f"threshold must be in [1, {n}], got {threshold}")
    return threshold


def departures(
    batch: ArrivalBatch,
    matrix: np.ndarray,
    seed: int,
    threshold: Optional[int] = None,
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay the Padded Frames switch."""
    n = batch.n
    threshold = _check_threshold(n, threshold)
    schedule = build_frame_schedule(batch, pf_rule(threshold))
    member, assembled, position = frame_membership(batch, schedule)

    tx = assembled[member] + position[member]
    mid = position[member]
    out = batch.outputs[member]

    fake_queue, fake_tx = _fake_cells(schedule, n)
    queues = np.concatenate([mid * n + out, fake_queue])
    fifo_order = np.concatenate([tx, fake_tx])
    ready = fifo_order + 1

    service = replay_polled_queues(
        queues,
        np.zeros(len(queues), dtype=np.int64),
        ready,
        fifo_order,
        mid_residues(n),
        n,
    )
    # The object engine's drain phase is finite: cells that would depart
    # after its horizon stay in flight there and are never observed.
    cut = drain_horizon(batch)
    num_real = len(tx)
    real_service = service[:num_real]
    departed = real_service <= cut
    fakes_departed = int(np.sum(service[num_real:] <= cut))
    dep = Departures(
        voq=batch.voqs[member][departed],
        seq=batch.seqs[member][departed],
        arrival=batch.slots[member][departed],
        departure=real_service[departed],
        wire=mid[departed],
        assembled=assembled[member][departed],
        tx=tx[departed],
    )
    sent = int(departed.sum()) + fakes_departed
    extras = {"padding_overhead": fakes_departed / sent if sent else 0.0}
    return dep, extras


def _fake_cells(schedule, n: int):
    """Stage-2 events of a frame schedule's fake cells.

    Fake cells fill positions size .. n-1 of their frame, heading to the
    padded VOQ's output.  Returns ``(queue, tx)`` — the (mid, output)
    queue id and the crossing slot.
    """
    padded = schedule.fakes > 0
    reps = schedule.fakes[padded]
    fake_pos = concat_ranges(schedule.size[padded], reps)
    fake_tx = np.repeat(schedule.slot[padded], reps) + fake_pos
    fake_out = np.repeat(schedule.voq[padded] % n, reps)
    return fake_pos * n + fake_out, fake_tx


class _PfStream(WindowedStream):
    """Windowed replay of the Padded Frames switch.

    Frame formation streams cycle-by-cycle (:class:`FrameFormationStream`),
    framed packets and fake cells enter the stage-2 polled queues as they
    form, and the object engine's finite drain horizon is applied to the
    flushed services at the end — exactly the monolithic pipeline, window
    at a time.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        seed: int,
        total_slots: int,
        threshold: Optional[int] = None,
    ) -> None:
        super().__init__(matrix.shape[0])
        n = self.n
        threshold = _check_threshold(n, threshold)
        self._formation = FrameFormationStream(n, pf_rule(threshold))
        self._packets = FramedPacketBuffer(n)
        self._stage2 = PolledQueueBank(mid_residues(n), n)
        # The drain horizon needs the run length: services past it are
        # unobserved in the object engine.
        self._cut = drain_cut(total_slots, n)
        self._fakes_departed = 0
        self._real_departed = 0

    def _round(self, arrivals, boundary):
        n = self.n
        slots, inputs, outputs, seqs, gidx = arrivals
        schedule = self._formation.feed(slots, inputs, outputs, boundary)
        voq, slot, seq, _, _, assembled, position = self._packets.feed(
            inputs * n + outputs, slots, seqs, gidx, schedule
        )
        tx = assembled + position
        fake_queue, fake_tx = _fake_cells(schedule, n)
        zero = np.zeros(len(fake_tx), dtype=np.int64)
        fifo_order = np.concatenate([tx, fake_tx])
        payload = (
            np.concatenate([voq, zero]),
            np.concatenate([seq, zero]),
            np.concatenate([slot, zero]),
            np.concatenate([position, zero]),
            np.concatenate([assembled, zero]),
            np.arange(len(fifo_order)) >= len(tx),  # is_fake
        )
        service, tx, payload = self._stage2.feed(
            np.concatenate([position * n + voq % n, fake_queue]),
            np.zeros(len(fifo_order), dtype=np.int64),
            fifo_order + 1,
            fifo_order,
            payload,
            boundary,
        )
        voq, seq, slot, position, assembled, is_fake = payload
        # The object engine's drain phase is finite: cells that would
        # depart after its horizon stay in flight there, unobserved.
        # Window-finalized services are always below the horizon (the
        # boundary never exceeds the run length); the final flush is
        # where the cut actually bites.
        seen = service <= self._cut
        real = ~is_fake & seen
        self._fakes_departed += int(np.count_nonzero(is_fake & seen))
        self._real_departed += int(np.count_nonzero(real))
        return Departures(
            voq=voq[real],
            seq=seq[real],
            arrival=slot[real],
            departure=service[real],
            wire=position[real],
            assembled=assembled[real],
            tx=tx[real],
        )

    def _extras(self):
        sent = self._real_departed + self._fakes_departed
        return {"padding_overhead": self._fakes_departed / sent if sent else 0.0}


def stream(
    matrix: np.ndarray,
    seed: int,
    total_slots: int,
    threshold: Optional[int] = None,
) -> _PfStream:
    """Resumable PF replay (see :class:`_PfStream`)."""
    return _PfStream(matrix, seed, total_slots, threshold=threshold)
