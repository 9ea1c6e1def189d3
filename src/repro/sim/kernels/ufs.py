"""Vectorized kernel: Uniform Frame Spreading (paper §2.2)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...traffic.batch import ArrivalBatch
from .base import (
    Departures,
    PolledQueueBank,
    UnitAssembler,
    WindowedStream,
    composite_argsort,
    mid_residues,
    periodic_fifo_service,
    replay_polled_queues,
    unit_completion,
)

__all__ = ["departures", "stream"]


def departures(
    batch: ArrivalBatch, matrix: np.ndarray, seed: int
) -> Tuple[Departures, Optional[Dict[str, float]]]:
    """Replay Uniform Frame Spreading (full-frame aggregation)."""
    n = batch.n
    frame_size = np.full(batch.n * batch.n, n, dtype=np.int64)
    complete, c_slot, c_order, pos = unit_completion(batch, frame_size)

    voq = batch.voqs[complete]
    inp = batch.inputs[complete]
    out = batch.outputs[complete]
    c = c_slot[complete]
    g = c_order[complete]
    p = pos[complete]

    # Frame spreading is cycle-aligned: a frame starts only when fabric 1
    # connects the input to intermediate 0 (t ≡ -i mod n), frames FCFS per
    # input by completion, back to back at best (one poll cycle apart).
    # Compute each frame's start via the running-max recursion over the
    # per-input frame sequence, then scatter to packets.
    frame_last = p == n - 1
    f_inp = inp[frame_last]
    f_c = c[frame_last]
    f_g = g[frame_last]
    f_sort = np.lexsort((f_g, f_inp))
    start = np.empty(len(f_inp), dtype=np.int64)
    # No completed frame at all (short run / tiny load): nothing departs.
    bounds = np.flatnonzero(
        np.r_[True, f_inp[f_sort][1:] != f_inp[f_sort][:-1], True]
    ) if len(f_inp) else np.empty(1, dtype=np.int64)
    for b in range(len(bounds) - 1):
        lo, hi = bounds[b], bounds[b + 1]
        i = int(f_inp[f_sort[lo]])
        residue = (-i) % n
        ready = f_c[f_sort[lo:hi]]
        start[f_sort[lo:hi]] = periodic_fifo_service(ready, residue, n)
    # Map each packet to its frame's start: frames are keyed like units.
    f_key_sorted = np.argsort(f_g)
    pkt_frame = np.searchsorted(f_g[f_key_sorted], g)
    frame_start = start[f_key_sorted][pkt_frame]

    tx = frame_start + p  # packet `p` of the frame crosses to intermediate p
    mid = p
    departure = replay_polled_queues(
        mid * n + out,
        np.zeros(len(tx), dtype=np.int64),
        tx + 1,
        tx,
        mid_residues(n),
        n,
    )
    dep = Departures(
        voq=voq,
        seq=batch.seqs[complete],
        arrival=batch.slots[complete],
        departure=departure,
        wire=mid,
        assembled=c,
        tx=tx,
    )
    return dep, None


class _UfsStream(WindowedStream):
    """Windowed replay of Uniform Frame Spreading.

    Full frames assemble in a :class:`UnitAssembler`; each completed
    frame then waits as *one event* in a per-input periodic FIFO bank
    for its cycle-aligned start slot (packets are parked in a side store
    keyed by the frame's completion index until then), and finally the
    frame's packets replay through the stage-2 polled queues.
    """

    def __init__(self, matrix: np.ndarray, seed: int, total_slots: int) -> None:
        super().__init__(matrix.shape[0])
        n = self.n
        self._assembler = UnitAssembler(np.full(n * n, n, dtype=np.int64))
        # (Frames are emitted VOQ-grouped, not completion-ordered, so
        # this bank cannot use the presorted radix grouping.)
        self._frame_bank = PolledQueueBank(
            (-np.arange(n, dtype=np.int64)) % n, n
        )
        self._stage2 = PolledQueueBank(mid_residues(n), n)
        # Packets of completed frames awaiting their frame's start slot,
        # sorted by (frame key, position).  The frame key is the
        # completing packet's generation index.
        empty = np.empty(0, dtype=np.int64)
        self._parked = (empty,) * 6  # fkey, voq, seq, slot, pos, c_slot

    def _round(self, arrivals, boundary):
        """Assemble frames, run the frame-start FIFO and stage 2 up to
        ``boundary``."""
        n = self.n
        slots, inputs, outputs, seqs, gidx = arrivals
        voq_c, slot_c, seq_c, _, pos_c, c_slot, c_order = (
            self._assembler.feed(inputs * n + outputs, slots, seqs, gidx)
        )
        # Frame events: queue = input, ready = completion slot, FIFO
        # order = completion index (per-input completion order, as in
        # the monolithic kernel).
        last = pos_c == n - 1
        start, _, (done_key,) = self._frame_bank.feed(
            voq_c[last] // n,
            np.zeros(int(last.sum()), dtype=np.int64),
            c_slot[last],
            c_order[last],
            (c_order[last],),
            boundary,
        )

        # Park the new frames' packets, keep the store (fkey, pos)-sorted.
        fkey, voq, seq, slot, pos, c_slot = tuple(
            np.concatenate([old, new])
            for old, new in zip(
                self._parked, (c_order, voq_c, seq_c, slot_c, pos_c, c_slot)
            )
        )
        order = composite_argsort(fkey, pos) if len(fkey) else fkey
        fkey, voq, seq, slot, pos, c_slot = (
            fkey[order], voq[order], seq[order], slot[order],
            pos[order], c_slot[order],
        )

        # Release the packets of frames whose start slot is now final.
        key_order = np.argsort(done_key)
        done_sorted = done_key[key_order]
        start_sorted = start[key_order]
        at = np.searchsorted(done_sorted, fkey)
        member = np.zeros(len(fkey), dtype=bool)
        if len(done_sorted):
            inb = at < len(done_sorted)
            member[inb] = done_sorted[at[inb]] == fkey[inb]
        keep = ~member
        self._parked = (
            fkey[keep], voq[keep], seq[keep], slot[keep],
            pos[keep], c_slot[keep],
        )
        frame_start = np.zeros(int(member.sum()), dtype=np.int64)
        if len(done_sorted):
            frame_start = start_sorted[at[member]]
        voq, seq, slot, pos, c_slot = (
            voq[member], seq[member], slot[member], pos[member],
            c_slot[member],
        )
        tx = frame_start + pos
        departure, tx, payload = self._stage2.feed(
            pos * n + voq % n,
            np.zeros(len(tx), dtype=np.int64),
            tx + 1,
            tx,
            (voq, seq, slot, pos, c_slot),
            boundary,
        )
        voq, seq, slot, pos, c_slot = payload
        return Departures(
            voq=voq,
            seq=seq,
            arrival=slot,
            departure=departure,
            wire=pos,
            assembled=c_slot,
            tx=tx,
        )


def stream(matrix: np.ndarray, seed: int, total_slots: int) -> _UfsStream:
    """Resumable UFS replay (see :class:`_UfsStream`)."""
    return _UfsStream(matrix, seed, total_slots)
