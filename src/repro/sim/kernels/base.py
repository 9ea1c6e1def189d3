"""Shared replay primitives for the vectorized switch kernels.

Every switch the batch engine models is, for a fixed arrival stream, a
deterministic pipeline of FIFO queues served by the periodic fabrics.
The recursions here are the whole toolkit the per-switch kernels build
on:

* ``service_k = max(ready_k, service_{k-1} + 1)`` — a FIFO served once
  per slot — is a running maximum, one ``np.maximum.accumulate`` per
  queue (:func:`fifo_service`, :func:`segmented_fifo_service`);
* the same recursion over poll *indices* covers queues polled every
  ``n``-th slot (:func:`periodic_fifo_service`);
* banks of periodic priority queues (the Largest-Stripe-First grids of
  Sprinklers, the per-output FIFOs at the intermediate stage) peel
  exactly largest level first (:func:`replay_polled_queues`);
* stripe/frame completion instants are slices of the per-VOQ arrival
  sequence (:func:`unit_completion`).

:class:`Departures` is the structure-of-arrays record every kernel
returns; :mod:`repro.sim.fast_engine` turns it into a
:class:`~repro.sim.metrics.SimulationResult` identical to the object
engine's.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from ... import telemetry
from ...traffic.batch import ArrivalBatch, stable_voq_argsort
from .compiled import compiled_active
from .compiled.polled_pass import serve_polled

__all__ = [
    "Departures",
    "PolledQueueBank",
    "UnitAssembler",
    "WindowedStream",
    "composite_argsort",
    "concat_ranges",
    "fifo_service",
    "mid_residues",
    "periodic_fifo_service",
    "replay_polled_queues",
    "row_residues",
    "segmented_fifo_service",
    "unit_completion",
]


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``[starts[i], starts[i] + counts[i])``.

    The vectorized form of ``np.concatenate([np.arange(s, s + c) ...])``
    — one ``repeat`` plus one ``arange`` regardless of how many ranges
    there are.  Used wherever a kernel expands variable-length per-event
    runs in one shot (PF's fake-cell positions fill ``[size, n)`` of
    each padded frame).
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        total, dtype=np.int64
    )


def composite_argsort(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """Argsort by ``(major, minor)``.

    When both keys are nonnegative and their packed product fits an int64,
    a single-key quicksort is several times faster than a two-key
    ``np.lexsort`` (one sort pass instead of two stable passes); callers
    must pass unique pairs (stability is not guaranteed).
    """
    if len(major) == 0:
        return np.empty(0, dtype=np.intp)
    hi = int(major.max())
    span = int(minor.max()) + 1
    if hi < (np.iinfo(np.int64).max // max(span, 1)) - 1:
        return np.argsort(major * span + minor)
    return np.lexsort((minor, major))


def fifo_service(ready: np.ndarray) -> np.ndarray:
    """Service slots of a FIFO served once per slot, arrivals servable
    the slot they become ready.

    ``service_k = max(ready_k, service_{k-1} + 1)`` as a running max:
    with ``u_k = service_k - k`` this is ``u_k = max(ready_k - k,
    u_{k-1})``.
    """
    if len(ready) == 0:
        return ready
    k = np.arange(len(ready), dtype=np.int64)
    return np.maximum.accumulate(ready - k) + k


def periodic_fifo_service(
    ready: np.ndarray, residue: int, n: int
) -> np.ndarray:
    """Service slots of a FIFO polled at slots ``t ≡ residue (mod n)``.

    One packet per poll; a packet is servable at the poll of its ready
    slot.  Same running-max structure over poll *indices*.
    """
    if len(ready) == 0:
        return ready
    first = np.maximum((ready - residue + n - 1) // n, 0)
    k = np.arange(len(ready), dtype=np.int64)
    polls = np.maximum.accumulate(first - k) + k
    return residue + polls * n


def replay_polled_queues(
    queues: np.ndarray,
    levels: np.ndarray,
    ready: np.ndarray,
    order: np.ndarray,
    residues: np.ndarray,
    n: int,
    presorted: bool = False,
) -> np.ndarray:
    """Exact service slots for a bank of periodic priority queues.

    Each queue ``q`` is polled at slots ``t ≡ residues[q] (mod n)`` and, at
    every poll, serves the head of its *largest* nonempty level (FIFO
    within a level, ordered by ``order``) — the Largest Stripe First rule
    of paper §3.4 at an input-port row or an intermediate-port output
    class.

    The priority discipline peels exactly: packets of a level are never
    delayed by smaller levels, so levels replay largest-first, each as a
    FIFO over the poll slots not consumed by larger levels.

    Parameters are parallel per-event arrays (queue id, size level, ready
    slot, FIFO tie-break) plus the per-queue poll residue; returns the
    per-event service slot, aligned with the inputs.
    """
    num_events = len(queues)
    service = np.empty(num_events, dtype=np.int64)
    if num_events == 0:
        return service
    first_poll = np.maximum((ready - residues[queues] + n - 1) // n, 0)
    # Group by queue, then level ascending, then FIFO order.  Queue and
    # level pack into one sort key (level needs 4 bits up to n = 2^15).
    packed = (queues << 4) | levels
    if presorted:
        # Caller promises events already sit in (level, order) order
        # within each queue, so a *stable* sort by queue alone suffices —
        # radix-cheap while the packed ids fit 16 bits.
        key = packed
        if int(packed.max()) <= np.iinfo(np.uint16).max:
            key = packed.astype(np.uint16)
        grouping = np.argsort(key, kind="stable")
    else:
        grouping = composite_argsort(packed, order)
    packed_sorted = packed[grouping]
    poll_sorted = first_poll[grouping]
    queue_sorted = packed_sorted >> 4

    if compiled_active():
        # Compiled backend: the same grouping feeds the scalar mirror of
        # both disciplines below (single-level running max, multi-level
        # largest-first peel); bit-identical by the parity grid.
        polls = np.empty(num_events, dtype=np.int64)
        serve_polled(packed_sorted, poll_sorted, polls)
        service[grouping] = residues[queue_sorted] + polls * n
        return service

    # Fast path: one priority level everywhere (every non-Sprinklers
    # switch) — each queue is a plain FIFO over its own polls, and all
    # queues replay at once as a *segmented* running max: per-segment
    # offsets spaced wider than the value range make one global
    # ``np.maximum.accumulate`` segment-local.  No Python loop per queue.
    if num_events and int(levels.min()) == int(levels.max()):
        is_start = np.r_[True, queue_sorted[1:] != queue_sorted[:-1]]
        segment = np.cumsum(is_start) - 1
        seg_first = np.flatnonzero(is_start)
        k = np.arange(num_events, dtype=np.int64) - seg_first[segment]
        value = poll_sorted - k + num_events  # shifted nonnegative
        stride = np.int64(int(poll_sorted.max()) + num_events + 1)
        if int(segment[-1]) < (np.iinfo(np.int64).max - stride) // stride:
            run = (
                np.maximum.accumulate(value + segment * stride)
                - segment * stride
                - num_events
            )
            service[grouping] = residues[queue_sorted] + (run + k) * n
            return service

    queue_bounds = np.flatnonzero(
        np.r_[True, queue_sorted[1:] != queue_sorted[:-1], True]
    )
    for b in range(len(queue_bounds) - 1):
        lo, hi = queue_bounds[b], queue_bounds[b + 1]
        qid = int(queue_sorted[lo])
        residue = int(residues[qid])
        lvl_slice = packed_sorted[lo:hi]
        level_bounds = np.flatnonzero(
            np.r_[True, lvl_slice[1:] != lvl_slice[:-1], True]
        )
        if len(level_bounds) == 2:
            # Single level in this queue: a plain FIFO over its polls.
            wanted = poll_sorted[lo:hi]
            k = np.arange(hi - lo, dtype=np.int64)
            taken = np.maximum.accumulate(wanted - k) + k
            service[grouping[lo:hi]] = residue + taken * n
            continue
        # Poll indices the queue could ever use: the first poll of any
        # event plus one poll per event is a safe upper bound.
        cap = int(poll_sorted[lo:hi].max()) + (hi - lo) + 1
        avail = np.arange(cap, dtype=np.int64)
        # Largest level first; smaller levels see the leftover polls.
        for s in range(len(level_bounds) - 2, -1, -1):
            a, z = lo + level_bounds[s], lo + level_bounds[s + 1]
            wanted = poll_sorted[a:z]
            pos = np.searchsorted(avail, wanted, side="left")
            k = np.arange(z - a, dtype=np.int64)
            taken = np.maximum.accumulate(pos - k) + k
            service[grouping[a:z]] = residue + avail[taken] * n
            if s > 0:
                avail = np.delete(avail, taken)
    return service


def segmented_fifo_service(
    segment: np.ndarray, ready: np.ndarray
) -> np.ndarray:
    """Per-segment :func:`fifo_service` (events pre-sorted within segment).

    ``segment`` must be nondecreasing; each segment is an independent FIFO
    served once per slot.
    """
    service = np.empty(len(ready), dtype=np.int64)
    bounds = np.flatnonzero(np.r_[True, segment[1:] != segment[:-1], True])
    for b in range(len(bounds) - 1):
        lo, hi = bounds[b], bounds[b + 1]
        service[lo:hi] = fifo_service(ready[lo:hi])
    return service


def row_residues(n: int) -> np.ndarray:
    """Poll residues of the stage-1 queues: fabric 1 connects input ``i``
    to intermediate ``m`` at slots ``t ≡ m - i (mod n)``; queue id is
    ``i * n + m``."""
    ports = np.arange(n, dtype=np.int64)
    return ((ports[None, :] - ports[:, None]) % n).ravel()


def mid_residues(n: int) -> np.ndarray:
    """Poll residues of the stage-2 queues: fabric 2 connects intermediate
    ``m`` to output ``j`` at slots ``t ≡ m - j (mod n)``; queue id is
    ``m * n + j``."""
    ports = np.arange(n, dtype=np.int64)
    return ((ports[:, None] - ports[None, :]) % n).ravel()


def unit_completion(
    batch: ArrivalBatch, unit_size: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Completion data of each packet's aggregation unit (stripe/frame).

    ``unit_size[voq]`` packets of a VOQ form one unit, cut in arrival
    order; the unit completes when its last packet arrives.  Returns
    ``(complete, c_slot, c_order, pos)`` per packet: whether the packet's
    unit ever completes inside the batch, the completion slot, a global
    completion tie-break (the completing packet's generation index —
    generation order *is* per-input acceptance order), and the packet's
    position within its unit.
    """
    voq = batch.voqs
    num_packets = len(voq)
    if num_packets == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=bool), empty, empty, empty
    n = batch.n
    # Group packets by VOQ (stable, so in-group order is arrival order);
    # every unit is then a contiguous run of `unit_size` grouped packets
    # and its completing packet is an in-group index away — no searching.
    order = stable_voq_argsort(voq, n)
    sorted_voq = voq[order]
    counts = np.bincount(voq, minlength=n * n)
    group_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    rank = np.arange(num_packets, dtype=np.int64) - group_starts[sorted_voq]
    size = unit_size[sorted_voq]
    pos_g = rank % size
    completer_rank = rank - pos_g + size - 1  # in-group index of unit's last packet
    complete_g = completer_rank < counts[sorted_voq]
    completer_at = group_starts[sorted_voq] + np.minimum(
        completer_rank, counts[sorted_voq] - 1
    )
    c_slot_g = np.where(complete_g, batch.slots[order][completer_at], 0)
    c_order_g = np.where(complete_g, order[completer_at], 0)
    # Scatter back to generation order.
    complete = np.empty(num_packets, dtype=bool)
    c_slot = np.empty(num_packets, dtype=np.int64)
    c_order = np.empty(num_packets, dtype=np.int64)
    pos = np.empty(num_packets, dtype=np.int64)
    complete[order] = complete_g
    c_slot[order] = c_slot_g
    c_order[order] = c_order_g
    pos[order] = pos_g
    return complete, c_slot, c_order, pos


class Departures:
    """SoA record of every departed packet of a run.

    ``wire`` is the within-slot observation tie-break of the object
    engine: packets departing in the same slot are handed to the metrics
    in intermediate-port order (output order for the output-queued
    switch, resequencer release order for FOFF).  ``(departure, wire)``
    pairs must be unique per packet — kernels whose natural tie-break is
    not unique (FOFF releases several packets of a flow at one slot)
    store a precomputed observation rank instead.  Retained delay samples
    are stored in that ``(departure, wire)`` order so order-sensitive
    downstream statistics (MSER truncation, batch means) match the
    oracle exactly.
    """

    __slots__ = (
        "voq",
        "seq",
        "arrival",
        "departure",
        "wire",
        "assembled",
        "tx",
        "wire_is_rank",
    )

    def __init__(
        self,
        voq: np.ndarray,
        seq: np.ndarray,
        arrival: np.ndarray,
        departure: np.ndarray,
        wire: np.ndarray,
        assembled: Optional[np.ndarray] = None,
        tx: Optional[np.ndarray] = None,
        wire_is_rank: bool = False,
    ) -> None:
        self.voq = voq
        self.seq = seq
        self.arrival = arrival
        self.departure = departure
        self.wire = wire
        self.assembled = assembled
        self.tx = tx
        #: True when ``wire`` is already a global observation rank (every
        #: packet unique, consistent with (departure, wire) order) rather
        #: than a within-slot port tie-break.  Kernels that release
        #: several packets of one flow in a single slot (FOFF) must set
        #: this; for everyone else per-VOQ departure slots are unique and
        #: the cheaper departure-keyed ordering suffices.
        self.wire_is_rank = wire_is_rank

    def __len__(self) -> int:
        return len(self.voq)


# ---------------------------------------------------------------------------
# Streaming (windowed-replay) primitives
# ---------------------------------------------------------------------------
#
# The streamed kernels replay a run window-by-window instead of all at
# once.  The carried state between windows is small and exact:
#
# * a :class:`PolledQueueBank` holds the *unserved* events of a bank of
#   periodic (priority) queues.  At each window boundary ``B`` it
#   finalizes every event whose service slot is ``< B`` — provably equal
#   to the monolithic replay, because all future events are ready at or
#   after ``B`` and the replay recursions are monotone (adding events
#   never makes anyone depart earlier), so services below ``B`` can no
#   longer change and polls below ``B`` left free can never be used.
#   Carried events have their ready slots clamped to ``B`` (their true
#   service is provably >= ``B``), which makes the carried re-replay a
#   fresh peel over polls >= ``B`` only.
# * a :class:`UnitAssembler` holds each VOQ's trailing partial
#   aggregation unit (stripe/frame) until later arrivals complete it.
# * a :class:`WindowedStream` (the shell every stream kernel builds on)
#   numbers arrivals with run-global generation indices — the FIFO
#   tie-breaks of the monolithic kernels — across windows.


class PolledQueueBank:
    """Streamed :func:`replay_polled_queues` over a bank of queues.

    ``feed`` unions the carried unserved events with the new ones,
    replays the whole bank, finalizes events with service slot strictly
    below ``boundary`` (``None`` finalizes everything) and carries the
    rest.  ``payload`` is a tuple of caller arrays sliced alongside.
    """

    def __init__(
        self, residues: np.ndarray, n: int, presorted: bool = False
    ) -> None:
        self._residues = np.asarray(residues, dtype=np.int64)
        self._n = n
        #: Caller promise: events of one queue always arrive in FIFO
        #: (``order``-key) order, across feeds — enables the radix
        #: grouping fast path in :func:`replay_polled_queues`.
        self._presorted = presorted
        self._pending: Optional[Tuple[np.ndarray, ...]] = None
        self._payload: Tuple[np.ndarray, ...] = ()

    def feed(
        self,
        queues: np.ndarray,
        levels: np.ndarray,
        ready: np.ndarray,
        order: np.ndarray,
        payload: Tuple[np.ndarray, ...],
        boundary: Optional[int],
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
        """Returns ``(service, order, payload)`` of the finalized events."""
        if self._pending is not None:
            p_queues, p_levels, p_ready, p_order = self._pending
            queues = np.concatenate([p_queues, queues])
            levels = np.concatenate([p_levels, levels])
            ready = np.concatenate([p_ready, ready])
            order = np.concatenate([p_order, order])
            payload = tuple(
                np.concatenate([old, new])
                for old, new in zip(self._payload, payload)
            )
        if len(queues) == 0:
            self._pending = None
            self._payload = ()
            return np.empty(0, dtype=np.int64), order, payload
        service = replay_polled_queues(
            queues, levels, ready, order, self._residues, self._n,
            presorted=self._presorted,
        )
        if boundary is None:
            self._pending = None
            self._payload = ()
            return service, order, payload
        done = service < boundary
        keep = ~done
        self._pending = (
            queues[keep],
            levels[keep],
            np.maximum(ready[keep], boundary),
            order[keep],
        )
        self._payload = tuple(a[keep] for a in payload)
        if telemetry.enabled():
            # Events carried past this window's boundary: the streamed
            # replay's working-set signal (a growing carry means windows
            # are cut faster than the queues drain).
            telemetry.observe(
                "kernel.polled_queue.carry", len(self._pending[0])
            )
        return service[done], order[done], tuple(a[done] for a in payload)


class UnitAssembler:
    """Carried partial aggregation units (stripes / full frames) per VOQ.

    ``unit_size[voq]`` consecutive arrivals of a VOQ form one unit; a
    unit completes when its last packet arrives, which may be many
    windows after its first.  ``feed`` buffers the trailing partial unit
    of every VOQ and emits the packets of units completed so far,
    mirroring :func:`unit_completion` run on the whole stream.
    """

    def __init__(self, unit_size: np.ndarray) -> None:
        self._size = np.asarray(unit_size, dtype=np.int64)
        self._num = len(self._size)
        self._n = math.isqrt(self._num)
        #: Rank of the next packet to arrive per VOQ.
        self._rank_next = np.zeros(self._num, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._buf = (empty, empty, empty, empty)

    def feed(
        self,
        voqs: np.ndarray,
        slots: np.ndarray,
        seqs: np.ndarray,
        gidx: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Add packets (generation order); return completed-unit packets.

        Returns ``(voq, slot, seq, gidx, pos, c_slot, c_order)`` — the
        per-packet unit data of :func:`unit_completion`, restricted to
        units whose completing packet has now arrived.
        """
        b_voq, b_slot, b_seq, b_g = self._buf
        voq = np.concatenate([b_voq, voqs])
        slot = np.concatenate([b_slot, slots])
        seq = np.concatenate([b_seq, seqs])
        g = np.concatenate([b_g, gidx])
        if len(voq) == 0:
            empty = np.empty(0, dtype=np.int64)
            return (empty,) * 7
        if len(voqs):
            self._rank_next += np.bincount(voqs, minlength=self._num)
        # One stable sort groups the union by VOQ; buffered packets come
        # first (lower concat index and lower ranks), new packets follow
        # in generation order, so group ranks are consecutive from the
        # group's first buffered rank — no per-packet rank storage.
        order = stable_voq_argsort(voq, self._n)
        voq_s = voq[order]
        slot_s = slot[order]
        seq_s = seq[order]
        g_s = g[order]
        is_start = np.r_[True, voq_s[1:] != voq_s[:-1]]
        seg = np.cumsum(is_start) - 1
        seg_first = np.flatnonzero(is_start)
        seg_bounds = np.flatnonzero(np.r_[is_start, True])
        seg_last = seg_bounds[1:] - 1
        # rank = first buffered rank of the VOQ + index within the group;
        # the first buffered rank is rank_next minus everything now held
        # (note rank_next was already advanced by the new arrivals).
        within = np.arange(len(voq_s), dtype=np.int64) - seg_first[seg]
        group_count = (seg_last - seg_first + 1)[seg]
        base = self._rank_next[voq_s] - group_count
        rank_s = base + within
        size = self._size[voq_s]
        pos = rank_s % size
        completer_rank = rank_s - pos + size - 1
        complete = completer_rank <= rank_s[seg_last][seg]
        completer_at = np.minimum(
            seg_first[seg] + (completer_rank - base), len(voq_s) - 1
        )
        keep = ~complete
        self._buf = (voq_s[keep], slot_s[keep], seq_s[keep], g_s[keep])
        return (
            voq_s[complete],
            slot_s[complete],
            seq_s[complete],
            g_s[complete],
            pos[complete],
            slot_s[completer_at][complete],
            g_s[completer_at][complete],
        )


class WindowedStream:
    """The shell every stream kernel builds on: one seed, window at a time.

    ``feed(window)`` returns the :class:`Departures` finalized strictly
    before ``window.end_slot``; ``finish(window=None)`` consumes the
    optional last window, flushes all carried state and returns
    ``(Departures, extras)``.  Subclasses implement :meth:`_round` over
    the window's arrival arrays and :meth:`_extras`.

    Arrivals are numbered with run-global generation indices (a window's
    packets continue where the previous window's stopped), so every
    packet carries the FIFO tie-break it has in a monolithic batch.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._gnext = 0

    def _arrivals(
        self, window: Optional[ArrivalBatch]
    ) -> Tuple[np.ndarray, ...]:
        """``(slots, inputs, outputs, seqs, gidx)`` of one window."""
        if window is None:
            return (np.empty(0, dtype=np.int64),) * 5
        count = len(window)
        gidx = np.arange(self._gnext, self._gnext + count, dtype=np.int64)
        self._gnext += count
        return window.slots, window.inputs, window.outputs, window.seqs, gidx

    def _round(
        self, arrivals: Tuple[np.ndarray, ...], boundary: Optional[int]
    ) -> Departures:
        """Absorb arrivals; return departures finalized below ``boundary``
        (``None``: flush everything)."""
        raise NotImplementedError

    def _extras(self) -> Optional[Dict[str, float]]:
        return None

    def feed(self, window: ArrivalBatch) -> Departures:
        return self._round(self._arrivals(window), window.end_slot)

    def finish(
        self, window: Optional[ArrivalBatch] = None
    ) -> Tuple[Departures, Optional[Dict[str, float]]]:
        return self._round(self._arrivals(window), None), self._extras()
