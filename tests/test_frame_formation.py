"""Formation parity: the array-stepped engine vs the scalar reference.

The vectorized PF/FOFF kernels replaced their per-input, per-cycle Python
recursion with the lock-step lane engine of
:mod:`repro.sim.kernels.frames` (:class:`_LaneFormation`).  The original
scalar recursion (:data:`Picker` closures driving
:class:`_InputFormation`) survives as a genuinely independent
implementation, and this suite pins the engine against it *frame for
frame*: the same (VOQ, start rank, size, fake cells, formation slot)
multiset — and the same per-VOQ formation order — for PF and FOFF across
switch sizes, workloads, and monolithic vs streamed (windowed) replay,
drain quiescence included.

Frame-for-frame equality is strictly stronger than the engine parity
tests (which compare end-of-pipeline metrics): a formation bug that
happened to cancel downstream would still fail here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios.build import build_batch_traffic
from repro.scenarios.registry import get_scenario
from repro.sim.kernels.frames import (
    FormationRule,
    FrameFormationStream,
    ReferenceFormationStream,
    build_frame_schedule,
    foff_rule,
    pf_rule,
    reference_frame_schedule,
)
from repro.sim.rng import derive_seed
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.matrices import diagonal_matrix, uniform_matrix

#: Name -> batch-traffic factory ``(n, seed, slots) -> generator``.  Two
#: §6 matrix families plus two registered scenarios (bursty on/off and
#: fan-in incast — clumped arrivals stress the idle-span skip hardest).
WORKLOADS = {
    "uniform": lambda n, seed, slots: BatchTrafficGenerator(
        uniform_matrix(n, 0.85),
        np.random.default_rng(derive_seed(seed, "traffic")),
    ),
    "diagonal": lambda n, seed, slots: BatchTrafficGenerator(
        diagonal_matrix(n, 0.6),
        np.random.default_rng(derive_seed(seed, "traffic")),
    ),
    "mmpp-bursty": lambda n, seed, slots: build_batch_traffic(
        get_scenario("mmpp-bursty"), n, 0.8, seed, slots
    ),
    "incast": lambda n, seed, slots: build_batch_traffic(
        get_scenario("incast"), n, 0.75, seed, slots
    ),
}
SLOTS = 900
WINDOWS = (97, 400)


def rules_for(n: int):
    return {
        "pf": pf_rule(max(1, n // 2)),
        "pf-thr2": pf_rule(min(2, n)),
        "foff": foff_rule(),
    }


def canonical(schedule):
    """Frames sorted by (voq, start) — the only order the kernels rely on."""
    order = np.lexsort((schedule.start, schedule.voq))
    return tuple(
        field[order]
        for field in (
            schedule.voq,
            schedule.start,
            schedule.size,
            schedule.fakes,
            schedule.slot,
        )
    )


def assert_schedules_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(canonical(got), canonical(want)):
        np.testing.assert_array_equal(a, b)
    # Per-VOQ formation order (what frame_membership / FramedPacketBuffer
    # key on): within a VOQ, starts must ascend in emission order.
    for schedule in (got, want):
        f_order = np.argsort(schedule.voq, kind="stable")
        voq_s = schedule.voq[f_order]
        start_s = schedule.start[f_order]
        same_voq = voq_s[1:] == voq_s[:-1]
        assert bool(np.all(start_s[1:][same_voq] > start_s[:-1][same_voq]))


def stream_schedule(stream_cls, rule, n, batches, windows):
    """Feed a run through a formation stream; concatenate the schedules."""
    stream = stream_cls(n, rule)
    parts = []
    for batch in batches:
        parts.append(
            stream.feed(
                batch.slots,
                batch.inputs,
                batch.outputs,
                batch.end_slot if windows else None,
            )
        )
    if windows:
        parts.append(stream.finish())
    voq = np.concatenate([p.voq for p in parts])
    start = np.concatenate([p.start for p in parts])
    size = np.concatenate([p.size for p in parts])
    fakes = np.concatenate([p.fakes for p in parts])
    slot = np.concatenate([p.slot for p in parts])
    return type(parts[0])(voq, start, size, fakes, slot)


class TestMonolithicParity:
    """PF + FOFF x N x workload: whole-run schedules, drain included."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("kind", ["pf", "pf-thr2", "foff"])
    def test_engine_matches_reference(self, kind, n, workload):
        batch = WORKLOADS[workload](n, 7, SLOTS).draw(SLOTS)
        rule = rules_for(n)[kind]
        got = build_frame_schedule(batch, rule)
        want = reference_frame_schedule(batch, rule)
        assert_schedules_equal(got, want)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_pf_fake_cell_counts(self, n):
        """PF's padding accounting: every non-full frame carries exactly
        n - size fakes, full frames none — on both implementations."""
        batch = WORKLOADS["uniform"](n, 3, SLOTS).draw(SLOTS)
        rule = pf_rule(max(1, n // 2))
        for schedule in (
            build_frame_schedule(batch, rule),
            reference_frame_schedule(batch, rule),
        ):
            np.testing.assert_array_equal(
                schedule.fakes, n - schedule.size
            )

    def test_empty_batch(self):
        gen = BatchTrafficGenerator(
            uniform_matrix(4, 0.0), np.random.default_rng(0)
        )
        empty = gen.draw(50)
        assert len(empty) == 0
        for rule in (pf_rule(2), foff_rule()):
            assert len(build_frame_schedule(empty, rule)) == 0
            assert len(reference_frame_schedule(empty, rule)) == 0

    def test_drain_quiescence_forms_trailing_frames(self):
        """Backlog left at the arrival horizon must drain: FOFF forms
        frames past the last arrival slot until every VOQ is empty, and
        both implementations agree on those trailing cycles."""
        gen = WORKLOADS["incast"](8, 11, 300)
        batch = gen.draw(300)
        rule = foff_rule()
        got = build_frame_schedule(batch, rule)
        want = reference_frame_schedule(batch, rule)
        assert_schedules_equal(got, want)
        # FOFF sweeps every packet into a frame.
        assert int(got.size.sum()) == len(batch)
        # The drain really extends past the arrival horizon.
        assert int(got.slot.max()) >= int(batch.slots.max())


class TestStreamedParity:
    """Windowed formation (the resumable engine) vs both references."""

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("kind", ["pf", "foff"])
    def test_windowed_matches_monolithic(self, kind, n, workload, window):
        rule = rules_for(n)[kind]
        mono = build_frame_schedule(
            WORKLOADS[workload](n, 5, SLOTS).draw(SLOTS), rule
        )
        batches = list(
            WORKLOADS[workload](n, 5, SLOTS).draw_chunks(SLOTS, window)
        )
        streamed = stream_schedule(
            FrameFormationStream, rule, n, batches, windows=True
        )
        assert_schedules_equal(streamed, mono)

    @pytest.mark.parametrize("kind", ["pf", "foff"])
    def test_windowed_matches_scalar_reference_stream(self, kind):
        """The scalar reference stream, fed the same windows, must agree
        window for window (not just on the final union)."""
        n, window = 8, 113
        rule = rules_for(n)[kind]
        batches = list(
            WORKLOADS["mmpp-bursty"](n, 9, SLOTS).draw_chunks(SLOTS, window)
        )
        vec = FrameFormationStream(n, rule)
        ref = ReferenceFormationStream(n, rule)
        for batch in batches:
            got = vec.feed(
                batch.slots, batch.inputs, batch.outputs, batch.end_slot
            )
            want = ref.feed(
                batch.slots, batch.inputs, batch.outputs, batch.end_slot
            )
            assert_schedules_equal(got, want)
        assert_schedules_equal(vec.finish(), ref.finish())

    def test_tiny_windows(self):
        """Single-digit windows maximize carried-state churn."""
        n, rule = 4, foff_rule()
        mono = build_frame_schedule(
            WORKLOADS["uniform"](n, 2, 200).draw(200), rule
        )
        batches = list(
            WORKLOADS["uniform"](n, 2, 200).draw_chunks(200, 7)
        )
        streamed = stream_schedule(
            FrameFormationStream, rule, n, batches, windows=True
        )
        assert_schedules_equal(streamed, mono)


class TestRuleValidation:
    def test_unknown_rule_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown formation rule"):
            build_frame_schedule(
                BatchTrafficGenerator(
                    uniform_matrix(4, 0.5), np.random.default_rng(0)
                ).draw(10),
                FormationRule("warp", 0),
            )

    def test_rule_picker_round_trip(self):
        assert pf_rule(3).make_picker(8) is not None
        assert foff_rule().make_picker(8) is not None
        with pytest.raises(ValueError):
            FormationRule("warp").make_picker(8)
