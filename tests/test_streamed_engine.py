"""Streamed-replay equivalence: windowed engine vs monolithic.

The windowed replay (``run_single_fast(..., window_slots=W)``) claims to
reproduce the monolithic vectorized replay *bit-identically* — same
departure slots, same extras, same retained delay samples in the same
observation order — while materializing only O(W) arrival slots at a
time.  These tests pin that claim across every streaming switch, switch
sizes, workloads, and window sizes (including windows that do not divide
the run and windows larger than the run).

The monolithic vectorized path is itself pinned against the object
engine in ``tests/test_fast_engine.py``, so equality here chains all the
way back to the per-packet oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import models
from repro.sim.experiment import run_single
from repro.sim.fast_engine import run_single_fast
from repro.sim.kernels.base import Departures
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.matrices import diagonal_matrix, uniform_matrix

STREAMING_SWITCHES = list(
    models.available(engine="vectorized", capability="streaming")
)

#: (name, kwargs-for-run_single) — two §6 matrix families plus two
#: registered scenarios (one bursty: the OnOff process carries Markov
#: state across windows; one drifting hotspot).
WORKLOADS = {
    "uniform": dict(load_label=0.85),
    "diagonal": dict(load_label=0.6),
    "mmpp-bursty": dict(scenario="mmpp-bursty", load=0.8),
    "incast": dict(scenario="incast", load=0.75),
}
SLOTS = 1200
WINDOWS = [97, 400]


def _run(switch, workload, n, seed, window_slots=None):
    kw = WORKLOADS[workload]
    if "scenario" in kw:
        return run_single(
            switch,
            scenario=kw["scenario"],
            n=n,
            load=kw["load"],
            num_slots=SLOTS,
            seed=seed,
            engine="vectorized",
            window_slots=window_slots,
        )
    matrix = (
        uniform_matrix(n, kw["load_label"])
        if workload == "uniform"
        else diagonal_matrix(n, kw["load_label"])
    )
    return run_single_fast(
        switch,
        matrix,
        SLOTS,
        seed=seed,
        load_label=kw["load_label"],
        window_slots=window_slots,
    )


_BASELINES = {}


def _baseline(switch, workload, n, seed):
    key = (switch, workload, n, seed)
    if key not in _BASELINES:
        _BASELINES[key] = _run(switch, workload, n, seed)
    return _BASELINES[key]


def assert_identical(a, b):
    """Every reported quantity — including sample order — must match."""
    assert a.switch_name == b.switch_name
    assert a.n == b.n
    assert a.slots == b.slots
    assert a.warmup == b.warmup
    assert a.injected == b.injected
    assert a.departed == b.departed
    assert a.measured_packets == b.measured_packets
    assert a.late_packets == b.late_packets
    assert a.max_displacement == b.max_displacement
    for field in ("mean_delay", "p50_delay", "p99_delay"):
        x, y = getattr(a, field), getattr(b, field)
        assert x == y or (math.isnan(x) and math.isnan(y)), field
    assert a.max_delay == b.max_delay
    assert a.extras == b.extras
    # Retained delay samples in the oracle's observation order: this is
    # what MSER truncation and the batch-means CI consume, so order (not
    # just the multiset) must survive the windowing.
    assert a._delay_samples == b._delay_samples


class TestWindowedParity:
    """The acceptance grid: every streaming switch x N x workload x W."""

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("switch", STREAMING_SWITCHES)
    def test_streamed_equals_monolithic(self, switch, n, workload, window):
        streamed = _run(switch, workload, n, seed=11, window_slots=window)
        assert_identical(_baseline(switch, workload, n, seed=11), streamed)

    def test_every_vectorized_switch_streams(self):
        """The ISSUE-4 bar: the whole vectorized roster gains a
        resumable form."""
        assert set(STREAMING_SWITCHES) == set(
            models.available(engine="vectorized")
        )

    def test_tiny_windows(self):
        """Single-digit windows exercise the carried state hardest."""
        for switch in ("sprinklers", "foff"):
            streamed = _run(switch, "uniform", 4, seed=3, window_slots=7)
            assert_identical(_baseline(switch, "uniform", 4, seed=3), streamed)

    def test_window_larger_than_run(self):
        streamed = _run("sprinklers", "uniform", 8, seed=5, window_slots=10 * SLOTS)
        assert_identical(_baseline("sprinklers", "uniform", 8, seed=5), streamed)

    def test_pf_threshold_streams(self):
        matrix = uniform_matrix(8, 0.8)
        mono = run_single_fast(
            "pf", matrix, SLOTS, seed=9, switch_params={"threshold": 2}
        )
        streamed = run_single_fast(
            "pf", matrix, SLOTS, seed=9, switch_params={"threshold": 2},
            window_slots=150,
        )
        assert_identical(mono, streamed)

    def test_streaming_requires_stream_kernel(self):
        model = models.get("sprinklers")
        stripped = models.SwitchModel(
            name="mono-only",
            builder=model.builder,
            kernel=model.kernel,
            capabilities={models.Capability.EXACT_REPLAY},
        )
        assert not stripped.capabilities >= {models.Capability.STREAMING}
        with pytest.raises(ValueError, match="streaming"):
            models.SwitchModel(
                name="bad",
                builder=model.builder,
                kernel=model.kernel,
                capabilities={models.Capability.STREAMING},
            )


class TestDrawChunks:
    """The traffic layer's windows must be RNG-identical to draw()."""

    @pytest.mark.parametrize("window", [1, 7, 100, 4096, 9999])
    def test_concatenated_windows_equal_monolithic(self, window):
        matrix = uniform_matrix(6, 0.9)
        mono = BatchTrafficGenerator(
            matrix, np.random.default_rng(42)
        ).draw(5000)
        gen = BatchTrafficGenerator(matrix, np.random.default_rng(42))
        parts = list(gen.draw_chunks(5000, window))
        assert sum(len(p) for p in parts) == len(mono)
        assert parts[0].start_slot == 0
        assert parts[-1].end_slot == 5000
        for field in ("slots", "inputs", "outputs", "seqs"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, field) for p in parts]),
                getattr(mono, field),
            )
        assert gen.generated == len(mono)

    def test_windows_partition_by_slot(self):
        matrix = uniform_matrix(4, 0.8)
        gen = BatchTrafficGenerator(matrix, np.random.default_rng(0))
        for p in gen.draw_chunks(3000, 250):
            assert p.num_slots == 250
            assert np.all(p.slots >= p.start_slot)
            assert np.all(p.slots < p.end_slot)

    def test_bad_window_rejected(self):
        gen = BatchTrafficGenerator(
            uniform_matrix(4, 0.5), np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            list(gen.draw_chunks(100, 0))


DEPARTURE_FIELDS = ("voq", "seq", "arrival", "departure")


def _concat(parts, fields=DEPARTURE_FIELDS):
    """Concatenate ``Departures`` records field-wise, in emission order."""
    return tuple(
        np.concatenate([getattr(p, f) for p in parts]) for f in fields
    )


def _stream_departures(streamer, windows):
    """Feed ``windows`` through a streamer; the concatenated departure
    fields plus the extras."""
    parts = [streamer.feed(w) for w in windows]
    final, extras = streamer.finish()
    parts.append(final)
    return _concat(parts), extras


class TestSingleSeedStream:
    """The stream-kernel contract: ``stream(matrix, seed, total_slots)``
    gives one seed's streamer; ``feed`` returns ``Departures`` and
    ``finish`` returns ``(Departures, extras)``."""

    @pytest.mark.parametrize("switch", STREAMING_SWITCHES)
    def test_feed_and_finish_contract(self, switch):
        matrix = diagonal_matrix(8, 0.7)
        streamer = models.get(switch).stream_kernel(matrix, 5, SLOTS)
        windows = list(
            BatchTrafficGenerator(
                matrix, np.random.default_rng(5)
            ).draw_chunks(SLOTS, 113)
        )
        parts = []
        for window in windows:
            dep = streamer.feed(window)
            assert isinstance(dep, Departures)
            assert len(dep.voq) == len(dep.departure) == len(dep.arrival)
            if len(dep.departure):
                assert dep.departure.max() < window.end_slot
                assert np.all(dep.departure > dep.arrival)
            parts.append(dep)
        result = streamer.finish()
        assert isinstance(result, tuple) and len(result) == 2
        final, extras = result
        assert isinstance(final, Departures)
        assert extras is None or isinstance(extras, dict)
        parts.append(final)
        # No packet is finalized twice (frame switches may strand the
        # packets of frames that never fill, so not every packet leaves).
        voq, seq = _concat(parts, ("voq", "seq"))
        keys = voq * (seq.max(initial=0) + 1) + seq
        assert len(np.unique(keys)) == len(keys)
        assert len(keys) <= sum(len(w) for w in windows)

    @pytest.mark.parametrize("switch", STREAMING_SWITCHES)
    def test_interleaved_streamers_are_independent(self, switch):
        """Each streamer owns its run state (generation numbering
        included): two seeds fed in lockstep match two solo runs."""
        matrix = uniform_matrix(8, 0.8)
        kernel = models.get(switch).stream_kernel

        def windows(seed):
            return list(
                BatchTrafficGenerator(
                    matrix, np.random.default_rng(seed)
                ).draw_chunks(SLOTS, 97)
            )

        solo = {
            seed: _stream_departures(
                kernel(matrix, seed, SLOTS), windows(seed)
            )
            for seed in (1, 2)
        }
        streamers = {seed: kernel(matrix, seed, SLOTS) for seed in (1, 2)}
        parts = {seed: [] for seed in (1, 2)}
        for w1, w2 in zip(windows(1), windows(2)):
            parts[1].append(streamers[1].feed(w1))
            parts[2].append(streamers[2].feed(w2))
        for seed in (1, 2):
            final, extras = streamers[seed].finish()
            parts[seed].append(final)
            want, want_extras = solo[seed]
            for a, b in zip(_concat(parts[seed]), want):
                np.testing.assert_array_equal(a, b)
            assert extras == want_extras


class TestRunSingleIntegration:
    def test_window_slots_does_not_change_store_key(self, tmp_path):
        """Windowed and monolithic runs are the same experiment: one
        cache entry, hit by either."""
        store = str(tmp_path / "store")
        matrix = uniform_matrix(4, 0.7)
        a = run_single(
            "sprinklers", matrix, 800, seed=1, engine="vectorized",
            load_label=0.7, store=store,
        )
        b = run_single(
            "sprinklers", matrix, 800, seed=1, engine="vectorized",
            load_label=0.7, store=store, window_slots=100,
        )
        assert a.to_dict() == b.to_dict()
        from repro.store import ExperimentStore

        assert ExperimentStore(store).stats().entries == 1

    def test_object_engine_ignores_window_slots(self):
        matrix = uniform_matrix(4, 0.7)
        a = run_single(
            "cms", matrix, 400, seed=1, engine="vectorized", load_label=0.7
        )
        b = run_single(
            "cms", matrix, 400, seed=1, engine="vectorized", load_label=0.7,
            window_slots=50,
        )
        assert a.to_dict() == b.to_dict()

    def test_explicit_streaming_raises_without_kernel(self):
        """run_single_fast is the strict entry point: asking a
        non-streaming model to stream is an error, not a fallback."""
        model = models.get("sprinklers")
        try:
            models.register(
                models.SwitchModel(
                    name="mono-only-test",
                    builder=model.builder,
                    kernel=model.kernel,
                    capabilities={models.Capability.EXACT_REPLAY},
                )
            )
            with pytest.raises(ValueError, match="streaming"):
                run_single_fast(
                    "mono-only-test", uniform_matrix(4, 0.5), 400,
                    window_slots=100,
                )
        finally:
            from repro.models import registry as registry_module

            registry_module._MODELS.pop("mono-only-test", None)

    def test_delay_ci_identical_after_windowing(self):
        """The order-sensitive downstream statistic agrees end to end."""
        matrix = uniform_matrix(8, 0.85)
        mono = run_single_fast("foff", matrix, 4000, seed=2)
        streamed = run_single_fast(
            "foff", matrix, 4000, seed=2, window_slots=333
        )
        assert mono.delay_ci().mean == streamed.delay_ci().mean
        assert mono.delay_ci().half_width == streamed.delay_ci().half_width
