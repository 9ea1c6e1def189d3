"""Tests for the experiment layer (sim/experiment.py)."""

import json

import numpy as np
import pytest

from repro import models
from repro.sim import experiment
from repro.sim.experiment import (
    PAPER_SWITCHES,
    TRAFFIC_PATTERNS,
    delay_vs_load_sweep,
    run_single,
    single_run_params,
)
from repro.sim.fast_engine import run_single_fast
from repro.store import ExperimentStore, cache_key
from repro.traffic.batch import BatchTrafficGenerator
from repro.traffic.matrices import uniform_matrix


class TestRegistry:
    def test_paper_switches_all_registered(self):
        for name in PAPER_SWITCHES:
            assert name in models.available()

    def test_run_single_unknown_switch_rejected(self):
        with pytest.raises(ValueError, match="unknown switch"):
            run_single("bogus", uniform_matrix(8, 0.5), 100)

    def test_patterns(self):
        assert set(TRAFFIC_PATTERNS) == {"uniform", "diagonal"}


class TestRunSingle:
    def test_produces_result(self):
        result = run_single(
            "sprinklers", uniform_matrix(8, 0.6), 1500, seed=1, load_label=0.6
        )
        assert result.switch_name == "sprinklers"
        assert result.load == 0.6
        assert result.is_ordered

    def test_deterministic(self):
        a = run_single("ufs", uniform_matrix(8, 0.5), 1200, seed=4)
        b = run_single("ufs", uniform_matrix(8, 0.5), 1200, seed=4)
        assert a.mean_delay == b.mean_delay

    def test_seeds_differ(self):
        a = run_single("load-balanced", uniform_matrix(8, 0.5), 1500, seed=1)
        b = run_single("load-balanced", uniform_matrix(8, 0.5), 1500, seed=2)
        assert a.mean_delay != b.mean_delay


class TestSweep:
    def test_grid_shape(self):
        results = delay_vs_load_sweep(
            "uniform",
            n=8,
            loads=(0.3, 0.6),
            num_slots=800,
            switches=("load-balanced", "sprinklers"),
        )
        assert len(results) == 4
        # Registry keys build the switches; results carry the switches'
        # own names ("load-balanced" builds the "baseline-lb" switch).
        assert {r.switch_name for r in results} == {"baseline-lb", "sprinklers"}
        assert {r.load for r in results} == {0.3, 0.6}

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            delay_vs_load_sweep("bogus", n=8)

    def test_default_switches_are_papers(self):
        results = delay_vs_load_sweep(
            "uniform", n=4, loads=(0.5,), num_slots=400
        )
        assert [r.switch_name for r in results] == [
            "baseline-lb", "ufs", "foff", "pf", "sprinklers",
        ]


def _dumped(result):
    return json.dumps(result.to_dict(include_samples=True), sort_keys=True)


@pytest.fixture()
def draws(monkeypatch):
    """Counts every ``BatchTrafficGenerator.draw`` call."""
    calls = []
    real = BatchTrafficGenerator.draw

    def counted(self, num_slots):
        calls.append(num_slots)
        return real(self, num_slots)

    monkeypatch.setattr(BatchTrafficGenerator, "draw", counted)
    return calls


class TestSharedCellArrivals:
    """A vectorized sweep draws each (load, seed) cell's arrivals once,
    lazily, and replays that batch for every switch of the cell."""

    SWITCHES = ("sprinklers", "pf", "cms", "ufs")
    LOADS = (0.4, 0.9)

    @pytest.mark.parametrize("pattern", ["uniform", "diagonal", "mmpp-bursty"])
    def test_sweep_equals_per_switch_runs(self, pattern):
        n, slots, seed = 8, 1500, 3
        swept = delay_vs_load_sweep(
            pattern, n=n, loads=self.LOADS, num_slots=slots,
            switches=self.SWITCHES, seed=seed, keep_samples=True,
            engine="vectorized",
        )
        alone = []
        for load in self.LOADS:
            for name in self.SWITCHES:
                if pattern in TRAFFIC_PATTERNS:
                    workload = dict(matrix=TRAFFIC_PATTERNS[pattern](n, load))
                else:
                    workload = dict(scenario=pattern, n=n, load=load)
                alone.append(run_single(
                    name, num_slots=slots, seed=seed, load_label=load,
                    engine="vectorized", **workload,
                ))
        assert [_dumped(r) for r in swept] == [_dumped(r) for r in alone]

    def test_one_draw_per_cell_and_none_when_cached(self, tmp_path, draws):
        kwargs = dict(
            n=8, loads=self.LOADS, num_slots=600, switches=self.SWITCHES,
            engine="vectorized", store=ExperimentStore(tmp_path),
        )
        first = delay_vs_load_sweep("uniform", **kwargs)
        assert len(draws) == len(self.LOADS)  # cms draws no batch
        draws.clear()
        second = delay_vs_load_sweep("uniform", **kwargs)
        assert draws == []
        assert [_dumped(r) for r in first] == [_dumped(r) for r in second]

        # Dropping one cell's entry recomputes exactly that cell, from
        # exactly one draw.
        params = single_run_params(
            "pf", uniform_matrix(8, 0.9), 600, 0, 0.9, 0.1, False,
            "vectorized", None,
        )
        assert kwargs["store"].backend.delete(cache_key(params)) > 0
        draws.clear()
        third = delay_vs_load_sweep("uniform", **kwargs)
        assert draws == [600]
        assert [_dumped(r) for r in third] == [_dumped(r) for r in first]

    def test_windowed_sweep_draws_per_switch(self, draws):
        delay_vs_load_sweep(
            "uniform", n=8, loads=(0.5,), num_slots=600,
            switches=("sprinklers", "pf"), engine="vectorized",
            window_slots=600,
        )
        assert draws == [600, 600]

    def test_shared_batch_is_read_only(self, monkeypatch):
        seen = []
        real = experiment.run_single_fast

        def spy(*args, **kwargs):
            seen.append(kwargs["batch_traffic"])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiment, "run_single_fast", spy)
        delay_vs_load_sweep(
            "uniform", n=8, loads=(0.5,), num_slots=600,
            switches=("sprinklers", "ufs"), engine="vectorized",
        )
        first, second = seen
        assert first is second
        for array in (first.slots, first.inputs, first.outputs, first.seqs):
            assert not array.flags.writeable


class TestDrawnBatchValidation:
    """``run_single_fast`` checks a handed-in, already drawn batch."""

    def _batch(self, n=8, slots=500):
        matrix = uniform_matrix(n, 0.5)
        return BatchTrafficGenerator(
            matrix, np.random.default_rng(0)
        ).draw(slots)

    def test_equals_drawing_inside(self):
        matrix = uniform_matrix(8, 0.5)
        batch = self._batch()
        handed = run_single_fast("pf", matrix, 500, batch_traffic=batch)
        drawn = run_single_fast(
            "pf", matrix, 500,
            batch_traffic=BatchTrafficGenerator(
                matrix, np.random.default_rng(0)
            ),
        )
        assert _dumped(handed) == _dumped(drawn)

    def test_rejects_wrong_slot_range(self):
        with pytest.raises(ValueError, match=r"cover slots \[0, 600\)"):
            run_single_fast(
                "pf", uniform_matrix(8, 0.5), 600, batch_traffic=self._batch()
            )
        _, window = BatchTrafficGenerator(
            uniform_matrix(8, 0.5), np.random.default_rng(0)
        ).draw_chunks(1000, 500)
        with pytest.raises(ValueError, match=r"got \[500, 1000\)"):
            run_single_fast(
                "pf", uniform_matrix(8, 0.5), 500, batch_traffic=window
            )

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="does not match matrix"):
            run_single_fast(
                "pf", uniform_matrix(4, 0.5), 500, batch_traffic=self._batch()
            )

    def test_rejects_windowed_replay(self):
        with pytest.raises(ValueError, match="drop window_slots"):
            run_single_fast(
                "pf", uniform_matrix(8, 0.5), 500,
                batch_traffic=self._batch(), window_slots=100,
            )
