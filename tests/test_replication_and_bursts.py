"""Tests for replication methodology and the burst-sensitivity extension."""

import pytest

from repro import models
from repro.figures.burst_sensitivity import generate as burst_generate
from repro.sim.replication import replicate
from repro.traffic.matrices import uniform_matrix


class TestReplicate:
    def test_summary_structure(self):
        result = replicate(
            "load-balanced", uniform_matrix(8, 0.6), 1200, replications=4,
        )
        assert result.replications == 4
        assert len(result.values) == 4
        low, high = result.interval
        assert low <= result.mean <= high

    def test_interval_covers_long_run_value(self):
        # The replication CI for baseline delay should cover the estimate
        # from a much longer single run.
        from repro.sim.experiment import run_single

        matrix = uniform_matrix(8, 0.5)
        rep = replicate(
            "load-balanced", matrix, 4000, replications=8, base_seed=10,
        )
        long_run = run_single(
            "load-balanced", matrix, 40_000, seed=99, keep_samples=False
        )
        low, high = rep.interval
        # Generous slack: both are estimates.
        assert low - 3 * rep.half_width <= long_run.mean_delay
        assert long_run.mean_delay <= high + 3 * rep.half_width

    def test_custom_metric(self):
        result = replicate(
            "sprinklers",
            uniform_matrix(8, 0.7),
            1500,
            replications=3,
            metric=lambda r: float(r.late_packets),
            metric_name="late",
        )
        assert result.metric == "late"
        assert result.mean == 0.0  # never reorders, any seed

    def test_switch_params_replicated(self):
        """Regression: replicate() dropped switch_params, so a
        parameterized switch could not be replicated at all."""
        from repro.sim.experiment import run_single

        matrix = uniform_matrix(4, 0.6)
        result = replicate(
            "pf", matrix, 800, replications=3,
            switch_params={"threshold": 1},
        )
        want = run_single(
            "pf", matrix, 800, seed=0, keep_samples=False,
            switch_params={"threshold": 1},
        )
        assert result.values[0] == float(want.mean_delay)
        plain = replicate("pf", matrix, 800, replications=3)
        assert result.values != plain.values

    @pytest.mark.parametrize("switch", models.available(engine="vectorized"))
    def test_vectorized_values_equal_per_seed_runs(self, switch):
        from repro.sim.fast_engine import run_single_fast

        matrix = uniform_matrix(8, 0.7)
        result = replicate(
            switch, matrix, 900, replications=4, base_seed=3,
            engine="vectorized", load_label=0.7,
        )
        want = tuple(
            float(
                run_single_fast(
                    switch, matrix, 900, seed=3 + r, load_label=0.7,
                    keep_samples=False,
                ).mean_delay
            )
            for r in range(4)
        )
        assert result.values == want

    def test_vectorized_scenario_values_equal_per_seed_runs(self):
        from repro.sim.experiment import run_single

        kw = dict(
            scenario="mmpp-bursty", n=8, load=0.8, num_slots=900,
            engine="vectorized",
        )
        result = replicate("sprinklers", replications=3, **kw)
        want = tuple(
            float(
                run_single(
                    "sprinklers", seed=r, keep_samples=False, **kw
                ).mean_delay
            )
            for r in range(3)
        )
        assert result.values == want

    def test_vectorized_switch_params_equal_object_engine(self):
        matrix = uniform_matrix(8, 0.75)
        kw = dict(
            num_slots=900, replications=3, switch_params={"threshold": 2},
        )
        vectorized = replicate("pf", matrix, engine="vectorized", **kw)
        assert vectorized.values == replicate("pf", matrix, **kw).values

    def test_vectorized_pool_equals_sequential(self):
        matrix = uniform_matrix(8, 0.7)
        kw = dict(
            replications=3, engine="vectorized", load_label=0.7,
        )
        pooled = replicate("ufs", matrix, 900, max_workers=2, **kw)
        assert pooled.values == replicate("ufs", matrix, 900, **kw).values

    def test_vectorized_rerun_is_all_cache_hits(self, tmp_path):
        from repro.store import ExperimentStore

        store = str(tmp_path / "store")
        kw = dict(
            replications=3, engine="vectorized", load_label=0.6, store=store,
        )
        first = replicate("sprinklers", uniform_matrix(4, 0.6), 600, **kw)
        before = ExperimentStore(store).stats()
        second = replicate("sprinklers", uniform_matrix(4, 0.6), 600, **kw)
        after = ExperimentStore(store).stats()
        assert second.values == first.values
        assert (before.entries, before.saves, before.hits) == (3, 3, 0)
        assert (after.entries, after.saves, after.hits) == (3, 3, 3)

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            replicate("ufs", uniform_matrix(4, 0.5), 500, replications=1)


class TestBurstSensitivity:
    @pytest.fixture(scope="class")
    def rows(self):
        return burst_generate(
            n=8, load=0.5, bursts=(1.0, 128.0), num_slots=12_000,
            switches=("load-balanced", "sprinklers"), seed=1,
        )

    def test_grid_shape(self, rows):
        assert len(rows) == 4
        assert {row["switch"] for row in rows} == {"baseline-lb", "sprinklers"}

    def test_ordering_survives_bursts(self, rows):
        for row in rows:
            if row["switch"] == "sprinklers":
                assert row["late_packets"] == 0

    def test_aggregation_switches_pay_for_bursts(self, rows):
        # Burst trains inflate the stripe fill-time variance, so the
        # aggregating switch's delay grows with burst length...
        by_key = {(r["switch"], r["mean_burst"]): r["mean_delay"] for r in rows}
        assert (
            by_key[("sprinklers", 128.0)] > 1.05 * by_key[("sprinklers", 1.0)]
        )
        # ...while the non-aggregating baseline, whose input serves at
        # line rate >= the burst peak, barely notices.
        assert (
            by_key[("baseline-lb", 128.0)] < 2.0 * by_key[("baseline-lb", 1.0)]
        )
