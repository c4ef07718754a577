from concurrent.futures import Future

import numpy as np
import pytest

from knockon import (
    InvalidParameterError,
    LossRule,
    ReplicationError,
    RngStream,
    ScenarioConfig,
    SurchargePolicy,
    Topology,
    percentile,
    sweep,
    write_edge_list,
)
from knockon import experiment
from knockon.experiment import RAW_CSV_HEADER, SWEEP_CSV_HEADER, _replicate_grid
from reference_impl import ref_replicate_grid


def small_config(**overrides):
    base = dict(
        n_banks=60,
        topology_kind="homogeneous",
        density=0.06,
        loan_fraction=0.1,
        capital_ratio_grid=(0.02, 0.05, 0.1),
        replications=40,
        master_seed=321,
        loss_rule=LossRule.CAPPED,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestPercentile:
    def test_nearest_rank_examples(self):
        assert percentile([1, 1, 1, 2, 3, 5, 9, 9, 10, 50], 0.9) == 10
        assert percentile([7], 0.01) == 7
        assert percentile([7], 1.0) == 7
        assert percentile(list(range(1, 101)), 0.99) == 99

    def test_unsorted_input_allowed(self):
        assert percentile([5, 1, 9, 3], 0.5) == 3

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            percentile([], 0.9)

    def test_bad_quantile_rejected(self):
        with pytest.raises(InvalidParameterError):
            percentile([1, 2], 0.0)
        with pytest.raises(InvalidParameterError):
            percentile([1, 2], 1.2)

    def test_matches_counting_definition(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            data = gen.integers(0, 30, size=int(gen.integers(1, 60)))
            q = float(gen.uniform(0.01, 1.0))
            value = percentile(data, q)
            # the smallest sample with at least ceil(q n) samples at or
            # below it
            at_or_below = np.count_nonzero(np.sort(data) <= value)
            import math

            need = max(1, math.ceil(q * data.size - 1e-12))
            assert at_or_below >= need
            smaller = data[data < value]
            assert smaller.size < need


class TestConfigValidation:
    def test_valid_passes(self):
        small_config().validate()

    def test_bad_loan_fraction(self):
        with pytest.raises(InvalidParameterError, match="Q"):
            small_config(loan_fraction=0.6).validate()

    def test_grid_must_increase(self):
        with pytest.raises(InvalidParameterError, match="increasing"):
            small_config(capital_ratio_grid=(0.1, 0.05)).validate()

    def test_grid_bounds(self):
        with pytest.raises(InvalidParameterError, match="r_grid"):
            small_config(capital_ratio_grid=(0.0, 0.1)).validate()

    def test_replications_positive(self):
        with pytest.raises(InvalidParameterError, match="replications"):
            small_config(replications=0).validate()

    def test_external_needs_path(self):
        with pytest.raises(InvalidParameterError, match="topology_path"):
            small_config(topology_kind="external").validate()

    def test_surcharge_bounds(self):
        with pytest.raises(InvalidParameterError, match="R_s"):
            small_config(
                capital_ratio_grid=(0.5,), surcharge=SurchargePolicy(0.6, 0.1)
            ).validate()
        with pytest.raises(InvalidParameterError, match="biggest_fraction"):
            small_config(surcharge=SurchargePolicy(0.01, 1.2)).validate()

    def test_unknown_kind(self):
        with pytest.raises(InvalidParameterError, match="topology"):
            small_config(topology_kind="ring").validate()


class TestRunReplication:
    """One replication, seen through ``sweep(..., keep_samples=True)``."""

    def test_deterministic(self):
        cfg = small_config(replications=8)
        a = sweep(cfg, keep_samples=True).samples
        b = sweep(cfg, keep_samples=True).samples
        assert np.array_equal(a, b)

    def test_matches_sweep_samples(self):
        # A replication's count at one ratio does not depend on the rest of
        # the grid: a one-ratio sweep gives the full sweep's row.
        cfg = small_config(replications=12)
        result = sweep(cfg, keep_samples=True)
        for idx, ratio in enumerate(cfg.capital_ratio_grid):
            single = sweep(
                small_config(replications=12, capital_ratio_grid=(ratio,)), keep_samples=True
            )
            assert np.array_equal(single.samples[0], result.samples[idx])

    def test_two_bank_external_forced_edge(self, tmp_path):
        # single-edge market: striking the borrower fells both banks
        path = tmp_path / "pair.edges"
        write_edge_list(Topology(2, np.array([[0, 1]]), "external"), path)
        cfg = small_config(
            n_banks=2,
            topology_kind="external",
            topology_path=str(path),
            capital_ratio_grid=(0.05,),
            replications=8,
        )
        values = sweep(cfg, keep_samples=True).samples[0].tolist()
        assert set(values) <= {1, 2}
        # replications that strike bank 1 (the borrower) default both banks
        assert 2 in values

    def test_error_carries_stream_index(self, monkeypatch):
        # One worker runs the streams in order; only stream 3 has no edges.
        draw = experiment.gen_erdos_renyi
        streams = iter(range(8))

        def edgeless_at_3(n, density, gen):
            top = draw(n, density, gen)
            return Topology(n, top.edges[:0], top.kind) if next(streams) == 3 else top

        monkeypatch.setattr(experiment, "gen_erdos_renyi", edgeless_at_3)
        with pytest.raises(ReplicationError) as err:
            sweep(small_config(replications=8))
        assert err.value.stream_index == 3
        assert "interbank" in str(err.value)


def result_bits(result):
    """Everything a cascade result reports, floats as their exact bits."""
    return (
        result.initial_bank, result.n_defaults, result.rounds,
        result.total_loss_transmitted.hex(),
        [(e.bank, e.round, e.distress.hex(), e.transmitted.hex()) for e in result.defaults],
    )


class TestBatchedGridMatchesPerRatio:
    """One batched cascade per replication against the per-ratio sheets,
    shocks and cascades it replaced."""

    GRID = (0.01, 0.02, 0.04, 0.07, 0.1)

    @staticmethod
    def assert_same(cfg, counts, results, gen):
        want = ref_replicate_grid(cfg, gen)
        assert counts.tolist() == [r.n_defaults for r in want]
        assert [result_bits(r) for r in results] == [result_bits(r) for r in want]

    @pytest.mark.parametrize("rule", [LossRule.AMPLIFIED, LossRule.CAPPED])
    @pytest.mark.parametrize("surcharge", [None, SurchargePolicy(0.02, 0.2)])
    @pytest.mark.parametrize("kind", ["homogeneous", "heterogeneous"])
    def test_same_counts_and_events(self, rule, surcharge, kind):
        cfg = small_config(
            topology_kind=kind, density=0.08, capital_ratio_grid=self.GRID,
            loss_rule=rule, surcharge=surcharge,
        )
        cascades = 0
        for k in range(12):
            counts, _, _, results = _replicate_grid(cfg, None, k, collect_results=True)
            self.assert_same(cfg, counts, results, RngStream(cfg.master_seed, k).generator())
            cascades += int(np.count_nonzero(counts > 1))
        assert cascades > 0, "no knock-on default was compared"

    def test_already_used_generator(self, monkeypatch):
        def used_generator():
            gen = RngStream(5, 0).generator()
            gen.integers(0, 10)  # leaves a buffered 32-bit half-word behind
            return gen

        class UsedStream:
            def __init__(self, *args):
                pass

            def generator(self):
                return used_generator()

        monkeypatch.setattr("knockon.experiment.RngStream", UsedStream)
        cfg = small_config(
            density=0.1, capital_ratio_grid=self.GRID, loss_rule=LossRule.AMPLIFIED,
            surcharge=SurchargePolicy(0.02, 0.2),
        )
        counts, _, _, results = _replicate_grid(cfg, None, 0, collect_results=True)
        self.assert_same(cfg, counts, results, used_generator())

    def test_shocked_bank_carries_its_surcharge(self):
        # every bank is surcharged, so every shock includes an increment
        cfg = small_config(capital_ratio_grid=self.GRID, surcharge=SurchargePolicy(0.03, 1.0))
        for k in range(4):
            counts, _, _, results = _replicate_grid(cfg, None, k, collect_results=True)
            self.assert_same(cfg, counts, results, RngStream(cfg.master_seed, k).generator())


class TestSweep:
    def test_degenerate_single_cell(self):
        cfg = small_config(capital_ratio_grid=(0.05,), replications=1)
        result = sweep(cfg)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.std == 0.0
        assert rec.mean == rec.max_defaults
        assert rec.p90 == rec.p95 == rec.p99 == rec.max_defaults

    def test_statistics_recomputable_from_samples(self):
        cfg = small_config()
        result = sweep(cfg, keep_samples=True)
        assert result.samples.shape == (3, cfg.replications)
        for idx, rec in enumerate(result.records):
            row = result.samples[idx]
            assert rec.mean == pytest.approx(row.mean())
            assert rec.std == pytest.approx(row.std(ddof=1))
            assert rec.max_defaults == row.max()
            assert rec.knock_on_fraction == pytest.approx(
                np.count_nonzero(row >= 2) / row.size
            )
            assert rec.p90 <= rec.p95 <= rec.p99 <= rec.max_defaults
            assert rec.mean_plus_std == pytest.approx(rec.mean + rec.std)

    def test_worker_count_does_not_change_results(self):
        cfg = small_config(replications=30)
        serial = sweep(cfg, workers=1, keep_samples=True)
        threaded = sweep(cfg, workers=2, keep_samples=True)
        assert np.array_equal(serial.samples, threaded.samples)
        assert serial.to_csv() == threaded.to_csv()

    def test_abort_reports_lowest_failing_stream(self):
        cfg = small_config(density=0.0, replications=5)
        with pytest.raises(ReplicationError) as err:
            sweep(cfg)
        assert err.value.stream_index == 0

    def test_csv_headers(self):
        cfg = small_config(replications=6)
        result = sweep(cfg, keep_samples=True)
        assert result.to_csv().splitlines()[0] == SWEEP_CSV_HEADER
        raw = result.raw_samples_csv().splitlines()
        assert raw[0] == RAW_CSV_HEADER
        assert len(raw) == 1 + 3 * 6

    def test_raw_csv_requires_samples(self):
        result = sweep(small_config(replications=2))
        with pytest.raises(InvalidParameterError):
            result.raw_samples_csv()

    def test_external_topology_reused(self, tmp_path):
        path = tmp_path / "net.edges"
        from knockon import RngStream, gen_erdos_renyi

        fixed = gen_erdos_renyi(30, 0.2, RngStream(2, 0))
        write_edge_list(fixed, path)
        cfg = small_config(
            n_banks=30,
            topology_kind="external",
            topology_path=str(path),
            replications=10,
        )
        result = sweep(cfg)
        # the fixed topology is reused by every replication
        assert result.realized_density_mean == pytest.approx(
            fixed.n_edges / (30 * 29), rel=1e-12
        )

    def test_trace_sink_receives_default_events(self):
        events = []
        cfg = small_config(replications=5, capital_ratio_grid=(0.02,))
        sweep(cfg, trace_sink=events.append)
        assert events, "expected at least one default at a low capital ratio"
        sample = events[0]
        assert {"stream_index", "R", "round", "bank", "distress", "transmitted"} == set(
            sample
        )

    def test_trace_events_identical_across_worker_counts(self):
        cfg = small_config(replications=30)
        traces = {1: [], 3: []}
        for workers, events in traces.items():
            sweep(cfg, workers=workers, trace_sink=events.append)
        assert traces[1]
        assert traces[1] == traces[3]
        streams = [event["stream_index"] for event in traces[1]]
        assert streams == sorted(streams)

    def test_single_worker_starts_no_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must not start a process pool")

        monkeypatch.setattr("knockon.experiment.ProcessPoolExecutor", no_pool)
        events = []
        result = sweep(small_config(replications=10), keep_samples=True, trace_sink=events.append)
        assert result.samples.shape == (3, 10)
        assert events

    def test_pool_has_at_most_one_process_per_block(self, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its size and runs each job at submit, in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr("knockon.experiment.ProcessPoolExecutor", InlinePool)
        cfg = small_config(replications=10)
        serial = sweep(cfg, keep_samples=True)
        # Ten replications make ten one-replication blocks at 64 or 3 workers.
        for workers in (64, 3):
            pooled = sweep(cfg, workers=workers, keep_samples=True)
            assert np.array_equal(pooled.samples, serial.samples)
            assert pooled.to_csv() == serial.to_csv()
        assert sizes == [10, 3]
        # A single block runs in this process.
        sweep(small_config(replications=1), workers=64)
        assert sizes == [10, 3]

    def test_paired_counts_non_increasing(self):
        cfg = small_config(replications=60)
        result = sweep(cfg, keep_samples=True)
        diffs = np.diff(result.samples, axis=0)
        assert np.all(diffs <= 0)
