import os
import subprocess
import sys
from concurrent.futures import Executor, Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
import knockon
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

    def test_unknown_loss_rule(self):
        with pytest.raises(InvalidParameterError, match="loss_rule must be amplified or capped"):
            sweep(small_config(loss_rule="linear"))


class TestRunReplication:
    """One replication, seen through ``sweep(...).samples``."""

    def test_deterministic(self):
        cfg = small_config(replications=8)
        a = sweep(cfg).samples
        b = sweep(cfg).samples
        assert np.array_equal(a, b)

    def test_matches_sweep_samples(self):
        # A replication's count at one ratio does not depend on the rest of
        # the grid: a one-ratio sweep gives the full sweep's row.
        cfg = small_config(replications=12)
        result = sweep(cfg)
        for idx, ratio in enumerate(cfg.capital_ratio_grid):
            single = sweep(small_config(replications=12, capital_ratio_grid=(ratio,)))
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
        values = sweep(cfg).samples[0].tolist()
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


class TestRecords:
    """sweep takes every ratio's statistics from one sort of the samples;
    they must equal the per-row formulas exactly."""

    @staticmethod
    def assert_per_row(samples):
        grid = tuple(0.01 * (g + 1) for g in range(samples.shape[0]))
        reps = samples.shape[1]
        records = experiment._records(grid, samples)
        assert len(records) == len(grid)
        for rec, ratio, row in zip(records, grid, samples):
            assert rec.capital_ratio == ratio
            assert rec.mean == float(row.mean())
            assert rec.std == (float(row.std(ddof=1)) if reps > 1 else 0.0)
            assert [rec.p90, rec.p95, rec.p99] == [percentile(row, q) for q in (0.90, 0.95, 0.99)]
            assert rec.max_defaults == int(row.max())
            assert rec.knock_on_fraction == float(np.count_nonzero(row >= 2)) / reps

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 5),
        reps=st.one_of(st.sampled_from([1, 2]), st.integers(1, 400)),
        high=st.sampled_from([1, 3, 2000]),
        data=st.data(),
    )
    def test_equal_per_row(self, rows, reps, high, data):
        # A small ``high`` gives many ties.
        samples = data.draw(arrays(np.int64, (rows, reps), elements=st.integers(0, high)))
        self.assert_per_row(samples)

    def test_rows_longer_than_numpy_buffer(self):
        # 10,000 replications exceed numpy's 8,192-element reduction buffer.
        self.assert_per_row(np.random.default_rng(5).integers(0, 2000, size=(3, 10_000)))


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
        result = sweep(cfg)
        assert result.samples.shape == (3, cfg.replications)
        for idx, rec in enumerate(result.records):
            row = result.samples[idx]
            assert rec.mean == row.mean()
            assert rec.std == row.std(ddof=1)
            assert rec.max_defaults == row.max()
            assert rec.knock_on_fraction == np.count_nonzero(row >= 2) / row.size
            assert rec.p90 <= rec.p95 <= rec.p99 <= rec.max_defaults
            assert rec.mean_plus_std == rec.mean + rec.std

    def test_worker_count_does_not_change_results(self):
        cfg = small_config(replications=30)
        serial = sweep(cfg, workers=1)
        threaded = sweep(cfg, workers=2)
        assert np.array_equal(serial.samples, threaded.samples)
        assert serial.to_csv() == threaded.to_csv()

    def test_abort_reports_lowest_failing_stream(self):
        cfg = small_config(density=0.0, replications=5)
        with pytest.raises(ReplicationError) as err:
            sweep(cfg)
        assert err.value.stream_index == 0

    def test_csv_headers(self):
        cfg = small_config(replications=6)
        result = sweep(cfg)
        assert result.to_csv().splitlines()[0] == SWEEP_CSV_HEADER
        raw = result.raw_samples_csv().splitlines()
        assert raw[0] == RAW_CSV_HEADER
        assert len(raw) == 1 + 3 * 6

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

    def test_single_worker_streams_one_replication_at_a_time(self, monkeypatch):
        # Every trace event of stream k reaches the sink before stream k + 1
        # draws its topology, so one replication's events are held at a time.
        log = []
        draw = experiment.gen_erdos_renyi

        def logged_draw(n, density, gen):
            log.append(("draw", None))
            return draw(n, density, gen)

        monkeypatch.setattr(experiment, "gen_erdos_renyi", logged_draw)
        cfg = small_config(replications=8, capital_ratio_grid=(0.02,))
        sweep(cfg, trace_sink=lambda event: log.append(("event", event["stream_index"])))
        draws = [i for i, (kind, _) in enumerate(log) if kind == "draw"]
        assert len(draws) == 8
        for i, (kind, stream) in enumerate(log):
            if kind == "event":
                assert draws[stream] < i, f"event of stream {stream} before its draw"
                if stream + 1 < len(draws):
                    assert i < draws[stream + 1], f"event of stream {stream} after the next draw"
        assert len({stream for kind, stream in log if kind == "event"}) > 1

    def test_single_worker_starts_no_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("workers=1 must not start a process pool")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        events = []
        result = sweep(small_config(replications=10), trace_sink=events.append)
        assert result.samples.shape == (3, 10)
        assert events

    def test_pool_has_at_most_one_process_per_block(self, monkeypatch):
        sizes = []

        class InlinePool(Executor):
            """Records its size and runs each job at submit, in this process.
            ``Executor.map`` submits one job per replication."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        cfg = small_config(replications=10)
        serial = sweep(cfg)
        # Ten replications make ten one-replication chunks at 64 or 3 workers.
        for workers in (64, 3):
            pooled = sweep(cfg, workers=workers)
            assert np.array_equal(pooled.samples, serial.samples)
            assert pooled.to_csv() == serial.to_csv()
        assert sizes == [10, 3]
        # A single chunk runs in this process.
        sweep(small_config(replications=1), workers=64)
        assert sizes == [10, 3]

    def test_pool_holds_a_bounded_window_of_chunks(self, monkeypatch):
        # A slow trace sink must not let every chunk finish and wait here:
        # at most two chunks per process are submitted and not yet taken.
        submitted = []

        class InlinePool(Executor):
            def __init__(self, max_workers):
                assert max_workers == 2

            def submit(self, fn, replicate, start, stop):
                submitted.append((start, stop))
                future = Future()
                future.set_result(fn(replicate, start, stop))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        cfg = small_config(replications=40, capital_ratio_grid=(0.02,))
        serial = []
        sweep(cfg, trace_sink=serial.append)
        pooled = []

        def sink(event):
            taken = event["stream_index"] // experiment.TRACE_CHUNK + 1
            assert len(submitted) <= taken + 2 * 2
            pooled.append(event)

        sweep(cfg, workers=2, trace_sink=sink)
        assert pooled == serial
        assert {stop - start for start, stop in submitted} == {experiment.TRACE_CHUNK}
        assert [start for start, _ in submitted] == list(range(0, 40, experiment.TRACE_CHUNK))

    def test_import_loads_no_process_pool(self):
        # The pool module pulls in multiprocessing; only workers > 1 needs it.
        src = Path(knockon.__file__).resolve().parents[1]
        code = (
            "import sys, knockon; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_paired_counts_non_increasing(self):
        cfg = small_config(replications=60)
        result = sweep(cfg)
        diffs = np.diff(result.samples, axis=0)
        assert np.all(diffs <= 0)
