"""Monte Carlo sweeps of the default count over the capital-ratio grid.

Each replication owns a deterministic random substream derived from
(master_seed, stream_index). Within a replication the draw order is fixed:
the topology first, then the initially shocked bank. Both are reused across
every capital ratio in the grid (paired sampling), so per-replication
default-count traces can be compared across ratios and curves inherit the
cascade's monotonicity. Replications are independent, results are assembled
in stream-index order, and sweep output is bit-identical for any worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable

import numpy as np

from .balance import (
    build_balance_sheets, check_market, check_surcharge, compute_weights, surcharge_increments
)
from .cascade import CascadeResult, LossRule, cascade_results, propagate_grid
from .errors import InvalidParameterError, KnockonError, ReplicationError
from .netgen import (
    EXTERNAL,
    HETEROGENEOUS,
    HOMOGENEOUS,
    RngStream,
    Topology,
    check_erdos_renyi,
    check_preferential_attachment,
    gen_erdos_renyi,
    gen_preferential_attachment,
    read_edge_list,
)

SWEEP_CSV_HEADER = "R,mean,std,mean_plus_std,p90,p95,p99,max,knock_on_fraction"
RAW_CSV_HEADER = "R,stream_index,N_d"

#: The layers of one replication, in the order their seconds are kept.
LAYERS = ("topology", "weights", "sheets", "cascade")


@dataclass(frozen=True)
class SurchargePolicy:
    """Extra equity ratio imposed on a fraction of the biggest banks."""

    surcharge_ratio: float
    biggest_fraction: float


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo scenario."""

    n_banks: int
    topology_kind: str
    density: float
    loan_fraction: float
    capital_ratio_grid: tuple[float, ...]
    replications: int
    master_seed: int
    lender_power: float = 0.0
    borrower_power: float = 0.0
    total_external: float = 1.0
    loss_rule: LossRule = LossRule.AMPLIFIED
    surcharge: SurchargePolicy | None = None
    topology_path: str | None = None

    def validate(self) -> None:
        """Raise InvalidParameterError on the first violated bound."""
        if self.topology_kind not in (HOMOGENEOUS, HETEROGENEOUS, EXTERNAL):
            raise InvalidParameterError(
                f"topology must be homogeneous, heterogeneous or external, got {self.topology_kind!r}"
            )
        if self.topology_kind == EXTERNAL and not self.topology_path:
            raise InvalidParameterError("topology_path is required when topology = external")
        if self.topology_kind == HETEROGENEOUS:
            check_preferential_attachment(self.n_banks, self.density)
        else:
            check_erdos_renyi(self.n_banks, self.density)
        check_market(
            self.loan_fraction, self.lender_power, self.borrower_power, self.total_external
        )
        grid = self.capital_ratio_grid
        if not grid:
            raise InvalidParameterError("r_grid must contain at least one value")
        if any(not 0.0 < r < 1.0 for r in grid):
            raise InvalidParameterError(f"r_grid values must lie in (0, 1), got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidParameterError(f"r_grid must be strictly increasing, got {grid}")
        if self.replications < 1:
            raise InvalidParameterError(
                f"replications must be at least 1, got {self.replications}"
            )
        RngStream(self.master_seed)
        if self.loss_rule not in tuple(LossRule):
            raise InvalidParameterError(
                f"loss_rule must be amplified or capped, got {self.loss_rule!r}"
            )
        if self.surcharge is not None:
            pol = self.surcharge
            check_surcharge(max(grid), pol.surcharge_ratio, pol.biggest_fraction)


@dataclass(frozen=True)
class SweepRecord:
    """Statistics of the default count at one capital ratio."""

    capital_ratio: float
    mean: float
    std: float
    p90: int
    p95: int
    p99: int
    max_defaults: int
    knock_on_fraction: float

    @property
    def mean_plus_std(self) -> float:
        return self.mean + self.std


@dataclass(frozen=True)
class SweepResult:
    """Per-ratio statistics over all replications, plus run metadata.

    ``samples`` holds the (ratio x replication) default counts the
    statistics were taken from. ``per_layer_seconds`` maps each of
    :data:`LAYERS` to its seconds summed over all replications.
    """

    config: ScenarioConfig
    records: tuple[SweepRecord, ...]
    realized_density_mean: float
    samples: np.ndarray
    per_layer_seconds: dict[str, float]
    total_seconds: float

    def to_csv(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        for rec in self.records:
            lines.append(
                f"{rec.capital_ratio!r},{rec.mean!r},{rec.std!r},{rec.mean_plus_std!r},"
                f"{rec.p90},{rec.p95},{rec.p99},{rec.max_defaults},{rec.knock_on_fraction!r}"
            )
        return "\n".join(lines) + "\n"

    def raw_samples_csv(self) -> str:
        lines = [RAW_CSV_HEADER]
        for row, ratio in zip(self.samples, self.config.capital_ratio_grid):
            lines.extend(
                f"{ratio!r},{k},{int(nd)}" for k, nd in enumerate(row)
            )
        return "\n".join(lines) + "\n"


def percentile(samples, quantile: float):
    """Nearest-rank percentile: the ceil(q * n)-th smallest sample.

    Args:
        samples: non-empty sequence (sorted or not; sorted internally).
        quantile: q in (0, 1].
    """
    data = np.sort(np.asarray(samples))
    if data.size == 0:
        raise InvalidParameterError("percentile of an empty sample list")
    if not 0.0 < quantile <= 1.0:
        raise InvalidParameterError(f"quantile must lie in (0, 1], got {quantile}")
    # The 1e-12 slack keeps float noise in q*n from bumping the rank up.
    rank = max(1, math.ceil(quantile * data.size - 1e-12))
    value = data[rank - 1]
    return int(value) if np.issubdtype(data.dtype, np.integer) else float(value)


def _make_topology(cfg: ScenarioConfig, gen: np.random.Generator) -> Topology:
    if cfg.topology_kind == HOMOGENEOUS:
        return gen_erdos_renyi(cfg.n_banks, cfg.density, gen)
    if cfg.topology_kind == HETEROGENEOUS:
        return gen_preferential_attachment(cfg.n_banks, cfg.density, gen)
    raise InvalidParameterError(f"cannot generate kind {cfg.topology_kind!r}")


def _replicate_grid(
    cfg: ScenarioConfig,
    external: Topology | None,
    stream_index: int,
    collect_results: bool = False,
) -> tuple[np.ndarray, float, np.ndarray, list[CascadeResult] | None]:
    """One replication: one topology, one shocked bank, all grid ratios.

    Only net worth depends on the capital ratio R, so one sheet serves the
    whole grid: row g of the net-worth matrix is ``R_g`` times liabilities
    plus that ratio's surcharge, and one :func:`propagate_grid` call runs
    every ratio's cascade. Returns (default counts per ratio, realized
    density, seconds per layer of :data:`LAYERS`, optional cascade results
    per ratio).
    """
    gen = RngStream(cfg.master_seed, stream_index).generator()
    grid = np.asarray(cfg.capital_ratio_grid)
    clock = [perf_counter()]
    try:
        topology = external if external is not None else _make_topology(cfg, gen)
        bank = int(gen.integers(0, cfg.n_banks))
        clock.append(perf_counter())
        weights = compute_weights(
            topology,
            cfg.lender_power,
            cfg.borrower_power,
            cfg.loan_fraction,
            cfg.total_external,
        )
        clock.append(perf_counter())
        sheets = build_balance_sheets(
            weights, cfg.loan_fraction, cfg.capital_ratio_grid[0], cfg.total_external
        )
        worth = grid[:, None] * sheets.liabilities
        distress = np.zeros_like(worth)
        distress[:, bank] = sheets.external_assets[bank]
        if cfg.surcharge is not None:
            extra = surcharge_increments(
                sheets, grid, cfg.surcharge.surcharge_ratio, cfg.surcharge.biggest_fraction
            )
            worth += extra
            # The surcharge is booked as external assets, so it is shocked too.
            distress[:, bank] += extra[:, bank]
        clock.append(perf_counter())
        counts, log = propagate_grid(
            worth, distress, np.zeros(worth.shape, dtype=bool), weights,
            cfg.loss_rule, collect=collect_results,
        )
        results = None
        if log is not None:
            results = cascade_results(log, len(grid), cfg.n_banks, bank)
        clock.append(perf_counter())
        density = topology.n_edges / (cfg.n_banks * (cfg.n_banks - 1))
        return counts, density, np.diff(clock), results
    except KnockonError as exc:
        raise ReplicationError(stream_index, str(exc)) from exc


def _load_external(cfg: ScenarioConfig) -> Topology | None:
    if cfg.topology_kind != EXTERNAL:
        return None
    topology = read_edge_list(cfg.topology_path)
    if topology.n_banks != cfg.n_banks:
        raise InvalidParameterError(
            f"topology file has {topology.n_banks} banks but config says {cfg.n_banks}"
        )
    return topology


def sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    trace_sink: Callable[[dict], None] | None = None,
) -> SweepResult:
    """Run the full Monte Carlo sweep.

    One replication is the unit of work: :func:`_replicate_grid` is mapped
    over the stream indices and its results are taken in stream order. With
    one process the builtin ``map`` runs each replication only after the
    previous one's counts and trace events are taken, so at most one
    replication's events are held at a time. With more, a process pool maps
    chunks of about ``replications / (4 x workers)`` consecutive indices,
    with at most one process per chunk.

    Args:
        cfg: the scenario; ``cfg.validate()`` is called first.
        workers: process count. Any value yields bit-identical statistics
            and trace events.
        trace_sink: optional callable receiving one dict per default event,
            in stream order, as each replication's results are taken.

    Raises:
        ReplicationError: a replication failed, or a worker process died;
            the lowest failing stream index (or the first of the dead
            worker's chunk) is reported and the sweep is aborted.
    """
    cfg.validate()
    if workers < 1:
        raise InvalidParameterError(f"workers must be at least 1, got {workers}")

    wall_start = perf_counter()
    external = _load_external(cfg)
    reps = cfg.replications
    grid = cfg.capital_ratio_grid
    samples = np.zeros((len(grid), reps), dtype=np.int64)
    densities = np.zeros(reps)
    seconds = np.zeros(len(LAYERS))
    replicate = partial(_replicate_grid, cfg, external, collect_results=trace_sink is not None)

    chunk = max(1, math.ceil(reps / (workers * 4)))
    # A forking pool starts all its processes at once: no more than chunks.
    processes = min(workers, math.ceil(reps / chunk))
    pool = ProcessPoolExecutor(max_workers=processes) if processes > 1 else None
    k = 0
    try:
        if pool is None:
            outcomes = map(replicate, range(reps))
        else:
            outcomes = pool.map(replicate, range(reps), chunksize=chunk)
        for k in range(reps):
            samples[:, k], densities[k], secs, results = next(outcomes)
            seconds += secs
            for ratio, outcome in zip(grid, results or ()):
                for event in outcome.defaults:
                    trace_sink({
                        "stream_index": k,
                        "R": ratio,
                        "round": event.round,
                        "bank": event.bank,
                        "distress": event.distress,
                        "transmitted": event.transmitted,
                    })
    except BrokenProcessPool:
        # A chunk's results arrive together, so k is its first index.
        raise ReplicationError(k, "worker process died") from None
    finally:
        if pool is not None:
            # After a failure, queued chunks are dropped rather than run.
            pool.shutdown(cancel_futures=True)

    records = []
    for idx, ratio in enumerate(grid):
        row = samples[idx]
        mean = float(row.mean())
        std = float(row.std(ddof=1)) if reps > 1 else 0.0
        records.append(
            SweepRecord(
                capital_ratio=float(ratio),
                mean=mean,
                std=std,
                p90=percentile(row, 0.90),
                p95=percentile(row, 0.95),
                p99=percentile(row, 0.99),
                max_defaults=int(row.max()),
                knock_on_fraction=float(np.count_nonzero(row >= 2)) / reps,
            )
        )

    return SweepResult(
        config=cfg,
        records=tuple(records),
        realized_density_mean=float(densities.mean()),
        samples=samples,
        per_layer_seconds={layer: float(s) for layer, s in zip(LAYERS, seconds)},
        total_seconds=perf_counter() - wall_start,
    )
