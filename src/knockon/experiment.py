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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable

import numpy as np

from .balance import build_balance_sheets, compute_weights, surcharge_increments
from .cascade import CascadeResult, LossRule, cascade_results, propagate_grid
from .errors import InvalidParameterError, KnockonError, ReplicationError
from .netgen import (
    EXTERNAL,
    HETEROGENEOUS,
    HOMOGENEOUS,
    RngStream,
    Topology,
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
        if self.n_banks < 2:
            raise InvalidParameterError(f"n must be at least 2, got {self.n_banks}")
        if self.topology_kind not in (HOMOGENEOUS, HETEROGENEOUS, EXTERNAL):
            raise InvalidParameterError(
                f"topology must be homogeneous, heterogeneous or external, got {self.topology_kind!r}"
            )
        if self.topology_kind == EXTERNAL and not self.topology_path:
            raise InvalidParameterError("topology_path is required when topology = external")
        if not 0.0 <= self.density <= 1.0:
            raise InvalidParameterError(f"p must lie in [0, 1], got {self.density}")
        if self.topology_kind == HETEROGENEOUS:
            check_preferential_attachment(self.n_banks, self.density)
        if not 0.0 < self.loan_fraction < 0.5:
            raise InvalidParameterError(
                f"Q must lie in (0, 0.5), got {self.loan_fraction}"
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
        if not 0 <= int(self.master_seed) < 2**64:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {self.master_seed}")
        if self.lender_power < 0 or self.borrower_power < 0:
            raise InvalidParameterError("s and t must be non-negative")
        if self.total_external <= 0:
            raise InvalidParameterError(f"E must be positive, got {self.total_external}")
        LossRule(self.loss_rule)
        if self.surcharge is not None:
            pol = self.surcharge
            if pol.surcharge_ratio < 0 or pol.surcharge_ratio + max(grid) >= 1.0:
                raise InvalidParameterError(
                    f"R_s must lie in [0, 1 - max R), got {pol.surcharge_ratio}"
                )
            if not 0.0 <= pol.biggest_fraction <= 1.0:
                raise InvalidParameterError(
                    f"biggest_fraction must lie in [0, 1], got {pol.biggest_fraction}"
                )


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

    ``per_layer_seconds`` maps each of :data:`LAYERS` to its seconds summed
    over all replications.
    """

    config: ScenarioConfig
    records: tuple[SweepRecord, ...]
    realized_density_mean: float
    samples: np.ndarray | None
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
        if self.samples is None:
            raise InvalidParameterError("sweep was run without keep_samples")
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
            selected, extra = surcharge_increments(
                sheets, grid, cfg.surcharge.surcharge_ratio, cfg.surcharge.biggest_fraction
            )
            worth[:, selected] += extra
            # The surcharge is booked as external assets, so it is shocked too.
            distress[:, bank] += extra[:, selected == bank].sum(axis=1)
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


def _sweep_block(
    cfg: ScenarioConfig, external: Topology | None, start: int, stop: int, trace: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict]]:
    """Replications ``start`` to ``stop - 1``: their (ratio x replication)
    default counts, realized densities, seconds per layer of :data:`LAYERS`
    summed over the span and, with ``trace``, one dict per default event in
    stream order."""
    grid = cfg.capital_ratio_grid
    counts = np.zeros((len(grid), stop - start), dtype=np.int64)
    densities = np.zeros(stop - start)
    seconds = np.zeros(len(LAYERS))
    events: list[dict] = []
    for col, k in enumerate(range(start, stop)):
        counts[:, col], densities[col], secs, results = _replicate_grid(
            cfg, external, k, collect_results=trace
        )
        seconds += secs
        for ratio, outcome in zip(grid, results or ()):
            events.extend(
                {
                    "stream_index": k,
                    "R": ratio,
                    "round": event.round,
                    "bank": event.bank,
                    "distress": event.distress,
                    "transmitted": event.transmitted,
                }
                for event in outcome.defaults
            )
    return counts, densities, seconds, events


def sweep(
    cfg: ScenarioConfig,
    workers: int = 1,
    keep_samples: bool = False,
    trace_sink: Callable[[dict], None] | None = None,
) -> SweepResult:
    """Run the full Monte Carlo sweep.

    Replications run in blocks of consecutive stream indices: in this
    process for one worker or one block, otherwise in a process pool of at
    most one process per block. Either way the results are taken in block
    order.

    Args:
        cfg: the scenario; ``cfg.validate()`` is called first.
        workers: process count. Any value yields bit-identical statistics
            and trace events.
        keep_samples: retain the raw (ratio x replication) default counts.
        trace_sink: optional callable receiving one dict per default event,
            in stream order, as each block completes.

    Raises:
        ReplicationError: a replication failed, or a worker process died;
            the lowest failing stream index (or the first of the dead
            worker's block) is reported and the sweep is aborted.
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
    trace = trace_sink is not None

    block = max(1, math.ceil(reps / (workers * 4)))
    spans = [(s, min(s + block, reps)) for s in range(0, reps, block)]
    # A forking pool starts all its processes at once: no more than blocks.
    processes = min(workers, len(spans))
    pool = ProcessPoolExecutor(max_workers=processes) if processes > 1 else None
    try:
        if pool is None:
            jobs = deque(partial(_sweep_block, cfg, external, a, b, trace) for a, b in spans)
        else:
            jobs = deque(pool.submit(_sweep_block, cfg, external, a, b, trace).result for a, b in spans)
        for start, stop in spans:
            # Popped, so that no finished block's trace events stay referenced.
            job = jobs.popleft()
            try:
                counts, dens, secs, events = job()
            except BrokenProcessPool:
                raise ReplicationError(start, "worker process died") from None
            samples[:, start:stop] = counts
            densities[start:stop] = dens
            seconds += secs
            for event in events:
                trace_sink(event)
    finally:
        if pool is not None:
            # After a failure, queued blocks are dropped rather than run.
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
        samples=samples if keep_samples else None,
        per_layer_seconds={layer: float(s) for layer, s in zip(LAYERS, seconds)},
        total_seconds=perf_counter() - wall_start,
    )
