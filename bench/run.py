"""Benchmark of ``knockon sweep`` on three workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload homog_baseline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke          # every workload at toy size, both modes

Each run starts a fresh interpreter (bench/timed.py) that imports knockon
from ``src/``, parses the scenario, and runs the user's path, ``knockon
sweep --config ... --out ... --raw-samples --workers 1``, chunk after chunk
for ``--seconds`` seconds. Chunk ``c`` uses master seed ``seed * 1000003 +
c``. Afterwards this process checks every output against figures derived
without the program's code path, and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from timed import TOPOLOGY_GENERATORS, write_chunk_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Replications per chunk: about 0.2 s of work each. The machine's speed
# drifts on a scale of seconds, so short chunks with the calibration kernel
# between them track it closely, and a 30 s run holds a hundred or more.
WORKLOADS = {
    "homog_baseline": {"reps": 50, "smoke": {"n": "60", "p": "0.05", "replications": "8"}},
    "hetero_surcharge": {"reps": 10, "smoke": {"n": "60", "p": "0.05", "replications": "8"}},
    "systemic_amplified": {"reps": 2, "smoke": {"n": "120", "p": "0.04", "replications": "3"}},
}
# Replications drawn per run for the oracle and property checks.
CHECKED_REPLICATIONS = 4
# Realised density must lie within this many binomial standard deviations of p.
DENSITY_SIGMAS = 6.0
# Median kernel time on the reference machine (2-core Xeon VM, Python 3.11,
# numpy 2.4) at its usual speed: scaled times are what a chunk would have
# taken with the kernel at this speed.
NOMINAL_KERNEL_S = 0.0100
# How much the sweep's time moves per unit of the kernel's time, as a power:
# fitted over 60 runs (ten seeds, three workloads, twice) on the reference
# machine, it lay between 0.89 and 0.96 for every workload. The kernel is a
# little more sensitive to the machine's slow spells than the program.
KERNEL_ELASTICITY = 0.92
RTOL = 1e-9
QUANTILES = (("p90", Fraction(9, 10)), ("p95", Fraction(19, 20)), ("p99", Fraction(99, 100)))


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_statistics(chunk_dir: Path, grid: tuple[float, ...], reps: int) -> dict[float, list[int]]:
    """Recompute every sweep.csv column from samples.csv with plain Python.
    Returns the default counts per ratio, indexed by stream."""
    header, rows = read_csv(chunk_dir / "samples.csv")
    require(header == ["R", "stream_index", "N_d"], f"{chunk_dir}: samples.csv header {header}")
    samples: dict[float, list[int | None]] = {r: [None] * reps for r in grid}
    for r, k, nd in rows:
        require(float(r) in samples, f"{chunk_dir}: samples.csv has ratio {r} outside the grid")
        samples[float(r)][int(k)] = int(nd)
    for r, counts in samples.items():
        require(None not in counts, f"{chunk_dir}: samples.csv misses streams at R={r}")
    header, rows = read_csv(chunk_dir / "sweep.csv")
    require([float(row[0]) for row in rows] == list(grid), f"{chunk_dir}: sweep.csv ratios")
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        counts = samples[float(row[0])]
        mean = sum(counts) / reps
        std = math.sqrt(math.fsum((x - mean) ** 2 for x in counts) / (reps - 1)) if reps > 1 else 0.0
        ordered = sorted(counts)
        want = {
            "mean": mean,
            "std": std,
            "mean_plus_std": mean + std,
            "max": ordered[-1],
            "knock_on_fraction": sum(1 for x in counts if x >= 2) / reps,
        }
        for name, q in QUANTILES:
            want[name] = ordered[max(1, math.ceil(q * reps)) - 1]
        for name, value in want.items():
            got = float(row[col[name]])
            require(close(got, value, 1e-12), f"{chunk_dir}: R={row[0]} {name} is {got}, recomputed {value}")
    return samples


def check_replication(cfg, stream: int, counts_by_ratio: dict[float, int]) -> None:
    """Rebuild one replication: the oracle's default counts must match the
    sweep's, and the program's own sheets and cascades must have the
    model's properties."""
    import numpy as np
    from knockon import (RngStream, apply_surcharge, build_balance_sheets, compute_weights,
                         initial_shock, netgen, propagate)
    from oracle import Market

    n = cfg.n_banks
    # The draw order of one replication: the topology, then the shocked bank.
    gen = RngStream(cfg.master_seed, stream).generator()
    topology = getattr(netgen, TOPOLOGY_GENERATORS[cfg.topology_kind])(n, cfg.density, gen)
    bank = int(gen.integers(0, n))
    edges = [tuple(e) for e in topology.edges.tolist()]
    sur_ratio = cfg.surcharge.surcharge_ratio if cfg.surcharge else 0.0
    sur_fraction = cfg.surcharge.biggest_fraction if cfg.surcharge else 0.0
    market = Market(n, edges, cfg.lender_power, cfg.borrower_power, cfg.loan_fraction,
                    cfg.total_external, sur_ratio, sur_fraction)
    amplified = cfg.loss_rule.value == "amplified"
    where = f"seed {cfg.master_seed} stream {stream}"

    weights = compute_weights(topology, cfg.lender_power, cfg.borrower_power,
                              cfg.loan_fraction, cfg.total_external)
    for ratio in cfg.capital_ratio_grid:
        at = f"{where} R={ratio}"
        want, delivered = market.cascade(ratio, bank, amplified)
        require(counts_by_ratio[ratio] == want,
                f"{at}: samples.csv has {counts_by_ratio[ratio]} defaults, oracle {want}")

        sheets = build_balance_sheets(weights, cfg.loan_fraction, ratio, cfg.total_external)
        if cfg.surcharge is not None:
            sheets = apply_surcharge(sheets, sur_ratio, sur_fraction)
        e, i, a, l = (sheets.external_assets, sheets.interbank_loans, sheets.assets,
                      sheets.liabilities)
        require(np.allclose(a, e + i, rtol=RTOL, atol=0), f"{at}: A != E + I")
        require(np.allclose(l, a, rtol=RTOL, atol=0), f"{at}: L != A")
        require(close(math.fsum(i), cfg.loan_fraction / (1 - cfg.loan_fraction) * cfg.total_external),
                f"{at}: loans do not sum to Q/(1-Q) E")
        require(close(math.fsum(e), cfg.total_external + math.fsum(sheets.surcharge)),
                f"{at}: external assets do not sum to E plus the surcharge")
        chosen = np.flatnonzero(sheets.surcharge > 0)
        require(len(chosen) == (market.surcharged if sur_ratio > 0 else 0),
                f"{at}: {len(chosen)} banks surcharged, want floor(f n) = {market.surcharged}")
        if 0 < len(chosen) < n:
            before = a - sheets.surcharge
            rest = np.delete(before, chosen)
            require(before[chosen].min() >= rest.max(), f"{at}: surcharge missed a bigger bank")

        state = initial_shock(sheets, bank)
        result = propagate(sheets, weights, state, cfg.loss_rule)
        require(result.n_defaults == want, f"{at}: propagate gives {result.n_defaults}, oracle {want}")
        require(close(result.total_loss_transmitted, delivered),
                f"{at}: propagate delivers {result.total_loss_transmitted}, oracle {delivered}")
        shock = float(sheets.external_assets[bank])
        require(close(math.fsum(state.distress), shock + result.total_loss_transmitted),
                f"{at}: final distress != shock + transmitted")
        worth = sheets.net_worth
        for event in result.defaults:
            require(event.distress >= worth[event.bank], f"{at}: bank {event.bank} defaulted early")
        alive = ~state.defaulted
        require(bool(np.all(state.distress[alive] < worth[alive])), f"{at}: a survivor is insolvent")


def check_density(kind: str, n: int, p: float, densities: list[tuple[float, int]]) -> None:
    """The mean realised density over all replications lies within
    DENSITY_SIGMAS binomial standard deviations of p. For the heterogeneous
    generator, whose edge count is held to its target, the bound is loose."""
    reps = sum(r for _, r in densities)
    mean = sum(d * r for d, r in densities) / reps
    sigma = math.sqrt(p * (1 - p) / (reps * n * (n - 1)))
    require(abs(mean - p) <= DENSITY_SIGMAS * sigma,
            f"{kind}: realised density {mean} is more than {DENSITY_SIGMAS} sigma from p={p}")


def check_outputs(out: Path, runs: list[dict], reps: int, seed: int) -> None:
    """Every check on every chunk the timed process completed."""
    from knockon.cli import parse_config

    densities = []
    chunks = []
    for run in runs:
        d = out / run["dir"]
        cfg = parse_config(run["config"])
        manifest = json.loads((d / "manifest.json").read_text(encoding="ascii"))
        require(manifest["config"]["seed"] == cfg.master_seed, f"{d}: manifest seed")
        require(manifest["config"]["replications"] == reps, f"{d}: manifest replications")
        require(manifest["workers"] == 1, f"{d}: manifest workers")
        densities.append((manifest["realized_density_mean"], reps))
        chunks.append((cfg, check_statistics(d, cfg.capital_ratio_grid, reps)))
    cfg = chunks[0][0]
    check_density(cfg.topology_kind, cfg.n_banks, cfg.density, densities)

    # Replications for the oracle: the first chunk's largest cascade, then
    # streams drawn from the run's seed.
    cfg0, samples0 = chunks[0]
    total = [sum(samples0[r][k] for r in cfg0.capital_ratio_grid) for k in range(reps)]
    picks = [(0, total.index(max(total)))]
    pick_rng = random.Random(seed)
    while len(picks) < min(CHECKED_REPLICATIONS, len(chunks) * reps):
        pick = (pick_rng.randrange(len(chunks)), pick_rng.randrange(reps))
        if pick not in picks:
            picks.append(pick)
    for c, k in picks:
        cfg, samples = chunks[c]
        check_replication(cfg, k, {r: samples[r][k] for r in cfg.capital_ratio_grid})


def scaled(raw_s: float, kernel_s: float) -> float:
    """A time as it would read with the kernel at its nominal speed."""
    return raw_s * (NOMINAL_KERNEL_S / kernel_s) ** KERNEL_ELASTICITY


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def end_to_end(result: dict, reps: int, report) -> dict:
    raw = [c["raw_s"] * 1e3 / reps for c in result["chunks"]]
    per_rep = [scaled(c["raw_s"], c["kernel_s"]) * 1e3 / reps for c in result["chunks"]]
    # Set-up is reported unscaled: cold start is mostly loading and page
    # faults, which do not follow the kernel's speed, and scaling it widened
    # its run-to-run spread (see README).
    setup = result["setup_s"]
    report(f"chunks {len(per_rep)} x {reps} replications")
    report(f"kernel ms median [q1, q3]: {quartiles([k * 1e3 for k in result['kernel_s']])}"
           f" (nominal {NOMINAL_KERNEL_S * 1e3:.3g})")
    report(f"sweep ms/rep raw: {quartiles(raw)}   scaled: {quartiles(per_rep)}")
    report(f"setup s raw: {setup:.4f}   scaled: {scaled(setup, statistics.median(result['kernel_s'])):.4f}")
    return {
        "sweep_ms_per_rep": {"value": statistics.median(per_rep), "unit": "ms"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict, reps: int, report) -> dict:
    traced = [c["traced"] for c in result["chunks"]]
    plain = [c["plain"] for c in result["chunks"]]

    def ms_per_rep(c: dict, seconds: float) -> float:
        return scaled(seconds, c["kernel_s"]) * 1e3 / reps

    metrics = {}
    for layer in sorted(traced[0]["self_s"]):
        value = statistics.median(ms_per_rep(c, c["self_s"][layer]) for c in traced)
        metrics[f"{layer}_ms"] = {"value": value, "unit": "ms"}
    metrics["netgen.topology_peak_mb"] = {"value": result["topology_peak_mb"], "unit": "MB"}
    counts = {k: sum(c["counts"][k] for c in traced) for k in traced[0]["counts"]}
    cascades = max(counts["cascades"], 1)
    metrics["netgen.edges_per_rep"] = {"value": counts["edges"] / max(counts["topologies"], 1), "unit": "count"}
    metrics["cascade.rounds_per_cascade"] = {"value": counts["rounds"] / cascades, "unit": "count"}
    metrics["cascade.defaults_per_cascade"] = {"value": counts["defaults"] / cascades, "unit": "count"}
    metrics["cascade.creditor_visits_per_cascade"] = {"value": counts["creditor_visits"] / cascades, "unit": "count"}
    metrics["cascade.delivered_fraction"] = {
        "value": counts["delivered"] / counts["sent"] if counts["sent"] else 0.0, "unit": "ratio"}
    untraced = [ms_per_rep(c, c["raw_s"]) for c in plain]
    with_trace = [ms_per_rep(c, c["raw_s"]) for c in traced]
    overhead = [100.0 * (t / u - 1.0) for t, u in zip(with_trace, untraced)]
    metrics["trace.untraced_ms_per_rep"] = {"value": statistics.median(untraced), "unit": "ms"}
    metrics["trace.traced_ms_per_rep"] = {"value": statistics.median(with_trace), "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": statistics.median(overhead), "unit": "%"}
    metrics["calib.kernel_ms"] = {"value": statistics.median(result["kernel_s"]) * 1e3, "unit": "ms"}
    report(f"pairs {len(traced)} x {reps} replications; kernel ms {quartiles([k * 1e3 for k in result['kernel_s']])}")
    for name, m in metrics.items():
        report(f"{name} = {m['value']:.6g} {m['unit']}")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run: the timed process, then the checks. Returns the
    result object, whose ``correct`` is false when a check failed."""
    settings = WORKLOADS[workload]
    overrides = dict(settings["smoke"]) if smoke else {}
    reps = int(overrides.pop("replications", settings["reps"]))
    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = {
        "template": str(BENCH / "scenarios" / f"{workload}.cfg"),
        "out": str(out),
        "src": str(SRC),
        "seed": seed,
        "reps": reps,
        "seconds": seconds,
        "trace": trace,
        "overrides": overrides,
    }
    (out / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    # The first chunk's scenario file exists before the clock starts, so
    # set-up is the interpreter, the import and the parse alone.
    write_chunk_config(spec, 0, out / "configs" / "c000.cfg")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out / "timed.log", "w", encoding="utf-8") as log:
        spawned = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "timed.py"), str(out / "spec.json"), repr(spawned)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=seconds + 120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        sys.stderr.write((out / "timed.log").read_text(encoding="utf-8")[-4000:])
        raise RuntimeError(f"timed process exited with code {code}")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))

    # A chunk whose sweep exits non-zero counts all its replications as
    # failed; metrics and checks use the chunks that completed.
    pairs = [(c["plain"], c["traced"]) if trace else (c,) for c in result["chunks"]]
    attempted = len(pairs) * len(pairs[0]) * reps
    done = [p for p in pairs if all(r["exit_code"] == 0 for r in p)]
    failed = sum(reps for p in pairs for r in p if r["exit_code"] != 0)
    if not done:
        raise RuntimeError("every chunk failed")
    result["chunks"] = [c for c, p in zip(result["chunks"], pairs) if p in done]

    def report(line: str) -> None:
        print(f"[{workload}] {line}")

    metrics = per_layer(result, reps, report) if trace else end_to_end(result, reps, report)
    correct = True
    try:
        if trace:
            for plain, traced in done:
                for name in ("sweep.csv", "samples.csv"):
                    require((out / plain["dir"] / name).read_bytes()
                            == (out / traced["dir"] / name).read_bytes(),
                            f"tracing changed {traced['dir']}/{name}")
        check_outputs(out, [p[0] for p in done], reps, seed)
    except CheckFailed as exc:
        print(f"error: check failed: {exc}", file=sys.stderr)
        correct = False
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size in both modes, in about 10 s")
    args = parser.parse_args(argv)
    if not (SRC / "knockon" / "__init__.py").is_file():
        print(f"error: no knockon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        jobs = [(w, t) for w in sorted(WORKLOADS) for t in (False, True)]
        seconds = 0.5
    elif args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    else:
        jobs = [(args.workload, bool(args.trace))]
        seconds = args.seconds
    for workload, trace in jobs:
        result = run(workload, args.seed, seconds, trace, args.smoke)
        if not result["correct"]:
            break
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
