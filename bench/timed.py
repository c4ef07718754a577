"""The measured process: one fresh interpreter that runs a workload's sweeps.

Usage (run.py starts it; it is not meant to be run by hand)::

    python3 bench/timed.py <spec.json> <perf_counter value at spawn>

The process imports knockon, parses the first chunk's scenario file (the
set-up), then runs ``knockon sweep --config ... --out ... --raw-samples
--workers 1`` through ``knockon.cli.main`` chunk after chunk until the time
budget is spent. A fixed calibration kernel runs between chunks, while the
program is idle, so that run.py can scale each chunk's time to the kernel's
nominal speed. With tracing on, every chunk runs twice, once plain and once
with the layer functions wrapped, and the pair's difference is the tracing
overhead. The result goes to ``result.json`` in the output directory.
"""

from __future__ import annotations

import configparser
import inspect
import json
import resource
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

MIN_CHUNKS = 3

# Functions that sweep() and cmd_sweep() look up in their own module's
# namespace, keyed by that module, and the layer each one is charged to.
# cli.sweep's self time is the sweep's own bookkeeping, cli.cmd_sweep's
# self time is formatting and writing the output files.
LAYER_FUNCTIONS = {
    "knockon.experiment": {
        "gen_erdos_renyi": "netgen.topology",
        "gen_preferential_attachment": "netgen.topology",
        "compute_weights": "balance.weights",
        "build_balance_sheets": "balance.sheets",
        "apply_surcharge": "balance.surcharge",
        "initial_shock": "cascade.shock",
        "propagate": "cascade.propagate",
        "percentile": "experiment.percentile",
    },
    "knockon.cli": {
        "parse_config": "cli.parse",
        "sweep": "experiment.self",
        "cmd_sweep": "cli.write",
    },
}
LAYERS = sorted({layer for names in LAYER_FUNCTIONS.values() for layer in names.values()})
TOPOLOGY_GENERATORS = {"homogeneous": "gen_erdos_renyi", "heterogeneous": "gen_preferential_attachment"}


def kernel() -> float:
    """Fixed work in the program's mix: short numpy calls on small arrays
    driven from Python loops, dict updates, and one sort."""
    rng = np.random.default_rng(12345)
    x = rng.random(4096)
    acc = 0.0
    for i in range(3000):
        lo = (i * 7) % 4000
        window = x[lo:lo + 64]
        acc += float(window.sum()) * 0.5
        if window[0] < 0.3:
            acc -= 1.0
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 211] = counts.get(i % 211, 0) + i
    y = np.sort(rng.random(20000))
    return acc + float(y[0]) + len(counts)


def kernel_seconds() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def chunk_seed(seed: int, chunk: int) -> int:
    return (seed * 1_000_003 + chunk) % 2**64


def write_chunk_config(spec: dict, chunk: int, path: Path) -> None:
    """The workload's scenario file with this chunk's seed and replication
    count (and any smoke-size overrides)."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    parser.read(spec["template"], encoding="utf-8")
    seed = chunk_seed(spec["seed"], chunk)
    values = dict(spec["overrides"], seed=str(seed), replications=str(spec["reps"]))
    for key, value in values.items():
        parser["scenario"][key] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


class Tracer:
    """Wraps the layer functions and accumulates self time and counts.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it. The wrappers' own work is charged to no span.
    """

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(
            ("edges", "topologies", "cascades", "rounds", "defaults",
             "creditor_visits", "delivered", "sent"), 0.0)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, names in LAYER_FUNCTIONS.items():
            module = sys.modules[module_name]
            for name, layer in names.items():
                fn = getattr(module, name, None)
                if fn is None:
                    print(f"trace: {module_name}.{name} not found, {layer} reads 0", file=sys.stderr)
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, layer, fn):
        count = {"netgen.topology": self._count_topology,
                 "cascade.propagate": self._count_cascade}.get(layer)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            frame = [0.0]
            self._stack.append(frame)
            try:
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                self.self_s[layer] += perf_counter() - t0 - frame[0]
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(bound.arguments, out)
                return out
            finally:
                self._stack.pop()
                # The whole wrapper, bookkeeping included, is a child of
                # the enclosing span, so no layer is charged for tracing.
                if self._stack:
                    self._stack[-1][0] += perf_counter() - entered

        return wrapper

    def _count_topology(self, _args, topology) -> None:
        self.counts["topologies"] += 1
        self.counts["edges"] += topology.n_edges

    def _count_cascade(self, args, result) -> None:
        sheets, weights = args["sheets"], args["weights"]
        rule = getattr(args["rule"], "value", args["rule"])
        self.counts["cascades"] += 1
        self.counts["rounds"] += result.rounds
        self.counts["defaults"] += result.n_defaults
        self.counts["delivered"] += result.total_loss_transmitted
        if not result.defaults:
            return
        banks = np.array([e.bank for e in result.defaults], dtype=np.int64)
        at_default = np.array([e.distress for e in result.defaults])
        ptr = weights.debtor_ptr
        self.counts["creditor_visits"] += float((ptr[banks + 1] - ptr[banks]).sum())
        owed = weights.borrowings[banks]
        residual = at_default - sheets.net_worth[banks]
        pick = np.maximum if rule == "amplified" else np.minimum
        self.counts["sent"] += float(np.where(owed > 0.0, pick(residual, owed), 0.0).sum())


def topology_peak_mb(cfg, seeds: list[int]) -> float:
    """tracemalloc peak inside the generator that sweep() calls, over the
    first replication of a few chunks."""
    import knockon.experiment as experiment
    from knockon.netgen import RngStream

    generate = getattr(experiment, TOPOLOGY_GENERATORS[cfg.topology_kind])
    peak = 0
    for seed in seeds:
        gen = RngStream(seed, 0).generator()
        tracemalloc.start()
        try:
            generate(cfg.n_banks, cfg.density, gen)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    spawned = float(sys.argv[2])
    out = Path(spec["out"])

    def chunk_config(chunk: int) -> Path:
        path = out / "configs" / f"c{chunk:03d}.cfg"
        if not path.exists():
            write_chunk_config(spec, chunk, path)
        return path

    # Set-up: a fresh interpreter until the scenario is ready.
    import knockon
    from knockon.cli import main as knockon_main
    from knockon.cli import parse_config

    cfg = parse_config(chunk_config(0))
    setup_s = perf_counter() - spawned

    src = Path(spec["src"]).resolve()
    if src not in Path(knockon.__file__).resolve().parents:
        print(f"knockon was imported from {knockon.__file__}, not from {src}", file=sys.stderr)
        return 2

    def run_chunk(chunk: int, dest: str, tracer: Tracer | None) -> dict:
        config = str(chunk_config(chunk))
        argv = ["sweep", "--config", config, "--out", str(out / dest), "--raw-samples",
                "--workers", "1"]
        if tracer is not None:
            tracer.install()
        try:
            t0 = perf_counter()
            code = knockon_main(argv)
            elapsed = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        return {"dir": dest, "config": config, "exit_code": code, "raw_s": elapsed}

    kernel()  # the first call pays one-off costs; time warm calls only
    kernels = [kernel_seconds()]
    chunks = []
    started = perf_counter()
    chunk = 0
    while chunk < MIN_CHUNKS or perf_counter() - started < spec["seconds"]:
        if spec["trace"]:
            # Alternate which run of the pair goes first, so drift within a
            # pair does not always favour the same side.
            tracer = Tracer()
            order = [None, tracer] if chunk % 2 == 0 else [tracer, None]
            runs = {}
            for t in order:
                side = "traced" if t is not None else "plain"
                runs[side] = run_chunk(chunk, f"c{chunk:03d}{'t' if t else ''}", t)
                kernels.append(kernel_seconds())
                runs[side]["kernel_s"] = (kernels[-2] + kernels[-1]) / 2
            runs["traced"]["self_s"] = tracer.self_s
            runs["traced"]["counts"] = tracer.counts
            chunks.append(runs)
        else:
            record = run_chunk(chunk, f"c{chunk:03d}", None)
            kernels.append(kernel_seconds())
            record["kernel_s"] = (kernels[-2] + kernels[-1]) / 2
            chunks.append(record)
        chunk += 1

    result = {
        "setup_s": setup_s,
        "kernel_s": kernels,
        "chunks": chunks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spec["trace"]:
        seeds = [chunk_seed(spec["seed"], c) for c in range(min(3, chunk))]
        result["topology_peak_mb"] = topology_peak_mb(cfg, seeds)
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
