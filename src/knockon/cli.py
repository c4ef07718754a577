"""Command-line front end: generate topologies, inspect balance sheets,
run capital-ratio sweeps.

Scenario files are flat INI text. The ``[scenario]`` section takes::

    n                   bank count (int, >= 2)
    topology            homogeneous | heterogeneous | external
    topology_path       edge-list file, required when topology = external
    p                   edge density in [0, 1]
    Q                   interbank loans as a fraction of assets, in (0, 0.5)
    s, t                heterogeneity powers (default 0)
    E                   total external assets (default 1.0)
    r_grid              comma list "0.02, 0.04" or range "start:stop:step"
    replications        Monte Carlo sample count (default 10000)
    seed                master seed (64-bit unsigned int)
    loss_rule           amplified | capped (default amplified)
    initial_bank_policy uniform_random (default)

An optional ``[surcharge]`` section takes ``R_s`` (extra equity ratio) and
``biggest_fraction`` (share of banks receiving it). Exit codes: 0 success,
2 config or input error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import platform
import shutil
import sys
import tempfile
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .balance import apply_surcharge, build_balance_sheets, compute_weights, to_csv, validate
from .cascade import LossRule
from .errors import (
    ConfigError,
    InvalidParameterError,
    KnockonError,
    ParseError,
)
from .experiment import ScenarioConfig, SurchargePolicy, _make_topology, sweep
from .netgen import (
    EXTERNAL,
    GENERATOR_VERSION,
    RngStream,
    degree_stats,
    read_edge_list,
    write_edge_list,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_SCENARIO_KEYS = {
    "n", "topology", "topology_path", "p", "q", "s", "t", "e", "r_grid",
    "replications", "seed", "loss_rule", "initial_bank_policy",
}


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"r_grid range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ConfigError(f"r_grid step must be positive, got {step}")
        values = []
        k = 0
        while True:
            value = round(start + k * step, 10)
            if value > stop + step * 1e-9:
                break
            values.append(value)
            k += 1
        return tuple(values)
    return tuple(float(p) for p in text.split(",") if p.strip())


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario file, filling documented defaults."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not parser.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")
    section = parser["scenario"]
    for key in section:
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r} in [scenario]")

    def need(key: str) -> str:
        if key not in section:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return section[key]

    try:
        surcharge = None
        if parser.has_section("surcharge"):
            sur = parser["surcharge"]
            surcharge = SurchargePolicy(
                surcharge_ratio=float(sur.get("r_s", 0.0)),
                biggest_fraction=float(sur.get("biggest_fraction", 0.0)),
            )
        rule_text = section.get("loss_rule", LossRule.AMPLIFIED.value)
        try:
            rule = LossRule(rule_text)
        except ValueError:
            raise ConfigError(
                f"{path}: loss_rule must be amplified or capped, got {rule_text!r}"
            ) from None
        cfg = ScenarioConfig(
            n_banks=int(need("n")),
            topology_kind=need("topology"),
            density=float(section.get("p", 0.0)),
            loan_fraction=float(need("q")),
            capital_ratio_grid=_parse_grid(need("r_grid")),
            replications=int(section.get("replications", 10000)),
            master_seed=int(need("seed")),
            lender_power=float(section.get("s", 0.0)),
            borrower_power=float(section.get("t", 0.0)),
            total_external=float(section.get("e", 1.0)),
            loss_rule=rule,
            surcharge=surcharge,
            initial_bank_policy=section.get("initial_bank_policy", "uniform_random"),
            topology_path=section.get("topology_path") or None,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        cfg.validate()
    except InvalidParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.topology_kind == EXTERNAL and cfg.topology_path:
        resolved = Path(cfg.topology_path)
        if not resolved.is_absolute():
            cfg = dataclasses.replace(cfg, topology_path=str(path.parent / resolved))
    return cfg


def emit_config(cfg: ScenarioConfig) -> str:
    """Render a ScenarioConfig back to scenario-file text; parse_config on
    the result reproduces the config exactly."""
    lines = [
        "[scenario]",
        f"n = {cfg.n_banks}",
        f"topology = {cfg.topology_kind}",
    ]
    if cfg.topology_path:
        lines.append(f"topology_path = {cfg.topology_path}")
    lines += [
        f"p = {cfg.density!r}",
        f"Q = {cfg.loan_fraction!r}",
        f"s = {cfg.lender_power!r}",
        f"t = {cfg.borrower_power!r}",
        f"E = {cfg.total_external!r}",
        "r_grid = " + ", ".join(repr(r) for r in cfg.capital_ratio_grid),
        f"replications = {cfg.replications}",
        f"seed = {cfg.master_seed}",
        f"loss_rule = {cfg.loss_rule.value}",
        f"initial_bank_policy = {cfg.initial_bank_policy}",
    ]
    if cfg.surcharge is not None:
        lines += [
            "",
            "[surcharge]",
            f"R_s = {cfg.surcharge.surcharge_ratio!r}",
            f"biggest_fraction = {cfg.surcharge.biggest_fraction!r}",
        ]
    return "\n".join(lines) + "\n"


def _config_echo(cfg: ScenarioConfig) -> dict:
    echo = {
        "n": cfg.n_banks,
        "topology": cfg.topology_kind,
        "topology_path": cfg.topology_path,
        "p": cfg.density,
        "Q": cfg.loan_fraction,
        "s": cfg.lender_power,
        "t": cfg.borrower_power,
        "E": cfg.total_external,
        "r_grid": list(cfg.capital_ratio_grid),
        "replications": cfg.replications,
        "seed": cfg.master_seed,
        "loss_rule": cfg.loss_rule.value,
        "initial_bank_policy": cfg.initial_bank_policy,
    }
    if cfg.surcharge is not None:
        echo["surcharge"] = {
            "R_s": cfg.surcharge.surcharge_ratio,
            "biggest_fraction": cfg.surcharge.biggest_fraction,
        }
    return echo


def cmd_generate(cfg: ScenarioConfig, out_path: str | Path) -> None:
    """Write one topology (stream index 0) as an edge list and print a
    degree summary."""
    topology = _make_topology(cfg, RngStream(cfg.master_seed, 0).generator())
    write_edge_list(topology, out_path)
    stats = degree_stats(topology)
    print(f"wrote {out_path} ({topology.n_edges} edges)")
    print(f"density {stats.density!r}")
    print(
        f"out-degree mean {float(stats.out_degree.mean())!r} max {int(stats.out_degree.max())}"
    )
    print(
        f"in-degree mean {float(stats.in_degree.mean())!r} max {int(stats.in_degree.max())}"
    )


def cmd_inspect(topology_path: str | Path, cfg: ScenarioConfig, out_dir: str | Path | None) -> int:
    """Build sheets for an external topology; emit balance CSV plus the
    validation report. Returns an exit code."""
    topology = read_edge_list(topology_path)
    weights = compute_weights(
        topology, cfg.lender_power, cfg.borrower_power,
        cfg.loan_fraction, cfg.total_external,
    )
    ratio = cfg.capital_ratio_grid[0]
    sheets = build_balance_sheets(weights, cfg.loan_fraction, ratio, cfg.total_external)
    if cfg.surcharge is not None:
        sheets = apply_surcharge(
            sheets, cfg.surcharge.surcharge_ratio, cfg.surcharge.biggest_fraction
        )
    report = validate(sheets)
    csv_text = to_csv(sheets)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "balance.csv").write_text(csv_text, encoding="ascii")
        (out / "validation.txt").write_text(str(report) + "\n", encoding="ascii")
        print(f"wrote {out / 'balance.csv'} and {out / 'validation.txt'}")
    else:
        print(csv_text, end="")
        print()
        print(str(report))
    return EXIT_OK if report.ok else EXIT_RUNTIME


def cmd_sweep(
    cfg: ScenarioConfig,
    out_dir: str | Path,
    workers: int = 1,
    raw_samples: bool = False,
    trace: bool = False,
) -> None:
    """Run the sweep and write curves CSV, manifest JSON and optional raw
    samples and cascade trace into ``out_dir``.

    Every file is written into a staging directory next to ``out_dir``, the
    trace while the sweep runs. Once all are complete the staging directory
    is renamed to ``out_dir`` or, if that exists, its files are moved in. On
    any failure the staging directory is removed and ``out_dir`` is left as
    it was.
    """
    out = Path(out_dir)
    outputs = {"curves_csv": "sweep.csv"}
    if raw_samples:
        outputs["raw_samples_csv"] = "samples.csv"
    if trace:
        outputs["trace_ndjson"] = "trace.ndjson"
    names = [*outputs.values(), "manifest.json"]
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        # mkdtemp makes the directory private; give it the mode mkdir would.
        umask = os.umask(0)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)
        with open(stage / "trace.ndjson", "w", encoding="ascii") if trace else nullcontext() as fh:
            sink = (lambda event: fh.write(json.dumps(event) + "\n")) if trace else None
            result = sweep(cfg, workers=workers, keep_samples=raw_samples, trace_sink=sink)
        (stage / "sweep.csv").write_text(result.to_csv(), encoding="ascii")
        if raw_samples:
            (stage / "samples.csv").write_text(result.raw_samples_csv(), encoding="ascii")
        manifest = {
            "tool": "knockon",
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "generator_version": GENERATOR_VERSION,
            "config": _config_echo(cfg),
            "workers": workers,
            "total_seconds": result.total_seconds,
            "per_layer_seconds": result.per_layer_seconds,
            "realized_density_mean": result.realized_density_mean,
            "outputs": {key: str(out / name) for key, name in outputs.items()},
        }
        (stage / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="ascii")
        if out.exists():
            for name in names:
                os.replace(stage / name, out / name)
            stage.rmdir()
        else:
            stage.rename(out)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    for name in names:
        print(f"wrote {out / name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knockon",
        description="Insolvency-contagion simulator for interbank credit networks",
    )
    parser.add_argument("--version", action="version", version=f"knockon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a random topology as an edge list")
    p_gen.add_argument("--config", required=True, help="scenario file")
    p_gen.add_argument("--out", required=True, help="output edge-list path")

    p_ins = sub.add_parser("inspect", help="balance sheets for an edge-list topology")
    p_ins.add_argument("topology", help="edge-list file")
    p_ins.add_argument("--config", required=True, help="scenario file")
    p_ins.add_argument("--out", default=None, help="output directory (default: stdout)")

    p_sw = sub.add_parser("sweep", help="Monte Carlo sweep over the capital-ratio grid")
    p_sw.add_argument("--config", required=True, help="scenario file")
    p_sw.add_argument("--out", required=True, help="output directory")
    p_sw.add_argument("--workers", type=int, default=1, help="process count (default 1)")
    p_sw.add_argument("--raw-samples", action="store_true", help="also write per-replication counts")
    p_sw.add_argument("--trace", action="store_true", help="also write per-default trace records")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "generate":
            cmd_generate(cfg, args.out)
            return EXIT_OK
        if args.command == "inspect":
            return cmd_inspect(args.topology, cfg, args.out)
        if args.command == "sweep":
            cmd_sweep(
                cfg, args.out,
                workers=args.workers,
                raw_samples=args.raw_samples,
                trace=args.trace,
            )
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, ParseError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KnockonError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
