"""Command-line front end: generate topologies, inspect balance sheets,
run capital-ratio sweeps.

Scenario files are flat INI text: a required ``[scenario]`` section and an
optional ``[surcharge]`` section. ``_SCHEMA`` below lists the keys of both,
and the README's grammar table documents them. A key whose field has no
default is required, so a ``[surcharge]`` section needs both its keys. Key
names match case-insensitively. An unknown key or section is a config
error. Exit codes: 0 success, 2 config or input error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from contextlib import nullcontext, suppress
from datetime import datetime, timezone
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple

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

#: The most capital ratios an ``r_grid`` range may give.
MAX_RANGE_VALUES = 10_000

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_grid(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"range start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        # Counted before the loop, and the loop bounded too: rounding to 10
        # places keeps start + k * step at start for a tiny step.
        if (stop - start) / step >= MAX_RANGE_VALUES:
            raise ValueError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
        values = []
        for k in range(MAX_RANGE_VALUES + 1):
            value = round(start + k * step, 10)
            if value > stop + step * 1e-9:
                return tuple(values)
            values.append(value)
        raise ValueError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_loss_rule(text: str) -> LossRule:
    try:
        return LossRule(text)
    except ValueError:
        raise ValueError(f"must be amplified or capped, got {text!r}") from None


class _Key(NamedTuple):
    """One scenario-file key: its section, its name as files and the
    manifest write it, the dataclass field it fills and its parser."""

    section: str
    name: str
    field: str
    parse: Callable[[str], object]


# Every scenario-file key, in the order emit_config and the manifest list them.
_SCHEMA = (
    _Key("scenario", "n", "n_banks", int),
    _Key("scenario", "topology", "topology_kind", str),
    _Key("scenario", "topology_path", "topology_path", lambda text: text or None),
    _Key("scenario", "p", "density", float),
    _Key("scenario", "Q", "loan_fraction", float),
    _Key("scenario", "s", "lender_power", float),
    _Key("scenario", "t", "borrower_power", float),
    _Key("scenario", "E", "total_external", float),
    _Key("scenario", "r_grid", "capital_ratio_grid", _parse_grid),
    _Key("scenario", "replications", "replications", int),
    _Key("scenario", "seed", "master_seed", int),
    _Key("scenario", "loss_rule", "loss_rule", _parse_loss_rule),
    _Key("surcharge", "R_s", "surcharge_ratio", float),
    _Key("surcharge", "biggest_fraction", "biggest_fraction", float),
)
_SECTIONS = {"scenario": ScenarioConfig, "surcharge": SurchargePolicy}
# Defaults of scenario files that ScenarioConfig itself does not have.
_FILE_DEFAULTS = {"p": 0.0, "replications": 10000}


def _read_section(path: Path, parser: configparser.ConfigParser, section: str) -> dict:
    """The dataclass fields one section sets. A key the file leaves out
    takes its file default, else its field's default, else is missing."""
    keys = [key for key in _SCHEMA if key.section == section]
    known = {key.name.lower() for key in keys}
    for name in parser[section]:
        if name not in known:
            raise ConfigError(f"{path}: unknown key {name!r} in [{section}]")
    has_default = {
        f.name for f in dataclasses.fields(_SECTIONS[section])
        if f.default is not dataclasses.MISSING
    }
    values = {}
    for key in keys:
        text = parser[section].get(key.name)
        if text is not None:
            try:
                values[key.field] = key.parse(text)
            except ValueError as exc:
                raise ConfigError(f"{path}: {key.name}: {exc}") from exc
        elif key.name in _FILE_DEFAULTS:
            values[key.field] = _FILE_DEFAULTS[key.name]
        elif key.field not in has_default:
            raise ConfigError(f"{path}: missing required key {key.name!r} in [{section}]")
    return values


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
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    sections = parser.sections()
    if parser.defaults():
        # configparser lists no [DEFAULT] but copies its keys into every section.
        sections.append(parser.default_section)
    for section in sections:
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    if not parser.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")
    fields = _read_section(path, parser, "scenario")
    if parser.has_section("surcharge"):
        fields["surcharge"] = SurchargePolicy(**_read_section(path, parser, "surcharge"))
    cfg = ScenarioConfig(**fields)
    try:
        cfg.validate()
    except InvalidParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if cfg.topology_kind == EXTERNAL and cfg.topology_path:
        resolved = Path(cfg.topology_path)
        if not resolved.is_absolute():
            cfg = dataclasses.replace(cfg, topology_path=str(path.parent / resolved))
    return cfg


def _section_echo(owner: object, section: str) -> dict:
    """One section's keys and their values, as JSON types."""
    echo = {}
    for key in _SCHEMA:
        if key.section == section:
            value = getattr(owner, key.field)
            if isinstance(value, Enum):
                value = value.value
            echo[key.name] = list(value) if isinstance(value, tuple) else value
    return echo


def _config_echo(cfg: ScenarioConfig) -> dict:
    """The scenario as the manifest records it: the ``[scenario]`` keys,
    plus a nested ``surcharge`` when there is one."""
    echo = _section_echo(cfg, "scenario")
    if cfg.surcharge is not None:
        echo["surcharge"] = _section_echo(cfg.surcharge, "surcharge")
    return echo


def emit_config(cfg: ScenarioConfig) -> str:
    """Render a ScenarioConfig back to scenario-file text; parse_config on
    the result reproduces the config exactly."""
    blocks = []
    for section, owner in (("scenario", cfg), ("surcharge", cfg.surcharge)):
        if owner is None:
            continue
        lines = [f"[{section}]"]
        for name, value in _section_echo(owner, section).items():
            if value is not None:
                text = ", ".join(map(str, value)) if isinstance(value, list) else value
                lines.append(f"{name} = {text}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


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
    any failure the staging directory and any parent directories this call
    created are removed, and ``out_dir`` is left as it was.
    """
    out = Path(out_dir)
    outputs = {"curves_csv": "sweep.csv"}
    if raw_samples:
        outputs["raw_samples_csv"] = "samples.csv"
    if trace:
        outputs["trace_ndjson"] = "trace.ndjson"
    names = [*outputs.values(), "manifest.json"]
    # Parent directories this call creates, deepest first, removed on failure.
    created = []
    for parent in (out.parent, *out.parent.parents):
        if parent.exists():
            break
        created.append(parent)
    stage = None
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
        # mkdtemp makes the directory private; give it the mode mkdir would.
        umask = os.umask(0)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)
        with open(stage / "trace.ndjson", "w", encoding="ascii") if trace else nullcontext() as fh:
            sink = (lambda event: fh.write(json.dumps(event) + "\n")) if trace else None
            result = sweep(cfg, workers=workers, trace_sink=sink)
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
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for parent in created:
            # rmdir removes only empty directories, so nothing else is lost.
            with suppress(OSError):
                parent.rmdir()
        raise
    for name in names:
        print(f"wrote {out / name}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every main() call can reuse it."""
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
