import errno
import json
import multiprocessing
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest

from knockon import (
    ConfigError,
    LossRule,
    RngStream,
    ScenarioConfig,
    SurchargePolicy,
    Topology,
    gen_erdos_renyi,
    write_edge_list,
)
from knockon import __version__
from knockon.cli import (
    _SCHEMA, MAX_RANGE_VALUES, _build_parser, _parse_grid, emit_config, main, parse_config
)
from knockon.netgen import GENERATOR_VERSION, MAX_BANKS

from conftest import time_limit

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(
    [*REPO.glob("demos/configs/*.cfg"), *REPO.glob("bench/scenarios/*.cfg")]
)

MINIMAL = """
[scenario]
n = 500
topology = homogeneous
p = 0.005
Q = 0.1
r_grid = 0.01:0.10:0.01
seed = 42
"""
SURCHARGE = "\n[surcharge]\nR_s = 0.025\nbiggest_fraction = 0.1\n"


def staging_dirs(out_dir):
    """Staging directories a sweep into ``out_dir`` left behind."""
    return list(out_dir.parent.glob(f".{out_dir.name}.*"))


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.n_banks == 500
        assert cfg.topology_kind == "homogeneous"
        assert cfg.density == 0.005
        assert cfg.loan_fraction == 0.1
        assert cfg.replications == 10000
        assert cfg.total_external == 1.0
        assert cfg.loss_rule is LossRule.AMPLIFIED
        assert cfg.surcharge is None
        assert len(cfg.capital_ratio_grid) == 10
        assert cfg.capital_ratio_grid[0] == 0.01
        assert cfg.capital_ratio_grid[-1] == 0.1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_syntax_error_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, "n = 500\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_invariant_violation_names_field(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL.replace("Q = 0.1", "Q = 0.6"))
        with pytest.raises(ConfigError, match="Q.*\\(0, 0.5\\)"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "volatility = 3\n")
        with pytest.raises(ConfigError, match="volatility"):
            parse_config(path)

    def test_bad_loss_rule(self, tmp_path):
        path = write_cfg(tmp_path, MINIMAL + "loss_rule = worst\n")
        with pytest.raises(ConfigError, match="loss_rule"):
            parse_config(path)

    def test_surcharge_section(self, tmp_path):
        text = MINIMAL + "\n[surcharge]\nR_s = 0.025\nbiggest_fraction = 0.1\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.surcharge == SurchargePolicy(0.025, 0.1)
        # 10% of 500 banks puts the extra equity on 50 banks
        assert int(np.floor(cfg.surcharge.biggest_fraction * cfg.n_banks + 1e-9)) == 50

    def test_grid_as_comma_list(self, tmp_path):
        text = MINIMAL.replace("r_grid = 0.01:0.10:0.01", "r_grid = 0.02, 0.05, 0.1")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.capital_ratio_grid == (0.02, 0.05, 0.1)

    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig(
            n_banks=77,
            topology_kind="heterogeneous",
            density=0.02,
            loan_fraction=0.22,
            capital_ratio_grid=(0.01, 0.033, 0.21),
            replications=512,
            master_seed=99,
            lender_power=2.0,
            borrower_power=1.5,
            total_external=3.5,
            loss_rule=LossRule.CAPPED,
            surcharge=SurchargePolicy(0.0125, 0.15),
        )
        path = write_cfg(tmp_path, emit_config(cfg))
        assert parse_config(path) == cfg

    def test_round_trip_minimal(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        again = parse_config(write_cfg(tmp_path, emit_config(cfg), "again.cfg"))
        assert again == cfg

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_configs_round_trip(self, tmp_path, path):
        cfg = parse_config(path)
        assert parse_config(write_cfg(tmp_path, emit_config(cfg))) == cfg

    def test_key_names_match_in_any_case(self, tmp_path):
        text = MINIMAL + "E = 2.5\n" + SURCHARGE
        lower = text.replace("Q =", "q =").replace("E =", "e =").replace("R_s", "r_s")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert parse_config(write_cfg(tmp_path, lower, "lower.cfg")) == cfg
        assert cfg.total_external == 2.5
        assert cfg.surcharge == SurchargePolicy(0.025, 0.1)

    def test_readme_lists_the_schema_keys(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        grammar = readme.split("### Scenario file grammar", 1)[1].split("\n## ", 1)[0]
        rows = [
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in grammar.splitlines()
            if line.startswith("| `")
        ]
        assert sorted((row[0], row[1]) for row in rows) == sorted(
            (key.section, key.name) for key in _SCHEMA
        )


def test_package_version_is_written_once():
    pyproject = (REPO / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', pyproject, flags=re.M) == [__version__]


def test_range_count_cap():
    assert len(_parse_grid("0.00001:0.1:0.00001")) == MAX_RANGE_VALUES
    assert _parse_grid("0.01:0.05:0.01") == (0.01, 0.02, 0.03, 0.04, 0.05)
    for text in ("0.00001:0.10001:0.00001", "0.01:0.01:1e-300"):
        with time_limit(5), pytest.raises(ValueError, match="more than 10000 values"):
            _parse_grid(text)


class TestConfigErrorsExitTwo:
    @pytest.mark.parametrize(
        "text, message",
        [
            (MINIMAL + SURCHARGE.replace("R_s", "Rs"), "unknown key 'rs' in [surcharge]"),
            (MINIMAL + SURCHARGE.replace("[surcharge]", "[surchage]"), "unknown section [surchage]"),
            ("[DEFAULT]\nseed = 5\n" + MINIMAL.replace("seed = 42\n", ""), "unknown section [DEFAULT]"),
            (MINIMAL + SURCHARGE.replace("R_s = 0.025\n", ""), "missing required key 'R_s'"),
            (
                MINIMAL + SURCHARGE.replace("biggest_fraction = 0.1\n", ""),
                "missing required key 'biggest_fraction'",
            ),
            (MINIMAL + "initial_bank_policy = uniform_random\n", "unknown key 'initial_bank_policy'"),
            (MINIMAL.replace("seed = 42\n", ""), "missing required key 'seed'"),
            (MINIMAL.replace("n = 500", "n = many"), "n: invalid literal"),
            (MINIMAL.replace("r_grid = 0.01:0.10:0.01", "r_grid = 0.01:0.10"), "r_grid: range"),
            # A range with a non-finite start, stop or step would never end.
            (MINIMAL.replace("0.01:0.10:0.01", "0.01:0.05:nan"), "r_grid: range"),
            (MINIMAL.replace("0.01:0.10:0.01", "0.01:inf:0.01"), "r_grid: range"),
            (MINIMAL.replace("0.01:0.10:0.01", "nan:0.05:0.01"), "r_grid: range"),
            # Ranges with a huge count would grow until memory runs out.
            (MINIMAL.replace("0.01:0.10:0.01", "0.01:1e12:0.01"), "r_grid: range"),
            (MINIMAL.replace("0.01:0.10:0.01", "0.01:0.5:1e-15"), "r_grid: range"),
            (MINIMAL.replace("0.01:0.10:0.01", "0.01:0.01:1e-300"), "r_grid: range"),
            (MINIMAL.replace("n = 500", f"n = {MAX_BANKS + 1}"), "at most"),
            (MINIMAL.replace("n = 500", "n = 3037000499").replace("0.005", "1e-18"), "at most"),
            (MINIMAL.replace("n = 500", "n = 4000000000"), "at most"),
        ],
    )
    def test_sweep_exits_two_without_output(self, tmp_path, capsys, text, message):
        out_dir = tmp_path / "x"
        with time_limit(5):
            code = main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out_dir)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [key.name for key in _SCHEMA if key.parse is float])
    def test_non_finite_float_exits_two(self, tmp_path, capsys, name, value):
        cfg = ScenarioConfig(
            n_banks=50, topology_kind="homogeneous", density=0.1, loan_fraction=0.1,
            capital_ratio_grid=(0.05,), replications=2, master_seed=1,
            surcharge=SurchargePolicy(0.01, 0.1),
        )
        text, count = re.subn(f"^{name} = .*$", f"{name} = {value}", emit_config(cfg), flags=re.M)
        assert count == 1
        out_dir = tmp_path / "x"
        code = main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()


class TestUnreadableInputExitsTwo:
    """An input file that cannot be read is an input error: exit 2, a
    one-line message and no output."""

    @staticmethod
    def assert_input_error(capsys, code, out_dir, message):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out_dir.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.cfg"
        cfg_path.write_bytes(("# caf\u00e9\n" + MINIMAL).encode("latin-1"))
        out_dir = tmp_path / "x"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
        self.assert_input_error(capsys, code, out_dir, "latin1.cfg")

    def test_edge_list_not_ascii(self, tmp_path, capsys):
        edge_path = tmp_path / "net.edges"
        edge_path.write_bytes("N 2\n0 1 \u00e9\n".encode("utf-8"))
        cfg_path = write_cfg(tmp_path, MINIMAL.replace("n = 500", "n = 2"))
        out_dir = tmp_path / "report"
        code = main(["inspect", str(edge_path), "--config", str(cfg_path), "--out", str(out_dir)])
        self.assert_input_error(capsys, code, out_dir, "net.edges")

    def test_edge_list_missing(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, MINIMAL.replace("n = 500", "n = 2"))
        out_dir = tmp_path / "report"
        code = main([
            "inspect", str(tmp_path / "absent.edges"), "--config", str(cfg_path),
            "--out", str(out_dir),
        ])
        self.assert_input_error(capsys, code, out_dir, "absent.edges")

    def test_sweep_topology_path_missing(self, tmp_path, capsys):
        text = MINIMAL.replace("topology = homogeneous", "topology = external")
        text += "topology_path = absent.edges\n"
        cfg_path = write_cfg(tmp_path, text)
        out_dir = tmp_path / "new" / "x"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
        self.assert_input_error(capsys, code, out_dir, "absent.edges")
        assert staging_dirs(out_dir) == []
        assert not (tmp_path / "new").exists()


class TestGenerate:
    def test_writes_edge_list(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "net.edges"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N 500"
        sigma = (500 * 499 * 0.005 * 0.995) ** 0.5
        assert abs((len(lines) - 1) - 1247.5) <= 4 * sigma
        assert "density" in capsys.readouterr().out

    def test_complete_graph_line_count(self, tmp_path):
        text = MINIMAL.replace("n = 500", "n = 10").replace("p = 0.005", "p = 1")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "net.edges"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 90

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINIMAL)
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        main(["generate", "--config", str(cfg_path), "--out", str(a)])
        main(["generate", "--config", str(cfg_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_external_kind_rejected(self, tmp_path, capsys):
        text = MINIMAL.replace("topology = homogeneous", "topology = external")
        text += "topology_path = whatever.edges\n"
        cfg_path = write_cfg(tmp_path, text)
        code = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestInspect:
    def make_pair(self, tmp_path):
        edge_path = tmp_path / "pair.edges"
        write_edge_list(Topology(2, np.array([[0, 1]]), "external"), edge_path)
        text = """
[scenario]
n = 2
topology = external
topology_path = pair.edges
Q = 0.1
E = 1.8
r_grid = 0.05
seed = 1
"""
        return edge_path, write_cfg(tmp_path, text)

    def test_balance_csv_values(self, tmp_path, capsys):
        edge_path, cfg_path = self.make_pair(tmp_path)
        assert main(["inspect", str(edge_path), "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "bank,E,I,B,C,D,A,surcharge"
        row1 = lines[2].split(",")
        assert float(row1[1]) == pytest.approx(1.0)
        assert float(row1[3]) == pytest.approx(0.2)
        assert float(row1[4]) == pytest.approx(0.05)
        assert float(row1[5]) == pytest.approx(0.75)
        assert "all identities hold" in out

    def test_writes_files_with_out_dir(self, tmp_path):
        edge_path, cfg_path = self.make_pair(tmp_path)
        out_dir = tmp_path / "report"
        code = main([
            "inspect", str(edge_path), "--config", str(cfg_path), "--out", str(out_dir)
        ])
        assert code == 0
        assert (out_dir / "balance.csv").exists()
        assert (out_dir / "validation.txt").read_text().strip() == "all identities hold"

    def test_surcharge_section(self, tmp_path, capsys):
        edge_path = tmp_path / "net.edges"
        write_edge_list(gen_erdos_renyi(50, 0.1, RngStream(3, 0).generator()), edge_path)
        text = MINIMAL.replace("n = 500", "n = 50") + SURCHARGE
        cfg_path = write_cfg(tmp_path, text)
        assert main(["inspect", str(edge_path), "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split(",")[-1] == "surcharge"
        rows = [line.split(",") for line in lines[1:51]]
        assert [row[0] for row in rows] == [str(bank) for bank in range(50)]
        assert sum(float(row[-1]) != 0.0 for row in rows) == 5  # floor(0.1 * 50)
        assert "all identities hold" in out

    def test_oversized_bank_count_exits_two(self, tmp_path, capsys):
        edge_path = tmp_path / "huge.edges"
        edge_path.write_text("N 4000000000\n0 1\n")
        _, cfg_path = self.make_pair(tmp_path)
        out_dir = tmp_path / "report"
        code = main(["inspect", str(edge_path), "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 2
        assert "at most" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_edgeless_file_fails(self, tmp_path, capsys):
        edge_path = tmp_path / "empty.edges"
        edge_path.write_text("N 3\n")
        _, cfg_path = self.make_pair(tmp_path)
        code = main(["inspect", str(edge_path), "--config", str(cfg_path)])
        assert code == 3
        assert "interbank" in capsys.readouterr().err


SWEEP_CFG = """
[scenario]
n = 80
topology = homogeneous
p = 0.05
Q = 0.1
r_grid = 0.02, 0.06
replications = 50
seed = 7
loss_rule = capped
"""


class TestSweepCommand:
    def test_end_to_end(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        out_dir = tmp_path / "run"
        code = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        csv_lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "R,mean,std,mean_plus_std,p90,p95,p99,max,knock_on_fraction"
        assert len(csv_lines) == 3
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tool"] == "knockon"
        assert manifest["version"] == __version__
        assert manifest["config"]["seed"] == 7
        assert manifest["config"]["replications"] == 50
        assert manifest["config"]["loss_rule"] == "capped"
        assert manifest["workers"] == 1
        assert set(manifest["per_layer_seconds"]) == {"topology", "weights", "sheets", "cascade"}
        assert all(s >= 0.0 for s in manifest["per_layer_seconds"].values())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()
        assert manifest["generator_version"] == GENERATOR_VERSION
        assert manifest["total_seconds"] > 0.0
        for path in manifest["outputs"].values():
            assert Path(path).parent == out_dir
            assert Path(path).exists()
        assert staging_dirs(out_dir) == []
        # the renamed staging directory has the mode mkdir would have given
        umask = os.umask(0)
        os.umask(umask)
        assert out_dir.stat().st_mode & 0o777 == 0o777 & ~umask

    def test_manifest_config_has_the_schema_keys(self, tmp_path):
        out_dir = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, SWEEP_CFG + SURCHARGE)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
        config = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert list(config) == [
            "n", "topology", "topology_path", "p", "Q", "s", "t", "E", "r_grid",
            "replications", "seed", "loss_rule", "surcharge",
        ]
        assert config["surcharge"] == {"R_s": 0.025, "biggest_fraction": 0.1}
        assert [*config][:-1] + [*config["surcharge"]] == [key.name for key in _SCHEMA]

    def test_raw_samples_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        out_dir = tmp_path / "run"
        code = main([
            "sweep", "--config", str(cfg_path), "--out", str(out_dir), "--raw-samples"
        ])
        assert code == 0
        raw = (out_dir / "samples.csv").read_text().splitlines()
        assert raw[0] == "R,stream_index,N_d"
        assert len(raw) == 1 + 2 * 50

    def test_trace_flag(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        out_dir = tmp_path / "run"
        code = main([
            "sweep", "--config", str(cfg_path), "--out", str(out_dir), "--trace"
        ])
        assert code == 0
        lines = (out_dir / "trace.ndjson").read_text().splitlines()
        assert lines
        event = json.loads(lines[0])
        assert {"stream_index", "R", "round", "bank", "distress", "transmitted"} == set(event)

    def test_trace_identical_across_workers(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        for out_dir, workers in ((d1, "1"), (d2, "2")):
            code = main([
                "sweep", "--config", str(cfg_path), "--out", str(out_dir),
                "--trace", "--workers", workers,
            ])
            assert code == 0
        trace = (d1 / "trace.ndjson").read_bytes()
        assert trace
        assert trace == (d2 / "trace.ndjson").read_bytes()

    def test_missing_parent_directories_are_created(self, tmp_path, capsys):
        out_dir = tmp_path / "new" / "deeper" / "run"
        code = main(["sweep", "--config", str(write_cfg(tmp_path, SWEEP_CFG)), "--out", str(out_dir)])
        assert code == 0
        assert sorted(f.name for f in out_dir.iterdir()) == ["manifest.json", "sweep.csv"]

    def test_existing_directory_receives_files(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        out_dir.mkdir()
        (out_dir / "sweep.csv").write_text("earlier run\n")
        (out_dir / "notes.txt").write_text("kept\n")
        code = main(["sweep", "--config", str(write_cfg(tmp_path, SWEEP_CFG)), "--out", str(out_dir)])
        assert code == 0
        assert sorted(f.name for f in out_dir.iterdir()) == ["manifest.json", "notes.txt", "sweep.csv"]
        assert (out_dir / "sweep.csv").read_text().startswith("R,mean")
        assert (out_dir / "notes.txt").read_text() == "kept\n"
        assert staging_dirs(out_dir) == []

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SWEEP_CFG.replace("Q = 0.1", "Q = 0.9"))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"n = 80": "n = 2"}, "at least 3"),
            ({"n = 80": "n = 500", "p = 0.05": "p = 0.001"}, "infeasible"),
        ],
    )
    def test_heterogeneous_generator_bounds_are_config_errors(
        self, tmp_path, capsys, edit, message
    ):
        text = SWEEP_CFG.replace("topology = homogeneous", "topology = heterogeneous")
        for old, new in edit.items():
            text = text.replace(old, new)
        out_dir = tmp_path / "x"
        code = main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out_dir)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 3.0 GiB")

        monkeypatch.setattr("knockon.experiment.gen_erdos_renyi", out_of_memory)
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "Unable to allocate" in capsys.readouterr().err

    def test_weight_overflow_exits_three(self, tmp_path, capsys):
        # degree**400 overflows float64, which left every loan amount NaN.
        text = SWEEP_CFG.replace("n = 80", "n = 200").replace("p = 0.05", "p = 0.1")
        text = text.replace("Q = 0.1", "Q = 0.1\ns = 400")
        out_dir = tmp_path / "x"
        code = main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out_dir)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err and "s=400" in err
        assert not out_dir.exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, SWEEP_CFG.replace("p = 0.05", "p = 0"))
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "stream 0" in capsys.readouterr().err

    def test_failed_sweep_makes_no_output_directory(self, tmp_path, capsys):
        text = SWEEP_CFG.replace("p = 0.05\n", "")
        out_dir = tmp_path / "x"
        code = main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out_dir)])
        assert code == 3
        assert not out_dir.exists()

    def test_failed_sweep_leaves_existing_directory_alone(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        out_dir.mkdir()
        (out_dir / "sweep.csv").write_text("earlier run\n")
        text = SWEEP_CFG.replace("p = 0.05\n", "")
        code = main(["sweep", "--config", str(write_cfg(tmp_path, text)), "--out", str(out_dir)])
        assert code == 3
        assert [f.name for f in out_dir.iterdir()] == ["sweep.csv"]
        assert (out_dir / "sweep.csv").read_text() == "earlier run\n"

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched generator reaches the workers only through fork",
    )
    def test_dead_worker_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        def die(*args):
            os._exit(1)

        monkeypatch.setattr("knockon.experiment.gen_erdos_renyi", die)
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        for out_dir in (tmp_path / "x", tmp_path / "new" / "deeper" / "x"):
            code = main([
                "sweep", "--config", str(cfg_path), "--out", str(out_dir),
                "--workers", "2", "--trace",
            ])
            assert code == 3
            assert "stream 0: worker process died" in capsys.readouterr().err
            assert not out_dir.exists()
            assert staging_dirs(out_dir) == []
        assert not (tmp_path / "new").exists()

    def test_interrupt_exits_cleanly(self, tmp_path, capsys, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("knockon.experiment.gen_erdos_renyi", interrupt)
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        for out_dir in (tmp_path / "x", tmp_path / "new" / "deeper" / "x"):
            try:
                code = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir), "--trace"])
            except KeyboardInterrupt:
                pytest.fail("KeyboardInterrupt escaped main()")
            assert code == 3
            assert "error: interrupted" in capsys.readouterr().err
            assert not out_dir.exists()
            assert staging_dirs(out_dir) == []
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_full_disk_leaves_output_unchanged(self, tmp_path, capsys, monkeypatch, existing):
        write_text = Path.write_text

        def full_disk(self, *args, **kwargs):
            if self.name == "manifest.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self))
            return write_text(self, *args, **kwargs)

        out_dir = tmp_path / "x"
        if existing:
            out_dir.mkdir()
            (out_dir / "sweep.csv").write_text("earlier run\n")
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        monkeypatch.setattr(Path, "write_text", full_disk)
        code = main([
            "sweep", "--config", str(cfg_path), "--out", str(out_dir),
            "--raw-samples", "--trace",
        ])
        assert code == 3
        assert "No space left on device" in capsys.readouterr().err
        if existing:
            assert [f.name for f in out_dir.iterdir()] == ["sweep.csv"]
            assert (out_dir / "sweep.csv").read_text() == "earlier run\n"
        else:
            assert not out_dir.exists()
        assert staging_dirs(out_dir) == []

        # The parent directories the run created are removed, and only those.
        (tmp_path / "kept").mkdir()
        for out_dir in (tmp_path / "new" / "deeper" / "x", tmp_path / "kept" / "new" / "x"):
            code = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
            assert code == 3
            assert "No space left on device" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
        assert [f.name for f in tmp_path.joinpath("kept").iterdir()] == []

    def test_worker_csv_identical(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SWEEP_CFG)
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        main(["sweep", "--config", str(cfg_path), "--out", str(d1)])
        main(["sweep", "--config", str(cfg_path), "--out", str(d2), "--workers", "2"])
        assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()


def test_parser_is_reused_across_commands(tmp_path, capsys):
    # One parser serves every main() call in a process, so a call that fails
    # to parse must leave it fit for the calls after it.
    assert _build_parser() is _build_parser()
    sweep_cfg = write_cfg(tmp_path, SWEEP_CFG, "sweep.cfg")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(first), "--raw-samples"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(sweep_cfg), "--out", str(tmp_path / "x"), "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    edges = tmp_path / "net.edges"
    assert main(["generate", "--config", str(write_cfg(tmp_path, MINIMAL)), "--out", str(edges)]) == 0
    expected = tmp_path / "expected.edges"
    write_edge_list(gen_erdos_renyi(500, 0.005, RngStream(42, 0).generator()), expected)
    assert edges.read_bytes() == expected.read_bytes()
    assert f"wrote {edges}" in capsys.readouterr().out
    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(second), "--raw-samples"]) == 0
    for name in ("sweep.csv", "samples.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
