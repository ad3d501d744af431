import dataclasses
import os
import re
import struct
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import sparsefuel
from sparsefuel.cli import main
from sparsefuel.compression import (
    HEADER_BYTES,
    SHAPE_BYTES_PER_TENSOR,
    CompressionStrategy,
    compress,
    to_bytes,
)
from sparsefuel.harness import calibrate_tau, format_config
from sparsefuel.neuralnet import Architecture, init_parameters

from conftest import small_config


@pytest.fixture
def config_path(tmp_path):
    cfg = small_config()
    cfg = dataclasses.replace(
        cfg, output=dataclasses.replace(cfg.output, csv=str(tmp_path / "metrics.csv"))
    )
    path = tmp_path / "experiment.cfg"
    path.write_text(format_config(cfg))
    return str(path)


class TestRun:
    def test_writes_csv_and_reports(self, config_path, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        assert "final federations=" in captured.out
        text = out.read_text()
        assert text.splitlines()[0].startswith("round,federations,objective")
        assert len(text.splitlines()) == 3

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", config_path, "--out", str(a)]) == 0
        assert main(["run", "--config", config_path, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_out_path_comes_from_config(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", config_path]) == 0
        assert (tmp_path / "metrics.csv").exists()

    def test_arm_choices_are_enforced(self, config_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--config", config_path, "--arm", "p2p"])
        assert "--arm" in capsys.readouterr().err

    def test_isolated_arm_runs(self, config_path, tmp_path):
        out = tmp_path / "iso.csv"
        assert main(["run", "--config", config_path, "--arm", "isolated", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[1] == "9" for row in rows)  # all singletons

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_invalid_config_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[protocol]\npsi = 2.0\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_directory_as_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: config file not found")

    def test_infinite_width_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "wide.cfg"
        bad.write_text("[environment]\nwidth = inf\n")
        assert main(["run", "--config", str(bad)]) == 1
        assert "environment.width must be finite and > 0" in capsys.readouterr().err

    def test_checkpoints_written_when_configured(self, tmp_path, capsys):
        cfg = small_config()
        cfg = dataclasses.replace(
            cfg,
            output=dataclasses.replace(
                cfg.output,
                csv=str(tmp_path / "metrics.csv"),
                checkpoint_dir=str(tmp_path / "ckpt"),
            ),
        )
        path = tmp_path / "ckpt.cfg"
        path.write_text(format_config(cfg))
        assert main(["run", "--config", str(path)]) == 0
        assert "wrote checkpoint" in capsys.readouterr().out
        assert (tmp_path / "ckpt" / "final_dense.spfl").exists()
        assert (tmp_path / "ckpt" / "final_sparse+quantized.spfl").exists()


class TestSweep:
    def test_writes_one_csv_per_psi(self, config_path, tmp_path, capsys):
        assert main(["sweep", "--config", config_path, "--psi", "0,0.5"]) == 0
        assert (tmp_path / "metrics_psi0.csv").exists()
        assert (tmp_path / "metrics_psi0.5.csv").exists()
        out = capsys.readouterr().out
        assert "psi=0:" in out and "psi=0.5:" in out

    def test_psi_out_of_range(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--psi", "0.3,1.2"]) == 1
        assert "must be in [0, 1]" in capsys.readouterr().err

    def test_unparseable_psi_list(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--psi", "0.3,high"]) == 1
        assert "cannot parse --psi" in capsys.readouterr().err

    def test_empty_psi_list(self, config_path, capsys):
        assert main(["sweep", "--config", config_path, "--psi", ","]) == 1
        assert "empty" in capsys.readouterr().err


class TestCalibrateTau:
    def test_prints_recommendation_matching_api(self, config_path, capsys):
        assert main(["calibrate-tau", "--config", config_path, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("recommended tau = "))
        printed = float(line.removeprefix("recommended tau = "))
        expected = calibrate_tau(small_config(), seed=3).tau
        assert printed == pytest.approx(expected, rel=1e-5)
        assert "intra-region median ds" in out
        assert "inter-region median ds" in out

    def test_warmup_zero_accepted(self, config_path, capsys):
        assert main(["calibrate-tau", "--config", config_path, "--warmup", "0"]) == 0

    def test_negative_warmup_rejected(self, config_path, capsys):
        assert main(["calibrate-tau", "--config", config_path, "--warmup", "-1"]) == 1
        assert "--warmup" in capsys.readouterr().err

    def test_single_region_world_is_a_config_error(self, tmp_path, capsys):
        cfg = small_config()
        cfg = dataclasses.replace(
            cfg,
            environment=dataclasses.replace(cfg.environment, rows=1, cols=1),
            data=dataclasses.replace(cfg.data, classes_per_subregion=4),
        )
        path = tmp_path / "one-region.cfg"
        path.write_text(format_config(cfg))
        assert main(["calibrate-tau", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "intra- and inter-region" in err


class TestInspectModel:
    def test_describes_a_checkpoint(self, tmp_path, capsys):
        params = init_parameters(Architecture((2, 8, 4)), 0)
        blob = to_bytes(compress(params, CompressionStrategy("sparse+quantized", 0.3)))
        path = tmp_path / "model.spfl"
        path.write_bytes(blob)
        assert main(["inspect-model", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind: sparse+quantized" in out
        assert "parameters: 60" in out  # 2*8+8 + 8*4+4
        assert f"(file: {len(blob)})" in out
        assert "nonzero macs:" in out

    def test_garbage_file_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "junk.spfl"
        path.write_bytes(b"definitely not a model")
        assert main(["inspect-model", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_shape_chain_mismatch_is_a_config_error(self, tmp_path, capsys):
        params = init_parameters(Architecture((2, 3, 4)), 0)
        blob = bytearray(to_bytes(compress(params, CompressionStrategy("dense"))))
        # tensor 2 (W1, 4x3) becomes 6x2: the same value count, but its fan-in
        # no longer matches W0's 3 rows
        at = HEADER_BYTES + 2 * SHAPE_BYTES_PER_TENSOR + 4 * (3 * 2 + 3)
        assert struct.unpack_from("<II", blob, at) == (4, 3)
        struct.pack_into("<II", blob, at, 6, 2)
        path = tmp_path / "bad-shape.spfl"
        path.write_bytes(bytes(blob))
        assert main(["inspect-model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "fan-in 2 does not match previous fan-out 3" in err

    def test_non_finite_scale_is_a_config_error(self, tmp_path, capsys):
        params = init_parameters(Architecture((2, 3, 4)), 0)
        blob = bytearray(to_bytes(compress(params, CompressionStrategy("quantized"))))
        # tensor 0's quantization scale follows the header and its shape record
        struct.pack_into("<f", blob, HEADER_BYTES + SHAPE_BYTES_PER_TENSOR, float("nan"))
        path = tmp_path / "nan-scale.spfl"
        path.write_bytes(bytes(blob))
        assert main(["inspect-model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "tensor 0: quantization scale nan is not finite" in err

    def test_non_finite_weight_is_a_config_error(self, tmp_path, capsys):
        params = init_parameters(Architecture((2, 3, 4)), 0)
        blob = bytearray(to_bytes(compress(params, CompressionStrategy("dense"))))
        # W0[0, 0] is the first f32 after the header and its shape record
        struct.pack_into("<f", blob, HEADER_BYTES + SHAPE_BYTES_PER_TENSOR, float("inf"))
        path = tmp_path / "inf-weight.spfl"
        path.write_bytes(bytes(blob))
        assert main(["inspect-model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "tensor 0: values are not all finite" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["inspect-model", str(tmp_path / "absent.spfl")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["inspect-model", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: model file not found")


@pytest.mark.parametrize("command", ["run", "sweep", "calibrate-tau"])
def test_negative_seed_is_a_config_error(command, config_path, capsys):
    assert main([command, "--config", config_path, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "seed must be >= 0, got -1" in err


REPO_ROOT = Path(__file__).resolve().parents[1]

# What pip's generated console-script wrapper does, minus the file on PATH:
# load the declared entry point, run it under the script's name, exit with
# its return value. argv[1] is the `module:attr` value; the rest go to main.
_CONSOLE_SCRIPT_SHIM = """\
import sys
from importlib.metadata import EntryPoint
value = sys.argv.pop(1)
func = EntryPoint("sparsefuel", value, "console_scripts").load()
sys.argv[0] = "sparsefuel"
sys.exit(func())
"""


def _declared_console_script():
    """The `sparsefuel` value under [project.scripts] in the repo's pyproject.toml."""
    if sys.version_info < (3, 11):
        toml = pytest.importorskip("tomli")
    else:
        import tomllib as toml
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = toml.load(fh).get("project", {}).get("scripts", {})
    assert "sparsefuel" in scripts, "pyproject.toml declares no sparsefuel console script"
    return scripts["sparsefuel"]


def _child_env():
    """Environment whose child interpreter imports the sparsefuel under test."""
    package_parent = str(Path(sparsefuel.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    return env


class TestSubprocess:
    def test_module_entry_point_runs(self, config_path, tmp_path):
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sparsefuel.cli", "run", "--config", config_path, "--out", str(out)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_console_script_help(self):
        value = _declared_console_script()
        assert EntryPoint("sparsefuel", value, "console_scripts").load() is main
        proc = subprocess.run(
            [sys.executable, "-c", _CONSOLE_SCRIPT_SHIM, value, "--help"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: sparsefuel" in proc.stdout
        for command in ("run", "sweep", "calibrate-tau", "inspect-model"):
            assert re.search(rf"^\s+{command}\s", proc.stdout, re.MULTILINE), proc.stdout
