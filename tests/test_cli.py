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

from conftest import small_config, write_idx_pair


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

    @pytest.mark.parametrize(
        "environment, problem",
        [
            # the subregion side width / cols = 5e-324 / 2 rounds to 0
            ("width = 5e-324", "environment.width, height, rows and cols: subregion sides"),
            # the sides hold, but the auto radius 1.5 * 1e-323 / 8 rounds to 0
            ("width = 1e-323\nheight = 1e-323", "environment.r_c = auto underflows to 0"),
        ],
    )
    def test_degenerate_area_is_a_config_error(self, environment, problem, tmp_path, capsys):
        bad = tmp_path / "tiny.cfg"
        bad.write_text(f"[environment]\n{environment}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {problem}") and err.count("\n") == 1

    @pytest.mark.parametrize("n", [10**22, 2**63])
    def test_device_count_past_an_array_index_is_a_config_error(self, n, tmp_path, capsys):
        # both fail in the schema, before any array is allocated
        bad = tmp_path / "many.cfg"
        bad.write_text(f"[environment]\nn = {n}\n")
        assert main(["run", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2: environment.n must be in [1, ")
        assert err.endswith(f"(got {n})\n")

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

    def test_existing_directory_as_out_is_a_config_error(self, config_path, tmp_path, capsys):
        target = tmp_path / "results"
        target.mkdir()
        assert main(["run", "--config", config_path, "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"config error: output path {target} is a directory\n"
        assert captured.out == ""

    def test_out_in_a_missing_directory_is_refused_before_the_run(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "missing" / "run.csv"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"output directory {out.parent} does not exist" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("below", [False, True])
    def test_checkpoint_dir_naming_a_file_is_refused_before_the_run(
        self, tmp_path, capsys, below
    ):
        blocker = tmp_path / "ckpt"
        blocker.write_text("not a directory")
        ckpt = blocker / "inner" if below else blocker
        cfg = small_config()
        cfg = dataclasses.replace(
            cfg,
            output=dataclasses.replace(
                cfg.output, csv=str(tmp_path / "metrics.csv"), checkpoint_dir=str(ckpt)
            ),
        )
        path = tmp_path / "ckpt.cfg"
        path.write_text(format_config(cfg))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: checkpoint_dir {ckpt}: {blocker} is not a directory\n"
        assert not (tmp_path / "metrics.csv").exists()


class TestSweep:
    def test_writes_one_csv_per_psi(self, config_path, tmp_path, capsys):
        assert main(["sweep", "--config", config_path, "--psi", "0,0.5"]) == 0
        assert (tmp_path / "metrics_psi0.csv").exists()
        assert (tmp_path / "metrics_psi0.5.csv").exists()
        out = capsys.readouterr().out
        assert "psi=0:" in out and "psi=0.5:" in out

    def test_derived_csv_name_that_is_a_directory_is_refused_first(
        self, config_path, tmp_path, capsys
    ):
        (tmp_path / "metrics_psi0.5.csv").mkdir()
        assert main(["sweep", "--config", config_path, "--psi", "0,0.5"]) == 1
        err = capsys.readouterr().err
        assert f"output path {tmp_path / 'metrics_psi0.5.csv'} is a directory" in err
        assert not (tmp_path / "metrics_psi0.csv").exists()

    @pytest.mark.parametrize(
        "psis, name",
        [("0.3,0.30", "metrics_psi0.3.csv"), ("0,0.1234567,0.1234568", "metrics_psi0.123457.csv")],
    )
    def test_psi_values_that_name_one_csv_are_refused_first(
        self, psis, name, config_path, tmp_path, capsys
    ):
        # psi is formatted with :g, so two values can name one file: the
        # second run would overwrite the first
        assert main(["sweep", "--config", config_path, "--psi", psis]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: --psi list writes {tmp_path / name} more than once\n"
        assert not list(tmp_path.glob("*.csv"))

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


def _idx_config(tmp_path, classes, rows_per_class, bad_magic=False):
    """Config path of the small world (a 2x2 grid of subregions) drawing
    8 samples a device from an IDX pool of 2x2 images, rows_per_class of
    each of `classes` labels."""
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (classes * rows_per_class, 2, 2), dtype=np.uint8)
    labels = np.repeat(np.arange(classes, dtype=np.uint8), rows_per_class)
    img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
    if bad_magic:
        with open(img_path, "r+b") as fh:
            fh.write(struct.pack(">I", 0x00000801))
    cfg = small_config()
    data = dataclasses.replace(
        cfg.data,
        kind="idx-label-skew",
        idx_images=img_path,
        idx_labels=lbl_path,
        samples_per_device=8,
        test_samples=4,
    )
    output = dataclasses.replace(cfg.output, csv=str(tmp_path / "metrics.csv"))
    cfg = dataclasses.replace(cfg, data=data, output=output, layers=(4, 8, classes))
    path = tmp_path / "idx.cfg"
    path.write_text(format_config(cfg))
    return str(path)


# (classes, rows per class, bad magic) of a pool, and the message it fails with
BAD_IDX_POOLS = {
    "bad-magic": ((4, 20, True), "bad magic 0x00000801"),
    "too-few-classes": ((2, 20, False), "pool has 2 classes, cannot cover 4 subregions"),
    "pool-exhausted": ((4, 3, False), "pool exhausted for subregion 0"),
}


class TestIdxInput:
    @pytest.mark.parametrize("case", list(BAD_IDX_POOLS))
    def test_bad_pool_is_a_config_error_under_run(self, case, tmp_path, capsys):
        pool, message = BAD_IDX_POOLS[case]
        assert main(["run", "--config", _idx_config(tmp_path, *pool)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_bad_pool_is_a_config_error_under_calibrate_tau(self, tmp_path, capsys):
        pool, message = BAD_IDX_POOLS["bad-magic"]
        assert main(["calibrate-tau", "--config", _idx_config(tmp_path, *pool)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

    def test_a_sufficient_pool_runs(self, tmp_path):
        assert main(["run", "--config", _idx_config(tmp_path, 4, 20)]) == 0
        assert (tmp_path / "metrics.csv").exists()


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

    def test_a_diverging_run_prints_one_error_line(self, tmp_path):
        # numpy's overflow and invalid-value warnings stay off stderr
        cfg = small_config(learning_rate=1e30)
        cfg = dataclasses.replace(
            cfg, output=dataclasses.replace(cfg.output, csv=str(tmp_path / "metrics.csv"))
        )
        path = tmp_path / "diverging.cfg"
        path.write_text(format_config(cfg))
        proc = subprocess.run(
            [sys.executable, "-m", "sparsefuel.cli", "run", "--config", str(path)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 2
        assert re.fullmatch(r"error: FloatingPointError: round 1: [^\n]*\n", proc.stderr), proc.stderr

    def test_a_quadrant_round_and_an_idx_world_leave_numpy_ma_unimported(self, tmp_path):
        # importing numpy.ma adds about 1 MB to a process's peak RSS, which the
        # benchmark gates; neither a run nor an IDX world needs it
        script = (
            "import dataclasses, sys\n"
            "from sparsefuel.harness import build_world, load_config, run_experiment_result\n"
            "cfg = load_config(sys.argv[1])\n"
            "run_experiment_result(dataclasses.replace(cfg, protocol=dataclasses.replace(cfg.protocol, rounds=1)))\n"
            "build_world(load_config(sys.argv[2]))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        quadrant = Path(__file__).resolve().parents[1] / "configs" / "quadrant.cfg"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(quadrant), _idx_config(tmp_path, 4, 20)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_calibration_leaves_numpy_ma_unimported(self, tmp_path):
        # calibrate_tau takes its medians by a partition: np.median's NaN
        # check imports numpy.ma
        path = tmp_path / "small.cfg"
        path.write_text(format_config(small_config()))
        script = (
            "import sys\n"
            "from sparsefuel.harness import calibrate_tau, load_config\n"
            "calibrate_tau(load_config(sys.argv[1]))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

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
