import dataclasses
import math
import re
import string
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefuel.compression import KINDS, decompress, from_bytes
from sparsefuel.environment import PLACEMENTS, sample_local_dataset
from sparsefuel.harness import (
    KEY_TABLE,
    ConfigError,
    DataConfig,
    EnvironmentConfig,
    ExperimentConfig,
    MetricsRecord,
    OutputConfig,
    ProtocolSection,
    build_world,
    calibrate_tau,
    format_config,
    load_config,
    make_state,
    metrics_csv_text,
    parse_config,
    resolve_radius,
    run_experiment,
    run_experiment_result,
    save_checkpoints,
    write_metrics_csv,
)
from sparsefuel.protocol import DEVICE_DTYPE, evaluate_objective
from sparsefuel.seeds import derive_seed

from conftest import reference_idx_draw, small_config, write_idx_pair


class TestParseConfig:
    def test_empty_text_yields_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.environment.n == 64
        assert cfg.environment.r_c is None
        assert cfg.layers == (2, 16, 8)
        assert cfg.protocol.kind == "sparse+quantized"
        assert cfg.num_subregions == 4

    def test_comments_and_blank_lines_are_ignored(self):
        cfg = parse_config("# top comment\n\n[environment]\n# inner\nn = 12\n")
        assert cfg.environment.n == 12

    def test_out_of_range_value_names_its_line(self):
        with pytest.raises(ConfigError, match=r"line 2: protocol\.psi must be in \[0, 1\]"):
            parse_config("[protocol]\npsi = 1.5\n")

    def test_unparseable_value_names_its_line(self):
        with pytest.raises(ConfigError, match="line 2: cannot parse 'soon'"):
            parse_config("[protocol]\nrounds = soon\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section \[network\]"):
            parse_config("[network]\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'tau'"):
            parse_config("[environment]\ntau = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key 'n'"):
            parse_config("[environment]\nn = 9\nn = 10\n")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="line 1: key before any"):
            parse_config("n = 9\n")

    def test_line_without_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("[environment]\nnonsense\n")

    def test_output_layer_must_match_total_classes(self):
        with pytest.raises(ConfigError, match="output width 9 != 4 subregions x 2 classes"):
            parse_config("[model]\nlayers = 2,16,9\n")

    def test_input_layer_must_match_feature_dim(self):
        with pytest.raises(ConfigError, match="input width 3 != data.feature_dim 2"):
            parse_config("[model]\nlayers = 3,16,8\n")

    def test_unknown_data_kind(self):
        problem = "line 2: data.kind must be synthetic-blobs or idx-label-skew (got mnist)"
        with pytest.raises(ConfigError) as raised:
            parse_config("[data]\nkind = mnist\n")
        assert str(raised.value) == problem

    def test_idx_kind_requires_paths(self):
        with pytest.raises(ConfigError, match="idx_images is required"):
            parse_config("[data]\nkind = idx-label-skew\n")

    def test_idx_paths_must_exist(self):
        text = (
            "[data]\nkind = idx-label-skew\n"
            "idx_images = /no/such/images.idx\nidx_labels = /no/such/labels.idx\n"
        )
        with pytest.raises(ConfigError, match="file not found"):
            parse_config(text)

    def test_idx_path_must_be_a_file(self, tmp_path):
        text = f"[data]\nkind = idx-label-skew\nidx_images = {tmp_path}\nidx_labels = {tmp_path}\n"
        with pytest.raises(ConfigError, match="data.idx_images: file not found"):
            parse_config(text)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("environment", "width"),
            ("environment", "height"),
            ("data", "blob_std"),
            ("protocol", "learning_rate"),
        ],
    )
    def test_positive_keys_must_be_finite(self, section, key):
        for value in ("inf", "-inf", "nan"):
            problem = rf"line 2: {section}\.{key} must be finite and > 0"
            with pytest.raises(ConfigError, match=problem):
                parse_config(f"[{section}]\n{key} = {value}\n")

    def test_format_then_parse_round_trips(self):
        cfg = small_config(psi=0.45, kind="quantized", learning_rate=0.05)
        assert parse_config(format_config(cfg)) == cfg

    def test_format_round_trips_auto_radius_and_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(format_config(cfg)) == cfg


REPO_ROOT = Path(__file__).resolve().parents[1]


def _value_strategy(f):
    """Values of a key's declared type that pass the key's own check."""
    ok = f.metadata.get("ok")
    base = {
        # every float key is positive
        "float": st.floats(0.0, 1.0, exclude_min=True) | st.floats(1.0, 1e6),
        "int": st.integers(-3, 10_000),
        # a checked string is one of a few names; the others are paths
        "str": st.sampled_from(PLACEMENTS + KINDS + ("synthetic-blobs", "idx-label-skew"))
        if ok
        else st.text(string.ascii_letters + string.digits + "._/+-", max_size=12),
        "bool": st.booleans(),
        "float | None": st.none() | st.floats(1e-6, 1e6),
        "tuple[int, ...]": st.lists(st.integers(1, 64), min_size=2, max_size=5).map(tuple),
    }[f.type]
    return base if ok is None else base.filter(ok)


@st.composite
def configs(draw):
    """A synthetic-blobs config over every key, with the layer widths made to
    agree with the feature dim and class count."""
    values: dict = {}
    for _, owner, f in KEY_TABLE:
        values.setdefault(owner, {})[f.name] = draw(_value_strategy(f))
    values["data"]["kind"] = "synthetic-blobs"
    env, data = values["environment"], values["data"]
    layers = values[None]["layers"]
    classes = env["rows"] * env["cols"] * data["classes_per_subregion"]
    return ExperimentConfig(
        environment=EnvironmentConfig(**env),
        data=DataConfig(**data),
        layers=(data["feature_dim"],) + layers[1:-1] + (classes,),
        protocol=ProtocolSection(**values["protocol"]),
        output=OutputConfig(**values["output"]),
    )


class TestConfigSchema:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(configs())
    def test_format_then_parse_round_trips_any_config(self, cfg):
        assert parse_config(format_config(cfg)) == cfg

    def test_every_default_passes_its_own_check(self):
        for section, _, f in KEY_TABLE:
            ok = f.metadata.get("ok")
            assert ok is None or ok(f.default), f"{section}.{f.name}"

    def test_readme_configuration_block_is_a_valid_config_of_every_key(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Configuration.*?```ini\n(.*?)```", readme, re.S).group(1)
        parse_config(block)
        keys, section = set(), None
        for line in block.splitlines():
            line = line.strip()
            if line.startswith("["):
                section = line[1:-1]
            elif "=" in line and not line.startswith("#"):
                keys.add((section, line.split("=")[0].strip()))
        assert keys == {(section, f.name) for section, _, f in KEY_TABLE}


class TestResolveRadius:
    def test_explicit_radius_wins(self):
        cfg = small_config()
        assert resolve_radius(cfg) == 4.0

    def test_auto_radius_for_defaults(self):
        # 64 devices on a 10x10 area: grid pitch 10/8, radius 1.5x pitch
        assert resolve_radius(ExperimentConfig()) == 1.875

    def test_auto_radius_uses_larger_side(self):
        cfg = ExperimentConfig()
        env = dataclasses.replace(cfg.environment, width=20.0, height=10.0, n=100, r_c=None)
        assert resolve_radius(dataclasses.replace(cfg, environment=env)) == 3.0


class TestLoadConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config("/no/such/file.cfg")

    def test_directory_is_not_a_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(str(tmp_path))

    def test_shipped_quadrant_config_parses(self):
        cfg = load_config("configs/quadrant.cfg")
        assert cfg.environment.n == 64
        assert cfg.num_subregions == 4
        assert cfg.protocol.kind == "sparse+quantized"
        assert cfg.protocol.psi == 0.3
        assert cfg.protocol.rounds == 30

    def test_shipped_tau_is_reproducible_by_calibration(self):
        cfg = load_config("configs/quadrant.cfg")
        calibrated = calibrate_tau(cfg, seed=cfg.environment.seed)
        assert abs(cfg.protocol.tau - calibrated.tau) <= 1e-9


class TestBuildWorld:
    def test_same_inputs_build_identical_worlds(self):
        cfg = small_config()
        a = build_world(cfg, seed=3)
        b = build_world(cfg, seed=3)
        assert [(s.uid, s.x, s.y) for s in a.topology.sites] == [
            (s.uid, s.x, s.y) for s in b.topology.sites
        ]
        assert np.array_equal(a.samples.features, b.samples.features)
        assert np.array_equal(a.samples.labels, b.samples.labels)
        for ra, rb in zip(a.rows, b.rows, strict=True):
            assert np.array_equal(ra, rb)
        assert np.array_equal(a.init_params.weights[0], b.init_params.weights[0])

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            build_world(small_config(), seed=-1)

    def test_seed_override_changes_placement(self):
        cfg = small_config()
        a = build_world(cfg, seed=3)
        b = build_world(cfg, seed=4)
        assert [(s.x, s.y) for s in a.topology.sites] != [(s.x, s.y) for s in b.topology.sites]

    def test_world_shapes(self):
        cfg = small_config()
        world = build_world(cfg, seed=0)
        assert len(world.topology.sites) == 9
        # every device's 60 rows, as one table
        assert world.rows.shape == (9, 60) and world.rows.dtype == np.int64
        assert len(world.samples) == 9 * 60
        assert len(world.test_sets) == cfg.num_subregions == 4
        assert all(len(t.labels) == 80 for t in world.test_sets)

    def _idx_config(self, tmp_path, layers):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (40, 2, 2), dtype=np.uint8)
        labels = np.repeat(np.arange(2, dtype=np.uint8), 20)
        img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
        cfg = small_config()
        env = dataclasses.replace(cfg.environment, rows=1, cols=2, n=4)
        data = dataclasses.replace(
            cfg.data,
            kind="idx-label-skew",
            idx_images=img_path,
            idx_labels=lbl_path,
            samples_per_device=8,
            test_samples=4,
        )
        return dataclasses.replace(cfg, environment=env, data=data, layers=layers)

    def test_idx_world_builds_and_runs(self, tmp_path):
        cfg = self._idx_config(tmp_path, layers=(4, 6, 2))
        world = build_world(cfg, seed=1)
        # the store is the pool itself, and every device's 8 rows are one table
        assert world.samples is world.spec.pool
        assert world.samples.features.shape == (40, 4)
        assert world.rows.shape == (4, 8) and world.rows.dtype == np.int64
        records = run_experiment(cfg, seed=1)
        assert len(records) == 2

    def test_synthetic_store_holds_each_devices_draw(self):
        cfg = small_config()
        world = build_world(cfg, seed=5)
        data_seed = derive_seed(5, 2)
        for site, rows in zip(world.topology.sites, world.rows, strict=True):
            got = world.samples.subset(rows)
            want = sample_local_dataset(world.spec, site.subregion_id, 60, data_seed, salt=site.uid)
            # the store holds the float64 draw in the devices' dtype
            assert got.features.dtype == DEVICE_DTYPE
            assert np.array_equal(got.features, want.features.astype(DEVICE_DTYPE))
            assert np.array_equal(got.labels, want.labels)

    def test_synthetic_world_holds_one_draw_beside_its_store(self):
        # 128 / itemsize devices (32 at float32) of 200 64-wide samples: the
        # store is 1.6 MB and one float64 draw 0.1 MB.  Drawing into the store
        # leaves room for one draw's temporaries and the rest of the world;
        # holding every draw beside their concatenation would at least double
        # the store
        devices = 16 * 8 // np.dtype(DEVICE_DTYPE).itemsize
        cfg = small_config()
        cfg = dataclasses.replace(
            cfg,
            environment=dataclasses.replace(cfg.environment, n=devices),
            data=dataclasses.replace(
                cfg.data, feature_dim=64, samples_per_device=200, test_samples=20
            ),
            layers=(64, 8, 4),
        )
        build_world(cfg, seed=0)  # a first build also allocates one-off caches
        tracemalloc.start()
        try:
            world = build_world(cfg, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = world.samples.features.nbytes + sum(t.features.nbytes for t in world.test_sets)
        assert world.samples.features.shape == (devices * 200, 64)
        assert world.samples.features.nbytes == 16 * 200 * 64 * 8
        assert peak <= 1.5 * held

    def test_idx_rows_pick_each_devices_draw(self, tmp_path):
        cfg = self._idx_config(tmp_path, layers=(4, 6, 2))
        cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, epsilon=0.3))
        world = build_world(cfg, seed=2)
        data_seed = derive_seed(2, 2)
        for site, rows in zip(world.topology.sites, world.rows, strict=True):
            got = world.samples.subset(rows)
            want = reference_idx_draw(world.spec, site.subregion_id, 8, data_seed, salt=site.uid)
            assert np.array_equal(got.features, want.features)
            assert np.array_equal(got.labels, want.labels)

    def test_idx_world_holds_its_samples_once(self, tmp_path):
        # 16 devices draw 80 samples each from a pool of 400: per-device
        # copies would take 3.2 times the pool.  The pool and the test sets
        # are held as their uint8 bytes.  Everything else the world and the
        # state allocate (devices' rows and models, labels, the spec's row
        # lists) may take 245,760 B, a quarter of the samples' float64 sizes:
        # per-device uint8 copies (327,680 B) or a float64 pool would not fit
        images = np.random.default_rng(3).integers(0, 256, (400, 16, 16), dtype=np.uint8)
        labels = np.repeat(np.arange(4, dtype=np.uint8), 100)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        cfg = small_config()
        cfg = dataclasses.replace(
            cfg,
            environment=dataclasses.replace(cfg.environment, n=16),
            data=dataclasses.replace(
                cfg.data,
                kind="idx-label-skew",
                idx_images=img,
                idx_labels=lbl,
                samples_per_device=80,
                test_samples=20,
            ),
            layers=(256, 2, 4),
        )

        def build():
            world = build_world(cfg, seed=0)
            make_state(world.topology, world.samples, world.rows, world.init_params, 0.2)
            return world

        build()  # a first build also allocates one-off imports and caches
        tracemalloc.start()
        try:
            world = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = world.samples.features.nbytes + sum(t.features.nbytes for t in world.test_sets)
        assert held == 400 * 256 + 4 * 20 * 256
        assert peak <= held + 245_760

    def test_idx_feature_dim_mismatch(self, tmp_path):
        cfg = self._idx_config(tmp_path, layers=(5, 6, 2))
        with pytest.raises(ConfigError, match="IDX feature dim 4"):
            build_world(cfg, seed=1)

    def test_idx_class_count_mismatch(self, tmp_path):
        cfg = self._idx_config(tmp_path, layers=(4, 6, 3))
        with pytest.raises(ConfigError, match="2 classes in the IDX pool"):
            build_world(cfg, seed=1)


class TestRunExperiment:
    def test_a_run_holds_its_models_and_float_features_in_float32(self):
        result = run_experiment_result(small_config(), seed=1)
        state, world = result.state, result.world
        for stack in (state.params, state.decoded):
            assert {t.dtype for t in stack.weights + stack.biases} == {np.dtype(np.float32)}
        assert state.samples is world.samples
        assert world.samples.features.dtype == np.float32
        assert all(t.features.dtype == np.float32 for t in world.test_sets)
        # the initial model is drawn in float64, so its random stream is as it was
        assert world.init_params.weights[0].dtype == np.float64

    def test_record_schema_and_byte_accounting(self):
        cfg = small_config(rounds=3)
        records = run_experiment(cfg, seed=0)
        assert [r.round_index for r in records] == [1, 2, 3]
        total = 0
        for r in records:
            total += r.bytes_round
            assert r.bytes_total == total
            assert r.bytes_round == r.bytes_broadcast + r.bytes_collect + r.bytes_disseminate
            assert 1 <= r.federation_count <= 9
            assert r.macs > 0
            assert len(r.region_accuracy) == len(r.region_loss) == 4
            assert math.isfinite(r.objective) and r.objective >= 0

    def test_isolated_arm_moves_no_bytes(self):
        records = run_experiment(small_config(), arm="isolated", seed=0)
        assert all(r.bytes_round == 0 for r in records)
        assert all(r.federation_count == 9 for r in records)
        assert records[-1].bytes_total == 0

    def test_global_fedavg_arm_is_one_federation(self):
        records = run_experiment(small_config(), arm="global-fedavg", seed=0)
        assert all(r.federation_count == 1 for r in records)
        assert all(r.bytes_broadcast == 0 for r in records)
        assert all(r.bytes_collect > 0 for r in records)

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError, match="unknown arm 'p2p'"):
            run_experiment(small_config(), arm="p2p", seed=0)

    def test_repeat_runs_are_identical(self):
        cfg = small_config()
        a = run_experiment(cfg, seed=5)
        b = run_experiment(cfg, seed=5)
        assert metrics_csv_text(a) == metrics_csv_text(b)

    def test_result_carries_final_partition_and_models(self):
        # the final partition is the last record's; every member of a
        # federation ends holding its average in its row of the model stack,
        # and the leaders' rows are the models the last record scored
        result = run_experiment_result(small_config(), seed=0)
        partition, params = result.records[-1].partition, result.state.params
        covered = sorted(u for f in partition.federations for u in f.members)
        assert covered == list(range(9))
        for fed in partition.federations:
            for rows in params.weights + params.biases:
                assert all(np.array_equal(rows[uid], rows[fed.leader]) for uid in fed.members)
        sites = result.world.topology.sites
        objective, _, _ = evaluate_objective(partition, params, result.world.test_sets, sites)
        assert objective == result.records[-1].objective


class TestMetricsCsv:
    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            metrics_csv_text([])

    def test_schema_for_four_regions(self):
        records = run_experiment(small_config(), seed=0)
        text = metrics_csv_text(records)
        lines = text.splitlines()
        assert lines[0] == (
            "round,federations,objective,"
            "acc_region_0,acc_region_1,acc_region_2,acc_region_3,"
            "loss_region_0,loss_region_1,loss_region_2,loss_region_3,"
            "bytes_round,bytes_total,macs,wall_ms"
        )
        assert len(lines) == 3  # header + one line per round
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 15
            assert fields[-1] == "0"  # wall_ms normalized for reproducibility
        assert text.endswith("\n") and "\r" not in text

    def test_six_significant_digits(self):
        record = MetricsRecord(
            round_index=1,
            federation_count=2,
            region_accuracy=(1 / 3,),
            region_loss=(1234567.0,),
            objective=0.125,
            bytes_round=10,
            bytes_total=10,
            macs=99,
            wall_ms=57.3,
        )
        line = metrics_csv_text([record]).splitlines()[1]
        assert line == "1,2,0.125,0.333333,1.23457e+06,10,10,99,0"

    def test_write_matches_text(self, tmp_path):
        records = run_experiment(small_config(), seed=0)
        path = tmp_path / "out.csv"
        write_metrics_csv(records, str(path))
        assert path.read_bytes() == metrics_csv_text(records).encode()


class TestCalibrateTau:
    def test_midpoint_sits_between_medians(self):
        result = calibrate_tau(small_config(), seed=0)
        assert result.intra_median < result.tau < result.inter_median
        assert result.tau == (result.intra_median + result.inter_median) / 2
        assert result.intra_edges > 0 and result.inter_edges > 0

    def test_deterministic(self):
        a = calibrate_tau(small_config(), seed=7)
        b = calibrate_tau(small_config(), seed=7)
        assert a == b

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_rounds"):
            calibrate_tau(small_config(), seed=0, warmup_rounds=-1)

    def test_single_region_world_cannot_calibrate(self):
        cfg = small_config()
        env = dataclasses.replace(cfg.environment, rows=1, cols=1)
        data = dataclasses.replace(cfg.data, classes_per_subregion=4)
        cfg = dataclasses.replace(cfg, environment=env, data=data)
        with pytest.raises(ValueError, match="intra- and inter-region"):
            calibrate_tau(cfg, seed=0)


class TestSaveCheckpoints:
    def test_writes_dense_and_wire_kind(self, tmp_path):
        result = run_experiment_result(small_config(), seed=0)
        paths = save_checkpoints(result, str(tmp_path))
        names = [p.rsplit("/", 1)[-1] for p in paths]
        assert names == ["final_dense.spfl", "final_sparse+quantized.spfl"]
        dense = from_bytes((tmp_path / "final_dense.spfl").read_bytes())
        wire = from_bytes((tmp_path / "final_sparse+quantized.spfl").read_bytes())
        assert dense.kind == "dense"
        assert wire.kind == "sparse+quantized"
        partition = result.records[-1].partition
        rep = max(partition.federations, key=lambda f: (len(f.members), -f.leader))
        model = result.state.params[rep.leader]
        decoded = decompress(dense)
        for got, want in zip(decoded.weights, model.weights):
            assert np.array_equal(got, want.astype(np.float32))

    def test_dense_strategy_writes_one_file(self, tmp_path):
        result = run_experiment_result(small_config(kind="dense", psi=0.0), seed=0)
        paths = save_checkpoints(result, str(tmp_path))
        assert len(paths) == 1


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)
        assert derive_seed(42, 7, 3) == derive_seed(42, 7, 3)

    def test_distinct_salts_give_distinct_seeds(self):
        seeds = {derive_seed(42, salt) for salt in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_masters_give_distinct_seeds(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)


class TestFederationTrace:
    def test_fixture_converges_to_four_and_stays(self, fixture_runs):
        result = fixture_runs.run(seed=1)
        counts = [r.federation_count for r in result.records]
        assert counts[0] != 4  # merging is gradual, not instant
        first = counts.index(4)
        assert all(c == 4 for c in counts[first:])
