"""Experiment harness: config files, arms, metrics CSV, tau calibration.

Configs are flat sectioned key=value text ('#' starts a comment line); every
key has a default, so an empty file is a runnable experiment.  A run produces
one MetricsRecord per round and can be replayed bit-identically from
(config, seed, arm); for that reason the wall_ms CSV column is written as 0
(the measured per-round time is kept on the in-memory records only).
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .compression import KINDS, CompressionStrategy, compress, to_bytes
from .environment import (
    DISTRIBUTION_KINDS,
    PLACEMENTS,
    Area,
    DistributionSpec,
    Topology,
    build_topology,
    deploy_devices,
    idx_label_skew_spec,
    load_idx,
    sample_local_dataset,
    synthetic_blob_spec,
)
from .neuralnet import Architecture, LabeledDataset, ParameterSet, TrainingConfig, init_parameters
from .protocol import (
    ARMS,
    DEVICE_DTYPE,
    FederationPartition,
    ProtocolConfig,
    SimulationState,
    evaluate_objective,
    keep_heap_mapped,
    make_state,
    one_blas_thread,
    run_round,
)
from .seeds import derive_seed


class ConfigError(ValueError):
    """Raised for malformed or out-of-range experiment configs."""


def _key(default, ok=None, problem="", section=None):
    """A config key's one declaration: its default and, optionally, the check
    (a predicate, and what to say when it fails) its parsed value must pass.
    A key kept on ExperimentConfig itself names its section."""
    return field(default=default, metadata={"ok": ok, "problem": problem, "section": section})


def _positive(default):
    return _key(default, lambda v: math.isfinite(v) and v > 0, "must be finite and > 0")


def _at_least_1(default):
    return _key(default, lambda v: v >= 1, "must be >= 1")


@dataclass(frozen=True)
class EnvironmentConfig:
    width: float = _positive(10.0)
    height: float = _positive(10.0)
    rows: int = _at_least_1(2)
    cols: int = _at_least_1(2)
    # numpy cannot index an array of more devices
    n: int = _key(
        64, lambda v: 1 <= v <= np.iinfo(np.intp).max, f"must be in [1, {np.iinfo(np.intp).max}]"
    )
    # None = 1.5x lattice pitch
    r_c: float | None = _key(None, lambda v: v is None or v > 0, "must be > 0 or auto")
    placement: str = _key(
        "jittered-grid", lambda v: v in PLACEMENTS, f"must be one of {PLACEMENTS}"
    )
    seed: int = _key(42, lambda v: v >= 0, "must be >= 0")


@dataclass(frozen=True)
class DataConfig:
    kind: str = _key(
        "synthetic-blobs",
        lambda v: v in DISTRIBUTION_KINDS,
        "must be " + " or ".join(DISTRIBUTION_KINDS),
    )
    samples_per_device: int = _key(300, lambda v: v >= 2, "must be >= 2")
    test_samples: int = _at_least_1(400)
    validation_fraction: float = _key(0.2, lambda v: 0.0 < v < 1.0, "must be in (0, 1)")
    classes_per_subregion: int = _at_least_1(2)
    feature_dim: int = _key(2, lambda v: v >= 2, "must be >= 2")
    blob_std: float = _positive(0.08)
    epsilon: float = _key(0.0, lambda v: 0.0 <= v < 1.0, "must be in [0, 1)")
    idx_images: str = ""
    idx_labels: str = ""


@dataclass(frozen=True)
class ProtocolSection:
    tau: float = _positive(4.0)
    kind: str = _key("sparse+quantized", lambda v: v in KINDS, f"must be one of {KINDS}")
    psi: float = _key(0.3, lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
    similarity_uses_compressed: bool = True
    rounds: int = _at_least_1(50)
    local_epochs: int = _at_least_1(3)
    batch_size: int = _at_least_1(32)
    learning_rate: float = _positive(0.1)


@dataclass(frozen=True)
class OutputConfig:
    csv: str = "metrics.csv"
    checkpoint_dir: str = ""


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per config section, in file order; `layers` is the one key
    kept here directly, under the [model] section."""

    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    data: DataConfig = field(default_factory=DataConfig)
    layers: tuple[int, ...] = _key(
        (2, 16, 8), lambda v: all(s >= 1 for s in v), "layer sizes must be >= 1", section="model"
    )
    protocol: ProtocolSection = field(default_factory=ProtocolSection)
    output: OutputConfig = field(default_factory=OutputConfig)

    @property
    def num_subregions(self) -> int:
        return self.environment.rows * self.environment.cols


def _key_table():
    """(section, owner, Field) for every config key, in file order.  owner is
    the ExperimentConfig field holding the section, or None for a key that
    ExperimentConfig holds itself."""
    for top in fields(ExperimentConfig):
        if is_dataclass(top.default_factory):
            for f in fields(top.default_factory):
                yield top.name, top.name, f
        else:
            yield top.metadata["section"], None, top


KEY_TABLE = tuple(_key_table())


def _as_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(value)


def _as_layers(value: str) -> tuple[int, ...]:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if len(parts) < 2:
        raise ValueError(value)
    return tuple(int(p) for p in parts)


def _as_radius(value: str) -> float | None:
    if value.lower() in ("", "auto"):
        return None
    return float(value)


# (parse, format) per declared field type
_CODECS = {
    "float": (float, repr),
    "int": (int, str),
    "str": (str, str),
    "bool": (_as_bool, lambda v: "true" if v else "false"),
    "float | None": (_as_radius, lambda v: "auto" if v is None else repr(v)),
    "tuple[int, ...]": (_as_layers, lambda v: ",".join(str(s) for s in v)),
}


def _decode(section: str, f, value: str, line: int):
    try:
        out = _CODECS[f.type][0](value)
    except (ValueError, TypeError):
        raise ConfigError(f"line {line}: cannot parse '{value}' for {section}.{f.name}") from None
    ok = f.metadata.get("ok")
    if ok is not None and not ok(out):
        raise ConfigError(f"line {line}: {section}.{f.name} {f.metadata['problem']} (got {value})")
    return out


def parse_config(text: str) -> ExperimentConfig:
    """Parse sectioned key=value text; every error names its line."""
    known = {(section, f.name) for section, _, f in KEY_TABLE}
    sections = {section for section, _ in known}
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ConfigError(f"line {line_no}: unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{line}'")
        if section is None:
            raise ConfigError(f"line {line_no}: key before any [section] header")
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) not in known:
            raise ConfigError(f"line {line_no}: unknown key '{key}' in [{section}]")
        if (section, key) in entries:
            raise ConfigError(f"line {line_no}: duplicate key '{key}' in [{section}]")
        entries[(section, key)] = (value.strip(), line_no)

    # keys decode in file order; a key that is absent keeps its field default
    given: dict[str | None, dict] = {}
    for section, owner, f in KEY_TABLE:
        if (section, f.name) in entries:
            given.setdefault(owner, {})[f.name] = _decode(section, f, *entries[(section, f.name)])
    cfg = ExperimentConfig(
        **given.get(None, {}),
        **{
            top.name: top.default_factory(**given.get(top.name, {}))
            for top in fields(ExperimentConfig)
            if is_dataclass(top.default_factory)
        },
    )

    data, layers = cfg.data, cfg.layers
    if data.kind == "idx-label-skew":
        for key, path in (("idx_images", data.idx_images), ("idx_labels", data.idx_labels)):
            if not path:
                raise ConfigError(f"data.{key} is required when data.kind = idx-label-skew")
            if not os.path.isfile(path):
                raise ConfigError(f"data.{key}: file not found: {path}")
    else:
        if layers[0] != data.feature_dim:
            raise ConfigError(
                f"model.layers input width {layers[0]} != data.feature_dim {data.feature_dim}"
            )
        total_classes = cfg.num_subregions * data.classes_per_subregion
        if layers[-1] != total_classes:
            raise ConfigError(
                f"model.layers output width {layers[-1]} != "
                f"{cfg.num_subregions} subregions x {data.classes_per_subregion} classes "
                f"= {total_classes}"
            )
    return cfg


def load_config(path: str) -> ExperimentConfig:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def format_config(cfg: ExperimentConfig) -> str:
    """Write a config back out so that parse_config(format_config(c)) == c."""
    lines: list[str] = []
    current = None
    for section, owner, f in KEY_TABLE:
        if section != current:
            lines += [f"[{section}]"] if current is None else ["", f"[{section}]"]
            current = section
        value = getattr(cfg if owner is None else getattr(cfg, owner), f.name)
        lines.append(f"{f.name} = {_CODECS[f.type][1](value)}")
    return "\n".join(lines) + "\n"


# ---- building a runnable world from a config ----


@dataclass
class World:
    """Everything a run needs, derived deterministically from (config, seed).

    The devices' samples are held once: rows is an (n, m) table, every
    device holding m = data.samples_per_device rows, and device uid's local
    dataset is samples.gather(rows[uid]); subregion j's test set is likewise
    tests.gather(test_rows[j]).  An IDX world's stores are its pool itself,
    pixel bytes; a synthetic world's hold its draws as DEVICE_DTYPE floats.
    """

    topology: Topology
    spec: DistributionSpec
    samples: LabeledDataset
    rows: np.ndarray
    tests: LabeledDataset
    test_rows: np.ndarray
    init_params: ParameterSet
    protocol: ProtocolConfig


def resolve_radius(cfg: ExperimentConfig) -> float:
    env = cfg.environment
    if env.r_c is not None:
        return env.r_c
    g = math.ceil(math.sqrt(env.n))
    r_c = 1.5 * max(env.width / g, env.height / g)
    if not r_c > 0:
        raise ConfigError("environment.r_c = auto underflows to 0 for this width and height")
    return r_c


def build_world(cfg: ExperimentConfig, seed: int | None = None) -> World:
    """Materialize area, devices, data, and initial model for one run.

    All randomness is derived from the master seed (environment.seed unless
    overridden), so two calls with the same inputs build identical worlds.
    """
    env, data = cfg.environment, cfg.data
    master = env.seed if seed is None else seed
    if master < 0:
        raise ConfigError(f"seed must be >= 0, got {master}")
    try:
        area = Area(env.width, env.height, env.rows, env.cols)
    except ValueError as exc:
        raise ConfigError(f"environment.width, height, rows and cols: {exc}") from None
    k = area.num_subregions

    positions, subregion = deploy_devices(area, env.n, env.placement, derive_seed(master, 0))
    topology = build_topology(positions, subregion, resolve_radius(cfg))

    if data.kind == "synthetic-blobs":
        spec = synthetic_blob_spec(
            k,
            classes_per_subregion=data.classes_per_subregion,
            feature_dim=data.feature_dim,
            std=data.blob_std,
            seed=derive_seed(master, 1),
        )
    else:
        # a malformed IDX file, or a pool with fewer classes than subregions,
        # is bad input
        try:
            pool = load_idx(data.idx_images, data.idx_labels)
            spec = idx_label_skew_spec(pool, k, data.epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if cfg.layers[0] != pool.features.shape[1]:
            raise ConfigError(
                f"model.layers input width {cfg.layers[0]} != "
                f"IDX feature dim {pool.features.shape[1]}"
            )
        if cfg.layers[-1] != spec.num_classes:
            raise ConfigError(
                f"model.layers output width {cfg.layers[-1]} != "
                f"{spec.num_classes} classes in the IDX pool"
            )

    # one generator draws every device's samples, another the test sets
    try:
        samples, rows = sample_local_dataset(
            spec, topology.subregion, data.samples_per_device, derive_seed(master, 2), DEVICE_DTYPE
        )
        tests, test_rows = sample_local_dataset(
            spec, np.arange(k), data.test_samples, derive_seed(master, 3), DEVICE_DTYPE
        )
    except ValueError as exc:
        # the sample counts are checked when the config is parsed, so the one
        # failure left is an IDX pool too small for them
        raise ConfigError(str(exc)) from None
    init = init_parameters(Architecture(cfg.layers), derive_seed(master, 4))
    protocol = ProtocolConfig(
        tau=cfg.protocol.tau,
        strategy=CompressionStrategy(cfg.protocol.kind, cfg.protocol.psi),
        training=TrainingConfig(
            local_epochs=cfg.protocol.local_epochs,
            batch_size=cfg.protocol.batch_size,
            learning_rate=cfg.protocol.learning_rate,
            rng_seed=derive_seed(master, 5),
        ),
        similarity_uses_compressed=cfg.protocol.similarity_uses_compressed,
    )
    return World(topology, spec, samples, rows, tests, test_rows, init, protocol)


# ---- running experiments ----


@dataclass
class MetricsRecord:
    """One round's metrics; the partition and byte split are kept for
    inspection but only the schema columns go to CSV."""

    round_index: int
    federation_count: int
    region_accuracy: tuple[float, ...]
    region_loss: tuple[float, ...]
    objective: float
    bytes_round: int
    bytes_total: int
    macs: int
    wall_ms: float
    bytes_broadcast: int = 0
    bytes_collect: int = 0
    bytes_disseminate: int = 0
    partition: FederationPartition | None = None


@dataclass
class ExperimentResult:
    records: list[MetricsRecord]
    state: SimulationState
    world: World


@contextlib.contextmanager
def _experiment(cfg: ExperimentConfig, seed: int | None):
    """Build one experiment's world and start state, for the block to run its
    rounds on with the heap kept mapped and OpenBLAS held at one thread."""
    world = build_world(cfg, seed)
    fraction = cfg.data.validation_fraction
    state = make_state(world.topology, world.samples, world.rows, world.init_params, fraction)
    keep_heap_mapped()
    with one_blas_thread():
        yield world, state


def run_experiment_result(
    cfg: ExperimentConfig, arm: str = "sparsefuel", seed: int | None = None
) -> ExperimentResult:
    """Run all rounds of one arm and keep the final state around."""
    if arm not in ARMS:
        raise ConfigError(f"unknown arm {arm!r}, expected one of {ARMS}")
    records: list[MetricsRecord] = []
    with _experiment(cfg, seed) as (world, state):
        subregion = world.topology.subregion
        for t in range(1, cfg.protocol.rounds + 1):
            started = time.perf_counter()
            stats = run_round(state, world.protocol, t, arm)
            objective, accs, losses = evaluate_objective(
                stats.partition, state.params, world.tests, world.test_rows, subregion
            )
            wall_ms = (time.perf_counter() - started) * 1000.0
            records.append(
                MetricsRecord(
                    round_index=t,
                    federation_count=len(stats.partition),
                    region_accuracy=tuple(accs),
                    region_loss=tuple(losses),
                    objective=objective,
                    bytes_round=stats.bytes_round,
                    bytes_total=state.bytes_total,
                    macs=stats.macs,
                    wall_ms=wall_ms,
                    bytes_broadcast=stats.bytes_broadcast,
                    bytes_collect=stats.bytes_collect,
                    bytes_disseminate=stats.bytes_disseminate,
                    partition=stats.partition,
                )
            )
    return ExperimentResult(records, state, world)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def metrics_csv_text(records: list[MetricsRecord]) -> str:
    """Render records to the fixed CSV schema (LF line endings).

    Columns: round, federations, objective, acc_region_0..k-1,
    loss_region_0..k-1, bytes_round, bytes_total, macs, wall_ms.  wall_ms is
    written as 0 so that identical runs produce byte-identical files.
    """
    if not records:
        raise ValueError("no records to write")
    k = len(records[0].region_accuracy)
    header = (
        ["round", "federations", "objective"]
        + [f"acc_region_{j}" for j in range(k)]
        + [f"loss_region_{j}" for j in range(k)]
        + ["bytes_round", "bytes_total", "macs", "wall_ms"]
    )
    lines = [",".join(header)]
    for r in records:
        row = (
            [str(r.round_index), str(r.federation_count), _fmt(r.objective)]
            + [_fmt(a) for a in r.region_accuracy]
            + [_fmt(l) for l in r.region_loss]
            + [str(r.bytes_round), str(r.bytes_total), str(r.macs), "0"]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_metrics_csv(records: list[MetricsRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(metrics_csv_text(records))


# ---- tau calibration ----


@dataclass
class CalibrationResult:
    tau: float
    intra_median: float
    inter_median: float
    intra_edges: int
    inter_edges: int


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-d float array without NaN, bit for bit:
    the mean of its middle value, or of its two middle values, as np.mean
    takes it.  (np.median's NaN check imports numpy.ma.)"""
    half, odd = divmod(len(values), 2)
    part = np.partition(values, [half] if odd else [half - 1, half])
    return float(np.mean(part[half - 1 + odd : half + 1]))


def calibrate_tau(
    cfg: ExperimentConfig, seed: int | None = None, warmup_rounds: int = 3
) -> CalibrationResult:
    """Recommend tau as the midpoint of intra- and inter-region dissimilarity.

    Runs warmup_rounds of communication-free local training from the shared
    initial model, then measures one round's dissimilarity on every topology
    edge and splits the scores by whether the endpoints share a subregion.
    Deterministic in (config, seed, warmup_rounds).
    """
    if warmup_rounds < 0:
        raise ValueError("warmup_rounds must be >= 0")
    with _experiment(cfg, seed) as (world, state):
        for t in range(1, warmup_rounds + 1):
            run_round(state, world.protocol, t, arm="isolated")
        stats = run_round(state, world.protocol, warmup_rounds + 1, arm="sparsefuel")
    assert stats.dissimilarity is not None
    ds = stats.dissimilarity
    subregion = world.topology.subregion
    same = subregion[ds.edges[:, 0]] == subregion[ds.edges[:, 1]]
    intra, inter = ds.values[same], ds.values[~same]
    if not len(intra) or not len(inter):
        raise ConfigError(
            "calibration needs both intra- and inter-region topology edges "
            f"(got {len(intra)} intra, {len(inter)} inter)"
        )
    intra_median = _median(intra)
    inter_median = _median(inter)
    return CalibrationResult(
        tau=(intra_median + inter_median) / 2.0,
        intra_median=intra_median,
        inter_median=inter_median,
        intra_edges=len(intra),
        inter_edges=len(inter),
    )


# ---- checkpoints ----


def save_checkpoints(result: ExperimentResult, directory: str) -> list[str]:
    """Write the final representative model as dense plus the configured wire
    kind (when not dense); returns the paths written."""
    os.makedirs(directory, exist_ok=True)
    model = result.state.params[result.records[-1].partition.representative().leader]
    strategies = [CompressionStrategy("dense")]
    if result.world.protocol.strategy.kind != "dense":
        strategies.append(result.world.protocol.strategy)
    paths = [os.path.join(directory, f"final_{strategy.kind}.spfl") for strategy in strategies]
    for path, strategy in zip(paths, strategies):
        with open(path, "wb") as f:
            f.write(to_bytes(compress(model, strategy)))
    return paths
