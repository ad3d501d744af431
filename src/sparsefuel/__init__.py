"""Deterministic round-based simulator for proximity-driven self-federated
learning with compressed model exchange."""

from .compression import (
    CompressedModel,
    CompressionStrategy,
    SparseMask,
    compress,
    decompress,
    dequantize,
    from_bytes,
    nonzero_macs,
    payload_size,
    prune_magnitude,
    quantize_affine,
    serialized_size,
    to_bytes,
)
from .environment import (
    Area,
    BlobClass,
    DeviceSite,
    DistributionSpec,
    Topology,
    build_topology,
    deploy_devices,
    idx_label_skew_spec,
    load_idx,
    sample_local_dataset,
    synthetic_blob_spec,
)
from .fields import (
    FieldGraph,
    GradientField,
    broadcast_block,
    c_block,
    g_block,
    s_block,
    stabilize_after_removal,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    MetricsRecord,
    build_world,
    calibrate_tau,
    format_config,
    load_config,
    metrics_csv_text,
    parse_config,
    run_experiment,
    run_experiment_result,
    write_metrics_csv,
)
from .neuralnet import (
    Architecture,
    LabeledDataset,
    ParameterSet,
    TrainingConfig,
    forward,
    gradients,
    init_parameters,
    local_training,
    loss_and_accuracy,
)
from .protocol import (
    DissimilarityMatrix,
    Federation,
    FederationPartition,
    ProtocolConfig,
    cross_similarity,
    evaluate_objective,
    fed_avg,
    form_federations,
    make_state,
    run_round,
)

__version__ = "0.1.0"
