"""The benchmark's call-site tracer still sees the simulator's stages.

perfbench/tracing.py attributes time by the names the library calls through
(protocol.local_training, neuralnet.gradients, protocol.loss_and_accuracy,
...).  If a refactor stops calling one of them, a traced benchmark run
misreports or crashes, so one traced quadrant round is run here.
"""

import dataclasses
import importlib.util
from pathlib import Path

from sparsefuel.harness import load_config, run_experiment_result

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_quadrant_round_reports_training_and_scoring():
    tracing = load_tracing()
    cfg = load_config(str(REPO_ROOT / "configs" / "quadrant.cfg"))
    cfg = dataclasses.replace(cfg, protocol=dataclasses.replace(cfg.protocol, rounds=1))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run_experiment_result(cfg, "sparsefuel", seed=1)
    metrics = tracing.summarize(tracer.spans, result.records)
    assert metrics["neuralnet.train_ms_per_round"] > 0
    assert metrics["neuralnet.sgd_steps_per_round"] > 0
    assert metrics["protocol.similarity_ms_per_round"] > 0
    assert metrics["protocol.edges_scored_per_round"] == 208
