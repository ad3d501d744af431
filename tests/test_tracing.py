"""The benchmark's call-site tracer still sees the simulator's stages.

perfbench/tracing.py attributes time by the names the library calls through
(protocol.local_training, neuralnet.gradients, protocol.loss_and_accuracy,
...).  If a refactor stops calling one of them, a traced benchmark run
misreports or crashes, so one traced quadrant round of each arm is run here.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from conftest import reference_bfs_hops, reference_min_flood
from sparsefuel import fields
from sparsefuel.harness import load_config, run_experiment_result

REPO_ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Names every arm calls, then those only the communicating arms call (the
# wire, FedAvg and the hop field), then those only sparsefuel calls.
TRAINING = {"local_training", "gradients", "compress", "decompress", "run_round", "evaluate_objective"}
EXCHANGE = {"encode_wire", "fed_avg", "g_block", "bfs_hops"}
# the byte codec is the round's fault path only: a healthy round decodes and
# prices each wire chunk without the bytes
CODEC = {"to_bytes", "from_bytes"}
# a round reads each federation's members off the hop field's sources and
# writes the average into their rows: the collection and broadcast blocks
# are the references test_protocol.py holds it to
TREE_BLOCKS = {"c_block", "broadcast_block"}
SIMILARITY = {"similarity_graph", "s_block", "min_flood"}
EXPECTED = {
    "sparsefuel": (TRAINING | EXCHANGE | SIMILARITY, 208),
    "global-fedavg": (TRAINING | EXCHANGE | {"from_topology"}, 0),
    "isolated": (TRAINING, 0),
}


@pytest.mark.parametrize("arm", sorted(EXPECTED))
def test_traced_quadrant_round_reports_training_and_scoring(arm, monkeypatch):
    names, edges_scored = EXPECTED[arm]
    tracing = load_tracing()
    cfg = load_config(str(REPO_ROOT / "configs" / "quadrant.cfg"))
    cfg = dataclasses.replace(cfg, protocol=dataclasses.replace(cfg.protocol, rounds=1))
    # keep the arguments of every min_flood and bfs_hops call the tracer sees
    args = {"min_flood": [], "bfs_hops": []}

    def recording(block, seen):
        def record(*a):
            seen.append(a)
            return block(*a)

        return record

    for name, seen in args.items():
        monkeypatch.setattr(fields, name, recording(getattr(fields, name), seen))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = run_experiment_result(cfg, arm, seed=1)
    metrics = tracing.summarize(tracer.spans, result.records)
    traced = {span[0] for span in tracer.spans}
    assert names <= traced, sorted(names - traced)
    # an arm does no work whose result it throws away: no wire without an
    # exchange, no scoring without a similarity graph
    assert not (EXCHANGE - names) & traced
    assert not (SIMILARITY - names) & traced
    assert not CODEC & traced
    assert not TREE_BLOCKS & traced
    # decompress runs once per trained chunk, never once per device
    calls = [span[0] for span in tracer.spans]
    assert calls.count("decompress") == calls.count("local_training")
    assert metrics["neuralnet.train_ms_per_round"] > 0
    # evaluation scores through protocol.loss_and_accuracy: every
    # evaluate_objective span holds a scoring span, timed as evaluation
    assert metrics["harness.evaluate_ms_per_round"] > 0
    evaluations = {i for i, span in enumerate(tracer.spans) if span[0] == "evaluate_objective"}
    scorers = {span[3] for span in tracer.spans if span[0] == "loss_and_accuracy"}
    assert evaluations and evaluations <= scorers
    assert metrics["neuralnet.sgd_steps_per_round"] > 0
    # FedAvg is timed as its own stage, one fed_avg span per federation
    # inside the round, on exactly the arms that exchange models
    assert (metrics["protocol.fedavg_ms_per_round"] > 0) == ("fed_avg" in names)
    folds = [span for span in tracer.spans if span[0] == "fed_avg"]
    assert len(folds) == (len(result.records[0].partition) if "fed_avg" in names else 0)
    assert all(tracer.spans[span[3]][0] == "run_round" for span in folds)
    # build_topology's span value reads Topology.adjacency: the quadrant
    # world's 208 radio links, whatever the arm
    assert metrics["environment.topology_edges"] == 208
    assert metrics["protocol.edges_scored_per_round"] == edges_scored
    assert (metrics["protocol.similarity_ms_per_round"] > 0) == (edges_scored > 0)
    # the round counts read off the blocks are those the synchronous-round
    # references take on the same graphs
    assert len(args["min_flood"]) == calls.count("min_flood")
    assert len(args["bfs_hops"]) == calls.count("bfs_hops")
    flood = sum(reference_min_flood(*a)[1] for a in args["min_flood"])
    bfs = sum(reference_bfs_hops(*a)[1] for a in args["bfs_hops"])
    assert metrics["fields.flood_rounds_per_round"] == flood
    assert metrics["fields.bfs_rounds_per_round"] == bfs
