"""The per-round federation protocol.

Each synchronous round every device: compresses its model, trains it locally
under the compression mask, broadcasts the compressed result to its radio
neighbors, scores pairwise dissimilarity as the sum of cross losses on the
two devices' held-out validation splits, keeps only edges at or under the
threshold tau, elects the minimum uid of each surviving component as leader,
collects member models up a hop tree to the leader, averages them, sends the
average back down, and adopts it.  Every step is deterministic: devices are
iterated in uid order and all aggregation happens in uid order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import fields
from .compression import (
    CompressedModel,
    CompressionStrategy,
    SparseMask,
    compress,
    decompress,
    encode_wire,
    from_bytes,
    nonzero_macs,
    to_bytes,
)
from .environment import DeviceSite, Topology
from .neuralnet import (
    LabeledDataset,
    ParameterSet,
    TrainingConfig,
    local_training,
    loss_and_accuracy,
)
from .seeds import derive_seed

ARMS = ("sparsefuel", "global-fedavg", "isolated")


@dataclass(frozen=True)
class Federation:
    """One federation: its elected leader and the member uid set."""

    leader: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.leader not in self.members:
            raise ValueError(f"leader {self.leader} is not a member")


@dataclass
class FederationPartition:
    """Disjoint federations covering every device, sorted by leader uid."""

    federations: list[Federation]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for fed in self.federations:
            if fed.members & seen:
                raise ValueError("federations must be disjoint")
            seen |= fed.members
        self.federations = sorted(self.federations, key=lambda f: f.leader)

    def __len__(self) -> int:
        return len(self.federations)

    def representative(self) -> Federation:
        """The largest federation; ties on size go to the lowest leader uid."""
        return max(self.federations, key=lambda f: (len(f.members), -f.leader))

    def federation_of(self, uid: int) -> Federation:
        for fed in self.federations:
            if uid in fed.members:
                return fed
        raise KeyError(f"device {uid} is in no federation")


@dataclass
class DissimilarityMatrix:
    """Symmetric edge scores: values[e] scores the undirected edge edges[e],
    a row (i, j) with i < j."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.edges),):
            raise ValueError(f"{len(self.edges)} edges but {self.values.shape} values")
        if not np.all(self.edges[:, 0] < self.edges[:, 1]):
            raise ValueError("dissimilarity edges must be rows (i, j) with i < j")
        if not np.all(self.values >= 0.0):
            raise ValueError("dissimilarity must be non-negative (and not NaN)")


@dataclass(frozen=True)
class ProtocolConfig:
    """Round-loop parameters: gating threshold, wire compression, training."""

    tau: float
    strategy: CompressionStrategy
    training: TrainingConfig
    similarity_uses_compressed: bool

    def __post_init__(self) -> None:
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")


def cross_similarity(
    model_i: ParameterSet,
    model_j: ParameterSet,
    val_i: LabeledDataset,
    val_j: LabeledDataset,
) -> float:
    """Pairwise dissimilarity: j's loss on i's validation split plus i's on j's."""
    if not model_i.same_shape(model_j):
        raise ValueError("cannot compare models with different architectures")
    loss_ij, _ = loss_and_accuracy(model_j, val_i)
    loss_ji, _ = loss_and_accuracy(model_i, val_j)
    return loss_ij + loss_ji


def similarity_graph(topology: Topology, ds: DissimilarityMatrix, tau: float) -> fields.FieldGraph:
    """Topology with edges above the dissimilarity threshold removed."""
    if not np.array_equal(ds.edges, topology.edges):
        raise ValueError("dissimilarity must score exactly the topology's edges, in its order")
    return fields.FieldGraph.from_topology(topology, ds.values <= tau)


def _elect(graph: fields.FieldGraph) -> tuple[fields.GradientField, FederationPartition]:
    """Elect the minimum uid of each component of the graph, grow the hop
    field from the leaders, and read the federations off its sources."""
    flags = fields.s_block(graph)
    gfield = fields.g_block(graph, [u for u, flag in flags.items() if flag])
    members: dict[int, set[int]] = {}
    for uid, src in gfield.source.items():
        members.setdefault(src, set()).add(uid)
    feds = [Federation(leader, frozenset(uids)) for leader, uids in members.items()]
    return gfield, FederationPartition(feds)


def form_federations(topology: Topology, ds: DissimilarityMatrix, tau: float) -> FederationPartition:
    """Connected components of the tau-gated graph, led by their minimum uid."""
    return _elect(similarity_graph(topology, ds, tau))[1]


def fed_avg(models: Sequence[ParameterSet], weights: Sequence[float] | None = None) -> ParameterSet:
    """Weighted elementwise mean, folded in the given (uid) order.

    Accumulation is anchored on the first model (sum of weighted deltas), so
    averaging any number of copies of one model returns it bit-exactly.
    """
    if not models:
        raise ValueError("cannot average zero models")
    if weights is None:
        weights = [1.0] * len(models)
    if len(weights) != len(models):
        raise ValueError("one weight per model required")
    if any(not w > 0 for w in weights):
        raise ValueError("weights must be positive")
    base = models[0]
    for m in models[1:]:
        if not base.same_shape(m):
            raise ValueError("cannot average models with different architectures")
    total = float(sum(weights))
    out = base.copy()
    for layer in range(base.num_layers):
        acc_w = np.zeros_like(base.weights[layer])
        acc_b = np.zeros_like(base.biases[layer])
        for m, w in zip(models, weights):
            acc_w += w * (m.weights[layer] - base.weights[layer])
            acc_b += w * (m.biases[layer] - base.biases[layer])
        out.weights[layer] += acc_w / total
        out.biases[layer] += acc_b / total
    return out


@dataclass
class DeviceState:
    """One device: its uid, train/validation split (views of its own
    dataset), and current model."""

    uid: int
    train: LabeledDataset
    val: LabeledDataset
    params: ParameterSet

    @property
    def num_samples(self) -> int:
        return len(self.train) + len(self.val)


@dataclass
class SimulationState:
    """Everything that evolves across rounds."""

    topology: Topology
    devices: list[DeviceState]
    round_index: int = 0
    bytes_total: int = 0


# Lockstep work on a stack of models holds, per model, its float64 parameters
# and the activations of its rows of input; a stack is cut into chunks of at
# most this many bytes so that only one chunk's temporaries live at a time.
LOCKSTEP_BUDGET_BYTES = 256 * 1024


def lockstep_chunk(model: ParameterSet, rows: int) -> int:
    """How many models of this architecture run in lockstep on `rows` input
    rows each within LOCKSTEP_BUDGET_BYTES (at least one)."""
    per_model = 8 * (model.num_params + rows * sum(model.architecture().layer_sizes))
    return max(1, LOCKSTEP_BUDGET_BYTES // per_model)


def _lockstep_chunks(lengths: np.ndarray, model: ParameterSet, rows: int | None = None):
    """Yield the indices of `lengths` grouped by equal length (in index order
    within a group), each group cut into chunks of lockstep_chunk(model, rows)
    indices; rows defaults to the group's length."""
    if not len(lengths):
        return
    order = np.argsort(lengths, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        size = lockstep_chunk(model, int(lengths[group[0]]) if rows is None else rows)
        for lo in range(0, len(group), size):
            yield group[lo : lo + size]


def make_state(
    topology: Topology,
    datasets: Sequence[LabeledDataset],
    init_params: ParameterSet,
    validation_fraction: float,
) -> SimulationState:
    """Split each local dataset into train/validation and seed every device
    with a copy of the same initial model.

    The validation split is the first floor(fraction * m) rows (at least one
    row each side), which is deterministic because dataset sampling is.  Both
    splits are views of the device's dataset.
    """
    if len(datasets) != topology.n:
        raise ValueError("one dataset per device required")
    if not (0.0 < validation_fraction < 1.0):
        raise ValueError("validation_fraction must be in (0, 1)")
    devices = []
    for uid, data in enumerate(datasets):
        if len(data) < 2:
            raise ValueError(f"device {uid}: need at least 2 samples to split")
        n_val = min(len(data) - 1, max(1, int(validation_fraction * len(data))))
        train, val = data.subset(slice(n_val, None)), data.subset(slice(None, n_val))
        devices.append(DeviceState(uid, train, val, init_params.copy()))
    return SimulationState(topology, devices)


@dataclass
class RoundStats:
    """What one round produced, for metrics and tests."""

    round_index: int
    partition: FederationPartition
    models_by_leader: dict[int, ParameterSet]
    bytes_broadcast: int
    bytes_collect: int
    bytes_disseminate: int
    macs: int
    dissimilarity: DissimilarityMatrix | None

    @property
    def bytes_round(self) -> int:
        return self.bytes_broadcast + self.bytes_collect + self.bytes_disseminate


def _merge_uid_sorted(a: list, b: list) -> list:
    """Merge two uid-sorted (uid, model) lists; associative and commutative."""
    return list(heapq.merge(a, b, key=lambda pair: pair[0]))


def run_round(
    state: SimulationState, cfg: ProtocolConfig, round_index: int, arm: str = "sparsefuel"
) -> RoundStats:
    """Advance the simulation by one synchronous round.

    arm selects the experiment variant: "sparsefuel" runs the full protocol;
    "global-fedavg" skips the similarity exchange and forces one federation
    of everyone; "isolated" stops after local training (no communication).
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}, expected one of {ARMS}")
    topo = state.topology
    chunks = _train_in_lockstep(state, cfg, round_index)
    trained = {uid: params[k] for uids, params, _ in chunks for k, uid in enumerate(uids)}

    bytes_broadcast = bytes_collect = bytes_disseminate = 0
    ds = None
    models_by_leader: dict[int, ParameterSet] = {}
    delivered: dict[int, ParameterSet] = {}
    if arm == "isolated":
        partition = FederationPartition(
            [Federation(dev.uid, frozenset([dev.uid])) for dev in state.devices]
        )
        models_by_leader = {fed.leader: trained[fed.leader] for fed in partition.federations}
    else:
        # the wire, one encode per trained chunk: each model's bytes and the
        # model its receivers decode from them.  When similarity is scored on
        # uncompressed models the whole exchange is dense (broadcast, collection
        # and the averaged members alike): a receiver scores the model it was sent
        blobs: dict[int, bytes] = {}
        decoded: dict[int, ParameterSet] = {}
        for uids, params, mask in chunks:
            if cfg.similarity_uses_compressed:
                wire = encode_wire(params, cfg.strategy, mask)
            else:
                wire = CompressedModel("dense", params=params)
            for k, uid in enumerate(uids):
                blobs[uid] = to_bytes(wire[k])
                decoded[uid] = decompress(from_bytes(blobs[uid]))

        if arm == "sparsefuel":
            # neighbor broadcast: every device sends its wire artifact to each neighbor
            degree = np.bincount(topo.edges.ravel(), minlength=topo.n)
            bytes_broadcast = sum(len(blobs[uid]) * int(degree[uid]) for uid in blobs)
            ds = _edge_dissimilarity(state, decoded)
            gfield, partition = _elect(similarity_graph(topo, ds, cfg.tau))
        else:
            graph = fields.FieldGraph.from_topology(topo)
            leader = min(graph.nodes)
            gfield = fields.g_block(graph, [leader])
            partition = FederationPartition([Federation(leader, frozenset(graph.nodes))])

        # tree collection to each leader (a leader contributes its model as
        # trained, every other device the model its wire bytes decode to),
        # weighted average, tree dissemination
        leaders = {fed.leader for fed in partition.federations}
        contributions = {
            uid: [(uid, trained[uid] if uid in leaders else decoded[uid])]
            for uid, hops in gfield.hops.items()
            if hops != fields.INFINITE
        }
        collected = fields.c_block(gfield, contributions, _merge_uid_sorted, [])
        bytes_collect = sum(
            int(hops) * len(blobs[uid])
            for uid, hops in gfield.hops.items()
            if hops not in (0, fields.INFINITE)
        )
        for leader in sorted(collected):
            pairs = collected[leader]
            weights = [state.devices[uid].num_samples for uid, _ in pairs]
            averaged = fed_avg([m for _, m in pairs], weights)
            models_by_leader[leader] = averaged
            blob = to_bytes(CompressedModel("dense", params=averaged))
            bytes_disseminate += (len(pairs) - 1) * len(blob)
        delivered = fields.broadcast_block(gfield, models_by_leader)

    for dev in state.devices:
        if dev.uid in delivered:
            dev.params = delivered[dev.uid].copy()
        else:
            # isolated, or no wire path to any leader (disconnected forced
            # federation): keep the locally trained model
            dev.params = trained[dev.uid]
    state.round_index = round_index
    state.bytes_total += bytes_broadcast + bytes_collect + bytes_disseminate
    return RoundStats(
        round_index,
        partition,
        models_by_leader,
        bytes_broadcast,
        bytes_collect,
        bytes_disseminate,
        # MAC proxy of the representative federation's leader model as trained
        nonzero_macs(trained[partition.representative().leader]),
        ds,
    )


def _train_in_lockstep(
    state: SimulationState, cfg: ProtocolConfig, round_index: int
) -> list[tuple[list[int], ParameterSet, SparseMask | None]]:
    """Compress every device's model and train it under the round's mask, in
    lockstep per chunk of equal-length devices; per chunk its uids, the
    trained stack and the stacked mask."""
    devices = state.devices
    chunks = []
    lengths = np.array([len(dev.train) for dev in devices])
    for chunk in _lockstep_chunks(lengths, devices[0].params, cfg.training.batch_size):
        uids = chunk.tolist()
        cm = compress(ParameterSet.stack([devices[uid].params for uid in uids]), cfg.strategy)
        out = local_training(
            decompress(cm),
            LabeledDataset.stack([devices[uid].train for uid in uids]),
            cfg.training,
            mask=cm.mask,
            round_index=round_index,
            seeds=[derive_seed(cfg.training.rng_seed, uid) for uid in uids],
        )
        chunks.append((uids, out, cm.mask))
    return chunks


def _edge_dissimilarity(state: SimulationState, decoded: Mapping[int, ParameterSet]) -> DissimilarityMatrix:
    """cross_similarity of every topology edge, scored in lockstep: each edge
    is two (sender model, receiver validation split) pairs, and the pairs of
    equal-length splits run in chunks of one forward pass each."""
    devices = state.devices
    edges = state.topology.edges
    # pair e scores edge e's second device's model on its first's split, pair
    # e + |E| the other way round
    senders = np.concatenate([edges[:, 1], edges[:, 0]])
    receivers = np.concatenate([edges[:, 0], edges[:, 1]])
    val_lengths = np.array([len(dev.val) for dev in devices])
    losses = np.empty(len(senders))
    for pick in _lockstep_chunks(val_lengths[receivers], devices[0].params):
        models = ParameterSet.stack([decoded[uid] for uid in senders[pick]])
        vals = LabeledDataset.stack([devices[uid].val for uid in receivers[pick]])
        losses[pick], _ = loss_and_accuracy(models, vals)
    return DissimilarityMatrix(edges, losses[: len(edges)] + losses[len(edges) :])


def evaluate_objective(
    partition: FederationPartition,
    models_by_leader: Mapping[int, ParameterSet],
    test_sets: Sequence[LabeledDataset],
    sites: Sequence[DeviceSite],
) -> tuple[float, list[float], list[float]]:
    """Objective plus per-subregion accuracy and loss.

    The objective sums, over federations, the federation model's mean loss on
    the test set of the subregion hosting its leader.  Per-subregion metrics
    come from the model its devices actually use: the federation holding the
    plurality of the subregion's devices (ties to the lowest leader uid); a
    subregion with no devices reports nan.
    """
    k = len(test_sets)
    objective = 0.0
    for fed in partition.federations:
        subregion = sites[fed.leader].subregion_id
        loss, _ = loss_and_accuracy(models_by_leader[fed.leader], test_sets[subregion])
        objective += loss

    accs = [float("nan")] * k
    losses = [float("nan")] * k
    for j in range(k):
        counts: dict[int, int] = {}
        for site in sites:
            if site.subregion_id != j:
                continue
            fed = partition.federation_of(site.uid)
            counts[fed.leader] = counts.get(fed.leader, 0) + 1
        if not counts:
            continue
        leader = max(counts, key=lambda u: (counts[u], -u))
        loss, acc = loss_and_accuracy(models_by_leader[leader], test_sets[j])
        losses[j] = loss
        accs[j] = acc
    return objective, accs, losses
