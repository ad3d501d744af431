"""The per-round federation protocol.

Each synchronous round every device: compresses its model, trains it locally
under the compression mask, broadcasts the compressed result to its radio
neighbors, scores pairwise dissimilarity as the sum of cross losses on the
two devices' held-out validation splits, keeps only edges at or under the
threshold tau, elects the minimum uid of each surviving component as leader,
grows a hop tree from the leader, averages the models of the members the tree
reaches, and sends the average back down for each of them to adopt.  Every
step is deterministic: devices are iterated in uid order and all aggregation
happens in uid order.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import glob
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fields
from .compression import (
    CompressedModel,
    CompressionStrategy,
    SerializationError,
    compress,
    decode_wire,
    decompress,
    encode_wire,
    from_bytes,
    nonzero_macs,
    serialized_size,
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
    """The leader every device follows, and the federations that map
    splits the devices into: one per leader, sorted by leader uid."""

    leader_of: dict[int, int]
    federations: list[Federation] = field(init=False)

    def __post_init__(self) -> None:
        members: dict[int, set[int]] = {}
        for uid, leader in self.leader_of.items():
            members.setdefault(leader, set()).add(uid)
        self.federations = [Federation(u, frozenset(members[u])) for u in sorted(members)]

    def __len__(self) -> int:
        return len(self.federations)

    def representative(self) -> Federation:
        """The largest federation; ties on size go to the lowest leader uid."""
        return max(self.federations, key=lambda f: (len(f.members), -f.leader))


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
    field from the leaders; each device follows its source in that field."""
    flags = fields.s_block(graph)
    gfield = fields.g_block(graph, [u for u, flag in flags.items() if flag])
    return gfield, FederationPartition(gfield.source)


def form_federations(
    topology: Topology, ds: DissimilarityMatrix, tau: float
) -> FederationPartition:
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
    """One device: its uid and the rows of the sample store that make up its
    train and validation splits (views of its own row array)."""

    uid: int
    train_rows: np.ndarray
    val_rows: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.train_rows) + len(self.val_rows)


@dataclass
class SimulationState:
    """Everything that evolves across rounds, and the one sample store every
    device's rows index.

    Row uid of params holds device uid's current model: a round trains it and
    writes its federation's average over it, in place.  Row uid of val_table
    holds device uid's validation rows, padded to the longest split.  Row uid
    of decoded holds the model device uid's wire bytes decode to, once a
    round has exchanged models; the stack is allocated once and each round
    writes into it."""

    topology: Topology
    samples: LabeledDataset
    devices: list[DeviceState]
    params: ParameterSet
    bytes_total: int = 0
    val_table: np.ndarray = field(init=False, repr=False)
    decoded: ParameterSet = field(init=False, repr=False)
    _shuffle_seeds: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        n = len(self.devices)
        self.val_table = np.zeros((n, max(len(dev.val_rows) for dev in self.devices)), np.int64)
        for uid, dev in enumerate(self.devices):
            self.val_table[uid, : len(dev.val_rows)] = dev.val_rows
        self.decoded = ParameterSet(
            [np.empty_like(w) for w in self.params.weights],
            [np.empty_like(b) for b in self.params.biases],
        )

    def shuffle_seeds(self, master: int) -> list[int]:
        """derive_seed(master, uid) of every device in uid order, derived
        once per master seed rather than every round."""
        if master not in self._shuffle_seeds:
            self._shuffle_seeds[master] = [derive_seed(master, dev.uid) for dev in self.devices]
        return self._shuffle_seeds[master]


# Lockstep work on a stack of models holds, per model, its float64 parameters
# and the activations of its rows of input; a stack is cut into chunks of at
# most this many bytes so that only one chunk's temporaries live at a time
# in each lane.  Every lockstep step costs a fixed Python and numpy overhead,
# which larger chunks pay less often, but every lane holds its own chunk's
# temporaries, and a similarity pass that outgrows one core's L2 (2 MiB on
# the 2-core Xeon measured) slows down.  Of 2, 2.5, 3 and 4 MiB (seed 7,
# medians of three 12 s runs each, two lanes), 2.5 MiB gave the fastest
# rounds on both workloads:
# - idx-global trains its 784-64-10 MLPs four to a chunk, 16 chunks: 358
#   device-rounds/s and a peak RSS of 124 MB, against 347 and 119 at 2 MiB,
#   354 and 129 at 3 MiB, and 349 and 134 at 4 MiB
# - quadrant's 64 devices still train as one chunk and its similarity keeps
#   three passes of 138 pairs: 4670 device-rounds/s against 4633 at 2 MiB;
#   at 3 and 4 MiB two passes of 207 pairs ran 2 % slower (4563, 4551)
LOCKSTEP_BUDGET_BYTES = 5 * 1024 * 1024 // 2


def lockstep_chunk(model: ParameterSet, rows: int) -> int:
    """How many models of this architecture run in lockstep on `rows` input
    rows each within LOCKSTEP_BUDGET_BYTES (at least one)."""
    per_model = 8 * (model.num_params + rows * sum(model.architecture().layer_sizes))
    return max(1, LOCKSTEP_BUDGET_BYTES // per_model)


def _lockstep_chunks(lengths: np.ndarray, model: ParameterSet, rows: int | None = None):
    """Yield the indices of `lengths` grouped by equal length (in index order
    within a group), each group cut into the fewest chunks of at most
    lockstep_chunk(model, rows) indices, of near-equal size; rows defaults to
    the group's length."""
    if not len(lengths):
        return
    order = np.argsort(lengths, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        size = lockstep_chunk(model, int(lengths[group[0]]) if rows is None else rows)
        yield from np.array_split(group, -(-len(group) // size))


def make_state(
    topology: Topology,
    samples: LabeledDataset,
    rows: Sequence[np.ndarray],
    init_params: ParameterSet,
    validation_fraction: float,
) -> SimulationState:
    """Split each device's rows of the sample store into train/validation
    and start every device's row of the model stack from the initial model.

    rows[uid] lists the samples of device uid in order.  The validation
    split is its first floor(fraction * m) rows (at least one row each
    side), which is deterministic because sampling is.  Both splits are
    views of the device's row array: no sample is copied.
    """
    if len(rows) != topology.n:
        raise ValueError("one row array per device required")
    if not (0.0 < validation_fraction < 1.0):
        raise ValueError("validation_fraction must be in (0, 1)")
    if samples.features.ndim != 2:
        raise ValueError("the sample store must be a 2-d dataset")
    rows = [np.asarray(own, dtype=np.int64) for own in rows]
    every = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    if every.size and not (every.min() >= 0 and every.max() < len(samples)):
        raise ValueError(f"device rows must index the store's {len(samples)} samples")
    devices = []
    for uid, own in enumerate(rows):
        if len(own) < 2:
            raise ValueError(f"device {uid}: need at least 2 samples to split")
        n_val = min(len(own) - 1, max(1, int(validation_fraction * len(own))))
        devices.append(DeviceState(uid, own[n_val:], own[:n_val]))
    params = ParameterSet(
        [np.repeat(w[None], len(rows), axis=0) for w in init_params.weights],
        [np.repeat(b[None], len(rows), axis=0) for b in init_params.biases],
    )
    return SimulationState(topology, samples, devices, params)


@dataclass
class RoundStats:
    """What one round produced, for metrics and tests."""

    partition: FederationPartition
    bytes_broadcast: int
    bytes_collect: int
    bytes_disseminate: int
    macs: int
    dissimilarity: DissimilarityMatrix | None

    @property
    def bytes_round(self) -> int:
        return self.bytes_broadcast + self.bytes_collect + self.bytes_disseminate


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
    params = state.params
    # how many bytes each device sends: its wire model's size, priced as its
    # chunk runs
    size = None if arm == "isolated" else np.zeros(topo.n, dtype=np.int64)
    _run_chunks(state, cfg, round_index, size)

    bytes_broadcast = bytes_collect = bytes_disseminate = 0
    ds = None
    if arm == "isolated":
        partition = FederationPartition({dev.uid: dev.uid for dev in state.devices})
    else:
        # the averaged model goes back down dense; its size is the architecture's
        dense_size = serialized_size(CompressedModel("dense", params=params[0]))
        decoded = state.decoded

        if arm == "sparsefuel":
            # neighbor broadcast: every device sends its wire artifact to each neighbor
            degree = np.bincount(topo.edges.ravel(), minlength=topo.n)
            bytes_broadcast = int(size @ degree)
            ds = _edge_dissimilarity(state)
            gfield, partition = _elect(similarity_graph(topo, ds, cfg.tau))
        else:
            graph = fields.FieldGraph.from_topology(topo)
            leader = min(graph.nodes)
            gfield = fields.g_block(graph, [leader])
            partition = FederationPartition(dict.fromkeys(graph.nodes, leader))

    # MAC proxy of the representative federation's leader model as trained,
    # read before an average is written over it
    macs = nonzero_macs(params[partition.representative().leader])
    if arm != "isolated":
        # tree collection up the hop field: a leader averages the members its
        # tree reaches (a forced federation's devices with no wire path to
        # the leader keep their trained models), in uid order, contributing
        # its own model as trained and every other member the model its wire
        # bytes decode to; the average goes back down the tree into their
        # rows, which no later federation reads: federations are disjoint
        bytes_collect = sum(
            int(hops) * int(size[uid])
            for uid, hops in gfield.hops.items()
            if hops not in (0, fields.INFINITE)
        )
        for fed in partition.federations:
            uids = sorted(u for u in fed.members if gfield.source[u] == fed.leader)
            models = [params[uid] if uid == fed.leader else decoded[uid] for uid in uids]
            average = fed_avg(models, [state.devices[uid].num_samples for uid in uids])
            for rows, avg in zip(params.weights + params.biases, average.weights + average.biases):
                rows[uids] = avg
            bytes_disseminate += (len(uids) - 1) * dense_size
    state.bytes_total += bytes_broadcast + bytes_collect + bytes_disseminate
    return RoundStats(
        partition,
        bytes_broadcast,
        bytes_collect,
        bytes_disseminate,
        macs,
        ds,
    )


# The lanes a round's chunks run in: the calling thread and a pool of one
# thread per further core this process may run on.  numpy releases the GIL
# inside matmul and large ufunc loops, so the lanes overlap.
_LANES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_lanes_lock = threading.Lock()
_lane_pool: ThreadPoolExecutor | None = None

# OpenBLAS's (getter, setter) of its thread count, under the names its
# builds export.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy ships
    with, or None where there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREADS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, and put its thread count
    back afterwards, also on an exception; a nested block saves and puts
    back 1.  A run holds it across all its rounds and evaluations: an
    OpenBLAS worker that wakes between lane phases slows the lanes that
    follow.  Without OpenBLAS it does nothing."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _in_lanes(task: Callable, items: list) -> list:
    """[task(item) for item in items], the items spread over the lanes.

    Each lane takes the next item no lane has taken yet.  While the lanes
    run they hold one_blas_thread(), since the lanes already fill the cores.
    When tasks raise, no lane takes a new item, and once every lane has
    stopped the first failing item's exception is raised: every item before
    it was taken and has run, so the serial loop raises the same one.  A
    pool lane that has not started when the calling thread runs out of items
    is cancelled.  With one item, one core or no OpenBLAS setter this is the
    serial loop, and no thread starts.  Concurrent calls run their lanes one
    at a time.
    """
    if len(items) < 2 or _LANES < 2 or _blas_threads() is None:
        return [task(item) for item in items]
    results: list = [None] * len(items)
    failures: dict[int, BaseException] = {}
    claims = iter(range(len(items)))
    claim_lock = threading.Lock()

    def lane() -> None:
        while not failures:
            with claim_lock:
                k = next(claims, None)
            if k is None:
                return
            try:
                results[k] = task(items[k])
            except BaseException as exc:  # raised below, once every lane has stopped
                failures[k] = exc

    global _lane_pool
    with _lanes_lock, one_blas_thread():
        if _lane_pool is None:
            _lane_pool = ThreadPoolExecutor(_LANES - 1, thread_name_prefix="sparsefuel-lane")
        # each lane runs in a copy of the caller's context, so numpy's
        # errstate reaches it
        others = [
            _lane_pool.submit(contextvars.copy_context().run, lane)
            for _ in range(min(_LANES, len(items)) - 1)
        ]
        lane()
        for future in others:
            if not future.cancel():
                future.result()
    if failures:
        raise failures[min(failures)]
    return results


def _run_chunks(
    state: SimulationState, cfg: ProtocolConfig, round_index: int, size: np.ndarray | None
) -> None:
    """Run every lockstep chunk of equal-length devices through its whole
    pipeline, the chunks spread over the lanes: compress its rows of
    state.params, train them under the round's mask and write the trained
    models back; then, when size is given (a round that exchanges models),
    encode them for the wire, decode that into the chunk's rows of
    state.decoded and write each device's wire size into size.  When
    similarity is scored on uncompressed models the whole exchange is dense
    (broadcast, collection and the averaged members alike): a receiver
    scores the model it was sent.

    Raises FloatingPointError when a trained model is not finite, naming the
    round, the lowest uid of such a model over all chunks and the learning
    rate; every arm fails the same way, and state.params then holds the
    diverged models.  Otherwise the first chunk whose wire step failed
    raises its error (a SerializationError is prefixed with the round and
    the uid)."""
    devices = state.devices
    params = state.params
    decoded = state.decoded
    seeds = state.shuffle_seeds(cfg.training.rng_seed)
    lengths = np.array([len(dev.train_rows) for dev in devices])

    def pipeline(chunk: np.ndarray) -> tuple[int | None, Exception | None]:
        """Run one chunk; return the lowest uid of its trained models that is
        not finite, and the error its wire step raised."""
        uids = chunk.tolist()
        cm = compress(params[uids], cfg.strategy)
        out = local_training(
            decompress(cm),
            state.samples,
            cfg.training,
            mask=cm.mask,
            round_index=round_index,
            seeds=[seeds[uid] for uid in uids],
            rows=np.array([devices[uid].train_rows for uid in uids]),
        )
        # the chunks' rows are disjoint, and this chunk's were read above
        for rows, trained in zip(params.weights + params.biases, out.weights + out.biases):
            rows[uids] = trained
        finite = _finite_rows(out)
        if not finite.all():
            return uids[int(np.argmin(finite))], None
        if size is None:
            return None, None
        # returned, not raised, so that a later chunk's divergence wins
        try:
            if cfg.similarity_uses_compressed:
                wire = encode_wire(out, cfg.strategy, cm.mask)
            else:
                wire = CompressedModel("dense", params=out)
            received = _decode_checked(wire, uids, round_index)
            for rows, got in zip(
                decoded.weights + decoded.biases, received.weights + received.biases
            ):
                rows[uids] = got
            size[uids] = serialized_size(wire)
        except Exception as err:
            return None, err
        return None, None

    runs = _in_lanes(pipeline, list(_lockstep_chunks(lengths, params[0], cfg.training.batch_size)))
    diverged = [uid for uid, _ in runs if uid is not None]
    if diverged:
        raise FloatingPointError(
            f"round {round_index}: local training diverged: device {min(diverged)} has "
            f"non-finite parameters at learning_rate {cfg.training.learning_rate!r}"
        )
    for _, fault in runs:
        if fault is not None:
            raise fault


def _finite_rows(stack: ParameterSet) -> np.ndarray:
    """Whether each model of a stack holds finite values only."""
    tensors = stack.weights + stack.biases
    return np.logical_and.reduce([np.isfinite(t.reshape(len(t), -1)).all(1) for t in tensors])


def _decode_checked(wire: CompressedModel, uids: list[int], round_index: int) -> ParameterSet:
    """decode_wire(wire), or the codec's error on the bytes of the chunk's first
    non-finite model, prefixed with its round and uid; f32 overflow decodes quietly."""
    with np.errstate(over="ignore", invalid="ignore"):
        decoded = decode_wire(wire)
        finite = _finite_rows(decoded)
        if finite.all():
            return decoded
        k = int(np.argmin(finite))
        try:
            from_bytes(to_bytes(wire[k]))
        except SerializationError as err:
            raise SerializationError(f"round {round_index}: device {uids[k]}: {err}") from err
    raise RuntimeError(f"device {uids[k]}: decodes to non-finite values the codec accepts")


def _edge_dissimilarity(state: SimulationState) -> DissimilarityMatrix:
    """cross_similarity of every topology edge, scored in lockstep on the
    decoded models: each edge is two (sender model, receiver validation
    split) pairs, and the pairs of equal-length splits run in chunks of one
    forward pass each, on one gather of the chunk's senders from the decoded
    stack and of its validation rows from the sample store."""
    devices = state.devices
    edges = state.topology.edges
    decoded = state.decoded
    # pair e scores edge e's second device's model on its first's split, pair
    # e + |E| the other way round
    senders = np.concatenate([edges[:, 1], edges[:, 0]])
    receivers = np.concatenate([edges[:, 0], edges[:, 1]])
    val_lengths = np.array([len(dev.val_rows) for dev in devices])
    losses = np.empty(len(senders))
    for pick in _lockstep_chunks(val_lengths[receivers], state.params[0]):
        models = ParameterSet(
            [np.take(w, senders[pick], axis=0) for w in decoded.weights],
            [np.take(b, senders[pick], axis=0) for b in decoded.biases],
        )
        length = val_lengths[receivers[pick[0]]]
        vals = state.samples.gather(state.val_table[receivers[pick], :length])
        losses[pick], _ = loss_and_accuracy(models, vals)
    return DissimilarityMatrix(edges, losses[: len(edges)] + losses[len(edges) :])


def evaluate_objective(
    partition: FederationPartition,
    models: ParameterSet,
    test_sets: Sequence[LabeledDataset],
    sites: Sequence[DeviceSite],
) -> tuple[float, list[float], list[float]]:
    """Objective plus per-subregion accuracy and loss.

    A federation's model is models[leader]: its leader's row of the model
    stack.  The objective sums, over federations, that model's mean loss on
    the test set of the subregion hosting its leader.  Per-subregion metrics
    come from the model its devices actually use: the federation holding the
    plurality of the subregion's devices (ties to the lowest leader uid); a
    subregion with no devices reports nan.  Each (leader model, subregion
    test set) pair is scored once.
    """
    scores: dict[tuple[int, int], tuple[float, float]] = {}

    def score(leader: int, subregion: int) -> tuple[float, float]:
        if (leader, subregion) not in scores:
            scores[leader, subregion] = loss_and_accuracy(models[leader], test_sets[subregion])
        return scores[leader, subregion]

    k = len(test_sets)
    objective = 0.0
    for fed in partition.federations:
        objective += score(fed.leader, sites[fed.leader].subregion_id)[0]

    accs = [float("nan")] * k
    losses = [float("nan")] * k
    for j in range(k):
        counts = Counter(partition.leader_of[site.uid] for site in sites if site.subregion_id == j)
        if not counts:
            continue
        leader = max(counts, key=lambda u: (counts[u], -u))
        losses[j], accs[j] = score(leader, j)
    return objective, accs, losses
