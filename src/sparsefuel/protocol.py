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
import itertools
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import compression, fields
from .compression import (
    CompressedModel,
    CompressionStrategy,
    compress,
    decode_wire,
    decompress,
    encode_wire,
    nonzero_macs,
    serialized_size,
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

# The float type of a run's devices: make_state builds the model stack in it
# and the harness the float features (the wire's f32 decodes to float32 too).
DEVICE_DTYPE = np.float32

# The byte codec, under the names perfbench's call-site tracer wraps here: a
# round never calls it (decode_wire and serialized_size give what its bytes
# would), and the tracer's test checks that a round does not.
to_bytes, from_bytes = compression.to_bytes, compression.from_bytes


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
    if model_i.architecture() != model_j.architecture():
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


def fed_avg(
    models: Sequence[ParameterSet],
    weights: Sequence[float] | None = None,
    rows: Sequence[int] | None = None,
) -> ParameterSet:
    """Weighted elementwise mean, folded in the given (uid) order.

    models are single models; or, given rows, stacks of one shape, member k
    being row rows[k] of models[k].  The mean is anchored on the first member
    (sum of weighted deltas), so copies of one model average to it exactly.
    It is computed in the first member's dtype, the weights included: the
    fold of float32 models runs in float32.
    Each member is one flat row of its tensors, a weight and a bias at least,
    and np.add.reduce(axis=0) sums the deltas in blocks of at most
    LOCKSTEP_BUDGET_BYTES / 8 bytes, the running sum as row 0: numpy adds
    rows two or more wide in order (one wide, pairwise), so the bits are
    those of adding each delta in turn.  A row wider than a block is
    subtracted, weighted and added in place.
    """
    if not models:
        raise ValueError("cannot average zero models")
    weights = [1.0] * len(models) if weights is None else weights
    if len(weights) != len(models) or (rows is not None and len(rows) != len(models)):
        raise ValueError("one weight per model required, and one row when rows are given")
    if any(not w > 0 for w in weights):
        raise ValueError("weights must be positive")
    if rows is None:
        models, rows = [m[None] for m in models], [0] * len(models)
    tensors = lambda stack: stack.weights + stack.biases  # noqa: E731
    if len({tuple(t.shape for t in tensors(s)) for s in {id(s): s for s in models}.values()}) > 1:
        raise ValueError("cannot average models with different architectures")
    # blocks are gathered from the last member's stack (a round's leader,
    # its lowest uid, comes first), then mended where a member is another's
    main = models[-1]
    cuts = list(itertools.accumulate((t[0].size for t in tensors(main)), initial=0))
    flat = lambda k: [t[rows[k]].ravel() for t in tensors(models[k])]  # noqa: E731
    base = np.concatenate(flat(0))
    scale = np.asarray(weights, dtype=base.dtype)[:, None]
    size = max(1, LOCKSTEP_BUDGET_BYTES // 8 // base.nbytes)
    acc, buf = np.zeros_like(base), np.empty((min(size, len(rows)) + 1, base.size), base.dtype)
    for lo in range(0, len(rows), size):
        block = buf[1 : 1 + min(size, len(rows) - lo)]
        if len(block) == 1:
            for t, a, b in zip(flat(lo), cuts, cuts[1:]):
                np.subtract(t, base[a:b], out=block[0, a:b])
            acc += np.multiply(block[0], scale[lo], out=block[0])
            continue
        for t, a, b in zip(tensors(main), cuts, cuts[1:]):
            t.reshape(len(t), -1).take(rows[lo : lo + size], 0, block[:, a:b])
        for k in (k for k, s in enumerate(models[lo : lo + size], lo) if s is not main):
            block[k - lo] = np.concatenate(flat(k))
        block -= base
        block *= scale[lo : lo + len(block)]
        buf[0] = acc
        np.add.reduce(buf[: len(block) + 1], axis=0, out=acc)
    average = base + acc / float(sum(weights))
    out = [average[a:b].reshape(t.shape[1:]) for t, a, b in zip(tensors(main), cuts, cuts[1:])]
    return ParameterSet(out[: main.num_layers], out[main.num_layers :])


@dataclass
class SimulationState:
    """Everything that evolves across rounds, and the one sample store every
    device's rows index.

    Every device holds m rows of the store, split the same way: row uid of
    val_rows holds device uid's validation rows and row uid of train_rows its
    training rows, both views of one (n, m) row table.  Row uid of params
    holds device uid's current model: a round trains it and writes its
    federation's average over it, in place.  Row uid of decoded holds the
    model device uid's wire bytes decode to, once a round has exchanged
    models; the stack is allocated once and each round writes into it."""

    topology: Topology
    samples: LabeledDataset
    train_rows: np.ndarray
    val_rows: np.ndarray
    params: ParameterSet
    bytes_total: int = 0
    decoded: ParameterSet = field(init=False, repr=False)
    _shuffle_seeds: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.decoded = ParameterSet(
            [np.empty_like(w) for w in self.params.weights],
            [np.empty_like(b) for b in self.params.biases],
        )

    def shuffle_seeds(self, master: int) -> list[int]:
        """derive_seed(master, uid) of every device in uid order, derived
        once per master seed rather than every round."""
        if master not in self._shuffle_seeds:
            self._shuffle_seeds[master] = [derive_seed(master, u) for u in range(self.topology.n)]
        return self._shuffle_seeds[master]


# Lockstep work on a stack of models holds, per model, its parameters and the
# activations of its rows of input, in the models' dtype (float32 in a run);
# a stack is cut into chunks of at most this many bytes so that only one
# chunk's temporaries live at a time in each lane.  Every lockstep step costs
# a fixed Python and numpy overhead, which larger chunks pay less often, but
# every lane holds its own chunk's temporaries, and the chunks share two
# lanes best in even counts.  Of 1.25, 2, 2.5, 3 and 4 MiB (float32, seed 7,
# medians of three 12 s runs each, two lanes on a 2-core Xeon), 2.5 MiB gave
# the fastest rounds:
# - idx-global trains its 784-64-10 MLPs eight to a chunk, 8 chunks: 670
#   device-rounds/s and a peak RSS of 99 MB, against 567 and 88 at 1.25 MiB
#   (16 chunks of 4), 609 and 94 at 2 MiB (11 chunks), 616 and 104 at 3 MiB
#   (7 chunks) and 609 and 112 at 4 MiB (5 chunks)
# - quadrant's 64 devices train as one chunk at every budget, and its
#   similarity runs in two passes of 208 pairs (three at 1.25 MiB, one at 3
#   and 4 MiB): 6917 device-rounds/s, and 6887 to 6948 at the other budgets,
#   within the runs' spread
LOCKSTEP_BUDGET_BYTES = 5 * 1024 * 1024 // 2


def lockstep_chunk(model: ParameterSet, rows: int) -> int:
    """How many models of this architecture and dtype run in lockstep on
    `rows` input rows each within LOCKSTEP_BUDGET_BYTES (at least one)."""
    floats = model.num_params + rows * sum(model.architecture().layer_sizes)
    per_model = model.weights[0].itemsize * floats
    return max(1, LOCKSTEP_BUDGET_BYTES // per_model)


def _lockstep_chunks(count: int, model: ParameterSet, rows: int) -> list[np.ndarray]:
    """The indices 0..count-1 cut into the fewest chunks of at most
    lockstep_chunk(model, rows) indices, of near-equal size; no chunk when
    count is 0."""
    if not count:
        return []
    return np.array_split(np.arange(count), -(-count // lockstep_chunk(model, rows)))


def make_state(
    topology: Topology,
    samples: LabeledDataset,
    rows: np.ndarray | Sequence[np.ndarray],
    init_params: ParameterSet,
    validation_fraction: float,
) -> SimulationState:
    """Split every device's rows of the sample store into train/validation
    and start every device's row of the model stack, in DEVICE_DTYPE, from
    the initial model.

    rows is an (n, m) table of store rows, or a list of n equal-length row
    arrays: row uid lists the m samples of device uid in order.  Every
    device's validation split is its first floor(fraction * m) rows (at
    least one row each side), which is deterministic because sampling is.
    Both splits are views of the row table: no sample is copied.
    """
    if not (0.0 < validation_fraction < 1.0):
        raise ValueError("validation_fraction must be in (0, 1)")
    if samples.features.ndim != 2:
        raise ValueError("the sample store must be a 2-d dataset")
    if len({np.shape(own) for own in rows}) > 1:
        raise ValueError("every device needs the same number of rows")
    table = np.asarray(rows)
    if table.ndim != 2 or len(table) != topology.n:
        raise ValueError("one row array per device required")
    m = table.shape[1]
    if m < 2:
        raise ValueError(f"every device has {m} rows: need at least 2 samples to split")
    if table.dtype.kind not in "iu" or not (table.min() >= 0 and table.max() < len(samples)):
        raise ValueError(f"rows must be integers that index the store's {len(samples)} samples")
    table = table.astype(np.int64, copy=False)
    n_val = min(m - 1, max(1, int(validation_fraction * m)))
    params = ParameterSet(
        *(
            [np.repeat(t.astype(DEVICE_DTYPE)[None], topology.n, axis=0) for t in tensors]
            for tensors in (init_params.weights, init_params.biases)
        )
    )
    return SimulationState(topology, samples, table[:, n_val:], table[:, :n_val], params)


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
        partition = FederationPartition({uid: uid for uid in range(topo.n)})
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
        # every member weighs its sample count, the same m for every device
        m = state.train_rows.shape[1] + state.val_rows.shape[1]
        for fed in partition.federations:
            uids = sorted(u for u in fed.members if gfield.source[u] == fed.leader)
            stacks = [params if uid == fed.leader else decoded for uid in uids]
            average = fed_avg(stacks, [m] * len(uids), uids)
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


# glibc's mallopt parameters (malloc.h), and the size up to which the heap
# keeps what is freed: above every array a round allocates
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEPT_BYTES = 32 * 1024 * 1024


@functools.cache
def keep_heap_mapped() -> None:
    """Have glibc's malloc keep freed memory mapped for the rest of the
    process: no trimming of the heap's top under _HEAP_KEPT_BYTES, and arrays
    up to that size from the heap, not from mmap.  By default glibc hands the
    heap's top back to the kernel after each pass and maps large arrays
    afresh, so each round page-faults its arrays in again.  It cannot be
    undone.  Where libc has no mallopt it does nothing."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # no C library to open by name None
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _HEAP_KEPT_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _HEAP_KEPT_BYTES)


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
    """Run every lockstep chunk of devices through its whole pipeline, the
    chunks spread over the lanes: compress its rows of state.params, train
    them under the round's mask on its rows of state.train_rows (every
    device trains on the same number of rows) and write the trained models
    back; then, when size is given (a round that exchanges models), encode
    them for the wire, decode that into the chunk's rows of state.decoded
    and write each device's wire size into size.  When similarity is scored
    on uncompressed models the whole exchange is dense (broadcast,
    collection and the averaged members alike): a receiver scores the model
    it was sent.

    Raises FloatingPointError when a trained model is not finite, naming the
    round, the lowest uid of such a model over all chunks and the learning
    rate; every arm fails the same way, and state.params then holds the
    diverged models.  A finite model always goes on the wire: its f32 values
    decode as they are, and its quantizer scale, at most (2 * f32 max) / 255,
    fits the f32 the bytes carry."""
    params = state.params
    decoded = state.decoded
    seeds = state.shuffle_seeds(cfg.training.rng_seed)

    def pipeline(chunk: np.ndarray) -> int | None:
        """Run one chunk; return the lowest uid of its trained models that is
        not finite."""
        uids = chunk.tolist()
        cm = compress(params[uids], cfg.strategy)
        out = local_training(
            decompress(cm),
            state.samples,
            cfg.training,
            mask=cm.mask,
            round_index=round_index,
            seeds=[seeds[uid] for uid in uids],
            rows=state.train_rows[chunk],
        )
        # the chunks' rows are disjoint, and this chunk's were read above
        for rows, trained in zip(params.weights + params.biases, out.weights + out.biases):
            rows[uids] = trained
        finite = _finite_rows(out)
        if not finite.all():
            return uids[int(np.argmin(finite))]
        if size is not None:
            if cfg.similarity_uses_compressed:
                wire = encode_wire(out, cfg.strategy, cm.mask)
            else:
                wire = CompressedModel("dense", params=out)
            received = decode_wire(wire)
            for rows, got in zip(
                decoded.weights + decoded.biases, received.weights + received.biases
            ):
                rows[uids] = got
            size[uids] = serialized_size(wire)
        return None

    chunks = _lockstep_chunks(state.topology.n, params[0], cfg.training.batch_size)
    diverged = [uid for uid in _in_lanes(pipeline, chunks) if uid is not None]
    if diverged:
        raise FloatingPointError(
            f"round {round_index}: local training diverged: device {min(diverged)} has "
            f"non-finite parameters at learning_rate {cfg.training.learning_rate!r}"
        )


def _finite_rows(stack: ParameterSet) -> np.ndarray:
    """Whether each model of a stack holds finite values only."""
    tensors = stack.weights + stack.biases
    return np.logical_and.reduce([np.isfinite(t.reshape(len(t), -1)).all(1) for t in tensors])


def _edge_dissimilarity(state: SimulationState) -> DissimilarityMatrix:
    """cross_similarity of every topology edge, scored in lockstep on the
    decoded models: each edge is two (sender model, receiver validation
    split) pairs, and the pairs run in chunks of one forward pass each, on
    one gather of the chunk's senders from the decoded stack and of its
    receivers' validation rows from the sample store."""
    edges = state.topology.edges
    decoded = state.decoded
    # pair e scores edge e's second device's model on its first's split, pair
    # e + |E| the other way round
    senders = np.concatenate([edges[:, 1], edges[:, 0]])
    receivers = np.concatenate([edges[:, 0], edges[:, 1]])
    losses = np.empty(len(senders))
    for pick in _lockstep_chunks(len(senders), state.params[0], state.val_rows.shape[1]):
        models = ParameterSet(
            [np.take(w, senders[pick], axis=0) for w in decoded.weights],
            [np.take(b, senders[pick], axis=0) for b in decoded.biases],
        )
        vals = state.samples.gather(state.val_rows[receivers[pick]])
        losses[pick], _ = loss_and_accuracy(models, vals)
    return DissimilarityMatrix(edges, losses[: len(edges)] + losses[len(edges) :])


def evaluate_objective(
    partition: FederationPartition,
    models: ParameterSet,
    test_sets: Sequence[LabeledDataset],
    sites: Sequence[DeviceSite],
) -> tuple[float, list[float], list[float]]:
    """Objective plus per-subregion accuracy and loss.

    A federation's model is models[leader], its leader's row of the model
    stack; the objective sums its mean loss on the test set of the subregion
    hosting the leader.  A subregion's metrics come from the federation
    holding the plurality of its devices (ties to the lowest leader uid), nan
    for a subregion with no devices.  Each distinct (leader, subregion) pair
    is scored once, in the calling thread: pairs whose test sets share a
    length and dtype run in lockstep chunks, leader rows on stacked sets.
    """
    counts = Counter((site.subregion_id, partition.leader_of[site.uid]) for site in sites)
    # sorted by device count, then by falling uid: a subregion's last is its plurality
    ranked = sorted(counts.items(), key=lambda item: (item[1], -item[0][1]))
    plurality = {j: leader for (j, leader), _ in ranked if j < len(test_sets)}
    federation_pairs = [(f.leader, sites[f.leader].subregion_id) for f in partition.federations]
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for u, j in sorted(set(federation_pairs) | {(u, j) for j, u in plurality.items()}):
        groups.setdefault((len(test_sets[j]), test_sets[j].features.dtype), []).append((u, j))
    # a lone array is viewed as a stack of one, not copied
    stack = lambda arrays: arrays[0][None] if len(arrays) == 1 else np.stack(arrays)  # noqa: E731
    scores: dict[tuple[int, int], tuple[float, float]] = {}
    for (length, _), group in groups.items():
        for pick in _lockstep_chunks(len(group), models[group[0][0]], length):
            chunk = [group[c] for c in pick]
            leaders, ts = [u for u, _ in chunk], [test_sets[j] for _, j in chunk]
            picked = models[leaders[0]][None] if len(leaders) == 1 else models[leaders]
            data = LabeledDataset(stack([t.features for t in ts]), stack([t.labels for t in ts]))
            loss, acc = loss_and_accuracy(picked, data)
            scores.update(zip(chunk, zip(loss.tolist(), acc.tolist())))
    objective = 0.0
    for pair in federation_pairs:
        objective += scores[pair][0]
    region = [scores.get((plurality.get(j), j), (float("nan"),) * 2) for j in range(len(test_sets))]
    return objective, [acc for _, acc in region], [loss for loss, _ in region]
