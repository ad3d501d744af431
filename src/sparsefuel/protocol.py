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
from .environment import Topology
from .neuralnet import (
    LabeledDataset,
    ParameterSet,
    TrainingConfig,
    local_training,
    loss_and_accuracy,
    shuffle_orders,
)

ARMS = ("sparsefuel", "global-fedavg", "isolated")

# The float type of a run's devices: make_state builds the model stack in it
# and the harness the float features (the wire's f32 decodes to float32 too).
DEVICE_DTYPE = np.float32

# The byte codec, under the names perfbench's call-site tracer wraps here: a
# round never calls it (decode_wire and serialized_size give what its bytes
# would), and the tracer's test checks that a round does not.
to_bytes, from_bytes = compression.to_bytes, compression.from_bytes


@dataclass(frozen=True, eq=False)
class Federation:
    """One federation: its elected leader and its members, an ascending uid array."""

    leader: int
    members: np.ndarray

    def __post_init__(self) -> None:
        if self.leader not in self.members:
            raise ValueError(f"leader {self.leader} is not a member")


@dataclass
class FederationPartition:
    """The leader every device follows, an int array indexed by uid, and the
    federations it splits the devices into: one per leader, sorted by leader
    uid."""

    leader_of: np.ndarray
    federations: list[Federation] = field(init=False)

    def __post_init__(self) -> None:
        # a stable sort groups the uids by leader, each group ascending
        order = np.argsort(self.leader_of, kind="stable")
        leaders, starts = np.unique(self.leader_of[order], return_index=True)
        groups = np.split(order, starts[1:])
        self.federations = [Federation(u, m) for u, m in zip(leaders.tolist(), groups)]

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

    @property
    def dense_wire(self) -> bool:
        """Whether every model goes on the wire as its float32 values (the
        dense kind, or similarity scored on uncompressed models), which a
        receiver decodes as they are: it holds the sender's row of the stack."""
        return self.strategy.kind == "dense" or not self.similarity_uses_compressed


def cross_similarity(
    model_i: ParameterSet,
    model_j: ParameterSet,
    val_i: LabeledDataset,
    val_j: LabeledDataset,
) -> float:
    """Pairwise dissimilarity: j's loss on i's validation split plus i's on j's."""
    if model_i.layer_sizes != model_j.layer_sizes:
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
    gfield = fields.g_block(graph, np.flatnonzero(fields.s_block(graph)))
    return gfield, FederationPartition(gfield.source)


def form_federations(
    topology: Topology, ds: DissimilarityMatrix, tau: float
) -> FederationPartition:
    """Connected components of the tau-gated graph, led by their minimum uid."""
    return _elect(similarity_graph(topology, ds, tau))[1]


def fed_avg(
    first: ParameterSet, models: ParameterSet, rows: np.ndarray, weights: Sequence[float]
) -> ParameterSet:
    """Weighted elementwise mean of the model first and the rows of the
    stack models, folded in that order: weights[0] weighs first and
    weights[1 + k] row rows[k].  In a round, first is the leader's model as
    trained and the rows are every other member's decoded model, in uid order.

    The mean is anchored on first (sum of weighted deltas), so copies of one
    model average to it exactly; first's own delta, +0.0 for a finite model,
    adds nothing, so it is left out.  The fold runs in the models' dtype, the
    weights included, and divides by the weights' sequential float64 sum.
    Each member is one flat row of its tensors, and np.add.reduce(axis=0)
    sums the deltas in blocks of at most LOCKSTEP_BUDGET_BYTES / 8 bytes,
    the running sum as row 0: numpy adds rows two or more wide in order (one
    wide, pairwise), so the bits are those of adding each delta in turn.  A
    row wider than a block is subtracted, weighted and added in place.
    """
    base, weights = first.flat, np.asarray(weights, dtype=np.float64)
    if (base.shape, base.dtype, first.layer_sizes) != (
        models.flat.shape[1:], models.flat.dtype, models.layer_sizes
    ):
        raise ValueError("first must be one model of the stack's architecture and dtype")
    if not base.size:
        raise ValueError("cannot average models with no parameters")
    if weights.shape != (len(rows) + 1,) or not (weights > 0).all():
        raise ValueError("one positive weight per member required: first, then each row")
    scale = weights[1:, None].astype(base.dtype)
    size = max(1, LOCKSTEP_BUDGET_BYTES // 8 // base.nbytes)
    acc, buf = np.zeros_like(base), np.empty((min(size, len(rows)) + 1, base.size), base.dtype)
    for lo in range(0, len(rows), size):
        block = buf[1 : 1 + min(size, len(rows) - lo)]
        if len(block) == 1:
            np.subtract(models.flat[rows[lo]], base, out=block[0])
            acc += np.multiply(block[0], scale[lo], out=block[0])
            continue
        models.flat.take(rows[lo : lo + size], 0, block)
        block -= base
        block *= scale[lo : lo + len(block)]
        buf[0] = acc
        np.add.reduce(buf[: len(block) + 1], axis=0, out=acc)
    return ParameterSet.from_flat(base + acc / float(np.cumsum(weights)[-1]), first.layer_sizes)


@dataclass
class SimulationState:
    """Everything that evolves across rounds, and the one sample store every
    device's rows index.

    Every device holds m rows of the store, split the same way: row uid of
    val_rows holds device uid's validation rows and row uid of train_rows its
    training rows, both views of one (n, m) row table.  Row uid of params
    holds device uid's current model, in DEVICE_DTYPE: a round trains it and
    writes its federation's average over it, in place.  Row uid of decoded
    holds the model device uid's wire bytes decode to, once a round has
    exchanged models.  A dense wire decodes to the float32 rows as they are,
    so decoded is then params itself; a wire that prunes or quantizes decodes
    into a stack of its own, allocated by its first round and written by every
    one after.  Row uid of orders holds device uid's shuffles of its training
    rows, one per epoch, as the last round drew them into the one buffer."""

    topology: Topology
    samples: LabeledDataset
    train_rows: np.ndarray
    val_rows: np.ndarray
    params: ParameterSet
    bytes_total: int = 0
    decoded: ParameterSet = field(init=False, repr=False)
    orders: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.params.flat.dtype != DEVICE_DTYPE:
            raise ValueError(f"the model stack must hold {np.dtype(DEVICE_DTYPE)}")
        self.decoded = self.params
        self.orders = np.empty((0, 0, 0), dtype=np.intp)

    def shuffle(self, training: TrainingConfig, round_index: int) -> np.ndarray:
        """Draw every device's row orders for the round into orders, in uid
        order, from (training.rng_seed, round_index): the orders do not
        depend on how the round cuts the devices into chunks or lanes."""
        shape = (self.topology.n, training.local_epochs, self.train_rows.shape[1])
        if self.orders.shape != shape:
            self.orders = np.empty(shape, dtype=np.intp)
        return shuffle_orders(training.rng_seed, round_index, self.orders)


# Lockstep work on a stack of models is cut into chunks of at most this many
# bytes as the budget counts them: per model, its parameters and the
# activations of one pass over its rows of input, in the models' dtype
# (float32 in a run).  A training lane holds more while it runs its chunk:
# training's copy and its gradient, on a quantizing wire the dequantized
# input too, one batch's features and activations, the row orders it
# gathers and, when quantizing, the quantizer's float64 temporaries.  Under
# tracemalloc (seed 7, one chunk after a warm-up round) a lane peaked 1.0
# MiB above its start on quadrant's one chunk of 64 models (0.25 MiB as
# counted) and 5.9 MiB, 2.45 budgets, on an idx-global chunk
# of 8 (2.4 MiB as counted).  Larger chunks pay each lockstep step's fixed
# Python and numpy overhead less often, and chunks share two lanes best in
# even counts.  Of 1.25, 2, 2.5, 3 and 4 MiB (float32, seed 7, medians of
# three 12 s runs, two lanes on a 2-core Xeon), 2.5 MiB gave the fastest
# rounds: idx-global trains 8 chunks of eight at 670 device-rounds/s and a
# 99 MB peak RSS (567-616 and 88-112 MB at the others), and quadrant's 64
# devices train as one chunk at every budget at 6917 (6887-6948).
LOCKSTEP_BUDGET_BYTES = 5 * 1024 * 1024 // 2


def lockstep_chunk(model: ParameterSet, rows: int) -> int:
    """How many models of this architecture and dtype run in lockstep on
    `rows` input rows each within LOCKSTEP_BUDGET_BYTES (at least one)."""
    per_model = model.flat.itemsize * (model.num_params + rows * sum(model.layer_sizes))
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
    flat = np.repeat(init_params.flat.astype(DEVICE_DTYPE)[None], topology.n, axis=0)
    params = ParameterSet.from_flat(flat, init_params.layer_sizes)
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
        partition = FederationPartition(np.arange(topo.n))
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
            gfield = fields.g_block(fields.FieldGraph.from_topology(topo), [0])
            partition = FederationPartition(np.zeros(topo.n, dtype=np.int64))

    # MAC proxy of the representative federation's leader model as trained,
    # read before an average is written over it
    macs = nonzero_macs(params[partition.representative().leader])
    if arm != "isolated":
        # tree collection up the hop field: a leader averages the members its
        # tree reaches (a forced federation's devices with no wire path to
        # the leader keep their trained models), in uid order, contributing
        # its own model as trained and every other member the model its wire
        # bytes decode to (on a dense wire, its row of params); the average
        # goes back down the tree into their rows, which no later federation
        # reads: federations are disjoint
        bytes_collect = int(size @ np.maximum(gfield.hops, 0))
        # every member weighs its sample count, the same m for every device
        m = state.train_rows.shape[1] + state.val_rows.shape[1]
        for fed in partition.federations:
            # the leader, its federation's lowest uid, anchors the fold
            uids = fed.members[gfield.source[fed.members] == fed.leader]
            weights = np.full(len(uids), m)
            params.flat[uids] = fed_avg(params[fed.leader], decoded, uids[1:], weights).flat
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
    device trains on the same number of rows) in the orders state.shuffle
    draws for all devices before the lanes start, and write the trained
    models back; then, when size is given (a round that exchanges models), encode
    them for the wire, decode a wire that prunes or quantizes into the chunk's
    rows of state.decoded and write each device's wire size into size.  A
    dense wire decodes to the trained rows as they are, so it is not decoded:
    state.decoded is then state.params.  When similarity is scored on
    uncompressed models the whole exchange is dense (broadcast, collection
    and the averaged members alike): a receiver scores the model it was sent.

    Raises FloatingPointError when a trained model is not finite, naming the
    round, the lowest uid of such a model over all chunks and the learning
    rate; every arm fails the same way, and state.params then holds the
    diverged models.  A finite model always goes on the wire: its f32 values
    decode as they are, and its quantizer scale, at most (2 * f32 max) / 255,
    fits the f32 the bytes carry."""
    params = state.params
    orders = state.shuffle(cfg.training, round_index)
    # a dense wire's receivers read params; any other decodes into a stack of its own
    if size is not None and cfg.dense_wire:
        state.decoded = params
    elif size is not None and state.decoded is params:
        state.decoded = ParameterSet.from_flat(np.empty_like(params.flat), params.layer_sizes)

    def pipeline(chunk: np.ndarray) -> int | None:
        """Run one chunk; return the lowest uid of its trained models that is
        not finite."""
        # a chunk is a run of consecutive uids: its rows of each stack are a view
        rows = slice(int(chunk[0]), int(chunk[-1]) + 1)
        cm = compress(params[rows], cfg.strategy)
        out = local_training(
            decompress(cm),
            state.samples,
            cfg.training,
            mask=cm.mask,
            rows=state.train_rows[rows],
            orders=orders[rows],
        )
        # the chunks' rows are disjoint, and training read a copy of this one's
        params.flat[rows] = out.flat
        finite = np.isfinite(out.flat).all(axis=1)
        if not finite.all():
            return rows.start + int(np.argmin(finite))
        if size is not None:
            if cfg.similarity_uses_compressed:
                wire = encode_wire(out, cfg.strategy, cm.mask)
            else:
                wire = CompressedModel("dense", params=out)
            if not cfg.dense_wire:
                state.decoded.flat[rows] = decode_wire(wire).flat
            size[rows] = serialized_size(wire)
        return None

    chunks = _lockstep_chunks(state.topology.n, params[0], cfg.training.batch_size)
    diverged = [uid for uid in _in_lanes(pipeline, chunks) if uid is not None]
    if diverged:
        raise FloatingPointError(
            f"round {round_index}: local training diverged: device {min(diverged)} has "
            f"non-finite parameters at learning_rate {cfg.training.learning_rate!r}"
        )


def _lockstep_scores(
    models: ParameterSet, model_rows, store: LabeledDataset, row_table, table_rows
) -> tuple[np.ndarray, np.ndarray]:
    """The (loss, accuracy) arrays of loss_and_accuracy for every pair p of
    models[model_rows[p]] and the store rows row_table[table_rows[p]], in
    chunks of one forward pass each, on one gather of the chunk's models
    from the stack and of its rows from the store (int arrays all three)."""
    loss, acc = np.empty(len(model_rows)), np.empty(len(model_rows))
    for pick in _lockstep_chunks(len(model_rows), models[0], row_table.shape[1]):
        data = store.gather(row_table[table_rows[pick]])
        loss[pick], acc[pick] = loss_and_accuracy(models[model_rows[pick]], data)
    return loss, acc


def _edge_dissimilarity(state: SimulationState) -> DissimilarityMatrix:
    """cross_similarity of every topology edge, scored in lockstep on the
    decoded models (on a dense wire, the rows of params): each edge is two
    (sender model, receiver validation split) pairs."""
    edges = state.topology.edges
    # pair e scores edge e's second device's model on its first's split, pair
    # e + |E| the other way round
    senders = np.concatenate([edges[:, 1], edges[:, 0]])
    receivers = np.concatenate([edges[:, 0], edges[:, 1]])
    losses, _ = _lockstep_scores(state.decoded, senders, state.samples, state.val_rows, receivers)
    return DissimilarityMatrix(edges, losses[: len(edges)] + losses[len(edges) :])


def evaluate_objective(
    partition: FederationPartition,
    models: ParameterSet,
    tests: LabeledDataset,
    test_rows: np.ndarray,
    subregion: np.ndarray,
) -> tuple[float, list[float], list[float]]:
    """Objective plus per-subregion accuracy and loss.

    Subregion j's test set is the store rows test_rows[j], a row of a (k, t)
    table.  A federation's model is models[leader], its leader's row of the
    model stack; the objective sums its mean loss on test set
    subregion[leader].  A subregion's metrics come from the federation
    holding the plurality of its devices (ties to the lowest leader uid), nan
    for a subregion with no devices.  Each distinct (leader, subregion) pair
    is scored once, in the calling thread, the sorted pairs in lockstep.
    """
    # one count of the (subregion, leader) pairs, each as subregion * n + leader,
    # ranked by device count, then by falling leader: a subregion's last is its plurality
    n = len(partition.leader_of)
    pairs, counts = np.unique(subregion * n + partition.leader_of, return_counts=True)
    ranked = pairs[np.lexsort((-pairs, counts))]
    plurality = {j: u for j, u in (divmod(p, n) for p in ranked.tolist()) if j < len(test_rows)}
    fed_leaders = [f.leader for f in partition.federations]
    federation_pairs = list(zip(fed_leaders, subregion[fed_leaders].tolist()))
    distinct = sorted(set(federation_pairs) | {(u, j) for j, u in plurality.items()})
    leaders, regions = np.array(distinct).reshape(-1, 2).T
    loss, acc = _lockstep_scores(models, leaders, tests, test_rows, regions)
    scores = dict(zip(distinct, zip(loss.tolist(), acc.tolist())))
    objective = 0.0
    for pair in federation_pairs:
        objective += scores[pair][0]
    region = [scores.get((plurality.get(j), j), (float("nan"),) * 2) for j in range(len(test_rows))]
    return objective, [acc for _, acc in region], [loss for loss, _ in region]
