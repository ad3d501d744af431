"""Spatial deployment and non-IID data assignment.

A rectangular area is split into a grid of subregions, devices are dropped
into it (uniformly at random or on a jittered lattice), a disc-radius
communication topology is derived from the positions, and one generator draws
every device's local dataset from its subregion's distribution: either
synthetic Gaussian class blobs or a label-skewed slice of an IDX-format pool.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .fields import FieldGraph
from .neuralnet import LabeledDataset

PLACEMENTS = ("uniform-random", "jittered-grid")
DISTRIBUTION_KINDS = ("synthetic-blobs", "idx-label-skew")

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Area:
    """A width x height rectangle split into rows x cols subregions."""

    width: float
    height: float
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if not all(math.isfinite(d) and d > 0 for d in (self.width, self.height)):
            raise ValueError("area dimensions must be finite and > 0")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("subregion grid must be at least 1x1")
        if not (self.width / self.cols > 0 and self.height / self.rows > 0):
            raise ValueError("subregion sides must be > 0, not underflow to 0")

    @property
    def num_subregions(self) -> int:
        return self.rows * self.cols

    def subregion_of(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Subregion indices (row * cols + col, int64) of the points (x[i], y[i])
        of two 1-d arrays; boundary points fall to the lower-index cell."""
        outside = ~((0.0 <= x) & (x <= self.width) & (0.0 <= y) & (y <= self.height))
        if outside.any():
            i = outside.argmax()
            raise ValueError(f"point ({x[i]}, {y[i]}) outside the {self.width}x{self.height} area")
        col = np.clip(np.ceil(x / (self.width / self.cols)) - 1, 0, self.cols - 1)
        row = np.clip(np.ceil(y / (self.height / self.rows)) - 1, 0, self.rows - 1)
        return (row * self.cols + col).astype(np.int64)


@dataclass
class Topology:
    """Disc-radius communication graph over the uids 0..n-1, and each uid's subregion."""

    subregion: np.ndarray
    graph: FieldGraph

    @property
    def n(self) -> int:
        return len(self.subregion)

    @property
    def edges(self) -> np.ndarray:
        """Undirected edges as the sorted (E, 2) array of rows (i, j), i < j."""
        return self.graph.edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each uid's neighbors in ascending order, indexed by uid."""
        return tuple(self.graph.adj.values())


def deploy_devices(area: Area, n: int, placement: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Place n devices: their (n, 2) positions and (n,) int64 subregions,
    indexed by uid in draw order.

    uniform-random draws positions uniformly over the area.  jittered-grid
    puts devices on the first n cells of a ceil(sqrt(n)) lattice (row-major)
    at cell centers, each jittered by up to a quarter of the lattice pitch
    per axis, so a device never leaves its lattice cell.
    """
    if n < 1:
        raise ValueError("need at least one device")
    if placement not in PLACEMENTS:
        raise ValueError(f"unknown placement {placement!r}, expected one of {PLACEMENTS}")
    rng = np.random.default_rng(seed)
    if placement == "uniform-random":
        xs = rng.uniform(0.0, area.width, n)
        ys = rng.uniform(0.0, area.height, n)
    else:
        g = math.ceil(math.sqrt(n))
        pitch_x = area.width / g
        pitch_y = area.height / g
        cells = np.arange(n)
        cx = (cells % g + 0.5) * pitch_x
        cy = (cells // g + 0.5) * pitch_y
        xs = cx + rng.uniform(-pitch_x / 4, pitch_x / 4, n)
        ys = cy + rng.uniform(-pitch_y / 4, pitch_y / 4, n)
    return np.stack([xs, ys], axis=1), area.subregion_of(xs, ys)


def build_topology(positions: np.ndarray, subregion: np.ndarray, r_c: float) -> Topology:
    """Connect every pair of the (n, 2) positions within Euclidean distance
    r_c (inclusive); device uid sits at positions[uid] in subregion[uid]."""
    if not r_c > 0:
        raise ValueError("communication radius must be positive")
    n = len(subregion)
    x, y = positions.T
    # row i holds i's neighbors j > i, so the rows joined in order are the
    # sorted edge array (a world without devices has no rows to join)
    higher = [
        i + 1 + np.flatnonzero(np.hypot(x[i + 1 :] - x[i], y[i + 1 :] - y[i]) <= r_c)
        for i in range(n)
    ]
    firsts = np.repeat(np.arange(n), [len(js) for js in higher])
    seconds = np.concatenate(higher) if higher else firsts
    edges = np.stack([firsts, seconds], axis=1)
    return Topology(np.asarray(subregion, dtype=np.int64), FieldGraph.from_edges(n, edges))


@dataclass(frozen=True)
class BlobClass:
    """One synthetic class: label, Gaussian mean, isotropic std."""

    label: int
    mean: tuple[float, ...]
    std: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.std) and self.std > 0):
            raise ValueError("blob std must be finite and > 0")


@dataclass
class DistributionSpec:
    """How each subregion's local data is generated.

    synthetic-blobs: blob_classes[j] lists the Gaussian class blobs of
    subregion j.  idx-label-skew: owned_labels[j] lists the labels subregion j
    owns inside the shared IDX pool, and epsilon is the fraction of each local
    dataset drawn from other subregions' labels.  own_rows[j] and
    other_rows[j] are the pool rows, ascending, whose labels subregion j owns
    and does not own; they are found once, when the spec is made.
    """

    kind: str
    blob_classes: tuple[tuple[BlobClass, ...], ...] | None = None
    owned_labels: tuple[tuple[int, ...], ...] | None = None
    epsilon: float = 0.0
    pool: LabeledDataset | None = None
    own_rows: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False, default=())
    other_rows: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(
                f"unknown distribution kind {self.kind!r}, expected one of {DISTRIBUTION_KINDS}"
            )
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.kind == "synthetic-blobs":
            if not self.blob_classes or any(len(c) == 0 for c in self.blob_classes):
                raise ValueError("every subregion needs at least one blob class")
        else:
            if self.pool is None or not self.owned_labels:
                raise ValueError("idx-label-skew needs a pool and per-subregion labels")
            pool_labels, label_of_row = np.unique(self.pool.labels, return_inverse=True)
            owner = {l: j for j, group in enumerate(self.owned_labels) for l in group}
            if len(owner) != sum(len(group) for group in self.owned_labels):
                raise ValueError("a label may be owned by only one subregion")
            if set(owner) != set(pool_labels.tolist()):
                raise ValueError("owned label subsets must cover the pool's classes")
            owner_of_row = np.array([owner[l] for l in pool_labels.tolist()])[label_of_row]
            subregions = range(len(self.owned_labels))
            self.own_rows = tuple(np.flatnonzero(owner_of_row == j) for j in subregions)
            self.other_rows = tuple(np.flatnonzero(owner_of_row != j) for j in subregions)

    @property
    def num_subregions(self) -> int:
        groups = self.blob_classes if self.kind == "synthetic-blobs" else self.owned_labels
        return len(groups)

    @property
    def num_classes(self) -> int:
        if self.kind == "synthetic-blobs":
            return 1 + max(c.label for group in self.blob_classes for c in group)
        return 1 + int(max(l for group in self.owned_labels for l in group))


def synthetic_blob_spec(
    k: int,
    classes_per_subregion: int = 2,
    feature_dim: int = 2,
    std: float = 0.08,
    seed: int = 0,
) -> DistributionSpec:
    """Build a synthetic-blobs spec with disjoint labels per subregion.

    Subregion j owns labels [j*c, (j+1)*c).  Its class means sit evenly
    spaced on a circle of radius 0.25 around the center of [0, 1]^d (first
    two feature dims; any extra dims stay at 0.5), rotated by a per-subregion
    angle drawn from the seed, which keeps classes within a subregion well
    separated while different subregions still overlap in feature space.
    """
    if k < 1 or classes_per_subregion < 1:
        raise ValueError("need at least one subregion and one class per subregion")
    if feature_dim < 2:
        raise ValueError("feature_dim must be >= 2")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, k)
    groups = []
    for j in range(k):
        classes = []
        for i in range(classes_per_subregion):
            theta = angles[j] + 2.0 * math.pi * i / classes_per_subregion
            mean = [0.5] * feature_dim
            mean[0] = 0.5 + 0.25 * math.cos(theta)
            mean[1] = 0.5 + 0.25 * math.sin(theta)
            classes.append(BlobClass(j * classes_per_subregion + i, tuple(mean), std))
        groups.append(tuple(classes))
    return DistributionSpec("synthetic-blobs", blob_classes=tuple(groups))


def idx_label_skew_spec(pool: LabeledDataset, k: int, epsilon: float = 0.0) -> DistributionSpec:
    """Split the pool's labels into k contiguous owned groups (sorted order)."""
    # distinct labels by a sort (np.unique's masked-array check imports numpy.ma)
    labels = np.sort(pool.labels)
    labels = labels[np.diff(labels, prepend=-1) != 0]
    if len(labels) < k:
        raise ValueError(f"pool has {len(labels)} classes, cannot cover {k} subregions")
    chunks = np.array_split(labels, k)
    owned = tuple(tuple(int(v) for v in chunk) for chunk in chunks)
    return DistributionSpec("idx-label-skew", owned_labels=owned, epsilon=epsilon, pool=pool)


# The float64 noise of a synthetic draw is drawn and shifted onto its class
# blobs in blocks of at most this many bytes, so that a world's draw holds no
# float64 copy of the whole world beside its float32 store.
_DRAW_BLOCK_BYTES = 256 * 1024


def sample_local_rows(
    spec: DistributionSpec, subregion: np.ndarray, m: int, seed: int
) -> np.ndarray:
    """The (len(subregion), m) int64 pool rows of the idx-label-skew datasets
    of devices in the given subregions, one device per entry, each row in
    sample order; one generator, from seed, draws them all.

    Each sample is foreign with probability epsilon: the generator first
    draws every device's foreign mask at once, in device order.  Then, device
    by device, it picks the owned and the foreign samples without
    replacement, as rng.choice positions in the owned and in the other
    labels' pool rows.  A device that needs more rows than a pool holds
    raises ValueError before any row is picked.
    """
    if spec.kind != "idx-label-skew":
        raise ValueError(f"{spec.kind} data has no pool to draw rows from")
    subregion = _checked(spec, subregion, m)
    rng = np.random.default_rng(seed)
    foreign = rng.random((len(subregion), m)) < spec.epsilon
    n_foreign = foreign.sum(axis=1)
    own_len = np.array([len(rows) for rows in spec.own_rows])[subregion]
    other_len = np.array([len(rows) for rows in spec.other_rows])[subregion]
    short = (m - n_foreign > own_len) | (n_foreign > other_len)
    if short.any():
        uid = int(short.argmax())
        raise ValueError(
            f"pool exhausted for subregion {subregion[uid]}: need {m - n_foreign[uid]} owned / "
            f"{n_foreign[uid]} foreign, have {own_len[uid]} / {other_len[uid]}"
        )
    rows = np.empty((len(subregion), m), dtype=np.int64)
    for out, mixed, j in zip(rows, foreign, subregion.tolist()):
        for pool, pick in ((spec.own_rows[j], ~mixed), (spec.other_rows[j], mixed)):
            out[pick] = pool[rng.choice(len(pool), int(pick.sum()), replace=False)]
    return rows


def sample_local_dataset(
    spec: DistributionSpec, subregion: np.ndarray, m: int, seed: int, dtype=np.float64
) -> tuple[LabeledDataset, np.ndarray]:
    """The local datasets of devices in the given subregions, one device per
    entry, m samples each, drawn by one generator from seed: a sample store
    and the (len(subregion), m) table of each device's rows in it.

    idx-label-skew: the store is the pool itself and the rows are
    sample_local_rows'.  synthetic-blobs: the store is the draws in device
    order, row-major, with float features in dtype.  The generator first
    draws every sample's class at once, then every sample's standard normal
    noise, sample after sample; a sample is its class mean plus its noise
    times the class std, computed in float64, clipped to [0, 1] and then
    rounded to dtype.
    """
    if spec.kind == "idx-label-skew":
        return spec.pool, sample_local_rows(spec, subregion, m, seed)
    subregion = _checked(spec, subregion, m)
    classes = [c for group in spec.blob_classes for c in group]
    counts = np.array([len(group) for group in spec.blob_classes])
    means = np.array([c.mean for c in classes])
    stds = np.array([c.std for c in classes])
    rng = np.random.default_rng(seed)
    # each sample's class as an index into every subregion's classes in turn
    picks = rng.integers(0, counts[subregion][:, None], (len(subregion), m))
    picks += (np.cumsum(counts) - counts)[subregion][:, None]
    picks = picks.ravel()
    features = np.empty((len(picks), means.shape[1]), dtype=dtype)
    step = max(1, _DRAW_BLOCK_BYTES // means[0].nbytes)
    noise = np.empty((min(step, len(picks)), means.shape[1]))
    for lo in range(0, len(picks), step):
        block = noise[: min(step, len(picks) - lo)]
        rng.standard_normal(out=block)
        own = picks[lo : lo + len(block)]
        block *= stds[own, None]
        block += means[own]
        np.clip(block, 0.0, 1.0, out=block)
        features[lo : lo + len(block)] = block
    labels = np.array([c.label for c in classes], dtype=np.int64)[picks]
    return LabeledDataset(features, labels), np.arange(len(picks)).reshape(len(subregion), m)


def _checked(spec: DistributionSpec, subregion: np.ndarray, m: int) -> np.ndarray:
    """The subregions of a draw as an int64 array, after checking the draw's
    arguments."""
    if m < 1:
        raise ValueError("need at least one sample")
    subregion = np.asarray(subregion, dtype=np.int64)
    if subregion.ndim != 1 or not np.all((0 <= subregion) & (subregion < spec.num_subregions)):
        raise ValueError(f"subregions must be a 1-d array of ids in [0, {spec.num_subregions})")
    return subregion


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Parse big-endian IDX image/label files into a flat dataset of pixel bytes.

    Images (magic 0x00000803) are flattened row-major and kept as their uint8
    bytes, which LabeledDataset reads as the [0, 1] intensities k / 255.0 (a
    forward pass divides them as it starts); labels (magic 0x00000801) must
    count the same number of items.
    """
    with open(images_path, "rb") as f:
        head = f.read(16)
        if len(head) < 16:
            raise ValueError(f"{images_path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", head)
        if magic != _IDX_IMAGES_MAGIC:
            raise ValueError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}"
            )
        raw = np.fromfile(f, dtype=np.uint8)
    if len(raw) != count * rows * cols:
        raise ValueError(
            f"{images_path}: expected {count * rows * cols} pixel bytes, got {len(raw)}"
        )
    features = raw.reshape(count, rows * cols)

    with open(labels_path, "rb") as f:
        head = f.read(8)
        if len(head) < 8:
            raise ValueError(f"{labels_path}: truncated IDX header")
        magic, label_count = struct.unpack(">II", head)
        if magic != _IDX_LABELS_MAGIC:
            raise ValueError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}"
            )
        label_raw = f.read()
    if len(label_raw) != label_count:
        raise ValueError(f"{labels_path}: expected {label_count} label bytes, got {len(label_raw)}")
    if label_count != count:
        raise ValueError(f"count mismatch: {count} images but {label_count} labels")
    labels = np.frombuffer(label_raw, dtype=np.uint8).astype(np.int64)
    return LabeledDataset(features, labels)
