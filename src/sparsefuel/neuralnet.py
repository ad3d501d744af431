"""Multilayer perceptron training core.

Plain-numpy MLP with ReLU hidden layers and a linear output layer; the softmax
is folded into the cross-entropy loss.  Models are float32 (a run's devices)
or float64, and every kernel computes in its models' dtype: inputs, 8-bit
intensities included (see LabeledDataset), become that dtype as a forward
pass starts.  Every operation is a pure function of its inputs, and all
randomness comes from explicit seeds, so identical calls are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Architecture:
    """Layer widths of an MLP: (input dim, hidden dims ..., class count)."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("architecture needs at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must all be >= 1, got {sizes}")

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def weight_shapes(self) -> list[tuple[int, int]]:
        """Shapes of the weight matrices, each (fan_out, fan_in)."""
        return [
            (self.layer_sizes[i + 1], self.layer_sizes[i])
            for i in range(self.num_layers)
        ]


@dataclass
class ParameterSet:
    """Per-layer weight matrices (out x in) and bias vectors of one MLP, or of
    D MLPs of one architecture stacked on a leading axis: weights (D, out, in)
    and biases (D, out).

    The tensors are views of one buffer, flat: (P,) for one model, (D, P) for
    a stack, each model's P parameters in the codec's order W0, b0, W1, b1, ...
    The constructor copies the tensors into a new buffer; from_flat wraps one.

    Every tensor holds one dtype: float32 when every tensor given is float32,
    else float64 (tensors of any other dtype are coerced).

    An empty ParameterSet (zero layers) is permitted so that serialization of
    header-only payloads has a value to round-trip.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must have the same layer count")
        tensors = [np.asarray(t) for t in (*self.weights, *self.biases)]
        dtype = np.float32 if {t.dtype for t in tensors} == {np.dtype(np.float32)} else np.float64
        self.weights, self.biases = tensors[: len(self.weights)], tensors[len(self.weights) :]
        lead = self.weights[0].shape[:-2] if self.weights else ()
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim not in (2, 3) or w.shape[:-2] != lead or b.shape[:-1] != lead:
                raise ValueError(
                    f"layer {i}: weights must be 2-d and biases 1-d, with one shared stack axis"
                )
            if w.shape[-2] != b.shape[-1]:
                raise ValueError(
                    f"layer {i}: weight rows {w.shape[-2]} != bias length {b.shape[-1]}"
                )
            if i > 0 and w.shape[-1] != self.weights[i - 1].shape[-2]:
                raise ValueError(
                    f"layer {i}: fan-in {w.shape[-1]} does not match previous fan-out"
                )
        parts = [np.empty(lead + (0,), dtype)] + [t.reshape(lead + (-1,)) for t in self.tensors]
        flat = np.concatenate(parts, axis=-1, dtype=dtype, casting="unsafe")
        # the tensors become views of flat
        vars(self).update(vars(ParameterSet.from_flat(flat, self.layer_sizes)))

    @classmethod
    def from_flat(cls, flat: np.ndarray, layer_sizes: tuple[int, ...]) -> "ParameterSet":
        """The MLP of these layer sizes held in a (P,) buffer, or the stack
        of them in a (D, P) one, as views of the buffer: nothing is copied."""
        self = cls.__new__(cls)
        self.flat, self.weights, self.biases = flat, [], []
        lead, start = flat.shape[:-1], 0
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            stop = start + fan_out * fan_in
            self.weights.append(flat[..., start:stop].reshape(lead + (fan_out, fan_in)))
            self.biases.append(flat[..., stop : stop + fan_out])
            start = stop + fan_out
        if flat.ndim not in (1, 2) or flat.shape[-1] != start:
            raise ValueError(f"a buffer of shape {flat.shape} holds no {start}-parameter models")
        return self

    @property
    def tensors(self) -> list[np.ndarray]:
        """The tensors in the codec's order W0, b0, W1, b1, ..."""
        return [t for wb in zip(self.weights, self.biases) for t in wb]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_params(self) -> int:
        return self.flat.size

    @property
    def stacked(self) -> bool:
        return self.flat.ndim == 2

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """(input dim, hidden dims ..., class count); () for the empty set."""
        return tuple([w.shape[-1] for w in self.weights[:1]] + [w.shape[-2] for w in self.weights])

    def copy(self) -> "ParameterSet":
        return ParameterSet.from_flat(self.flat.copy(), self.layer_sizes)

    def __getitem__(self, k) -> "ParameterSet":
        """Model k or the sub-stack of a slice or None (views) or index array (a copy)."""
        return ParameterSet.from_flat(self.flat[k], self.layer_sizes)


@dataclass
class SparseMask:
    """The keep mask (1 = kept) of one MLP, or of D stacked, in their flat
    layout: one uint8 (P,) or (D, P) buffer, 1 at every bias; layers are the
    views of its weight positions.  The constructor copies per-layer masks
    into a new buffer, entries 0 or 1 as given; from_flat wraps one."""

    layers: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)
    layer_sizes: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        layers = [np.asarray(m) for m in self.layers]
        if any(((m != 0) & (m != 1)).any() for m in layers):
            raise ValueError("mask entries must be 0 or 1")
        # the layers take the shape checks of one MLP's weights, or a stack's
        keep = ParameterSet(layers, [np.ones(m.shape[:-1]) for m in layers])
        vars(self).update(vars(SparseMask.from_flat(keep.flat.astype(np.uint8), keep.layer_sizes)))

    @classmethod
    def from_flat(cls, flat: np.ndarray, layer_sizes: tuple[int, ...]) -> "SparseMask":
        """The mask held in a uint8 buffer of this layout: nothing is copied or checked."""
        self = cls.__new__(cls)
        self.flat, self.layer_sizes = flat, tuple(layer_sizes)
        self.layers = ParameterSet.from_flat(flat, layer_sizes).weights
        return self

    def __getitem__(self, k) -> "SparseMask":
        """Model k's mask (views) of a stack."""
        return SparseMask.from_flat(self.flat[k], self.layer_sizes)


@dataclass
class LabeledDataset:
    """Feature matrix (n x d) with integer class labels (n,), or D datasets of
    one length stacked on a leading axis: features (D, n, d), labels (D, n).

    uint8 features are 8-bit intensities, kept as they are: a uint8 feature k
    reads as k / 255, and every forward pass divides them as it starts.
    float32 and float64 features are kept as given, and features of any other
    dtype are coerced to float64.  len() counts samples over the whole stack.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features)
        if features.dtype not in (np.uint8, np.float32, np.float64):
            features = features.astype(np.float64)
        self.features = features
        labels = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):
            self.labels = labels.astype(np.int64, copy=False)
        # a label the cast truncates (or NaN, inf) is no class index
        if labels.dtype.kind not in "biu" and not np.array_equal(self.labels, labels):
            raise ValueError("labels must be whole numbers")
        if self.features.ndim not in (2, 3):
            raise ValueError("features must be a 2-d array (or a stack of them)")
        if self.labels.ndim != self.features.ndim - 1:
            raise ValueError("labels must be a 1-d array (or a stack of them)")
        if self.features.shape[:-1] != self.labels.shape:
            raise ValueError(
                f"row mismatch: {self.features.shape[-2]} feature rows, "
                f"{self.labels.shape[-1]} labels"
            )
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative class indices")

    def __len__(self) -> int:
        return self.labels.size

    def gather(self, rows: np.ndarray) -> "LabeledDataset":
        """The samples at a 1-d or 2-d int array of rows of this 2-d dataset,
        in the array's shape: a (D, n) table of rows gives a stack of D
        datasets.  Rows out of range raise numpy's IndexError.  The result
        skips the constructor's checks: rows of a checked dataset pass them."""
        if np.ndim(rows) not in (1, 2) or self.features.ndim != 2:
            raise ValueError("gather takes a 1-d or 2-d array of rows of a 2-d dataset")
        out = LabeledDataset.__new__(LabeledDataset)
        out.features = np.take(self.features, rows, axis=0)
        out.labels = np.take(self.labels, rows)
        return out


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for one local training call."""

    local_epochs: int
    batch_size: int
    learning_rate: float
    rng_seed: int

    def __post_init__(self) -> None:
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")


def init_parameters(arch: Architecture, seed: int) -> ParameterSet:
    """Glorot-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for out_dim, in_dim in arch.weight_shapes():
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        weights.append(rng.uniform(-limit, limit, size=(out_dim, in_dim)))
        biases.append(np.zeros(out_dim))
    return ParameterSet(weights, biases)


def _as_stack(
    params: ParameterSet, data: LabeledDataset
) -> tuple[ParameterSet, np.ndarray, np.ndarray]:
    """The models, features in the models' dtype and labels as stacks; a
    single model and dataset become a stack of one (views).

    This is the one place uint8 features become their values k / 255, one
    correctly rounded division each in the models' dtype (a multiplication
    by 1 / 255 would round differently); features already in that dtype are
    not copied."""
    if not params.weights:
        raise ValueError("cannot run a forward pass on an empty parameter set")
    x, labels = data.features, data.labels
    if not params.stacked:
        params = params[None]
        x, labels = x[None], labels[None]
    models, _, fan_in = params.weights[0].shape
    if x.ndim != 3 or x.shape[0] != models or x.shape[2] != fan_in:
        raise ValueError(
            f"input has shape {x.shape}, expected ({models}, *, {fan_in}) for this stack of models"
        )
    dtype = params.flat.dtype
    x = x / dtype.type(255) if x.dtype == np.uint8 else x.astype(dtype, copy=False)
    return params, x, labels


# numpy runs an elementwise loop on its SIMD kernels only when no operand has
# stride 0, so the bias and ReLU's zero are full-size arrays, not broadcasts.
# np.maximum(a, 0.0, out=a) took 8.7 us on a (64, 32, 16) float32 stack and
# 1.6 us against a zero array; a += b[:, None, :] ran a 16- or 8-float row at a
# time, 45 us against 31 us on the scorer's (207, 60, 16) stack, 38 against
# 10 us on (207, 60, 8).  Both give the broadcast's bits.


def _forward_batch(params: ParameterSet, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output for stacked models on stacked batches, the input
    (D, n, input_dim) first and the logits (D, n, classes) last; hidden ReLU,
    linear output."""
    outputs = [x]
    last = params.num_layers - 1
    n = x.shape[1]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = outputs[-1] @ w.transpose(0, 2, 1)
        a += np.repeat(b, n, axis=0).reshape(a.shape)
        if i != last:
            np.maximum(a, np.zeros_like(a), out=a)
        outputs.append(a)
    return outputs


# numpy reduces a short last axis one row at a time, at a fixed cost per row,
# and a lockstep chunk has thousands of rows of 8 or 10 classes.  The output
# head therefore works on one class-major (classes, rows) copy of the logits:
# each of its steps is a few passes over whole rows, and gives the floats
# numpy's batch-major reductions give.


def _column_sum(columns: np.ndarray) -> np.ndarray:
    """The sum of each column of a (classes, rows) array, bit for bit as
    numpy sums the rows of its batch-major copy: numpy's pairwise_sum over
    each column, as whole-row adds.  Under 8 classes that is the plain sum
    in order; up to 128, eight running sums added as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in
    order; above 128, the sums of two halves cut at a multiple of 8.
    numpy's reduction starts from +0.0, so a column of -0.0 sums to +0.0.
    Where two NaNs meet, which one a sum keeps is left to numpy's build."""
    classes = columns.shape[0]
    if classes < 8:
        total = columns[0] + 0.0
        for row in columns[1:]:
            total += row
        return total
    if classes > 128:
        half = classes // 2 - classes // 2 % 8
        return _column_sum(columns[:half]) + _column_sum(columns[half:])
    blocks = classes - classes % 8
    acc = columns[:8] if blocks == 8 else columns[:8] + columns[8:16]
    for start in range(16, blocks, 8):
        acc += columns[start : start + 8]
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in columns[blocks:]:
        total += row
    total += 0.0
    return total


def _class_major(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (classes, rows) copy of (D, n, classes) logits, and each row's max:
    the running max of the class rows, class 0 first."""
    columns = np.ascontiguousarray(logits.reshape(-1, logits.shape[-1]).T)
    return columns, np.maximum.reduce(columns, axis=0)


def _first_max(columns: np.ndarray, top: np.ndarray) -> np.ndarray:
    """logits.argmax(axis=-1) of the rows of a class-major copy with row max
    top: the first class that holds the max, or in a row with a NaN the
    first NaN."""
    hit = columns == top
    if np.isnan(top).any():
        hit |= np.isnan(columns)
    # the first hit carries the largest weight
    classes = columns.shape[0]
    weights = np.arange(classes, 0, -1, dtype=np.min_scalar_type(classes))
    return classes - np.maximum.reduce(hit.view(np.uint8) * weights[:, None], axis=0)


def _label_index(labels: np.ndarray) -> np.ndarray:
    """The flat index of each row's label in a (classes, rows) class-major
    copy of the rows of (D, n) labels: one gather, not a 2-d fancy index."""
    size = labels.size
    return labels.ravel() * size + np.arange(size)


def _bias_gradient(delta: np.ndarray) -> np.ndarray:
    """delta.sum(axis=1) of a (D, n, width) stack, bit for bit: the n rows
    added in order, as whole (D * width) rows of the batch-major copy."""
    d, n, width = delta.shape
    rows = delta.transpose(1, 0, 2).reshape(n, d * width)
    return np.add.reduce(rows, axis=0).reshape(d, width)


def _check_labels(params: ParameterSet, data: LabeledDataset, action: str) -> None:
    if data.labels.shape[-1] == 0:
        raise ValueError(f"cannot {action}")
    num_classes = params.weights[-1].shape[-2] if params.weights else 0
    if data.labels.max() >= num_classes:
        raise ValueError(
            f"label {int(data.labels.max())} out of range for {num_classes} classes"
        )


def loss_and_accuracy(params: ParameterSet, data: LabeledDataset):
    """Mean cross-entropy (softmax on logits) and argmax accuracy.

    Stacked models score stacked datasets pairwise (model k on dataset k), and
    the two results come back as arrays of length D; a single model gives two
    floats.  Argmax ties resolve to the lowest class index.
    """
    _check_labels(params, data, "evaluate on an empty dataset")
    stacked = params.stacked
    params, x, labels = _as_stack(params, data)
    d, n = labels.shape
    columns, top = _class_major(_forward_batch(params, x)[-1])
    acc = (_first_max(columns, top) == labels.ravel()).reshape(d, n).mean(axis=1)
    # the log-softmax at each row's label: the label's shifted logit less
    # the log of the softmax denominator
    columns -= top
    logp = columns.reshape(-1)[_label_index(labels)]
    logp -= np.log(_column_sum(np.exp(columns, out=columns)))
    loss = -logp.reshape(d, n).mean(axis=1)
    if stacked:
        return loss, acc
    return float(loss[0]), float(acc[0])


def gradients(
    params: ParameterSet, batch: LabeledDataset, out: ParameterSet | None = None
) -> ParameterSet:
    """Exact gradient of the mean cross-entropy over the batch (backprop).

    Stacked models and batches give the stacked gradients of model k on batch k.
    The gradients are written to out when given, a ParameterSet of params'
    shapes and dtype that shares no memory with it, and out is returned.
    """
    _check_labels(params, batch, "take gradients on an empty batch")
    if out is None:
        out = ParameterSet.from_flat(np.empty_like(params.flat), params.layer_sizes)
    elif (
        out.flat.shape != params.flat.shape
        or out.flat.dtype != params.flat.dtype
        or out.layer_sizes != params.layer_sizes
        or np.may_share_memory(out.flat, params.flat)
    ):
        raise ValueError("out must be a separate gradient buffer of the models' shapes and dtype")
    stacked = params.stacked
    params, x, labels = _as_stack(params, batch)
    d, n = labels.shape
    last = params.num_layers - 1
    outputs = _forward_batch(params, x)

    columns, top = _class_major(outputs[-1])
    columns -= top
    np.exp(columns, out=columns)
    columns /= _column_sum(columns)
    columns.reshape(-1)[_label_index(labels)] -= 1.0
    # delta goes back to batch-major, into the logits' buffer (they are not
    # read again), so every matmul below gets the operand layouts it would
    # get without the class-major head: OpenBLAS picks its kernel by layout
    delta = np.divide(columns.T.reshape(d, n, -1), n, out=outputs[-1])

    grads = out if stacked else out[None]
    for i in range(last, -1, -1):
        np.matmul(delta.transpose(0, 2, 1), outputs[i], out=grads.weights[i])
        grads.biases[i][...] = _bias_gradient(delta)
        if i > 0:
            # a ReLU output is positive exactly where its input is (NaN in,
            # NaN out, and NaN > 0 is false), so it gives the ReLU's mask
            delta = delta @ params.weights[i]
            delta *= outputs[i] > 0.0
    return out


def shuffle_orders(seed: int, round_index: int, out: np.ndarray) -> np.ndarray:
    """Fill out, a C-contiguous (D, epochs, n) intp array, with a shuffle of
    range(n) in every row and return it: one generator, seeded from (seed,
    round_index), shuffles row after row in place, model 0's epochs first.
    Model k's order so depends on its place k in the stack, not on which
    other models share the call."""
    out[...] = np.arange(out.shape[-1])
    rows = out.reshape(-1, out.shape[-1])
    # numpy's shuffle has its fast path for 8-byte items, hence intp
    np.random.default_rng((int(seed), int(round_index))).permuted(rows, axis=1, out=rows)
    return out


def local_training(
    params: ParameterSet,
    data: LabeledDataset,
    cfg: TrainingConfig,
    mask: SparseMask | None = None,
    round_index: int = 0,
    rows: np.ndarray | None = None,
    orders: np.ndarray | None = None,
) -> ParameterSet:
    """Minibatch SGD for cfg.local_epochs epochs; returns new parameters.

    A single model trains on its 1-d rows of the 2-d dataset data, by
    default every row.  Stacked models train in lockstep, model k on the
    rows[k] rows of a (D, n) rows, and come back stacked: every step does for
    each model exactly the arithmetic it would do alone.  Each batch is
    gathered from data as it runs.  orders[k, e] is model k's shuffle of
    range(n) for epoch e, the positions in its rows it visits in turn: a
    (D, epochs, n) array for a stack, (epochs, n) for one model.  By default
    shuffle_orders draws them from (cfg.rng_seed, round_index), so the call
    is deterministic.  When a mask (a SparseMask) is given, the updated
    weights are zeroed at masked positions after every step: the models are
    multiplied by its keep buffer, whose bias positions are 1.
    """
    keep = None
    if mask is not None:
        shapes = [[t.shape for t in ts] for ts in (mask.layers, params.weights)]
        if shapes[0] != shapes[1]:
            raise ValueError(f"mask shapes {shapes[0]} != weight shapes {shapes[1]}")
        keep = mask.flat

    stacked = params.stacked
    rows = np.arange(len(data)) if rows is None else np.asarray(rows)
    if rows.ndim != (2 if stacked else 1) or data.features.ndim != 2:
        raise ValueError("rows must index a 2-d dataset, one row of rows per model")
    if rows.shape[-1] == 0:
        raise ValueError("cannot train on an empty dataset")
    if rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= len(data):
        raise ValueError(f"rows must be integers that index the dataset's {len(data)} samples")
    # the shapes are checked on each model's first row alone
    params = _as_stack(params, data.gather(rows[..., :1]))[0]
    rows = rows.reshape(len(params.flat), -1)
    d, n = rows.shape
    shape = (d, cfg.local_epochs, n)
    if orders is None:
        orders = shuffle_orders(cfg.rng_seed, round_index, np.empty(shape, dtype=np.intp))
    elif np.shape(orders) != (shape if stacked else shape[1:]):
        raise ValueError(f"orders of shape {np.shape(orders)} for rows of shape {rows.shape}")
    orders = np.reshape(orders, shape)
    flat_rows = rows.ravel()
    offsets = np.arange(0, d * n, n)[:, None]
    out = params.copy()
    grads = ParameterSet.from_flat(np.empty_like(out.flat), out.layer_sizes)
    lr = cfg.learning_rate
    for epoch in range(cfg.local_epochs):
        order = flat_rows[orders[:, epoch] + offsets]
        for start in range(0, n, cfg.batch_size):
            g = gradients(out, data.gather(order[:, start : start + cfg.batch_size]), out=grads)
            # g is this call's own buffer: scaling it in place saves a
            # temporary and computes the same lr * g
            out.flat -= np.multiply(g.flat, lr, out=g.flat)
            if keep is not None:
                out.flat *= keep
    return out if stacked else out[0]
