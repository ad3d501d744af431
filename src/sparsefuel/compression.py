"""Model compression: magnitude pruning, affine 8-bit quantization, and the
canonical binary serialization used for every exchanged model.  A round
decodes and prices its wire models with decode_wire and serialized_size,
which give what the bytes would without building them.

Serialized layout (all integers little-endian):

  header (16 bytes): magic b"SPFL" | format version u32 | kind u32 | tensor count u32
  per tensor (8 bytes): rows u32 | cols u32  (cols == 0 marks a vector)
  payload, per kind and tensor, in order W0, b0, W1, b1, ...:
    dense            : values as f32 (4 bytes each)
    quantized        : scale f32 | zero_point u8 | values as u8
    sparse           : keep-bitmap (1 bit/position, MSB-first, byte-padded
                       per tensor) | surviving values as f32
    sparse+quantized : keep-bitmap | scale f32 | zero_point u8 | surviving
                       values as u8

Bias vectors are never pruned; under the sparse kinds they carry an all-ones
bitmap.  Quantized tensors are dequantized as (q - zero_point) * scale.  What
a receiver decodes from the wire is float32, as the bytes carry it.

In memory every payload has the models' flat layout (ParameterSet): one
(P,) or (D, P) buffer in the order above.  A keep mask (SparseMask) is a
uint8 buffer, 1 at every kept position and every bias; a quantized model
(QuantizedParams) is a u8 buffer of levels beside (..., T) scales and zero
points, one column per tensor.  Each operation is one pass over whole rows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .neuralnet import ParameterSet, SparseMask

# every wire kind, in kind-code order, with its (prunes, quantizes) flags: the
# one place that decides what each kind does
_KIND_FLAGS = {
    "dense": (False, False),
    "sparse": (True, False),
    "quantized": (False, True),
    "sparse+quantized": (True, True),
}
KINDS = tuple(_KIND_FLAGS)
MAGIC = b"SPFL"
FORMAT_VERSION = 1
HEADER_BYTES = 16
SHAPE_BYTES_PER_TENSOR = 8


@dataclass(frozen=True)
class CompressionStrategy:
    """What to do to a model before it goes on the wire: kind + sparsity psi."""

    kind: str
    psi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown compression kind {self.kind!r}, expected one of {KINDS}")
        if not (0.0 <= self.psi <= 1.0):
            raise ValueError(f"psi must be in [0, 1], got {self.psi}")

    @property
    def prunes(self) -> bool:
        return _KIND_FLAGS[self.kind][0]

    @property
    def quantizes(self) -> bool:
        return _KIND_FLAGS[self.kind][1]


@dataclass
class QuantizedParams:
    """One model, or a stack of D, quantized to u8 with an affine (scale,
    zero_point) map per tensor: levels is the model as u8 views of one
    buffer, and scale and zero_point are (T,) or (D, T), column t for tensor
    t in serialization order W0, b0, W1, b1, ...  dtype is the float type it
    dequantizes to: the quantized model's, and float32 for one parsed."""

    levels: ParameterSet
    scale: np.ndarray
    zero_point: np.ndarray
    dtype: type = np.float64

    def __post_init__(self) -> None:
        self.scale, self.zero_point = np.asarray(self.scale), np.asarray(self.zero_point)
        if not ((self.zero_point >= 0) & (self.zero_point <= 255)).all():
            raise ValueError(f"zero_point must be in [0, 255], got {self.zero_point}")
        if not np.isfinite(self.scale).all():
            raise ValueError("scale must be finite")

    def __getitem__(self, k) -> "QuantizedParams":
        """Model k (views) of a stack."""
        return QuantizedParams(self.levels[k], self.scale[k], self.zero_point[k], self.dtype)


@dataclass
class CompressedModel:
    """One model, or a stack of D models, in one of the four wire kinds;
    payload fields match the kind: params for the float kinds, qparams for
    the quantizing ones, and a mask for the pruning ones."""

    kind: str
    params: ParameterSet | None = None
    mask: SparseMask | None = None
    qparams: QuantizedParams | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown compression kind {self.kind!r}")
        prunes, quantizes = _KIND_FLAGS[self.kind]
        payload = (self.mask is not None, self.qparams is not None, self.params is not None)
        if payload != (prunes, quantizes, not quantizes):
            raise ValueError(f"payload does not match kind {self.kind!r}")

    @property
    def payload(self) -> ParameterSet:
        """The values the bytes carry: u8 levels for the quantizing kinds, else floats."""
        return self.params if self.qparams is None else self.qparams.levels

    def __getitem__(self, k) -> "CompressedModel":
        """Model k of a stack, as views of it."""
        parts = (self.params, self.mask, self.qparams)
        return CompressedModel(self.kind, *(None if x is None else x[k] for x in parts))


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (np.round ties to even)."""
    y = np.copysign(0.5, x)
    return np.trunc(np.add(y, x, out=y), out=y)


def _floor_count(psi: float, n: int) -> int:
    # floor(psi * n) in real arithmetic; the 1e-9 nudge absorbs float error in
    # products like 0.3 * 1000 that land a hair below the true integer.
    return int(math.floor(psi * n + 1e-9))


def prune_magnitude(params: ParameterSet, psi: float) -> tuple[ParameterSet, SparseMask]:
    """Zero the floor(psi * n) smallest-magnitude weights of each layer of
    each model (one, or a stack).

    Ties in |w| are broken by (row, col) order with the lower index pruned
    first.  Biases are untouched.  Returns the pruned copy and the keep mask.
    """
    if not (0.0 <= psi <= 1.0):
        raise ValueError(f"psi must be in [0, 1], got {psi}")
    pruned = params.copy()
    mask = SparseMask.from_flat(np.ones(params.flat.shape, dtype=np.uint8), params.layer_sizes)
    for w, m in zip(pruned.weights, mask.layers):
        # one row of flat weights per model; a stable sort on |w| keeps ties
        # in flat (row-major) order, so the first k entries of a row prune
        # lower (row, col) indices first, written through m into the mask
        flat = np.abs(w).reshape(w.shape[:-2] + (-1,))
        order = np.argsort(flat, axis=-1, kind="stable")
        drop = order[..., : _floor_count(psi, flat.shape[-1])]
        np.put_along_axis(m.reshape(flat.shape), drop, 0, axis=-1)
        w *= m
    return pruned, mask


def _widths(layer_sizes: tuple[int, ...]) -> np.ndarray:
    """Each tensor's count of values, in order W0, b0, W1, b1, ..."""
    return np.array([n for i, o in zip(layer_sizes, layer_sizes[1:]) for n in (o * i, o)], int)


def quantize_affine(params: ParameterSet) -> QuantizedParams:
    """Quantize every tensor (weights and biases) of each model (one, or a
    stack) to u8 over its own range.

    The range always includes 0 (Jacob et al., CVPR 2018), so 0 sits on the
    grid and a single-sign tensor still spreads over all 256 levels.  The
    range, scale and levels are computed in float64 whatever the models'
    dtype, so each value's level lies within half a step of it.  An empty or
    all-zero range, or one so narrow (subnormal) that a step underflows,
    gets the unit scale.
    """
    flat = params.flat
    if not np.isfinite(flat).all():
        raise ValueError("cannot quantize non-finite values")
    widths = _widths(params.layer_sizes)
    # each tensor's range over its segment of a row, in one reduction each:
    # initial=0.0 is both the include-zero rule and an empty tensor's [0, 0]
    lo, hi = (np.empty(flat.shape[:-1] + widths.shape) for _ in range(2))
    for t, (stop, width) in enumerate(zip(np.cumsum(widths).tolist(), widths.tolist())):
        segment = flat[..., stop - width : stop]
        lo[..., t] = segment.min(axis=-1, initial=0.0)
        hi[..., t] = segment.max(axis=-1, initial=0.0)
    scale = (hi - lo) / 255.0
    scale[scale == 0.0] = 1.0
    zero_point = _round_half_away(-lo / scale)
    levels = _round_half_away(flat / np.repeat(scale, widths, axis=-1))
    levels += np.repeat(zero_point, widths, axis=-1)
    levels = np.clip(levels, 0, 255, out=levels).astype(np.uint8)
    levels = ParameterSet.from_flat(levels, params.layer_sizes)
    return QuantizedParams(levels, scale, zero_point.astype(np.int64), flat.dtype.type)


_F32_MAX = float(np.finfo(np.float32).max)


def dequantize(qparams: QuantizedParams) -> ParameterSet:
    """Map u8 levels back to parameters: (q - zero_point) * scale, computed
    in float64 and rounded once to qparams.dtype (float32 or float64 as
    quantized, float32 as parsed).  A float32 value is that product rounded
    once (for an f32 scale the product is exact in float64); a level past
    the f32 range, which a grid spanning [-max, max] reaches half a step
    beyond max, saturates at the f32 max."""
    levels, dtype = qparams.levels, qparams.dtype
    widths = _widths(levels.layer_sizes)
    flat = levels.flat - np.repeat(qparams.zero_point.astype(np.float64), widths, axis=-1)
    flat *= np.repeat(qparams.scale, widths, axis=-1)
    if dtype == np.float32:
        np.clip(flat, -_F32_MAX, _F32_MAX, out=flat)
    return ParameterSet.from_flat(flat.astype(dtype, copy=False), levels.layer_sizes)


def compress(params: ParameterSet, strategy: CompressionStrategy) -> CompressedModel:
    """Apply the strategy to one model or a stack: prune first (if the kind
    prunes), then put the result on the wire with encode_wire (quantized, if
    the kind quantizes).

    For sparse+quantized the pruned tensor (zeros included) is what gets
    quantized, which puts 0 exactly on the quantization grid, so pruned
    positions dequantize back to exactly 0.
    """
    mask = None
    if strategy.prunes:
        params, mask = prune_magnitude(params, strategy.psi)
    return encode_wire(params, strategy, mask)


def decompress(model: CompressedModel) -> ParameterSet:
    """Reconstruct the parameters of any compressed kind: the float kinds'
    own model.params, not a copy (callers only read it; local_training
    trains a copy), or the quantized levels dequantized in their dtype."""
    if model.params is not None:
        return model.params
    return dequantize(model.qparams)


def nonzero_macs(model: ParameterSet | CompressedModel) -> int:
    """Count of nonzero weights (bias adds excluded): the per-sample MAC proxy."""
    params = model if isinstance(model, ParameterSet) else decompress(model)
    return int(sum(int(np.count_nonzero(w)) for w in params.weights))


# ---- serialization ----


def tensor_shapes(model: CompressedModel) -> list[tuple[int, int]]:
    """(rows, cols) per tensor in order W0, b0, ...; cols == 0 for vectors.
    For a stack, the shapes of each of its models."""
    sizes = model.payload.layer_sizes
    return [shape for i, o in zip(sizes, sizes[1:]) for shape in ((o, i), (o, 0))]


def serialized_size(model: CompressedModel) -> int | np.ndarray:
    """Exact byte length of to_bytes(model), computed arithmetically; for a
    stack, the (D,) lengths of its models."""
    payload = model.payload
    widths = _widths(payload.layer_sizes)
    size = HEADER_BYTES + SHAPE_BYTES_PER_TENSOR * len(widths)
    kept = payload.flat.shape[-1]
    if model.mask is not None:
        # a keep-bitmap per tensor; the mask keeps every bias
        size += int(((widths + 7) // 8).sum())
        kept = model.mask.flat.sum(axis=-1, dtype=np.int64)
    # quantized: scale f32, zero point u8, one u8 per value; else f32 values
    size = size + (5 * len(widths) + kept if model.qparams is not None else 4 * kept)
    lead = payload.flat.shape[:-1]
    return np.broadcast_to(size, lead).copy() if lead else int(size)


def payload_size(model: CompressedModel) -> int | np.ndarray:
    """Serialized size minus the header and per-tensor shape metadata."""
    n_tensors = len(model.payload.tensors)
    return serialized_size(model) - HEADER_BYTES - SHAPE_BYTES_PER_TENSOR * n_tensors


def to_bytes(model: CompressedModel) -> bytes:
    """Serialize one model (model k of a stack is model[k]) to the canonical
    byte format described in the module docstring."""
    if model.payload.flat.ndim != 1:
        raise ValueError("to_bytes serializes one model: model k of a stack is model[k]")
    prunes, quantizes = _KIND_FLAGS[model.kind]
    shapes = tensor_shapes(model)
    ends = np.cumsum(_widths(model.payload.layer_sizes)).tolist()
    chunks = [struct.pack("<4sIII", MAGIC, FORMAT_VERSION, KINDS.index(model.kind), len(shapes))]
    for t, ((rows, cols), start, end) in enumerate(zip(shapes, [0] + ends, ends)):
        chunks.append(struct.pack("<II", rows, cols))
        values = model.payload.flat[start:end]
        if prunes:
            # the tensor's bits of the keep buffer (all ones for a bias)
            bits = model.mask.flat[start:end]
            chunks.append(np.packbits(bits).tobytes())
            values = values[bits.view(bool)]
        if quantizes:
            q = model.qparams
            chunks.append(struct.pack("<fB", np.float32(q.scale[t]), q.zero_point[t]))
        chunks.append(values.tobytes() if quantizes else values.astype("<f4").tobytes())
    return b"".join(chunks)


class SerializationError(ValueError):
    pass


def from_bytes(buf: bytes) -> CompressedModel:
    """Parse the canonical byte format back into a CompressedModel.

    Values serialized as f32 come back as float32, and quantized tensors
    dequantize to float32: exactly what a receiving device would see.
    """
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise SerializationError("truncated payload")
        pos += n
        return buf[pos - n : pos]

    magic, version, kind_code, n_tensors = struct.unpack("<4sIII", take(16))
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {version}")
    if kind_code >= len(KINDS):
        raise SerializationError(f"unknown kind code {kind_code}")
    kind = KINDS[kind_code]
    if n_tensors % 2 != 0:
        raise SerializationError(f"tensor count {n_tensors} is not a weight/bias pairing")

    prunes, quantizes = _KIND_FLAGS[kind]
    dtype = np.dtype(np.uint8 if quantizes else "<f4")
    # per tensor: its keep bits, its kept values, and its (scale, zero point)
    bits: list[np.ndarray] = [np.empty(0, np.uint8)]
    values: list[np.ndarray] = [np.empty(0, dtype)]
    maps: list[tuple[float, int]] = []
    layer_sizes: list[int] = []

    for t in range(n_tensors):
        rows, cols = struct.unpack("<II", take(8))
        is_weight = t % 2 == 0
        fan_out = layer_sizes[-1] if layer_sizes else 0
        if is_weight and cols == 0:
            raise SerializationError(f"tensor {t}: expected a matrix, got a vector")
        if not is_weight and cols != 0:
            raise SerializationError(f"tensor {t}: expected a vector, got a matrix")
        if is_weight and t > 0 and cols != fan_out:
            raise SerializationError(
                f"tensor {t}: fan-in {cols} does not match previous fan-out {fan_out}"
            )
        if not is_weight and rows != fan_out:
            raise SerializationError(f"tensor {t}: bias length {rows} != weight rows {fan_out}")
        if is_weight:
            layer_sizes += [cols, rows] if t == 0 else [rows]
        n = rows * cols if cols else rows

        count = n
        if prunes:
            bits.append(np.unpackbits(np.frombuffer(take((n + 7) // 8), np.uint8))[:n])
            if not (is_weight or bits[-1].all()):
                raise SerializationError(f"tensor {t}: bias bitmap must be all ones")
            count = int(bits[-1].sum())
        maps.append(struct.unpack("<fB", take(5)) if quantizes else (1.0, 0))
        if not math.isfinite(maps[-1][0]):
            raise SerializationError(f"tensor {t}: quantization scale {maps[-1][0]} is not finite")
        # the payload is read before the model's buffer is allocated, so a
        # damaged shape cannot ask for more memory than the blob holds
        values.append(np.frombuffer(take(dtype.itemsize * count), dtype=dtype))
        if not quantizes and not np.isfinite(values[-1]).all():
            raise SerializationError(f"tensor {t}: values are not all finite")

    if pos != len(buf):
        raise SerializationError(f"{len(buf) - pos} trailing bytes after payload")

    # a pruned position holds 0.0, or its tensor's zero point
    scale, zero_point = np.array(maps, dtype=np.float64).reshape(-1, 2).T
    flat = np.repeat(zero_point.astype(dtype), _widths(tuple(layer_sizes)))
    keep = np.concatenate(bits) if prunes else np.ones(flat.shape, dtype=np.uint8)
    flat[keep.view(bool)] = np.concatenate(values)
    mask = SparseMask.from_flat(keep, layer_sizes) if prunes else None
    payload = ParameterSet.from_flat(flat, layer_sizes)
    if quantizes:
        qparams = QuantizedParams(payload, scale, zero_point.astype(np.int64), np.float32)
        return CompressedModel(kind, qparams=qparams, mask=mask)
    return CompressedModel(kind, params=payload, mask=mask)


def encode_wire(
    params: ParameterSet, strategy: CompressionStrategy, mask: SparseMask | None
) -> CompressedModel:
    """Wrap parameters (one model, or a stack) in the strategy's wire kind,
    under the given mask for the pruning kinds.

    This never prunes: masked training has kept pruned positions at exactly
    zero, so the round's existing mask is reused.  Quantization is applied
    fresh (training de-quantizes the values).  The wire model shares the
    given parameters' buffer and the mask, it does not copy them.
    """
    if strategy.prunes and mask is None:
        raise ValueError(f"kind {strategy.kind!r} requires the round's prune mask")
    mask = mask if strategy.prunes else None
    if strategy.quantizes:
        return CompressedModel(strategy.kind, qparams=quantize_affine(params), mask=mask)
    return CompressedModel(strategy.kind, params=params, mask=mask)


def decode_wire(wire: CompressedModel) -> ParameterSet:
    """The float32 model each receiver decodes from the wire, for one model
    or a stack: row k is exactly decompress(from_bytes(to_bytes(wire[k]))),
    computed without the bytes.

    Float values are copied as f32, and scales of the quantizing kinds are
    rounded to f32 as the bytes carry them.  Pruned weight positions decode
    as +0.0 whatever the wire model holds there: masked training leaves
    -0.0 at negative pruned weights, and the bytes carry only the kept
    values (a pruned level parses as its tensor's zero point).  Non-finite
    values come back as they are; the codec is what rejects them.  The
    result is one buffer, for the dense kind the wire model's own when that
    is float32: copy it before writing to it.
    """
    prunes, quantizes = _KIND_FLAGS[wire.kind]
    if quantizes:
        q = wire.qparams
        out = dequantize(QuantizedParams(q.levels, np.float32(q.scale), q.zero_point, np.float32))
    else:
        flat = wire.params.flat.astype(np.float32, copy=prunes)
        out = ParameterSet.from_flat(flat, wire.params.layer_sizes)
    if prunes:
        np.copyto(out.flat, 0.0, where=wire.mask.flat == 0)
    return out
