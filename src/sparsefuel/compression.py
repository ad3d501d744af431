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
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .neuralnet import ParameterSet

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
class SparseMask:
    """Per-layer keep masks (1 = kept) congruent to the weight matrices of one
    model, or of D models stacked on a leading axis."""

    layers: list[np.ndarray]

    def __post_init__(self) -> None:
        self.layers = [np.asarray(m, dtype=np.uint8) for m in self.layers]
        for m in self.layers:
            if m.ndim not in (2, 3):
                raise ValueError("mask layers must be 2-d (or a stack of them)")
            if m.max(initial=0) > 1:
                raise ValueError("mask entries must be 0 or 1")

    def __getitem__(self, k) -> "SparseMask":
        """Model k's masks (views) of a stack."""
        return SparseMask([m[k] for m in self.layers])


@dataclass
class QuantizedTensor:
    """One tensor quantized to u8 with an affine (scale, zero_point) map, or D
    such tensors stacked on a leading axis with a (D,) scale and zero point.
    dtype is the float type it dequantizes to: that of the tensor it was
    quantized from, and float32 for a tensor parsed from bytes."""

    scale: float | np.ndarray
    zero_point: int | np.ndarray
    values: np.ndarray
    dtype: type = np.float64

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.uint8)
        # checked as Python numbers, one per tensor of a stack: numpy's call
        # overhead would dominate the check of one parsed tensor's scalars
        many = isinstance(self.scale, np.ndarray)
        scales, zero_points = (
            np.ravel(x).tolist() if many else [x] for x in (self.scale, self.zero_point)
        )
        if not all(0 <= z <= 255 for z in zero_points):
            raise ValueError(f"zero_point must be in [0, 255], got {self.zero_point}")
        if not all(map(math.isfinite, scales)):
            raise ValueError("scale must be finite")

    def __getitem__(self, k) -> "QuantizedTensor":
        """Tensor k (views) of a stack."""
        return QuantizedTensor(self.scale[k], self.zero_point[k], self.values[k], self.dtype)


@dataclass
class CompressedModel:
    """One model, or a stack of D models, in one of the four wire kinds;
    payload fields match the kind.  qparams holds the tensors in
    serialization order W0, b0, W1, b1, ..."""

    kind: str
    params: ParameterSet | None = None
    mask: SparseMask | None = None
    qparams: list[QuantizedTensor] | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown compression kind {self.kind!r}")
        prunes, quantizes = _KIND_FLAGS[self.kind]
        payload = (self.mask is not None, self.qparams is not None, self.params is not None)
        if payload != (prunes, quantizes, not quantizes):
            raise ValueError(f"payload does not match kind {self.kind!r}")

    def __getitem__(self, k) -> "CompressedModel":
        """Model k of a stack, as views of it."""
        params, mask = (None if x is None else x[k] for x in (self.params, self.mask))
        qparams = None if self.qparams is None else [qt[k] for qt in self.qparams]
        return CompressedModel(self.kind, params, mask, qparams)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (np.round ties to even)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


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
    mask_layers = []
    for w in pruned.weights:
        # one row of flat weights per model; a stable sort on |w| keeps ties
        # in flat (row-major) order, so the first k entries of a row prune
        # lower (row, col) indices first
        flat = np.abs(w).reshape(w.shape[:-2] + (-1,))
        order = np.argsort(flat, axis=-1, kind="stable")
        mask = np.ones(flat.shape, dtype=np.uint8)
        np.put_along_axis(mask, order[..., : _floor_count(psi, flat.shape[-1])], 0, axis=-1)
        mask = mask.reshape(w.shape)
        w *= mask
        mask_layers.append(mask)
    return pruned, SparseMask(mask_layers)


def _quantize_tensor(t: np.ndarray, lead: tuple[int, ...]) -> QuantizedTensor:
    """Quantize each tensor stacked on the `lead` axes of t (none for one
    tensor) over its own range.

    The range always includes 0 (Jacob et al., CVPR 2018), so 0 sits on the
    grid and a single-sign tensor still spreads over all 256 levels.  The
    range, scale and levels are computed in float64 whatever t's dtype, so
    each value's level lies within half a step of it.  An empty or
    all-zero range, or one so narrow (subnormal) that a step underflows,
    gets the unit scale.
    """
    flat = t.reshape(lead + (-1,))
    if not np.isfinite(flat).all():
        raise ValueError("cannot quantize non-finite values")
    lo = flat.min(axis=-1, initial=0.0).astype(np.float64)
    hi = flat.max(axis=-1, initial=0.0).astype(np.float64)
    scale = np.asarray((hi - lo) / 255.0)
    scale[scale == 0.0] = 1.0
    zero_point = _round_half_away(-lo / scale)
    q = np.clip(_round_half_away(flat / scale[..., None]) + zero_point[..., None], 0, 255)
    q = q.astype(np.uint8).reshape(t.shape)
    return QuantizedTensor(scale[()], zero_point.astype(np.int64)[()], q, t.dtype.type)


def quantize_affine(params: ParameterSet) -> list[QuantizedTensor]:
    """Quantize every tensor (weights and biases) of each model (one, or a
    stack) to u8 independently; the tensors in order W0, b0, W1, b1, ..."""
    lead = params.weights[0].shape[:-2] if params.weights else ()
    return [_quantize_tensor(t, lead) for wb in zip(params.weights, params.biases) for t in wb]


_F32_MAX = float(np.finfo(np.float32).max)


def _dequantize_tensor(values: np.ndarray, zero_point, scale, dtype) -> np.ndarray:
    """(q - zero_point) * scale, one row per tensor of a stack with scale and
    zero point as columns, computed in float64 and written as dtype.  A
    float32 value is that product rounded once (for an f32 scale the product
    is exact in float64); a level past the f32 range, which a grid spanning
    [-max, max] reaches half a step beyond max, saturates at the f32 max."""
    flat = values.reshape(np.shape(scale) + (-1,)).astype(np.float64)
    flat = (flat - np.asarray(zero_point)[..., None]) * np.asarray(scale)[..., None]
    if dtype == np.float32:
        np.clip(flat, -_F32_MAX, _F32_MAX, out=flat)
    return flat.astype(dtype, copy=False).reshape(values.shape)


def dequantize(qparams: list[QuantizedTensor]) -> ParameterSet:
    """Map u8 tensors (in order W0, b0, ...) back to parameters, each in its
    tensor's dtype: float32 or float64 as quantized, float32 as parsed."""
    tensors = [
        _dequantize_tensor(qt.values, qt.zero_point, qt.scale, qt.dtype) for qt in qparams
    ]
    return ParameterSet(tensors[0::2], tensors[1::2])


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
    """Reconstruct the parameters of any compressed kind: a copy of the float
    kinds' values, or the quantized tensors dequantized in their dtype."""
    if model.params is not None:
        return model.params.copy()
    return dequantize(model.qparams)


def nonzero_macs(model: ParameterSet | CompressedModel) -> int:
    """Count of nonzero weights (bias adds excluded): the per-sample MAC proxy."""
    params = model if isinstance(model, ParameterSet) else decompress(model)
    return int(sum(int(np.count_nonzero(w)) for w in params.weights))


# ---- serialization ----


def _arrays(model: CompressedModel) -> list[np.ndarray]:
    """The payload arrays in order W0, b0, ...: the u8 values of the quantizing
    kinds, the float values of the others."""
    if _KIND_FLAGS[model.kind][1]:
        return [qt.values for qt in model.qparams]
    return [t for wb in zip(model.params.weights, model.params.biases) for t in wb]


def tensor_shapes(model: CompressedModel) -> list[tuple[int, int]]:
    """(rows, cols) per tensor in order W0, b0, ...; cols == 0 for vectors.
    For a stack, the shapes of each of its models."""
    return [
        (a.shape[-1], 0) if t % 2 else a.shape[-2:] for t, a in enumerate(_arrays(model))
    ]


def serialized_size(model: CompressedModel) -> int | np.ndarray:
    """Exact byte length of to_bytes(model), computed arithmetically; for a
    stack, the (D,) lengths of its models."""
    arrays = _arrays(model)
    lead = arrays[0].shape[:-2] if arrays else ()
    size = HEADER_BYTES + SHAPE_BYTES_PER_TENSOR * len(arrays)
    for i, (rows, cols) in enumerate(tensor_shapes(model)):
        n = kept = rows * (cols or 1)
        if model.mask is not None:
            # keep-bitmap; biases always survive whole
            size += (n + 7) // 8
            if cols:
                kept = model.mask.layers[i // 2].sum(axis=(-2, -1), dtype=np.int64)
        # quantized: scale f32, zero point u8, one u8 per value; else f32 values
        size += 5 + kept if model.qparams is not None else 4 * kept
    return np.broadcast_to(size, lead).copy() if lead else int(size)


def payload_size(model: CompressedModel) -> int | np.ndarray:
    """Serialized size minus the header and per-tensor shape metadata."""
    n_tensors = len(tensor_shapes(model))
    return serialized_size(model) - HEADER_BYTES - SHAPE_BYTES_PER_TENSOR * n_tensors


def to_bytes(model: CompressedModel) -> bytes:
    """Serialize one model (model k of a stack is model[k]) to the canonical
    byte format described in the module docstring."""
    prunes, quantizes = _KIND_FLAGS[model.kind]
    shapes = tensor_shapes(model)
    chunks = [struct.pack("<4sIII", MAGIC, FORMAT_VERSION, KINDS.index(model.kind), len(shapes))]
    for t, (array, (rows, cols)) in enumerate(zip(_arrays(model), shapes)):
        chunks.append(struct.pack("<II", rows, cols))
        flat = array.ravel()
        if prunes:
            # biases always survive whole
            if cols:
                bits = model.mask.layers[t // 2].ravel().astype(bool)
            else:
                bits = np.ones(rows, dtype=bool)
            chunks.append(np.packbits(bits).tobytes())
            flat = flat[bits]
        if quantizes:
            qt = model.qparams[t]
            chunks.append(struct.pack("<fB", np.float32(qt.scale), qt.zero_point))
        chunks.append(flat.tobytes() if quantizes else flat.astype("<f4").tobytes())
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
    tensors: list = []
    mask_layers: list[np.ndarray] = []

    fan_out = 0
    for t in range(n_tensors):
        rows, cols = struct.unpack("<II", take(8))
        is_weight = t % 2 == 0
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
            fan_out = rows
        n = rows * cols if cols else rows
        shape = (rows, cols) if cols else (rows,)

        kept = slice(None)
        if prunes:
            raw = np.frombuffer(take((n + 7) // 8), dtype=np.uint8)
            kept = np.unpackbits(raw)[:n].astype(bool)
            if is_weight:
                mask_layers.append(kept.astype(np.uint8).reshape(shape))
            elif not kept.all():
                raise SerializationError(f"tensor {t}: bias bitmap must be all ones")
        count = int(kept.sum()) if prunes else n
        dtype = np.dtype(np.uint8 if quantizes else "<f4")
        if quantizes:
            scale, zero_point = struct.unpack("<fB", take(5))
            if not math.isfinite(scale):
                raise SerializationError(f"tensor {t}: quantization scale {scale} is not finite")
        # the payload is read before its tensor is allocated, so a damaged
        # shape cannot ask for more memory than the blob holds
        vals = np.frombuffer(take(dtype.itemsize * count), dtype=dtype)
        if not quantizes and not np.isfinite(vals).all():
            raise SerializationError(f"tensor {t}: values are not all finite")
        full = np.full(n, zero_point if quantizes else 0, dtype=dtype)
        full[kept] = vals
        full = full.reshape(shape)
        if quantizes:
            full = QuantizedTensor(float(scale), int(zero_point), full, np.float32)
        tensors.append(full)

    if pos != len(buf):
        raise SerializationError(f"{len(buf) - pos} trailing bytes after payload")

    mask = SparseMask(mask_layers) if prunes else None
    if quantizes:
        return CompressedModel(kind, qparams=tensors, mask=mask)
    return CompressedModel(kind, params=ParameterSet(tensors[0::2], tensors[1::2]), mask=mask)


def encode_wire(
    params: ParameterSet, strategy: CompressionStrategy, mask: SparseMask | None
) -> CompressedModel:
    """Wrap parameters (one model, or a stack) in the strategy's wire kind,
    under the given mask for the pruning kinds.

    This never prunes: masked training has kept pruned positions at exactly
    zero, so the round's existing mask is reused.  Quantization is applied
    fresh (training de-quantizes the values).  The wire model shares the
    given arrays and mask, it does not copy them.
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
    as +0.0 (or the zero point) whatever the wire model holds there: masked
    training leaves -0.0 at negative pruned weights, and the bytes carry only
    the kept values.  Non-finite values come back as they are; the codec is
    what rejects them.
    """
    prunes, quantizes = _KIND_FLAGS[wire.kind]
    arrays = _arrays(wire)
    if prunes:
        # a pruned weight is not on the wire: it parses as 0.0, or as its
        # tensor's zero point (a column of them for a stack)
        fills = [0.0] * len(wire.mask.layers)
        if quantizes:
            fills = [
                np.asarray(qt.zero_point, dtype=np.uint8)[..., None, None]
                for qt in wire.qparams[0::2]
            ]
        arrays[0::2] = [np.where(m, a, f) for m, a, f in zip(wire.mask.layers, arrays[0::2], fills)]
    if quantizes:
        tensors = [
            _dequantize_tensor(
                a, qt.zero_point, np.asarray(qt.scale, dtype=np.float32), np.float32
            )
            for a, qt in zip(arrays, wire.qparams)
        ]
    else:
        tensors = [a.astype(np.float32) for a in arrays]
    return ParameterSet(tensors[0::2], tensors[1::2])
