import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsefuel.compression import (
    HEADER_BYTES,
    KINDS,
    SHAPE_BYTES_PER_TENSOR,
    CompressedModel,
    CompressionStrategy,
    QuantizedTensor,
    SerializationError,
    SparseMask,
    compress,
    decode_wire,
    decompress,
    dequantize,
    encode_wire,
    from_bytes,
    nonzero_macs,
    payload_size,
    prune_magnitude,
    quantize_affine,
    serialized_size,
    to_bytes,
)
from sparsefuel.neuralnet import Architecture, ParameterSet, init_parameters

from conftest import (
    cast_models,
    reference_prune_magnitude,
    reference_quantize_tensor,
    stack_models,
)


class TestStrategy:
    def test_valid(self):
        for kind in ("dense", "sparse", "quantized", "sparse+quantized"):
            CompressionStrategy(kind, 0.3)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CompressionStrategy("zip", 0.3)

    def test_psi_bounds(self):
        CompressionStrategy("sparse", 0.0)
        CompressionStrategy("sparse", 1.0)
        with pytest.raises(ValueError):
            CompressionStrategy("sparse", 1.5)
        with pytest.raises(ValueError):
            CompressionStrategy("sparse", -0.1)


class TestPrune:
    def test_psi_zero_is_identity_with_all_ones_mask(self):
        params = init_parameters(Architecture((3, 4, 2)), 0)
        pruned, mask = prune_magnitude(params, 0.0)
        for a, b in zip(pruned.weights, params.weights):
            assert np.array_equal(a, b)
        for m in mask.layers:
            assert np.all(m == 1)

    def test_magnitude_order_example(self):
        params = ParameterSet([np.array([[0.1, -0.4], [0.3, -0.2]])], [np.zeros(2)])
        pruned, mask = prune_magnitude(params, 0.5)
        assert np.array_equal(pruned.weights[0], [[0.0, -0.4], [0.3, 0.0]])
        assert np.array_equal(mask.layers[0], [[0, 1], [1, 0]])

    def test_thousand_weight_layer_counts(self):
        rng = np.random.default_rng(0)
        params = ParameterSet([rng.normal(0, 1, (25, 40))], [np.zeros(25)])
        for psi, kept in ((0.3, 700), (0.5, 500), (0.7, 300), (0.9, 100)):
            pruned, mask = prune_magnitude(params, psi)
            assert int(mask.layers[0].sum()) == kept
            assert int(np.count_nonzero(pruned.weights[0])) == kept

    def test_ties_prune_earlier_flat_positions(self):
        params = ParameterSet([np.ones((2, 2))], [np.zeros(2)])
        _, mask = prune_magnitude(params, 0.5)
        assert np.array_equal(mask.layers[0], [[0, 0], [1, 1]])

    def test_biases_untouched(self):
        params = ParameterSet([np.ones((2, 2))], [np.array([0.5, -0.5])])
        pruned, _ = prune_magnitude(params, 0.9)
        assert np.array_equal(pruned.biases[0], [0.5, -0.5])


F32_MAX = float(np.finfo(np.float32).max)


def _with_extremes(a: np.ndarray) -> np.ndarray:
    """a with -max and +max of float32 at its first and last entries."""
    a = a.copy()
    a.flat[0], a.flat[-1] = -F32_MAX, F32_MAX
    return a


def _float32_tensors():
    """Float32 matrices: any finite values, single-sign ones, ones holding
    +-f32 max, and subnormal ones."""
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 9))
    finite = hnp.arrays(
        np.float32, shapes, elements=st.floats(width=32, allow_nan=False, allow_infinity=False)
    )
    tiny = float(np.finfo(np.float32).smallest_normal)
    subnormal = st.floats(-tiny, tiny, width=32, exclude_min=True, exclude_max=True)
    return st.one_of(
        finite,
        finite.map(np.abs),
        finite.map(lambda a: -np.abs(a)),
        finite.map(_with_extremes),
        hnp.arrays(np.float32, shapes, elements=subnormal),
    )


class TestQuantize:
    def test_symmetric_unit_range_example(self):
        params = ParameterSet([np.array([[-1.0, 0.0, 1.0]])], [np.zeros(1)])
        q = quantize_affine(params)
        t = q[0]
        assert t.scale == 2.0 / 255.0
        assert t.zero_point == 128
        assert list(t.values.ravel()) == [0, 128, 255]
        deq = dequantize(q).weights[0]
        assert abs(deq[0, 1] - 0.0) <= t.scale / 2

    def test_constant_tensor_example(self):
        # the range is widened to include 0, so a constant c != 0 gets the
        # scale |c| / 255 and round-trips within half of it
        for c in (0.5, 0.3, -0.3, 1e-6, -250.0):
            params = ParameterSet([np.full((2, 2), c)], [np.zeros(2)])
            q = quantize_affine(params)
            t = q[0]
            assert t.scale == abs(c) / 255.0
            assert t.zero_point == (0 if c > 0 else 255)
            assert len(set(t.values.ravel().tolist())) == 1
            deq = dequantize(q).weights[0]
            assert len(set(deq.ravel().tolist())) == 1
            assert abs(deq[0, 0] - c) <= t.scale / 2

    def test_all_zero_tensor_keeps_unit_scale(self):
        params = ParameterSet([np.zeros((1, 3))], [np.zeros(1)])
        q = quantize_affine(params)
        for t in q:
            assert t.scale == 1.0
            assert t.zero_point == 0
            assert np.all(t.values == t.zero_point)
        assert np.all(dequantize(q).weights[0] == 0.0)
        # so does a range too narrow for 255 steps, which all land on 0
        for w in ([[5e-324, 1e-323]], [[-5e-324, 5e-324]]):
            q = quantize_affine(ParameterSet([np.array(w)], [np.zeros(1)]))
            assert q[0].scale == 1.0
            assert np.all(dequantize(q).weights[0] == 0.0)

    def test_single_sign_tensor_spreads_over_the_grid(self):
        for values in ([1.0, 1.5, 2.0], [-2.0, -1.5, -1.0]):
            params = ParameterSet([np.array([values])], [np.zeros(1)])
            q = quantize_affine(params)
            t = q[0]
            deq = dequantize(q).weights[0]
            assert len(set(t.values.ravel().tolist())) == 3
            assert np.abs(deq - params.weights[0]).max() <= t.scale / 2

    def test_all_values_at_zero_point_dequantize_to_zeros(self):
        q = [
            QuantizedTensor(0.01, 7, np.full((2, 3), 7, dtype=np.uint8)),
            QuantizedTensor(0.5, 200, np.full((2,), 200, dtype=np.uint8)),
        ]
        deq = dequantize(q)
        assert np.all(deq.weights[0] == 0.0)
        assert np.all(deq.biases[0] == 0.0)

    def test_round_trip_error_bound_and_fixpoint(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            w = rng.normal(0, 10.0 ** rng.uniform(-3, 1), (4, 7))
            w.flat[0] = -abs(w.flat[0]) - 1e-9
            w.flat[-1] = abs(w.flat[-1]) + 1e-9
            params = ParameterSet([w], [np.array([-0.1, 0.0, 0.2, 0.05])])
            q = quantize_affine(params)
            deq = dequantize(q)
            for orig, back, t in (
                (params.weights[0], deq.weights[0], q[0]),
                (params.biases[0], deq.biases[0], q[1]),
            ):
                assert np.abs(orig - back).max() <= t.scale / 2 + 1e-9
            q2 = quantize_affine(deq)
            for a, b in zip(q, q2):
                assert np.array_equal(a.values, b.values)
                assert a.zero_point == b.zero_point

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(w=_float32_tensors())
    def test_float32_round_trip_error_bound_and_fixpoint(self, w):
        # the range, scale and levels come from the float32 values in float64,
        # so each grid value lies within half a step of its value; dequantize
        # writes it rounded once to float32, saturated at the f32 max
        params = ParameterSet([w], [w[:, 0].copy()])
        q = quantize_affine(params)
        deq = dequantize(q)
        for orig, back, t in (
            (params.weights[0], deq.weights[0], q[0]),
            (params.biases[0], deq.biases[0], q[1]),
        ):
            assert t.dtype == back.dtype == np.float32 and np.isfinite(back).all()
            x = orig.astype(np.float64)
            grid = (t.values.astype(np.float64) - t.zero_point) * t.scale
            assert np.abs(grid - x).max() <= t.scale * (0.5 + 1e-12)
            assert np.array_equal(back, np.clip(grid, -F32_MAX, F32_MAX).astype(np.float32))
            # and so lies within half a step and half an f32 ulp of its value
            ulp = np.maximum(np.abs(back).astype(np.float64) * 2.0**-23, 2.0**-149)
            assert np.all(np.abs(back - x) <= t.scale * (0.5 + 1e-12) + ulp / 2)
        q2 = quantize_affine(deq)
        for a, b in zip(q, q2):
            assert np.array_equal(a.values, b.values)
            assert a.zero_point == b.zero_point

    def test_non_finite_raises(self):
        params = ParameterSet([np.array([[1.0, np.nan]])], [np.zeros(1)])
        with pytest.raises(ValueError):
            quantize_affine(params)


class TestCompressDecompress:
    def test_dense_kind_is_exact_identity(self):
        params = init_parameters(Architecture((3, 5, 2)), 1)
        model = compress(params, CompressionStrategy("dense", 0.0))
        out = decompress(model)
        for a, b in zip(out.weights + out.biases, params.weights + params.biases):
            assert np.array_equal(a, b)

    def test_sparse_quantized_zero_counts_per_layer(self):
        params = init_parameters(Architecture((10, 20, 5)), 2)
        model = compress(params, CompressionStrategy("sparse+quantized", 0.5))
        out = decompress(model)
        for w in out.weights:
            assert np.count_nonzero(w == 0.0) >= math.floor(0.5 * w.size)

    def test_pruned_positions_dequantize_to_exact_zero(self):
        params = init_parameters(Architecture((6, 9, 3)), 3)
        pruned, mask = prune_magnitude(params, 0.7)
        model = compress(params, CompressionStrategy("sparse+quantized", 0.7))
        out = decompress(model)
        for w, m in zip(out.weights, mask.layers):
            assert np.all(w[m == 0] == 0.0)


class TestMacs:
    def test_dense_example(self):
        params = init_parameters(Architecture((784, 128, 47)), 0)
        assert nonzero_macs(params) == 784 * 128 + 128 * 47

    def test_scales_with_pruning(self):
        params = init_parameters(Architecture((20, 50, 10)), 1)
        dense = nonzero_macs(params)
        pruned, _ = prune_magnitude(params, 0.3)
        kept = sum(w.size - math.floor(0.3 * w.size) for w in params.weights)
        assert nonzero_macs(pruned) == kept
        assert abs(nonzero_macs(pruned) - 0.7 * dense) <= len(params.weights)


class TestSerializedSize:
    def test_dense_mnist_scale_model(self):
        # 784x600 weights + 600 biases = 471,000 parameters
        params = ParameterSet(
            [np.zeros((600, 784))], [np.zeros(600)]
        )
        model = compress(params, CompressionStrategy("dense", 0.0))
        assert payload_size(model) == 1_884_000
        assert serialized_size(model) == 1_884_000 + 16 + 2 * 8
        quant = compress(params, CompressionStrategy("quantized", 0.0))
        assert payload_size(quant) / payload_size(model) <= 0.27

    def test_all_kinds_match_byte_length(self):
        params = init_parameters(Architecture((5, 7, 4)), 5)
        for kind in ("dense", "sparse", "quantized", "sparse+quantized"):
            model = compress(params, CompressionStrategy(kind, 0.4))
            assert serialized_size(model) == len(to_bytes(model))

    def test_header_only_model(self):
        model = CompressedModel("dense", params=ParameterSet([], []))
        assert serialized_size(model) == 16
        assert len(to_bytes(model)) == 16


class TestWireFormat:
    def test_header_fields(self):
        params = init_parameters(Architecture((2, 3, 2)), 0)
        blob = to_bytes(compress(params, CompressionStrategy("quantized", 0.0)))
        magic, version, kind_code, count = struct.unpack_from("<4sIII", blob, 0)
        assert magic == b"SPFL"
        assert version == 1
        assert kind_code == 2
        assert count == 4  # W0, b0, W1, b1

    def test_sections_interleave_per_tensor(self):
        # layout per tensor: shape record, then values (dense kind)
        params = init_parameters(Architecture((2, 3)), 0)
        blob = to_bytes(compress(params, CompressionStrategy("dense", 0.0)))
        assert struct.unpack_from("<II", blob, 16) == (3, 2)
        # weight payload (6 f32) sits between the two shape records
        assert struct.unpack_from("<II", blob, 16 + 8 + 6 * 4) == (3, 0)

    def test_dense_payload_is_little_endian_f32(self):
        params = ParameterSet([np.array([[1.5, -2.0]])], [np.array([0.25])])
        blob = to_bytes(compress(params, CompressionStrategy("dense", 0.0)))
        assert struct.unpack_from("<2f", blob, 24) == (1.5, -2.0)
        assert struct.unpack_from("<II", blob, 32) == (1, 0)
        assert struct.unpack_from("<f", blob, 40) == (0.25,)

    def test_sparse_bitmap_is_msb_first(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        mask = SparseMask([np.array([[1, 0], [0, 1]], dtype=np.uint8)])
        model = CompressedModel(
            "sparse", params=ParameterSet([w], [np.array([3.0, 4.0])]), mask=mask
        )
        blob = to_bytes(model)
        assert blob[24] == 0b10010000  # weight bitmap, flat [1,0,0,1]
        # surviving weight values follow the weight bitmap
        assert struct.unpack_from("<2f", blob, 25) == (1.0, 2.0)
        assert blob[41] == 0b11000000  # bias bitmap: biases always fully present

    def test_round_trip_preserves_payload_exactly(self):
        params = init_parameters(Architecture((4, 6, 3)), 9)
        for kind in ("dense", "sparse"):
            model = compress(params, CompressionStrategy(kind, 0.3))
            back = from_bytes(to_bytes(model))
            assert back.kind == kind
            a, b = decompress(model), decompress(back)
            for x, y in zip(a.weights + a.biases, b.weights + b.biases):
                assert np.array_equal(np.asarray(x, dtype=np.float32), y)
        for kind in ("quantized", "sparse+quantized"):
            model = compress(params, CompressionStrategy(kind, 0.3))
            back = from_bytes(to_bytes(model))
            assert back.kind == kind
            for t_in, t_out in zip(model.qparams, back.qparams):
                assert t_out.scale == np.float32(t_in.scale)
                assert t_out.zero_point == t_in.zero_point
                assert np.array_equal(t_out.values, t_in.values)
            # masked weight positions come back as q == zero_point
            a, b = decompress(model), decompress(back)
            for x, y in zip(a.weights + a.biases, b.weights + b.biases):
                assert np.allclose(x, y, rtol=1e-5, atol=1e-7)

    def test_dense_round_trip_is_exact_at_f32(self):
        params = init_parameters(Architecture((3, 4, 2)), 4)
        model = compress(params, CompressionStrategy("dense", 0.0))
        back = decompress(from_bytes(to_bytes(model)))
        for x, y in zip(back.weights + back.biases, params.weights + params.biases):
            assert np.array_equal(x, np.asarray(np.asarray(y, dtype=np.float32), dtype=np.float64))


class TestFromBytesErrors:
    def _blob(self):
        params = init_parameters(Architecture((2, 3, 2)), 0)
        return to_bytes(compress(params, CompressionStrategy("dense", 0.0)))

    def test_bad_magic(self):
        blob = b"XXXX" + self._blob()[4:]
        with pytest.raises(SerializationError):
            from_bytes(blob)

    def test_bad_version(self):
        blob = bytearray(self._blob())
        struct.pack_into("<I", blob, 4, 99)
        with pytest.raises(SerializationError):
            from_bytes(bytes(blob))

    def test_bad_kind_code(self):
        blob = bytearray(self._blob())
        struct.pack_into("<I", blob, 8, 7)
        with pytest.raises(SerializationError):
            from_bytes(bytes(blob))

    def test_truncated(self):
        blob = self._blob()
        with pytest.raises(SerializationError):
            from_bytes(blob[:-3])

    def test_trailing_garbage(self):
        with pytest.raises(SerializationError):
            from_bytes(self._blob() + b"\x00")

    def test_odd_tensor_count(self):
        # a weight matrix with no trailing bias vector
        blob = struct.pack("<4sIII", b"SPFL", 1, 0, 1)
        blob += struct.pack("<II", 2, 2)
        blob += struct.pack("<4f", 1, 2, 3, 4)
        with pytest.raises(SerializationError):
            from_bytes(blob)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_non_finite_value(self, kind):
        params = init_parameters(Architecture((2, 3, 2)), 0)
        blob = bytearray(to_bytes(compress(params, CompressionStrategy(kind, 0.0))))
        # W0[0, 0] is the first f32 after the header, the shape record and,
        # for the sparse kind, W0's one-byte keep-bitmap
        at = HEADER_BYTES + SHAPE_BYTES_PER_TENSOR + (1 if kind == "sparse" else 0)
        assert struct.unpack_from("<f", blob, at) == (np.float32(params.weights[0][0, 0]),)
        for bad in (math.nan, math.inf, -math.inf):
            struct.pack_into("<f", blob, at, bad)
            with pytest.raises(SerializationError, match="tensor 0: values are not all finite"):
                from_bytes(bytes(blob))

    def test_non_finite_quantization_scale(self):
        params = init_parameters(Architecture((2, 3, 2)), 0)
        blob = bytearray(to_bytes(compress(params, CompressionStrategy("quantized", 0.0))))
        # tensor 0's scale follows the header and its shape record
        at = HEADER_BYTES + SHAPE_BYTES_PER_TENSOR
        for bad in (math.nan, math.inf, -math.inf):
            struct.pack_into("<f", blob, at, bad)
            with pytest.raises(SerializationError, match="tensor 0: quantization scale"):
                from_bytes(bytes(blob))


_WIRE_BLOBS = {
    kind: to_bytes(compress(init_parameters(Architecture((3, 4, 2)), 0), CompressionStrategy(kind, 0.5)))
    for kind in KINDS
}


@st.composite
def damaged_blobs(draw, kind):
    """A valid blob of the kind with a few bytes, f32 words or u32 words
    overwritten, then perhaps truncated or extended."""
    blob = bytearray(_WIRE_BLOBS[kind])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(blob) - 4))
        how = draw(st.sampled_from(["byte", "f32", "u32"]))
        if how == "byte":
            blob[at] = draw(st.integers(0, 255))
        elif how == "f32":
            special = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 3e38])
            struct.pack_into("<f", blob, at, draw(special))
        else:
            struct.pack_into("<I", blob, at, draw(st.integers(0, 2**32 - 1)))
    end = draw(st.sampled_from(["keep", "truncate", "extend"]))
    if end == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif end == "extend":
        blob += draw(st.binary(min_size=1, max_size=16))
    return bytes(blob)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_blob_parses_or_raises_serialization_error(kind, data):
    blob = data.draw(damaged_blobs(kind))
    try:
        model = from_bytes(blob)
    except SerializationError:
        return
    # whatever parses is a whole model that accounts for every byte
    assert serialized_size(model) == len(blob)
    decompress(model)


class TestEncodeWire:
    def test_reuses_round_mask_without_repruning(self):
        params = init_parameters(Architecture((4, 8, 3)), 6)
        strategy = CompressionStrategy("sparse+quantized", 0.5)
        _, mask = prune_magnitude(params, 0.5)
        # train-like drift: change magnitudes so a fresh prune would differ
        drifted = params.copy()
        for w in drifted.weights:
            w *= np.random.default_rng(0).uniform(0.1, 2.0, w.shape)
        for w, m in zip(drifted.weights, mask.layers):
            w *= m
        model = encode_wire(drifted, strategy, mask)
        out = decompress(from_bytes(to_bytes(model)))
        for w, m in zip(out.weights, mask.layers):
            assert np.all(w[m == 0] == 0.0)
            assert np.count_nonzero(w) == np.count_nonzero(m)

    def test_pruning_kind_requires_a_mask(self):
        params = init_parameters(Architecture((4, 8, 3)), 6)
        for kind in ("sparse", "sparse+quantized"):
            with pytest.raises(ValueError, match="requires the round's prune mask"):
                encode_wire(params, CompressionStrategy(kind, 0.4), None)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("psi", [0.0, 0.4])
def test_compress_is_prune_then_encode_wire(kind, psi):
    params = init_parameters(Architecture((5, 7, 4)), 11)
    strategy = CompressionStrategy(kind, psi)
    if strategy.prunes:
        pruned, mask = prune_magnitude(params, psi)
        want = encode_wire(pruned, strategy, mask)
    else:
        want = encode_wire(params, strategy, None)
    assert to_bytes(compress(params, strategy)) == to_bytes(want)


def _stack_cases() -> list[ParameterSet]:
    """Five models of one architecture: random weights and biases, weights
    with many ties in |w| (both signs), all zeros, all positive, all negative."""
    arch = Architecture((6, 10, 4))
    rng = np.random.default_rng(23)
    base = init_parameters(arch, 21)
    biases = [rng.normal(0, 0.1, b.shape) for b in base.biases]
    ties = [rng.choice([-0.5, -0.25, 0.25, 0.5], w.shape) for w in base.weights]
    positive = ParameterSet(base.weights, biases).copy()
    for t in positive.weights + positive.biases:
        t[...] = np.abs(t) + 0.01
    return [
        ParameterSet(base.weights, biases),
        ParameterSet(ties, [np.round(b * 8) / 8 for b in biases]),
        ParameterSet([np.zeros_like(w) for w in ties], [np.zeros_like(b) for b in biases]),
        positive,
        ParameterSet([-w for w in positive.weights], [-b for b in positive.biases]),
    ]


def _reference_wire(model: ParameterSet, strategy: CompressionStrategy, mask=None):
    """One model on the wire by the per-model reference prune and quantizer;
    a given mask is reused instead of a fresh prune, as encode_wire does."""
    if strategy.prunes and mask is None:
        model, layers = reference_prune_magnitude(model, strategy.psi)
        mask = SparseMask(layers)
    mask = mask if strategy.prunes else None
    if not strategy.quantizes:
        return CompressedModel(strategy.kind, params=model, mask=mask)
    tensors = [t for wb in zip(model.weights, model.biases) for t in wb]
    qparams = [QuantizedTensor(*reference_quantize_tensor(t), t.dtype.type) for t in tensors]
    return CompressedModel(strategy.kind, qparams=qparams, mask=mask)


def _assert_same_wire(got: CompressedModel, want: CompressedModel) -> None:
    """Bit-for-bit equal masks, payloads, quantization maps, bytes and decodes."""
    assert got.kind == want.kind
    assert (got.mask is None) == (want.mask is None)
    if want.mask is not None:
        for a, b in zip(got.mask.layers, want.mask.layers, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    if want.params is not None:
        for a, b in zip(*(m.params.weights + m.params.biases for m in (got, want))):
            assert a.tobytes() == b.tobytes()
    else:
        for a, b in zip(got.qparams, want.qparams, strict=True):
            assert np.float64(a.scale).tobytes() == np.float64(b.scale).tobytes()
            assert a.zero_point == b.zero_point
            assert a.values.dtype == np.uint8 and np.array_equal(a.values, b.values)
    assert to_bytes(got) == to_bytes(want)
    for a, b in zip(*(m.weights + m.biases for m in (decompress(got), decompress(want)))):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("psi", [0.0, 0.3, 0.9])
@pytest.mark.parametrize("d", [1, 5])
def test_stacked_compress_matches_per_model_reference(kind, psi, d):
    _stacked_compress_case(kind, psi, _stack_cases()[:d])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("psi", [0.0, 0.3, 0.9])
def test_stacked_compress_matches_per_model_reference_at_float32(kind, psi):
    # a run's float32 models: pruned and quantized from their float32 values,
    # dequantized back to float32
    _stacked_compress_case(kind, psi, [cast_models(m, np.float32) for m in _stack_cases()])


def _stacked_compress_case(kind, psi, models):
    strategy = CompressionStrategy(kind, psi)
    dtype = models[0].weights[0].dtype
    stacked = compress(stack_models(models), strategy)
    # a train-like drift of every model under its mask, for encode_wire to
    # put back on the wire without pruning again
    rng = np.random.default_rng(5)
    drifted = decompress(stacked)
    for w in drifted.weights:
        w *= rng.uniform(0.1, 2.0, w.shape)
    wire = encode_wire(drifted, strategy, stacked.mask)
    assert drifted.weights[0].dtype == dtype
    for k, model in enumerate(models):
        want = _reference_wire(model, strategy)
        _assert_same_wire(stacked[k], want)
        # a single model is a stack of one
        _assert_same_wire(compress(model, strategy), want)
        _assert_same_wire(wire[k], _reference_wire(drifted[k], strategy, want.mask))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("psi", [0.0, 0.3, 0.9])
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_decode_wire_is_the_byte_round_trip_of_every_row(kind, psi, seed):
    strategy = CompressionStrategy(kind, psi)
    stacked = compress(stack_models(_stack_cases()), strategy)
    # a drift like masked training's: updated weights are multiplied by the
    # mask, which leaves -0.0 at the pruned positions of negative weights
    rng = np.random.default_rng(seed)
    trained = decompress(stacked)
    for t in trained.weights + trained.biases:
        t += rng.normal(0.0, rng.uniform(0.01, 1.0), t.shape)
    if strategy.prunes:
        pairs = list(zip(trained.weights, stacked.mask.layers))
        for w, m in pairs:
            w *= m
        assert any(np.signbit(w[m == 0]).any() for w, m in pairs) == (psi > 0)
    wire = encode_wire(trained, strategy, stacked.mask)
    decoded = decode_wire(wire)
    sizes = serialized_size(wire)
    assert sizes.shape == (len(_stack_cases()),)
    for k in range(len(sizes)):
        blob = to_bytes(wire[k])
        want = decompress(from_bytes(blob))
        got = decoded[k].weights + decoded[k].biases
        for a, b in zip(got, want.weights + want.biases, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert sizes[k] == len(blob) == serialized_size(wire[k])
        assert payload_size(wire)[k] == payload_size(wire[k])

