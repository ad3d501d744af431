import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cast_models,
    finite_difference_gradients,
    reference_forward_batch,
    reference_gradients,
    reference_loss_and_accuracy,
    reference_stacked_gradients,
    sample_away_from_relu_kinks,
    stack_models,
)
from sparsefuel import neuralnet
from sparsefuel.compression import CompressedModel, SparseMask, from_bytes, to_bytes
from sparsefuel.neuralnet import (
    Architecture,
    LabeledDataset,
    ParameterSet,
    TrainingConfig,
    _bias_gradient,
    _class_major,
    _column_sum,
    _first_max,
    _forward_batch,
    gradients,
    init_parameters,
    local_training,
    loss_and_accuracy,
)


class TestArchitecture:
    def test_properties(self):
        arch = Architecture((4, 3, 2))
        assert arch.num_classes == 2
        assert arch.weight_shapes() == [(3, 4), (2, 3)]

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            Architecture((5,))
        with pytest.raises(ValueError):
            Architecture((4, 0, 2))


class TestInit:
    def test_per_layer_glorot_bound_and_zero_biases(self):
        arch = Architecture((4, 3, 2))
        params = init_parameters(arch, seed=7)
        for w, (fan_out, fan_in) in zip(params.weights, arch.weight_shapes()):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= limit
        # the first layer's bound for (4, 3, 2) is sqrt(6/7)
        assert np.abs(params.weights[0]).max() <= math.sqrt(6.0 / 7.0)
        for b in params.biases:
            assert np.all(b == 0.0)

    def test_deterministic_and_seed_sensitive(self):
        arch = Architecture((5, 4, 3))
        a = init_parameters(arch, seed=11)
        b = init_parameters(arch, seed=11)
        c = init_parameters(arch, seed=12)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


class TestLossAndAccuracy:
    def test_uniform_logits_loss_is_log_c(self):
        for c in (2, 4, 7):
            arch = Architecture((2, c))
            params = ParameterSet([np.zeros((c, 2))], [np.zeros(c)])
            data = LabeledDataset(np.random.default_rng(0).uniform(0, 1, (20, 2)),
                                  np.zeros(20, dtype=np.int64))
            loss, _ = loss_and_accuracy(params, data)
            assert abs(loss - math.log(c)) <= 1e-9

    def test_argmax_tie_breaks_to_lowest_class(self):
        # zero net ties every class; predictions must all be class 0
        params = ParameterSet([np.zeros((3, 2))], [np.zeros(3)])
        x = np.ones((6, 2))
        _, acc0 = loss_and_accuracy(params, LabeledDataset(x, np.zeros(6, dtype=np.int64)))
        _, acc1 = loss_and_accuracy(params, LabeledDataset(x, np.ones(6, dtype=np.int64)))
        assert acc0 == 1.0
        assert acc1 == 0.0

    def test_confident_correct_logits_give_tiny_loss(self):
        params = ParameterSet([np.array([[10.0, 0.0], [-10.0, 0.0]])], [np.zeros(2)])
        data = LabeledDataset(np.array([[1.0, 0.0]]), np.array([0]))
        loss, acc = loss_and_accuracy(params, data)
        assert loss < 0.01
        assert acc == 1.0

    def test_empty_dataset_raises(self):
        params = ParameterSet([np.zeros((2, 2))], [np.zeros(2)])
        with pytest.raises(ValueError):
            loss_and_accuracy(params, LabeledDataset(np.empty((0, 2)), np.empty(0, dtype=np.int64)))

    def test_label_out_of_range_raises(self):
        params = ParameterSet([np.zeros((2, 2))], [np.zeros(2)])
        data = LabeledDataset(np.ones((1, 2)), np.array([5]))
        with pytest.raises(ValueError):
            loss_and_accuracy(params, data)


class TestGradients:
    def test_single_layer_closed_form(self):
        # for a linear softmax classifier, dW = (p - onehot)^T x / n, db = (p - onehot) / n
        rng = np.random.default_rng(3)
        w = rng.normal(0, 0.5, (3, 2))
        b = rng.normal(0, 0.5, 3)
        params = ParameterSet([w.copy()], [b.copy()])
        x = rng.uniform(0, 1, (5, 2))
        y = rng.integers(0, 3, 5)
        logits = x @ w.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        delta = probs.copy()
        delta[np.arange(5), y] -= 1.0
        delta /= 5.0
        g = gradients(params, LabeledDataset(x, y))
        assert np.allclose(g.weights[0], delta.T @ x, atol=1e-12)
        assert np.allclose(g.biases[0], delta.sum(axis=0), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        params, data = sample_away_from_relu_kinks(rng, (4, 6, 3))
        analytic = gradients(params, data)
        fd = finite_difference_gradients(params, data)
        for ga, gf in zip(analytic.weights + analytic.biases, fd.weights + fd.biases):
            rel = np.abs(ga - gf) / np.maximum(np.maximum(np.abs(ga), np.abs(gf)), 1e-6)
            assert rel.max() <= 1e-4

    def test_float32_gradients_are_the_per_model_backprop_at_float32(self):
        # a three-layer MLP and its features in float32: gradients stays in
        # float32 and gives the bits of the per-model reference run there
        rng = np.random.default_rng(31)
        arch = Architecture((5, 9, 7, 4))
        for rows in (1, 7, 32):
            params = cast_models(init_parameters(arch, rows), np.float32)
            x = rng.uniform(0, 1, (rows, 5)).astype(np.float32)
            batch = LabeledDataset(x, rng.integers(0, 4, rows))
            got = gradients(params, batch)
            assert all(t.dtype == np.float32 for t in got.weights + got.biases)
            assert _same_bits(got, reference_gradients(params, batch))

    def test_batch_gradient_is_mean_of_per_sample(self):
        rng = np.random.default_rng(8)
        params, data = sample_away_from_relu_kinks(rng, (3, 5, 2))
        full = gradients(params, data)
        n = len(data)
        acc_w = [np.zeros_like(w) for w in params.weights]
        acc_b = [np.zeros_like(b) for b in params.biases]
        for i in range(n):
            gi = gradients(params, data.gather(np.array([i])))
            for a, g in zip(acc_w + acc_b, gi.weights + gi.biases):
                a += g / n
        for a, g in zip(acc_w + acc_b, full.weights + full.biases):
            assert np.allclose(a, g, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_is_filled_and_returned(self, dtype):
        rng = np.random.default_rng(12)
        arch = Architecture((3, 5, 4))
        one = cast_models(init_parameters(arch, 0), dtype)
        stack = stack_models([one, cast_models(init_parameters(arch, 1), dtype)])
        store = LabeledDataset(rng.uniform(0, 1, (14, 3)).astype(dtype), rng.integers(0, 4, 14))
        table = np.arange(14).reshape(2, 7)
        for params, batch in ((one, store.gather(table[0])), (stack, store.gather(table))):
            buf = ParameterSet.from_flat(np.full_like(params.flat, np.nan), params.layer_sizes)
            got = gradients(params, batch, out=buf)
            assert got is buf
            assert _same_bits(got, gradients(params, batch))

    def test_out_of_other_shapes_or_dtype_raises(self):
        params = init_parameters(Architecture((2, 3, 2)), 0)
        batch = LabeledDataset(np.ones((4, 2)), [0, 1, 1, 0])
        wrong = [
            cast_models(params, np.float32),
            stack_models([params, params]),
            init_parameters(Architecture((2, 4, 2)), 0),
            # as many parameters (17) in other layers
            init_parameters(Architecture((16, 1)), 0),
            # the models themselves: the backward pass would read overwritten weights
            params,
        ]
        for out in wrong:
            with pytest.raises(ValueError, match="^out must be"):
                gradients(params, batch, out=out)


# (D, n, width) stacks: quadrant's lockstep chunk, its similarity pass, an
# idx-global chunk, and the edge shapes (one model, one row, one column)
KERNEL_SHAPES = [
    (64, 32, 8),
    (64, 32, 16),
    (150, 60, 8),
    (3, 32, 10),
    (3, 32, 64),
    (1, 32, 1),
    (2, 9, 1),
    (5, 1, 7),
    (1, 1, 1),
    (7, 37, 3),
]


def _column_sum_case(classes, rows, seed, specials, dtype):
    """_column_sum of a class-major copy against numpy's sum of each row, in
    dtype: magnitudes wide enough that the order of the adds shows in the
    rounding, some entries special, and one row of -0.0."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-12, 13, (rows, classes))
    batch_major = (rng.normal(size=(rows, classes)) * scale).astype(dtype)
    if specials:
        spots = rng.random((rows, classes)) < 0.2
        batch_major[spots] = rng.choice(sorted(specials, key=str), spots.sum())
    batch_major[0] = -0.0
    with np.errstate(invalid="ignore"):
        want = np.add.reduce(batch_major, axis=-1)
        got = _column_sum(np.ascontiguousarray(batch_major.T))
    assert got.dtype == want.dtype == dtype
    assert _same_bits(got, want, any_nan=True)


class TestKernels:
    """The reductions gradients and the loss run along the long axis must
    give exactly numpy's own reduction along the short one."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 1e6])
    def test_row_max_is_max_of_last_axis(self, shape, magnitude):
        # the head's class-major copy and its row max
        z = np.random.default_rng(sum(shape)).normal(size=shape) * magnitude
        columns, top = _class_major(z)
        assert columns.flags.c_contiguous
        assert np.array_equal(columns, z.reshape(-1, shape[-1]).T)
        assert np.array_equal(top, z.max(axis=-1).ravel())

    def test_row_max_nan_and_infinite_rows(self):
        z = np.random.default_rng(0).normal(size=(4, 6, 5))
        z[0, 0, 2] = np.nan
        z[0, 1, :] = np.nan
        z[1, 2, 4] = np.inf
        z[1, 3, :] = -np.inf
        z[2, 4, 0] = -np.inf
        z[2, 5, 1] = np.nan
        z[2, 5, 3] = np.inf
        z[3, 0, :] = [np.inf, -np.inf, np.inf, np.nan, 0.0]
        want = z.max(axis=-1)
        got = _class_major(z)[1].reshape(want.shape)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[0, 0]) and np.isnan(got[2, 5]) and np.isnan(got[3, 0])
        assert got[1, 2] == np.inf and got[1, 3] == -np.inf

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        classes=st.integers(1, 300),
        rows=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        specials=st.sets(st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324])),
    )
    def test_column_sum_is_numpy_sum_of_each_row(self, classes, rows, seed, specials):
        _column_sum_case(classes, rows, seed, specials, np.float64)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        classes=st.integers(1, 300),
        rows=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        specials=st.sets(st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-45])),
    )
    def test_column_sum_is_numpy_sum_of_each_float32_row(self, classes, rows, seed, specials):
        _column_sum_case(classes, rows, seed, specials, np.float32)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        classes=st.integers(1, 300),
        rows=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        palette=st.lists(
            st.sampled_from([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]), min_size=1, max_size=4
        ),
    )
    def test_first_max_is_argmax(self, classes, rows, seed, palette):
        # a small palette ties classes; a row with a NaN gives its first NaN
        z = np.random.default_rng(seed).choice(palette, (rows, classes))
        columns, top = _class_major(z)
        assert np.array_equal(_first_max(columns, top), z.argmax(axis=-1))

    def test_bias_gradient_is_sum_over_rows(self):
        # the rounding of a float sum depends on the order of its terms, so
        # sweep the stack sizes, row counts and widths the simulator meets
        rng = np.random.default_rng(2)
        grid = [
            (d, n, width)
            for d in (1, 2, 3, 4, 31, 64, 65)
            for n in (1, 2, 7, 8, 9, 16, 31, 32, 33, 60, 129)
            for width in (1, 2, 7, 8, 9, 10, 16, 64)
        ]
        for shape in KERNEL_SHAPES + grid:
            delta = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7)
            got = _bias_gradient(delta)
            assert got.shape == (shape[0], shape[2])
            assert np.array_equal(got, delta.sum(axis=1)), shape


# logits at the head's edges: ties between classes, +-inf (a bias, or a
# product that overflows), NaN (inf - inf, or a NaN bias) and -0.0
LOGIT_PALETTE = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e200]
BIAS_SPECIALS = [np.inf, -np.inf, np.nan, -0.0]


class TestClassMajorHead:
    """loss_and_accuracy, gradients and local_training give the bits of the
    batch-major head (conftest's references) from 1 to 300 classes."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        classes=st.integers(1, 300),
        models=st.integers(1, 3),
        rows=st.integers(1, 12),
        batch=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        tied=st.booleans(),
        specials=st.sets(st.sampled_from(BIAS_SPECIALS)),
    )
    def test_matches_the_batch_major_head(self, classes, models, rows, batch, seed, tied, specials):
        self._check(np.float64, classes, models, rows, batch, seed, tied, specials)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        classes=st.integers(1, 300),
        models=st.integers(1, 3),
        rows=st.integers(1, 12),
        batch=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        tied=st.booleans(),
        specials=st.sets(st.sampled_from(BIAS_SPECIALS)),
    )
    def test_matches_the_batch_major_head_at_float32(
        self, classes, models, rows, batch, seed, tied, specials
    ):
        # the models and the features in float32, as a run holds them; the
        # palette's 1e200 is inf there
        self._check(np.float32, classes, models, rows, batch, seed, tied, specials)

    @staticmethod
    def _check(dtype, classes, models, rows, batch, seed, tied, specials):
        rng = np.random.default_rng(seed)
        # one linear layer on 1-d inputs: logit (r, c) is x_r * w_c + b_c
        if tied:
            w = rng.choice(LOGIT_PALETTE, (models, classes, 1))
            x = rng.choice(LOGIT_PALETTE, (models * rows, 1))
        else:
            w = rng.normal(size=(models, classes, 1))
            x = rng.normal(size=(models * rows, 1))
        b = rng.choice([0.0, 1.0, -2.0], (models, classes))
        if specials:
            spots = rng.random(b.shape) < 0.1
            b[spots] = rng.choice(sorted(specials, key=str), spots.sum())
        with np.errstate(over="ignore"):
            w, x, b = (a.astype(dtype) for a in (w, x, b))
        stack = ParameterSet([w], [b])
        store = LabeledDataset(x, rng.integers(0, classes, models * rows))
        table = np.arange(models * rows).reshape(models, rows)
        data = store.gather(table)
        # a batch that does not divide rows leaves a partial last batch
        cfg = TrainingConfig(local_epochs=2, batch_size=batch, learning_rate=0.5, rng_seed=seed)

        def results():
            return [
                neuralnet.loss_and_accuracy(stack, data),
                neuralnet.loss_and_accuracy(stack[0], store.gather(table[0])),
                neuralnet.gradients(stack, data),
                neuralnet.gradients(stack[0], store.gather(table[0])),
                local_training(stack, store, cfg, round_index=1, rows=table),
                local_training(stack[0], store, cfg, round_index=1, rows=table[0]),
            ]

        with np.errstate(all="ignore"):
            got = results()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(neuralnet, "loss_and_accuracy", reference_loss_and_accuracy)
                patch.setattr(neuralnet, "gradients", reference_stacked_gradients)
                want = results()
        assert got[2].weights[0].dtype == got[4].weights[0].dtype == dtype
        for k, (g, r) in enumerate(zip(got, want)):
            assert _same_bits(g, r, any_nan=True), k


def _relu_specials(dtype) -> np.ndarray:
    """Special values a ReLU must pass on as np.maximum(a, 0.0) does: both
    zeros, both infinities, quiet NaNs with payloads of either sign, the
    least subnormals and the dtype's max."""
    info = np.finfo(dtype)
    if dtype == np.float64:
        nans = np.array([0x7FF8000000000001, 0xFFF80000000ABCDE], np.uint64).view(dtype)
    else:
        nans = np.array([0x7FC00001, 0xFFC0ABCD], np.uint32).view(dtype)
    tiny = info.smallest_subnormal
    finite = np.array([0.0, -0.0, tiny, -tiny, 2 * tiny, info.max, -info.max], dtype)
    return np.concatenate([finite, np.array([np.inf, -np.inf], dtype), nans])


class TestReluSpecials:
    """The forward pass's full-size bias and ReLU zero give the bits of
    conftest's references, which add a broadcast bias and take the ReLU
    against the scalar 0.0, on 2-layer stacks whose hidden pre-activations
    hold every special value of _relu_specials that a forward pass can make."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        extra=st.integers(0, 6),
        classes=st.integers(1, 12),
        models=st.integers(1, 3),
        rows=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_broadcast_forward_pass(self, dtype, extra, classes, models, rows, seed):
        rng = np.random.default_rng(seed)
        specials = _relu_specials(dtype)
        hidden = len(specials) + extra
        # hidden unit h of a row reads x * w_h + b_h; on the first units, a
        # row of x = 1 and a bias of -0.0 give each special as it is
        w0 = rng.choice(np.array([1.0, -1.0, 0.5, 3.0], dtype), (models, hidden, 1))
        w0[:, : len(specials), 0] = specials
        b0 = rng.choice(np.concatenate([specials, np.array([1.0, -2.0], dtype)]), (models, hidden))
        b0[:, : len(specials)] = -0.0
        w1 = rng.normal(size=(models, classes, hidden)).astype(dtype)
        b1 = rng.normal(size=(models, classes)).astype(dtype)
        stack = ParameterSet([w0, w1], [b0, b1])
        x = rng.choice(np.array([1.0, -1.0, 0.0, -0.0, 0.25], dtype), (models * rows, 1))
        x[::rows] = 1.0
        store = LabeledDataset(x, rng.integers(0, classes, models * rows))
        table = np.arange(models * rows).reshape(models, rows)
        data = store.gather(table)

        with np.errstate(all="ignore"):
            pre = data.features @ stack.weights[0].transpose(0, 2, 1) + stack.biases[0][:, None, :]
            # every special reaches the ReLU but -0.0: matmul sums from +0.0,
            # and a sum is -0.0 only when both its terms are
            reached = {v.tobytes() for v in pre.ravel()}
            negative_zero = np.array(-0.0, dtype).tobytes()
            assert negative_zero not in reached
            assert {v.tobytes() for v in specials} - reached == {negative_zero}
            got = _forward_batch(stack, data.features)
            want = reference_forward_batch(stack, data.features)
            for i, (g, r) in enumerate(zip(got, want)):
                assert _same_bits(g, r), i
            got = [
                loss_and_accuracy(stack, data),
                loss_and_accuracy(stack[0], store.gather(table[0])),
                gradients(stack, data),
                gradients(stack[0], store.gather(table[0])),
            ]
            want = [
                reference_loss_and_accuracy(stack, data),
                reference_loss_and_accuracy(stack[0], store.gather(table[0])),
                reference_stacked_gradients(stack, data),
                reference_stacked_gradients(stack[0], store.gather(table[0])),
            ]
        assert got[2].flat.dtype == dtype
        for k, (g, r) in enumerate(zip(got, want)):
            assert _same_bits(g, r, any_nan=True), k


class TestLocalTraining:
    def _toy(self, m=100, seed=5):
        rng = np.random.default_rng(seed)
        half = m // 2
        x0 = rng.normal(0.25, 0.05, (half, 2))
        x1 = rng.normal(0.75, 0.05, (m - half, 2))
        x = np.clip(np.vstack([x0, x1]), 0, 1)
        y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(m - half, dtype=np.int64)])
        return LabeledDataset(x, y)

    def test_zero_learning_rate_is_identity(self):
        params = init_parameters(Architecture((2, 4, 2)), 0)
        cfg = TrainingConfig(local_epochs=2, batch_size=16, learning_rate=0.0, rng_seed=9)
        out = local_training(params, self._toy(), cfg)
        for a, b in zip(out.weights + out.biases, params.weights + params.biases):
            assert np.array_equal(a, b)

    def test_deterministic_per_seed_and_round(self):
        params = init_parameters(Architecture((2, 4, 2)), 0)
        data = self._toy()
        cfg = TrainingConfig(local_epochs=2, batch_size=16, learning_rate=0.1, rng_seed=9)
        a = local_training(params, data, cfg, round_index=3)
        b = local_training(params, data, cfg, round_index=3)
        c = local_training(params, data, cfg, round_index=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))

    def test_mask_zeroes_survive_every_step(self):
        arch = Architecture((2, 4, 2))
        params = init_parameters(arch, 1)
        mask = SparseMask([
            np.array([[1, 0], [0, 1], [1, 1], [0, 0]], dtype=np.uint8),
            np.array([[1, 1, 0, 0], [0, 1, 1, 0]], dtype=np.uint8),
        ])
        for w, m in zip(params.weights, mask.layers):
            w *= m
        cfg = TrainingConfig(local_epochs=3, batch_size=16, learning_rate=0.1, rng_seed=2)
        out = local_training(params, self._toy(), cfg, mask=mask)
        for w, m in zip(out.weights, mask.layers):
            assert np.all(w[m == 0] == 0.0)
            assert np.any(w[m == 1] != 0.0)

    def test_mask_that_is_not_zero_one_raises(self):
        params = init_parameters(Architecture((2, 4, 2)), 1)
        cfg = TrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.1, rng_seed=2)
        half = [np.full(w.shape, 0.5) for w in params.weights]
        with pytest.raises(ValueError, match="^mask entries must be 0 or 1$"):
            local_training(params, self._toy(), cfg, mask=SparseMask(half))
        stack = stack_models([params, params])
        masks = [np.ones((2,) + w.shape) for w in params.weights]
        masks[1][1, 0, 0] = 2.0
        rows = np.arange(20).reshape(2, 10)
        with pytest.raises(ValueError, match="^mask entries must be 0 or 1$"):
            local_training(stack, self._toy(), cfg, mask=SparseMask(masks), rows=rows)
        masks[1][1, 0, 0] = 1.0
        local_training(stack, self._toy(), cfg, mask=SparseMask(masks), rows=rows)

    def test_sparse_mask_checks_its_entries_as_given(self):
        # 0.5 would cast to 0 and -255 wrap to 1 as uint8: each is refused
        for layer in ([[0.5, 1.0]], [[-255, 1]], [[np.nan, 1.0]]):
            with pytest.raises(ValueError, match="^mask entries must be 0 or 1$"):
                SparseMask([np.array(layer)])
        # 0/1 entries of any dtype become one uint8 buffer, every bias kept
        for layer in ([[1.0, 0.0], [0.0, 1.0]], [[True, False], [False, True]]):
            mask = SparseMask([np.array(layer)])
            assert mask.flat.dtype == np.uint8 and mask.flat.tolist() == [1, 0, 0, 1, 1, 1]
            assert np.shares_memory(mask.layers[0], mask.flat)

    def test_separable_blobs_reach_full_accuracy(self):
        data = self._toy(m=100)
        params = init_parameters(Architecture((2, 8, 2)), 4)
        # 100 samples / batch 16 -> 7 steps per epoch; 30 epochs ≈ 210 steps
        cfg = TrainingConfig(local_epochs=30, batch_size=16, learning_rate=0.1, rng_seed=6)
        out = local_training(params, data, cfg)
        _, acc = loss_and_accuracy(out, data)
        assert acc == 1.0

    def test_truncated_final_batch(self):
        data = self._toy(m=10)
        params = init_parameters(Architecture((2, 4, 2)), 2)
        cfg = TrainingConfig(local_epochs=1, batch_size=4, learning_rate=0.05, rng_seed=0)
        out = local_training(params, data, cfg)
        assert all(np.isfinite(w).all() for w in out.weights)
        assert any(not np.array_equal(a, b) for a, b in zip(out.weights, params.weights))


def _same_bits(a, b, any_nan=False):
    """Two results (floats, arrays or ParameterSets) hold the same bits; with
    any_nan, a NaN matches any NaN (which of two NaNs an add keeps is up to
    how numpy was built), but -0.0 still does not match 0.0."""
    if isinstance(a, ParameterSet):
        return _same_bits(a.weights + a.biases, b.weights + b.biases, any_nan)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same_bits(x, y, any_nan) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    if any_nan:
        a, b = (np.where(np.isnan(v), np.nan, v) for v in (a, b))
    return a.tobytes() == b.tobytes()


class TestEightBitFeatures:
    """A uint8 dataset reads as its twin of floats k / 255 in the models'
    dtype: every entry point gives the same bits on either."""

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 6)),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_pixel_bytes_match_their_float64_twin(self, shape, seed, data):
        d, n, dim = shape
        raw = data.draw(st.binary(min_size=d * n * dim, max_size=d * n * dim))
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(d * n, dim)
        labels = np.random.default_rng(seed).integers(0, 3, d * n)
        store = LabeledDataset(pixels, labels)
        twin = LabeledDataset(pixels / 255.0, labels)
        assert store.features.dtype == np.uint8 and twin.features.dtype == np.float64

        arch = Architecture((dim, 4, 3))
        models = stack_models([init_parameters(arch, seed + k) for k in range(d)])
        rows = np.arange(d * n).reshape(d, n)
        cfg = TrainingConfig(local_epochs=2, batch_size=3, learning_rate=0.5, rng_seed=seed)
        for run in (
            lambda s: loss_and_accuracy(models[0], s),
            lambda s: loss_and_accuracy(models, s.gather(rows)),
            lambda s: gradients(models, s.gather(rows)),
            lambda s: local_training(models, s, cfg, round_index=1, rows=rows),
        ):
            assert _same_bits(run(store), run(twin))


    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 6)),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_pixel_bytes_match_their_float32_twin(self, shape, seed, data):
        # float32 models read k as k / 255 divided in float32, which is the
        # float64 quotient rounded to float32 (the quotient's period-8 bits
        # never round to a tie)
        d, n, dim = shape
        raw = data.draw(st.binary(min_size=d * n * dim, max_size=d * n * dim))
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(d * n, dim)
        labels = np.random.default_rng(seed).integers(0, 3, d * n)
        store = LabeledDataset(pixels, labels)
        twin = LabeledDataset((pixels / 255.0).astype(np.float32), labels)
        assert twin.features.dtype == np.float32

        arch = Architecture((dim, 4, 3))
        models = cast_models(
            stack_models([init_parameters(arch, seed + k) for k in range(d)]), np.float32
        )
        rows = np.arange(d * n).reshape(d, n)
        cfg = TrainingConfig(local_epochs=2, batch_size=3, learning_rate=0.5, rng_seed=seed)
        for run in (
            lambda s: loss_and_accuracy(models[0], s),
            lambda s: loss_and_accuracy(models, s.gather(rows)),
            lambda s: gradients(models, s.gather(rows)),
            lambda s: local_training(models, s, cfg, round_index=1, rows=rows),
        ):
            got, want = run(store), run(twin)
            assert _same_bits(got, want)
        assert got.weights[0].dtype == np.float32


class TestParameterSet:
    def test_shape_chain_mismatch_raises(self):
        with pytest.raises(ValueError):
            ParameterSet([np.zeros((3, 2)), np.zeros((2, 4))], [np.zeros(3), np.zeros(2)])

    def test_copy_is_independent(self):
        params = init_parameters(Architecture((2, 3, 2)), 0)
        dup = params.copy()
        dup.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != dup.weights[0][0, 0]
        stack = stack_models([params, params])
        dup = stack.copy()
        dup.flat += 1.0
        assert not np.shares_memory(dup.flat, stack.flat)
        assert np.array_equal(stack.flat[0], params.flat)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensors_are_views_of_flat_in_codec_order(self, dtype):
        one = cast_models(init_parameters(Architecture((3, 5, 4, 2)), 0), dtype)
        two = cast_models(init_parameters(Architecture((3, 5, 4, 2)), 1), dtype)
        stack = stack_models([one, two])
        for params in (one, stack):
            assert params.flat.dtype == dtype and params.flat.flags.c_contiguous
            order = [t for wb in zip(params.weights, params.biases) for t in wb]
            assert all(np.shares_memory(t, params.flat) for t in order)
            rows = params.flat.reshape((-1, params.flat.shape[-1]))
            packed = np.concatenate([t.reshape(len(rows), -1) for t in order], axis=1)
            assert np.array_equal(rows, packed)
        assert stack.flat.shape == (2, one.flat.size)
        assert one.flat.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2

    def test_constructor_copies_its_inputs(self):
        w, b = np.ones((3, 2), dtype=np.float32), np.zeros(3, dtype=np.float32)
        params = ParameterSet([w], [b])
        w[0, 0], b[0] = 7.0, 7.0
        assert params.weights[0][0, 0] == 1.0 and params.biases[0][0] == 0.0
        assert not np.shares_memory(params.weights[0], w)

    def test_from_flat_wraps_without_a_copy(self):
        flat = np.arange(2 * 13, dtype=np.float32).reshape(2, 13)
        params = ParameterSet.from_flat(flat, (2, 3, 1))
        assert params.flat is flat and params.stacked
        assert params.weights[0].shape == (2, 3, 2) and params.biases[1].shape == (2, 1)
        params.biases[1][1, 0] = -1.0
        assert flat[1, -1] == -1.0
        with pytest.raises(ValueError):
            ParameterSet.from_flat(flat[:, :12], (2, 3, 1))

    def test_int_or_slice_index_writes_through_and_index_array_does_not(self):
        stack = stack_models([init_parameters(Architecture((2, 3, 2)), s) for s in range(3)])
        stack[1].weights[0][0, 0] = 9.0
        stack[0:2].biases[1][0, 1] = 8.0
        stack[2][None].flat[0, -1] = 7.0
        assert stack.weights[0][1, 0, 0] == 9.0 and stack.biases[1][0, 1] == 8.0
        assert stack.flat[2, -1] == 7.0
        before = stack.flat.copy()
        picked = stack[[2, 0]]
        picked.flat[:] = 0.0
        assert np.array_equal(stack.flat, before)

    def test_empty_set_round_trips_through_bytes(self):
        empty = ParameterSet([], [])
        assert empty.flat.shape == (0,) and empty.num_layers == 0 and not empty.stacked
        back = from_bytes(to_bytes(CompressedModel("dense", empty)))
        assert back.values.num_layers == 0 and back.values.flat.size == 0
        assert back.values.copy().num_params == 0

    def test_num_params(self):
        params = init_parameters(Architecture((4, 3, 2)), 0)
        assert params.num_params == 4 * 3 + 3 + 3 * 2 + 2


class TestLabeledDataset:
    def test_labels_that_are_not_whole_numbers_are_refused(self):
        x = np.zeros((2, 2))
        # the int64 cast would keep the classes [1, 0]
        for labels in ([1.5, 0.2], [1.0, np.nan], [np.inf, 0.0], np.array([0.5, 1.0], np.float32)):
            with pytest.raises(ValueError, match="whole numbers"):
                LabeledDataset(x, labels)

    def test_whole_labels_become_int64_classes(self):
        x = np.zeros((3, 2))
        for labels in ([2.0, 0.0, -0.0], np.array([2, 0, 0], np.uint8), np.array([2, 0, 0])):
            data = LabeledDataset(x, labels)
            assert data.labels.dtype == np.int64 and data.labels.tolist() == [2, 0, 0]


class TestGather:
    """gather gives the constructor's dataset of the rows it takes, without
    re-running the constructor's checks."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    def test_matches_the_constructor_on_1d_and_2d_rows(self, dtype):
        rng = np.random.default_rng(4)
        store = LabeledDataset((rng.random((12, 3)) * 200).astype(dtype), rng.integers(0, 5, 12))
        tables = [
            np.array([3, 0, 11, 3, -1]),
            np.arange(12).reshape(3, 4)[:, ::-1],
            np.array([[5], [7]]),
            np.array([], dtype=np.int64),
            [2, 4],
        ]
        for rows in tables:
            got = store.gather(rows)
            want = LabeledDataset(
                np.take(store.features, rows, axis=0), np.take(store.labels, rows)
            )
            assert type(got) is LabeledDataset
            for a, b in ((got.features, want.features), (got.labels, want.labels)):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    def test_rows_of_other_ranks_raise(self):
        store = LabeledDataset(np.zeros((4, 2)), [0, 1, 2, 3])
        for rows in (np.int64(1), 2, np.zeros((1, 2, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="^gather takes"):
                store.gather(rows)
        stacked = store.gather(np.arange(4).reshape(2, 2))
        with pytest.raises(ValueError, match="^gather takes"):
            stacked.gather(np.array([0]))

    def test_rows_out_of_range_raise_numpys_index_error(self):
        store = LabeledDataset(np.zeros((4, 2)), [0, 1, 2, 3])
        for rows in ([4], [[0, 1], [2, -5]]):
            with pytest.raises(IndexError):
                store.gather(np.array(rows))
