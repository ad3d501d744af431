"""Lockstep training and batched similarity against the per-device reference.

Stacked training and scoring must be the per-device arithmetic, only run for
many devices at once, so every check here is bit-equality (array_equal, ==),
never a tolerance.
"""

import ctypes
import dataclasses
import os
import resource
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefuel import harness, protocol

from sparsefuel.compression import (
    CompressionStrategy,
    SparseMask,
    compress,
    decompress,
    encode_wire,
    from_bytes,
    to_bytes,
)
from sparsefuel.harness import (
    build_world,
    calibrate_tau,
    load_config,
    metrics_csv_text,
    run_experiment_result,
)
from sparsefuel.neuralnet import (
    Architecture,
    LabeledDataset,
    ParameterSet,
    TrainingConfig,
    init_parameters,
    local_training,
    loss_and_accuracy,
    shuffle_orders,
)
from sparsefuel.protocol import (
    ARMS,
    DEVICE_DTYPE,
    LOCKSTEP_BUDGET_BYTES,
    ProtocolConfig,
    cross_similarity,
    lockstep_chunk,
    make_state,
    run_round,
)

from conftest import (
    cast_models,
    quadrant_config,
    reference_local_training,
    reference_loss,
    reference_orders,
    reference_two_stack_round,
    sample_store,
    small_config,
    stack_models,
    topology_at,
    viewed_row,
)


REPO_ROOT = Path(__file__).resolve().parents[1]


def assert_same_model(got: ParameterSet, want: ParameterSet):
    assert [t.shape for t in got.weights + got.biases] == [t.shape for t in want.weights + want.biases]
    for x, y in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(x, y)


def toy_data(seed, m, dim=2, classes=4):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.uniform(0, 1, (m, dim)), rng.integers(0, classes, m))


def device_data(data):
    """A store's features in a run's float type, as the harness builds it."""
    return LabeledDataset(data.features.astype(DEVICE_DTYPE), data.labels)


def random_mask(arch, seed, keep=0.7):
    rng = np.random.default_rng(seed)
    return SparseMask([(rng.random(shape) < keep).astype(np.uint8) for shape in arch.weight_shapes()])


class TestLockstepTraining:
    def test_stack_matches_reference_per_device(self):
        # five devices, each with its own start model, data, place in the
        # shuffle and mask, their 37 rows each laid one after another in a
        # 185-row store; 37 rows at batch 16 leave a partial last batch of 5
        arch = Architecture((3, 7, 4))
        models = [init_parameters(arch, 10 + k) for k in range(5)]
        data = [toy_data(20 + k, 37, dim=3) for k in range(5)]
        masks = [random_mask(arch, 30 + k) for k in range(5)]
        cfg = TrainingConfig(local_epochs=2, batch_size=16, learning_rate=0.1, rng_seed=99)
        orders = reference_orders(99, 3, 5, 2, 37)
        store, rows = sample_store(data)
        assert len(store) == 185 and np.shape(rows) == (5, 37)
        out = local_training(
            stack_models(models),
            store,
            cfg,
            mask=SparseMask([np.stack(layer) for layer in zip(*(m.layers for m in masks))]),
            round_index=3,
            rows=np.array(rows),
        )
        assert out.stacked and out.weights[0].shape == (5, 7, 3)
        for k in range(5):
            want = reference_local_training(models[k], data[k], cfg, masks[k], order=orders[k])
            assert_same_model(out[k], want)

    def test_single_model_without_mask_matches_reference(self):
        params = init_parameters(Architecture((2, 9, 3)), 4)
        data = toy_data(5, 29, classes=3)
        cfg = TrainingConfig(local_epochs=3, batch_size=8, learning_rate=0.2, rng_seed=17)
        out = local_training(params, data, cfg, round_index=2)
        assert not out.stacked
        assert_same_model(out, reference_local_training(params, data, cfg, round_index=2))

    def test_rows_of_a_store_match_reference_on_their_subsets(self):
        # four models on rows of one shared store, rows repeating across
        # models as label-skew draws do; 23 rows at batch 8 leave a partial
        # last batch of 7
        arch = Architecture((3, 6, 4))
        store = toy_data(60, 50, dim=3)
        rng = np.random.default_rng(61)
        rows = np.array([rng.choice(50, 23, replace=False) for _ in range(4)])
        models = [init_parameters(arch, 70 + k) for k in range(4)]
        masks = [random_mask(arch, 80 + k) for k in range(4)]
        cfg = TrainingConfig(local_epochs=2, batch_size=8, learning_rate=0.1, rng_seed=3)
        orders = reference_orders(3, 4, 4, 2, 23)
        out = local_training(
            stack_models(models),
            store,
            cfg,
            mask=SparseMask([np.stack(layer) for layer in zip(*(m.layers for m in masks))]),
            round_index=4,
            rows=rows,
        )
        for k in range(4):
            want = reference_local_training(
                models[k], store.gather(rows[k]), cfg, masks[k], order=orders[k]
            )
            assert_same_model(out[k], want)
        single = local_training(models[0], store, cfg, round_index=4, rows=rows[0])
        assert not single.stacked
        want = reference_local_training(models[0], store.gather(rows[0]), cfg, round_index=4)
        assert_same_model(single, want)

    def test_rows_must_match_the_models_and_the_store(self):
        arch = Architecture((2, 3))
        models = stack_models([init_parameters(arch, k) for k in range(2)])
        store = toy_data(1, 10)
        cfg = TrainingConfig(local_epochs=1, batch_size=2, learning_rate=0.1, rng_seed=0)
        for bad in (np.zeros(4, dtype=np.int64), np.zeros((3, 4), dtype=np.int64)):
            with pytest.raises(ValueError):
                local_training(models, store, cfg, rows=bad)
        with pytest.raises(ValueError, match="rows must index a 2-d dataset"):
            local_training(models[0], store, cfg, rows=np.zeros((1, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="empty dataset"):
            local_training(models, store, cfg, rows=np.zeros((2, 0), dtype=np.int64))
        for bad in (-1, 10):
            with pytest.raises(ValueError, match="index the dataset's 10 samples"):
                local_training(models, store, cfg, rows=np.array([[0, 1], [2, bad]]))

    def test_rows_that_are_not_integers_are_rejected(self):
        # a float table would be truncated to other rows, a bool mask read as
        # rows 0 and 1; an empty table keeps its own message
        models = stack_models([init_parameters(Architecture((2, 4)), k) for k in range(2)])
        store = toy_data(1, 10)
        cfg = TrainingConfig(local_epochs=1, batch_size=2, learning_rate=0.1, rng_seed=0)
        for bad in (np.array([[1.7, 2.2], [3.0, 4.0]]), np.ones((2, 10), dtype=bool)):
            with pytest.raises(ValueError, match="^rows must be integers that index"):
                local_training(models, store, cfg, rows=bad)
        with pytest.raises(ValueError, match="empty dataset"):
            local_training(models, store, cfg, rows=np.zeros((2, 0)))

    def test_orders_must_match_the_stack(self):
        models = stack_models([init_parameters(Architecture((2, 3)), k) for k in range(2)])
        store = toy_data(1, 8)
        cfg = TrainingConfig(local_epochs=2, batch_size=2, learning_rate=0.1, rng_seed=0)
        rows = np.arange(8).reshape(2, 4)
        for shape in ((3, 2, 4), (2, 1, 4), (2, 2, 3), (2, 4)):
            with pytest.raises(ValueError, match="^orders of shape"):
                local_training(models, store, cfg, rows=rows, orders=np.zeros(shape, np.intp))
        with pytest.raises(ValueError, match="^orders of shape"):
            local_training(models[0], store, cfg, rows=rows[0], orders=np.zeros((1, 2, 4), np.intp))

    def test_given_orders_are_the_drawn_orders(self):
        # training on shuffle_orders' draw is training on the default draw,
        # and each row of that draw is the per-model reference's shuffle
        arch = Architecture((2, 5, 3))
        models = stack_models([init_parameters(arch, k) for k in range(3)])
        store = toy_data(2, 30, classes=3)
        rows = np.arange(30).reshape(3, 10)
        cfg = TrainingConfig(local_epochs=3, batch_size=4, learning_rate=0.1, rng_seed=8)
        drawn = shuffle_orders(8, 6, np.empty((3, 3, 10), dtype=np.intp))
        assert drawn.dtype == np.intp and np.array_equal(drawn, reference_orders(8, 6, 3, 3, 10))
        want = local_training(models, store, cfg, round_index=6, rows=rows)
        assert_same_model(local_training(models, store, cfg, rows=rows, orders=drawn), want)
        # other orders train otherwise, and one model takes its own (epochs, n)
        assert not np.array_equal(
            local_training(models, store, cfg, rows=rows, orders=drawn[::-1]).weights[0],
            want.weights[0],
        )
        single = local_training(models[1], store, cfg, rows=rows[1], orders=drawn[1])
        assert_same_model(single, want[1])

    def test_stacked_loss_is_per_pair_loss(self):
        arch = Architecture((2, 5, 4))
        models = [init_parameters(arch, k) for k in range(3)]
        data = [toy_data(40 + k, 11) for k in range(3)]
        losses, accs = loss_and_accuracy(
            stack_models(models),
            LabeledDataset(np.stack([d.features for d in data]), np.stack([d.labels for d in data])),
        )
        for k in range(3):
            loss, acc = loss_and_accuracy(models[k], data[k])
            assert losses[k] == loss == reference_loss(models[k], data[k])
            assert accs[k] == acc


STRATEGY = CompressionStrategy("sparse+quantized", 0.3)
TRAINING = TrainingConfig(local_epochs=2, batch_size=16, learning_rate=0.1, rng_seed=5)


# the bytes of one float of a run's models and activations
ITEMSIZE = np.dtype(DEVICE_DTYPE).itemsize


def hidden_width(models_per_chunk: int, rows: int = TRAINING.batch_size) -> int:
    """The widest hidden layer h for which models_per_chunk 2-h-4 MLPs of a
    run fit the lockstep budget at `rows` input rows each: such an MLP costs
    ITEMSIZE * (7h + 4 + rows * (h + 6)) bytes per model."""
    per_model = LOCKSTEP_BUDGET_BYTES // (ITEMSIZE * models_per_chunk)
    return (per_model - 4 - 6 * rows) // (7 + rows)


# Eleven devices on a line, each holding 45 rows: 9 validation rows and 36
# training rows, a partial last batch of 4 at batch 16.
N, M = 11, 45
# The widest hidden layer for which lockstep training runs four devices at a
# time at batch 16: the eleven devices train in chunks of 4, 4 and 3, so a
# chunk boundary falls inside the devices and the last chunk is short.
WIDE = Architecture((2, hidden_width(4), 4))
# One unit wider than fits the lockstep budget alone at batch 16: every
# device trains in a chunk of its own.
ALONE = Architecture((2, hidden_width(1) + 1, 4))


def line_rows():
    """Each device's M rows drawn from one shared store of 120 samples, so
    devices share samples and no device's rows are a range."""
    return np.array(
        [np.random.default_rng(200 + uid).choice(120, M, replace=False) for uid in range(N)]
    )


def line_state(arch=WIDE):
    points = [(i, 0) for i in range(N)]
    topo = topology_at(points, r_c=1.0)
    store = device_data(toy_data(199, 120))
    state = make_state(topo, store, line_rows(), init_parameters(arch, 0), 0.2)
    # distinct start models give every device its own prune mask
    starts = stack_models([init_parameters(arch, 1000 + uid) for uid in range(N)])
    params = state.params
    for rows, start in zip(params.weights + params.biases, starts.weights + starts.biases):
        rows[:] = start
    return state


def reference_round(state, round_index):
    """Per-device training and wire round trip: (trained, decoded) by uid."""
    trained, decoded = {}, {}
    epochs, rows = TRAINING.local_epochs, state.train_rows.shape[1]
    orders = reference_orders(TRAINING.rng_seed, round_index, N, epochs, rows)
    for uid in range(N):
        cm = compress(state.params[uid], STRATEGY)
        train = state.samples.gather(state.train_rows[uid])
        trained[uid] = reference_local_training(
            decompress(cm), train, TRAINING, mask=cm.mask, order=orders[uid]
        )
        wire = encode_wire(trained[uid], STRATEGY, cm.mask)
        decoded[uid] = decompress(from_bytes(to_bytes(wire)))
    return trained, decoded


def protocol_config():
    return ProtocolConfig(tau=4.0, strategy=STRATEGY, training=TRAINING, similarity_uses_compressed=True)


class TestDeviceBank:
    def test_splits_are_views_of_the_row_table(self):
        # every device's dataset is its row of one (n, m) table into the one
        # sample store, and both splits are views of that table
        topo = topology_at([(i, 0) for i in range(N)], r_c=1.0)
        samples, table, init = toy_data(199, 120), line_rows(), init_parameters(WIDE, 0)
        state = make_state(topo, samples, table, init, 0.2)
        assert state.samples is samples
        assert state.val_rows.shape == (N, 9) and state.train_rows.shape == (N, 36)
        for split in (state.train_rows, state.val_rows):
            assert split.dtype == np.int64 and split.base is table
        # a list of equal-length row arrays is stacked into one table
        listed = make_state(topo, samples, list(table), init, 0.2)
        assert listed.train_rows.base is listed.val_rows.base is not None
        assert np.array_equal(np.hstack([listed.val_rows, listed.train_rows]), table)

    def test_rows_outside_the_store_are_rejected(self):
        points = [(i, 0) for i in range(2)]
        topo = topology_at(points, r_c=1.0)
        store, init = toy_data(1, 10), init_parameters(WIDE, 0)
        for bad in ([0, 1, 2, 3, 10], [-1, 3, 4, 5, 6]):
            with pytest.raises(ValueError, match="index the store's 10 samples"):
                make_state(topo, store, [np.arange(5), np.array(bad)], init, 0.2)
        for bad in ([np.arange(5)], np.arange(2)):
            with pytest.raises(ValueError, match="one row array per device"):
                make_state(topo, store, bad, init, 0.2)

    def test_unequal_row_lengths_are_rejected(self):
        # every device holds the same number of rows
        points = [(i, 0) for i in range(2)]
        topo = topology_at(points, r_c=1.0)
        store, init = toy_data(1, 10), init_parameters(WIDE, 0)
        with pytest.raises(ValueError, match="^every device needs the same number of rows$"):
            make_state(topo, store, [np.arange(5), np.arange(5, 9)], init, 0.2)

    def test_rows_that_are_not_integers_are_rejected(self):
        # a float table would be truncated to other rows, a bool mask read as
        # rows 0 and 1; an empty table keeps its own message
        points = [(i, 0) for i in range(2)]
        topo = topology_at(points, r_c=1.0)
        store, init = toy_data(1, 10), init_parameters(WIDE, 0)
        for bad in (np.array([[1.7, 2.2], [3.0, 4.0]]), np.ones((2, 10), dtype=bool)):
            with pytest.raises(ValueError, match="^rows must be integers that index"):
                make_state(topo, store, bad, init, 0.2)
        with pytest.raises(ValueError, match="need at least 2 samples to split"):
            make_state(topo, store, np.zeros((2, 0)), init, 0.2)

    def test_wide_model_trains_in_chunks_of_one(self):
        # every device trains alone on a view of its own split
        points = [(i, 0) for i in range(5)]
        samples, rows = sample_store([toy_data(300 + uid, 25) for uid in range(5)])
        topo = topology_at(points, r_c=1.0)
        state = make_state(topo, device_data(samples), rows, init_parameters(ALONE, 0), 0.2)
        params = state.params[0]
        assert params.weights[0].itemsize == ITEMSIZE
        assert lockstep_chunk(params, TRAINING.batch_size) == 1
        assert ITEMSIZE * (params.num_params + TRAINING.batch_size * sum(ALONE.layer_sizes)) > (
            LOCKSTEP_BUDGET_BYTES
        )
        cfg = dataclasses.replace(protocol_config(), strategy=CompressionStrategy("dense"))
        starts = state.params.copy()
        run_round(state, cfg, 1, arm="isolated")
        orders = reference_orders(TRAINING.rng_seed, 1, 5, TRAINING.local_epochs, 20)
        # the reference trains under the pin every round holds
        with protocol.one_blas_thread():
            for uid in range(5):
                train = state.samples.gather(state.train_rows[uid])
                want = reference_local_training(starts[uid], train, TRAINING, order=orders[uid])
                assert_same_model(state.params[uid], want)

    def test_splits_keep_the_row_order(self):
        rows = np.random.default_rng(7).permutation(60)[:45]
        topo = topology_at([(0, 0)], r_c=1.0)
        state = make_state(topo, toy_data(7, 60), [rows], init_parameters(WIDE, 0), 0.2)
        assert np.array_equal(state.val_rows[0], rows[:9])
        assert np.array_equal(state.train_rows[0], rows[9:])


class TestChunkCutter:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(0, 300), per_chunk=st.integers(1, 12))
    def test_indices_are_cut_into_the_fewest_near_equal_chunks(self, count, per_chunk):
        # a model about per_chunk of which fit the budget at 16 rows each
        model = init_parameters(Architecture((2, hidden_width(per_chunk), 4)), 0)
        size = lockstep_chunk(model, 16)
        chunks = protocol._lockstep_chunks(count, model, 16)
        # every index once, in ascending order
        assert [i for chunk in chunks for i in chunk.tolist()] == list(range(count))
        # the fewest chunks: none for no index, one while they fit
        assert len(chunks) == -(-count // size)
        sizes = [len(chunk) for chunk in chunks] or [1]
        assert 1 <= min(sizes) and max(sizes) <= size and max(sizes) - min(sizes) <= 1


class TestLockstepRound:
    def test_chunk_boundary_falls_inside_the_largest_group(self):
        # every device trains on 36 rows, so the one group is all eleven
        model = line_state().params[0]
        chunks = protocol._lockstep_chunks(N, model, TRAINING.batch_size)
        wider = Architecture((2, WIDE.layer_sizes[1] + 1, 4))
        assert model.weights[0].itemsize == ITEMSIZE
        assert lockstep_chunk(model, TRAINING.batch_size) == 4
        assert lockstep_chunk(line_state(wider).params[0], TRAINING.batch_size) == 3
        assert [chunk.tolist() for chunk in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]

    def test_trained_models_match_reference(self):
        state = line_state()
        want, _ = reference_round(state, round_index=2)
        run_round(state, protocol_config(), 2, arm="isolated")
        for uid, model in want.items():
            assert_same_model(state.params[uid], model)

    def test_an_isolated_round_copies_no_model_stack(self, monkeypatch):
        # 32 devices that each train alone hold a stack of ten lockstep
        # budgets, far more than two lanes' training temporaries: a round
        # that copied the stack would peak above its size
        monkeypatch.setattr(protocol, "_LANES", 2)
        points = [(i, 0) for i in range(32)]
        samples, rows = sample_store([toy_data(400 + uid, 20) for uid in range(32)])
        topo = topology_at(points, r_c=1.0)
        state = make_state(topo, samples, rows, init_parameters(ALONE, 0), 0.2)
        stack_bytes = sum(t.nbytes for t in state.params.weights + state.params.biases)
        assert stack_bytes > 9 * LOCKSTEP_BUDGET_BYTES
        tracemalloc.start()
        try:
            run_round(state, protocol_config(), 1, arm="isolated")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes

    def test_batched_similarity_matches_per_edge_cross_similarity(self):
        state = line_state()
        _, decoded = reference_round(state, round_index=1)
        vals = [state.samples.gather(own) for own in state.val_rows]
        stats = run_round(state, protocol_config(), 1)
        edges = state.topology.edges
        assert np.array_equal(stats.dissimilarity.edges, edges)
        assert len(stats.dissimilarity.values) == len(edges) == N - 1
        for (i, j), got in zip(edges.tolist(), stats.dissimilarity.values):
            assert got == cross_similarity(decoded[i], decoded[j], vals[i], vals[j])
            assert got == reference_loss(decoded[j], vals[i]) + reference_loss(decoded[i], vals[j])


def test_quadrant_trains_in_one_chunk_like_the_reference():
    # the benchmark's real chunk: all 64 devices of configs/quadrant.cfg run
    # in lockstep as one stack, and each comes out as it would alone
    cfg = quadrant_config()
    world = build_world(cfg, seed=7)
    state = make_state(
        world.topology, world.samples, world.rows, world.init_params, cfg.data.validation_fraction
    )
    training = world.protocol.training
    m = cfg.data.samples_per_device
    n_val = int(cfg.data.validation_fraction * m)
    assert state.val_rows.shape == (64, n_val) and state.train_rows.shape == (64, m - n_val)
    assert lockstep_chunk(world.init_params, training.batch_size) >= 64
    starts = state.params.copy()
    run_round(state, world.protocol, 1, arm="isolated")
    orders = reference_orders(training.rng_seed, 1, 64, training.local_epochs, m - n_val)
    assert np.array_equal(state.orders, orders)
    for uid in range(64):
        cm = compress(starts[uid], world.protocol.strategy)
        train = world.samples.gather(state.train_rows[uid])
        want = reference_local_training(decompress(cm), train, training, cm.mask, order=orders[uid])
        assert_same_model(state.params[uid], want)


# The lanes of a round on this host, and at least two, so that the lanes
# run as threads even on one core.
ALL_LANES = max(2, protocol._LANES)


class TestLanes:
    """A round's training chunks run in lanes, one per core: which lane runs
    a chunk changes no bit of the round, OpenBLAS gets its thread count back,
    and a round of one chunk runs as it always did."""

    @staticmethod
    def _round(monkeypatch, lanes):
        """One round's chunk pipelines on their own (the trained and decoded
        stacks and the wire sizes), and one whole round."""
        monkeypatch.setattr(protocol, "_LANES", lanes)
        cfg = protocol_config()
        piped = line_state(ALONE)
        size = np.zeros(N, dtype=np.int64)
        protocol._run_chunks(piped, cfg, 1, size)
        state = line_state(ALONE)
        return piped, size, state, run_round(state, cfg, 1)

    def test_one_lane_and_all_lanes_give_the_same_round(self, monkeypatch):
        # the chunks of one device each go to whichever lane is free, and each
        # runs its whole pipeline there: training, the finite check, the wire
        # decode into its rows of the decoded stack and its sizes
        model = line_state(ALONE).params[0]
        chunks = protocol._lockstep_chunks(N, model, TRAINING.batch_size)
        assert [len(chunk) for chunk in chunks] == [1] * N
        got_piped, got_size, got_state, got_stats = self._round(monkeypatch, ALL_LANES)
        want_piped, want_size, want_state, want_stats = self._round(monkeypatch, 1)
        assert_same_model(got_piped.params, want_piped.params)
        assert_same_model(got_piped.decoded, want_piped.decoded)
        assert np.array_equal(got_size, want_size) and got_size.all()
        assert_same_model(got_state.decoded, want_state.decoded)
        assert_same_model(got_state.params, want_state.params)
        sent = ("bytes_broadcast", "bytes_collect", "bytes_disseminate")
        assert [getattr(got_stats, k) for k in sent] == [getattr(want_stats, k) for k in sent]
        assert np.array_equal(got_stats.partition.leader_of, want_stats.partition.leader_of)
        assert np.array_equal(got_stats.dissimilarity.values, want_stats.dissimilarity.values)

    def test_blas_runs_one_thread_per_lane_and_gets_its_count_back(self, monkeypatch):
        blas = protocol._blas_threads()
        if blas is None:
            pytest.skip("numpy ships no OpenBLAS here: the lanes never run")
        get_threads, _ = blas
        monkeypatch.setattr(protocol, "_LANES", ALL_LANES)
        before = get_threads()
        train = protocol.local_training
        inside = []

        def counted(*args, **kwargs):
            inside.append(get_threads())
            return train(*args, **kwargs)

        monkeypatch.setattr(protocol, "local_training", counted)
        run_round(line_state(ALONE), protocol_config(), 1)
        assert inside == [1] * N
        assert get_threads() == before

        state = line_state(ALONE)

        def failing(*args, rows, **kwargs):
            if np.array_equal(rows, state.train_rows[5:6]):
                raise ValueError("chunk failed")
            return train(*args, rows=rows, **kwargs)

        monkeypatch.setattr(protocol, "local_training", failing)
        with pytest.raises(ValueError, match="^chunk failed$"):
            run_round(state, protocol_config(), 1)
        assert get_threads() == before

    def test_the_quadrant_csv_is_the_same_at_any_lane_count_and_budget(self, monkeypatch):
        # configs/quadrant.cfg's run, repeated, on one lane and on all, and at
        # a sixteenth of the budget, where its 64 devices train in more than
        # one chunk for the lanes to share
        cfg = load_config(str(REPO_ROOT / "configs" / "quadrant.cfg"))
        budgets = (LOCKSTEP_BUDGET_BYTES, LOCKSTEP_BUDGET_BYTES // 16)
        model = cast_models(init_parameters(Architecture(cfg.layers), 0), DEVICE_DTYPE)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "LOCKSTEP_BUDGET_BYTES", budgets[1])
            assert len(protocol._lockstep_chunks(64, model, cfg.protocol.batch_size)) > 1
        runs = set()
        for lanes, budget in [(ALL_LANES, budgets[0])] * 2 + [(1, budgets[0])] + [
            (lanes, budgets[1]) for lanes in (1, ALL_LANES)
        ]:
            monkeypatch.setattr(protocol, "_LANES", lanes)
            monkeypatch.setattr(protocol, "LOCKSTEP_BUDGET_BYTES", budget)
            runs.add(metrics_csv_text(run_experiment_result(cfg, seed=7).records))
        assert len(runs) == 1

    def test_the_orders_are_the_same_in_chunks_of_one_device(self, monkeypatch):
        # a round draws every device's orders before its lanes start: three
        # rounds of configs/quadrant.cfg, repeated, in one chunk on two lanes
        # and in chunks of one device each on one lane and on two, give one
        # CSV, and the last round's orders are the per-device reference's
        cfg = load_config(str(REPO_ROOT / "configs" / "quadrant.cfg"))
        cfg = dataclasses.replace(cfg, protocol=dataclasses.replace(cfg.protocol, rounds=3))
        model = cast_models(init_parameters(Architecture(cfg.layers), 0), DEVICE_DTYPE)
        runs, orders = set(), []
        for lanes, budget in [(2, LOCKSTEP_BUDGET_BYTES)] * 2 + [(1, 1), (2, 1)]:
            monkeypatch.setattr(protocol, "_LANES", lanes)
            monkeypatch.setattr(protocol, "LOCKSTEP_BUDGET_BYTES", budget)
            chunks = protocol._lockstep_chunks(64, model, cfg.protocol.batch_size)
            assert len(chunks) == (64 if budget == 1 else 1)
            result = run_experiment_result(cfg, seed=7)
            runs.add(metrics_csv_text(result.records))
            orders.append(result.state.orders)
        assert len(runs) == 1
        seed, shape = result.world.protocol.training.rng_seed, result.state.train_rows.shape
        want = reference_orders(seed, 3, 64, cfg.protocol.local_epochs, shape[1])
        assert all(np.array_equal(got, want) for got in orders)

    def test_a_one_chunk_round_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(protocol, "_LANES", ALL_LANES)
        monkeypatch.setattr(protocol, "_lane_pool", None)
        cfg = quadrant_config(rounds=1)
        world = build_world(cfg, seed=7)
        state = make_state(
            world.topology, world.samples, world.rows, world.init_params, cfg.data.validation_fraction
        )
        threads = threading.active_count()
        run_round(state, world.protocol, 1)
        assert threading.active_count() == threads
        assert protocol._lane_pool is None

    def test_numpy_errstate_reaches_the_lanes(self, monkeypatch):
        monkeypatch.setattr(protocol, "_LANES", ALL_LANES)
        train = protocol.local_training
        seen = []

        def recorded(*args, **kwargs):
            seen.append(np.geterr()["over"])
            return train(*args, **kwargs)

        monkeypatch.setattr(protocol, "local_training", recorded)
        with np.errstate(over="raise"):
            run_round(line_state(ALONE), protocol_config(), 1, arm="isolated")
        assert seen == ["raise"] * N

    def test_every_item_runs_once_and_comes_back_in_order(self, monkeypatch):
        # more lanes than cores, and a thread switch every microsecond
        monkeypatch.setattr(protocol, "_LANES", 5)
        monkeypatch.setattr(protocol, "_lane_pool", None)
        ran = []

        def task(k):
            ran.append(k)
            return int(np.full(1000, k).sum())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                assert protocol._in_lanes(task, list(range(50))) == [1000 * k for k in range(50)]
                assert sorted(ran) == list(range(50))
        finally:
            sys.setswitchinterval(interval)
            if protocol._lane_pool is not None:
                protocol._lane_pool.shutdown()

    def test_a_lane_that_never_starts_holds_up_nothing(self, monkeypatch):
        # the pool's one worker is busy elsewhere, so the calling thread's
        # lane takes every item
        monkeypatch.setattr(protocol, "_LANES", 2)
        pool = ThreadPoolExecutor(1)
        release = threading.Event()
        busy = pool.submit(release.wait, 30)
        monkeypatch.setattr(protocol, "_lane_pool", pool)
        try:
            assert protocol._in_lanes(lambda k: k * k, list(range(6))) == [k * k for k in range(6)]
        finally:
            release.set()
            pool.shutdown()
        assert busy.result() is True

    def test_the_first_failing_item_raises(self, monkeypatch):
        # every item before the first failing one was taken and has run, so
        # a later item failing first in another lane does not change the error
        monkeypatch.setattr(protocol, "_LANES", ALL_LANES)

        def task(k):
            if k in (3, 5):
                raise ValueError(f"item {k}")
            return k

        for _ in range(20):
            with pytest.raises(ValueError, match="^item 3$"):
                protocol._in_lanes(task, list(range(8)))


# The wires that are dense, the dense kind and a compressing kind scored on
# uncompressed models, and the wire that quantizes and prunes.
WIRES = {
    "dense": ProtocolConfig(4.0, CompressionStrategy("dense"), TRAINING, True),
    "uncompressed-similarity": ProtocolConfig(4.0, STRATEGY, TRAINING, False),
    "sparse+quantized": protocol_config(),
}


def assert_same_stats(got, want):
    counts = ("bytes_broadcast", "bytes_collect", "bytes_disseminate", "macs")
    assert [getattr(got, k) for k in counts] == [getattr(want, k) for k in counts]
    assert np.array_equal(got.partition.leader_of, want.partition.leader_of)
    assert (got.dissimilarity is None) == (want.dissimilarity is None)
    if got.dissimilarity is not None:
        assert np.array_equal(got.dissimilarity.edges, want.dissimilarity.edges)
        assert np.array_equal(got.dissimilarity.values, want.dissimilarity.values)


class TestOneStack:
    """A round whose wire is dense holds one model stack: its receivers read
    the rows of params, which are what its wire decodes to, and the round is
    bit for bit the one that decoded every wire into a stack of its own.  A
    wire that prunes or quantizes still decodes into its own stack."""

    @pytest.mark.parametrize("lanes", [1, ALL_LANES])
    @pytest.mark.parametrize("arm", ["sparsefuel", "global-fedavg"])
    @pytest.mark.parametrize("wire", sorted(WIRES))
    def test_a_round_is_the_two_stack_round(self, monkeypatch, wire, arm, lanes):
        # eleven devices in chunks of 4, 4 and 3
        monkeypatch.setattr(protocol, "_LANES", lanes)
        cfg = WIRES[wire]
        got_state, want_state = line_state(), line_state()
        for round_index in (1, 2):
            got = run_round(got_state, cfg, round_index, arm=arm)
            want, decoded = reference_two_stack_round(want_state, cfg, round_index, arm=arm)
            assert_same_model(got_state.params, want_state.params)
            assert_same_stats(got, want)
            assert (got_state.decoded is got_state.params) == cfg.dense_wire
            if not cfg.dense_wire:
                assert_same_model(got_state.decoded, decoded)
        assert got_state.bytes_total == want_state.bytes_total

    @pytest.mark.parametrize("wire", sorted(WIRES))
    def test_fed_avg_reads_the_leader_from_params_and_the_rest_as_decoded(self, monkeypatch, wire):
        cfg, state = WIRES[wire], line_state()
        average, calls = protocol.fed_avg, []

        def recording(first, models, rows, weights):
            leader, trained = viewed_row(state.params, first), state.params.flat.copy()
            rows = np.asarray(rows)
            calls.append((leader, first.flat.copy(), models, rows, models.flat[rows], trained))
            return average(first, models, rows, weights)

        monkeypatch.setattr(protocol, "fed_avg", recording)
        run_round(state, cfg, 1, arm="global-fedavg")
        ((leader, first, models, rows, read, trained),) = calls
        # the leader, device 0, is a view of its row of params as trained
        assert leader == 0 and first.tobytes() == trained[0].tobytes()
        assert rows.tolist() == list(range(1, N))
        if cfg.dense_wire:
            assert state.decoded is state.params and models is state.params
            assert read.tobytes() == trained[1:].tobytes()
        else:
            # every other member gives its decoded row, not its row as trained
            assert state.decoded is not state.params and models is state.decoded
            assert not any(np.array_equal(r, t) for r, t in zip(read, trained[1:]))

    @pytest.mark.parametrize("arm", ["sparsefuel", "global-fedavg"])
    def test_no_fold_reads_a_leaders_decoded_row(self, monkeypatch, arm):
        # NaN written into each leader's row of decoded just before its
        # federation folds reaches no average: a leader gives its row of
        # params as trained, and the round is still the reference's
        cfg = WIRES["sparse+quantized"]
        got_state, want_state = line_state(), line_state()
        average = protocol.fed_avg

        def poisoning(first, models, rows, weights):
            assert models is got_state.decoded and models is not got_state.params
            models.flat[viewed_row(got_state.params, first)] = np.nan
            return average(first, models, rows, weights)

        monkeypatch.setattr(protocol, "fed_avg", poisoning)
        got = run_round(got_state, cfg, 1, arm=arm)
        want, _ = reference_two_stack_round(want_state, cfg, 1, arm=arm)
        assert_same_model(got_state.params, want_state.params)
        assert_same_stats(got, want)
        assert np.isnan(got_state.decoded.flat[got.partition.leader_of[0]]).all()

    @pytest.mark.parametrize("wire", sorted(WIRES))
    def test_a_dense_round_allocates_no_second_stack(self, monkeypatch, wire):
        # 32 devices that each train alone hold a stack of ten lockstep
        # budgets, more than two lanes' training temporaries: set-up and
        # a round together peak above two stacks where the wire decodes into
        # a stack of its own, and below where the receivers read params
        monkeypatch.setattr(protocol, "_LANES", 2)
        cfg = WIRES[wire]
        points = [(i, 0) for i in range(32)]
        samples, rows = sample_store([toy_data(400 + uid, 20) for uid in range(32)])
        topo = topology_at(points, r_c=1.0)
        init = init_parameters(ALONE, 0)
        tracemalloc.start()
        try:
            state = make_state(topo, samples, rows, init, 0.2)
            run_round(state, cfg, 1, arm="global-fedavg")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack_bytes = state.params.flat.nbytes
        assert stack_bytes > 9 * LOCKSTEP_BUDGET_BYTES
        if cfg.dense_wire:
            assert state.decoded is state.params and peak < 2 * stack_bytes
        else:
            assert state.decoded.flat.shape == state.params.flat.shape
            assert peak >= 2 * stack_bytes


@pytest.fixture
def blas_at_two():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and put back after it."""
    blas = protocol._blas_threads()
    if blas is None:
        pytest.skip("numpy ships no OpenBLAS here: there is nothing to pin")
    get_threads, set_threads = blas
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("this OpenBLAS cannot run two threads")
        yield get_threads
    finally:
        set_threads(before)


class TestBlasPin:
    """A run holds OpenBLAS at one thread across all its rounds and
    evaluations, not only while lanes run, and the caller gets its count
    back however the run ends."""

    def test_a_run_holds_one_thread_through_training_and_evaluation(self, monkeypatch, blas_at_two):
        get_threads = blas_at_two
        seen = []

        def counted(name, fn):
            def call(*args, **kwargs):
                seen.append((name, get_threads()))
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(protocol, "local_training", counted("train", protocol.local_training))
        monkeypatch.setattr(
            harness, "evaluate_objective", counted("evaluate", harness.evaluate_objective)
        )
        # quadrant trains in one chunk, so no lane phase pins it
        run_experiment_result(quadrant_config(rounds=2), seed=7)
        assert seen == [("train", 1), ("evaluate", 1)] * 2
        assert get_threads() == 2

    def test_a_failing_run_gives_the_count_back(self, blas_at_two):
        cfg = quadrant_config(rounds=2)
        diverging = dataclasses.replace(cfg.protocol, learning_rate=1e300)
        cfg = dataclasses.replace(cfg, protocol=diverging)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="^round 1: local training diverged"):
                run_experiment_result(cfg, seed=7)
            assert blas_at_two() == 2
            with pytest.raises(FloatingPointError, match="^round 1: local training diverged"):
                calibrate_tau(cfg, seed=7, warmup_rounds=1)
        assert blas_at_two() == 2

    def test_a_library_round_holds_one_thread_on_the_serial_path(self, monkeypatch, blas_at_two):
        # on one lane, and for a round of one chunk, run_round called outside
        # a run still trains under the pin
        get_threads = blas_at_two
        train, seen = protocol.local_training, []

        def counted(*args, **kwargs):
            seen.append(get_threads())
            return train(*args, **kwargs)

        monkeypatch.setattr(protocol, "local_training", counted)
        monkeypatch.setattr(protocol, "_LANES", 1)
        run_round(line_state(), protocol_config(), 1)
        assert seen == [1] * 3 and get_threads() == 2
        narrow = line_state(Architecture((2, 8, 4)))
        assert len(protocol._lockstep_chunks(N, narrow.params[0], TRAINING.batch_size)) == 1
        monkeypatch.setattr(protocol, "_LANES", ALL_LANES)
        run_round(narrow, protocol_config(), 1)
        assert seen == [1] * 4 and get_threads() == 2

    def test_nested_holders_give_the_count_back(self, blas_at_two):
        get_threads = blas_at_two
        with protocol.one_blas_thread():
            with protocol.one_blas_thread():
                assert get_threads() == 1
            assert get_threads() == 1
        assert get_threads() == 2
        with pytest.raises(ValueError, match="^inside$"):
            with protocol.one_blas_thread():
                raise ValueError("inside")
        assert get_threads() == 2


# OpenBLAS kernels (OPENBLAS_CORETYPE) whose multi-threaded products round
# differently from their one-thread ones, and the CPU features each needs
KERNEL_FEATURES = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",)}
# the checks that compare a round or training call on the serial path with
# one computed under one_blas_thread()
SERIAL_PATH_CHECKS = (
    "TestDeviceBank::test_wide_model_trains_in_chunks_of_one",
    "TestLanes::test_one_lane_and_all_lanes_give_the_same_round",
)


@pytest.mark.parametrize("core", sorted(KERNEL_FEATURES))
def test_serial_path_checks_hold_on_other_openblas_kernels(core):
    # the serial path's bits do not depend on OpenBLAS's thread count on any
    # kernel: its checks pass in a child whose OpenBLAS runs the named one
    if protocol._blas_threads() is None:
        pytest.skip("numpy ships no OpenBLAS here: there is no kernel to pick")
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    missing = [f for f in KERNEL_FEATURES[core] if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernels: no {', '.join(missing)}")
    package_parent = str(Path(protocol.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    # the child names the core it ran, so a kernel that was not picked shows
    script = (
        "import sys, pytest\n"
        "code = pytest.main(sys.argv[1:])\n"
        "from conftest import openblas_core\n"
        "print(f'core: {openblas_core()}')\n"
        "sys.exit(code)\n"
    )
    checks = [f"{Path(__file__).name}::{name}" for name in SERIAL_PATH_CHECKS]
    proc = subprocess.run(
        [sys.executable, "-c", script, "-q", "-p", "no:cacheprovider", *checks],
        cwd=Path(__file__).parent,
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1].lower() == f"core: {core.lower()}", proc.stdout


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.fixture
def libc_as(monkeypatch):
    """Hand keep_heap_mapped the C library a test makes (a callable that
    returns it, or raises), the other libraries untouched, and let the next
    caller run keep_heap_mapped afresh."""
    real = ctypes.CDLL

    def use(make_libc):
        def cdll(name, *args, **kwargs):
            return make_libc() if name is None else real(name, *args, **kwargs)

        monkeypatch.setattr(protocol.ctypes, "CDLL", cdll)
        protocol.keep_heap_mapped.cache_clear()

    protocol._blas_threads()  # found before the C library is swapped
    yield use
    monkeypatch.undo()
    protocol.keep_heap_mapped.cache_clear()


class TestHeapStaysMapped:
    """A run sets glibc's malloc, once per process, to keep freed memory
    mapped, so that a round does not page-fault its arrays in again."""

    @pytest.mark.skipif(not _libc_has_mallopt(), reason="needs a libc with mallopt")
    def test_warm_rounds_fault_in_almost_no_pages(self, monkeypatch):
        # glibc's default settings took about 1,500 minor faults over these
        # three rounds of quadrant
        faults = []
        evaluate = harness.evaluate_objective

        def counted(*args):
            result = evaluate(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return result

        monkeypatch.setattr(harness, "evaluate_objective", counted)
        run_experiment_result(quadrant_config(rounds=5), seed=7)
        assert faults[4] - faults[1] < 50, faults

    @pytest.mark.skipif(not _libc_has_mallopt(), reason="needs a libc with mallopt")
    def test_both_thresholds_are_raised_and_glibc_takes_them(self, libc_as):
        libc = ctypes.CDLL(None)
        calls = []

        def mallopt(param, value):
            calls.append((param, value, libc.mallopt(param, value)))

        libc_as(lambda: type("Libc", (), {"mallopt": staticmethod(mallopt)})())
        protocol.keep_heap_mapped()
        protocol.keep_heap_mapped()
        kept = 32 * 1024 * 1024
        # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD -3; mallopt gives 1 on success
        assert calls == [(-1, kept, 1), (-3, kept, 1)]

    @pytest.mark.parametrize("libc", ["without mallopt", "not found"])
    def test_a_run_without_mallopt_is_unchanged(self, libc_as, libc):
        want = metrics_csv_text(run_experiment_result(small_config(), seed=3).records)

        def make_libc():
            if libc == "not found":
                raise OSError("no C library")
            return object()

        libc_as(make_libc)
        assert metrics_csv_text(run_experiment_result(small_config(), seed=3).records) == want
        assert protocol.keep_heap_mapped.cache_info().currsize == 1

    def test_runs_and_calibration_set_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "keep_heap_mapped", lambda: calls.append(1))
        run_experiment_result(small_config(rounds=1), seed=3)
        calibrate_tau(small_config(), seed=3, warmup_rounds=0)
        assert calls == [1, 1]


class TestDivergence:
    """A trained model that is not finite fails the round in every arm, with
    one message naming the round, the lowest such uid and the learning rate,
    however many lanes trained the chunks."""

    MESSAGE = "^round {}: local training diverged: device {} has non-finite parameters at learning_rate {}$"

    @staticmethod
    def _faulty(monkeypatch, diverged=()):
        """Train as usual, then make the trained model of each device in
        `diverged` infinite."""
        train_rows = line_state(ALONE).train_rows
        infinite = [train_rows[uid] for uid in diverged]
        train = protocol.local_training

        def faulty(*args, rows, **kwargs):
            out = train(*args, rows=rows, **kwargs)
            if any(np.array_equal(rows[0], own) for own in infinite):
                out.biases[-1][0, 0] = np.inf
            return out

        monkeypatch.setattr(protocol, "local_training", faulty)

    @pytest.mark.parametrize("lanes", [1, ALL_LANES])
    def test_a_diverging_rate_fails_every_arm(self, monkeypatch, lanes):
        monkeypatch.setattr(protocol, "_LANES", lanes)
        cfg = dataclasses.replace(
            protocol_config(), training=dataclasses.replace(TRAINING, learning_rate=1e300)
        )
        for arm in ARMS:
            with pytest.raises(FloatingPointError, match=self.MESSAGE.format(2, 0, r"1e\+300")):
                with np.errstate(all="ignore"):
                    run_round(line_state(ALONE), cfg, 2, arm=arm)

    @pytest.mark.parametrize("lanes", [1, ALL_LANES])
    def test_the_lowest_diverged_device_is_named(self, monkeypatch, lanes):
        # devices 9 and 3 diverge, each in a chunk of its own
        monkeypatch.setattr(protocol, "_LANES", lanes)
        self._faulty(monkeypatch, diverged=[9, 3])
        for arm in ARMS:
            with pytest.raises(FloatingPointError, match=self.MESSAGE.format(4, 3, r"0\.1")):
                run_round(line_state(ALONE), protocol_config(), 4, arm=arm)

    @pytest.mark.parametrize("lanes", [1, ALL_LANES])
    def test_a_training_overflow_fails_every_arm(self, monkeypatch, lanes):
        # devices 9 and 3, each in a chunk of its own, start from layers
        # scaled by 1e22, finite in float32; the products of their first
        # forward pass (about 4e40) overflow it, and the logits sum to nan
        monkeypatch.setattr(protocol, "_LANES", lanes)
        for arm in ARMS:
            state = line_state(ALONE)
            for w in state.params.weights:
                w[[9, 3]] *= 1e22
            assert all(np.isfinite(w).all() for w in state.params.weights)
            with pytest.raises(FloatingPointError, match=self.MESSAGE.format(3, 3, r"0\.1")):
                with np.errstate(over="ignore", invalid="ignore"):
                    run_round(state, protocol_config(), 3, arm=arm)
