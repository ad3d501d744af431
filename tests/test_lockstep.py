"""Lockstep training and batched similarity against the per-device reference.

Stacked training and scoring must be the per-device arithmetic, only run for
many devices at once, so every check here is bit-equality (array_equal, ==),
never a tolerance.
"""

import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefuel import harness, protocol

from sparsefuel.compression import (
    CompressionStrategy,
    SerializationError,
    SparseMask,
    compress,
    decompress,
    encode_wire,
    from_bytes,
    to_bytes,
)
from sparsefuel.environment import DeviceSite, build_topology
from sparsefuel.harness import build_world, calibrate_tau, run_experiment_result
from sparsefuel.neuralnet import (
    Architecture,
    LabeledDataset,
    ParameterSet,
    TrainingConfig,
    init_parameters,
    local_training,
    loss_and_accuracy,
)
from sparsefuel.protocol import (
    ARMS,
    LOCKSTEP_BUDGET_BYTES,
    ProtocolConfig,
    cross_similarity,
    lockstep_chunk,
    make_state,
    run_round,
)
from sparsefuel.seeds import derive_seed

from conftest import (
    quadrant_config,
    reference_local_training,
    reference_loss,
    sample_store,
    stack_models,
)


def assert_same_model(got: ParameterSet, want: ParameterSet):
    assert got.same_shape(want)
    for x, y in zip(got.weights + got.biases, want.weights + want.biases):
        assert np.array_equal(x, y)


def toy_data(seed, m, dim=2, classes=4):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.uniform(0, 1, (m, dim)), rng.integers(0, classes, m))


def random_mask(arch, seed, keep=0.7):
    rng = np.random.default_rng(seed)
    return SparseMask([(rng.random(shape) < keep).astype(np.uint8) for shape in arch.weight_shapes()])


class TestLockstepTraining:
    def test_stack_matches_reference_per_device(self):
        # five devices, each with its own start model, data, shuffle seed and
        # mask, their 37 rows each laid one after another in a 185-row store;
        # 37 rows at batch 16 leave a partial last batch of 5
        arch = Architecture((3, 7, 4))
        models = [init_parameters(arch, 10 + k) for k in range(5)]
        data = [toy_data(20 + k, 37, dim=3) for k in range(5)]
        masks = [random_mask(arch, 30 + k) for k in range(5)]
        seeds = [derive_seed(99, k) for k in range(5)]
        cfg = TrainingConfig(local_epochs=2, batch_size=16, learning_rate=0.1, rng_seed=0)
        store, rows = sample_store(data)
        assert len(store) == 185 and np.shape(rows) == (5, 37)
        out = local_training(
            stack_models(models),
            store,
            cfg,
            mask=[np.stack(layer) for layer in zip(*(m.layers for m in masks))],
            round_index=3,
            seeds=seeds,
            rows=np.array(rows),
        )
        assert out.stacked and out.weights[0].shape == (5, 7, 3)
        for k in range(5):
            want = reference_local_training(
                models[k], data[k], dataclasses.replace(cfg, rng_seed=seeds[k]), masks[k], round_index=3
            )
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
        seeds = [derive_seed(3, k) for k in range(4)]
        cfg = TrainingConfig(local_epochs=2, batch_size=8, learning_rate=0.1, rng_seed=0)
        out = local_training(
            stack_models(models),
            store,
            cfg,
            mask=[np.stack(layer) for layer in zip(*(m.layers for m in masks))],
            round_index=4,
            seeds=seeds,
            rows=rows,
        )
        for k in range(4):
            want = reference_local_training(
                models[k],
                store.subset(rows[k]),
                dataclasses.replace(cfg, rng_seed=seeds[k]),
                masks[k],
                round_index=4,
            )
            assert_same_model(out[k], want)
        single = local_training(models[0], store, cfg, round_index=4, rows=rows[0])
        assert not single.stacked
        want = reference_local_training(models[0], store.subset(rows[0]), cfg, round_index=4)
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

    def test_seed_count_must_match_stack(self):
        models = stack_models([init_parameters(Architecture((2, 3)), k) for k in range(2)])
        store = toy_data(1, 8)
        cfg = TrainingConfig(local_epochs=1, batch_size=2, learning_rate=0.1, rng_seed=0)
        with pytest.raises(ValueError, match="2 models"):
            local_training(models, store, cfg, seeds=[1, 2, 3], rows=np.arange(8).reshape(2, 4))

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


def hidden_width(models_per_chunk: int, rows: int = TRAINING.batch_size) -> int:
    """The widest hidden layer h for which models_per_chunk 2-h-4 MLPs fit
    the lockstep budget at `rows` input rows each: such an MLP costs
    8 * (7h + 4 + rows * (h + 6)) bytes per model."""
    return (LOCKSTEP_BUDGET_BYTES // (8 * models_per_chunk) - 4 - 6 * rows) // (7 + rows)


# Eleven devices on a line with three dataset lengths, so three train-length
# groups (36, 31 and 16 rows: partial last batches of 4 and 15 at batch 16,
# and a group of one) and three validation lengths (9, 7 and 4 rows),
# interleaved so that edges join devices of different lengths.
LENGTHS = (45, 38, 45, 45, 20, 45, 38, 45, 45, 38, 45)
# The widest hidden layer for which lockstep training runs four devices at a
# time at batch 16, so a chunk boundary falls inside the group of six.
WIDE = Architecture((2, hidden_width(4), 4))
# One unit wider than fits the lockstep budget alone at batch 16: every
# device trains in a chunk of its own.
ALONE = Architecture((2, hidden_width(1) + 1, 4))


def line_state(arch=WIDE):
    # every device draws its rows from one shared store of 120 samples, so
    # devices share samples and no device's rows are a range
    sites = [DeviceSite(i, float(i), 0.0, 0) for i in range(len(LENGTHS))]
    topo = build_topology(sites, r_c=1.0)
    rows = [
        np.random.default_rng(200 + uid).choice(120, m, replace=False)
        for uid, m in enumerate(LENGTHS)
    ]
    state = make_state(topo, toy_data(199, 120), rows, init_parameters(arch, 0), 0.2)
    # distinct start models give every device its own prune mask
    starts = stack_models([init_parameters(arch, 1000 + uid) for uid in range(len(LENGTHS))])
    params = state.params
    for rows, start in zip(params.weights + params.biases, starts.weights + starts.biases):
        rows[:] = start
    return state


def reference_round(state, round_index):
    """Per-device training and wire round trip: (trained, decoded) by uid."""
    trained, decoded = {}, {}
    for dev in state.devices:
        cm = compress(state.params[dev.uid], STRATEGY)
        tcfg = dataclasses.replace(TRAINING, rng_seed=derive_seed(TRAINING.rng_seed, dev.uid))
        train = state.samples.subset(dev.train_rows)
        trained[dev.uid] = reference_local_training(
            decompress(cm), train, tcfg, mask=cm.mask, round_index=round_index
        )
        wire = encode_wire(trained[dev.uid], STRATEGY, cm.mask)
        decoded[dev.uid] = decompress(from_bytes(to_bytes(wire)))
    return trained, decoded


def protocol_config():
    return ProtocolConfig(tau=4.0, strategy=STRATEGY, training=TRAINING, similarity_uses_compressed=True)


class TestDeviceBank:
    def test_splits_are_views_of_each_devices_dataset(self):
        # a device's dataset is its row array into the one sample store
        sites = [DeviceSite(i, float(i), 0.0, 0) for i in range(len(LENGTHS))]
        samples, rows = sample_store([toy_data(200 + uid, m) for uid, m in enumerate(LENGTHS)])
        topo = build_topology(sites, r_c=1.0)
        state = make_state(topo, samples, rows, init_parameters(WIDE, 0), 0.2)
        assert state.samples is samples
        for dev, own in zip(state.devices, rows):
            for split in (dev.train_rows, dev.val_rows):
                assert np.shares_memory(split, own)
            assert len(dev.train_rows) + len(dev.val_rows) == dev.num_samples == len(own)

    def test_rows_outside_the_store_are_rejected(self):
        sites = [DeviceSite(i, float(i), 0.0, 0) for i in range(2)]
        topo = build_topology(sites, r_c=1.0)
        store, init = toy_data(1, 10), init_parameters(WIDE, 0)
        for bad in ([0, 10], [-1, 3]):
            with pytest.raises(ValueError, match="index the store's 10 samples"):
                make_state(topo, store, [np.arange(5), np.array(bad)], init, 0.2)
        with pytest.raises(ValueError, match="one row array per device"):
            make_state(topo, store, [np.arange(5)], init, 0.2)

    def test_wide_model_trains_in_chunks_of_one(self):
        # every device trains alone on a view of its own split
        params = init_parameters(ALONE, 0)
        assert lockstep_chunk(params, TRAINING.batch_size) == 1
        assert 8 * (params.num_params + TRAINING.batch_size * sum(ALONE.layer_sizes)) > (
            LOCKSTEP_BUDGET_BYTES
        )
        sites = [DeviceSite(i, float(i), 0.0, 0) for i in range(5)]
        samples, rows = sample_store([toy_data(300 + uid, 25) for uid in range(5)])
        topo = build_topology(sites, r_c=1.0)
        state = make_state(topo, samples, rows, init_parameters(ALONE, 0), 0.2)
        cfg = dataclasses.replace(protocol_config(), strategy=CompressionStrategy("dense"))
        starts = state.params.copy()
        run_round(state, cfg, 1, arm="isolated")
        for dev in state.devices:
            start = starts[dev.uid]
            tcfg = dataclasses.replace(TRAINING, rng_seed=derive_seed(TRAINING.rng_seed, dev.uid))
            train = samples.subset(dev.train_rows)
            want = reference_local_training(start, train, tcfg, round_index=1)
            assert_same_model(state.params[dev.uid], want)

    def test_splits_keep_the_row_order(self):
        rows = np.random.default_rng(7).permutation(60)[:45]
        topo = build_topology([DeviceSite(0, 0.0, 0.0, 0)], r_c=1.0)
        dev = make_state(topo, toy_data(7, 60), [rows], init_parameters(WIDE, 0), 0.2).devices[0]
        assert np.array_equal(dev.val_rows, rows[:9])
        assert np.array_equal(dev.train_rows, rows[9:])


class TestChunkCutter:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        lengths=st.lists(st.integers(10, 13), max_size=60),
        per_chunk=st.integers(1, 12),
        rows=st.sampled_from([None, 16]),
    )
    def test_groups_are_cut_into_the_fewest_near_equal_chunks(self, lengths, per_chunk, rows):
        # a model about per_chunk of which fit the budget at 16 rows each
        model = init_parameters(Architecture((2, hidden_width(per_chunk), 4)), 0)
        chunks = list(protocol._lockstep_chunks(np.array(lengths, int), model, rows))
        taken = [i for chunk in chunks for i in chunk.tolist()]
        assert sorted(taken) == list(range(len(lengths)))
        groups: dict[int, list[list[int]]] = {}
        for chunk in chunks:
            (length,) = {lengths[i] for i in chunk}
            assert not groups or length in groups or length > max(groups)
            groups.setdefault(length, []).append(chunk.tolist())
        for length, cut in groups.items():
            members = [i for i, m in enumerate(lengths) if m == length]
            size = lockstep_chunk(model, length if rows is None else rows)
            sizes = [len(chunk) for chunk in cut]
            assert [i for chunk in cut for i in chunk] == members
            assert 1 <= min(sizes) and max(sizes) <= size and max(sizes) - min(sizes) <= 1
            assert len(cut) == -(-len(members) // size)


class TestLockstepRound:
    def test_chunk_boundary_falls_inside_the_largest_group(self):
        state = line_state()
        size = lockstep_chunk(state.params[0], TRAINING.batch_size)
        lengths = [len(dev.train_rows) for dev in state.devices]
        largest = max(lengths.count(m) for m in set(lengths))
        wider = Architecture((2, WIDE.layer_sizes[1] + 1, 4))
        assert size == 4
        assert lockstep_chunk(init_parameters(wider, 0), TRAINING.batch_size) == 3
        assert size < largest and largest % size != 0

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
        sites = [DeviceSite(i, float(i), 0.0, 0) for i in range(32)]
        samples, rows = sample_store([toy_data(400 + uid, 20) for uid in range(32)])
        topo = build_topology(sites, r_c=1.0)
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
        vals = [state.samples.subset(dev.val_rows) for dev in state.devices]
        stats = run_round(state, protocol_config(), 1)
        edges = state.topology.edges
        assert np.array_equal(stats.dissimilarity.edges, edges)
        assert len(stats.dissimilarity.values) == len(edges) == len(LENGTHS) - 1
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
    assert len(state.devices) == 64
    assert lockstep_chunk(world.init_params, training.batch_size) >= 64
    assert len({len(dev.train_rows) for dev in state.devices}) == 1
    starts = state.params.copy()
    run_round(state, world.protocol, 1, arm="isolated")
    for dev in state.devices:
        cm = compress(starts[dev.uid], world.protocol.strategy)
        tcfg = dataclasses.replace(training, rng_seed=derive_seed(training.rng_seed, dev.uid))
        want = reference_local_training(
            decompress(cm), world.samples.subset(dev.train_rows), tcfg, mask=cm.mask, round_index=1
        )
        assert_same_model(state.params[dev.uid], want)


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
        size = np.zeros(len(LENGTHS), dtype=np.int64)
        protocol._run_chunks(piped, cfg, 1, size)
        state = line_state(ALONE)
        return piped, size, state, run_round(state, cfg, 1)

    def test_one_lane_and_all_lanes_give_the_same_round(self, monkeypatch):
        # the chunks of one device each go to whichever lane is free, and each
        # runs its whole pipeline there: training, the finite check, the wire
        # decode into its rows of the decoded stack and its sizes
        model = line_state(ALONE).params[0]
        chunks = protocol._lockstep_chunks(np.array(LENGTHS), model, TRAINING.batch_size)
        assert [len(chunk) for chunk in chunks] == [1] * len(LENGTHS)
        got_piped, got_size, got_state, got_stats = self._round(monkeypatch, ALL_LANES)
        want_piped, want_size, want_state, want_stats = self._round(monkeypatch, 1)
        assert_same_model(got_piped.params, want_piped.params)
        assert_same_model(got_piped.decoded, want_piped.decoded)
        assert np.array_equal(got_size, want_size) and got_size.all()
        assert_same_model(got_state.decoded, want_state.decoded)
        assert_same_model(got_state.params, want_state.params)
        sent = ("bytes_broadcast", "bytes_collect", "bytes_disseminate")
        assert [getattr(got_stats, k) for k in sent] == [getattr(want_stats, k) for k in sent]
        assert got_stats.partition.leader_of == want_stats.partition.leader_of
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
        assert inside == [1] * len(LENGTHS)
        assert get_threads() == before

        state = line_state(ALONE)
        failing_seed = state.shuffle_seeds(TRAINING.rng_seed)[5]

        def failing(*args, seeds, **kwargs):
            if seeds[0] == failing_seed:
                raise ValueError("chunk failed")
            return train(*args, seeds=seeds, **kwargs)

        monkeypatch.setattr(protocol, "local_training", failing)
        with pytest.raises(ValueError, match="^chunk failed$"):
            run_round(state, protocol_config(), 1)
        assert get_threads() == before

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
        assert seen == ["raise"] * len(LENGTHS)

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


class TestDivergence:
    """A trained model that is not finite fails the round in every arm, with
    one message naming the round, the lowest such uid and the learning rate,
    however many lanes trained the chunks."""

    MESSAGE = "^round {}: local training diverged: device {} has non-finite parameters at learning_rate {}$"

    @staticmethod
    def _faulty(monkeypatch, diverged=(), beyond_f32=(), beyond_f64=()):
        """Train as usual, then make the trained model of each device in
        `diverged` infinite, scale the first layer of each in `beyond_f32`
        past the f32 range, still finite, so that its wire bytes fail, and
        spread the first layer of each in `beyond_f64` over a range wider
        than f64 holds, still finite, so that it cannot be quantized."""
        shuffle = line_state(ALONE).shuffle_seeds(TRAINING.rng_seed)
        infinite = {shuffle[uid] for uid in diverged}
        huge = {shuffle[uid] for uid in beyond_f32}
        wide = {shuffle[uid] for uid in beyond_f64}
        train = protocol.local_training

        def faulty(*args, seeds, **kwargs):
            out = train(*args, seeds=seeds, **kwargs)
            if seeds[0] in infinite:
                out.biases[-1][0, 0] = np.inf
            if seeds[0] in huge:
                out.weights[0][0] *= 1e44
            if seeds[0] in wide:
                out.weights[0][0, :2] = (-1e308, 1e308)
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
        # devices 9 and 3 diverge; the chunks of 31 train rows (devices 1, 6
        # and 9) come before those of 36, so chunk order meets 9 first
        monkeypatch.setattr(protocol, "_LANES", lanes)
        self._faulty(monkeypatch, diverged=[9, 3])
        for arm in ARMS:
            with pytest.raises(FloatingPointError, match=self.MESSAGE.format(4, 3, r"0\.1")):
                run_round(line_state(ALONE), protocol_config(), 4, arm=arm)

    @pytest.mark.parametrize("fault", ["beyond_f32", "beyond_f64"])
    @pytest.mark.parametrize("lanes", [1, ALL_LANES])
    def test_a_later_divergence_outranks_an_earlier_wire_fault(self, monkeypatch, lanes, fault):
        # device 4's chunk (16 train rows) runs first and fails on the wire,
        # with the codec's SerializationError or the quantizer's ValueError;
        # device 10's (36 rows) runs last and diverges
        monkeypatch.setattr(protocol, "_LANES", lanes)
        self._faulty(monkeypatch, diverged=[10], **{fault: [4]})
        for arm in ("sparsefuel", "global-fedavg"):
            with pytest.raises(FloatingPointError, match=self.MESSAGE.format(2, 10, r"0\.1")):
                with np.errstate(over="ignore"):
                    run_round(line_state(ALONE), protocol_config(), 2, arm=arm)

    @pytest.mark.parametrize("lanes", [1, ALL_LANES])
    def test_the_first_chunk_with_a_wire_fault_raises(self, monkeypatch, lanes):
        # device 4's chunk comes before device 1's in chunk order, though not
        # in uid order; an isolated round sends nothing, so nothing fails
        monkeypatch.setattr(protocol, "_LANES", lanes)
        self._faulty(monkeypatch, beyond_f32=[1, 4])
        wire = "^round 3: device 4: tensor 0: quantization scale inf is not finite$"
        for arm in ("sparsefuel", "global-fedavg"):
            with pytest.raises(SerializationError, match=wire):
                run_round(line_state(ALONE), protocol_config(), 3, arm=arm)
        run_round(line_state(ALONE), protocol_config(), 3, arm="isolated")
