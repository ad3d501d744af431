import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefuel import fields, protocol
from sparsefuel.compression import (
    KINDS,
    CompressionStrategy,
    compress,
    decompress,
    from_bytes,
    serialized_size,
    to_bytes,
)
from sparsefuel.environment import sample_local_dataset, synthetic_blob_spec
from sparsefuel.cli import main
from sparsefuel.harness import (
    ConfigError,
    format_config,
    load_config,
    parse_config,
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
)
from sparsefuel.protocol import (
    DissimilarityMatrix,
    Federation,
    FederationPartition,
    ProtocolConfig,
    cross_similarity,
    evaluate_objective,
    fed_avg,
    form_federations,
    make_state,
    run_round,
)

from conftest import (
    reference_evaluate_objective,
    reference_fed_avg,
    sample_store,
    stack_models,
    store_table,
    topology_at,
    viewed_row,
)


def model_bytes(model):
    """One model's tensors as bytes: equal bytes, equal model."""
    return b"".join(t.tobytes() for t in model.weights + model.biases)


def model_stack(by_uid, n):
    """A stack of n models whose row u is by_uid[u], zeros in the other rows."""
    first = next(iter(by_uid.values()))
    zero = ParameterSet([np.zeros_like(w) for w in first.weights], [np.zeros_like(b) for b in first.biases])
    return stack_models([by_uid.get(u, zero) for u in range(n)])


def scored_pairs(params, data):
    """The (model, dataset) pairs one loss_and_accuracy call scores, as bytes:
    one pair for a single model, one per model of a stack."""
    if not params.stacked:
        params, data = params[None], LabeledDataset(data.features[None], data.labels[None])
    return [
        (model_bytes(params[d]), data.features[d].tobytes() + data.labels[d].tobytes())
        for d in range(len(data.labels))
    ]


def line_topology(n, spacing=1.0, r_c=1.0):
    return topology_at([(i * spacing, 0) for i in range(n)], r_c=r_c)


def toy_dataset(seed, m=40, n_classes=4, dim=2):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.uniform(0, 1, (m, dim)), rng.integers(0, n_classes, m))


def toy_protocol_config(**overrides):
    defaults = dict(
        tau=4.0,
        strategy=CompressionStrategy("dense", 0.0),
        training=TrainingConfig(local_epochs=1, batch_size=16, learning_rate=0.1, rng_seed=5),
        similarity_uses_compressed=True,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


class TestCrossSimilarity:
    def test_identical_models_give_twice_self_loss(self):
        params = init_parameters(Architecture((2, 5, 4)), 0)
        val = toy_dataset(1)
        self_loss, _ = loss_and_accuracy(params, val)
        assert cross_similarity(params, params, val, val) == 2 * self_loss

    def test_zero_networks_give_two_log_c(self):
        zero = ParameterSet([np.zeros((4, 2))], [np.zeros(4)])
        ds = cross_similarity(zero, zero.copy(), toy_dataset(1), toy_dataset(2))
        assert abs(ds - 2 * math.log(4)) <= 1e-9

    def test_architecture_mismatch_raises(self):
        a = init_parameters(Architecture((2, 3, 4)), 0)
        b = init_parameters(Architecture((2, 4, 4)), 0)
        with pytest.raises(ValueError):
            cross_similarity(a, b, toy_dataset(1), toy_dataset(2))

    def test_disjoint_label_models_are_more_dissimilar(self):
        spec = synthetic_blob_spec(k=4, classes_per_subregion=2, seed=3)
        arch = Architecture((2, 8, 8))
        cfg = TrainingConfig(local_epochs=5, batch_size=16, learning_rate=0.1, rng_seed=0)
        # two devices of subregion 0 and one of subregion 3
        subregion = np.array([0, 0, 3])
        store, rows = sample_local_dataset(spec, subregion, 120, seed=7)
        models = [
            local_training(init_parameters(arch, k), store, cfg, rows=own) for k, own in enumerate(rows)
        ]
        store, rows = sample_local_dataset(spec, subregion, 60, seed=8)
        vals = [store.gather(own) for own in rows]
        same_region = cross_similarity(models[0], models[1], vals[0], vals[1])
        cross_region = cross_similarity(models[0], models[2], vals[0], vals[2])
        assert cross_region > same_region


class TestDissimilarityMatrix:
    def test_symmetric_storage(self):
        # one score per undirected pair, stored once as the row (i, j), i < j
        ds = DissimilarityMatrix([[2, 5], [3, 4]], [1.25, 0.5])
        assert ds.edges.tolist() == [[2, 5], [3, 4]]
        assert ds.values.tolist() == [1.25, 0.5]
        assert [0, 1] not in ds.edges.tolist()
        with pytest.raises(ValueError):
            DissimilarityMatrix([[5, 2]], [1.25])

    def test_rejects_negative_and_self_pairs(self):
        with pytest.raises(ValueError):
            DissimilarityMatrix([[0, 1]], [-0.5])
        with pytest.raises(ValueError):
            DissimilarityMatrix([[0, 1]], [float("nan")])
        with pytest.raises(ValueError):
            DissimilarityMatrix([[3, 3]], [1.0])
        with pytest.raises(ValueError):
            DissimilarityMatrix([[0, 1], [1, 2]], [1.0])


class TestFederationPartition:
    def test_federations_are_sorted_by_leader_with_their_members(self):
        part = FederationPartition(np.array([0, 2, 2, 3, 0, 2]))
        assert [(f.leader, f.members.tolist()) for f in part.federations] == [
            (0, [0, 4]),
            (2, [1, 2, 5]),
            (3, [3]),
        ]
        assert all(isinstance(f, Federation) for f in part.federations)
        assert len(part) == 3

    def test_a_leader_that_does_not_follow_itself_is_rejected(self):
        with pytest.raises(ValueError, match="leader 0 is not a member"):
            FederationPartition(np.array([1, 0]))


class TestFormFederations:
    def _full_ds(self, topo, value):
        return DissimilarityMatrix(topo.edges, np.full(len(topo.edges), value))

    def test_generous_threshold_gives_one_federation(self):
        topo = line_topology(5)
        part = form_federations(topo, self._full_ds(topo, 1.0), tau=100.0)
        assert len(part.federations) == 1
        fed = part.federations[0]
        assert fed.leader == 0
        assert fed.members.tolist() == list(range(5))

    def test_zero_threshold_gives_singletons(self):
        topo = line_topology(5)
        part = form_federations(topo, self._full_ds(topo, 0.5), tau=0.0)
        assert len(part.federations) == 5
        assert all(f.members.tolist() == [f.leader] for f in part.federations)

    def test_partition_covers_all_devices_disjointly(self):
        topo = line_topology(7)
        ds = DissimilarityMatrix(topo.edges, np.where(np.arange(len(topo.edges)) % 2 == 0, 0.1, 9.0))
        part = form_federations(topo, ds, tau=1.0)
        seen = [u for f in part.federations for u in f.members]
        assert sorted(seen) == list(range(7))
        for f in part.federations:
            assert f.leader == min(f.members)

    def test_missing_edge_value_raises(self):
        topo = line_topology(3)
        for edges, values in [
            ([], []),  # no scores at all
            ([[0, 1]], [1.0]),  # topology edge 1-2 unscored
            ([[0, 1], [1, 2], [0, 2]], [1.0, 1.0, 1.0]),  # 0-2 is not a topology edge
            ([[1, 2], [0, 1]], [1.0, 1.0]),  # every edge scored, out of the topology's order
        ]:
            with pytest.raises(ValueError):
                form_federations(topo, DissimilarityMatrix(edges, values), tau=1.0)

    def test_raising_tau_never_increases_federation_count(self):
        rng = np.random.default_rng(10)
        topo = topology_at(rng.uniform(0, 5, (12, 2)), r_c=2.0)
        ds = DissimilarityMatrix(topo.edges, rng.uniform(0, 2, len(topo.edges)))
        counts = [
            len(form_federations(topo, ds, tau).federations)
            for tau in np.linspace(0.0, 2.5, 26)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestFedAvg:
    def test_uniform_mean_example(self):
        a = ParameterSet([np.array([[1.0, 3.0]])], [np.array([1.0])])
        b = ParameterSet([np.array([[3.0, 5.0]])], [np.array([3.0])])
        out = fed_avg(a, stack_models([b]), [0], [1.0, 1.0])
        assert np.array_equal(out.weights[0], [[2.0, 4.0]])
        assert np.array_equal(out.biases[0], [2.0])

    def test_n_copies_return_the_model_exactly(self):
        params = init_parameters(Architecture((3, 7, 4)), 5)
        out = fed_avg(params, stack_models([params] * 9), np.arange(9), [1.0] * 10)
        for x, y in zip(out.weights + out.biases, params.weights + params.biases):
            assert np.array_equal(x, y)

    def test_sample_count_weighting(self):
        a = ParameterSet([np.array([[0.0]])], [np.array([0.0])])
        b = ParameterSet([np.array([[4.0]])], [np.array([8.0])])
        out = fed_avg(a, stack_models([b]), [0], [1, 3])
        assert np.allclose(out.weights[0], [[3.0]])
        assert np.allclose(out.biases[0], [6.0])

    def test_output_stays_within_elementwise_envelope(self):
        rng = np.random.default_rng(2)
        models = [init_parameters(Architecture((3, 5, 2)), s) for s in range(4)]
        weights = [float(rng.uniform(0.5, 3)) for _ in models]
        out = fed_avg(models[0], stack_models(models[1:]), [0, 1, 2], weights)
        for li in range(len(out.weights)):
            stack = np.stack([m.weights[li] for m in models])
            assert np.all(out.weights[li] >= stack.min(axis=0) - 1e-12)
            assert np.all(out.weights[li] <= stack.max(axis=0) + 1e-12)

    def test_empty_and_mismatched_inputs_raise(self):
        a = init_parameters(Architecture((2, 3)), 0)
        stack = stack_models([a, a])
        # one positive weight per member: first, then each row
        wrong = ([1.0], [1.0] * 2, [1.0] * 4, [1.0, 0.0, 1.0], [1.0, -1.0, 1.0], [np.nan] * 3)
        for weights in wrong:
            with pytest.raises(ValueError):
                fed_avg(a, stack, [0, 1], weights)
        # first of another layout: another architecture of as many
        # parameters, or a stack; or of another dtype
        other = init_parameters(Architecture((8, 1)), 0)
        assert other.num_params == a.num_params
        as_float32 = ParameterSet.from_flat(a.flat.astype(np.float32), a.layer_sizes)
        for first in (other, stack, as_float32):
            with pytest.raises(ValueError):
                fed_avg(first, stack, [0, 1], [1.0] * 3)
        # models without parameters
        empty = ParameterSet([], [])
        with pytest.raises(ValueError):
            fed_avg(empty, ParameterSet.from_flat(np.zeros((2, 0)), ()), [0, 1], [1.0] * 3)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        members=st.integers(1, 70),
        layers=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        block_rows=st.sampled_from([1, 2, 3, None]),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.sampled_from([(0.0,), (-0.0,), (0.0, -0.0)]),
        weighted=st.booleans(),
    )
    def test_fold_matches_the_member_loop(self, members, layers, block_rows, seed, zeros, weighted):
        self._fold_case(np.float64, members, layers, block_rows, seed, zeros, weighted)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        members=st.integers(1, 70),
        layers=st.lists(st.integers(1, 6), min_size=2, max_size=4),
        block_rows=st.sampled_from([1, 2, 3, None]),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.sampled_from([(0.0,), (-0.0,), (0.0, -0.0)]),
        weighted=st.booleans(),
    )
    def test_fold_matches_the_member_loop_at_float32(
        self, members, layers, block_rows, seed, zeros, weighted
    ):
        # a run's stacks: the fold and its weights in float32, blocks sized
        # by the float32 rows
        self._fold_case(np.float32, members, layers, block_rows, seed, zeros, weighted)

    @staticmethod
    def _fold_case(dtype, members, layers, block_rows, seed, zeros, weighted):
        # the first member's row of params and every other member's of
        # decoded, folded in blocks of 1-3 rows or, at the default budget,
        # all in one block; layer sizes of 1 give 1-unit output layers and
        # (1, 1) weights; some entries are +-0.0 and some members copy the first
        rng = np.random.default_rng(seed)
        n = members + int(rng.integers(0, 4))
        arch = Architecture(tuple(layers))

        def stack():
            shapes = [(n, *s) for s in arch.weight_shapes()] + [(n, s) for s in layers[1:]]
            tensors = [rng.normal(size=s) * 10.0 ** rng.integers(-3, 4, size=s) for s in shapes]
            for t in tensors:
                hit = rng.random(t.shape) < 0.25
                t[hit] = rng.choice(zeros, size=int(hit.sum()))
            tensors = [t.astype(dtype) for t in tensors]
            return ParameterSet(tensors[: len(layers) - 1], tensors[len(layers) - 1 :])

        params, decoded = stack(), stack()
        uids = sorted(rng.choice(n, members, replace=False).tolist())
        for u in uids[1:]:
            if rng.random() < 0.2:
                decoded.flat[u] = params.flat[uids[0]]
        weights = rng.uniform(0.5, 4.0, members).tolist() if weighted else [300] * members
        want = reference_fed_avg([params[uids[0]]] + [decoded[u] for u in uids[1:]], weights)
        itemsize = np.dtype(dtype).itemsize
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:
                # a block holds LOCKSTEP_BUDGET_BYTES / 8 bytes of flat model rows
                budget = 8 * itemsize * params.num_params // n * block_rows
                patch.setattr(protocol, "LOCKSTEP_BUDGET_BYTES", budget)
            got = fed_avg(params[uids[0]], decoded, np.array(uids[1:], dtype=np.int64), weights)
        for x, y in zip(got.weights + got.biases, want.weights + want.biases):
            assert x.shape == y.shape and x.dtype == y.dtype == dtype
            assert x.tobytes() == y.tobytes()

    def test_rows_must_match_and_index_the_stacks(self):
        stack = ParameterSet([np.zeros((3, 2, 2))], [np.zeros((3, 2))])
        with pytest.raises(ValueError):
            fed_avg(stack[0], stack, [1, 2], [1.0, 1.0])
        # rows outside the stack, gathered in one block or, under a budget
        # of one byte, one row at a time
        for budget in (protocol.LOCKSTEP_BUDGET_BYTES, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(protocol, "LOCKSTEP_BUDGET_BYTES", budget)
                for rows in ([0, 3], [3, 0], [3]):
                    with pytest.raises(IndexError):
                        fed_avg(stack[0], stack, rows, [1.0] * (len(rows) + 1))


class TestEvaluateObjective:
    def test_zero_networks_sum_to_k_log_c(self):
        k, c = 4, 4
        zero = ParameterSet([np.zeros((c, 2))], [np.zeros(c)])
        partition = FederationPartition(np.arange(k))
        tests = [toy_dataset(j, m=30, n_classes=c) for j in range(k)]
        models = model_stack({j: zero.copy() for j in range(k)}, k)
        objective, accs, losses = evaluate_objective(
            partition, models, *store_table(tests), np.arange(k)
        )
        assert abs(objective - k * math.log(c)) <= 1e-9
        assert len(accs) == len(losses) == k

    def test_confident_models_give_small_objective(self):
        # one-layer nets that push the true class hard for every sample
        k = 2
        tests = []
        models = {}
        for j in range(k):
            x = np.tile([[1.0, 0.0]], (10, 1))
            y = np.full(10, j)
            tests.append(LabeledDataset(x, y))
            w = np.zeros((2, 2))
            w[j, 0] = 20.0
            models[j] = ParameterSet([w], [np.zeros(2)])
        partition = FederationPartition(np.arange(k))
        stack = model_stack(models, k)
        objective, accs, _ = evaluate_objective(partition, stack, *store_table(tests), np.arange(k))
        assert objective < 0.01
        assert accs == [1.0, 1.0]

    def test_each_model_and_test_set_pair_is_scored_once(self, monkeypatch):
        # leaders 0 and 2 live in subregion 0 and hold its plurality in turn;
        # leader 4 lives in subregion 1 and is its plurality: three pairs
        subregion = np.array([0, 0, 0, 0, 1, 1])
        tests = [toy_dataset(j, m=20) for j in range(2)]
        models = {u: init_parameters(Architecture((2, 3, 4)), u) for u in (0, 2, 4)}
        store, test_rows = store_table(tests)
        calls = []
        score = protocol.loss_and_accuracy

        def counted(params, data):
            calls.extend(scored_pairs(params, data))
            return score(params, data)

        monkeypatch.setattr(protocol, "loss_and_accuracy", counted)
        for leader_of in (np.array([0, 0, 2, 0, 4, 4]), np.array([0, 2, 2, 2, 4, 4])):
            calls.clear()
            objective, accs, losses = evaluate_objective(
                FederationPartition(leader_of), model_stack(models, 6), store, test_rows, subregion
            )
            assert len(calls) == len(set(calls)) == 3
            loss = {u: loss_and_accuracy(models[u], tests[subregion[u]]) for u in models}
            assert objective == loss[0][0] + loss[2][0] + loss[4][0]
            plurality = leader_of[1]  # device 1 follows subregion 0's plurality leader
            assert (losses[0], accs[0]) == loss_and_accuracy(models[plurality], tests[0])
            assert (losses[1], accs[1]) == loss[4]

    def test_plurality_tie_goes_to_the_lowest_leader(self):
        # subregion 0 holds two devices of leader 3 and two of leader 1; the
        # tie picks leader 1's model, which is right on every sample
        subregion = np.zeros(4, dtype=np.int64)
        partition = FederationPartition(np.array([3, 1, 1, 3]))
        test = LabeledDataset(np.tile([[1.0, 0.0]], (10, 1)), np.zeros(10, dtype=np.int64))
        right = ParameterSet([np.array([[20.0, 0.0], [0.0, 0.0]])], [np.zeros(2)])
        wrong = ParameterSet([np.array([[0.0, 0.0], [20.0, 0.0]])], [np.zeros(2)])
        store, test_rows = store_table([test])
        _, accs, _ = evaluate_objective(
            partition, model_stack({1: right, 3: wrong}, 4), store, test_rows, subregion
        )
        assert accs == [1.0]
        _, accs, _ = evaluate_objective(
            partition, model_stack({1: wrong, 3: right}, 4), store, test_rows, subregion
        )
        assert accs == [0.0]

    @staticmethod
    def _assert_same(got, want):
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert list(map(float.hex, a)) == list(map(float.hex, b))

    @pytest.mark.parametrize("budget", [None, 1, 6000])
    def test_matches_the_per_pair_scorer(self, monkeypatch, budget):
        # four subregions, the last with no device (nan); subregion 0 splits
        # two and two between leaders 0 and 4 (the tie goes to 0); leader 4,
        # in subregion 1, also holds subregion 2's plurality by a one-one tie
        # with leader 6, so its model is scored on two test sets; every test
        # set has 20 rows; a budget of 1 byte runs every
        # pair alone, 6000 bytes up to two to a chunk
        if budget is not None:
            monkeypatch.setattr(protocol, "LOCKSTEP_BUDGET_BYTES", budget)
        subregion = np.array([0, 0, 0, 0, 1, 1, 2, 2, 1])
        partition = FederationPartition(np.array([0, 4, 0, 4, 4, 4, 6, 4, 8]))
        models = stack_models([init_parameters(Architecture((2, 5, 4)), 40 + u) for u in range(9)])
        tests, test_rows = store_table([toy_dataset(j, m=20) for j in range(4)])
        scored = []
        score = protocol.loss_and_accuracy

        def recording(params, data):
            scored.extend(scored_pairs(params, data))
            return score(params, data)

        monkeypatch.setattr(protocol, "loss_and_accuracy", recording)
        got = evaluate_objective(partition, models, tests, test_rows, subregion)
        assert len(scored) == len(set(scored)) == 5
        assert [m for m, _ in scored].count(model_bytes(models[4])) == 2
        assert math.isnan(got[1][3]) and math.isnan(got[2][3])
        monkeypatch.setattr(protocol, "loss_and_accuracy", score)
        sets = [tests.gather(rows) for rows in test_rows]
        self._assert_same(got, reference_evaluate_objective(partition, models, sets, subregion))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        leaders=st.lists(st.integers(0, 5), min_size=1, max_size=14),
        subregions=st.lists(st.integers(0, 3), min_size=14, max_size=14),
        length=st.integers(1, 9),
        budget=st.sampled_from([None, 1, 3000, 9000]),
    )
    def test_random_partitions_match_the_per_pair_scorer(self, leaders, subregions, length, budget):
        # device u follows leaders[u] when that leader follows itself
        n = len(leaders)
        leader_of = [u if leaders[u] >= n or leaders[leaders[u]] != leaders[u] else leaders[u] for u in range(n)]
        subregion = np.array(subregions[:n])
        models = stack_models([init_parameters(Architecture((2, 3, 4)), u) for u in range(n)])
        tests, test_rows = store_table([toy_dataset(10 + j, m=length) for j in range(4)])
        partition = FederationPartition(np.array(leader_of))
        with pytest.MonkeyPatch.context() as patch:
            if budget is not None:
                patch.setattr(protocol, "LOCKSTEP_BUDGET_BYTES", budget)
            got = evaluate_objective(partition, models, tests, test_rows, subregion)
        sets = [tests.gather(rows) for rows in test_rows]
        self._assert_same(got, reference_evaluate_objective(partition, models, sets, subregion))


class TestRunRound:
    def _state(self, n, datasets=None, seed=0, r_c=1.0):
        topo = line_topology(n, r_c=r_c)
        arch = Architecture((2, 6, 4))
        init = init_parameters(arch, seed)
        samples, rows = sample_store(datasets or [toy_dataset(100 + i) for i in range(n)])
        return make_state(topo, samples, rows, init, validation_fraction=0.2)

    def test_model_stacks_are_flat_float32_buffers_that_a_round_writes_in_place(self):
        # a dense round's receivers read params; a quantizing round decodes
        # into a stack of its own, allocated by its first round
        state = self._state(3)
        params = state.params.flat
        assert params.shape == (3, state.params[0].num_params) and params.dtype == np.float32
        assert params.flags.c_contiguous
        before = params.copy()
        run_round(state, toy_protocol_config(), round_index=0)
        assert state.params.flat is params and state.decoded is state.params
        assert not np.array_equal(params, before)
        quantized = toy_protocol_config(strategy=CompressionStrategy("quantized"))
        run_round(state, quantized, round_index=1)
        decoded = state.decoded.flat
        assert decoded.shape == params.shape and decoded.dtype == np.float32
        assert decoded.flags.c_contiguous and not np.shares_memory(decoded, params)
        before = decoded.copy()
        run_round(state, quantized, round_index=2)
        assert state.params.flat is params and state.decoded.flat is decoded
        assert not np.array_equal(decoded, before)
        for stack, flat in ((state.params, params), (state.decoded, decoded)):
            assert all(np.shares_memory(t, flat) for t in stack.weights + stack.biases)
        run_round(state, toy_protocol_config(), round_index=3)
        assert state.decoded is state.params

    def test_single_device_round_is_pure_local_training(self):
        cfg = toy_protocol_config()
        state = self._state(1)
        stats = run_round(state, cfg, round_index=1)
        assert stats.bytes_round == 0
        assert len(stats.partition.federations) == 1
        # expected: compress -> decompress -> masked local training, no averaging loss
        baseline = self._state(1)
        cm = compress(baseline.params[0], cfg.strategy)
        train = baseline.samples.gather(baseline.train_rows[0])
        expected = local_training(decompress(cm), train, cfg.training, mask=cm.mask, round_index=1)
        got = state.params[0]
        for x, y in zip(got.weights + got.biases, expected.weights + expected.biases):
            assert np.array_equal(x, y)

    def test_isolated_arm_never_communicates(self):
        cfg = toy_protocol_config()
        state = self._state(4)
        stats = run_round(state, cfg, 1, arm="isolated")
        assert stats.bytes_broadcast == stats.bytes_collect == stats.bytes_disseminate == 0
        assert len(stats.partition.federations) == 4
        assert stats.dissimilarity is None
        assert state.bytes_total == 0

    def test_global_fedavg_forces_single_federation(self):
        cfg = toy_protocol_config()
        state = self._state(4)
        stats = run_round(state, cfg, 1, arm="global-fedavg")
        assert len(stats.partition.federations) == 1
        assert stats.partition.federations[0].leader == 0
        assert stats.bytes_broadcast == 0  # no similarity exchange
        assert stats.bytes_collect > 0
        assert stats.bytes_disseminate > 0

    def test_federation_members_end_with_identical_models(self):
        cfg = toy_protocol_config(tau=1e9)
        shared = toy_dataset(55)
        state = self._state(3, datasets=[shared, shared, shared])
        run_round(state, cfg, 1)
        a, b, c = (state.params[uid] for uid in range(3))
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(x, y)
        for x, y in zip(a.weights + a.biases, c.weights + c.biases):
            assert np.array_equal(x, y)

    def test_partition_valid_every_round(self):
        cfg = toy_protocol_config(tau=2.0)
        state = self._state(6, r_c=1.5)
        for t in range(1, 4):
            stats = run_round(state, cfg, t)
            seen = sorted(u for f in stats.partition.federations for u in f.members)
            assert seen == list(range(6))
            for f in stats.partition.federations:
                assert f.leader in f.members

    def test_unknown_arm_raises(self):
        with pytest.raises(ValueError):
            run_round(self._state(2), toy_protocol_config(), 1, arm="mesh")

    def test_quantized_broadcast_shrinks_by_payload_ratio(self):
        from sparsefuel.compression import CompressionStrategy, compress, serialized_size

        dense_cfg = toy_protocol_config()
        quant_cfg = toy_protocol_config(strategy=CompressionStrategy("quantized", 0.0))
        s1 = self._state(4)
        s2 = self._state(4)
        dense_stats = run_round(s1, dense_cfg, 1)
        quant_stats = run_round(s2, quant_cfg, 1)
        params = init_parameters(Architecture((2, 6, 4)), 0)
        dense_size = serialized_size(compress(params, dense_cfg.strategy))
        quant_size = serialized_size(compress(params, quant_cfg.strategy))
        assert quant_stats.bytes_broadcast * dense_size == dense_stats.bytes_broadcast * quant_size

    def test_round_trip_through_wire_affects_similarity_inputs(self):
        # with a quantized wire, a device's neighbors see the f32/8-bit view,
        # so the dissimilarity matrix must exist and stay non-negative
        cfg = toy_protocol_config(strategy=CompressionStrategy("sparse+quantized", 0.3))
        state = self._state(3)
        stats = run_round(state, cfg, 1)
        assert np.array_equal(stats.dissimilarity.edges, state.topology.edges)
        assert len(stats.dissimilarity.values) > 0
        assert np.all(stats.dissimilarity.values >= 0.0)


class TestTreeRound:
    """A round averages each federation's members that its leader's hop tree
    reaches and writes the average into their rows of the model stack: the
    members averaged are c_block's unions on the round's gradient field, the
    models delivered broadcast_block's delivery."""

    ARCH = Architecture((2, 6, 4))

    def _state(self, xs, r_c):
        topo = topology_at([(x, 0) for x in xs], r_c=r_c)
        samples, rows = sample_store([toy_dataset(100 + i) for i in range(len(xs))])
        return make_state(topo, samples, rows, init_parameters(self.ARCH, 0), 0.2)

    @staticmethod
    def _recorded_round(monkeypatch, state, cfg, arm):
        """The round's stats and, per fed_avg call, the (stack, uid) rows it
        averaged (the leader's row of params, which first views, then every
        other member's of decoded, which is params on a dense wire) and the
        average it returned."""
        calls = []
        average = protocol.fed_avg
        n = state.topology.n

        def row(stack, uid):
            for name in ("params", "decoded"):
                if stack is getattr(state, name) and 0 <= uid < n:
                    return name, uid
            raise AssertionError("fed_avg got a model that is no row of a stack")

        def recording(first, models, rows, weights):
            members = [("params", viewed_row(state.params, first))]
            members += [row(models, uid) for uid in np.asarray(rows).tolist()]
            out = average(first, models, rows, weights)
            calls.append((members, out))
            return out

        monkeypatch.setattr(protocol, "fed_avg", recording)
        stats = run_round(state, cfg, 1, arm=arm)
        monkeypatch.setattr(protocol, "fed_avg", average)
        return stats, calls

    @staticmethod
    def _averages(calls):
        """The recorded averages by leader: the one member of each call read
        from params."""
        return {rows[0][1]: out for rows, out in calls}

    def _assert_tree_blocks_agree(self, state, cfg, calls, gfield):
        singletons = {uid: frozenset([uid]) for uid in range(len(gfield.hops))}
        collected = fields.c_block(gfield, singletons, frozenset.union, frozenset())
        assert [[uid for _, uid in rows] for rows, _ in calls] == [
            sorted(collected[leader]) for leader in sorted(collected)
        ]
        # a dense wire's members are all rows of params, the one stack
        assert (state.decoded is state.params) == cfg.dense_wire
        others = "params" if cfg.dense_wire else "decoded"
        for rows, _ in calls:
            assert [name for name, _ in rows] == ["params"] + [others] * (len(rows) - 1)
        delivered = fields.broadcast_block(gfield, self._averages(calls))
        for uid, model in delivered.items():
            got = state.params[uid]
            for x, y in zip(got.weights + got.biases, model.weights + model.biases):
                assert np.array_equal(x, y)
        return delivered

    def test_disconnected_forced_federation(self, monkeypatch):
        # two radio components, {0, 1, 2} and {3, 4}: global-fedavg forces
        # one federation led by 0, whose tree never reaches 3 and 4
        xs, r_c = (0, 1, 2, 10, 11), 1.5
        cfg = toy_protocol_config()
        state = self._state(xs, r_c)
        stats, calls = self._recorded_round(monkeypatch, state, cfg, "global-fedavg")
        isolated = self._state(xs, r_c)
        run_round(isolated, cfg, 1, arm="isolated")

        assert stats.partition.leader_of.tolist() == [0] * 5
        gfield = fields.g_block(fields.FieldGraph.from_topology(state.topology), [0])
        delivered = self._assert_tree_blocks_agree(state, cfg, calls, gfield)
        assert sorted(delivered) == [0, 1, 2]
        average = self._averages(calls)[0]
        for uid in range(5):
            want = average if uid < 3 else isolated.params[uid]
            got = state.params[uid]
            for x, y in zip(got.weights + got.biases, want.weights + want.biases):
                assert np.array_equal(x, y)
        # devices 1 and 2 send their dense models one and two hops; the
        # average goes back down to both
        size = int(serialized_size(compress(init_parameters(self.ARCH, 0), cfg.strategy)))
        assert stats.bytes_collect == 3 * size
        assert stats.bytes_disseminate == 2 * size

    def test_gated_sparsefuel_round(self, monkeypatch):
        # tau splits a line of eight into four federations, one of them
        # {1, 2, 3, 5, 6}: 4 scores too far from 3 and 5, and the tree
        # reaches 5 and 6 over 3
        cfg = toy_protocol_config(tau=2.8, strategy=CompressionStrategy("sparse+quantized", 0.3))
        state = self._state(range(8), 2.5)
        stats, calls = self._recorded_round(monkeypatch, state, cfg, "sparsefuel")
        members = [f.members.tolist() for f in stats.partition.federations]
        assert members == [[0], [1, 2, 3, 5, 6], [4], [7]]
        graph = protocol.similarity_graph(state.topology, stats.dissimilarity, cfg.tau)
        gfield = fields.g_block(graph, np.flatnonzero(fields.s_block(graph)))
        delivered = self._assert_tree_blocks_agree(state, cfg, calls, gfield)
        assert sorted(delivered) == list(range(8))

    @pytest.mark.parametrize("arm", protocol.ARMS)
    def test_leader_rows_hold_the_round_models(self, monkeypatch, arm):
        # each leader's row of the model stack ends the round holding its
        # federation's average as fed_avg returned it (its model as trained
        # when it is alone and nothing is averaged), and the objective
        # scores exactly those rows
        cfg = toy_protocol_config(tau=2.8, strategy=CompressionStrategy("sparse+quantized", 0.3))
        state = self._state(range(8), 2.5)
        stats, calls = self._recorded_round(monkeypatch, state, cfg, arm)
        if arm == "isolated":
            assert calls == []
            trained = self._state(range(8), 2.5)
            protocol._run_chunks(trained, cfg, 1, None)
            want = {uid: trained.params[uid] for uid in range(8)}
        else:
            want = self._averages(calls)
        assert sorted(want) == [f.leader for f in stats.partition.federations]
        for leader, model in want.items():
            got = state.params[leader]
            for x, y in zip(got.weights + got.biases, model.weights + model.biases):
                assert np.array_equal(x, y)

        scored = []
        score = protocol.loss_and_accuracy

        def recording(params, data):
            scored.append(params)
            return score(params, data)

        monkeypatch.setattr(protocol, "loss_and_accuracy", recording)
        test = toy_dataset(900, m=30)
        tests, test_rows = store_table([test])
        subregion = state.topology.subregion
        objective, _, _ = evaluate_objective(
            stats.partition, state.params, tests, test_rows, subregion
        )
        leader_of_row = {model_bytes(state.params[u]): u for u in want}
        leaders = [leader_of_row[model_bytes(m[d])] for m in scored for d in range(len(m.weights[0]))]
        assert sorted(leaders) == sorted(want)
        assert objective == sum(score(model, test)[0] for model in want.values())


class TestWireFaults:
    """Every finite float32 model goes on the wire: its f32 values as they
    are, its quantizer scales within the f32 the bytes carry.  A value the
    bytes never carry never reaches a receiver."""

    def _state(self, n=4):
        topo = line_topology(n)
        init = init_parameters(Architecture((2, 6, 4)), 0)
        samples, rows = sample_store([toy_dataset(100 + i) for i in range(n)])
        return make_state(topo, samples, rows, init, 0.2)

    def _poison(self, monkeypatch, where):
        """Train and encode as usual, then write NaN into a copy of the wire
        model at each (uid, tensor, position) of where(mask): tensors in W0,
        b0, W1, b1 order, flat positions.  The trained models stay finite (a
        trained model that is not fails the round before the wire, see
        TestDivergence).  The equal-length toy splits train as one chunk in
        uid order."""
        encode = protocol.encode_wire

        def poisoned(params, strategy, mask):
            wire = encode(params, strategy, mask)
            bad = wire.params.copy()
            tensors = [t for wb in zip(bad.weights, bad.biases) for t in wb]
            for uid, t, at in where(mask):
                tensors[t][uid].flat[at] = math.nan
            return dataclasses.replace(wire, params=bad)

        monkeypatch.setattr(protocol, "encode_wire", poisoned)

    @staticmethod
    def _nth(mask, layer, uid, i, kept=1):
        """Flat position of device uid's i-th weight of the layer that the
        mask keeps (or prunes, kept=0); its i-th weight without a mask."""
        return i if mask is None else int(np.flatnonzero(mask.layers[layer][uid] == kept)[i])

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_model_at_the_f32_max_decodes_finite_on_every_wire(self, monkeypatch, kind):
        # device 2's trained model holds -max and +max in every tensor.  Each
        # quantizer scale, 2 * max / 255, fits an f32, and the lowest level,
        # half a step past -max, decodes saturated at -max
        top = np.finfo(np.float32).max
        train, encode, wires = protocol.local_training, protocol.encode_wire, []

        def extreme(*args, **kwargs):
            out = train(*args, **kwargs)
            for t in out.weights + out.biases:
                t[2].flat[:2] = (-top, top)
            return out

        def recorded(*args):
            wires.append(encode(*args))
            return wires[-1]

        monkeypatch.setattr(protocol, "local_training", extreme)
        monkeypatch.setattr(protocol, "encode_wire", recorded)
        # psi 0 keeps every weight on the pruning wires too
        cfg = toy_protocol_config(tau=1e9, strategy=CompressionStrategy(kind, 0.0))
        state, size = self._state(), np.zeros(4, dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            protocol._run_chunks(state, cfg, 1, size)
        (wire,) = wires
        blob = to_bytes(wire[2])
        assert size[2] == len(blob)
        # a dense wire's receivers read the sent rows of params themselves
        assert (state.decoded is state.params) == cfg.dense_wire
        sent, got = state.params[2], state.decoded[2]
        want = decompress(from_bytes(blob))
        for s, a, b in zip(sent.weights + sent.biases, got.weights + got.biases, want.weights + want.biases):
            assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()
            assert np.isfinite(a).all()
            assert s.flat[:2].tolist() == [-top, top]
            if not cfg.strategy.quantizes:
                assert np.array_equal(a, s)
        assert got.weights[0].flat[0] == -top

    def test_non_finite_pruned_weight_never_reaches_a_receiver(self, monkeypatch):
        self._poison(monkeypatch, lambda m: [(2, 0, self._nth(m, 0, 2, 0, kept=0))])
        cfg = toy_protocol_config(tau=1e9, strategy=CompressionStrategy("sparse", 0.5))
        state = self._state()
        stats = run_round(state, cfg, 1)
        # device 2 is no leader: every model averaged is the one its bytes decode to
        assert len(stats.partition) == 1 and stats.partition.federations[0].leader == 0
        assert all(np.isfinite(t).all() for t in state.params.weights + state.params.biases)


QUADRANT_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "quadrant.cfg")


class TestDivergence:
    """configs/quadrant.cfg at a learning rate that diverges in the first
    round fails the same documented way in every arm and wire kind; the
    multi-chunk case is in test_lockstep.py."""

    MESSAGE = (
        "round 1: local training diverged: device 0 has non-finite parameters "
        "at learning_rate 1e+300"
    )

    @staticmethod
    def _config(kind):
        cfg = load_config(QUADRANT_CFG)
        return dataclasses.replace(
            cfg,
            protocol=dataclasses.replace(cfg.protocol, kind=kind, learning_rate=1e300, rounds=2),
        )

    @pytest.mark.parametrize("kind", ["sparse+quantized", "dense"])
    @pytest.mark.parametrize("arm", protocol.ARMS)
    def test_every_arm_and_kind_fails_with_one_message(self, arm, kind):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as raised:
            run_experiment_result(self._config(kind), arm=arm)
        assert str(raised.value) == self.MESSAGE

    def test_the_cli_exits_2_with_the_message(self, tmp_path, capsys):
        path = tmp_path / "diverging.cfg"
        path.write_text(format_config(self._config("dense")))
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: FloatingPointError: {self.MESSAGE}\n"
        assert not (tmp_path / "m.csv").exists()


class TestProtocolConfigValidation:
    def test_tau_must_be_positive_finite(self):
        with pytest.raises(ValueError):
            toy_protocol_config(tau=0.0)
        with pytest.raises(ValueError):
            toy_protocol_config(tau=math.inf)

    def test_rounds_must_be_positive(self):
        # the round count is the config's: the harness loops over cfg.protocol.rounds
        with pytest.raises(ConfigError, match=r"line 3: protocol\.rounds must be >= 1"):
            parse_config("[protocol]\ntau = 4.0\nrounds = 0\n")

    def test_validation_fraction_bounds(self):
        topo = line_topology(2)
        samples, rows = sample_store([toy_dataset(1), toy_dataset(2)])
        init = init_parameters(Architecture((2, 3, 4)), 0)
        for fraction in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"validation_fraction must be in \(0, 1\)"):
                make_state(topo, samples, rows, init, validation_fraction=fraction)
