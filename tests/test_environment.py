import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    forward_features,
    oracle_disc_edges,
    reference_blob_draw,
    reference_idx_draw,
    reference_subregion_of,
    write_idx_pair,
)
from sparsefuel import environment
from sparsefuel.environment import (
    Area,
    BlobClass,
    DistributionSpec,
    build_topology,
    deploy_devices,
    idx_label_skew_spec,
    load_idx,
    sample_local_dataset,
    sample_local_rows,
    synthetic_blob_spec,
)


class TestArea:
    def test_quadrant_mapping(self):
        area = Area(10.0, 10.0, 2, 2)
        got = area.subregion_of(np.array([2.0, 7.0, 2.0, 7.0]), np.array([2.0, 2.0, 7.0, 7.0]))
        assert got.dtype == np.int64 and got.tolist() == [0, 1, 2, 3]

    def test_boundary_ties_go_to_lower_index_cell(self):
        area = Area(10.0, 10.0, 2, 2)
        x = np.array([5.0, 5.0, 5.0000001, 0.0, 10.0])
        y = np.array([5.0, 2.0, 5.0000001, 0.0, 10.0])
        assert area.subregion_of(x, y).tolist() == [0, 0, 3, 0, 3]

    def test_every_point_has_exactly_one_subregion(self):
        area = Area(6.0, 4.0, 2, 3)
        rng = np.random.default_rng(0)
        sid = area.subregion_of(rng.uniform(0, 6, 500), rng.uniform(0, 4, 500))
        assert np.all((0 <= sid) & (sid < 6))

    @staticmethod
    def _coordinate(side, cells):
        """Anywhere on [0, side], or on a cell boundary: 0, k * (side / cells)
        or the far edge."""
        on_boundary = st.integers(0, cells).map(lambda k: min(side, k * (side / cells)))
        return st.one_of(st.floats(0.0, side), on_boundary, st.just(side))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        width=st.floats(1e-300, 1e300),
        height=st.floats(1e-300, 1e300),
        rows=st.integers(1, 7),
        cols=st.integers(1, 7),
    )
    def test_matches_the_scalar_reference(self, data, width, height, rows, cols):
        area = Area(width, height, rows, cols)
        points = data.draw(
            st.lists(
                st.tuples(self._coordinate(width, cols), self._coordinate(height, rows)),
                min_size=1,
                max_size=20,
            )
        )
        x, y = np.array(points).T
        got = area.subregion_of(x, y)
        assert got.dtype == np.int64
        assert got.tolist() == [reference_subregion_of(area, a, b) for a, b in points]

    def test_out_of_area_raises(self):
        area = Area(10.0, 10.0, 2, 2)
        for bad_x, bad_y in ((-0.1, 5.0), (5.0, 10.1), (math.nan, 5.0)):
            x, y = np.array([1.0, bad_x, 2.0]), np.array([1.0, bad_y, 2.0])
            with pytest.raises(ValueError, match=rf"^point \({bad_x}, {bad_y}\) outside"):
                area.subregion_of(x, y)

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            Area(0.0, 10.0, 2, 2)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="finite and > 0"):
                Area(bad, 10.0, 2, 2)
            with pytest.raises(ValueError, match="finite and > 0"):
                Area(10.0, bad, 2, 2)
        with pytest.raises(ValueError):
            Area(10.0, 10.0, 0, 2)

    def test_subregion_sides_that_underflow_raise(self):
        # 5e-324 is the least subnormal: halved, it rounds to 0
        for width, height, rows, cols in ((5e-324, 10.0, 2, 2), (10.0, 5e-324, 2, 1)):
            with pytest.raises(ValueError, match="^subregion sides must be > 0"):
                Area(width, height, rows, cols)
        assert Area(5e-324, 10.0, 1, 1).subregion_of(np.array([5e-324]), np.array([10.0])).tolist() == [0]


class TestDeploy:
    @pytest.mark.parametrize("placement", ["uniform-random", "jittered-grid"])
    def test_sites_in_bounds_with_sequential_uids(self, placement):
        area = Area(10.0, 10.0, 2, 2)
        positions, subregion = deploy_devices(area, n=30, placement=placement, seed=7)
        assert positions.shape == (30, 2) and positions.dtype == np.float64
        assert subregion.shape == (30,) and subregion.dtype == np.int64
        assert np.all((0.0 <= positions) & (positions <= 10.0))
        assert subregion.tolist() == [reference_subregion_of(area, x, y) for x, y in positions]

    def test_jittered_grid_stays_near_cell_centers(self):
        area = Area(10.0, 10.0, 2, 2)
        n = 16  # 4x4 grid, pitch 2.5
        positions, _ = deploy_devices(area, n=n, placement="jittered-grid", seed=3)
        pitch = 10.0 / 4
        for uid, (x, y) in enumerate(positions):
            row, col = divmod(uid, 4)
            cx = (col + 0.5) * pitch
            cy = (row + 0.5) * pitch
            assert abs(x - cx) <= pitch / 4 + 1e-12
            assert abs(y - cy) <= pitch / 4 + 1e-12

    def test_deterministic_by_seed(self):
        area = Area(8.0, 8.0, 2, 2)
        a, _ = deploy_devices(area, n=12, placement="uniform-random", seed=5)
        b, _ = deploy_devices(area, n=12, placement="uniform-random", seed=5)
        c, _ = deploy_devices(area, n=12, placement="uniform-random", seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unknown_placement_raises(self):
        with pytest.raises(ValueError):
            deploy_devices(Area(4, 4, 1, 1), n=4, placement="ring", seed=0)


def on_a_line(*xs):
    """(n, 2) positions at the given x on y = 0."""
    return np.array([[x, 0.0] for x in xs])


class TestTopology:
    def test_radius_is_inclusive(self):
        topo = build_topology(on_a_line(0.0, 1.0, 2.5), np.array([0, 1, 1]), r_c=1.0)
        assert topo.edges.tolist() == [[0, 1]]
        assert topo.graph.adj == {0: (1,), 1: (0,), 2: ()}
        assert topo.n == 3 and topo.subregion.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("r_c", [0.0, -1.0, float("nan")])
    def test_radius_must_be_positive(self, r_c):
        with pytest.raises(ValueError, match="must be positive"):
            build_topology(on_a_line(0.0, 1.0), np.zeros(2, dtype=np.int64), r_c)

    def test_edges_symmetric_no_self_loops(self):
        area = Area(10.0, 10.0, 2, 2)
        positions, subregion = deploy_devices(area, n=25, placement="uniform-random", seed=1)
        topo = build_topology(positions, subregion, r_c=3.0)
        assert topo.subregion.dtype == np.int64 and np.array_equal(topo.subregion, subregion)
        adj = topo.graph.adj
        for uid in range(25):
            assert uid not in adj[uid]
            for v in adj[uid]:
                assert uid in adj[v]
        assert topo.edges.shape == (len(topo.edges), 2)
        assert np.all(topo.edges[:, 0] < topo.edges[:, 1])
        assert topo.edges.tolist() == sorted(topo.edges.tolist())
        assert not topo.edges.flags.writeable
        empty = build_topology(np.empty((0, 2)), np.empty(0, dtype=np.int64), r_c=3.0)
        assert empty.edges.shape == (0, 2) and empty.n == 0
        assert sum(len(v) for v in adj.values()) == 2 * len(topo.edges)


    @pytest.mark.parametrize("placement", ["uniform-random", "jittered-grid"])
    @pytest.mark.parametrize("n", [1, 2, 64, 300])
    def test_edges_match_pair_oracle(self, placement, n):
        area = Area(8.0, 8.0, 2, 2)
        positions, subregion = deploy_devices(area, n=n, placement=placement, seed=n)
        for r_c in (0.5, 2.125, 20.0):
            topo = build_topology(positions, subregion, r_c=r_c)
            assert topo.edges.dtype == np.int64
            assert topo.edges.reshape(-1, 2).tolist() == oracle_disc_edges(positions, r_c)

    def test_sites_exactly_r_c_apart_are_linked(self):
        # a 3-4-5 triangle with r_c = 5: every pair is at most r_c apart, and
        # 0-2 at exactly r_c
        positions = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]])
        for r_c, want in ((5.0, [[0, 1], [0, 2], [1, 2]]), (4.0, [[0, 1], [1, 2]])):
            assert oracle_disc_edges(positions, r_c) == want
            assert build_topology(positions, np.zeros(3, dtype=np.int64), r_c).edges.tolist() == want


def blob_labels(spec, sid):
    return {bc.label for bc in spec.blob_classes[sid]}


def draw(spec, subregion, m, seed):
    """The datasets sample_local_dataset draws for devices in the given
    subregions, one per device."""
    store, rows = sample_local_dataset(spec, np.asarray(subregion), m, seed)
    assert rows.shape == (len(subregion), m) and rows.dtype.kind == "i"
    return [store.gather(own) for own in rows]


class TestSyntheticBlobs:
    def test_blob_labels_partition_the_class_range(self):
        spec = synthetic_blob_spec(k=4, classes_per_subregion=2, seed=0)
        seen = []
        for sid in range(4):
            seen.extend(sorted(blob_labels(spec, sid)))
        assert sorted(seen) == list(range(8))
        assert seen == list(range(8))  # subregion j owns the j-th contiguous pair

    def test_sample_uses_only_owned_labels_without_mixing(self):
        spec = synthetic_blob_spec(k=4, classes_per_subregion=2, seed=0)
        for sid, data in zip([0, 1, 2, 3, 1], draw(spec, [0, 1, 2, 3, 1], 200, seed=11)):
            assert set(int(v) for v in np.unique(data.labels)) <= blob_labels(spec, sid)
            assert len(data) == 200
            assert data.features.min() >= 0.0 and data.features.max() <= 1.0

    def test_sampling_deterministic_and_seed_and_device_sensitive(self):
        # two devices of one subregion, one generator: each device its own
        # samples, the same on every draw from the seed, others from another
        spec = synthetic_blob_spec(k=2, classes_per_subregion=2, seed=4)
        a, b = draw(spec, [0, 0], 50, seed=9)
        again = draw(spec, [0, 0], 50, seed=9)
        c = draw(spec, [0], 50, seed=10)[0]
        assert np.array_equal(a.features, again[0].features)
        assert np.array_equal(b.features, again[1].features)
        assert not np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_draw_matches_the_per_sample_label_reference(self):
        spec = synthetic_blob_spec(k=3, classes_per_subregion=4, feature_dim=3, seed=2)
        for subregion in ([0, 1, 2], [2, 2, 0, 1, 0], [1]):
            gots = draw(spec, subregion, 70, seed=5)
            wants = reference_blob_draw(spec, subregion, 70, seed=5)
            for got, want in zip(gots, wants, strict=True):
                assert got.labels.dtype == want.labels.dtype == np.int64
                assert np.array_equal(got.labels, want.labels)
                assert got.features.tobytes() == want.features.tobytes()

    @pytest.mark.parametrize("block", [1, 48, 1000, 10**9])
    def test_the_noise_block_changes_no_bit(self, monkeypatch, block):
        # subregions of unequal class counts, and the noise drawn and shifted
        # a few samples at a time or all at once; the store in float32
        spec = DistributionSpec(
            "synthetic-blobs",
            blob_classes=(
                (BlobClass(0, (0.2, 0.3), 0.1),),
                (BlobClass(1, (0.7, 0.1), 0.05), BlobClass(2, (0.5, 0.9), 0.2)),
                tuple(BlobClass(3 + c, (0.1 * c, 0.5), 0.3) for c in range(5)),
            ),
        )
        monkeypatch.setattr(environment, "_DRAW_BLOCK_BYTES", block)
        subregion = np.array([2, 0, 1, 1, 2, 0, 2])
        store, rows = sample_local_dataset(spec, subregion, 33, seed=3, dtype=np.float32)
        assert store.features.dtype == np.float32
        assert np.array_equal(rows, np.arange(7 * 33).reshape(7, 33))
        wants = reference_blob_draw(spec, subregion, 33, seed=3)
        for own, want in zip(rows, wants, strict=True):
            got = store.gather(own)
            assert got.features.tobytes() == want.features.astype(np.float32).tobytes()
            assert np.array_equal(got.labels, want.labels)

    def test_subregions_out_of_range_are_rejected(self):
        spec = synthetic_blob_spec(k=2, seed=0)
        for bad in ([0, 2], [-1], [[0, 1]]):
            with pytest.raises(ValueError, match=r"subregions must be a 1-d array of ids in \[0, 2\)"):
                sample_local_dataset(spec, np.array(bad), 5, seed=0)
        with pytest.raises(ValueError, match="need at least one sample"):
            sample_local_dataset(spec, np.array([0]), 0, seed=0)

    def test_synthetic_sampling_ignores_epsilon(self):
        # mixing is an idx-label-skew feature; blobs always draw owned classes
        import dataclasses

        spec = synthetic_blob_spec(k=4, classes_per_subregion=2, seed=0)
        mixed = dataclasses.replace(spec, epsilon=0.5)
        data = draw(mixed, [0], 100, seed=2)[0]
        assert set(int(v) for v in np.unique(data.labels)) <= blob_labels(spec, 0)

    def test_different_subregions_get_disjoint_labels(self):
        spec = synthetic_blob_spec(k=4, classes_per_subregion=2, seed=0)
        d0, d3 = draw(spec, [0, 3], 100, seed=1)
        assert set(np.unique(d0.labels)).isdisjoint(np.unique(d3.labels))

    def test_blob_std_must_be_finite_and_positive(self):
        BlobClass(0, (0.0, 0.0), 0.5)
        for bad in (math.nan, math.inf, 0.0, -0.5):
            with pytest.raises(ValueError, match="finite and > 0"):
                BlobClass(0, (0.0, 0.0), bad)


class TestIdx:
    def test_round_trip_and_scaling(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 3, 4), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        data = load_idx(img, lbl)
        assert data.features.shape == (5, 12)
        assert np.allclose(forward_features(data)[2], images[2].ravel() / 255.0)
        assert np.array_equal(data.labels, labels)

    def test_features_are_the_bytes_over_255_bit_for_bit(self, tmp_path):
        # the store is the file's bytes; a forward pass reads bytes / 255.0
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2, 3])
        data = load_idx(img, lbl)
        assert data.features.dtype == np.uint8 and data.features.flags.c_contiguous
        assert np.array_equal(data.features, images.reshape(4, 64))
        features = forward_features(data)
        assert features.dtype == np.float64
        assert features.tobytes() == (images.reshape(4, 64) / 255.0).tobytes()

    def test_bad_magic_raises(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        raw = bytearray(open(img, "rb").read())
        raw[3] = 0x99
        open(img, "wb").write(bytes(raw))
        with pytest.raises(ValueError):
            load_idx(img, lbl)

    def test_truncated_raises(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        raw = open(img, "rb").read()
        open(img, "wb").write(raw[:-1])
        with pytest.raises(ValueError):
            load_idx(img, lbl)

    def test_count_mismatch_raises(self, tmp_path):
        import struct

        img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8), [0, 1, 2])
        short = tmp_path / "short-labels.idx"
        short.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        with pytest.raises(ValueError):
            load_idx(img, str(short))

    def test_label_skew_spec_chunks_labels_contiguously(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (60, 2, 2), dtype=np.uint8)
        labels = np.asarray(rng.integers(0, 10, 60), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        pool = load_idx(img, lbl)
        spec = idx_label_skew_spec(pool, k=4)
        owned = [spec.owned_labels[s] for s in range(4)]
        flat = [c for chunk in owned for c in chunk]
        assert flat == list(range(10))
        assert [len(c) for c in owned] == [3, 3, 2, 2]

    def test_idx_sampling_draws_from_owned_chunk(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, (200, 2, 2), dtype=np.uint8)
        labels = np.asarray(rng.integers(0, 4, 200), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        pool = load_idx(img, lbl)
        spec = idx_label_skew_spec(pool, k=2)
        for data in draw(spec, [1, 1, 1], 20, seed=0):
            assert set(np.unique(data.labels)) <= set(spec.owned_labels[1])

    def test_idx_epsilon_mixes_foreign_labels(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, (800, 2, 2), dtype=np.uint8)
        labels = np.asarray(rng.integers(0, 4, 800), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        pool = load_idx(img, lbl)
        spec = idx_label_skew_spec(pool, k=2, epsilon=0.5)
        data = draw(spec, [0], 300, seed=2)[0]
        own = set(spec.owned_labels[0])
        foreign = sum(1 for y in data.labels if int(y) not in own)
        assert 0.4 <= foreign / 300 <= 0.6

    def test_idx_small_epsilon_keeps_owned_majority(self, tmp_path):
        # with epsilon=0.1 and m=200, at least 160 samples carry owned labels
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, (2000, 2, 2), dtype=np.uint8)
        labels = np.asarray(rng.integers(0, 4, 2000), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        pool = load_idx(img, lbl)
        spec = idx_label_skew_spec(pool, k=2, epsilon=0.1)
        data = draw(spec, [0], 200, seed=3)[0]
        own = set(spec.owned_labels[0])
        owned_count = sum(1 for y in data.labels if int(y) in own)
        assert 160 <= owned_count <= 200

    def test_pool_exhausted_raises(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        labels = np.array([0, 0, 1, 1], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        pool = load_idx(img, lbl)
        spec = idx_label_skew_spec(pool, k=2)
        with pytest.raises(ValueError):
            sample_local_dataset(spec, np.array([0]), 50, seed=0)


class TestSampleLocalRows:
    def _spec(self, tmp_path, epsilon):
        rng = np.random.default_rng(8)
        images = rng.integers(0, 256, (300, 2, 3), dtype=np.uint8)
        labels = np.asarray(rng.integers(0, 6, 300), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        return idx_label_skew_spec(load_idx(img, lbl), k=3, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 0.2, 0.7])
    def test_rows_pick_the_sampled_dataset_bit_for_bit(self, tmp_path, epsilon):
        spec = self._spec(tmp_path, epsilon)
        for subregion in ([0, 1, 2], [2, 0, 2, 1, 1], [1]):
            rows = sample_local_rows(spec, np.array(subregion), 40, seed=4)
            assert rows.dtype == np.int64 and rows.shape == (len(subregion), 40)
            store, drawn = sample_local_dataset(spec, np.array(subregion), 40, seed=4)
            assert store is spec.pool and np.array_equal(drawn, rows)
            wants = reference_idx_draw(spec, subregion, 40, seed=4)
            for own, want in zip(rows, wants, strict=True):
                # a device's rows are distinct: picks without replacement
                assert len(set(own.tolist())) == 40
                picked = spec.pool.gather(own)
                assert np.array_equal(picked.features, want.features)
                assert np.array_equal(picked.labels, want.labels)

    @pytest.mark.parametrize("epsilon", [0.0, 0.3])
    @pytest.mark.parametrize("label_set", [range(6), (1, 4, 5, 9, 200)])
    def test_row_lists_are_the_isin_rows(self, tmp_path, epsilon, label_set):
        rng = np.random.default_rng(9)
        labels = rng.choice(np.array(label_set, dtype=np.uint8), 300)
        images = rng.integers(0, 256, (300, 2, 3), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        spec = idx_label_skew_spec(load_idx(img, lbl), k=3, epsilon=epsilon)
        for subregion in range(3):
            owned = np.isin(spec.pool.labels, spec.owned_labels[subregion])
            assert np.array_equal(spec.own_rows[subregion], np.flatnonzero(owned))
            assert np.array_equal(spec.other_rows[subregion], np.flatnonzero(~owned))
            rows = sample_local_rows(spec, np.array([subregion] * 2), 30, seed=1)
            wants = reference_idx_draw(spec, [subregion] * 2, 30, seed=1)
            for own, want in zip(rows, wants, strict=True):
                got = spec.pool.gather(own)
                assert np.array_equal(got.features, want.features)
                assert np.array_equal(got.labels, want.labels)

    def test_both_raise_the_same_pool_exhausted_error(self, tmp_path):
        spec = self._spec(tmp_path, 0.1)
        errors = []
        for sample in (sample_local_rows, sample_local_dataset):
            with pytest.raises(ValueError, match="pool exhausted for subregion 2") as info:
                sample(spec, np.array([2]), 250, seed=0)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_synthetic_blobs_have_no_rows(self):
        spec = synthetic_blob_spec(k=2, seed=0)
        with pytest.raises(ValueError, match="synthetic-blobs data has no pool"):
            sample_local_rows(spec, np.array([0]), 10, seed=0)
