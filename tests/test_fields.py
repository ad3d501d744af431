from itertools import combinations

import numpy as np
import pytest

from conftest import (
    oracle_bfs,
    oracle_components,
    oracle_diameter,
    oracle_normalise_edges,
    reference_bfs_hops,
    reference_min_flood,
)
from sparsefuel.environment import DeviceSite, build_topology
from sparsefuel.fields import (
    INFINITE,
    FieldGraph,
    bfs_hops,
    broadcast_block,
    c_block,
    g_block,
    min_flood,
    s_block,
)


def leaders_of(flags):
    return {u for u, f in flags.items() if f}


def field_4096_topology():
    """A 4096-device radio topology at the field-4096 density and radius, and
    a mask that keeps about two thirds of its edges, as a gated round does."""
    rng = np.random.default_rng(3)
    xy = rng.uniform(0, 80, (4096, 2)).tolist()
    topo = build_topology([DeviceSite(u, x, y, 0) for u, (x, y) in enumerate(xy)], r_c=2.125)
    return topo, rng.random(len(topo.edges)) < 2 / 3


def assert_blocks_match_references(graph, sources):
    """min_flood, bfs_hops and g_block give what the synchronous-round
    references give, round counts included; g_block's parent is the lowest-uid
    neighbor at the least hop, and its source the root of the parent chain."""
    assert min_flood(graph) == reference_min_flood(graph)
    hops, rounds = reference_bfs_hops(graph, sources)
    assert bfs_hops(graph, sources) == (hops, rounds)
    field = g_block(graph, sources)
    assert field.hops == hops
    for u in graph.nodes:
        if u in sources or hops[u] == INFINITE:
            want = None
        else:
            best = min(hops[v] for v in graph.adj[u])
            want = min(v for v in graph.adj[u] if hops[v] == best)
        assert field.parent[u] == want
        root = u
        while field.parent[root] is not None:
            root = field.parent[root]
        assert field.source[u] == (None if hops[u] == INFINITE else root)


class TestFieldGraph:
    def test_from_edges_basic(self):
        g = FieldGraph.from_edges([0, 1, 2], [(0, 1)])
        assert g.adj[0] == (1,)
        assert g.adj[1] == (0,)
        assert g.adj[2] == ()

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            FieldGraph.from_edges([0, 1], [(0, 0)])

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError):
            FieldGraph.from_edges([0, 1], [(0, 5)])

    def test_from_edges_matches_set_normaliser(self):
        # random node sets (gaps, negative uids), edges in both orientations
        # with duplicates, and now and then a self loop or an unknown end
        outcomes = {"graph": 0, "error": 0}
        for seed in range(300):
            rng = np.random.default_rng(seed)
            pool = rng.choice(np.arange(-5, 40), size=int(rng.integers(1, 25)), replace=False)
            nodes = rng.permutation(pool).tolist()
            count = int(rng.integers(0, 60))
            edges = rng.choice(pool, size=(count, 2))
            if count and seed % 7 == 0:
                edges[int(rng.integers(count)), 1] = int(rng.integers(-5, 40))
            if seed % 11 != 0:
                edges = edges[edges[:, 0] != edges[:, 1]]
            try:
                want = oracle_normalise_edges(nodes, edges)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    FieldGraph.from_edges(nodes, edges)
                assert str(got.value) == str(exc)
                outcomes["error"] += 1
                continue
            g = FieldGraph.from_edges(nodes, edges)
            assert g.nodes == want[0]
            assert g.edges.dtype == np.int64 and g.edges.shape == want[1].shape
            assert np.array_equal(g.edges, want[1])
            assert not g.edges.flags.writeable
            assert g.adj == want[2] and list(g.adj) == list(want[2])
            outcomes["graph"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_from_edges_reports_the_first_bad_edge(self):
        with pytest.raises(ValueError, match="^self loop at node 4$"):
            FieldGraph.from_edges(range(6), [(0, 9), (4, 4), (2, 2)])
        with pytest.raises(ValueError, match="^edge 1-7 references an unknown node$"):
            FieldGraph.from_edges(range(6), [(9, 3), (7, 1), (0, 1)])

    def test_from_edges_on_the_field_4096_topology(self):
        # a masked subset of a large topology's edges, as similarity_graph
        # builds every round
        topo, keep = field_4096_topology()
        g = FieldGraph.from_topology(topo, keep)
        want = oracle_normalise_edges(range(4096), topo.edges[keep])
        assert np.array_equal(g.edges, want[1]) and g.adj == want[2]

    def test_from_topology_with_edge_filter(self):
        sites = [DeviceSite(0, 0, 0, 0), DeviceSite(1, 1, 0, 0), DeviceSite(2, 2, 0, 0)]
        topo = build_topology(sites, r_c=1.5)
        g = FieldGraph.from_topology(topo)
        assert g.adj[1] == (0, 2)
        assert topo.edges.tolist() == [[0, 1], [1, 2]]
        filtered = FieldGraph.from_topology(topo, np.array([False, True]))
        assert filtered.adj[0] == ()
        assert filtered.adj[1] == (2,)


class TestSBlock:
    def test_two_components_elect_min_uids(self):
        g = FieldGraph.from_edges([0, 1, 2], [(0, 1)])
        assert leaders_of(s_block(g)) == {0, 2}

    def test_fully_connected_high_uids(self):
        uids = list(range(5, 13))
        edges = [(a, b) for a in uids for b in uids if a < b]
        g = FieldGraph.from_edges(uids, edges)
        assert leaders_of(s_block(g)) == {5}

    def test_edgeless_graph_all_lead(self):
        g = FieldGraph.from_edges([3, 1, 4, 1 + 5], [])
        assert leaders_of(s_block(g)) == {1, 3, 4, 6}

    def test_flood_is_idempotent_at_fixpoint(self):
        g = FieldGraph.from_edges(list(range(6)), [(0, 1), (1, 2), (3, 4)])
        fixed, _ = min_flood(g)
        # apply one more synchronous min-over-closed-neighborhood step by hand
        again = {
            u: min([fixed[u]] + [fixed[v] for v in g.adj[u]]) for u in g.nodes
        }
        assert again == fixed


class TestGBlock:
    def test_path_single_source(self):
        g = FieldGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
        f = g_block(g, {0})
        assert [f.hops[u] for u in (0, 1, 2)] == [0, 1, 2]
        assert f.parent[0] is None
        assert f.parent[1] == 0 and f.parent[2] == 1
        assert all(f.source[u] == 0 for u in (0, 1, 2))

    def test_hop_tie_attaches_to_lower_uid_parent(self):
        g = FieldGraph.from_edges([0, 1, 2], [(0, 1), (1, 2)])
        f = g_block(g, {0, 2})
        assert f.hops[1] == 1
        assert f.parent[1] == 0
        assert f.source[1] == 0

    def test_disconnected_node_is_infinite(self):
        g = FieldGraph.from_edges([0, 1, 9], [(0, 1)])
        f = g_block(g, {0})
        assert f.hops[9] == INFINITE
        assert f.parent[9] is None
        assert f.source[9] is None

    def test_parent_consistency_on_random_graph(self):
        rng = np.random.default_rng(0)
        nodes = list(range(20))
        edges = [e for e in combinations(nodes, 2) if rng.random() < 0.15]
        g = FieldGraph.from_edges(nodes, edges)
        sources = {0, 7}
        f = g_block(g, sources)
        oracle = oracle_bfs(nodes, {u: g.adj[u] for u in nodes}, sources)
        for u in nodes:
            expect = oracle[u] if oracle[u] is not None else INFINITE
            assert f.hops[u] == expect
            if f.hops[u] not in (0, INFINITE):
                assert f.hops[f.parent[u]] + 1 == f.hops[u]


class TestCBlock:
    def test_collects_component_sizes(self):
        g = FieldGraph.from_edges([0, 1, 2, 3, 4], [(0, 1), (1, 2), (3, 4)])
        f = g_block(g, {0, 3})
        totals = c_block(f, {u: 1 for u in g.nodes}, lambda a, b: a + b, 0)
        assert totals == {0: 3, 3: 2}

    def test_collects_member_sets_via_union(self):
        g = FieldGraph.from_edges([0, 1, 2, 3], [(0, 1), (1, 2)])
        f = g_block(g, {0, 3})
        got = c_block(
            f,
            {u: frozenset([u]) for u in g.nodes},
            lambda a, b: a | b,
            frozenset(),
        )
        assert got == {0: frozenset({0, 1, 2}), 3: frozenset({3})}

    def test_missing_values_use_identity(self):
        g = FieldGraph.from_edges([0, 1], [(0, 1)])
        f = g_block(g, {0})
        totals = c_block(f, {0: 5}, lambda a, b: a + b, 0)
        assert totals == {0: 5}


class TestBroadcastBlock:
    def test_reachable_nodes_receive_source_value(self):
        g = FieldGraph.from_edges([0, 1, 2, 3, 9], [(0, 1), (1, 2), (3, 9)])
        f = g_block(g, {0, 3})
        got = broadcast_block(f, {0: "a", 3: "b"})
        assert got == {0: "a", 1: "a", 2: "a", 3: "b", 9: "b"}

    def test_unreachable_nodes_are_absent(self):
        g = FieldGraph.from_edges([0, 1, 7], [(0, 1)])
        f = g_block(g, {0})
        got = broadcast_block(f, {0: 42})
        assert got == {0: 42, 1: 42}
        assert 7 not in got

    def test_missing_source_value_raises(self):
        g = FieldGraph.from_edges([0, 1], [(0, 1)])
        f = g_block(g, {0})
        with pytest.raises(ValueError):
            broadcast_block(f, {})


def after_removal(nodes, edges, removed):
    """Leader flags and the hop field rooted at the leaders, as a round
    computes them on the graph left when the removed node leaves."""
    residual = FieldGraph.from_edges(
        [u for u in nodes if u != removed], [e for e in edges if removed not in e]
    )
    flags = s_block(residual)
    return flags, g_block(residual, leaders_of(flags))


class TestStabilizeAfterRemoval:
    """The blocks restart on the residual graph every round, so a node that
    leaves is handled by the same s_block and g_block."""

    def test_remove_leader_elects_next_lowest(self):
        flags, _ = after_removal([0, 1, 2], [(0, 1), (1, 2)], 0)
        assert leaders_of(flags) == {1}

    def test_remove_non_leader_leaf_keeps_leaders(self):
        flags, _ = after_removal([0, 1, 2], [(0, 1), (1, 2)], 2)
        assert leaders_of(flags) == {0}

    def test_remove_cut_vertex_splits_component(self):
        flags, field = after_removal([0, 1, 2], [(0, 1), (1, 2)], 1)
        assert leaders_of(flags) == {0, 2}
        assert field.hops[0] == 0 and field.hops[2] == 0

    def test_matches_from_scratch_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            nodes = list(range(n))
            edges = [e for e in combinations(nodes, 2) if rng.random() < 0.3]
            g = FieldGraph.from_edges(nodes, edges)
            rm = int(rng.integers(0, n))
            flags, field = after_removal(nodes, edges, rm)
            res_nodes = [u for u in nodes if u != rm]
            res_edges = [(a, b) for a, b in edges if rm not in (a, b)]
            comps = oracle_components(res_nodes, res_edges)
            assert leaders_of(flags) == {min(c) for c in comps}
            oracle = oracle_bfs(
                res_nodes,
                {u: [v for v in g.adj[u] if v != rm] for u in res_nodes},
                leaders_of(flags),
            )
            for u in res_nodes:
                expect = oracle[u] if oracle[u] is not None else INFINITE
                assert field.hops[u] == expect


class TestMatchesSynchronousReferences:
    def test_random_graphs_and_source_sets(self):
        # 1 to 24 uids with gaps, any number of components, sources among
        # them or the component minima
        rng = np.random.default_rng(41)
        for _ in range(300):
            nodes = sorted(rng.choice(96, size=int(rng.integers(1, 25)), replace=False).tolist())
            p = rng.uniform(0.0, 0.3)
            g = FieldGraph.from_edges(nodes, [e for e in combinations(nodes, 2) if rng.random() < p])
            k = int(rng.integers(0, min(len(nodes), 4) + 1))
            sources = set(rng.choice(nodes, size=k, replace=False).tolist())
            assert_blocks_match_references(g, sources)
            assert_blocks_match_references(g, leaders_of(s_block(g)))

    def test_empty_graph_and_no_sources(self):
        empty = FieldGraph.from_edges([], [])
        assert min_flood(empty) == reference_min_flood(empty) == ({}, 1)
        assert bfs_hops(empty, set()) == reference_bfs_hops(empty, set()) == ({}, 1)
        g = FieldGraph.from_edges([2, 5, 7], [(2, 5), (5, 7)])
        assert bfs_hops(g, set()) == reference_bfs_hops(g, set())
        assert bfs_hops(g, set())[1] == 1

    def test_field_4096_topology_whole_and_gated(self):
        topo, keep = field_4096_topology()
        for g in (FieldGraph.from_topology(topo), FieldGraph.from_topology(topo, keep)):
            assert_blocks_match_references(g, leaders_of(s_block(g)))


class TestConvergenceBound:
    def test_rounds_within_diameter_plus_one(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            nodes = list(range(n))
            edges = [e for e in combinations(nodes, 2) if rng.random() < 0.25]
            g = FieldGraph.from_edges(nodes, edges)
            diam = oracle_diameter(nodes, {u: g.adj[u] for u in nodes})
            flood, flood_rounds = min_flood(g)
            assert flood_rounds <= diam + 1
            assert (flood, flood_rounds) == reference_min_flood(g)
            sources = {0} if nodes else set()
            hops, bfs_rounds = bfs_hops(g, sources)
            assert bfs_rounds <= diam + 1
            assert (hops, bfs_rounds) == reference_bfs_hops(g, sources)
