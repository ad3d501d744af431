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
    topology_at,
)
from sparsefuel.fields import (
    FieldGraph,
    bfs_hops,
    broadcast_block,
    c_block,
    g_block,
    min_flood,
    s_block,
)


def leaders_of(flags):
    return set(np.flatnonzero(flags).tolist())


def field_4096_topology():
    """A 4096-device radio topology at the field-4096 density and radius, and
    a mask that keeps about two thirds of its edges, as a gated round does."""
    rng = np.random.default_rng(3)
    topo = topology_at(rng.uniform(0, 80, (4096, 2)), r_c=2.125)
    return topo, rng.random(len(topo.edges)) < 2 / 3


def assert_blocks_match_references(graph, sources):
    """min_flood, bfs_hops and g_block give what the synchronous-round
    references give, round counts included; g_block's parent is the lowest-uid
    neighbor at the least hop, and its source the root of the parent chain."""
    cand, rounds = min_flood(graph)
    assert (cand.tolist(), rounds) == reference_min_flood(graph)
    hops, rounds = reference_bfs_hops(graph, sources)
    got, got_rounds = bfs_hops(graph, sources)
    assert (got.tolist(), got_rounds) == (hops, rounds)
    field = g_block(graph, sources)
    for values in (field.hops, field.parent, field.source):
        assert values.dtype == np.int64 and values.shape == (graph.n,)
    assert field.hops.tolist() == hops
    adj, src = graph.adj, set(sources)
    for u in range(graph.n):
        if u in src or hops[u] == -1:
            want = -1
        else:
            best = min(hops[v] for v in adj[u])
            want = min(v for v in adj[u] if hops[v] == best)
        assert field.parent[u] == want
        root = u
        while field.parent[root] != -1:
            root = field.parent[root]
        assert field.source[u] == (-1 if hops[u] == -1 else root)


def assert_blocks_match_oracles(n, edges, sources):
    """The blocks on 0..n-1 agree with the union-find and queue-BFS oracles:
    component minima lead, hops are BFS distances (-1 where unreachable)."""
    graph = FieldGraph.from_edges(n, edges)
    comps = oracle_components(range(n), edges)
    cand, _ = min_flood(graph)
    assert cand.tolist() == [min(c) for u in range(n) for c in comps if u in c]
    assert leaders_of(s_block(graph)) == {min(c) for c in comps}
    dist = oracle_bfs(range(n), graph.adj, set(sources))
    assert bfs_hops(graph, sources)[0].tolist() == [-1 if d is None else d for d in dist.values()]
    assert_blocks_match_references(graph, sources)


class TestFieldGraph:
    def test_from_edges_basic(self):
        g = FieldGraph.from_edges(3, [(0, 1)])
        assert g.adj[0] == (1,)
        assert g.adj[1] == (0,)
        assert g.adj[2] == ()
        # the rows are closed neighborhoods: each node among its neighbors
        assert g.neighbors.tolist() == [0, 1, 0, 1, 2] and g.starts.tolist() == [0, 2, 4, 5]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            FieldGraph.from_edges(2, [(0, 0)])

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError):
            FieldGraph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError):
            FieldGraph.from_edges(2, [(-1, 1)])

    def test_from_edges_matches_set_normaliser(self):
        # edges in both orientations with duplicates, and now and then a self
        # loop or an end outside 0..n-1
        outcomes = {"graph": 0, "error": 0}
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 25))
            count = int(rng.integers(0, 60))
            edges = rng.integers(0, n, size=(count, 2))
            if count and seed % 7 == 0:
                edges[int(rng.integers(count)), 1] = int(rng.integers(-5, n + 5))
            if seed % 11 != 0:
                edges = edges[edges[:, 0] != edges[:, 1]]
            try:
                want = oracle_normalise_edges(n, edges)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    FieldGraph.from_edges(n, edges)
                assert str(got.value) == str(exc)
                outcomes["error"] += 1
                continue
            g = FieldGraph.from_edges(n, edges)
            assert g.n == n
            assert g.edges.dtype == np.int64 and g.edges.shape == want[0].shape
            assert np.array_equal(g.edges, want[0])
            assert not g.edges.flags.writeable
            assert g.adj == want[1] and list(g.adj) == list(want[1])
            outcomes["graph"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_from_edges_reports_the_first_bad_edge(self):
        with pytest.raises(ValueError, match="^self loop at node 4$"):
            FieldGraph.from_edges(6, [(0, 9), (4, 4), (2, 2)])
        with pytest.raises(ValueError, match="^edge 1-7 references an unknown node$"):
            FieldGraph.from_edges(6, [(9, 3), (7, 1), (0, 1)])
        with pytest.raises(ValueError, match="^edge -1-4 references an unknown node$"):
            FieldGraph.from_edges(6, [(2, 3), (4, -1), (0, 6)])

    def test_from_edges_on_the_field_4096_topology(self):
        # a masked subset of a large topology's edges, as similarity_graph
        # builds every round
        topo, keep = field_4096_topology()
        g = FieldGraph.from_topology(topo, keep)
        want = oracle_normalise_edges(4096, topo.edges[keep])
        assert np.array_equal(g.edges, want[0]) and g.adj == want[1]

    def test_from_topology_with_edge_filter(self):
        topo = topology_at([(0, 0), (1, 0), (2, 0)], r_c=1.5)
        g = FieldGraph.from_topology(topo)
        assert g.adj[1] == (0, 2)
        assert topo.edges.tolist() == [[0, 1], [1, 2]]
        filtered = FieldGraph.from_topology(topo, np.array([False, True]))
        assert filtered.n == 3 and not filtered.edges.flags.writeable
        assert filtered.adj[0] == ()
        assert filtered.adj[1] == (2,)


class TestSBlock:
    def test_two_components_elect_min_uids(self):
        g = FieldGraph.from_edges(3, [(0, 1)])
        assert leaders_of(s_block(g)) == {0, 2}

    def test_fully_connected_high_uids(self):
        # a clique on 5..12 beside five lone lower uids
        uids = list(range(5, 13))
        g = FieldGraph.from_edges(13, [(a, b) for a in uids for b in uids if a < b])
        assert leaders_of(s_block(g)) == {0, 1, 2, 3, 4, 5}

    def test_edgeless_graph_all_lead(self):
        g = FieldGraph.from_edges(4, [])
        assert leaders_of(s_block(g)) == {0, 1, 2, 3}

    def test_flood_is_idempotent_at_fixpoint(self):
        g = FieldGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        fixed, _ = min_flood(g)
        # apply one more synchronous min-over-closed-neighborhood step by hand
        again = [min([fixed[u]] + [fixed[v] for v in g.adj[u]]) for u in range(g.n)]
        assert again == fixed.tolist()


class TestGBlock:
    def test_path_single_source(self):
        g = FieldGraph.from_edges(3, [(0, 1), (1, 2)])
        f = g_block(g, {0})
        assert f.hops.tolist() == [0, 1, 2]
        assert f.parent.tolist() == [-1, 0, 1]
        assert f.source.tolist() == [0, 0, 0]

    def test_hop_tie_attaches_to_lower_uid_parent(self):
        g = FieldGraph.from_edges(3, [(0, 1), (1, 2)])
        f = g_block(g, {0, 2})
        assert f.hops[1] == 1
        assert f.parent[1] == 0
        assert f.source[1] == 0

    def test_disconnected_node_is_infinite(self):
        # "infinitely far": hop, parent and source -1
        g = FieldGraph.from_edges(3, [(0, 1)])
        f = g_block(g, {0})
        assert f.hops[2] == -1
        assert f.parent[2] == -1
        assert f.source[2] == -1

    def test_parent_consistency_on_random_graph(self):
        rng = np.random.default_rng(0)
        nodes = list(range(20))
        edges = [e for e in combinations(nodes, 2) if rng.random() < 0.15]
        g = FieldGraph.from_edges(20, edges)
        sources = {0, 7}
        f = g_block(g, sources)
        oracle = oracle_bfs(nodes, g.adj, sources)
        for u in nodes:
            expect = oracle[u] if oracle[u] is not None else -1
            assert f.hops[u] == expect
            if f.hops[u] > 0:
                assert f.hops[f.parent[u]] + 1 == f.hops[u]


class TestCBlock:
    def test_collects_component_sizes(self):
        g = FieldGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        f = g_block(g, {0, 3})
        totals = c_block(f, {u: 1 for u in range(g.n)}, lambda a, b: a + b, 0)
        assert totals == {0: 3, 3: 2}

    def test_collects_member_sets_via_union(self):
        g = FieldGraph.from_edges(4, [(0, 1), (1, 2)])
        f = g_block(g, {0, 3})
        got = c_block(
            f,
            {u: frozenset([u]) for u in range(g.n)},
            lambda a, b: a | b,
            frozenset(),
        )
        assert got == {0: frozenset({0, 1, 2}), 3: frozenset({3})}

    def test_missing_values_use_identity(self):
        g = FieldGraph.from_edges(2, [(0, 1)])
        f = g_block(g, {0})
        totals = c_block(f, {0: 5}, lambda a, b: a + b, 0)
        assert totals == {0: 5}


class TestBroadcastBlock:
    def test_reachable_nodes_receive_source_value(self):
        g = FieldGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        f = g_block(g, {0, 3})
        got = broadcast_block(f, {0: "a", 3: "b"})
        assert got == {0: "a", 1: "a", 2: "a", 3: "b", 4: "b"}

    def test_unreachable_nodes_are_absent(self):
        g = FieldGraph.from_edges(3, [(0, 1)])
        f = g_block(g, {0})
        got = broadcast_block(f, {0: 42})
        assert got == {0: 42, 1: 42}
        assert 2 not in got

    def test_missing_source_value_raises(self):
        g = FieldGraph.from_edges(2, [(0, 1)])
        f = g_block(g, {0})
        with pytest.raises(ValueError):
            broadcast_block(f, {})


def relabelled_residual(n, edges, removed):
    """The edges left when the removed node leaves, relabelled to 0..n-2 in
    uid order, which moves no min-uid leader and no lowest-uid parent."""
    label = lambda u: u - (u > removed)  # noqa: E731
    return [(label(a), label(b)) for a, b in edges if removed not in (a, b)]


def after_removal(n, edges, removed):
    """Leader flags and the hop field rooted at the leaders, as a round
    computes them on the graph left when the removed node leaves."""
    residual = FieldGraph.from_edges(n - 1, relabelled_residual(n, edges, removed))
    flags = s_block(residual)
    return flags, g_block(residual, np.flatnonzero(flags))


class TestStabilizeAfterRemoval:
    """The blocks restart on the residual graph every round, so a node that
    leaves is handled by the same s_block and g_block.  The residual graph's
    uids are relabelled to 0..n-2 in uid order."""

    def test_remove_leader_elects_next_lowest(self):
        flags, _ = after_removal(3, [(0, 1), (1, 2)], 0)
        assert leaders_of(flags) == {0}  # uid 1

    def test_remove_non_leader_leaf_keeps_leaders(self):
        flags, _ = after_removal(3, [(0, 1), (1, 2)], 2)
        assert leaders_of(flags) == {0}

    def test_remove_cut_vertex_splits_component(self):
        flags, field = after_removal(3, [(0, 1), (1, 2)], 1)
        assert leaders_of(flags) == {0, 1}  # uids 0 and 2
        assert field.hops.tolist() == [0, 0]

    def test_matches_from_scratch_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
            rm = int(rng.integers(0, n))
            flags, field = after_removal(n, edges, rm)
            res_edges = relabelled_residual(n, edges, rm)
            comps = oracle_components(range(n - 1), res_edges)
            assert leaders_of(flags) == {min(c) for c in comps}
            oracle = oracle_bfs(
                range(n - 1), FieldGraph.from_edges(n - 1, res_edges).adj, leaders_of(flags)
            )
            assert field.hops.tolist() == [d if d is not None else -1 for d in oracle.values()]


class TestMatchesSynchronousReferences:
    def test_random_graphs_and_source_sets(self):
        # 1 to 24 uids, any number of components, sources among them (repeats
        # allowed, none at times) or the component minima
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(1, 25))
            p = rng.uniform(0.0, 0.3)
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            k = int(rng.integers(0, min(n, 4) + 1))
            sources = rng.choice(n, size=k, replace=bool(rng.integers(2))).tolist()
            assert_blocks_match_oracles(n, edges, sources)
            g = FieldGraph.from_edges(n, edges)
            assert_blocks_match_references(g, np.flatnonzero(s_block(g)))

    def test_empty_graph_and_no_sources(self):
        empty = FieldGraph.from_edges(0, [])
        cand, rounds = min_flood(empty)
        assert (cand.tolist(), rounds) == reference_min_flood(empty) == ([], 1)
        hops, rounds = bfs_hops(empty, set())
        assert (hops.tolist(), rounds) == reference_bfs_hops(empty, set()) == ([], 1)
        g = FieldGraph.from_edges(3, [(0, 1), (1, 2)])
        hops, rounds = bfs_hops(g, set())
        assert (hops.tolist(), rounds) == reference_bfs_hops(g, set()) == ([-1, -1, -1], 1)

    def test_single_nodes_lone_nodes_and_repeated_sources(self):
        assert_blocks_match_oracles(1, [], [])
        assert_blocks_match_oracles(1, [], [0, 0])
        assert_blocks_match_oracles(5, [], [3, 1, 3])
        # lone nodes 0, 4 and 7 beside a path and a triangle
        edges = [(1, 2), (2, 3), (5, 6), (6, 8), (5, 8)]
        for sources in ([], [2], [2, 2, 6], [0, 4, 7], [8, 1, 8]):
            assert_blocks_match_oracles(9, edges, sources)
        with pytest.raises(ValueError, match=r"^sources \[-1, 9\] not in graph$"):
            bfs_hops(FieldGraph.from_edges(9, edges), [9, 2, -1, 9])

    def test_a_300_node_path_settles_in_n_rounds(self):
        # uid 299 lies 299 hops from uid 0: 299 rounds carry the minimum and
        # the hop count there, and one more confirms it
        edges = [(u, u + 1) for u in range(299)]
        assert_blocks_match_oracles(300, edges, [0])
        g = FieldGraph.from_edges(300, edges)
        assert min_flood(g)[1] == bfs_hops(g, [0])[1] == 300
        field = g_block(g, [0])
        assert field.parent.tolist() == list(range(-1, 299))
        assert not field.source.any()

    def test_field_4096_topology_whole_and_gated(self):
        topo, keep = field_4096_topology()
        for g in (FieldGraph.from_topology(topo), FieldGraph.from_topology(topo, keep)):
            assert_blocks_match_references(g, np.flatnonzero(s_block(g)))


class TestConvergenceBound:
    def test_rounds_within_diameter_plus_one(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            nodes = list(range(n))
            edges = [e for e in combinations(nodes, 2) if rng.random() < 0.25]
            g = FieldGraph.from_edges(n, edges)
            diam = oracle_diameter(nodes, g.adj)
            flood, flood_rounds = min_flood(g)
            assert flood_rounds <= diam + 1
            assert (flood.tolist(), flood_rounds) == reference_min_flood(g)
            sources = {0} if nodes else set()
            hops, bfs_rounds = bfs_hops(g, sources)
            assert bfs_rounds <= diam + 1
            assert (hops.tolist(), bfs_rounds) == reference_bfs_hops(g, sources)
