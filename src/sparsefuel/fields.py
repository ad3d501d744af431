"""Self-organizing field blocks over a communication graph.

These are the graph-wide building blocks the protocol composes each round:
leader election per connected component (min uid), a hop-count gradient field
rooted at the leaders, tree-based value collection toward each leader, and
broadcast of a leader's value back down its tree.  Each block gives the
fixpoint of a synchronous per-node update, computed in one breadth-first pass
rather than by running the rounds; min_flood and bfs_hops also report how many
synchronous rounds reaching it takes, at most (component diameter + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import numpy as np

INFINITE = math.inf


@dataclass(frozen=True, eq=False)
class FieldGraph:
    """Undirected graph over device uids, without self loops.

    edges is the sorted, read-only (E, 2) int64 array of its edges, one row
    (i, j) with i < j per edge; adj maps each node to its neighbors in
    ascending order.  Build it with from_edges or from_topology, which read
    adj off the edges.
    """

    nodes: tuple[int, ...]
    edges: np.ndarray
    adj: dict[int, tuple[int, ...]]

    @staticmethod
    def from_edges(
        nodes: Iterable[int], edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "FieldGraph":
        """Graph over the nodes; edges are (a, b) pairs in any order and
        orientation, duplicates collapsing to one edge."""
        nodes = tuple(sorted(set(int(u) for u in nodes)))
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"self loop at node {int(pairs[loops.argmax(), 0])}")
        # each edge once, as its row (i, j) with i < j, the rows sorted (a
        # lexsort and a compare of neighbors: np.unique(axis=0) gives the
        # same rows at four times the cost)
        rows = np.sort(pairs, axis=1)
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        edge_array = rows[first]
        node_array = np.array(nodes, dtype=np.int64)
        unknown = ~np.isin(edge_array, node_array).all(axis=1)
        if unknown.any():
            a, b = edge_array[unknown.argmax()].tolist()
            raise ValueError(f"edge {a}-{b} references an unknown node")
        # both ends of every edge grouped by node: a stable sort keeps each
        # node's lower neighbors (edges (j, u), by j) ahead of its higher ones
        # (edges (u, j), by j), so every group is ascending
        ends = np.concatenate([edge_array[:, ::-1], edge_array])
        ends = ends[np.argsort(ends[:, 0], kind="stable")]
        neighbors = ends[:, 1].tolist()
        starts = np.searchsorted(ends[:, 0], node_array, side="left").tolist()
        stops = np.searchsorted(ends[:, 0], node_array, side="right").tolist()
        adj = {u: tuple(neighbors[lo:hi]) for u, lo, hi in zip(nodes, starts, stops)}
        # the topology, its scores and its gated graphs share this array
        edge_array.flags.writeable = False
        return FieldGraph(nodes, edge_array, adj)

    @staticmethod
    def from_topology(topology, keep: np.ndarray | None = None) -> "FieldGraph":
        """The topology's graph, or the graph over all its uids with only the
        edges whose entry in the boolean mask keep (aligned with
        topology.edges) is true."""
        if keep is None:
            return topology.graph
        return FieldGraph.from_edges(topology.graph.nodes, topology.edges[keep])


@dataclass
class GradientField:
    """Hop distances from the nearest source, with parent links toward it.

    hops is INFINITE for nodes no source reaches; such nodes have no parent
    and no source.  A source has hop 0 and is its own source.
    """

    hops: dict[int, float]
    parent: dict[int, int | None]
    source: dict[int, int | None]


def _breadth_first(graph: FieldGraph, roots: Iterable[int], hops: dict[int, float]) -> list[int]:
    """Breadth-first from the roots (hop 0) over the nodes hops holds as
    INFINITE, writing their hops; returns the roots and nodes reached, in order."""
    order = list(roots)
    hops.update(dict.fromkeys(order, 0.0))
    for u in order:
        for v in graph.adj[u]:
            if hops[v] == INFINITE:
                hops[v] = hops[u] + 1
                order.append(v)
    return order


def min_flood(graph: FieldGraph) -> tuple[dict[int, int], int]:
    """Fixpoint of "my candidate = min over closed neighborhood", and the
    synchronous rounds to reach it, including the final confirming round that
    changes nothing.  After t rounds a node holds the minimum of its t-hop
    ball, so the count is one more than the largest hop from a node to its
    component's minimum."""
    hops = dict.fromkeys(graph.nodes, INFINITE)
    cand = dict.fromkeys(graph.nodes)
    for u in graph.nodes:  # ascending: a uid not yet reached is its component's minimum
        if hops[u] == INFINITE:
            cand.update(dict.fromkeys(_breadth_first(graph, (u,), hops), u))
    return cand, int(max(hops.values(), default=0.0)) + 1


def s_block(graph: FieldGraph) -> dict[int, bool]:
    """Leader flags: the minimum uid of each connected component leads it."""
    cand, _ = min_flood(graph)
    return {u: cand[u] == u for u in graph.nodes}


def bfs_hops(graph: FieldGraph, sources: Iterable[int]) -> tuple[dict[int, float], int]:
    """Fixpoint of the synchronous hop-count relaxation from the sources: hop
    distances (INFINITE where unreachable), and the rounds to reach it,
    including the final confirming round: the largest finite hop plus one, or
    1 without sources."""
    src = set(int(s) for s in sources)
    unknown = src - set(graph.nodes)
    if unknown:
        raise ValueError(f"sources {sorted(unknown)} not in graph")
    hops = dict.fromkeys(graph.nodes, INFINITE)
    reached = _breadth_first(graph, src, hops)
    return hops, int(hops[reached[-1]]) + 1 if reached else 1


def g_block(graph: FieldGraph, sources: Iterable[int]) -> GradientField:
    """Hop field from the sources; parents choose the lowest-uid neighbor
    among those at minimal hop distance, and source is the parent chain's root."""
    src = set(int(s) for s in sources)
    hops, _ = bfs_hops(graph, src)
    parent: dict[int, int | None] = dict.fromkeys(graph.nodes)
    source: dict[int, int | None] = {}
    # (hops, uid) order, a stable sort of the ascending uids, puts parents first
    for u in sorted(graph.nodes, key=hops.__getitem__):
        if u in src:
            source[u] = u
        elif hops[u] == INFINITE:
            source[u] = None
        else:
            parent[u] = next(v for v in graph.adj[u] if hops[v] == hops[u] - 1)
            source[u] = source[parent[u]]
    return GradientField(hops, parent, source)


def c_block(
    field: GradientField,
    values: Mapping[int, Any],
    combine: Callable[[Any, Any], Any],
    identity: Any,
) -> dict[int, Any]:
    """Aggregate every reachable node's value up the tree to its source.

    combine must be associative and commutative with the given identity; a
    node missing from values contributes the identity.  At each node the own
    value is folded with the children's accumulations in ascending-uid order,
    which fixes the floating-point evaluation order.
    """
    children: dict[int, list[int]] = {u: [] for u in field.hops}
    for u, p in field.parent.items():
        if p is not None:
            children[p].append(u)
    acc: dict[int, Any] = {}
    reachable = [u for u in field.hops if field.hops[u] != INFINITE]
    for u in sorted(reachable, key=lambda v: (-field.hops[v], v)):
        value = values.get(u, identity)
        for c in sorted(children[u]):
            value = combine(value, acc[c])
        acc[u] = value
    return {u: acc[u] for u in reachable if field.source[u] == u}


def broadcast_block(field: GradientField, source_values: Mapping[int, Any]) -> dict[int, Any]:
    """Give every reachable node its source's value; unreachable nodes get none."""
    out = {}
    for u, s in field.source.items():
        if s is None:
            continue
        if s not in source_values:
            raise ValueError(f"missing value for source {s}")
        out[u] = source_values[s]
    return out

