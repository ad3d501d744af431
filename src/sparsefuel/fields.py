"""Self-organizing field blocks over a communication graph.

These are the graph-wide building blocks the protocol composes each round:
leader election per connected component (min uid), a hop-count gradient field
rooted at the leaders, tree-based value collection toward each leader, and
broadcast of a leader's value back down its tree.  Each block runs its
synchronous per-node update on a whole int array over the uids 0..n-1 until a
round changes nothing; min_flood and bfs_hops also report the rounds run, at
most (component diameter + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

import numpy as np


@dataclass(frozen=True, eq=False)
class FieldGraph:
    """Undirected graph over the uids 0..n-1, without self loops.

    edges is the sorted, read-only (E, 2) int64 array of its edges, one row
    (i, j) with i < j per edge.  neighbors and starts are its compressed
    sparse rows of closed neighborhoods: node u and its neighbors, in
    ascending order, are neighbors[starts[u]:starts[u + 1]], so no row is
    empty.  Build it with from_edges or from_topology, which read the rows
    off the edges.
    """

    n: int
    edges: np.ndarray
    neighbors: np.ndarray
    starts: np.ndarray

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "FieldGraph":
        """Graph over the uids 0..n-1; edges are (a, b) pairs in any order and
        orientation, duplicates collapsing to one edge."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        loops = pairs[:, 0] == pairs[:, 1]
        if loops.any():
            raise ValueError(f"self loop at node {int(pairs[loops.argmax(), 0])}")
        rows = np.sort(pairs, axis=1)
        unknown = rows[(rows[:, 0] < 0) | (rows[:, 1] >= n)].tolist()
        if unknown:
            a, b = min(unknown)
            raise ValueError(f"edge {a}-{b} references an unknown node")
        # each edge once, as its row (i, j) with i < j, the rows sorted (not by
        # np.unique, whose masked-array check imports numpy.ma: 0.8 MB of RSS)
        keys = np.sort(rows[:, 0] * n + rows[:, 1])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return FieldGraph._from_sorted(n, np.stack([keys // n, keys % n], axis=1))

    @staticmethod
    def from_topology(topology, keep: np.ndarray | None = None) -> "FieldGraph":
        """The topology's graph, or the graph over all its uids with only the
        edges whose entry in the boolean mask keep (aligned with
        topology.edges) is true."""
        if keep is None:
            return topology.graph
        # rows picked from a sorted edge array are sorted and distinct already
        return FieldGraph._from_sorted(topology.graph.n, topology.edges[keep])

    @staticmethod
    def _from_sorted(n: int, edges: np.ndarray) -> "FieldGraph":
        """The graph of a sorted (E, 2) array of distinct rows (i, j), i < j,
        over 0..n-1."""
        # closed neighborhoods grouped by node: a stable sort keeps each node's
        # lower neighbors (edges (j, u), by j), then the node, then its higher
        # neighbors (edges (u, j), by j), so every group is ascending
        uids = np.arange(n)
        nodes = np.concatenate([edges[:, 1], uids, edges[:, 0]])
        order = np.argsort(nodes, kind="stable")
        neighbors = np.concatenate([edges[:, 0], uids, edges[:, 1]])[order]
        # the topology, its scores and its gated graphs share this array
        edges.flags.writeable = False
        return FieldGraph(n, edges, neighbors, np.searchsorted(nodes[order], np.arange(n + 1)))

    @property
    def adj(self) -> dict[int, tuple[int, ...]]:
        """Each uid's neighbors as an ascending tuple, built on every read:
        perfbench's tracer counts edges with it."""
        closed, starts = self.neighbors.tolist(), self.starts.tolist()
        return {
            u: tuple(v for v in closed[starts[u] : starts[u + 1]] if v != u) for u in range(self.n)
        }


@dataclass
class GradientField:
    """Hop distances from the nearest source, with parent links toward it,
    as int arrays indexed by uid.

    hops is -1 at nodes no source reaches; such nodes have parent and source
    -1.  A source has hop 0 and parent -1, and is its own source.
    """

    hops: np.ndarray
    parent: np.ndarray
    source: np.ndarray


def _closed_min(graph: FieldGraph, field: np.ndarray) -> np.ndarray:
    """One synchronous round of "each node takes the minimum of the field
    over its closed neighborhood"."""
    return np.minimum.reduceat(field[graph.neighbors], graph.starts[:-1])


def _fixpoint(step: Callable, field: np.ndarray) -> tuple[np.ndarray, int]:
    """Run step on the field until a round changes nothing: the fixpoint,
    and the rounds run, the final confirming round included."""
    rounds, new = 1, step(field)
    while not np.array_equal(new, field):
        field, new = new, step(new)
        rounds += 1
    return field, rounds


def min_flood(graph: FieldGraph) -> tuple[np.ndarray, int]:
    """Fixpoint of "my candidate = min over closed neighborhood" from each
    node's own uid, and the synchronous rounds to reach it, including the
    final confirming round that changes nothing.  After t rounds a node holds
    the minimum of its t-hop ball, so the count is one more than the largest
    hop from a node to its component's minimum."""
    return _fixpoint(lambda cand: _closed_min(graph, cand), np.arange(graph.n))


def s_block(graph: FieldGraph) -> np.ndarray:
    """Leader flags by uid: the minimum uid of each connected component leads it."""
    cand, _ = min_flood(graph)
    return cand == np.arange(graph.n)


def bfs_hops(graph: FieldGraph, sources: Iterable[int]) -> tuple[np.ndarray, int]:
    """Fixpoint of the synchronous hop-count relaxation "my hop = min(mine,
    a neighbor's + 1)" from the sources at hop 0: hop distances (-1 where
    unreachable), and the rounds to reach it, including the final confirming
    round: the largest hop plus one, or 1 without sources."""
    src = np.fromiter(sources, dtype=np.int64)
    unknown = src[(src < 0) | (src >= graph.n)]
    if len(unknown):
        raise ValueError(f"sources {sorted(set(unknown.tolist()))} not in graph")
    # n stands for "not reached": every hop is lower, and n + 1 does not lower it
    hops = np.full(graph.n, graph.n)
    hops[src] = 0
    hops, rounds = _fixpoint(lambda h: np.minimum(h, _closed_min(graph, h) + 1), hops)
    return np.where(hops < graph.n, hops, -1), rounds


def g_block(graph: FieldGraph, sources: Iterable[int]) -> GradientField:
    """Hop field from the sources; parents choose the lowest-uid neighbor
    among those at minimal hop distance, and source is the parent chain's root."""
    hops, _ = bfs_hops(graph, sources)
    uids = np.arange(graph.n)
    # no neighbor of a reached node is more than one hop closer, so the least
    # (hops, uid) of its closed neighborhood, as hops * n + uid, is its parent
    # (or itself at a source)
    least = _closed_min(graph, hops * graph.n + uids)
    parent = np.where(hops > 0, least % graph.n, -1)
    # every round a node's pointer skips to its pointer's pointer, until each
    # points at the root of its parent chain
    root, _ = _fixpoint(lambda r: r[r], np.where(parent >= 0, parent, uids))
    return GradientField(hops, parent, np.where(hops >= 0, root, -1))


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
    acc = {u: values.get(u, identity) for u in np.flatnonzero(field.hops >= 0).tolist()}
    parent = field.parent.tolist()
    below = np.flatnonzero(field.hops > 0)
    # farthest first, ascending uid at equal hops: a node's children fold into
    # it one by one in ascending uid, each complete, before it folds into its parent
    for u in below[np.argsort(-field.hops[below], kind="stable")].tolist():
        acc[parent[u]] = combine(acc[parent[u]], acc[u])
    return {u: acc[u] for u in np.flatnonzero(field.hops == 0).tolist()}


def broadcast_block(field: GradientField, source_values: Mapping[int, Any]) -> dict[int, Any]:
    """Give every reachable node its source's value; unreachable nodes get none."""
    source = field.source.tolist()
    missing = {s for s in source if s >= 0} - set(source_values)
    if missing:
        raise ValueError(f"missing value for source {min(missing)}")
    return {u: source_values[s] for u, s in enumerate(source) if s >= 0}
