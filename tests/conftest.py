"""Shared fixtures and independently written oracles for the test suite.

The graph oracles here (union-find components, queue-based BFS) are written
apart from sparsefuel.fields, so that the field blocks are checked against a
second, unrelated implementation.  The synchronous-round references run the
per-node updates the blocks run on whole arrays, node by node and round by
round, and count the rounds.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import glob
import math
import os
import struct
from collections import Counter, deque
from typing import Iterable

import numpy as np
import pytest

from sparsefuel import fields, protocol
from sparsefuel.compression import (
    KINDS,
    CompressedModel,
    compress,
    decode_wire,
    decompress,
    encode_wire,
    nonzero_macs,
    serialized_size,
)
from sparsefuel.environment import build_topology
from sparsefuel.fields import FieldGraph
from sparsefuel.harness import (
    CalibrationResult,
    ExperimentConfig,
    ExperimentResult,
    calibrate_tau,
    run_experiment_result,
)
from sparsefuel.neuralnet import (
    LabeledDataset,
    ParameterSet,
    _as_stack,
    _bias_gradient,
    loss_and_accuracy,
)


# --------------------------------------------------------------------------
# graph oracles


def oracle_components(nodes, edges):
    """Connected components by union-find."""
    parent = {u: u for u in nodes}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for u in nodes:
        comps.setdefault(find(u), set()).add(u)
    return list(comps.values())


def oracle_normalise_edges(n, edges):
    """(sorted (E, 2) edge array, adj) of a FieldGraph over 0..n-1 built by
    a Python set of (low, high) pairs and a sort, raising ValueError with
    the messages FieldGraph.from_edges gives: the first self loop in input
    order, else the first sorted edge with an unknown end."""
    pairs = set()
    for a, b in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        if a == b:
            raise ValueError(f"self loop at node {a}")
        pairs.add((a, b) if a < b else (b, a))
    ordered = sorted(pairs)
    adj = {u: [] for u in range(n)}
    for a, b in ordered:
        if a not in adj or b not in adj:
            raise ValueError(f"edge {a}-{b} references an unknown node")
        adj[a].append(b)
        adj[b].append(a)
    edge_array = np.array(ordered, dtype=np.int64).reshape(-1, 2)
    return edge_array, {u: tuple(v) for u, v in adj.items()}


def oracle_disc_edges(positions, r_c):
    """Every pair i < j of the (n, 2) positions within Euclidean distance r_c
    (inclusive), by brute force over all pairs, in sorted order."""
    points = np.asarray(positions, dtype=np.float64).tolist()
    return [
        [i, j]
        for i, (ax, ay) in enumerate(points)
        for j, (bx, by) in enumerate(points)
        if i < j and np.hypot(bx - ax, by - ay) <= r_c
    ]


def topology_at(points, r_c):
    """build_topology over the (x, y) points, uid i at points[i], every
    device in subregion 0."""
    positions = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return build_topology(positions, np.zeros(len(positions), dtype=np.int64), r_c)


def reference_subregion_of(area, x, y):
    """Area.subregion_of for one point, in Python float and int arithmetic:
    ceil(x / (width / cols)) - 1 clipped to the grid, per axis."""
    if not (0.0 <= x <= area.width and 0.0 <= y <= area.height):
        raise ValueError(f"point ({x}, {y}) outside the {area.width}x{area.height} area")
    col = min(area.cols - 1, max(0, math.ceil(x / (area.width / area.cols)) - 1))
    row = min(area.rows - 1, max(0, math.ceil(y / (area.height / area.rows)) - 1))
    return row * area.cols + col


def oracle_bfs(nodes, adj, sources):
    """Hop distances from the source set; None where unreachable."""
    dist = {u: None for u in nodes}
    queue = deque()
    for s in sorted(sources):
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def oracle_parents(adj, dist):
    """Each node's lowest-uid neighbor one hop nearer the sources, from the
    hop distances of oracle_bfs; None at a source.  Every node is reachable."""
    return {u: min((v for v in adj[u] if dist[v] == dist[u] - 1), default=None) for u in adj}


def oracle_diameter(nodes, adj):
    """Largest finite eccentricity over all start nodes (0 for edgeless graphs)."""
    best = 0
    for s in nodes:
        d = oracle_bfs(nodes, adj, {s})
        best = max(best, max(v for v in d.values() if v is not None))
    return best


def reference_min_flood(graph: FieldGraph) -> tuple[list[int], int]:
    """Iterate "my candidate = min over closed neighborhood" to fixpoint,
    node by node.

    Returns the final candidates by uid and the number of synchronous rounds
    run, including the final confirming round that changes nothing.
    """
    adj = graph.adj
    cand = list(range(graph.n))
    rounds = 0
    while True:
        rounds += 1
        new = [min([cand[u], *(cand[v] for v in adj[u])]) for u in range(graph.n)]
        if new == cand:
            return cand, rounds
        cand = new


def reference_bfs_hops(graph: FieldGraph, sources: Iterable[int]) -> tuple[list[int], int]:
    """Synchronous hop-count relaxation from the sources to fixpoint, node by
    node.

    Returns hop distances by uid (-1 where unreachable) and the number of
    rounds run, including the final confirming round.
    """
    src = set(int(s) for s in sources)
    unknown = src - set(range(graph.n))
    if unknown:
        raise ValueError(f"sources {sorted(unknown)} not in graph")
    adj = graph.adj
    hops = [0 if u in src else math.inf for u in range(graph.n)]
    rounds = 0
    while True:
        rounds += 1
        new = []
        for u in range(graph.n):
            best = hops[u]
            for v in adj[u]:
                if hops[v] + 1 < best:
                    best = hops[v] + 1
            new.append(best)
        if new == hops:
            return [-1 if h == math.inf else h for h in hops], rounds
        hops = new


# --------------------------------------------------------------------------
# numeric oracles


def finite_difference_gradients(params: ParameterSet, data: LabeledDataset, h: float = 1e-4):
    """Central finite differences of the mean cross-entropy loss."""
    out = params.copy()
    for arrays, grads in ((params.weights, out.weights), (params.biases, out.biases)):
        for arr, garr in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                plus, _ = loss_and_accuracy(params, data)
                arr[idx] = orig - h
                minus, _ = loss_and_accuracy(params, data)
                arr[idx] = orig
                garr[idx] = (plus - minus) / (2.0 * h)
    return out


def sample_away_from_relu_kinks(rng, sizes, min_preactivation=1e-2, max_tries=200):
    """Draw (params, dataset) whose hidden pre-activations all clear zero.

    Finite differences are meaningless across a ReLU kink, so keep sampling
    until every hidden pre-activation has magnitude above the floor.
    """
    from sparsefuel.neuralnet import Architecture, init_parameters

    arch = Architecture(tuple(sizes))
    for _ in range(max_tries):
        params = init_parameters(arch, int(rng.integers(0, 2**31)))
        batch = int(rng.integers(2, 9))
        x = rng.uniform(0.0, 1.0, (batch, sizes[0]))
        y = rng.integers(0, sizes[-1], batch)
        a = x
        clear = True
        for i in range(len(params.weights) - 1):
            z = a @ params.weights[i].T + params.biases[i]
            if np.abs(z).min() < min_preactivation:
                clear = False
                break
            a = np.maximum(z, 0.0)
        if clear:
            return params, LabeledDataset(x, y)
    raise RuntimeError("could not find a kink-free sample")


# --------------------------------------------------------------------------
# per-device reference trainer: one model on one 2-d dataset at a time, the
# loop the simulator ran before it trained devices in lockstep


def reference_gradients(params: ParameterSet, batch: LabeledDataset) -> ParameterSet:
    """Backprop of the mean cross-entropy for one model on one batch."""
    x = batch.features
    n = len(batch)
    last = params.num_layers - 1
    activations = [x]
    pre = []
    a = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        activations.append(a)
    shifted = pre[-1] - pre[-1].max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    delta = probs
    delta[np.arange(n), batch.labels] -= 1.0
    delta /= n
    grad_w = [np.empty(0)] * params.num_layers
    grad_b = [np.empty(0)] * params.num_layers
    for i in range(last, -1, -1):
        grad_w[i] = delta.T @ activations[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * (pre[i - 1] > 0.0)
    return ParameterSet(grad_w, grad_b)


def reference_local_training(
    params, data, cfg, mask=None, round_index=0, order=None
) -> ParameterSet:
    """Masked minibatch SGD of one model, epoch e visiting data's rows in
    order[e]; by default the (epochs, n) orders of a model trained alone,
    reference_orders(cfg.rng_seed, round_index, 1, ...)[0]."""
    mask_layers = None if mask is None else [np.asarray(m) for m in getattr(mask, "layers", mask)]
    n = len(data)
    if order is None:
        order = reference_orders(cfg.rng_seed, round_index, 1, cfg.local_epochs, n)[0]
    out = params.copy()
    for perm in order:
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            g = reference_gradients(out, data.gather(idx))
            for i in range(out.num_layers):
                out.weights[i] -= cfg.learning_rate * g.weights[i]
                if mask_layers is not None:
                    out.weights[i] *= mask_layers[i]
                out.biases[i] -= cfg.learning_rate * g.biases[i]
    return out


def reference_loss(params: ParameterSet, data: LabeledDataset) -> float:
    """Mean cross-entropy of one model on one dataset."""
    a = data.features
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ w.T + b
        if i != params.num_layers - 1:
            np.maximum(a, 0.0, out=a)
    shifted = a - a.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(len(data)), data.labels].mean())


# --------------------------------------------------------------------------
# the batch-major output head: loss_and_accuracy and gradients as they were
# before the head went class-major, with numpy's argmax and softmax sum along
# the class axis of (D, n, classes) logits, on the forward pass that adds a
# broadcast bias and takes the ReLU against the scalar 0.0


def reference_forward_batch(params: ParameterSet, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output of stacked models on stacked batches, the
    input first: the forward pass before its bias and zero went full-size."""
    outputs = [x]
    last = params.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = outputs[-1] @ w.transpose(0, 2, 1)
        a += b[:, None, :]
        if i != last:
            np.maximum(a, 0.0, out=a)
        outputs.append(a)
    return outputs


def reference_row_max(logits: np.ndarray) -> np.ndarray:
    """The running max of the class columns, class 0 first, keepdims: the
    max the head takes.  (numpy's own max along the class axis may pick
    another zero of a -0.0/+0.0 tie.)"""
    top = logits[..., :1].copy()
    for c in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., c : c + 1], out=top)
    return top


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis, in place."""
    logits -= reference_row_max(logits)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def reference_loss_and_accuracy(params: ParameterSet, data: LabeledDataset):
    """Mean cross-entropy and argmax accuracy, by the batch-major head."""
    stacked = params.stacked
    params, x, labels = _as_stack(params, data)
    logits = reference_forward_batch(params, x)[-1]
    acc = (logits.argmax(axis=2) == labels).mean(axis=1)
    logits -= reference_row_max(logits)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    d, n = labels.shape
    loss = -logits[np.arange(d)[:, None], np.arange(n), labels].mean(axis=1)
    if stacked:
        return loss, acc
    return float(loss[0]), float(acc[0])


def reference_stacked_gradients(
    params: ParameterSet, batch: LabeledDataset, out: ParameterSet | None = None
) -> ParameterSet:
    """gradients by the batch-major head: the same backward pass on the
    same batch-major delta, copied into out when one is given."""
    stacked = params.stacked
    params, x, labels = _as_stack(params, batch)
    d, n = labels.shape
    outputs = reference_forward_batch(params, x)
    delta = reference_softmax(outputs[-1])
    delta.reshape(d * n, -1)[np.arange(d * n), labels.ravel()] -= 1.0
    delta /= n
    grad_w = [np.empty(0)] * params.num_layers
    grad_b = [np.empty(0)] * params.num_layers
    for i in range(params.num_layers - 1, -1, -1):
        grad_w[i] = delta.transpose(0, 2, 1) @ outputs[i]
        grad_b[i] = _bias_gradient(delta)
        if i > 0:
            delta = delta @ params.weights[i]
            delta *= outputs[i] > 0.0
    grads = ParameterSet(grad_w, grad_b)
    grads = grads if stacked else grads[0]
    if out is None:
        return grads
    out.flat[...] = grads.flat
    return out


# --------------------------------------------------------------------------
# the per-member FedAvg fold and the per-pair evaluation, as the round ran
# them before both became passes over stacks


def reference_fed_avg(models, weights=None) -> ParameterSet:
    """Weighted elementwise mean of single models, folded one member and one
    layer at a time in the given order, anchored on the first model."""
    if weights is None:
        weights = [1.0] * len(models)
    base = models[0]
    total = float(sum(weights))
    out = base.copy()
    for layer in range(base.num_layers):
        acc_w = np.zeros_like(base.weights[layer])
        acc_b = np.zeros_like(base.biases[layer])
        for m, w in zip(models, weights):
            acc_w += w * (m.weights[layer] - base.weights[layer])
            acc_b += w * (m.biases[layer] - base.biases[layer])
        out.weights[layer] += acc_w / total
        out.biases[layer] += acc_b / total
    return out


def reference_evaluate_objective(partition, models, test_sets, subregion):
    """evaluate_objective one (leader model, subregion test set) pair at a
    time, each pair scored once by its own loss_and_accuracy call; device
    uid sits in subregion[uid]."""
    scores = {}

    def score(leader, j):
        if (leader, j) not in scores:
            scores[leader, j] = loss_and_accuracy(models[leader], test_sets[j])
        return scores[leader, j]

    k = len(test_sets)
    objective = 0.0
    for fed in partition.federations:
        objective += score(fed.leader, int(subregion[fed.leader]))[0]

    accs = [float("nan")] * k
    losses = [float("nan")] * k
    for j in range(k):
        counts = Counter(int(partition.leader_of[u]) for u in np.flatnonzero(subregion == j))
        if not counts:
            continue
        leader = max(counts, key=lambda u: (counts[u], -u))
        losses[j], accs[j] = score(leader, j)
    return objective, accs, losses


# --------------------------------------------------------------------------
# the round as it ran while every exchange, a dense one too, decoded its wire
# into a model stack of its own


def reference_two_stack_round(state, cfg, round_index, arm="sparsefuel"):
    """run_round of an arm that exchanges models, as it ran with a second
    stack: every chunk's wire decoded into its rows of decoded, similarity
    scored edge by edge on decoded rows, and every member but the leader
    averaged from its decoded row, one member at a time by
    reference_fed_avg.  The chunks run one after another, each
    reading a copy of its rows of params.  Returns the round's stats and
    the decoded stack."""
    params, topo, n = state.params, state.topology, state.topology.n
    decoded = ParameterSet.from_flat(np.empty_like(params.flat), params.layer_sizes)
    orders = state.shuffle(cfg.training, round_index)
    size = np.zeros(n, dtype=np.int64)
    for chunk in protocol._lockstep_chunks(n, params[0], cfg.training.batch_size):
        uids = chunk.tolist()
        cm = compress(params[uids], cfg.strategy)
        out = protocol.local_training(
            decompress(cm),
            state.samples,
            cfg.training,
            mask=cm.mask,
            rows=state.train_rows[chunk],
            orders=orders[chunk],
        )
        params.flat[uids] = out.flat
        if cfg.similarity_uses_compressed:
            wire = encode_wire(out, cfg.strategy, cm.mask)
        else:
            wire = CompressedModel("dense", out)
        decoded.flat[uids] = decode_wire(wire).flat
        size[uids] = serialized_size(wire)

    ds, bytes_broadcast = None, 0
    if arm == "sparsefuel":
        bytes_broadcast = int(size @ np.bincount(topo.edges.ravel(), minlength=n))
        vals = [state.samples.gather(own) for own in state.val_rows]
        scores = [
            protocol.cross_similarity(decoded[i], decoded[j], vals[i], vals[j])
            for i, j in topo.edges.tolist()
        ]
        ds = protocol.DissimilarityMatrix(topo.edges, scores)
        gfield, partition = protocol._elect(protocol.similarity_graph(topo, ds, cfg.tau))
    else:
        gfield = fields.g_block(FieldGraph.from_topology(topo), [0])
        partition = protocol.FederationPartition(np.zeros(n, dtype=np.int64))

    macs = nonzero_macs(params[partition.representative().leader])
    dense_size = serialized_size(CompressedModel("dense", params[0]))
    m = state.train_rows.shape[1] + state.val_rows.shape[1]
    bytes_disseminate = 0
    for fed in partition.federations:
        uids = fed.members[gfield.source[fed.members] == fed.leader].tolist()
        models = [params[uid] if uid == fed.leader else decoded[uid] for uid in uids]
        params.flat[uids] = reference_fed_avg(models, [m] * len(uids)).flat
        bytes_disseminate += (len(uids) - 1) * dense_size
    bytes_collect = int(size @ np.maximum(gfield.hops, 0))
    stats = protocol.RoundStats(
        partition, bytes_broadcast, bytes_collect, bytes_disseminate, macs, ds
    )
    state.bytes_total += stats.bytes_round
    return stats, decoded


# --------------------------------------------------------------------------
# per-model reference compression: one model's tensors at a time, the prune
# and quantizer the simulator ran before compression took stacks of models


def _round_half_away(x):
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def reference_prune_magnitude(params: ParameterSet, psi: float):
    """One model's pruned copy and keep masks: the floor(psi * n) smallest
    |w| of each layer are zeroed, ties to the lower flat index first."""
    pruned = params.copy()
    masks = []
    for w in pruned.weights:
        k = int(math.floor(psi * w.size + 1e-9))
        mask = np.ones(w.size, dtype=np.uint8)
        if k > 0:
            order = np.argsort(np.abs(w).ravel(), kind="stable")
            mask[order[:k]] = 0
        mask = mask.reshape(w.shape)
        w *= mask
        masks.append(mask)
    return pruned, masks


def reference_quantize_tensor(t: np.ndarray):
    """(scale, zero_point, u8 values) of one tensor, over its range widened
    to include 0; an all-zero or empty range gets the unit scale."""
    t = np.asarray(t, dtype=np.float64)
    if t.size == 0:
        return 1.0, 0, np.zeros(t.shape, dtype=np.uint8)
    lo = min(float(t.min()), 0.0)
    hi = max(float(t.max()), 0.0)
    scale = (hi - lo) / 255.0
    if scale == 0.0:
        scale = 1.0
    zero_point = int(_round_half_away(-lo / scale))
    q = np.clip(_round_half_away(t / scale) + zero_point, 0, 255).astype(np.uint8)
    return scale, zero_point, q


_F32_MAX = float(np.finfo(np.float32).max)


def reference_dequantize_tensor(values: np.ndarray, zero_point, scale, dtype) -> np.ndarray:
    """One tensor's (values - zero_point) * scale, computed in float64 and
    rounded once to dtype; in float32 a level past the f32 range saturates
    at the f32 max."""
    x = (values.astype(np.float64) - zero_point) * scale
    if dtype == np.float32:
        x = np.clip(x, -_F32_MAX, _F32_MAX)
    return x.astype(dtype)


def _reference_wire_tensors(model: CompressedModel):
    """One model's wire tensors in order W0, b0, ...: each tensor's payload
    values (u8 levels or floats), its keep bits (every bias kept) and its
    (scale, zero_point) column, or None for the float kinds."""
    for t, values in enumerate(model.values.tensors):
        if model.mask is None:
            bits = None
        elif t % 2:
            bits = np.ones(values.shape, dtype=bool)
        else:
            bits = model.mask.layers[t // 2].astype(bool)
        yield values, bits, None if model.scale is None else (model.scale[t], model.zero_point[t])


def reference_to_bytes(model: CompressedModel) -> bytes:
    """to_bytes of one model, one tensor at a time."""
    tensors = list(_reference_wire_tensors(model))
    chunks = [struct.pack("<4sIII", b"SPFL", 1, KINDS.index(model.kind), len(tensors))]
    for values, bits, qmap in tensors:
        chunks.append(struct.pack("<II", *(values.shape if values.ndim == 2 else (values.size, 0))))
        if bits is not None:
            chunks.append(np.packbits(bits.ravel()).tobytes())
            values = values[bits]
        if qmap is not None:
            chunks.append(struct.pack("<fB", np.float32(qmap[0]), int(qmap[1])))
        chunks.append(values.tobytes() if qmap is not None else values.astype("<f4").tobytes())
    return b"".join(chunks)


def reference_serialized_size(model: CompressedModel) -> int:
    """serialized_size of one model, one tensor at a time."""
    size = 16
    for values, bits, qmap in _reference_wire_tensors(model):
        kept = values.size if bits is None else int(bits.sum())
        size += 8 + (0 if bits is None else (values.size + 7) // 8)
        size += 4 * kept if qmap is None else 5 + kept
    return size


def reference_decode_wire(model: CompressedModel) -> list[np.ndarray]:
    """The float32 tensors a receiver parses from one model's bytes, one
    tensor at a time: a pruned level is its tensor's zero point, a pruned
    float 0.0, and levels dequantize with the f32 scale."""
    decoded = []
    for values, bits, qmap in _reference_wire_tensors(model):
        if qmap is None:
            floats = values if bits is None else np.where(bits, values, 0.0)
            decoded.append(floats.astype(np.float32))
        else:
            scale, zero_point = np.float32(qmap[0]), int(qmap[1])
            levels = values if bits is None else np.where(bits, values, np.uint8(zero_point))
            decoded.append(reference_dequantize_tensor(levels, zero_point, scale, np.float32))
    return decoded


# --------------------------------------------------------------------------
# the randomness scheme one device at a time: a round's shuffle and each
# world draw is one generator whose stream the devices take in uid order,
# which these loops take device by device


def reference_orders(seed, round_index, d, epochs, n) -> np.ndarray:
    """shuffle_orders' (d, epochs, n) orders: one rng.permutation(n) per
    model and epoch from one generator, model 0's epochs first."""
    rng = np.random.default_rng((int(seed), int(round_index)))
    return np.array(
        [[rng.permutation(n) for _ in range(epochs)] for _ in range(d)], dtype=np.intp
    ).reshape(d, epochs, n)


def reference_idx_draw(spec, subregion, m, seed) -> list[LabeledDataset]:
    """Each device's idx-label-skew dataset, devices in the given
    subregions: every device's foreign mask in turn, then each device's
    owned and foreign picks, its row lists found by np.isin."""
    rng = np.random.default_rng(seed)
    foreign = [rng.random(m) < spec.epsilon for _ in subregion]
    datasets = []
    for j, mixed in zip(subregion, foreign):
        owned = np.isin(spec.pool.labels, list(spec.owned_labels[j]))
        rows = np.empty(m, dtype=np.int64)
        for pool, pick in ((np.flatnonzero(owned), ~mixed), (np.flatnonzero(~owned), mixed)):
            rows[pick] = pool[rng.choice(len(pool), int(pick.sum()), replace=False)]
        datasets.append(LabeledDataset(spec.pool.features[rows], spec.pool.labels[rows]))
    return datasets


def reference_blob_draw(spec, subregion, m, seed) -> list[LabeledDataset]:
    """Each device's float64 synthetic-blobs dataset, devices in the given
    subregions: every device's classes in turn, then each device's noise,
    each sample's label looked up per sample in Python."""
    rng = np.random.default_rng(seed)
    picks = [rng.integers(0, len(spec.blob_classes[j]), m) for j in subregion]
    datasets = []
    for j, pick in zip(subregion, picks):
        classes = spec.blob_classes[j]
        means = np.array([c.mean for c in classes])
        stds = np.array([c.std for c in classes])
        feats = means[pick] + rng.normal(0.0, 1.0, (m, means.shape[1])) * stds[pick, None]
        np.clip(feats, 0.0, 1.0, out=feats)
        datasets.append(LabeledDataset(feats, np.array([classes[p].label for p in pick])))
    return datasets


def forward_features(data: LabeledDataset) -> np.ndarray:
    """The float64 features a forward pass reads from a 2-d dataset."""
    probe = ParameterSet([np.zeros((1, data.features.shape[1]))], [np.zeros(1)])
    return _as_stack(probe, data)[1][0]


def sample_store(datasets):
    """The datasets concatenated in order as one sample store, and each
    dataset's row range in it: the store a synthetic-blobs world holds."""
    samples = LabeledDataset(
        np.concatenate([d.features for d in datasets]), np.concatenate([d.labels for d in datasets])
    )
    ends = np.cumsum([len(d) for d in datasets])
    return samples, [np.arange(end - len(d), end) for d, end in zip(datasets, ends)]


def store_table(datasets):
    """sample_store of datasets of one length, its row ranges as one (k, t)
    int64 row table: the test store and rows a world holds."""
    samples, rows = sample_store(datasets)
    return samples, np.array(rows, dtype=np.int64)


def cast_models(params: ParameterSet, dtype) -> ParameterSet:
    """A copy of params with every tensor in dtype."""
    return ParameterSet(
        [w.astype(dtype) for w in params.weights], [b.astype(dtype) for b in params.biases]
    )


def stack_models(models):
    """Single models of one architecture stacked on a new leading axis."""
    return ParameterSet(
        [np.stack(ws) for ws in zip(*(m.weights for m in models))],
        [np.stack(bs) for bs in zip(*(m.biases for m in models))],
    )


def viewed_row(stack, model):
    """The row of the model stack that a single model is a view of."""
    (row,) = [k for k in range(len(stack.flat)) if np.shares_memory(model.flat, stack.flat[k])]
    return row


# --------------------------------------------------------------------------
# the BLAS kernel the digests are pinned on


# OpenBLAS's getter of the name of the core it runs, under the names its
# builds export
_OPENBLAS_CORENAME = (
    "scipy_openblas_get_corename64_",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


@functools.cache
def openblas_core() -> str:
    """The core (kernel set) the OpenBLAS numpy ships with runs, such as
    SkylakeX or Haswell, found as protocol._blas_threads finds its setter;
    "unknown" where there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_CORENAME:
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return "unknown"


def digest_moved(name) -> str:
    """The failure message of a metrics-CSV digest that moved: it names the
    OpenBLAS core, since the digests hold on the SkylakeX core only."""
    core = openblas_core()
    return f"{name}: the metrics CSV digest moved under OpenBLAS core {core} (pinned on SkylakeX)"


# --------------------------------------------------------------------------
# IDX file helper


def write_idx_pair(tmpdir, images, labels):
    """Write big-endian IDX image/label files and return their paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    count, rows, cols = images.shape
    img_path = str(tmpdir / "images.idx")
    lbl_path = str(tmpdir / "labels.idx")
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, count))
        fh.write(labels.tobytes())
    return img_path, lbl_path


# --------------------------------------------------------------------------
# experiment fixtures


def quadrant_config(psi=0.3, kind="sparse+quantized", tau=4.0, rounds=30) -> ExperimentConfig:
    """The 64-device four-quadrant benchmark (configs/quadrant.cfg)."""
    cfg = ExperimentConfig()
    return dataclasses.replace(
        cfg,
        environment=dataclasses.replace(cfg.environment, r_c=2.125),
        protocol=dataclasses.replace(
            cfg.protocol, psi=psi, kind=kind, tau=tau, rounds=rounds
        ),
    )


def small_config(**protocol_overrides) -> ExperimentConfig:
    """A 9-device, 4-class world that runs in well under a second."""
    cfg = ExperimentConfig()
    env = dataclasses.replace(cfg.environment, n=9, r_c=4.0)
    data = dataclasses.replace(
        cfg.data, samples_per_device=60, test_samples=80, classes_per_subregion=1
    )
    proto_fields = dict(rounds=2, local_epochs=1, tau=4.0)
    proto_fields.update(protocol_overrides)
    proto = dataclasses.replace(cfg.protocol, **proto_fields)
    return dataclasses.replace(cfg, environment=env, data=data, layers=(2, 8, 4), protocol=proto)


def quadrant_sets(world):
    """The four ground-truth member sets, one per subregion."""
    groups = {}
    for uid, j in enumerate(world.topology.subregion.tolist()):
        groups.setdefault(j, set()).add(uid)
    return set(frozenset(g) for g in groups.values())


class FixtureRuns:
    """Lazy, memoized calibrations and experiment runs on the quadrant fixture.

    Several acceptance criteria share the same expensive runs; computing each
    (seed, psi, kind, arm) combination once keeps the whole suite fast.
    """

    def __init__(self):
        self._calibrations: dict[int, CalibrationResult] = {}
        self._runs: dict[tuple, ExperimentResult] = {}
        self._wall: dict[tuple, float] = {}

    def calibration(self, seed: int) -> CalibrationResult:
        if seed not in self._calibrations:
            self._calibrations[seed] = calibrate_tau(quadrant_config(), seed=seed)
        return self._calibrations[seed]

    def run(self, seed: int, psi=0.3, kind="sparse+quantized", arm="sparsefuel") -> ExperimentResult:
        key = (seed, psi, kind, arm)
        if key not in self._runs:
            import time

            tau = self.calibration(seed).tau
            cfg = quadrant_config(psi=psi, kind=kind, tau=tau)
            start = time.perf_counter()
            self._runs[key] = run_experiment_result(cfg, arm=arm, seed=seed)
            self._wall[key] = time.perf_counter() - start
        return self._runs[key]

    def wall_seconds(self, seed: int, psi=0.3, kind="sparse+quantized", arm="sparsefuel") -> float:
        self.run(seed, psi=psi, kind=kind, arm=arm)
        return self._wall[(seed, psi, kind, arm)]


@pytest.fixture(scope="session")
def fixture_runs() -> FixtureRuns:
    return FixtureRuns()
