"""Shared fixtures and independently written oracles for the test suite.

The graph oracles here (union-find components, queue-based BFS) are written
apart from sparsefuel.fields, so that the field blocks are checked against a
second, unrelated implementation.  The synchronous-round references run the
per-node updates whose fixpoints the blocks compute in one pass, round by
round, and count the rounds.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from collections import Counter, deque
from typing import Iterable

import numpy as np
import pytest

from sparsefuel.fields import INFINITE, FieldGraph
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
    _forward_batch,
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


def oracle_normalise_edges(nodes, edges):
    """(nodes, sorted (E, 2) edge array, adj) of a FieldGraph built by a
    Python set of (low, high) pairs and a sort, raising ValueError with the
    messages FieldGraph.from_edges gives: the first self loop in input
    order, else the first sorted edge with an unknown end."""
    nodes = tuple(sorted(set(int(u) for u in nodes)))
    pairs = set()
    for a, b in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        if a == b:
            raise ValueError(f"self loop at node {a}")
        pairs.add((a, b) if a < b else (b, a))
    ordered = sorted(pairs)
    adj = {u: [] for u in nodes}
    for a, b in ordered:
        if a not in adj or b not in adj:
            raise ValueError(f"edge {a}-{b} references an unknown node")
        adj[a].append(b)
        adj[b].append(a)
    edge_array = np.array(ordered, dtype=np.int64).reshape(-1, 2)
    return nodes, edge_array, {u: tuple(v) for u, v in adj.items()}


def oracle_disc_edges(sites, r_c):
    """Every pair i < j of sites within Euclidean distance r_c (inclusive),
    by brute force over all pairs, in sorted order."""
    return [
        [i, j]
        for i, a in enumerate(sites)
        for j, b in enumerate(sites)
        if i < j and np.hypot(b.x - a.x, b.y - a.y) <= r_c
    ]


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


def reference_min_flood(graph: FieldGraph) -> tuple[dict[int, int], int]:
    """Iterate "my candidate = min over closed neighborhood" to fixpoint.

    Returns the final candidate map and the number of synchronous rounds run,
    including the final confirming round that changes nothing.
    """
    cand = {u: u for u in graph.nodes}
    rounds = 0
    while True:
        rounds += 1
        new = {
            u: min(cand[u], *(cand[v] for v in graph.adj[u])) if graph.adj[u] else cand[u]
            for u in graph.nodes
        }
        if new == cand:
            return cand, rounds
        cand = new


def reference_bfs_hops(graph: FieldGraph, sources: Iterable[int]) -> tuple[dict[int, float], int]:
    """Synchronous hop-count relaxation from the sources to fixpoint.

    Returns hop distances (INFINITE where unreachable) and the number of
    rounds run, including the final confirming round.
    """
    src = set(int(s) for s in sources)
    unknown = src - set(graph.nodes)
    if unknown:
        raise ValueError(f"sources {sorted(unknown)} not in graph")
    hops = {u: 0.0 if u in src else INFINITE for u in graph.nodes}
    rounds = 0
    while True:
        rounds += 1
        new = {}
        for u in graph.nodes:
            best = hops[u]
            for v in graph.adj[u]:
                if hops[v] + 1 < best:
                    best = hops[v] + 1
            new[u] = best
        if new == hops:
            return hops, rounds
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


def reference_local_training(params, data, cfg, mask=None, round_index=0) -> ParameterSet:
    """Masked minibatch SGD of one model, shuffled by (cfg.rng_seed, round_index)."""
    mask_layers = None if mask is None else [np.asarray(m) for m in getattr(mask, "layers", mask)]
    rng = np.random.default_rng((int(cfg.rng_seed), int(round_index)))
    out = params.copy()
    n = len(data)
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            g = reference_gradients(out, data.subset(idx))
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
# the class axis of (D, n, classes) logits


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
    logits = _forward_batch(params, x)[-1]
    acc = (logits.argmax(axis=2) == labels).mean(axis=1)
    logits -= reference_row_max(logits)
    logits -= np.log(np.exp(logits).sum(axis=-1, keepdims=True))
    d, n = labels.shape
    loss = -logits[np.arange(d)[:, None], np.arange(n), labels].mean(axis=1)
    if stacked:
        return loss, acc
    return float(loss[0]), float(acc[0])


def reference_stacked_gradients(params: ParameterSet, batch: LabeledDataset) -> ParameterSet:
    """gradients by the batch-major head: the same backward pass on the
    same batch-major delta."""
    stacked = params.stacked
    params, x, labels = _as_stack(params, batch)
    d, n = labels.shape
    outputs = _forward_batch(params, x)
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
    return grads if stacked else grads[0]


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


def reference_evaluate_objective(partition, models, test_sets, sites):
    """evaluate_objective one (leader model, subregion test set) pair at a
    time, each pair scored once by its own loss_and_accuracy call."""
    scores = {}

    def score(leader, subregion):
        if (leader, subregion) not in scores:
            scores[leader, subregion] = loss_and_accuracy(models[leader], test_sets[subregion])
        return scores[leader, subregion]

    k = len(test_sets)
    objective = 0.0
    for fed in partition.federations:
        objective += score(fed.leader, sites[fed.leader].subregion_id)[0]

    accs = [float("nan")] * k
    losses = [float("nan")] * k
    for j in range(k):
        counts = Counter(partition.leader_of[site.uid] for site in sites if site.subregion_id == j)
        if not counts:
            continue
        leader = max(counts, key=lambda u: (counts[u], -u))
        losses[j], accs[j] = score(leader, j)
    return objective, accs, losses


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


def reference_idx_draw(spec, subregion_id, m, seed, salt=0) -> LabeledDataset:
    """One device's idx-label-skew dataset as the sampler drew it when every
    device held a copy of its samples: the same rng draws, the pool rows
    indexed directly."""
    rng = np.random.default_rng((int(seed), int(subregion_id), int(salt)))
    owned = list(spec.owned_labels[subregion_id])
    own_pool = np.flatnonzero(np.isin(spec.pool.labels, owned))
    other_pool = np.flatnonzero(~np.isin(spec.pool.labels, owned))
    foreign = rng.random(m) < spec.epsilon
    n_foreign = int(foreign.sum())
    rows = np.empty(m, dtype=np.int64)
    rows[~foreign] = rng.permutation(own_pool)[: m - n_foreign]
    rows[foreign] = rng.permutation(other_pool)[:n_foreign]
    return LabeledDataset(spec.pool.features[rows], spec.pool.labels[rows])


def reference_blob_draw(spec, subregion_id, m, seed, salt=0) -> LabeledDataset:
    """One device's synthetic-blobs dataset with each sample's label looked
    up per sample in Python, as the sampler first did."""
    rng = np.random.default_rng((int(seed), int(subregion_id), int(salt)))
    classes = spec.blob_classes[subregion_id]
    picks = rng.integers(0, len(classes), m)
    means = np.array([c.mean for c in classes])
    stds = np.array([c.std for c in classes])
    feats = means[picks] + rng.normal(0.0, 1.0, (m, means.shape[1])) * stds[picks, None]
    np.clip(feats, 0.0, 1.0, out=feats)
    return LabeledDataset(feats, np.array([classes[p].label for p in picks]))


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
    for site in world.topology.sites:
        groups.setdefault(site.subregion_id, set()).add(site.uid)
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
