"""Shared fixtures and independently written oracles for the test suite.

The graph helpers here (union-find components, queue-based BFS) deliberately
avoid the synchronous-round machinery in sparsefuel.fields so that the field
blocks are checked against a second, unrelated implementation.
"""

from __future__ import annotations

import dataclasses
import math
import struct
from collections import deque

import numpy as np
import pytest

from sparsefuel.harness import (
    CalibrationResult,
    ExperimentConfig,
    ExperimentResult,
    calibrate_tau,
    run_experiment_result,
)
from sparsefuel.neuralnet import LabeledDataset, ParameterSet, loss_and_accuracy


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


def oracle_diameter(nodes, adj):
    """Largest finite eccentricity over all start nodes (0 for edgeless graphs)."""
    best = 0
    for s in nodes:
        d = oracle_bfs(nodes, adj, {s})
        best = max(best, max(v for v in d.values() if v is not None))
    return best


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
