"""Acceptance gate: ten end-to-end checks over the whole package.

Each test prints one `[criterion N] PASS/FAIL — detail` line (visible in the
-rA summary) before asserting, so a full run always yields a readable
scorecard.  The expensive 64-device runs are shared through the session-scoped
fixture_runs cache.
"""

import dataclasses
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from sparsefuel.compression import (
    CompressionStrategy,
    compress,
    decompress,
    dequantize,
    nonzero_macs,
    payload_size,
    quantize_affine,
)
from sparsefuel.fields import (
    INFINITE,
    FieldGraph,
    broadcast_block,
    c_block,
    g_block,
    min_flood,
    s_block,
    stabilize_after_removal,
)
from sparsefuel.harness import run_experiment, run_experiment_result, write_metrics_csv
from sparsefuel.neuralnet import Architecture, ParameterSet, gradients, init_parameters

from conftest import (
    finite_difference_gradients,
    oracle_bfs,
    oracle_components,
    oracle_diameter,
    quadrant_config,
    quadrant_sets,
    sample_away_from_relu_kinks,
)

FIXTURE_SEEDS = (1, 2, 3)


def report(n: int, ok: bool, detail: str) -> str:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


# --------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences


def test_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        depth = int(rng.integers(0, 3))  # 0-2 hidden layers
        sizes = [int(rng.integers(2, 7))]
        sizes += [int(rng.integers(2, 9)) for _ in range(depth)]
        sizes.append(int(rng.integers(2, 6)))
        params, data = sample_away_from_relu_kinks(rng, sizes)
        assert params.num_params <= 500
        analytic = gradients(params, data)
        numeric = finite_difference_gradients(params, data, h=1e-4)
        for a, f in zip(
            analytic.weights + analytic.biases, numeric.weights + numeric.biases
        ):
            err = np.abs(a - f)
            denom = np.maximum(np.abs(a), np.abs(f))
            rel = err / np.maximum(denom, 1e-12)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    line = report(
        1, ok, f"50 networks, worst relative gradient error {worst:.3g} (limit 1e-4), {elapsed:.2f}s"
    )
    assert ok, line


# --------------------------------------------------------------------------
# 2. quantizer round-trip error bound and fixpoint


def _test_tensor(rng, shape, sigma):
    """Normal entries around a centre drawn from [-4 sigma, 4 sigma], so some
    tensors straddle zero and many are single-sign (one-entry tensors are
    constants); the quantizer's range must cover both."""
    return rng.normal(0.0, sigma, shape) + rng.uniform(-4.0, 4.0) * sigma


def test_quantizer_round_trip_and_fixpoint():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    n_tensors = 0
    worst_ratio = 0.0
    fixpoint_failures = 0
    single_sign = 0
    while n_tensors < 10_000:
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        sigma = float(10.0 ** rng.uniform(-3, 1))
        original = ParameterSet(
            [_test_tensor(rng, (rows, cols), sigma)],
            [_test_tensor(rng, (rows,), sigma)],
        )
        q = quantize_affine(original)
        restored = dequantize(q)
        for qt, orig, back in zip(
            q,
            [original.weights[0], original.biases[0]],
            [restored.weights[0], restored.biases[0]],
        ):
            single_sign += bool(orig.min() > 0.0 or orig.max() < 0.0)
            bound = qt.scale / 2.0 + 1e-9
            err = float(np.abs(back - orig).max())
            worst_ratio = max(worst_ratio, err / bound if bound > 0 else 0.0)
        q2 = quantize_affine(restored)
        for a, b in zip(q, q2):
            if not (np.array_equal(a.values, b.values) and a.zero_point == b.zero_point):
                fixpoint_failures += 1
        n_tensors += 2
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and fixpoint_failures == 0 and elapsed < 5.0
    line = report(
        2,
        ok,
        f"{n_tensors} tensors ({single_sign} single-sign), "
        f"worst error {worst_ratio:.7f}x the half-scale bound, "
        f"{fixpoint_failures} fixpoint failures, {elapsed:.2f}s",
    )
    assert ok, line


# --------------------------------------------------------------------------
# 3. quantized payload is about a quarter of the dense payload


def _param_count(sizes):
    return sum(a * b + b for a, b in zip(sizes, sizes[1:]))


def test_quantized_payload_ratio():
    shapes = [(100, 90, 10), (784, 128, 47), (50, 70, 70, 30)]
    rng = np.random.default_rng(5)
    while len(shapes) < 8:
        cand = (int(rng.integers(80, 400)), int(rng.integers(40, 200)), int(rng.integers(10, 60)))
        if _param_count(cand) >= 10_000:
            shapes.append(cand)
    ratios = []
    for sizes in shapes:
        params = init_parameters(Architecture(sizes), 11)
        assert params.num_params >= 10_000
        quant = payload_size(compress(params, CompressionStrategy("quantized")))
        dense = payload_size(compress(params, CompressionStrategy("dense")))
        ratios.append(quant / dense)
    ok = all(0.24 < r < 0.27 for r in ratios)
    line = report(
        3,
        ok,
        f"{len(shapes)} architectures >= 10k params, payload ratios "
        f"{min(ratios):.4f}..{max(ratios):.4f} (need (0.24, 0.27))",
    )
    assert ok, line


# --------------------------------------------------------------------------
# 4. pruning keeps exactly n - floor(psi * n) weights per layer


def test_pruning_counts_and_macs():
    psis = (0.3, 0.5, 0.7, 0.9)
    archs = [(100, 90, 10), (33, 17, 9), (2, 16, 8)]
    ok = True
    details = []
    for sizes in archs:
        params = init_parameters(Architecture(sizes), 13)
        layer_counts = [w.size for w in params.weights]
        for psi in psis:
            model = compress(params, CompressionStrategy("sparse", psi))
            kept = model.mask.kept_counts()
            expected = [n - math.floor(Fraction(str(psi)) * n) for n in layer_counts]
            per_layer_ok = kept == expected
            dense_nonzero = [int(np.count_nonzero(w)) for w in model.params.weights]
            zeros_match = dense_nonzero == kept
            macs = nonzero_macs(model)
            macs_ok = abs(macs - (1 - psi) * sum(layer_counts)) <= len(layer_counts)
            ok = ok and per_layer_ok and zeros_match and macs_ok
            if not (per_layer_ok and zeros_match and macs_ok):
                details.append(f"{sizes} psi={psi}: kept {kept} vs {expected}, macs {macs}")
    detail = "; ".join(details) if details else (
        f"{len(archs)} architectures x {len(psis)} sparsity levels, per-layer "
        "survivor counts exact, macs within one per layer of the retained fraction"
    )
    line = report(4, ok, detail)
    assert ok, line


# --------------------------------------------------------------------------
# 5. the four-quadrant fixture settles into the four ground-truth federations


def test_quadrant_federations_stabilize(fixture_runs):
    ok = True
    parts = []
    for seed in FIXTURE_SEEDS:
        result = fixture_runs.run(seed)
        expected = quadrant_sets(result.world)
        late = result.records[19:]  # rounds 20..30
        counts_ok = all(r.federation_count == 4 for r in late)
        sets_ok = all(
            {f.members for f in r.partition.federations} == expected for r in late
        )
        wall = fixture_runs.wall_seconds(seed)
        seed_ok = counts_ok and sets_ok and wall < 120.0
        ok = ok and seed_ok
        parts.append(
            f"seed {seed}: {'4 exact quadrants from round 20' if seed_ok else 'MISMATCH'}"
            f" ({wall:.1f}s)"
        )
    line = report(5, ok, "; ".join(parts))
    assert ok, line


# --------------------------------------------------------------------------
# 6. moderate sparsity is nearly free; extreme sparsity visibly hurts


def _final_mean_accuracy(result):
    accs = result.records[-1].region_accuracy
    return sum(accs) / len(accs)


def test_sparsity_accuracy_tradeoff(fixture_runs):
    ok = True
    parts = []
    for seed in FIXTURE_SEEDS:
        acc_none = _final_mean_accuracy(fixture_runs.run(seed, psi=0.0))
        acc_mild = _final_mean_accuracy(fixture_runs.run(seed, psi=0.3))
        extreme = fixture_runs.run(seed, psi=0.9)
        acc_extreme = _final_mean_accuracy(extreme)
        mild_ok = acc_mild >= acc_none - 0.02
        degraded = acc_none - acc_extreme >= 0.05
        unstable = not all(r.federation_count == 4 for r in extreme.records[19:])
        symptoms = [
            name for flag, name in ((degraded, "accuracy drop"), (unstable, "unstable federations")) if flag
        ]
        seed_ok = mild_ok and bool(symptoms)
        ok = ok and seed_ok
        parts.append(
            f"seed {seed}: acc {acc_none:.3f}/{acc_mild:.3f}/{acc_extreme:.3f} "
            f"at sparsity 0/0.3/0.9, 0.9 shows {' + '.join(symptoms) or 'NO symptom'}"
        )
    line = report(6, ok, "; ".join(parts))
    assert ok, line


# --------------------------------------------------------------------------
# 7. per-region federations beat one global average on disjoint regions


def test_federated_objective_beats_global_average(fixture_runs):
    ok = True
    parts = []
    for seed in FIXTURE_SEEDS:
        local = fixture_runs.run(seed).records[-1].objective
        global_avg = fixture_runs.run(seed, arm="global-fedavg").records[-1].objective
        seed_ok = local < global_avg
        ok = ok and seed_ok
        parts.append(f"seed {seed}: {local:.3f} < {global_avg:.3f}" if seed_ok else f"seed {seed}: FAIL")
    line = report(7, ok, "; ".join(parts))
    assert ok, line


# --------------------------------------------------------------------------
# 8. sparse+quantized broadcasts fit in 30% of the dense byte volume


def test_compressed_broadcast_volume(fixture_runs):
    compressed = fixture_runs.run(seed=1).records[0].bytes_broadcast
    tau = fixture_runs.calibration(1).tau
    dense_cfg = quadrant_config(psi=0.0, kind="dense", tau=tau, rounds=2)
    dense = run_experiment(dense_cfg, seed=1)[0].bytes_broadcast
    ratio = compressed / dense
    # blob sizes for the (2, 16, 8) network: 228 vs 784 bytes per broadcast
    exact = compressed * 784 == dense * 228
    ok = ratio <= 0.30 and exact
    line = report(
        8,
        ok,
        f"per-round broadcast {compressed} vs {dense} dense bytes, "
        f"ratio {ratio:.4f} (limit 0.30), exact 228/784 blob scaling: {exact}",
    )
    assert ok, line


# --------------------------------------------------------------------------
# 9. field blocks vs independent graph oracles, exhaustively and at random


def _check_field_blocks(nodes, edges):
    graph = FieldGraph.from_edges(nodes, edges)
    adj = {u: set() for u in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    comps = oracle_components(nodes, edges)
    comp_min = {u: min(c) for c in comps for u in c}
    srcs = sorted({min(c) for c in comps})

    leaders = s_block(graph)
    assert leaders == {u: comp_min[u] == u for u in nodes}
    cand, rounds = min_flood(graph)
    assert cand == comp_min
    assert rounds <= oracle_diameter(nodes, adj) + 1

    field = g_block(graph, srcs)
    dist = oracle_bfs(nodes, adj, set(srcs))
    assert field.hops == {u: dist[u] for u in nodes}  # sources cover every component

    collected = c_block(field, {u: frozenset([u]) for u in nodes}, frozenset.union, frozenset())
    assert collected == {min(c): frozenset(c) for c in comps}
    assert broadcast_block(field, {s: s for s in srcs}) == comp_min

    if len(nodes) > 1:
        removed = nodes[len(edges) % len(nodes)]
        flags, after = stabilize_after_removal(graph, removed)
        rest = [u for u in nodes if u != removed]
        rest_edges = [e for e in edges if removed not in e]
        rest_comps = oracle_components(rest, rest_edges)
        rest_leaders = {min(c) for c in rest_comps}
        assert {u for u, f in flags.items() if f} == rest_leaders
        rest_adj = {u: {v for v in adj[u] if v != removed} for u in rest}
        rest_dist = oracle_bfs(rest, rest_adj, rest_leaders)
        assert after.hops == {u: rest_dist[u] for u in rest}


def test_field_blocks_match_graph_oracles():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        nodes = list(range(n))
        possible = list(itertools.combinations(nodes, 2))
        for bits in range(2 ** len(possible)):
            edges = [e for i, e in enumerate(possible) if bits >> i & 1]
            _check_field_blocks(nodes, edges)
            checked += 1
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        uids = sorted(int(u) for u in rng.choice(10_000, size=n, replace=False))
        p = float(rng.uniform(0.02, 0.3))
        edges = [e for e in itertools.combinations(uids, 2) if rng.random() < p]
        _check_field_blocks(uids, edges)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    line = report(
        9,
        ok,
        f"{checked} graphs (all graphs on up to 6 nodes + 100 random up to 64 nodes) "
        f"match the union-find/BFS oracles, {elapsed:.1f}s",
    )
    assert ok, line


# --------------------------------------------------------------------------
# 10. rerunning the benchmark reproduces the metrics file byte for byte


def test_repeat_runs_are_byte_identical(fixture_runs, tmp_path):
    tau = fixture_runs.calibration(1).tau
    first = fixture_runs.run(seed=1)
    second = run_experiment_result(quadrant_config(tau=tau), seed=1)
    path_a, path_b = tmp_path / "first.csv", tmp_path / "second.csv"
    write_metrics_csv(first.records, str(path_a))
    write_metrics_csv(second.records, str(path_b))
    a, b = path_a.read_bytes(), path_b.read_bytes()
    ok = a == b
    line = report(
        10, ok, f"two independent runs wrote identical {len(a)}-byte metrics files"
    )
    assert ok, line
