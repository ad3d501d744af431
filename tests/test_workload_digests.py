"""Behaviour lock on the benchmark's own workloads: the SHA-256 of the metrics
CSV of one seed-7 experiment of each workload in perfbench/workloads.py.

These are the digests perfbench/run.py prints for the same runs, so a change
that moves them moves what the benchmark measures.  Like the golden digests
in test_golden.py, they were pinned with numpy 2.4.6 and its OpenBLAS 0.3.31,
on its SkylakeX (AVX-512) kernels on an x86-64 host.  Under its Haswell or
Sandybridge kernels the quadrant and idx-global digests differ; field-4096's
holds.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsefuel.harness import build_world, metrics_csv_text, run_experiment_result

REPO_ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "quadrant": "a7a36f12520dba3a4d88036709cfb50c331f9d28c7f625b26f70f77d244baa65",
    "idx-global": "a81cadfb1f0db0af10863673a0b18a6ff8d7f93f63731b473d047912b51bf1b2",
    "field-4096": "d5f967b1803ac7dc5fe0b34b1fe3ea89089301b345600bbed709612630644c4f",
}


def load_workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed_7_workload_csv_digest(name, tmp_path):
    wl, _ = load_workloads().load(name, 7, str(tmp_path))
    csv_text = metrics_csv_text(run_experiment_result(wl.cfg, wl.arm, 7).records)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == DIGESTS[name]


def test_idx_global_world_holds_the_pool_bytes(tmp_path):
    # the 12,000 MNIST-shaped images as their pixel bytes, not as float64
    wl, _ = load_workloads().load("idx-global", 7, str(tmp_path))
    world = build_world(wl.cfg, 7)
    assert world.samples.features.dtype == np.uint8
    assert world.samples.features.shape == (12_000, 784)
    assert world.samples.features.nbytes == 12_000 * 784
    assert all(t.features.dtype == np.uint8 for t in world.test_sets)
