"""Behaviour lock on the benchmark's own workloads: the SHA-256 of the metrics
CSV of one seed-7 experiment of each workload in perfbench/workloads.py.

These are the digests perfbench/run.py prints for the same runs, so a change
that moves them moves what the benchmark measures.  Like the golden digests
in test_golden.py, they were re-pinned, when one generator per round came to
draw every device's shuffle and one per world every device's samples, with
numpy 2.4.6 and its OpenBLAS 0.3.31, on its SkylakeX (AVX-512) kernels on an
x86-64 host.  Under its Haswell or Sandybridge kernels the quadrant and
idx-global digests differ, and a digest that moves names the core in use.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import digest_moved
from sparsefuel.harness import build_world, metrics_csv_text, run_experiment_result

REPO_ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "quadrant": "24e1704f8979ed6b24a34f8a930a0827f0bfd38f31a9ab23777f96711b269aca",
    "idx-global": "f24827bbfdf5e038bddcb77cb0261995c0ee4df291052d5c65d2b01627cbe2d5",
    "field-4096": "9c542474466857f0054c7361ac651e560086da9ed18eb7a4baecbe3eddbc30fb",
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
    assert hashlib.sha256(csv_text.encode()).hexdigest() == DIGESTS[name], digest_moved(name)


def test_idx_global_world_holds_the_pool_bytes(tmp_path):
    # the 12,000 MNIST-shaped images as their pixel bytes, not as float64
    wl, _ = load_workloads().load("idx-global", 7, str(tmp_path))
    world = build_world(wl.cfg, 7)
    assert world.samples.features.dtype == np.uint8
    assert world.samples.features.shape == (12_000, 784)
    assert world.samples.features.nbytes == 12_000 * 784
    # the test sets are rows of the pool, not copies of them
    assert world.tests is world.samples
