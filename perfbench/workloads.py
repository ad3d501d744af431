"""The benchmark's workloads and the IDX pool the idx-global workload reads.

Each workload is an experiment config plus the arm it runs.  All three are
derived from the committed four-quadrant config so that they differ from the
paper's benchmark only where a comment says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from sparsefuel.harness import ExperimentConfig, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUADRANT_CONFIG = os.path.join(ROOT, "configs", "quadrant.cfg")

# The field-4096 threshold is what `calibrate_tau` gives on the field-4096
# world at seed 42 (3 warm-up rounds): the midpoint of these two medians.
FIELD_4096_INTRA_MEDIAN = 2.0315718718929547  # over 15,475 same-quadrant edges
FIELD_4096_INTER_MEDIAN = 5.991506034441318  # over 376 cross-quadrant edges
FIELD_4096_TAU = (FIELD_4096_INTRA_MEDIAN + FIELD_4096_INTER_MEDIAN) / 2.0  # 4.011538953167136

# The idx-global pool: MNIST-shaped (28x28 u8 images, 10 classes).
POOL_IMAGES = 12_000
POOL_CLASSES = 10
POOL_SIDE = 28
# Images are a fixed linear map of a POOL_LATENT-dim latent vector.  The class
# means sit on a regular simplex with every pair POOL_SEPARATION * sqrt(2)
# apart (unit latent noise), so how hard the pool is does not depend on the
# seed.  At this separation the global model reaches about 0.55-0.6 mean
# accuracy after 10 rounds and is still improving, so a change that hurts
# learning shows in final_accuracy.
POOL_LATENT = 16
POOL_SEPARATION = 2.0
_POOL_SALT = 0x1D8


@dataclass(frozen=True)
class Workload:
    arm: str
    cfg: ExperimentConfig
    min_final_federations: int = 1


def quadrant() -> Workload:
    """The paper's benchmark: configs/quadrant.cfg as committed (64 devices,
    a 2-16-8 MLP, 300 samples x 3 epochs, sparse+quantized at psi 0.3, 30
    rounds).  Its time goes to per-device training that is bound by Python
    overhead, then compression and similarity scoring; fields, topology and
    set-up are negligible.  So it shows training and compression gains, and a
    fields or topology change must show no change here."""
    return Workload("sparsefuel", load_config(QUADRANT_CONFIG))


def field_4096() -> Workload:
    """The quadrant's density and radius at 4096 devices: an 80x80 area split
    2x2, jittered grid, r_c = 2.125, the same MLP, 50 samples x 3 epochs,
    sparse+quantized at psi 0.3.  Light local data moves the weight onto
    per-device and per-edge overhead (about 16k edges to score per round),
    and the O(n^2) topology build dominates set-up.  It is the only workload
    where topology, fields and per-edge scoring are large.  Two rounds keep a
    run inside its time budget; the output check insists that the world has
    split into more than one federation by then.  BENCHMARK.json does not
    gate on it: on a shared 2-core host its host-time metrics spread more
    across runs than the largest bound allows (see README.md)."""
    q = load_config(QUADRANT_CONFIG)
    cfg = dataclasses.replace(
        q,
        environment=dataclasses.replace(q.environment, width=80.0, height=80.0, n=4096),
        data=dataclasses.replace(q.data, samples_per_device=50),
        protocol=dataclasses.replace(q.protocol, tau=FIELD_4096_TAU, rounds=2),
    )
    return Workload("sparsefuel", cfg, min_final_federations=2)


def idx_global(pool_dir: str) -> Workload:
    """64 devices on the quadrant geometry, label-skewed (epsilon 0.05) data
    from the generated IDX pool, a 784-64-10 MLP, dense wire kind at psi 0,
    arm global-fedavg, 10 rounds.  Training here is bound by BLAS, not by
    Python overhead.  The arm skips similarity scoring and the wire kind skips
    pruning and quantization, so this is the bypass workload for changes to
    those.  It is the only workload that runs load_idx and the label-skew
    sampler, and it holds a few hundred MB, so a change that costs memory or
    wide-matrix throughput shows here."""
    q = load_config(QUADRANT_CONFIG)
    cfg = dataclasses.replace(
        q,
        data=dataclasses.replace(
            q.data,
            kind="idx-label-skew",
            epsilon=0.05,
            idx_images=os.path.join(pool_dir, "images.idx"),
            idx_labels=os.path.join(pool_dir, "labels.idx"),
        ),
        layers=(POOL_SIDE * POOL_SIDE, 64, POOL_CLASSES),
        protocol=dataclasses.replace(q.protocol, kind="dense", psi=0.0, rounds=10),
    )
    return Workload("global-fedavg", cfg)


NAMES = ("quadrant", "field-4096", "idx-global")


def load(name: str, seed: int, out_dir: str) -> tuple[Workload, str | None]:
    """The named workload and, for idx-global, the sha256 of the pool it
    wrote under out_dir for this seed."""
    if name == "quadrant":
        return quadrant(), None
    if name == "field-4096":
        return field_4096(), None
    if name == "idx-global":
        pool_dir = os.path.join(out_dir, "idx-pool")
        pool_sha = write_idx_pool(pool_dir, seed)
        return idx_global(pool_dir), pool_sha
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")


def write_idx_pool(directory: str, seed: int) -> str:
    """Write the idx-global pool for this seed as IDX files; returns the
    sha256 of images then labels.  Same seed, same bytes."""
    rng = np.random.default_rng((int(seed), _POOL_SALT))
    rotation, _ = np.linalg.qr(rng.normal(size=(POOL_LATENT, POOL_LATENT)))
    simplex = np.eye(POOL_CLASSES) - 1.0 / POOL_CLASSES
    means = POOL_SEPARATION * simplex @ rotation[:POOL_CLASSES]
    mixing = rng.normal(size=(POOL_LATENT, POOL_SIDE * POOL_SIDE)) / math.sqrt(POOL_LATENT)
    labels = rng.permutation(np.arange(POOL_IMAGES) % POOL_CLASSES).astype(np.uint8)
    pixels = np.empty((POOL_IMAGES, POOL_SIDE * POOL_SIDE), dtype=np.uint8)
    for start in range(0, POOL_IMAGES, 1000):
        rows = labels[start : start + 1000]
        latent = means[rows] + rng.normal(size=(len(rows), POOL_LATENT))
        grey = np.rint(128.0 + 40.0 * latent @ mixing)
        pixels[start : start + len(rows)] = np.clip(grey, 0, 255)

    images_blob = struct.pack(">IIII", 0x803, POOL_IMAGES, POOL_SIDE, POOL_SIDE) + pixels.tobytes()
    labels_blob = struct.pack(">II", 0x801, POOL_IMAGES) + labels.tobytes()
    os.makedirs(directory, exist_ok=True)
    digest = hashlib.sha256()
    for name, blob in (("images.idx", images_blob), ("labels.idx", labels_blob)):
        path = os.path.join(directory, name)
        with open(path + ".tmp", "wb") as f:
            f.write(blob)
        os.replace(path + ".tmp", path)
        digest.update(blob)
    return digest.hexdigest()
