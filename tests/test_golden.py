"""Behaviour lock: the SHA-256 of the metrics CSV for fixed runs.

Every float the simulator computes feeds the CSV (objective, per-region loss
and accuracy, bytes, MACs), so an unchanged digest means unchanged behaviour
byte for byte.  A change that moves floats on purpose must update the digests
below and say why in CHANGES.md.

The digests hold on one BLAS kernel: they were re-pinned, when one generator
per round came to draw every device's shuffle and one per world every
device's samples, with numpy 2.4.6 and its OpenBLAS 0.3.31 (DYNAMIC_ARCH),
which ran its SkylakeX (AVX-512) kernels on the x86-64 host.  Runs compute
in float32, where a product's rounding under another kernel can reach the
CSV's six digits: with OpenBLAS's Haswell or Sandybridge kernels
(OPENBLAS_CORETYPE) some of these digests differ, and a digest that moves
names the core in use.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from sparsefuel.harness import load_config, metrics_csv_text, run_experiment_result

from conftest import digest_moved, write_idx_pair

QUADRANT_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "quadrant.cfg")


def quadrant_case(kind="sparse+quantized", psi=0.3, similarity_uses_compressed=True):
    """configs/quadrant.cfg cut to three rounds, with the wire settings swapped."""
    cfg = load_config(QUADRANT_CFG)
    protocol = dataclasses.replace(
        cfg.protocol,
        kind=kind,
        psi=psi,
        similarity_uses_compressed=similarity_uses_compressed,
        rounds=3,
    )
    return dataclasses.replace(cfg, protocol=protocol)


def digest(cfg, arm, seed):
    return hashlib.sha256(metrics_csv_text(run_experiment_result(cfg, arm=arm, seed=seed).records).encode()).hexdigest()


# (arm, seed, psi) -> digest, sparse+quantized wire
QUADRANT_GOLDEN = {
    ('global-fedavg', 1, 0.0): 'bc5d59b07debfdac5d19be0481127159335c1d7ed5149dfe7eeb3f9afdf90d41',
    ('global-fedavg', 1, 0.3): '0ae8457cffedb17a7777b6546623e42e610ba5168716879b2fbc93c2bdc2ab71',
    ('global-fedavg', 1, 0.9): '0c8661a0c6f952a766e1453e2e02313180c480f306fdb2d6b69570339ea95b91',
    ('global-fedavg', 2, 0.0): '59543ce1ad3af839338bdab0544d2176f067403b35af21673d3d35651123f402',
    ('global-fedavg', 2, 0.3): 'f6fcf8c66cb3a4a25a5714d3e4473e93652532abc36669bd3f5d83e8c30e3e2c',
    ('global-fedavg', 2, 0.9): '658997a7537930f0d73e8c82cb37ea7de57a2f9a3ad632fea29bb4a64fd1847f',
    ('global-fedavg', 3, 0.0): '5cbec54401dabc1691794c57cac101d6d96774bc1dce1d100bcba52438af9762',
    ('global-fedavg', 3, 0.3): 'db75e35be3fe899ae7305235ee1d80b3dc6724b25ebcd2b184213e89d91fa5a4',
    ('global-fedavg', 3, 0.9): '21662c29a864c191527f07456a688c43da61cc30eba6c9974d4e467d8e33beb4',
    ('isolated', 1, 0.0): '512ddd99946433076c8239bdfbbbc4119817b5a2e16e459f9dbe23bab8455084',
    ('isolated', 1, 0.3): '6337cfc3b444b28d8d5a385e3ac0f31c6ac014b0978727fd71f45315e47a218c',
    ('isolated', 1, 0.9): '0515b2a3a546c36bf322b7ff37391dffe0bcfca5eb5e5d7af83ab60c268acaae',
    ('isolated', 2, 0.0): 'fd61cc5658d996bb63644f80649310e01914627cc5fe960143c679d13f844ac1',
    ('isolated', 2, 0.3): '6b370f74bf57b13114b3123e7fa002e18524a88b990da28a3e13ce4450353a9b',
    ('isolated', 2, 0.9): 'e99fed6d12c943321f105572ed98c518461ec81468056f9793eb0fcab2ac9db7',
    ('isolated', 3, 0.0): '78b0a6fa4d689b2b9ca9de55c88751d8babd76055dc34d8852aad8827cfa62ba',
    ('isolated', 3, 0.3): '2f6405d9a172fdd2cbe56ec91145d95ffc1538d411e5c5c238eabfe66fdd9ee2',
    ('isolated', 3, 0.9): '709de0b2af3d22b21458511774af02b3adc373f8a38ae2b2230aacb1357033b2',
    ('sparsefuel', 1, 0.0): 'fd7f137e042effc91bc90a8befe1fe781f86190a8a12dd33f25d3a210c84274c',
    ('sparsefuel', 1, 0.3): '175f9468e6167131624b1d2c5a3295ae37773f695e6a9d2c595a0864473d400a',
    ('sparsefuel', 1, 0.9): 'f8de09e6ee8ab7aaf3b1b8ac42ed07eabdbf9ce00053432de4c4f731ef642c24',
    ('sparsefuel', 2, 0.0): '557cdf4011f6d4821ea0e961775cd41228766cf16f807c2fa46a27484a776bf4',
    ('sparsefuel', 2, 0.3): '76f476c195096abda2d74836610d3a3deec1cad4f92f1794964c6d1a55cf7bf8',
    ('sparsefuel', 2, 0.9): '18535da35b197fe2ac7404d7c820aadf76360a5d9ae1f1b8f14cc7efd63c922e',
    ('sparsefuel', 3, 0.0): 'd75c98ddd850f707339fdb140564a2d138cbc06a920cea349105f76929d211f0',
    ('sparsefuel', 3, 0.3): '5ae2d6369ed394bc5ecccbf7190fcdb1817d4f12fc68a8156369c58da85217d5',
    ('sparsefuel', 3, 0.9): '077e93f6b1e4bf445679aa5e7b90c1f7532f523face1cfa6230c814aec0c0919',
}

# (kind, psi, similarity_uses_compressed) -> digest, sparsefuel arm, seed 1
WIRE_GOLDEN = {
    ('dense', 0.0, True): 'dea017d7418880aabbd1f75f57e5d274ae9d28b4f7e3d532ae380e4293daaf77',
    ('quantized', 0.0, True): '713d4b63565b05b2bf2adcb5eb7291626043d99ded2cee314aa5ef59fc49807e',
    ('sparse', 0.3, True): '47af52db3dcc9a98ecf8249129232a2dc9f6b4160354c4340f4836624d8e6af3',
    ('sparse+quantized', 0.3, False): 'cc85a72ba6a328a95e5be1591c9674ac50a523b874643e98edd66ef07e82a6de',
}


@pytest.mark.parametrize("arm, seed, psi", sorted(QUADRANT_GOLDEN))
def test_quadrant_digest(arm, seed, psi):
    got = digest(quadrant_case(psi=psi), arm, seed)
    assert got == QUADRANT_GOLDEN[(arm, seed, psi)], digest_moved(f"{arm}, seed {seed}, psi {psi}")


@pytest.mark.parametrize("kind, psi, similarity_uses_compressed", sorted(WIRE_GOLDEN))
def test_wire_variant_digest(kind, psi, similarity_uses_compressed):
    cfg = quadrant_case(kind, psi, similarity_uses_compressed)
    got = digest(cfg, "sparsefuel", 1)
    want = WIRE_GOLDEN[(kind, psi, similarity_uses_compressed)]
    assert got == want, digest_moved(f"{kind}, psi {psi}, compressed similarity {similarity_uses_compressed}")


# A 36-64-8 MLP at batch 32 needs 4 * (2888 params + 32 * 108 activations)
# = 25,376 bytes per float32 device in lockstep training, so the 9 devices
# train as one chunk.
IDX_LAYERS = (36, 64, 8)
IDX_DEVICES = 9
IDX_GOLDEN = 'be57a25eccc950e778e8044d42c2f6ff4af0d082e050eab14fc9cfc22c463825'


def idx_case(tmp_path):
    """Nine devices on a 2x2 label-skewed IDX pool of 6x6 images, 8 classes."""
    rng = np.random.default_rng(20240)
    labels = np.arange(800) % 8
    class_means = rng.uniform(40, 215, (8, 6, 6))
    images = np.clip(class_means[labels] + rng.normal(0, 30, (800, 6, 6)), 0, 255)
    img, lbl = write_idx_pair(tmp_path, images.astype(np.uint8), labels)
    cfg = load_config(QUADRANT_CFG)
    return dataclasses.replace(
        cfg,
        environment=dataclasses.replace(cfg.environment, n=IDX_DEVICES, r_c=4.0),
        data=dataclasses.replace(
            cfg.data,
            kind="idx-label-skew",
            samples_per_device=60,
            test_samples=80,
            epsilon=0.1,
            idx_images=img,
            idx_labels=lbl,
        ),
        layers=IDX_LAYERS,
        protocol=dataclasses.replace(cfg.protocol, tau=4.0, rounds=3),
    )


def test_idx_label_skew_digest(tmp_path):
    assert digest(idx_case(tmp_path), "sparsefuel", 1) == IDX_GOLDEN, digest_moved("idx-label-skew")
