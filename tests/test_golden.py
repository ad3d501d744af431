"""Behaviour lock: the SHA-256 of the metrics CSV for fixed runs.

Every float the simulator computes feeds the CSV (objective, per-region loss
and accuracy, bytes, MACs), so an unchanged digest means unchanged behaviour
byte for byte.  A change that moves floats on purpose must update the digests
below and say why in CHANGES.md.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from sparsefuel.harness import load_config, metrics_csv_text, run_experiment

from conftest import write_idx_pair

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
    return hashlib.sha256(metrics_csv_text(run_experiment(cfg, arm=arm, seed=seed)).encode()).hexdigest()


# (arm, seed, psi) -> digest, sparse+quantized wire
QUADRANT_GOLDEN = {
    ('sparsefuel', 1, 0.0): '2b95d383b10ef70987694231617ceee488401eb738b4a8fc979484aac5826687',
    ('sparsefuel', 1, 0.3): 'c2382a9ffcc6db5d87b647a7e07322210134e78395874f38c2e85f10db1e3c73',
    ('sparsefuel', 1, 0.9): '734b664ce9e59c0811f146c5cb98b05b0c22ba0435c1b455565169dfa125aa92',
    ('sparsefuel', 2, 0.0): '08c09722f81d7e08b2fdfb387599b240d857eceefe8a49d54afae14d7ab00adc',
    ('sparsefuel', 2, 0.3): '2c961b7f198074d64743c448b7b49bceaa9f5f59462520920893d9eda72190bc',
    ('sparsefuel', 2, 0.9): '602256d73374e38462c59b201c229ad86ba09aef153f98762bacf695b4ca0081',
    ('sparsefuel', 3, 0.0): 'aaaf78f499b76b31ce14454a3d51baa3f5001565aaf53fe7cd5f94981793c3f4',
    ('sparsefuel', 3, 0.3): 'd0ae188250940c45fd7cc08a0563a1cad332f6a5f536c2ed72c4922dfc9bff63',
    ('sparsefuel', 3, 0.9): '27a4a92a81a2d140cf66dad79df9e423dd8c89ca20bec00cdc477378bcd6de26',
    ('global-fedavg', 1, 0.0): '4e3ee2a33b45cd000db3823943f8b6c2ce038386883725c21deb7a5c6c57ee33',
    ('global-fedavg', 1, 0.3): '47c1a3a906a4b38936c15f0231a467a01d0fe4fce75eb578a3acaabb6cc49b29',
    ('global-fedavg', 1, 0.9): '0eeb5ab039da14d2a9994ce5c2ea585e7f63f7576de2a42c35f9cd124f719c30',
    ('global-fedavg', 2, 0.0): 'e7e655c162b80fe505b1a892b8693f5b78b13644af376e499f365d38313c0e47',
    ('global-fedavg', 2, 0.3): 'e5e19309040d5f03f0dcc684c16831ee855a618925574e163bdd8826362b3449',
    ('global-fedavg', 2, 0.9): 'fbd048fd04d46270ffce7d276e2e6a159003b39e1616d69be604adc0bae78805',
    ('global-fedavg', 3, 0.0): 'bb7226db08805385b8a489c60ff0390da5e408713a49b0167563907ac1a85bef',
    ('global-fedavg', 3, 0.3): '0e9c165301a8f95456f94996a795b79a359c2912f83ce5191c788acde167c70e',
    ('global-fedavg', 3, 0.9): 'cfffa33047d63b449607fb6e4060b7f455fa9f4b2fadae4694e7ba4d6dfb8dfc',
    ('isolated', 1, 0.0): 'baf67a8d6ce3c7aa1c35594cad89722afccd478d39e0f85c9ee6205307fd3950',
    ('isolated', 1, 0.3): 'f65251178d26162044d014ac3f0676ca47bb7a5cb2d8246b5bb4f75355ba0df4',
    ('isolated', 1, 0.9): 'acda41f3e328dedfdfc3f1856ae451a854755e4d6be82333e3cebce72db07db7',
    ('isolated', 2, 0.0): '229f506a223fcc367eb732d677b342e16086669d6e7be6862e4966a08721082c',
    ('isolated', 2, 0.3): 'ef4468eb8b258efeddb638f2ccf0161099f4280f18e307a98a72039f5463f9b2',
    ('isolated', 2, 0.9): '7e0af5b928114e627cf8a1d4febeaa79da6c19b7bdd54d45119dc78529d9d4a9',
    ('isolated', 3, 0.0): '8ffabdb67d389f829954f5d52de41671ccd086f5c3aa571789970be0696f63b0',
    ('isolated', 3, 0.3): '96d75d326b2cdbf24ab9092f77e5037de743e2023df73444548d76edbac550e3',
    ('isolated', 3, 0.9): '087964247ce63ff4ce7e6dae1163277fb8a8e167ee2c5624ca7c98e314f74595',
}

# (kind, psi, similarity_uses_compressed) -> digest, sparsefuel arm, seed 1
WIRE_GOLDEN = {
    ('dense', 0.0, True): '28de9567380a55028f87ed384379f9159d66ad600f058f865139240f77115e12',
    ('sparse', 0.3, True): '5ca5e28bcfb91d3b506dcd6aba61d40a6e9b9bc347fb90831b84969c7cf7e94e',
    ('quantized', 0.0, True): 'fbd61cbeac06d2892eb9ac09c13ab169427556e5c5c32461eb9b751f409926ed',
    ('sparse+quantized', 0.3, False): '8b3721b2443cf69179831bace9ca64d4bda1d2183bf2b02790250aa946abbbc0',
}


@pytest.mark.parametrize("arm, seed, psi", sorted(QUADRANT_GOLDEN))
def test_quadrant_digest(arm, seed, psi):
    assert digest(quadrant_case(psi=psi), arm, seed) == QUADRANT_GOLDEN[(arm, seed, psi)]


@pytest.mark.parametrize("kind, psi, similarity_uses_compressed", sorted(WIRE_GOLDEN))
def test_wire_variant_digest(kind, psi, similarity_uses_compressed):
    cfg = quadrant_case(kind, psi, similarity_uses_compressed)
    assert digest(cfg, "sparsefuel", 1) == WIRE_GOLDEN[(kind, psi, similarity_uses_compressed)]


# A 36-64-8 MLP at batch 32 needs 8 * (2888 params + 32 * 108 activations)
# = 50,752 bytes per device in lockstep training, so a 256 KiB budget trains
# 5 devices at a time: the 9 devices split into chunks of 5 and 4.
IDX_LAYERS = (36, 64, 8)
IDX_DEVICES = 9
IDX_GOLDEN = 'a27c3ee6406651e2a12e03bd026863961f6c25750653b595fb8e1a037362550f'


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
    assert digest(idx_case(tmp_path), "sparsefuel", 1) == IDX_GOLDEN
