import os
from pathlib import Path

import numpy as np
import pytest

from fedmimic.modelio import save_model

# synthetic NSL-KDD-shaped traffic for tests that don't need the real files

PROTOCOLS = ["icmp", "tcp", "udp"]
SERVICES = ["dns", "ftp", "http", "irc", "pop3", "smtp", "ssh", "telnet"]
FLAGS = ["REJ", "RSTR", "S0", "SF"]
ATTACKS_BY_CLASS = {
    0: ["neptune", "smurf"],
    1: ["normal"],
    2: ["satan", "nmap"],
    3: ["guess_passwd", "warezclient"],
    4: ["rootkit", "buffer_overflow"],
}


def make_kdd_lines(n=400, seed=0, class_probs=(0.30, 0.40, 0.20, 0.07, 0.03),
                   difficulty=True):
    """Comma-delimited rows shaped like NSL-KDD, with class-dependent
    feature distributions so models have something to learn."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n):
        c = int(rng.choice(5, p=class_probs))
        fields = []
        fields.append(str(int(rng.integers(0, 1000))))        # duration
        fields.append(PROTOCOLS[(c + int(rng.integers(0, 2))) % 3])
        fields.append(SERVICES[(2 * c + int(rng.integers(0, 2))) % len(SERVICES)])
        fields.append(FLAGS[c % len(FLAGS)])
        fields.append(str(int(rng.integers(0, 5000))))         # src_bytes
        fields.append(str(int(rng.integers(0, 5000))))         # dst_bytes
        # remaining 35 numerics: a few informative, rest noise
        vals = rng.random(35)
        vals[0] = np.clip(c / 4.0 + rng.normal(0, 0.08), 0, 1)
        vals[5] = np.clip((4 - c) / 4.0 + rng.normal(0, 0.08), 0, 1)
        vals[10] = np.clip(0.2 * c + rng.normal(0, 0.05), 0, 1)
        fields.extend(f"{v:.4f}" for v in vals)
        label = ATTACKS_BY_CLASS[c][int(rng.integers(0, len(ATTACKS_BY_CLASS[c])))]
        fields.append(label)
        if difficulty:
            fields.append(str(int(rng.integers(0, 22))))
        lines.append(",".join(fields))
    return lines


@pytest.fixture
def kdd_file(tmp_path):
    def write(name="train.txt", n=400, seed=0):
        path = tmp_path / name
        path.write_text("\n".join(make_kdd_lines(n=n, seed=seed)) + "\n")
        return path
    return write


def write_model(model, path, loss_kind="mae"):
    """Saves ``model`` to a new file at ``path``."""
    with open(path, "wb") as f:
        save_model(model, f, loss_kind)


def toy_separable(n=200, d=4, seed=1, margin=1.0):
    """Linearly separable 2-class set (classes 0/1 of 5): feature 0 carries
    the label with the given margin, the rest is bounded noise."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.uniform(-0.4, 0.4, (n, d))
    X[:, 0] = np.where(y == 1, margin, -margin) + rng.uniform(-0.3, 0.3, n)
    return X, y


@pytest.fixture
def nslkdd_dir():
    """Directory with the official KDDTrain+.txt (and optionally KDDTest+.txt);
    full-dataset acceptance runs skip when unavailable."""
    root = os.environ.get("FEDMIMIC_DATA_ROOT")
    if not root or not (Path(root) / "KDDTrain+.txt").exists():
        pytest.skip("official NSL-KDD files not available "
                    "(set FEDMIMIC_DATA_ROOT to run)")
    return Path(root)
