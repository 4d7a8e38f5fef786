"""Seeded synthetic corpus in the NSL-KDD text format.

The rows have the real file layout (41 features, label, difficulty) and the
real nominal vocabularies: 3 protocols, 70 services and 11 flags, so prep
expands them to 38 + 84 = 122 columns. Class totals follow the priors of the
official KDDTrain+ file (``fedmimic.data.OFFICIAL_TRAIN_COUNTS``).

The class structure (which values and features mark which class) comes from
a fixed constant, so every seed draws from the same distribution; ``seed``
only chooses the rows. Classes overlap on purpose, so a trained model stays
well short of 100% test accuracy and a numerics change can still show in it.
Everything is drawn with whole-array numpy calls.
"""

from __future__ import annotations

import numpy as np

from fedmimic.data import (FEATURE_NAMES, NOMINAL_FEATURES, NUM_FEATURES,
                           OFFICIAL_TRAIN_COUNTS, AttackClass)

PROTOCOLS = ["icmp", "tcp", "udp"]
SERVICES = [
    "IRC", "X11", "Z39_50", "aol", "auth", "bgp", "courier", "csnet_ns",
    "ctf", "daytime", "discard", "domain", "domain_u", "echo", "eco_i",
    "ecr_i", "efs", "exec", "finger", "ftp", "ftp_data", "gopher", "harvest",
    "hostnames", "http", "http_2784", "http_443", "http_8001", "imap4",
    "iso_tsap", "klogin", "kshell", "ldap", "link", "login", "mtp", "name",
    "netbios_dgm", "netbios_ns", "netbios_ssn", "netstat", "nnsp", "nntp",
    "ntp_u", "other", "pm_dump", "pop_2", "pop_3", "printer", "private",
    "red_i", "remote_job", "rje", "shell", "smtp", "sql_net", "ssh", "sunrpc",
    "supdup", "systat", "telnet", "tftp_u", "tim_i", "time", "urh_i", "urp_i",
    "uucp", "uucp_path", "vmnet", "whois",
]
FLAGS = ["OTH", "REJ", "RSTO", "RSTOS0", "RSTR", "S0", "S1", "S2", "S3", "SF",
         "SH"]
VOCABS = {"protocol_type": PROTOCOLS, "service": SERVICES, "flag": FLAGS}
EXPANDED_DIM = (NUM_FEATURES - len(NOMINAL_FEATURES)
                + sum(len(v) for v in VOCABS.values()))  # 122

# attack names per class with their KDDTrain+ frequencies
ATTACKS = {
    AttackClass.DoS: {"neptune": 41214, "smurf": 2646, "back": 956,
                      "teardrop": 892, "pod": 201, "land": 18},
    AttackClass.Normal: {"normal": 1},
    AttackClass.Probe: {"satan": 3633, "ipsweep": 3599, "portsweep": 2931,
                        "nmap": 1493},
    AttackClass.R2L: {"warezclient": 890, "guess_passwd": 53,
                      "warezmaster": 20, "imap": 11, "ftp_write": 8,
                      "multihop": 7, "phf": 4, "spy": 2},
    AttackClass.U2R: {"buffer_overflow": 30, "rootkit": 10, "loadmodule": 9,
                      "perl": 3},
}

# How each numeric feature is rendered from its latent value.
_HEAVY = {"duration", "src_bytes", "dst_bytes"}
_BINARY = {"land", "logged_in", "root_shell", "su_attempted", "is_host_login",
           "is_guest_login"}
_CONSTANT = {"num_outbound_cmds"}     # all zero in the official file as well
_COUNT511 = {"count", "srv_count"}
_COUNT255 = {"dst_host_count", "dst_host_srv_count"}
_SMALL = {"wrong_fragment", "urgent", "hot", "num_failed_logins",
          "num_compromised", "num_root", "num_file_creations", "num_shells",
          "num_access_files"}
NUMERIC_NAMES = [n for n in FEATURE_NAMES if n not in NOMINAL_FEATURES]
_RATE_NAMES = (set(NUMERIC_NAMES) - _HEAVY - _BINARY - _CONSTANT - _COUNT511
               - _COUNT255 - _SMALL)

STRUCTURE_SEED = 20201212
MIN_PER_CLASS = 10      # keeps every class present after the 90/10 split
MIN_PER_VALUE = 8       # keeps every vocabulary value in the train split
CLASS_SPREAD = 1.5      # scale of class-mean offsets against unit noise
NOMINAL_MIX = 0.5       # weight of the class-free popularity in nominal draws
INFORMATIVE = 16        # numeric features whose mean depends on the class
# Share of rows whose features are drawn for a class chosen at random by the
# priors instead of for their label. The classes themselves are easy to
# learn, so a model converges within a few epochs to an accuracy capped near
# 100 - 100 * MIXED_ROWS * (1 - sum(prior**2)), about 95%; seeds then differ
# by little more than test-set sampling.
MIXED_ROWS = 0.08

_RATE_TEXT = np.array([f"{k / 100:.2f}" for k in range(101)], dtype=object)


def _structure():
    """Class-conditional parameters shared by every seed."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    n_cls = len(AttackClass)
    nominal = {}
    for fname, vocab in VOCABS.items():
        v = len(vocab)
        popularity = 1.0 / np.arange(1, v + 1) ** 1.1
        popularity = popularity[rng.permutation(v)]
        popularity /= popularity.sum()
        probs = np.empty((n_cls, v))
        for c in range(n_cls):
            favoured = rng.dirichlet(np.full(v, 0.3))
            probs[c] = (1 - NOMINAL_MIX) * favoured + NOMINAL_MIX * popularity
        nominal[fname] = probs
    means = np.zeros((n_cls, len(NUMERIC_NAMES)))
    informative = rng.choice(len(NUMERIC_NAMES), INFORMATIVE, replace=False)
    means[:, informative] = rng.normal(0.0, CLASS_SPREAD,
                                       (n_cls, INFORMATIVE))
    for j, name in enumerate(NUMERIC_NAMES):
        if name in _CONSTANT:
            means[:, j] = 0.0
    return nominal, means


def class_totals(n_rows: int) -> np.ndarray:
    """Rows per class: official priors, at least MIN_PER_CLASS each, with the
    remainder given to the largest class."""
    prior = np.array([OFFICIAL_TRAIN_COUNTS[c.name] for c in AttackClass],
                     dtype=np.float64)
    prior /= prior.sum()
    totals = np.maximum(np.floor(prior * n_rows).astype(np.int64),
                        MIN_PER_CLASS)
    totals[prior.argmax()] += n_rows - totals.sum()
    if totals.min() < MIN_PER_CLASS:
        raise ValueError(f"{n_rows} rows are too few for every class")
    return totals


def _draw_categorical(rng, probs_by_class, y):
    """One draw per row from its class's distribution (inverse CDF)."""
    cdf = np.cumsum(probs_by_class, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(len(y))
    return (u[:, None] > cdf[y]).sum(axis=1)


def _render_numeric(name, z, rng):
    if name in _CONSTANT:
        return np.full(len(z), "0", dtype=object)
    if name in _RATE_NAMES:
        hundredths = np.rint(100.0 / (1.0 + np.exp(-1.5 * z))).astype(np.int64)
        return _RATE_TEXT[hundredths]
    if name in _BINARY:
        return np.where(z > 0.8, "1", "0").astype(object)
    if name in _HEAVY:
        vals = np.rint(np.expm1(np.maximum(z + rng.normal(0, 0.5, len(z)), 0)
                                * 3.0)).astype(np.int64)
    elif name in _COUNT511:
        vals = np.rint(511.0 / (1.0 + np.exp(-z))).astype(np.int64)
    elif name in _COUNT255:
        vals = np.rint(255.0 / (1.0 + np.exp(-z))).astype(np.int64)
    else:  # _SMALL
        vals = np.floor(np.maximum(z - 0.8, 0.0) * 2.0).astype(np.int64)
    return vals.astype(str).astype(object)


def generate_lines(n_rows: int, seed: int) -> list[str]:
    """``n_rows`` NSL-KDD text rows (43 fields each), fully determined by
    ``seed``."""
    if n_rows < MIN_PER_VALUE * max(len(v) for v in VOCABS.values()):
        raise ValueError(f"{n_rows} rows cannot hold every vocabulary value "
                         f"{MIN_PER_VALUE} times")
    nominal_probs, means = _structure()
    rng = np.random.default_rng(seed)
    totals = class_totals(n_rows)
    y = np.repeat(np.arange(len(AttackClass)), totals)
    y = y[rng.permutation(n_rows)]
    looks = y.copy()   # the class each row's features are drawn for
    mixed = rng.random(n_rows) < MIXED_ROWS
    looks[mixed] = rng.choice(len(AttackClass), int(mixed.sum()),
                              p=totals / n_rows)

    columns: dict[str, np.ndarray] = {}
    for fname, vocab in VOCABS.items():
        idx = _draw_categorical(rng, nominal_probs[fname], looks)
        # every value appears at least MIN_PER_VALUE times, on distinct rows
        forced = rng.permutation(n_rows)[:MIN_PER_VALUE * len(vocab)]
        idx[forced] = np.tile(np.arange(len(vocab)), MIN_PER_VALUE)
        columns[fname] = np.asarray(vocab, dtype=object)[idx]

    z = means[looks] + rng.standard_normal((n_rows, len(NUMERIC_NAMES)))
    for j, name in enumerate(NUMERIC_NAMES):
        columns[name] = _render_numeric(name, z[:, j], rng)

    labels = np.empty(n_rows, dtype=object)
    for cls, names in ATTACKS.items():
        rows = np.flatnonzero(y == cls)
        weights = np.array(list(names.values()), dtype=np.float64)
        pick = rng.choice(len(names), size=len(rows), p=weights / weights.sum())
        labels[rows] = np.asarray(list(names), dtype=object)[pick]
    difficulty = rng.integers(0, 22, n_rows).astype(str).astype(object)

    table = np.stack([columns[n] for n in FEATURE_NAMES]
                     + [labels, difficulty], axis=1)
    return [",".join(row) for row in table.tolist()]


def write_corpus(path, n_rows: int, seed: int) -> None:
    """Write the seeded corpus to ``path`` as NSL-KDD text."""
    with open(path, "w") as f:
        f.write("\n".join(generate_lines(n_rows, seed)))
        f.write("\n")
