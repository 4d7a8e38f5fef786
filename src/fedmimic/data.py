"""NSL-KDD parsing, 5-class label mapping, one-hot + min-max preprocessing,
and the seeded splits (train/test, client shards, private/public)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from importlib import resources

import numpy as np

# The 41 NSL-KDD features in file order. protocol_type, service and flag are
# nominal; everything else is numeric or binary.
FEATURE_NAMES = [
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
    "dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
]
NOMINAL_FEATURES = ["protocol_type", "service", "flag"]
_NOMINAL_IDX = [FEATURE_NAMES.index(n) for n in NOMINAL_FEATURES]
_NUMERIC_NAMES = [n for n in FEATURE_NAMES if n not in NOMINAL_FEATURES]
NUM_FEATURES = len(FEATURE_NAMES)          # 41
NUM_NUMERIC = len(_NUMERIC_NAMES)          # 38


class AttackClass(IntEnum):
    DoS = 0
    Normal = 1
    Probe = 2
    R2L = 3
    U2R = 4


# Per-class totals of the official KDDTrain+ file under the shipped mapping.
OFFICIAL_TRAIN_COUNTS = {"DoS": 45927, "Normal": 67343, "Probe": 11656,
                         "R2L": 995, "U2R": 52}

# Class totals reported for the reference 90/10 split of KDDTrain+. Their
# sums (113,373 train / 12,595 test) disagree with the totals quoted
# alongside them (113,375 / 12,598); observed counts always come from the
# actual files and the prep manifest flags this discrepancy.
REFERENCE_SPLIT_TRAIN_COUNTS = {"DoS": 41334, "Normal": 60608, "Probe": 10490,
                                "R2L": 895, "U2R": 46}
REFERENCE_SPLIT_TEST_COUNTS = {"DoS": 4592, "Normal": 6734, "Probe": 1165,
                               "R2L": 99, "U2R": 5}
REFERENCE_REPORTED_TRAIN_TOTAL = 113375
REFERENCE_REPORTED_TEST_TOTAL = 12598


class ParseError(Exception):
    pass


class UnknownLabelError(Exception):
    pass


@dataclass
class RawRecord:
    nominal: tuple[str, str, str]   # protocol_type, service, flag
    numeric: np.ndarray             # 38 values in file order
    label: str
    difficulty: float | None = None


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray

    def __len__(self):
        return self.X.shape[0]


@dataclass
class PublicSet:
    """Unlabeled public features. True labels are kept out of the training
    API on purpose; diagnostics must go through truth_for_diagnostics()."""

    X: np.ndarray
    _truth: np.ndarray | None = None

    def __len__(self):
        return self.X.shape[0]

    def truth_for_diagnostics(self) -> np.ndarray:
        if self._truth is None:
            raise ValueError("no ground truth retained for this public set")
        return self._truth


def parse_records(lines) -> list[RawRecord]:
    """Parse comma-delimited NSL-KDD rows (42 fields, or 43 with the
    difficulty score). Raises ParseError naming the 1-based row, also for a
    nan or inf feature."""
    records = []
    rows = []  # 1-based row of each record
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) not in (NUM_FEATURES + 1, NUM_FEATURES + 2):
            raise ParseError(f"row {i}: expected 42 or 43 fields, got {len(parts)}")
        nominal = tuple(parts[j] for j in _NOMINAL_IDX)
        numeric = np.empty(NUM_NUMERIC)
        k = 0
        for j in range(NUM_FEATURES):
            if j in _NOMINAL_IDX:
                continue
            try:
                numeric[k] = float(parts[j])
            except ValueError:
                raise ParseError(f"row {i}: field {FEATURE_NAMES[j]!r} is not "
                                 f"numeric: {parts[j]!r}") from None
            k += 1
        label = parts[NUM_FEATURES]
        if not label:
            raise ParseError(f"row {i}: empty label")
        difficulty = None
        if len(parts) == NUM_FEATURES + 2:
            try:
                difficulty = float(parts[NUM_FEATURES + 1])
            except ValueError:
                raise ParseError(f"row {i}: difficulty is not numeric: "
                                 f"{parts[NUM_FEATURES + 1]!r}") from None
        records.append(RawRecord(nominal, numeric, label, difficulty))
        rows.append(i)
    # one check after the loop; a numpy check per row is eight times slower
    numeric = np.array([r.numeric for r in records])
    if not np.isfinite(numeric).all():
        r, k = np.argwhere(~np.isfinite(numeric))[0]
        raise ParseError(f"row {rows[r]}: field {_NUMERIC_NAMES[k]!r} is not "
                         f"finite: {numeric[r, k]}")
    return records


def load_attack_mapping(path=None) -> dict[str, AttackClass]:
    """attack_name -> AttackClass from a two-column TAB file; defaults to the
    mapping shipped with the package."""
    if path is None:
        text = (resources.files("fedmimic") / "data/attack_classes.tsv").read_text()
    else:
        with open(path) as f:
            text = f.read()
    mapping = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"mapping line {i}: expected 2 TAB-separated "
                             f"columns, got {len(parts)}")
        name, cls = parts
        try:
            mapping[name] = AttackClass[cls]
        except KeyError:
            raise ParseError(f"mapping line {i}: unknown class name {cls!r}") from None
    return mapping


def map_label(raw_label: str, mapping: dict[str, AttackClass] | None = None) -> AttackClass:
    if mapping is None:
        mapping = load_attack_mapping()
    try:
        return mapping[raw_label]
    except KeyError:
        raise UnknownLabelError(f"label {raw_label!r} is not in the attack "
                                f"mapping") from None


def map_labels(records: list[RawRecord],
               mapping: dict[str, AttackClass] | None = None) -> np.ndarray:
    if mapping is None:
        mapping = load_attack_mapping()
    return np.array([map_label(r.label, mapping) for r in records], dtype=np.int64)


def class_counts(y: np.ndarray) -> dict[str, int]:
    return {c.name: int((y == c).sum()) for c in AttackClass}


@dataclass
class PreprocessPipeline:
    """Fitted one-hot vocabularies, per-column min/max, and the selected
    feature mask. Column layout of the expanded matrix follows file order,
    with each nominal feature expanded in place to its sorted vocabulary."""

    vocabs: dict[str, list[str]]
    mins: np.ndarray
    maxs: np.ndarray
    feature_mask: list[int] | None = None
    per_class_features: dict[str, list[int]] = field(default_factory=dict)

    @property
    def expanded_dim(self) -> int:
        return NUM_NUMERIC + sum(len(v) for v in self.vocabs.values())

    def column_names(self) -> list[str]:
        names = []
        for fname in FEATURE_NAMES:
            if fname in NOMINAL_FEATURES:
                names.extend(f"{fname}={v}" for v in self.vocabs[fname])
            else:
                names.append(fname)
        return names

    def to_json(self) -> str:
        doc = {
            "vocabs": self.vocabs,
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
            "feature_mask": self.feature_mask,
            "per_class_features": self.per_class_features,
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PreprocessPipeline":
        doc = json.loads(text)
        return cls(vocabs=doc["vocabs"],
                   mins=np.asarray(doc["mins"]),
                   maxs=np.asarray(doc["maxs"]),
                   feature_mask=doc["feature_mask"],
                   per_class_features=doc.get("per_class_features", {}))


def fit_pipeline(records: list[RawRecord]) -> PreprocessPipeline:
    """Fit vocabularies (sorted) and min/max ranges on training records only."""
    if not records:
        raise ValueError("cannot fit a pipeline on zero records")
    vocabs = {}
    for pos, fname in enumerate(NOMINAL_FEATURES):
        vocabs[fname] = sorted({r.nominal[pos] for r in records})
    numeric = np.stack([r.numeric for r in records])
    return PreprocessPipeline(vocabs=vocabs, mins=numeric.min(axis=0),
                              maxs=numeric.max(axis=0))


def apply_pipeline(pipeline: PreprocessPipeline,
                   records: list[RawRecord]) -> np.ndarray:
    """Expanded feature matrix in [0,1]. Unseen nominal values become an
    all-zero block; out-of-range numerics clip; min==max columns emit 0."""
    n = len(records)
    out = np.zeros((n, pipeline.expanded_dim))
    vocab_index = {fname: {v: i for i, v in enumerate(pipeline.vocabs[fname])}
                   for fname in NOMINAL_FEATURES}
    # column offsets per original feature
    col = 0
    offsets = []
    for fname in FEATURE_NAMES:
        offsets.append(col)
        col += len(pipeline.vocabs[fname]) if fname in NOMINAL_FEATURES else 1

    span = pipeline.maxs - pipeline.mins
    safe_span = np.where(span > 0, span, 1.0)
    numeric = np.stack([r.numeric for r in records]) if n else np.zeros((0, NUM_NUMERIC))
    scaled = np.clip((numeric - pipeline.mins) / safe_span, 0.0, 1.0)
    scaled[:, span == 0] = 0.0

    k = 0
    for j, fname in enumerate(FEATURE_NAMES):
        if fname in NOMINAL_FEATURES:
            pos = NOMINAL_FEATURES.index(fname)
            idx = vocab_index[fname]
            for i, r in enumerate(records):
                c = idx.get(r.nominal[pos])
                if c is not None:
                    out[i, offsets[j] + c] = 1.0
        else:
            out[:, offsets[j]] = scaled[:, k]
            k += 1
    return out


def select_columns(matrix: np.ndarray, mask) -> np.ndarray:
    mask = list(mask)
    if any(m2 <= m1 for m1, m2 in zip(mask, mask[1:])):
        raise ValueError("feature mask must be strictly increasing")
    if mask and (mask[0] < 0 or mask[-1] >= matrix.shape[1]):
        raise ValueError(f"feature mask index out of range for "
                         f"{matrix.shape[1]} columns")
    return matrix[:, mask]


def split_indices(n: int, test_fraction: float = 0.10,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train, test) index partition; test size rounds to fraction."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    n_test = int(round(n * test_fraction))
    order = np.random.default_rng(seed).permutation(n)
    return order[n_test:], order[:n_test]


def split_train_test(X: np.ndarray, y: np.ndarray, test_fraction: float = 0.10,
                     seed: int = 0) -> tuple[Dataset, Dataset]:
    train_idx, test_idx = split_indices(X.shape[0], test_fraction, seed)
    return Dataset(X[train_idx], y[train_idx]), Dataset(X[test_idx], y[test_idx])


def shard_clients(train: Dataset, num_clients: int = 10,
                  samples_per_client: int = 500, seed: int = 0) -> list[Dataset]:
    """Disjoint uniform-random shards of exactly samples_per_client each."""
    need = num_clients * samples_per_client
    if need > len(train):
        raise ValueError(f"need {need} samples for {num_clients} clients x "
                         f"{samples_per_client}, have {len(train)}")
    order = np.random.default_rng(seed).permutation(len(train))[:need]
    shards = []
    for c in range(num_clients):
        idx = order[c * samples_per_client:(c + 1) * samples_per_client]
        shards.append(Dataset(train.X[idx], train.y[idx]))
    return shards


def split_private_public(pool: Dataset, private_fraction: float = 0.60,
                         seed: int = 0) -> tuple[Dataset, PublicSet]:
    """Private labeled portion for teachers, public unlabeled remainder."""
    if not (0.0 < private_fraction < 1.0):
        raise ValueError(f"private_fraction must be in (0,1), got {private_fraction}")
    n = len(pool)
    n_private = int(round(n * private_fraction))
    order = np.random.default_rng(seed).permutation(n)
    priv_idx, pub_idx = order[:n_private], order[n_private:]
    private = Dataset(pool.X[priv_idx], pool.y[priv_idx])
    public = PublicSet(pool.X[pub_idx], pool.y[pub_idx])
    return private, public
