"""NSL-KDD parsing, 5-class label mapping, one-hot + min-max preprocessing,
and the seeded splits (train/test, client shards, private/public)."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from enum import IntEnum
from importlib import resources
from operator import itemgetter

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
_pick_nominal = itemgetter(*_NOMINAL_IDX)
_pick_numeric = itemgetter(*(FEATURE_NAMES.index(n) for n in _NUMERIC_NAMES))
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
    """A malformed input file; the message says where its fault is."""


@dataclass
class Records:
    """Parsed NSL-KDD rows as columns."""

    nominal: np.ndarray     # (n x 3) str: protocol_type, service, flag
    numeric: np.ndarray     # (n x 38) float64, the other features in file order
    labels: np.ndarray      # (n,) str
    difficulty: np.ndarray  # (n,) float64, nan where the row has 42 fields
    rows: np.ndarray        # (n,) 1-based row in its file

    def __len__(self):
        return len(self.rows)

    def take(self, idx) -> "Records":
        return Records(*(getattr(self, f.name)[idx] for f in fields(self)))

    @classmethod
    def concat(cls, parts: list["Records"]) -> "Records":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))


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


# parse_records converts numeric fields to floats this many rows at a time,
# so the corpus is never held as one list of millions of strings
PARSE_BLOCK_ROWS = 8192


def _numeric_block(texts: list[str], rows: list[int]) -> np.ndarray:
    """The (len(rows) x 39) float64 values of the numeric fields and the
    difficulty of file rows `rows`, given as one flat list of strings.
    Raises ParseError naming the row and field of the first string float()
    rejects."""
    width = NUM_NUMERIC + 1  # the difficulty rides along as a last column
    try:
        return np.array(texts, dtype=np.float64).reshape(-1, width)
    except ValueError:  # float() finds the first field numpy rejected
        for k, text in enumerate(texts):
            try:
                float(text)
            except ValueError:
                r, j = divmod(k, width)
                name = (_NUMERIC_NAMES + ["difficulty"])[j]
                raise ParseError(f"row {rows[r]}: field {name!r} is not "
                                 f"numeric: {text!r}") from None
        raise


def parse_records(lines) -> Records:
    """Parse comma-delimited NSL-KDD rows (42 fields, or 43 with the
    difficulty score). Raises ParseError naming the 1-based row, also for a
    nan or inf feature."""
    rows, nominal, labels, numeric, blocks = [], [], [], [], []
    for i, line in enumerate(lines, start=1):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) not in (NUM_FEATURES + 1, NUM_FEATURES + 2):
            raise ParseError(f"row {i}: expected 42 or 43 fields, got {len(parts)}")
        if not parts[NUM_FEATURES]:
            raise ParseError(f"row {i}: empty label")
        if "\0" in line:  # a numpy str array would drop a trailing NUL
            j = next(j for j, text in enumerate(parts) if "\0" in text)
            name = (FEATURE_NAMES + ["label", "difficulty"])[j]
            raise ParseError(f"row {i}: field {name!r} holds a NUL character")
        rows.append(i)
        nominal.append(_pick_nominal(parts))
        labels.append(parts[NUM_FEATURES])
        numeric += _pick_numeric(parts)
        numeric.append(parts[-1] if len(parts) > NUM_FEATURES + 1 else "nan")
        if len(rows) % PARSE_BLOCK_ROWS == 0:
            blocks.append(_numeric_block(numeric, rows[-PARSE_BLOCK_ROWS:]))
            numeric = []
    start = len(blocks) * PARSE_BLOCK_ROWS
    blocks.append(_numeric_block(numeric, rows[start:]))
    values = np.concatenate(blocks)
    bad = ~np.isfinite(values[:, :NUM_NUMERIC])
    if bad.any():
        r, k = np.argwhere(bad)[0]
        raise ParseError(f"row {rows[r]}: field {_NUMERIC_NAMES[k]!r} "
                         f"is not finite: {values[r, k]}")
    return Records(np.array(nominal, dtype=str).reshape(-1, 3),
                   values[:, :NUM_NUMERIC], np.array(labels, dtype=str),
                   values[:, NUM_NUMERIC], np.array(rows, dtype=np.int64))


def first_undecodable(path, unit: str = "line") -> str:
    """``<unit> N: byte 0xXX is not UTF-8`` for the first such byte of a file
    that holds one, its lines numbered from 1."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for i, line in enumerate(f, start=1):
            bad = re.search("[\udc80-\udcff]", line)
            if bad:
                return (f"{unit} {i}: byte 0x{ord(bad[0]) - 0xdc00:02x} is "
                        f"not UTF-8")


def read_text(path) -> str:
    """A text file's contents, read as UTF-8; a byte that does not decode
    raises ParseError naming the file and the byte's line."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: {first_undecodable(path)}") from None


def load_attack_mapping(path=None) -> dict[str, AttackClass]:
    """attack_name -> AttackClass from a two-column TAB file; defaults to the
    mapping shipped with the package. A format error raises ParseError
    naming the file and its 1-based line."""
    if path is None:
        source = "shipped attack_classes.tsv"
        text = (resources.files("fedmimic") / "data/attack_classes.tsv").read_text()
    else:
        source = path
        text = read_text(path)
    mapping = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(f"{source}: line {i}: expected 2 TAB-separated "
                             f"columns, got {len(parts)}")
        name, cls = parts
        try:
            mapping[name] = AttackClass[cls]
        except KeyError:
            raise ParseError(f"{source}: line {i}: unknown class name "
                             f"{cls!r}") from None
    return mapping


def map_labels(records: Records,
               mapping: dict[str, AttackClass] | None = None) -> np.ndarray:
    """Class of each record; an unknown label raises ParseError naming the
    record's row."""
    if mapping is None:
        mapping = load_attack_mapping()
    labels = records.labels.tolist()
    try:
        return np.array([mapping[s] for s in labels], dtype=np.int64)
    except KeyError:
        i = next(i for i, s in enumerate(labels) if s not in mapping)
        raise ParseError(f"row {records.rows[i]}: label {labels[i]!r} is not "
                         f"in the attack mapping") from None


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
        """Raises ValueError naming what makes ``text`` no pipeline: no JSON
        object, a missing key, vocabularies that are not one list per
        nominal feature, or a feature mask that is neither null (every
        column) nor a non-empty, strictly increasing list of ints in
        ``range(expanded_dim)``."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        missing = [f.name for f in fields(cls) if f.name not in doc]
        if missing:
            raise ValueError(f"missing keys {missing}")
        vocabs, mask = doc["vocabs"], doc["feature_mask"]
        if not (isinstance(vocabs, dict)
                and sorted(vocabs) == sorted(NOMINAL_FEATURES)
                and all(isinstance(v, list) for v in vocabs.values())):
            raise ValueError("'vocabs' is not one list per nominal feature")
        pipeline = cls(vocabs=vocabs, mins=np.asarray(doc["mins"]),
                       maxs=np.asarray(doc["maxs"]), feature_mask=mask,
                       per_class_features=doc["per_class_features"])
        dim = pipeline.expanded_dim
        if mask is not None and not (
                isinstance(mask, list) and mask
                and all(type(i) is int for i in mask)
                and 0 <= mask[0] and mask[-1] < dim
                and all(a < b for a, b in zip(mask, mask[1:]))):
            raise ValueError(f"'feature_mask' is not null or a non-empty, "
                             f"strictly increasing list of ints in [0, {dim})")
        return pipeline


def fit_pipeline(records: Records) -> PreprocessPipeline:
    """Fit vocabularies (sorted) and min/max ranges on training records only."""
    vocabs = {fname: np.unique(col).tolist()
              for fname, col in zip(NOMINAL_FEATURES, records.nominal.T)}
    return PreprocessPipeline(vocabs=vocabs, mins=records.numeric.min(axis=0),
                              maxs=records.numeric.max(axis=0))


def apply_pipeline(pipeline: PreprocessPipeline, records: Records) -> np.ndarray:
    """Expanded float32 feature matrix in [0,1], the dtype every later stage
    computes in; the scaling runs in float64 and is rounded once. Unseen
    nominal values become an all-zero block; out-of-range numerics clip;
    min==max columns emit 0."""
    span = pipeline.maxs - pipeline.mins
    safe_span = np.where(span > 0, span, 1.0)
    scaled = np.clip((records.numeric - pipeline.mins) / safe_span, 0.0, 1.0)
    scaled[:, span == 0] = 0.0
    one_hot = [col[:, None] == np.array(pipeline.vocabs[fname], dtype=str)
               for fname, col in zip(NOMINAL_FEATURES, records.nominal.T)]
    # the nominal features sit next to each other in file order
    first = _NOMINAL_IDX[0]
    return np.hstack([scaled[:, :first], *one_hot, scaled[:, first:]],
                     dtype=np.float32)


def split_indices(n: int, test_fraction: float = 0.10,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (train, test) index partition; test size rounds to fraction,
    and neither side may be empty."""
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ValueError(f"test_fraction {test_fraction} splits {n} rows into "
                         f"{n - n_test} train / {n_test} test; both must be "
                         f"non-empty")
    order = np.random.default_rng(seed).permutation(n)
    return order[n_test:], order[:n_test]


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
    n = len(pool)
    n_private = int(round(n * private_fraction))
    order = np.random.default_rng(seed).permutation(n)
    priv_idx, pub_idx = order[:n_private], order[n_private:]
    private = Dataset(pool.X[priv_idx], pool.y[priv_idx])
    public = PublicSet(pool.X[pub_idx], pool.y[pub_idx])
    return private, public
