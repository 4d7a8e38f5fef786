"""Command-line entry point: preprocessing, feature selection, the four
training regimes (central, fl, ftml, fsml), and standalone evaluation.

Exit codes: 0 ok, 2 missing input file, 3 missing prep artifacts,
4 invalid configuration, a fit that diverges, a model too large for memory
or a file the stage cannot write, 5 file-format or shape error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import data as D
from .data import (Dataset, ParseError, PreprocessPipeline, PublicSet,
                   Records, apply_pipeline, class_counts, first_undecodable,
                   fit_pipeline, load_attack_mapping, map_labels,
                   parse_records, read_text, shard_clients, split_indices,
                   split_private_public)
from .features import select_union
from .fedsim import (TAG_MIMIC_POOL, TAG_PRIVATE_PUBLIC, TAG_PRIVATE_SHARDS,
                     derive_seed, openblas_threads, peak_rss_mb, run_fl)
from .metrics import confusion, per_class_metrics
from .mimic import MimicClient, run_fsml, run_ftml
from .modelio import load_model, save_model
from .nn import TrainConfig, predict

EXIT_OK = 0
EXIT_MISSING_INPUT = 2
EXIT_MISSING_PREP = 3
EXIT_BAD_CONFIG = 4
EXIT_FORMAT = 5

DATA_ROOT_ENV = "FEDMIMIC_DATA_ROOT"

MODES = ("prep", "select", "central", "fl", "ftml", "fsml", "eval")


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# defaults follow the simulation parameter table
DEFAULTS = {
    "train_file": None,
    "test_file": None,
    "config": None,
    "attack_map": None,
    "model_file": None,
    "history_file": None,
    "seed": 0,
    "rounds": 20,
    "clients": 10,
    "samples_per_client": 500,
    "epochs": 10,
    "batch": 128,
    "lr": 0.001,
    "beta1": 0.1,
    "beta2": 0.99,
    "dropout": 0.4,
    "loss": "mae",
    "k_features": 20,
    "rfe_step": 5,
    "private_fraction": 0.6,
    "student_init": "warm",
    "threads": usable_cpus(),  # cmd_train caps it at the usable CPUs
    "hidden": 256,
    "test_fraction": 0.1,
    "official_split": False,
    "per_user_public": False,
    "mimic_full_data": False,
    "out_dir": "out",
}

# the allowed interval of each range-checked number, as (low, high,
# brackets): "[" and "]" allow the bound itself, "(" and ")" do not. NaN is
# in no interval. Dropout keeps a unit with a probability that is a multiple
# of 2**-16 (nn._forward_cached), so it cannot keep less than that.
RANGES = {
    **{key: (low, math.inf, "[)") for key, low in (
        ("seed", 0), ("rounds", 0), ("clients", 1), ("samples_per_client", 1),
        ("threads", 1), ("k_features", 1), ("rfe_step", 1), ("hidden", 1),
        ("batch", 1), ("epochs", 0))},
    "lr": (0.0, math.inf, "()"),
    "dropout": (0.0, 1.0 - 2.0 ** -16, "[]"),
    "beta1": (0.0, 1.0, "[)"),
    "beta2": (0.0, 1.0, "[)"),
    "private_fraction": (0.0, 1.0, "()"),
    "test_fraction": (0.0, 1.0, "()"),
}
CHOICES = {"loss": ("mae", "xent"), "student_init": ("warm", "global")}
FLAG_HELP = {
    "config": "JSON config file; flags override it",
    "attack_map": "custom attack->class mapping file",
    "model_file": "model to evaluate (mode=eval)",
    "history_file": "history.csv to re-emit as an accuracy series (mode=eval)",
    "official_split": "use the given train/test files as-is instead of "
                      "re-splitting the combined corpus",
    "per_user_public": "give each mimic client its own public shard",
    "mimic_full_data": "mimic pool = whole training set instead of "
                       "clients x samples-per-client",
    "student_init": "where each FTML student starts a round: its own last "
                    "student or the global model (mode=ftml)",
    "threads": "client training worker processes (default: the usable "
               "CPUs; never more than the clients or the usable CPUs)",
}


class MissingInput(Exception):
    pass


class MissingPrep(Exception):
    pass


def input_file(path, what: str) -> Path:
    """``path`` as a Path, raising MissingInput (exit 2) naming it when it
    does not exist or is a directory."""
    path = Path(path)
    # os.path.exists says False for a name too long for the system, where
    # Path.exists raises on some Python versions
    if not os.path.exists(path):
        raise MissingInput(f"{what} not found: {path}")
    if path.is_dir():
        raise MissingInput(f"{what} is a directory: {path}")
    return path


class _Parser(argparse.ArgumentParser):
    """Raises a command-line error as ValueError (exit 4), instead of
    printing the usage and exiting 2, the code of a missing input file."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """``--mode`` plus one flag per DEFAULTS key, typed like its default;
    check_ranges checks the values."""
    p = _Parser(
        prog="fedmimic",
        description="NSL-KDD federated mimic-learning training harness")
    p.add_argument("--mode", required=True, choices=MODES)
    for key, default in DEFAULTS.items():
        flag, help_ = "--" + key.replace("_", "-"), FLAG_HELP.get(key)
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true", default=None, help=help_)
        else:
            kind = type(default) if isinstance(default, (int, float)) else str
            p.add_argument(flag, type=kind, help=help_,
                           metavar="|".join(CHOICES.get(key, ())) or None)
    return p


def resolve_config(args: argparse.Namespace) -> dict:
    """flag > config file > default, per key."""
    cfg = dict(DEFAULTS)
    if args.config:
        path = input_file(args.config, "config file")
        try:
            file_cfg = json.loads(read_text(path))
        except ParseError as e:  # not UTF-8; names the file and the line
            raise ValueError(f"config file {e}") from None
        except ValueError as e:  # not JSON
            raise ValueError(f"config file {path}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        for key, val in file_cfg.items():
            check_config_value(key, val)
        cfg.update(file_cfg)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    check_ranges(cfg)
    cfg["mode"] = args.mode
    return cfg


def check_ranges(cfg: dict) -> None:
    """Values out of range, from a flag or the config file, raise ValueError
    naming the key (exit 4)."""
    for key, (low, high, brackets) in RANGES.items():
        val = cfg[key]
        above = low <= val if brackets[0] == "[" else low < val
        below = val <= high if brackets[1] == "]" else val < high
        if not (above and below):
            raise ValueError(f"config key {key!r} must be in {brackets[0]}"
                             f"{low}, {high}{brackets[1]}, got {val!r}")
    for key, allowed in CHOICES.items():
        if cfg[key] not in allowed:
            raise ValueError(f"config key {key!r} must be one of "
                             f"{', '.join(allowed)}, got {cfg[key]!r}")


def check_config_value(key: str, val) -> None:
    """A config-file key must be in DEFAULTS, its value of the default's type:
    ints reject bools, floats take ints, None-default paths take str or null."""
    if key not in DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    default = DEFAULTS[key]
    if default is None:
        want, allowed = "str or null", (str, type(None))
    elif isinstance(default, float):
        want, allowed = "float", (int, float)
    else:
        want, allowed = type(default).__name__, (type(default),)
    if type(val) not in allowed:
        raise ValueError(f"config key {key!r} must be {want}, got {val!r}")


def train_config(cfg: dict) -> TrainConfig:
    """The training values of ``cfg``, each a key that check_ranges checks."""
    return TrainConfig(learning_rate=cfg["lr"], beta1=cfg["beta1"],
                       beta2=cfg["beta2"], batch_size=cfg["batch"],
                       epochs=cfg["epochs"], dropout_rate=cfg["dropout"],
                       loss=cfg["loss"], seed=cfg["seed"])


@contextlib.contextmanager
def _writing(path: Path):
    """Raises an OSError of its block as ValueError (exit 4) naming ``path``."""
    try:
        yield
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from None


class _HashingFile:
    """A binary file that hashes the bytes written through it."""

    def __init__(self, f):
        self.f, self.sha256 = f, hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.f.write(data)


class Artifacts:
    """The files one stage writes to its out dir. Each goes to a hidden
    temporary file beside its name, ``.<name>.tmp``, and is hashed as it is
    written. When the ``with`` block ends without an exception, every file
    is renamed into place in the order written; otherwise, and after a
    failed rename, the temporary files are removed, and so are the
    directories ``make_dirs`` created, where empty. ``digests`` maps each
    name to its sha256. Files are not fsynced."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.digests: dict[str, str] = {}
        self._temps: dict[str, Path] = {}
        self._made: list[Path] = []

    def make_dirs(self) -> None:
        """Creates the out dir and those of its parents that do not exist,
        outermost first."""
        missing = []
        for d in (self.out_dir, *self.out_dir.parents):
            if _exists(d):
                break
            missing.append(d)
        for d in reversed(missing):
            with _writing(d):
                d.mkdir()
            self._made.append(d)

    @contextlib.contextmanager
    def open(self, name: str):
        """A binary file for the artifact ``name``. A directory of that name
        fails here, not in a rename after earlier files have landed."""
        path, tmp = self.out_dir / name, self.out_dir / f".{name}.tmp"
        with _writing(path):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            with open(tmp, "wb") as f:
                self._temps[name] = tmp
                sink = _HashingFile(f)
                yield sink
        self.digests[name] = sink.sha256.hexdigest()

    def write_text(self, name: str, text: str) -> None:
        with self.open(name) as f:
            f.write(text.encode("utf-8"))

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        try:
            if kind is None:
                for name, tmp in list(self._temps.items()):
                    with _writing(self.out_dir / name):
                        os.replace(tmp, self.out_dir / name)
                    del self._temps[name]
                self._made.clear()
        finally:
            for tmp in self._temps.values():
                tmp.unlink(missing_ok=True)
            for d in reversed(self._made):
                with contextlib.suppress(OSError):
                    d.rmdir()


def blas_build() -> dict:
    """Name and version of the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def environment(cfg: dict, wall_s: float,
                workers_peak_rss_mb: float | None) -> dict:
    """What a stage ran on and what it cost; not byte-stable across runs."""
    return {
        "numpy": np.__version__,
        "blas": blas_build(),
        "usable_cpus": usable_cpus(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "threads": cfg["threads"],
        "blas_pinnable": openblas_threads() is not None,
        "wall_s": round(wall_s, 3),
        "peak_rss_mb": peak_rss_mb(),
        "workers_peak_rss_mb": workers_peak_rss_mb,
    }


def write_runmeta(out: Artifacts, cfg: dict, wall_s: float,
                  workers_peak_rss_mb: float | None = None):
    """The stage's last file: its config, the digests of the files it wrote
    and of the pipeline.json it trained on, and its environment."""
    meta = {
        "config": {k: v for k, v in sorted(cfg.items())},
        "artifacts": dict(out.digests),
        "environment": environment(cfg, wall_s, workers_peak_rss_mb),
    }
    out.write_text("runmeta.json", json.dumps(meta, indent=1, sort_keys=True))


def _resolve_dataset_path(cfg: dict, key: str, default_name: str) -> Path | None:
    if cfg[key]:
        return Path(cfg[key])
    root = os.environ.get(DATA_ROOT_ENV)
    if root and os.path.exists(Path(root) / default_name):
        return Path(root) / default_name
    return None


def read_labelled(path: Path, mapping: dict) -> tuple[Records, np.ndarray]:
    """The records of one corpus file, read as UTF-8, and their classes. A
    parse or label error, a byte that does not decode and a file with no
    records raise ParseError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            records = parse_records(f)
        if not len(records):
            raise ParseError("no records")
        return records, map_labels(records, mapping)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: {first_undecodable(path, 'row')}") from None
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def read_split(cfg: dict, train_path: Path, test_path: Path | None):
    """(train, train_y, test, test_y): the given files as they are with
    --official-split, else a seeded re-split of all their rows."""
    mapping = load_attack_mapping(
        input_file(cfg["attack_map"], "attack map") if cfg["attack_map"]
        else None)
    files = [read_labelled(p, mapping) for p in (train_path, test_path) if p]
    if cfg["official_split"]:
        if len(files) < 2:
            raise MissingInput("--official-split requires --test-file")
        (train, train_y), (test, test_y) = files
        return train, train_y, test, test_y
    corpus = Records.concat([r for r, _ in files])
    y = np.concatenate([y for _, y in files])
    tr, te = split_indices(len(corpus), cfg["test_fraction"], cfg["seed"])
    return corpus.take(tr), y[tr], corpus.take(te), y[te]


# a stage's summary lines and the largest peak memory (MB) of its client
# worker processes, None when it started none
StageResult = tuple[list[str], float | None]


def _exists(path: Path) -> bool:
    """Whether ``path`` exists. A path the system cannot look up, such as a
    name too long for it, raises OSError (ValueError for a NUL character):
    os.path.exists, and Path.exists on some Python versions, would say
    False, and a later mkdir would fail."""
    try:
        path.stat()
    except (FileNotFoundError, NotADirectoryError):
        return False
    return True


def cmd_prep(cfg: dict, out: Artifacts) -> StageResult:
    out_dir = out.out_dir
    # checked here, created only once the inputs have parsed; a prep that
    # fails after that removes the directories it created
    try:
        existing = next(d for d in (out_dir, *out_dir.parents) if _exists(d))
    except (OSError, ValueError) as e:
        raise ValueError(f"--out-dir {out_dir} cannot be looked up: "
                         f"{e}") from None
    if not existing.is_dir():
        raise ValueError(f"--out-dir {out_dir} is not a directory")
    train_path = _resolve_dataset_path(cfg, "train_file", "KDDTrain+.txt")
    if train_path is None:
        raise MissingInput(f"no training file: pass --train-file or set "
                           f"${DATA_ROOT_ENV}")
    train_path = input_file(train_path, "training file")
    test_path = _resolve_dataset_path(cfg, "test_file", "KDDTest+.txt")
    if test_path is not None:
        test_path = input_file(test_path, "test file")

    train, train_y, test, test_y = read_split(cfg, train_path, test_path)
    pipeline = fit_pipeline(train)
    train_X = apply_pipeline(pipeline, train)
    test_X = apply_pipeline(pipeline, test)

    out.make_dirs()
    for name, array in (("train_X", train_X), ("train_y", train_y),
                        ("test_X", test_X), ("test_y", test_y)):
        with out.open(f"{name}.npy") as f:
            np.save(f, array)
    out.write_text("pipeline.json", pipeline.to_json())

    observed = class_counts(np.concatenate([train_y, test_y]))
    manifest = {
        "n_train": len(train),
        "n_test": len(test),
        "expanded_dim": pipeline.expanded_dim,
        "train_class_counts": class_counts(train_y),
        "test_class_counts": class_counts(test_y),
        "corpus_class_counts": observed,
        "matches_official_kddtrain": observed == D.OFFICIAL_TRAIN_COUNTS,
        "reference_split_train_counts": D.REFERENCE_SPLIT_TRAIN_COUNTS,
        "reference_split_test_counts": D.REFERENCE_SPLIT_TEST_COUNTS,
        "reference_count_discrepancy": {
            "reference_train_sum": sum(D.REFERENCE_SPLIT_TRAIN_COUNTS.values()),
            "reference_reported_train_total": D.REFERENCE_REPORTED_TRAIN_TOTAL,
            "reference_test_sum": sum(D.REFERENCE_SPLIT_TEST_COUNTS.values()),
            "reference_reported_test_total": D.REFERENCE_REPORTED_TEST_TOTAL,
            "note": "reference per-class sums disagree with the reported "
                    "totals; observed counts above come from the files",
        },
    }
    out.write_text("manifest.json", json.dumps(manifest, indent=1,
                                               sort_keys=True))
    summary = [f"prep: {len(train)} train / {len(test)} test, "
               f"{pipeline.expanded_dim} expanded features"]
    summary += [f"  train {name}: {count}"
                for name, count in class_counts(train_y).items()]
    return summary, None


def _read_split(out_dir: Path, name: str, columns: int) -> Dataset:
    """One prep split, ``<name>_X.npy`` and ``<name>_y.npy``, checked: X a
    finite float32 matrix of ``columns`` columns, y one class index (0-4)
    per row of X. Anything else raises ParseError naming the file (exit 5)."""
    x_path, y_path = out_dir / f"{name}_X.npy", out_dir / f"{name}_y.npy"
    arrays = []
    for path in (x_path, y_path):
        try:
            arrays.append(np.load(path, allow_pickle=False))
        except (ValueError, OSError, EOFError) as e:
            raise ParseError(f"{path}: unreadable array ({e})") from None
    X, y = arrays
    if X.dtype == np.float64:
        raise ParseError(f"{x_path}: float64 matrix from an older prep; run "
                         f"--mode prep again")
    if X.ndim != 2 or X.shape[1] != columns or X.dtype != np.float32:
        raise ParseError(f"{x_path}: {X.dtype} array of shape {X.shape} is "
                         f"not a float32 matrix of {columns} columns")
    if not len(X):
        raise ParseError(f"{x_path}: no rows")
    if not np.isfinite(X).all():
        raise ParseError(f"{x_path}: non-finite values")
    if y.ndim != 1 or y.dtype.kind not in "iu" or len(y) != len(X):
        raise ParseError(f"{y_path}: {y.dtype} array of shape {y.shape} is "
                         f"not {len(X)} integer labels")
    if y.min() < 0 or y.max() >= len(D.AttackClass):
        raise ParseError(f"{y_path}: labels outside 0-"
                         f"{len(D.AttackClass) - 1}")
    return Dataset(X, y)


def load_prep(out_dir: Path, splits: tuple[str, ...] = ("train", "test"),
              selected: bool = True, digests: dict | None = None):
    """(pipeline, train, test) for the named ``splits``, a split not named
    None. Each is cut to the feature mask unless it is null; ``selected=False``
    keeps every expanded column, the select stage's input. ``digests``, if
    given, gets the sha256 of the pipeline.json bytes read. A missing
    artifact raises MissingPrep (exit 3), a damaged or unreadable one
    ParseError naming it (exit 5), a mask that from_json rejects included."""
    needed = ["pipeline.json", *(f"{name}_{part}.npy" for name in splits
                                 for part in "Xy")]
    missing = [n for n in needed if not os.path.exists(out_dir / n)]
    if missing:
        raise MissingPrep(f"prep artifacts missing from {out_dir}: {missing} "
                          f"(run --mode prep first)")
    path = out_dir / "pipeline.json"
    try:
        raw = path.read_bytes()
        pipeline = PreprocessPipeline.from_json(raw.decode("utf-8"))
    except OSError as e:
        raise ParseError(f"{path}: unreadable ({e.strerror or e})") from None
    except ValueError as e:  # JSON and Unicode decoding errors included
        raise ParseError(f"{path}: {e}") from None
    if digests is not None:
        digests[path.name] = hashlib.sha256(raw).hexdigest()
    loaded = {}
    for name in splits:
        split = _read_split(out_dir, name, pipeline.expanded_dim)
        if selected and pipeline.feature_mask is not None:
            split = Dataset(split.X[:, pipeline.feature_mask], split.y)
        loaded[name] = split
    return pipeline, loaded.get("train"), loaded.get("test")


def cmd_select(cfg: dict, out: Artifacts) -> StageResult:
    pipeline, train, _ = load_prep(out.out_dir, ("train",), selected=False)
    k, dim = cfg["k_features"], pipeline.expanded_dim
    if k > dim:
        raise ValueError(f"config key 'k_features' must be in [1, {dim}], "
                         f"the prep's expanded features, got {k}")
    per_class = select_union(train.X, train.y, k=k, step=cfg["rfe_step"])
    pipeline.feature_mask = sorted(set().union(*per_class.values()))
    pipeline.per_class_features = per_class
    out.write_text("pipeline.json", pipeline.to_json())
    return [f"select: union mask has {len(pipeline.feature_mask)} of "
            f"{pipeline.expanded_dim} features"], None


def build_mimic_clients(train: Dataset, cfg: dict) -> list[MimicClient]:
    seed, n_clients = cfg["seed"], cfg["clients"]
    pool = train
    if not cfg["mimic_full_data"]:
        need = n_clients * cfg["samples_per_client"]
        if need > len(train):
            raise ValueError(f"mimic pool needs {need} samples, have {len(train)}")
        pool = shard_clients(train, 1, need,
                             derive_seed(seed, TAG_MIMIC_POOL))[0]
    private, public = split_private_public(
        pool, cfg["private_fraction"], derive_seed(seed, TAG_PRIVATE_PUBLIC))
    per_client = len(private) // n_clients
    if per_client < 1:
        raise ValueError(f"private pool too small for {n_clients} clients")
    if not len(public):
        raise ValueError(f"public pool is empty: private_fraction "
                         f"{cfg['private_fraction']} leaves none of the "
                         f"{len(pool)} pool rows public")
    shards = shard_clients(private, n_clients, per_client,
                           derive_seed(seed, TAG_PRIVATE_SHARDS))
    if not cfg["per_user_public"]:
        return [MimicClient(shard, public) for shard in shards]
    chunk = len(public) // n_clients
    if chunk < 1:
        raise ValueError(f"public pool too small for {n_clients} clients")
    truth = public.truth_for_diagnostics()
    cuts = [slice(c * chunk, (c + 1) * chunk) for c in range(n_clients)]
    return [MimicClient(shard, PublicSet(public.X[sl], truth[sl]))
            for shard, sl in zip(shards, cuts)]


def cmd_train(cfg: dict, out: Artifacts) -> StageResult:
    # the digest of the mask the model is trained on goes to runmeta.json
    _, train, test = load_prep(out.out_dir, digests=out.digests)
    tc = train_config(cfg)
    mode, seed = cfg["mode"], cfg["seed"]
    # _client_map forks what it is asked for, up to the clients
    threads = min(cfg["threads"], usable_cpus())

    if mode == "central":  # one client holding the whole train set, one round
        model, history = run_fl([train], test, rounds=1,
                                config=tc, seed=seed, hidden=cfg["hidden"])
    elif mode == "fl":
        shards = shard_clients(train, cfg["clients"],
                               cfg["samples_per_client"], seed)
        model, history = run_fl(shards, test, cfg["rounds"], tc, seed,
                                hidden=cfg["hidden"], threads=threads)
    elif mode == "ftml":
        model, history = run_ftml(build_mimic_clients(train, cfg), test,
                                  cfg["rounds"], tc, seed, hidden=cfg["hidden"],
                                  warm_students=cfg["student_init"] == "warm",
                                  threads=threads)
    else:
        model, history = run_fsml(
            build_mimic_clients(train, cfg), test, cfg["rounds"], tc, seed,
            hidden=cfg["hidden"], threads=threads)

    with out.open("model.fmim") as f:
        save_model(model, f, tc.loss)
    out.write_text("history.csv", history.to_csv())
    report = per_class_metrics(confusion(predict(model, test.X), test.y))
    out.write_text("report.txt", report.to_text())
    out.write_text("report.csv", report.to_csv())
    out.write_text("report.json", report.to_json())
    return [f"{mode}: overall test accuracy {report.overall_accuracy:.2f}%"], \
        history.workers_peak_rss_mb


def accuracy_series(hist_path: Path) -> str:
    """The round,test_accuracy columns of a history.csv. A missing header or a
    row of another field count raises ParseError naming file and line."""
    lines = read_text(hist_path).splitlines()
    cols = lines[0].split(",") if lines else []
    if "round" not in cols or "test_accuracy" not in cols:
        raise ParseError(f"{hist_path} line 1: no round,test_accuracy header")
    ri, ai = cols.index("round"), cols.index("test_accuracy")
    series = ["round,test_accuracy"]
    for n, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(cols):
            raise ParseError(f"{hist_path} line {n}: {len(fields)} fields, "
                             f"header has {len(cols)}")
        series.append(f"{fields[ri]},{fields[ai]}")
    return "\n".join(series) + "\n"


def cmd_eval(cfg: dict, out: Artifacts) -> StageResult:
    out_dir = out.out_dir
    model_path = input_file(cfg["model_file"] or out_dir / "model.fmim",
                            "model file")
    hist_path = (input_file(cfg["history_file"], "history file")
                 if cfg["history_file"] else None)
    model, _ = load_model(model_path)
    _, _, test = load_prep(out_dir, ("test",))
    if model.input_dim != test.X.shape[1]:
        raise ParseError(f"model expects {model.input_dim} features, "
                         f"test matrix has {test.X.shape[1]}")
    # read the history before writing anything, so a bad one writes nothing
    series = accuracy_series(hist_path) if hist_path else None
    try:
        predicted = predict(model, test.X)
    except FloatingPointError as e:  # finite weights a diverged fit left
        raise ParseError(f"{model_path}: {e} on the test matrix") from None
    report = per_class_metrics(confusion(predicted, test.y))
    out.write_text("eval_report.txt", report.to_text())
    out.write_text("eval_report.csv", report.to_csv())
    out.write_text("eval_report.json", report.to_json())
    if series is not None:
        out.write_text("accuracy_series.csv", series)
    return [f"eval: overall test accuracy {report.overall_accuracy:.2f}%"], None


def print_summary(lines: list[str]) -> None:
    """Prints a stage's summary lines. A reader that has closed stdout does
    not fail the stage: stdout then points at devnull, so that neither these
    lines nor the flush at exit raise BrokenPipeError."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def print_error(e: Exception | str) -> None:
    """One ``error:`` line on stderr; a line break in the message, such as
    one in a path from the config file, is escaped."""
    text = str(e).replace("\r", "\\r").replace("\n", "\\n")
    print(f"error: {text}", file=sys.stderr)


def main(argv=None) -> int:
    """Runs one stage; on success runmeta.json records its config, the
    digests of the artifacts it wrote and its environment, and then the
    stage prints its summary. A stage that fails leaves the files of its
    out dir as it found them."""
    start = time.perf_counter()
    commands = {"prep": cmd_prep, "select": cmd_select, "eval": cmd_eval}
    try:
        cfg = resolve_config(build_parser().parse_args(argv))
        with Artifacts(Path(cfg["out_dir"])) as out:
            summary, workers_peak = commands.get(cfg["mode"], cmd_train)(
                cfg, out)
            write_runmeta(out, cfg, time.perf_counter() - start,
                          workers_peak)
        print_summary(summary)
        return EXIT_OK
    except (MissingInput, FileNotFoundError) as e:
        print_error(e)
        return EXIT_MISSING_INPUT
    except MissingPrep as e:
        print_error(e)
        return EXIT_MISSING_PREP
    except ParseError as e:
        print_error(e)
        return EXIT_FORMAT
    except ValueError as e:
        print_error(e)
        return EXIT_BAD_CONFIG
    except FloatingPointError as e:  # a learning rate the data cannot take
        print_error(f"training diverged ({e}); try a lower --lr")
        return EXIT_BAD_CONFIG
    except MemoryError as e:  # a --hidden too wide to allocate, say
        print_error(f"out of memory ({e})" if str(e) else "out of memory")
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
