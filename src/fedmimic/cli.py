"""Command-line entry point: preprocessing, feature selection, the four
training regimes (central, fl, ftml, fsml), and standalone evaluation.

Exit codes: 0 ok, 2 missing input file, 3 missing prep artifacts,
4 invalid configuration, 5 file-format or shape error.
"""

from __future__ import annotations

import argparse
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
                   Records, apply_pipeline, class_counts, fit_pipeline,
                   load_attack_mapping, map_labels, parse_records,
                   select_columns, shard_clients, split_indices,
                   split_private_public)
from .features import select_union
from .fedsim import ClientShard, derive_seed, openblas_threads, run_fl
from .metrics import confusion, per_class_metrics
from .mimic import STUDENT_INIT_POLICIES, MimicClient, run_fsml, run_ftml
from .modelio import ModelFormatError, load_model, save_model
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
    "threads": usable_cpus(),  # fedsim.run_rounds caps it at the clients
    "hidden": 256,
    "test_fraction": 0.1,
    "official_split": False,
    "per_user_public": False,
    "mimic_full_data": False,
    "out_dir": "out",
}

# lowest allowed value of each range-checked count; lr is checked on its own
MINIMUM = {"rounds": 0, "clients": 1, "samples_per_client": 1, "threads": 1,
           "k_features": 1, "rfe_step": 1}
CHOICES = {"loss": ("mae", "xent"), "student_init": STUDENT_INIT_POLICIES}
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
    "threads": "client training worker processes (default: the usable "
               "CPUs; never more than the clients)",
}


class MissingInput(Exception):
    pass


class MissingPrep(Exception):
    pass


def input_file(path, what: str) -> Path:
    """``path`` as a Path, raising MissingInput (exit 2) naming it when it
    does not exist or is a directory."""
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"{what} not found: {path}")
    if path.is_dir():
        raise MissingInput(f"{what} is a directory: {path}")
    return path


def build_parser() -> argparse.ArgumentParser:
    """``--mode`` plus one flag per DEFAULTS key, typed like its default."""
    p = argparse.ArgumentParser(
        prog="fedmimic",
        description="NSL-KDD federated mimic-learning training harness")
    p.add_argument("--mode", required=True, choices=MODES)
    for key, default in DEFAULTS.items():
        flag, help_ = "--" + key.replace("_", "-"), FLAG_HELP.get(key)
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true", default=None, help=help_)
        else:
            kind = type(default) if isinstance(default, (int, float)) else str
            p.add_argument(flag, type=kind, choices=CHOICES.get(key),
                           help=help_)
    return p


def resolve_config(args: argparse.Namespace) -> dict:
    """flag > config file > default, per key."""
    cfg = dict(DEFAULTS)
    if args.config:
        path = input_file(args.config, "config file")
        file_cfg = json.loads(path.read_text())
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
    for key, low in MINIMUM.items():
        if cfg[key] < low:
            raise ValueError(f"config key {key!r} must be >= {low}, "
                             f"got {cfg[key]!r}")
    if not (math.isfinite(cfg["lr"]) and cfg["lr"] > 0):
        raise ValueError(f"config key 'lr' must be finite and > 0, "
                         f"got {cfg['lr']!r}")


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
    tc = TrainConfig(learning_rate=cfg["lr"], beta1=cfg["beta1"],
                     beta2=cfg["beta2"], batch_size=cfg["batch"],
                     epochs=cfg["epochs"], dropout_rate=cfg["dropout"],
                     loss=cfg["loss"], seed=cfg["seed"])
    tc.validate()
    return tc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def blas_build() -> dict:
    """Name and version of the BLAS numpy was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25: no mode="dicts", no version
        libs = getattr(np.__config__, "blas_opt_info", {}).get("libraries")
        return {"name": libs[0] if libs else None, "version": None}
    return {"name": blas.get("name"), "version": blas.get("version")}


def peak_rss_mb() -> float | None:
    """This process's own peak resident set (VmHWM), None without /proc.
    getrusage is no substitute: its ru_maxrss carries over a spawning
    parent's peak across exec."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def workers_peak_rss_mb() -> float | None:
    """The largest peak resident set of the client worker processes this
    process has joined (ru_maxrss of its children), None if it ran none."""
    try:
        import resource
    except ImportError:  # not on this platform
        return None
    kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0 if kb else None


def environment(cfg: dict, wall_s: float) -> dict:
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
        "workers_peak_rss_mb": workers_peak_rss_mb(),
    }


def write_runmeta(out_dir: Path, cfg: dict, artifacts: list[Path],
                  wall_s: float):
    meta = {
        "config": {k: v for k, v in sorted(cfg.items())},
        "artifacts": {p.name: _sha256(p) for p in artifacts if p.exists()},
        "environment": environment(cfg, wall_s),
    }
    (out_dir / "runmeta.json").write_text(json.dumps(meta, indent=1,
                                                     sort_keys=True))


def _resolve_dataset_path(cfg: dict, key: str, default_name: str) -> Path | None:
    if cfg[key]:
        return Path(cfg[key])
    root = os.environ.get(DATA_ROOT_ENV)
    if root and (Path(root) / default_name).exists():
        return Path(root) / default_name
    return None


def read_labelled(path: Path, mapping: dict) -> tuple[Records, np.ndarray]:
    """The records of one corpus file and their classes; a parse or label
    error names the file."""
    try:
        with open(path) as f:
            records = parse_records(f)
        return records, map_labels(records, mapping)
    except ParseError as e:
        raise type(e)(f"{path}: {e}") from None


def read_split(cfg: dict, train_path: Path, test_path: Path | None):
    """(train, train_y, test, test_y): the given files as they are with
    --official-split, else a seeded re-split of all their rows."""
    mapping = load_attack_mapping(
        input_file(cfg["attack_map"], "attack map") if cfg["attack_map"]
        else None)
    files = [read_labelled(p, mapping) for p in (train_path, test_path) if p]
    if cfg["official_split"]:
        if len(files) < 2 or not len(files[1][0]):
            raise MissingInput("--official-split requires --test-file")
        (train, train_y), (test, test_y) = files
        return train, train_y, test, test_y
    corpus = Records.concat([r for r, _ in files])
    y = np.concatenate([y for _, y in files])
    tr, te = split_indices(len(corpus), cfg["test_fraction"], cfg["seed"])
    return corpus.take(tr), y[tr], corpus.take(te), y[te]


def cmd_prep(cfg: dict) -> list[Path]:
    out_dir = Path(cfg["out_dir"])
    # checked here, created only once the inputs have parsed, so that a
    # failed prep leaves no empty directory behind
    existing = next(d for d in (out_dir, *out_dir.parents) if d.exists())
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

    out_dir.mkdir(parents=True, exist_ok=True)
    np.save(out_dir / "train_X.npy", train_X)
    np.save(out_dir / "train_y.npy", train_y)
    np.save(out_dir / "test_X.npy", test_X)
    np.save(out_dir / "test_y.npy", test_y)
    (out_dir / "pipeline.json").write_text(pipeline.to_json())

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
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1,
                                                      sort_keys=True))
    print(f"prep: {len(train)} train / {len(test)} test, "
          f"{pipeline.expanded_dim} expanded features")
    for name, count in class_counts(train_y).items():
        print(f"  train {name}: {count}")
    return [out_dir / n for n in ("pipeline.json", "manifest.json",
                                  "train_X.npy", "train_y.npy",
                                  "test_X.npy", "test_y.npy")]


def load_prep(out_dir: Path, selected: bool = True):
    """(pipeline, train, test), both splits cut to the feature mask if there is
    one and cast to float32, the dtype models train and predict in.
    ``selected=False`` is the select stage's input: the float64 training split
    on every expanded column and no test split (None)."""
    needed = ["pipeline.json", "train_X.npy", "train_y.npy", "test_X.npy",
              "test_y.npy"]
    missing = [n for n in needed if not (out_dir / n).exists()]
    if missing:
        raise MissingPrep(f"prep artifacts missing from {out_dir}: {missing} "
                          f"(run --mode prep first)")
    pipeline = PreprocessPipeline.from_json((out_dir / "pipeline.json").read_text())
    train = Dataset(np.load(out_dir / "train_X.npy"),
                    np.load(out_dir / "train_y.npy"))
    if not selected:
        return pipeline, train, None
    test = Dataset(np.load(out_dir / "test_X.npy"),
                   np.load(out_dir / "test_y.npy"))
    if pipeline.feature_mask:
        train = Dataset(select_columns(train.X, pipeline.feature_mask), train.y)
        test = Dataset(select_columns(test.X, pipeline.feature_mask), test.y)
    return (pipeline, Dataset(train.X.astype(np.float32), train.y),
            Dataset(test.X.astype(np.float32), test.y))


def cmd_select(cfg: dict) -> list[Path]:
    out_dir = Path(cfg["out_dir"])
    pipeline, train, _ = load_prep(out_dir, selected=False)
    ranking = select_union(train.X, train.y, k=cfg["k_features"],
                           step=cfg["rfe_step"])
    pipeline.feature_mask = ranking.union_mask
    pipeline.per_class_features = ranking.per_class
    (out_dir / "pipeline.json").write_text(pipeline.to_json())
    print(f"select: union mask has {len(ranking.union_mask)} of "
          f"{pipeline.expanded_dim} features")
    return [out_dir / "pipeline.json"]


def build_mimic_clients(train: Dataset, cfg: dict) -> list[MimicClient]:
    seed = cfg["seed"]
    n_clients = cfg["clients"]
    if cfg["mimic_full_data"]:
        pool = train
    else:
        need = n_clients * cfg["samples_per_client"]
        if need > len(train):
            raise ValueError(f"mimic pool needs {need} samples, have {len(train)}")
        idx = np.random.default_rng(derive_seed(seed, 10)).permutation(len(train))[:need]
        pool = Dataset(train.X[idx], train.y[idx])
    private, public = split_private_public(pool, cfg["private_fraction"],
                                           derive_seed(seed, 11))
    per_client = len(private) // n_clients
    if per_client < 1:
        raise ValueError(f"private pool too small for {n_clients} clients")
    shards = shard_clients(private, n_clients, per_client, derive_seed(seed, 12))
    clients = []
    if cfg["per_user_public"]:
        chunk = len(public) // n_clients
        if chunk < 1:
            raise ValueError(f"public pool too small for {n_clients} clients")
        truth = public.truth_for_diagnostics()
        for cid, shard in enumerate(shards):
            sl = slice(cid * chunk, (cid + 1) * chunk)
            clients.append(MimicClient(cid, shard,
                                       PublicSet(public.X[sl], truth[sl])))
    else:
        clients = [MimicClient(cid, shard, public)
                   for cid, shard in enumerate(shards)]
    return clients


def cmd_train(cfg: dict) -> list[Path]:
    out_dir = Path(cfg["out_dir"])
    _, train, test = load_prep(out_dir)
    tc = train_config(cfg)
    mode, seed = cfg["mode"], cfg["seed"]
    teacher_fits = 0

    if mode == "central":  # one client holding the whole train set, one round
        model, history = run_fl([ClientShard(0, train)], test, rounds=1,
                                config=tc, seed=seed, hidden=cfg["hidden"])
    elif mode == "fl":
        shards = [ClientShard(cid, d) for cid, d in enumerate(
            shard_clients(train, cfg["clients"], cfg["samples_per_client"],
                          seed))]
        model, history = run_fl(shards, test, cfg["rounds"], tc, seed,
                                hidden=cfg["hidden"], threads=cfg["threads"])
    elif mode == "ftml":
        model, history = run_ftml(build_mimic_clients(train, cfg), test,
                                  cfg["rounds"], tc, seed, hidden=cfg["hidden"],
                                  student_init=cfg["student_init"],
                                  threads=cfg["threads"])
    else:
        model, history, teacher_fits = run_fsml(
            build_mimic_clients(train, cfg), test, cfg["rounds"], tc, seed,
            hidden=cfg["hidden"], threads=cfg["threads"])

    save_model(model, out_dir / "model.fmim", tc.loss)
    (out_dir / "history.csv").write_text(history.to_csv())
    report = per_class_metrics(confusion(predict(model, test.X), test.y))
    (out_dir / "report.txt").write_text(report.to_text())
    (out_dir / "report.csv").write_text(report.to_csv())
    (out_dir / "report.json").write_text(report.to_json())
    print(f"{mode}: overall test accuracy {report.overall_accuracy:.2f}%")
    if teacher_fits:
        print(f"  one-time teacher fits: {teacher_fits}")
    return [out_dir / n for n in ("model.fmim", "history.csv", "report.txt",
                                  "report.csv", "report.json",
                                  "pipeline.json")]


def accuracy_series(hist_path: Path) -> str:
    """The round,test_accuracy columns of a history.csv. A missing header or a
    row of another field count raises ParseError naming file and line."""
    lines = hist_path.read_text().splitlines()
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


def cmd_eval(cfg: dict) -> list[Path]:
    out_dir = Path(cfg["out_dir"])
    model_path = input_file(cfg["model_file"] or out_dir / "model.fmim",
                            "model file")
    hist_path = (input_file(cfg["history_file"], "history file")
                 if cfg["history_file"] else None)
    model, _ = load_model(model_path)
    _, _, test = load_prep(out_dir)
    if model.input_dim != test.X.shape[1]:
        raise ModelFormatError(f"model expects {model.input_dim} features, "
                               f"test matrix has {test.X.shape[1]}")
    # read the history before writing anything, so a bad one writes nothing
    series = accuracy_series(hist_path) if hist_path else None
    report = per_class_metrics(confusion(predict(model, test.X), test.y))
    (out_dir / "eval_report.txt").write_text(report.to_text())
    (out_dir / "eval_report.csv").write_text(report.to_csv())
    (out_dir / "eval_report.json").write_text(report.to_json())
    artifacts = [out_dir / n for n in ("eval_report.txt", "eval_report.csv",
                                       "eval_report.json")]
    if series is not None:
        (out_dir / "accuracy_series.csv").write_text(series)
        artifacts.append(out_dir / "accuracy_series.csv")
    print(f"eval: overall test accuracy {report.overall_accuracy:.2f}%")
    return artifacts


def main(argv=None) -> int:
    """Runs one stage; on success runmeta.json records its config, the
    digests of the artifacts it wrote and its environment."""
    start = time.perf_counter()
    args = build_parser().parse_args(argv)
    commands = {"prep": cmd_prep, "select": cmd_select, "eval": cmd_eval}
    try:
        cfg = resolve_config(args)
        artifacts = commands.get(cfg["mode"], cmd_train)(cfg)
        write_runmeta(Path(cfg["out_dir"]), cfg, artifacts,
                      time.perf_counter() - start)
        return EXIT_OK
    except (MissingInput, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except MissingPrep as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_PREP
    except (ParseError, ModelFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
