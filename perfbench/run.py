#!/usr/bin/env python3
"""Benchmark of the fedmimic CLI on a seeded NSL-KDD-shaped corpus.

Run from the repository root:

    python3 perfbench/run.py --workload ftml --seed 1 --seconds 55 --trace 0

Each timed stage is a fresh ``python -m fedmimic.cli`` process, run at the
CLI's default ``--threads 1`` in the environment this script is given, with
one BLAS/OpenMP thread unless that environment sets
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` (see ``STAGE_THREADS``). Set-up writes the seeded corpus as
NSL-KDD text and runs ``--mode prep`` on it. The workload's main stage
(``select`` or ``ftml``) then repeats for ``--seconds`` and every metric is a
median over the repetitions.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` prints the
per-layer metrics: it alternates untraced operations with operations run
under ``perfbench/tracer.py``, which times calls into each module's public
functions, and compares the wall times of the two.
The workloads, metrics and the layer-to-metric map are described in
``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the stage times and the ``runmeta.json`` artifact
digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK = Path(__file__).resolve().parent / "_work"

TIME_LIMIT_S = 170.0      # the whole run, set-up included
SETUP_REPEATS = 5         # at least this many set-ups per untraced run,
SETUP_MIN_S = 1.0         # and repeated until they took this long
MIN_OPS = 3               # timed operations per untraced run
TRACED_OPS = 2            # least traced operations per traced run, so call
                          # counts can be compared
# BLAS/OpenMP threads per stage where the environment sets none. With
# OpenBLAS's default of one thread per vCPU, whole 55 s runs of a 4,000-row
# select on a 2-vCPU VM spread by 9-19% (IQR/median over 5 seeds), against
# 4% with one thread, while that select took 9% longer.
STAGE_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
P99_MIN_CALLS = 1000      # below this a p99 has under ten samples beyond it
LOGREG_EPOCHS = 200       # fedmimic.features.fit_logreg's default, which
                          # select uses

COMMON = {"seed": 0, "batch": 128, "hidden": 256}
# Sizes are chosen so that one operation takes a few seconds on a 2-core
# machine and several repeat within a run.
WORKLOADS = {
    # prep -> select, and once per run a FedAvg fit on the selected columns
    # (20 clients x 100 rows, one step per fit). RFE drops 20 columns a step
    # on 10,000 training rows: on a 2-vCPU VM single selects spread by 7-9%
    # (IQR/median), against 13-20% with 5 columns a step on 2,000 rows,
    # whose many small numpy calls are more sensitive to the host. The
    # 10,000 test rows keep the accuracy steady across seeds.
    "pipeline": {"rows": 20000, "test_fraction": 0.5, "k_features": 20,
                 "rfe_step": 20, "mode": "fl", "epochs": 1, "rounds": 5,
                 "clients": 20, "samples_per_client": 100, "lr": 0.003},
    # prep -> ftml on all 122 columns (no feature mask, so no RFE); lr 0.003:
    # at the default 0.001 three epochs leave every teacher predicting the
    # majority class
    "ftml": {"rows": 20000, "mode": "ftml", "epochs": 3, "rounds": 2,
             "clients": 10, "samples_per_client": 500,
             "private_fraction": 0.6, "student_init": "warm", "lr": 0.003},
}

TRAIN_FLAGS = ("seed", "batch", "hidden", "epochs", "rounds", "clients",
               "samples_per_client", "private_fraction", "student_init", "lr")

END_TO_END = {
    "setup_s": "s", "stage_s": "s",
    "fit_samples_per_s": "rows/s", "peak_rss_mb": "MB", "test_acc_pct": "%",
}

# per-layer metrics: (name, unit, kind, span, scale); kinds are computed in
# layer_metrics()
_S, _MS, _US = 1.0, 1e3, 1e6
PER_LAYER = [
    ("data.parse_records.total_s", "s", "total", "data.parse_records", _S),
    ("data.fit_pipeline.total_s", "s", "total", "data.fit_pipeline", _S),
    ("data.apply_pipeline.total_s", "s", "total", "data.apply_pipeline", _S),
    ("data.map_labels.total_s", "s", "total", "data.map_labels", _S),
    ("features.fit_logreg.calls", "count", "calls", "features.fit_logreg", 1),
    ("features.fit_logreg.p50_ms", "ms", "p50", "features.fit_logreg", _MS),
    ("features.fit_logreg.total_s", "s", "total", "features.fit_logreg", _S),
    ("features.rfe.self_s", "s", "self", "features.rfe", _S),
    ("features.select_union.total_s", "s", "total", "features.select_union",
     _S),
    ("nn.backward.calls", "count", "calls", "nn.backward", 1),
    ("nn.backward.p50_us", "us", "p50", "nn.backward", _US),
    ("nn.backward.p99_us", "us", "p99", "nn.backward", _US),
    ("nn.backward.total_s", "s", "total", "nn.backward", _S),
    ("nn.adam_step.p50_us", "us", "p50", "nn.adam_step", _US),
    ("nn.adam_step.p99_us", "us", "p99", "nn.adam_step", _US),
    ("nn.adam_step.total_s", "s", "total", "nn.adam_step", _S),
    ("nn.forward.p50_us", "us", "p50", "nn.forward", _US),
    ("nn.forward.total_s", "s", "total", "nn.forward", _S),
    ("nn.loss.total_s", "s", "total", "nn.loss", _S),
    ("nn.predict.calls", "count", "calls", "nn.predict", 1),
    ("nn.predict.total_s", "s", "total", "nn.predict", _S),
    ("nn.train_local.calls", "count", "calls", "nn.train_local", 1),
    ("nn.train_local.self_s", "s", "self", "nn.train_local", _S),
    ("nn.step_us", "us", "step", None, _US),
    ("fedsim.fedavg.calls", "count", "calls", "fedsim.fedavg", 1),
    ("fedsim.fedavg.p50_ms", "ms", "p50", "fedsim.fedavg", _MS),
    ("fedsim.fedavg.total_s", "s", "total", "fedsim.fedavg", _S),
    ("fedsim.test_accuracy.p50_ms", "ms", "p50", "fedsim.test_accuracy", _MS),
    ("fedsim.test_accuracy.total_s", "s", "total", "fedsim.test_accuracy",
     _S),
    ("fedsim.run_fl.self_s", "s", "self", "fedsim.run_fl", _S),
    ("fedsim.round.p50_s", "s", "round", None, _S),
    ("fedsim.local_fits", "count", "local_fits", None, 1),
    ("fedsim.upload_bytes_per_round", "bytes", "upload", None, 1),
    ("mimic.label_public.calls", "count", "calls", "mimic.label_public", 1),
    ("mimic.label_public.p50_ms", "ms", "p50", "mimic.label_public", _MS),
    ("mimic.label_public.total_s", "s", "total", "mimic.label_public", _S),
    ("mimic.pseudo_label_agreement.total_s", "s", "total",
     "mimic.pseudo_label_agreement", _S),
    ("mimic.run_ftml.self_s", "s", "self", "mimic.run_ftml", _S),
    ("metrics.confusion.total_s", "s", "total", "metrics.confusion", _S),
    ("metrics.per_class_metrics.total_s", "s", "total",
     "metrics.per_class_metrics", _S),
    ("modelio.save_model.p50_ms", "ms", "p50", "modelio.save_model", _MS),
    ("modelio.load_model.p50_ms", "ms", "load_check", None, _MS),
    ("cli.load_prep.total_s", "s", "total", "cli.load_prep", _S),
    ("cli.write_runmeta.total_s", "s", "total", "cli.write_runmeta", _S),
    ("cli.build_mimic_clients.total_s", "s", "total",
     "cli.build_mimic_clients", _S),
    ("cli.stage.self_s", "s", "stage_self", None, _S),
    ("trace.overhead_pct", "%", "overhead", None, 1),
]


class BenchError(Exception):
    """The checkout cannot be benchmarked (e.g. the sources are missing)."""


# --------------------------------------------------------------------------
# running CLI stages

@dataclass
class Stage:
    """One finished CLI process; ``spans`` and ``absent`` come from the
    tracer."""

    wall: float
    rc: int
    rss_mb: float
    err: str
    spans: list | None = None
    absent: list = field(default_factory=list)


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        if not any(var in self.env for var in STAGE_THREADS):
            self.env.update(STAGE_THREADS)

    def cli(self, args: list[str], trace_to: Path | None = None) -> Stage:
        if trace_to is None:
            cmd = [sys.executable, "-m", "fedmimic.cli", *args]
        else:
            cmd = [sys.executable, str(TRACER), str(trace_to), *args]
        with tempfile.TemporaryFile(dir=WORK) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.1),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: leave no stage running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            msg = err.read().decode(errors="replace").strip()[-2000:]
        stage = Stage(wall, proc.returncode, usage.ru_maxrss / 1024.0, msg)
        if trace_to is not None and trace_to.exists():
            doc = json.loads(trace_to.read_text())
            stage.spans, stage.absent = doc["spans"], doc["absent"]
            trace_to.unlink()
        return stage


def flags(cfg: dict, keys) -> list[str]:
    out = []
    for key in keys:
        if key in cfg:
            out += [f"--{key.replace('_', '-')}", str(cfg[key])]
    return out


# --------------------------------------------------------------------------
# expected results and correctness checks

def fit_rows(cfg: dict, n_train: int) -> list[int]:
    """Rows of every local fit the training stage makes, teachers included."""
    rounds, clients = cfg["rounds"], cfg["clients"]
    if cfg["mode"] == "fl":
        return [cfg["samples_per_client"]] * (rounds * clients)
    pool = clients * cfg["samples_per_client"]
    n_private = int(round(pool * cfg["private_fraction"]))
    return [n_private // clients, pool - n_private] * (rounds * clients)


def fits_per_round(cfg: dict) -> int | None:
    return {"fl": cfg.get("clients"),
            "ftml": 2 * cfg.get("clients", 0)}.get(cfg["mode"])


def rfe_fits(dim: int, k: int, step: int) -> int:
    n = 0
    while dim > k:
        dim -= min(step, dim - k)
        n += 1
    return n


class Checker:
    """Collects failed checks; a stage with any failure is a failed op."""

    def __init__(self):
        self.failures: list[str] = []
        self.digests: dict[str, dict] = {}
        self.load_s: list[float] = []
        self.local_fits = 0
        self.accuracy = None

    def fail(self, what: str) -> bool:
        self.failures.append(what)
        return False

    def exit_ok(self, stage: Stage, name: str) -> bool:
        if stage.rc != 0:
            return self.fail(f"{name} exited {stage.rc}: {stage.err}")
        return True

    def same_digests(self, name: str, out: Path) -> bool:
        """Every run of a stage at one seed writes the same artifacts."""
        meta = json.loads((out / "runmeta.json").read_text())["artifacts"]
        first = self.digests.setdefault(name, meta)
        if meta != first:
            return self.fail(f"{name}: runmeta.json digests differ between "
                             f"runs of the same seed")
        return True

    def prep(self, stage: Stage, out: Path, rows: int) -> bool:
        if not self.exit_ok(stage, "prep"):
            return False
        man = json.loads((out / "manifest.json").read_text())
        from corpus import EXPANDED_DIM
        if man["expanded_dim"] != EXPANDED_DIM:
            return self.fail(f"prep: expanded_dim {man['expanded_dim']}, "
                             f"expected {EXPANDED_DIM}")
        if man["n_train"] + man["n_test"] != rows:
            return self.fail(f"prep: {man['n_train']} + {man['n_test']} rows, "
                             f"expected {rows}")
        return self.same_digests("prep", out)

    def select(self, stage: Stage, out: Path, cfg: dict) -> bool:
        if not self.exit_ok(stage, "select"):
            return False
        pipe = json.loads((out / "pipeline.json").read_text())
        dim = json.loads((out / "manifest.json").read_text())["expanded_dim"]
        k = cfg["k_features"]
        per_class = pipe["per_class_features"]
        if len(per_class) != 5:
            return self.fail(f"select: {len(per_class)} per-class lists")
        for cls, cols in per_class.items():
            if len(cols) != k or len(set(cols)) != k:
                return self.fail(f"select: {cls} has {len(cols)} features, "
                                 f"expected {k} distinct")
        mask = pipe["feature_mask"]
        if mask != sorted(set().union(*per_class.values())):
            return self.fail("select: mask is not the sorted union")
        if not mask or mask[0] < 0 or mask[-1] >= dim:
            return self.fail(f"select: mask outside range({dim})")
        return self.same_digests("select", out)

    def train(self, stage: Stage, out: Path, cfg: dict, input_dim: int,
              name: str = "train") -> bool:
        """Checks a training stage and keeps its test accuracy (percent)."""
        if not self.exit_ok(stage, name):
            return False
        from fedmimic.modelio import load_model
        t0 = time.perf_counter()
        model, _ = load_model(out / "model.fmim")
        self.load_s.append(time.perf_counter() - t0)
        dims = [tuple(w.shape[::-1]) for w in model.weights]
        want = [(input_dim, cfg["hidden"]), (cfg["hidden"], cfg["hidden"]),
                (cfg["hidden"], 5)]
        if dims != want:
            return self.fail(f"{name}: model layer dims {dims}, expected "
                             f"{want}")
        lines = (out / "history.csv").read_text().splitlines()
        header, rows = lines[0].split(","), [r.split(",") for r in lines[1:]]
        if len(rows) != cfg["rounds"]:
            return self.fail(f"{name}: history.csv has {len(rows)} rows, "
                             f"expected {cfg['rounds']}")
        per_round = fits_per_round(cfg)
        if per_round is not None:
            col = header.index("local_fits")
            got = [int(r[col]) for r in rows]
            if set(got) != {per_round}:
                return self.fail(f"{name}: local_fits per round "
                                 f"{sorted(set(got))}, expected {per_round}")
            self.local_fits = sum(got)
        acc = json.loads((out / "report.json").read_text())["overall_accuracy"]
        man = json.loads((out / "manifest.json").read_text())
        majority = 100.0 * max(man["test_class_counts"].values()) / man["n_test"]
        if not acc > majority:
            return self.fail(f"{name}: test accuracy {acc:.2f}% is not above "
                             f"the majority-class rate {majority:.2f}%")
        self.accuracy = acc
        return self.same_digests(name, out)


# --------------------------------------------------------------------------
# the workloads

def environment(stage_env: dict) -> dict:
    """The environment as found, and the thread counts stages ran with."""
    import numpy as np
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "stage_threads": {var: stage_env.get(var) for var in STAGE_THREADS},
    }


def median(values):
    return statistics.median(values) if values else None


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.seconds = workload, seed, seconds
        self.trace = trace
        self.cfg = {**COMMON, **WORKLOADS[workload]}
        self.pipeline = workload == "pipeline"
        self.runner = Runner(time.monotonic() + TIME_LIMIT_S)
        self.check = Checker()
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.corpus = self.dir / "corpus.txt"
        self.out = self.dir / "run"
        self.attempted = self.failed = 0
        self.samples = defaultdict(list)   # measured values per quantity
        self.traced_ops: list[list[tuple[str, Stage]]] = []
        self.traced_preps: list[Stage] = []
        self.n_train = self.input_dim = self.expanded_dim = None
        self.absent: list[str] = []

    # -- one operation per timed stage ------------------------------------

    def op(self, check, *args):
        """Counts one operation; ``check(*args)`` says whether it passed."""
        self.attempted += 1
        try:
            ok = bool(check(*args))
        except (OSError, ValueError, KeyError, IndexError) as e:
            ok = self.check.fail(f"{check.__name__}: unreadable output: {e!r}")
        if not ok:
            self.failed += 1
        return ok

    def set_up(self, traced: bool = False) -> bool:
        """Write the corpus and prep it."""
        from corpus import write_corpus
        shutil.rmtree(self.out, ignore_errors=True)
        start = time.perf_counter()
        write_corpus(self.corpus, self.cfg["rows"], self.seed)
        prep = self.prep_stage(traced)
        if not self.op(self.check.prep, prep, self.out, self.cfg["rows"]):
            return False
        self.samples["setup_s"].append(time.perf_counter() - start)
        if traced:
            self.traced_preps.append(prep)
        self.read_manifest()
        return True

    def prep_stage(self, traced: bool) -> Stage:
        args = ["--mode", "prep", "--train-file", str(self.corpus),
                "--out-dir", str(self.out),
                *flags(self.cfg, ["seed", "test_fraction"])]
        return self.runner.cli(args, self.trace_file(traced))

    def trace_file(self, traced: bool) -> Path | None:
        return self.dir / "spans.json" if traced else None

    def read_manifest(self):
        man = json.loads((self.out / "manifest.json").read_text())
        self.n_train = man["n_train"]
        self.expanded_dim = man["expanded_dim"]
        # prep leaves no mask; select writes one
        pipe = json.loads((self.out / "pipeline.json").read_text())
        mask = pipe.get("feature_mask")
        self.input_dim = len(mask) if mask else self.expanded_dim

    def train_stage(self, traced: bool) -> tuple[Stage, bool]:
        for name in ("model.fmim", "history.csv", "report.json",
                     "runmeta.json"):
            (self.out / name).unlink(missing_ok=True)
        args = ["--mode", self.cfg["mode"], "--out-dir", str(self.out),
                *flags(self.cfg, TRAIN_FLAGS)]
        stage = self.runner.cli(args, self.trace_file(traced))
        name = "fit" if self.pipeline else "train"
        ok = self.op(self.check.train, stage, self.out, self.cfg,
                     self.input_dim, name)
        return stage, ok

    def iteration(self, traced: bool) -> bool:
        """One timed operation, the main stage: select, or the training
        mode. Returns False after a failure."""
        if self.pipeline:
            main = self.runner.cli(
                ["--mode", "select", "--out-dir", str(self.out),
                 *flags(self.cfg, ["seed", "k_features", "rfe_step"])],
                self.trace_file(traced))
            if not self.op(self.check.select, main, self.out, self.cfg):
                return False
            stages = [("select", main)]
            rows_epochs = self.n_train * LOGREG_EPOCHS * 5 * rfe_fits(
                self.expanded_dim, self.cfg["k_features"], self.cfg["rfe_step"])
            # the fit's accuracy is deterministic, so untraced runs fit once
            if traced or self.check.accuracy is None:
                self.read_manifest()
                fit, ok = self.train_stage(traced)
                if not ok:
                    return False
                stages.append(("fit", fit))
        else:
            main, ok = self.train_stage(traced)
            if not ok:
                return False
            stages = [("train", main)]
            rows_epochs = self.cfg["epochs"] * sum(
                fit_rows(self.cfg, self.n_train))
        key = "traced" if traced else "stage_s"
        self.samples[key].append(main.wall)
        if traced:
            self.traced_ops.append(stages)
            return True
        self.samples["fit_samples_per_s"].append(rows_epochs / main.wall)
        self.samples["peak_rss_mb"].append(main.rss_mb)
        return True

    # -- whole runs ---------------------------------------------------------

    def repeat(self, step, budget: float, min_times: int) -> bool:
        """Runs ``step`` at least ``min_times``, then again while one more
        run of average length fits in ``budget`` seconds."""
        start = time.perf_counter()
        done = 0
        while True:
            if not step():
                return False
            done += 1
            elapsed = time.perf_counter() - start
            if done >= min_times and elapsed * (done + 1) / done > budget:
                return True

    def run(self) -> dict:
        WORK.mkdir(parents=True, exist_ok=True)
        self.dir.mkdir()
        try:
            return self._run()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    def _run(self) -> dict:
        # compile the sources once, so no timed stage pays for it
        warm = subprocess.run([sys.executable, "-c", "import fedmimic.cli"],
                              env=self.runner.env, cwd=ROOT,
                              capture_output=True, text=True)
        if warm.returncode != 0:
            raise BenchError(f"fedmimic.cli does not import: {warm.stderr}")
        if self.trace:
            # untraced and traced operations alternate, so a drift in machine
            # speed does not bias trace.overhead_pct
            ok = self.set_up(traced=True) and self.repeat(
                lambda: self.iteration(False) and self.iteration(True),
                self.seconds, TRACED_OPS)
        else:
            ok, start = True, time.perf_counter()
            while ok and (len(self.samples["setup_s"]) < SETUP_REPEATS or
                          time.perf_counter() - start < SETUP_MIN_S):
                ok = self.set_up()
            ok = ok and self.repeat(lambda: self.iteration(False),
                                    self.seconds, MIN_OPS)
        if not ok:
            return {}
        return self.layer_metrics() if self.trace else self.end_to_end()

    def end_to_end(self) -> dict:
        values = {name: median(self.samples[name])
                  for name in END_TO_END if name != "test_acc_pct"}
        values["test_acc_pct"] = self.check.accuracy
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}

    def layer_metrics(self) -> dict:
        ops = [summarize(stages) for stages in self.traced_ops]
        prep_ops = [summarize([("prep", s)]) for s in self.traced_preps]
        absent = sorted({a for stages in self.traced_ops for _, s in stages
                         for a in s.absent})
        self.check_counts(ops)
        self.absent = absent
        out = {}
        for name, unit, kind, span, scale in PER_LAYER:
            src = prep_ops if span and span.startswith("data.") else ops
            value = layer_value(kind, span, src, self) * scale
            out[name] = {"value": value, "unit": unit}
        return out

    def check_counts(self, ops):
        """Call counts of traced operations repeat exactly."""
        names = set().union(*(op["durations"] for op in ops))
        for name in sorted(names):
            counts = {len(op["durations"].get(name, ())) for op in ops}
            if len(counts) > 1:
                self.check.fail(f"trace: {name} call count varies: "
                                f"{sorted(counts)}")
                self.failed += 1

    def upload_bytes_per_round(self) -> int:
        """Bytes all clients send per round: clients x .fmim payload."""
        if self.cfg["mode"] not in ("fl", "ftml"):
            return 0
        from fedmimic.modelio import load_model
        model, _ = load_model(self.out / "model.fmim")
        payload = sum(w.size + b.size
                      for w, b in zip(model.weights, model.biases)) * 4
        return self.cfg["clients"] * payload


# --------------------------------------------------------------------------
# span arithmetic

def summarize(stages: list[tuple[str, Stage]]) -> dict:
    """Per-function durations and self times of one traced operation."""
    durations = defaultdict(list)
    self_time = defaultdict(float)
    stage_self = 0.0
    round_ends = []
    for _, stage in stages:
        spans = stage.spans or []
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        top = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child[i]
            if parent < 0:
                top += end - start
            if name == "fedsim.test_accuracy":
                round_ends.append(end)
        stage_self += stage.wall - top
    round_ends.sort()
    return {"durations": durations, "self": self_time,
            "stage_self": stage_self,
            "rounds": [b - a for a, b in zip(round_ends, round_ends[1:])]}


def layer_value(kind, span, ops, bench) -> float:
    if kind == "calls":
        return len(ops[0]["durations"].get(span, ())) if ops else 0
    if kind == "total":
        return median([sum(op["durations"].get(span, ())) for op in ops]) or 0.0
    if kind == "self":
        return median([op["self"].get(span, 0.0) for op in ops]) or 0.0
    if kind in ("p50", "p99"):
        pooled = [d for op in ops for d in op["durations"].get(span, ())]
        if kind == "p50":
            return median(pooled) or 0.0
        if len(pooled) < P99_MIN_CALLS:
            return 0.0
        return statistics.quantiles(pooled, n=100)[98]
    if kind == "step":
        steps = [(sum(op["durations"].get("nn.train_local", ())),
                  len(op["durations"].get("nn.backward", ()))) for op in ops]
        return median([t / n for t, n in steps if n]) or 0.0
    if kind == "round":
        return median([r for op in ops for r in op["rounds"]]) or 0.0
    if kind == "local_fits":
        return bench.check.local_fits
    if kind == "upload":
        return bench.upload_bytes_per_round()
    if kind == "load_check":
        return median(bench.check.load_s) or 0.0
    if kind == "stage_self":
        return median([op["stage_self"] for op in ops]) or 0.0
    if kind == "overhead":
        base = median(bench.samples["stage_s"])
        traced = median(bench.samples["traced"])
        return 100.0 * (traced / base - 1.0) if base and traced else 0.0
    raise ValueError(kind)


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fedmimic" / "cli.py").is_file():
        print(f"error: no fedmimic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    import fedmimic
    if Path(fedmimic.__file__).resolve().parent != SRC / "fedmimic":
        print(f"error: imported fedmimic from {fedmimic.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        metrics = bench.run()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "config": bench.cfg, "environment": environment(bench.runner.env),
        "runmeta_digests": bench.check.digests,
        "stage_walls_s": {k: [round(v, 4) for v in vs]
                          for k, vs in bench.samples.items()},
        "failures": bench.check.failures,
    }
    if args.trace:
        info["absent"] = bench.absent
        info["expected_steps_per_op"] = (
            sum(-(-r // bench.cfg["batch"])
                for r in fit_rows(bench.cfg, bench.n_train))
            * bench.cfg["epochs"]
            if bench.n_train else None)
    print(json.dumps({"info": info}, sort_keys=True))
    if not metrics:
        for f in bench.check.failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": bench.failed == 0 and not bench.check.failures,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
