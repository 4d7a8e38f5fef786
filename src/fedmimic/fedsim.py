"""Simulated federated learning: client shards, federated averaging, the
round loop every regime shares, and plain FL. No transport, no stragglers;
clients may train in parallel worker processes but results are
scheduling-invariant (per-client seeds, id-ordered averaging)."""

from __future__ import annotations

import ctypes
import functools
import signal
import sys
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .metrics import confusion, overall_accuracy, pseudo_label_agreement
from .nn import ModelParams, TrainConfig, init_model, predict, train_local

# seed-derivation tags; keep stable, they define reproducibility
TAG_INIT = 0
TAG_CLIENT = 1
TAG_TEACHER = 2
TAG_STUDENT_INIT = 3


def derive_seed(*parts: int) -> int:
    """Stable hash of integer parts into an RNG seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class ClientShard:
    client_id: int
    data: Dataset


@dataclass
class RoundRecord:
    round: int
    test_accuracy: float
    client_losses: dict[int, float]
    local_fits: int
    pseudo_agreement: float | None = None


@dataclass
class RoundHistory:
    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def total_local_fits(self) -> int:
        return sum(r.local_fits for r in self.rounds)

    def to_csv(self) -> str:
        if not self.rounds:
            return "round,test_accuracy,local_fits\n"
        ids = sorted(self.rounds[0].client_losses)
        mimic = self.rounds[0].pseudo_agreement is not None
        cols = ["round", "test_accuracy", "local_fits"]
        if mimic:
            cols.append("pseudo_agreement")
        cols += [f"loss_client_{c}" for c in ids]
        lines = [",".join(cols)]
        for r in self.rounds:
            row = [str(r.round), f"{r.test_accuracy:.4f}", str(r.local_fits)]
            if mimic:
                row.append(f"{r.pseudo_agreement:.4f}")
            row += [f"{r.client_losses[c]:.6f}" for c in ids]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def fedavg(models: list[ModelParams],
           weights: list[float] | None = None) -> ModelParams:
    """Parameter-wise weighted mean; weights are normalized to sum 1."""
    if not models:
        raise ValueError("cannot average zero models")
    if weights is None:
        weights = [1.0] * len(models)
    if len(weights) != len(models):
        raise ValueError(f"{len(models)} models vs {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any() or w.sum() == 0:
        raise ValueError("weights must be >= 0 and not all zero")
    w = w / w.sum()
    ref = models[0]
    for m in models[1:]:
        if m.dims != ref.dims:
            raise ValueError(f"model shape mismatch: {ref.dims} vs {m.dims}")
    # left fold in list order, starting from zeros: the order a per-layer
    # sum() over the models adds in, so the bits match it. The fold runs in
    # float64 and rounds once into the models' dtype, so a float32 mean takes
    # one float32 rounding, not one per client
    avg = np.zeros(ref.buf.shape, np.float64)
    term = np.empty_like(avg)
    for wi, m in zip(w, models):
        np.multiply(wi, m.buf, out=term)
        avg += term
    return ref.like(avg.astype(ref.buf.dtype, copy=False))


def test_accuracy(model: ModelParams, test: Dataset) -> float:
    cm = confusion(predict(model, test.X), test.y, model.num_classes)
    return overall_accuracy(cm)


@functools.cache
def openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS build numpy loaded
    (``libscipy_openblas64_*``, found in /proc/self/maps), or None where there
    is no such library, symbol or /proc."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in f
                            if "libscipy_openblas64_" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@functools.cache  # so that it prints once per process
def _warn_blas_unpinned():
    print("warning: no OpenBLAS thread control found; client workers run "
          "with BLAS's own thread count", file=sys.stderr)


@functools.cache
def _warn_no_fork():
    print("warning: no fork start method on this platform; clients train "
          "one after another", file=sys.stderr)


@dataclass
class _Failure:
    """A step's exception in a worker, with the worker's traceback."""
    exc: BaseException
    tb: str


class _RemoteTraceback(Exception):
    """The cause of a re-raised worker exception: the worker's traceback."""

    def __str__(self):
        return self.args[0]


def _serve(conn, step, clients):
    """A worker's loop: for each ``(i, global_model, rnd, prev)`` received,
    ``step(global_model, clients[i], rnd, prev)`` sent back, or its failure.
    Stops on None, or when the main process is gone."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process handles ^C
    controls = openblas_threads()
    if controls is not None:
        controls[1](1)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        i, global_model, rnd, prev = msg
        try:
            reply = step(global_model, clients[i], rnd, prev)
        except Exception as e:
            reply = _Failure(e, traceback.format_exc())
        conn.send(reply)


class _ClientWorkers:
    """``n`` worker processes forked for one ``run_rounds`` call. Each round,
    a worker that finishes a client takes the next one in client order, so
    a worker on a busier CPU takes fewer. Each worker holds BLAS at one
    thread; this process leaves its own count alone."""

    def __init__(self, step, clients: list, n: int):
        # imported here, so that a stage that never forks does not load it
        import multiprocessing.connection
        self.wait = multiprocessing.connection.wait
        ctx = multiprocessing.get_context("fork")
        self.size = len(clients)
        self.conns, self.procs = [], []
        try:
            for _ in range(n):
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_serve, daemon=True,
                                   args=(there, step, clients))
                proc.start()
                there.close()
                self.conns.append(here)
                self.procs.append(proc)
        except BaseException:
            self.close(stop=False)
            raise

    def map(self, global_model: ModelParams, rnd: int, prevs: list) -> list:
        """Every client's step result, in client order. A failure raises
        the exception of the first failing client in that order, as the
        serial loop would: clients start in order, so every client before
        a failing one has run."""
        results, failures = [None] * self.size, {}
        todo = iter(range(self.size))
        running = {}  # connection -> client position

        def hand_out(conn):
            i = next(todo, None)
            if i is not None and not failures:
                conn.send((i, global_model, rnd, prevs[i]))
                running[conn] = i

        for conn in self.conns:
            hand_out(conn)
        while running:
            for conn in self.wait(list(running)):
                i = running.pop(conn)
                try:
                    reply = conn.recv()
                except EOFError:
                    proc = self.procs[self.conns.index(conn)]
                    proc.join()
                    raise RuntimeError(f"a client worker process exited "
                                       f"(code {proc.exitcode})") from None
                if isinstance(reply, _Failure):
                    failures[i] = reply
                else:
                    results[i] = reply
                hand_out(conn)
        if failures:
            first = failures[min(failures)]
            raise first.exc from _RemoteTraceback(first.tb)
        return results

    def close(self, stop: bool = True):
        """Ends the workers: each leaves its loop on ``stop``, else (the main
        process is unwinding from an error) it is terminated."""
        for conn, proc in zip(self.conns, self.procs):
            if stop:
                conn.send(None)
            else:
                proc.terminate()
            conn.close()
        for proc in self.procs:
            proc.join()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(stop=exc_type is None)


def sort_clients(clients: list) -> list:
    """Clients in id order; rejects an empty list and duplicate ids."""
    if not clients:
        raise ValueError("no clients")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids")
    return sorted(clients, key=lambda c: c.client_id)


def run_rounds(clients: list, step, test: Dataset, rounds: int,
               init: ModelParams, threads: int,
               weights: list[float] | None = None,
               fits_per_client: int = 1) -> tuple[ModelParams, RoundHistory]:
    """The round loop of every regime. Each round runs ``step(global_model,
    client, rnd, prev) -> (local_model, losses, pseudo_labels | None)`` for
    the clients (``sort_clients`` order; ``weights`` follow it), averages
    the local models and records one RoundRecord. ``prev`` is what the
    client's step returned the round before (None in round 0), so a step
    keeps no state of its own.

    With ``threads`` > 1 the steps run in ``min(threads, len(clients))``
    worker processes forked once for all rounds (see ``_ClientWorkers``):
    processes, not threads, because client threads would hand numpy's GIL
    back and forth thousands of times a fit."""
    global_model = init
    history = RoundHistory()
    workers = min(threads, len(clients))
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            _warn_no_fork()
            workers = 1
    if workers > 1 and openblas_threads() is None:
        _warn_blas_unpinned()
    with ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(_ClientWorkers(step, clients, workers))
            map_clients = pool.map
        else:
            def map_clients(model, rnd, prevs):
                return [step(model, c, rnd, prev)
                        for c, prev in zip(clients, prevs)]
        results = [None] * len(clients)
        for rnd in range(rounds):
            results = map_clients(global_model, rnd, results)
            locals_, losses, pseudo = zip(*results)
            global_model = fedavg(list(locals_), weights)
            history.rounds.append(RoundRecord(
                round=rnd,
                test_accuracy=test_accuracy(global_model, test),
                client_losses={c.client_id: (ls[-1] if ls else float("nan"))
                               for c, ls in zip(clients, losses)},
                local_fits=fits_per_client * len(clients),
                pseudo_agreement=(None if pseudo[0] is None
                                  else pseudo_label_agreement(list(pseudo))),
            ))
    return global_model, history


def run_fl(shards: list[ClientShard], test: Dataset, rounds: int = 20,
           config: TrainConfig | None = None, seed: int = 0,
           hidden: int = 256, threads: int = 1,
           ) -> tuple[ModelParams, RoundHistory]:
    """FedAvg over all clients every round. Aggregation weights are client
    sample counts (equal shards reduce to the plain mean). One client for
    one round is centralized training."""
    shards = sort_clients(shards)
    config = config or TrainConfig()

    def fit(global_model, shard, rnd, prev):
        cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT,
                                               shard.client_id, rnd))
        model, losses = train_local(global_model, shard.data.X, shard.data.y,
                                    cfg)
        return model, losses, None

    init = init_model(shards[0].data.X.shape[1], hidden, 5,
                      seed=derive_seed(seed, TAG_INIT))
    return run_rounds(shards, fit, test, rounds, init, threads,
                      weights=[float(len(s.data)) for s in shards])
