"""Simulated federated learning: federated averaging, the round loop every
regime shares, the one context manager that runs client steps in this
process or in forked worker processes, and plain FL. A client is its
position in the caller's list, and its steps run in one process for the
whole run. No transport, no stragglers; results do not depend on where the
steps ran (per-client seeds, client-ordered averaging)."""

from __future__ import annotations

import ctypes
import functools
import signal
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .metrics import confusion, overall_accuracy, pseudo_label_agreement
from .nn import ModelParams, TrainConfig, init_model, predict, train_local

# seed-derivation tags; keep stable, they define reproducibility
TAG_INIT = 0
TAG_CLIENT = 1
TAG_TEACHER = 2
TAG_MIMIC_POOL = 10      # the rows drawn into the mimic pool
TAG_PRIVATE_PUBLIC = 11  # the pool's private/public split
TAG_PRIVATE_SHARDS = 12  # the private rows' client shards


def derive_seed(*parts: int) -> int:
    """Stable hash of integer parts into an RNG seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class RoundRecord:
    round: int
    test_accuracy: float
    client_losses: list[float]  # in client order
    local_fits: int
    pseudo_agreement: float | None = None


@dataclass
class RoundHistory:
    rounds: list[RoundRecord] = field(default_factory=list)
    # the largest peak resident set (MB) the client worker processes
    # reported, None when the rounds ran in this process
    workers_peak_rss_mb: float | None = None

    def to_csv(self) -> str:
        if not self.rounds:
            return "round,test_accuracy,local_fits\n"
        mimic = self.rounds[0].pseudo_agreement is not None
        cols = ["round", "test_accuracy", "local_fits"]
        if mimic:
            cols.append("pseudo_agreement")
        cols += [f"loss_client_{c}"
                 for c in range(len(self.rounds[0].client_losses))]
        lines = [",".join(cols)]
        for r in self.rounds:
            row = [str(r.round), f"{r.test_accuracy:.4f}", str(r.local_fits)]
            if mimic:
                row.append(f"{r.pseudo_agreement:.4f}")
            row += [f"{loss:.6f}" for loss in r.client_losses]
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
    """A worker's loop: for each ``(global_model, rnd)`` received, the list of
    ``step(global_model, c, rnd)`` for each ``c`` in ``clients``, in order,
    sent back, ending at the first failure. Stops on None, after sending back
    its peak_rss_mb(), or when the main process is gone."""
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
            conn.send(peak_rss_mb())
            return
        global_model, rnd = msg
        replies = []
        for c in clients:
            try:
                replies.append(step(global_model, c, rnd))
            except Exception as e:
                replies.append(_Failure(e, traceback.format_exc()))
                break
        conn.send(replies)


@contextmanager
def _client_map(step, clients: int, threads: int):
    """Yields ``(map, peaks)``. ``map(global_model, rnd)`` returns
    ``step(global_model, c, rnd)`` for each ``c`` in ``range(clients)``, in
    that order, or raises the first failing client's exception in that
    order, as the serial loop would; ``peaks`` gets the workers' peak memory
    (MB) on a clean exit, and stays empty when none ran.

    With ``threads`` > 1 the steps run in ``n = min(threads, clients)``
    worker processes forked once for all rounds (processes, because client
    threads would hand numpy's GIL back and forth thousands of times a fit).
    Client ``c`` runs in worker ``c % n`` every round, so what its step keeps
    in its closure stays with it; a worker on a busier CPU still runs all
    its clients. A round is one message to each worker and one list back.
    Workers hold BLAS at one thread, this process keeps its count; any
    error, one while starting them included, terminates them."""
    n, peaks = min(threads, clients), []
    if n > 1:
        # imported here, so that a stage that never forks does not load it
        import multiprocessing.connection
        if "fork" not in multiprocessing.get_all_start_methods():
            _warn_no_fork()
            n = 1
    if n <= 1:
        yield (lambda global_model, rnd: [step(global_model, c, rnd)
                                          for c in range(clients)]), peaks
        return
    if openblas_threads() is None:
        _warn_blas_unpinned()
    ctx = multiprocessing.get_context("fork")
    workers = {}  # connection -> (process, its clients)

    def map_workers(global_model, rnd):
        # each worker runs its clients in order up to its first failure, so
        # every client before the lowest failing one ran and succeeded
        results, failures = [None] * clients, {}
        for conn in workers:
            conn.send((global_model, rnd))
        waiting = list(workers)
        while waiting:
            for conn in multiprocessing.connection.wait(waiting):
                waiting.remove(conn)
                proc, own = workers[conn]
                try:
                    replies = conn.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"a client worker process exited "
                                       f"(code {proc.exitcode})") from None
                for c, reply in zip(own, replies):
                    if isinstance(reply, _Failure):
                        failures[c] = reply
                    else:
                        results[c] = reply
        if failures:
            first = failures[min(failures)]
            raise first.exc from _RemoteTraceback(first.tb)
        return results

    try:
        for i in range(n):
            own = range(i, clients, n)
            here, there = ctx.Pipe()
            proc = ctx.Process(target=_serve, daemon=True,
                               args=(there, step, own))
            proc.start()
            there.close()
            workers[here] = proc, own
        yield map_workers, peaks
        for conn in workers:
            conn.send(None)
            try:
                peaks.append(conn.recv())
            except EOFError:  # gone after its last client: no report
                pass
    except BaseException:
        for proc, _ in workers.values():
            proc.terminate()
        raise
    finally:
        for conn, (proc, _) in workers.items():
            conn.close()
            proc.join()


def run_rounds(clients: int, step, test: Dataset, rounds: int, seed: int,
               hidden: int, threads: int,
               weights: list[float] | None = None, fits_per_client: int = 1,
               agreement: bool = False) -> tuple[ModelParams, RoundHistory]:
    """The round loop of every regime, from the start model seeded by
    ``seed`` (``hidden`` units a layer). Each round runs ``step(global_model,
    c, rnd) -> (local_model, losses, pseudo_labels | None)`` for each client
    ``c`` in ``range(clients)`` (``weights`` follow that order), averages
    the local models and records one RoundRecord. The step's closure holds
    the clients' data, and any state a client keeps from round to round:
    client ``c``'s step runs in one process for the whole run. With
    ``agreement``, the steps' pseudo-labels label the same rows, and each
    record holds their pseudo_label_agreement.

    ``threads`` caps the worker processes the steps run in (see
    ``_client_map``); ``history.workers_peak_rss_mb`` is the largest peak
    memory they reported, None when no worker ran."""
    global_model = init_model(test.X.shape[1], hidden,
                              seed=derive_seed(seed, TAG_INIT))
    history = RoundHistory()
    with _client_map(step, clients, threads) as (map_clients, peaks):
        for rnd in range(rounds):
            locals_, losses, pseudo = zip(*map_clients(global_model, rnd))
            global_model = fedavg(list(locals_), weights)
            history.rounds.append(RoundRecord(
                round=rnd,
                test_accuracy=test_accuracy(global_model, test),
                client_losses=[ls[-1] if ls else float("nan")
                               for ls in losses],
                local_fits=fits_per_client * clients,
                pseudo_agreement=(pseudo_label_agreement(list(pseudo))
                                  if agreement else None),
            ))
    history.workers_peak_rss_mb = max((p for p in peaks if p is not None),
                                      default=None)
    return global_model, history


def run_fl(shards: list[Dataset], test: Dataset, rounds: int = 20,
           config: TrainConfig | None = None, seed: int = 0,
           hidden: int = 256, threads: int = 1,
           ) -> tuple[ModelParams, RoundHistory]:
    """FedAvg over all clients every round. Aggregation weights are client
    sample counts (equal shards reduce to the plain mean). One client for
    one round is centralized training."""
    config = config or TrainConfig()

    def fit(global_model, c, rnd):
        cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT, c, rnd))
        model, losses = train_local(global_model, shards[c].X, shards[c].y,
                                    cfg)
        return model, losses, None

    return run_rounds(len(shards), fit, test, rounds, seed, hidden, threads,
                      weights=[float(len(s)) for s in shards])
