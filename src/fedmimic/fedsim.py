"""Simulated federated learning: client shards, federated averaging, the
round loop every regime shares, and plain FL. No transport, no stragglers;
clients may train in parallel threads but results are scheduling-invariant
(per-client seeds, id-ordered averaging)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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


def _map_clients(fn, items, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
    client, rnd) -> (local_model, losses, pseudo_labels | None)`` for the
    clients (``sort_clients`` order; ``weights`` follow it), averages the
    local models and records one RoundRecord."""
    global_model = init
    history = RoundHistory()
    for rnd in range(rounds):
        results = _map_clients(lambda c: step(global_model, c, rnd), clients,
                               threads)
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

    def fit(global_model, shard, rnd):
        cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT,
                                               shard.client_id, rnd))
        model, losses = train_local(global_model, shard.data.X, shard.data.y,
                                    cfg)
        return model, losses, None

    init = init_model(shards[0].data.X.shape[1], hidden, 5,
                      seed=derive_seed(seed, TAG_INIT))
    return run_rounds(shards, fit, test, rounds, init, threads,
                      weights=[float(len(s.data)) for s in shards])
