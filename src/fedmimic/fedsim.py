"""Simulated federated learning: client shards, per-round local training,
federated averaging, and the plain-FL loop. No transport, no stragglers;
clients may train in parallel threads but results are scheduling-invariant
(per-client seeds, id-ordered averaging)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .metrics import confusion, overall_accuracy
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
    # sum() over the models adds in, so the bits match it
    avg = np.zeros_like(ref.buf)
    term = np.empty_like(ref.buf)
    for wi, m in zip(w, models):
        np.multiply(wi, m.buf, out=term)
        avg += term
    return ref.like(avg)


def test_accuracy(model: ModelParams, test: Dataset) -> float:
    cm = confusion(predict(model, test.X), test.y, model.num_classes)
    return overall_accuracy(cm)


def _map_clients(fn, items, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def run_fl(shards: list[ClientShard], test: Dataset, rounds: int = 20,
           config: TrainConfig | None = None, seed: int = 0,
           hidden: int = 256, threads: int = 1,
           num_classes: int = 5) -> tuple[ModelParams, RoundHistory]:
    """FedAvg over all clients every round. Aggregation weights are client
    sample counts (equal shards reduce to the plain mean)."""
    if not shards:
        raise ValueError("no client shards")
    config = config or TrainConfig()
    shards = sorted(shards, key=lambda s: s.client_id)
    input_dim = shards[0].data.X.shape[1]
    global_model = init_model(input_dim, hidden, num_classes,
                              seed=derive_seed(seed, TAG_INIT))
    history = RoundHistory()
    sizes = [float(len(s.data)) for s in shards]
    for rnd in range(rounds):
        def fit(shard, rnd=rnd):
            cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT,
                                                   shard.client_id, rnd))
            return train_local(global_model, shard.data.X, shard.data.y, cfg)

        results = _map_clients(fit, shards, threads)
        locals_, losses = zip(*results)
        global_model = fedavg(list(locals_), sizes)
        history.rounds.append(RoundRecord(
            round=rnd,
            test_accuracy=test_accuracy(global_model, test),
            client_losses={s.client_id: (ls[-1] if ls else float("nan"))
                           for s, ls in zip(shards, losses)},
            local_fits=len(shards),
        ))
    return global_model, history
