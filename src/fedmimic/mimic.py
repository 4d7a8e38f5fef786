"""Teacher-student knowledge transfer per client and the two federated mimic
loops. Teachers see only their client's private labeled shard; students see
only teacher-labeled public features. The ground truth of the public set is
never read here (it stays behind PublicSet.truth_for_diagnostics)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, PublicSet
from .fedsim import (TAG_CLIENT, TAG_INIT, TAG_STUDENT_INIT, TAG_TEACHER,
                     RoundHistory, RoundRecord, derive_seed, fedavg,
                     test_accuracy, _map_clients)
from .nn import ModelParams, TrainConfig, init_model, predict, train_local

FTML = "ftml"
FSML = "fsml"

STUDENT_INIT_POLICIES = ("warm", "global", "fresh")


@dataclass
class MimicClient:
    client_id: int
    private: Dataset
    public: PublicSet  # may be one shared object across clients


def label_public(teacher: ModelParams, public_X: np.ndarray) -> np.ndarray:
    """Hard pseudo-labels via argmax prediction (lowest index on ties)."""
    if public_X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return predict(teacher, public_X)


def pseudo_label_agreement(pseudo: list[np.ndarray]) -> float:
    """Fraction of (client, sample) pseudo-labels that match the per-sample
    majority label across clients (ties go to the lowest label)."""
    stack = np.stack(pseudo)
    n = stack.shape[1]
    if n == 0:
        return 1.0
    classes = int(stack.max()) + 1
    # votes per (class, sample), counted in one bincount over class*n + sample
    counts = np.bincount((stack * n + np.arange(n)).ravel(),
                         minlength=classes * n).reshape(classes, n)
    majority = counts.argmax(axis=0)
    return float((stack == majority).mean())


def _check_clients(clients):
    if not clients:
        raise ValueError("no mimic clients")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids")
    return sorted(clients, key=lambda c: c.client_id)


def run_ftml(clients: list[MimicClient], test: Dataset, rounds: int = 20,
             config: TrainConfig | None = None, seed: int = 0,
             hidden: int = 256, student_init: str = "warm",
             threads: int = 1,
             num_classes: int = 5) -> tuple[ModelParams, RoundHistory]:
    """Federated teacher mimic learning. Each round, per client: the teacher
    retrains from the averaged global on private data, relabels the public
    set, and the student trains on those pseudo-labels; the server averages
    the students. Two local fits per client per round."""
    if student_init not in STUDENT_INIT_POLICIES:
        raise ValueError(f"unknown student_init policy {student_init!r}")
    clients = _check_clients(clients)
    config = config or TrainConfig()
    input_dim = clients[0].private.X.shape[1]
    global_model = init_model(input_dim, hidden, num_classes,
                              seed=derive_seed(seed, TAG_INIT))
    students = {c.client_id: global_model for c in clients}
    history = RoundHistory()
    for rnd in range(rounds):
        def step(client, rnd=rnd):
            cid = client.client_id
            t_cfg = replace(config, seed=derive_seed(seed, TAG_TEACHER, cid, rnd))
            teacher, _ = train_local(global_model, client.private.X,
                                     client.private.y, t_cfg)
            pseudo = label_public(teacher, client.public.X)
            if student_init == "warm":
                s0 = students[cid]
            elif student_init == "global":
                s0 = global_model
            else:
                s0 = init_model(input_dim, hidden, num_classes,
                                seed=derive_seed(seed, TAG_STUDENT_INIT, cid, rnd))
            s_cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT, cid, rnd))
            student, losses = train_local(s0, client.public.X, pseudo, s_cfg)
            return student, losses, pseudo

        results = _map_clients(step, clients, threads)
        students = {c.client_id: s for c, (s, _, _) in zip(clients, results)}
        global_model = fedavg([s for s, _, _ in results])
        history.rounds.append(RoundRecord(
            round=rnd,
            test_accuracy=test_accuracy(global_model, test),
            client_losses={c.client_id: (ls[-1] if ls else float("nan"))
                           for c, (_, ls, _) in zip(clients, results)},
            local_fits=2 * len(clients),
            pseudo_agreement=pseudo_label_agreement(
                [p for _, _, p in results]),
        ))
    return global_model, history


def run_fsml(clients: list[MimicClient], test: Dataset, rounds: int = 20,
             config: TrainConfig | None = None, seed: int = 0,
             hidden: int = 256, threads: int = 1, num_classes: int = 5,
             ) -> tuple[ModelParams, RoundHistory, int]:
    """Federated student mimic learning. Teachers train once before round 0
    and their pseudo-labels are frozen; each round the student trains from
    the current global on the fixed pseudo-labeled public set. One local fit
    per client per round, plus the one-time teacher fits (returned last)."""
    clients = _check_clients(clients)
    config = config or TrainConfig()
    input_dim = clients[0].private.X.shape[1]
    global_model = init_model(input_dim, hidden, num_classes,
                              seed=derive_seed(seed, TAG_INIT))

    def fit_teacher(client):
        cfg = replace(config, seed=derive_seed(seed, TAG_TEACHER,
                                               client.client_id, 0))
        teacher, _ = train_local(global_model, client.private.X,
                                 client.private.y, cfg)
        return label_public(teacher, client.public.X)

    pseudo = _map_clients(fit_teacher, clients, threads)
    teacher_fits = len(clients)

    history = RoundHistory()
    for rnd in range(rounds):
        def step(pair, rnd=rnd):
            client, labels = pair
            cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT,
                                                   client.client_id, rnd))
            return train_local(global_model, client.public.X, labels, cfg)

        results = _map_clients(step, list(zip(clients, pseudo)), threads)
        global_model = fedavg([s for s, _ in results])
        history.rounds.append(RoundRecord(
            round=rnd,
            test_accuracy=test_accuracy(global_model, test),
            client_losses={c.client_id: (ls[-1] if ls else float("nan"))
                           for c, (_, ls) in zip(clients, results)},
            local_fits=len(clients),
            pseudo_agreement=pseudo_label_agreement(pseudo),
        ))
    return global_model, history, teacher_fits
