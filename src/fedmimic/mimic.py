"""Teacher-student knowledge transfer per client and the two federated mimic
regimes. Teachers see only their client's private labeled shard; students see
only teacher-labeled public features. The ground truth of the public set is
never read here (it stays behind PublicSet.truth_for_diagnostics)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, PublicSet
from .fedsim import (TAG_CLIENT, TAG_STUDENT_INIT, TAG_TEACHER, RoundHistory,
                     derive_seed, run_rounds, sort_clients)
from .metrics import pseudo_label_agreement  # re-exported
from .nn import ModelParams, TrainConfig, init_model, predict, train_local

STUDENT_INIT_POLICIES = ("warm", "global", "fresh")


@dataclass
class MimicClient:
    client_id: int
    private: Dataset
    public: PublicSet  # may be one shared object across clients


def label_public(teacher: ModelParams, public_X: np.ndarray) -> np.ndarray:
    """Hard pseudo-labels via argmax prediction (lowest index on ties)."""
    return predict(teacher, public_X)


def _teach(config: TrainConfig, seed: int, global_model: ModelParams,
           client: MimicClient, rnd: int) -> np.ndarray:
    """Fit the client's teacher from the global model on its private shard
    and return the teacher's labels for the client's public set."""
    cfg = replace(config, seed=derive_seed(seed, TAG_TEACHER,
                                           client.client_id, rnd))
    teacher, _ = train_local(global_model, client.private.X, client.private.y,
                             cfg)
    return label_public(teacher, client.public.X)


def run_ftml(clients: list[MimicClient], test: Dataset, rounds: int = 20,
             config: TrainConfig | None = None, seed: int = 0,
             hidden: int = 256, student_init: str = "warm",
             threads: int = 1) -> tuple[ModelParams, RoundHistory]:
    """Federated teacher mimic learning. Each round, per client: the teacher
    retrains from the averaged global on private data, relabels the public
    set, and the student trains on those pseudo-labels; the server averages
    the students. Two local fits per client per round."""
    if student_init not in STUDENT_INIT_POLICIES:
        raise ValueError(f"unknown student_init policy {student_init!r}")
    clients = sort_clients(clients)
    config = config or TrainConfig()

    def step(global_model, client, rnd, prev):
        cid = client.client_id
        pseudo = _teach(config, seed, global_model, client, rnd)
        if student_init == "warm":  # last round's student
            s0 = global_model if prev is None else prev[0]
        elif student_init == "global":
            s0 = global_model
        else:
            s0 = init_model(global_model.input_dim, hidden,
                            seed=derive_seed(seed, TAG_STUDENT_INIT, cid, rnd))
        s_cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT, cid, rnd))
        student, losses = train_local(s0, client.public.X, pseudo, s_cfg)
        return student, losses, pseudo

    return run_rounds(clients, step, test, rounds, seed, hidden, threads,
                      fits_per_client=2)


def run_fsml(clients: list[MimicClient], test: Dataset, rounds: int = 20,
             config: TrainConfig | None = None, seed: int = 0,
             hidden: int = 256, threads: int = 1,
             ) -> tuple[ModelParams, RoundHistory]:
    """Federated student mimic learning. Teachers train once, in round 0, and
    their pseudo-labels are frozen; each round the student trains from the
    current global on them. One local fit per client per round, plus one
    teacher fit per client in round 0."""
    clients = sort_clients(clients)
    config = config or TrainConfig()

    def step(global_model, client, rnd, prev):
        # the teacher's labels of round 0, frozen
        pseudo = (_teach(config, seed, global_model, client, 0) if prev is None
                  else prev[2])
        cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT,
                                               client.client_id, rnd))
        student, losses = train_local(global_model, client.public.X, pseudo,
                                      cfg)
        return student, losses, pseudo

    return run_rounds(clients, step, test, rounds, seed, hidden, threads)
