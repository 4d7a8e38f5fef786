"""Teacher-student knowledge transfer per client and the two federated mimic
regimes. Teachers see only their client's private labeled shard; students see
only teacher-labeled public features. The ground truth of the public set is
never read here (it stays behind PublicSet.truth_for_diagnostics)."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, PublicSet
from .fedsim import (TAG_CLIENT, TAG_TEACHER, RoundHistory, derive_seed,
                     run_rounds)
from .metrics import pseudo_label_agreement  # re-exported
from .nn import ModelParams, TrainConfig, predict, train_local


@dataclass
class MimicClient:
    private: Dataset
    public: PublicSet  # may be one shared object across clients


def label_public(teacher: ModelParams, public_X: np.ndarray) -> np.ndarray:
    """Hard pseudo-labels via argmax prediction (lowest index on ties)."""
    return predict(teacher, public_X)


def _teach(config: TrainConfig, seed: int, global_model: ModelParams,
           client: MimicClient, c: int, rnd: int) -> np.ndarray:
    """Fit client ``c``'s teacher from the global model on its private shard
    and return the teacher's labels for the client's public set."""
    cfg = replace(config, seed=derive_seed(seed, TAG_TEACHER, c, rnd))
    teacher, _ = train_local(global_model, client.private.X, client.private.y,
                             cfg)
    return label_public(teacher, client.public.X)


def _run_mimic(clients: list[MimicClient], test: Dataset, rounds: int,
               config: TrainConfig | None, seed: int, hidden: int,
               threads: int, refit_teachers: bool, warm_students: bool,
               ) -> tuple[ModelParams, RoundHistory]:
    """Both mimic regimes' rounds. Per client, the teacher fits on the private
    shard from the global model, every round (``refit_teachers``) or in round
    0 only, and labels the public set; the student fits on those labels from
    the client's last student (``warm_students``) or the global model.
    Pseudo-label agreement is recorded only when the clients share one
    public set: labels of different rows do not agree or disagree."""
    config = config or TrainConfig()

    def step(global_model, c, rnd, prev):
        pseudo = (_teach(config, seed, global_model, clients[c], c, rnd)
                  if refit_teachers or prev is None else prev[2])
        s0 = prev[0] if warm_students and prev is not None else global_model
        s_cfg = replace(config, seed=derive_seed(seed, TAG_CLIENT, c, rnd))
        student, losses = train_local(s0, clients[c].public.X, pseudo, s_cfg)
        return student, losses, pseudo

    return run_rounds(len(clients), step, test, rounds, seed, hidden,
                      threads, fits_per_client=2 if refit_teachers else 1,
                      agreement=all(c.public is clients[0].public
                                    for c in clients))


def run_ftml(clients: list[MimicClient], test: Dataset, rounds: int = 20,
             config: TrainConfig | None = None, seed: int = 0,
             hidden: int = 256, warm_students: bool = True,
             threads: int = 1) -> tuple[ModelParams, RoundHistory]:
    """Federated teacher mimic learning: every round each client's teacher
    refits from the averaged global model and relabels the public set. The
    student starts from the client's last student (``warm_students``) or
    from the global model. Two local fits per client per round."""
    return _run_mimic(clients, test, rounds, config, seed, hidden, threads,
                      refit_teachers=True, warm_students=warm_students)


def run_fsml(clients: list[MimicClient], test: Dataset, rounds: int = 20,
             config: TrainConfig | None = None, seed: int = 0,
             hidden: int = 256, threads: int = 1,
             ) -> tuple[ModelParams, RoundHistory]:
    """Federated student mimic learning: FTML's step with each teacher fitted
    once, in round 0, its labels frozen, and every student started from the
    global model. One local fit per client per round, plus one teacher fit
    per client in round 0."""
    return _run_mimic(clients, test, rounds, config, seed, hidden, threads,
                      refit_teachers=False, warm_students=False)
