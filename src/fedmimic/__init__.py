"""Federated mimic-learning simulator and NSL-KDD intrusion-detection
training harness."""

from .data import (AttackClass, Dataset, PreprocessPipeline, PublicSet,
                   apply_pipeline, fit_pipeline, map_labels, parse_records,
                   shard_clients, split_private_public)
from .features import fit_logreg, rfe, select_union
from .fedsim import RoundHistory, fedavg, run_fl
from .metrics import EvalReport, confusion, overall_accuracy, per_class_metrics
from .mimic import MimicClient, label_public, run_fsml, run_ftml
from .modelio import load_model, save_model
from .nn import (AdamState, ModelParams, TrainConfig, adam_step, backward,
                 forward, init_model, loss, predict, train_local)

__version__ = "0.1.0"
