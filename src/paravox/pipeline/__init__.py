"""Training orchestration, inference, evaluation, and the CLI."""

from .config import ConfigError, PipelineConfig, toy_profile
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .train import Adam, TrainSchedule, TrainingDiverged, train_stage

__all__ = [
    "Adam",
    "Checkpoint",
    "ConfigError",
    "PipelineConfig",
    "TrainSchedule",
    "TrainingDiverged",
    "load_checkpoint",
    "save_checkpoint",
    "toy_profile",
    "train_stage",
]
