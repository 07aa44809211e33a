"""Rotation-invariant point cloud learning with aligned edge convolutions.

The package is organized bottom up:

- geometry:  point cloud container, rotations, normalization
- neighbors: kNN and ball searches, farthest point sampling, feature-space kNN
- lrf:       per-point local reference frames and rotation-invariant coords
- autodiff:  minimal reverse-mode engine over float64 arrays
- nn:        shared MLPs, Adam, step schedule, binary checkpoints
- config:    dataclass configs with validation and INI round trips
- network:   the hierarchical classifier/segmenter built from all the above
- data:      synthetic shape datasets, file formats, evaluation metrics
- training:  deterministic epoch loop with bit-exact resume
- cli:       `aecnn` command line (train / eval / invariance-audit / ...)

The names re-exported here are the stable surface; module-level imports
(`from aecnn import lrf`) remain available for everything else.
"""
from aecnn.config import (
    ConfigError,
    NetworkConfig,
    SaFirstConfig,
    SaNextConfig,
    TrainConfig,
    desk_classification_config,
    desk_segmentation_config,
    load_config,
    paper_scale_config,
    save_config,
)
from aecnn.data import (
    Dataset,
    FileFormatError,
    Metrics,
    evaluate_classification,
    evaluate_miou,
    load_dataset_bin,
    load_xyz,
    protocol_rotation,
    save_dataset_bin,
    save_xyz,
    synth_classification,
    synth_segmentation,
)
from aecnn.geometry import PointCloud, normalize, rodrigues, sample_arbitrary_rotation
from aecnn.lrf import compute_lrf_batch, rir_batch
from aecnn.network import Model, count_operations, count_parameters
from aecnn.nn import Mlp, load_checkpoint, save_checkpoint
from aecnn.training import (
    EpochStats,
    RunRecord,
    predict_parts,
    train_classifier,
    train_segmenter,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "EpochStats",
    "FileFormatError",
    "Metrics",
    "Mlp",
    "Model",
    "NetworkConfig",
    "PointCloud",
    "RunRecord",
    "SaFirstConfig",
    "SaNextConfig",
    "TrainConfig",
    "compute_lrf_batch",
    "count_operations",
    "count_parameters",
    "desk_classification_config",
    "desk_segmentation_config",
    "evaluate_classification",
    "evaluate_miou",
    "load_checkpoint",
    "load_config",
    "load_dataset_bin",
    "load_xyz",
    "normalize",
    "paper_scale_config",
    "predict_parts",
    "protocol_rotation",
    "rir_batch",
    "rodrigues",
    "sample_arbitrary_rotation",
    "save_checkpoint",
    "save_config",
    "save_dataset_bin",
    "save_xyz",
    "synth_classification",
    "synth_segmentation",
    "train_classifier",
    "train_segmenter",
]
