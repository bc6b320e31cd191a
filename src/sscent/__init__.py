"""Entropy-weighted semi-supervised contrastive learning on synthetic data."""

from .data import AugmentationPolicy, CsvFormatError, Dataset, augment, \
    generate_gaussian_clusters, load_csv, save_csv, split_dataset
from .encoder import EncoderConfig, MlpEncoder, update_prototypes
from .evaluate import EvalReport, build_report, evaluate, pseudo_metrics
from .losses import ContrastiveBatch, LossResult, ZeroNormalizerError, \
    grad_check, loss_oracle, ssc_e_loss, ssc_loss
from .pseudo import DecisionKind, EntropyGate, GateDegenerateError, \
    PrototypeBank, adaptive_weight, assign_pseudo_labels, class_probabilities
from .trainer import ConfigError, NonFiniteLossError, StepMetrics, TrainConfig, \
    TrainState, assemble_batch, cosine_lr, init_train_state, train, train_step
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"
