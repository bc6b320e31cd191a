"""The public names of the sscent package."""

import types

import sscent


def test_the_package_exports_exactly_these_names():
    # a name added to or dropped from sscent/__init__.py is a change to this list
    names = sorted(name for name, value in vars(sscent).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == [
        "AugmentationPolicy", "ConfigError", "ContrastiveBatch", "CsvFormatError", "Dataset",
        "DecisionKind", "EncoderConfig", "EntropyGate", "EvalReport", "GateDegenerateError",
        "LossResult", "MlpEncoder", "NonFiniteLossError", "PrototypeBank", "StepMetrics",
        "TrainConfig", "TrainState", "ZeroNormalizerError", "adaptive_weight",
        "assemble_batch", "assign_pseudo_labels", "augment", "build_report",
        "class_probabilities", "cosine_lr", "evaluate", "generate_gaussian_clusters",
        "grad_check", "init_train_state", "load_checkpoint", "load_csv", "loss_oracle",
        "pseudo_metrics", "save_checkpoint", "save_csv", "split_dataset", "ssc_e_loss",
        "ssc_loss", "train", "train_step", "update_prototypes",
    ]
