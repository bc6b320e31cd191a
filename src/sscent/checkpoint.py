"""Bit-exact training-state persistence.

A checkpoint is a single .npz holding every parameter, velocity, and
prototype array verbatim (prototype row k is class k), plus one JSON
metadata entry, stored as ASCII bytes, with the config (the same
`section.key = value` lines the metrics CSV carries, read back through
the config parser), the step counter, the generator state, and the metric
history. Floats in the metadata survive the round trip exactly because
both the lines and JSON use shortest round-trip formatting; arrays are
stored as raw float64.
Writes go to a temp file first and are renamed into place, so a crash
never leaves a truncated checkpoint behind.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from .pseudo import PrototypeBank
from .trainer import (StepMetrics, TrainConfig, TrainState, config_to_lines,
                      new_train_state, parse_config_lines)

__all__ = ["FORMAT_VERSION", "CheckpointFormatError", "load_checkpoint", "save_checkpoint"]

FORMAT_VERSION = 3


class CheckpointFormatError(ValueError):
    """The file is not a complete checkpoint: not a zip, truncated, or missing an entry."""


def _state_arrays(state: TrainState) -> dict:
    """Entry name -> live array, for every array a checkpoint stores, in file order."""
    arrays = {f"param_{i}": p for i, p in enumerate(state.encoder.parameters())}
    arrays.update((f"vel_{i}", v) for i, v in enumerate(state.opt.velocities))
    arrays["prototypes"] = state.bank.prototypes
    arrays["proto_vel"] = state.proto_opt.velocities[0]
    return arrays


def save_checkpoint(path, config: TrainConfig, state: TrainState) -> None:
    """Atomically write config + full state to `path`."""
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config_to_lines(config),
        "input_dim": state.encoder.config.input_dim,
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        # __dict__ lists the fields in declaration order, as dataclasses.asdict
        # would, without its per-value deep copy (about 4x slower at 8192 steps)
        "history": [vars(m) for m in state.history],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta).encode()), **_state_arrays(state))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Rebuild (config, state) from a checkpoint file.

    The restored state continues training exactly where the saved one
    stopped: parameters, velocities, rng stream, and history all match
    bit for bit. An array whose shape differs from the configured
    architecture raises ValueError naming its entry, and a bad config line
    ConfigError naming the file and line. A file that is not a complete
    zip checkpoint, or whose history rows are not metrics rows, raises
    CheckpointFormatError, and one of another format version ValueError.
    """
    try:
        # not np.load: it would read a non-zip file as a .npy or a pickle
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as npz:
            meta = json.loads(npz["meta"].item())
            version = meta.get("format_version")
            if version != FORMAT_VERSION:
                raise ValueError(
                    f"checkpoint format {version!r} not supported (expected {FORMAT_VERSION})")
            config = parse_config_lines(meta["config"], source=f"{path}: config")
            # the class count is the prototype rows; every shape is checked below
            prototypes = npz["prototypes"]
            num_classes = prototypes.shape[0] if prototypes.ndim else 1
            state = new_train_state(config, int(meta["input_dim"]), num_classes,
                                    np.random.default_rng(0))
            for name, live in _state_arrays(state).items():
                saved = npz[name]
                if saved.shape != live.shape:
                    raise ValueError(f"{name} shape {saved.shape} does not match "
                                     f"the configured architecture {live.shape}")
                live[...] = saved
            state.bank = PrototypeBank(state.bank.prototypes)  # finite, unit-norm rows
            state.rng.bit_generator.state = meta["rng_state"]
            state.step = int(meta["step"])
            state.history = [StepMetrics(**row) for row in meta["history"]]
        return config, state
    except (EOFError, zipfile.BadZipFile, KeyError, TypeError) as exc:
        raise CheckpointFormatError(f"{path}: not a complete checkpoint: {exc}") from None
