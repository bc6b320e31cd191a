"""Bit-exact training-state persistence.

A checkpoint (format 4) is a single .npz holding every parameter,
velocity, and prototype array verbatim (prototype row k is class k), the
metric history as one `history` table, and one JSON metadata entry,
stored as ASCII bytes. The metadata holds the config (the same
`section.key = value` lines the metrics CSV carries, read back through
the config parser), the feature count, the step counter, the generator
state, and the SHA-256 of the dataset the run trains on. The history
table is the run's `trainer.MetricHistory` rows as they are kept in
memory: row i for step i in `trainer.HISTORY_DTYPE` columns, 40 bytes a
row, a row's step its index and its epoch step // steps_per_epoch, NaN
for None. A save writes that table as it is and a load wraps the table
it reads, so neither builds a Python object per step. Every float
survives the round trip exactly: the config lines use shortest
round-trip formatting and arrays are stored raw. A load refuses any
non-finite array. Format 3, which kept the history as JSON in the
metadata, and older formats are refused.
Writes go to a temp file first and are renamed into place, so a crash
never leaves a truncated checkpoint behind.
"""

from __future__ import annotations

import json
import os
import re
import zipfile

import numpy as np

from .pseudo import PrototypeBank
from .trainer import (HISTORY_DTYPE, MetricHistory, TrainConfig, TrainState, config_to_lines,
                      new_train_state, parse_config_lines)

__all__ = ["FORMAT_VERSION", "CheckpointFormatError", "load_checkpoint", "save_checkpoint"]

FORMAT_VERSION = 4


class CheckpointFormatError(ValueError):
    """The file is not a complete checkpoint: not a zip, truncated, or missing an entry."""


def _state_arrays(state: TrainState) -> dict:
    """Entry name -> live array, for every array a checkpoint stores, in file order."""
    arrays = {f"param_{i}": p for i, p in enumerate(state.encoder.parameters())}
    arrays.update((f"vel_{i}", v) for i, v in enumerate(state.velocities))
    arrays["prototypes"] = state.bank.prototypes
    arrays["proto_vel"] = state.proto_velocity
    return arrays


def save_checkpoint(path, config: TrainConfig, state: TrainState) -> None:
    """Atomically write config + full state to `path`."""
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config_to_lines(config),
        "input_dim": state.encoder.config.input_dim,
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "data_sha256": state.data_sha256,
    }
    if len(state.history) != state.step:
        raise ValueError(f"history has {len(state.history)} rows at step {state.step}")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta).encode()), history=state.history.table(),
                 **_state_arrays(state))
    os.replace(tmp, path)


def _meta_int(path, meta: dict, key: str, least: int) -> int:
    value = meta[key]
    if type(value) is not int or value < least:  # bool is not an integer here
        raise ValueError(f"{path}: {key} must be an integer >= {least}, got {value!r}")
    return value


def _meta_sha256(path, meta: dict) -> str:
    value = meta["data_sha256"]
    # Dataset.sha256() is lowercase hex; no other value can match a dataset
    if not isinstance(value, str) or not re.fullmatch("[0-9a-f]{64}", value):
        raise ValueError(f"{path}: data_sha256 must be 64 hex digits, got {value!r}")
    return value


def load_checkpoint(path):
    """Rebuild (config, state) from a checkpoint file.

    The restored state continues training exactly where the saved one
    stopped: parameters, velocities, rng stream, and history all match
    bit for bit. An array whose shape differs from the configured
    architecture raises ValueError naming its entry, a non-finite array,
    a prototype row off the unit sphere or a generator state of another
    kind ValueError naming the file, a bad config line
    ConfigError naming the file and line, and a bad step, input_dim or
    data_sha256 ValueError naming the file and field. A file that is not
    a complete zip checkpoint, that holds an entry zipfile cannot read, or
    whose metadata or history table has the wrong shape, raises
    CheckpointFormatError, and one of another format version ValueError.
    """
    def incomplete(why):
        return CheckpointFormatError(f"{path}: not a complete checkpoint: {why}")

    try:
        # not np.load: it would read a non-zip file as a .npy or a pickle
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as npz:
            meta = json.loads(npz["meta"].item())
            if not isinstance(meta, dict):
                raise incomplete("meta is not a JSON object")
            version = meta.get("format_version")
            if version != FORMAT_VERSION:
                raise ValueError(
                    f"checkpoint format {version!r} not supported (expected {FORMAT_VERSION})")
            lines = meta["config"]
            if not isinstance(lines, list) or not all(isinstance(s, str) for s in lines):
                raise incomplete("config is not a list of lines")
            config = parse_config_lines(lines, source=f"{path}: config")
            step = _meta_int(path, meta, "step", 0)
            input_dim = _meta_int(path, meta, "input_dim", 1)
            # the class count is the prototype rows; every shape is checked below
            prototypes = npz["prototypes"]
            num_classes = prototypes.shape[0] if prototypes.ndim else 1
            state = new_train_state(config, input_dim, num_classes,
                                    np.random.default_rng(0), _meta_sha256(path, meta))
            for name, live in _state_arrays(state).items():
                saved = npz[name]
                if saved.shape != live.shape:
                    raise ValueError(f"{name} shape {saved.shape} does not match "
                                     f"the configured architecture {live.shape}")
                if not np.isfinite(saved).all():
                    raise ValueError(f"{path}: {name} must be finite")
                live[...] = saved
            try:
                state.bank = PrototypeBank(state.bank.prototypes)  # unit-norm rows
                state.rng.bit_generator.state = meta["rng_state"]
            except ValueError as exc:  # neither message names the file
                raise ValueError(f"{path}: {exc}") from None
            state.step = step
            history = npz["history"]
            if history.dtype != HISTORY_DTYPE:
                raise incomplete(f"history has dtype {history.dtype}, expected {HISTORY_DTYPE}")
            if history.shape != (step,):
                raise incomplete(f"history has shape {history.shape} at step {step}")
            state.history = MetricHistory(config.steps_per_epoch, history)
        return config, state
    # RuntimeError: zipfile's refusal of an encrypted entry, and (as NotImplementedError)
    # of an unsupported version, compression method or flag
    except (EOFError, zipfile.BadZipFile, json.JSONDecodeError, KeyError, TypeError,
            RuntimeError) as exc:
        raise incomplete(exc) from None
