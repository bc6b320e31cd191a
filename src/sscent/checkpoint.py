"""Bit-exact training-state persistence.

A checkpoint is a single .npz holding every parameter, velocity, and
prototype array verbatim (prototype row k is class k), plus one JSON
metadata entry, stored as ASCII bytes, with the config, the step counter,
the generator state, and the metric history. Floats in the metadata
survive the round trip exactly because JSON serialization uses shortest
round-trip formatting; arrays are stored as raw float64.
Writes go to a temp file first and are renamed into place, so a crash
never leaves a truncated checkpoint behind.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from .encoder import EncoderConfig, MlpEncoder, OptimizerState
from .pseudo import PrototypeBank
from .trainer import StepMetrics, TrainConfig, TrainState

__all__ = ["FORMAT_VERSION", "CheckpointFormatError", "load_checkpoint", "save_checkpoint"]

FORMAT_VERSION = 2


class CheckpointFormatError(ValueError):
    """The file is not a complete checkpoint: not a zip, truncated, or missing an entry."""


def save_checkpoint(path, config: TrainConfig, state: TrainState) -> None:
    """Atomically write config + full state to `path`."""
    meta = {
        "format_version": FORMAT_VERSION,
        "config": config.as_dict(),
        "input_dim": state.encoder.config.input_dim,
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        # __dict__ lists the fields in declaration order, as dataclasses.asdict
        # would, without its per-value deep copy (about 4x slower at 8192 steps)
        "history": [vars(m) for m in state.history],
    }
    arrays = {"meta": np.array(json.dumps(meta).encode())}
    for i, p in enumerate(state.encoder.parameters()):
        arrays[f"param_{i}"] = p
    for i, v in enumerate(state.opt.velocities):
        arrays[f"vel_{i}"] = v
    arrays["prototypes"] = state.bank.prototypes
    arrays["proto_vel"] = state.proto_opt.velocities[0]
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def load_checkpoint(path):
    """Rebuild (config, state) from a checkpoint file.

    The restored state continues training exactly where the saved one
    stopped: parameters, velocities, rng stream, and history all match
    bit for bit. A file that is not a complete zip checkpoint raises
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
            config = TrainConfig.from_dict(meta["config"])
            enc_config = EncoderConfig(input_dim=int(meta["input_dim"]),
                                       hidden_dims=config.hidden_dims,
                                       embed_dim=config.embed_dim,
                                       activation=config.activation)
            encoder = MlpEncoder(enc_config, np.random.default_rng(0))
            params = encoder.parameters()
            for i, p in enumerate(params):
                saved = npz[f"param_{i}"]
                if saved.shape != p.shape:
                    raise ValueError(f"param_{i} shape {saved.shape} does not match "
                                     f"the configured architecture {p.shape}")
                p[...] = saved
            opt = OptimizerState.for_params(params, config.momentum)
            for i, v in enumerate(opt.velocities):
                v[...] = npz[f"vel_{i}"]
            bank = PrototypeBank(prototypes=npz["prototypes"].copy())
            proto_opt = OptimizerState.for_params([bank.prototypes], config.momentum)
            proto_opt.velocities[0][...] = npz["proto_vel"]
            rng = np.random.default_rng(0)
            rng.bit_generator.state = meta["rng_state"]
            history = [StepMetrics(**row) for row in meta["history"]]
        state = TrainState(encoder=encoder, bank=bank, opt=opt, proto_opt=proto_opt,
                           rng=rng, step=int(meta["step"]), history=history)
        return config, state
    except (EOFError, zipfile.BadZipFile, KeyError) as exc:
        raise CheckpointFormatError(f"{path}: not a complete checkpoint: {exc}") from None
