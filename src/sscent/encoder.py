"""A small MLP encoder producing unit-norm embeddings, with exact backprop.

The network is hand-written numpy: configurable hidden widths, tanh
between layers, a linear output layer, and a final row-wise
normalization. The backward pass includes the normalization Jacobian
(I - z z^T) / ||u||, where u is the pre-normalization output, so gradients
of any downstream loss w.r.t. the unit embeddings propagate exactly to all
parameters.

Optimization is plain momentum SGD (v <- m*v + g; p <- p - lr*v), shared by
the encoder parameters and the class prototypes; prototypes are re-unit-
normalized after each step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pseudo import PrototypeBank, normalize_rows

__all__ = [
    "EncoderConfig",
    "ForwardCache",
    "MlpEncoder",
    "StaleCacheError",
    "sgd_momentum_step",
    "update_prototypes",
]


# rows per block of `MlpEncoder.backward`; one pass over the 960 encoded rows
# of a paper-shaped step holds twice the temporaries of 448-row blocks
_BACKWARD_ROWS = 448


class StaleCacheError(RuntimeError):
    """A forward cache is reused after the encoder's parameters changed."""


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    embed_dim: int = 16

    def __post_init__(self):
        dims = self.layer_dims
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all layer widths must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.embed_dim)


@dataclass
class ForwardCache:
    version: int
    activations: list[np.ndarray]  # layer inputs: activations[l] feeds layer l
    norms: np.ndarray
    embeddings: np.ndarray


class MlpEncoder:
    """Multilayer perceptron ending in a row-normalized embedding."""

    def __init__(self, config: EncoderConfig, rng: np.random.Generator):
        self.config = config
        dims = config.layer_dims
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        self._version = 0

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Live references, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def mark_parameters_changed(self) -> None:
        self._version += 1

    def forward(self, inputs) -> tuple[np.ndarray, ForwardCache]:
        """Map (n, input_dim) rows to unit embeddings plus a backward cache."""
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ValueError(
                f"inputs must be (n, {self.config.input_dim}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("inputs must be finite")
        activations = [x]
        h = x
        for layer in range(self.num_layers - 1):
            h = np.tanh(h @ self.weights[layer] + self.biases[layer])
            activations.append(h)
        embeddings, norms = normalize_rows(h @ self.weights[-1] + self.biases[-1], "embedding")
        return embeddings, ForwardCache(self._version, activations, norms, embeddings)

    def backward(self, cache: ForwardCache, grad_embeddings) -> list[np.ndarray]:
        """Parameter gradients given d(loss)/d(embeddings).

        Returns gradients in parameters() order. The normalization Jacobian
        is applied first: dL/du = (g - (g.z) z) / ||u|| per row. Blocks of
        _BACKWARD_ROWS rows are summed in order; fewer rows are one block.
        """
        if cache.version != self._version:
            raise StaleCacheError("forward cache predates a parameter update")
        g = np.asarray(grad_embeddings, dtype=np.float64)
        if g.shape != cache.embeddings.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match embeddings {cache.embeddings.shape}")
        total = None
        for start in range(0, max(len(g), 1), _BACKWARD_ROWS):
            rows = slice(start, start + _BACKWARD_ROWS)
            z, gz = cache.embeddings[rows], g[rows]
            radial = (gz * z).sum(axis=1, keepdims=True)
            upstream = (gz - radial * z) / cache.norms[rows, None]
            grads = [None] * (2 * self.num_layers)
            for layer in range(self.num_layers - 1, -1, -1):
                acts = cache.activations[layer][rows]
                grads[2 * layer] = acts.T @ upstream
                grads[2 * layer + 1] = upstream.sum(axis=0)
                if layer > 0:
                    upstream = (upstream @ self.weights[layer].T) * (1.0 - acts * acts)
            if total is None:
                total = grads
            else:
                for acc, part in zip(total, grads):
                    acc += part
        return total

    def apply_gradients(self, grads: list[np.ndarray], velocities: list[np.ndarray],
                        momentum: float, lr: float) -> None:
        sgd_momentum_step(self.parameters(), grads, velocities, momentum, lr)
        self.mark_parameters_changed()


def sgd_momentum_step(params: list[np.ndarray], grads: list[np.ndarray],
                      velocities: list[np.ndarray], momentum: float, lr: float) -> None:
    """In-place momentum SGD: v <- m*v + g, then p <- p - lr*v."""
    if len(params) != len(grads) or len(params) != len(velocities):
        raise ValueError("params, grads, and velocities must align")
    for p, g, v in zip(params, grads, velocities):
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, vel {v.shape}")
        v *= momentum
        v += g
        p -= lr * v


def update_prototypes(bank: PrototypeBank, grads, velocity: np.ndarray, momentum: float,
                      lr: float) -> None:
    """Momentum-SGD step on the prototype matrix, then re-unit-normalize rows.

    The rows are not renormalized at lr 0 or zero velocity. Subtracting 0 * v
    can change only a -0.0 coordinate (to +0.0), as for the encoder's weights.
    """
    sgd_momentum_step([bank.prototypes], [np.asarray(grads, dtype=np.float64)], [velocity],
                      momentum, lr)
    if lr != 0.0 and velocity.any():
        bank.prototypes = normalize_rows(bank.prototypes, "prototype")[0]
