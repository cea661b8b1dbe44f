"""A three-layer ReLU MLP for input-aware prediction, in NumPy.

Section VI-E2: "The model we use is lightweight, has three fully connected
(linear) layers and ReLU activations, and takes the features of all the
inputs of the function ... trained online using live traffic."

The regressor standardises inputs with running statistics, optionally
predicts in log space (execution times are positive and multiplicative),
and trains online with Adam. Prediction cost is a couple of small matrix
multiplies — tens of microseconds, as the paper reports.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class _RunningStandardizer:
    """Welford-style running mean/variance per feature."""

    def __init__(self, n_features: int):
        self.count = 0
        self.mean = np.zeros(n_features)
        self.m2 = np.zeros(n_features)
        self._std = None  # per-feature std of the current m2; update clears

    def update(self, rows: np.ndarray) -> None:
        self._std = None
        for row in rows:
            self.count += 1
            delta = row - self.mean
            self.mean += delta / self.count
            self.m2 += delta * (row - self.mean)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        if self.count < 2:
            return rows - self.mean
        if self._std is None:
            std = np.sqrt(self.m2 / (self.count - 1))
            std[std < 1e-9] = 1.0
            self._std = std
        return (rows - self.mean) / self._std


def _flat_buffer(shapes) -> Tuple[np.ndarray, List[np.ndarray]]:
    """A zeroed float64 buffer and its consecutive C-contiguous views,
    one per shape."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.zeros(sum(sizes))
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return flat, views


class MLPRegressor:
    """input → hidden → hidden → scalar, ReLU activations, Adam updates.

    The parameters, their gradients and the two Adam moments each live in
    one flat float64 buffer; ``_params`` and ``_grads`` are per-layer views
    into theirs, so one Adam step is a single vector update.
    """

    def __init__(self, n_inputs: int, hidden: Tuple[int, int] = (32, 16),
                 learning_rate: float = 1e-2, log_target: bool = True,
                 seed: int = 0):
        if n_inputs < 1:
            raise ValueError(f"need at least one input, got {n_inputs}")
        if len(hidden) != 2 or min(hidden) < 1:
            raise ValueError(f"hidden must be two positive sizes: {hidden}")
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive: {learning_rate}")
        self.n_inputs = n_inputs
        self.log_target = log_target
        self.learning_rate = learning_rate
        rng = np.random.default_rng(seed)
        h1, h2 = hidden
        shapes = [(n_inputs, h1), (h1,), (h1, h2), (h2,), (h2, 1), (1,)]
        self._flat_params, self._params = _flat_buffer(shapes)
        # He initialisation for the ReLU layers; biases start at zero.
        for i, fan_in in ((0, n_inputs), (2, h1), (4, h2)):
            self._params[i][...] = rng.normal(0, np.sqrt(2.0 / fan_in),
                                              size=shapes[i])
        self._flat_grads, self._grads = _flat_buffer(shapes)
        self._adam_m = np.zeros_like(self._flat_params)
        self._adam_v = np.zeros_like(self._flat_params)
        self._adam_t = 0
        self._standardizer = _RunningStandardizer(n_inputs)
        self._target_mean = 0.0
        self._target_m2 = 0.0
        self._target_count = 0
        self._target_std_cache = None  # _encode_targets clears it
        self.samples_seen = 0

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray):
        w1, b1, w2, b2, w3, b3 = self._params
        z1 = x @ w1 + b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2 + b2
        a2 = np.maximum(z2, 0.0)
        out = a2 @ w3 + b3
        return out, (x, z1, a1, z2, a2)

    def _backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Write the gradients into ``_grads``; return the flat buffer."""
        x, z1, a1, z2, a2 = cache
        w1, b1, w2, b2, w3, b3 = self._params
        grads = self._grads
        np.matmul(a2.T, grad_out, out=grads[4])
        np.sum(grad_out, axis=0, out=grads[5])
        da2 = grad_out @ w3.T
        dz2 = da2 * (z2 > 0)
        np.matmul(a1.T, dz2, out=grads[2])
        np.sum(dz2, axis=0, out=grads[3])
        da1 = dz2 @ w2.T
        dz1 = da1 * (z1 > 0)
        np.matmul(x.T, dz1, out=grads[0])
        np.sum(dz1, axis=0, out=grads[1])
        return self._flat_grads

    def _adam_step(self, grad: np.ndarray) -> None:
        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.learning_rate
        self._adam_m = beta1 * self._adam_m + (1 - beta1) * grad
        self._adam_v = beta2 * self._adam_v + (1 - beta2) * grad ** 2
        m_hat = self._adam_m / (1 - beta1 ** self._adam_t)
        v_hat = self._adam_v / (1 - beta2 ** self._adam_t)
        self._flat_params -= lr * m_hat / (np.sqrt(v_hat) + eps)

    # ------------------------------------------------------------------
    # Target normalisation
    # ------------------------------------------------------------------
    def _encode_targets(self, y: np.ndarray) -> np.ndarray:
        if self.log_target:
            if np.any(y <= 0):
                raise ValueError("log-target model needs positive targets")
            y = np.log(y)
        for value in y:
            self._target_count += 1
            delta = value - self._target_mean
            self._target_mean += delta / self._target_count
            self._target_m2 += delta * (value - self._target_mean)
        self._target_std_cache = None
        return (y - self._target_mean) / self._target_std()

    def _target_std(self) -> float:
        if self._target_std_cache is None:
            std = 1.0
            if self._target_count >= 2:
                std = float(np.sqrt(self._target_m2
                                    / (self._target_count - 1)))
                std = std if std > 1e-9 else 1.0
            self._target_std_cache = std
        return self._target_std_cache

    def _decode(self, out: np.ndarray) -> np.ndarray:
        decoded = out * self._target_std() + self._target_mean
        if self.log_target:
            # Clamp the log-space output: extreme extrapolations must not
            # overflow exp (callers clamp to a sane band anyway).
            decoded = np.exp(np.clip(decoded, -50.0, 50.0))
        return decoded

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def partial_fit(self, x: Sequence[Sequence[float]],
                    y: Sequence[float], epochs: int = 1) -> float:
        """One (or a few) online gradient steps on a mini-batch.

        Returns the final mean-squared error in normalised target space.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"batch mismatch: {x.shape[0]} inputs, {y.shape[0]} targets")
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} features, got {x.shape[1]}")
        self._standardizer.update(x)
        x_std = self._standardizer.transform(x)
        y_norm = self._encode_targets(y).reshape(-1, 1)
        self.samples_seen += len(y)
        mse = 0.0
        for _ in range(max(1, epochs)):
            out, cache = self._forward(x_std)
            residual = out - y_norm
            mse = float(np.mean(residual ** 2))
            grad = self._backward(cache, 2.0 * residual / len(y_norm))
            self._adam_step(grad)
        return mse

    def predict(self, x: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict targets for a batch of feature rows."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} features, got {x.shape[1]}")
        x_std = self._standardizer.transform(x)
        out, _ = self._forward(x_std)
        return self._decode(out).reshape(-1)

    def predict_one(self, features: Sequence[float]) -> float:
        return float(self.predict([list(features)])[0])
