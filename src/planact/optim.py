"""AdamW with decoupled weight decay and the warmup-plus-cosine learning-rate schedule.

``AdamW`` keeps its parameters in one contiguous float64 buffer: at
construction it copies each parameter's values there and rebinds the
parameter's ``data`` to a view of its slice, and the moments ``m`` and ``v``
are flat buffers of the same length.  A step copies the gradients into one
flat buffer and updates every parameter with a few whole-buffer operations.
The update is elementwise, so it equals a per-tensor update bit for bit.
Code that writes parameter values in place (``t.data[...] = ...``) writes
through the views; code that rebinds ``t.data`` detaches that parameter from
the optimizer.  Its hyperparameters are the constants ``BETA1``, ``BETA2``,
``WEIGHT_DECAY`` and ``EPS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericError, require_int
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.98
WEIGHT_DECAY = 0.05
EPS = 1e-8


@dataclass
class LrSchedule:
    """Linear ramp from zero to ``peak_lr`` over the warmup span, cosine decay to zero after."""

    peak_lr: float
    total_steps: int
    warmup_ratio: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ContractError(f"warmup_ratio must lie in [0, 1), got {self.warmup_ratio}")
        require_int("total_steps", self.total_steps, least=1)

    @property
    def warmup_steps(self) -> int:
        return int(self.warmup_ratio * self.total_steps)

    def lr_at(self, step: int) -> float:
        if step < 0 or step > self.total_steps:
            raise ContractError(
                f"step {step} outside schedule range [0, {self.total_steps}]"
            )
        warmup = self.warmup_steps
        if step < warmup:
            return self.peak_lr * step / warmup
        if self.total_steps == warmup:
            return self.peak_lr
        progress = (step - warmup) / (self.total_steps - warmup)
        return self.peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled-weight-decay Adam over an explicit list of distinct parameter tensors."""

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("AdamW was given the same parameter tensor more than once")
        self.t = 0
        offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self._bounds = list(zip(offsets[:-1], offsets[1:]))
        size = offsets[-1]
        self.flat = np.empty(size)
        for p, (lo, hi) in zip(self.params, self._bounds):
            self.flat[lo:hi] = p.data.reshape(-1)
            p.data = self.flat[lo:hi].reshape(p.data.shape)
        self._grad, self._u, self._d = np.empty(size), np.empty(size), np.empty(size)
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _gather_grads(self) -> np.ndarray:
        """Every gradient in the flat buffer (zeros for ``None``), checked before any update."""
        grad = self._grad
        for p, (lo, hi) in zip(self.params, self._bounds):
            if p.grad is None:
                grad[lo:hi] = 0.0
            elif p.grad.shape != p.data.shape:
                raise DimensionError(
                    f"gradient shape {p.grad.shape} does not match parameter {p.data.shape}"
                )
            else:
                grad[lo:hi] = p.grad.reshape(-1)
        finite = np.isfinite(grad)
        if not finite.all():
            bad = int(np.searchsorted([hi for _, hi in self._bounds], np.argmin(finite), "right"))
            raise NumericError(
                f"non-finite gradient for parameter {bad} of shape {self.params[bad].shape}"
            )
        return grad

    def step(self, lr: float) -> None:
        if not (math.isfinite(lr) and lr >= 0.0):
            raise ContractError(f"learning rate must be finite and non-negative, got {lr}")
        grad = self._gather_grads()
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        flat, m, v, u, d = self.flat, self.m, self.v, self._u, self._d
        # per element the same operations, in the same order, as
        #   p -= lr * wd * p;  m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
        #   p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        # with products commuted; the work buffers u and d spare the allocations
        flat -= np.multiply(flat, lr * WEIGHT_DECAY, out=u)
        m *= BETA1
        m += np.multiply(grad, 1.0 - BETA1, out=u)
        v *= BETA2
        np.multiply(grad, 1.0 - BETA2, out=d)
        v += np.multiply(d, grad, out=d)
        np.divide(v, bc2, out=d)
        np.sqrt(d, out=d)
        d += EPS
        np.divide(m, bc1, out=u)
        u *= lr
        flat -= np.divide(u, d, out=u)
