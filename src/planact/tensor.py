"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is recorded define-by-run: every operation whose inputs require
gradients stores its parents and a closure computing parent gradients from the
output gradient.  ``backward`` walks that record once, in reverse topological
order, and accumulates gradients onto the participating leaves.  Everything is
float64 throughout so finite-difference checks stay meaningful.

The operator set is small, with one path per concept.  ``Tensor`` has
``+`` and ``*`` (numpy broadcasting), ``reshape``, ``sum``, ``mean`` and
indexing.  Products go through ``linear`` (``x @ w + b``), row gathers
through ``take_rows`` and slices through ``Tensor.__getitem__``, which takes
basic keys only.  The other operations are module functions: ``concat``,
``write_rows`` (``concat`` of cached and new rows, computed in preallocated
storage), ``broadcast_to``, ``softmax``, ``layer_norm``, ``gelu``,
``cross_entropy``, ``unfold_windows`` (the k-by-k windows of channels-last
images) and ``attention`` (multi-head scaled dot-product attention, its
heads split and merged inside the node).  Each composite is one node with an
analytic backward that gives the values and gradients of the chain of nodes
it replaces bit for bit.

Inside a ``with no_grad():`` block nothing is recorded: every operation
returns a plain constant, without looking at its inputs' ``requires_grad``,
so inference pays for the arithmetic only and a result computed there cannot
be differentiated (``backward`` raises ``ContractError``).  Blocks nest and
the previous state comes back when a block exits, also on an exception.  The
switch is one module-level flag shared by every thread of the process.
"""

from __future__ import annotations

import contextlib
import math
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError, require_int

_recording = True
_FLOAT64 = np.dtype(np.float64)


@contextlib.contextmanager
def no_grad():
    """Record no autodiff graph inside the block (see the module docstring)."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "is_param", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.is_param = False
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------------

    @staticmethod
    def _result(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    ) -> "Tensor":
        out = Tensor.__new__(Tensor)
        if data.__class__ is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        out.data = data
        out.grad = None
        out.is_param = False
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._grad_fn = grad_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._grad_fn = None
        return out

    def backward(self) -> None:
        """Populate ``grad`` on every requires-grad leaf reachable from this scalar."""
        if self.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("loss does not require grad; nothing to differentiate")
        order = _topo_order(self)
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = flowing.pop(id(node), None)
            if grad is None:
                continue
            if node._grad_fn is None:
                if node.requires_grad:  # leaf
                    node.grad = grad if node.grad is None else node.grad + grad
                continue
            parent_grads = node._grad_fn(grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                acc = flowing.get(id(parent))
                flowing[id(parent)] = pgrad if acc is None else acc + pgrad

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data + other.data
        return Tensor._result(
            out,
            (self, other),
            lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape)),
        )

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out = self.data * other.data
        return Tensor._result(
            out,
            (self, other),
            lambda g: (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            ),
        )

    __rmul__ = __mul__

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        out = self.data.reshape(shape)
        return Tensor._result(out, (self,), lambda g: (g.reshape(old),))

    def __getitem__(self, key) -> "Tensor":
        """Basic indexing only: ints, slices, ``...`` and tuples of them.

        A basic key selects each element at most once, so the gradient is
        written into the selected view.  Gather rows with ``take_rows``.
        """
        for part in key if isinstance(key, tuple) else (key,):
            if not (part is Ellipsis or isinstance(part, slice)
                    or (isinstance(part, Integral) and not isinstance(part, bool))):
                raise ContractError(
                    f"a Tensor index takes ints, slices and ... only, not "
                    f"{type(part).__name__}; gather rows with take_rows"
                )
        out = self.data[key]

        def grad_fn(g: np.ndarray):
            full = np.zeros_like(self.data)
            full[key] += g
            return (full,)

        return Tensor._result(np.array(out), (self,), grad_fn)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp, self.shape).copy(),)

        return Tensor._result(np.array(out), (self,), grad_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Depth-first topological order of the recorded graph; parents precede children."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape))


def parameter(values: np.ndarray) -> Tensor:
    """Trainable tensor holding the initial array ``values``."""
    t = Tensor(values, requires_grad=True)
    t.is_param = True
    return t


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat requires at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def grad_fn(g: np.ndarray):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._result(out, tuple(tensors), grad_fn)


def write_rows(storage: np.ndarray, head: Tensor, new: Tensor) -> Tensor:
    """``concat([head, new], axis=-2)`` computed in ``storage``, as one node.

    The first rows of ``storage`` (axis -2) already hold ``head``'s values.
    ``new`` is written after them, and the result is a view of rows
    [0, n_head + n_new).  The gradient splits at n_head as ``concat``'s does.
    """
    n, m = head.shape[-2], new.shape[-2]
    if n + m > storage.shape[-2]:
        raise DimensionError(f"{n} + {m} rows do not fit storage of {storage.shape[-2]}")
    storage[..., n : n + m, :] = new.data
    return Tensor._result(
        storage[..., : n + m, :], (head, new), lambda g: (g[..., :n, :], g[..., n:, :])
    )


def take_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Rows ``ids`` of ``table``'s first axis (an embedding lookup or a batch
    gather); gradients scatter-add back into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    bad = idx[(idx < 0) | (idx >= table.shape[0])]
    if bad.size:
        raise ContractError(f"row id {int(bad[0])} outside the table's {table.shape[0]} rows")
    out = table.data[idx]

    def grad_fn(g: np.ndarray):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return Tensor._result(out, (table,), grad_fn)


def broadcast_to(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``x`` repeated along broadcast axes; gradients are summed back to ``x``'s shape."""
    shape = tuple(shape)
    if x.shape == shape:
        return x
    try:
        out = np.broadcast_to(x.data, shape).copy()
    except ValueError:
        raise DimensionError(f"cannot broadcast {x.shape} to {shape}") from None
    return Tensor._result(out, (x,), lambda g: (_unbroadcast(g, x.shape),))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` as one node, for a 2-d ``w`` and a bias ``b`` of its width.

    The product folds the leading axes of ``x`` into one GEMM over the rows
    ``x2 = x.reshape(-1, K)``, and the bias is added to it in place.  The
    weight gradient ``x2.T @ g2`` is one sum over every row of every leading
    index, and the bias gradient is summed over the leading axes by
    ``_unbroadcast``, as an add node sums it.  With ``b=None`` the node is
    ``x @ w`` alone, with no bias add and no bias gradient.
    """
    a, wd = x.data, w.data
    bd = None if b is None else b.data
    if a.ndim < 2 or wd.ndim != 2 or (bd is not None and bd.shape != wd.shape[1:]):
        raise DimensionError(
            f"linear expects (..., K) @ (K, N) + (N,), got {a.shape}, {wd.shape}, "
            f"{None if bd is None else bd.shape}"
        )
    fold = a.ndim > 2
    a2 = a.reshape(math.prod(a.shape[:-1]), a.shape[-1]) if fold else a
    try:
        out2 = a2 @ wd
    except ValueError:  # inner extents disagree
        raise DimensionError(f"linear operands do not fit: {a.shape} x {wd.shape}") from None
    if bd is not None:
        out2 += bd
    out = out2.reshape(*a.shape[:-1], wd.shape[1]) if fold else out2

    def grad_fn(g: np.ndarray):
        g2 = g.reshape(out2.shape)
        gx = (g2 @ wd.T).reshape(a.shape) if x.requires_grad else None
        gw = a2.T @ g2 if w.requires_grad else None
        if b is None:
            return gx, gw
        gb = _unbroadcast(g, bd.shape) if b.requires_grad else None
        return gx, gw, gb

    return Tensor._result(out, (x, w) if b is None else (x, w, b), grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    if np.logical_or.reduce(np.isnan(x.data), axis=None):
        raise NumericError("softmax received NaN input")
    out = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)

    def grad_fn(g: np.ndarray):
        inner = np.add.reduce(g * out, axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return Tensor._result(out, (x,), grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then apply the affine map.

    One node with an analytic backward.  In float64, on the last axis of width d::

        centered = x - x.sum(-1, keepdims=True) * (1 / d)
        var = (centered * centered).sum(-1, keepdims=True) * (1 / d)
        out = centered / np.sqrt(var + 1e-5) * gamma + beta
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last extent {d}"
        )
    inv_d = 1.0 / d
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) * inv_d
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) * inv_d
    std = np.sqrt(var + 1e-5)
    normed = centered / std
    if not np.logical_and.reduce(np.isfinite(normed), axis=None):
        raise NumericError("layer_norm produced non-finite values")
    out = normed * gamma.data
    out += beta.data

    def grad_fn(g: np.ndarray):
        g_normed = g * gamma.data
        g_x = (
            g_normed
            - np.add.reduce(g_normed, axis=-1, keepdims=True) * inv_d
            - normed * np.add.reduce(g_normed * normed, axis=-1, keepdims=True) * inv_d
        ) / std
        return (g_x, _unbroadcast(g * normed, (d,)), _unbroadcast(g, (d,)))

    return Tensor._result(out, (x, gamma, beta), grad_fn)


# Additive bias for masked-out attention scores.  Large enough that exp
# underflows to exactly zero in float64, keeping masked positions bitwise
# inert, while every stored value stays finite.
MASK_BIAS = -1e30


def attention(
    q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray | None = None
) -> Tensor:
    """Multi-head scaled dot-product attention as one node with an analytic backward.

    ``q`` is (..., n_q, D) and ``k``, ``v`` are (..., n_k, D); leading axes
    broadcast.  Each is split into ``heads`` heads of width d = D / heads,
    and the heads' outputs are merged back into (..., n_q, D).  ``mask`` is
    None (every key visible) or a boolean (n_q, n_k) array over every key,
    shared by every leading index and head.  This is the one place a mask is
    checked: one that does not fit raises ``DimensionError``, and one that
    leaves a query no key (or no keys at all) raises ``ContractError``.  Per
    head, in float64::

        scores = (q * (1 / sqrt(d))) @ k.T, masked entries set to MASK_BIAS
        probs = softmax(scores)  # the module's softmax, on a constant
        out = probs @ v

    The backward is FlashAttention's (arXiv 2205.14135) without its tiling:
    with gp = g @ v.T, the score gradient is (gp - sum(gp * probs)) * probs.
    """
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2 or not q.shape[-1] == k.shape[-1] == v.shape[-1]:
        raise DimensionError(
            f"attention operands disagree: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key/value row counts disagree: {k.shape} vs {v.shape}")
    dim = q.shape[-1]
    require_int("heads", heads, least=1)
    if dim % heads:
        raise ContractError(f"width {dim} does not split into {heads} heads")
    n_q, n_k = q.shape[-2], k.shape[-2]
    if mask is not None and np.shape(mask) != (n_q, n_k):
        raise DimensionError(
            f"mask shape {np.shape(mask)} does not fit {n_q} queries and {n_k} keys"
        )
    if n_k == 0 or (mask is not None and not mask.any(axis=1).all()):
        raise ContractError("attention row has no attendable key (fully masked)")
    d = dim // heads
    scale = 1.0 / math.sqrt(d)

    def split(x: np.ndarray) -> np.ndarray:  # (..., n, D) -> (..., heads, n, d), a view
        return x.reshape(*x.shape[:-1], heads, d).swapaxes(-3, -2)

    def merge(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:  # split's inverse
        return x.swapaxes(-3, -2).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    qs = qh * scale
    scores = qs @ kh.swapaxes(-1, -2)
    masked = mask is not None and not mask.all()
    if masked:
        scores = np.where(mask, scores, MASK_BIAS)
    probs = softmax(Tensor(scores), axis=-1).data
    heads_out = probs @ vh
    out = merge(heads_out, (*heads_out.shape[:-3], n_q, dim))

    def grad_fn(g: np.ndarray):
        gh = split(g)
        gq = gk = gv = None
        if v.requires_grad:
            gv = merge(_unbroadcast(probs.swapaxes(-1, -2) @ gh, vh.shape), v.shape)
        if q.requires_grad or k.requires_grad:
            gp = gh @ vh.swapaxes(-1, -2)
            gs = (gp - (gp * probs).sum(axis=-1, keepdims=True)) * probs
            if masked:
                gs = gs * mask
            if q.requires_grad:
                gq = merge(_unbroadcast(gs @ kh, qh.shape) * scale, q.shape)
            if k.requires_grad:
                kt_shape = (*kh.shape[:-2], d, kh.shape[-2])
                gkt = _unbroadcast(qs.swapaxes(-1, -2) @ gs, kt_shape)
                gk = merge(gkt.swapaxes(-1, -2), k.shape)
        return gq, gk, gv

    return Tensor._result(out, (q, k, v), grad_fn)


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-likelihood of ``targets`` under row-wise softmax of ``logits``."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects 2-d logits, got {logits.shape}")
    idx = np.asarray(targets, dtype=np.int64)
    n, c = logits.shape
    if n == 0 or idx.size == 0:
        raise ContractError("cross_entropy received an empty batch")
    if idx.shape != (n,):
        raise DimensionError(f"expected {n} targets, got {idx.shape}")
    bad = idx[(idx < 0) | (idx >= c)]
    if bad.size:
        raise ContractError(f"target class {int(bad[0])} outside the {c} classes of the logits")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    picked = logits.data[np.arange(n), idx]
    loss = float((lse - picked).mean())

    def grad_fn(g: np.ndarray):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), idx] -= 1.0
        return (probs * (float(g) / n),)

    return Tensor._result(np.asarray(loss), (logits,), grad_fn)


def unfold_windows(x: Tensor, k: int) -> Tensor:
    """All k-by-k windows of each image of a channels-last (B, H, W, c) tensor.

    The result is (B, (H-k+1)*(W-k+1), c*k*k): one row per window position,
    its entries in (channel, window row, window column) order.  Rows are
    filled by k*k slice copies, and the gradient accumulates the same k*k
    slices, in the same order, into a (B, H, W, c) buffer.
    """
    if x.ndim != 4:
        raise DimensionError(f"unfold_windows expects (B, H, W, c), got {x.shape}")
    require_int("window size", k, least=1)
    b, h, w, c = x.shape
    if h < k or w < k:
        raise DimensionError(f"window {k} exceeds spatial extents of {x.shape}")
    hh, ww = h - k + 1, w - k + 1
    windows = np.empty((b, hh, ww, c, k, k))
    for ki in range(k):
        for kj in range(k):
            windows[..., ki, kj] = x.data[:, ki : ki + hh, kj : kj + ww]
    out = windows.reshape(b, hh * ww, c * k * k)

    def grad_fn(g: np.ndarray):
        gw = g.reshape(b, hh, ww, c, k, k)
        full = np.zeros((b, h, w, c))
        for ki in range(k):
            for kj in range(k):
                full[:, ki : ki + hh, kj : kj + ww] += gw[..., ki, kj]
        return (full,)

    return Tensor._result(out, (x,), grad_fn)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Smooth tanh-form gaussian error linear unit, one node with an analytic derivative.

    The forward updates its temporaries in place, in the order of
    ``d * 0.5 * (tanh((d + d * d * d * A) * C) + 1)``.
    """
    d = x.data
    t = d * d
    t *= d
    t *= _GELU_A
    t += d
    t *= _GELU_C
    t = np.tanh(t)  # not out=t: for a 0-d input, d * d is a numpy scalar
    out = t + 1.0
    out *= d * 0.5

    def grad_fn(g: np.ndarray):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * d * d)
        return (g * 0.5 * ((t + 1.0) + d * (1.0 - t * t) * du),)

    return Tensor._result(out, (x,), grad_fn)
