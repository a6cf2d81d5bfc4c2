"""From-scratch reverse-mode tensor engine on top of numpy.

Design in one paragraph: a ``Tensor`` wraps a float64 ndarray plus an
optional gradient buffer.  While a ``Tape`` is active, every op appends a
record ``(out, inputs, backward_fn)``; insertion order is a topological
order by construction, so ``Tape.backward`` just walks the records in
reverse once, pushing adjoints from each output to its inputs.  Without
an active tape the same ops run as plain (checked) numpy functions, which
is how evaluation-mode inference stays cheap.

All op outputs and all propagated adjoints are verified finite; a NaN or
Inf anywhere raises ``NumericsError`` at the op that produced it instead
of silently poisoning a training run.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError

def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values produced by {where}")


# ---------------------------------------------------------------------------
# Tensor and tape
# ---------------------------------------------------------------------------

class Tensor:
    """A float64 array with an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered op records for one forward pass; reverse walk = backprop.

    A tape is meant to live for a single training step: enter, build the
    loss, call ``backward``, then let it go (or ``clear`` it explicitly).
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _tape_stack()
        assert stack and stack[-1] is self
        stack.pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def clear(self) -> None:
        self._nodes.clear()

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into ``t.grad`` for every tensor on the
        differentiable path.  Repeated calls keep accumulating."""
        if loss.data.size != 1:
            raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
        _check_finite(loss.data, "loss")
        adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self._nodes):
            out_grad = adjoint.get(id(out))
            if out_grad is None:
                continue
            grads = backward_fn(out_grad)
            for tensor, grad in zip(inputs, grads):
                if grad is None or not tensor.requires_grad:
                    continue
                _check_finite(grad, "backward")
                key = id(tensor)
                seen = adjoint.get(key)
                adjoint[key] = grad if seen is None else seen + grad
                holders[key] = tensor
        for key, tensor in holders.items():
            if not tensor.requires_grad:
                continue
            g = adjoint[key]
            tensor.grad = g.copy() if tensor.grad is None else tensor.grad + g


def _apply(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn: Callable,
           name: str) -> Tensor:
    """Wrap an op result, recording it on the active tape when needed."""
    _check_finite(out_data, name)
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    tape = active_tape()
    if needs and tape is not None:
        tape._nodes.append((out, tuple(inputs), backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Elementwise and broadcasting ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _apply((a, b), out, backward, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _apply((a, b), out, backward, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _apply((a, b), out, backward, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        return (_unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _apply((a, b), out, backward, "div")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _apply((a,), out, backward, "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _apply((a,), out, backward, "log")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out,)

    return _apply((a,), out, backward, "sqrt")


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)

    def backward(g):
        return (g * np.sign(a.data),)

    return _apply((a,), out, backward, "absolute")


def clamp_min(a, floor: float) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, floor)

    def backward(g):
        return (g * (a.data >= floor),)

    return _apply((a,), out, backward, "clamp_min")


def clamp_max(a, ceiling: float) -> Tensor:
    a = as_tensor(a)
    out = np.minimum(a.data, ceiling)

    def backward(g):
        return (g * (a.data <= ceiling),)

    return _apply((a,), out, backward, "clamp_max")


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _apply((a,), out, backward, "relu")


def softmax(a, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    a = as_tensor(a)
    if a.data.shape[axis] == 0:
        raise ValueError("softmax over an empty axis is undefined")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _apply((a,), out, backward, "softmax")


# ---------------------------------------------------------------------------
# Shape and gather ops
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _apply((a,), out, backward, "reshape")


def transpose2d(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"transpose2d expects a matrix, got shape {a.shape}")
    out = a.data.T.copy()

    def backward(g):
        return (g.T,)

    return _apply((a,), out, backward, "transpose2d")


def concat(parts: Iterable, axis: int) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return _apply(tuple(parts), out, backward, "concat")


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)
    out = a.data[index].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _apply((a,), out, backward, "slice_axis")


def take_rows(a, rows) -> Tensor:
    """Gather rows of a matrix; duplicate indices accumulate on backward."""
    a = as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("take_rows expects a matrix")
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]):
        raise ValueError("row index out of range")
    out = a.data[rows]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, rows, g)
        return (full,)

    return _apply((a,), out, backward, "take_rows")


# ---------------------------------------------------------------------------
# Reductions and linear algebra
# ---------------------------------------------------------------------------

def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _apply((a,), out, backward, "reduce_sum")


def reduce_max(a, axis: int) -> Tensor:
    """Max along one axis; gradient is routed to the first maximizer."""
    a = as_tensor(a)
    if a.data.shape[axis] == 0:
        raise ValueError("reduce_max over an empty axis")
    arg = np.argmax(a.data, axis=axis)
    out = np.take_along_axis(a.data, np.expand_dims(arg, axis), axis=axis).squeeze(axis)

    def backward(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(arg, axis),
                          np.expand_dims(g, axis), axis=axis)
        return (full,)

    return _apply((a,), out, backward, "reduce_max")


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _apply((a, b), out, backward, "matmul")


def cosine_similarity(a, b) -> Tensor:
    """Cosine of two 1-D tensors; zero-norm inputs are rejected."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("cosine_similarity expects two equal-length vectors")
    if not np.any(a.data) or not np.any(b.data):
        raise NumericsError("cosine_similarity of a zero vector")
    dot = reduce_sum(mul(a, b))
    na = sqrt(reduce_sum(mul(a, a)))
    nb = sqrt(reduce_sum(mul(b, b)))
    return div(dot, mul(na, nb))


# ---------------------------------------------------------------------------
# Temporal ops (channels-first: feature maps are [C, T])
# ---------------------------------------------------------------------------

def conv1d(x, w, b, pad: int) -> Tensor:
    """Same-length 1-D convolution of ``x`` [Cin, T] with ``w`` [Cout, Cin, k].

    ``pad`` must equal (k-1)/2 with odd k, so the output length is exactly T.
    Implemented as im2col + one GEMM, which is also what makes the backward
    pass two GEMMs plus a fold.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 3:
        raise ValueError(f"conv1d shapes: x {x.shape}, w {w.shape}")
    cout, cin, k = w.shape
    if x.shape[0] != cin:
        raise ValueError(f"conv1d channel mismatch: x has {x.shape[0]}, w wants {cin}")
    if b.shape != (cout,):
        raise ValueError(f"conv1d bias shape {b.shape} != ({cout},)")
    if k % 2 != 1 or pad != (k - 1) // 2:
        raise ValueError(f"conv1d requires odd k with pad=(k-1)/2, got k={k} pad={pad}")
    t = x.shape[1]
    if t == 0:
        raise ValueError("conv1d over an empty sequence")
    xp = np.pad(x.data, ((0, 0), (pad, pad))) if pad else x.data
    # cols[c*k + j, t] = xp[c, t + j]
    cols = sliding_window_view(xp, k, axis=1).transpose(0, 2, 1).reshape(cin * k, t)
    w2 = w.data.reshape(cout, cin * k)
    out = w2 @ cols + b.data[:, None]

    def backward(g):
        dw = (g @ cols.T).reshape(cout, cin, k)
        db = g.sum(axis=1)
        dcols = (w2.T @ g).reshape(cin, k, t)
        dxp = np.zeros_like(xp)
        for j in range(k):
            dxp[:, j:j + t] += dcols[:, j, :]
        dx = dxp[:, pad:pad + t] if pad else dxp
        return dx, dw, db

    return _apply((x, w, b), out, backward, "conv1d")


def maxpool1d_ceil(x, window: int) -> Tensor:
    """Non-overlapping temporal max pooling with a partial final window.

    Output length is ceil(T/window); ties within a window route the
    gradient to the earliest maximizer.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"maxpool1d_ceil expects [C, T], got {x.shape}")
    c, t = x.shape
    if t == 0:
        raise ValueError("maxpool1d_ceil over an empty sequence")
    if window < 1:
        raise ValueError(f"pool window must be >= 1, got {window}")
    out_len = -(-t // window)
    padded = np.full((c, out_len * window), -np.inf)
    padded[:, :t] = x.data
    blocks = padded.reshape(c, out_len, window)
    arg = blocks.argmax(axis=2)  # first occurrence on ties
    out = np.take_along_axis(blocks, arg[:, :, None], axis=2)[:, :, 0]
    flat_idx = np.arange(out_len) * window + arg  # [C, out_len] source positions

    def backward(g):
        dx = np.zeros_like(x.data)
        rows = np.repeat(np.arange(c), out_len)
        np.add.at(dx, (rows, flat_idx.ravel()), g.ravel())
        return (dx,)

    return _apply((x,), out, backward, "maxpool1d_ceil")


def upsample1d(x, target_len: int, mode: str = "linear") -> Tensor:
    """Resample [C, T] to [C, target_len].

    ``linear`` uses align-corners interpolation (source position
    j*(T-1)/(L-1)); ``nearest`` uses floor(j*T/L).  target_len == T is an
    exact identity in both modes.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ValueError(f"upsample1d expects [C, T], got {x.shape}")
    c, t = x.shape
    if t == 0 or target_len < 1:
        raise ValueError(f"upsample1d needs nonempty input and target, got T={t} L={target_len}")
    if mode == "nearest":
        src = np.minimum((np.arange(target_len) * t) // target_len, t - 1)
        out = x.data[:, src]

        def backward(g):
            dx = np.zeros_like(x.data)
            np.add.at(dx, (slice(None), src), g)
            return (dx,)

        return _apply((x,), out, backward, "upsample1d[nearest]")
    if mode != "linear":
        raise ValueError(f"unknown upsample mode {mode!r}")
    if target_len == 1:
        pos = np.zeros(1)
    else:
        pos = np.arange(target_len) * ((t - 1) / (target_len - 1))
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, t - 1)
    hi = np.minimum(lo + 1, t - 1)
    frac = pos - lo
    out = x.data[:, lo] * (1.0 - frac) + x.data[:, hi] * frac

    def backward(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (slice(None), lo), g * (1.0 - frac))
        np.add.at(dx, (slice(None), hi), g * frac)
        return (dx,)

    return _apply((x,), out, backward, "upsample1d[linear]")


class BatchNormState:
    """Running statistics owned by a norm layer (not part of any graph)."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps


def batchnorm1d(x, gamma, beta, state: BatchNormState, train: bool) -> Tensor:
    """Per-channel normalization over the time axis of one [C, T] sample.

    Training mode normalizes with the sample's own (biased) statistics and
    updates the running buffers with momentum; evaluation mode normalizes
    with the running buffers.  A constant channel normalizes to beta.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 2:
        raise ValueError(f"batchnorm1d expects [C, T], got {x.shape}")
    c, t = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError("batchnorm1d parameter shape mismatch")
    if t == 0:
        raise ValueError("batchnorm1d over an empty sequence")
    eps = state.eps
    if train:
        mean = x.data.mean(axis=1)
        var = x.data.var(axis=1)  # biased, also used for the running buffer
        m = state.momentum
        # in place, so a name -> buffer table of the model stays live
        state.running_mean[...] = (1.0 - m) * state.running_mean + m * mean
        state.running_var[...] = (1.0 - m) * state.running_var + m * var
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean[:, None]) * inv_std[:, None]
    out = gamma.data[:, None] * xhat + beta.data[:, None]

    def backward(g):
        dgamma = (g * xhat).sum(axis=1)
        dbeta = g.sum(axis=1)
        if train:
            gm = g.mean(axis=1, keepdims=True)
            gx = (g * xhat).mean(axis=1, keepdims=True)
            dx = (gamma.data[:, None] * inv_std[:, None]) * (g - gm - xhat * gx)
        else:
            dx = g * (gamma.data[:, None] * inv_std[:, None])
        return dx, dgamma, dbeta

    return _apply((x, gamma, beta), out, backward, "batchnorm1d")
