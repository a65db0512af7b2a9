"""Dense-tensor reverse-mode autodiff on numpy, plus seeded randomness.

A `Tensor` wraps one contiguous float array (float32 for training,
float64 for gradient checking). Every differentiable op records a
closure on the output node; `backward()` walks the tape in reverse
topological order and accumulates gradients into `.grad`.

Each fused op (`linear`, `layer_norm`, `gelu`, `embedding`, ...) is one
function that runs on what it is given: an array input runs the
arithmetic and returns its array, and a Tensor input runs the same lines
and records one tape node, whose backward reads the forward's locals.
Parameters stay Tensors either way. So one module forward serves
training (Tensors in) and inference (arrays in), with the same bits.
`attention_fwd` is the one kernel kept apart: the cached attention calls
it too, with keys and values apart from queries. `softmax` and `sigmoid`
take arrays only: attention's kernel, the losses and inference call
them, and no tape records them.

Row-wise ops take whatever rows they are given. Every trunk (AR, NAR
and the speaker condition encoder) passes a packed (N, D) stack of its
sequences' real rows, one sequence after another, with their
`lengths`. `attention` is the one op that lays them out on a (B, T)
grid, inside its own tape node, and its kernel `attention_fwd` is the
one code that builds an attention mask, from the shapes, the lengths
and a `causal` flag.
`conv_windows` and `mean_rows` also work per sequence of the stack, and
`last_rows` finds sequences and their last rows in it.

Randomness goes through `Rng`, a thin wrapper over numpy's Philox
counter-based bit generator, so that a fixed seed gives the same
stream on every platform and named substreams stay reproducible.
`BlankRng` is the source for a model that a load is about to overwrite:
it draws nothing and fills every `normal` array with NaN.

`check_fields` is the one field rule of every config dataclass, read
from the field annotations.

A parameter's gradient is on no path to another gradient, so a
`gradients()` sweep inside `param_grad_pool(pool)` queues the branches
that only make one for the pool's worker: `linear`'s `x.T @ g` and bias
column sum, `layer_norm`'s gamma and beta, and `embedding`'s row scatter
into each table. The sweep goes on with the input gradients meanwhile.
Only leaves (Tensors with no `_grad_fn`, such as parameters) are
deferred: an inner node's gradient is read by its own backward later in
the sweep. Every contribution to a leaf is added in sweep order once
the sweep ends, so the bits are those of the inline sweep. A leaf given
a `GradSlot` (an optimiser's float64 copy of its gradient and its
square) is loaded there by the job that makes its first contribution,
so an optimiser fed by one contribution per leaf loads nothing itself.
`embedding`'s scatter, like the RVQ codebooks' EMA sums, is `add_rows`:
one `np.add.at` over the flat table.

An optimiser's in-place parameter writes can run behind the next
forward pass as a `PendingUpdate`: its parameters are pending from its
start until their chunk is written. Every op gates its Tensor operands
before it reads their `.data`: a pending one is written first, by the
gate itself if no thread has taken its chunk yet. So each op reads the
updated bits, as if the update had run before the forward. While no
update is pending, a gate is one test of a module-level set.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import queue
import threading
import time

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "Rng",
    "BlankRng",
    "check_fields",
    "get_default_dtype",
    "concat",
    "conv_windows",
    "embedding",
    "add_rows",
    "linear",
    "softmax",
    "layer_norm",
    "attention",
    "check_reads",
    "last_rows",
    "mean_rows",
    "gelu",
    "sigmoid",
    "attention_fwd",
    "cross_entropy",
    "bce_with_logits",
    "gradients",
    "param_grad_pool",
    "GradSlot",
    "PendingUpdate",
    "zero_grad",
]


NEG_MASK = -1e9  # additive attention mask; exp underflows to exactly 0


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


_DEFAULT_DTYPE = np.float32


def get_default_dtype():
    return _DEFAULT_DTYPE


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# The `PendingUpdate`s with a chunk not yet written. Every op tests it
# before it gates its operands, so with none pending a gate costs one test.
_updating: set = set()


def _settle(*operands) -> None:
    """Wait until no Tensor among `operands` is pending (see `PendingUpdate`)."""
    for t in operands:
        pending = t._update if isinstance(t, Tensor) else None
        if pending is not None:
            pending[0].wait(pending[1])


class Tensor:
    """A dense float array with optional gradient tracking. `_update` is
    (the `PendingUpdate`, chunk index) that will write it, or None."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn", "_update")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype.type not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._grad_fn = None
        self._update = None

    # ---- bookkeeping -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray):
        g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or not g.flags.owndata else g
        else:
            self.grad = self.grad + g

    def backward(self):
        """Reverse-mode sweep from a scalar loss.

        Populates `.grad` on every tensor on the tape. Parameters that
        never entered the graph keep `grad is None`; `gradients()` maps
        that to an explicit zero array.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._grad_fn is not None and node.grad is not None:
                node._grad_fn(node.grad)

    # ---- op plumbing -------------------------------------------------

    @staticmethod
    def _lift(other, dtype) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=dtype))

    @staticmethod
    def _make(data, parents, grad_fn) -> "Tensor":
        if type(data) is np.ndarray and data.dtype.type in (np.float32, np.float64):
            # Already what __init__ would produce: skip its conversion.
            out = Tensor.__new__(Tensor)
            out.data = data
            out.grad = None
            out.requires_grad = False
            out._parents = ()
            out._grad_fn = None
            out._update = None
        else:
            out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
        return out

    # ---- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other, self.data.dtype)
        if _updating:
            _settle(self, other)
        try:
            data = self.data + other.data
        except ValueError:
            raise ShapeError(f"cannot broadcast shapes {self.data.shape} and {other.data.shape}") from None

        def grad_fn(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor._make(data, (self, other), grad_fn)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._lift(other, self.data.dtype)
        if _updating:
            _settle(self, other)
        try:
            data = self.data - other.data
        except ValueError:
            raise ShapeError(f"cannot broadcast shapes {self.data.shape} and {other.data.shape}") from None

        def grad_fn(g):
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(-g)

        return Tensor._make(data, (self, other), grad_fn)

    def __rsub__(self, other):
        return Tensor._lift(other, self.data.dtype) - self

    def __mul__(self, other):
        other = Tensor._lift(other, self.data.dtype)
        if _updating:
            _settle(self, other)
        try:
            data = self.data * other.data
        except ValueError:
            raise ShapeError(f"cannot broadcast shapes {self.data.shape} and {other.data.shape}") from None

        def grad_fn(g):
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return Tensor._make(data, (self, other), grad_fn)

    def __truediv__(self, other):
        other = Tensor._lift(other, self.data.dtype)
        if _updating:
            _settle(self, other)
        try:
            data = self.data / other.data
        except ValueError:
            raise ShapeError(f"cannot broadcast shapes {self.data.shape} and {other.data.shape}") from None

        def grad_fn(g):
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data * other.data))

        return Tensor._make(data, (self, other), grad_fn)

    # ---- elementwise nonlinearities -----------------------------------

    def sqrt(self):
        if _updating:
            _settle(self)
        data = np.sqrt(self.data)

        def grad_fn(g):
            self._accumulate(g * 0.5 / data)

        return Tensor._make(data, (self,), grad_fn)

    # ---- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        if _updating:
            _settle(self)
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape))
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(data, (self,), grad_fn)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # ---- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if _updating:
            _settle(self)
        orig = self.data.shape
        data = self.data.reshape(shape)

        def grad_fn(g):
            self._accumulate(g.reshape(orig))

        return Tensor._make(data, (self,), grad_fn)

    def __getitem__(self, idx):
        if _updating:
            _settle(self)
        data = self.data[idx]
        twice = _picks_twice(idx, self.data.shape)

        def grad_fn(g):
            full = np.zeros_like(self.data)
            if twice:
                np.add.at(full, idx, g)  # every pick of a position adds its gradient
            else:
                full[idx] += g
            self._accumulate(full)

        return Tensor._make(data, (self,), grad_fn)


def _picks_twice(idx, shape) -> bool:
    """Whether `idx` can pick an element of `shape` twice: only integer arrays
    can, and beside an Ellipsis, a new axis or a boolean mask they are assumed to."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    arrays = [np.asarray(p) for p in parts if isinstance(p, (list, np.ndarray))]
    if not arrays:
        return False
    if any(p is None or p is Ellipsis for p in parts) or any(a.dtype.kind not in "iu" for a in arrays):
        return True
    dims = [n for p, n in zip(parts, shape) if isinstance(p, (list, np.ndarray))]
    flat = np.ravel_multi_index(np.broadcast_arrays(*arrays), dims, mode="wrap")
    return np.unique(flat).size < flat.size


# ---- free functions -----------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) of an array. Negative x takes e^x / (1 + e^x), from
    the same exp of -|x|, so no exp overflows, not even on the branch
    that is discarded."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def concat(tensors, axis=0):
    """Join Tensors along `axis`, one tape node; arrays join as arrays."""
    tensors = list(tensors)
    if _updating:
        _settle(*tensors)
    if not isinstance(tensors[0], Tensor):
        return np.concatenate(tensors, axis=axis)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._make(data, tuple(tensors), grad_fn)


def conv_windows(x, kernel: int, lengths: np.ndarray | None = None):
    """Same-padded convolution windows of a (..., T, D) input, one tape node:
    row t of the (..., T, kernel * D) output holds input rows t - kernel // 2
    .. t + kernel // 2, zeros past either end. With `lengths`, the T rows
    are a stack of sequences of those lengths, and each is zero-padded on
    its own. The backward adds the taps' column blocks into one padded
    gradient in tap order."""
    if _updating:
        _settle(x)
    tape = isinstance(x, Tensor)
    xd = x.data if tape else x
    t, d = xd.shape[-2:]
    lengths = np.array([t]) if lengths is None else np.asarray(lengths)
    if lengths.sum() != t:
        raise ShapeError(f"conv_windows input of {t} rows does not hold rows of lengths {lengths.tolist()}")
    half = kernel // 2
    # Each row's place in the padded stack: `half` zero rows before and after every sequence.
    at = np.arange(t) + np.repeat(np.arange(1, 2 * lengths.size, 2) * half, lengths)
    padded = np.zeros(xd.shape[:-2] + (t + 2 * half * lengths.size, d), dtype=xd.dtype)
    padded[..., at, :] = xd
    data = np.concatenate([padded[..., at + (i - half), :] for i in range(kernel)], axis=-1)
    if not tape:
        return data

    def grad_fn(g):
        gp = np.zeros_like(padded)
        for i in range(kernel):
            gp[..., at + (i - half), :] += g[..., i * d:(i + 1) * d]
        x._accumulate(gp[..., at, :])

    return Tensor._make(data, (x,), grad_fn)


def embedding(tables: list, ids: np.ndarray):
    """Summed row lookups from several (n_k, D) tables, one tape node;
    array tables give the array and record nothing.

    `ids` (..., K) holds one column per table; output row [...] is the
    sum of `tables[k][ids[..., k]]` in k order. An id of -1 adds nothing,
    so a row of -1s is a zero (padding) row.
    """
    if _updating:
        _settle(*tables)
    tape = isinstance(tables[0], Tensor)
    arrays = [t.data for t in tables] if tape else tables
    ids = np.asarray(ids)
    if ids.ndim == 0 or ids.shape[-1] != len(tables):
        raise ShapeError(f"embedding ids {ids.shape} need one last-axis column per table ({len(tables)})")
    flat = ids.reshape(-1, len(tables))
    if flat.size and flat.min() < -1:
        raise IndexError(f"embedding ids must be >= -1, got {flat.min()}")
    valid = flat >= 0
    # Every table gathers a row for every id, -1 read as 0, and adds it
    # where the id is valid. The gather raises IndexError for an id past
    # the table's end.
    picked = np.maximum(flat, 0)
    dim = arrays[0].shape[1]
    out = np.zeros((flat.shape[0], dim), dtype=arrays[0].dtype)
    for k, t in enumerate(arrays):
        np.add(out, t.take(picked[:, k], axis=0), out=out, where=valid[:, k:k + 1])
    data = out.reshape(ids.shape[:-1] + (dim,))
    if not tape:
        return data

    def grad_fn(g):
        g2 = g.reshape(-1, dim)
        for k, (t, used) in enumerate(zip(tables, valid.any(axis=0).tolist())):
            if t.requires_grad and used:
                _param_grad(t, _scatter_rows, g2, valid[:, k], flat[:, k], t.data)

    return Tensor._make(data, tuple(tables), grad_fn)


def _scatter_rows(g: np.ndarray, rows: np.ndarray, ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """A table's gradient: the rows of g where the mask `rows` holds, added at their ids."""
    full = np.zeros_like(table)
    add_rows(full, ids[rows], g[rows])
    return full


def add_rows(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """`np.add.at(table, ids, rows)` for a C-contiguous (n, D) table and
    (m, D) rows, bit for bit, as one `np.add.at` over the flat table with
    one index per element: each element still takes its rows in the
    order of `ids`, and the scatter is one numpy call."""
    if not table.flags.c_contiguous:
        raise ValueError("add_rows needs a C-contiguous table")
    d = table.shape[1]
    at = np.asarray(ids)[:, None] * d + np.arange(d)
    np.add.at(table.reshape(-1), at.reshape(-1), rows.reshape(-1))


def linear(x, w: Tensor, b: Tensor | None = None):
    """`x @ w + b` over the last axis of x, one tape node; an array x gives
    the array and records nothing.

    Leading axes are flattened so the forward pass, dx and dW are one
    2-D GEMM each; the bias gradient is one column sum.
    """
    if _updating:
        _settle(x, w, b)
    tape = isinstance(x, Tensor)
    xd, wd = x.data if tape else x, w.data
    if wd.ndim != 2 or xd.shape[-1:] != wd.shape[:1]:
        raise ShapeError(f"linear input {xd.shape} does not match weight {wd.shape}")
    data = xd @ wd if xd.ndim == 2 else xd.reshape(-1, wd.shape[0]) @ wd
    if b is not None:
        data += b.data
    if xd.ndim != 2:
        data = data.reshape(xd.shape[:-1] + (wd.shape[1],))
    if not tape:
        return data

    def grad_fn(g):
        x2 = xd.reshape(-1, wd.shape[0])
        g2 = g.reshape(-1, wd.shape[1])
        if w.requires_grad:
            _param_grad(w, np.matmul, x2.T, g2)
        if b is not None and b.requires_grad:
            _param_grad(b, np.add.reduce, g2)  # the column sum, bitwise `g2.sum(axis=0)`
        if x.requires_grad:
            dx = np.empty(xd.shape, dtype=np.result_type(g2, wd))
            np.matmul(g2, wd.T, out=dx.reshape(x2.shape))
            x._accumulate(dx)

    return Tensor._make(data, (x, w) if b is None else (x, w, b), grad_fn)


def softmax(x: np.ndarray, axis: int = -1, scale: float | None = None,
            mask: np.ndarray | None = None) -> np.ndarray:
    """softmax(x * scale + mask) of an array along `axis`.

    `scale` is applied in x's dtype and `mask` is an additive numpy
    constant cast to it (attention's scaled, masked scores);
    `_softmax_backward` is its gradient.
    """
    z = x * x.dtype.type(scale) if scale is not None else x.copy()
    if mask is not None:
        try:
            z += np.asarray(mask, dtype=x.dtype)
        except ValueError:
            raise ShapeError(f"softmax mask shape {np.shape(mask)} does not broadcast to {z.shape}") from None
    # The ufunc reductions are bitwise `.max` and `.sum`, without their wrappers.
    z -= np.maximum.reduce(z, axis=axis, keepdims=True)
    data = np.exp(z, out=z)
    data /= np.add.reduce(data, axis=axis, keepdims=True)
    return data


def _softmax_backward(g: np.ndarray, y: np.ndarray, axis: int, scale: float | None) -> np.ndarray:
    """Gradient wrt the scores of y = softmax(scores * scale + mask), given dL/dy."""
    d = g * y
    inner = d.sum(axis=axis, keepdims=True)
    np.subtract(g, inner, out=d)
    d *= y
    if scale is not None:
        d *= y.dtype.type(scale)
    return d


def layer_norm(x, gamma: Tensor | None = None, beta: Tensor | None = None, eps: float = 1e-5):
    """Normalize the last axis to zero mean, unit variance, then scale by
    `gamma` and shift by `beta` when given; one tape node. An array x
    gives the array and records nothing.

    A constant row whose computed mean equals its value normalizes to
    exact zeros: the centered numerator vanishes before the eps-guarded
    divide. Otherwise the mean's rounding error is left, scaled by about
    1/sqrt(eps).
    """
    if _updating:
        _settle(x, gamma, beta)
    tape = isinstance(x, Tensor)
    xd = x.data if tape else x
    n = xd.shape[-1]
    # np.add.reduce(...) / n is bitwise `.mean` without its per-call wrapper cost.
    if xd.size == n:
        # One row, such as a decode step's: scalar statistics over the 1-D
        # row are bitwise the keepdims reductions below, in fewer calls.
        xc = xd - np.add.reduce(xd, axis=None) / n
        var = np.add.reduce(xc * xc, axis=None) / n
    else:
        xc = xd - np.add.reduce(xd, axis=-1, keepdims=True) / n
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + xd.dtype.type(eps))
    xhat = xc * inv
    data = xhat if gamma is None else xhat * gamma.data
    if beta is not None:
        data = data + beta.data
    if not tape:
        return data

    def grad_fn(g):
        if beta is not None and beta.requires_grad:
            _param_grad(beta, _unbroadcast, g, beta.data.shape)
        if gamma is not None:
            if gamma.requires_grad:
                _param_grad(gamma, _product_grad, g, xhat, gamma.data.shape)
            g = g * gamma.data
        if x.requires_grad:
            gm = np.add.reduce(g, axis=-1, keepdims=True) / n
            gy = np.add.reduce(g * xhat, axis=-1, keepdims=True) / n
            x._accumulate(inv * (g - gm - xhat * gy))

    parents = (x,) + tuple(p for p in (gamma, beta) if p is not None)
    return Tensor._make(data, parents, grad_fn)


def _product_grad(g: np.ndarray, x: np.ndarray, shape: tuple) -> np.ndarray:
    """The gradient of a `shape` factor broadcast against x: g * x, summed down."""
    return _unbroadcast(g * x, shape)


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., T, H * hd) rows as a (..., H, T, hd) view, one head per slab."""
    return x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., H, T, hd) heads back to (..., T, H * hd) rows."""
    x = x.swapaxes(-3, -2)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def attention_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                  causal: bool = False, lengths: np.ndarray | None = None):
    """`attention` on arrays, with the (..., tq, dim) queries apart from the
    (..., n, dim) keys and values they attend to. Returns the output, then
    the query, key and value heads and the attention weights, which the
    op's backward reuses.

    This is the one place a mask is built. The queries are the last tq
    of the n key positions, so a `causal` query sees the keys up to its
    own position. With `lengths`, the leading axis holds B sequences,
    each left-padded so that its real keys are its last lengths[b], and
    the padded keys are seen by no query.

    The one forward kept apart from its op, because it has a second
    caller: a cached attention passes a key/value cache's filled prefix,
    not the keys and values of its own packed rows."""
    tq, n = q.shape[-2], k.shape[-2]
    blocked = np.arange(n) > np.arange(n - tq, n)[:, None] if causal and tq > 1 else None
    if lengths is not None:
        pad = (np.arange(n) < n - lengths[:, None])[:, None, None, :]
        blocked = pad if blocked is None else blocked | pad
    mask = None if blocked is None else np.where(blocked, NEG_MASK, 0.0).astype(q.dtype)
    q, k, v = _heads(q, n_heads), _heads(k, n_heads), _heads(v, n_heads)
    # The weights come from the `softmax` op, so a traced run sees softmax inside attention.
    att = softmax(np.matmul(q, k.swapaxes(-1, -2)), -1, 1.0 / math.sqrt(q.shape[-1]), mask)
    return _merge_heads(np.matmul(att, v)), q, k, v, att


def check_reads(reads, lengths) -> np.ndarray:
    """`reads` as an array, if it holds one count in 1..lengths[b] per
    sequence b; otherwise a ShapeError names both."""
    reads, lengths = np.asarray(reads), np.asarray(lengths)
    if reads.shape != lengths.shape or not ((1 <= reads) & (reads <= lengths)).all():
        raise ShapeError(f"reads {reads.tolist()} are not each in 1..length of lengths {lengths.tolist()}")
    return reads


def last_rows(ends, counts) -> np.ndarray:
    """Indices of the last `counts[i]` rows before `ends[i]`, for each i in
    order: the rows of packed sequences, or the parts of them that are read."""
    counts = np.asarray(counts)
    return np.arange(int(counts.sum())) + np.repeat(np.asarray(ends) - np.cumsum(counts), counts)


def attention(qkv, n_heads: int, causal: bool = False,
              lengths: np.ndarray | None = None, reads: np.ndarray | None = None):
    """Multi-head scaled dot-product attention; one tape node.

    `qkv` is (..., T, 3 * dim): the packed query, key and value
    projections, each `n_heads` heads of `dim // n_heads` channels. The
    weights are `softmax(q k^T, scale=1/sqrt(head_dim))` per head, each
    query `causal` or seeing every key, and the heads of `weights @ v`
    are merged back into a (..., T, dim) output.

    With `lengths`, `qkv` is an (N, 3 * dim) stack of sequences of those
    lengths, one after another. The op scatters them onto a (B, T) grid,
    T = max(lengths), padded on the left so that every sequence ends at
    grid position T. Padded keys are masked, and the output holds the
    real rows, stacked the same way. One sequence needs no grid.

    With `reads`, one count in 1..length per sequence (one if `lengths`
    is None), only each sequence's last reads[b] positions are queried,
    and the output holds those rows. Keys and values come from every row.
    """
    if _updating:
        _settle(qkv)
    tape = isinstance(qkv, Tensor)
    qd = qkv.data if tape else qkv
    dim = qd.shape[-1] // 3
    if qd.shape[-1] != 3 * dim or dim % n_heads:
        raise ShapeError(f"last axis of {qd.shape} is not 3 x {n_heads} heads")
    t = qd.shape[-2]
    if lengths is not None:
        lengths = np.asarray(lengths)
        if qd.shape != (int(lengths.sum()), 3 * dim):
            raise ShapeError(f"packed qkv {qd.shape} does not hold rows of lengths {lengths.tolist()}")
    if reads is not None:
        reads = check_reads(reads, np.array([t]) if lengths is None else lengths)
    grid = qd
    packed = lengths is not None and len(lengths) > 1
    if packed:
        b, t = lengths.size, int(lengths.max())
        at = last_rows(np.arange(1, b + 1) * t, lengths)  # each packed row's grid row
        grid = np.zeros((b * t, 3 * dim), dtype=qd.dtype)
        grid[at] = qd
        grid = grid.reshape(b, t, 3 * dim)
    lo = 0 if reads is None else t - int(reads.max())
    data, q, k, v, att = attention_fwd(grid[..., lo:, :dim], grid[..., dim:2 * dim], grid[..., 2 * dim:],
                                       n_heads, causal, lengths if packed else None)
    if packed:
        out_at = last_rows(np.arange(1, b + 1) * (t - lo), lengths if reads is None else reads)
        data = data.reshape(-1, dim)[out_at]
    if not tape:
        return data
    scale = 1.0 / math.sqrt(dim // n_heads)

    def grad_fn(g):
        if packed:
            full = np.zeros((b * (t - lo), dim), dtype=g.dtype)
            full[out_at] = g
            g = full.reshape(b, t - lo, dim)
        gh = _heads(g, n_heads)
        d = np.empty(grid.shape[:-1] + (3, n_heads, dim // n_heads), dtype=np.result_type(g, att))
        ds = _softmax_backward(np.matmul(gh, v.swapaxes(-1, -2)), att, -1, scale)
        d[..., :lo, 0, :, :] = 0.0
        d[..., lo:, 0, :, :] = np.matmul(ds, k).swapaxes(-3, -2)
        d[..., 1, :, :] = np.matmul(ds.swapaxes(-1, -2), q).swapaxes(-3, -2)
        d[..., 2, :, :] = np.matmul(att.swapaxes(-1, -2), gh).swapaxes(-3, -2)
        d = d.reshape(grid.shape)
        qkv._accumulate(d.reshape(-1, 3 * dim)[at] if packed else d)

    return Tensor._make(data, (qkv,), grad_fn)


def mean_rows(x, lengths: np.ndarray):
    """(B, D) means of the sequences of a packed (N, D) stack of
    `lengths`, each at least 1, one tape node; an array x gives the
    array and records nothing. A sequence's mean is its rows' sum times
    1 / length, both in x's dtype."""
    if _updating:
        _settle(x)
    tape = isinstance(x, Tensor)
    xd = x.data if tape else x
    lengths = np.asarray(lengths)
    if xd.ndim != 2 or lengths.sum() != xd.shape[0] or lengths.min() < 1:
        raise ShapeError(f"mean_rows input {xd.shape} is not a stack of rows of lengths {lengths.tolist()}")
    inv = (1.0 / lengths).astype(xd.dtype)[:, None]
    data = np.stack([rows.sum(axis=0) for rows in np.split(xd, np.cumsum(lengths)[:-1])]) * inv
    if not tape:
        return data

    def grad_fn(g):
        x._accumulate(np.repeat(g * inv, lengths, axis=0))

    return Tensor._make(data, (x,), grad_fn)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer `targets` under `logits`.

    `logits` has classes on the last axis; leading axes are flattened.
    Uniform logits give exactly ln K.
    """
    if _updating:
        _settle(logits)
    k = logits.data.shape[-1]
    flat = logits.data.reshape(-1, k)
    t = np.asarray(targets).reshape(-1)
    if t.shape[0] != flat.shape[0]:
        raise ShapeError(f"cross_entropy targets shape {np.asarray(targets).shape} does not match logits {logits.data.shape}")
    if t.size and (t.min() < 0 or t.max() >= k):
        raise IndexError(f"cross_entropy targets out of range [0, {k})")
    z = flat - flat.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = (lse.reshape(-1) - z[np.arange(t.shape[0]), t])
    loss = nll.mean()

    def grad_fn(g):
        p = np.exp(z - lse)
        p[np.arange(t.shape[0]), t] -= 1.0
        p /= float(t.shape[0])
        logits._accumulate(float(g) * p.reshape(logits.data.shape))

    return Tensor._make(np.asarray(loss, dtype=flat.dtype), (logits,), grad_fn)


def bce_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against 0/1 labels."""
    if _updating:
        _settle(logits)
    x = logits.data
    y = np.asarray(labels, dtype=x.dtype)
    if x.shape != y.shape:
        raise ShapeError(f"bce_with_logits labels shape {y.shape} does not match logits {x.shape}")
    per = np.maximum(x, 0) - x * y + np.log1p(np.exp(-np.abs(x)))
    loss = per.mean()

    def grad_fn(g):
        s = sigmoid(x)
        logits._accumulate(float(g) * (s - y).astype(x.dtype) / float(x.size))

    return Tensor._make(np.asarray(loss, dtype=x.dtype), (logits,), grad_fn)


# ---- gradients -----------------------------------------------------------


def zero_grad(params) -> None:
    for p in _param_list(params):
        p.grad = None


def _param_list(params):
    if isinstance(params, dict):
        return list(params.values())
    if isinstance(params, Tensor):
        return [params]
    return list(params)


class _SweepLocal(threading.local):
    pool = None  # the executor `param_grad_pool` gave this thread's sweeps
    slots = {}  # the leaves' `GradSlot`s `param_grad_pool` gave them
    sweep = None  # the `_Sweep` of the `gradients()` call running on this thread


_local = _SweepLocal()

@contextlib.contextmanager
def param_grad_pool(pool, slots: dict | None = None):
    """Within the block, each `gradients()` call on this thread queues its
    parameter-only branches for one worker of `pool`, a
    `concurrent.futures` executor; with None every sweep runs inline, as
    `Tensor.backward()` always does.

    `slots` maps leaf Tensors to their `GradSlot`s. A queued job that
    gives such a leaf its first contribution also loads its output into
    the slot, on whichever thread runs it. Before its first load a sweep
    waits until none of those leaves is pending (see `PendingUpdate`):
    an update may use the slots as scratch. The previous pool and slots
    are back on exit."""
    outer = _local.pool, _local.slots
    _local.pool, _local.slots = pool, slots or {}
    try:
        yield
    finally:
        _local.pool, _local.slots = outer


class GradSlot:
    """A leaf's gradient in float64 beside its square: `g` and `sq` are
    float64 arrays of the leaf's shape, and `load` fills them and sets
    `sq_sum` to one pairwise `.sum()` of `sq`. `src` is the array a
    pooled sweep's job loaded, until its owner takes the load."""

    __slots__ = ("g", "sq", "sq_sum", "src")

    def __init__(self, g: np.ndarray, sq: np.ndarray):
        self.g, self.sq, self.sq_sum, self.src = g, sq, 0.0, None

    def load(self, grad: np.ndarray) -> None:
        self.g[...] = grad
        np.square(self.g, out=self.sq)
        self.sq_sum = float(self.sq.sum())


class _Job:
    """One deferred parameter gradient; `out` is fn(*args) once it has run,
    loaded into `slot` if the job has one."""

    __slots__ = ("fn", "args", "out", "slot")

    def __init__(self, fn, args, slot):
        self.fn, self.args, self.out, self.slot = fn, args, None, slot

    def run(self) -> None:
        self.out = self.fn(*self.args)
        if self.slot is not None:
            self.slot.load(self.out)
            self.slot.src = self.out


class _Pending:
    """A leaf's `.grad` while a sweep defers some of its contributions:
    each one, an array or a `_Job`, in the order the sweep made it.
    `Tensor._accumulate`'s `grad + g` appends g."""

    __slots__ = ("parts",)

    def __init__(self, parts: list):
        self.parts = parts

    def __add__(self, g):
        self.parts.append(g)
        return self


def _drain(jobs: queue.SimpleQueue) -> None:
    """The worker's half of a sweep: run queued jobs up to the None that ends it."""
    for job in iter(jobs.get, None):
        job.run()


class _Sweep:
    """The deferred parameter gradients of one `gradients()` call. The
    first deferral starts one drain job on the pool; after the sweep the
    caller runs each job the worker has not taken, waits for it, and
    adds every leaf's parts in order. A leaf's first contribution, if it
    is a job, loads the leaf's slot, if it has one."""

    def __init__(self, pool, slots: dict):
        self.pool, self.slots = pool, slots
        self.jobs = queue.SimpleQueue()  # queued, and taken by neither thread yet
        self.drain = None
        self.leaves: list[Tensor] = []  # every leaf whose `.grad` is a `_Pending`

    def defer(self, leaf: Tensor, fn, args: tuple) -> None:
        first = leaf.grad is None
        job = _Job(fn, args, self.slots.get(leaf) if first else None)
        if type(leaf.grad) is _Pending:
            leaf.grad.parts.append(job)
        else:
            leaf.grad = _Pending([job] if first else [leaf.grad, job])
            self.leaves.append(leaf)
        self.jobs.put(job)
        if self.drain is None:
            self.drain = self.pool.submit(_drain, self.jobs)

    def _stop(self, run: bool) -> None:
        """Take every queued job, running it if `run`, then end the drain
        job and wait for it; its error is raised only if `run` (after
        another error, that one is what propagates)."""
        while True:
            try:
                job = self.jobs.get_nowait()
            except queue.Empty:
                break
            if run:
                job.run()
        drain, self.drain = self.drain, None
        if drain is not None:
            self.jobs.put(None)
            error = drain.exception()
            if error is not None:
                while not self.jobs.empty():
                    self.jobs.get_nowait()  # the None that a failed drain never took
                if run:
                    raise error

    def finish(self) -> None:
        self._stop(run=True)
        for leaf in self.leaves:
            parts, leaf.grad = leaf.grad.parts, None
            for part in parts:
                leaf._accumulate(part.out if type(part) is _Job else part)
        self.leaves = []

    def abandon(self) -> None:
        """After an error: drop what is queued, stop the worker, clear every pending gradient."""
        self._stop(run=False)
        for leaf in self.leaves:
            leaf.grad = None
        self.leaves = []


def _param_grad(p: Tensor, fn, *args) -> None:
    """Add fn(*args) to p's gradient: queued for the worker when a sweep
    under `param_grad_pool` runs and p is a leaf; at once otherwise."""
    sweep = _local.sweep
    if sweep is None or p._grad_fn is not None:
        p._accumulate(fn(*args))
    else:
        sweep.defer(p, fn, args)


def gradients(loss: Tensor, params) -> list[np.ndarray]:
    """Run backward and return one gradient array per parameter.

    Parameters that never entered the graph get an explicit zero array.

    Inside `param_grad_pool(pool)` with a pool, the sweep hands its
    parameter-only branches to one worker of the pool: `linear`'s weight
    GEMM and bias sum, `layer_norm`'s gamma and beta, and `embedding`'s
    scatter into each table, for leaf Tensors only. An inner Tensor, such
    as a speaker condition fed to `embedding`, keeps its inline gradient,
    because its own backward reads it later in the sweep. When the sweep
    ends, the caller runs every queued job the worker has not started and
    waits for the worker; then each leaf's contributions, deferred or
    not, are added in the order the sweep made them, so the result is
    bitwise the inline sweep's. A job that gives a leaf with a slot its
    first contribution loads it (see `param_grad_pool`), and the slot's
    `src` is the job's output: the array returned here for that leaf if
    it was the only contribution and owns its data.
    An error, in the sweep, a job or a load, is raised after the queued
    jobs are dropped and the worker has stopped.
    """
    plist = _param_list(params)
    zero_grad(plist)
    if _local.pool is None:
        loss.backward()
    else:
        sweep = _local.sweep = _Sweep(_local.pool, _local.slots)
        try:
            if _updating and sweep.slots:
                _settle(*sweep.slots)  # a pending update's chunks hold the slots
            loss.backward()
            sweep.finish()
        except BaseException:
            sweep.abandon()
            raise
        finally:
            _local.sweep = None
    return [p.grad if p.grad is not None else np.zeros_like(p.data) for p in plist]


class PendingUpdate:
    """In-place writes to parameter Tensors, run chunk by chunk behind
    the caller's next forward pass.

    `chunks` is a list of (tensors, work), in the order a forward reads
    the tensors; `fn(work)` writes that chunk's tensors in place. From
    construction until its chunk is written, each of those tensors is
    pending, and every op that reads one waits for it (the module's
    gate). Chunks are taken in order, from one shared cursor, by the
    pool worker that `start` sets going and by the caller's gates: a
    gate whose chunk nobody has taken yet takes chunks itself, and one
    whose chunk the worker holds takes the next untaken chunk meanwhile,
    waiting for the worker only when none is left. `gated_s` sums the
    time spent in gates.

    `finish` takes every chunk left and waits for the worker. An error
    in a chunk's `fn` skips the chunks after it, keeps their tensors
    pending, and is raised once, by the next gate that meets it or by
    `finish`; then no tensor is left pending.
    """

    def __init__(self, chunks: list[tuple], fn):
        self.chunks, self.fn = chunks, fn
        self.lock = threading.Lock()  # guards `taken` and `left`
        self.taken, self.done, self.left = 0, [False] * len(chunks), len(chunks)
        self.error: BaseException | None = None
        self.worker = None
        self.gated_s = 0.0
        for i, (tensors, _) in enumerate(chunks):
            for t in tensors:
                t._update = (self, i)
        _updating.add(self)

    def start(self, pool) -> None:
        """Set one worker of `pool` taking chunks until none is left."""
        self.worker = pool.submit(self._work)

    def _work(self) -> None:
        while self._take():
            pass

    def _take(self) -> bool:
        """Write the next untaken chunk; False if there is none."""
        with self.lock:
            i = self.taken
            if i == len(self.chunks):
                return False
            self.taken += 1
        tensors, work = self.chunks[i]
        if self.error is None:
            try:
                self.fn(work)
            except BaseException as e:  # raised by a gate or `finish`
                self.error = e
        if self.error is None:
            for t in tensors:
                t._update = None
        self.done[i] = True
        with self.lock:
            self.left -= 1
            last = self.left == 0
        if last and self.error is None:
            _updating.discard(self)
        return True

    def wait(self, i: int) -> None:
        """The gate of a tensor of chunk i: return once it is written."""
        t0 = time.perf_counter()
        while not self.done[i] and self._take():
            pass
        if not self.done[i]:
            self.worker.result()  # the worker holds chunk i, and ends once no chunk is left
        self.gated_s += time.perf_counter() - t0
        if self.error is not None:
            self.finish()

    def finish(self, raise_error: bool = True) -> None:
        """Write every chunk left, wait for the worker, and raise the
        error of a chunk if there was one (only if `raise_error`)."""
        while self._take():
            pass
        worker, self.worker = self.worker, None
        if worker is not None:
            worker.result()
        error, self.error = self.error, None
        if error is not None:
            for tensors, _ in self.chunks:
                for t in tensors:
                    t._update = None
        _updating.discard(self)
        if error is not None and raise_error:
            raise error


# ---- config fields ---------------------------------------------------------


def _int_at_least(v, lo: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def check_fields(obj, where: str | None = None) -> None:
    """Check each field of the dataclass `obj` by its annotation: an `int`
    holds an int >= 1, a `float` a finite number > 0, a `bool` a bool, and
    a `tuple[int, int]` a tuple (lo, hi) of such ints, lo <= hi; no bool is
    a number. A `seed`, or a field named in the class's `ZERO_OK`, may be 0.
    Other annotations are the class's own to check. The ValueError names
    `<where>.<field>` (`where` defaults to the class name) and the value."""
    zero_ok = getattr(obj, "ZERO_OK", ())
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        lo = 0 if f.name == "seed" or f.name in zero_ok else 1
        if f.type == "int":
            ok, want = _int_at_least(v, lo), f"an int >= {lo}"
        elif f.type == "float":
            ok = (isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                  and (v > 0 if lo else v >= 0))
            want = f"a finite number {'>' if lo else '>='} 0"
        elif f.type == "bool":
            ok, want = isinstance(v, bool), "bool"
        elif f.type == "tuple[int, int]":
            ok = isinstance(v, tuple) and len(v) == 2 and _int_at_least(v[0], 1) and _int_at_least(v[1], v[0])
            want = "a pair (lo, hi) of ints with 1 <= lo <= hi"
        else:
            continue
        if not ok:
            raise ValueError(f"{where or type(obj).__name__}.{f.name} must be {want}, got {v!r}")


# ---- randomness ----------------------------------------------------------


def _mix_tag(seed: int, tag) -> int:
    """Stable 64-bit child seed from (seed, tag); not Python's hash()."""
    payload = f"{seed}:{tag!r}".encode()
    return int.from_bytes(hashlib.blake2s(payload, digest_size=8).digest(), "little")


class Rng:
    """Seeded random source backed by numpy's Philox counter-based generator.

    Identical seeds give identical streams across platforms and runs.
    `spawn(tag)` derives an independent, reproducible substream keyed by
    a string or integer tag.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"Rng seed must be an int >= 0, got {seed!r}")
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.Philox(self.seed))

    def spawn(self, tag) -> "Rng":
        return Rng(_mix_tag(self.seed, tag))

    def normal(self, shape=(), scale: float = 1.0, dtype=None) -> np.ndarray:
        dtype = dtype or get_default_dtype()
        return (self.generator.standard_normal(shape) * scale).astype(dtype)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=()) -> np.ndarray | float:
        out = self.generator.uniform(low, high, size=shape)
        return float(out) if shape == () else out

    def integers(self, low: int, high: int, shape=()) -> np.ndarray | int:
        out = self.generator.integers(low, high, size=shape)
        return int(out) if shape == () else out

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def choice(self, n: int, size: int, replace: bool = True) -> np.ndarray:
        return self.generator.choice(n, size=size, replace=replace)


class BlankRng(Rng):
    """An `Rng` that draws nothing, for building a model whose every
    value a load then overwrites.

    `spawn` returns the source itself and `normal` returns an all-NaN
    array: no Philox generator, no tag hashing, no draw. An array that
    a constructor draws but a state does not hold therefore stays NaN
    and shows in the outputs. Every other draw goes through `generator`,
    which raises.
    """

    def __init__(self):
        pass

    def spawn(self, tag) -> "BlankRng":
        return self

    def normal(self, shape=(), scale: float = 1.0, dtype=None) -> np.ndarray:
        return np.full(shape, np.nan, dtype=dtype or get_default_dtype())

    @property
    def generator(self):
        raise TypeError("a BlankRng makes no draws; only normal() gives (NaN) arrays")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x):
    """Gaussian error linear unit, tanh form (Hendrycks & Gimpel), one tape
    node; an array x gives the array and records nothing.

    y = 0.5 x (1 + tanh(u)) with u = c (x + a x^3), c = sqrt(2/pi),
    a = 0.044715; the backward is the analytic derivative
    0.5 (1 + tanh u) + 0.5 x (1 - tanh^2 u) c (1 + 3 a x^2).
    """
    if _updating:
        _settle(x)
    tape = isinstance(x, Tensor)
    xd = x.data if tape else x
    x2 = xd * xd
    u = x2 * _GELU_A
    u += 1.0
    u *= xd
    u *= _GELU_C
    th = np.tanh(u, out=u)
    data = th + 1.0
    data *= xd
    data *= 0.5
    if not tape:
        return data

    def grad_fn(g):
        du = x2 * (3.0 * _GELU_A)
        du += 1.0
        du *= _GELU_C
        du *= 1.0 - th * th
        du *= xd
        du += 1.0 + th
        du *= 0.5
        x._accumulate(g * du)

    return Tensor._make(data, (x,), grad_fn)
