"""Neural-net layers on top of the autodiff engine.

A `Module` collects parameters from its attributes (Tensors, child
Modules, lists of Modules) under dotted names, which is what the
checkpoint format stores. Row-wise layers take any (..., D) rows.
Attention and transformer blocks take one (T, D) sequence or a packed
(N, D) stack of sequences with their `lengths`, and a `causal` flag;
`engine.attention` builds the mask from those (see there). A block
given `reads`, one count per sequence, keeps each one's last reads[b] rows.

Each layer has one forward, built from engine ops that run on whatever
they are given: a Tensor input records the tape for training, and a
plain array input returns arrays and records nothing, with the same
bits. Inference passes arrays. Attention and transformer blocks also
take a key/value cache for incremental decoding, with array input only.
"""

from __future__ import annotations

import numpy as np

from .engine import (Rng, Tensor, attention, attention_fwd, check_reads, conv_windows, gelu, layer_norm,
                     last_rows, linear)


class Module:
    """Base class: parameter discovery and state (de)serialization."""

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out[key] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(f"{key}.{i}."))
        return out

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.named_parameters().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copy `state` into the parameters' own arrays, so an array that
        an earlier `state()` returned takes the loaded values too."""
        params = self.named_parameters()
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise KeyError(f"state mismatch: missing {missing}, unexpected {extra}")
        for k, p in params.items():
            arr = np.asarray(state[k])
            if arr.shape != p.data.shape:
                raise ValueError(f"parameter {k!r}: shape {arr.shape} != expected {p.data.shape}")
            p.data[...] = arr


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: Rng, bias: bool = True, scale: float | None = None, dtype=None):
        scale = scale if scale is not None else 1.0 / np.sqrt(d_in)
        self.weight = Tensor(rng.normal((d_in, d_out), scale=scale, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=self.weight.dtype), requires_grad=True) if bias else None

    @classmethod
    def from_weight(cls, weight: np.ndarray, bias: bool = True) -> "Linear":
        """A Linear over a given (d_in, d_out) weight array, with a zero bias if `bias`."""
        out = cls.__new__(cls)
        out.weight = Tensor(weight, requires_grad=True)
        out.bias = Tensor(np.zeros(weight.shape[1], dtype=out.weight.dtype), requires_grad=True) if bias else None
        return out

    def __call__(self, x):
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    def __init__(self, n_rows: int, dim: int, rng: Rng, scale: float = 0.05, dtype=None):
        self.weight = Tensor(rng.normal((n_rows, dim), scale=scale, dtype=dtype), requires_grad=True)


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=None):
        dtype = dtype or np.float32
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def __call__(self, x):
        return layer_norm(x, self.gamma, self.beta)


class KVCache:
    """Keys and values of one attention layer for incremental decoding.

    Buffers of (capacity, n_heads * head_dim) rows are allocated once;
    each cached call of the layer writes its new positions in place after
    the `n` already filled and attends over the filled prefix. The cache
    holds one sequence (rank-2 array input).
    """

    def __init__(self, n_heads: int, head_dim: int, capacity: int, dtype):
        self.k = np.empty((capacity, n_heads * head_dim), dtype=dtype)
        self.v = np.empty((capacity, n_heads * head_dim), dtype=dtype)
        self.n = 0

    def extend(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Append (t, dim) key and value rows; return the filled prefix of each."""
        lo, hi = self.n, self.n + k.shape[0]
        if hi > self.k.shape[0]:
            raise ValueError(f"KV cache of capacity {self.k.shape[0]} cannot hold {hi} positions")
        self.k[lo:hi] = k
        self.v[lo:hi] = v
        self.n = hi
        return self.k[:hi], self.v[:hi]


class MultiHeadAttention(Module):
    """Standard scaled dot-product attention, causal or bidirectional.

    One packed `wqkv` projection feeds `engine.attention`.
    """

    def __init__(self, dim: int, n_heads: int, rng: Rng, dtype=None):
        if dim % n_heads:
            raise ValueError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        # Query, key and value columns each come from their own substream,
        # so the packed weight is the three separate projections' draws.
        self.wqkv = Linear.from_weight(np.concatenate(
            [rng.spawn(tag).normal((dim, dim), scale=1.0 / np.sqrt(dim), dtype=dtype)
             for tag in ("wq", "wk", "wv")], axis=1))
        self.wo = Linear(dim, dim, rng.spawn("wo"), dtype=dtype)

    def __call__(self, x, causal: bool = False, cache: KVCache | None = None,
                 lengths: np.ndarray | None = None, reads: np.ndarray | None = None):
        """The rows attend over their own keys and values; `causal`,
        `lengths` and `reads` are `engine.attention`'s. With a `cache`,
        which needs (T, dim) array rows, their keys and values are
        appended to it and their queries (the last reads[0], if given)
        attend over the cached positions, the last of which are their own."""
        if cache is None:
            return self.wo(attention(self.wqkv(x), self.n_heads, causal, lengths, reads))
        if isinstance(x, Tensor):
            raise TypeError("a KV cache takes array input; a cached pass records no tape")
        if reads is not None:
            check_reads(reads, [x.shape[0]])
        qkv = self.wqkv(x)
        dim = self.n_heads * self.head_dim
        k, v = cache.extend(qkv[..., dim:2 * dim], qkv[..., 2 * dim:])  # (n, dim), n >= T
        q = qkv[..., :dim] if reads is None else qkv[-int(reads[0]):, :dim]
        return self.wo(attention_fwd(q, k, v, self.n_heads, causal)[0])


class TransformerBlock(Module):
    """Pre-norm block: x + attn(ln(x)); x + mlp(ln(x))."""

    def __init__(self, dim: int, n_heads: int, rng: Rng, mlp_ratio: int = 4, dtype=None):
        self.ln1 = LayerNorm(dim, dtype=dtype)
        self.attn = MultiHeadAttention(dim, n_heads, rng.spawn("attn"), dtype=dtype)
        self.ln2 = LayerNorm(dim, dtype=dtype)
        self.fc1 = Linear(dim, mlp_ratio * dim, rng.spawn("fc1"), dtype=dtype)
        self.fc2 = Linear(mlp_ratio * dim, dim, rng.spawn("fc2"), dtype=dtype)

    def __call__(self, x, causal: bool = False, cache: KVCache | None = None,
                 lengths: np.ndarray | None = None, reads: np.ndarray | None = None):
        """Attention through `cache` when given (see `MultiHeadAttention`).
        With `reads`, only the rows of each sequence's last reads[b]
        positions go on past attention, per sequence of `lengths` (one
        sequence if None), stacked in order."""
        h = self.attn(self.ln1(x), causal, cache, lengths, reads)
        if reads is not None:
            x = x[-int(reads[0]):] if lengths is None or len(lengths) == 1 else \
                x[last_rows(np.cumsum(lengths), reads)]
        x = x + h
        return x + self.fc2(gelu(self.fc1(self.ln2(x))))


class Conv1dSame(Module):
    """1-D convolution over time with zero padding, each sequence of
    `lengths` on its own: `conv_windows`, then a Linear."""

    def __init__(self, d_in: int, d_out: int, kernel: int, rng: Rng, dtype=None):
        if kernel % 2 == 0:
            raise ValueError("kernel size must be odd for same-padding")
        self.kernel = kernel
        self.proj = Linear(kernel * d_in, d_out, rng, dtype=dtype)

    def __call__(self, x, lengths: np.ndarray | None = None):
        return self.proj(conv_windows(x, self.kernel, lengths))
