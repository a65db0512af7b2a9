"""Residual vector quantization with EMA codebook learning.

Each layer greedily picks the nearest codeword (squared euclidean,
ties to the lowest index) for the running residual and subtracts it;
tokens are the per-layer indices. Codebooks learn by exponential
moving averages of assigned residuals; a commitment term is reported
for an upstream encoder.

The nearest-code search is defined by the direct search: squared
differences summed in the frames' dtype, first minimum wins. It runs as
one f64 GEMM of |c|^2 - 2 x.c instead, and keeps that answer only for
rows whose runner-up trails the winner by more than the rounding of
both methods, so that both must pick the same unique winner. Every
other row (near-ties, non-finite values, distances that could overflow)
reruns the direct search. Tokens are therefore bitwise those of the
direct search.

By default index 0 of every layer is pinned to the zero vector and
never updated or re-seeded. A zero codeword is the "add nothing"
option, which makes per-layer residual norms non-increasing: the
chosen codeword is at least as close as zero is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Rng, add_rows

_CHUNK = 512  # frames per direct distance block, bounds T*K*D scratch memory
_F64 = np.finfo(np.float64)


@dataclass
class Codebook:
    entries: np.ndarray                 # (K, D) f32
    ema_counts: np.ndarray              # (K,)
    ema_sums: np.ndarray                # (K, D)
    unused_steps: np.ndarray            # (K,) int64, consecutive steps unselected
    pinned_zero: bool = True

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


def _nearest_direct(entries: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Index of the closest entry per frame; squared euclidean, lowest
    index wins ties. Distances are direct squared differences so an
    exhaustive per-frame search reproduces them bit for bit."""
    idx = np.empty(frames.shape[0], dtype=np.int64)
    for lo in range(0, frames.shape[0], _CHUNK):
        block = frames[lo:lo + _CHUNK]
        d = ((block[:, None, :] - entries[None, :, :]) ** 2).sum(axis=2)
        idx[lo:lo + _CHUNK] = d.argmin(axis=1)
    return idx


def _gamma(n: int, u: float) -> float:
    """Relative rounding bound of n floating-point operations of unit roundoff u."""
    return n * u / (1 - n * u)


def _nearest(entries: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """`_nearest_direct` of (K, D) entries and (T, D) frames of one dtype,
    bit for bit, mostly from one f64 GEMM.

    e_k = |c_k|^2 - 2 x.c_k is |x - c_k|^2 shifted by the row's |x|^2.
    S = 2 (|x|^2 + max|c|^2) bounds every distance, so the direct f32/f64
    distances are within gamma_{D+2} S + D * subnormal of exact, and e
    within gamma_{D+2} S (f64) + 3 D * subnormal. A winner whose runner-up
    trails it by more than twice both, plus the rounding of that comparison,
    is therefore the unique minimum of the direct distances too. Other
    rows, and rows whose S could overflow the frames' dtype, rerun
    `_nearest_direct`; NaN or inf anywhere in a row fails one of the tests.
    """
    if frames.dtype not in (np.float32, np.float64):
        return _nearest_direct(entries, frames)
    x = np.asarray(frames, dtype=np.float64)
    c = np.asarray(entries, dtype=np.float64)
    rows = np.arange(x.shape[0])
    # Non-finite rows are re-searched; only the direct search warns about them.
    with np.errstate(invalid="ignore", over="ignore"):
        cc = np.einsum("kd,kd->k", c, c)
        e = x @ (-2.0 * c).T
        e += cc
        idx = e.argmin(axis=1)
        best = e[rows, idx]
        e[rows, idx] = np.inf
        gap = e.min(axis=1) - best          # inf when K == 1
        scale = 2 * (np.einsum("td,td->t", x, x) + cc.max())
    info, dim = np.finfo(frames.dtype), x.shape[1]
    # Twice each method's error (winner and runner-up) plus the rounding of
    # `gap`, with 1% to spare for the rounding of S and of the bound itself.
    rel = 2.02 * (_gamma(dim + 2, info.eps / 2) + _gamma(dim + 2, _F64.eps / 2) + 2 * _F64.eps)
    tiny = 2.02 * dim * (info.smallest_subnormal + 3 * _F64.smallest_subnormal)
    sure = (gap > rel * scale + tiny) & (scale < info.max / 2)
    redo = np.flatnonzero(~sure)
    if redo.size:
        idx[redo] = _nearest_direct(entries, frames[redo])
    return idx


@dataclass
class RVQStack:
    """A fixed number of residual quantization layers over one stream."""

    layers: list[Codebook]
    ema_decay: float = 0.99
    commitment_weight: float = 0.25
    reseed_after: int = 100
    laplace_eps: float = 1e-5

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return self.layers[0].dim

    @classmethod
    def init_random(cls, rng: Rng, n_layers: int, codebook_size: int, dim: int,
                    scale: float = 1.0, pin_zero: bool = True, **kwargs) -> "RVQStack":
        layers = []
        for l in range(n_layers):
            entries = rng.spawn(("layer", l)).normal((codebook_size, dim), scale=scale, dtype=np.float32)
            if pin_zero:
                entries[0] = 0.0
            layers.append(Codebook(
                entries=entries,
                ema_counts=np.zeros(codebook_size, dtype=np.float32),
                ema_sums=np.zeros((codebook_size, dim), dtype=np.float32),
                unused_steps=np.zeros(codebook_size, dtype=np.int64),
                pinned_zero=pin_zero,
            ))
        return cls(layers=layers, **kwargs)

    # ---- core ops -----------------------------------------------------

    def _check_frames(self, frames: np.ndarray) -> np.ndarray:
        frames = np.asarray(frames)
        if frames.ndim != 2 or frames.shape[1] != self.dim:
            raise ValueError(f"expected frames of shape (T, {self.dim}), got {frames.shape}")
        return frames

    def encode(self, frames: np.ndarray) -> np.ndarray:
        """Greedy layer-by-layer quantization: (T, L) int64 tokens."""
        frames = self._check_frames(frames)
        tokens = np.empty((frames.shape[0], self.n_layers), dtype=np.int64)
        resid = frames
        for l, cb in enumerate(self.layers):
            idx = _nearest(cb.entries.astype(frames.dtype, copy=False), resid)
            tokens[:, l] = idx
            resid = resid - cb.entries[idx].astype(frames.dtype, copy=False)
        return tokens

    def decode(self, tokens: np.ndarray, up_to_layer: int | None = None) -> np.ndarray:
        """Sum codewords for layers 1..up_to_layer (default: all)."""
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[1] != self.n_layers:
            raise ValueError(f"expected tokens of shape (T, {self.n_layers}), got {tokens.shape}")
        upper = self.n_layers if up_to_layer is None else up_to_layer
        if not 1 <= upper <= self.n_layers:
            raise ValueError(f"up_to_layer must be in [1, {self.n_layers}], got {up_to_layer}")
        out = np.zeros((tokens.shape[0], self.dim), dtype=np.float32)
        for l in range(upper):
            cb = self.layers[l]
            idx = tokens[:, l]
            if idx.size and (idx.min() < 0 or idx.max() >= cb.size):
                raise ValueError(f"layer {l + 1} token out of range [0, {cb.size}): "
                                 f"min={idx.min()}, max={idx.max()}")
            out += cb.entries[idx]
        return out

    # ---- training -------------------------------------------------------

    def train_step(self, frames: np.ndarray, rng: Rng) -> dict:
        """One EMA update from a batch of frames; mutates the stack.

        Returns reconstruction MSE (against the full quantization),
        the commitment value 0.25 * ||x - q(x)||^2 (a signal for any
        upstream encoder; codebooks themselves learn only via EMA),
        and how many dead entries were re-seeded.
        """
        frames = self._check_frames(np.asarray(frames, dtype=np.float32))
        decay = self.ema_decay
        resid = frames.copy()
        n_reseeded = 0
        for cb in self.layers:
            idx = _nearest(cb.entries, resid)
            chosen = cb.entries[idx].copy()
            counts = np.bincount(idx, minlength=cb.size).astype(np.float32)
            sums = np.zeros_like(cb.ema_sums)
            add_rows(sums, idx, resid)
            cb.ema_counts = decay * cb.ema_counts + (1 - decay) * counts
            cb.ema_sums = decay * cb.ema_sums + (1 - decay) * sums
            # Move only entries with EMA mass; untouched entries keep their
            # init until they are eventually declared dead and re-seeded.
            n = cb.ema_counts.sum()
            smoothed = (cb.ema_counts + self.laplace_eps) / (n + cb.size * self.laplace_eps) * n
            active = cb.ema_counts > 1e-3
            if cb.pinned_zero:
                active[0] = False
            cb.entries[active] = cb.ema_sums[active] / smoothed[active, None]
            # dead-code bookkeeping
            start = 1 if cb.pinned_zero else 0
            used = counts > 0
            cb.unused_steps[used] = 0
            cb.unused_steps[~used] += 1
            dead = np.flatnonzero(cb.unused_steps[start:] >= self.reseed_after) + start
            if dead.size:
                picks = rng.choice(frames.shape[0], size=dead.size, replace=True)
                cb.entries[dead] = resid[picks]
                cb.ema_counts[dead] = 1.0
                cb.ema_sums[dead] = resid[picks]
                cb.unused_steps[dead] = 0
                n_reseeded += int(dead.size)
            resid = resid - chosen
        recon_mse = float((resid ** 2).mean())
        commitment = self.commitment_weight * recon_mse
        return {"recon_mse": recon_mse, "commitment": commitment, "n_reseeded": n_reseeded}

    # ---- diagnostics ------------------------------------------------------

    def utilization(self, tokens: np.ndarray) -> list[float]:
        """Fraction of entries each layer selects at least once in (T, L) `tokens`."""
        return [float(len(np.unique(tokens[:, l])) / cb.size) for l, cb in enumerate(self.layers)]

    def perplexity(self, tokens: np.ndarray) -> list[float]:
        """exp(entropy) of each layer's empirical distribution over (T, L) `tokens`."""
        out = []
        for l, cb in enumerate(self.layers):
            p = np.bincount(tokens[:, l], minlength=cb.size).astype(np.float64)
            p /= p.sum()
            nz = p[p > 0]
            out.append(float(np.exp(-(nz * np.log(nz)).sum())))
        return out

    # ---- state ------------------------------------------------------------

    def state(self, prefix: str = "") -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for l, cb in enumerate(self.layers):
            out[f"{prefix}layer{l}.entries"] = cb.entries
            out[f"{prefix}layer{l}.ema_counts"] = cb.ema_counts
            out[f"{prefix}layer{l}.ema_sums"] = cb.ema_sums
            out[f"{prefix}layer{l}.unused_steps"] = cb.unused_steps
        return out

    def load_state(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        for l, cb in enumerate(self.layers):
            for attr, key in (("entries", "entries"), ("ema_counts", "ema_counts"),
                              ("ema_sums", "ema_sums"), ("unused_steps", "unused_steps")):
                full = f"{prefix}layer{l}.{key}"
                if full not in state:
                    raise KeyError(f"codebook state missing {full!r}")
                arr = np.asarray(state[full])
                if arr.shape != getattr(cb, attr).shape:
                    raise ValueError(f"{full!r}: shape {arr.shape} != {getattr(cb, attr).shape}")
                setattr(cb, attr, arr.astype(getattr(cb, attr).dtype, copy=True))
