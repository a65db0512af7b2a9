"""Conditional flow matching for mel frames.

Training regresses a velocity field v(x_t, t, cond) toward (target - x0)
along straight paths x_t = (1 - t) x0 + t * target with x0 standard
normal and t uniform. Sampling integrates the learned field from noise
with a fixed-step Euler solver; one step degenerates to x0 + v(x0, 0).

Conditioning is per-frame: decoded token features for that frame plus a
time-invariant speaker vector, so the field is a frame-local MLP. Their
share of its first layer does not change along a path, so it is computed
once per request (`VelocityField.condition`) and reused by every step,
and so are the time features of every step. Training runs the field on
Tensors; the sampler runs the same forward on arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Rng, Tensor, check_fields, concat, embedding, gelu
from .nn import Linear, Module


@dataclass
class FlowConfig:
    mel_bins: int = 32
    feature_dim: int = 128      # decoded semantic+acoustic channels
    speaker_dim: int = 64
    hidden_dim: int = 192
    n_hidden: int = 2
    time_feat_dim: int = 8      # sin/cos features of t, plus t itself
    default_steps: int = 32

    def validate(self) -> None:
        check_fields(self)
        if self.time_feat_dim % 2 != 0:
            raise ValueError("FlowConfig.time_feat_dim must be even (sin/cos pairs)")


def time_features(t, dim: int, dtype=np.float32) -> np.ndarray:
    """Fourier features [sin(2^k pi t), cos(2^k pi t)] of a time, or one row
    per time of an array, computed in float64 and cast to `dtype`."""
    k = np.arange(dim // 2, dtype=np.float64)
    angles = (2.0 ** k) * np.pi * np.asarray(t, dtype=np.float64)[..., None]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1).astype(dtype)


@dataclass
class SolverConfig:
    n_steps: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


class VelocityField(Module):
    """Frame-local MLP over [x_t, features, speaker, time] -> velocity.

    The network head predicts the clean frame (the t=1 endpoint) and the
    velocity is formed as (prediction - x_t) / (1 - t). Along the linear
    path the regression target mel - x0 equals (mel - x_t) / (1 - t), so
    the head's optimum is the conditional clean-frame mean regardless of
    t; the division then restores the contraction toward the endpoint
    that a raw velocity head would have to learn as an unbounded gain.

    The first layer's (d_in, hidden) weight over the input columns
    [x_t, features, speaker, time] is kept as three Linears over its
    rows: `x_in` (x_t), `cond_in` (features and speaker, with the bias)
    and `t_in` (time). `condition` applies `cond_in`; `__call__` adds
    the other two. Both take Tensors, recording the tape, or arrays,
    returning arrays.
    """

    # Denominator floor. Euler grids stop at t = 1 - 1/n_steps, so any
    # solver up to 100 steps never hits it; it mainly tames the
    # 1/(1-t)^2 weight that training draws with t ~ 1 would otherwise
    # put on the regression loss.
    TIME_EPS = 1e-2

    def __init__(self, cfg: FlowConfig, rng: Rng, dtype=None):
        cfg.validate()
        self.cfg = cfg
        m, c = cfg.mel_bins, cfg.mel_bins + cfg.feature_dim + cfg.speaker_dim
        w = Linear(c + cfg.time_feat_dim, cfg.hidden_dim, rng.spawn(("fc", 0)), dtype=dtype).weight.data
        self.x_in = Linear.from_weight(w[:m], bias=False)
        self.cond_in = Linear.from_weight(w[m:c])
        self.t_in = Linear.from_weight(w[c:], bias=False)
        dims = [cfg.hidden_dim] * cfg.n_hidden + [cfg.mel_bins]
        self.layers = [Linear(dims[i], dims[i + 1], rng.spawn(("fc", i + 1)), dtype=dtype)
                       for i in range(len(dims) - 1)]

    def condition(self, features, speaker):
        """`cond_in` of [features, speaker], one row per frame: the first
        layer's time-invariant part. `features` and `speaker` hold one
        row per frame."""
        return self.cond_in(concat([features, speaker], axis=1))

    def __call__(self, x_t, cond, t: np.ndarray, tf: np.ndarray):
        """Velocity at each of the rows of `x_t`, given their `condition`
        rows, their times `t` and those times' `time_features` rows `tf`;
        `t` and `tf` hold one time or one per row, and broadcast to the rows."""
        tf = tf.astype(x_t.dtype, copy=False)
        if isinstance(x_t, Tensor):
            tf = Tensor(tf)  # so that `t_in` gets its gradient
        h = gelu(self.x_in(x_t) + self.t_in(tf) + cond)
        for layer in self.layers[:-1]:
            h = gelu(layer(h))
        diff = self.layers[-1](h) - x_t
        return diff * (1.0 / np.maximum(1.0 - t, self.TIME_EPS)).astype(diff.dtype)[:, None]


def cfm_train_loss(field: VelocityField, mels: list, features, speakers, rngs: list,
                   t=None, x0: list | None = None) -> Tensor:
    """Flow-matching regression loss over a batch of utterances, in one pass.

    Utterance i brings `mels[i]` (T_i, M), `features[i]` (T_i, F) and the
    speaker row `speakers[i]`; `features` (all rows) and `speakers` may be
    Tensors, to train an upstream conditioning encoder jointly. Its `t`
    and then `x0` are drawn from `rngs[i]` unless pinned by `t[i]`/`x0[i]`.
    The loss is the mean over utterances of each one's mean squared
    velocity error, so a field that always predicts (mel - x0) scores zero.
    """
    mels = [np.asarray(m) for m in mels]
    t = [float(r.uniform()) for r in rngs] if t is None else [float(v) for v in t]
    x0 = [r.normal(m.shape, dtype=m.dtype) for r, m in zip(rngs, mels)] if x0 is None else x0
    lengths = np.array([m.shape[0] for m in mels])
    t_rows = np.repeat(t, lengths)
    x_t = np.concatenate([(1.0 - ti) * x0i + ti * m for ti, x0i, m in zip(t, x0, mels)])
    feats = features if isinstance(features, Tensor) else Tensor(np.concatenate(features).astype(x_t.dtype, copy=False))
    spk = speakers if isinstance(speakers, Tensor) else Tensor(np.asarray(speakers, dtype=x_t.dtype))
    # One speaker row per frame; the lookup's backward adds each utterance's rows together.
    spk_rows = embedding([spk], np.repeat(np.arange(len(mels)), lengths)[:, None])
    tf = time_features(t_rows, field.cfg.time_feat_dim, x_t.dtype)
    diff = field(Tensor(x_t), field.condition(feats, spk_rows), t_rows, tf) - Tensor(
        np.concatenate([m - x0i for m, x0i in zip(mels, x0)]))
    weights = np.repeat(1.0 / (len(mels) * lengths * diff.shape[1]), lengths)
    return (diff * diff * weights[:, None]).sum()


def sample_mel(field: VelocityField, features: np.ndarray, speaker: np.ndarray,
               solver: SolverConfig | None = None, rng: Rng | None = None) -> np.ndarray:
    """Euler-integrate the field from seeded noise to a mel matrix.

    The time grid is t_i = i / n_steps with step 1 / n_steps; the same
    seed always yields the same output for fixed inputs. The field's
    `condition` and every step's time features are computed once, before
    the first step; the field runs on arrays.
    """
    solver = solver or SolverConfig()
    rng = rng or Rng(solver.seed)
    features = np.asarray(features)
    t_frames = features.shape[0]
    x = rng.normal((t_frames, field.cfg.mel_bins), dtype=np.float32)
    dt = 1.0 / solver.n_steps
    t = np.arange(solver.n_steps) * dt
    tf = time_features(t, field.cfg.time_feat_dim, np.float64)
    spk = np.repeat(np.asarray(speaker, dtype=np.float32).reshape(1, -1), t_frames, axis=0)
    cond = field.condition(features.astype(np.float32, copy=False), spk)
    for i in range(solver.n_steps):
        x = x + dt * field(x, cond, t[i:i + 1], tf[i:i + 1])
    return x
