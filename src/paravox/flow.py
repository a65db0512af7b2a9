"""Conditional flow matching for mel frames.

Training regresses a velocity field v(x_t, t, cond) toward (target - x0)
along straight paths x_t = (1 - t) x0 + t * target with x0 standard
normal and t uniform. Sampling integrates the learned field from noise
with a fixed-step Euler solver; one step degenerates to x0 + v(x0, 0).

Conditioning is per-frame: decoded token features for that frame plus a
time-invariant speaker vector, so the field is a frame-local MLP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Rng, Tensor, concat, gelu, no_grad
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
        for name in ("mel_bins", "feature_dim", "speaker_dim", "hidden_dim", "n_hidden", "time_feat_dim", "default_steps"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"FlowConfig.{name} must be a positive int, got {v!r}")
        if self.time_feat_dim % 2 != 0:
            raise ValueError("FlowConfig.time_feat_dim must be even (sin/cos pairs)")


def time_features(t: float, dim: int, dtype=np.float32) -> np.ndarray:
    """Fourier features of scalar time: [sin(2^k pi t), cos(2^k pi t)]."""
    k = np.arange(dim // 2, dtype=np.float64)
    angles = (2.0 ** k) * np.pi * float(t)
    return np.concatenate([np.sin(angles), np.cos(angles)]).astype(dtype)


@dataclass
class SolverConfig:
    n_steps: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


class VelocityField(Module):
    """Frame-local MLP over [x_t, features, speaker, time] -> velocity.

    The network head predicts the clean frame (the t=1 endpoint) and the
    velocity is formed as (prediction - x_t) / (1 - t). Along the linear
    path the regression target mel - x0 equals (mel - x_t) / (1 - t), so
    the head's optimum is the conditional clean-frame mean regardless of
    t; the division then restores the contraction toward the endpoint
    that a raw velocity head would have to learn as an unbounded gain.
    """

    # Denominator floor. Euler grids stop at t = 1 - 1/n_steps, so any
    # solver up to 100 steps never hits it; it mainly tames the
    # 1/(1-t)^2 weight that training draws with t ~ 1 would otherwise
    # put on the regression loss.
    TIME_EPS = 1e-2

    def __init__(self, cfg: FlowConfig, rng: Rng, dtype=None):
        cfg.validate()
        self.cfg = cfg
        d_in = cfg.mel_bins + cfg.feature_dim + cfg.speaker_dim + cfg.time_feat_dim
        dims = [d_in] + [cfg.hidden_dim] * cfg.n_hidden + [cfg.mel_bins]
        self.layers = [Linear(dims[i], dims[i + 1], rng.spawn(("fc", i)), dtype=dtype)
                       for i in range(len(dims) - 1)]

    def __call__(self, x_t: Tensor, features: Tensor, speaker: Tensor, t: float) -> Tensor:
        n_frames = x_t.shape[0]
        dtype = x_t.dtype
        tf = np.broadcast_to(time_features(t, self.cfg.time_feat_dim, dtype), (n_frames, self.cfg.time_feat_dim))
        spk = speaker if speaker.ndim == 2 else speaker.reshape(1, -1)
        if spk.shape[0] == 1 and n_frames > 1:
            spk = concat([spk] * n_frames, axis=0)
        h = concat([x_t, features, spk, Tensor(tf.copy())], axis=1)
        for layer in self.layers[:-1]:
            h = gelu(layer(h))
        endpoint = self.layers[-1](h)
        return (endpoint - x_t) * (1.0 / max(1.0 - float(t), self.TIME_EPS))


def cfm_train_loss(field: VelocityField, mel: np.ndarray, features, speaker, rng: Rng,
                   t: float | None = None, x0: np.ndarray | None = None) -> Tensor:
    """Flow-matching regression loss for one utterance.

    `features` and `speaker` may be Tensors (to train an upstream
    conditioning encoder jointly) or plain arrays. `t`/`x0` can be
    pinned for deterministic loss evaluation; by default they are drawn
    from `rng`. Loss is the mean squared velocity error over all T*M
    entries, so a field that always predicts (mel - x0) scores zero.
    """
    mel = np.asarray(mel)
    if t is None:
        t = float(rng.uniform())
    if x0 is None:
        x0 = rng.normal(mel.shape, dtype=mel.dtype)
    x_t = (1.0 - t) * x0 + t * mel
    feats = features if isinstance(features, Tensor) else Tensor(np.asarray(features, dtype=mel.dtype))
    spk = speaker if isinstance(speaker, Tensor) else Tensor(np.asarray(speaker, dtype=mel.dtype))
    v = field(Tensor(x_t), feats, spk, t)
    diff = v - Tensor(mel - x0)
    return (diff * diff).mean()


def sample_mel(field: VelocityField, features: np.ndarray, speaker: np.ndarray,
               solver: SolverConfig | None = None, rng: Rng | None = None) -> np.ndarray:
    """Euler-integrate the field from seeded noise to a mel matrix.

    The time grid is t_i = i / n_steps with step 1 / n_steps; the same
    seed always yields the same output for fixed inputs.
    """
    solver = solver or SolverConfig()
    rng = rng or Rng(solver.seed)
    features = np.asarray(features)
    t_frames = features.shape[0]
    x = rng.normal((t_frames, field.cfg.mel_bins), dtype=np.float32)
    dt = 1.0 / solver.n_steps
    with no_grad():
        feats = Tensor(features.astype(np.float32, copy=False))
        # Tiled to one row per frame once, not on every step.
        spk = Tensor(np.repeat(np.asarray(speaker, dtype=np.float32).reshape(1, -1), t_frames, axis=0))
        for i in range(solver.n_steps):
            t = i * dt
            v = field(Tensor(x), feats, spk, t)
            x = x + dt * v.data
    return x
