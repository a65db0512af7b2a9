"""Parallel speech tokenizer: twin RVQ streams plus a speaker pathway.

Semantic and acoustic feature streams are quantized independently by
per-stream RVQ stacks ("parallel" mode) or jointly by one stack over
channel-concatenated features ("merged" mode, an ablation). The
speaker pathway projects per-frame speaker features, distills a pooled
summary toward the global speaker target by cosine distance, and feeds
a condition encoder (conv + attention + mean pool) that produces the
time-invariant conditioning vector for the mel decoder.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .engine import Rng, Tensor, no_grad
from .frontend import FeatureBundle
from .nn import Conv1dSame, Linear, Module, TransformerBlock
from .rvq import RVQStack

log = logging.getLogger(__name__)


@dataclass
class ParallelTokens:
    """Aligned token matrices for the two streams, each (T, n_layers)."""

    semantic: np.ndarray
    acoustic: np.ndarray

    def __post_init__(self):
        if self.semantic.shape[0] != self.acoustic.shape[0]:
            raise ValueError(f"stream lengths differ: semantic {self.semantic.shape[0]} vs acoustic {self.acoustic.shape[0]}")

    @property
    def n_frames(self) -> int:
        return self.semantic.shape[0]


@dataclass
class TokenizerConfig:
    semantic_dim: int = 64
    acoustic_dim: int = 64
    speaker_frame_dim: int = 64
    speaker_global_dim: int = 16
    cond_dim: int = 64
    codebook_size: int = 64
    n_quantizer_layers: int = 3
    attn_blocks: int = 2
    n_heads: int = 4
    conv_kernel: int = 3
    max_frames: int = 512
    merged: bool = False   # ablation: one RVQ over concatenated channels
    seed: int = 0

    def validate(self) -> None:
        for name in ("semantic_dim", "acoustic_dim", "speaker_frame_dim", "speaker_global_dim",
                     "cond_dim", "codebook_size", "n_quantizer_layers", "attn_blocks",
                     "n_heads", "conv_kernel", "max_frames"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"TokenizerConfig.{name} must be a positive int, got {v!r}")
        if self.cond_dim % self.n_heads:
            raise ValueError(f"cond_dim {self.cond_dim} must divide by n_heads {self.n_heads}")

    @property
    def stream_dims(self) -> dict[str, int]:
        if self.merged:
            return {"merged": self.semantic_dim + self.acoustic_dim}
        return {"semantic": self.semantic_dim, "acoustic": self.acoustic_dim}

    @property
    def feature_dim(self) -> int:
        return self.semantic_dim + self.acoustic_dim


class ConditionEncoder(Module):
    """Initial convolution, a couple of attention blocks, mean pooling."""

    def __init__(self, cfg: TokenizerConfig, rng: Rng, dtype=None):
        self.conv = Conv1dSame(cfg.speaker_frame_dim, cfg.cond_dim, cfg.conv_kernel, rng.spawn("conv"), dtype=dtype)
        self.blocks = [TransformerBlock(cfg.cond_dim, cfg.n_heads, rng.spawn(("blk", i)), dtype=dtype)
                       for i in range(cfg.attn_blocks)]

    def __call__(self, frames: Tensor) -> Tensor:
        h = self.conv(frames)
        for block in self.blocks:
            h = block(h)
        return h.mean(axis=-2)


class ParallelTokenizer(Module):
    """Owns the quantizer stacks and the trainable speaker pathway.

    The RVQ stacks learn by EMA (not backprop); `named_parameters`
    exposes only the speaker projector, distillation head, and
    condition encoder.
    """

    def __init__(self, cfg: TokenizerConfig, rng: Rng | None = None, dtype=None):
        cfg.validate()
        self.cfg = cfg
        rng = rng or Rng(cfg.seed)
        self.stacks: dict[str, RVQStack] = {
            name: RVQStack.init_random(rng.spawn(("rvq", name)), cfg.n_quantizer_layers,
                                       cfg.codebook_size, dim)
            for name, dim in cfg.stream_dims.items()
        }
        self.projector = Linear(cfg.speaker_frame_dim, cfg.speaker_frame_dim, rng.spawn("proj"), dtype=dtype)
        self.distill_head = Linear(cfg.speaker_frame_dim, cfg.speaker_global_dim, rng.spawn("distill"), dtype=dtype)
        self.cond_encoder = ConditionEncoder(cfg, rng.spawn("cond"), dtype=dtype)

    # ---- stream quantization -------------------------------------------

    def stream_frames(self, bundle: FeatureBundle) -> dict[str, np.ndarray]:
        if self.cfg.merged:
            return {"merged": np.concatenate([bundle.semantic, bundle.acoustic], axis=1)}
        return {"semantic": bundle.semantic, "acoustic": bundle.acoustic}

    def encode_streams(self, bundle: FeatureBundle) -> dict[str, np.ndarray]:
        return {name: self.stacks[name].encode(frames)[0]
                for name, frames in self.stream_frames(bundle).items()}

    def encode_speech(self, bundle: FeatureBundle):
        """(ParallelTokens, condition vector) for one utterance."""
        if self.cfg.merged:
            raise RuntimeError("encode_speech serves parallel mode; use encode_streams for merged stacks")
        tokens = self.encode_streams(bundle)
        cond = self.speaker_condition(bundle.speaker_frames)
        return ParallelTokens(semantic=tokens["semantic"], acoustic=tokens["acoustic"]), cond

    def decode_tokens(self, tokens, up_to_layer: int | None = None) -> np.ndarray:
        """Continuous (T, Ds + Da) conditioning features from tokens.

        Accepts ParallelTokens (channel-concatenates the two decoded
        streams) or a dict of per-stream token matrices.
        """
        if isinstance(tokens, ParallelTokens):
            tokens = {"semantic": tokens.semantic, "acoustic": tokens.acoustic}
        parts = [self.stacks[name].decode(tokens[name], up_to_layer) for name in self.stacks]
        return np.concatenate(parts, axis=1)

    # ---- speaker pathway --------------------------------------------------

    def projected_speaker_frames(self, speaker_frames: np.ndarray) -> Tensor:
        # Deliberately no positional encoding here: the condition vector
        # should describe *who* is speaking, invariant to utterance
        # length, so the pooled pathway stays permutation-equivariant.
        frames = np.asarray(speaker_frames)
        t = frames.shape[0]
        if t > self.cfg.max_frames:
            raise ValueError(f"{t} frames exceeds tokenizer max_frames={self.cfg.max_frames}")
        dtype = self.projector.weight.dtype
        x = Tensor(frames.astype(dtype, copy=False))
        return self.projector(x)

    def speaker_condition_t(self, speaker_frames: np.ndarray) -> Tensor:
        """Differentiable condition vector (cond_dim,)."""
        return self.cond_encoder(self.projected_speaker_frames(speaker_frames))

    def speaker_condition(self, speaker_frames: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.speaker_condition_t(speaker_frames).data

    def speaker_distill_loss(self, speaker_frames: np.ndarray, speaker_global: np.ndarray) -> Tensor:
        """Cosine distance between the pooled projection and the target.

        1 - cos(pooled_projection, target); a zero-norm operand is
        defined as distance 1 and logged, never a division blowup.
        """
        pooled = self.projected_speaker_frames(speaker_frames).mean(axis=0)
        pred = self.distill_head(pooled.reshape(1, -1)).reshape(-1)
        target = np.asarray(speaker_global, dtype=pred.dtype)
        t_norm = float(np.linalg.norm(target))
        p_norm_sq = (pred * pred).sum()
        p_norm = float(np.sqrt(p_norm_sq.data))
        if t_norm == 0.0 or p_norm == 0.0:
            log.warning("speaker distillation: zero-norm vector (pred %.3g, target %.3g); loss pinned to 1",
                        p_norm, t_norm)
            return Tensor(np.asarray(1.0, dtype=pred.dtype))
        cos = (pred * target).sum() / (p_norm_sq.sqrt() * t_norm)
        return 1.0 - cos

    # ---- state ---------------------------------------------------------------

    def full_state(self) -> dict[str, np.ndarray]:
        """Speaker-path parameters plus every codebook's EMA state."""
        out = dict(self.state())
        for name, stack in self.stacks.items():
            out.update(stack.state(prefix=f"rvq.{name}."))
        return out

    def load_full_state(self, state: dict[str, np.ndarray]) -> None:
        module_part = {k: v for k, v in state.items() if not k.startswith("rvq.")}
        self.load_state(module_part)
        for name, stack in self.stacks.items():
            prefix = f"rvq.{name}."
            stack.load_state({k: v for k, v in state.items() if k.startswith(prefix)},
                             prefix=prefix)

    # ---- combined loss -----------------------------------------------------

    def tokenizer_loss(self, bundle: FeatureBundle, field, rng: Rng) -> dict:
        """All four training terms for one utterance, no parameter updates.

        semantic/acoustic reconstruction MSEs come from the quantizers
        (floats; codebooks learn by EMA elsewhere), the speaker term is
        the cosine distillation, and the mel term delegates to the flow
        decoder's matching loss with this utterance's decoded tokens and
        condition vector. `total` is their plain sum; only the speaker
        and mel terms carry gradients.
        """
        from .flow import cfm_train_loss

        stream_frames = self.stream_frames(bundle)
        recon = {}
        decoded_parts = []
        for name, frames in stream_frames.items():
            tokens, quantized, _ = self.stacks[name].encode(frames)
            recon[name] = float(((frames - quantized) ** 2).mean())
            decoded_parts.append(quantized)
        features = np.concatenate(decoded_parts, axis=1)
        l_speaker = self.speaker_distill_loss(bundle.speaker_frames, bundle.speaker_global)
        cond = self.speaker_condition_t(bundle.speaker_frames).reshape(1, -1)
        l_mel = cfm_train_loss(field, bundle.mel, features, cond, rng)
        if self.cfg.merged:
            l_sem = l_acous = 0.5 * recon["merged"]
        else:
            l_sem, l_acous = recon["semantic"], recon["acoustic"]
        grad_part = l_speaker + l_mel
        total = float(l_sem) + float(l_acous) + float(l_speaker.data) + float(l_mel.data)
        return {
            "L_Sem": float(l_sem),
            "L_Acous": float(l_acous),
            "L_Speaker": float(l_speaker.data),
            "L_Mel": float(l_mel.data),
            "total": total,
            "grad_loss": grad_part,
        }
