"""Parallel speech tokenizer: twin RVQ streams plus a speaker pathway.

Semantic and acoustic feature streams are quantized independently by
per-stream RVQ stacks ("parallel" mode) or jointly by one stack over
channel-concatenated features ("merged" mode, an ablation). Either
way an utterance's tokens are one (T, n_streams, L) grid, streams in
stack order: every encode takes a batch of utterances and runs one
RVQ encode per stack over their concatenated frames, and
`decode_tokens` maps a grid back to channel-concatenated features.
The speaker pathway projects per-frame speaker features, distills a
pooled summary toward the global speaker target by cosine distance,
and feeds a condition encoder (conv + attention + mean pool) that
produces the time-invariant conditioning vector for the mel decoder.
It runs on a packed stack of the batch's speaker frames, one utterance
after another, with their lengths; every layer works per utterance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .engine import Rng, Tensor, check_fields, mean_rows
from .frontend import FeatureBundle
from .nn import Conv1dSame, Linear, Module, TransformerBlock
from .rvq import RVQStack

log = logging.getLogger(__name__)


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
        check_fields(self)
        if self.cond_dim % self.n_heads:
            raise ValueError(f"cond_dim {self.cond_dim} must divide by n_heads {self.n_heads}")

    @property
    def stream_dims(self) -> dict[str, int]:
        if self.merged:
            return {"merged": self.semantic_dim + self.acoustic_dim}
        return {"semantic": self.semantic_dim, "acoustic": self.acoustic_dim}


class ConditionEncoder(Module):
    """Initial convolution, a couple of attention blocks, mean pooling."""

    def __init__(self, cfg: TokenizerConfig, rng: Rng, dtype=None):
        self.conv = Conv1dSame(cfg.speaker_frame_dim, cfg.cond_dim, cfg.conv_kernel, rng.spawn("conv"), dtype=dtype)
        self.blocks = [TransformerBlock(cfg.cond_dim, cfg.n_heads, rng.spawn(("blk", i)), dtype=dtype)
                       for i in range(cfg.attn_blocks)]

    def __call__(self, frames, lengths: np.ndarray):
        """(B, cond_dim) of a packed (N, D) stack of utterances of `lengths`."""
        h = self.conv(frames, lengths)
        for block in self.blocks:
            h = block(h, lengths=lengths)
        return mean_rows(h, lengths)


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

    def stream_frames(self, bundles: list[FeatureBundle]) -> dict[str, np.ndarray]:
        """Each stack's input frames, concatenated over the batch in order."""
        semantic = np.concatenate([b.semantic for b in bundles])
        acoustic = np.concatenate([b.acoustic for b in bundles])
        if self.cfg.merged:
            return {"merged": np.concatenate([semantic, acoustic], axis=1)}
        return {"semantic": semantic, "acoustic": acoustic}

    def encode_grids(self, bundles: list[FeatureBundle]) -> list[np.ndarray]:
        """One (T_i, n_streams, L) token grid per bundle, streams in stack
        order, from one RVQ encode per stack over the whole batch."""
        frames = self.stream_frames(bundles)
        grid = np.stack([stack.encode(frames[name]) for name, stack in self.stacks.items()], axis=1)
        return np.split(grid, np.cumsum([b.n_frames for b in bundles])[:-1])

    def encode_speech(self, bundle: FeatureBundle) -> tuple[np.ndarray, np.ndarray]:
        """(token grid, condition vector (cond_dim,)) of one utterance."""
        return self.encode_grids([bundle])[0], self.speaker_conditions([bundle.speaker_frames])[0]

    def decode_tokens(self, grid: np.ndarray, up_to_layer: int | None = None) -> np.ndarray:
        """Continuous (T, Ds + Da) features of a (T, n_streams, L) grid: each
        stream's codeword sums, channel-concatenated in stack order."""
        grid = np.asarray(grid)
        if grid.ndim != 3 or grid.shape[1] != len(self.stacks):
            raise ValueError(f"expected a (T, {len(self.stacks)}, L) token grid, got {grid.shape}")
        return np.concatenate([stack.decode(grid[:, s], up_to_layer)
                               for s, stack in enumerate(self.stacks.values())], axis=1)

    # ---- speaker pathway --------------------------------------------------

    def _speaker_batch(self, speaker_frames: list[np.ndarray], wrap):
        """(N, D) projections of the packed speaker frames, and their
        lengths. `wrap` makes the packed frames the projector's input:
        `Tensor` records the tape, `np.asarray` runs the kernels."""
        # Deliberately no positional encoding here: the condition vector
        # should describe *who* is speaking, invariant to utterance
        # length, so the pooled pathway stays permutation-equivariant.
        lengths = np.array([f.shape[0] for f in speaker_frames])
        if lengths.max() > self.cfg.max_frames:
            raise ValueError(f"{lengths.max()} frames exceeds tokenizer max_frames={self.cfg.max_frames}")
        frames = np.concatenate(speaker_frames).astype(self.projector.weight.dtype, copy=False)
        return self.projector(wrap(frames)), lengths

    def projected_speaker_frames(self, speaker_frames: list[np.ndarray]) -> tuple[Tensor, np.ndarray]:
        """`_speaker_batch` with a Tensor projection, to train the speaker pathway."""
        return self._speaker_batch(speaker_frames, Tensor)

    def speaker_conditions(self, speaker_frames: list[np.ndarray]) -> np.ndarray:
        """(B, cond_dim) condition vectors of a batch of utterances, on arrays."""
        return self.cond_encoder(*self._speaker_batch(speaker_frames, np.asarray))

    def speaker_distill_loss(self, frames: Tensor, lengths: np.ndarray, speaker_global: np.ndarray) -> Tensor:
        """1 - cos(pooled projection, target) per row of a
        `projected_speaker_frames` batch; a row with a zero-norm operand is
        distance 1 with zero gradient and logged, never a division blowup."""
        pred = self.distill_head(mean_rows(frames, lengths))
        target = np.asarray(speaker_global, dtype=pred.dtype)
        t_norm = np.linalg.norm(target, axis=1)
        p_norm_sq = (pred * pred).sum(axis=1)
        pinned = (t_norm == 0.0) | (p_norm_sq.data == 0.0)
        if pinned.any():
            log.warning("speaker distillation: zero-norm vector in rows %s; their loss pinned to 1",
                        np.flatnonzero(pinned).tolist())
        # A pinned row gets a zero target over a unit denominator: cosine exactly 0.
        cos = ((pred * np.where(pinned[:, None], 0.0, target)).sum(axis=1)
               / ((p_norm_sq + pinned).sqrt() * np.where(pinned, 1.0, t_norm)))
        return 1.0 - cos

    # ---- state ---------------------------------------------------------------

    def full_state(self) -> dict[str, np.ndarray]:
        """Speaker-path parameters plus every codebook's EMA state."""
        out = dict(self.state())
        for name, stack in self.stacks.items():
            out.update(stack.state(prefix=f"rvq.{name}."))
        return out

    def load_full_state(self, state: dict[str, np.ndarray]) -> None:
        """Load a `full_state`; a codebook array no stack uses is a KeyError."""
        wanted = {k for name, stack in self.stacks.items() for k in stack.state(prefix=f"rvq.{name}.")}
        unused = sorted(k for k in state if k.startswith("rvq.") and k not in wanted)
        if unused:
            raise KeyError(f"codebook state not used by any stack: {unused}")
        self.load_state({k: v for k, v in state.items() if not k.startswith("rvq.")})
        for name, stack in self.stacks.items():
            stack.load_state(state, prefix=f"rvq.{name}.")

    # ---- combined loss -----------------------------------------------------

    def tokenizer_loss(self, bundles: list[FeatureBundle], field, rngs: list[Rng]):
        """(loss, float terms) of a batch in one pass, no parameter updates.

        The semantic/acoustic terms average each utterance's quantizer MSE
        (codebooks learn by EMA elsewhere). The loss is the mean over
        utterances of the speaker distillation plus the flow decoder's
        matching loss, utterance i's draws from `rngs[i]`; `total` adds all four.
        """
        from .flow import cfm_train_loss

        splits = np.cumsum([b.n_frames for b in bundles])[:-1]
        features = self.decode_tokens(np.concatenate(self.encode_grids(bundles)))
        recon, lo = {}, 0
        for name, frames in self.stream_frames(bundles).items():
            err = (frames - features[:, lo:lo + frames.shape[1]]) ** 2
            recon[name] = float(np.mean([float(e.mean()) for e in np.split(err, splits)]))
            lo += frames.shape[1]
        features = np.split(features, splits)
        proj, lengths = self.projected_speaker_frames([b.speaker_frames for b in bundles])
        l_speaker = self.speaker_distill_loss(proj, lengths, np.stack([b.speaker_global for b in bundles])).mean()
        l_mel = cfm_train_loss(field, [b.mel for b in bundles], features,
                               self.cond_encoder(proj, lengths), rngs)
        l_sem, l_acous = [0.5 * recon["merged"]] * 2 if self.cfg.merged else [recon["semantic"], recon["acoustic"]]
        terms = {"L_Sem": l_sem, "L_Acous": l_acous,
                 "L_Speaker": float(l_speaker.data), "L_Mel": float(l_mel.data)}
        terms["total"] = sum(terms.values())
        return l_speaker + l_mel, terms
