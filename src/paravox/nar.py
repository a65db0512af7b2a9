"""Coupled non-autoregressive refinement of the deeper quantizer layers.

The top-layer token pair fixes content and duration; what remains is
filling in quantizer layers 2..L for both streams at once. Each
refinement stage is a bidirectional transformer over [reference ||
target] that predicts exactly one layer: stage s reads target layers
1..s and reference layers 1..s+1, and emits a joint classifier over
the concatenated stream vocabularies, with one softmax per stream
slice. Both streams of a layer are predicted in a single pass, so the
acoustic evidence can shape the semantic choice and vice versa.

Inference is pure argmax — every position of a layer is decided in one
parallel step, which is what makes the refiner cheap compared to the
autoregressive stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Rng, Tensor, check_fields, cross_entropy, embedding
from .nn import Embedding, LayerNorm, Linear, Module, TransformerBlock

_TOKEN_COL = 3  # input-id column of the first token table, after both positions and the segment


@dataclass
class NARConfig:
    streams: tuple = (("semantic", 64), ("acoustic", 64))
    n_quant_layers: int = 3
    n_layers: int = 2
    model_dim: int = 128
    n_heads: int = 4
    max_ref_len: int = 96
    max_target_len: int = 96
    seed: int = 0

    def validate(self) -> None:
        check_fields(self)
        if not self.streams or not all(len(s) == 2 and s[1] > 0 for s in self.streams):
            raise ValueError(f"NARConfig.streams must be ((name, vocab), ...), got {self.streams!r}")
        if self.n_quant_layers < 2:
            raise ValueError("refinement needs at least two quantizer layers")
        if self.model_dim % self.n_heads:
            raise ValueError(f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}")

    @property
    def n_streams(self) -> int:
        return len(self.streams)


class CoupledStage(Module):
    """Predict quantizer layer `layer_index` for every stream at once."""

    def __init__(self, cfg: NARConfig, layer_index: int, rng: Rng, dtype=None):
        if not 1 <= layer_index < cfg.n_quant_layers:
            raise ValueError(f"layer_index must be in [1, {cfg.n_quant_layers}), got {layer_index}")
        self.cfg = cfg
        self.layer_index = layer_index
        self.n_tgt_in = layer_index           # target layers 1..s seen as input
        self.n_ref_in = layer_index + 1       # reference additionally shows layer s+1
        d = cfg.model_dim
        self.tgt_embs = [Embedding(k, d, rng.spawn(("tgt", s, l)), dtype=dtype)
                         for s, (_, k) in enumerate(cfg.streams)
                         for l in range(self.n_tgt_in)]
        self.ref_embs = [Embedding(k, d, rng.spawn(("ref", s, l)), dtype=dtype)
                         for s, (_, k) in enumerate(cfg.streams)
                         for l in range(self.n_ref_in)]
        self.segment_emb = Embedding(2, d, rng.spawn("segment"), dtype=dtype)
        self.ref_pos = Embedding(cfg.max_ref_len, d, rng.spawn("ref_pos"), dtype=dtype)
        self.tgt_pos = Embedding(cfg.max_target_len, d, rng.spawn("tgt_pos"), dtype=dtype)
        self.blocks = [TransformerBlock(d, cfg.n_heads, rng.spawn(("blk", i)), dtype=dtype)
                       for i in range(cfg.n_layers)]
        self.ln_f = LayerNorm(d, dtype=dtype)
        self.classifier = Linear(d, sum(k for _, k in cfg.streams), rng.spawn("cls"), dtype=dtype)

    # ---- input handling ---------------------------------------------------

    def _check(self, tokens, what: str, need_layers: int, max_len: int) -> np.ndarray:
        cfg = self.cfg
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 3 or tokens.shape[1] != cfg.n_streams or tokens.shape[2] < need_layers:
            raise ValueError(f"{what} tokens must be (T, {cfg.n_streams}, >= {need_layers}), "
                             f"got {tokens.shape}")
        if tokens.shape[0] == 0:
            raise ValueError(f"{what} tokens must have at least one frame")
        if tokens.shape[0] > max_len:
            raise ValueError(f"{what} length {tokens.shape[0]} exceeds limit {max_len}")
        for s, (name, k) in enumerate(cfg.streams):
            col = tokens[:, s, :need_layers]
            if col.min() < 0 or col.max() >= k:
                raise ValueError(f"{what} {name} tokens out of range [0, {k})")
        return tokens

    def _input_ids(self, ref_tokens, tgt_tokens) -> np.ndarray:
        """(R + T, n_tables) id grid of one [reference || target] row: a
        reference row reads its position, segment 0 and layers 1..s+1, a
        target row its position, segment 1 and layers 1..s; -1 elsewhere."""
        ref = self._check(ref_tokens, "reference", self.n_ref_in, self.cfg.max_ref_len)
        tgt = self._check(tgt_tokens, "target", self.n_tgt_in, self.cfg.max_target_len)
        r, t = ref.shape[0], tgt.shape[0]
        tgt_col = _TOKEN_COL + len(self.ref_embs)
        ids = np.full((r + t, tgt_col + len(self.tgt_embs)), -1, dtype=np.int64)
        # Per segment: position, segment id, tokens.
        ids[:r, 0], ids[:r, 2], ids[:r, _TOKEN_COL:tgt_col] = np.arange(r), 0, ref[:, :, :self.n_ref_in].reshape(r, -1)
        ids[r:, 1], ids[r:, 2], ids[r:, tgt_col:] = np.arange(t), 1, tgt[:, :, :self.n_tgt_in].reshape(t, -1)
        return ids

    # ---- forward ------------------------------------------------------------

    def stream_slices(self, logits):
        """Each stream's columns of joint logits (a Tensor or an array)."""
        out, lo = [], 0
        for _, k in self.cfg.streams:
            out.append(logits[..., lo:lo + k])
            lo += k
        return out

    def _tables(self) -> list[Tensor]:
        """The embedding tables, in id-grid column order."""
        return [self.ref_pos.weight, self.tgt_pos.weight, self.segment_emb.weight] + \
            [e.weight for e in self.ref_embs + self.tgt_embs]

    def _logits(self, batch: list[tuple], tables: list):
        """`batch_logits` from the embedding `tables`: Tensors record the
        tape, their arrays run the kernels and give an array."""
        rows = [self._input_ids(r, t) for r, t in batch]
        lengths = np.array([r.shape[0] for r in rows])
        n_target = np.array([np.asarray(t).shape[0] for _, t in batch])
        h = embedding(tables, np.concatenate(rows))
        for block in self.blocks:  # the last block keeps each row's target positions, which end it
            h = block(h, lengths=lengths, reads=n_target if block is self.blocks[-1] else None)
        return self.classifier(self.ln_f(h))

    def batch_logits(self, batch: list[tuple]) -> Tensor:
        """Flattened (N, sum K) joint target-position logits over a batch.

        `batch` rows are (ref_tokens, tgt_tokens). Attention is
        bidirectional, so every target position sees its whole
        [reference || target] row. The rows run through the trunk
        packed, and its last block runs for only their target positions.
        """
        return self._logits(batch, self._tables())

    def stage_loss(self, batch: list[tuple]) -> Tensor:
        """Mean per-decision cross-entropy for this stage's layer.

        Every target position contributes one decision per stream; the
        labels come from layer `layer_index` of the target tokens, which
        the input embeddings never see.
        """
        logits = self.batch_logits(batch)
        lab = self._labels(batch)      # (N, n_streams)
        slices = self.stream_slices(logits)
        ces = [cross_entropy(slices[s], lab[:, s]) for s in range(self.cfg.n_streams)]
        return sum(ces[1:], ces[0]) * (1.0 / len(ces))

    def _labels(self, batch: list[tuple]) -> np.ndarray:
        """(N, n_streams) layer `layer_index` tokens of every target position."""
        labels = []
        for _, tgt_tokens in batch:
            tgt = np.asarray(tgt_tokens, dtype=np.int64)
            if tgt.shape[2] <= self.layer_index:
                raise ValueError(f"targets need layer {self.layer_index} labels, got {tgt.shape}")
            labels.append(tgt[:, :, self.layer_index])
        return np.concatenate(labels, axis=0)

    def predict(self, batch: list[tuple]) -> np.ndarray:
        """(N, n_streams) argmax tokens for the predicted layer, one row
        per `batch_logits` row, from its logits computed on arrays."""
        logits = self._logits(batch, [w.data for w in self._tables()])
        return np.stack([s.argmax(axis=-1) for s in self.stream_slices(logits)], axis=1).astype(np.int64)


class CoupledNAR(Module):
    """Stage stack completing layers 2..L from the top-layer pair."""

    def __init__(self, cfg: NARConfig, rng: Rng | None = None, dtype=None):
        cfg.validate()
        self.cfg = cfg
        rng = rng or Rng(cfg.seed)
        self.stages = [CoupledStage(cfg, layer, rng.spawn(("stage", layer)), dtype=dtype)
                       for layer in range(1, cfg.n_quant_layers)]

    def complete_tokens(self, top_tokens, ref_tokens) -> np.ndarray:
        """(T, n_streams, L) full token grid grown layer by layer.

        `top_tokens` is (T, n_streams) or (T, n_streams, 1) from the
        autoregressive stage; `ref_tokens` is the full (R, n_streams, L)
        grid encoded from the reference utterance.
        """
        top = np.asarray(top_tokens, dtype=np.int64)
        if top.ndim == 3 and top.shape[2] == 1:
            top = top[:, :, 0]
        if top.ndim != 2 or top.shape[1] != self.cfg.n_streams:
            raise ValueError(f"top tokens must be (T, {self.cfg.n_streams}), got {top.shape}")
        grid = top[:, :, None]
        for stage in self.stages:
            nxt = stage.predict([(ref_tokens, grid)])
            grid = np.concatenate([grid, nxt[:, :, None]], axis=2)
        return grid

    def nar_loss(self, batch: list[tuple]) -> dict:
        """Stage losses plus their exact sum.

        `batch` rows are (ref_tokens, tgt_tokens) with full (.., L)
        grids; stage s trains on its own input/label slice of the same
        batch. Keys are L_second, L_third, ... in layer order.
        """
        names = ["L_second", "L_third", "L_fourth", "L_fifth"]
        out = {}
        parts = []
        for i, stage in enumerate(self.stages):
            key = names[i] if i < len(names) else f"L_layer{stage.layer_index + 1}"
            term = stage.stage_loss(batch)
            out[key] = term
            parts.append(term)
        out["total"] = sum(parts[1:], parts[0])
        return out

    def stage_scores(self, batch: list[tuple]) -> tuple[dict[str, float], dict[str, float]]:
        """Per-stage token accuracy and frame exact match (every stream of
        a frame right), from one `predict` per stage and eight pairs."""
        tokens, frames = {}, {}
        for stage in self.stages:
            right = np.concatenate([stage.predict(batch[lo:lo + 8]) == stage._labels(batch[lo:lo + 8])
                                    for lo in range(0, len(batch), 8)])
            key = f"layer{stage.layer_index + 1}"
            tokens[key] = int(right.sum()) / right.size
            frames[key] = int(right.all(axis=1).sum()) / right.shape[0]
        return tokens, frames
