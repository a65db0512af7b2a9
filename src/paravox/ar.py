"""Dual-stream autoregressive generator over top-layer token pairs.

One decoder-only transformer consumes [text, reference speech, target
speech] with causal attention. Text has its own learned positions;
reference and target share one speech position table and one embedding
space per stream (a speech frame's input embedding is the sum of its
per-stream token embeddings). The final state at each step is split
into per-stream halves feeding independent classifier heads, while a
stop head reads the full state: end-of-speech is a stop event, not a
vocabulary entry.

The same machinery covers two ablations: a single merged stream (one
head over the full state) and multi-layer heads that predict every
quantizer layer at once so the refiner stage can be skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .engine import Rng, bce_with_logits, check_fields, check_reads, cross_entropy, embedding, last_rows, sigmoid
from .nn import Embedding, KVCache, LayerNorm, Linear, Module, TransformerBlock

_TOKEN_COL = 3  # input-id column of the first token table, after text id, text and speech position


@dataclass
class ARConfig:
    text_vocab: int = 35
    streams: tuple = (("semantic", 64), ("acoustic", 64))
    layers_per_stream: int = 1
    n_layers: int = 4
    model_dim: int = 128
    n_heads: int = 4
    max_text_len: int = 32
    max_speech_len: int = 160
    top_k: int = 8
    temperature: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        check_fields(self)
        if not self.streams or not all(len(s) == 2 and s[1] > 0 for s in self.streams):
            raise ValueError(f"ARConfig.streams must be ((name, vocab), ...), got {self.streams!r}")
        if self.model_dim % len(self.streams):
            raise ValueError(f"model_dim {self.model_dim} must divide evenly across {len(self.streams)} streams")
        if self.model_dim % self.n_heads:
            raise ValueError(f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}")

    @property
    def n_streams(self) -> int:
        return len(self.streams)

    @property
    def slice_dim(self) -> int:
        return self.model_dim // len(self.streams)


@dataclass
class GenerationResult:
    tokens: np.ndarray          # (T, n_streams, layers_per_stream) int64
    terminated: bool            # stop head fired
    truncated: bool             # hit max_frames or max_speech_len instead
    stop_probs: np.ndarray      # (T + 1,) P(stop) after the prompt and after each frame

    @property
    def n_frames(self) -> int:
        return self.tokens.shape[0]

    def stream(self, index: int) -> np.ndarray:
        return self.tokens[:, index, :]


class DualStreamAR(Module):
    def __init__(self, cfg: ARConfig, rng: Rng | None = None, dtype=None):
        cfg.validate()
        self.cfg = cfg
        rng = rng or Rng(cfg.seed)
        d = cfg.model_dim
        self.text_emb = Embedding(cfg.text_vocab, d, rng.spawn("text_emb"), dtype=dtype)
        self.text_pos = Embedding(cfg.max_text_len, d, rng.spawn("text_pos"), dtype=dtype)
        self.speech_pos = Embedding(cfg.max_speech_len, d, rng.spawn("speech_pos"), dtype=dtype)
        self.token_embs = [Embedding(k, d, rng.spawn(("tok", s, l)), dtype=dtype)
                           for s, (_, k) in enumerate(cfg.streams)
                           for l in range(cfg.layers_per_stream)]
        self.blocks = [TransformerBlock(d, cfg.n_heads, rng.spawn(("blk", i)), dtype=dtype)
                       for i in range(cfg.n_layers)]
        self.ln_f = LayerNorm(d, dtype=dtype)
        self.heads = [Linear(cfg.slice_dim, k, rng.spawn(("head", s, l)), dtype=dtype)
                      for s, (_, k) in enumerate(cfg.streams)
                      for l in range(cfg.layers_per_stream)]
        self.stop_head = Linear(d, 1, rng.spawn("stop"), dtype=dtype)

    # ---- input ids ----------------------------------------------------------

    def _check_tokens(self, tokens: np.ndarray, what: str) -> np.ndarray:
        cfg = self.cfg
        tokens = np.asarray(tokens, dtype=np.int64)
        want = (cfg.n_streams, cfg.layers_per_stream)
        if tokens.ndim != 3 or tokens.shape[1:] != want:
            raise ValueError(f"{what} tokens must be (T, {want[0]}, {want[1]}), got {tokens.shape}")
        for s, (name, k) in enumerate(cfg.streams):
            col = tokens[:, s, :]
            if col.size and (col.min() < 0 or col.max() >= k):
                raise ValueError(f"{what} {name} tokens out of range [0, {k})")
        return tokens

    def _frame_ids(self, tokens: np.ndarray, pos_offset: int = 0) -> np.ndarray:
        """Id rows of (T, n_streams, layers) frames: speech position from
        `pos_offset` on, then one token per stream and layer."""
        t = tokens.shape[0]
        if pos_offset + t > self.cfg.max_speech_len:
            raise ValueError(f"speech length {pos_offset + t} exceeds max_speech_len={self.cfg.max_speech_len}")
        ids = np.full((t, _TOKEN_COL + len(self.token_embs)), -1, dtype=np.int64)
        ids[:, _TOKEN_COL - 1] = np.arange(pos_offset, pos_offset + t)
        ids[:, _TOKEN_COL:] = tokens.reshape(t, len(self.token_embs))
        return ids

    def input_ids(self, text_ids: np.ndarray, ref_tokens: np.ndarray,
                  tgt_tokens: np.ndarray | None = None) -> np.ndarray:
        """(n_text + n_ref + n_target, n_tables) id grid for `forward_states`:
        text rows (id, text position), then reference and target frames
        on one continuous run of speech positions; -1 marks every other
        table. An empty reference is allowed for unconditional generation.
        """
        cfg = self.cfg
        text_ids = np.asarray(text_ids, dtype=np.int64)
        if text_ids.ndim != 1 or text_ids.size == 0:
            raise ValueError(f"text_ids must be a non-empty 1-D id array, got shape {text_ids.shape}")
        if text_ids.size > cfg.max_text_len:
            raise ValueError(f"text length {text_ids.size} exceeds max_text_len={cfg.max_text_len}")
        if text_ids.min() < 0 or text_ids.max() >= cfg.text_vocab:
            raise ValueError(f"text ids out of range [0, {cfg.text_vocab})")
        frames = self._check_tokens(ref_tokens, "reference") if np.asarray(ref_tokens).size \
            else np.zeros((0, cfg.n_streams, cfg.layers_per_stream), dtype=np.int64)
        if tgt_tokens is not None and np.asarray(tgt_tokens).size:
            frames = np.concatenate([frames, self._check_tokens(tgt_tokens, "target")])
        text = np.full((text_ids.size, _TOKEN_COL + len(self.token_embs)), -1, dtype=np.int64)
        text[:, 0] = text_ids
        text[:, 1] = np.arange(text_ids.size)
        return np.concatenate([text, self._frame_ids(frames)])

    # ---- trunk ------------------------------------------------------------

    def _tables(self) -> list:
        """The embedding tables, in id-grid column order."""
        return [self.text_emb.weight, self.text_pos.weight, self.speech_pos.weight] + \
            [e.weight for e in self.token_embs]

    def forward_states(self, ids: np.ndarray, lengths: np.ndarray | None = None, reads: np.ndarray | None = None,
                       cache: list[KVCache] | None = None, tables: list | None = None):
        """Embed an (N, n_tables) id grid (see `input_ids`) and run the
        causal trunk over it. `ids` stacks sequences of `lengths` (one
        sequence if None), one after another. The last block runs only
        for each sequence's last reads[b] positions (all if None), and
        the states of those rows come back, stacked in order. Tensor
        `tables` (by default `_tables()`) record the tape; their arrays
        run the kernels and give an array.

        With `cache` (one `KVCache` per block, see `new_cache`), `ids`
        holds one sequence's positions after those already cached: the
        prompt at prefill, one frame per decode step, and `reads` one count
        in 1..len(ids), checked before any cache is written. The default tables
        are then their arrays, so states come back as an array, with no
        tape; earlier keys and values are read from the cache.
        """
        if cache is not None and reads is not None:
            check_reads(reads, [ids.shape[0]])  # before any block writes its cache
        if tables is None:
            tables = self._tables() if cache is None else [w.data for w in self._tables()]
        if cache is not None and ids.shape[0] == 1:
            h = self._decode_row(tables, ids[0])
        else:
            h = embedding(tables, ids)
        for i, block in enumerate(self.blocks):
            h = block(h, True, None if cache is None else cache[i], lengths,
                      reads if block is self.blocks[-1] else None)
        return self.ln_f(h)

    @staticmethod
    def _decode_row(tables: list[np.ndarray], ids: np.ndarray) -> np.ndarray:
        """`embedding` of one id row: its tables' rows added to zeros in
        column order, bit for bit, without the batch bookkeeping."""
        h = np.zeros((1, tables[0].shape[1]), dtype=tables[0].dtype)
        for w, i in zip(tables, ids.tolist()):
            if i >= 0:
                h += w[i]
            elif i != -1:
                raise IndexError(f"embedding ids must be >= -1, got {i}")
        return h

    def new_cache(self, capacity: int) -> list[KVCache]:
        """Empty key/value buffers for `capacity` positions, one per block."""
        return [KVCache(b.attn.n_heads, b.attn.head_dim, capacity, self.text_emb.weight.dtype) for b in self.blocks]

    def _head_logits(self, states, s: int, l: int):
        """Head (s, l) over stream `s`'s slice of the states; all of them for one stream."""
        lo, d = s * self.cfg.slice_dim, self.cfg.slice_dim
        return self.heads[s * self.cfg.layers_per_stream + l](
            states[..., lo:lo + d] if self.cfg.n_streams > 1 else states)

    # ---- batched training path ---------------------------------------------

    def teacher_forced_batch(self, batch: list[tuple], tables: list | None = None):
        """Flatten teacher-forced logits over a batch.

        `batch` rows are (text_ids, ref_tokens, tgt_tokens). Returns
        (stream_logits, stream_targets, stop_logits, stop_labels), ready
        for `ar_loss`. `stream_logits[s][l]` stacks every row's (T, K_s)
        logits, where row t is predicted from the state just before
        target frame t. An utterance of T target frames contributes
        T + 1 stop logits, one per state from the prompt boundary
        through its last frame, labelled 1 only at that last state.
        The rows' id grids run through the trunk once, packed; it runs
        its last block for only the states that are read: each row's
        last prompt state and its target frames. The trunk runs on
        `tables` (see `forward_states`).
        """
        tables = tables or self._tables()
        cfg = self.cfg
        rows, targets = [], []
        for text_ids, ref_tokens, tgt_tokens in batch:
            tgt = self._check_tokens(tgt_tokens, "target")
            if tgt.shape[0] == 0:
                raise ValueError("teacher forcing needs at least one target frame")
            rows.append(self.input_ids(text_ids, ref_tokens, tgt))
            targets.append(tgt)
        lengths = np.array([r.shape[0] for r in rows])
        n_target = np.array([tgt.shape[0] for tgt in targets])
        stops = self.forward_states(np.concatenate(rows), lengths, n_target + 1, tables=tables)
        ends = np.cumsum(n_target + 1)  # where each row's states end
        pred = stops[last_rows(ends - 1, n_target)]  # the states that predict each target frame
        stop_labels = np.zeros(stops.shape[0], dtype=np.float64)
        stop_labels[ends - 1] = 1.0
        stream_logits = [[self._head_logits(pred, s, l) for l in range(cfg.layers_per_stream)]
                         for s in range(cfg.n_streams)]
        stream_targets = [[np.concatenate([tgt[:, s, l] for tgt in targets])
                           for l in range(cfg.layers_per_stream)]
                          for s in range(cfg.n_streams)]
        stop_logits = self.stop_head(stops).reshape(-1)
        return stream_logits, stream_targets, stop_logits, stop_labels

    def ar_loss(self, stream_logits, stream_targets, stop_logits, stop_labels) -> dict:
        """Per-stream cross-entropies plus the stop BCE.

        Each stream's term is the mean per-step cross-entropy (averaged
        over its prediction heads); `total` is the exact sum of the
        per-stream terms and `L_stop`. Uniform logits over K classes
        give a stream term of ln K.
        """
        out = {}
        parts = []
        for s, (name, _) in enumerate(self.cfg.streams):
            ces = [cross_entropy(stream_logits[s][l], stream_targets[s][l])
                   for l in range(self.cfg.layers_per_stream)]
            term = ces[0] if len(ces) == 1 else sum(ces[1:], ces[0]) * (1.0 / len(ces))
            out[f"L_{name}"] = term
            parts.append(term)
        stop = bce_with_logits(stop_logits, np.asarray(stop_labels, dtype=stop_logits.dtype))
        out["L_stop"] = stop
        parts.append(stop)
        out["total"] = sum(parts[1:], parts[0])
        return out

    def teacher_forced_scores(self, rows: list[tuple]) -> dict:
        """Teacher-forced figures over `rows` of (text_ids, ref_tokens,
        tgt_tokens), from one array pass per eight rows: argmax accuracy
        per stream over all its heads, the fraction of stop states where
        P(stop) > 0.5 agrees with the label, and the fraction of rows
        whose final state fires the stop head."""
        tables = [w.data for w in self._tables()]
        names = [name for name, _ in self.cfg.streams]
        right: dict[str, list] = {key: [] for key in names + ["stop", "stop_final"]}
        for lo in range(0, len(rows), 8):
            stream_logits, stream_targets, stop_logits, stop_labels = self.teacher_forced_batch(rows[lo:lo + 8], tables)
            for name, logits, targets in zip(names, stream_logits, stream_targets):
                right[name] += [lg.argmax(axis=-1) == tg for lg, tg in zip(logits, targets)]
            fires, final = sigmoid(stop_logits) > 0.5, stop_labels > 0.5  # generate()'s stop test
            right["stop"].append(fires == final)
            right["stop_final"].append(fires[final])
        frac = {key: float(np.concatenate(hits).mean()) for key, hits in right.items()}
        return {"teacher_forced_accuracy": {name: frac[name] for name in names},
                "stop_accuracy": frac["stop"], "stop_final_fired": frac["stop_final"]}

    # ---- sampling --------------------------------------------------------

    def _sample_head(self, logits: np.ndarray, top_k: int, temperature: float, rng: Rng) -> int:
        k = min(top_k, logits.shape[-1])
        # Descending by logit, ties to the lowest index, so k=1 is argmax.
        keep = (-logits).argsort(kind="stable")[:k]
        top = logits[keep]
        # The ufunc calls are bitwise `max`, `sum` and `cumsum`, without their wrappers.
        z = (top - np.maximum.reduce(top)) / temperature
        p = np.exp(z)
        p /= np.add.reduce(p)
        u = rng.generator.random()  # bitwise rng.uniform(), without its wrapper
        j = int(np.add.accumulate(p).searchsorted(u, side="right"))
        return int(keep[min(j, k - 1)])

    def _sampling(self, top_k: int | None, temperature: float | None,
                  max_frames: int | None) -> tuple[int, float]:
        """Check `generate`'s sampling arguments; return top_k and temperature, defaulted."""
        top_k = self.cfg.top_k if top_k is None else top_k
        temperature = self.cfg.temperature if temperature is None else temperature
        for name, v in (("top_k", top_k), ("max_frames", max_frames)):
            if v is not None and (not isinstance(v, Integral) or isinstance(v, bool)):
                raise ValueError(f"{name} must be an int, got {v!r}")
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if not (isinstance(temperature, Real) and not isinstance(temperature, bool) and math.isfinite(temperature)):
            raise ValueError(f"temperature must be a finite number, got {temperature!r}")
        if temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        if max_frames is not None and max_frames < 0:
            raise ValueError(f"max_frames must be >= 0, got {max_frames}")
        return top_k, temperature

    def generate(self, text_ids, ref_tokens, rng: Rng | None = None, seed: int = 0,
                 top_k: int | None = None, temperature: float | None = None,
                 max_frames: int | None = None) -> GenerationResult:
        """Sample token frames until the stop head fires or length runs out.

        The trunk runs once over the prompt (text, then reference) and
        keeps every block's keys and values in buffers sized for the
        prompt plus the frame limit; its last block computes only the
        prompt's last state. Each sampled frame's tokens go into
        its preallocated id row, which runs through the trunk as one
        position against those cached keys and values. After the prompt
        and after every frame, P(stop) is checked at the last state
        first (so a saturated stop head yields an empty, terminated
        result), then the frame limit; otherwise one token per stream
        and head is drawn from the renormalized top-k distribution.

        The limit is `max_frames`, clamped to the speech positions the
        reference leaves free (`max_speech_len - n_ref`); reaching it
        sets `truncated`. The stop head, the stream heads and the
        sampling run on the cached pass's state arrays. Every P(stop)
        checked is kept in `stop_probs`, one more than the frames.
        """
        cfg = self.cfg
        rng = rng or Rng(seed)
        top_k, temperature = self._sampling(top_k, temperature, max_frames)
        prompt = self.input_ids(text_ids, ref_tokens)
        n_ref = prompt.shape[0] - np.size(text_ids)
        free = cfg.max_speech_len - n_ref
        limit = free if max_frames is None else min(max_frames, free)
        cache = self.new_cache(prompt.shape[0] + limit)
        steps = self._frame_ids(np.zeros((limit, cfg.n_streams, cfg.layers_per_stream), dtype=np.int64),
                                pos_offset=n_ref)
        # Head i reads its stream's slice of the state and writes id column _TOKEN_COL + i.
        d = cfg.slice_dim
        heads = [(_TOKEN_COL + i, i // cfg.layers_per_stream * d, head) for i, head in enumerate(self.heads)]
        states = self.forward_states(prompt, reads=[1], cache=cache)
        n = 0
        terminated = truncated = False
        stop_probs = []
        while True:
            last = states[-1:]
            stop_p = float(sigmoid(self.stop_head(last)).reshape(()))
            stop_probs.append(stop_p)
            if stop_p > 0.5:
                terminated = True
                break
            if n >= limit:
                truncated = True
                break
            for col, lo, head in heads:
                steps[n, col] = self._sample_head(head(last[:, lo:lo + d])[0], top_k, temperature, rng)
            states = self.forward_states(steps[n:n + 1], cache=cache)
            n += 1
        tokens = steps[:n, _TOKEN_COL:].reshape(n, cfg.n_streams, cfg.layers_per_stream)
        return GenerationResult(tokens=tokens, terminated=terminated, truncated=truncated,
                                stop_probs=np.array(stop_probs))
