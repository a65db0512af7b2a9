"""Four-stage inference: reference tokens, top pair, full grid, mel.

Loading a pipeline means reading every stage checkpoint from one
directory and checking that they were all trained against the same
config — any disagreeing field aborts with the dotted field names
rather than a shape error three layers deep. The models are built
from a `BlankRng`, without a random draw: every value comes from the
checkpoints, whose loads reject a missing or extra name, a wrong shape
and a non-finite value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..ar import DualStreamAR
from ..engine import BlankRng, Rng
from ..flow import SolverConfig, VelocityField, sample_mel
from ..frontend import FeatureBundle, Vocabulary, check_framed, default_alphabet, save_arrays
from ..nar import CoupledNAR
from ..tokenizer import ParallelTokenizer
from .checkpoint import Checkpoint, IncompatibleCheckpoints
from .config import PipelineConfig
from .train import CHECKPOINT_NAMES, COMPAT_SECTIONS, load_stage


@dataclass
class LoadedPipeline:
    config: PipelineConfig
    tokenizer: ParallelTokenizer
    ar: DualStreamAR
    nar: CoupledNAR | None
    flow: VelocityField

    @property
    def vocabulary(self) -> Vocabulary:
        return Vocabulary(default_alphabet(self.config.data.vocab_size))


@dataclass
class ParallelTokens:
    """The parallel-mode view of a (T, 2, L) token grid: each stream's (T, L) tokens."""

    semantic: np.ndarray
    acoustic: np.ndarray

    def __post_init__(self):
        if self.semantic.shape[0] != self.acoustic.shape[0]:
            raise ValueError(f"stream lengths differ: semantic {self.semantic.shape[0]} vs acoustic {self.acoustic.shape[0]}")

    @property
    def n_frames(self) -> int:
        return self.semantic.shape[0]


@dataclass
class InferenceResult:
    tokens: ParallelTokens | None   # None for merged streams or an empty generation
    mel: np.ndarray
    metadata: dict


def load_pipeline(ckpt_dir) -> LoadedPipeline:
    root = Path(ckpt_dir)

    def load(stage: str, base: dict | None = None) -> Checkpoint:
        path = root / CHECKPOINT_NAMES[stage]
        return load_stage(path, stage, FileNotFoundError(f"missing {stage} checkpoint: {path}"),
                          base, COMPAT_SECTIONS, lambda fields: IncompatibleCheckpoints(
                              f"tokenizer and {stage} checkpoints disagree on: {fields}"))

    tok_ckpt = load("tokenizer")
    base = tok_ckpt.config
    pcfg = PipelineConfig.from_dict(base)
    blank = BlankRng()
    tok = ParallelTokenizer(pcfg.build_tokenizer_config(), blank)
    tok.load_full_state(tok_ckpt.params)
    ar = DualStreamAR(pcfg.build_ar_config(), blank)
    ar.load_state(load("ar", base).params)
    field = VelocityField(pcfg.build_flow_config(), blank)
    field.load_state(load("flow", base).params)
    nar = None
    if pcfg.ablation.use_refiner:
        nar = CoupledNAR(pcfg.build_nar_config(), blank)
        nar.load_state(load("nar", base).params)
    return LoadedPipeline(config=pcfg, tokenizer=tok, ar=ar, nar=nar, flow=field)


def encode_text(pipe: LoadedPipeline, text: str) -> np.ndarray:
    return pipe.vocabulary.encode(text)


def infer(pipe: LoadedPipeline, text_ids: np.ndarray, ref_bundle: FeatureBundle,
          seed: int = 0, top_k: int | None = None, temperature: float | None = None,
          flow_steps: int | None = None, max_frames: int | None = None) -> InferenceResult:
    """Run the full pipeline for one utterance.

    `text_ids` must already be framed with the sequence marks (use
    `encode_text` for raw strings). The reference bundle supplies both
    the prompt tokens and the speaker condition. All sampling descends
    from `seed`. Text, sampling settings, flow steps and the reference
    length (against the generator's, refiner's and tokenizer's limits)
    are checked before any encoding. Generation stops at the refiner's
    `max_target_len`, which sets `truncated` like the generator's own.

    Besides the settings and why generation stopped, `metadata` holds
    `stop_probs`, the generator's P(stop) after the prompt and after each
    frame, and `stage_ms`, the wall ms of reference encode, AR, NAR,
    token decode and flow (0.0 for a stage that did not run).
    """
    cfg = pipe.config
    pipe.ar.input_ids(text_ids, [])
    check_framed(np.asarray(text_ids), "text_ids")
    top_k, temperature = pipe.ar._sampling(top_k, temperature, max_frames)
    solver = SolverConfig(n_steps=cfg.flow.default_steps if flow_steps is None else flow_steps, seed=0)
    n_ref, max_speech = ref_bundle.n_frames, pipe.ar.cfg.max_speech_len
    if n_ref > max_speech - 1:
        raise ValueError(f"reference of {n_ref} frames exceeds the generator's limit of "
                         f"{max_speech - 1} (max_speech_len={max_speech} less one frame to generate)")
    if pipe.nar is not None:
        if n_ref > pipe.nar.cfg.max_ref_len:
            raise ValueError(f"reference of {n_ref} frames exceeds the refiner's "
                             f"max_ref_len={pipe.nar.cfg.max_ref_len}")
        cap = pipe.nar.cfg.max_target_len
        max_frames = cap if max_frames is None else min(max_frames, cap)
    if not 1 <= n_ref <= pipe.tokenizer.cfg.max_frames:
        raise ValueError(f"reference of {n_ref} frames is outside the tokenizer's range of 1 to "
                         f"max_frames={pipe.tokenizer.cfg.max_frames}")
    rng = Rng(seed)
    stage_ms = dict.fromkeys(("encode", "ar", "nar", "decode", "flow"), 0.0)
    t0 = time.perf_counter()
    ref_grid, cond = pipe.tokenizer.encode_speech(ref_bundle)
    t0 = _lap(stage_ms, "encode", t0)
    layers = pipe.ar.cfg.layers_per_stream
    gen = pipe.ar.generate(text_ids, ref_grid[:, :, :layers], rng=rng.spawn("ar"),
                           top_k=top_k, temperature=temperature, max_frames=max_frames)
    t0 = _lap(stage_ms, "ar", t0)
    n_frames = gen.n_frames
    metadata = {
        "seed": int(seed),
        "n_text_ids": int(len(text_ids)),
        "n_ref_frames": int(ref_grid.shape[0]),
        "n_frames": int(n_frames),
        "terminated": bool(gen.terminated),
        "truncated": bool(gen.truncated),
        "top_k": int(top_k),
        "temperature": float(temperature),
        "flow_steps": int(solver.n_steps),
        "stop_probs": gen.stop_probs.tolist(),
        "stage_ms": stage_ms,
    }
    if n_frames == 0:
        mel = np.zeros((0, cfg.data.mel_bins), dtype=np.float32)
        return InferenceResult(tokens=None, mel=mel, metadata=metadata)
    if pipe.nar is not None:
        grid = pipe.nar.complete_tokens(gen.tokens[:, :, 0], ref_grid)
        t0 = _lap(stage_ms, "nar", t0)
    else:
        grid = gen.tokens    # the AR heads already emitted every layer
    tokens = (ParallelTokens(semantic=grid[:, 0], acoustic=grid[:, 1])
              if cfg.ablation.parallel_streams else None)
    features = pipe.tokenizer.decode_tokens(grid)
    t0 = _lap(stage_ms, "decode", t0)
    mel = sample_mel(pipe.flow, features, cond, solver, rng.spawn("flow"))
    _lap(stage_ms, "flow", t0)
    return InferenceResult(tokens=tokens, mel=mel, metadata=metadata)


def _lap(stage_ms: dict, stage: str, t0: float) -> float:
    """Record the ms since `t0` under `stage`; return the time now."""
    now = time.perf_counter()
    stage_ms[stage] = 1e3 * (now - t0)
    return now


def write_mel_file(path, result: InferenceResult) -> None:
    """Persist the sampled mel in the standard feature container."""
    arrays = {"mel": result.mel.astype(np.float32)}
    if result.tokens is not None:
        arrays["semantic_tokens"] = result.tokens.semantic.astype(np.float32)
        arrays["acoustic_tokens"] = result.tokens.acoustic.astype(np.float32)
    save_arrays(path, arrays)
