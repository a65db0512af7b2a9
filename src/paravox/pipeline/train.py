"""Stage-wise training: Adam with clipping, warmup/cosine schedules,
and one deterministic training loop that every pipeline stage runs.

Stages run separately and in order. The tokenizer stage trains the
quantizers (EMA), the speaker pathway, and a throwaway mel decoder
whose only job is to supply the mel-matching gradient that shapes the
condition encoder; the checkpointed decoder is trained afterwards by
the flow stage against the then-frozen tokenizer. The AR and refiner
stages consume tokens from the frozen tokenizer, never touching its
weights, so its checkpoint bytes stay fixed once written.

Every batch index, noise draw, and reseed comes from counter-based
streams keyed by (schedule seed, step), so a rerun with the same config
reproduces the loss curve exactly.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..ar import DualStreamAR
from ..engine import (BlankRng, GradSlot, PendingUpdate, Rng, Tensor, check_fields, gradients,
                      param_grad_pool)
from ..flow import VelocityField, cfm_train_loss
from ..nar import CoupledNAR
from ..tokenizer import ParallelTokenizer
from .checkpoint import Checkpoint, CheckpointError, load_stage_checkpoint, save_checkpoint
from .data import CorpusItem, CorpusView, corpus_view

STAGES = ("tokenizer", "ar", "nar", "flow")

# The config sections every stage of one pipeline must share: all but its
# `name` and `schedules`. Training checks the frozen tokenizer against
# them, and loading checks every checkpoint, so a stage that trains loads.
COMPAT_SECTIONS = ("data", "tokenizer", "ar", "nar", "flow", "ablation")

CHECKPOINT_NAMES = {stage: f"{stage}.ckpt" for stage in STAGES}


class TrainingDiverged(RuntimeError):
    """A stage produced a non-finite loss; the message says where."""


class MissingPrerequisite(FileNotFoundError):
    """A stage needs an earlier stage's checkpoint that is not there."""


@dataclass
class TrainSchedule:
    """Step budget and learning-rate shape for one stage.

    The rate climbs linearly from `base_lr` at step 0 to `peak_lr` at
    `warmup_steps`, then either stays at the peak (`constant`) or
    follows a half-cosine down to `final_lr` at `total_steps`.
    """

    total_steps: int
    warmup_steps: int
    kind: str
    base_lr: float
    peak_lr: float
    final_lr: float
    batch_size: int
    seed: int

    ZERO_OK = ("warmup_steps",)

    def validate(self) -> None:
        check_fields(self)
        if self.warmup_steps > self.total_steps:
            raise ValueError(f"warmup_steps {self.warmup_steps} outside [0, {self.total_steps}]")
        if self.kind not in ("constant", "cosine"):
            raise ValueError(f"schedule kind must be 'constant' or 'cosine', got {self.kind!r}")

    def learning_rate(self, step: int) -> float:
        if step < 0:
            raise ValueError("step must be >= 0")
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.base_lr + (self.peak_lr - self.base_lr) * (step / self.warmup_steps)
        if self.kind == "constant":
            return self.peak_lr
        span = max(1, self.total_steps - self.warmup_steps)
        progress = min(1.0, (step - self.warmup_steps) / span)
        return self.final_lr + 0.5 * (self.peak_lr - self.final_lr) * (1.0 + math.cos(math.pi * progress))


# Adam's chunks close at this many elements: few numpy calls per step,
# and a chunk stays in cache across the step's passes over it.
CHUNK_SIZE = 65_536


class Adam:
    """Adam with decoupled global-norm gradient clipping.

    Moments are float64. Tensors are packed, in key order, into chunks
    closed at the first tensor that brings them to `CHUNK_SIZE` elements,
    or to half of all the elements if that is fewer, so that a small
    model's update still splits between the worker and the caller (see
    below). A chunk is one float64 block whose rows are the moments
    (`m[k]`, `v[k]` are views) and two work buffers. A step runs each
    textbook op once per chunk, in the formula's order, then updates each
    parameter, its module's own array, in place from its slice, rounded
    once: nothing is allocated and the bits are the formula's.

    A step has two phases. The first loads each gradient into its float64
    slice of the first work row and squares it into the second, summing
    the square per tensor (`slots`, one `engine.GradSlot` per parameter);
    the norm adds those sums in key order, and `step` returns it. The
    second, the update, is an `engine.PendingUpdate` over the chunks in
    key order. With a worker, each parameter is pending from `step` until
    its chunk is written, which happens at the latest when an op reads it
    (its gate), at the next `step`, or at the end of the `with`. So the
    update runs behind the caller's next forward pass, and each op reads
    the updated bits.

    The loads run in the backward sweep when `slots` is lent to it
    (`engine.param_grad_pool`, as `_fit` does): the job that makes a
    parameter's gradient loads it. `step` loads inline only a gradient
    that is not the array a job loaded: a parameter with more than one
    contribution, a sweep without the slots, or a direct call. The bits
    are the same either way.

    Entered as a context manager with more than one usable CPU, the
    optimiser owns a pool of one worker until exit. The worker takes
    update chunks while the caller goes on, and `_fit` lends the pool to
    each step's backward sweep. The chunks are the same at every CPU
    count, and every element's arithmetic is its own, so the bits are
    too. Outside a `with`, or on one CPU, there is no worker, and `step`
    writes every chunk before it returns.
    """

    def __init__(self, params: dict[str, Tensor], beta1: float = 0.9, beta2: float = 0.95,
                 eps: float = 1e-8, clip_norm: float | None = 2.0):
        self.params = dict(params)
        self.beta1, self.beta2, self.eps, self.clip_norm = beta1, beta2, eps, clip_norm
        self.m, self.v, self.t = {}, {}, 0
        self._loads: list[tuple[str, GradSlot]] = []  # (key, slot) in key order
        self._chunks = []  # (tensors, chunk) in key order, as a `PendingUpdate` takes them
        keys = list(self.params)
        close = min(CHUNK_SIZE, sum(p.data.size for p in self.params.values()) / 2)
        run, n = [], 0
        for k in keys:
            run.append(k)
            n += self.params[k].data.size
            if n >= close or k == keys[-1]:
                chunk = self._chunk(run)
                self._chunks.append((chunk[1], chunk))
                run, n = [], 0
        self.slots = {self.params[k]: slot for k, slot in self._loads}
        self._pool: ThreadPoolExecutor | None = None
        self._run: PendingUpdate | None = None  # the last step's update, while it is pending

    def __enter__(self) -> Adam:
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1:
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="adam")
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            self._settle(raise_error=exc_type is None)  # after another error, that one propagates
        finally:
            if self._pool is not None:
                self._pool.shutdown()
            self._pool = None

    def _settle(self, raise_error: bool = True) -> None:
        """Finish the last step's update; raise its error, if any."""
        run, self._run = self._run, None
        if run is not None:
            run.finish(raise_error)

    def _chunk(self, keys: list[str]) -> tuple:
        """A new chunk over `keys`, whose moment views go into `m` and `v`
        and whose work rows' views, as (key, slot), onto `_loads`."""
        tensors = [self.params[k] for k in keys]
        ends = np.cumsum([p.data.size for p in tensors])
        block = np.zeros((4, ends[-1]))
        m_k, v_k, g_k, sq_k = ([row[e - p.data.size:e].reshape(p.shape) for p, e in zip(tensors, ends)]
                               for row in block)
        self.m.update(zip(keys, m_k))
        self.v.update(zip(keys, v_k))
        self._loads += [(k, GradSlot(g, sq)) for k, g, sq in zip(keys, g_k, sq_k)]
        return keys, tensors, block, g_k

    def _update(self, chunk: tuple, scale: float, lr: float, b1c: float, b2c: float) -> None:
        _, tensors, (m, v, g, tmp), g_k = chunk
        if scale != 1.0:
            g *= scale
        # m = beta1 m + (1 - beta1) g
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        # v = beta2 v + (1 - beta2) g^2
        np.square(g, out=tmp)
        tmp *= 1.0 - self.beta2
        v *= self.beta2
        v += tmp
        # update = lr (m / b1c) / (sqrt(v / b2c) + eps), reusing g
        np.divide(m, b1c, out=g)
        g *= lr
        np.divide(v, b2c, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        g /= tmp
        # p = p - update, in float64, rounded once to p's dtype
        for p, update in zip(tensors, g_k):
            np.subtract(p.data, update, out=p.data, casting="unsafe")

    def step(self, grads: dict[str, np.ndarray], lr: float) -> float:
        """Start one update, after finishing the last; returns the pre-clip
        global gradient norm. A gradient that is not the array a sweep's
        job loaded into its slot is loaded here. The parameters are
        pending until their chunk is written (see the class)."""
        self._settle()
        sq = 0.0
        for k, slot in self._loads:
            g, src, slot.src = grads[k], slot.src, None
            if src is not g:
                slot.load(g)
            sq += slot.sq_sum
        norm = math.sqrt(sq)
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm > 0:
            scale = self.clip_norm / norm
        self.t += 1
        args = (scale, lr, 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t)
        run = PendingUpdate(self._chunks, lambda chunk: self._update(chunk, *args))
        if self._pool is None:
            run.finish()
        else:
            run.start(self._pool)
            self._run = run
        return norm


STEP_PHASES = ("forward", "gated", "backward", "optimiser")


@dataclass
class StageReport:
    """What one stage's training did: per-step loss terms, pre-clip global
    gradient norms and wall ms of each step's phases (`STEP_PHASES`: the
    batch and loss outside gates, the wait in gates for the last step's
    update, the backward sweep, the optimiser step), and the stage's
    end-of-training metrics."""

    stage: str
    steps: int
    wall_time_s: float
    losses: dict[str, list] = field(default_factory=dict)
    grad_norms: list[float] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    step_ms: dict[str, list[float]] = field(default_factory=dict)

    def summary(self) -> str:
        bits = [f"{self.stage}: {self.steps} steps in {self.wall_time_s:.1f}s"]
        for key, curve in self.losses.items():
            if curve:
                bits.append(f"{key} {curve[0]:.4g} -> {curve[-1]:.4g}")
        if self.grad_norms:
            bits.append(f"grad norm {self.grad_norms[0]:.4g} -> {self.grad_norms[-1]:.4g} "
                        f"(max {max(self.grad_norms):.4g})")
        if any(self.step_ms.values()):
            bits.append("median step ms " + ", ".join(
                f"{phase} {float(np.median(ms)):.3g}" for phase, ms in self.step_ms.items() if ms))
        return "; ".join(bits)


def _record(losses: dict, terms: dict) -> None:
    for k, v in terms.items():
        losses.setdefault(k, []).append(float(v))


def _check_finite(stage: str, step: int, terms: dict) -> None:
    bad = {k: v for k, v in terms.items() if not np.isfinite(v)}
    if bad:
        raise TrainingDiverged(f"{stage} stage: non-finite loss at step {step}: {bad}")


def _progress(stage: str, step: int, total: int, terms: dict, quiet: bool) -> None:
    if quiet or (step % max(1, total // 10) and step != total - 1):
        return
    shown = ", ".join(f"{k}={v:.4f}" for k, v in terms.items())
    print(f"[{stage}] step {step + 1}/{total}  {shown}", flush=True)


def _fit(stage: str, pcfg, params: dict[str, Tensor], n_items: int, step_loss, quiet: bool) -> StageReport:
    """The training loop every stage runs, under `pcfg.schedules[stage]`.

    Each step first draws its batch of item indices, with replacement,
    from `srng`, the step's own stream keyed by (schedule seed, step):
    `srng.integers(0, n_items, (batch_size,))`. `step_loss(idx, srng)`
    returns (loss to differentiate, float loss terms to record). The
    report's `final` is left for the stage to fill. On more than one
    usable CPU the optimiser has one worker thread, which lives for the
    loop and stops when it ends or raises. Each step's backward sweep
    hands that worker the parameter gradients, and the job that makes a
    gradient loads it into the optimiser's float64 slots
    (`engine.param_grad_pool` with `Adam.slots`), so `step` loads inline
    only a parameter with more than one contribution. Each step's
    parameter update runs behind the next step's batch and loss, whose
    ops wait for the parameters they read (`Adam`). None of this changes
    a bit. The last update is written when the `with` ends, so the
    parameters are settled when `_fit` returns.
    """
    sched = pcfg.schedules[stage]
    sched.validate()
    names, tensors = list(params), list(params.values())
    rng = Rng(sched.seed)
    losses: dict[str, list] = {}
    grad_norms: list[float] = []
    step_ms: dict[str, list[float]] = {phase: [] for phase in STEP_PHASES}
    t0 = time.perf_counter()
    with Adam(params) as opt, param_grad_pool(opt._pool, opt.slots):
        for step in range(sched.total_steps):
            t_step = time.perf_counter()
            srng = rng.spawn(("step", step))
            loss, terms = step_loss(srng.integers(0, n_items, (sched.batch_size,)), srng)
            _check_finite(stage, step, terms)
            t_loss = time.perf_counter()
            gated = opt._run.gated_s if opt._run is not None else 0.0  # the last step's update
            grads = dict(zip(names, gradients(loss, tensors)))
            t_grads = time.perf_counter()
            grad_norms.append(opt.step(grads, sched.learning_rate(step)))
            t_opt = time.perf_counter()
            for phase, s in zip(STEP_PHASES, (t_loss - t_step - gated, gated, t_grads - t_loss, t_opt - t_grads)):
                step_ms[phase].append(1e3 * s)
            _record(losses, terms)
            _progress(stage, step, sched.total_steps, terms, quiet)
    return StageReport(stage, sched.total_steps, time.perf_counter() - t0, losses, grad_norms, step_ms=step_ms)


def _total_and_terms(out: dict):
    """(out["total"], every term as a float) of a dict of loss tensors."""
    return out["total"], {k: float(v.data) for k, v in out.items()}


# ---- stages ---------------------------------------------------------------------


def train_tokenizer(items: list[CorpusItem], pcfg, quiet: bool = True):
    """Quantizers by EMA plus the speaker pathway by backprop.

    Returns (tokenizer, report). A scratch mel decoder trains alongside
    to give the condition encoder a mel-grounded gradient; it is not the
    checkpointed one and is dropped.
    """
    tok = ParallelTokenizer(pcfg.build_tokenizer_config())
    scratch = VelocityField(pcfg.build_flow_config(), Rng(pcfg.flow.seed).spawn("scratch"))
    params = dict(tok.named_parameters())
    params.update({f"scratch.{k}": v for k, v in scratch.named_parameters().items()})

    def step_loss(idx: np.ndarray, srng: Rng):
        batch = [items[i].bundle for i in idx]
        for name, frames in tok.stream_frames(batch).items():
            tok.stacks[name].train_step(frames, srng.spawn(("reseed", name)))
        return tok.tokenizer_loss(batch, scratch, [srng.spawn(("cfm", j)) for j in range(len(idx))])

    report = _fit("tokenizer", pcfg, params, len(items), step_loss, quiet)
    report.final = tokenizer_metrics(tok, items, tok.encode_grids([it.bundle for it in items]))
    return tok, report


def tokenizer_metrics(tok: ParallelTokenizer, items: list[CorpusItem], grids: list[np.ndarray]) -> dict:
    """Per-stack reconstruction, utilization and perplexity over the items,
    read from their `encode_grids` grids; `decode` gives bitwise the
    codeword sums the encode subtracted."""
    out: dict = {"recon_mse": {}, "input_variance": {}, "utilization": {}, "perplexity": {}}
    tokens = np.concatenate(grids)
    for s, (name, frames) in enumerate(tok.stream_frames([it.bundle for it in items]).items()):
        stack = tok.stacks[name]
        quantized = stack.decode(tokens[:, s])
        out["recon_mse"][name] = float(((frames - quantized) ** 2).mean())
        out["input_variance"][name] = float(frames.var())
        out["utilization"][name] = stack.utilization(tokens[:, s])
        out["perplexity"][name] = stack.perplexity(tokens[:, s])
    return out


def train_ar(view: CorpusView, pcfg, quiet: bool = True):
    model = DualStreamAR(pcfg.build_ar_config())
    layers = model.cfg.layers_per_stream

    def step_loss(idx: np.ndarray, srng: Rng):
        return _total_and_terms(model.ar_loss(*model.teacher_forced_batch(view.ar_rows(idx, layers))))

    report = _fit("ar", pcfg, model.named_parameters(), len(view.items), step_loss, quiet)
    report.final = model.teacher_forced_scores(view.ar_rows(range(len(view.items)), layers))
    return model, report


def train_nar(view: CorpusView, pcfg, quiet: bool = True):
    model = CoupledNAR(pcfg.build_nar_config())
    report = _fit("nar", pcfg, model.named_parameters(), len(view.items),
                  lambda idx, srng: _total_and_terms(model.nar_loss(view.pairs(idx))), quiet)
    report.final = {"stage_accuracy": model.stage_scores(view.pairs(range(len(view.items))))[0]}
    return model, report


def train_flow(view: CorpusView, pcfg, tok: ParallelTokenizer, quiet: bool = True):
    """Train the checkpointed mel decoder against the frozen tokenizer."""
    field_model = VelocityField(pcfg.build_flow_config(), Rng(pcfg.flow.seed))
    feats = [tok.decode_tokens(grid) for grid in view.grids]
    conds = tok.speaker_conditions([it.bundle.speaker_frames for it in view.items])

    def step_loss(idx: np.ndarray, srng: Rng):
        loss = cfm_train_loss(field_model, [view.items[i].bundle.mel for i in idx], [feats[i] for i in idx],
                              conds[idx], [srng.spawn(("noise", j)) for j in range(len(idx))])
        return loss, {"L_Flow": float(loss.data), "total": float(loss.data)}

    report = _fit("flow", pcfg, field_model.named_parameters(), len(view.items), step_loss, quiet)
    return field_model, report


# ---- orchestration ---------------------------------------------------------------


def config_mismatches(a: dict, b: dict, sections) -> list[str]:
    """Dotted paths where two config snapshots disagree, within `sections`."""
    out = []

    def walk(x, y, path):
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x or key not in y:
                    out.append(f"{path}.{key}" if path else key)
                else:
                    walk(x[key], y[key], f"{path}.{key}" if path else key)
        elif x != y:
            out.append(path)

    for section in sections:
        walk(a.get(section), b.get(section), section)
    return out


def load_stage(path: Path, stage: str, missing: Exception, base: dict | None, sections,
               mismatch) -> Checkpoint:
    """The `stage` checkpoint at `path`. Raises `missing` if there is no
    file there, `CheckpointError` naming the first parameter that holds a
    NaN or an infinity and, unless `base` is None, `mismatch(fields)` if
    its config and `base` differ in the dotted `fields` within `sections`."""
    if not path.is_file():
        raise missing
    ckpt = load_stage_checkpoint(path, stage)
    for name, arr in ckpt.params.items():
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter {name!r} holds non-finite values")
    diffs = config_mismatches(base, ckpt.config, sections) if base else []
    if diffs:
        raise mismatch(", ".join(diffs))
    return ckpt


def train_stage(stage: str, items: list[CorpusItem], pcfg, out_ckpt, quiet: bool = True) -> StageReport:
    """Train one stage and write its checkpoint next to its prerequisites.

    `out_ckpt` is the checkpoint file to write; stages after the
    tokenizer look for `tokenizer.ckpt` in the same directory.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    if stage == "nar" and not pcfg.ablation.use_refiner:
        raise ValueError("this config has use_refiner=false (the AR model predicts "
                         "every layer); there is no refiner stage to train")
    out_path = Path(out_ckpt)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if stage == "tokenizer":
        tok, report = train_tokenizer(items, pcfg, quiet=quiet)
        params = tok.full_state()
    else:
        path = out_path.parent / CHECKPOINT_NAMES["tokenizer"]
        ckpt = load_stage(
            path, "tokenizer",
            MissingPrerequisite(f"stage needs the frozen tokenizer at {path}; run `train --stage tokenizer` first"),
            pcfg.to_dict(), COMPAT_SECTIONS,
            lambda fields: ValueError(f"tokenizer checkpoint config differs from this run's config: {fields}"))
        tok = ParallelTokenizer(pcfg.build_tokenizer_config(), BlankRng())
        tok.load_full_state(ckpt.params)
        view = corpus_view(items, tok.encode_grids)
        model, report = train_flow(view, pcfg, tok, quiet) if stage == "flow" else \
            {"ar": train_ar, "nar": train_nar}[stage](view, pcfg, quiet)
        params = model.state()
    save_checkpoint(out_path, Checkpoint(stage=stage, config=pcfg.to_dict(), params=params))
    return report
