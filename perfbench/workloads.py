"""The benchmark's workloads: two synthesis request mixes and a training slice.

Every input descends from the workload seed. Each workload is a closed
loop with one client: the next request or step starts only when the
previous one has returned. All calls into paravox go through module or
class attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from paravox import frontend
from paravox.ar import DualStreamAR
from paravox.engine import Rng
from paravox.flow import VelocityField
from paravox.frontend import BOS_ID, EOS_ID, N_RESERVED, FeatureBundle, make_utterance
from paravox.nar import CoupledNAR
from paravox.pipeline import checkpoint
from paravox.pipeline import infer as infer_mod
from paravox.pipeline import train as train_mod
from paravox.pipeline.config import config_with_overrides, toy_profile
from paravox.pipeline.data import load_corpus_dir, write_corpus_dir
from paravox.tokenizer import ParallelTokenizer

STAGES = train_mod.STAGES
SETUP_REPEATS = 11
# Far enough below any logit untrained weights produce that the stop head
# never fires: every request then runs exactly to its max_frames, and the
# work per request does not depend on the weight values.
STOP_BIAS = -1.0e4

clock = time.perf_counter


@dataclass(frozen=True)
class SynthMix:
    text_symbols: tuple[int, int]   # content symbols per text, plus BOS/EOS
    ref_frames: tuple[int, int]
    out_frames: tuple[int, int]
    pool: int                       # distinct requests, replayed in order


SYNTH_MIXES = {
    # Decode-heavy: generate() reruns the AR trunk over the whole prefix
    # on every frame, so the AR stage is most of each request.
    "synth_long": SynthMix(text_symbols=(4, 6), ref_frames=(10, 16), out_frames=(32, 48), pool=6),
    # Prompt-heavy: texts near max_text_len=16, long references, few
    # frames. Reference encode, NAR and flow are a fifth of a request.
    "synth_short": SynthMix(text_symbols=(13, 14), ref_frames=(40, 50), out_frames=(4, 8), pool=10),
}

# Steps per stage in one slice of the training workload. The toy
# profile's warmup is cut to fit, which changes the learning rate but
# not the work of a step.
TRAIN_STEPS = {"tokenizer": 12, "ar": 12, "nar": 8, "flow": 24}


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def _seed(rng: Rng, tag) -> int:
    return rng.spawn(tag).integers(0, 2 ** 31)


def seeded_config(seed: int, overrides: dict | None = None):
    """The toy profile with every data and model seed drawn from `seed`."""
    rng = Rng(seed)
    doc = {f"{s}.seed": _seed(rng, s) for s in ("data", "tokenizer", "ar", "nar", "flow")}
    doc.update(overrides or {})
    return config_with_overrides(toy_profile(), doc)


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """`n` sizes evenly spaced from lo to hi, in ascending order."""
    return [int(v) for v in np.rint(np.linspace(lo, hi, n))]


# ---- synthesis ---------------------------------------------------------------


@dataclass
class Request:
    text_ids: np.ndarray
    ref: FeatureBundle
    max_frames: int
    seed: int


def _reference(spec, factors, n_frames: int, rng: Rng) -> FeatureBundle:
    """A toy-corpus utterance of exactly `n_frames`, 2-3 frames per symbol."""
    n_sym = -(-n_frames // 3)
    threes = n_frames - 2 * n_sym
    durations = np.array([3] * threes + [2] * (n_sym - threes))[rng.permutation(n_sym)]
    symbols = rng.integers(N_RESERVED, N_RESERVED + spec.vocab_size, (n_sym,))
    speaker = rng.integers(0, spec.n_speakers)
    return make_utterance(spec, factors, symbols, durations, speaker, rng.spawn("utt")).bundle


def build_requests(mix: SynthMix, pcfg, factors, rng: Rng) -> list[Request]:
    """The request pool: sizes fixed by the mix, content and order by `rng`.

    Text, reference and output lengths each spread evenly over their
    range and rise together, so every seed times the same request sizes
    and medians do not drift with the seed.
    """
    n = mix.pool
    sizes = list(zip(_spread(*mix.text_symbols, n), _spread(*mix.ref_frames, n),
                     _spread(*mix.out_frames, n)))
    requests = []
    for i in rng.permutation(n):
        n_text, n_ref, n_out = sizes[i]
        r = rng.spawn(("request", int(i)))
        if n_ref + n_out > pcfg.ar.max_speech_len:
            # Over capacity, generate() does all the work and then raises
            # (a known defect); the mixes stay inside it.
            raise ValueError(f"request {i}: {n_ref} + {n_out} frames exceed "
                             f"max_speech_len={pcfg.ar.max_speech_len}")
        symbols = r.integers(N_RESERVED, N_RESERVED + pcfg.data.vocab_size, (n_text,))
        text_ids = np.concatenate([[BOS_ID], symbols, [EOS_ID]]).astype(np.int64)
        requests.append(Request(text_ids=text_ids,
                                ref=_reference(pcfg.data, factors, n_ref, r.spawn("ref")),
                                max_frames=n_out, seed=_seed(r, "sample")))
    return requests


def synth_setup(workload: str, seed: int, workdir: Path):
    """Seeded untrained weights -> stage checkpoints -> load_pipeline, and the request pool."""
    pcfg = seeded_config(seed)
    corpus = frontend.generate_corpus(pcfg.data)
    tok = ParallelTokenizer(pcfg.build_tokenizer_config())
    ar = DualStreamAR(pcfg.build_ar_config())
    ar.stop_head.bias.data[...] = STOP_BIAS
    nar = CoupledNAR(pcfg.build_nar_config())
    flow_field = VelocityField(pcfg.build_flow_config(), Rng(pcfg.flow.seed))
    doc = pcfg.to_dict()
    for stage, params in (("tokenizer", tok.full_state()), ("ar", ar.state()),
                          ("nar", nar.state()), ("flow", flow_field.state())):
        checkpoint.save_checkpoint(workdir / train_mod.CHECKPOINT_NAMES[stage],
                                   checkpoint.Checkpoint(stage=stage, config=doc, params=params))
    pipe = infer_mod.load_pipeline(workdir)
    requests = build_requests(SYNTH_MIXES[workload], pcfg, corpus.factors, Rng(seed).spawn(workload))
    return pipe, requests


def run_request(pipe, req: Request):
    return infer_mod.infer(pipe, req.text_ids, req.ref, seed=req.seed, max_frames=req.max_frames)


def check_request(result, req: Request, mel_bins: int) -> list[str]:
    problems = []
    want = (req.max_frames, mel_bins)
    if result.mel.shape != want:
        problems.append(f"mel shape {result.mel.shape}, expected {want}")
    elif not np.isfinite(result.mel).all():
        problems.append("mel holds non-finite values")
    if result.tokens is None:
        problems.append("no token streams returned")
    else:
        n_sem, n_ac = result.tokens.semantic.shape[0], result.tokens.acoustic.shape[0]
        if not n_sem == n_ac == req.max_frames:
            problems.append(f"stream lengths {n_sem}/{n_ac}, expected {req.max_frames}")
    if not result.metadata.get("truncated"):
        problems.append("generation did not stop at max_frames")
    return problems


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _attempt(tally: Tally, fn, *args):
    """Call fn; an exception counts one failed operation and returns None."""
    tally.attempted += 1
    try:
        return fn(*args)
    except Exception:  # the loop must survive a failing request and report it
        tally.fail(1, traceback.format_exc(limit=3))
        return None


class Setups:
    """Times SETUP_REPEATS runs of `setup`: the first before the measuring
    window, the rest as equal shares of it pass, so that one burst of
    contention from other tenants of the box does not set the median."""

    def __init__(self, setup, scratch: Path):
        self.setup = setup
        self.scratch = scratch
        self.times: list[float] = []

    def run(self):
        workdir = self.scratch / f"setup{len(self.times)}"
        workdir.mkdir(parents=True)
        t0 = clock()
        out = self.setup(workdir)
        self.times.append(clock() - t0)
        return out

    def due(self, elapsed: float, seconds: float) -> None:
        while len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * seconds / SETUP_REPEATS:
            self.run()

    def finish(self):
        out = None
        while len(self.times) < SETUP_REPEATS:
            out = self.run()
        return out


@dataclass
class Outcome:
    tally: Tally
    metrics: dict            # end-to-end (untraced) or per-layer (traced) values
    checks: list             # failed self-checks; any entry makes the run incorrect
    exact: dict              # counts and digests that must repeat for a seed
    info: dict               # further figures for the results file


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def synth_e2e(workload: str, seed: int, seconds: float, scratch: Path) -> Outcome:
    tally = Tally()
    setups = Setups(lambda d: synth_setup(workload, seed, d), scratch)
    pipe, requests = setups.run()
    mel_bins = pipe.config.data.mel_bins
    run_request(pipe, requests[0])  # warm-up, untimed
    times: list[list[float]] = [[] for _ in requests]
    first = None
    t_start = clock()
    passes = 0
    # Whole passes over the pool, as many as fit in `seconds` (at least
    # one), so every run times the same multiset of requests.
    while passes == 0 or (clock() - t_start) * (passes + 1) / passes <= seconds:
        for i, req in enumerate(requests):
            t0 = clock()
            res = _attempt(tally, run_request, pipe, req)
            dt = clock() - t0
            if res is None:
                continue
            problems = check_request(res, req, mel_bins)
            if problems:
                tally.fail(1, f"request {i}: " + "; ".join(problems))
            else:
                times[i].append(dt)
            if passes == 0 and i == 0:
                first = res
        passes += 1
        setups.due(clock() - t_start, seconds)
    setups.finish()
    replay = _attempt(tally, run_request, pipe, requests[0])
    if replay is not None and (first is None or not same_bits(replay.mel, first.mel)):
        tally.fail(1, "replaying request 0 did not return a bitwise-identical mel")
    # A request's latency is the fastest of its passes: the box is shared,
    # and other tenants only ever add time.
    latencies = [min(t) for t in times if t]
    frames = sum(req.max_frames for req, t in zip(requests, times) if t)
    if not latencies:
        raise RuntimeError("no request succeeded: " + " | ".join(tally.problems[:3]))
    metrics = {
        "setup_s": float(np.median(setups.times)),
        "op_ms_p50": 1e3 * float(np.median(latencies)),
        "op_ms_p90": 1e3 * _percentile(latencies, 90),
        "work_per_s": frames / float(np.sum(latencies)),
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }
    info = {"passes": passes, "pool": len(requests), "frames": frames,
            "setup_s_all": setups.times}
    return Outcome(tally, metrics, [], {}, info)


def _synth_pass(pipe, requests, tally: Tally, tracer=None) -> tuple[list, list]:
    """One pass over the pool: (per-request wall times, results)."""
    times, results = [], []
    for req in requests:
        if tracer is not None:
            tracer.new_op("request")
        t0 = clock()
        results.append(_attempt(tally, run_request, pipe, req))
        times.append(clock() - t0)
    return times, results


def synth_traced(workload: str, seed: int, seconds: float, scratch: Path, tracer) -> Outcome:
    """Pairs of passes over the pool, one untraced and one traced.

    Alternating keeps both modes under the same contention, so the
    overhead ratio compares like with like: each request's fastest
    traced time over its fastest untraced time.
    """
    tally = Tally()
    tracer.new_op("setup")
    tracer.install()
    try:
        pipe, requests = Setups(lambda d: synth_setup(workload, seed, d), scratch).finish()
    finally:
        tracer.uninstall()
    mel_bins = pipe.config.data.mel_bins
    run_request(pipe, requests[0])  # warm-up, untimed
    best = {False: np.full(len(requests), np.inf), True: np.full(len(requests), np.inf)}
    first_mels, pairs = [], 0
    t_start = clock()
    while pairs == 0 or (clock() - t_start) * (pairs + 1) / pairs <= seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                times, results = _synth_pass(pipe, requests, tally, tracer if traced else None)
            finally:
                tracer.uninstall()
            best[traced] = np.minimum(best[traced], times)
            for i, (res, req) in enumerate(zip(results, requests)):
                problems = check_request(res, req, mel_bins) if res is not None else []
                if problems:
                    tally.fail(1, f"request {i}: " + "; ".join(problems))
                if res is None or problems:
                    continue
                if len(first_mels) < len(requests):
                    first_mels.append(res.mel)
                elif not same_bits(res.mel, first_mels[i]):
                    tally.fail(1, f"request {i}: mel differs between passes")
        pairs += 1
    n_requests = pairs * len(requests)
    frames = pairs * sum(req.max_frames for req in requests)
    overhead = float(best[True].sum() / best[False].sum()) - 1.0
    metrics, checks = layer_metrics(tracer, "synth", n_requests, frames=frames, overhead=overhead)
    digest = hashlib.sha256()
    for mel in first_mels:
        digest.update(mel.tobytes())
    exact = {k: metrics[k] for k in ("ar.forward_states.calls", "ar.forward_states.positions",
                                     "nar.predict.calls")}
    exact["mel_sha256"] = digest.hexdigest()
    info = {"pairs": pairs, "pool": len(requests)}
    return Outcome(tally, metrics, checks, exact, info)


# ---- training ----------------------------------------------------------------


def train_config(seed: int):
    base = toy_profile()
    rng = Rng(seed)
    overrides = {}
    for stage, n in TRAIN_STEPS.items():
        overrides[f"schedules.{stage}.total_steps"] = n
        overrides[f"schedules.{stage}.warmup_steps"] = min(base.schedules[stage].warmup_steps, n)
        overrides[f"schedules.{stage}.seed"] = _seed(rng, ("schedule", stage))
    return seeded_config(seed, overrides)


def train_setup(seed: int, workdir: Path):
    """Config, then the corpus through the same directory round trip the CLI uses."""
    pcfg = train_config(seed)
    corpus = frontend.generate_corpus(pcfg.data)
    write_corpus_dir(corpus, workdir / "data")
    _, items = load_corpus_dir(workdir / "data")
    return pcfg, items


class StepClock:
    """Notes when each `Adam.step` returns. A training step's time is the
    interval between two consecutive returns within one stage."""

    def __init__(self):
        self.returns: list[float] = []
        self.tracer = None
        self.stage = ""
        self._original = None

    def install(self) -> None:
        original = self._original = train_mod.Adam.__dict__["step"]
        steps = self

        def step(opt, grads, lr):
            norm = original(opt, grads, lr)
            steps.returns.append(clock())
            if steps.tracer is not None:
                steps.tracer.new_op(steps.stage)
            return norm

        train_mod.Adam.step = step

    def uninstall(self) -> None:
        train_mod.Adam.step = self._original


@dataclass
class StageRun:
    stage: str
    wall: float
    intervals: np.ndarray
    digest: str | None


def loss_digest(losses: dict) -> str:
    """sha256 of every loss curve as float64, keys in sorted order."""
    h = hashlib.sha256()
    for key in sorted(losses):
        h.update(key.encode())
        h.update(np.asarray(losses[key], dtype="<f8").tobytes())
    return h.hexdigest()


def _finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    return math.isfinite(float(obj))


def run_stage(stage: str, pcfg, items, ckpt_dir: Path, steps: StepClock, tally: Tally,
              tracer=None) -> StageRun:
    n_steps = pcfg.schedules[stage].total_steps
    tally.attempted += n_steps
    steps.returns.clear()
    steps.stage = stage
    if tracer is not None:
        tracer.new_op(stage)
    t0 = clock()
    try:
        report = train_mod.train_stage(stage, items, pcfg, ckpt_dir / train_mod.CHECKPOINT_NAMES[stage])
    except Exception:  # a diverged or crashed stage is counted, not fatal
        tally.fail(n_steps, f"{stage}: " + traceback.format_exc(limit=3))
        return StageRun(stage, clock() - t0, np.zeros(0), None)
    wall = clock() - t0
    intervals = np.diff(steps.returns)
    problems = []
    if len(steps.returns) != n_steps:
        problems.append(f"{len(steps.returns)} optimiser steps, expected {n_steps}")
    if any(len(c) != n_steps for c in report.losses.values()) or not report.losses:
        problems.append("loss curves do not hold one value per step")
    if not _finite(report.losses) or not _finite(report.final):
        problems.append("non-finite loss or final metric")
    if problems:
        tally.fail(n_steps, f"{stage}: " + "; ".join(problems))
        return StageRun(stage, wall, intervals, None)
    return StageRun(stage, wall, intervals, loss_digest(report.losses))


def _check_digests(runs: list[StageRun], tally: Tally) -> dict:
    """Every run of a stage must reproduce the same loss curves."""
    digests: dict[str, set] = {}
    for run in runs:
        if run.digest is not None:
            digests.setdefault(run.stage, set()).add(run.digest)
    for stage, seen in digests.items():
        if len(seen) > 1:
            tally.fail(TRAIN_STEPS[stage], f"{stage}: {len(seen)} different loss curves for one config")
    return {stage: sorted(seen)[0] for stage, seen in digests.items()}


def _best_intervals(runs: list[StageRun], stage: str) -> np.ndarray:
    """Per step, the fastest of its repeats over identical runs of `stage`;
    other tenants of a shared box only ever add time."""
    parts = [r.intervals for r in runs if r.stage == stage and r.digest is not None]
    return np.min(np.stack(parts), axis=0) if parts else np.zeros(0)


def train_e2e(seed: int, seconds: float, scratch: Path) -> Outcome:
    tally = Tally()
    setups = Setups(lambda d: train_setup(seed, d), scratch)
    pcfg, items = setups.run()
    ckpt_dir = scratch / "ckpt"
    steps = StepClock()
    steps.install()
    try:
        runs: list[StageRun] = []
        cycles = 0
        t_start = clock()
        # Whole four-stage cycles, as many as fit in `seconds` (at least one).
        while cycles == 0 or (clock() - t_start) * (cycles + 1) / cycles <= seconds:
            for stage in STAGES:
                runs.append(run_stage(stage, pcfg, items, ckpt_dir, steps, tally))
                setups.due(clock() - t_start, seconds)
            cycles += 1
        setups.finish()
    finally:
        steps.uninstall()
    digests = _check_digests(runs, tally)
    weights = {s: toy_profile().schedules[s].total_steps for s in STAGES}
    p50, p90, n_intervals, busy = {}, {}, 0, 0.0
    for stage in STAGES:
        iv = _best_intervals(runs, stage)
        if iv.size == 0:
            raise RuntimeError(f"no {stage} step succeeded: " + " | ".join(tally.problems[:3]))
        p50[stage] = 1e3 * float(np.median(iv))
        p90[stage] = 1e3 * _percentile(iv, 90)
        n_intervals += iv.size
        busy += float(iv.sum())
    total_weight = sum(weights.values())
    metrics = {
        "setup_s": float(np.median(setups.times)),
        "op_ms_p50": sum(weights[s] * p50[s] for s in STAGES) / total_weight,
        "op_ms_p90": sum(weights[s] * p90[s] for s in STAGES) / total_weight,
        "work_per_s": pcfg.schedules["ar"].batch_size * n_intervals / busy,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }
    info = {
        "step_ms_p50": p50, "step_ms_p90": p90,
        "overfit_s_est": sum(weights[s] * p50[s] for s in STAGES) / 1e3,
        "cycles": cycles, "setup_s_all": setups.times,
    }
    return Outcome(tally, metrics, [], {f"loss_sha256.{s}": d for s, d in digests.items()}, info)


def train_traced(seed: int, seconds: float, scratch: Path, tracer) -> Outcome:
    """Pairs of four-stage cycles, one untraced and one traced (see synth_traced)."""
    tally = Tally()
    tracer.new_op("setup")
    tracer.install()
    try:
        pcfg, items = Setups(lambda d: train_setup(seed, d), scratch).finish()
    finally:
        tracer.uninstall()
    ckpt_dir = scratch / "ckpt"
    steps = StepClock()
    steps.install()
    runs0, runs1, pairs = [], [], 0
    try:
        t_start = clock()
        while pairs == 0 or (clock() - t_start) * (pairs + 1) / pairs <= seconds:
            runs0 += [run_stage(s, pcfg, items, ckpt_dir, steps, tally) for s in STAGES]
            steps.tracer = tracer
            tracer.install()
            try:
                runs1 += [run_stage(s, pcfg, items, ckpt_dir, steps, tally, tracer) for s in STAGES]
            finally:
                tracer.uninstall()
                steps.tracer = None
            pairs += 1
    finally:
        steps.uninstall()
    digests = _check_digests(runs0 + runs1, tally)

    def best_wall(runs):
        return sum(min(r.wall for r in runs if r.stage == s) for s in STAGES)

    steps_per_stage = {s: pairs * TRAIN_STEPS[s] for s in STAGES}
    metrics, checks = layer_metrics(tracer, "train", sum(steps_per_stage.values()),
                                    overhead=best_wall(runs1) / best_wall(runs0) - 1.0,
                                    runs=runs1, steps=steps_per_stage)
    exact = {f"engine.tape_nodes.{s}": metrics[f"engine.tape_nodes.{s}"] for s in STAGES}
    exact.update({f"loss_sha256.{s}": d for s, d in digests.items()})
    return Outcome(tally, metrics, checks, exact, {"pairs": pairs})


# ---- per-layer metrics ---------------------------------------------------------

# Forward ops reported as self time per operation (request or step).
OP_SPANS = ("nn.block", "nn.attention", "nn.linear", "nn.layer_norm", "engine.gelu",
            "engine.softmax", "engine.embedding", "engine.cross_entropy")
# Stage calls inside one infer(); together they must cover the request.
INFER_STAGES = ("tokenizer.encode_speech", "ar.generate", "nar.complete_tokens",
                "tokenizer.decode_tokens", "flow.sample_mel")
MIN_INFER_COVER = 0.95
SETUP_SPANS = ("frontend.generate_corpus", "checkpoint.save", "checkpoint.load")
# Spans each kind of workload must record at least once; a wrapper that
# stops seeing calls after a rename or a fusion fails the run.
EXERCISED = {
    "synth": SETUP_SPANS + INFER_STAGES + OP_SPANS[:-1] + (
        "pipeline.load_pipeline", "pipeline.infer", "rvq.encode", "ar.forward_states",
        "nar.predict", "flow.field"),
    "train": SETUP_SPANS + OP_SPANS + (
        "pipeline.train_stage", "train.adam", "engine.gradients", "rvq.encode",
        "rvq.train_step", "ar.forward_states", "flow.field"),
}


def layer_metrics(tracer, kind: str, n_ops: int, overhead: float, frames: int = 0,
                  runs: list | None = None, steps: dict | None = None) -> tuple[dict, list]:
    """Per-layer values from the traced phase, and failed self-checks.

    Times are inclusive per operation for stage entry points and self
    time per operation for the forward ops in OP_SPANS. A metric that
    the workload does not exercise reads 0.
    """
    measured = {"request"} if kind == "synth" else set(STAGES)
    tot = tracer.totals(measured)
    everywhere = tracer.totals(set(tracer.op_tags))

    def calls(name, table=tot):
        return table.get(name, (0, 0.0, 0.0))[0]

    def incl_ms(name, table=tot):
        return 1e3 * table.get(name, (0, 0.0, 0.0))[1]

    def per(value, n):
        return value / n if n else 0.0

    m = {
        "ar.generate.ms": per(incl_ms("ar.generate"), n_ops),
        "ar.generate.ms_per_frame": per(incl_ms("ar.generate"), frames),
        "ar.forward_states.calls": per(calls("ar.forward_states"), n_ops),
        "ar.forward_states.positions": per(tracer.count("ar.forward_states.positions", measured), n_ops),
        "ar.forward_states.ms": per(incl_ms("ar.forward_states"), n_ops),
        "nar.complete_tokens.ms": per(incl_ms("nar.complete_tokens"), n_ops),
        "nar.predict.calls": per(calls("nar.predict"), n_ops),
        "flow.sample_mel.ms": per(incl_ms("flow.sample_mel"), n_ops),
        "flow.field.ms_per_step": per(incl_ms("flow.field"), calls("flow.field")),
        "tokenizer.encode_speech.ms": per(incl_ms("tokenizer.encode_speech"), n_ops),
        "tokenizer.decode_tokens.ms": per(incl_ms("tokenizer.decode_tokens"), n_ops),
        "rvq.encode.ms": per(incl_ms("rvq.encode"), n_ops),
        "rvq.train_step.ms": per(incl_ms("rvq.train_step"), (steps or {}).get("tokenizer", 0)),
    }
    for name in OP_SPANS:
        m[f"{name}.ms"] = per(1e3 * tot.get(name, (0, 0.0, 0.0))[2], n_ops)
    for stage in STAGES:
        n = (steps or {}).get(stage, 0)
        stage_tot = tracer.totals({stage}) if n else {}
        stage_runs = [r for r in runs or [] if r.stage == stage and r.digest is not None]
        best = _best_intervals(stage_runs, stage)
        grad_ms = per(incl_ms("engine.gradients", stage_tot), n)
        adam_ms = per(incl_ms("train.adam", stage_tot), n)
        m[f"train.{stage}.step_ms_p50"] = 1e3 * float(np.median(best)) if best.size else 0.0
        m[f"train.{stage}.step_ms_p90"] = 1e3 * _percentile(best, 90) if best.size else 0.0
        m[f"train.{stage}.forward_ms"] = (
            1e3 * float(np.mean(np.concatenate([r.intervals for r in stage_runs])))
            - grad_ms - adam_ms if best.size else 0.0)
        m[f"engine.gradients.{stage}.ms"] = grad_ms
        m[f"train.adam.{stage}.ms"] = adam_ms
        m[f"engine.tape_nodes.{stage}"] = per(tracer.count("engine.tape_nodes", {stage}), n)
        # Stage wall time outside its steps; the first step, which has no
        # interval of its own, is counted at the run's mean step time.
        m[f"train.{stage}.fixed_ms"] = 1e3 * float(np.median(
            [r.wall - r.intervals.sum() * TRAIN_STEPS[stage] / r.intervals.size
             for r in stage_runs])) if best.size else 0.0
    for name in SETUP_SPANS:
        m[f"{name}.ms"] = per(incl_ms(name, everywhere), calls(name, everywhere))
    m["trace.overhead_ratio"] = overhead

    checks = [f"span {name} recorded no call on a {kind} workload"
              for name in EXERCISED[kind] if calls(name, everywhere) == 0]
    if kind == "train":
        for stage in STAGES:
            stage_tot = tracer.totals({stage})
            for name in ("train.adam", "engine.gradients"):
                if calls(name, stage_tot) == 0:
                    checks.append(f"span {name} recorded no call in the {stage} stage")
    cover = 0.0
    if kind == "synth":
        total, covered = tracer.child_cover("pipeline.infer", INFER_STAGES)
        cover = per(covered, total)
        if cover < MIN_INFER_COVER:
            checks.append(f"stage spans cover {cover:.4f} of infer() time, "
                          f"below {MIN_INFER_COVER}")
    m["pipeline.infer.coverage"] = cover
    return m, checks
