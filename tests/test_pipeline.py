"""Training pipeline, checkpoints, corpus IO, inference, and the CLI."""

import copy
import dataclasses
import json
import math
import os
import re
import shutil
import struct
import sys
import threading

import numpy as np
import pytest

from conftest import mini_pipeline_config, run_cli, rvq_residuals
from paravox import engine
from paravox.ar import ARConfig, DualStreamAR
from paravox.engine import BlankRng, Rng, Tensor, embedding, gelu, gradients, linear
from paravox.flow import FlowConfig, SolverConfig, VelocityField
from paravox.frontend import SyntheticSpec, generate_corpus, load_arrays, save_features
from paravox.nar import CoupledNAR, NARConfig
from paravox.pipeline import (Checkpoint, ConfigError, PipelineConfig, TrainSchedule,
                              TrainingDiverged, load_checkpoint, save_checkpoint,
                              toy_profile, train_stage)
from paravox.pipeline import train as train_mod
from paravox.pipeline.checkpoint import CheckpointError
from paravox.pipeline.cli import main as cli_main
from paravox.pipeline.config import config_with_overrides
from paravox.pipeline.data import (CorpusDirError, corpus_items, load_corpus_dir,
                                   reference_pairing, spec_to_doc, write_corpus_dir)
from paravox.pipeline.evaluate import evaluate, format_report
from paravox.pipeline.infer import (IncompatibleCheckpoints, LoadedPipeline, encode_text, infer,
                                    load_pipeline, write_mel_file)
from paravox.pipeline.train import (CHECKPOINT_NAMES, Adam, MissingPrerequisite, train_tokenizer)
from paravox.rvq import RVQStack
from paravox.tokenizer import ParallelTokenizer, TokenizerConfig


# ---- schedules and the optimizer -------------------------------------------


def test_schedule_endpoints_cosine():
    s = TrainSchedule(total_steps=100, warmup_steps=10, kind="cosine",
                      base_lr=1e-4, peak_lr=1e-2, final_lr=1e-3,
                      batch_size=4, seed=0)
    assert s.learning_rate(0) == pytest.approx(1e-4)
    assert s.learning_rate(10) == pytest.approx(1e-2)
    assert s.learning_rate(100) == pytest.approx(1e-3)
    # Midpoint of the cosine span sits halfway between peak and final.
    assert s.learning_rate(55) == pytest.approx((1e-2 + 1e-3) / 2)


def test_schedule_constant_kind():
    s = TrainSchedule(total_steps=50, warmup_steps=5, kind="constant",
                      base_lr=1e-5, peak_lr=2e-3, final_lr=2e-3,
                      batch_size=2, seed=0)
    assert s.learning_rate(0) == pytest.approx(1e-5)
    for step in (5, 20, 50):
        assert s.learning_rate(step) == pytest.approx(2e-3)


def test_schedule_validation_errors():
    good = dict(total_steps=10, warmup_steps=2, kind="cosine", base_lr=1e-4,
                peak_lr=1e-3, final_lr=1e-4, batch_size=2, seed=0)
    for field, value, match in [
        ("total_steps", 0, "total_steps"),
        ("warmup_steps", 11, "warmup_steps"),
        ("kind", "linear", "kind"),
        ("peak_lr", -1.0, "peak_lr"),
        ("batch_size", 0, "batch_size"),
    ]:
        bad = TrainSchedule(**{**good, field: value})
        with pytest.raises(ValueError, match=match):
            bad.validate()


@pytest.mark.parametrize("field, value", [("total_steps", 2.5), ("warmup_steps", 1.5),
                                          ("batch_size", 4.0), ("seed", 2.5), ("seed", True)])
def test_schedule_int_fields_must_be_ints(field, value):
    """A directly built schedule checks its int fields itself: a fractional
    step count would fail inside the training loop's range(), and a
    fractional seed would be truncated silently. A config names the stage."""
    good = dict(total_steps=10, warmup_steps=2, kind="cosine", base_lr=1e-4,
                peak_lr=1e-3, final_lr=1e-4, batch_size=2, seed=0)
    lo = 0 if field in ("warmup_steps", "seed") else 1
    rule = rf"{field} must be an int >= {lo}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=rf"^TrainSchedule\.{rule}"):
        TrainSchedule(**{**good, field: value}).validate()
    pcfg = mini_pipeline_config()
    pcfg.schedules["nar"] = TrainSchedule(**{**good, field: value})
    with pytest.raises(ConfigError, match=rf"^config field schedules\.nar\.{rule}"):
        pcfg.validate()


def test_adam_minimizes_quadratic():
    target = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    opt = Adam({"p": p})
    for step in range(400):
        d = p - Tensor(target)
        loss = (d * d).sum()
        (g,) = gradients(loss, [p])
        opt.step({"p": g}, lr=5e-2 / (1 + step / 100))
    np.testing.assert_allclose(p.data, target, atol=1e-3)


def test_adam_reports_preclip_norm_and_clips():
    p = Tensor(np.zeros(4, dtype=np.float32))
    opt = Adam({"p": p}, clip_norm=1.0)
    norm = opt.step({"p": np.full(4, 100.0)}, lr=1.0)
    assert norm == pytest.approx(200.0)  # ||(100,100,100,100)|| = 200
    # First-step Adam update has magnitude ~lr per coordinate regardless
    # of gradient scale, so the parameter moved but stayed bounded.
    assert np.all(np.abs(p.data) <= 1.0 + 1e-6)


class _ReferenceAdam:
    """Adam.step as the textbook formula, allocating per step; the in-place
    optimiser must reproduce it bit for bit."""

    def __init__(self, params, beta1=0.9, beta2=0.95, eps=1e-8, clip_norm=2.0):
        self.params = dict(params)
        self.beta1, self.beta2, self.eps, self.clip_norm = beta1, beta2, eps, clip_norm
        self.m = {k: np.zeros(p.shape, dtype=np.float64) for k, p in self.params.items()}
        self.v = {k: np.zeros(p.shape, dtype=np.float64) for k, p in self.params.items()}
        self.t = 0

    def step(self, grads, lr):
        sq = 0.0
        for g in grads.values():
            sq += float((g.astype(np.float64) ** 2).sum())
        norm = math.sqrt(sq)
        scale = 1.0
        if self.clip_norm is not None and norm > self.clip_norm > 0:
            scale = self.clip_norm / norm
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g = grads[k].astype(np.float64) * scale
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            update = lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)
            p.data = (p.data.astype(np.float64) - update).astype(p.data.dtype)
        return norm


def test_adam_in_place_is_bitwise_the_reference_formula():
    rng = Rng(12)
    shapes = {"w": ((6, 5), np.float32), "b": ((5,), np.float32), "g64": ((7,), np.float64)}
    init = {k: rng.normal(shape, dtype=dtype) for k, (shape, dtype) in shapes.items()}
    ours = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    theirs = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    opt, ref = Adam(ours), _ReferenceAdam(theirs)
    clipped = []
    for step in range(8):
        # Gradient scale alternates between far above and far below the
        # clip norm, so both branches run.
        scale = 10.0 if step % 2 else 0.01
        grads = {k: rng.normal(shape, scale=scale, dtype=dtype) for k, (shape, dtype) in shapes.items()}
        lr = 1e-2 / (1 + step)
        norm = opt.step(grads, lr)
        assert norm == ref.step(grads, lr)
        clipped.append(norm > opt.clip_norm)
        for k in shapes:
            assert ours[k].data.dtype == theirs[k].data.dtype
            assert np.array_equal(ours[k].data, theirs[k].data), (step, k)
            assert np.array_equal(opt.m[k], ref.m[k]) and np.array_equal(opt.v[k], ref.v[k]), (step, k)
    assert any(clipped) and not all(clipped)


def test_adam_updates_parameter_arrays_in_place():
    p = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    data = p.data
    Adam({"p": p}).step({"p": np.ones(3, dtype=np.float32)}, lr=0.1)
    assert p.data is data and np.all(data < 0)


def _usable(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)), raising=False)


def _adam_threads() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("adam")]


def _adam_runs(monkeypatch, init, grads_per_step, lrs, cpu_counts, steps_after_exit=0):
    """Per CPU count, plus "ref" for `_ReferenceAdam`: the optimiser's
    chunks (their key lists) and its `adam` threads at the end of the
    `with`, its per-step norms and its final p, m and v. The last
    `steps_after_exit` steps run after the `with` has closed, which
    leaves no `adam` thread."""
    out = {}
    inside = len(grads_per_step) - steps_after_exit
    for n in (*cpu_counts, "ref"):
        params = {k: Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
        if n == "ref":
            opt, layout = _ReferenceAdam(params), None
            norms = [opt.step(g, lr) for g, lr in zip(grads_per_step, lrs)]
        else:
            _usable(monkeypatch, n)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
            try:
                with Adam(params) as opt:
                    norms = [opt.step(g, lr) for g, lr in zip(grads_per_step[:inside], lrs[:inside])]
                    layout = [keys for _, (keys, *_) in opt._chunks], _adam_threads()
                norms += [opt.step(g, lr) for g, lr in zip(grads_per_step[inside:], lrs[inside:])]
            finally:
                sys.setswitchinterval(interval)
            assert not _adam_threads()
        out[n] = (layout, norms, {k: p.data for k, p in params.items()}, opt.m, opt.v)
    return out


def _assert_bitwise_alike(runs):
    _, norms, p, m, v = runs["ref"]
    for n, (_, n_norms, n_p, n_m, n_v) in runs.items():
        assert n_norms == norms, n
        for k in p:
            assert n_p[k].dtype == p[k].dtype and np.array_equal(n_p[k], p[k]), (n, k)
            assert np.array_equal(n_m[k], m[k]) and np.array_equal(n_v[k], v[k]), (n, k)


def _assert_one_layout_and_worker(runs, chunks):
    """Every CPU count ran the same chunks, with one worker thread on more than one CPU."""
    for n, (layout, *_) in runs.items():
        if n != "ref":
            assert layout[0] == chunks and len(layout[1]) == (n > 1), n


def test_sharded_adam_is_bitwise_one_shard_and_the_reference(monkeypatch):
    """The toy AR's parameters, at 1, 2 and 3 usable CPUs, take 20 steps
    (clipping on every other one) to the bits of the textbook formula.
    The chunks are the same at every CPU count, and the update is split
    between the caller and one worker on more than one CPU."""
    model = DualStreamAR(toy_profile().build_ar_config())
    init = {k: p.data.copy() for k, p in model.named_parameters().items()}
    assert (len(init), sum(a.size for a in init.values())) == (61, 832_897)
    rng = Rng(7)
    # A unit-variance gradient over 832,897 elements has norm ~900; 1e-4 of it, ~0.09.
    grads = [{k: rng.normal(a.shape, scale=1.0 if s % 2 else 1e-4, dtype=a.dtype) for k, a in init.items()}
             for s in range(20)]
    lrs = [1e-3 / (1 + s) for s in range(20)]
    runs = _adam_runs(monkeypatch, init, grads, lrs, (1, 2, 3))
    _assert_bitwise_alike(runs)
    clipped = [norm > 2.0 for norm in runs["ref"][1]]
    assert clipped == [s % 2 == 1 for s in range(20)]
    chunks = runs[1][0][0]
    assert len(chunks) == 13 and [k for keys in chunks for k in keys] == list(init)
    _assert_one_layout_and_worker(runs, chunks)


@pytest.mark.parametrize("sizes, n_cpus, n_chunks", [
    ({"big": 1000, "small": 1}, 3, 2),             # the big tensor alone passes half the elements
    ({"small": 3, "big": 1000, "tail": 2}, 2, 2),  # a lopsided split: 1003 against 2 elements
    ({"a": 5, "big": 1000, "b": 5}, 4, 2),         # fewer tensors than CPUs
    ({"only": 10}, 2, 1),
    ({"big": 70_000, "one": 1}, 2, 2),             # a tensor larger than a chunk, and a size-1 one
    # a chunk closes mid-model ("a"), and float32 and float64 tensors share a chunk
    ({"a": 40_000, "b64": 30_000, "c": 1, "d64": 1}, 3, 2),
    ({"s1": 1, "s2_64": 1, "s3": 1}, 3, 2),        # size-1 tensors
    ({"a": 65_535, "b": 1, "c": 70_000}, 2, 2),    # a chunk of exactly CHUNK_SIZE elements closes
])
def test_sharded_adam_with_a_dominant_tensor(monkeypatch, sizes, n_cpus, n_chunks):
    """One tensor holding most elements makes a lopsided chunk. The
    chunks close at the first tensor that brings them to `CHUNK_SIZE`
    elements, or to half of all the elements if that is fewer; they
    cover every tensor once, in order, and are the same at 1, 2, 3 and
    `n_cpus` CPUs, as are the bits, also for a step taken after the
    `with` has closed. A key ending in 64 is a float64 tensor."""
    rng = Rng(3)
    init = {k: rng.normal((n,), dtype=np.float64 if k.endswith("64") else np.float32) for k, n in sizes.items()}
    grads = [{k: rng.normal(a.shape, scale=10.0 if s % 2 else 0.01, dtype=a.dtype) for k, a in init.items()}
             for s in range(6)]
    chunks = [keys for _, (keys, *_) in Adam({k: Tensor(a) for k, a in init.items()})._chunks]
    assert len(chunks) == n_chunks and [k for keys in chunks for k in keys] == list(sizes)
    close = min(train_mod.CHUNK_SIZE, sum(sizes.values()) / 2)
    for i, keys in enumerate(chunks):
        n = [sizes[k] for k in keys]
        assert sum(n[:-1]) < close and (sum(n) >= close or i == len(chunks) - 1)
    runs = _adam_runs(monkeypatch, init, grads, [1e-2] * 6, sorted({1, 2, 3, n_cpus}), steps_after_exit=1)
    _assert_bitwise_alike(runs)
    _assert_one_layout_and_worker(runs, chunks)


def test_adam_on_one_cpu_creates_no_pool(monkeypatch, tmp_path, mini_run):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was created")

    _usable(monkeypatch, 1)
    monkeypatch.setattr(train_mod, "ThreadPoolExecutor", no_pool)
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    report = train_stage("flow", mini_run.items, _quick_pcfg(3), tmp_path / "flow.ckpt")
    assert len(report.grad_norms) == 3


def test_train_stage_leaves_no_thread_behind(monkeypatch, tmp_path, mini_run):
    """The optimiser's pool lives for its stage: on two CPUs a worker runs
    during the steps and is gone when `train_stage` returns, also when
    the stage fails, in its loss or in a parameter update."""
    _usable(monkeypatch, 2)
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    before = threading.enumerate()
    during, original = [], train_mod.Adam.step

    def step(opt, grads, lr):
        during.append(len(threading.enumerate()))
        return original(opt, grads, lr)

    monkeypatch.setattr(train_mod.Adam, "step", step)
    train_stage("ar", mini_run.items, _quick_pcfg(4), tmp_path / "ar.ckpt")
    assert threading.enumerate() == before
    assert max(during) > len(before)

    during.clear()
    nar_loss = CoupledNAR.nar_loss

    def diverge_on_the_third_step(model, pairs):
        out = nar_loss(model, pairs)
        if len(during) == 2:
            out["total"] = out["total"] * np.nan
        return out

    monkeypatch.setattr(CoupledNAR, "nar_loss", diverge_on_the_third_step)
    with pytest.raises(TrainingDiverged, match="step 2"):
        train_stage("nar", mini_run.items, _quick_pcfg(4), tmp_path / "nar.ckpt")
    assert threading.enumerate() == before
    assert max(during) > len(before)

    # An update that fails behind the next forward pass.
    monkeypatch.setattr(train_mod, "CHUNK_SIZE", 4096)
    update = train_mod.Adam._update

    def fail_on_the_second_step(opt, chunk, *args):
        if opt.t == 2:
            raise RuntimeError("update failed")
        update(opt, chunk, *args)

    monkeypatch.setattr(train_mod.Adam, "_update", fail_on_the_second_step)
    with pytest.raises(RuntimeError, match="update failed"):
        train_stage("ar", mini_run.items, _quick_pcfg(4), tmp_path / "ar-failed.ckpt")
    assert threading.enumerate() == before and not engine._updating
    assert not (tmp_path / "ar-failed.ckpt").exists()


def test_training_on_three_cpus_runs_one_optimiser_thread(monkeypatch, tmp_path, mini_run):
    """More usable CPUs than two still give the optimiser one worker: at
    three, exactly one `adam` thread is alive at every step of `_fit`,
    and none once the stage has returned."""
    _usable(monkeypatch, 3)
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    seen, original = [], train_mod.Adam.step

    def step(opt, grads, lr):
        seen.append(_adam_threads())
        return original(opt, grads, lr)

    monkeypatch.setattr(train_mod.Adam, "step", step)
    train_stage("ar", mini_run.items, _quick_pcfg(4), tmp_path / "ar.ckpt")
    assert len(seen) == 4 and all(names == seen[0] and len(names) == 1 for names in seen)
    assert not _adam_threads()


@pytest.mark.parametrize("stage", ["tokenizer", "ar", "nar", "flow"])
def test_pooled_backward_is_bitwise_the_inline_one(tmp_path, mini_run, monkeypatch, stage):
    """On one CPU `_fit` has no pool and every sweep runs inline; on two,
    each sweep queues its parameter gradients for the optimiser's worker.
    Every step's gradients, the loss curves, the gradient norms and the
    checkpoint are the same bits. The tokenizer step sends its speaker
    condition, an inner Tensor, through `embedding`: deferring that
    gradient would change them."""
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    real_gradients, real_run = train_mod.gradients, engine._Job.run
    runs = {}
    for n_cpus in (1, 2):
        _usable(monkeypatch, n_cpus)
        grads, runners = [], set()

        def spy(loss, tensors):
            out = real_gradients(loss, tensors)
            grads.append([g.copy() for g in out])
            return out

        def run(job):
            runners.add(threading.current_thread().name)
            real_run(job)

        monkeypatch.setattr(train_mod, "gradients", spy)
        monkeypatch.setattr(engine._Job, "run", run)
        out = tmp_path / f"{stage}-{n_cpus}.ckpt"
        report = train_stage(stage, mini_run.items, _quick_pcfg(3), out)
        runs[n_cpus] = grads, report, out.read_bytes(), runners
    (grads1, rep1, ckpt1, runners1), (grads2, rep2, ckpt2, runners2) = runs[1], runs[2]
    assert runners1 == set() and runners2
    assert len(grads1) == len(grads2) == 3
    for step1, step2 in zip(grads1, grads2):
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(step1, step2, strict=True))
    assert rep1.losses == rep2.losses and rep1.grad_norms == rep2.grad_norms and ckpt1 == ckpt2


@pytest.mark.parametrize("stage", ["tokenizer", "ar", "nar", "flow"])
def test_overlapped_update_is_bitwise_the_drained_one(tmp_path, mini_run, monkeypatch, stage):
    """With chunks of 512 elements, at 2 and 3 CPUs each step's update runs
    behind the next forward pass, on one worker and in the gates; with no
    pool (1 CPU) `step` writes every chunk before it returns.
    The loss curves, gradient norms and checkpoint bytes are the same bits,
    also in a run whose pool never starts the update, where every chunk a
    forward reads is written inside a gate: a read that skipped its gate
    would see the old weights there."""
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    monkeypatch.setattr(train_mod, "CHUNK_SIZE", 512)
    real_start, real_wait = engine.PendingUpdate.start, engine.PendingUpdate.wait
    runs = {}
    for n_cpus, worker in ((1, True), (2, True), (3, True), (2, False)):
        _usable(monkeypatch, n_cpus)
        started, gates = [], []

        def start(run, pool):
            started.append(run)
            if worker:
                real_start(run, pool)

        def wait(run, i):
            gates.append(i)
            real_wait(run, i)

        monkeypatch.setattr(engine.PendingUpdate, "start", start)
        monkeypatch.setattr(engine.PendingUpdate, "wait", wait)
        out = tmp_path / f"{stage}-{n_cpus}-{worker}.ckpt"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            report = train_stage(stage, mini_run.items, _quick_pcfg(4), out)
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == (0 if n_cpus == 1 else 4), n_cpus  # the last one ends in `__exit__`
        if not worker:
            assert gates, "no chunk was written inside a gate"
        runs[n_cpus, worker] = report.losses, report.grad_norms, out.read_bytes()
        assert not engine._updating
    assert all(run == runs[1, True] for run in runs.values())


@pytest.mark.parametrize("where", ["gate", "step", "exit", "sweep"])
def test_an_error_in_an_update_chunk_surfaces_once(monkeypatch, where):
    """A chunk's update error is raised by the next gate that reads a
    parameter of that chunk, else by the next `step`, else by the end of
    the `with`, and only once. A pooled sweep that loads the optimiser's
    slots meets it before its first load, also when its loss was built
    before the step, so no gate ran. After it no parameter is pending,
    and no worker is left once the `with` has ended. Four 64-element
    tensors make four chunks, and on two CPUs the update runs behind the
    caller."""
    _usable(monkeypatch, 2)
    monkeypatch.setattr(train_mod, "CHUNK_SIZE", 64)
    params = {k: Tensor(np.zeros(64, dtype=np.float32), requires_grad=True) for k in "abcd"}
    grads = {k: np.ones(64, dtype=np.float32) for k in params}
    update = train_mod.Adam._update

    def failing(opt, chunk, *args):
        if "c" in chunk[0]:
            raise RuntimeError("update of c")
        update(opt, chunk, *args)

    monkeypatch.setattr(train_mod.Adam, "_update", failing)
    raised_in = []
    with pytest.raises(RuntimeError, match="update of c"):
        with Adam(params) as opt:
            assert len(opt._chunks) == 4 and opt._pool is not None
            loss = linear(np.ones((2, 8), dtype=np.float32), params["c"].reshape(8, 8)).sum()
            opt.step(grads, lr=0.1)
            try:
                if where == "gate":
                    params["c"] * 2.0
                elif where == "step":
                    opt.step(grads, lr=0.1)
                elif where == "sweep":
                    with engine.param_grad_pool(opt._pool, opt.slots):
                        gradients(loss, list(params.values()))
            except RuntimeError:
                raised_in.append(where)
                raise
    assert raised_in == ([] if where == "exit" else [where])
    assert all(p._update is None for p in params.values()) and not engine._updating
    assert engine._local.sweep is None
    assert not [t.name for t in threading.enumerate() if t.name.startswith("adam")]


def test_an_error_in_a_pooled_sweep_leaves_no_thread(monkeypatch, tmp_path, mini_run):
    """A layer norm's backward that raises on the second step, after the
    sweep has queued jobs, fails the stage with its error. No optimiser
    worker is left alive, and no pool or sweep is left set on the thread."""
    _usable(monkeypatch, 2)
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    real, calls = train_mod.gradients, []

    def boom(g):
        raise RuntimeError("boom")

    def sabotaged(loss, tensors):
        calls.append(loss)
        if len(calls) == 2:
            seen, stack = set(), [loss]
            while stack:
                t = stack.pop()
                if id(t) not in seen:
                    seen.add(id(t))
                    if t._grad_fn is not None and "layer_norm" in t._grad_fn.__qualname__:
                        t._grad_fn = boom
                        break
                    stack.extend(t._parents)
        return real(loss, tensors)

    monkeypatch.setattr(train_mod, "gradients", sabotaged)
    with pytest.raises(RuntimeError, match="boom"):
        train_stage("ar", mini_run.items, _quick_pcfg(4), tmp_path / "ar.ckpt")
    assert len(calls) == 2
    assert not [t.name for t in threading.enumerate() if t.name.startswith("adam")]
    assert engine._local.pool is None and engine._local.sweep is None
    assert not (tmp_path / "ar.ckpt").exists()


def _small_params():
    """Tensors of a small model (see `_small_loss`); `skip` is last and alone in its chunk at
    `CHUNK_SIZE` 256."""
    rng = Rng(8)
    shapes = {"tab": (8, 16), "w_in": (16, 32), "b_in": (32,), "w_mid": (32, 32), "b_mid": (32,),
              "w_out": (32, 8), "skip": (8, 10)}
    return {k: Tensor(rng.spawn(k).normal(s, scale=0.3), requires_grad=True) for k, s in shapes.items()}


def _small_loss(p: dict, twice: bool, read_skip: bool):
    """A step loss for `_fit` over `_small_params`: `w_mid` and `b_mid` feed one linear, or
    two if `twice`; the last linear, over `skip`, runs only if `read_skip`."""
    ids = np.arange(24).reshape(8, 3, 1) % 8

    def step_loss(idx, srng):
        h = gelu(linear(embedding([p["tab"]], ids[idx]), p["w_in"], p["b_in"]))
        h = linear(h, p["w_mid"], p["b_mid"])
        if twice:
            h = linear(gelu(h), p["w_mid"], p["b_mid"])
        out = linear(h, p["w_out"])
        if read_skip:
            out = linear(out, p["skip"])
        loss = (out * out).mean()
        return loss, {"total": float(loss.data)}

    return step_loss


def _small_fit(monkeypatch, tmp_path, n_cpus: int, tag: str, **kw):
    """(losses, grad norms, checkpoint bytes) of 5 `_fit` steps of the small model on
    `n_cpus` CPUs; no optimiser worker is left after it."""
    _usable(monkeypatch, n_cpus)
    monkeypatch.setattr(train_mod, "CHUNK_SIZE", 256)
    params, pcfg = _small_params(), _quick_pcfg(5)
    before = threading.enumerate()
    report = train_mod._fit("flow", pcfg, params, 8, _small_loss(params, **kw), quiet=True)
    assert threading.enumerate() == before and not engine._updating
    path = tmp_path / f"{tag}.ckpt"
    save_checkpoint(path, Checkpoint(stage="flow", config=pcfg.to_dict(),
                                     params={k: t.data for k, t in params.items()}))
    return report.losses, report.grad_norms, path.read_bytes()


def test_a_parameter_used_twice_is_loaded_inline(monkeypatch, tmp_path):
    """A linear applied twice gives its weight and bias two contributions in
    one sweep, so their gradients are not the arrays their first jobs
    loaded, and `step` loads them inline; every other gradient was loaded
    in the sweep. The losses, gradient norms and checkpoint bytes at 2
    CPUs equal the 1-CPU run's, where every load is inline."""
    real_step, runs = train_mod.Adam.step, {}
    for n_cpus in (1, 2):
        preloaded = {}

        def step(opt, grads, lr):
            for k, slot in opt._loads:
                preloaded.setdefault(k, set()).add(slot.src is grads[k])
            return real_step(opt, grads, lr)

        monkeypatch.setattr(train_mod.Adam, "step", step)
        runs[n_cpus] = _small_fit(monkeypatch, tmp_path, n_cpus, f"twice-{n_cpus}", twice=True, read_skip=True)
        inline = {k for k, seen in preloaded.items() if seen == {False}}
        assert set().union(*preloaded.values()) == ({False} if n_cpus == 1 else {True, False})
        assert inline == (set(preloaded) if n_cpus == 1 else {"w_mid", "b_mid"}), n_cpus
    assert runs[2] == runs[1]


def test_the_sweep_loads_wait_for_a_chunk_the_forward_skipped(monkeypatch, tmp_path):
    """A forward that never reads `skip`, alone in the last chunk, leaves that
    chunk pending when its pool does not start the update: no gate writes
    it. The next sweep writes it before its first load, since an update
    uses its chunk's slots as scratch, so no load runs while any chunk is
    pending. The bits equal the 1-CPU run's and a 2-CPU run with a worker."""
    real_start, real_load, real_gradients = engine.PendingUpdate.start, engine.GradSlot.load, train_mod.gradients
    runs = {}
    for n_cpus, worker in ((1, True), (2, True), (2, False)):
        pending_at_sweep, pending_at_load = [], []

        def start(run, pool):
            if worker:
                real_start(run, pool)

        def load(slot, grad):
            pending_at_load.append((threading.current_thread().name, bool(engine._updating)))
            real_load(slot, grad)

        def spy(loss, tensors):
            pending_at_sweep.append(bool(engine._updating))
            return real_gradients(loss, tensors)

        monkeypatch.setattr(engine.PendingUpdate, "start", start)
        monkeypatch.setattr(engine.GradSlot, "load", load)
        monkeypatch.setattr(train_mod, "gradients", spy)
        runs[n_cpus, worker] = _small_fit(monkeypatch, tmp_path, n_cpus, f"skip-{n_cpus}-{worker}",
                                          twice=False, read_skip=False)
        assert not any(pending for _, pending in pending_at_load), (n_cpus, worker)
        if not worker:
            assert pending_at_sweep[1:] and all(pending_at_sweep[1:])
            assert any(name.startswith("adam") for name, _ in pending_at_load)
    assert runs[2, True] == runs[1, True] and runs[2, False] == runs[1, True]


def test_a_load_error_in_step_leaves_nothing_pending(monkeypatch):
    """A gradient of the wrong shape fails `step`'s inline load with the
    error that names the shapes. The last update was written first, the
    step counter and moments are unchanged, nothing is pending, the next
    step runs, and no worker is left once the `with` has ended."""
    _usable(monkeypatch, 2)
    monkeypatch.setattr(train_mod, "CHUNK_SIZE", 64)
    params = {k: Tensor(np.zeros(64, dtype=np.float32), requires_grad=True) for k in "abcd"}
    grads = {k: np.ones(64, dtype=np.float32) for k in params}
    with Adam(params) as opt:
        opt.step(grads, lr=0.1)
        assert opt._run is not None
        m = {k: a.copy() for k, a in opt.m.items()}
        with pytest.raises(ValueError, match="broadcast"):
            opt.step({**grads, "c": np.ones(65, dtype=np.float32)}, lr=0.1)
        assert opt.t == 1 and all(np.array_equal(opt.m[k], m[k]) for k in m)
        assert all(p._update is None for p in params.values()) and not engine._updating
        opt.step(grads, lr=0.1)
        assert opt.t == 2
    assert not engine._updating
    assert not [t.name for t in threading.enumerate() if t.name.startswith("adam")]


# ---- config round trips and validation --------------------------------------


def test_config_json_round_trip():
    pcfg = toy_profile()
    back = PipelineConfig.from_json(json.dumps(pcfg.to_dict()))
    assert back.to_dict() == pcfg.to_dict()
    back.validate()


def test_config_missing_field_is_named():
    doc = toy_profile().to_dict()
    del doc["schedules"]["ar"]["base_lr"]
    with pytest.raises(ConfigError, match="base_lr"):
        PipelineConfig.from_dict(doc)


def test_config_unknown_field_is_named():
    doc = toy_profile().to_dict()
    doc["ar"]["rope"] = True
    with pytest.raises(ConfigError, match="rope"):
        PipelineConfig.from_dict(doc)


def test_config_missing_section():
    doc = toy_profile().to_dict()
    del doc["flow"]
    with pytest.raises(ConfigError, match="flow"):
        PipelineConfig.from_dict(doc)


def test_config_invalid_json():
    with pytest.raises(ConfigError, match="JSON"):
        PipelineConfig.from_json("{not json")


def test_config_capacity_validation():
    pcfg = mini_pipeline_config()
    pcfg.ar = dataclasses.replace(pcfg.ar, max_speech_len=8)
    with pytest.raises(ConfigError, match="max_speech_len"):
        pcfg.validate()


@pytest.mark.parametrize("path, value", [("schedules.ar.batch_size", True), ("schedules.ar.peak_lr", True),
                                         ("ar.top_k", True), ("ar.temperature", False),
                                         ("data.frames_per_symbol", [True, 3]), ("tokenizer.seed", False)])
def test_config_numbers_reject_booleans(path, value):
    """JSON true/false is not the number 1 or 0: a boolean for a field not
    typed bool fails, naming the dotted field; the ablation flags take them."""
    with pytest.raises(ConfigError, match=rf"config field {re.escape(path)} must be"):
        config_with_overrides(toy_profile(), {path: value})
    assert not config_with_overrides(toy_profile(), {"ablation.use_refiner": False}).ablation.use_refiner


@pytest.mark.parametrize("field, value", [("use_refiner", "false"), ("parallel_streams", 0),
                                          ("use_refiner", 1), ("parallel_streams", "true"),
                                          ("use_refiner", None), ("parallel_streams", [False])])
def test_config_booleans_take_only_json_booleans(field, value):
    """A `bool` field takes only true or false: the string "false" or a 0
    would otherwise decide by truthiness (and keep the refiner it meant to
    drop). It fails naming the dotted field, by override and from a document."""
    path = f"ablation.{field}"
    with pytest.raises(ConfigError, match=rf"config field {re.escape(path)} must be bool"):
        config_with_overrides(toy_profile(), {path: value})
    doc = toy_profile().to_dict()
    doc["ablation"][field] = value
    with pytest.raises(ConfigError, match=rf"config field {re.escape(path)} must be bool"):
        PipelineConfig.from_dict(doc)
    doc["ablation"][field] = False
    assert getattr(PipelineConfig.from_dict(doc).ablation, field) is False


# Values each annotated field must refuse: a bool is never a number, a
# string never parsed, a fraction never truncated, a non-finite never a rate.
BAD_FIELD_VALUES = {"int": (True, 2.5, "3"), "float": (True, math.nan, math.inf, "x"),
                    "bool": (0, "false"), "tuple[int, int]": ((True, 3), (3, 2), (1,), 4)}


def _bad_field_values(obj):
    """(field, value) for every checked field of the dataclass `obj`, read
    from its annotations; an int field also gets one below its minimum."""
    for f in dataclasses.fields(obj):
        values = BAD_FIELD_VALUES.get(f.type, ())
        if f.type == "int":
            values += (-1 if f.name == "seed" or f.name in getattr(obj, "ZERO_OK", ()) else 0,)
        for value in values:
            yield f.name, value


@pytest.mark.parametrize("cls", [SyntheticSpec, TokenizerConfig, ARConfig, NARConfig, FlowConfig,
                                 SolverConfig, TrainSchedule], ids=lambda cls: cls.__name__)
def test_config_dataclass_fields_follow_their_annotations(cls):
    """Every int, float, bool and pair field of every config dataclass,
    found through `dataclasses.fields`, refuses a wrong value by name."""
    good = toy_profile().schedules["ar"] if cls is TrainSchedule else cls()
    checked = list(_bad_field_values(good))
    assert checked
    for name, value in checked:
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be .*, got {re.escape(repr(value))}$"):
            dataclasses.replace(good, **{name: value}).validate()


@pytest.mark.parametrize("section", ["data", "tokenizer", "ar", "nar", "flow", "ablation",
                                     "schedules.tokenizer", "schedules.ar", "schedules.nar", "schedules.flow"])
def test_config_section_fields_follow_their_annotations(section):
    """The same rule holds for every field of every pipeline section and
    schedule, given as an override, as a ConfigError naming the dotted field."""
    pcfg = toy_profile()
    part = pcfg.schedules[section.split(".")[1]] if "." in section else getattr(pcfg, section)
    for name, value in _bad_field_values(part):
        got = tuple(value) if isinstance(value, list) else value
        with pytest.raises(ConfigError, match=rf"^config field {re.escape(f'{section}.{name}')} must be .*, "
                                              rf"got {re.escape(repr(got))}$"):
            config_with_overrides(pcfg, {f"{section}.{name}": value})


@pytest.mark.parametrize("path, value", [("ar.seed", None), ("nar.seed", 22.7), ("tokenizer.seed", "7"),
                                         ("flow.seed", "x"), ("ar.seed", -5), ("schedules.ar.peak_lr", math.inf)])
def test_config_rejects_bad_seeds_and_rates(path, value):
    """A model seed is an int >= 0 and a learning rate finite: none is
    int()-ed, nor left to fail when a stage builds its model or trains."""
    with pytest.raises(ConfigError, match=rf"^config field {re.escape(path)} must be "):
        config_with_overrides(toy_profile(), {path: value})


@pytest.mark.parametrize("path, value, message", [
    ("ar.n_heads", 3, "ar: model_dim 128 not divisible by n_heads 3"),
    ("nar.model_dim", 130, "nar: model_dim 130 not divisible by n_heads 4"),
    ("flow.time_feat_dim", 5, "flow: FlowConfig.time_feat_dim must be even (sin/cos pairs)"),
    ("data.max_frames", 10, "data: longest utterance (18 frames) exceeds max_frames=10"),
    ("tokenizer.n_heads", 3, "tokenizer: cond_dim 64 must divide by n_heads 3"),
], ids=["ar", "nar", "flow", "data", "tokenizer"])
def test_config_relational_errors_name_their_section(path, value, message):
    """Fields that are each valid but relate wrongly fail as a ConfigError
    that names the section they were set in."""
    with pytest.raises(ConfigError, match=rf"^config section {re.escape(message)}$"):
        config_with_overrides(toy_profile(), {path: value})


def test_config_with_overrides():
    pcfg = toy_profile()
    out = config_with_overrides(pcfg, {"schedules.ar.total_steps": 7,
                                       "schedules.ar.warmup_steps": 2,
                                       "ar.top_k": 2})
    assert out.schedules["ar"].total_steps == 7
    assert out.ar.top_k == 2
    assert pcfg.schedules["ar"].total_steps != 7  # original untouched
    with pytest.raises(ConfigError, match="nonsense"):
        config_with_overrides(pcfg, {"ar.nonsense": 1})


@pytest.mark.parametrize("path", ["name.t", "ar.seed.x", "schedules.ar.kind.o"])
def test_config_override_through_a_field_names_the_path(path):
    """A path that runs on through a string or a number, not a section,
    is a ConfigError that names the path, not a TypeError."""
    with pytest.raises(ConfigError, match=rf"^override path {re.escape(repr(path))}: "):
        config_with_overrides(toy_profile(), {path: 1})


# ---- checkpoint container ----------------------------------------------------


def _toy_checkpoint():
    rng = Rng(9)
    params = {
        "blocks.0.weight": rng.normal((4, 3), dtype=np.float32),
        "blocks.0.bias": rng.normal((4,), dtype=np.float64),
        "table": rng.integers(0, 100, (2, 5)).astype(np.int64),
        "scalar": np.float32(3.5).reshape(()),
    }
    return Checkpoint(stage="ar", config={"name": "t", "x": [1, 2]}, params=params)


def test_checkpoint_round_trip_bitwise(tmp_path):
    ckpt = _toy_checkpoint()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, ckpt)
    back = load_checkpoint(p1)
    assert back.stage == ckpt.stage
    assert back.config == ckpt.config
    assert sorted(back.params) == sorted(ckpt.params)
    for name, arr in ckpt.params.items():
        got = back.params[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert np.array_equal(got, arr)
    save_checkpoint(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_error_cases(tmp_path):
    ckpt = _toy_checkpoint()
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, ckpt)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(blob[:8] + b"\x63\x00\x00\x00" + blob[12:])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)

    # Version 1 files carried an RNG-state block that version 2 dropped;
    # version 2 files stored attention as separate wq/wk/wv projections.
    for old_version in (b"\x01\x00\x00\x00", b"\x02\x00\x00\x00"):
        bad.write_bytes(blob[:8] + old_version + blob[12:])
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(bad)

    bad.write_bytes(blob[:-3])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(bad)

    bad.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)


def test_checkpoint_container_errors_name_the_file(tmp_path, capsys):
    path, bad = tmp_path / "d.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(path, _toy_checkpoint())
    blob = path.read_bytes()
    (cfg_len,) = struct.unpack("<Q", blob[16:24])
    first = 24 + cfg_len + 4     # the u16 name length of the first record
    (name_len,) = struct.unpack("<H", blob[first:first + 2])
    code_at = first + 2 + name_len
    cases = [
        (blob[:-3], r"truncated checkpoint \(wanted 80 bytes at offset 229\)"),
        (blob + b"\0\0", "2 trailing bytes after parameters"),
        (blob[:code_at] + b"\x09" + blob[code_at + 1:], "parameter 'blocks.0.bias' has unknown dtype code 9"),
        (blob[:first + 2] + b"\xff" + blob[first + 3:], f"parameter name at offset {first + 2} is not UTF-8"),
    ]
    for data, message in cases:
        bad.write_bytes(data)
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(bad))}: {message}$"):
            load_checkpoint(bad)
        assert cli_main(["inspect", "--ckpt", str(bad)]) == 1
        assert re.fullmatch(f"error: {re.escape(str(bad))}: {message}", _one_error_line(capsys))


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_corrupt_checkpoint_headers_are_checkpoint_errors(tmp_path, capsys):
    path = tmp_path / "tokenizer.ckpt"
    save_checkpoint(path, Checkpoint(stage="tokenizer", config={"name": "t"}, params={}))
    blob = path.read_bytes()
    (cfg_len,) = struct.unpack("<Q", blob[23:31])
    cases = [
        (blob[:14] + b"\xff" + blob[15:], "stage tag is not UTF-8"),
        (blob[:31] + b"{" * cfg_len + blob[31 + cfg_len:], "config is not JSON"),
    ]
    for data, message in cases:
        path.write_bytes(data)
        assert cli_main(["inspect", "--ckpt", str(path)]) == 1
        assert f"{path}: {message}" in _one_error_line(capsys)
    # A header whose config is JSON but not an object, through the CLI
    # and through the pipeline loader.
    save_checkpoint(path, Checkpoint(stage="tokenizer", config=[1, 2], params={}))
    assert cli_main(["inspect", "--ckpt", str(path)]) == 1
    assert f"{path}: config is a JSON list, not an object" in _one_error_line(capsys)
    with pytest.raises(CheckpointError, match="not an object"):
        load_pipeline(tmp_path)


# ---- corpus directories -------------------------------------------------------


def test_corpus_dir_round_trip(tmp_path):
    spec = SyntheticSpec(n_speakers=2, n_utterances=6, seed=3)
    corpus = generate_corpus(spec)
    out = write_corpus_dir(corpus, tmp_path / "data")
    spec_back, items = load_corpus_dir(out)
    assert spec_back == spec
    assert len(items) == 6
    for item, utt in zip(items, corpus.utterances):
        assert item.speaker_id == utt.speaker_id
        for field in ("semantic", "acoustic", "speaker_frames",
                      "speaker_global", "mel", "symbols"):
            assert np.array_equal(getattr(item.bundle, field),
                                  getattr(utt.bundle, field))


def test_corpus_dir_errors(tmp_path):
    with pytest.raises(CorpusDirError, match="manifest"):
        load_corpus_dir(tmp_path)

    corpus = generate_corpus(SyntheticSpec(n_speakers=2, n_utterances=4))
    out = write_corpus_dir(corpus, tmp_path / "d")
    (out / "utt_00002.feat").unlink()
    with pytest.raises(FileNotFoundError):
        load_corpus_dir(out)

    # A bundle that fails to load is named by its manifest row and file.
    raw = (out / "utt_00001.feat").read_bytes()
    (out / "utt_00001.feat").write_bytes(raw[:-4])
    with pytest.raises(CorpusDirError, match=r"items\[1\] \(utt_00001.feat\): file ends inside"):
        load_corpus_dir(out)

    doc = json.loads((out / "manifest.json").read_text())
    doc["format"] = "something-else"
    (out / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(CorpusDirError, match="format"):
        load_corpus_dir(out)


def test_reference_pairing_cycles_within_speaker():
    spec = SyntheticSpec(n_speakers=3, n_utterances=7)
    items = corpus_items(generate_corpus(spec))
    refs = reference_pairing(items)
    speakers = [it.speaker_id for it in items]
    for i, j in enumerate(refs):
        assert speakers[j] == speakers[i]
    # Round-robin speakers 0,1,2: speaker 0 owns 0,3,6; 1 owns 1,4; 2 owns 2,5.
    assert refs[0] == 3 and refs[3] == 6 and refs[6] == 0
    assert refs[1] == 4 and refs[4] == 1


def test_reference_pairing_singleton_is_self():
    spec = SyntheticSpec(n_speakers=3, n_utterances=4)
    items = corpus_items(generate_corpus(spec))
    refs = reference_pairing(items)
    # n_utterances=4 over 3 speakers: speaker 0 -> {0, 3}, 1 -> {1}, 2 -> {2}.
    assert refs[1] == 1 and refs[2] == 2  # lone utterances reference themselves
    assert refs[0] == 3 and refs[3] == 0


# ---- training behavior ---------------------------------------------------------


def _quick_pcfg(steps=25):
    pcfg = mini_pipeline_config()
    for name, sched in pcfg.schedules.items():
        pcfg.schedules[name] = dataclasses.replace(sched, total_steps=steps, warmup_steps=min(5, steps))
    pcfg.validate()
    return pcfg


@pytest.mark.parametrize("stage", ["tokenizer", "ar", "nar", "flow"])
def test_training_is_deterministic(tmp_path, mini_run, stage):
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    pcfg = _quick_pcfg()
    out = tmp_path / f"{stage}.ckpt"
    rep1 = train_stage(stage, mini_run.items, pcfg, out)
    first = out.read_bytes()
    rep2 = train_stage(stage, mini_run.items, pcfg, out)
    assert set(rep1.losses) == set(rep2.losses) and "total" in rep1.losses
    for key, curve in rep1.losses.items():
        assert len(curve) == 25
        assert curve == rep2.losses[key], f"loss curve {key} diverged between runs"
    assert out.read_bytes() == first


def test_training_diverges_on_nan_input(tmp_path, mini_run):
    pcfg = _quick_pcfg()
    items = corpus_items(generate_corpus(pcfg.data))
    items = copy.deepcopy(items)
    items[0].bundle.semantic[:] = np.nan
    with pytest.raises(TrainingDiverged, match="tokenizer stage: non-finite"):
        train_tokenizer(items, pcfg)

    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    items = copy.deepcopy(mini_run.items)
    items[0].bundle.mel[:] = np.nan
    with pytest.raises(TrainingDiverged, match="flow stage: non-finite"):
        train_stage("flow", items, pcfg, tmp_path / "flow.ckpt")
    assert not (tmp_path / "flow.ckpt").exists()


def test_progress_prints_every_tenth_step_and_the_last(tmp_path, mini_run, capsys):
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    train_stage("flow", mini_run.items, _quick_pcfg(25), tmp_path / "flow.ckpt", quiet=False)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[0] for line in lines] == [f"[flow] step {n}/25" for n in range(1, 26, 2)]
    assert all("L_Flow=" in line and "total=" in line for line in lines)


@pytest.mark.parametrize("stage", ["ar", "nar"])
def test_training_draws_the_per_item_rows(tmp_path, mini_run, monkeypatch, stage):
    """AR and NAR steps consume the rows of a rebuild of the per-item draw:
    step s's indices are `Rng(seed).spawn(("step", s)).integers(0, n, (batch,))`,
    each item paired with its `reference_pairing` reference's grid (the
    AR's rows are text ids and both grids cut to its layers). A plain
    `gradients` + `Adam` loop over those rows, with no worker, gives the
    stage's loss curves, gradient norms and checkpoint bit for bit."""
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    pcfg, items = _quick_pcfg(6), mini_run.items
    sched = pcfg.schedules[stage]
    tok = ParallelTokenizer(pcfg.build_tokenizer_config())
    tok.load_full_state(load_checkpoint(tmp_path / "tokenizer.ckpt").params)
    grids, refs = tok.encode_grids([it.bundle for it in items]), reference_pairing(items)
    layers = pcfg.build_ar_config().layers_per_stream

    def rebuilt_batch(step):
        idx = Rng(sched.seed).spawn(("step", step)).integers(0, len(items), (sched.batch_size,))
        if stage == "nar":
            return [(grids[refs[i]], grids[i]) for i in idx]
        return [(np.asarray(items[i].bundle.symbols, dtype=np.int64).reshape(-1),
                 grids[refs[i]][:, :, :layers], grids[i][:, :, :layers]) for i in idx]

    cls, method = (DualStreamAR, "teacher_forced_batch") if stage == "ar" else (CoupledNAR, "nar_loss")
    consumed, original = [], getattr(cls, method)

    def spy(model, batch, *tables):
        if not tables:  # the AR's end-of-stage scorer passes the tables' arrays
            consumed.append(batch)
        return original(model, batch, *tables)

    monkeypatch.setattr(cls, method, spy)
    report = train_stage(stage, items, pcfg, tmp_path / f"{stage}.ckpt")
    monkeypatch.undo()
    assert len(consumed) == sched.total_steps
    for step, batch in enumerate(consumed):
        expect = rebuilt_batch(step)
        assert len(batch) == len(expect)
        for row, want in zip(batch, expect):
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(row, want, strict=True))

    model = DualStreamAR(pcfg.build_ar_config()) if stage == "ar" else CoupledNAR(pcfg.build_nar_config())
    params = model.named_parameters()
    opt, names, tensors = Adam(params), list(params), list(params.values())
    curves: dict = {}
    norms = []
    for step in range(sched.total_steps):
        batch = rebuilt_batch(step)
        out = model.ar_loss(*model.teacher_forced_batch(batch)) if stage == "ar" else model.nar_loss(batch)
        norms.append(opt.step(dict(zip(names, gradients(out["total"], tensors))), sched.learning_rate(step)))
        for key, term in out.items():
            curves.setdefault(key, []).append(float(term.data))
    assert curves == report.losses and norms == report.grad_norms
    saved = load_checkpoint(tmp_path / f"{stage}.ckpt").params
    assert all(np.array_equal(saved[k], v) for k, v in model.state().items()) and set(saved) == set(model.state())


@pytest.mark.parametrize("stage", ["tokenizer", "ar", "nar", "flow"])
def test_no_training_stage_slices_a_parameter(tmp_path, mini_run, monkeypatch, stage):
    """On the mini config, no `Tensor.__getitem__` node of a stage's
    first loss tape has a parameter as its parent. Each such slice's
    backward allocates a zero gradient of the whole parameter; a layer
    that reads a parameter in parts keeps each part a parameter."""
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    tapes, real = [], train_mod.gradients
    monkeypatch.setattr(train_mod, "gradients",
                        lambda loss, tensors: tapes.append((loss, tensors)) or real(loss, tensors))
    train_stage(stage, mini_run.items, _quick_pcfg(2), tmp_path / f"{stage}.ckpt")
    loss, params = tapes[0]
    params = {id(p) for p in params}
    sliced, seen, stack = [], set(), [loss]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._grad_fn is not None and t._grad_fn.__qualname__.startswith("Tensor.__getitem__."):
                sliced += [p.shape for p in t._parents if id(p) in params]
            stack.extend(t._parents)
    assert len(seen) > len(params) and sliced == []


def test_train_stage_requires_tokenizer_first(tmp_path):
    pcfg = _quick_pcfg()
    items = corpus_items(generate_corpus(pcfg.data))
    with pytest.raises(MissingPrerequisite, match="tokenizer"):
        train_stage("ar", items, pcfg, tmp_path / "ar.ckpt")


def test_train_stage_rejects_unknown_stage(tmp_path):
    pcfg = _quick_pcfg()
    with pytest.raises(ValueError, match="stage"):
        train_stage("vocoder", [], pcfg, tmp_path / "x.ckpt")


def test_later_stage_freezes_tokenizer(tmp_path, mini_run):
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    before = (tmp_path / "tokenizer.ckpt").read_bytes()
    pcfg = _quick_pcfg()
    # Same architecture as mini_run, only shorter schedules; the frozen
    # tokenizer is judged on architecture sections, not schedules.
    items = mini_run.items
    train_stage("ar", items, pcfg, tmp_path / "ar.ckpt")
    assert (tmp_path / "tokenizer.ckpt").read_bytes() == before
    assert (tmp_path / "ar.ckpt").exists()


def test_mismatched_tokenizer_config_is_rejected(tmp_path, mini_run):
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    pcfg = _quick_pcfg()
    pcfg.tokenizer = dataclasses.replace(pcfg.tokenizer, codebook_size=16)
    with pytest.raises(ValueError, match="tokenizer.codebook_size"):
        train_stage("ar", mini_run.items, pcfg, tmp_path / "ar.ckpt")


@pytest.mark.parametrize("stage, section, field, value", [("ar", "ar", "n_layers", 3),
                                                           ("flow", "flow", "hidden_dim", 24)])
def test_later_stage_rejects_what_loading_would_refuse(tmp_path, mini_run, monkeypatch,
                                                       stage, section, field, value):
    """Training checks the frozen tokenizer on the config sections that
    loading checks: a stage whose architecture differs from the
    tokenizer's config fails naming the field before any step runs, and
    writes no checkpoint that `load_pipeline` would then refuse."""
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    pcfg = _quick_pcfg(5)
    setattr(pcfg, section, dataclasses.replace(getattr(pcfg, section), **{field: value}))
    pcfg.validate()

    def no_step(self, grads, lr):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(train_mod.Adam, "step", no_step)
    with pytest.raises(ValueError, match=rf"differs from this run's config: {section}\.{field}$"):
        train_stage(stage, mini_run.items, pcfg, tmp_path / f"{stage}.ckpt")
    assert not (tmp_path / f"{stage}.ckpt").exists()


def test_frozen_tokenizer_checkpoint_of_another_stage_is_rejected(tmp_path, mini_run, monkeypatch):
    """`flow.ckpt` copied over `tokenizer.ckpt` fails on its stage tag,
    before any parameter reaches the tokenizer."""
    shutil.copy(mini_run.ckpt_dir / "flow.ckpt", tmp_path / "tokenizer.ckpt")

    def no_load(self, state):
        raise AssertionError("parameters loaded before the stage-tag check")

    monkeypatch.setattr(ParallelTokenizer, "load_full_state", no_load)
    with pytest.raises(IncompatibleCheckpoints, match=r"holds a 'flow' checkpoint, expected 'tokenizer'"):
        train_stage("ar", mini_run.items, _quick_pcfg(3), tmp_path / "ar.ckpt")
    assert not (tmp_path / "ar.ckpt").exists()


def test_stage_reports_record_losses(mini_run):
    for stage, report in mini_run.reports.items():
        assert report.stage == stage
        assert report.steps == mini_run.pcfg.schedules[stage].total_steps
        assert "total" in report.losses
        assert len(report.losses["total"]) == report.steps
        assert all(np.isfinite(v) for v in report.losses["total"])
        assert report.wall_time_s > 0
        norms = report.grad_norms
        assert len(norms) == report.steps and all(isinstance(v, float) and np.isfinite(v) for v in norms)
        assert f"grad norm {norms[0]:.4g} -> {norms[-1]:.4g} (max {max(norms):.4g})" in report.summary()
        assert list(report.step_ms) == ["forward", "gated", "backward", "optimiser"]
        for phase, ms in report.step_ms.items():
            assert len(ms) == report.steps and all(isinstance(v, float) for v in ms), phase
            # A gate waits only while an update is pending: never on a first step or after a drained one.
            assert all(v >= 0 if phase == "gated" else v > 0 for v in ms), phase
            assert f"{phase} {float(np.median(ms)):.3g}" in report.summary()
        assert sum(map(sum, report.step_ms.values())) < 1e3 * report.wall_time_s


# ---- loading and inference -----------------------------------------------------


def test_load_pipeline_and_infer_deterministic(mini_run):
    pipe = load_pipeline(mini_run.ckpt_dir)
    ref = mini_run.items[0].bundle
    ids = encode_text(pipe, "abc")
    r1 = infer(pipe, ids, ref, seed=12)
    r2 = infer(pipe, ids, ref, seed=12)
    assert np.array_equal(r1.mel, r2.mel)
    assert r1.mel.dtype == np.float32
    assert r1.mel.shape[1] == mini_run.pcfg.data.mel_bins
    for key in ("seed", "n_text_ids", "n_ref_frames", "n_frames", "terminated",
                "truncated", "top_k", "temperature", "flow_steps"):
        assert key in r1.metadata
    assert r1.metadata["n_frames"] == r1.mel.shape[0]
    if r1.tokens is not None:
        assert r1.metadata["n_frames"] == r1.tokens.n_frames


def _assert_states_bitwise(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name


def _seeded_pipeline(ckpt_dir) -> LoadedPipeline:
    """The pipeline as loading built it before the blank source: every
    model from its seeded initialisation, then its checkpoint loaded over it."""
    ckpts = {stage: load_checkpoint(ckpt_dir / name) for stage, name in CHECKPOINT_NAMES.items()}
    params = {stage: ckpt.params for stage, ckpt in ckpts.items()}
    pcfg = PipelineConfig.from_dict(ckpts["tokenizer"].config)
    tok = ParallelTokenizer(pcfg.build_tokenizer_config())
    tok.load_full_state(params["tokenizer"])
    ar = DualStreamAR(pcfg.build_ar_config())
    ar.load_state(params["ar"])
    nar = CoupledNAR(pcfg.build_nar_config())
    nar.load_state(params["nar"])
    field = VelocityField(pcfg.build_flow_config(), Rng(pcfg.flow.seed))
    field.load_state(params["flow"])
    return LoadedPipeline(config=pcfg, tokenizer=tok, ar=ar, nar=nar, flow=field)


def test_load_pipeline_equals_the_seeded_route(mini_run):
    """Loading from the blank source gives bitwise the states and the
    `infer()` outputs of seeded models loaded over."""
    pipe, ref = load_pipeline(mini_run.ckpt_dir), _seeded_pipeline(mini_run.ckpt_dir)
    _assert_states_bitwise(pipe.tokenizer.full_state(), ref.tokenizer.full_state())
    for name in ("ar", "nar", "flow"):
        _assert_states_bitwise(getattr(pipe, name).state(), getattr(ref, name).state())
    for text, item, seed in (("abc", 0, 12), ("ba", 3, 5), ("cab", 6, 0)):
        ids, bundle = encode_text(pipe, text), mini_run.items[item].bundle
        got, want = infer(pipe, ids, bundle, seed=seed), infer(ref, ids, bundle, seed=seed)
        assert got.mel.dtype == want.mel.dtype and got.mel.tobytes() == want.mel.tobytes()
        assert got.tokens is not None and want.tokens is not None
        for stream in ("semantic", "acoustic"):
            assert np.array_equal(getattr(got.tokens, stream), getattr(want.tokens, stream))
        assert got.metadata["stop_probs"] == want.metadata["stop_probs"]


def test_load_pipeline_makes_no_draw(mini_run, monkeypatch):
    """No `Rng` is seeded and no `Rng.normal` draw is made while loading;
    the counter does see the draws `infer()` then makes."""
    calls = []
    init, normal = Rng.__init__, Rng.normal

    def counting_init(self, seed):
        calls.append("init")
        init(self, seed)

    def counting_normal(self, *args, **kwargs):
        calls.append("normal")
        return normal(self, *args, **kwargs)

    monkeypatch.setattr(Rng, "__init__", counting_init)
    monkeypatch.setattr(Rng, "normal", counting_normal)
    pipe = load_pipeline(mini_run.ckpt_dir)
    assert calls == []
    infer(pipe, encode_text(pipe, "ab"), mini_run.items[0].bundle, seed=1, max_frames=2)
    assert {"init", "normal"} <= set(calls)


@pytest.mark.parametrize("stage", ["ar", "nar", "flow"])
def test_frozen_tokenizer_equals_the_seeded_route(tmp_path, mini_run, monkeypatch, stage):
    """`train_stage` builds its frozen tokenizer from the blank source: its
    state is bitwise a seeded tokenizer's loaded over, and the stage writes
    the same checkpoint bytes as it does from that seeded tokenizer."""
    shutil.copy(mini_run.ckpt_dir / "tokenizer.ckpt", tmp_path / "tokenizer.ckpt")
    pcfg, built = _quick_pcfg(3), []

    def recording(cfg, rng=None):
        built.append((ParallelTokenizer(cfg, rng), rng))
        return built[-1][0]

    monkeypatch.setattr(train_mod, "ParallelTokenizer", recording)
    train_stage(stage, mini_run.items, pcfg, tmp_path / "blank.ckpt")
    (tok, rng), = built
    assert isinstance(rng, BlankRng)
    seeded = ParallelTokenizer(pcfg.build_tokenizer_config())
    seeded.load_full_state(load_checkpoint(tmp_path / "tokenizer.ckpt").params)
    _assert_states_bitwise(tok.full_state(), seeded.full_state())

    monkeypatch.setattr(train_mod, "ParallelTokenizer", lambda cfg, rng=None: ParallelTokenizer(cfg))
    train_stage(stage, mini_run.items, pcfg, tmp_path / "seeded.ckpt")
    assert (tmp_path / "blank.ckpt").read_bytes() == (tmp_path / "seeded.ckpt").read_bytes()


def _reachable_arrays(obj, path: str = ""):
    """(path, array) for every numpy array reachable from `obj` through
    attributes, lists, tuples and dicts (a Tensor by its data)."""
    if isinstance(obj, Tensor):
        obj = obj.data
    if isinstance(obj, np.ndarray):
        yield path, obj
        return
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, (list, tuple)):
        children = enumerate(obj)
    elif hasattr(obj, "__dict__"):
        children = vars(obj).items()
    else:
        return
    for key, value in children:
        yield from _reachable_arrays(value, f"{path}.{key}")


# name -> (model from a config and a random source, its seeded random source, state, load)
_MODELS = {
    "tokenizer": (lambda p, rng: ParallelTokenizer(p.build_tokenizer_config(), rng), lambda p: None,
                  "full_state", "load_full_state"),
    "ar": (lambda p, rng: DualStreamAR(p.build_ar_config(), rng), lambda p: None, "state", "load_state"),
    "nar": (lambda p, rng: CoupledNAR(p.build_nar_config(), rng), lambda p: None, "state", "load_state"),
    "flow": (lambda p, rng: VelocityField(p.build_flow_config(), rng), lambda p: Rng(p.flow.seed),
             "state", "load_state"),
}


_ABLATIONS = {"toy": {}, "merged": {"parallel_streams": False}, "no_refiner": {"use_refiner": False}}


@pytest.mark.parametrize("ablation, model", [pytest.param(ab, m, id=f"{name}-{m}")
                                             for name, ab in _ABLATIONS.items()
                                             for m in _MODELS if not (m == "nar" and name == "no_refiner")])
def test_every_drawn_array_is_in_the_state(ablation, model):
    """A model built from the blank source holds NaN in every drawn value
    and nowhere outside its state, and a seeded model's state loaded over
    it leaves every array finite and bitwise that state."""
    build, seeded_rng, state, load = _MODELS[model]
    pcfg = config_with_overrides(toy_profile(), {f"ablation.{k}": v for k, v in ablation.items()})
    blank, seeded = build(pcfg, BlankRng()), build(pcfg, seeded_rng(pcfg))
    blank_state, seeded_state = getattr(blank, state)(), getattr(seeded, state)()
    assert set(blank_state) == set(seeded_state)
    for name, arr in blank_state.items():
        if name.endswith("weight"):
            assert np.isnan(arr).all(), name
        elif name.endswith("entries"):  # drawn, then the pinned zero codeword written over row 0
            assert np.isnan(arr[1:]).all() and not arr[0].any(), name
        else:  # LayerNorm gains and shifts, biases and EMA statistics are constants, not draws
            assert arr.tobytes() == seeded_state[name].tobytes(), name
    in_state = {id(arr) for arr in blank_state.values()}
    for path, arr in _reachable_arrays(blank):
        assert arr.dtype.kind != "f" or np.isfinite(arr).all() or id(arr) in in_state, path
    getattr(blank, load)(seeded_state)
    for path, arr in _reachable_arrays(blank):
        assert arr.dtype.kind != "f" or np.isfinite(arr).all(), path
    _assert_states_bitwise(getattr(blank, state)(), seeded_state)


def test_infer_rejects_overlong_reference_before_encoding(mini_run):
    pipe = load_pipeline(mini_run.ckpt_dir)
    encoded = []
    encode = pipe.tokenizer.encode_speech
    pipe.tokenizer.encode_speech = lambda bundle: encoded.append(bundle) or encode(bundle)
    short = mini_run.items[0].bundle
    ids = encode_text(pipe, "ab")

    def stretched(n_frames):
        reps = -(-n_frames // short.n_frames)
        return dataclasses.replace(short, **{
            name: np.concatenate([getattr(short, name)] * reps)[:n_frames]
            for name in ("semantic", "acoustic", "speaker_frames", "mel")})

    # The generator needs room for one frame after the reference.
    ar_limit = pipe.ar.cfg.max_speech_len - 1
    with pytest.raises(ValueError, match=f"limit of {ar_limit}"):
        infer(pipe, ids, stretched(ar_limit + 1), seed=1)
    # The refiner's own reference limit applies too.
    pipe.nar.cfg.max_ref_len = short.n_frames - 1
    with pytest.raises(ValueError, match=f"max_ref_len={short.n_frames - 1}"):
        infer(pipe, ids, short, seed=1)
    assert encoded == []
    pipe.nar.cfg.max_ref_len = short.n_frames
    result = infer(pipe, ids, short, seed=1, max_frames=2)
    assert len(encoded) == 1 and result.metadata["n_frames"] <= 2
    # Without a refiner, the tokenizer's own frame limit still applies.
    encoded.clear()
    pipe.nar = None
    pipe.tokenizer.cfg.max_frames = short.n_frames - 1
    with pytest.raises(ValueError, match=f"max_frames={short.n_frames - 1}"):
        infer(pipe, ids, short, seed=1)
    assert encoded == []


def test_infer_rejects_bad_arguments_before_encoding(mini_run):
    """Text, unframed text ids, sampling settings, flow steps and an empty
    reference fail the generator's, the framing, the solver's and the
    reference checks before any encoding."""
    pipe = load_pipeline(mini_run.ckpt_dir)
    encoded = []
    encode = pipe.tokenizer.encode_speech
    pipe.tokenizer.encode_speech = lambda bundle: encoded.append(bundle) or encode(bundle)
    short = mini_run.items[0].bundle
    ids = encode_text(pipe, "ab")
    # A feature file cannot hold a zero-frame bundle, but a caller can build one.
    empty = dataclasses.replace(short, **{
        name: getattr(short, name)[:0] for name in ("semantic", "acoustic", "speaker_frames", "mel")})
    assert empty.n_frames == 0
    cfg = pipe.ar.cfg
    cases = [
        (ids, empty, {}, "reference of 0 frames"),
        (ids, short, {"flow_steps": 0}, r"^SolverConfig\.n_steps must be an int >= 1, got 0$"),
        (ids, short, {"flow_steps": 2.5}, r"^SolverConfig\.n_steps must be an int >= 1, got 2\.5$"),
        (ids, short, {"flow_steps": True}, r"^SolverConfig\.n_steps must be an int >= 1, got True$"),
        (ids, short, {"seed": 2.5}, r"^Rng seed must be an int >= 0, got 2\.5$"),
        (np.zeros(cfg.max_text_len + 1, dtype=np.int64), short, {}, "max_text_len"),
        (np.array([0, cfg.text_vocab]), short, {}, "text ids out of range"),
        (ids, short, {"top_k": 0}, "top_k must be >= 1"),
        (ids, short, {"temperature": 0.0}, "temperature must be > 0"),
        (ids, short, {"max_frames": -1}, "max_frames must be >= 0"),
        (ids, short, {"temperature": math.nan}, "temperature must be a finite number, got nan"),
        (ids, short, {"top_k": 2.5}, "top_k must be an int, got 2.5"),
        (ids, short, {"max_frames": 2.5}, "max_frames must be an int, got 2.5"),
        (ids[1:], short, {}, "^text_ids must start with the begin mark and end with the end mark$"),
        (ids[:-1], short, {}, "^text_ids must start with the begin mark and end with the end mark$"),
    ]
    for text_ids, ref, kwargs, match in cases:
        with pytest.raises(ValueError, match=match):
            infer(pipe, text_ids, ref, **{"seed": 1, **kwargs})
        assert encoded == [], match


def test_infer_caps_generation_at_refiner_target_limit(mini_run):
    """The refiner cannot take more frames than its max_target_len, so
    generation stops there instead of failing in the refiner."""
    pipe = load_pipeline(mini_run.ckpt_dir)
    pipe.ar.stop_head.bias.data[:] = -1e4
    pipe.nar.cfg.max_target_len = 3
    result = infer(pipe, encode_text(pipe, "ab"), mini_run.items[0].bundle, seed=1)
    assert result.metadata["n_frames"] == 3 and result.mel.shape[0] == 3
    assert result.metadata["truncated"] and not result.metadata["terminated"]


def test_loaded_pipeline_arrays_are_its_own(mini_run, monkeypatch):
    """A checkpoint's parameters are writable views of the one buffer its
    file is read into; every array of a loaded pipeline is a writable,
    aligned copy that shares no memory with them."""
    loaded, original = {}, train_mod.load_stage_checkpoint

    def record(path, stage):
        loaded[stage] = original(path, stage)
        return loaded[stage]

    monkeypatch.setattr(train_mod, "load_stage_checkpoint", record)
    pipe = load_pipeline(mini_run.ckpt_dir)
    states = {"tokenizer": pipe.tokenizer.full_state(), "ar": pipe.ar.state(),
              "nar": pipe.nar.state(), "flow": pipe.flow.state()}
    for stage, state in states.items():
        params = loaded[stage].params
        assert set(state) == set(params), stage
        assert all(a.flags.writeable and not a.flags.owndata for a in params.values()), stage
        for name, arr in state.items():
            assert arr.flags.writeable and arr.flags.aligned, (stage, name)
            assert not any(np.shares_memory(arr, a) for a in params.values()), (stage, name)


def test_load_pipeline_missing_checkpoint(tmp_path):
    with pytest.raises(FileNotFoundError, match="tokenizer"):
        load_pipeline(tmp_path)


def test_load_pipeline_rejects_mixed_configs(tmp_path, mini_run):
    for name in ("tokenizer.ckpt", "ar.ckpt", "nar.ckpt", "flow.ckpt"):
        shutil.copy(mini_run.ckpt_dir / name, tmp_path / name)
    ckpt = load_checkpoint(tmp_path / "ar.ckpt")
    ckpt.config["ar"]["n_layers"] = 9
    save_checkpoint(tmp_path / "ar.ckpt", ckpt)
    with pytest.raises(IncompatibleCheckpoints, match="ar.n_layers"):
        load_pipeline(tmp_path)


def _corrupt_copy(mini_run, tmp_path, stage: str, name: str, value: float) -> None:
    """Copy mini_run's checkpoints to tmp_path, with `value` written into
    the first entry of parameter `name` of the `stage` checkpoint."""
    for ckpt_name in CHECKPOINT_NAMES.values():
        shutil.copy(mini_run.ckpt_dir / ckpt_name, tmp_path / ckpt_name)
    path = tmp_path / CHECKPOINT_NAMES[stage]
    ckpt = load_checkpoint(path)
    ckpt.params[name].reshape(-1)[0] = value
    save_checkpoint(path, ckpt)


def test_load_pipeline_rejects_non_finite_parameters(tmp_path, mini_run):
    """One NaN in a weight fails the load, naming the file and the array,
    instead of synthesizing from it."""
    _corrupt_copy(mini_run, tmp_path, "ar", "blocks.0.fc1.weight", np.nan)
    with pytest.raises(CheckpointError, match=r"ar\.ckpt: parameter 'blocks\.0\.fc1\.weight' holds non-finite"):
        load_pipeline(tmp_path)


def test_training_rejects_a_non_finite_frozen_tokenizer(tmp_path, mini_run):
    params = load_checkpoint(mini_run.ckpt_dir / "tokenizer.ckpt").params
    name = next(k for k in sorted(params) if params[k].dtype.kind == "f")
    _corrupt_copy(mini_run, tmp_path, "tokenizer", name, -np.inf)
    with pytest.raises(CheckpointError, match=rf"tokenizer\.ckpt: parameter '{re.escape(name)}' holds non-finite"):
        train_stage("ar", mini_run.items, _quick_pcfg(), tmp_path / "ar.ckpt")
    assert (tmp_path / "ar.ckpt").read_bytes() == (mini_run.ckpt_dir / "ar.ckpt").read_bytes()


def _stop_after(pipe, n_calls: int | None) -> None:
    """Pin the generator's P(stop) to 0, then to 1 from the `n_calls`-th
    trunk call on (never when None)."""
    stop = pipe.ar.stop_head
    stop.weight.data[:] = 0.0
    stop.bias.data[:] = -1e4
    trunk, calls = pipe.ar.forward_states, []

    def counting(*args, **kwargs):
        calls.append(1)
        if len(calls) == n_calls:
            stop.bias.data[:] = 1e4
        return trunk(*args, **kwargs)

    pipe.ar.forward_states = counting


@pytest.mark.parametrize("n_calls, max_frames", [(3, None), (None, 4)])
def test_infer_reports_stage_times_and_stop_trace(mini_run, n_calls, max_frames):
    """Per-stage ms for every stage, and P(stop) after the prompt and after
    each frame, for a request the stop head ends and for a truncated one."""
    pipe = load_pipeline(mini_run.ckpt_dir)
    _stop_after(pipe, n_calls)
    result = infer(pipe, encode_text(pipe, "ab"), mini_run.items[0].bundle, seed=4, max_frames=max_frames)
    meta = result.metadata
    n = meta["n_frames"]
    assert set(meta["stage_ms"]) == {"encode", "ar", "nar", "decode", "flow"}
    assert all(isinstance(v, float) and v > 0 for v in meta["stage_ms"].values())
    probs = meta["stop_probs"]
    assert len(probs) == n + 1 and all(isinstance(p, float) for p in probs)
    assert all(p < 0.5 for p in probs[:-1])
    if n_calls is None:
        assert meta["truncated"] and n == max_frames and probs[-1] < 0.5
    else:
        assert meta["terminated"] and n == n_calls - 1 and probs[-1] > 0.5
    json.dumps(meta)


def test_infer_makes_no_tensor_op(mini_run, tape_records):
    """Synthesis runs every module on arrays: `speaker_conditions`,
    `generate`, `predict` and `sample_mel` make no Tensor op output at all."""
    pipe = load_pipeline(mini_run.ckpt_dir)
    result = infer(pipe, encode_text(pipe, "abc"), mini_run.items[0].bundle, seed=12, max_frames=4)
    assert result.metadata["n_frames"] > 0 and result.tokens.semantic.shape[1] == 3
    assert tape_records == []


def test_write_mel_file_round_trip(tmp_path, mini_run):
    pipe = load_pipeline(mini_run.ckpt_dir)
    ref = mini_run.items[1].bundle
    result = infer(pipe, encode_text(pipe, "ba"), ref, seed=5)
    out = tmp_path / "m.feat"
    write_mel_file(out, result)
    arrays = load_arrays(out)
    assert np.array_equal(arrays["mel"], result.mel)
    if result.tokens is not None:
        assert "semantic_tokens" in arrays and "acoustic_tokens" in arrays


def test_evaluate_report_shape(mini_run):
    pipe = load_pipeline(mini_run.ckpt_dir)
    report = evaluate(pipe, mini_run.items, mel_items=2)
    assert report["n_items"] == len(mini_run.items)
    assert set(report["tokenizer"]) == {"recon_mse", "input_variance",
                                        "utilization", "perplexity"}
    assert set(report["ar"]["teacher_forced_accuracy"]) == {"semantic", "acoustic"}
    assert set(report["nar"]["stage_accuracy"]) == {"layer2", "layer3"}
    assert set(report["nar"]["frame_exact_match"]) == {"layer2", "layer3"}
    for layer, acc in report["nar"]["stage_accuracy"].items():
        # every stream right implies each stream right
        assert 0.0 <= report["nar"]["frame_exact_match"][layer] <= acc <= 1.0
    assert 0.0 <= report["ar"]["stop_accuracy"] <= 1.0
    assert 0.0 <= report["ar"]["stop_final_fired"] <= 1.0
    text = format_report(report)
    assert "ar[stop]: teacher-forced accuracy" in text
    assert "final state fires on" in text
    assert len(report["flow"]["mel_mse_per_item"]) == 2
    back = json.loads(json.dumps(report))
    assert back["n_items"] == report["n_items"]


def test_evaluate_makes_no_tensor_op(mini_run, tape_records):
    """Evaluation scores every stage on arrays, the AR's teacher-forced
    pass included: it makes no Tensor op output at all."""
    pipe = load_pipeline(mini_run.ckpt_dir)
    report = evaluate(pipe, mini_run.items, mel_items=1)
    assert report["n_items"] == len(mini_run.items) and 0.0 <= report["ar"]["stop_accuracy"] <= 1.0
    assert tape_records == []


def test_evaluate_encodes_the_corpus_once(mini_run, monkeypatch):
    """One RVQ encode per stack per report, and the tokenizer figures equal
    those of a per-stack encode of the corpus frames."""
    pipe = load_pipeline(mini_run.ckpt_dir)
    encode, calls = RVQStack.encode, []
    monkeypatch.setattr(RVQStack, "encode", lambda stack, frames: calls.append(stack) or encode(stack, frames))
    report = evaluate(pipe, mini_run.items, mel_items=1)["tokenizer"]
    assert calls == list(pipe.tokenizer.stacks.values())
    for name, frames in pipe.tokenizer.stream_frames([it.bundle for it in mini_run.items]).items():
        stack = pipe.tokenizer.stacks[name]
        tokens = encode(stack, frames)
        quantized, _ = rvq_residuals(stack, frames, tokens)
        assert report["recon_mse"][name] == float(((frames - quantized) ** 2).mean())
        assert report["utilization"][name] == stack.utilization(tokens)
        assert report["perplexity"][name] == stack.perplexity(tokens)


# ---- ablations -------------------------------------------------------------------


def test_ablation_without_refiner(tmp_path):
    pcfg = mini_pipeline_config(use_refiner=False)
    for name, sched in pcfg.schedules.items():
        pcfg.schedules[name] = dataclasses.replace(sched, total_steps=20, warmup_steps=4)
    pcfg.validate()
    items = corpus_items(generate_corpus(pcfg.data))

    train_stage("tokenizer", items, pcfg, tmp_path / "tokenizer.ckpt")
    train_stage("ar", items, pcfg, tmp_path / "ar.ckpt")
    with pytest.raises(ValueError, match="refiner"):
        train_stage("nar", items, pcfg, tmp_path / "nar.ckpt")
    train_stage("flow", items, pcfg, tmp_path / "flow.ckpt")

    pipe = load_pipeline(tmp_path)
    assert pipe.nar is None
    assert pipe.ar.cfg.layers_per_stream == pcfg.tokenizer.n_quantizer_layers
    result = infer(pipe, encode_text(pipe, "ab"), items[0].bundle, seed=1, max_frames=4)
    assert result.mel.shape[1] == pcfg.data.mel_bins


def test_ablation_merged_streams(tmp_path):
    pcfg = mini_pipeline_config(parallel_streams=False)
    for name, sched in pcfg.schedules.items():
        pcfg.schedules[name] = dataclasses.replace(sched, total_steps=20, warmup_steps=4)
    pcfg.validate()
    assert pcfg.stream_spec() == (("merged", pcfg.tokenizer.codebook_size),)
    items = corpus_items(generate_corpus(pcfg.data))

    for stage in ("tokenizer", "ar", "nar", "flow"):
        train_stage(stage, items, pcfg, tmp_path / f"{stage}.ckpt")
    pipe = load_pipeline(tmp_path)
    assert [s for s, _ in pipe.ar.cfg.streams] == ["merged"]
    calls = []
    for name in ("encode_speech", "decode_tokens"):
        method = getattr(pipe.tokenizer, name)
        setattr(pipe.tokenizer, name, lambda *a, _m=method, _n=name: calls.append(_n) or _m(*a))
    result = infer(pipe, encode_text(pipe, "ab"), items[0].bundle, seed=1, max_frames=4)
    assert result.mel.shape[1] == pcfg.data.mel_bins
    assert result.tokens is None and result.metadata["n_frames"] > 0
    # One encode and one decode, the same token-grid path as parallel streams.
    assert calls == ["encode_speech", "decode_tokens"]


# ---- command line ------------------------------------------------------------------


def test_cli_gen_data_and_errors(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_doc(SyntheticSpec(n_utterances=4, n_speakers=2))))
    assert cli_main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 0
    _, items = load_corpus_dir(tmp_path / "d")
    assert len(items) == 4

    assert cli_main(["gen-data", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "e")]) == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli_main(["gen-data", "--spec", str(bad), "--out", str(tmp_path / "f")]) == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("symbols_per_utterance", 5), ("frames_per_symbol", [2]),
                                          ("frames_per_symbol", [1, "2"]), ("noise_scale", "loud"),
                                          ("seed", "x"), ("seed", 1.5), ("n_utterances", True),
                                          ("n_speakers", True)])
def test_cli_gen_data_names_a_malformed_spec_field(tmp_path, capsys, field, value):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({field: value}))
    assert cli_main(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")]) == 1
    assert f"SyntheticSpec.{field}" in _one_error_line(capsys)


@pytest.mark.parametrize("path, value", [("ar.temperature", "hot"), ("data.frames_per_symbol", [2]),
                                         ("data.symbols_per_utterance", 5), ("data.noise_scale", None),
                                         ("schedules.ar.peak_lr", "fast")])
def test_cli_train_names_a_malformed_config_field(tmp_path, capsys, path, value):
    doc = toy_profile().to_dict()
    *sections, field = path.split(".")
    node = doc
    for section in sections:
        node = node[section]
    node[field] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    rc = cli_main(["train", "--stage", "tokenizer", "--config", str(cfg_path),
                   "--data", str(tmp_path / "none"), "--out", str(tmp_path / "t.ckpt"), "--quiet"])
    assert rc == 1
    assert re.search(rf"\b{field} must be", _one_error_line(capsys))


def test_cli_train_rejects_mismatched_corpus(tmp_path, capsys):
    pcfg = _quick_pcfg()
    other = dataclasses.replace(pcfg.data, semantic_dim=24)
    out = write_corpus_dir(generate_corpus(other), tmp_path / "d")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pcfg.to_dict()))
    rc = cli_main(["train", "--stage", "tokenizer", "--config", str(cfg_path),
                   "--data", str(out), "--out", str(tmp_path / "t.ckpt"), "--quiet"])
    assert rc == 1
    assert "data.semantic_dim" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("frames_per_symbol", (2, 5)), ("symbols_per_utterance", (3, 6))])
def test_cli_rejects_a_corpus_longer_than_the_config(tmp_path, mini_run, capsys, field, value):
    """A corpus whose utterances can run longer than the config's data
    section allows fails `train` before the tokenizer trains, and `eval`
    before any report, naming the field: it would otherwise pass the
    tokenizer and fail inside the AR's training loop."""
    out = write_corpus_dir(generate_corpus(dataclasses.replace(mini_run.pcfg.data, **{field: value})),
                           tmp_path / "d")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(mini_run.pcfg.to_dict()))
    rc = cli_main(["train", "--stage", "tokenizer", "--config", str(cfg_path),
                   "--data", str(out), "--out", str(tmp_path / "t.ckpt"), "--quiet"])
    assert rc == 1 and f"config's data.{field}" in _one_error_line(capsys)
    assert not (tmp_path / "t.ckpt").exists()
    rc = cli_main(["eval", "--data", str(out), "--ckpt-dir", str(mini_run.ckpt_dir),
                   "--report", str(tmp_path / "r.json")])
    assert rc == 1 and f"config's data.{field}" in _one_error_line(capsys)
    assert not (tmp_path / "r.json").exists()


def test_cli_eval_rejects_mismatched_corpus_before_encoding(tmp_path, mini_run, monkeypatch, capsys):
    """`eval` checks the corpus spec against the pipeline's config before
    any model runs: a corpus of 12 mel bins against a 16-bin pipeline is
    one error line naming `data.mel_bins`, with nothing encoded."""
    out = write_corpus_dir(generate_corpus(dataclasses.replace(mini_run.pcfg.data, mel_bins=12)), tmp_path / "d")
    encode, calls = ParallelTokenizer.encode_grids, []
    monkeypatch.setattr(ParallelTokenizer, "encode_grids", lambda tok, bundles: calls.append(1) or encode(tok, bundles))
    rc = cli_main(["eval", "--data", str(out), "--ckpt-dir", str(mini_run.ckpt_dir),
                   "--report", str(tmp_path / "r.json")])
    assert rc == 1
    assert _one_error_line(capsys) == "error: corpus spec disagrees with config data section on: data.mel_bins"
    assert calls == [] and not (tmp_path / "r.json").exists()


MALFORMED_MANIFESTS = {
    "items_not_a_list": (lambda doc: doc.update(items={"file": "utt_00000.feat"}), "items must be a list"),
    "row_not_an_object": (lambda doc: doc["items"].insert(1, 5), "items[1] must be an object, got 5"),
    "file_not_a_string": (lambda doc: doc["items"][2].update(file=7), "items[2].file must be a string, got 7"),
    "speaker_id_not_an_int": (lambda doc: doc["items"][0].update(speaker_id="abc"),
                              "items[0].speaker_id must be an int, got 'abc'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_cli_train_names_a_malformed_manifest_row(tmp_path, capsys, case):
    """A malformed manifest is one error line naming the manifest and the row."""
    mutate, message = MALFORMED_MANIFESTS[case]
    pcfg = _quick_pcfg()
    manifest = write_corpus_dir(generate_corpus(pcfg.data), tmp_path / "d") / "manifest.json"
    doc = json.loads(manifest.read_text())
    mutate(doc)
    manifest.write_text(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(pcfg.to_dict()))
    rc = cli_main(["train", "--stage", "tokenizer", "--config", str(cfg_path),
                   "--data", str(manifest.parent), "--out", str(tmp_path / "t.ckpt"), "--quiet"])
    assert rc == 1
    assert _one_error_line(capsys) == f"error: {manifest}: {message}"


def test_cli_inspect(tmp_path, mini_run, capsys):
    rc = cli_main(["inspect", "--ckpt", str(mini_run.ckpt_dir / "tokenizer.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stage: tokenizer" in out and "parameters:" in out

    rc = cli_main(["inspect", "--ckpt", str(tmp_path / "none.ckpt")])
    assert rc == 1


def test_cli_infer_and_eval_in_process(tmp_path, mini_run):
    ref_path = tmp_path / "ref.feat"
    from paravox.frontend import save_features
    save_features(ref_path, mini_run.items[0].bundle)
    mel_path = tmp_path / "out.feat"
    rc = cli_main(["infer", "--text", "ab", "--ref", str(ref_path),
                   "--ckpt-dir", str(mini_run.ckpt_dir), "--seed", "2",
                   "--top-k", "2", "--out", str(mel_path)])
    assert rc == 0
    assert "mel" in load_arrays(mel_path)

    data_dir = write_corpus_dir(generate_corpus(mini_run.pcfg.data), tmp_path / "d")
    report_path = tmp_path / "r.json"
    rc = cli_main(["eval", "--data", str(data_dir), "--ckpt-dir", str(mini_run.ckpt_dir),
                   "--report", str(report_path)])
    assert rc == 0
    assert "tokenizer" in json.loads(report_path.read_text())


def test_cli_infer_rejects_nan_temperature(tmp_path, mini_run, capsys):
    ref_path = tmp_path / "ref.feat"
    save_features(ref_path, mini_run.items[0].bundle)
    rc = cli_main(["infer", "--text", "ab", "--ref", str(ref_path), "--ckpt-dir", str(mini_run.ckpt_dir),
                   "--temperature", "nan", "--out", str(tmp_path / "out.feat")])
    assert rc == 1
    assert "temperature" in _one_error_line(capsys)
    assert not (tmp_path / "out.feat").exists()


def test_cli_subprocess_entry_point(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_doc(SyntheticSpec(n_utterances=2, n_speakers=2))))
    proc = run_cli(["gen-data", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
    assert proc.returncode == 0, proc.stderr
    assert "wrote 2 utterances" in proc.stdout
