"""Shared fixtures: a quick in-process training run and the full desk-scale run.

Both are session-scoped because training, however small, dominates the
suite's wall time.  `mini_run` exists for plumbing tests (loading,
inference, freezing); `toy_run` is the real overfit experiment driven
through the command-line interface as a subprocess, and doubles as the
end-to-end smoke artifact.
"""

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from paravox.engine import Tensor
from paravox.frontend import SyntheticSpec, Vocabulary, default_alphabet, generate_corpus
from paravox.pipeline import toy_profile, train_stage

# ---- residual quantization ------------------------------------------------------


def rvq_residuals(stack, frames, tokens):
    """The quantized frames and each layer's residual norm of the (T, L)
    `tokens` an RVQ encode gave `frames`: codewords subtracted and summed
    layer by layer in the frames' dtype, as the encode's search saw them."""
    resid = np.asarray(frames)
    quantized = np.zeros_like(resid)
    norms = np.empty(tokens.shape, dtype=resid.dtype)
    for l, cb in enumerate(stack.layers):
        chosen = cb.entries[tokens[:, l]].astype(resid.dtype, copy=False)
        resid = resid - chosen
        quantized = quantized + chosen
        norms[:, l] = np.sqrt((resid * resid).sum(axis=1))
    return quantized, norms


@pytest.fixture
def tape_records(monkeypatch):
    """One bool per Tensor op output made while the test runs: whether it
    recorded a tape node."""
    recorded = []
    make = Tensor._make

    def recording(data, parents, grad_fn):
        out = make(data, parents, grad_fn)
        recorded.append(out._grad_fn is not None)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(recording))
    return recorded


# ---- the host that pinned bits were recorded on ------------------------------


def _host(recorded: dict) -> dict:
    """This host's entries of the host record `recorded`."""
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        return {"numpy": np.__version__}
    blas, simd = cfg["Build Dependencies"]["blas"], cfg["SIMD Extensions"]
    return {"numpy": np.__version__, "blas": {k: blas.get(k) for k in recorded["blas"]},
            "simd": {k: simd.get(k) for k in recorded["simd"]}}


def host_note(recorded: dict) -> str:
    """The host record `recorded` (numpy version, BLAS build, CPU SIMD flags)
    next to this host's, naming what differs: pinned f32 bits come from one
    host's numpy SIMD kernels and BLAS build, so another CPU or BLAS can
    move them with no code change."""
    host = _host(recorded)
    differ = [k for k in recorded if host.get(k) != recorded[k]]
    return (f"pins recorded on {recorded}; this host {host} "
            f"({'differs in ' + ', '.join(differ) if differ else 'is the same'})")


# ---- acceptance reporting ----------------------------------------------------

CRITERION_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> str:
    """Register one acceptance-criterion verdict for the final summary."""
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    CRITERION_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
from paravox.pipeline.config import (ARSection, FlowSection, ModelSection,
                                     PipelineConfig, TokenizerSection, TrainSchedule)
from paravox.pipeline.config import AblationSection
from paravox.pipeline.data import corpus_items, spec_to_doc
from paravox.pipeline.train import CHECKPOINT_NAMES, STAGES


def mini_pipeline_config(**ablation) -> PipelineConfig:
    """A deliberately tiny config: seconds to train, still end to end."""
    return PipelineConfig(
        name="mini",
        data=SyntheticSpec(vocab_size=16, n_speakers=2, n_utterances=8,
                           symbols_per_utterance=(3, 4), frames_per_symbol=(2, 2),
                           semantic_dim=16, acoustic_dim=16, speaker_frame_dim=16,
                           speaker_global_dim=8, mel_bins=16, max_frames=32, seed=7),
        tokenizer=TokenizerSection(cond_dim=16, codebook_size=32, n_quantizer_layers=3,
                                   attn_blocks=1, n_heads=2, conv_kernel=3, seed=11),
        ar=ARSection(n_layers=2, model_dim=64, n_heads=2, seed=22,
                     max_text_len=8, max_speech_len=24, top_k=4, temperature=1.0),
        nar=ModelSection(n_layers=1, model_dim=48, n_heads=2, seed=33),
        flow=FlowSection(hidden_dim=32, n_hidden=1, time_feat_dim=4,
                         default_steps=8, seed=44),
        schedules={
            "tokenizer": TrainSchedule(total_steps=120, warmup_steps=10, kind="cosine",
                                       base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                       batch_size=4, seed=101),
            "ar": TrainSchedule(total_steps=160, warmup_steps=10, kind="cosine",
                                base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                batch_size=4, seed=202),
            "nar": TrainSchedule(total_steps=120, warmup_steps=10, kind="cosine",
                                 base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                 batch_size=4, seed=303),
            "flow": TrainSchedule(total_steps=100, warmup_steps=10, kind="cosine",
                                  base_lr=1e-4, peak_lr=3e-3, final_lr=5e-4,
                                  batch_size=4, seed=404),
        },
        ablation=AblationSection(**ablation),
    )


@pytest.fixture(scope="session")
def mini_run(tmp_path_factory):
    """All four stages trained in-process on an 8-utterance corpus."""
    pcfg = mini_pipeline_config()
    pcfg.validate()
    items = corpus_items(generate_corpus(pcfg.data))
    ckpt_dir = tmp_path_factory.mktemp("mini_ckpts")
    reports = {}
    for stage in STAGES:
        reports[stage] = train_stage(stage, items, pcfg, ckpt_dir / CHECKPOINT_NAMES[stage])
    return SimpleNamespace(pcfg=pcfg, items=items, ckpt_dir=ckpt_dir, reports=reports)


def run_cli(args, **kwargs):
    """Invoke the installed command-line entry point as a subprocess."""
    env = dict(os.environ)
    # Keep the timing honest: one BLAS thread (the optimiser still runs
    # its worker thread on more than one usable CPU, as in any training run).
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "paravox.pipeline.cli", *args],
                          capture_output=True, text=True, env=env, **kwargs)


@pytest.fixture(scope="session")
def toy_run(tmp_path_factory):
    """The desk-scale profile, end to end through the CLI.

    gen-data -> train x4 -> infer -> eval, all as subprocesses.  The
    wall clock around the four train calls is part of the experiment.
    """
    root = tmp_path_factory.mktemp("toy")
    data_dir = root / "data"
    ckpt_dir = root / "ckpts"
    ckpt_dir.mkdir()
    spec_path = root / "spec.json"
    config_path = root / "config.json"
    mel_path = root / "sample.feat"
    report_path = root / "report.json"

    pcfg = toy_profile()
    spec_path.write_text(json.dumps(spec_to_doc(pcfg.data), indent=2))
    config_path.write_text(json.dumps(pcfg.to_dict(), indent=2))

    rcs = {}
    procs = {}
    procs["gen-data"] = run_cli(["gen-data", "--spec", str(spec_path), "--out", str(data_dir)])
    t0 = time.monotonic()
    for stage in STAGES:
        procs[f"train-{stage}"] = run_cli(
            ["train", "--stage", stage, "--config", str(config_path),
             "--data", str(data_dir), "--out", str(ckpt_dir / CHECKPOINT_NAMES[stage]),
             "--quiet"])
    train_wall = time.monotonic() - t0
    # Speak a sentence the corpus actually contains, in utterance 3's voice;
    # an overfit model should continue it rather than stopping immediately.
    vocab = Vocabulary(default_alphabet(pcfg.data.vocab_size))
    text = vocab.decode(generate_corpus(pcfg.data).utterances[0].bundle.symbols)
    procs["infer"] = run_cli(
        ["infer", "--text", text, "--ref", str(data_dir / "utt_00003.feat"),
         "--ckpt-dir", str(ckpt_dir), "--seed", "3", "--top-k", "4",
         "--out", str(mel_path)])
    procs["eval"] = run_cli(
        ["eval", "--data", str(data_dir), "--ckpt-dir", str(ckpt_dir),
         "--report", str(report_path)])
    rcs = {name: p.returncode for name, p in procs.items()}

    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return SimpleNamespace(root=root, data_dir=data_dir, ckpt_dir=ckpt_dir,
                           spec_path=spec_path, config_path=config_path,
                           mel_path=mel_path, report_path=report_path,
                           pcfg=pcfg, rcs=rcs, procs=procs,
                           train_wall=train_wall, report=report)
