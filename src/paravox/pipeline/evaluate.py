"""Corpus-level metrics for a trained pipeline.

Everything is teacher-forced or ground-truth-conditioned: the point is
to measure each stage against the corpus it was fitted to. Free-running
synthesis is not scored here, although it has a reference:
`frontend.make_utterance` renders any text in any corpus voice, so an
oracle exists for every cross-voice request.
"""

from __future__ import annotations

import numpy as np

from ..flow import SolverConfig, sample_mel
from .data import CorpusItem, corpus_view
from .infer import LoadedPipeline
from .train import tokenizer_metrics


def evaluate(pipe: LoadedPipeline, items: list[CorpusItem], mel_items: int = 8) -> dict:
    """Metrics report as a JSON-able dict.

    `mel_items` caps how many utterances get a full flow-sampled mel
    comparison, the one genuinely slow metric.
    """
    tok = pipe.tokenizer
    view = corpus_view(items, tok.encode_grids)
    every = range(len(items))
    report: dict = {"n_items": len(items), "tokenizer": tokenizer_metrics(tok, items, view.grids),
                    "ar": pipe.ar.teacher_forced_scores(view.ar_rows(every, pipe.ar.cfg.layers_per_stream))}
    if pipe.nar is not None:
        acc, exact = pipe.nar.stage_scores(view.pairs(every))
        report["nar"] = {"stage_accuracy": acc, "frame_exact_match": exact}

    bundles = [it.bundle for it in items[:mel_items]]
    conds = tok.speaker_conditions([b.speaker_frames for b in bundles])
    mse = []
    for bundle, grid, cond in zip(bundles, view.grids, conds):
        mel = sample_mel(pipe.flow, tok.decode_tokens(grid), cond,
                         SolverConfig(n_steps=pipe.config.flow.default_steps, seed=0))
        mse.append(float(((mel - bundle.mel) ** 2).mean()))
    report["flow"] = {"mel_mse_mean": float(np.mean(mse)), "mel_mse_per_item": mse}
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of an `evaluate` report."""
    lines = [f"items evaluated: {report['n_items']}"]
    tk = report["tokenizer"]
    for name in sorted(tk["recon_mse"]):
        util = ", ".join(f"{u:.2f}" for u in tk["utilization"][name])
        perp = ", ".join(f"{p:.1f}" for p in tk["perplexity"][name])
        lines.append(f"tokenizer[{name}]: recon MSE {tk['recon_mse'][name]:.6f}; "
                     f"utilization [{util}]; perplexity [{perp}]")
    for name, acc in sorted(report["ar"]["teacher_forced_accuracy"].items()):
        lines.append(f"ar[{name}]: teacher-forced accuracy {acc:.4f}")
    lines.append(f"ar[stop]: teacher-forced accuracy {report['ar']['stop_accuracy']:.4f}; "
                 f"final state fires on {report['ar']['stop_final_fired']:.4f} of utterances")
    if "nar" in report:
        for layer, acc in sorted(report["nar"]["stage_accuracy"].items()):
            exact = report["nar"]["frame_exact_match"][layer]
            lines.append(f"nar[{layer}]: token accuracy {acc:.4f}; frame exact match {exact:.4f}")
    lines.append(f"flow: mel MSE {report['flow']['mel_mse_mean']:.6f} "
                 f"over {len(report['flow']['mel_mse_per_item'])} items")
    return "\n".join(lines)
