"""Command-line interface: gen-data, train, infer, eval, inspect.

Every command exits 0 on success; failures print one diagnostic line to
stderr and exit nonzero. Checkpoints use fixed names per stage
(tokenizer.ckpt, ar.ckpt, nar.ckpt, flow.ckpt) inside the checkpoint
directory, which is how later stages find their prerequisites.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..frontend import FeatureFileError, generate_corpus, load_features
from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, PipelineConfig
from .data import CorpusDirError, load_corpus_dir, spec_from_doc, write_corpus_dir
from .evaluate import evaluate, format_report
from .infer import (IncompatibleCheckpoints, encode_text, infer, load_pipeline,
                    write_mel_file)
from .train import STAGES, MissingPrerequisite, TrainingDiverged, train_stage

_ERRORS = (ConfigError, CorpusDirError, CheckpointError, FeatureFileError,
           IncompatibleCheckpoints, MissingPrerequisite, TrainingDiverged,
           FileNotFoundError, NotADirectoryError, PermissionError,
           ValueError, KeyError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paravox",
        description="Zero-shot speech token pipeline: data, training, inference, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="fabricate a synthetic corpus directory")
    p.add_argument("--spec", required=True, help="JSON file of corpus spec fields")
    p.add_argument("--out", required=True, help="directory to write feature files into")

    p = sub.add_parser("train", help="train one pipeline stage")
    p.add_argument("--stage", required=True, choices=STAGES)
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--data", required=True, help="corpus directory from gen-data")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p = sub.add_parser("infer", help="synthesize mel frames for text in a reference voice")
    p.add_argument("--text", required=True, help="text to speak")
    p.add_argument("--ref", required=True, help="reference utterance feature file")
    p.add_argument("--ckpt-dir", required=True, help="directory holding all stage checkpoints")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--flow-steps", type=int, default=None)
    p.add_argument("--out", required=True, help="feature file to write the mel into")

    p = sub.add_parser("eval", help="score a trained pipeline on a corpus")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--report", required=True, help="JSON report path")

    p = sub.add_parser("inspect", help="describe a checkpoint file")
    p.add_argument("--ckpt", required=True)
    return parser


def _cmd_gen_data(args) -> int:
    doc = json.loads(Path(args.spec).read_text())
    spec = spec_from_doc(doc, where=args.spec)
    corpus = generate_corpus(spec)
    out = write_corpus_dir(corpus, args.out)
    print(f"wrote {len(corpus)} utterances to {out}")
    return 0


def _corpus_items(data_dir, pcfg: PipelineConfig) -> list:
    """The corpus items, once their spec agrees with the config's data section
    and its utterances can be no longer, in symbols or in frames."""
    spec, items = load_corpus_dir(data_dir)
    diffs = [f"data.{f}" for f in ("semantic_dim", "acoustic_dim", "speaker_frame_dim", "speaker_global_dim",
                                   "mel_bins", "vocab_size") if getattr(spec, f) != getattr(pcfg.data, f)]
    if diffs:
        raise ConfigError("corpus spec disagrees with config data section on: " + ", ".join(diffs))
    (syms, frames), (cap_syms, cap_frames) = [
        (d.symbols_per_utterance[1], d.symbols_per_utterance[1] * d.frames_per_symbol[1]) for d in (spec, pcfg.data)]
    for n, cap, unit, field in ((syms, cap_syms, "symbols", "symbols_per_utterance"),
                                (frames, cap_frames, "frames", "frames_per_symbol")):
        if n > cap:
            raise ConfigError(f"corpus utterances run to {n} {unit}, past the {cap} the config's data.{field} allows")
    return items


def _cmd_train(args) -> int:
    pcfg = PipelineConfig.from_json(Path(args.config).read_text())
    items = _corpus_items(args.data, pcfg)
    report = train_stage(args.stage, items, pcfg, args.out, quiet=args.quiet)
    print(report.summary())
    print(f"wrote checkpoint {args.out}")
    return 0


def _cmd_infer(args) -> int:
    pipe = load_pipeline(args.ckpt_dir)
    ref = load_features(args.ref)
    text_ids = encode_text(pipe, args.text)
    result = infer(pipe, text_ids, ref, seed=args.seed, top_k=args.top_k,
                   temperature=args.temperature, flow_steps=args.flow_steps)
    write_mel_file(args.out, result)
    print(json.dumps(result.metadata, sort_keys=True))
    print(f"wrote mel {result.mel.shape} to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    pipe = load_pipeline(args.ckpt_dir)
    report = evaluate(pipe, _corpus_items(args.data, pipe.config))
    Path(args.report).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(format_report(report))
    print(f"wrote report {args.report}")
    return 0


def _cmd_inspect(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    print(ckpt.describe())
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON: {e}", file=sys.stderr)
        return 1
    except _ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
