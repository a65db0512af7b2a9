"""The whole pipeline, in-process: data -> 4 training stages -> speech.

Generates a small synthetic corpus, trains tokenizer / generator /
refiner / decoder in sequence into a checkpoint directory, then
synthesizes mel frames for a training sentence in a held-out speaker's
voice and compares against that utterance's ground truth.

The CLI (`paravox gen-data/train/infer/eval`) wraps exactly these calls;
see README for the command-line version.

Run: python3 demos/full_pipeline_roundtrip.py   (~60 s)
"""

import tempfile
from pathlib import Path

from paravox.frontend import SyntheticSpec, generate_corpus
from paravox.pipeline.config import (AblationSection, ARSection, FlowSection, ModelSection,
                                     PipelineConfig, TokenizerSection, TrainSchedule)
from paravox.pipeline.data import corpus_items
from paravox.pipeline.evaluate import evaluate
from paravox.pipeline.infer import infer, load_pipeline
from paravox.pipeline.train import CHECKPOINT_NAMES, STAGES, train_stage


def demo_config():
    return PipelineConfig(
        name="roundtrip-demo",
        data=SyntheticSpec(vocab_size=16, n_speakers=3, n_utterances=12,
                           symbols_per_utterance=(3, 5), frames_per_symbol=(2, 2),
                           semantic_dim=24, acoustic_dim=24, speaker_frame_dim=24,
                           speaker_global_dim=8, mel_bins=16, max_frames=32, seed=9),
        tokenizer=TokenizerSection(cond_dim=24, codebook_size=32, n_quantizer_layers=3,
                                   attn_blocks=1, n_heads=2, conv_kernel=3, seed=11),
        ar=ARSection(n_layers=2, model_dim=64, n_heads=2, seed=22,
                     max_text_len=10, max_speech_len=28, top_k=4, temperature=1.0),
        nar=ModelSection(n_layers=1, model_dim=48, n_heads=2, seed=33),
        flow=FlowSection(hidden_dim=48, n_hidden=1, time_feat_dim=4, default_steps=16, seed=44),
        schedules={
            "tokenizer": TrainSchedule(total_steps=300, warmup_steps=10, kind="cosine",
                                       base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                       batch_size=4, seed=101),
            "ar": TrainSchedule(total_steps=400, warmup_steps=20, kind="cosine",
                                base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                batch_size=4, seed=202),
            "nar": TrainSchedule(total_steps=250, warmup_steps=10, kind="cosine",
                                 base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                 batch_size=4, seed=303),
            "flow": TrainSchedule(total_steps=300, warmup_steps=10, kind="cosine",
                                  base_lr=1e-4, peak_lr=3e-3, final_lr=5e-4,
                                  batch_size=4, seed=404),
        },
        ablation=AblationSection(),
    )


def main():
    pcfg = demo_config()
    pcfg.validate()
    corpus = generate_corpus(pcfg.data)
    items = corpus_items(corpus)
    print(f"corpus: {len(items)} utterances, {pcfg.data.n_speakers} speakers, "
          f"{sum(it.bundle.semantic.shape[0] for it in items)} frames total")

    with tempfile.TemporaryDirectory() as tmp:
        ckpt_dir = Path(tmp)
        for stage in STAGES:
            report = train_stage(stage, items, pcfg, ckpt_dir / CHECKPOINT_NAMES[stage])
            print(f"  {stage:9s} {report.steps:4d} steps  "
                  f"final loss {report.losses['total'][-1]:8.4f}  "
                  f"{report.wall_time_s:5.1f}s")

        pipe = load_pipeline(ckpt_dir)

        vocab = pipe.vocabulary
        text = vocab.decode(items[0].bundle.symbols)
        truth = items[0].bundle.mel

        # Same sentence, same voice: the reference is the next utterance
        # by items[0]'s speaker (the pairing training used), so the
        # output should land close to items[0]'s own mel frames.
        same_voice = items[3]
        assert same_voice.speaker_id == items[0].speaker_id
        print(f"\nsynthesizing text {text!r} with its own speaker's reference:")
        result = infer(pipe, vocab.encode(text), same_voice.bundle, seed=0)
        t = min(truth.shape[0], result.mel.shape[0])
        mse = float(((result.mel[:t] - truth[:t]) ** 2).mean())
        print(f"  {result.metadata['n_frames']} frames "
              f"(terminated={result.metadata['terminated']}); "
              f"mel mse vs ground truth {mse:.4f} "
              f"(ground-truth variance {float(truth.var()):.4f})")

        # Same sentence, different voice: zero-shot transfer. The mel
        # moves away from speaker 0's rendition because the acoustic
        # stream and condition now carry speaker 2's identity.
        other_voice = items[5]
        print(f"same text with speaker {other_voice.speaker_id}'s reference instead:")
        result2 = infer(pipe, vocab.encode(text), other_voice.bundle, seed=0)
        t = min(truth.shape[0], result2.mel.shape[0])
        mse2 = float(((result2.mel[:t] - truth[:t]) ** 2).mean())
        print(f"  {result2.metadata['n_frames']} frames; "
              f"mel mse vs speaker {items[0].speaker_id}'s ground truth {mse2:.4f} "
              f"(voice changed, so distance grows)")

        report = evaluate(pipe, items)
        print("\nevaluation over the training corpus:")
        print(f"  ar accuracy: {report['ar']['teacher_forced_accuracy']}")
        print(f"  nar frame exact-match: {report['nar']['frame_exact_match']}")
        print(f"  flow mel mse: {report['flow']['mel_mse_mean']:.4f}")


if __name__ == "__main__":
    main()
