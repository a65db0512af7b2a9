"""Dual-stream autoregressive generation with a joint stop head.

Trains a small generator on a fixed text -> (semantic, acoustic) token
mapping, then samples: the two streams always come out frame-aligned,
the stop head decides the length, and top_k=1 reduces to greedy argmax
while larger k adds controlled variety.

Run: python3 demos/dual_stream_generation.py   (~20 s)
"""

import numpy as np

from paravox.ar import ARConfig, DualStreamAR
from paravox.engine import Rng, gradients
from paravox.pipeline.train import Adam

TEXT_VOCAB = 10
TOKEN_VOCAB = 12
N_SEQUENCES = 12


def toy_rows(rng):
    """Deterministic text -> token-pair sequences, lengths 3..6."""
    rows = []
    for i in range(N_SEQUENCES):
        n_text = int(rng.integers(2, 5))
        text = np.asarray(rng.integers(1, TEXT_VOCAB, (n_text,)), dtype=np.int64).reshape(-1)
        t = int(rng.integers(3, 7))
        # Semantic follows the text cyclically; acoustic is a shifted copy,
        # so both streams are predictable but not identical.
        sem = np.array([(int(text[j % n_text]) + j) % TOKEN_VOCAB for j in range(t)])
        ac = (sem * 3 + 1) % TOKEN_VOCAB
        tgt = np.stack([sem, ac], axis=1)[:, :, None].astype(np.int64)
        rows.append((text, np.zeros((0, 2, 1), dtype=np.int64), tgt))
    return rows


def main():
    cfg = ARConfig(text_vocab=TEXT_VOCAB, streams=(("semantic", TOKEN_VOCAB), ("acoustic", TOKEN_VOCAB)),
                   n_layers=2, model_dim=64, n_heads=2, max_text_len=8, max_speech_len=16, seed=0)
    model = DualStreamAR(cfg, Rng(1))
    rows = toy_rows(Rng(2))

    params = dict(model.named_parameters())
    opt = Adam(params)
    names, tensors = list(params), list(params.values())
    print(f"training on {len(rows)} sequences "
          f"({sum(p.data.size for p in tensors)} parameters)")
    rng = Rng(3)
    for step in range(300):
        idx = rng.choice(len(rows), size=4)
        loss = model.ar_loss(*model.teacher_forced_batch([rows[i] for i in idx]))
        grads = dict(zip(names, gradients(loss["total"], tensors)))
        lr = 3e-3 if step > 20 else 3e-3 * step / 20
        opt.step(grads, lr)
        if step % 75 == 0 or step == 299:
            print(f"  step {step:3d}  L_sem={float(loss['L_semantic'].data):.3f}  "
                  f"L_ac={float(loss['L_acoustic'].data):.3f}  "
                  f"L_stop={float(loss['L_stop'].data):.3f}")

    acc = model.teacher_forced_scores(rows)["teacher_forced_accuracy"]
    print(f"\nteacher-forced accuracy: semantic {acc['semantic']:.2f}, "
          f"acoustic {acc['acoustic']:.2f}")

    text = rows[0][0]
    truth = rows[0][2]
    print(f"\ngenerating for text {text.tolist()} (ground truth has {truth.shape[0]} frames):")
    greedy = model.generate(text, np.zeros((0, 2, 1), np.int64), seed=0, top_k=1)
    print(f"  top_k=1: {greedy.n_frames} frames, terminated={greedy.terminated}")
    print(f"    semantic {greedy.stream(0)[:, 0].tolist()}")
    print(f"    acoustic {greedy.stream(1)[:, 0].tolist()}")
    print(f"    truth    {truth[:, 0, 0].tolist()} / {truth[:, 1, 0].tolist()}")

    # The model is overfit, so its top-1 probability dominates; a high
    # temperature flattens the kept logits enough to show real sampling.
    print("  top_k=3 at temperature 6, three seeds (streams stay frame-aligned):")
    for seed in range(3):
        out = model.generate(text, np.zeros((0, 2, 1), np.int64), seed=seed,
                             top_k=3, temperature=6.0)
        assert out.stream(0).shape[0] == out.stream(1).shape[0]
        print(f"    seed {seed}: {out.n_frames} frames  semantic {out.stream(0)[:, 0].tolist()}")


if __name__ == "__main__":
    main()
