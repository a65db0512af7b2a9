"""Residual vector quantization from the ground up.

Builds a 3-layer stack over 2-D points (so the geometry is easy to
picture), trains the codebooks by EMA on a mixture of clusters, and
shows the two properties everything downstream relies on: the residual
norm never grows as layers are added, and reconstruction error falls
with depth.

Run: python3 demos/residual_quantizer_tour.py
"""

import numpy as np

from paravox.engine import Rng
from paravox.rvq import RVQStack


def sample_batch(rng, n=256):
    # Eight cluster centres on a ring, plus small within-cluster spread.
    angles = 2 * np.pi * rng.integers(0, 8, (n,)) / 8
    centers = np.stack([np.cos(angles), np.sin(angles)], axis=1) * 3.0
    return (centers + rng.normal((n, 2), scale=0.35)).astype(np.float32)


def main():
    rng = Rng(0)
    stack = RVQStack.init_random(rng.spawn("init"), n_layers=3, codebook_size=16, dim=2)

    print("training 3 x 16 codebooks by EMA on a ring of 8 clusters")
    for step in range(300):
        stats = stack.train_step(sample_batch(rng.spawn(("batch", step))), rng.spawn(("reseed", step)))
        if step % 60 == 0 or step == 299:
            print(f"  step {step:3d}  recon_mse={stats['recon_mse']:.5f}  "
                  f"reseeded={stats['n_reseeded']}")

    frames = sample_batch(rng.spawn("eval"), n=512)
    tokens = stack.encode(frames)

    print("\nper-layer residual norm (mean over 512 frames):")
    ladder = [float(np.sqrt((frames ** 2).sum(axis=1)).mean())]
    ladder += [float(np.sqrt(((frames - stack.decode(tokens, up_to_layer=k)) ** 2).sum(axis=1)).mean())
               for k in range(1, stack.n_layers + 1)]
    for l, v in enumerate(ladder):
        label = "input" if l == 0 else f"after layer {l}"
        print(f"  {label:14s} {v:.4f}")
    assert all(b <= a + 1e-6 for a, b in zip(ladder, ladder[1:])), "ladder must not grow"

    print("\nreconstruction error by depth (decode first k layers only):")
    for k in range(1, stack.n_layers + 1):
        partial = stack.decode(tokens, up_to_layer=k)
        mse = float(((frames - partial) ** 2).mean())
        print(f"  layers 1..{k}: mse={mse:.5f}")

    print("\ncodebook utilization per layer:", [round(u, 2) for u in stack.utilization(tokens)])
    print("token matrix shape:", tokens.shape, "dtype:", tokens.dtype)


if __name__ == "__main__":
    main()
