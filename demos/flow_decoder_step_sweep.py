"""Flow-matching mel decoder: accuracy vs integration steps.

Overfits the vector field to a single conditioned target, then samples
with increasing Euler step counts. More steps follow the learned flow
more faithfully, so the error falls monotonically; even one step lands
close because the field predicts the clean endpoint.

Run: python3 demos/flow_decoder_step_sweep.py   (~30 s)
"""

import math

import numpy as np

from paravox.engine import Rng, gradients
from paravox.flow import FlowConfig, SolverConfig, VelocityField, cfm_train_loss, sample_mel
from paravox.pipeline.train import Adam


def main():
    cfg = FlowConfig(mel_bins=8, feature_dim=6, speaker_dim=4,
                     hidden_dim=64, n_hidden=2, time_feat_dim=8, default_steps=32)
    rng = Rng(7)
    field = VelocityField(cfg, rng.spawn("init"))
    mel = rng.spawn("mel").normal((6, cfg.mel_bins), dtype=np.float32)
    feats = rng.spawn("feat").normal((6, cfg.feature_dim), dtype=np.float32)
    cond = rng.spawn("cond").normal((cfg.speaker_dim,), dtype=np.float32)

    params = dict(field.named_parameters())
    opt = Adam(params)
    names, tensors = list(params), list(params.values())
    steps = 800
    print(f"overfitting the field to one (features, speaker) -> mel pair, {steps} steps")
    for step in range(steps):
        srng = rng.spawn(("step", step))
        loss = cfm_train_loss(field, [mel] * 4, [feats] * 4, np.stack([cond] * 4),
                              [srng.spawn(("draw", j)) for j in range(4)])
        opt.step(dict(zip(names, gradients(loss, tensors))),
                 3e-3 * 0.5 * (1 + math.cos(math.pi * step / steps)) + 1e-5)
        if step % 200 == 0 or step == steps - 1:
            print(f"  step {step:3d}  regression loss {float(loss.data):.5f}")

    print("\nsampling with the Euler solver, 8 noise seeds per step count:")
    print(f"  {'steps':>6s}  {'mel mse':>10s}")
    for n in (1, 2, 4, 8, 16, 32, 64):
        errs = [float(((sample_mel(field, feats, cond, SolverConfig(n_steps=n, seed=s)) - mel) ** 2).mean())
                for s in range(8)]
        print(f"  {n:6d}  {np.mean(errs):10.2e}")
    print("\n(the sampler integrates dx/dt = v(x, t, cond) from Gaussian noise at t=0 "
          "to mel frames at t=1)")


if __name__ == "__main__":
    main()
