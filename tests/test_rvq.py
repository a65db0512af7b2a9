"""RVQ: brute-force oracle equivalence, residual behavior, EMA training."""

import dataclasses

import numpy as np
import pytest

from paravox.engine import Rng, Tensor, grad_check
from paravox.rvq import RVQStack


def brute_force_encode(stack, frames):
    """Independent oracle: per-frame python loop, exhaustive argmin per layer."""
    t = frames.shape[0]
    tokens = np.empty((t, stack.n_layers), dtype=np.int64)
    for i in range(t):
        r = frames[i].copy()
        for l, cb in enumerate(stack.layers):
            best, best_d = 0, None
            for k in range(cb.size):
                d = np.sum((r - cb.entries[k].astype(r.dtype)) ** 2)
                if best_d is None or d < best_d:
                    best, best_d = k, d
            tokens[i, l] = best
            r = r - cb.entries[best].astype(r.dtype)
    return tokens


def test_encode_matches_brute_force_oracle():
    rng = Rng(0)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=16, dim=8)
    frames = rng.normal((200, 8), dtype=np.float64)
    tokens, _, _ = stack.encode(frames)
    oracle = brute_force_encode(stack, frames)
    assert np.array_equal(tokens, oracle)


def test_exact_codeword_hits_token_and_zero_residual():
    rng = Rng(1)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=16, dim=8)
    frame = stack.layers[0].entries[7][None, :].copy()
    tokens, quantized, norms = stack.encode(frame)
    # layers 2 and 3 have the pinned zero codeword at index 0
    assert tokens[0].tolist() == [7, 0, 0]
    assert np.allclose(norms[0], 0.0)
    assert np.allclose(quantized, frame)


def test_tie_breaks_to_lowest_index():
    rng = Rng(2)
    stack = RVQStack.init_random(rng, n_layers=1, codebook_size=4, dim=3, pin_zero=False)
    cb = stack.layers[0]
    cb.entries[1] = [1.0, 0.0, 0.0]
    cb.entries[3] = [1.0, 0.0, 0.0]  # exact duplicate further along
    frame = np.array([[1.0, 0.0, 0.0]], dtype=np.float32)
    tokens, _, _ = stack.encode(frame)
    assert tokens[0, 0] == 1


def test_residual_norms_non_increasing_with_pinned_zero():
    rng = Rng(3)
    stack = RVQStack.init_random(rng, n_layers=4, codebook_size=12, dim=6)
    frames = rng.normal((300, 6), scale=2.0, dtype=np.float64)
    _, _, norms = stack.encode(frames)
    input_norms = np.linalg.norm(frames, axis=1)
    assert np.all(norms[:, 0] <= input_norms + 1e-12)
    assert np.all(np.diff(norms, axis=1) <= 1e-12)


def test_decode_encode_error_equals_final_residual():
    rng = Rng(4)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=8, dim=5)
    frames = rng.normal((50, 5), dtype=np.float32)
    tokens, quantized, norms = stack.encode(frames)
    recon = stack.decode(tokens)
    assert np.allclose(recon, quantized, atol=1e-6)
    err = np.linalg.norm(frames - recon, axis=1)
    assert np.allclose(err, norms[:, -1], atol=1e-5)


def test_decode_partial_layers():
    rng = Rng(5)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=8, dim=5)
    frames = rng.normal((20, 5), dtype=np.float32)
    tokens, _, _ = stack.encode(frames)
    top_only = stack.decode(tokens, up_to_layer=1)
    assert np.allclose(top_only, stack.layers[0].entries[tokens[:, 0]])
    full = stack.decode(tokens, up_to_layer=3)
    assert np.allclose(full, stack.decode(tokens))


def test_decode_rejects_out_of_range_tokens():
    rng = Rng(6)
    stack = RVQStack.init_random(rng, n_layers=2, codebook_size=8, dim=4)
    bad = np.array([[3, 99]])
    with pytest.raises(ValueError, match="out of range"):
        stack.decode(bad)
    with pytest.raises(ValueError, match="up_to_layer"):
        stack.decode(np.array([[1, 1]]), up_to_layer=5)


def test_ema_training_converges_to_cluster_means():
    # 4 well-separated gaussian clusters; the oracle optimum for K=4 is the
    # per-cluster empirical mean (what batch k-means would find).
    rng = Rng(7)
    centers = np.array([[4, 4], [-4, 4], [4, -4], [-4, -4]], dtype=np.float32)
    all_pts = np.vstack([rng.normal((100, 2), scale=0.3, dtype=np.float32) + c for c in centers])
    cluster_means = np.stack([all_pts[i * 100:(i + 1) * 100].mean(axis=0) for i in range(4)])

    stack = RVQStack.init_random(rng, n_layers=1, codebook_size=4, dim=2, pin_zero=False)
    # seed entries from data so each cluster has a nearby codeword
    stack.layers[0].entries = all_pts[rng.choice(400, size=4, replace=False)].copy()
    train_rng = rng.spawn("train")
    for step in range(500):
        batch = all_pts[train_rng.choice(400, size=64)]
        stack.train_step(batch, train_rng)
    learned = stack.layers[0].entries
    # each cluster mean is matched by exactly one learned entry within 0.1
    dist = np.linalg.norm(learned[:, None, :] - cluster_means[None, :, :], axis=2)
    assignment = dist.argmin(axis=1)
    assert sorted(assignment.tolist()) == [0, 1, 2, 3]
    assert dist.min(axis=1).max() < 0.1


def test_dead_codes_reseeded_and_utilization_recovers():
    rng = Rng(8)
    stack = RVQStack.init_random(rng, n_layers=1, codebook_size=8, dim=2,
                                 pin_zero=False, reseed_after=20)
    # park most entries far from the data so they start dead
    stack.layers[0].entries[2:] = 500.0 + np.arange(6 * 2, dtype=np.float32).reshape(6, 2)
    data_rng = rng.spawn("data")
    train_rng = rng.spawn("train")
    reseeded_total = 0
    for step in range(200):
        batch = data_rng.normal((64, 2), dtype=np.float32)
        out = stack.train_step(batch, train_rng)
        reseeded_total += out["n_reseeded"]
    assert reseeded_total > 0
    probe = data_rng.normal((2000, 2), dtype=np.float32)
    util = stack.utilization(stack.encode(probe)[0])[0]
    assert util >= 0.5


def test_utilization_on_synthetic_corpus():
    from paravox.frontend import SyntheticSpec, generate_corpus

    spec = SyntheticSpec(vocab_size=8, n_speakers=4, n_utterances=32, seed=21,
                         semantic_dim=16, acoustic_dim=16, speaker_frame_dim=16,
                         speaker_global_dim=8, mel_bins=12, noise_scale=0.15)
    corpus = generate_corpus(spec)
    frames = np.vstack([u.bundle.acoustic for u in corpus.utterances])
    rng = Rng(9)
    stack = RVQStack.init_random(rng, n_layers=2, codebook_size=16, dim=16, reseed_after=50)
    train_rng = rng.spawn("train")
    for step in range(400):
        batch = frames[train_rng.choice(frames.shape[0], size=128)]
        stack.train_step(batch, train_rng)
    for layer_util in stack.utilization(stack.encode(frames)[0]):
        assert layer_util >= 0.5


def test_training_reduces_reconstruction_error():
    rng = Rng(10)
    data = rng.normal((1000, 8), dtype=np.float32)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=32, dim=8)
    before = float(((data - stack.decode(stack.encode(data)[0])) ** 2).mean())
    train_rng = rng.spawn("t")
    for step in range(300):
        batch = data[train_rng.choice(1000, size=128)]
        stack.train_step(batch, train_rng)
    after = float(((data - stack.decode(stack.encode(data)[0])) ** 2).mean())
    assert after < 0.5 * before


def test_commitment_scales_with_weight():
    rng = Rng(11)
    stack = RVQStack.init_random(rng, n_layers=1, codebook_size=4, dim=3)
    frames = rng.normal((32, 3), dtype=np.float32)
    out = stack.train_step(frames, rng.spawn("r"))
    assert out["commitment"] == pytest.approx(0.25 * out["recon_mse"])


def test_commitment_path_gradient_passes_fd():
    # Away from Voronoi boundaries the assignment is locally constant, so the
    # gradient of ||x - sg(q(x))||^2 in x is exactly 2(x - q(x)) and finite
    # differences agree. This is the differentiable half of the encoder path.
    rng = Rng(14)
    stack = RVQStack.init_random(rng, n_layers=2, codebook_size=8, dim=4)
    x = Tensor(rng.normal((4, 4), dtype=np.float64), requires_grad=True)

    def loss():
        _, quantized, _ = stack.encode(x.data)
        d = x - Tensor(quantized)
        return (d * d).mean() * stack.commitment_weight

    report = grad_check(loss, {"x": x}, tolerance=1e-4)
    assert report.passed, str(report)


def test_state_roundtrip():
    rng = Rng(15)
    stack = RVQStack.init_random(rng, n_layers=2, codebook_size=8, dim=4)
    frames = rng.normal((64, 4), dtype=np.float32)
    stack.train_step(frames, rng.spawn("r"))
    state = {k: v.copy() for k, v in stack.state("s.").items()}
    stack2 = RVQStack.init_random(Rng(99), n_layers=2, codebook_size=8, dim=4)
    stack2.load_state(state, "s.")
    t1 = stack.encode(frames)[0]
    t2 = stack2.encode(frames)[0]
    assert np.array_equal(t1, t2)
    with pytest.raises(KeyError, match="missing"):
        stack2.load_state({}, "s.")


def test_reloaded_stack_equals_trained_in_every_field():
    """`state()` holds everything a trained stack carries: a stack loaded
    from it matches the original field by field, codebooks included."""
    rng = Rng(17)
    stack = RVQStack.init_random(rng, n_layers=2, codebook_size=8, dim=4)
    for step in range(3):
        stack.train_step(rng.normal((32, 4), dtype=np.float32), rng.spawn(("r", step)))
    loaded = RVQStack.init_random(Rng(99), n_layers=2, codebook_size=8, dim=4)
    loaded.load_state(stack.state())
    for f in dataclasses.fields(RVQStack):
        if f.name != "layers":
            assert getattr(loaded, f.name) == getattr(stack, f.name), f.name
    for cb, cb2 in zip(stack.layers, loaded.layers):
        for f in dataclasses.fields(cb):
            assert np.array_equal(getattr(cb, f.name), getattr(cb2, f.name)), f.name


def test_frame_shape_validation():
    rng = Rng(16)
    stack = RVQStack.init_random(rng, n_layers=1, codebook_size=4, dim=6)
    with pytest.raises(ValueError, match=r"\(T, 6\)"):
        stack.encode(np.zeros((3, 5), dtype=np.float32))
