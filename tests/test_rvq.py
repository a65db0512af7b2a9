"""RVQ: brute-force oracle equivalence, the GEMM search against the direct
search, residual behavior, EMA training."""

import dataclasses

import numpy as np
import pytest

from conftest import rvq_residuals
from gradcheck import grad_check
from paravox import rvq
from paravox.engine import Rng, Tensor
from paravox.rvq import RVQStack, _nearest, _nearest_direct
from paravox.tokenizer import TokenizerConfig


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
    tokens = stack.encode(frames)
    oracle = brute_force_encode(stack, frames)
    assert np.array_equal(tokens, oracle)


def test_exact_codeword_hits_token_and_zero_residual():
    rng = Rng(1)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=16, dim=8)
    frame = stack.layers[0].entries[7][None, :].copy()
    tokens = stack.encode(frame)
    quantized, norms = rvq_residuals(stack, frame, tokens)
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
    tokens = stack.encode(frame)
    assert tokens[0, 0] == 1


def test_residual_norms_non_increasing_with_pinned_zero():
    rng = Rng(3)
    stack = RVQStack.init_random(rng, n_layers=4, codebook_size=12, dim=6)
    frames = rng.normal((300, 6), scale=2.0, dtype=np.float64)
    _, norms = rvq_residuals(stack, frames, stack.encode(frames))
    input_norms = np.linalg.norm(frames, axis=1)
    assert np.all(norms[:, 0] <= input_norms + 1e-12)
    assert np.all(np.diff(norms, axis=1) <= 1e-12)


def test_decode_encode_error_equals_final_residual():
    rng = Rng(4)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=8, dim=5)
    frames = rng.normal((50, 5), dtype=np.float32)
    tokens = stack.encode(frames)
    quantized, norms = rvq_residuals(stack, frames, tokens)
    recon = stack.decode(tokens)
    assert np.allclose(recon, quantized, atol=1e-6)
    err = np.linalg.norm(frames - recon, axis=1)
    assert np.allclose(err, norms[:, -1], atol=1e-5)


def test_decode_partial_layers():
    rng = Rng(5)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=8, dim=5)
    frames = rng.normal((20, 5), dtype=np.float32)
    tokens = stack.encode(frames)
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
    util = stack.utilization(stack.encode(probe))[0]
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
    for layer_util in stack.utilization(stack.encode(frames)):
        assert layer_util >= 0.5


def test_training_reduces_reconstruction_error():
    rng = Rng(10)
    data = rng.normal((1000, 8), dtype=np.float32)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=32, dim=8)
    before = float(((data - stack.decode(stack.encode(data))) ** 2).mean())
    train_rng = rng.spawn("t")
    for step in range(300):
        batch = data[train_rng.choice(1000, size=128)]
        stack.train_step(batch, train_rng)
    after = float(((data - stack.decode(stack.encode(data))) ** 2).mean())
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
        quantized, _ = rvq_residuals(stack, x.data, stack.encode(x.data))
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
    t1 = stack.encode(frames)
    t2 = stack2.encode(frames)
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


# ---- the GEMM nearest-code search against the direct search -----------------


@pytest.fixture
def redone(monkeypatch):
    """Counts the rows `_nearest` hands back to the direct search."""
    rows = [0]

    def counting(entries, frames):
        rows[0] += frames.shape[0]
        return _nearest_direct(entries, frames)

    monkeypatch.setattr(rvq, "_nearest_direct", counting)
    return rows


def _fuzz_case(rng: Rng, case: int):
    """(entries, frames) of one seeded case: T 0-39, K 1-69, D 1-80, f32 or
    f64, scales 1e-20 to 1e18, with pinned zero codewords, duplicate
    codewords, frames equal to codewords, zero frames and near-midpoints."""
    t, k, d = rng.integers(0, 40), rng.integers(1, 70), rng.integers(1, 81)
    dtype = (np.float32, np.float64)[case % 2]
    scale = 10.0 ** rng.uniform(-20, 18)
    entries = rng.normal((k, d), scale=scale, dtype=dtype)
    if rng.uniform() < 0.5:
        entries[0] = 0.0
    if k > 1 and rng.uniform() < 0.3:
        entries[rng.integers(0, k, (2,))] = entries[rng.integers(0, k)]
    frames = rng.normal((t, d), scale=scale * rng.uniform(0.1, 3.0), dtype=dtype)
    for i in range(t):
        pick = rng.uniform()
        if pick < 0.1:
            frames[i] = entries[rng.integers(0, k)]
        elif pick < 0.15:
            frames[i] = 0.0
        elif pick < 0.25:
            a, b = entries[rng.integers(0, k, (2,))]
            frames[i] = (a / 2 + b / 2) * (1 + rng.uniform(-1e-6, 1e-6))
    return entries, frames


def test_nearest_matches_direct_search_fuzz(redone):
    rng = Rng(1234)
    searched = 0
    with np.errstate(all="ignore"):
        for case in range(3000):
            entries, frames = _fuzz_case(rng.spawn(case), case)
            got = _nearest(entries, frames)
            want = _nearest_direct(entries, frames)
            assert got.dtype == np.int64 and np.array_equal(got, want), (case, entries.shape, frames.shape)
            searched += frames.shape[0]
    assert 0 < redone[0] < searched / 4, (redone[0], searched)


def test_nearest_certifies_separated_rows(redone):
    rng = Rng(40)
    entries = rng.normal((64, 64), dtype=np.float32)
    entries[0] = 0.0
    frames = rng.normal((400, 64), dtype=np.float32)
    assert np.array_equal(_nearest(entries, frames), _nearest_direct(entries, frames))
    assert redone[0] == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nearest_codebook_of_one(dtype):
    TokenizerConfig(codebook_size=1).validate()
    rng = Rng(41)
    frames = rng.normal((7, 5), dtype=dtype)
    frames[2, 1], frames[4, 0] = np.nan, np.inf
    for entries in (np.zeros((1, 5), dtype), rng.normal((1, 5), scale=3.0, dtype=dtype)):
        with np.errstate(all="ignore"):
            assert np.array_equal(_nearest(entries, frames), np.zeros(7, np.int64))
            assert np.array_equal(_nearest_direct(entries, frames), np.zeros(7, np.int64))
    stack = RVQStack.init_random(rng, n_layers=2, codebook_size=1, dim=5)
    assert np.array_equal(stack.encode(frames[:2]), np.zeros((2, 2), np.int64))
    stack.train_step(frames[:2], rng.spawn("r"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nearest_zero_frames(dtype):
    rng = Rng(42)
    entries = rng.normal((8, 6), dtype=dtype)
    out = _nearest(entries, np.zeros((0, 6), dtype))
    assert out.shape == (0,) and out.dtype == np.int64
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=8, dim=6)
    tokens = stack.encode(np.zeros((0, 6), dtype))
    quantized, norms = rvq_residuals(stack, np.zeros((0, 6), dtype), tokens)
    assert tokens.shape == (0, 3) and quantized.shape == (0, 6) and norms.shape == (0, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_nearest_non_finite_frames_and_codewords(dtype, monkeypatch):
    rng = Rng(43)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=8, dim=4)
    frames = rng.normal((6, 4), dtype=dtype)
    frames[1, 2], frames[2, 0], frames[3, 3] = np.nan, np.inf, -np.inf
    with np.errstate(all="ignore"):
        assert np.array_equal(_nearest(stack.layers[0].entries.astype(dtype), frames),
                              _nearest_direct(stack.layers[0].entries.astype(dtype), frames))
        for bad in (np.nan, np.inf, -np.inf):
            entries = rng.normal((8, 4), dtype=dtype)
            entries[5, 1] = bad
            clean = rng.normal((6, 4), dtype=dtype)
            assert np.array_equal(_nearest(entries, clean), _nearest_direct(entries, clean))
        # the public encode bypasses any finiteness check
        tokens = stack.encode(frames)
        monkeypatch.setattr(rvq, "_nearest", _nearest_direct)
        assert np.array_equal(tokens, stack.encode(frames))


@pytest.mark.parametrize("dtype", [np.int64, np.float16])
def test_nearest_other_dtypes_use_the_direct_search(dtype, redone):
    entries = np.array([[0, 0], [3, 4], [-2, 1]], dtype=dtype)
    frames = np.array([[2, 3], [-1, 1], [0, 0]], dtype=dtype)
    assert np.array_equal(_nearest(entries, frames), [1, 2, 0])
    assert redone[0] == 3


@pytest.mark.parametrize("dtype, small, large", [(np.float32, 1e-25, 1e20),
                                                 (np.float64, 1e-165, 1e156)])
def test_nearest_where_direct_distances_underflow_or_overflow(dtype, small, large):
    """At these magnitudes every direct distance rounds to 0 or to inf, so
    the direct search ties them all at index 0; the GEMM search must too."""
    rng = Rng(44)
    entries = rng.normal((16, 8), dtype=np.float64)
    frames = rng.normal((10, 8), dtype=np.float64)
    with np.errstate(all="ignore"):
        for scale in (small, large):
            c, x = (entries * scale).astype(dtype), (frames * scale).astype(dtype)
            assert np.array_equal(_nearest_direct(c, x), np.zeros(10, np.int64)), scale
            assert np.array_equal(_nearest(c, x), np.zeros(10, np.int64)), scale
        # in between, some rows straddle the limits
        for scale in np.geomspace(small, large, 60):
            c, x = (entries * scale).astype(dtype), (frames * scale).astype(dtype)
            assert np.array_equal(_nearest(c, x), _nearest_direct(c, x)), scale


def test_train_steps_match_direct_search(monkeypatch, redone):
    """One repeated batch and a low `reseed_after`: reseeding copies the same
    frame into several entries, whose exact ties the GEMM cannot certify."""
    def run():
        rng = Rng(45)
        stack = RVQStack.init_random(rng, n_layers=3, codebook_size=16, dim=6, reseed_after=2)
        batch = rng.normal((12, 6), dtype=np.float32)
        train_rng = rng.spawn("train")
        reseeded = sum(stack.train_step(batch, train_rng)["n_reseeded"] for _ in range(40))
        return stack, reseeded

    fast, reseeded = run()
    assert reseeded > 0 and redone[0] > 0
    monkeypatch.setattr(rvq, "_nearest", _nearest_direct)
    slow, _ = run()
    for cb, ref in zip(fast.layers, slow.layers):
        for name in ("entries", "ema_counts", "ema_sums", "unused_steps"):
            got, want = getattr(cb, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
