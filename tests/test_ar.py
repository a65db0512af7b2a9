"""Tests for the dual-stream autoregressive generator."""

import hashlib
import math
import re

import numpy as np
import pytest

from conftest import host_note
from gradcheck import grad_check
from paravox.ar import ARConfig, DualStreamAR
from paravox.engine import Rng, ShapeError, Tensor, gradients, sigmoid
from paravox.pipeline.config import toy_profile


def tiny_config(**kw):
    base = dict(text_vocab=12, streams=(("semantic", 8), ("acoustic", 8)),
                layers_per_stream=1, n_layers=2, model_dim=32, n_heads=2,
                max_text_len=16, max_speech_len=48, top_k=4, seed=0)
    base.update(kw)
    return ARConfig(**base)


def random_example(rng, cfg, n_text=4, n_ref=3, n_tgt=5):
    text = rng.integers(0, cfg.text_vocab, (n_text,))
    shape = (cfg.n_streams, cfg.layers_per_stream)
    ref = np.stack([rng.integers(0, k, (n_ref,) + (cfg.layers_per_stream,))
                    for _, k in cfg.streams], axis=1) if n_ref else \
        np.zeros((0,) + shape, dtype=np.int64)
    tgt = np.stack([rng.integers(0, k, (n_tgt,) + (cfg.layers_per_stream,))
                    for _, k in cfg.streams], axis=1)
    return text, ref, tgt


def test_config_validation():
    with pytest.raises(ValueError, match="streams"):
        ARConfig(streams=()).validate()
    with pytest.raises(ValueError, match="divide evenly"):
        tiny_config(model_dim=33, n_heads=3).validate()
    with pytest.raises(ValueError, match="n_heads"):
        tiny_config(n_heads=5).validate()
    with pytest.raises(ValueError, match="temperature"):
        tiny_config(temperature=0.0).validate()
    tiny_config().validate()


def test_assembly_layout():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(0))
    text, ref, tgt = random_example(Rng(1), cfg)
    ids = model.input_ids(text, ref, tgt)
    # Columns: text id, text position, speech position, one per token table.
    assert ids.shape == (4 + 3 + 5, 3 + 2)
    assert np.array_equal(ids[:4, 0], text) and np.array_equal(ids[:4, 1], np.arange(4))
    assert np.all(ids[:4, 2:] == -1) and np.all(ids[4:, :2] == -1)
    # Reference and target share one continuous run of speech positions.
    assert np.array_equal(ids[4:, 2], np.arange(3 + 5))
    assert np.array_equal(ids[4:, 3:], np.concatenate([ref, tgt]).reshape(8, 2))
    assert model.forward_states(ids).shape == (12, cfg.model_dim)
    # Empty reference is allowed; the target then starts at speech position 0.
    ids0 = model.input_ids(text, np.zeros((0, 2, 1), dtype=np.int64), tgt)
    assert ids0.shape[0] == 4 + 5 and np.array_equal(ids0[4:, 2], np.arange(5))


def test_assembly_validation():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(0))
    text, ref, tgt = random_example(Rng(1), cfg)
    with pytest.raises(ValueError, match="text ids"):
        model.input_ids(np.array([0, cfg.text_vocab]), ref, tgt)
    with pytest.raises(ValueError, match="max_text_len"):
        model.input_ids(np.zeros(17, dtype=np.int64), ref, tgt)
    with pytest.raises(ValueError, match="out of range"):
        bad = tgt.copy()
        bad[0, 0, 0] = 8
        model.input_ids(text, ref, bad)
    with pytest.raises(ValueError, match="max_speech_len"):
        long = np.zeros((49, 2, 1), dtype=np.int64)
        model.input_ids(text, ref, long)


def test_teacher_forced_shapes():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(0))
    text, ref, tgt = random_example(Rng(2), cfg, n_tgt=6)
    stream_logits, _, stop_logits, _ = model.teacher_forced_batch([(text, ref, tgt)])
    assert len(stream_logits) == 2 and len(stream_logits[0]) == 1
    for s in range(2):
        assert stream_logits[s][0].shape == (6, 8)
    assert stop_logits.shape == (7,)


def test_causality_is_exact():
    """Changing an input token never changes logits at earlier positions."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(0))
    rng = Rng(7)
    for _ in range(10):
        text, ref, tgt = random_example(rng, cfg, n_tgt=6)
        base = model.forward_states(model.input_ids(text, ref, tgt)).data
        t_len = tgt.shape[0]
        pos = int(rng.integers(1, t_len))      # frame index to corrupt
        mutated = tgt.copy()
        s = int(rng.integers(0, 2))
        mutated[pos, s, 0] = (mutated[pos, s, 0] + 1) % cfg.streams[s][1]
        assert not np.array_equal(mutated, tgt)
        after = model.forward_states(model.input_ids(text, ref, mutated)).data
        cut = 4 + 3 + pos  # absolute position of the corrupted frame
        assert np.array_equal(base[:cut], after[:cut])
        assert not np.array_equal(base[cut:], after[cut:])
        # States at or past the edit differ, so the block is actually live.
        for si in range(2):
            a = model._head_logits(Tensor(base[:cut]), si, 0).data
            b = model._head_logits(Tensor(after[:cut]), si, 0).data
            assert np.array_equal(a, b)


def test_loss_identities():
    """Uniform logits give ln K per stream; total is the exact float sum."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(0))
    t = 5
    logits = [[Tensor(np.zeros((t, 8), dtype=np.float64))] for _ in range(2)]
    targets = [[np.arange(t) % 8] for _ in range(2)]
    stop_logits = Tensor(np.zeros(t + 1, dtype=np.float64))
    labels = np.zeros(t + 1)
    labels[-1] = 1.0
    out = model.ar_loss(logits, targets, stop_logits, labels)
    assert float(out["L_semantic"].data) == pytest.approx(math.log(8), abs=1e-12)
    assert float(out["L_acoustic"].data) == pytest.approx(math.log(8), abs=1e-12)
    assert float(out["L_stop"].data) == pytest.approx(math.log(2), abs=1e-12)
    exact = float(out["L_semantic"].data) + float(out["L_acoustic"].data)
    exact += float(out["L_stop"].data)
    assert float(out["total"].data) == exact


def test_real_loss_total_is_exact_sum():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(3))
    rng = Rng(4)
    batch = [random_example(rng, cfg, n_tgt=int(rng.integers(2, 7))) for _ in range(3)]
    sl, st, stop_l, stop_t = model.teacher_forced_batch(batch)
    out = model.ar_loss(sl, st, stop_l, stop_t)
    # Accumulate in the loss dtype and order: bitwise-exact identity.
    exact = (out["L_semantic"].data + out["L_acoustic"].data) + out["L_stop"].data
    assert float(out["total"].data) == float(exact)
    for key in ("L_semantic", "L_acoustic", "L_stop", "total"):
        assert np.isfinite(float(out[key].data))


def test_stop_labels_shape():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(0))
    rng = Rng(5)
    batch = [random_example(rng, cfg, n_tgt=3), random_example(rng, cfg, n_tgt=5)]
    _, _, stop_logits, stop_labels = model.teacher_forced_batch(batch)
    assert stop_logits.shape == (4 + 6,)
    expect = np.array([0, 0, 0, 1, 0, 0, 0, 0, 0, 1], dtype=np.float64)
    assert np.array_equal(stop_labels, expect)


def test_padding_does_not_leak():
    """A short example's logits are identical whether batched with a long one or alone."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(2))
    rng = Rng(8)
    short = random_example(rng, cfg, n_tgt=3)
    long = random_example(rng, cfg, n_tgt=9)
    alone, _, stop_alone, _ = model.teacher_forced_batch([short])
    both, _, stop_both, _ = model.teacher_forced_batch([short, long])
    for s in range(2):
        np.testing.assert_allclose(both[s][0].data[:3], alone[s][0].data,
                                   rtol=0, atol=1e-5)
    np.testing.assert_allclose(stop_both.data[:4], stop_alone.data, rtol=0, atol=1e-5)


def test_generation_deterministic_and_paired():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(9))
    model.stop_head.bias.data[:] = -25.0  # keep sampling live for 12 frames
    text, ref, _ = random_example(Rng(10), cfg)
    a = model.generate(text, ref, seed=123, max_frames=12)
    b = model.generate(text, ref, seed=123, max_frames=12)
    assert np.array_equal(a.tokens, b.tokens)
    assert a.terminated == b.terminated and a.truncated == b.truncated
    # Streams are emitted jointly: one frame always carries both tokens.
    assert a.stream(0).shape[0] == a.stream(1).shape[0] == a.n_frames


def test_generation_seed_sensitivity():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(9))
    model.stop_head.bias.data[:] = -25.0
    text, ref, _ = random_example(Rng(10), cfg)
    outs = [model.generate(text, ref, seed=s, max_frames=12).tokens for s in range(6)]
    assert any(not np.array_equal(outs[0], o) for o in outs[1:])


def test_greedy_matches_stepwise_oracle():
    """top_k=1 sampling reproduces an independent greedy re-forward loop."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(11))
    model.stop_head.bias.data[:] = -4.0  # rarely stops; trace stays non-trivial
    text, ref, _ = random_example(Rng(12), cfg)
    got = model.generate(text, ref, seed=0, top_k=1, max_frames=10)

    frames = np.zeros((0, 2, 1), dtype=np.int64)
    terminated = False
    for _ in range(10 + 1):
        states = model.forward_states(model.input_ids(text, ref, frames if frames.shape[0] else None))
        last = states[-1:]
        if float(sigmoid(model.stop_head(last).data).reshape(())) > 0.5:
            terminated = True
            break
        if frames.shape[0] >= 10:
            break
        step = np.zeros((1, 2, 1), dtype=np.int64)
        for s in range(2):
            step[0, s, 0] = int(np.argmax(model._head_logits(last, s, 0).data))
        frames = np.concatenate([frames, step], axis=0)
    assert np.array_equal(got.tokens, frames)
    assert got.terminated == terminated


def test_saturated_stop_yields_empty_generation():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(13))
    model.stop_head.bias.data[:] = 25.0
    text, ref, _ = random_example(Rng(14), cfg)
    out = model.generate(text, ref, seed=0)
    assert out.n_frames == 0 and out.terminated and not out.truncated


def test_suppressed_stop_truncates():
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(13))
    model.stop_head.bias.data[:] = -25.0
    text, ref, _ = random_example(Rng(14), cfg)
    out = model.generate(text, ref, seed=0, max_frames=7)
    assert out.n_frames == 7 and out.truncated and not out.terminated
    # Without an explicit cap, generation stops at the position budget.
    full = model.generate(text, ref, seed=0)
    assert full.n_frames == cfg.max_speech_len - ref.shape[0]
    assert full.truncated


def _sample_head_lexsort(logits, top_k, temperature, rng):
    """`_sample_head` as it ordered the logits with `np.lexsort`."""
    k = min(top_k, logits.shape[-1])
    order = np.lexsort((np.arange(logits.shape[-1]), -logits))
    keep = order[:k]
    z = (logits[keep] - logits[keep].max()) / temperature
    p = np.exp(z)
    p /= p.sum()
    u = rng.uniform()
    j = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return int(keep[min(j, k - 1)])


@pytest.mark.parametrize("top_k", [1, 8, 16])
def test_sample_head_matches_lexsort_order(top_k):
    """Same token as the lexsort form for every draw; logits on a coarse
    grid tie often, and ties go to the lowest index."""
    model = DualStreamAR(tiny_config(), Rng(0))
    rng = Rng(44)
    for case in range(300):
        logits = np.round(rng.normal((16,), scale=1.5), 0 if case % 2 else 1).astype(np.float32)
        got = model._sample_head(logits, top_k, 0.8, Rng(case))
        assert got == _sample_head_lexsort(logits, top_k, 0.8, Rng(case))
    ties = np.array([2.0, 5.0, 5.0, 1.0, 5.0, 2.0] + [0.0] * 10, dtype=np.float32)
    if top_k == 1:
        assert model._sample_head(ties, 1, 0.8, Rng(0)) == 1


# ---- cached decoding against full recompute ------------------------------------


def _recompute_generate(model, text, ref, seed, top_k, max_frames):
    """Reference sampler: re-run the uncached trunk on the whole prefix per frame."""
    cfg = model.cfg
    rng = Rng(seed)
    frames = np.zeros((0, cfg.n_streams, cfg.layers_per_stream), dtype=np.int64)
    terminated = truncated = False
    while True:
        ids = model.input_ids(text, ref, frames if frames.shape[0] else None)
        last = model.forward_states(ids)[-1:]
        if float(sigmoid(model.stop_head(last).data).reshape(())) > 0.5:
            terminated = True
            break
        if frames.shape[0] >= max_frames:
            truncated = True
            break
        step = np.empty((1, cfg.n_streams, cfg.layers_per_stream), dtype=np.int64)
        for s in range(cfg.n_streams):
            for l in range(cfg.layers_per_stream):
                logits = model._head_logits(last, s, l).data.reshape(-1)
                step[0, s, l] = model._sample_head(logits, top_k, cfg.temperature, rng)
        frames = np.concatenate([frames, step], axis=0)
    return frames, terminated, truncated


CACHE_VARIANTS = {
    "dual_stream": (dict(), 3),
    "merged_stream": (dict(streams=(("merged", 10),)), 3),
    "three_layer_heads": (dict(layers_per_stream=3), 3),
    "empty_reference": (dict(), 0),
}


@pytest.mark.parametrize("variant", sorted(CACHE_VARIANTS))
def test_cached_states_match_full_recompute(variant):
    """f64: prefill plus one cached position per frame equals the uncached
    trunk. The prefill returns the prompt's last state only."""
    overrides, n_ref = CACHE_VARIANTS[variant]
    cfg = tiny_config(**overrides)
    model = DualStreamAR(cfg, Rng(40), dtype=np.float64)
    text, ref, tgt = random_example(Rng(41), cfg, n_ref=n_ref, n_tgt=7)

    def outputs(states):
        heads = [model._head_logits(states, s, l) for s in range(cfg.n_streams) for l in range(cfg.layers_per_stream)]
        return [states, model.stop_head(states)] + heads

    prompt = model.input_ids(text, ref)
    cache = model.new_cache(prompt.shape[0] + tgt.shape[0])
    assert all(c.k.dtype == np.float64 for c in cache)
    got = outputs(model.forward_states(prompt, reads=[1], cache=cache))
    want = outputs(model.forward_states(prompt).data[-1:])
    for a, b in zip(got, want):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
    for i in range(tgt.shape[0]):
        ids = model.input_ids(text, ref, tgt[:i + 1])
        got = outputs(model.forward_states(ids[-1:], cache=cache))
        want = outputs(model.forward_states(ids).data[-1:])
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
    assert all(c.n == prompt.shape[0] + tgt.shape[0] for c in cache)


@pytest.mark.parametrize("reads", [[0], [5], [1, 1], [-1]])
def test_cached_pass_refuses_reads_outside_its_rows(reads):
    """A cached pass over 3 prompt rows takes one read count in 1..3, the
    rule of `engine.attention`. Others fail before any cache is written,
    in the trunk and in a block or attention layer called alone, where
    they used to return all 3 states. `generate`'s [1] is unchanged."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(40))
    prompt = model.input_ids(*random_example(Rng(41), cfg, n_ref=0)[:2])[:3]
    cache = model.new_cache(8)
    with pytest.raises(ShapeError, match=r"not each in 1\.\.length of lengths \[3\]"):
        model.forward_states(prompt, reads=reads, cache=cache)
    block, rows = model.blocks[0], np.zeros((3, cfg.model_dim), dtype=np.float32)
    for layer in (block, block.attn):
        with pytest.raises(ShapeError, match=r"not each in 1\.\.length of lengths \[3\]"):
            layer(rows, True, cache[0], reads=reads)
    assert all(c.n == 0 for c in cache)
    states = model.forward_states(prompt, reads=[1], cache=cache)
    assert states.shape == (1, cfg.model_dim) and all(c.n == 3 for c in cache)
    np.testing.assert_array_equal(states, model.forward_states(prompt, reads=[1], cache=model.new_cache(8)))


def test_sampled_generation_matches_recompute_loop():
    """top_k=4 sampling on an f64 model replays the uncached reference loop."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(42), dtype=np.float64)
    model.stop_head.bias.data[:] = -1.0  # some runs stop, others hit the limit
    text, ref, _ = random_example(Rng(43), cfg)
    flags = set()
    for seed in range(6):
        got = model.generate(text, ref, seed=seed, top_k=4, max_frames=12)
        frames, terminated, truncated = _recompute_generate(model, text, ref, seed, 4, 12)
        assert np.array_equal(got.tokens, frames)
        assert (got.terminated, got.truncated) == (terminated, truncated)
        flags.add(terminated)
    assert flags == {True, False}


def test_max_frames_beyond_capacity_is_clamped():
    """max_frames past max_speech_len - n_ref truncates at capacity, without extra trunk work."""
    cfg = tiny_config(max_speech_len=10)
    model = DualStreamAR(cfg, Rng(44))
    model.stop_head.bias.data[:] = -1e4
    text, ref, _ = random_example(Rng(45), cfg, n_ref=4)
    positions = []
    trunk = model.forward_states

    def counting(ids, *args, **kwargs):
        positions.append(ids.shape[0])
        return trunk(ids, *args, **kwargs)

    model.forward_states = counting
    out = model.generate(text, ref, seed=0, max_frames=20)
    assert out.n_frames == 6 and out.truncated and not out.terminated
    assert positions == [4 + 4] + [1] * 6
    with pytest.raises(ValueError, match="max_frames"):
        model.generate(text, ref, seed=0, max_frames=-1)


@pytest.mark.parametrize("kwargs, message", [
    ({"temperature": math.nan}, "temperature must be a finite number, got nan"),
    ({"temperature": math.inf}, "temperature must be a finite number, got inf"),
    ({"temperature": -1.0}, "temperature must be > 0"),
    ({"top_k": 2.5}, "top_k must be an int, got 2.5"),
    ({"top_k": True}, "top_k must be an int, got True"),
    ({"max_frames": 2.5}, "max_frames must be an int, got 2.5"),
])
def test_sampling_arguments_fail_before_the_trunk_runs(kwargs, message):
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(46))
    text, ref, _ = random_example(Rng(47), cfg)
    calls = []
    trunk = model.forward_states
    model.forward_states = lambda *args, **kw: calls.append(1) or trunk(*args, **kw)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        model.generate(text, ref, seed=0, **kwargs)
    assert calls == []
    model.generate(text, ref, seed=0, top_k=np.int64(2), max_frames=np.int64(1))
    assert calls


def test_merged_single_stream_variant():
    cfg = tiny_config(streams=(("merged", 10),))
    model = DualStreamAR(cfg, Rng(15))
    assert len(model.heads) == 1
    assert model.heads[0].weight.shape == (cfg.model_dim, 10)
    text = np.array([1, 2, 3])
    ref = Rng(16).integers(0, 10, (3, 1, 1))
    tgt = Rng(17).integers(0, 10, (4, 1, 1))
    sl, _, stop, _ = model.teacher_forced_batch([(text, ref, tgt)])
    assert sl[0][0].shape == (4, 10)
    out = model.generate(text, ref, seed=1, max_frames=5)
    assert out.tokens.shape[1:] == (1, 1)
    loss = model.ar_loss(*model.teacher_forced_batch([(text, ref, tgt)]))
    assert set(loss) == {"L_merged", "L_stop", "total"}


def test_multi_layer_heads_variant():
    """Three prediction heads per stream emit every quantizer layer at once."""
    cfg = tiny_config(layers_per_stream=3)
    model = DualStreamAR(cfg, Rng(18))
    assert len(model.heads) == 6 and len(model.token_embs) == 6
    rng = Rng(19)
    text, ref, tgt = random_example(rng, cfg, n_tgt=4)
    assert tgt.shape == (4, 2, 3)
    sl, _, stop, _ = model.teacher_forced_batch([(text, ref, tgt)])
    assert len(sl[0]) == 3 and sl[1][2].shape == (4, 8)
    out = model.generate(text, ref, seed=2, max_frames=5)
    assert out.tokens.shape[1:] == (2, 3)
    loss = model.ar_loss(*model.teacher_forced_batch([(text, ref, tgt)]))
    assert np.isfinite(float(loss["total"].data))


def test_loss_gradcheck_end_to_end():
    cfg = ARConfig(text_vocab=6, streams=(("semantic", 5), ("acoustic", 5)),
                   n_layers=1, model_dim=8, n_heads=2, max_text_len=8,
                   max_speech_len=12, seed=0)
    model = DualStreamAR(cfg, Rng(20), dtype=np.float64)
    rng = Rng(21)
    text = rng.integers(0, 6, (3,))
    ref = rng.integers(0, 5, (2, 2, 1))
    tgt = rng.integers(0, 5, (3, 2, 1))

    def loss_fn():
        out = model.ar_loss(*model.teacher_forced_batch([(text, ref, tgt)]))
        return out["total"]

    params = dict(model.named_parameters())
    report = grad_check(loss_fn, params, tolerance=1e-4, max_coords=4, rng=Rng(22))
    assert report.passed, str(report)


def test_short_training_reduces_loss():
    cfg = tiny_config(n_layers=1, model_dim=16, n_heads=2)
    model = DualStreamAR(cfg, Rng(23))
    rng = Rng(24)
    batch = [random_example(rng, cfg, n_tgt=4) for _ in range(2)]
    params = list(dict(model.named_parameters()).values())

    def step():
        out = model.ar_loss(*model.teacher_forced_batch(batch))
        loss = out["total"]
        grads = gradients(loss, params)
        for p, g in zip(params, grads):
            p.data -= (0.5 * g).astype(p.data.dtype)
        return float(loss.data)

    first = step()
    last = first
    for _ in range(40):
        last = step()
    assert last < 0.5 * first


# ---- pinned decode outputs -------------------------------------------------------


def _decode_digest(model, text, ref, seed, max_frames):
    """Two sha256 digests of one `generate` run. The first covers every
    state it gets from the trunk (the prefill, then each decode step),
    the stop and head logits of those states, and the sampled tokens.
    The second covers only the sampled tokens and the stop flags, which
    must survive a change that moves the states' f32 bits."""
    cfg = model.cfg
    seen = []
    trunk = model.forward_states

    def recording(ids, *args, **kwargs):
        states = trunk(ids, *args, **kwargs)
        seen.append(states.copy())
        return states

    model.forward_states = recording
    try:
        out = model.generate(text, ref, seed=seed, max_frames=max_frames)
    finally:
        del model.forward_states
    h = hashlib.sha256()
    for states in seen:
        st = Tensor(states)
        h.update(states.tobytes())
        h.update(model.stop_head(st).data.tobytes())
        for s in range(cfg.n_streams):
            for l in range(cfg.layers_per_stream):
                h.update(model._head_logits(st, s, l).data.tobytes())
    tokens = np.ascontiguousarray(out.tokens, dtype="<i8").tobytes() + bytes([out.terminated, out.truncated])
    h.update(tokens)
    return len(seen), h.hexdigest(), hashlib.sha256(tokens).hexdigest()


# The digests are the f32 and f64 bits of one host's numpy SIMD kernels and
# BLAS build: another CPU or BLAS can move them with no code change. This is
# the environment they were recorded and checked on.
DECODE_PINS_HOST = {
    "numpy": "2.4.6",
    "blas": {"name": "scipy-openblas", "version": "0.3.31.188.0",
             "openblas configuration": "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                                       "NO_AFFINITY Haswell MAX_THREADS=64"},
    "simd": {"baseline": ["X86_V2"], "found": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]},
}


DECODE_PINS = {
    "toy_f32": "eda71e939348585cb38b4b1508012be4ba7c0a5d0c93f4d83a9f57b55fa6234b",
    "dual_stream": "19b3e1d9b3370c22ad3386a3ee7bec42419ddc2cfb891748a8c049e8d620be14",
    "empty_reference": "2369949992282e422a51b5f1ee39bb8921558fcf3a90931fcf744c8deb311f64",
    "merged_stream": "ddd1ba9cee97d1f2c51457a92b70383b61af3565a0138f6e68467d286a4c5653",
    "three_layer_heads": "ecdff362fedf393d6ffe3fa037fff3875a93070cdc6ef4d7b8c28e7d3bd11911",
}


# Sampled tokens and stop flags alone. These hold across a change of GEMM
# row counts that moves the state digests above.
DECODE_TOKEN_PINS = {
    "toy_f32": "57e402c7e45beb35b902e633ffcbf6afabdaac2db2541cc786e6aef3d9af084c",
    "dual_stream": "6cec236f32212d6f7eca7d3367727918220785c32ed2ee1ce6d8020feab846a4",
    "empty_reference": "59e83647159ecce0afd52c4f4ac03079bfdf2edbbc428a934796f22d323c622b",
    "merged_stream": "11bab6fd83405b90405fd24bbd588f4390642e263266764b944ceab187d6a6ff",
    "three_layer_heads": "47915115a53cdef050d5ce6b80a82b9455c66e5c3a397fdf498ce3d37a22f433",
}


@pytest.mark.parametrize("variant", sorted(DECODE_PINS))
def test_decode_outputs_are_pinned(variant):
    """Sampled tokens equal their pinned digest, and so do the cached
    states, stop and head logits with the tokens."""
    if variant == "toy_f32":
        cfg = toy_profile().build_ar_config()
        model = DualStreamAR(cfg, Rng(50))
        text, ref, _ = random_example(Rng(51), cfg, n_text=9, n_ref=14)
        max_frames = 20
    else:
        overrides, n_ref = CACHE_VARIANTS[variant]
        cfg = tiny_config(**overrides)
        model = DualStreamAR(cfg, Rng(52), dtype=np.float64)
        text, ref, _ = random_example(Rng(53), cfg, n_ref=n_ref)
        max_frames = 12
    model.stop_head.bias.data[:] = -3.0  # the stop head stays below 0.5: max_frames frames
    calls, digest, tokens = _decode_digest(model, text, ref, seed=7, max_frames=max_frames)
    assert calls == max_frames + 1
    assert tokens == DECODE_TOKEN_PINS[variant], host_note(DECODE_PINS_HOST)
    assert digest == DECODE_PINS[variant], host_note(DECODE_PINS_HOST)


def test_decode_pin_failures_name_the_host(monkeypatch):
    """A digest mismatch shows the recorded environment next to this
    host's and names the entries that differ."""
    monkeypatch.setitem(DECODE_PINS_HOST, "numpy", "0.0")
    note = host_note(DECODE_PINS_HOST)
    assert "'numpy': '0.0'" in note and f"'numpy': '{np.__version__}'" in note
    assert re.search(r"differs in numpy\b", note)


@pytest.mark.parametrize("streams, layers", [((("semantic", 8), ("acoustic", 8)), 1),
                                             ((("semantic", 8), ("acoustic", 8)), 2),
                                             ((("merged", 8),), 1)])
def test_teacher_forced_scores_match_tensor_path_counts(tape_records, streams, layers):
    """The scorer runs on arrays, eight rows per pass, and its figures equal
    bitwise those counted over the Tensor path's `teacher_forced_batch`:
    argmax hits per stream over all heads, stop states where P(stop) > 0.5
    agrees with the label, and rows whose final state fires."""
    cfg = tiny_config(streams=streams, layers_per_stream=layers)
    model = DualStreamAR(cfg, Rng(70))
    rng = Rng(71)
    rows = [random_example(rng, cfg, n_ref=int(rng.integers(0, 4)), n_tgt=int(rng.integers(1, 7)))
            for _ in range(19)]
    scores = model.teacher_forced_scores(rows)
    assert tape_records == []

    counts: dict = {}

    def add(key, hits):
        acc = counts.setdefault(key, [0, 0])
        acc[0] += int(hits.sum())
        acc[1] += hits.size

    for lo in range(0, len(rows), 8):
        stream_logits, stream_targets, stop_logits, stop_labels = model.teacher_forced_batch(rows[lo:lo + 8])
        for s, (name, _) in enumerate(cfg.streams):
            for l in range(layers):
                add(name, stream_logits[s][l].data.argmax(axis=-1) == stream_targets[s][l])
        fires = sigmoid(stop_logits.data) > 0.5
        add("stop", fires == (stop_labels > 0.5))
        add("stop_final", fires[stop_labels > 0.5])
    frac = {key: hits / total for key, (hits, total) in counts.items()}
    assert counts["stop_final"][1] == len(rows) and 0 < frac["stop"] < 1
    assert scores == {"teacher_forced_accuracy": {name: frac[name] for name, _ in cfg.streams},
                      "stop_accuracy": frac["stop"], "stop_final_fired": frac["stop_final"]}


def test_generate_records_no_tape(tape_records):
    """With trainable weights, prefill, decode steps, the heads and
    sampling run on arrays: they make no Tensor op output at all."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(60))
    text, ref, _ = random_example(Rng(61), cfg)
    assert all(p.requires_grad for p in model.named_parameters().values())
    model.stop_head.bias.data[:] = -30.0
    out = model.generate(text, ref, seed=1, max_frames=6)
    assert out.n_frames == 6 and out.truncated
    assert tape_records == []


def test_generate_traces_stop_probability_per_check():
    """`stop_probs` holds P(stop) after the prompt and after each frame:
    one more entry than frames, the last above 0.5 only when terminated."""
    cfg = tiny_config()
    model = DualStreamAR(cfg, Rng(62))
    text, ref, _ = random_example(Rng(63), cfg)
    model.stop_head.weight.data[:] = 0.0
    model.stop_head.bias.data[:] = -30.0
    out = model.generate(text, ref, seed=2, max_frames=5)
    assert out.truncated and out.stop_probs.shape == (6,) and (out.stop_probs < 0.5).all()
    model.stop_head.bias.data[:] = 30.0
    out = model.generate(text, ref, seed=2, max_frames=5)
    assert out.terminated and out.n_frames == 0 and out.stop_probs.shape == (1,)
    assert out.stop_probs[0] > 0.5
