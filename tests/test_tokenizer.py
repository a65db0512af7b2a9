"""Tokenizer: stream decoupling, speaker pathway, loss composition."""

import logging

import numpy as np
import pytest

from gradcheck import grad_check
from paravox.engine import Rng
from paravox.flow import FlowConfig, VelocityField
from paravox.frontend import SyntheticSpec, generate_corpus, make_utterance
from paravox.pipeline.infer import ParallelTokens
from paravox.probes import silhouette_score
from paravox.tokenizer import ParallelTokenizer, TokenizerConfig


def toy_spec(**kw):
    base = dict(vocab_size=8, n_speakers=4, n_utterances=16, seed=5,
                semantic_dim=16, acoustic_dim=16, speaker_frame_dim=16,
                speaker_global_dim=8, mel_bins=12)
    base.update(kw)
    return SyntheticSpec(**base)


def toy_tokenizer(spec, **kw):
    cfg = TokenizerConfig(semantic_dim=spec.semantic_dim, acoustic_dim=spec.acoustic_dim,
                          speaker_frame_dim=spec.speaker_frame_dim,
                          speaker_global_dim=spec.speaker_global_dim,
                          cond_dim=16, codebook_size=16, n_heads=2, **kw)
    return ParallelTokenizer(cfg, Rng(7))


def test_encode_shapes_and_alignment():
    spec = toy_spec()
    corpus = generate_corpus(spec)
    tok = toy_tokenizer(spec)
    bundle = corpus.utterances[0].bundle
    grid, cond = tok.encode_speech(bundle)
    assert grid.shape == (bundle.n_frames, 2, 3)
    assert grid.dtype == np.int64
    assert cond.shape == (16,)


def test_identical_text_different_speaker_same_semantic_tokens():
    spec = toy_spec(noise_scale=0.0)
    corpus = generate_corpus(spec)
    tok = toy_tokenizer(spec)
    syms, durs = np.array([3, 5, 9]), np.array([2, 2, 3])
    u0 = make_utterance(spec, corpus.factors, syms, durs, 0, Rng(1))
    u1 = make_utterance(spec, corpus.factors, syms, durs, 2, Rng(9))
    t0, _ = tok.encode_speech(u0.bundle)
    t1, _ = tok.encode_speech(u1.bundle)
    assert np.array_equal(t0[:, 0], t1[:, 0])


def test_decode_is_channel_concat_and_acoustic_zeroing_local():
    spec = toy_spec()
    corpus = generate_corpus(spec)
    tok = toy_tokenizer(spec)
    bundle = corpus.utterances[0].bundle
    grid, _ = tok.encode_speech(bundle)
    feats = tok.decode_tokens(grid)
    assert feats.shape == (bundle.n_frames, 32)
    sem_part = tok.stacks["semantic"].decode(grid[:, 0])
    ac_part = tok.stacks["acoustic"].decode(grid[:, 1])
    assert np.array_equal(feats, np.concatenate([sem_part, ac_part], axis=1))
    # pinned zero codeword: all-zero acoustic tokens decode to zero channels
    zeroed = grid.copy()
    zeroed[:, 1] = 0
    feats_zeroed = tok.decode_tokens(zeroed)
    assert np.array_equal(feats_zeroed[:, :16], feats[:, :16])
    assert np.array_equal(feats_zeroed[:, 16:], np.zeros_like(feats[:, 16:]))


def test_token_streams_equal_length_guard():
    with pytest.raises(ValueError, match="lengths differ"):
        ParallelTokens(semantic=np.zeros((4, 3), dtype=np.int64), acoustic=np.zeros((5, 3), dtype=np.int64))


def test_distill_loss_range_and_perfect_alignment():
    spec = toy_spec()
    tok = toy_tokenizer(spec)
    rng = Rng(11)
    frames = rng.normal((10, 16))
    target = rng.normal((8,))
    proj, lengths = tok.projected_speaker_frames([frames])
    loss = tok.speaker_distill_loss(proj, lengths, target.reshape(1, -1))
    assert loss.shape == (1,)
    assert 0.0 <= loss.data[0] <= 2.0
    # aligning the target with the actual pooled prediction gives ~0
    pooled = tok.projected_speaker_frames([frames])[0].mean(axis=0, keepdims=True)
    pred = tok.distill_head(pooled).data
    aligned = tok.speaker_distill_loss(proj, lengths, 3.0 * pred)
    assert aligned.data[0] == pytest.approx(0.0, abs=1e-6)


def test_distill_zero_norm_target_logs_and_returns_one(caplog):
    spec = toy_spec()
    tok = toy_tokenizer(spec)
    frames = Rng(12).normal((6, 16))
    proj, lengths = tok.projected_speaker_frames([frames])
    with caplog.at_level(logging.WARNING):
        loss = tok.speaker_distill_loss(proj, lengths, np.zeros((1, 8), dtype=np.float32))
    assert loss.data[0] == 1.0
    assert any("zero-norm" in r.message for r in caplog.records)


def test_condition_encoder_grad_check():
    spec = toy_spec()
    cfg = TokenizerConfig(semantic_dim=8, acoustic_dim=8, speaker_frame_dim=8,
                          speaker_global_dim=4, cond_dim=8, codebook_size=8,
                          n_heads=2, attn_blocks=2)
    tok = ParallelTokenizer(cfg, Rng(13), dtype=np.float64)
    rng = Rng(14)
    frames = rng.normal((5, 8), dtype=np.float64)
    target = rng.normal((8,), dtype=np.float64)

    def loss():
        cond = tok.cond_encoder(*tok.projected_speaker_frames([frames]))[0]
        d = cond - target
        return (d * d).sum()

    params = {**tok.cond_encoder.named_parameters("cond."),
              **tok.projector.named_parameters("proj.")}
    report = grad_check(loss, params, tolerance=1e-6)
    assert report.passed, str(report)


def test_tokenizer_loss_terms_and_sum():
    spec = toy_spec()
    corpus = generate_corpus(spec)
    tok = toy_tokenizer(spec)
    field = VelocityField(FlowConfig(mel_bins=12, feature_dim=32, speaker_dim=16,
                                     hidden_dim=16, n_hidden=1, time_feat_dim=4), Rng(15))
    loss, out = tok.tokenizer_loss([corpus.utterances[0].bundle], field, [Rng(16)])
    assert loss.shape == () and loss.requires_grad
    for key in ("L_Sem", "L_Acous", "L_Speaker", "L_Mel", "total"):
        assert key in out
        assert np.isfinite(out[key])
    assert out["total"] == out["L_Sem"] + out["L_Acous"] + out["L_Speaker"] + out["L_Mel"]


def test_speaker_condition_clusters_by_speaker():
    spec = toy_spec(n_utterances=24, noise_scale=0.02)
    corpus = generate_corpus(spec)
    tok = toy_tokenizer(spec)
    conds = tok.speaker_conditions([u.bundle.speaker_frames for u in corpus.utterances])
    labels = np.array([u.speaker_id for u in corpus.utterances])
    assert silhouette_score(conds, labels) > 0.5


def test_merged_mode_single_stack():
    spec = toy_spec()
    corpus = generate_corpus(spec)
    tok = toy_tokenizer(spec, merged=True)
    assert list(tok.stacks) == ["merged"]
    bundle = corpus.utterances[0].bundle
    grid, cond = tok.encode_speech(bundle)
    assert grid.shape == (bundle.n_frames, 1, 3)
    assert cond.shape == (16,)
    feats = tok.decode_tokens(grid)
    assert feats.shape == (bundle.n_frames, 32)
    with pytest.raises(ValueError, match=r"\(T, 1, L\) token grid"):
        tok.decode_tokens(np.zeros((bundle.n_frames, 2, 3), dtype=np.int64))


def test_encode_deterministic():
    spec = toy_spec()
    corpus = generate_corpus(spec)
    tok = toy_tokenizer(spec)
    bundle = corpus.utterances[3].bundle
    a, _ = tok.encode_speech(bundle)
    b, _ = tok.encode_speech(bundle)
    assert np.array_equal(a, b)


def test_load_full_state_rejects_unused_codebook_arrays():
    """A deeper tokenizer's codebooks, or a key naming no stack, are each
    named in a KeyError instead of being dropped."""
    spec = toy_spec()
    tok = toy_tokenizer(spec)
    deeper = toy_tokenizer(spec, n_quantizer_layers=4).full_state()
    stray = {**tok.full_state(), "rvq.bogus.layer0.entries": np.zeros((16, 16), dtype=np.float32)}
    for state, unused in ((deeper, [k for k in deeper if ".layer3." in k]),
                          (stray, ["rvq.bogus.layer0.entries"])):
        with pytest.raises(KeyError) as err:
            tok.load_full_state(state)
        assert unused and all(repr(k) in str(err.value) for k in unused)
    tok.load_full_state(tok.full_state())
