"""Batched tokenizer and flow losses: equal to the per-utterance loop they
replace and to the zero-padded speaker pathway the packed one replaced,
one tape whatever the batch size, and no leak between utterances."""

import dataclasses
import logging

import numpy as np
import pytest

from conftest import rvq_residuals
from gradcheck import matmul, swapaxes, tensor_softmax
from paravox.engine import NEG_MASK, Rng, Tensor, gelu, gradients
from paravox.flow import FlowConfig, VelocityField, cfm_train_loss, time_features
from paravox.frontend import SyntheticSpec, generate_corpus
from paravox.tokenizer import ParallelTokenizer, TokenizerConfig


def tape_nodes(loss):
    """Op nodes on the tape behind `loss`, leaves not counted."""
    seen, stack, n = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        n += t._grad_fn is not None
        stack.extend(t._parents)
    return n


def toy_models(merged=False, dtype=np.float64, n_utterances=8):
    """A small tokenizer, scratch mel decoder and corpus of varied lengths."""
    spec = SyntheticSpec(vocab_size=8, n_speakers=4, n_utterances=n_utterances, seed=5,
                         semantic_dim=16, acoustic_dim=16, speaker_frame_dim=16,
                         speaker_global_dim=8, mel_bins=12)
    bundles = [u.bundle for u in generate_corpus(spec).utterances]
    cfg = TokenizerConfig(semantic_dim=16, acoustic_dim=16, speaker_frame_dim=16,
                          speaker_global_dim=8, cond_dim=16, codebook_size=16, n_heads=2,
                          merged=merged)
    tok = ParallelTokenizer(cfg, Rng(7), dtype=dtype)
    field = VelocityField(FlowConfig(mel_bins=12, feature_dim=32, speaker_dim=16, hidden_dim=16,
                                     n_hidden=1, time_feat_dim=4), Rng(15), dtype=dtype)
    return tok, field, bundles


def assert_close(got, want, rel):
    scale = max(np.max(np.abs(want)), 1e-300)
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= rel * scale


@pytest.mark.parametrize("merged", [False, True], ids=["parallel", "merged"])
def test_tokenizer_loss_matches_per_utterance_loop(merged):
    tok, field, bundles = toy_models(merged)
    assert len({b.n_frames for b in bundles}) > 1
    params = [*tok.named_parameters().values(), *field.named_parameters().values()]
    rngs = lambda: [Rng(100 + j) for j in range(len(bundles))]

    loss, terms = tok.tokenizer_loss(bundles, field, rngs())
    got = gradients(loss, params)
    parts = [tok.tokenizer_loss([b], field, [r]) for b, r in zip(bundles, rngs())]
    ref = sum((p for p, _ in parts[1:]), parts[0][0]) * (1.0 / len(parts))
    want = gradients(ref, params)

    assert_close(float(loss.data), float(ref.data), 1e-10)
    for g, w in zip(got, want):
        assert_close(g, w, 1e-10)
    # The quantizer terms average the per-utterance MSEs as floats: bitwise.
    for key in ("L_Sem", "L_Acous"):
        assert terms[key] == float(np.mean([t[key] for _, t in parts]))
    # The batch's grids are each utterance's own encode, and decoding a grid
    # is bitwise the codeword sums of that encode.
    for bundle, grid in zip(bundles, tok.encode_grids(bundles)):
        feats, lo = tok.decode_tokens(grid), 0
        for s, (name, frames) in enumerate(tok.stream_frames([bundle]).items()):
            tokens = tok.stacks[name].encode(frames)
            quantized, _ = rvq_residuals(tok.stacks[name], frames, tokens)
            assert np.array_equal(grid[:, s], tokens)
            assert np.array_equal(feats[:, lo:lo + frames.shape[1]], quantized)
            lo += frames.shape[1]
        assert lo == feats.shape[1]


def test_cfm_loss_is_mean_of_per_utterance_means():
    """Utterance i draws t, then x0, from rngs[i]; its mean squared error
    counts 1/B whatever its length; shared speaker rows add their gradients."""
    _, field, bundles = toy_models()
    rng = Rng(30)
    mels = [b.mel.astype(np.float64) for b in bundles]
    feats = [rng.normal((b.n_frames, 32), dtype=np.float64) for b in bundles]
    spk = Tensor(rng.normal((len(bundles), 16), dtype=np.float64), requires_grad=True)
    params = [spk, *field.named_parameters().values()]
    rngs = lambda: [Rng(200 + j) for j in range(len(bundles))]

    loss = cfm_train_loss(field, mels, feats, spk, rngs())
    got = gradients(loss, params)
    parts = []
    for i, (mel, f, r) in enumerate(zip(mels, feats, rngs())):
        t = r.uniform()
        x0 = r.normal(mel.shape, dtype=mel.dtype)
        rows = spk[i:i + 1] * np.ones((mel.shape[0], 1))  # broadcast, not a gather
        tf = time_features(np.array([t]), field.cfg.time_feat_dim, np.float64)
        v = field(Tensor((1.0 - t) * x0 + t * mel), field.condition(Tensor(f), rows), np.array([t]), tf)
        diff = v - Tensor(mel - x0)
        parts.append((diff * diff).mean())
    ref = sum(parts[1:], parts[0]) * (1.0 / len(parts))
    want = gradients(ref, params)

    assert_close(float(loss.data), float(ref.data), 1e-10)
    for g, w in zip(got, want):
        assert_close(g, w, 1e-10)


def test_tape_does_not_grow_with_batch():
    tok, field, bundles = toy_models(dtype=np.float32)
    conds = tok.speaker_conditions([b.speaker_frames for b in bundles])
    feats = [tok.decode_tokens(grid) for grid in tok.encode_grids(bundles)]
    counts = {}
    for n in (2, 8):
        rngs = [Rng(j) for j in range(n)]
        tok_loss, _ = tok.tokenizer_loss(bundles[:n], field, rngs)
        flow_loss = cfm_train_loss(field, [b.mel for b in bundles[:n]], feats[:n], conds[:n], rngs)
        counts[n] = (tape_nodes(tok_loss), tape_nodes(flow_loss))
    assert counts[2] == counts[8]


def speaker_tokenizer():
    cfg = TokenizerConfig(semantic_dim=8, acoustic_dim=8, speaker_frame_dim=8, speaker_global_dim=4,
                          cond_dim=8, codebook_size=8, n_heads=2, attn_blocks=2, conv_kernel=5)
    return ParallelTokenizer(cfg, Rng(40), dtype=np.float64)


def test_speaker_condition_ignores_padding():
    """Each utterance's condition alone equals its row of a packed batch,
    down to rows within conv_kernel // 2 of the longest and a lone frame."""
    tok = speaker_tokenizer()
    rng = Rng(41)
    lengths = [9, 8, 7, 1, 4]
    frames = [rng.normal((n, 8), dtype=np.float64) for n in lengths]
    batch = tok.speaker_conditions(frames)
    assert batch.shape == (len(lengths), 8)
    for i, f in enumerate(frames):
        np.testing.assert_allclose(batch[i], tok.speaker_conditions([f])[0], rtol=0, atol=1e-12)


def test_distill_zero_target_row_is_pinned(caplog):
    tok = speaker_tokenizer()
    rng = Rng(42)
    frames = [rng.normal((n, 8), dtype=np.float64) for n in (6, 4, 5)]
    targets = rng.normal((3, 4), dtype=np.float64)
    zeroed = targets.copy()
    zeroed[1] = 0.0
    params = list(tok.named_parameters().values())

    def distances(target):
        proj, lengths = tok.projected_speaker_frames(frames)
        return tok.speaker_distill_loss(proj, lengths, target)

    base = distances(targets).data
    with caplog.at_level(logging.WARNING, logger="paravox.tokenizer"):
        pinned = distances(zeroed)
    assert pinned.data[1] == 1.0
    assert np.array_equal(pinned.data[[0, 2]], base[[0, 2]])
    assert len(caplog.records) == 1 and "zero-norm" in caplog.records[0].message
    assert all(np.all(g == 0.0) for g in gradients(distances(zeroed)[1], params))
    assert any(np.any(g != 0.0) for g in gradients(distances(zeroed)[0], params))


# ---- the zero-padded speaker pathway, as a reference --------------------------


def _pad_rows(frames: list[np.ndarray]):
    """(B, T_max, D) zero-padded batch, the lengths, and the (B, 1, 1, T_max)
    additive mask of the padded columns."""
    lengths = np.array([f.shape[0] for f in frames])
    out = np.zeros((len(frames), int(lengths.max()), frames[0].shape[1]))
    for i, f in enumerate(frames):
        out[i, :f.shape[0]] = f
    mask = np.where(np.arange(out.shape[1]) >= lengths[:, None], NEG_MASK, 0.0)[:, None, None, :]
    return out, lengths, mask


def _padded_mean(h: Tensor, lengths: np.ndarray) -> Tensor:
    keep = np.arange(h.shape[1]) < lengths[:, None]
    return (h * keep[..., None]).sum(axis=1) * (1.0 / lengths)[:, None]


def _padded_block(block, x: Tensor, mask: np.ndarray) -> Tensor:
    """A `TransformerBlock` over a padded batch: the attention from its
    projections under an additive mask, then the residual MLP."""
    qkv = block.attn.wqkv(block.ln1(x))
    b, t, dim = x.shape
    n_heads = block.attn.n_heads
    q, k, v = (swapaxes(qkv[..., i * dim:(i + 1) * dim].reshape(b, t, n_heads, dim // n_heads), 1, 2)
               for i in range(3))
    att = tensor_softmax(matmul(q, swapaxes(k, -1, -2)), scale=1.0 / np.sqrt(dim // n_heads), mask=mask)
    x = x + block.attn.wo(swapaxes(matmul(att, v), 1, 2).reshape(b, t, dim))
    return x + block.fc2(gelu(block.fc1(block.ln2(x))))


def _padded_conditions(tok, frames: list[np.ndarray]):
    """(projection, lengths, condition vectors) of the padded pathway:
    padded projector rows zeroed after the bias, the conv over each padded
    row, masked blocks, and means over the real rows."""
    batch, lengths, mask = _pad_rows(frames)
    keep = np.arange(batch.shape[1]) < lengths[:, None]
    proj = tok.projector(Tensor(batch)) * keep[..., None]
    h = tok.cond_encoder.conv(proj)
    for block in tok.cond_encoder.blocks:
        h = _padded_block(block, h, mask)
    return proj, lengths, _padded_mean(h, lengths)


def _padded_tokenizer_loss(tok, bundles, field, rngs) -> Tensor:
    proj, lengths, cond = _padded_conditions(tok, [b.speaker_frames for b in bundles])
    pred = tok.distill_head(_padded_mean(proj, lengths))
    target = np.stack([b.speaker_global for b in bundles]).astype(np.float64)
    cos = (pred * target).sum(axis=1) / ((pred * pred).sum(axis=1).sqrt() * np.linalg.norm(target, axis=1))
    features = np.split(tok.decode_tokens(np.concatenate(tok.encode_grids(bundles))),
                        np.cumsum([b.n_frames for b in bundles])[:-1])
    return (1.0 - cos).mean() + cfm_train_loss(field, [b.mel for b in bundles], features, cond, rngs)


def test_packed_speaker_pathway_matches_padded_f64():
    """`tokenizer_loss`, `speaker_conditions` and every parameter gradient
    equal the zero-padded pathway's to rtol 1e-12 in f64, with utterances
    of 1 and 2 frames under a kernel of 5."""
    tok, field, bundles = toy_models()
    tok = ParallelTokenizer(dataclasses.replace(tok.cfg, conv_kernel=5), Rng(7), dtype=np.float64)
    cut = lambda b, n: dataclasses.replace(b, semantic=b.semantic[:n], acoustic=b.acoustic[:n],
                                           speaker_frames=b.speaker_frames[:n], mel=b.mel[:n])
    bundles = [cut(b, n) for b, n in zip(bundles, (9, 1, 7, 2, 11, 4))]
    assert [b.n_frames for b in bundles] == [9, 1, 7, 2, 11, 4]
    params = [*tok.named_parameters().values(), *field.named_parameters().values()]
    rngs = lambda: [Rng(300 + j) for j in range(len(bundles))]

    frames = [b.speaker_frames for b in bundles]
    np.testing.assert_allclose(tok.speaker_conditions(frames), _padded_conditions(tok, frames)[2].data,
                               rtol=1e-12, atol=0)
    loss, _ = tok.tokenizer_loss(bundles, field, rngs())
    ref = _padded_tokenizer_loss(tok, bundles, field, rngs())
    np.testing.assert_allclose(float(loss.data), float(ref.data), rtol=1e-12, atol=0)
    for name, g, w in zip([*tok.named_parameters(), *field.named_parameters()],
                          gradients(loss, params), gradients(ref, params)):
        # The key-bias columns of `wqkv` get rounding noise only: a shift
        # shared by every key leaves the softmax as it is. So the floor is
        # 1e-12 of the parameter's largest gradient.
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max(), err_msg=name)
