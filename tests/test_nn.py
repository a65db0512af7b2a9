"""Layers: attention against a hand-rolled oracle, causal and packed rows, conv, modules."""

import numpy as np
import pytest

from gradcheck import grad_check
from paravox.ar import ARConfig, DualStreamAR
from paravox.engine import Rng, Tensor, concat, gradients
from paravox.flow import FlowConfig, VelocityField, time_features
from paravox.nn import (
    Conv1dSame,
    Embedding,
    KVCache,
    LayerNorm,
    Linear,
    Module,
    MultiHeadAttention,
    TransformerBlock,
)
from paravox.tokenizer import ConditionEncoder, TokenizerConfig


def mse(a: Tensor, b: np.ndarray) -> Tensor:
    diff = a - Tensor(np.asarray(b, dtype=a.dtype))
    return (diff * diff).mean()


def test_single_head_attention_matches_manual():
    rng = Rng(0)
    attn = MultiHeadAttention(6, 1, rng, dtype=np.float64)
    x = rng.normal((4, 6), dtype=np.float64)
    out = attn(Tensor(x)).data

    wqkv, bqkv = attn.wqkv.weight.data, attn.wqkv.bias.data
    q = x @ wqkv[:, :6] + bqkv[:6]
    k = x @ wqkv[:, 6:12] + bqkv[6:12]
    v = x @ wqkv[:, 12:] + bqkv[12:]
    scores = q @ k.T / np.sqrt(6)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    manual = (w @ v) @ attn.wo.weight.data + attn.wo.bias.data
    assert np.allclose(out, manual, atol=1e-12)


def test_causal_mask_blocks_future():
    rng = Rng(1)
    attn = MultiHeadAttention(8, 2, rng)
    x = rng.normal((5, 8))
    base = attn(Tensor(x), causal=True).data
    x2 = x.copy()
    x2[4] += 10.0
    out2 = attn(Tensor(x2), causal=True).data
    assert np.array_equal(base[:4], out2[:4])
    assert not np.allclose(base[4], out2[4])


def test_attention_cache_matches_full_pass():
    """Array rows fed in chunks through a cache equal one causal pass of
    the layer over all rows; a Tensor cannot go through a cache."""
    rng = Rng(3)
    attn = MultiHeadAttention(8, 2, rng, dtype=np.float64)
    x = rng.normal((6, 8), dtype=np.float64)
    full = attn(Tensor(x), causal=True).data
    cache = KVCache(2, 4, 6, np.float64)
    for lo, hi in ((0, 3), (3, 4), (4, 6)):
        out = attn(x[lo:hi], True, cache)
        assert type(out) is np.ndarray
        np.testing.assert_allclose(out, full[lo:hi], rtol=0, atol=1e-12)
    assert cache.n == 6
    with pytest.raises(ValueError, match="capacity 6"):
        attn(x[:1], True, cache)
    with pytest.raises(TypeError, match="array input"):
        attn(Tensor(x[:1]), True, KVCache(2, 4, 1, np.float64))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_wqkv_initial_weights_are_the_three_spawned_draws(dtype):
    """The packed projection starts from the draws of separate q, k, v Linears."""
    rng = Rng(11)
    attn = MultiHeadAttention(8, 2, rng, dtype=dtype)
    separate = [Linear(8, 8, rng.spawn(tag), dtype=dtype) for tag in ("wq", "wk", "wv")]
    want = np.concatenate([lin.weight.data for lin in separate], axis=1)
    assert attn.wqkv.weight.dtype == dtype and attn.wqkv.bias.dtype == dtype
    assert np.array_equal(attn.wqkv.weight.data, want)
    assert np.array_equal(attn.wqkv.bias.data, np.zeros(24, dtype=dtype))
    assert np.array_equal(attn.wo.weight.data, Linear(8, 8, rng.spawn("wo"), dtype=dtype).weight.data)


def test_cached_states_carry_no_tape():
    """With trainable weights, a cached trunk pass records nothing: its
    states, and a cached block's output, are plain arrays."""
    cfg = ARConfig(text_vocab=6, streams=(("semantic", 5), ("acoustic", 5)), n_layers=2,
                   model_dim=8, n_heads=2, max_text_len=8, max_speech_len=12)
    model = DualStreamAR(cfg, Rng(12), dtype=np.float64)
    assert all(p.requires_grad for p in model.named_parameters().values())
    prompt = model.input_ids(np.array([1, 2, 3]), Rng(13).integers(0, 5, (2, 2, 1)))
    cache = model.new_cache(prompt.shape[0] + 1)
    states = model.forward_states(prompt, cache=cache)
    assert type(states) is np.ndarray
    step = model.blocks[0](states[-1:], True, KVCache(2, 4, 1, np.float64))
    assert type(step) is np.ndarray
    uncached = model.forward_states(prompt)
    assert uncached.requires_grad and uncached._grad_fn is not None


def test_packed_attention_keeps_sequences_apart():
    """Over packed rows of `lengths`, no sequence's output depends on
    another sequence's rows."""
    rng = Rng(2)
    attn = MultiHeadAttention(8, 2, rng)
    x = rng.normal((10, 8))
    lengths = np.array([4, 6])
    base = attn(Tensor(x), True, lengths=lengths).data
    x2 = x.copy()
    x2[:4] = 99.0  # only the rows of sequence 0
    out2 = attn(Tensor(x2), True, lengths=lengths).data
    assert np.array_equal(base[4:], out2[4:])
    assert not np.allclose(base[:4], out2[:4])


def test_transformer_block_grad_check():
    rng = Rng(3)
    block = TransformerBlock(8, 2, rng, dtype=np.float64)
    x = Tensor(rng.normal((3, 8), dtype=np.float64))
    target = rng.normal((3, 8), dtype=np.float64)
    report = grad_check(lambda: mse(block(x), target), block.named_parameters(), tolerance=1e-6)
    assert report.passed, str(report)


def _tape_nodes(out: Tensor) -> int:
    """Op nodes recorded behind `out` (leaves not counted)."""
    seen, stack, n = set(), [out], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            n += t._grad_fn is not None
            stack.extend(t._parents)
    return n


def test_transformer_block_tape_nodes():
    """10 nodes per block: ln1; the packed wqkv linear; attention; wo;
    residual add; ln2; fc1; gelu; fc2; residual add."""
    rng = Rng(10)
    block = TransformerBlock(8, 2, rng)
    x = Tensor(rng.normal((2, 5, 8)), requires_grad=True)
    assert _tape_nodes(block(x, causal=True)) == 10
    assert _tape_nodes(block(Tensor(rng.normal((5, 8)), requires_grad=True))) == 10
    packed = Tensor(rng.normal((8, 8)), requires_grad=True)
    assert _tape_nodes(block(packed, True, lengths=np.array([5, 3]))) == 10
    # Reads add one node: the residual rows' gather.
    assert _tape_nodes(block(packed, True, lengths=np.array([5, 3]), reads=np.array([2, 1]))) == 11


def test_conv1d_same_matches_explicit_window_sum():
    rng = Rng(4)
    conv = Conv1dSame(3, 2, 3, rng, dtype=np.float64)
    x = rng.normal((5, 3), dtype=np.float64)
    out = conv(Tensor(x)).data
    w = conv.proj.weight.data  # (kernel*d_in, d_out), window order [t-1, t, t+1]
    padded = np.vstack([np.zeros((1, 3)), x, np.zeros((1, 3))])
    for t in range(5):
        window = padded[t:t + 3].reshape(-1)
        assert np.allclose(out[t], window @ w + conv.proj.bias.data, atol=1e-12)


def test_conv1d_grad_check():
    rng = Rng(5)
    conv = Conv1dSame(3, 3, 3, rng, dtype=np.float64)
    x = Tensor(rng.normal((4, 3), dtype=np.float64))
    target = rng.normal((4, 3), dtype=np.float64)
    report = grad_check(lambda: mse(conv(x), target), conv.named_parameters(), tolerance=1e-6)
    assert report.passed, str(report)


def _conv_composed(conv: Conv1dSame, x: Tensor) -> Tensor:
    """`Conv1dSame` as it was built from tape nodes: a concat of zero rows
    around x, one slice per tap, a concat of the slices, then the Linear."""
    t, d = x.shape[-2:]
    zeros = Tensor(np.zeros(x.shape[:-2] + (conv.kernel // 2, d), dtype=x.dtype))
    padded = concat([zeros, x, zeros], axis=-2)
    return conv.proj(concat([padded[..., i:i + t, :] for i in range(conv.kernel)], axis=-1))


@pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "rank3"])
@pytest.mark.parametrize("t", [2, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", [3, 5])
def test_conv1d_same_is_bitwise_the_composed_chain(kernel, dtype, t, lead):
    rng = Rng(12)
    conv = Conv1dSame(3, 4, kernel, rng.spawn("conv"), dtype=dtype)
    x = rng.normal(lead + (t, 3), dtype=dtype)
    cot = Tensor(rng.normal(lead + (t, 4), dtype=dtype))
    runs = []
    for build in (conv, lambda xt: _conv_composed(conv, xt)):
        xt = Tensor(x.copy(), requires_grad=True)
        y = build(xt)
        runs.append([y.data] + gradients((y * cot).sum(), [xt, conv.proj.weight, conv.proj.bias]))
    for fused, composed in zip(*runs):
        assert fused.dtype == composed.dtype
        np.testing.assert_array_equal(fused, composed)


def test_conv1d_same_is_two_tape_nodes():
    rng = Rng(13)
    conv = Conv1dSame(3, 4, 5, rng)
    x = Tensor(rng.normal((2, 6, 3)), requires_grad=True)
    assert _tape_nodes(conv(x)) == 2


def test_module_collects_nested_names():
    rng = Rng(6)

    class Net(Module):
        def __init__(self):
            self.emb = Embedding(4, 8, rng)
            self.blocks = [TransformerBlock(8, 2, rng.spawn(i)) for i in range(2)]
            self.out = Linear(8, 3, rng)

    net = Net()
    names = set(net.named_parameters())
    assert "emb.weight" in names
    assert "blocks.0.attn.wqkv.weight" in names
    assert "blocks.1.fc2.bias" in names
    assert "out.weight" in names


def test_module_state_roundtrip_and_mismatch():
    rng = Rng(7)
    net = Linear(3, 4, rng)
    state = {k: v.copy() for k, v in net.state().items()}
    net.weight.data[:] = 0
    live = net.state()
    net.load_state(state)
    assert np.array_equal(net.weight.data, state["weight"])
    assert live["weight"] is net.weight.data  # loaded into the module's own arrays
    with pytest.raises(KeyError, match="missing"):
        net.load_state({"weight": state["weight"]})
    with pytest.raises(ValueError, match="shape"):
        net.load_state({"weight": np.zeros((9, 9), dtype=np.float32), "bias": state["bias"]})


def test_layer_norm_affine_params_train():
    rng = Rng(8)
    ln = LayerNorm(6, dtype=np.float64)
    x = Tensor(rng.normal((4, 6), dtype=np.float64))
    target = rng.normal((4, 6), dtype=np.float64)
    report = grad_check(lambda: mse(ln(x), target), ln.named_parameters(), tolerance=1e-6)
    assert report.passed, str(report)


def test_batched_equals_unbatched_block():
    rng = Rng(9)
    block = TransformerBlock(8, 2, rng, dtype=np.float64)
    x = rng.normal((2, 5, 8), dtype=np.float64)
    batched = block(Tensor(x), causal=True).data
    for i in range(2):
        single = block(Tensor(x[i]), causal=True).data
        assert np.allclose(batched[i], single, atol=1e-12)


def _forward_pairs(case: str, dtype) -> list:
    """(array forward, Tensor forward) outputs of one module on the same inputs."""
    rng = Rng(21)
    x = rng.normal((7, 16), dtype=dtype)
    lengths = np.array([5, 9, 1, 9])
    packed = np.concatenate([rng.normal((n, 16), dtype=dtype) for n in lengths])
    batch = packed.reshape(4, 6, 16)
    if case == "linear":
        layer = Linear(16, 8, rng, dtype=dtype)
        return [(layer(a), layer(Tensor(a)).data) for a in (x, batch)]
    if case == "layer_norm":
        ln = LayerNorm(16, dtype=dtype)
        ln.gamma.data[:] = rng.normal((16,), dtype=dtype)
        return [(ln(a), ln(Tensor(a)).data) for a in (x[:1], x, batch)]
    if case == "attention":
        attn = MultiHeadAttention(16, 4, rng, dtype=dtype)
        return [(attn(x, causal), attn(Tensor(x), causal).data) for causal in (False, True)]
    if case == "attention_cached":
        attn = MultiHeadAttention(16, 4, rng, dtype=dtype)
        return [(attn(x, True, KVCache(4, 4, 7, dtype)), attn(Tensor(x), True).data)]
    if case == "block":
        block = TransformerBlock(16, 4, rng, dtype=dtype)
        return [(block(a, causal), block(Tensor(a), causal).data)
                for a, causal in ((x, False), (x, True), (batch, True))] + \
            [(block(packed, causal, lengths=lengths, reads=reads),
              block(Tensor(packed), causal, lengths=lengths, reads=reads).data)
             for causal, reads in ((False, None), (True, None), (True, np.array([3, 2, 1, 3])))]
    if case == "conv1d":
        conv = Conv1dSame(16, 8, 3, rng, dtype=dtype)
        return [(conv(a), conv(Tensor(a)).data) for a in (x, batch)] + \
            [(conv(packed, lengths), conv(Tensor(packed), lengths).data)]
    if case == "condition_encoder":
        cfg = TokenizerConfig(speaker_frame_dim=16, cond_dim=16, n_heads=4, attn_blocks=2)
        enc = ConditionEncoder(cfg, rng, dtype=dtype)
        return [(enc(packed, lengths), enc(Tensor(packed), lengths).data)]
    field = VelocityField(FlowConfig(mel_bins=6, feature_dim=12, speaker_dim=4, hidden_dim=16,
                                     n_hidden=2, time_feat_dim=4), rng, dtype=dtype)
    feats, spk = x[:, :12], x[:, 12:]
    cond = field.condition(feats, spk)
    if case == "field_condition":
        return [(cond, field.condition(Tensor(feats), Tensor(spk)).data)]
    x_t, t = rng.normal((7, 6), dtype=dtype), np.array([0.375])
    tf = time_features(t, 4, np.float64)
    return [(field(x_t, cond, t, tf), field(Tensor(x_t), Tensor(cond), t, tf).data)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", ["linear", "layer_norm", "attention", "attention_cached", "block", "conv1d",
                                  "condition_encoder", "field_condition", "field"])
def test_array_forward_is_bitwise_the_tensor_forward(case, dtype):
    """Each module's one forward on arrays returns an array equal bit for bit
    to its output on Tensors: rank 2 and 3, bidirectional and causal,
    packed rows with and without reads, one pass through an empty
    key/value cache, and the flow field's two halves."""
    for got, want in _forward_pairs(case, dtype):
        assert type(got) is np.ndarray and got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
