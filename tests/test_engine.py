"""Tensor engine: forward ops, backward, grad_check, rng, determinism."""

import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gradcheck import grad_check, matmul, swapaxes, tensor_sigmoid, tensor_softmax
from paravox import engine
from paravox.engine import (
    BlankRng,
    GradSlot,
    NEG_MASK,
    Rng,
    ShapeError,
    Tensor,
    add_rows,
    attention,
    attention_fwd,
    bce_with_logits,
    concat,
    conv_windows,
    cross_entropy,
    embedding,
    gelu,
    gradients,
    last_rows,
    layer_norm,
    linear,
    mean_rows,
    param_grad_pool,
    sigmoid,
    softmax,
)


def f64(rng, shape, scale=1.0):
    return Tensor(rng.normal(shape, scale=scale, dtype=np.float64), requires_grad=True)


def test_mul_gradient_at_3():
    x = Tensor(np.array(3.0), requires_grad=True)
    (x * x).backward()
    assert x.grad == pytest.approx(6.0)


def test_matmul_identity():
    rng = Rng(1)
    a = rng.normal((3, 5), dtype=np.float64)
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_quadratic_bowl_fd_error_is_float_noise():
    rng = Rng(2)
    x = f64(rng, (6,))
    report = grad_check(lambda: (x * x).sum(), {"x": x}, tolerance=1e-9)
    assert report.passed, str(report)
    assert report.max_error < 1e-9


def test_two_layer_mlp_grad_check_under_1e5():
    rng = Rng(3)
    w1, b1 = f64(rng, (5, 8), 0.5), f64(rng, (8,), 0.1)
    w2, b2 = f64(rng, (8, 3), 0.5), f64(rng, (3,), 0.1)
    x = Tensor(rng.normal((4, 5), dtype=np.float64))
    t = Tensor(rng.normal((4, 3), dtype=np.float64))

    def loss():
        h = tensor_sigmoid(matmul(x, w1) + b1)
        d = matmul(h, w2) + b2 - t
        return (d * d).mean()

    report = grad_check(loss, {"w1": w1, "b1": b1, "w2": w2, "b2": b2}, tolerance=1e-5)
    assert report.passed, str(report)


def test_grad_check_rejects_float32():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: (x * x).sum(), {"x": x})


def test_grad_check_reports_failure_without_raising():
    # A deliberately wrong "gradient": str-through square pretends d/dx = 1.
    x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)

    def loss():
        y = x + Tensor(x.data * x.data - x.data)  # value x^2, gradient 1
        return y.sum()

    report = grad_check(loss, {"x": x}, tolerance=1e-5)
    assert not report.passed
    assert "FAIL" in str(report)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * x).backward()


def test_param_off_tape_gets_zero_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    unused = Tensor(np.ones(4), requires_grad=True)
    gx, gu = gradients((x * 2.0).sum(), [x, unused])
    assert np.array_equal(gx, np.full(3, 2.0, dtype=np.float32))
    assert np.array_equal(gu, np.zeros(4, dtype=np.float32))


def test_shape_mismatch_names_both_shapes():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((4, 5)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        a + b
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        linear(a, b)


def test_broadcast_add_and_unbroadcast_grad():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    ((x + b) * 2.0).sum().backward()
    assert np.array_equal(b.grad, np.full(3, 8.0, dtype=np.float32))


def test_softmax_rows_sum_to_one():
    rng = Rng(4)
    for trial in range(20):
        s = softmax(rng.normal((5, 9), scale=5.0))
        assert np.all(np.abs(s.sum(axis=-1) - 1.0) < 1e-6)
        assert np.all(s >= 0)


def test_layer_norm_zero_variance_row_maps_to_zeros():
    x = Tensor(np.full((2, 8), 3.7, dtype=np.float32))
    out = layer_norm(x)
    assert np.array_equal(out.data, np.zeros((2, 8), dtype=np.float32))


def test_layer_norm_normalizes():
    rng = Rng(5)
    x = Tensor(rng.normal((6, 32), scale=4.0, dtype=np.float64))
    y = layer_norm(x).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_composite_ops_grad_check():
    rng = Rng(6)
    a = f64(rng, (3, 4), 0.7)
    g = f64(rng, (4,), 0.3)
    ids = np.array([1, 0, 2, 1])
    table = f64(rng, (3, 4), 0.5)

    def loss():
        x = layer_norm(a) * g
        e = embedding([table], ids[:, None])
        merged = concat([x, e], axis=0)
        s = tensor_softmax(merged * 1.5)
        return (s * s).sum() + tensor_sigmoid(merged).mean() + gelu(merged).sum() * 0.1

    report = grad_check(loss, {"a": a, "g": g, "table": table}, tolerance=1e-6)
    assert report.passed, str(report)


def _tanh(x: Tensor) -> Tensor:
    """A tanh tape node, the one primitive `_gelu_composed` needs beyond the engine's."""
    data = np.tanh(x.data)
    return Tensor._make(data, (x,), lambda g: x._accumulate(g * (1.0 - data * data)))


def _gelu_composed(x: Tensor) -> Tensor:
    """The GELU as it was built from primitive tape nodes."""
    c = np.sqrt(2.0 / np.pi)
    return x * 0.5 * (_tanh((x + x * x * x * 0.044715) * c) + 1.0)


def test_gelu_grad_check_f64():
    x = Tensor(np.linspace(-6.0, 6.0, 241), requires_grad=True)
    w = Tensor(Rng(30).normal((241,), dtype=np.float64))
    report = grad_check(lambda: (gelu(x) * w).sum(), {"x": x}, tolerance=1e-7)
    assert report.passed, str(report)


def test_gelu_is_one_tape_node():
    x = Tensor(np.linspace(-3.0, 3.0, 7), requires_grad=True)
    y = gelu(x)
    assert y._parents == (x,)


def test_gelu_matches_composed_formula():
    """Same forward and gradient as the composed form: f64 to 1e-12, f32 to 1e-6."""
    grid = np.linspace(-6.0, 6.0, 4001)
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-6)):
        a = Tensor(grid.astype(dtype), requires_grad=True)
        b = Tensor(grid.astype(dtype), requires_grad=True)
        ya, yb = gelu(a), _gelu_composed(b)
        assert ya.dtype == dtype
        np.testing.assert_allclose(ya.data, yb.data, rtol=tol, atol=tol)
        ya.sum().backward()
        yb.sum().backward()
        assert a.grad.dtype == dtype
        np.testing.assert_allclose(a.grad, b.grad, rtol=tol, atol=tol)


# ---- fused transformer primitives -----------------------------------------------
#
# Each composed form below is the chain of tape nodes the fused primitive
# replaced. Linear's 2-D GEMMs may round differently from the batched
# matmul on rank-3 input; the other primitives do the same array ops in
# the same order, so they must agree bit for bit.


def _linear_composed(x, w, b):
    y = matmul(x, w)
    return y if b is None else y + b


def _layer_norm_composed(x, gamma, beta):
    return layer_norm(x) * gamma + beta


def _softmax_composed(x, scale, mask):
    return tensor_softmax(x * scale + Tensor(np.asarray(mask, dtype=x.dtype)))


def _split_composed(x, n_heads):
    return swapaxes(x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)), -3, -2)


def _merge_composed(x):
    h, t, hd = x.shape[-3:]
    return swapaxes(x, -3, -2).reshape(x.shape[:-3] + (t, h * hd))


def _attention_composed(qkv, n_heads, mask):
    """The attention chain `attention` replaced: head splits, q k^T, the
    scaled and masked softmax, att v, head merge."""
    dim = qkv.shape[-1] // 3
    q, k, v = (_split_composed(qkv[..., i * dim:(i + 1) * dim], n_heads) for i in range(3))
    att = tensor_softmax(matmul(q, swapaxes(k, -1, -2)), axis=-1, scale=1.0 / np.sqrt(dim // n_heads), mask=mask)
    return _merge_composed(matmul(att, v))


def _causal_mask(t, dtype):
    """(t, t) additive mask: 0 on/below the diagonal, NEG_MASK above."""
    return np.triu(np.full((t, t), NEG_MASK, dtype=dtype), k=1)


def _attention_mask(lengths, t, dtype):
    """Causal plus padding of the columns past each length: (B, 1, T, T)."""
    pad = np.where(np.arange(t) >= np.asarray(lengths)[:, None], NEG_MASK, 0.0).astype(dtype)
    return _causal_mask(t, dtype)[None, None] + pad[:, None, None, :]


def _assert_same_forward_and_grads(fused, composed, inputs, rtol=0.0, atol=0.0):
    """Run both forms on fresh leaf copies with one random cotangent; compare."""
    rng = Rng(40)
    a = [Tensor(v.copy(), requires_grad=True) for v in inputs]
    b = [Tensor(v.copy(), requires_grad=True) for v in inputs]
    ya, yb = fused(*a), composed(*b)
    assert ya.dtype == yb.dtype == inputs[0].dtype
    cot = Tensor(rng.normal(ya.shape, dtype=ya.dtype))
    if rtol == atol == 0.0:
        np.testing.assert_array_equal(ya.data, yb.data)
    else:
        np.testing.assert_allclose(ya.data, yb.data, rtol=rtol, atol=atol)
    (ya * cot).sum().backward()
    (yb * cot).sum().backward()
    for ta, tb in zip(a, b):
        assert ta.grad.dtype == tb.grad.dtype
        if rtol == atol == 0.0:
            np.testing.assert_array_equal(ta.grad, tb.grad)
        else:
            np.testing.assert_allclose(ta.grad, tb.grad, rtol=rtol, atol=atol)


@pytest.mark.parametrize("lead", [(5,), (3, 4)], ids=["rank2", "rank3"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
def test_linear_grad_check_f64(lead, bias):
    rng = Rng(31)
    x = f64(rng, lead + (6,))
    w = f64(rng, (6, 4), 0.5)
    b = f64(rng, (4,), 0.3) if bias else None
    target = rng.normal(lead + (4,), dtype=np.float64)
    params = {"x": x, "w": w} if b is None else {"x": x, "w": w, "b": b}

    def loss():
        d = linear(x, w, b) - Tensor(target)
        return (d * d).sum()

    report = grad_check(loss, params, tolerance=1e-8)
    assert report.passed, str(report)


@pytest.mark.parametrize("lead", [(7,), (3, 5)], ids=["rank2", "rank3"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
def test_linear_matches_composed_form(lead, bias):
    """f64 to 1e-12, f32 to 1e-5 (2-D GEMMs may round differently)."""
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        rng = Rng(32)
        x = rng.normal(lead + (16,), dtype=dtype)
        w = rng.normal((16, 8), scale=0.25, dtype=dtype)
        b = rng.normal((8,), dtype=dtype)
        if bias:
            _assert_same_forward_and_grads(linear, _linear_composed, [x, w, b], tol, tol)
        else:
            _assert_same_forward_and_grads(lambda x, w: linear(x, w), lambda x, w: _linear_composed(x, w, None),
                                           [x, w], tol, tol)


def test_linear_rejects_mismatched_weight():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_layer_norm_affine_grad_check_f64():
    rng = Rng(33)
    x = f64(rng, (2, 3, 8), 2.0)
    gamma = f64(rng, (8,))
    beta = f64(rng, (8,))
    w = Tensor(rng.normal((2, 3, 8), dtype=np.float64))
    report = grad_check(lambda: (layer_norm(x, gamma, beta) * w).sum(),
                        {"x": x, "gamma": gamma, "beta": beta}, tolerance=1e-8)
    assert report.passed, str(report)


def test_layer_norm_affine_matches_composed_form():
    for dtype in (np.float64, np.float32):
        rng = Rng(34)
        inputs = [rng.normal((2, 5, 12), scale=3.0, dtype=dtype),
                  rng.normal((12,), dtype=dtype), rng.normal((12,), dtype=dtype)]
        _assert_same_forward_and_grads(layer_norm, _layer_norm_composed, inputs)


def _layer_norm_with_mean(x, gamma, beta, g, eps=1e-5):
    """layer_norm's forward and x-gradient as they were written with `.mean`."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = xc * inv
    y = xhat * gamma + beta
    g = g * gamma
    gm = g.mean(axis=-1, keepdims=True)
    gy = (g * xhat).mean(axis=-1, keepdims=True)
    return y, inv * (g - gm - xhat * gy)


@pytest.mark.parametrize("dim", [3, 5, 7, 64, 96, 100, 128, 192, 200, 384, 512])
def test_layer_norm_reductions_match_mean(dim):
    for dtype in (np.float32, np.float64):
        rng = Rng(dim)
        x = rng.normal((4, dim), scale=3.0, dtype=dtype) + dtype(0.5)
        gamma, beta = rng.normal((dim,), dtype=dtype), rng.normal((dim,), dtype=dtype)
        g = rng.normal((4, dim), dtype=dtype)
        xt = Tensor(x, requires_grad=True)
        y = layer_norm(xt, Tensor(gamma), Tensor(beta))
        (y * Tensor(g)).sum().backward()
        want_y, want_dx = _layer_norm_with_mean(x, gamma, beta, g)
        np.testing.assert_array_equal(y.data, want_y)
        np.testing.assert_array_equal(xt.grad, want_dx)


def test_softmax_scale_and_mask_grad_check_f64():
    rng = Rng(35)
    x = f64(rng, (2, 2, 5, 5), 2.0)
    mask = _attention_mask(np.array([5, 3]), 5, np.float64)
    w = Tensor(rng.normal((2, 2, 5, 5), dtype=np.float64))
    report = grad_check(lambda: (tensor_softmax(x, scale=0.35, mask=mask) * w).sum(), {"x": x},
                        tolerance=1e-8)
    assert report.passed, str(report)
    out = softmax(x.data, scale=0.35, mask=mask)
    assert np.all(out[1, :, :, 3:] == 0.0)  # padded columns get no weight
    assert np.all(np.triu(out[0, 0], k=1) == 0.0)  # nor do future ones


def test_softmax_scale_and_mask_matches_composed_form():
    for dtype in (np.float64, np.float32):
        rng = Rng(36)
        x = rng.normal((2, 3, 6, 6), scale=4.0, dtype=dtype)
        mask = _attention_mask(np.array([6, 4]), 6, np.float32)
        scale = 1.0 / np.sqrt(8)
        fused = softmax(x, scale=scale, mask=mask)
        assert fused.dtype == dtype  # the f64 scale must not promote f32 scores
        _assert_same_forward_and_grads(lambda t: tensor_softmax(t, scale=scale, mask=mask),
                                       lambda t: _softmax_composed(t, scale, mask), [x])


def test_softmax_rejects_mask_that_grows_the_scores():
    with pytest.raises(ShapeError, match="mask"):
        softmax(np.zeros((3, 3)), mask=np.full((2, 3, 3), NEG_MASK))


def _padded_lengths(lead, t):
    """The sequences of a causal-padding case: one of length t - 2 for
    rank 2, lengths t and t - 2 for a rank-3 batch of two."""
    return np.array([t, t - 2][:lead[0]] if lead else [t - 2])


def _real_rows(x, lengths):
    """The packed stack of a zero-padded (T, D) row or (B, T, D) batch's real rows."""
    return x[:lengths[0]] if len(x.shape) == 2 else concat([x[i, :n] for i, n in enumerate(lengths)], axis=0)


@pytest.mark.parametrize("mask_kind", ["none", "causal", "causal_padding"])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "rank3"])
def test_attention_grad_check_f64(lead, mask_kind):
    """Bidirectional and causal over one sequence or a rank-3 batch, and
    causal over the packed rows of `_padded_lengths`."""
    rng = Rng(37)
    lengths = _padded_lengths(lead, 5) if mask_kind == "causal_padding" else None
    shape = (int(lengths.sum()),) if lengths is not None else lead + (5,)
    qkv = f64(rng, shape + (24,))
    w = Tensor(rng.normal(shape + (8,), dtype=np.float64))
    report = grad_check(lambda: (attention(qkv, 2, mask_kind != "none", lengths) * w).sum(), {"qkv": qkv},
                        tolerance=1e-8)
    assert report.passed, str(report)


@pytest.mark.parametrize("mask_kind", ["none", "causal_padding"])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "rank3"])
def test_attention_matches_composed_chain(lead, mask_kind):
    """Unmasked, the forward is bit-equal to the chain in f32 and f64, and
    the gradients agree to 1e-12 in f64. Causal over packed rows, it
    matches the chain over the zero-padded rows under a causal plus
    padding mask, at the real rows: to 1e-12 in f64, f32 rounding in f32."""
    for dtype in (np.float64, np.float32):
        rng = Rng(39)
        x = rng.normal(lead + (6, 48), scale=2.0, dtype=dtype)
        a, b = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        if mask_kind == "none":
            ya, yb = attention(a, 4), _attention_composed(b, 4, None)
        else:
            lengths = _padded_lengths(lead, 6)
            mask = _attention_mask(lengths, 6, np.float32)
            ya = attention(_real_rows(a, lengths), 4, True, lengths)
            yb = _real_rows(_attention_composed(b, 4, mask if lead else mask[0, 0]), lengths)
        assert ya.dtype == yb.dtype == dtype
        if mask_kind == "none":
            np.testing.assert_array_equal(ya.data, yb.data)
        else:
            np.testing.assert_allclose(ya.data, yb.data, rtol=0, atol=1e-12 if dtype == np.float64 else 1e-5)
        if dtype == np.float64:
            cot = Tensor(rng.normal(ya.shape, dtype=dtype))
            (ya * cot).sum().backward()
            (yb * cot).sum().backward()
            np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_array_kernels_are_the_tensor_ops_forward(dtype):
    """Each op given an array where the Tensor op takes its data input
    returns the Tensor op's output bit for bit, and so does attention's
    kernel, which takes the keys and values apart from the queries."""
    rng = Rng(40)
    x = rng.normal((5, 24), scale=2.0, dtype=dtype)
    w, b = rng.normal((24, 6), dtype=dtype), rng.normal((6,), dtype=dtype)
    tables = [rng.normal((7, 4), dtype=dtype), rng.normal((3, 4), dtype=dtype)]
    ids = np.array([[0, -1], [6, 2], [-1, -1], [3, 0]])
    cases = [  # (Tensor op, [op on arrays, attention's kernel])
        (linear(Tensor(x), Tensor(w), Tensor(b)), [linear(x, Tensor(w), Tensor(b))]),
        (linear(Tensor(x[None]), Tensor(w)), [linear(x[None], Tensor(w))]),
        (layer_norm(Tensor(x), Tensor(x[0]), Tensor(x[1])), [layer_norm(x, Tensor(x[0]), Tensor(x[1]))]),
        (layer_norm(Tensor(x[:1])), [layer_norm(x[:1])]),
        (attention(Tensor(x), 2, causal=True),
         [attention(x, 2, causal=True), attention_fwd(x[:, :8], x[:, 8:16], x[:, 16:], 2, True)[0]]),
        (attention(Tensor(x), 2, True, np.array([2, 3])), [attention(x, 2, True, np.array([2, 3]))]),
        (gelu(Tensor(x)), [gelu(x)]),
        (embedding([Tensor(t) for t in tables], ids), [embedding(tables, ids)]),
        (conv_windows(Tensor(x), 3), [conv_windows(x, 3)]),
        (conv_windows(Tensor(x), 3, np.array([2, 3])), [conv_windows(x, 3, np.array([2, 3]))]),
        (mean_rows(Tensor(x), np.array([2, 3])), [mean_rows(x, np.array([2, 3]))]),
        (concat([Tensor(x), Tensor(x[:2])], axis=0), [concat([x, x[:2]], axis=0)]),
    ]
    for op, outs in cases:
        for out in outs:
            assert type(out) is np.ndarray and out.dtype == op.dtype == dtype
            assert out.tobytes() == op.data.tobytes()


def test_attention_rejects_unpacked_input():
    with pytest.raises(ShapeError, match="3 x 2 heads"):
        attention(Tensor(np.zeros((3, 8))), 2)
    with pytest.raises(ShapeError, match="does not hold rows of lengths"):
        attention(Tensor(np.zeros((5, 24))), 2, lengths=np.array([2, 4]))


def test_attention_checks_one_sequence_against_its_length():
    """Given `lengths` of one sequence, the rows must number that length."""
    with pytest.raises(ShapeError, match=r"\(5, 12\) does not hold rows of lengths \[3\]"):
        attention(np.zeros((5, 12)), 2, lengths=np.array([3]))
    assert attention(np.zeros((3, 12)), 2, lengths=np.array([3])).shape == (3, 4)


@pytest.mark.parametrize("lengths, reads", [
    (None, [0]), (None, [6]), (None, [2, 2]), ([5], [6]), ([2, 3], [2, 4]), ([2, 3], [0, 1]), ([2, 3], [2])],
    ids=["zero", "past_the_rows", "two_counts_for_one", "past_its_length", "past_one_length", "zero_of_two",
         "one_count_for_two"])
def test_attention_refuses_reads_outside_each_length(lengths, reads):
    """Each sequence's read count is in 1..its length, one per sequence."""
    rows = 5 if lengths is None else sum(lengths)
    for x in (np.zeros((rows, 12)), Tensor(np.zeros((rows, 12)))):
        with pytest.raises(ShapeError, match=r"not each in 1\.\.length of lengths"):
            attention(x, 2, True, None if lengths is None else np.array(lengths), np.array(reads))


def test_last_rows_matches_slice_concat():
    """Each (end, count) pair's rows, in order, as one index."""
    ends, counts = np.array([5, 6, 14, 14]), np.array([3, 0, 8, 1])
    want = np.concatenate([np.arange(e - n, e) for e, n in zip(ends, counts)])
    got = last_rows(ends, counts)
    assert got.dtype.kind == "i" and np.array_equal(got, want)


@pytest.mark.parametrize("most", [None, 1, 3, 9])
@pytest.mark.parametrize("causal", [False, True], ids=["bidirectional", "causal"])
def test_packed_attention_matches_each_sequence_alone(causal, most):
    """Packed sequences of lengths 1, 6 and 4 give each sequence's own
    attention over its last reads[b] = min(most, length) rows (all rows
    if None; [1, 3, 3] reads differ per sequence): forward and gradient
    to 1e-12 in f64, and an f64 grad-check. Causal, the length-1 sequence
    leaves padded query rows whose keys are all masked; in f32 they keep
    the output and the gradient finite."""
    lengths = np.array([1, 6, 4])
    starts = np.cumsum(lengths) - lengths
    reads = None if most is None else np.minimum(lengths, most)
    for dtype in (np.float64, np.float32):
        rng = Rng(41)
        x = rng.normal((int(lengths.sum()), 24), scale=2.0, dtype=dtype)
        cot = rng.normal((int((lengths if reads is None else reads).sum()), 8), dtype=dtype)
        a, b = Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True)
        y = attention(a, 2, causal, lengths, reads)
        want = concat([attention(b[s:s + n], 2, causal)[n - r:]
                       for s, n, r in zip(starts, lengths, lengths if reads is None else reads)], axis=0)
        (y * Tensor(cot)).sum().backward()
        (want * Tensor(cot)).sum().backward()
        assert y.dtype == dtype and y.shape == want.shape
        if dtype == np.float32:
            assert np.isfinite(y.data).all() and np.isfinite(a.grad).all()
            continue
        np.testing.assert_allclose(y.data, want.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.grad, b.grad, rtol=0, atol=1e-12)
        qkv = Tensor(x, requires_grad=True)
        report = grad_check(lambda: (attention(qkv, 2, causal, lengths, reads) * Tensor(cot)).sum(),
                            {"qkv": qkv}, tolerance=1e-8)
        assert report.passed, str(report)


def _embedding_case(rng):
    """Four f64 tables and a (2, 5, 4) id grid whose columns cover an
    all-valid column with repeats, mixed -1s, and an all -1 column."""
    tables = [f64(rng, (n, 3), 0.5) for n in (4, 3, 5, 2)]
    ids = np.array([
        [[0, -1, -1, 1], [2, 1, -1, -1], [2, -1, -1, 1], [3, 2, -1, 0], [0, 1, -1, -1]],
        [[1, -1, -1, -1], [1, 0, -1, 1], [2, 0, -1, 1], [0, -1, -1, 0], [3, 2, -1, 1]],
    ])
    return tables, ids


def test_embedding_sums_tables_in_column_order():
    rng = Rng(42)
    tables, ids = _embedding_case(rng)
    got = embedding(tables, ids).data
    assert got.shape == (2, 5, 3)
    for i, j in np.ndindex(2, 5):
        want = np.zeros(3)
        for k, t in enumerate(tables):
            if ids[i, j, k] >= 0:
                want = want + t.data[ids[i, j, k]]
        assert np.array_equal(got[i, j], want)
    assert np.all(embedding(tables, np.full((2, 4), -1)).data == 0.0)


def test_embedding_grad_check_f64():
    rng = Rng(43)
    tables, ids = _embedding_case(rng)
    w = rng.normal((2, 5, 3), dtype=np.float64)

    def loss():
        e = embedding(tables, ids)
        return (e * Tensor(w)).sum() + (e * e).sum() * 0.5

    report = grad_check(loss, {f"t{k}": t for k, t in enumerate(tables)}, tolerance=1e-6)
    assert report.passed, str(report)
    # The all -1 column reads no row, so its table gets an exact zero gradient.
    assert np.all(gradients(loss(), tables)[2] == 0.0)


def _embedding_by_picks(tables: list[np.ndarray], ids: np.ndarray, cot: np.ndarray):
    """(output, table gradients under the cotangent `cot`) by the rule
    `embedding` had before it gathered every id: each table adds into all
    rows, the rows of a boolean mask, or none, and its gradient scatters
    those rows of `cot` with a row-wise `np.add.at`."""
    flat = ids.reshape(-1, len(tables))
    valid = flat >= 0
    picks = [slice(None) if c == flat.shape[0] else valid[:, k] if c else None
             for k, c in enumerate(valid.sum(axis=0).tolist())]
    dim = tables[0].shape[1]
    out, g2, grads = np.zeros((flat.shape[0], dim), dtype=tables[0].dtype), cot.reshape(-1, dim), []
    for k, (t, rows) in enumerate(zip(tables, picks)):
        grads.append(np.zeros_like(t))
        if rows is not None:
            out[rows] += t.take(flat[rows, k], axis=0)
            np.add.at(grads[-1], flat[rows, k], g2[rows])
    return out.reshape(ids.shape[:-1] + (dim,)), grads


def _packed_grids(monkeypatch, dtype) -> list[tuple[list[np.ndarray], np.ndarray]]:
    """(tables, ids) of the packed AR and NAR embedding calls of a
    teacher-forced batch of rows of different lengths."""
    from paravox import ar, nar

    seen = []

    def spy(tables, ids):
        seen.append(([t.data.copy() for t in tables], np.array(ids)))
        return embedding(tables, ids)

    monkeypatch.setattr(ar, "embedding", spy)
    monkeypatch.setattr(nar, "embedding", spy)
    rng = Rng(45)
    cfg = ar.ARConfig(text_vocab=9, streams=(("semantic", 6), ("acoustic", 7)), layers_per_stream=2,
                      n_layers=1, model_dim=8, n_heads=2, max_text_len=8, max_speech_len=16)
    model = ar.DualStreamAR(cfg, Rng(1), dtype=dtype)
    model.teacher_forced_batch([
        (rng.integers(0, 9, (n_text,)),
         np.stack([rng.integers(0, k, (n_ref, 2)) for _, k in cfg.streams], axis=1),
         np.stack([rng.integers(0, k, (n_tgt, 2)) for _, k in cfg.streams], axis=1))
        for n_text, n_ref, n_tgt in ((3, 2, 4), (5, 0, 2), (1, 0, 1))])
    ncfg = nar.NARConfig(streams=(("semantic", 6), ("acoustic", 7)), n_quant_layers=3, n_layers=1,
                         model_dim=8, n_heads=2, max_ref_len=8, max_target_len=8)
    stage = nar.CoupledStage(ncfg, 2, Rng(2), dtype=dtype)
    stage.batch_logits([(np.stack([rng.integers(0, k, (r, 3)) for _, k in ncfg.streams], axis=1),
                         np.stack([rng.integers(0, k, (t, 3)) for _, k in ncfg.streams], axis=1))
                        for r, t in ((3, 4), (1, 6), (5, 2))])
    assert len(seen) == 2 and all((ids < 0).any() for _, ids in seen)
    return seen


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embedding_is_bitwise_the_three_way_picks(monkeypatch, dtype):
    """Gathering every id (-1 read as 0) and adding it under the valid
    mask gives the output and table gradients of the earlier rule, which
    added a table into all rows, a boolean mask of them, or none: over
    all-valid, mixed and empty columns, and the packed AR and NAR grids."""
    rng = Rng(46)
    tables = [rng.normal((n, 4), dtype=dtype) for n in (7, 3, 5)]
    ids = np.stack([rng.integers(0, n, (2, 6)) for n in (7, 3, 5)], axis=-1)
    mixed, empty = ids.copy(), ids.copy()
    mixed[0, :3, 0] = mixed[1, 4:, 1] = mixed[:, 2, 2] = -1
    empty[..., 1] = -1
    empty[1, 5] = -1
    cases = [(tables, ids), (tables, mixed), (tables, empty), (tables, mixed.reshape(-1, 3)),
             *_packed_grids(monkeypatch, dtype)]
    for arrays, case in cases:
        leaves = [Tensor(t.copy(), requires_grad=True) for t in arrays]
        out = embedding(leaves, case)
        cot = rng.normal(out.shape, dtype=dtype)
        want, want_grads = _embedding_by_picks(arrays, case, cot)
        assert out.data.dtype == dtype and np.array_equal(out.data, want)
        assert np.array_equal(embedding(arrays, case), want)
        for got, g in zip(gradients((out * Tensor(cot)).sum(), leaves), want_grads, strict=True):
            assert got.dtype == dtype and np.array_equal(got, g)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_rows_is_bitwise_np_add_at(dtype):
    """The flat scatter adds each element's rows in the order of the ids,
    as the row-wise `np.add.at` does: repeated ids, rows holding -0.0, a
    table that already holds values, no ids at all, and rows that are a
    strided view all give the same bits."""
    rng = np.random.default_rng(5)
    n, d = 7, 5
    start = rng.standard_normal((n, d)).astype(dtype)
    start[2] = -0.0
    cases = []
    for m in (0, 1, 12, 60):
        ids = rng.integers(0, n, m)
        rows = rng.standard_normal((m, d)).astype(dtype) * 10.0 ** rng.integers(-6, 6, (m, 1))
        rows[::3, 1] = -0.0
        cases.append((ids, rows))
    wide = rng.standard_normal((20, 2 * d)).astype(dtype)
    cases.append((np.repeat([4, 1], 10), wide[:, ::2]))  # not contiguous
    cases.append((np.array([3, 3, 3]), np.full((3, d), -0.0, dtype=dtype)))
    for ids, rows in cases:
        for table in (np.zeros((n, d), dtype=dtype), start.copy()):
            want = table.copy()
            np.add.at(want, ids, rows)
            add_rows(table, ids, rows)
            assert table.dtype == want.dtype and table.tobytes() == want.tobytes(), (ids, rows.flags.c_contiguous)
    with pytest.raises(ValueError, match="C-contiguous"):
        add_rows(np.zeros((d, n), dtype=dtype).T, [0], np.ones((1, d), dtype=dtype))


@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "rank3"])
def test_conv_windows_grad_check_f64(lead, kernel):
    rng = Rng(44)
    x = f64(rng, lead + (4, 3))
    w = rng.normal(lead + (4, 3 * kernel), dtype=np.float64)
    report = grad_check(lambda: (conv_windows(x, kernel) * w).sum(), {"x": x}, tolerance=1e-6)
    assert report.passed, str(report)


def test_conv_windows_zero_pads_each_tap():
    x = np.arange(1.0, 7.0).reshape(3, 2)
    out = conv_windows(Tensor(x), 3).data
    padded = np.vstack([np.zeros((1, 2)), x, np.zeros((1, 2))])
    np.testing.assert_array_equal(out, np.hstack([padded[0:3], padded[1:4], padded[2:5]]))


_PACKED_LENGTHS = np.array([1, 4, 2, 5])


@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["rank2", "rank3"])
def test_conv_windows_with_lengths_is_each_sequence_alone(lead, kernel):
    """Packed sequences, some shorter than the kernel, each get the windows
    and the input gradient they get alone, bit for bit."""
    rng = Rng(45)
    x = rng.normal(lead + (int(_PACKED_LENGTHS.sum()), 3), dtype=np.float64)
    cot = rng.normal(lead + (x.shape[-2], 3 * kernel), dtype=np.float64)
    a = Tensor(x.copy(), requires_grad=True)
    y = conv_windows(a, kernel, _PACKED_LENGTHS)
    (y * Tensor(cot)).sum().backward()
    for lo, n in zip(np.cumsum(_PACKED_LENGTHS) - _PACKED_LENGTHS, _PACKED_LENGTHS):
        b = Tensor(x[..., lo:lo + n, :].copy(), requires_grad=True)
        want = conv_windows(b, kernel)
        (want * Tensor(cot[..., lo:lo + n, :])).sum().backward()
        np.testing.assert_array_equal(y.data[..., lo:lo + n, :], want.data)
        np.testing.assert_array_equal(a.grad[..., lo:lo + n, :], b.grad)
    with pytest.raises(ShapeError, match="does not hold rows of lengths"):
        conv_windows(x, kernel, _PACKED_LENGTHS[1:])


def test_conv_windows_with_lengths_grad_check_f64():
    rng = Rng(46)
    x = f64(rng, (int(_PACKED_LENGTHS.sum()), 3))
    w = rng.normal((x.shape[0], 15), dtype=np.float64)
    report = grad_check(lambda: (conv_windows(x, 5, _PACKED_LENGTHS) * w).sum(), {"x": x}, tolerance=1e-6)
    assert report.passed, str(report)


def test_mean_rows_is_each_sequence_mean():
    """Bit for bit the sum of each sequence's rows times 1 / length; an
    empty or mismatched sequence is refused."""
    rng = Rng(47)
    for dtype in (np.float32, np.float64):
        x = rng.normal((int(_PACKED_LENGTHS.sum()), 3), dtype=dtype)
        got = mean_rows(x, _PACKED_LENGTHS)
        starts = np.cumsum(_PACKED_LENGTHS) - _PACKED_LENGTHS
        want = [x[s:s + n].sum(axis=0) * dtype(1.0 / n) for s, n in zip(starts, _PACKED_LENGTHS)]
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, np.stack(want))
    for bad in (np.array([0, 12]), _PACKED_LENGTHS[1:]):
        with pytest.raises(ShapeError, match="lengths"):
            mean_rows(x, bad)


def test_mean_rows_grad_check_f64():
    rng = Rng(48)
    x = f64(rng, (int(_PACKED_LENGTHS.sum()), 3))
    w = rng.normal((_PACKED_LENGTHS.size, 3), dtype=np.float64)
    report = grad_check(lambda: (mean_rows(x, _PACKED_LENGTHS) * w).sum(), {"x": x}, tolerance=1e-8)
    assert report.passed, str(report)


def test_embedding_rejects_bad_ids():
    tables, ids = _embedding_case(Rng(44))
    # Below -1, and the second table's row count.
    for bad, match in ((-2, "must be >= -1"), (3, "out of bounds for axis 0 with size 3")):
        wrong = ids.copy()
        wrong[1, 2, 1] = bad
        with pytest.raises(IndexError, match=match):
            embedding(tables, wrong)
    with pytest.raises(ShapeError, match="one last-axis column per table"):
        embedding(tables, ids[..., :3])
    with pytest.raises(ShapeError, match="one last-axis column per table"):
        embedding(tables, np.array(0))


def test_fused_primitives_are_one_tape_node():
    rng = Rng(41)
    x = f64(rng, (2, 3, 8))
    w, b = f64(rng, (8, 4)), f64(rng, (4,))
    gamma, beta = f64(rng, (8,)), f64(rng, (8,))
    qkv = f64(rng, (2, 3, 24))
    table = f64(rng, (5, 4))
    packed, rows = f64(rng, (6, 24)), f64(rng, (6, 8))
    cases = [
        (linear(x, w, b), (x, w, b)),
        (linear(x, w), (x, w)),
        (layer_norm(x, gamma, beta), (x, gamma, beta)),
        (attention(qkv, 2, causal=True), (qkv,)),
        (attention(packed, 2, True, np.array([4, 2])), (packed,)),
        (embedding([w, table], np.array([[1, -1], [-1, 2]])), (w, table)),
        (conv_windows(x, 3), (x,)),
        (conv_windows(rows, 3, np.array([4, 2])), (rows,)),
        (mean_rows(rows, np.array([4, 2])), (rows,)),
    ]
    for out, inputs in cases:
        assert out._parents == inputs
        assert all(p._grad_fn is None for p in out._parents)


def test_cross_entropy_uniform_is_ln_k():
    for k in (2, 7, 64):
        logits = Tensor(np.zeros((5, k)))
        loss = cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert abs(float(loss.data) - np.log(k)) < 1e-6


def test_cross_entropy_grad_check():
    rng = Rng(7)
    logits = f64(rng, (6, 5), 2.0)
    targets = np.array([0, 1, 4, 2, 3, 0])
    report = grad_check(lambda: cross_entropy(logits, targets), {"logits": logits}, tolerance=1e-6)
    assert report.passed, str(report)


def test_bce_with_logits_matches_manual():
    rng = Rng(8)
    x = f64(rng, (7,), 3.0)
    y = (rng.generator.uniform(size=7) > 0.5).astype(np.float64)
    report = grad_check(lambda: bce_with_logits(x, y), {"x": x}, tolerance=1e-6)
    assert report.passed, str(report)
    p = 1.0 / (1.0 + np.exp(-x.data))
    manual = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert float(bce_with_logits(x, y).data) == pytest.approx(manual, rel=1e-10)


def test_getitem_and_concat_backward():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    y = concat([x[0:1], x[2:3]], axis=0).sum()
    y.backward()
    expected = np.zeros((3, 4), dtype=np.float32)
    expected[0] = 1
    expected[2] = 1
    assert np.array_equal(x.grad, expected)


@pytest.mark.parametrize("idx", [
    np.array([0, 0, 2]),
    (np.array([1, 3, 1]), slice(None), np.array([0, 1, 0])),
    (np.array([[0], [2]]), np.array([1, 1, 0])),
    (np.array([2, 0]), np.array([1, 1])),
    (Ellipsis, np.array([1, 1])),
    (slice(1, 3), slice(None, None, 2)),
], ids=["repeated", "mixed_slice", "broadcast", "unique", "ellipsis", "slices"])
def test_getitem_grad_check_f64(idx):
    """Every pick of a position adds its gradient, repeats included."""
    rng = Rng(21)
    x = f64(rng, (4, 3, 2))
    w = rng.normal(x.data[idx].shape, dtype=np.float64)
    report = grad_check(lambda: (x[idx] * Tensor(w)).sum(), {"x": x}, tolerance=1e-8)
    assert report.passed, str(report)


def test_getitem_repeated_rows_accumulate():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    x[np.array([0, 0, 2])].sum().backward()
    assert np.array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_reused_node_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    y.sum().backward()
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_rng_same_seed_same_stream():
    a, b = Rng(42), Rng(42)
    assert np.array_equal(a.normal((10,)), b.normal((10,)))
    assert a.spawn("x").normal((4,)).tolist() == b.spawn("x").normal((4,)).tolist()
    assert not np.array_equal(Rng(42).normal((10,)), Rng(43).normal((10,)))


def test_rng_seed_must_be_a_non_negative_int():
    """A seed is an int >= 0 (numpy ints too): 2.5 is not truncated to 2,
    "3" not parsed, True not taken as 1, and -1 fails naming the seed."""
    for bad in (2.5, 2.0, "3", True, -1):
        with pytest.raises(ValueError, match=rf"^Rng seed must be an int >= 0, got {re.escape(repr(bad))}$"):
            Rng(bad)
    assert np.array_equal(Rng(np.int64(3)).normal((4,)), Rng(3).normal((4,)))


def test_rng_spawn_tags_independent():
    root = Rng(7)
    assert not np.array_equal(root.spawn("a").normal((8,)), root.spawn("b").normal((8,)))
    # spawning does not depend on draw position of the parent
    r1 = Rng(7)
    r1.normal((100,))
    assert np.array_equal(r1.spawn("a").normal((8,)), Rng(7).spawn("a").normal((8,)))


def test_blank_rng_draws_nothing():
    """The blank source spawns itself and fills `normal` arrays with NaN in
    the asked dtype (the default dtype when none is given); every other
    draw raises instead of drawing."""
    blank = BlankRng()
    assert blank.spawn("a").spawn(("b", 1)) is blank
    out = blank.normal((3, 4), scale=0.5, dtype=np.float64)
    assert out.shape == (3, 4) and out.dtype == np.float64 and np.isnan(out).all()
    assert blank.normal((2,)).dtype == Rng(0).normal((2,)).dtype
    for draw in (lambda: blank.uniform(), lambda: blank.integers(0, 4, (2,)),
                 lambda: blank.permutation(3), lambda: blank.choice(3, 2), lambda: blank.generator.random()):
        with pytest.raises(TypeError, match="makes no draws"):
            draw()


def test_finite_ops_stay_finite():
    rng = Rng(10)
    for trial in range(10):
        x = Tensor(rng.normal((4, 16), scale=50.0))
        for out in (softmax(x.data), layer_norm(x).data, sigmoid(x.data), gelu(x).data):
            assert np.all(np.isfinite(out))
        loss = cross_entropy(x, rng.generator.integers(0, 16, size=4))
        assert np.isfinite(float(loss.data))


# ---- the one-row layer norm ----------------------------------------------------


def _layer_norm_grads(x, affine, cot):
    """Tensor-path gradients of sum(layer_norm(x, *affine) * cot) for x and
    for gamma (None without one). Gamma takes x's shape, so that its
    gradient is each row's own g * x_hat, with no sum over rows."""
    xt = Tensor(x, requires_grad=True)
    gamma, beta = affine
    gamma = None if gamma is None else Tensor(np.broadcast_to(gamma, x.shape).copy(), requires_grad=True)
    (layer_norm(xt, gamma, None if beta is None else Tensor(beta)) * Tensor(cot)).sum().backward()
    return xt.grad, None if gamma is None else gamma.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_one_row_is_bitwise_the_general_form(dtype):
    """A single row takes scalar statistics; its output, and its gradients
    for x and gamma, equal bit for bit those of the same row in a two-row
    batch, which takes the keepdims reductions. The gradients are built
    from the normalized row and 1/std, so both are covered. Constant rows
    included."""
    rng = Rng(77)
    for width in (1, 2, 3, 7, 8, 9, 31, 64, 127, 128, 129, 300, 512, 1024):
        for case in range(12):
            r = rng.spawn((width, case))
            row = r.normal((width,), scale=10.0 ** r.uniform(-3, 3), dtype=dtype)
            row += dtype(r.normal(scale=10.0 ** r.uniform(-3, 3)))
            if case % 4 == 0:
                row[:] = row[0]  # zero variance
            gamma, beta = r.normal((width,), dtype=dtype), r.normal((width,), dtype=dtype)
            cot = r.normal((width,), dtype=dtype)
            for affine in ((gamma, beta), (gamma, None), (None, None)):
                params = [None if a is None else Tensor(a) for a in affine]
                batch = np.stack([row, row])
                want = layer_norm(batch, *params)
                want_dx, want_dgamma = _layer_norm_grads(batch, affine, np.stack([cot, cot]))
                for shape in ((width,), (1, width), (1, 1, width)):
                    out = layer_norm(row.reshape(shape), *params)
                    assert out.shape == shape and out.dtype == dtype
                    assert out.tobytes() == want[0].tobytes(), (width, case, shape)
                    dx, dgamma = _layer_norm_grads(row.reshape(shape), affine, cot.reshape(shape))
                    assert dx.tobytes() == want_dx[0].tobytes(), (width, case, shape)
                    if affine[0] is not None:
                        assert dgamma.tobytes() == want_dgamma[0].tobytes(), (width, case, shape)


def test_layer_norm_one_row_gradient_matches_the_batch_row():
    rng = Rng(78)
    x1 = Tensor(rng.normal((1, 16), dtype=np.float64), requires_grad=True)
    x2 = Tensor(np.concatenate([x1.data, x1.data]), requires_grad=True)
    g = rng.normal((16,), dtype=np.float64)
    gamma = Tensor(rng.normal((16,), dtype=np.float64), requires_grad=True)
    for x in (x1, x2):
        (layer_norm(x, gamma) * Tensor(g)).sum().backward()
    assert x1.grad.tobytes() == x2.grad[:1].tobytes()


# ---- parameter gradients on a pool --------------------------------------------


def _shared_leaf_loss(p: dict):
    """An f32 loss in which leaves take several contributions each, from
    deferred branches and inline ones in turn: `w` through two linears, a
    product and a slice; `gamma` and `beta` through two layer norms; `tab`
    through two embeddings and a product. `inner`, an op's output, is an
    embedding table and a linear weight, whose gradients stay inline."""
    ids = np.array([[0, 3], [5, -1], [3, 3], [7, 1]])
    inner = p["tab"] * 0.5
    h = embedding([p["tab"], inner], ids)
    h = layer_norm(linear(h, p["w"], p["b"]), p["gamma"], p["beta"])
    h = gelu(h * p["w"][:4].sum(axis=0) + embedding([p["tab"]], ids[:, :1]) * p["tab"][0])
    h = layer_norm(linear(h, p["w"]), p["gamma"], p["beta"]) * p["w"][3]
    return linear(h, swapaxes(inner[:, :8], 0, 1) * 1.0).sum() + (p["w"] * p["w"]).sum() * 1e-3


def _shared_leaf_params():
    rng = Rng(11)
    shapes = {"tab": (8, 8), "w": (8, 8), "b": (8,), "gamma": (8,), "beta": (8,)}
    return {k: Tensor(rng.normal(s, scale=3.0 if k == "w" else 1.0), requires_grad=True)
            for k, s in shapes.items()}


def test_pooled_sweep_is_bitwise_the_inline_sweep(monkeypatch):
    """The same loss gives the same gradient bits with and without a pool,
    each leaf's contributions added in sweep order, and every leaf's
    parameter branches ran as jobs. A plain `backward()` inside the pool
    runs inline."""
    params = _shared_leaf_params()
    want = [g.copy() for g in gradients(_shared_leaf_loss(params), params)]
    deferred, defer = [], engine._Sweep.defer
    monkeypatch.setattr(engine._Sweep, "defer", lambda s, leaf, fn, args: deferred.append(leaf) or
                        defer(s, leaf, fn, args))
    with ThreadPoolExecutor(1) as pool, param_grad_pool(pool):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            for _ in range(20):
                got = gradients(_shared_leaf_loss(params), params)
                for k, a, b in zip(params, want, got):
                    assert a.dtype == b.dtype and np.array_equal(a, b), k
        finally:
            sys.setswitchinterval(interval)
        ids = {id(p): k for k, p in params.items()}
        assert sorted({ids[id(leaf)] for leaf in deferred}) == sorted(params)
        n_deferred = len(deferred)
        loss = _shared_leaf_loss(params)
        engine.zero_grad(params)
        loss.backward()
        assert len(deferred) == n_deferred
        assert all(np.array_equal(p.grad, a) for p, a in zip(params.values(), want))
    assert engine._local.pool is None


def _slots(params):
    return {p: GradSlot(np.full(p.shape, np.nan), np.full(p.shape, np.nan)) for p in params.values()}


def test_pooled_sweep_loads_a_single_contribution_into_its_slot():
    """A leaf whose only contribution is a deferred job gets its slot loaded
    by that job: the slot's `src` is the gradient `gradients()` returns,
    `g` holds it in float64, `sq` its square and `sq_sum` the sum of
    `sq`. A leaf with two contributions is loaded too, by its first job,
    but `src` is not its gradient; a leaf without a slot is loaded
    nowhere, and a sweep outside the pool loads nothing."""
    params = _shared_leaf_params()
    params["once"] = Tensor(Rng(3).normal((8, 8)), requires_grad=True)
    params["free"] = Tensor(Rng(4).normal((8,)), requires_grad=True)

    def loss(p):
        h = layer_norm(linear(embedding([p["tab"]], np.array([[1], [4], [1]])), p["once"], p["free"]))
        return (linear(h, p["w"]) * linear(h, p["w"])).sum()

    want = [g.copy() for g in gradients(loss(params), params)]
    slots = _slots(params)
    del slots[params["free"]]
    with ThreadPoolExecutor(1) as pool, param_grad_pool(pool, slots):
        got = gradients(loss(params), params)
    assert engine._local.slots == {}
    for k, a, b in zip(params, want, got):
        assert a.dtype == b.dtype and np.array_equal(a, b), k
    for k in ("tab", "once"):
        slot = slots[params[k]]
        assert slot.src is got[list(params).index(k)], k
        assert slot.g.dtype == np.float64 and np.array_equal(slot.g, slot.src), k
        assert np.array_equal(slot.sq, slot.g * slot.g) and slot.sq_sum == float(slot.sq.sum()), k
    w = slots[params["w"]]
    assert w.src is not None and w.src is not got[list(params).index("w")]
    assert all(np.isnan(slots[params[k]].g).all() for k in ("b", "gamma", "beta"))  # never reached
    fresh = _slots(params)
    gradients(loss(params), params)
    with param_grad_pool(None, fresh):
        gradients(loss(params), params)
    assert all(s.src is None and np.isnan(s.g).all() for s in fresh.values())


@pytest.mark.parametrize("where", ["sweep", "job", "load"])
def test_pooled_sweep_error_leaves_nothing_behind(monkeypatch, where):
    """An error partway through a pooled sweep, in an op's backward, in a
    deferred job or in a job's load into a slot, is raised from
    `gradients()` with no job left queued, no worker still draining, no
    pending gradient and no sweep set; the next call on the same pool
    gives the inline bits."""
    params = _shared_leaf_params()
    want = [g.copy() for g in gradients(_shared_leaf_loss(params), params)]
    sweeps, sweep_cls, scatter_rows, load = [], engine._Sweep, engine._scatter_rows, GradSlot.load

    class Spy(sweep_cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.n_deferred = 0
            sweeps.append(self)

        def defer(self, *args):
            self.n_deferred += 1
            super().defer(*args)

    monkeypatch.setattr(engine, "_Sweep", Spy)
    with ThreadPoolExecutor(1) as pool, param_grad_pool(pool, _slots(params)):
        loss = _shared_leaf_loss(params)
        if where == "sweep":
            nodes, stack = {}, [loss]
            while stack:
                t = stack.pop()
                if id(t) not in nodes:
                    nodes[id(t)] = t
                    stack.extend(t._parents)
            # The first layer norm, the one over the biased linear: late in the sweep.
            node, = [t for t in nodes.values() if t._grad_fn is not None and
                     "layer_norm" in t._grad_fn.__qualname__ and len(t._parents[0]._parents) == 3]

            def boom(g):
                raise RuntimeError("boom")

            node._grad_fn = boom
        else:
            def boom(*args):
                raise RuntimeError("boom")

            if where == "job":
                monkeypatch.setattr(engine, "_scatter_rows", boom)
            else:
                monkeypatch.setattr(GradSlot, "load", boom)
        with pytest.raises(RuntimeError, match="boom"):
            gradients(loss, params)
        sweep = sweeps[-1]
        assert sweep.n_deferred > 0
        assert sweep.leaves == [] and sweep.drain is None and sweep.jobs.empty()
        assert engine._local.sweep is None and all(p.grad is None for p in params.values())
        assert pool.submit(int, 7).result(timeout=30) == 7
        monkeypatch.setattr(engine, "_scatter_rows", scatter_rows)
        monkeypatch.setattr(GradSlot, "load", load)
        got = gradients(_shared_leaf_loss(params), params)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
    assert engine._local.pool is None
