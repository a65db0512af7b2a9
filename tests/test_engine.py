"""Tensor engine: forward ops, backward, grad_check, rng, determinism."""

import numpy as np
import pytest

from paravox.engine import (
    GradCheckReport,
    Rng,
    ShapeError,
    Tensor,
    bce_with_logits,
    concat,
    cross_entropy,
    embedding,
    gelu,
    grad_check,
    gradients,
    layer_norm,
    no_grad,
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
    out = Tensor(np.eye(3)) @ Tensor(a)
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
        h = (x @ w1 + b1).tanh()
        d = h @ w2 + b2 - t
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
        a @ b


def test_broadcast_add_and_unbroadcast_grad():
    x = Tensor(np.ones((4, 3)), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    ((x + b) * 2.0).sum().backward()
    assert np.array_equal(b.grad, np.full(3, 8.0, dtype=np.float32))


def test_softmax_rows_sum_to_one():
    rng = Rng(4)
    for trial in range(20):
        x = Tensor(rng.normal((5, 9), scale=5.0))
        s = softmax(x).data
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
        e = embedding(table, ids)
        merged = concat([x, e], axis=0)
        s = softmax(merged * 1.5)
        return (s * s).sum() + merged.sigmoid().mean() + gelu(merged).sum() * 0.1

    report = grad_check(loss, {"a": a, "g": g, "table": table}, tolerance=1e-6)
    assert report.passed, str(report)


def _gelu_composed(x: Tensor) -> Tensor:
    """The GELU as it was built from eight primitive tape nodes."""
    c = np.sqrt(2.0 / np.pi)
    return x * 0.5 * ((c * (x + 0.044715 * x ** 3)).tanh() + 1.0)


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


def test_cross_entropy_uniform_is_ln_k():
    for k in (2, 7, 64):
        logits = Tensor(np.zeros((5, k)))
        loss = cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert abs(loss.item() - np.log(k)) < 1e-6


def test_cross_entropy_grad_and_mask():
    rng = Rng(7)
    logits = f64(rng, (6, 5), 2.0)
    targets = np.array([0, 1, 4, 2, 3, 0])
    mask = np.array([1, 1, 0, 1, 0, 1], dtype=np.float64)
    report = grad_check(lambda: cross_entropy(logits, targets, mask), {"logits": logits}, tolerance=1e-6)
    assert report.passed, str(report)
    # masked positions must not influence the loss
    before = cross_entropy(logits, targets, mask).item()
    logits.data[2] += 100.0
    after = cross_entropy(logits, targets, mask).item()
    assert before == pytest.approx(after, abs=1e-12)


def test_bce_with_logits_matches_manual():
    rng = Rng(8)
    x = f64(rng, (7,), 3.0)
    y = (rng.generator.uniform(size=7) > 0.5).astype(np.float64)
    report = grad_check(lambda: bce_with_logits(x, y), {"x": x}, tolerance=1e-6)
    assert report.passed, str(report)
    p = 1.0 / (1.0 + np.exp(-x.data))
    manual = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert bce_with_logits(x, y).item() == pytest.approx(manual, rel=1e-10)


def test_getitem_and_concat_backward():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    y = concat([x[0:1], x[2:3]], axis=0).sum()
    y.backward()
    expected = np.zeros((3, 4), dtype=np.float32)
    expected[0] = 1
    expected[2] = 1
    assert np.array_equal(x.grad, expected)


def test_reused_node_accumulates():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0
    y.sum().backward()
    assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_no_grad_suppresses_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * x).sum()
    assert y._grad_fn is None and not y.requires_grad


def test_rng_same_seed_same_stream():
    a, b = Rng(42), Rng(42)
    assert np.array_equal(a.normal((10,)), b.normal((10,)))
    assert a.spawn("x").normal((4,)).tolist() == b.spawn("x").normal((4,)).tolist()
    assert not np.array_equal(Rng(42).normal((10,)), Rng(43).normal((10,)))


def test_rng_spawn_tags_independent():
    root = Rng(7)
    assert not np.array_equal(root.spawn("a").normal((8,)), root.spawn("b").normal((8,)))
    # spawning does not depend on draw position of the parent
    r1 = Rng(7)
    r1.normal((100,))
    assert np.array_equal(r1.spawn("a").normal((8,)), Rng(7).spawn("a").normal((8,)))


def test_rng_state_roundtrip():
    r = Rng(9)
    r.normal((5,))
    state = r.get_state()
    a = r.normal((5,))
    r.set_state(state)
    b = r.normal((5,))
    assert np.array_equal(a, b)


def test_finite_ops_stay_finite():
    rng = Rng(10)
    for trial in range(10):
        x = Tensor(rng.normal((4, 16), scale=50.0))
        for out in (softmax(x), layer_norm(x), x.tanh(), x.sigmoid(), gelu(x)):
            assert np.all(np.isfinite(out.data))
        loss = cross_entropy(x, rng.generator.integers(0, 16, size=4))
        assert np.isfinite(loss.item())
