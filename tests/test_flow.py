"""Flow matching: loss identities, Euler solver, gradient check."""

import numpy as np
import pytest

from gradcheck import grad_check
from paravox.engine import Rng, Tensor
from paravox.flow import FlowConfig, SolverConfig, VelocityField, cfm_train_loss, sample_mel, time_features
from paravox.nn import Linear


def tiny_cfg(**kw):
    base = dict(mel_bins=6, feature_dim=8, speaker_dim=4, hidden_dim=16, n_hidden=2, time_feat_dim=4)
    base.update(kw)
    return FlowConfig(**base)


def test_loss_zero_for_perfect_field():
    # Build a field whose output is forced to (mel - x0) by pinning t and x0,
    # then checking against the closed form: loss = mean((v - (mel - x0))^2).
    rng = Rng(0)
    cfg = tiny_cfg()
    field = VelocityField(cfg, rng)
    mel = rng.normal((5, 6))
    feats = rng.normal((5, 8))
    spk = rng.normal((4,))
    t, x0 = 0.37, rng.normal((5, 6))
    loss = cfm_train_loss(field, [mel], [feats], spk.reshape(1, -1), [rng], t=[t], x0=[x0])
    x_t = (1 - t) * x0 + t * mel
    cond = field.condition(Tensor(feats), Tensor(np.tile(spk, (5, 1))))
    v = field(Tensor(x_t), cond, np.array([t]), time_features(np.array([t]), cfg.time_feat_dim)).data
    manual = ((v - (mel - x0)) ** 2).mean()
    assert float(loss.data) == pytest.approx(manual, rel=1e-6)


def test_one_step_sampler_is_x0_plus_v():
    rng = Rng(1)
    cfg = tiny_cfg()
    field = VelocityField(cfg, rng)
    feats = rng.normal((4, 8))
    spk = rng.normal((4,))
    out = sample_mel(field, feats, spk, SolverConfig(n_steps=1, seed=7))
    x0 = Rng(7).normal((4, 6), dtype=np.float32)
    cond = field.condition(Tensor(feats.astype(np.float32)), Tensor(np.tile(spk.astype(np.float32), (4, 1))))
    v = field(Tensor(x0), cond, np.array([0.0]), time_features(np.array([0.0]), cfg.time_feat_dim)).data
    assert np.allclose(out, x0 + v, atol=1e-6)


def test_sampler_deterministic_given_seed():
    rng = Rng(2)
    field = VelocityField(tiny_cfg(), rng)
    feats = rng.normal((4, 8))
    spk = rng.normal((4,))
    a = sample_mel(field, feats, spk, SolverConfig(n_steps=8, seed=3))
    b = sample_mel(field, feats, spk, SolverConfig(n_steps=8, seed=3))
    c = sample_mel(field, feats, spk, SolverConfig(n_steps=8, seed=4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_vector_field_grad_check():
    """Every weight, and the features and speaker through `condition`."""
    rng = Rng(3)
    field = VelocityField(tiny_cfg(), rng, dtype=np.float64)
    mel = rng.normal((3, 6), dtype=np.float64)
    feats = Tensor(rng.normal((3, 8), dtype=np.float64), requires_grad=True)
    spk = Tensor(rng.normal((1, 4), dtype=np.float64), requires_grad=True)
    x0 = rng.normal((3, 6), dtype=np.float64)

    def loss():
        return cfm_train_loss(field, [mel], feats, spk, [rng], t=[0.42], x0=[x0])

    params = {**field.named_parameters(), "features": feats, "speaker": spk}
    report = grad_check(loss, params, tolerance=1e-6)
    assert report.passed, str(report)


def _one_gemm_sample_mel(field, features, speaker, solver):
    """`sample_mel` with the field's first layer as one GEMM over the
    concatenated [x_t, features, speaker, time] columns on every step."""
    rng = Rng(solver.seed)
    t_frames = features.shape[0]
    x = rng.normal((t_frames, field.cfg.mel_bins), dtype=np.float32)
    feats = features.astype(np.float32)
    spk = np.repeat(np.asarray(speaker, dtype=np.float32).reshape(1, -1), t_frames, axis=0)
    first = np.concatenate([field.x_in.weight.data, field.cond_in.weight.data, field.t_in.weight.data])
    layers = [(first, field.cond_in.bias.data)] + [(layer.weight.data, layer.bias.data) for layer in field.layers]
    dt = 1.0 / solver.n_steps
    for i in range(solver.n_steps):
        t = np.array([i * dt])
        tf = np.broadcast_to(time_features(t, field.cfg.time_feat_dim, x.dtype), (t_frames, field.cfg.time_feat_dim))
        h = np.concatenate([x, feats, spk, tf], axis=1)
        for w, bias in layers[:-1]:
            z = h @ w + bias
            h = 0.5 * z * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (z + 0.044715 * z ** 3)))
        endpoint = h @ layers[-1][0] + layers[-1][1]
        x = x + dt * (endpoint - x) / max(1.0 - t[0], VelocityField.TIME_EPS)
    return x


def test_first_layer_blocks_are_the_one_draw():
    """`x_in`, `cond_in` and `t_in` are the rows of one (d_in, hidden)
    draw, bit for bit, in [x_t, features, speaker, time] order; only
    `cond_in` has a bias."""
    cfg = tiny_cfg()
    field = VelocityField(cfg, Rng(4))
    d_in = cfg.mel_bins + cfg.feature_dim + cfg.speaker_dim + cfg.time_feat_dim
    whole = Linear(d_in, cfg.hidden_dim, Rng(4).spawn(("fc", 0))).weight.data
    blocks = [field.x_in.weight.data, field.cond_in.weight.data, field.t_in.weight.data]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    assert [b.shape[0] for b in blocks] == [cfg.mel_bins, cfg.feature_dim + cfg.speaker_dim, cfg.time_feat_dim]
    assert field.x_in.bias is None and field.t_in.bias is None and not field.cond_in.bias.data.any()


def test_split_first_layer_matches_one_gemm_field_f64():
    """The hoisted condition and the three first-layer blocks change only
    rounding: on an f64 field the sampled mel equals the one-GEMM field's
    within 1e-12."""
    rng = Rng(5)
    field = VelocityField(tiny_cfg(), rng, dtype=np.float64)
    feats = rng.normal((7, 8), dtype=np.float64)
    spk = rng.normal((4,), dtype=np.float64)
    solver = SolverConfig(n_steps=12, seed=9)
    got = sample_mel(field, feats, spk, solver)
    want = _one_gemm_sample_mel(field, feats, spk, solver)
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sample_mel_is_bitwise_the_tensor_field_loop(dtype):
    """The sampler's array forward equals Euler steps of the field on Tensors,
    each with its own time-feature call, bit for bit and in the same dtype."""
    rng = Rng(6)
    field = VelocityField(tiny_cfg(), rng, dtype=dtype)
    feats, spk = rng.normal((5, 8), dtype=dtype), rng.normal((4,), dtype=dtype)
    solver = SolverConfig(n_steps=6, seed=2)
    x = Rng(solver.seed).normal((5, 6), dtype=np.float32)
    cond = field.condition(Tensor(feats.astype(np.float32)), Tensor(np.tile(spk.astype(np.float32), (5, 1))))
    dt = 1.0 / solver.n_steps
    for i in range(solver.n_steps):
        t = np.array([i * dt])
        x = x + dt * field(Tensor(x), cond, t, time_features(t, 4, np.float64)).data
    got = sample_mel(field, feats, spk, solver)
    assert got.dtype == x.dtype == dtype and got.tobytes() == x.tobytes()


def test_time_features_of_a_grid_are_the_per_step_rows():
    """`sample_mel` builds every step's time features in one call: each row
    is bitwise the call for that step's time alone, for 1 to 100 steps."""
    for n in range(1, 101):
        dt = 1.0 / n
        grid = time_features(np.arange(n) * dt, 8, np.float64)
        for i in range(n):
            assert grid[i:i + 1].tobytes() == time_features(np.array([i * dt]), 8, np.float64).tobytes()


def test_conditioning_tensor_receives_gradient():
    rng = Rng(4)
    field = VelocityField(tiny_cfg(), rng)
    mel = rng.normal((3, 6))
    feats = Tensor(rng.normal((3, 8)), requires_grad=True)
    spk = Tensor(rng.normal((1, 4)), requires_grad=True)
    loss = cfm_train_loss(field, [mel], feats, spk, [rng], t=[0.5], x0=[np.zeros((3, 6), dtype=np.float32)])
    loss.backward()
    assert feats.grad is not None and np.any(feats.grad != 0)
    assert spk.grad is not None and np.any(spk.grad != 0)


def test_time_features_shape_and_distinct():
    a = time_features(0.2, 8)
    b = time_features(0.8, 8)
    assert a.shape == (8,)
    assert not np.allclose(a, b)


def test_solver_rejects_zero_steps():
    rng = Rng(5)
    field = VelocityField(tiny_cfg(), rng)
    with pytest.raises(ValueError, match="n_steps"):
        sample_mel(field, rng.normal((3, 8)), rng.normal((4,)), SolverConfig(n_steps=0))


def test_config_validation():
    with pytest.raises(ValueError, match="time_feat_dim"):
        tiny_cfg(time_feat_dim=5).validate()
    with pytest.raises(ValueError, match="hidden_dim"):
        tiny_cfg(hidden_dim=0).validate()


def test_load_state_refuses_the_one_weight_layout():
    """A state that holds the first layer as one `layers.0` weight, the
    layout before its three blocks, is refused by name."""
    field = VelocityField(tiny_cfg(), Rng(4))
    first = np.concatenate([field.x_in.weight.data, field.cond_in.weight.data, field.t_in.weight.data])
    old = {"layers.0.weight": first, "layers.0.bias": field.cond_in.bias.data}
    for i, layer in enumerate(field.layers):
        old.update({f"layers.{i + 1}.weight": layer.weight.data, f"layers.{i + 1}.bias": layer.bias.data})
    with pytest.raises(KeyError, match=r"missing \['cond_in.bias', 'cond_in.weight', 't_in.weight', "
                                       r"'x_in.weight'\], unexpected \['layers.2.bias', 'layers.2.weight'\]"):
        field.load_state(old)
