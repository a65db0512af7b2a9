"""Tests for the coupled non-autoregressive refinement stages."""

import math

import numpy as np
import pytest

from gradcheck import grad_check
from paravox.engine import Rng, gradients
from paravox.nar import CoupledNAR, CoupledStage, NARConfig


def tiny_config(**kw):
    base = dict(streams=(("semantic", 7), ("acoustic", 9)), n_quant_layers=3,
                n_layers=1, model_dim=16, n_heads=2, max_ref_len=24,
                max_target_len=24, seed=0)
    base.update(kw)
    return NARConfig(**base)


def random_grid(rng, cfg, t):
    cols = [rng.integers(0, k, (t, cfg.n_quant_layers)) for _, k in cfg.streams]
    return np.stack(cols, axis=1)


def test_config_validation():
    with pytest.raises(ValueError, match="streams"):
        NARConfig(streams=()).validate()
    with pytest.raises(ValueError, match="two quantizer layers"):
        tiny_config(n_quant_layers=1).validate()
    with pytest.raises(ValueError, match="n_heads"):
        tiny_config(model_dim=15).validate()
    tiny_config().validate()


def test_stage_input_visibility():
    """Stage 1 reads target layer 1 and reference layers 1-2, nothing else."""
    cfg = tiny_config()
    stage = CoupledStage(cfg, 1, Rng(0))
    assert stage.n_tgt_in == 1 and stage.n_ref_in == 2
    rng = Rng(1)
    ref, tgt = random_grid(rng, cfg, 5), random_grid(rng, cfg, 6)
    base = stage.batch_logits([(ref, tgt)]).data

    deeper_ref = ref.copy()
    deeper_ref[:, :, 2] = (deeper_ref[:, :, 2] + 1) % 7
    assert np.array_equal(stage.batch_logits([(deeper_ref, tgt)]).data, base)

    label_tgt = tgt.copy()
    label_tgt[:, :, 1:] = (label_tgt[:, :, 1:] + 1) % 7
    assert np.array_equal(stage.batch_logits([(ref, label_tgt)]).data, base)

    seen_ref = ref.copy()
    seen_ref[2, 0, 1] = (seen_ref[2, 0, 1] + 1) % 7
    assert not np.array_equal(stage.batch_logits([(seen_ref, tgt)]).data, base)


def test_stage2_sees_deeper_context():
    cfg = tiny_config()
    stage = CoupledStage(cfg, 2, Rng(2))
    assert stage.n_tgt_in == 2 and stage.n_ref_in == 3
    rng = Rng(3)
    ref, tgt = random_grid(rng, cfg, 4), random_grid(rng, cfg, 4)
    base = stage.batch_logits([(ref, tgt)]).data
    ref2 = ref.copy()
    ref2[1, 1, 2] = (ref2[1, 1, 2] + 1) % 9
    assert not np.array_equal(stage.batch_logits([(ref2, tgt)]).data, base)
    tgt2 = tgt.copy()
    tgt2[3, 0, 1] = (tgt2[3, 0, 1] + 1) % 7
    assert not np.array_equal(stage.batch_logits([(ref, tgt2)]).data, base)


def test_refinement_is_not_causal():
    """A later target token influences logits at earlier positions."""
    cfg = tiny_config()
    stage = CoupledStage(cfg, 1, Rng(4))
    rng = Rng(5)
    ref, tgt = random_grid(rng, cfg, 4), random_grid(rng, cfg, 8)
    base = stage.batch_logits([(ref, tgt)]).data
    tgt2 = tgt.copy()
    tgt2[7, 0, 0] = (tgt2[7, 0, 0] + 1) % 7
    after = stage.batch_logits([(ref, tgt2)]).data
    assert not np.array_equal(after[0], base[0])


def test_streams_are_coupled():
    """Acoustic input at a position moves the semantic logits there."""
    cfg = tiny_config()
    stage = CoupledStage(cfg, 1, Rng(6))
    rng = Rng(7)
    ref, tgt = random_grid(rng, cfg, 4), random_grid(rng, cfg, 6)
    sem_base = stage.stream_slices(stage.batch_logits([(ref, tgt)]))[0].data
    tgt2 = tgt.copy()
    tgt2[3, 1, 0] = (tgt2[3, 1, 0] + 1) % 9   # acoustic top token only
    sem_after = stage.stream_slices(stage.batch_logits([(ref, tgt2)]))[0].data
    assert not np.array_equal(sem_after[3], sem_base[3])


def test_logit_shapes_and_slices():
    cfg = tiny_config()
    stage = CoupledStage(cfg, 1, Rng(8))
    rng = Rng(9)
    ref, tgt = random_grid(rng, cfg, 3), random_grid(rng, cfg, 5)
    logits = stage.batch_logits([(ref, tgt)])
    assert logits.shape == (5, 7 + 9)
    sem, ac = stage.stream_slices(logits)
    assert sem.shape == (5, 7) and ac.shape == (5, 9)
    pred = stage.predict([(ref, tgt)])
    assert pred.shape == (5, 2)
    assert pred[:, 0].max() < 7 and pred[:, 1].max() < 9


def test_input_validation():
    cfg = tiny_config()
    stage = CoupledStage(cfg, 1, Rng(10))
    rng = Rng(11)
    ref, tgt = random_grid(rng, cfg, 3), random_grid(rng, cfg, 5)
    with pytest.raises(ValueError, match="reference"):
        stage.batch_logits([(ref[:, :, :1], tgt)])
    with pytest.raises(ValueError, match="at least one frame"):
        stage.batch_logits([(ref[:0], tgt)])
    with pytest.raises(ValueError, match="exceeds limit"):
        stage.batch_logits([(ref, np.zeros((25, 2, 3), dtype=np.int64))])
    bad = tgt.copy()
    bad[0, 0, 0] = 7
    with pytest.raises(ValueError, match="out of range"):
        stage.batch_logits([(ref, bad)])
    with pytest.raises(ValueError, match="layer_index"):
        CoupledStage(cfg, 0, Rng(0))


def test_loss_identities():
    """Zeroed classifier gives the uniform mixture value; total is exact."""
    cfg = tiny_config()
    model = CoupledNAR(cfg, Rng(12))
    for stage in model.stages:
        stage.classifier.weight.data[:] = 0.0
        stage.classifier.bias.data[:] = 0.0
    rng = Rng(13)
    batch = [(random_grid(rng, cfg, 3), random_grid(rng, cfg, 4)),
             (random_grid(rng, cfg, 2), random_grid(rng, cfg, 6))]
    out = model.nar_loss(batch)
    uniform = 0.5 * (math.log(7) + math.log(9))
    assert float(out["L_second"].data) == pytest.approx(uniform, abs=1e-6)
    assert float(out["L_third"].data) == pytest.approx(uniform, abs=1e-6)
    exact = out["L_second"].data + out["L_third"].data
    assert float(out["total"].data) == float(exact)


def test_batch_matches_single():
    cfg = tiny_config()
    stage = CoupledStage(cfg, 1, Rng(14))
    rng = Rng(15)
    short = (random_grid(rng, cfg, 2), random_grid(rng, cfg, 3))
    long = (random_grid(rng, cfg, 4), random_grid(rng, cfg, 7))
    alone = stage.batch_logits([short]).data
    both = stage.batch_logits([short, long])
    np.testing.assert_allclose(both.data[:3], alone, rtol=0, atol=1e-5)


def test_complete_tokens_grows_layers():
    cfg = tiny_config()
    model = CoupledNAR(cfg, Rng(16))
    rng = Rng(17)
    ref = random_grid(rng, cfg, 4)
    top = random_grid(rng, cfg, 6)[:, :, 0]
    grid = model.complete_tokens(top, ref)
    assert grid.shape == (6, 2, 3)
    assert np.array_equal(grid[:, :, 0], top)
    assert grid[:, 0].max() < 7 and grid[:, 1].max() < 9
    # (T, S, 1) input from the autoregressive stage is accepted too.
    grid2 = model.complete_tokens(top[:, :, None], ref)
    assert np.array_equal(grid, grid2)
    # Deterministic: argmax has no sampling noise.
    assert np.array_equal(grid, model.complete_tokens(top, ref))


def test_gradcheck_stage_loss():
    cfg = tiny_config(model_dim=8, n_heads=2)
    stage = CoupledStage(cfg, 1, Rng(18), dtype=np.float64)
    rng = Rng(19)
    batch = [(random_grid(rng, cfg, 2), random_grid(rng, cfg, 3))]

    report = grad_check(lambda: stage.stage_loss(batch),
                        dict(stage.named_parameters()),
                        tolerance=1e-4, max_coords=4, rng=Rng(20))
    assert report.passed, str(report)


def test_state_roundtrip():
    cfg = tiny_config()
    model = CoupledNAR(cfg, Rng(21))
    state = model.state()
    rebuilt = CoupledNAR(cfg, Rng(99))
    rebuilt.load_state(state)
    rng = Rng(22)
    ref, tgt = random_grid(rng, cfg, 3), random_grid(rng, cfg, 4)
    a = model.stages[0].batch_logits([(ref, tgt)]).data
    b = rebuilt.stages[0].batch_logits([(ref, tgt)]).data
    assert np.array_equal(a, b)


def test_reference_resolves_ambiguity():
    """Train stage 1 on data where only the reference decides layer 2.

    Two styles share identical top-layer targets; the second layer copies
    a style constant visible only in the reference grid. High accuracy is
    impossible without reading the reference.
    """
    cfg = tiny_config(streams=(("semantic", 4), ("acoustic", 4)),
                      model_dim=16, n_layers=1)
    stage = CoupledStage(cfg, 1, Rng(23))
    rng = Rng(24)

    def make_pair(style):
        ref = np.full((3, 2, 3), style, dtype=np.int64)
        tgt = np.zeros((4, 2, 3), dtype=np.int64)
        tgt[:, :, 0] = rng.integers(0, 4, (4, 2))   # shared content layer
        tgt[:, :, 1] = style                         # only ref reveals this
        return ref, tgt

    batch = [make_pair(s) for s in (1, 3, 1, 3)]
    params = list(dict(stage.named_parameters()).values())
    for _ in range(120):
        loss = stage.stage_loss(batch)
        grads = gradients(loss, params)
        for p, g in zip(params, grads):
            p.data -= (0.5 * g).astype(p.data.dtype)
    hits = total = 0
    for ref, tgt in batch:
        pred = stage.predict([(ref, tgt)])
        hits += int((pred == tgt[:, :, 1]).sum())
        total += pred.size
    assert hits / total >= 0.95
    # Swapping in the other style's reference flips the prediction.
    ref1, tgt1 = batch[0]
    ref3, _ = batch[1]
    swapped = stage.predict([(ref3, tgt1)])
    assert (swapped == 3).mean() >= 0.75


def test_short_training_reduces_loss():
    cfg = tiny_config()
    model = CoupledNAR(cfg, Rng(25))
    rng = Rng(26)
    batch = [(random_grid(rng, cfg, 3), random_grid(rng, cfg, 5)) for _ in range(2)]
    params = list(dict(model.named_parameters()).values())

    def step():
        out = model.nar_loss(batch)
        grads = gradients(out["total"], params)
        for p, g in zip(params, grads):
            p.data -= (0.5 * g).astype(p.data.dtype)
        return float(out["total"].data)

    first = step()
    last = first
    for _ in range(40):
        last = step()
    assert last < 0.5 * first


def test_stage_accuracy_reporting():
    cfg = tiny_config()
    model = CoupledNAR(cfg, Rng(27))
    rng = Rng(28)
    batch = [(random_grid(rng, cfg, 3), random_grid(rng, cfg, 4))]
    acc = model.stage_scores(batch)[0]
    assert set(acc) == {"layer2", "layer3"}
    for v in acc.values():
        assert 0.0 <= v <= 1.0


def test_stage_scores_match_per_pair_predict_in_chunks_of_eight():
    """Scores equal one single-pair `predict` per pair, from padded passes
    of eight pairs."""
    cfg = tiny_config()
    model = CoupledNAR(cfg, Rng(29))
    rng = Rng(30)
    batch = [(random_grid(rng, cfg, int(rng.integers(1, 6))), random_grid(rng, cfg, int(rng.integers(1, 9))))
             for _ in range(19)]
    tokens, frames = {}, {}
    for stage in model.stages:
        right = np.concatenate([stage.predict([(r, t)]) == t[:, :, stage.layer_index] for r, t in batch])
        key = f"layer{stage.layer_index + 1}"
        tokens[key] = int(right.sum()) / right.size
        frames[key] = int(right.all(axis=1).sum()) / right.shape[0]
    rows_per_pass = []
    for stage in model.stages:
        predict = stage.predict
        stage.predict = lambda rows, predict=predict: rows_per_pass.append(len(rows)) or predict(rows)
    assert model.stage_scores(batch) == (tokens, frames)
    assert rows_per_pass == [8, 8, 3] * 2
    assert 0.0 < tokens["layer2"] < 1.0


@pytest.mark.parametrize("batch_size", [1, 8])
def test_predict_is_the_argmax_of_batch_logits(batch_size):
    """`predict` runs the stage on arrays; its tokens are the argmax of the
    Tensor path's logits over a padded batch."""
    cfg = tiny_config(n_layers=2)
    rng = Rng(31)
    for dtype in (np.float32, np.float64):
        nar = CoupledNAR(cfg, Rng(30), dtype=dtype)
        batch = [(random_grid(rng, cfg, rng.integers(2, 12)), random_grid(rng, cfg, rng.integers(1, 10)))
                 for _ in range(batch_size)]
        for stage in nar.stages:
            slices = stage.stream_slices(stage.batch_logits(batch))
            want = np.stack([s.data.argmax(axis=-1) for s in slices], axis=1)
            got = stage.predict(batch)
            assert got.dtype == np.int64 and np.array_equal(got, want)


def test_predict_records_no_tape(tape_records):
    """With trainable weights, refinement runs on arrays: it makes no
    Tensor op output at all."""
    cfg = tiny_config()
    nar = CoupledNAR(cfg, Rng(32))
    rng = Rng(33)
    ref, top = random_grid(rng, cfg, 6), random_grid(rng, cfg, 4)[:, :, 0]
    assert all(p.requires_grad for p in nar.named_parameters().values())
    assert nar.complete_tokens(top, ref).shape == (4, 2, 3)
    assert tape_records == []
