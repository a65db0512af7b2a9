"""The packed AR and NAR trunks against each row run alone, and their
read rows against the packed trunk over every row.

The first reference builds every row's input the old way: one gather
node per table, summed by `+` nodes in the same order, and joined with
`concat`. It then runs every block over each row alone, causal or
bidirectional, and slices out the rows the loss reads. The second runs
the packed trunk's last block over every row too, then gathers the rows
that its `reads` would have kept.

The packed trunk runs its GEMMs over other row counts, so f32 bits
differ. Logits, losses and every parameter gradient are compared at
rtol 1e-12 in f64; f32 logits only to within f32 rounding.
"""

import numpy as np
import pytest

from paravox.ar import ARConfig, DualStreamAR
from paravox import nn
from paravox.engine import Rng, Tensor, concat, cross_entropy, embedding, gradients, last_rows
from paravox.nar import CoupledNAR, CoupledStage, NARConfig


def _gather(table: Tensor, ids) -> Tensor:
    """The one-table row lookup node the chains were built from."""
    ids = np.asarray(ids)
    data = table.data[ids]

    def grad_fn(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table._accumulate(full)

    return Tensor._make(data, (table,), grad_fn)


def _trunk(blocks, ln_f, h: Tensor, causal: bool) -> Tensor:
    """The trunk over one (T, D) row alone."""
    for block in blocks:
        h = block(h, causal)
    return ln_f(h)


def _ar_chain(model: DualStreamAR, batch):
    """`teacher_forced_batch`'s logits from per-row lookup chains."""
    cfg = model.cfg
    n_l = cfg.layers_per_stream

    def frames(tokens, offset):
        out = _gather(model.speech_pos.weight, np.arange(offset, offset + tokens.shape[0]))
        for s in range(cfg.n_streams):
            for l in range(n_l):
                out = out + _gather(model.token_embs[s * n_l + l].weight, tokens[:, s, l])
        return out

    rows, bounds = [], []
    for text, ref, tgt in batch:
        parts = [_gather(model.text_emb.weight, text) + _gather(model.text_pos.weight, np.arange(text.size))]
        if ref.shape[0]:
            parts.append(frames(ref, 0))
        parts.append(frames(tgt, ref.shape[0]))
        rows.append(concat(parts, axis=0))
        bounds.append((text.size + ref.shape[0] - 1, tgt.shape[0]))
    states = [_trunk(model.blocks, model.ln_f, row, True) for row in rows]
    pred = concat([s[b:b + t] for s, (b, t) in zip(states, bounds)], axis=0)
    stops = concat([s[b:b + t + 1] for s, (b, t) in zip(states, bounds)], axis=0)
    stream_logits = [[model._head_logits(pred, s, l) for l in range(n_l)] for s in range(cfg.n_streams)]
    return stream_logits, model.stop_head(stops).reshape(-1)


def _nar_chain(stage: CoupledStage, batch) -> Tensor:
    """`batch_logits` from per-row lookup chains."""
    n_streams = stage.cfg.n_streams

    def segment(tokens, embs, n_layers, seg_id, pos_table):
        t = tokens.shape[0]
        out = _gather(pos_table.weight, np.arange(t)) + _gather(stage.segment_emb.weight, np.full(t, seg_id))
        for s in range(n_streams):
            for l in range(n_layers):
                out = out + _gather(embs[s * n_layers + l].weight, tokens[:, s, l])
        return out

    rows = [concat([segment(ref, stage.ref_embs, stage.n_ref_in, 0, stage.ref_pos),
                    segment(tgt, stage.tgt_embs, stage.n_tgt_in, 1, stage.tgt_pos)], axis=0)
            for ref, tgt in batch]
    pieces = [_trunk(stage.blocks, stage.ln_f, row, False)[ref.shape[0]:] for row, (ref, _) in zip(rows, batch)]
    return stage.classifier(concat(pieces, axis=0))


def _ar_batch(cfg, rng):
    """Rows of different lengths, two with an empty reference. Each reads
    its targets plus one, 5, 3, 7, 2 and 2 states; the last row (2
    positions) reads them all."""
    batch = []
    for n_text, n_ref, n_tgt in ((3, 2, 4), (5, 0, 2), (2, 4, 6), (4, 1, 1), (1, 0, 1)):
        ref = np.stack([rng.integers(0, k, (n_ref, cfg.layers_per_stream)) for _, k in cfg.streams], axis=1)
        tgt = np.stack([rng.integers(0, k, (n_tgt, cfg.layers_per_stream)) for _, k in cfg.streams], axis=1)
        batch.append((rng.integers(0, cfg.text_vocab, (n_text,)), ref, tgt))
    return batch


def _nar_batch(cfg, rng):
    """Rows of different lengths, each reading its 4, 6, 2 or 1 targets;
    the last (2 positions) reads all but its reference frame."""
    return [(np.stack([rng.integers(0, k, (r, 3)) for _, k in cfg.streams], axis=1),
             np.stack([rng.integers(0, k, (t, 3)) for _, k in cfg.streams], axis=1))
            for r, t in ((3, 4), (1, 6), (5, 2), (1, 1))]


def _stage_loss(stage, logits, batch):
    """`stage_loss` over given logits."""
    labels = stage._labels(batch)
    ces = [cross_entropy(sl, labels[:, s]) for s, sl in enumerate(stage.stream_slices(logits))]
    return sum(ces[1:], ces[0]) * (1.0 / len(ces))


def _assert_close(got, want, dtype):
    """rtol 1e-12 in f64; within f32 rounding of unit-scale values in f32."""
    assert got.dtype == dtype
    if dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=2e-5)


def _assert_same_gradients(model, got_loss, want_loss):
    params = model.named_parameters()
    got = gradients(got_loss, list(params.values()))
    want = gradients(want_loss, list(params.values()))
    for name, g, w in zip(params, got, want):
        # The key-bias columns of `wqkv` get rounding noise only: a shift
        # shared by every key leaves the softmax as it is. So the floor is
        # 1e-12 of the parameter's largest gradient.
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max(), err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 2])
def test_ar_id_grid_matches_lookup_chain(dtype, layers):
    """`teacher_forced_batch` and `ar_loss` against each row alone, for
    the mixed batch and for a batch of one; every parameter gradient in f64."""
    cfg = ARConfig(text_vocab=9, streams=(("semantic", 6), ("acoustic", 7)), layers_per_stream=layers,
                   n_layers=2, model_dim=16, n_heads=2, max_text_len=8, max_speech_len=16)
    model = DualStreamAR(cfg, Rng(1), dtype=dtype)
    mixed = _ar_batch(cfg, Rng(2))
    for batch in (mixed, mixed[2:3]):
        stream_logits, stream_targets, stop_logits, stop_labels = model.teacher_forced_batch(batch)
        want_logits, want_stop = _ar_chain(model, batch)
        for got_s, want_s in zip(stream_logits, want_logits):
            for got, want in zip(got_s, want_s):
                _assert_close(got.data, want.data, dtype)
        _assert_close(stop_logits.data, want_stop.data, dtype)
        got = model.ar_loss(stream_logits, stream_targets, stop_logits, stop_labels)
        want = model.ar_loss(want_logits, stream_targets, want_stop, stop_labels)
        for key in want:
            _assert_close(got[key].data, want[key].data, dtype)
        if dtype is np.float64:
            _assert_same_gradients(model, got["total"], want["total"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer_index", [1, 2])
def test_nar_id_grid_matches_lookup_chain(dtype, layer_index):
    """`batch_logits` and `stage_loss` against each row alone, for the
    mixed batch and for a batch of one; every parameter gradient in f64."""
    cfg = NARConfig(streams=(("semantic", 5), ("acoustic", 6)), n_quant_layers=3, n_layers=2,
                    model_dim=16, n_heads=2, max_ref_len=8, max_target_len=8)
    stage = CoupledStage(cfg, layer_index, Rng(3), dtype=dtype)
    mixed = _nar_batch(cfg, Rng(4))
    for batch in (mixed, mixed[:1]):
        got, want = stage.batch_logits(batch), _nar_chain(stage, batch)
        _assert_close(got.data, want.data, dtype)
        got_loss, want_loss = stage.stage_loss(batch), _stage_loss(stage, want, batch)
        _assert_close(got_loss.data, want_loss.data, dtype)
        if dtype is np.float64:
            _assert_same_gradients(stage, got_loss, want_loss)


def _all_rows_then_gather(blocks, ln_f, h, causal: bool, lengths, reads):
    """The packed trunk over every row, then each row's last reads[b] states."""
    for block in blocks:
        h = block(h, causal, lengths=lengths)
    return ln_f(h)[last_rows(np.cumsum(lengths), reads)]


@pytest.mark.parametrize("layers", [1, 2])
def test_ar_reads_match_the_all_rows_trunk_then_a_gather(layers):
    """f64: `teacher_forced_batch` and `ar_loss`, whose last block runs
    for each row's n_target + 1 read states only, against the trunk over
    every row followed by a gather of those states: logits, losses and
    every parameter gradient at rtol 1e-12, for the mixed batch, whose
    reads differ per row, and for a batch of one."""
    cfg = ARConfig(text_vocab=9, streams=(("semantic", 6), ("acoustic", 7)), layers_per_stream=layers,
                   n_layers=2, model_dim=16, n_heads=2, max_text_len=8, max_speech_len=16)
    model = DualStreamAR(cfg, Rng(1), dtype=np.float64)
    mixed = _ar_batch(cfg, Rng(2))
    for batch in (mixed, mixed[2:3]):
        stream_logits, stream_targets, stop_logits, stop_labels = model.teacher_forced_batch(batch)
        rows = [model.input_ids(*row) for row in batch]
        lengths = np.array([r.shape[0] for r in rows])
        n_target = np.array([tgt.shape[0] for _, _, tgt in batch])
        stops = _all_rows_then_gather(model.blocks, model.ln_f, embedding(model._tables(), np.concatenate(rows)),
                                      True, lengths, n_target + 1)
        pred = stops[last_rows(np.cumsum(n_target + 1) - 1, n_target)]
        want_logits = [[model._head_logits(pred, s, l) for l in range(layers)] for s in range(cfg.n_streams)]
        want_stop = model.stop_head(stops).reshape(-1)
        for got_s, want_s in zip(stream_logits, want_logits):
            for got, want in zip(got_s, want_s):
                _assert_close(got.data, want.data, np.float64)
        _assert_close(stop_logits.data, want_stop.data, np.float64)
        got = model.ar_loss(stream_logits, stream_targets, stop_logits, stop_labels)["total"]
        want = model.ar_loss(want_logits, stream_targets, want_stop, stop_labels)["total"]
        _assert_close(got.data, want.data, np.float64)
        _assert_same_gradients(model, got, want)


@pytest.mark.parametrize("layer_index", [1, 2])
def test_nar_reads_match_the_all_rows_trunk_then_a_gather(layer_index):
    """f64: `batch_logits` and `stage_loss`, whose last block runs for
    each row's target positions only, against the trunk over every row
    followed by a gather of those positions: logits, losses and every
    parameter gradient at rtol 1e-12, for the mixed batch, whose reads
    differ per row, and for a batch of one."""
    cfg = NARConfig(streams=(("semantic", 5), ("acoustic", 6)), n_quant_layers=3, n_layers=2,
                    model_dim=16, n_heads=2, max_ref_len=8, max_target_len=8)
    stage = CoupledStage(cfg, layer_index, Rng(3), dtype=np.float64)
    mixed = _nar_batch(cfg, Rng(4))
    for batch in (mixed, mixed[:1]):
        rows = [stage._input_ids(r, t) for r, t in batch]
        lengths = np.array([r.shape[0] for r in rows])
        n_target = np.array([t.shape[0] for _, t in batch])
        h = embedding(stage._tables(), np.concatenate(rows))
        want = stage.classifier(_all_rows_then_gather(stage.blocks, stage.ln_f, h, False, lengths, n_target))
        got = stage.batch_logits(batch)
        _assert_close(got.data, want.data, np.float64)
        got_loss, want_loss = stage.stage_loss(batch), _stage_loss(stage, want, batch)
        _assert_close(got_loss.data, want_loss.data, np.float64)
        _assert_same_gradients(stage, got_loss, want_loss)


def test_trunks_run_real_rows_and_the_last_block_over_the_read_rows(monkeypatch):
    """Rows each `linear` gets in one AR and one NAR training step. Blocks
    before the last see only the real rows; the last block projects keys
    and values from them too, but its out-projection and MLP see only
    the sum(reads) rows that are read: each row's targets, plus its last
    prompt state in the AR. That is fewer than each row's last
    min(max(reads), length) positions."""
    seen: list = []
    linear = nn.linear
    monkeypatch.setattr(nn, "linear", lambda x, w, b=None: seen.append((id(w), x.shape[0])) or linear(x, w, b))

    def rows_by_weight(blocks):
        got = dict(seen)
        return [{name: got[id(layer.weight)]
                 for name, layer in (("wqkv", b.attn.wqkv), ("wo", b.attn.wo), ("fc1", b.fc1), ("fc2", b.fc2))}
                for b in blocks]

    cfg = ARConfig(text_vocab=9, streams=(("semantic", 6), ("acoustic", 7)), n_layers=3,
                   model_dim=16, n_heads=2, max_text_len=8, max_speech_len=16)
    model = DualStreamAR(cfg, Rng(1))
    batch = _ar_batch(cfg, Rng(2))
    lengths = np.array([t.size + r.shape[0] + g.shape[0] for t, r, g in batch])
    reads = np.array([g.shape[0] + 1 for _, _, g in batch])
    gradients(model.ar_loss(*model.teacher_forced_batch(batch))["total"], list(model.named_parameters().values()))
    _check_rows(rows_by_weight(model.blocks), lengths, reads)

    seen.clear()
    ncfg = NARConfig(streams=(("semantic", 5), ("acoustic", 6)), n_quant_layers=2, n_layers=2,
                     model_dim=16, n_heads=2, max_ref_len=8, max_target_len=8)
    nar = CoupledNAR(ncfg, Rng(3))
    batch = _nar_batch(ncfg, Rng(4))
    lengths = np.array([r.shape[0] + t.shape[0] for r, t in batch])
    reads = np.array([t.shape[0] for _, t in batch])
    gradients(nar.nar_loss(batch)["total"], list(nar.named_parameters().values()))
    _check_rows(rows_by_weight(nar.stages[0].blocks), lengths, reads)


def _check_rows(blocks: list[dict], lengths: np.ndarray, reads: np.ndarray) -> None:
    n_real, n_read = int(lengths.sum()), int(reads.sum())
    assert n_read < int(np.minimum(lengths, reads.max()).sum()) < n_real < len(lengths) * int(lengths.max())
    for rows in blocks[:-1]:
        assert rows == {"wqkv": n_real, "wo": n_real, "fc1": n_real, "fc2": n_real}
    assert blocks[-1] == {"wqkv": n_real, "wo": n_read, "fc1": n_read, "fc2": n_read}
