"""AR and NAR id-grid inputs against the per-row lookup chains they replaced.

The reference builds every row's input the old way: one gather node per
table, summed by `+` nodes in the same order, rows joined with `concat`
and zero-padded to the longest row. The id-grid paths must give bitwise
the same forward values; table gradients add their rows in another
order, so they are compared within a tolerance in f64.
"""

import numpy as np
import pytest

from paravox.ar import ARConfig, DualStreamAR
from paravox.engine import Rng, Tensor, concat, gradients
from paravox.nar import CoupledStage, NARConfig
from paravox.nn import causal_mask, padding_mask


def _gather(table: Tensor, ids) -> Tensor:
    """The one-table row lookup node the chains were built from."""
    ids = np.asarray(ids)
    data = table.data[ids]

    def grad_fn(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        table._accumulate(full)

    return Tensor._make(data, (table,), grad_fn)


def _zero_pad(rows: list[Tensor]) -> tuple[Tensor, np.ndarray]:
    """(B, T_max, D) batch of (T_i, D) rows, zero-padded with `concat`."""
    lengths = np.array([r.shape[0] for r in rows])
    l_max = int(lengths.max())
    padded = []
    for r in rows:
        e = r.reshape(1, r.shape[0], -1)
        if r.shape[0] < l_max:
            e = concat([e, Tensor(np.zeros((1, l_max - r.shape[0], e.shape[-1]), dtype=r.dtype))], axis=1)
        padded.append(e)
    return concat(padded, axis=0), lengths


def _trunk(blocks, ln_f, h: Tensor, mask: np.ndarray) -> Tensor:
    for block in blocks:
        h = block(h, mask=mask)
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
    emb, lengths = _zero_pad(rows)
    mask = causal_mask(emb.shape[1], dtype=emb.dtype)[None, None] + padding_mask(lengths, emb.shape[1], emb.dtype)
    states = _trunk(model.blocks, model.ln_f, emb, mask)
    pred = concat([states[i, b:b + t] for i, (b, t) in enumerate(bounds)], axis=0)
    stops = concat([states[i, b:b + t + 1] for i, (b, t) in enumerate(bounds)], axis=0)
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
    emb, lengths = _zero_pad(rows)
    states = _trunk(stage.blocks, stage.ln_f, emb, padding_mask(lengths, emb.shape[1], emb.dtype))
    pieces = [states[i, ref.shape[0]:lengths[i]] for i, (ref, _) in enumerate(batch)]
    return stage.classifier(concat(pieces, axis=0))


def _ar_batch(cfg, rng):
    """Rows of different lengths, one with an empty reference."""
    batch = []
    for n_text, n_ref, n_tgt in ((3, 2, 4), (5, 0, 2), (2, 4, 6), (4, 1, 1)):
        ref = np.stack([rng.integers(0, k, (n_ref, cfg.layers_per_stream)) for _, k in cfg.streams], axis=1)
        tgt = np.stack([rng.integers(0, k, (n_tgt, cfg.layers_per_stream)) for _, k in cfg.streams], axis=1)
        batch.append((rng.integers(0, cfg.text_vocab, (n_text,)), ref, tgt))
    return batch


def _tables(model) -> list[Tensor]:
    return [p for name, p in model.named_parameters().items()
            if name.endswith("weight") and ("emb" in name or "pos" in name)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layers", [1, 2])
def test_ar_id_grid_matches_lookup_chain(dtype, layers):
    cfg = ARConfig(text_vocab=9, streams=(("semantic", 6), ("acoustic", 7)), layers_per_stream=layers,
                   n_layers=2, model_dim=16, n_heads=2, max_text_len=8, max_speech_len=16)
    model = DualStreamAR(cfg, Rng(1), dtype=dtype)
    batch = _ar_batch(cfg, Rng(2))
    stream_logits, stream_targets, stop_logits, stop_labels = model.teacher_forced_batch(batch)
    want_logits, want_stop = _ar_chain(model, batch)
    for got_s, want_s in zip(stream_logits, want_logits):
        for got, want in zip(got_s, want_s):
            assert got.dtype == dtype and np.array_equal(got.data, want.data)
    assert np.array_equal(stop_logits.data, want_stop.data)
    if dtype is np.float64:
        tables = _tables(model)
        assert len(tables) == 3 + 2 * layers
        got = gradients(model.ar_loss(stream_logits, stream_targets, stop_logits, stop_labels)["total"], tables)
        want = gradients(model.ar_loss(want_logits, stream_targets, want_stop, stop_labels)["total"], tables)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer_index", [1, 2])
def test_nar_id_grid_matches_lookup_chain(dtype, layer_index):
    cfg = NARConfig(streams=(("semantic", 5), ("acoustic", 6)), n_quant_layers=3, n_layers=1,
                    model_dim=16, n_heads=2, max_ref_len=8, max_target_len=8)
    stage = CoupledStage(cfg, layer_index, Rng(3), dtype=dtype)
    rng = Rng(4)
    batch = [(np.stack([rng.integers(0, k, (r, 3)) for _, k in cfg.streams], axis=1),
              np.stack([rng.integers(0, k, (t, 3)) for _, k in cfg.streams], axis=1))
             for r, t in ((3, 4), (1, 6), (5, 2))]
    got = stage.batch_logits(batch)
    want = _nar_chain(stage, batch)
    assert got.dtype == dtype and np.array_equal(got.data, want.data)
    if dtype is np.float64:
        tables = _tables(stage)
        assert len(tables) == 3 + 2 * (2 * layer_index + 1)
        weights = Tensor(rng.normal(got.shape, dtype=np.float64))
        for g, w in zip(gradients((got * weights).sum(), tables), gradients((want * weights).sum(), tables)):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
