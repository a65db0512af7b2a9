"""Acceptance gate: eleven numbered criteria, one verdict line each.

Each test prints (and registers for the terminal summary) a line of the
form `[criterion NN] PASS/FAIL <details>`. Thresholds and budgets are
part of the contract; nothing here is tuned per-run.
"""

import math
import time

import numpy as np

from conftest import record_criterion, rvq_residuals
from gradcheck import grad_check
from paravox.ar import ARConfig, DualStreamAR
from paravox.engine import Rng, Tensor, cross_entropy, gradients, sigmoid
from paravox.flow import FlowConfig, SolverConfig, VelocityField, cfm_train_loss, sample_mel
from paravox.frontend import (FeatureBundle, generate_corpus, load_arrays, load_features,
                              make_utterance, save_arrays, save_features)
from paravox.nar import CoupledNAR, CoupledStage, NARConfig
from paravox.pipeline import Checkpoint, load_checkpoint, save_checkpoint, toy_profile
from paravox.pipeline.data import corpus_items
from paravox.pipeline.infer import load_pipeline
from paravox.pipeline.train import Adam
from paravox.probes import silhouette_score
from paravox.rvq import RVQStack
from paravox.tokenizer import ParallelTokenizer, TokenizerConfig


# ---- 1 & 2: quantizer against brute force ------------------------------------


def _brute_force_encode(stack, frames):
    """Per-frame python loop, exhaustive argmin per layer; ties to lowest index."""
    t = frames.shape[0]
    tokens = np.empty((t, stack.n_layers), dtype=np.int64)
    for i in range(t):
        r = frames[i].copy()
        for l, cb in enumerate(stack.layers):
            best, best_d = 0, None
            for k in range(cb.size):
                d = np.sum((r - cb.entries[k].astype(r.dtype)) ** 2)
                if best_d is None or d < best_d:
                    best, best_d = k, d
            tokens[i, l] = best
            r = r - cb.entries[best].astype(r.dtype)
    return tokens


def _oracle_instance():
    rng = Rng(9001)
    stack = RVQStack.init_random(rng, n_layers=3, codebook_size=16, dim=8)
    frames = rng.normal((1000, 8), dtype=np.float64)
    return stack, frames


def test_criterion_01_rvq_oracle_equivalence():
    stack, frames = _oracle_instance()
    t0 = time.perf_counter()
    tokens = stack.encode(frames)
    oracle = _brute_force_encode(stack, frames)
    elapsed = time.perf_counter() - t0
    mismatches = int((tokens != oracle).sum())
    ok = mismatches == 0 and elapsed < 10.0
    detail = (f"rvq encode == exhaustive brute force on 1000 frames "
              f"(D=8, K=16, L=3): {mismatches} mismatches, {elapsed:.2f}s (budget 10s)")
    record_criterion(1, ok, detail)
    assert ok, detail


def test_criterion_02_residual_monotonicity():
    stack, frames = _oracle_instance()
    _, norms = rvq_residuals(stack, frames, stack.encode(frames))
    input_norms = np.sqrt((frames * frames).sum(axis=1))
    ladder = np.concatenate([input_norms[:, None], norms], axis=1)
    violations = int((ladder[:, 1:] > ladder[:, :-1]).sum())
    ok = violations == 0
    detail = (f"residual norms non-increasing through {norms.shape[1]} layers "
              f"on {frames.shape[0]} frames: {violations} violations")
    record_criterion(2, ok, detail)
    assert ok, detail


# ---- 3: finite-difference gradient suite --------------------------------------


def test_criterion_03_gradient_suite():
    t0 = time.perf_counter()
    reports = {}

    # Quantizer commitment path: gradient into the (stand-in) encoder output.
    rng = Rng(31)
    stack = RVQStack.init_random(rng, n_layers=2, codebook_size=8, dim=4)
    x = Tensor(rng.normal((4, 4), dtype=np.float64), requires_grad=True)

    def commitment():
        quantized, _ = rvq_residuals(stack, x.data, stack.encode(x.data))
        d = x - Tensor(quantized)
        return (d * d).mean() * stack.commitment_weight

    reports["rvq encoder path"] = grad_check(commitment, {"x": x}, tolerance=1e-4)

    # Dual-stream autoregressive transformer, full training loss.
    ar_cfg = ARConfig(text_vocab=6, streams=(("semantic", 5), ("acoustic", 5)),
                      n_layers=1, model_dim=8, n_heads=2, max_text_len=8,
                      max_speech_len=12, seed=0)
    ar = DualStreamAR(ar_cfg, Rng(32), dtype=np.float64)
    rng = Rng(33)
    row = (rng.integers(0, 6, (3,)), rng.integers(0, 5, (2, 2, 1)), rng.integers(0, 5, (3, 2, 1)))
    reports["ar transformer"] = grad_check(
        lambda: ar.ar_loss(*ar.teacher_forced_batch([row]))["total"],
        dict(ar.named_parameters()), tolerance=1e-4, max_coords=4, rng=Rng(34))

    # Coupled refinement transformer, one stage loss.
    nar_cfg = NARConfig(streams=(("semantic", 5), ("acoustic", 5)), n_quant_layers=3,
                        n_layers=1, model_dim=8, n_heads=2, max_ref_len=12,
                        max_target_len=12, seed=0)
    stage = CoupledStage(nar_cfg, 1, Rng(35), dtype=np.float64)
    rng = Rng(36)
    grid = lambda t: np.stack([rng.integers(0, 5, (t, 3)) for _ in range(2)], axis=1)
    batch = [(grid(2), grid(3))]
    reports["nar transformer"] = grad_check(
        lambda: stage.stage_loss(batch), dict(stage.named_parameters()),
        tolerance=1e-4, max_coords=4, rng=Rng(37))

    # Flow-matching vector field.
    flow_cfg = FlowConfig(mel_bins=6, feature_dim=8, speaker_dim=4, hidden_dim=16,
                          n_hidden=2, time_feat_dim=4)
    field = VelocityField(flow_cfg, Rng(38), dtype=np.float64)
    rng = Rng(39)
    mel = rng.normal((3, 6), dtype=np.float64)
    feats = rng.normal((3, 8), dtype=np.float64)
    spk = rng.normal((4,), dtype=np.float64)
    x0 = rng.normal((3, 6), dtype=np.float64)
    reports["cfm vector field"] = grad_check(
        lambda: cfm_train_loss(field, [mel], [feats], spk.reshape(1, -1), [rng], t=[0.42], x0=[x0]),
        field.named_parameters(), tolerance=1e-4)

    # Speaker condition encoder (projector + attention pool path).
    tok_cfg = TokenizerConfig(semantic_dim=8, acoustic_dim=8, speaker_frame_dim=8,
                              speaker_global_dim=4, cond_dim=8, codebook_size=8,
                              n_heads=2, attn_blocks=2)
    tok = ParallelTokenizer(tok_cfg, Rng(40), dtype=np.float64)
    rng = Rng(41)
    frames = rng.normal((5, 8), dtype=np.float64)
    target = rng.normal((8,), dtype=np.float64)

    def cond_loss():
        d = tok.cond_encoder(*tok.projected_speaker_frames([frames]))[0] - target
        return (d * d).sum()

    reports["condition encoder"] = grad_check(
        cond_loss,
        {**tok.cond_encoder.named_parameters("cond."), **tok.projector.named_parameters("proj.")},
        tolerance=1e-4)

    elapsed = time.perf_counter() - t0
    failed = [name for name, rep in reports.items() if not rep.passed]
    ok = not failed and elapsed < 60.0
    detail = (f"finite-difference checks at 1e-4 (f64) on {len(reports)} blocks "
              f"({', '.join(reports)}): "
              f"{'all passed' if not failed else 'FAILED ' + ', '.join(failed)}, "
              f"{elapsed:.1f}s (budget 60s)")
    record_criterion(3, ok, detail)
    assert ok, detail + "".join(f"\n{n}: {reports[n]}" for n in failed)


# ---- 4: exact causality ---------------------------------------------------------


def test_criterion_04_ar_causality():
    cfg = ARConfig(text_vocab=12, streams=(("semantic", 8), ("acoustic", 8)),
                   n_layers=2, model_dim=32, n_heads=2, max_text_len=16,
                   max_speech_len=48, seed=0)
    model = DualStreamAR(cfg, Rng(44))
    rng = Rng(45)
    violations = 0
    for _ in range(100):
        n_text = int(rng.integers(2, 6))
        n_ref = int(rng.integers(0, 4))
        n_tgt = int(rng.integers(2, 8))
        text = rng.integers(0, cfg.text_vocab, (n_text,))
        ref = rng.integers(0, 8, (n_ref, 2, 1))
        tgt = rng.integers(0, 8, (n_tgt, 2, 1))
        pos = int(rng.integers(1, n_tgt))           # perturb frame `pos`...
        mutated = tgt.copy()
        s = int(rng.integers(0, 2))
        mutated[pos, s, 0] = (mutated[pos, s, 0] + 1) % 8
        base_stream, _, base_stop, _ = model.teacher_forced_batch([(text, ref, tgt)])
        new_stream, _, new_stop, _ = model.teacher_forced_batch([(text, ref, mutated)])
        for si in range(2):
            # ...then logits for predictions at frames <= pos must be
            # bitwise unchanged (they only see frames < pos+1).
            if not np.array_equal(base_stream[si][0].data[:pos + 1],
                                  new_stream[si][0].data[:pos + 1]):
                violations += 1
        if not np.array_equal(base_stop.data[:pos + 1], new_stop.data[:pos + 1]):
            violations += 1
        # Sanity: the perturbation is visible after the cut, else the
        # check would be vacuous. The stop logits always extend one
        # position past the perturbed frame, so they must change even
        # when the last frame was the one mutated.
        assert not np.array_equal(base_stop.data, new_stop.data)
    ok = violations == 0
    detail = f"100 random perturbation trials, logits at earlier positions bitwise equal: {violations} violations"
    record_criterion(4, ok, detail)
    assert ok, detail


# ---- 5: dual-stream alignment and greedy trace ----------------------------------


def test_criterion_05_dual_stream_alignment():
    cfg = ARConfig(text_vocab=12, streams=(("semantic", 8), ("acoustic", 8)),
                   n_layers=2, model_dim=32, n_heads=2, max_text_len=16,
                   max_speech_len=48, seed=0)
    sampler = DualStreamAR(cfg, Rng(50))
    sampler.stop_head.bias.data[:] = -25.0          # keep sampling alive
    rng = Rng(51)
    text = rng.integers(0, cfg.text_vocab, (4,))
    ref = rng.integers(0, 8, (3, 2, 1))
    length_violations = 0
    for seed in range(200):
        out = sampler.generate(text, ref, seed=seed, top_k=4, max_frames=6)
        if not (out.stream(0).shape[0] == out.stream(1).shape[0] == out.n_frames):
            length_violations += 1

    # Greedy trace: top_k=1 must replay an independent argmax loop exactly.
    trace_failures = 0
    for init in (60, 61, 62):
        model = DualStreamAR(cfg, Rng(init))
        model.stop_head.bias.data[:] = -4.0         # stops occasionally
        got = model.generate(text, ref, seed=0, top_k=1, max_frames=10)
        frames = np.zeros((0, 2, 1), dtype=np.int64)
        terminated = False
        for _ in range(11):
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
        if not (np.array_equal(got.tokens, frames) and got.terminated == terminated):
            trace_failures += 1

    ok = length_violations == 0 and trace_failures == 0
    detail = (f"equal-length streams over 200 seeds: {length_violations} violations; "
              f"greedy top_k=1 trace vs argmax oracle on 3 models: {trace_failures} mismatches")
    record_criterion(5, ok, detail)
    assert ok, detail


# ---- 6: desk-scale overfit -------------------------------------------------------


def test_criterion_06_overfit_acceptance(toy_run):
    bad_rcs = {k: v for k, v in toy_run.rcs.items()
               if k.startswith(("gen-data", "train")) and v != 0}
    report = toy_run.report
    checks = []
    if bad_rcs or report is None:
        stderrs = "; ".join(f"{k}: {toy_run.procs[k].stderr.strip()[-300:]}" for k in bad_rcs)
        ok = False
        detail = f"pipeline runs failed: {bad_rcs} ({stderrs})"
    else:
        tk = report["tokenizer"]
        for name in sorted(tk["recon_mse"]):
            ratio = tk["recon_mse"][name] / tk["input_variance"][name]
            checks.append((f"{name} recon {ratio:.4f}x var < 0.01", ratio < 0.01))
        for name, acc in sorted(report["ar"]["teacher_forced_accuracy"].items()):
            checks.append((f"ar[{name}] {acc:.3f} >= 0.95", acc >= 0.95))
        for layer, acc in sorted(report["nar"]["frame_exact_match"].items()):
            checks.append((f"nar[{layer}] exact {acc:.3f} >= 0.90", acc >= 0.90))
        checks.append((f"wall {toy_run.train_wall:.0f}s < 1800s", toy_run.train_wall < 1800))
        ok = all(passed for _, passed in checks)
        detail = "32-utterance overfit: " + "; ".join(
            ("ok " if passed else "FAIL ") + label for label, passed in checks)
    record_criterion(6, ok, detail)
    assert ok, detail


# ---- 7: factor decoupling --------------------------------------------------------


def test_criterion_07_decoupling_probe(toy_run):
    pipe = load_pipeline(toy_run.ckpt_dir)
    corpus = generate_corpus(toy_profile().data)
    base = corpus.utterances[0]

    voices = [make_utterance(corpus.spec, corpus.factors, base.core_symbols, base.durations,
                             speaker, Rng(700).spawn(("spk", speaker))).bundle for speaker in range(4)]
    grids = [grid[:, 0] for grid in pipe.tokenizer.encode_grids(voices)]
    agreements = [float((g == grids[0]).mean()) for g in grids[1:]]
    full_agreement = all(a == 1.0 for a in agreements)

    items = corpus_items(corpus)
    conds = pipe.tokenizer.speaker_conditions([it.bundle.speaker_frames for it in items])
    labels = np.array([it.speaker_id for it in items])
    sil = silhouette_score(conds, labels)

    ok = full_agreement and sil > 0.5
    detail = (f"semantic tokens across 4 speakers, same text: "
              f"{min(agreements) * 100:.1f}% min frame agreement (need 100%); "
              f"speaker-condition silhouette {sil:.3f} > 0.5")
    record_criterion(7, ok, detail)
    assert ok, detail


# ---- 8: flow solver convergence ---------------------------------------------------


def test_criterion_08_cfm_point_mass_convergence():
    cfg = FlowConfig(mel_bins=8, feature_dim=6, speaker_dim=4, hidden_dim=64,
                     n_hidden=2, time_feat_dim=8, default_steps=32)
    rng = Rng(800)
    field = VelocityField(cfg, rng.spawn("init"))
    mel = rng.spawn("mel").normal((5, 8), dtype=np.float32)
    feats = rng.spawn("feat").normal((5, 6), dtype=np.float32)
    cond = rng.spawn("cond").normal((4,), dtype=np.float32)
    params = dict(field.named_parameters())
    opt = Adam(params)
    names, tensors = list(params), list(params.values())
    n_steps = 1000
    for step in range(n_steps):
        srng = rng.spawn(("step", step))
        loss = cfm_train_loss(field, [mel] * 4, [feats] * 4, np.stack([cond] * 4),
                              [srng.spawn(("s", j)) for j in range(4)])
        grads = dict(zip(names, gradients(loss, tensors)))
        opt.step(grads, 3e-3 * 0.5 * (1 + math.cos(math.pi * step / n_steps)) + 1e-5)

    def mse_at(n):
        errs = [float(((sample_mel(field, feats, cond, SolverConfig(n_steps=n, seed=s)) - mel) ** 2).mean())
                for s in range(16)]
        return float(np.mean(errs))

    curve = {n: mse_at(n) for n in (1, 4, 16, 32, 64)}
    monotone = all(curve[b] <= curve[a] for a, b in ((1, 4), (4, 16), (16, 64)))
    ok = curve[32] < 0.05 and monotone
    detail = ("point-mass overfit: " +
              " ".join(f"mse@{n}={curve[n]:.2e}" for n in (1, 4, 16, 32, 64)) +
              f"; @32 < 0.05 {'ok' if curve[32] < 0.05 else 'FAIL'}; "
              f"non-increasing over {{1,4,16,64}} {'ok' if monotone else 'FAIL'} (16 seeds)")
    record_criterion(8, ok, detail)
    assert ok, detail


# ---- 9: loss identities -------------------------------------------------------------


def test_criterion_09_loss_identities():
    checks = []

    for k in (2, 8, 64):
        logits = Tensor(np.zeros((3, k), dtype=np.float64))
        ce = float(cross_entropy(logits, np.zeros(3, dtype=np.int64)).data)
        checks.append((f"uniform CE(K={k}) == ln {k}", abs(ce - math.log(k)) < 1e-6))

    ar_cfg = ARConfig(text_vocab=10, streams=(("semantic", 6), ("acoustic", 6)),
                      n_layers=1, model_dim=16, n_heads=2, max_text_len=8,
                      max_speech_len=16, seed=0)
    ar = DualStreamAR(ar_cfg, Rng(90))
    rng = Rng(91)
    row = (rng.integers(0, 10, (3,)), rng.integers(0, 6, (2, 2, 1)), rng.integers(0, 6, (4, 2, 1)))
    out = ar.ar_loss(*ar.teacher_forced_batch([row]))
    total = out["total"].data
    parts = (out["L_semantic"].data + out["L_acoustic"].data) + out["L_stop"].data
    checks.append(("generator total == L_semantic + L_acoustic + L_stop (exact)",
                   total == parts))

    nar_cfg = NARConfig(streams=(("semantic", 6), ("acoustic", 6)), n_quant_layers=3,
                        n_layers=1, model_dim=16, n_heads=2, max_ref_len=12,
                        max_target_len=12, seed=0)
    nar = CoupledNAR(nar_cfg, Rng(92))
    grid = lambda t: np.stack([rng.integers(0, 6, (t, 3)) for _ in range(2)], axis=1)
    nl = nar.nar_loss([(grid(3), grid(4))])
    nar_exact = nl["total"].data == nl["L_second"].data + nl["L_third"].data
    checks.append(("refiner total == L_second + L_third (exact)", nar_exact))

    ok = all(passed for _, passed in checks)
    detail = "; ".join(("ok " if passed else "FAIL ") + label for label, passed in checks)
    record_criterion(9, ok, detail)
    assert ok, detail


# ---- 10: serialization round-trips and fuzz ------------------------------------------


def _random_config_doc(rng, depth=0):
    kinds = ["int", "float", "str", "bool", "null"]
    if depth < 2:
        kinds += ["dict", "list"]
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "int":
        return int(rng.integers(-1000, 1000))
    if kind == "float":
        return float(np.round(rng.normal(()), 6))
    if kind == "str":
        return "".join(chr(97 + int(rng.integers(0, 26))) for _ in range(int(rng.integers(0, 8))))
    if kind == "bool":
        return bool(rng.integers(0, 2))
    if kind == "null":
        return None
    if kind == "list":
        return [_random_config_doc(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    return {f"k{i}": _random_config_doc(rng, depth + 1)
            for i in range(int(rng.integers(0, 4)))}


def _random_array(rng, dtype):
    rank = int(rng.integers(0, 4))
    shape = tuple(int(rng.integers(0, 5)) for _ in range(rank))
    if dtype == np.int64:
        return np.asarray(rng.integers(-10**6, 10**6, shape), dtype=np.int64)
    return rng.normal(shape).astype(dtype)


def _random_bundle(rng):
    t = int(rng.integers(1, 7))
    dims = [int(rng.integers(1, 6)) for _ in range(4)]
    n_sym = int(rng.integers(1, 5))
    return FeatureBundle(
        semantic=rng.normal((t, dims[0]), dtype=np.float32),
        acoustic=rng.normal((t, dims[1]), dtype=np.float32),
        speaker_frames=rng.normal((t, dims[2]), dtype=np.float32),
        speaker_global=rng.normal((dims[3],), dtype=np.float32),
        mel=rng.normal((t, 4), dtype=np.float32),
        symbols=np.concatenate([[1], rng.integers(3, 40, (n_sym,)), [2]]).astype(np.int64),
    )


def test_criterion_10_serialization_fuzz(tmp_path):
    rng = Rng(1000)
    failures = []
    n_feature_cases = 250
    n_ckpt_cases = 250
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"

    for case in range(n_feature_cases):
        crng = rng.spawn(("feat", case))
        try:
            if case % 5 == 0:
                bundle = _random_bundle(crng)
                save_features(p1, bundle)
                back = load_features(p1)
                for name in ("semantic", "acoustic", "speaker_frames",
                             "speaker_global", "mel", "symbols"):
                    a, b = getattr(bundle, name), getattr(back, name)
                    if a.dtype != b.dtype or a.shape != b.shape or not np.array_equal(a, b):
                        raise AssertionError(f"bundle field {name} changed")
                save_features(p2, back)
            else:
                arrays = {f"arr{i}": _random_array(crng, np.float32)
                          for i in range(int(crng.integers(0, 5)))}
                save_arrays(p1, arrays)
                back = load_arrays(p1)
                if sorted(back) != sorted(arrays):
                    raise AssertionError("array names changed")
                for name, arr in arrays.items():
                    if back[name].shape != arr.shape or not np.array_equal(back[name], arr):
                        raise AssertionError(f"array {name} changed")
                save_arrays(p2, back)
            if p1.read_bytes() != p2.read_bytes():
                raise AssertionError("second save not byte-identical")
        except Exception as e:  # noqa: BLE001 - fuzz harness records everything
            failures.append(f"feature case {case}: {e}")

    dtypes = (np.float32, np.float64, np.int64)
    for case in range(n_ckpt_cases):
        crng = rng.spawn(("ckpt", case))
        try:
            params = {f"p{i}.w": _random_array(crng, dtypes[int(crng.integers(0, 3))])
                      for i in range(int(crng.integers(0, 6)))}
            ckpt = Checkpoint(
                stage=("tokenizer", "ar", "nar", "flow")[int(crng.integers(0, 4))],
                config={f"k{i}": _random_config_doc(crng) for i in range(int(crng.integers(0, 4)))},
                params=params)
            save_checkpoint(p1, ckpt)
            back = load_checkpoint(p1)
            if back.stage != ckpt.stage or back.config != ckpt.config:
                raise AssertionError("stage or config changed")
            if sorted(back.params) != sorted(ckpt.params):
                raise AssertionError("param names changed")
            for name, arr in ckpt.params.items():
                got = back.params[name]
                if got.dtype != arr.dtype or got.shape != arr.shape or not np.array_equal(got, arr):
                    raise AssertionError(f"param {name} changed")
            save_checkpoint(p2, back)
            if p1.read_bytes() != p2.read_bytes():
                raise AssertionError("second save not byte-identical")
        except Exception as e:  # noqa: BLE001
            failures.append(f"checkpoint case {case}: {e}")

    total = n_feature_cases + n_ckpt_cases
    ok = not failures
    detail = (f"{total} round-trip fuzz cases ({n_feature_cases} feature files, "
              f"{n_ckpt_cases} checkpoints): {len(failures)} failures")
    record_criterion(10, ok, detail)
    assert ok, detail + "".join("\n" + f for f in failures[:5])


# ---- 11: end-to-end smoke -------------------------------------------------------------


def test_criterion_11_end_to_end_smoke(toy_run):
    bad_rcs = {k: v for k, v in toy_run.rcs.items() if v != 0}
    mel_ok = False
    frames = bins = -1
    if not bad_rcs and toy_run.mel_path.exists():
        arrays = load_arrays(toy_run.mel_path)
        mel = arrays.get("mel")
        if mel is not None and mel.ndim == 2:
            frames, bins = mel.shape
            mel_ok = (bins == toy_run.pcfg.data.mel_bins and frames > 0
                      and bool(np.isfinite(mel).all()))
    ok = not bad_rcs and mel_ok
    if bad_rcs:
        stderrs = "; ".join(f"{k}: {toy_run.procs[k].stderr.strip()[-200:]}" for k in bad_rcs)
        detail = f"command failures {bad_rcs} ({stderrs})"
    else:
        detail = (f"gen-data, 4x train, infer, eval all exit 0; "
                  f"mel file {'valid' if mel_ok else 'INVALID'} "
                  f"({frames} frames x {bins} bins, finite)")
    record_criterion(11, ok, detail)
    assert ok, detail
