"""Synthetic corpus properties, text symbols, feature-file round trips."""

import numpy as np
import pytest

from paravox.engine import Rng
from paravox.frontend import (
    BOS_ID,
    EOS_ID,
    FORMAT_VERSION,
    MAGIC,
    REQUIRED_ARRAYS,
    FeatureBundle,
    FeatureFileError,
    InvariantError,
    MagicError,
    SyntheticSpec,
    TruncatedFileError,
    UnknownSymbolError,
    VersionError,
    Vocabulary,
    default_alphabet,
    generate_corpus,
    load_arrays,
    load_features,
    make_utterance,
    save_arrays,
    save_features,
)
from paravox.probes import silhouette_score


def linear_probe_accuracy(features: np.ndarray, labels: np.ndarray, rng: Rng,
                          train_frac: float = 0.5) -> float:
    """Held-out accuracy of a least-squares probe onto one-hot labels.

    Rows are split into train/eval halves with a seeded shuffle; the
    probe is ridge-free lstsq, evaluated by argmax on the eval half.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n = features.shape[0]
    classes, y = np.unique(labels, return_inverse=True)
    perm = rng.permutation(n)
    cut = max(1, int(n * train_frac))
    tr, ev = perm[:cut], perm[cut:]
    x = np.hstack([features, np.ones((n, 1))])  # bias column
    onehot = np.eye(len(classes))[y]
    w, *_ = np.linalg.lstsq(x[tr], onehot[tr], rcond=None)
    pred = np.argmax(x[ev] @ w, axis=1)
    return float((pred == y[ev]).mean())


def small_spec(**kw):
    base = dict(vocab_size=8, n_speakers=3, n_utterances=12, seed=11,
                semantic_dim=16, acoustic_dim=16, speaker_frame_dim=16,
                speaker_global_dim=8, mel_bins=12)
    base.update(kw)
    return SyntheticSpec(**base)


# ---- text -----------------------------------------------------------------


def test_vocab_single_char():
    v = Vocabulary("a")
    assert v.encode("aa").tolist() == [BOS_ID, 3, 3, EOS_ID]


def test_vocab_empty_text():
    v = Vocabulary("ab")
    assert v.encode("").tolist() == [BOS_ID, EOS_ID]


def test_vocab_roundtrip():
    v = Vocabulary(default_alphabet(30))
    text = "hello there"
    assert v.decode(v.encode(text)) == text


def test_vocab_unknown_symbol_named_in_error():
    v = Vocabulary("ab")
    with pytest.raises(UnknownSymbolError, match="'z'"):
        v.encode("az")


# ---- corpus ---------------------------------------------------------------


def test_corpus_deterministic():
    a = generate_corpus(small_spec())
    b = generate_corpus(small_spec())
    assert len(a) == 12
    for ua, ub in zip(a.utterances, b.utterances):
        assert np.array_equal(ua.bundle.semantic, ub.bundle.semantic)
        assert np.array_equal(ua.bundle.mel, ub.bundle.mel)
        assert ua.speaker_id == ub.speaker_id


def test_corpus_seed_changes_content():
    a = generate_corpus(small_spec())
    b = generate_corpus(small_spec(seed=12))
    assert not np.array_equal(a.utterances[0].bundle.semantic, b.utterances[0].bundle.semantic)


def test_frame_counts_and_dims_conform():
    corpus = generate_corpus(small_spec())
    for u in corpus.utterances:
        b = u.bundle
        b.validate()
        t = b.n_frames
        assert b.acoustic.shape == (t, 16)
        assert b.speaker_frames.shape == (t, 16)
        assert b.mel.shape == (t, 12)
        assert b.speaker_global.shape == (8,)
        assert t == u.durations.sum() <= corpus.spec.max_frames
        assert b.symbols[0] == BOS_ID and b.symbols[-1] == EOS_ID
        assert np.array_equal(b.symbols[1:-1], u.core_symbols)


def test_repeated_symbol_zero_noise_gives_identical_semantic_frames():
    spec = small_spec(noise_scale=0.0)
    corpus = generate_corpus(spec)
    u = make_utterance(spec, corpus.factors, np.array([5, 5, 5]), np.array([2, 2, 2]), 0, Rng(3))
    first = u.bundle.semantic[0]
    assert np.array_equal(u.bundle.semantic, np.tile(first, (6, 1)))


def test_mel_is_projection_of_emitted_features():
    corpus = generate_corpus(small_spec(noise_scale=0.1))
    u = corpus.utterances[0]
    stacked = np.concatenate([u.bundle.semantic, u.bundle.acoustic], axis=1)
    expect = stacked @ corpus.factors.mel_projection.T
    assert np.allclose(u.bundle.mel, expect, atol=1e-5)


def test_same_text_different_speakers_same_semantic():
    spec = small_spec(noise_scale=0.0)
    corpus = generate_corpus(spec)
    syms, durs = np.array([4, 6, 7]), np.array([2, 3, 2])
    u0 = make_utterance(spec, corpus.factors, syms, durs, 0, Rng(1))
    u1 = make_utterance(spec, corpus.factors, syms, durs, 1, Rng(2))
    assert np.array_equal(u0.bundle.semantic, u1.bundle.semantic)
    assert not np.allclose(u0.bundle.acoustic, u1.bundle.acoustic)
    assert not np.allclose(u0.bundle.speaker_global, u1.bundle.speaker_global)


def test_semantic_predicts_symbols_not_speaker():
    spec = small_spec(n_utterances=24, noise_scale=0.05)
    corpus = generate_corpus(spec)
    frames = np.vstack([u.bundle.semantic for u in corpus.utterances])
    symbol_labels = np.concatenate([u.frame_symbols for u in corpus.utterances])
    speaker_labels = np.concatenate([np.full(u.bundle.n_frames, u.speaker_id) for u in corpus.utterances])
    rng = Rng(0)
    sym_acc = linear_probe_accuracy(frames, symbol_labels, rng)
    spk_acc = linear_probe_accuracy(frames, speaker_labels, rng)
    assert sym_acc >= 0.90
    chance = 1.0 / spec.n_speakers
    assert spk_acc <= chance + 0.10


def test_speaker_global_predicts_speaker_not_symbols():
    spec = small_spec(n_utterances=24, noise_scale=0.05)
    corpus = generate_corpus(spec)
    rows = np.vstack([np.tile(u.bundle.speaker_global, (u.bundle.n_frames, 1)) for u in corpus.utterances])
    symbol_labels = np.concatenate([u.frame_symbols for u in corpus.utterances])
    speaker_labels = np.concatenate([np.full(u.bundle.n_frames, u.speaker_id) for u in corpus.utterances])
    rng = Rng(1)
    assert linear_probe_accuracy(rows, speaker_labels, rng) >= 0.99
    sym_acc = linear_probe_accuracy(rows, symbol_labels, rng)
    assert sym_acc <= 1.0 / spec.vocab_size + 0.10


def test_make_utterance_input_validation():
    spec = small_spec()
    corpus = generate_corpus(spec)
    with pytest.raises(ValueError, match="symbols must lie"):
        make_utterance(spec, corpus.factors, np.array([0]), np.array([2]), 0, Rng(0))
    with pytest.raises(ValueError, match="speaker_id"):
        make_utterance(spec, corpus.factors, np.array([4]), np.array([2]), 99, Rng(0))
    with pytest.raises(ValueError, match="max_frames"):
        make_utterance(spec, corpus.factors, np.array([4]), np.array([1000]), 0, Rng(0))
    with pytest.raises(ValueError, match="0 frames"):
        make_utterance(spec, corpus.factors, np.array([4, 5]), np.array([0, 0]), 0, Rng(0))


def test_spec_validation():
    with pytest.raises(ValueError, match="vocab_size"):
        SyntheticSpec(vocab_size=0).validate()
    with pytest.raises(ValueError, match="frames_per_symbol"):
        SyntheticSpec(frames_per_symbol=(3, 2)).validate()
    with pytest.raises(ValueError, match="max_frames"):
        SyntheticSpec(symbols_per_utterance=(64, 64), frames_per_symbol=(3, 3), max_frames=128).validate()


# ---- silhouette sanity ------------------------------------------------------


def test_silhouette_separated_vs_mixed():
    rng = Rng(5)
    tight = np.vstack([rng.normal((20, 4), 0.05) + off for off in (0.0, 5.0, -5.0)])
    labels = np.repeat([0, 1, 2], 20)
    assert silhouette_score(tight, labels) > 0.9
    mixed = rng.normal((60, 4))
    assert silhouette_score(mixed, labels) < 0.2


# ---- feature files ----------------------------------------------------------


def random_bundle(rng, t=7, ds=5, da=4, dsp=3, dg=6, m=8):
    return FeatureBundle(
        semantic=rng.normal((t, ds), dtype=np.float32),
        acoustic=rng.normal((t, da), dtype=np.float32),
        speaker_frames=rng.normal((t, dsp), dtype=np.float32),
        speaker_global=rng.normal((dg,), dtype=np.float32),
        mel=rng.normal((t, m), dtype=np.float32),
        symbols=np.array([BOS_ID, 3, 4, 5, EOS_ID], dtype=np.int64),
    )


def test_bundle_roundtrip_bitwise(tmp_path):
    rng = Rng(6)
    bundle = random_bundle(rng)
    path = tmp_path / "utt.feat"
    save_features(path, bundle)
    loaded = load_features(path)
    for name in ("semantic", "acoustic", "speaker_frames", "speaker_global", "mel"):
        a, b = getattr(bundle, name), getattr(loaded, name)
        assert a.dtype == b.dtype == np.float32
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(bundle.symbols, loaded.symbols)


def test_save_load_save_identical_bytes(tmp_path):
    rng = Rng(7)
    p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
    save_features(p1, random_bundle(rng))
    save_features(p2, load_features(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout():
    import struct

    path = "/tmp/_pv_header_probe.feat"
    save_arrays(path, {"x": np.zeros((2, 3), dtype=np.float32)})
    raw = open(path, "rb").read()
    assert raw[:8] == MAGIC
    version, count = struct.unpack("<II", raw[8:16])
    assert (version, count) == (FORMAT_VERSION, 1)
    name_len = struct.unpack("<H", raw[16:18])[0]
    assert raw[18:18 + name_len] == b"x"
    dtype_code, rank = raw[19], raw[20]
    assert (dtype_code, rank) == (0, 2)
    assert struct.unpack("<2Q", raw[21:37]) == (2, 3)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(MagicError):
        load_arrays(path)


def test_version_mismatch(tmp_path):
    rng = Rng(8)
    path = tmp_path / "v.feat"
    save_features(path, random_bundle(rng))
    raw = bytearray(path.read_bytes())
    raw[8] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_arrays(path)


def test_truncated_file(tmp_path):
    rng = Rng(9)
    path = tmp_path / "t.feat"
    save_features(path, random_bundle(rng))
    raw = path.read_bytes()
    for cut in (4, 12, 20, len(raw) // 2, len(raw) - 3):
        path.write_bytes(raw[:cut])
        with pytest.raises(TruncatedFileError):
            load_arrays(path)


def test_container_error_messages(tmp_path):
    path = tmp_path / "x.feat"
    save_arrays(path, {"x": np.zeros((2, 3), dtype=np.float32)})
    raw = path.read_bytes()   # the record's name is byte 18, its dtype code byte 19, its data starts at 37
    cases = [
        (raw[:-3], TruncatedFileError, "file ends inside data of 'x' (needed 24 bytes at offset 37)"),
        (raw + b"\0", FeatureFileError, "1 trailing bytes after last array"),
        (raw[:19] + b"\x07" + raw[20:], FeatureFileError, "array 'x': unknown dtype code 7"),
        (raw[:18] + b"\xff" + raw[19:], FeatureFileError, "array name at offset 18 is not UTF-8"),
    ]
    for data, error, message in cases:
        path.write_bytes(data)
        with pytest.raises(error) as info:
            load_arrays(path)
        assert str(info.value) == message


def test_missing_required_array(tmp_path):
    rng = Rng(10)
    path = tmp_path / "m.feat"
    b = random_bundle(rng)
    save_arrays(path, {"semantic": b.semantic, "acoustic": b.acoustic})
    with pytest.raises(InvariantError, match="speaker_frames"):
        load_features(path)


def test_frame_count_mismatch_names_arrays(tmp_path):
    rng = Rng(11)
    b = random_bundle(rng)
    b.mel = b.mel[:-2]
    with pytest.raises(InvariantError, match="mel"):
        b.validate()


def test_zero_frame_bundle_refused(tmp_path):
    """A bundle without frames is refused when validated, saved or loaded."""
    b = random_bundle(Rng(14), t=0)
    with pytest.raises(InvariantError, match="no frames"):
        b.validate()
    path = tmp_path / "empty.feat"
    with pytest.raises(InvariantError, match="no frames"):
        save_features(path, b)
    save_arrays(path, {name: getattr(b, name) for name in REQUIRED_ARRAYS})
    with pytest.raises(InvariantError, match="no frames"):
        load_features(path)


def test_nonfinite_rejected():
    rng = Rng(12)
    b = random_bundle(rng)
    b.acoustic[0, 0] = np.nan
    with pytest.raises(InvariantError, match="acoustic"):
        b.validate()


def test_fuzz_roundtrip_100_cases(tmp_path):
    rng = Rng(13)
    path = tmp_path / "fuzz.feat"
    for case in range(100):
        t = int(rng.integers(1, 40))
        bundle = FeatureBundle(
            semantic=rng.normal((t, int(rng.integers(1, 12))), dtype=np.float32),
            acoustic=rng.normal((t, int(rng.integers(1, 12))), dtype=np.float32),
            speaker_frames=rng.normal((t, int(rng.integers(1, 12))), dtype=np.float32),
            speaker_global=rng.normal((int(rng.integers(1, 12)),), dtype=np.float32),
            mel=rng.normal((t, int(rng.integers(1, 12))), dtype=np.float32),
            symbols=np.concatenate([[BOS_ID], rng.integers(3, 30, (int(rng.integers(1, 9)),)), [EOS_ID]]).astype(np.int64),
        )
        save_features(path, bundle)
        loaded = load_features(path)
        for name in ("semantic", "acoustic", "speaker_frames", "speaker_global", "mel"):
            assert getattr(bundle, name).tobytes() == getattr(loaded, name).tobytes()
        assert np.array_equal(bundle.symbols, loaded.symbols)
