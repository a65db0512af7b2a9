"""Golden digests of the on-disk formats.

The round-trip tests compare the writers only with their own readers;
these pin the exact bytes a feature file, a mel output and a stage
checkpoint hold, so a change to the container cannot move them
unnoticed. Every array is drawn from a fixed-seed `Rng` (Philox), which
gives the same values on every platform.
"""

from __future__ import annotations

import hashlib

import numpy as np

from paravox.engine import Rng
from paravox.frontend import BOS_ID, EOS_ID, FeatureBundle, save_features
from paravox.pipeline.checkpoint import Checkpoint, save_checkpoint
from paravox.pipeline.infer import InferenceResult, ParallelTokens, write_mel_file

FEATURE_SHA256 = "a0cc22abc8a0a5a64e48db94476f8f0acdc5593492c49529968484e387009960"
MEL_SHA256 = "3ec6ef897dc0cac6325948e34179d78cba41d00b8bcb7a570f1f61dce22e2e8f"
CHECKPOINT_SHA256 = "f0992923c31ad36e354b06d46fa102fe5382f5ab743fb6ffdba1061dd9fa37c8"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_feature_file_bytes_are_pinned(tmp_path):
    rng = Rng(2024)
    t = 7
    bundle = FeatureBundle(
        semantic=rng.spawn("semantic").normal((t, 5), dtype=np.float32),
        acoustic=rng.spawn("acoustic").normal((t, 4), dtype=np.float32),
        speaker_frames=rng.spawn("frames").normal((t, 3), dtype=np.float32),
        speaker_global=rng.spawn("global").normal((6,), dtype=np.float32),
        mel=rng.spawn("mel").normal((t, 8), dtype=np.float32),
        symbols=np.concatenate([[BOS_ID], rng.spawn("symbols").integers(3, 30, (4,)), [EOS_ID]]).astype(np.int64),
    )
    path = tmp_path / "utt.feat"
    save_features(path, bundle)
    assert _sha256(path) == FEATURE_SHA256


def test_mel_file_bytes_are_pinned(tmp_path):
    rng = Rng(2025)
    t = 9
    tokens = ParallelTokens(semantic=rng.spawn("semantic").integers(0, 64, (t, 3)),
                            acoustic=rng.spawn("acoustic").integers(0, 64, (t, 3)))
    result = InferenceResult(tokens=tokens, mel=rng.spawn("mel").normal((t, 8), dtype=np.float32),
                             metadata={})
    path = tmp_path / "out.feat"
    write_mel_file(path, result)
    assert _sha256(path) == MEL_SHA256


def test_checkpoint_bytes_are_pinned(tmp_path):
    rng = Rng(2026)
    params = {}
    for dtype in (np.float32, np.float64, np.int64):
        for rank in range(4):
            shape = (2, 3, 4)[:rank]
            drng = rng.spawn((np.dtype(dtype).name, rank))
            arr = (drng.integers(-10**6, 10**6, shape) if dtype == np.int64
                   else drng.normal(shape, dtype=np.float64))
            params[f"{np.dtype(dtype).name}.rank{rank}"] = np.asarray(arr, dtype=dtype)
    params["empty"] = np.zeros((3, 0, 2), dtype=np.float32)
    config = {"name": "golden", "ar": {"temperature": 0.75, "n_layers": 2},
              "streams": [["semantic", 64], ["acoustic", 64]], "note": "tag é", "off": None}
    path = tmp_path / "nar.ckpt"
    save_checkpoint(path, Checkpoint(stage="nar", config=config, params=params))
    assert _sha256(path) == CHECKPOINT_SHA256
