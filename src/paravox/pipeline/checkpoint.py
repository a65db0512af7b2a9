"""Binary checkpoint container for trained stages.

Layout (little-endian): magic "PVOXCKPT", u32 format version, a u16
length-prefixed stage tag and a u64 length-prefixed canonical-JSON
config, then the parameters, sorted by name, in the array records of
`frontend.pack_records` with dtype codes 0=f32, 1=f64, 2=i64.

Canonical JSON (sorted keys, fixed separators) plus name-sorted records
makes save -> load -> save reproduce the file byte for byte, which is
what the stage-freezing guarantee is checked against.

Version 3 stores each attention layer's packed query/key/value
projection as one `attn.wqkv` parameter pair; files of an older
version (separate `attn.wq`, `attn.wk`, `attn.wv`) fail the version
check.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..frontend import RecordReader, pack_records

MAGIC = b"PVOXCKPT"
FORMAT_VERSION = 3

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}
_CODES = {dtype: code for code, dtype in _DTYPES.items()}


class CheckpointError(ValueError):
    """A checkpoint file is malformed or does not match expectations."""


class IncompatibleCheckpoints(ValueError):
    """A checkpoint belongs to another stage, or stage checkpoints disagree
    on the config; the message names the stage tags or the fields."""


@dataclass
class Checkpoint:
    stage: str
    config: dict
    params: dict[str, np.ndarray]

    def describe(self) -> str:
        lines = [f"stage: {self.stage}",
                 f"format: v{FORMAT_VERSION}",
                 f"config: {self.config.get('name', '?')} "
                 f"({len(json.dumps(self.config))} bytes of JSON)",
                 f"parameters: {len(self.params)} arrays, "
                 f"{sum(int(np.prod(a.shape)) for a in self.params.values())} values"]
        for name in sorted(self.params):
            a = self.params[name]
            lines.append(f"  {name}: {a.dtype.name}{list(a.shape)}")
        return "\n".join(lines)


def _record_array(arr) -> np.ndarray:
    """`arr` in the little-endian dtype of its record code."""
    arr = np.asarray(arr)
    dtype = arr.dtype.newbyteorder("<")
    if dtype not in _CODES:
        raise CheckpointError(f"unsupported parameter dtype {arr.dtype}")
    return arr.astype(dtype, copy=False)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    out = bytearray(MAGIC)
    out += struct.pack("<I", FORMAT_VERSION)
    stage = ckpt.stage.encode()
    out += struct.pack("<H", len(stage)) + stage
    cfg = json.dumps(ckpt.config, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()
    out += struct.pack("<Q", len(cfg)) + cfg
    pack_records(out, {name: _record_array(ckpt.params[name]) for name in sorted(ckpt.params)}, _CODES)
    with open(path, "wb") as fh:
        fh.write(out)


class _Reader(RecordReader):
    """A record reader whose errors are `CheckpointError`s naming the file."""

    def __init__(self, blob: bytes, path):
        super().__init__(blob)
        self.path = path

    def truncated(self, n: int, what: str) -> Exception:
        return CheckpointError(f"{self.path}: truncated checkpoint (wanted {n} bytes at offset {self.pos})")

    def unknown_dtype(self, name: str, code: int) -> Exception:
        return CheckpointError(f"{self.path}: parameter {name!r} has unknown dtype code {code}")

    def trailing(self) -> Exception:
        return CheckpointError(f"{self.path}: {len(self.buf) - self.pos} trailing bytes after parameters")

    def bad_name(self, offset: int) -> Exception:
        return CheckpointError(f"{self.path}: parameter name at offset {offset} is not UTF-8")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at `path`. Its parameters are writable views of one
    buffer the file is read into, not aligned copies; `load_state` copies."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        r = _Reader(memoryview(blob)[:fh.readinto(blob)], path)
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    (version,) = r.unpack("<I", "version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (stage_len,) = r.unpack("<H", "stage tag length")
    try:
        stage = str(r.take(stage_len, "stage tag"), "utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: stage tag is not UTF-8") from None
    (cfg_len,) = r.unpack("<Q", "config length")
    config = r.take(cfg_len, "config")
    try:
        config = json.loads(str(config, "utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise CheckpointError(f"{path}: config is not JSON: {e}") from None
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: config is a JSON {type(config).__name__}, not an object")
    return Checkpoint(stage=stage, config=config, params=r.records(_DTYPES, copy=False))


def load_stage_checkpoint(path, stage: str) -> Checkpoint:
    """`load_checkpoint(path)`, once its stage tag is `stage`."""
    ckpt = load_checkpoint(path)
    if ckpt.stage != stage:
        raise IncompatibleCheckpoints(f"{path} holds a {ckpt.stage!r} checkpoint, expected {stage!r}")
    return ckpt
