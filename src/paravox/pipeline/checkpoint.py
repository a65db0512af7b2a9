"""Binary checkpoint container for trained stages.

Layout (little-endian): magic "PVOXCKPT", u32 format version, then a
length-prefixed stage tag and canonical-JSON config snapshot, followed
by u32 parameter count and the parameter blobs sorted by name: u16
name length, name bytes, u8 dtype code (0=f32, 1=f64, 2=i64), u8 rank,
u64 dims, raw array data.

Canonical JSON (sorted keys, fixed separators) plus name-sorted blobs
makes save -> load -> save reproduce the file byte for byte, which is
what the stage-freezing guarantee is checked against.

Version 3 stores each attention layer's packed query/key/value
projection as one `attn.wqkv` parameter pair; files of an older
version (separate `attn.wq`, `attn.wk`, `attn.wv`) fail the version
check.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"PVOXCKPT"
FORMAT_VERSION = 3

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}
_CODES_BY_KIND = {("f", 4): 0, ("f", 8): 1, ("i", 8): 2}


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


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def _dtype_code(arr: np.ndarray) -> int:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _CODES_BY_KIND:
        raise CheckpointError(f"unsupported parameter dtype {arr.dtype}")
    return _CODES_BY_KIND[key]


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    stage = ckpt.stage.encode()
    out += struct.pack("<H", len(stage)) + stage
    cfg = _canonical_json(ckpt.config)
    out += struct.pack("<Q", len(cfg)) + cfg
    out += struct.pack("<I", len(ckpt.params))
    for name in sorted(ckpt.params):
        # asarray, not ascontiguousarray: the latter promotes rank-0 to
        # rank-1, and tobytes() already serializes in C order.
        arr = np.asarray(ckpt.params[name])
        code = _dtype_code(arr)
        nm = name.encode()
        out += struct.pack("<H", len(nm)) + nm
        out += struct.pack("<BB", code, arr.ndim)
        out += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        out += arr.astype(_DTYPE_CODES[code], copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint "
                                  f"(wanted {n} bytes at offset {self.off})")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic; not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    (stage_len,) = r.unpack("<H")
    stage = r.take(stage_len).decode()
    (cfg_len,) = r.unpack("<Q")
    config = json.loads(r.take(cfg_len).decode())
    (n_params,) = r.unpack("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = r.unpack("<H")
        name = r.take(name_len).decode()
        code, rank = r.unpack("<BB")
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{path}: parameter {name!r} has unknown dtype code {code}")
        shape = r.unpack(f"<{rank}Q") if rank else ()
        dtype = _DTYPE_CODES[code]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        data = r.take(count * dtype.itemsize)
        params[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    if r.off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - r.off} trailing bytes after parameters")
    return Checkpoint(stage=stage, config=config, params=params)


def load_stage_checkpoint(path, stage: str) -> Checkpoint:
    """`load_checkpoint(path)`, once its stage tag is `stage`."""
    ckpt = load_checkpoint(path)
    if ckpt.stage != stage:
        raise IncompatibleCheckpoints(f"{path} holds a {ckpt.stage!r} checkpoint, expected {stage!r}")
    return ckpt
