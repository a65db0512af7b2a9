"""Synthetic speech-feature corpora, text symbols, and feature-file IO.

Real deployments would feed SSL speech embeddings, speaker-verification
frames, and mel spectrograms. Here a seeded generator fabricates all of
them from known latent factors (symbol templates, speaker latents, a
prosody walk) so that downstream models can be tested against ground
truth. Frame rate is uniform across all per-frame arrays.

Feature files are a little-endian binary container: magic "PGPTFEAT",
u32 version 1, then the array records of `pack_records`, all with dtype
code 0 = f32. Stage checkpoints store their parameters in the same
records.

A bundle file stores exactly the six required arrays; `symbols` is
stored f32-cast (exact for any realistic id range).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .engine import Rng, check_fields

MAGIC = b"PGPTFEAT"
FORMAT_VERSION = 1

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
N_RESERVED = 3

REQUIRED_ARRAYS = ("semantic", "acoustic", "speaker_frames", "speaker_global", "mel", "symbols")

class FeatureFileError(Exception):
    """Base class for feature-file parse failures."""


class MagicError(FeatureFileError):
    pass


class VersionError(FeatureFileError):
    pass


class TruncatedFileError(FeatureFileError):
    pass


class InvariantError(FeatureFileError):
    """Bundle-level consistency violation (names the offending arrays)."""


class UnknownSymbolError(KeyError):
    pass


# ---- text ---------------------------------------------------------------


class Vocabulary:
    """Maps text characters to integer symbol ids, reserving 0/1/2.

    Id 0 is padding, 1 begins a sequence, 2 ends it; content symbols
    start at 3 in alphabet order.
    """

    def __init__(self, alphabet: str):
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet contains duplicate characters")
        self.alphabet = alphabet
        self._to_id = {ch: N_RESERVED + i for i, ch in enumerate(alphabet)}
        self._to_char = {i: ch for ch, i in self._to_id.items()}

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def encode(self, text: str) -> np.ndarray:
        """BOS-framed integer symbol sequence; empty text gives [BOS, EOS]."""
        ids = [BOS_ID]
        for ch in text:
            if ch not in self._to_id:
                raise UnknownSymbolError(f"symbol {ch!r} not in vocabulary {self.alphabet!r}")
            ids.append(self._to_id[ch])
        ids.append(EOS_ID)
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids) -> str:
        chars = []
        for i in np.asarray(ids).tolist():
            if i in (PAD_ID, BOS_ID, EOS_ID):
                continue
            if i not in self._to_char:
                raise UnknownSymbolError(f"id {i} not in vocabulary of size {self.size}")
            chars.append(self._to_char[i])
        return "".join(chars)


def check_framed(ids: np.ndarray, what: str) -> None:
    """Refuse `what`, a 1-D id row, unless it is framed as `Vocabulary.encode` frames text."""
    if ids.size < 2 or ids[0] != BOS_ID or ids[-1] != EOS_ID:
        raise ValueError(f"{what} must start with the begin mark and end with the end mark")


def default_alphabet(vocab_size: int) -> str:
    base = "abcdefghijklmnopqrstuvwxyz .,!?-'0123456789"
    if vocab_size > len(base):
        raise ValueError(f"built-in alphabet supports up to {len(base)} symbols, asked for {vocab_size}")
    return base[:vocab_size]


# ---- bundles --------------------------------------------------------------


@dataclass
class FeatureBundle:
    """One utterance worth of aligned features, all at the same frame rate."""

    semantic: np.ndarray        # (T, Ds) f32
    acoustic: np.ndarray        # (T, Da) f32
    speaker_frames: np.ndarray  # (T, Dsp) f32
    speaker_global: np.ndarray  # (Dg,) f32
    mel: np.ndarray             # (T, M) f32
    symbols: np.ndarray         # (N,) int64, BOS ... EOS

    @property
    def n_frames(self) -> int:
        return self.semantic.shape[0]

    def validate(self) -> None:
        lengths = {
            "semantic": self.semantic.shape[0],
            "acoustic": self.acoustic.shape[0],
            "speaker_frames": self.speaker_frames.shape[0],
            "mel": self.mel.shape[0],
        }
        if len(set(lengths.values())) != 1:
            detail = ", ".join(f"{k}={v}" for k, v in lengths.items())
            raise InvariantError(f"frame counts disagree: {detail}")
        if not self.n_frames:
            raise InvariantError("bundle has no frames")
        for name in ("semantic", "acoustic", "speaker_frames", "mel"):
            arr = getattr(self, name)
            if arr.ndim != 2:
                raise InvariantError(f"array {name!r} must be rank 2, got rank {arr.ndim}")
        if self.speaker_global.ndim != 1:
            raise InvariantError(f"array 'speaker_global' must be rank 1, got rank {self.speaker_global.ndim}")
        for name in REQUIRED_ARRAYS:
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=np.float64))):
                raise InvariantError(f"array {name!r} contains non-finite values")


@dataclass
class Utterance:
    bundle: FeatureBundle
    speaker_id: int
    core_symbols: np.ndarray       # content ids, no BOS/EOS
    frame_symbols: np.ndarray      # (T,) symbol id emitting each frame
    durations: np.ndarray          # frames per core symbol


@dataclass
class SyntheticSpec:
    """Knobs for the fabricated corpus; defaults are the toy profile."""

    vocab_size: int = 32
    n_speakers: int = 4
    n_utterances: int = 32
    symbols_per_utterance: tuple[int, int] = (4, 6)
    frames_per_symbol: tuple[int, int] = (2, 3)
    semantic_dim: int = 64
    acoustic_dim: int = 64
    speaker_frame_dim: int = 64
    speaker_global_dim: int = 16
    mel_bins: int = 32
    prosody_dim: int = 2
    max_frames: int = 128
    noise_scale: float = 0.0
    seed: int = 0

    ZERO_OK = ("noise_scale",)

    def validate(self) -> None:
        check_fields(self)
        worst = self.symbols_per_utterance[1] * self.frames_per_symbol[1]
        if worst > self.max_frames:
            raise ValueError(f"longest utterance ({worst} frames) exceeds max_frames={self.max_frames}")


@dataclass
class CorpusFactors:
    """Latent generators behind a corpus, kept for oracle-style tests."""

    symbol_templates: np.ndarray    # (V, Ds)
    speaker_latents: np.ndarray     # (S, dz)
    speaker_affine: np.ndarray      # (S, Da, q)
    speaker_bias: np.ndarray        # (S, Da)
    symbol_acoustic: np.ndarray     # (V, Da)
    speaker_frame_map: np.ndarray   # (Dsp, dz)
    speaker_global_map: np.ndarray  # (Dg, dz)
    mel_projection: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), np.float32))  # (M, Ds+Da)


@dataclass
class Corpus:
    spec: SyntheticSpec
    factors: CorpusFactors
    utterances: list = field(default_factory=list)

    def __len__(self):
        return len(self.utterances)


_LATENT_DIM = 16
_PROSODY_SMOOTH = 0.9


def _draw_factors(spec: SyntheticSpec, rng: Rng) -> CorpusFactors:
    v, s = spec.vocab_size, spec.n_speakers
    q, dz = spec.prosody_dim, _LATENT_DIM
    f32 = np.float32
    return CorpusFactors(
        symbol_templates=rng.spawn("templates").normal((v, spec.semantic_dim), dtype=f32),
        speaker_latents=rng.spawn("latents").normal((s, dz), dtype=f32),
        # Gentle gain on the prosody walk: the continuous trajectory should
        # colour the acoustic frames, not drown the speaker/symbol structure.
        speaker_affine=rng.spawn("affine").normal((s, spec.acoustic_dim, q), scale=0.25 / np.sqrt(q), dtype=f32),
        speaker_bias=rng.spawn("bias").normal((s, spec.acoustic_dim), scale=0.5, dtype=f32),
        symbol_acoustic=rng.spawn("sym_ac").normal((v, spec.acoustic_dim), scale=0.5, dtype=f32),
        speaker_frame_map=rng.spawn("fmap").normal((spec.speaker_frame_dim, dz), scale=1.0 / np.sqrt(dz), dtype=f32),
        speaker_global_map=rng.spawn("gmap").normal((spec.speaker_global_dim, dz), scale=1.0 / np.sqrt(dz), dtype=f32),
    )


def _prosody_walk(t: int, q: int, rng: Rng) -> np.ndarray:
    walk = np.empty((t, q), dtype=np.float32)
    walk[0] = rng.normal((q,), dtype=np.float32)
    steps = rng.normal((max(t - 1, 0), q), scale=0.3, dtype=np.float32)
    for i in range(1, t):
        walk[i] = _PROSODY_SMOOTH * walk[i - 1] + steps[i - 1]
    return walk


def make_utterance(spec: SyntheticSpec, factors: CorpusFactors, core_symbols: np.ndarray,
                   durations: np.ndarray, speaker_id: int, rng: Rng) -> Utterance:
    """Render one utterance from explicit symbols/durations (oracle hook).

    Semantic frames are per-symbol templates; acoustic frames are a
    speaker affine of a smoothed prosody walk plus a symbol component;
    speaker arrays derive from the speaker latent; mel is a fixed
    projection of the emitted semantic+acoustic frames.
    """
    core_symbols = np.asarray(core_symbols, dtype=np.int64)
    durations = np.asarray(durations, dtype=np.int64)
    if core_symbols.shape != durations.shape:
        raise ValueError(f"symbols/durations length mismatch: {core_symbols.shape} vs {durations.shape}")
    if core_symbols.size == 0:
        raise ValueError("utterance needs at least one symbol")
    lo, hi = N_RESERVED, N_RESERVED + spec.vocab_size
    if core_symbols.min() < lo or core_symbols.max() >= hi:
        raise ValueError(f"core symbols must lie in [{lo}, {hi})")
    if not 0 <= speaker_id < spec.n_speakers:
        raise ValueError(f"speaker_id {speaker_id} out of range [0, {spec.n_speakers})")

    frame_symbols = np.repeat(core_symbols, durations)
    t = frame_symbols.shape[0]
    if not 1 <= t <= spec.max_frames:
        raise ValueError(f"utterance of {t} frames is outside 1..max_frames={spec.max_frames}")
    tmpl_idx = frame_symbols - N_RESERVED
    noise = spec.noise_scale

    semantic = factors.symbol_templates[tmpl_idx].copy()
    prosody = _prosody_walk(t, spec.prosody_dim, rng.spawn("prosody"))
    acoustic = (prosody @ factors.speaker_affine[speaker_id].T
                + factors.speaker_bias[speaker_id]
                + factors.symbol_acoustic[tmpl_idx])

    z = factors.speaker_latents[speaker_id]
    base_frame = factors.speaker_frame_map @ z
    ripple = 1.0 + 0.1 * np.sin(2 * np.pi * np.arange(t) / 16.0 + float(z[0]))
    speaker_frames = base_frame[None, :] * ripple[:, None].astype(np.float32)
    speaker_global = factors.speaker_global_map @ z

    if noise > 0:
        nrng = rng.spawn("noise")
        semantic = semantic + nrng.normal(semantic.shape, scale=noise, dtype=np.float32)
        acoustic = acoustic + nrng.normal(acoustic.shape, scale=noise, dtype=np.float32)
        speaker_frames = speaker_frames + nrng.normal(speaker_frames.shape, scale=noise, dtype=np.float32)

    mel = np.concatenate([semantic, acoustic], axis=1) @ factors.mel_projection.T

    bundle = FeatureBundle(
        semantic=semantic.astype(np.float32),
        acoustic=acoustic.astype(np.float32),
        speaker_frames=speaker_frames.astype(np.float32),
        speaker_global=speaker_global.astype(np.float32),
        mel=mel.astype(np.float32),
        symbols=np.concatenate([[BOS_ID], core_symbols, [EOS_ID]]).astype(np.int64),
    )
    bundle.validate()
    return Utterance(bundle=bundle, speaker_id=speaker_id, core_symbols=core_symbols,
                     frame_symbols=frame_symbols, durations=durations)


def generate_corpus(spec: SyntheticSpec) -> Corpus:
    """Fabricate `spec.n_utterances` utterances, speakers round-robin."""
    spec.validate()
    rng = Rng(spec.seed)
    mel_proj = rng.spawn("mel_proj").normal(
        (spec.mel_bins, spec.semantic_dim + spec.acoustic_dim),
        scale=1.0 / np.sqrt(spec.semantic_dim + spec.acoustic_dim), dtype=np.float32)
    factors = _draw_factors(spec, rng)
    factors.mel_projection = mel_proj

    utterances = []
    for i in range(spec.n_utterances):
        urng = rng.spawn(("utt", i))
        n_sym = urng.integers(spec.symbols_per_utterance[0], spec.symbols_per_utterance[1] + 1)
        symbols = urng.integers(N_RESERVED, N_RESERVED + spec.vocab_size, (n_sym,)).astype(np.int64)
        durations = urng.integers(spec.frames_per_symbol[0], spec.frames_per_symbol[1] + 1, (n_sym,)).astype(np.int64)
        speaker = i % spec.n_speakers
        utterances.append(make_utterance(spec, factors, symbols, durations, speaker, urng))
    return Corpus(spec=spec, factors=factors, utterances=utterances)


# ---- binary container ------------------------------------------------------


def pack_records(out: bytearray, arrays: dict[str, np.ndarray], codes: dict[np.dtype, int]) -> None:
    """Append a u32 count and one record per array, in `arrays` order:
    name_len u16, name utf-8, dtype u8, rank u8, dims u64 * rank, raw
    row-major data. `codes` maps each dtype the format allows to its
    code; every array must already have one of them."""
    out += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        name_b = name.encode("utf-8")
        out += struct.pack(f"<H{len(name_b)}sBB{arr.ndim}Q", len(name_b), name_b,
                           codes[arr.dtype], arr.ndim, *arr.shape)
        out += arr.tobytes()


class RecordReader:
    """Cursor over a file's bytes that parses `pack_records` output. It raises
    feature-file errors; another format overrides `truncated`,
    `unknown_dtype`, `trailing` and `bad_name` to raise its own."""

    def __init__(self, buf: bytes):
        self.buf = memoryview(buf)
        self.pos = 0

    def truncated(self, n: int, what: str) -> Exception:
        return TruncatedFileError(f"file ends inside {what} (needed {n} bytes at offset {self.pos})")

    def unknown_dtype(self, name: str, code: int) -> Exception:
        return FeatureFileError(f"array {name!r}: unknown dtype code {code}")

    def trailing(self) -> Exception:
        return FeatureFileError(f"{len(self.buf) - self.pos} trailing bytes after last array")

    def bad_name(self, offset: int) -> Exception:
        return FeatureFileError(f"array name at offset {offset} is not UTF-8")

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.buf):
            raise self.truncated(n, what)
        self.pos += n
        return self.buf[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def records(self, dtypes: dict[int, np.dtype], copy: bool = True) -> dict[str, np.ndarray]:
        """The arrays, given the dtype of each code the format allows;
        they must end the file. Without `copy` they are views of the
        buffer, writable if it is."""
        (count,) = self.unpack("<I", "array count")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = self.unpack("<H", "name length")
            raw = self.take(name_len, "array name")
            try:
                name = str(raw, "utf-8")
            except UnicodeDecodeError:
                raise self.bad_name(self.pos - name_len) from None
            code, rank = self.unpack("<BB", "array header")
            if code not in dtypes:
                raise self.unknown_dtype(name, code)
            dims = self.unpack(f"<{rank}Q", f"dims of {name!r}")
            raw = self.take(math.prod(dims) * dtypes[code].itemsize, f"data of {name!r}")
            arr = np.frombuffer(raw, dtype=dtypes[code]).reshape(dims)
            arrays[name] = arr.copy() if copy else arr
        if self.pos != len(self.buf):
            raise self.trailing()
        return arrays


def save_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays, cast to f32, in the feature-file container format."""
    out = bytearray(MAGIC)
    out += struct.pack("<I", FORMAT_VERSION)
    pack_records(out, {name: np.asarray(arr, dtype="<f4") for name, arr in arrays.items()}, {np.dtype("<f4"): 0})
    with open(path, "wb") as f:
        f.write(out)


def load_arrays(path) -> dict[str, np.ndarray]:
    """Parse a feature-file container into {name: f32 array}."""
    with open(path, "rb") as f:
        r = RecordReader(f.read())
    magic = bytes(r.take(8, "magic"))
    if magic != MAGIC:
        raise MagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    (version,) = r.unpack("<I", "header")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported format version {version}, expected {FORMAT_VERSION}")
    return r.records({0: np.dtype("<f4")})


def save_features(path, bundle: FeatureBundle) -> None:
    """Write one bundle; `symbols` is f32-cast (exact for id < 2**24)."""
    bundle.validate()
    arrays = {name: getattr(bundle, name) for name in REQUIRED_ARRAYS}
    for name in ("semantic", "acoustic", "speaker_frames", "speaker_global", "mel"):
        if arrays[name].dtype != np.float32:
            raise InvariantError(f"array {name!r} must be float32 to round-trip exactly, got {arrays[name].dtype}")
    save_arrays(path, arrays)


def load_features(path) -> FeatureBundle:
    arrays = load_arrays(path)
    missing = [n for n in REQUIRED_ARRAYS if n not in arrays]
    if missing:
        raise InvariantError(f"bundle file missing arrays: {missing}")
    bundle = FeatureBundle(
        semantic=arrays["semantic"],
        acoustic=arrays["acoustic"],
        speaker_frames=arrays["speaker_frames"],
        speaker_global=arrays["speaker_global"],
        mel=arrays["mel"],
        symbols=np.rint(arrays["symbols"]).astype(np.int64),
    )
    bundle.validate()
    return bundle
