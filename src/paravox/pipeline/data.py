"""Corpus directories: feature files plus a JSON manifest.

`gen-data` writes one feature file per utterance and a `manifest.json`
recording the generating spec and per-utterance speaker ids, which the
feature format itself does not carry. Training and evaluation read the
directory back without needing the latent factors.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..frontend import (Corpus, FeatureBundle, FeatureFileError, SyntheticSpec, check_framed, load_features,
                        save_features)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


class CorpusDirError(ValueError):
    """A corpus directory or its manifest is malformed."""


@dataclass
class CorpusItem:
    """One training row: the features plus who spoke them."""

    bundle: FeatureBundle
    speaker_id: int


def spec_to_doc(spec) -> dict:
    """A corpus spec or a config section as a JSON object, its tuples as lists."""
    doc = asdict(spec)
    for k, v in doc.items():
        if isinstance(v, tuple):
            doc[k] = list(v)
    return doc


def spec_from_doc(doc: dict, where: str = "spec") -> SyntheticSpec:
    if not isinstance(doc, dict):
        raise CorpusDirError(f"{where} must be an object")
    fields = set(SyntheticSpec.__dataclass_fields__)
    unknown = sorted(set(doc) - fields)
    if unknown:
        raise CorpusDirError(f"{where}: unknown fields {unknown}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    spec = SyntheticSpec(**kwargs)
    spec.validate()
    return spec


def corpus_items(corpus: Corpus) -> list[CorpusItem]:
    return [CorpusItem(bundle=u.bundle, speaker_id=u.speaker_id) for u in corpus.utterances]


def write_corpus_dir(corpus: Corpus, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, utt in enumerate(corpus.utterances):
        fname = f"utt_{i:05d}.feat"
        save_features(out / fname, utt.bundle)
        rows.append({"file": fname, "speaker_id": int(utt.speaker_id)})
    manifest = {"format": MANIFEST_VERSION, "spec": spec_to_doc(corpus.spec), "items": rows}
    (out / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def load_corpus_dir(data_dir) -> tuple[SyntheticSpec, list[CorpusItem]]:
    root = Path(data_dir)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise CorpusDirError(f"{root}: no {MANIFEST_NAME}; not a corpus directory")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise CorpusDirError(f"{manifest_path}: invalid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise CorpusDirError(f"{manifest_path}: must be an object")
    for key in ("format", "spec", "items"):
        if key not in manifest:
            raise CorpusDirError(f"{manifest_path}: missing key {key!r}")
    if manifest["format"] != MANIFEST_VERSION:
        raise CorpusDirError(f"{manifest_path}: format {manifest['format']}, "
                             f"expected {MANIFEST_VERSION}")
    spec = spec_from_doc(manifest["spec"], where=f"{manifest_path}:spec")
    if not isinstance(manifest["items"], list):
        raise CorpusDirError(f"{manifest_path}: items must be a list")
    items = []
    for i, row in enumerate(manifest["items"]):
        where = f"{manifest_path}: items[{i}]"
        if not isinstance(row, dict):
            raise CorpusDirError(f"{where} must be an object, got {row!r}")
        if "file" not in row or "speaker_id" not in row:
            raise CorpusDirError(f"{where} needs 'file' and 'speaker_id'")
        if not isinstance(row["file"], str):
            raise CorpusDirError(f"{where}.file must be a string, got {row['file']!r}")
        if not isinstance(row["speaker_id"], int) or isinstance(row["speaker_id"], bool):
            raise CorpusDirError(f"{where}.speaker_id must be an int, got {row['speaker_id']!r}")
        try:
            bundle = load_features(root / row["file"])
        except FeatureFileError as e:
            raise CorpusDirError(f"{where} ({row['file']}): {e}") from e
        items.append(CorpusItem(bundle=bundle, speaker_id=row["speaker_id"]))
    if not items:
        raise CorpusDirError(f"{root}: corpus is empty")
    return spec, items


def reference_pairing(items: list[CorpusItem]) -> list[int]:
    """Deterministic reference index per item: the speaker's next utterance.

    Within each speaker's utterance list (in corpus order) every item
    points at the following one, wrapping around; a speaker with a single
    utterance references itself.
    """
    by_speaker: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_speaker.setdefault(item.speaker_id, []).append(i)
    ref = [0] * len(items)
    for idxs in by_speaker.values():
        for pos, i in enumerate(idxs):
            ref[i] = idxs[(pos + 1) % len(idxs)]
    return ref


@dataclass
class CorpusView:
    """The items as the AR, NAR and flow stages and `evaluate` read them:
    each item's text ids, its (T, n_streams, L) token grid (streams in
    stack order) and the index of its `reference_pairing` reference."""

    items: list[CorpusItem]
    text_ids: list[np.ndarray]
    grids: list[np.ndarray]
    refs: list[int]

    def pairs(self, idx) -> list[tuple[np.ndarray, np.ndarray]]:
        """(reference grid, target grid) of each item index in `idx`."""
        return [(self.grids[self.refs[i]], self.grids[i]) for i in idx]

    def ar_rows(self, idx, layers: int) -> list[tuple]:
        """(text ids, reference tokens, target tokens) of each item index
        in `idx`, cut to the first `layers` quantizer layers."""
        return [(self.text_ids[i], ref[:, :, :layers], tgt[:, :, :layers])
                for i, (ref, tgt) in zip(idx, self.pairs(idx))]


def corpus_view(items: list[CorpusItem], encode_grids) -> CorpusView:
    """The view of `items`, their grids from one `encode_grids` call. Text
    ids are the bundle symbols, which already carry the begin/end marks
    (the training-side mirror of `Vocabulary.encode`)."""
    text_ids = [np.asarray(it.bundle.symbols, dtype=np.int64).reshape(-1) for it in items]
    for ids in text_ids:
        check_framed(ids, "bundle symbols")
    return CorpusView(items, text_ids, encode_grids([it.bundle for it in items]), reference_pairing(items))
