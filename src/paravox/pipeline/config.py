"""Pipeline configuration: one JSON document drives every stage.

The document has a fixed set of sections and every field is explicit —
a missing or unknown key is rejected by name, so a config that loads is
a config that fully determines the run. A field holds what its annotation
says (`engine.check_fields`): an integer >= 1, a finite number > 0, true
or false, or a list [lo, hi] of integers with lo <= hi; a seed, a warmup
or a noise scale may be 0, and true or false is never a number.
Cross-section dimensions (feature widths, vocabulary sizes) are derived
from the `data` and `tokenizer` sections at model-build time rather than
duplicated.

One built-in profile ships with the package: `toy`, sized so the whole
four-stage pipeline trains on one CPU core in minutes.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field

from ..ar import ARConfig
from ..engine import check_fields
from ..flow import FlowConfig
from ..frontend import N_RESERVED, SyntheticSpec
from ..nar import NARConfig
from ..tokenizer import TokenizerConfig
from .data import spec_to_doc
from .train import STAGES, TrainSchedule


class ConfigError(ValueError):
    """A config document is structurally wrong; the message names fields."""


@dataclass
class ModelSection:
    """Free knobs of one transformer stage (shared by the AR and NAR)."""

    n_layers: int
    model_dim: int
    n_heads: int
    seed: int


@dataclass
class ARSection(ModelSection):
    max_text_len: int
    max_speech_len: int
    top_k: int
    temperature: float


@dataclass
class FlowSection:
    hidden_dim: int
    n_hidden: int
    time_feat_dim: int
    default_steps: int
    seed: int


@dataclass
class TokenizerSection:
    cond_dim: int
    codebook_size: int
    n_quantizer_layers: int
    attn_blocks: int
    n_heads: int
    conv_kernel: int
    seed: int


@dataclass
class AblationSection:
    parallel_streams: bool = True   # False: one merged quantizer stream
    use_refiner: bool = True        # False: AR predicts every layer itself


_SECTION_TYPES = {
    "data": SyntheticSpec,
    "tokenizer": TokenizerSection,
    "ar": ARSection,
    "nar": ModelSection,
    "flow": FlowSection,
    "ablation": AblationSection,
}


@dataclass
class PipelineConfig:
    name: str
    data: SyntheticSpec
    tokenizer: TokenizerSection
    ar: ARSection
    nar: ModelSection
    flow: FlowSection
    schedules: dict            # stage name -> TrainSchedule
    ablation: AblationSection = field(default_factory=AblationSection)

    # ---- (de)serialization ---------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "ablation": asdict(self.ablation),
            "schedules": {k: asdict(v) for k, v in self.schedules.items()},
        }
        for section in ("data", "tokenizer", "ar", "nar", "flow"):
            out[section] = spec_to_doc(getattr(self, section))
        return out

    @staticmethod
    def from_dict(doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
        required = {"name", "data", "tokenizer", "ar", "nar", "flow", "schedules", "ablation"}
        missing = sorted(required - set(doc))
        unknown = sorted(set(doc) - required)
        if missing or unknown:
            raise ConfigError(f"config sections: missing {missing}, unknown {unknown}")
        if not isinstance(doc["name"], str):
            raise ConfigError("config field 'name' must be a string")
        parts = {"name": doc["name"]}
        for section, cls in _SECTION_TYPES.items():
            parts[section] = _build_section(section, cls, doc[section])
        sched_doc = doc["schedules"]
        if not isinstance(sched_doc, dict):
            raise ConfigError("config section 'schedules' must be an object")
        missing = sorted(set(STAGES) - set(sched_doc))
        unknown = sorted(set(sched_doc) - set(STAGES))
        if missing or unknown:
            raise ConfigError(f"schedules: missing {missing}, unknown {unknown}")
        parts["schedules"] = {stage: _build_section(f"schedules.{stage}", TrainSchedule,
                                                    sched_doc[stage])
                              for stage in STAGES}
        cfg = PipelineConfig(**parts)
        cfg.validate()
        return cfg

    @staticmethod
    def from_json(text: str) -> "PipelineConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        return PipelineConfig.from_dict(doc)

    # ---- validation ----------------------------------------------------------

    def validate(self) -> None:
        sections = [(name, getattr(self, name)) for name in _SECTION_TYPES]
        for name, part in sections + [(f"schedules.{k}", v) for k, v in self.schedules.items()]:
            try:
                check_fields(part, where=f"config field {name}")
            except ValueError as e:
                raise ConfigError(str(e)) from e
        # Rules between fields, per section; the stage configs are built from theirs.
        relations = [("data", self.data), ("tokenizer", self.build_tokenizer_config()),
                     ("ar", self.build_ar_config()), ("flow", self.build_flow_config())]
        if self.ablation.use_refiner:
            relations.insert(3, ("nar", self.build_nar_config()))
        for name, part in relations:
            try:
                part.validate()
            except ValueError as e:
                raise ConfigError(f"config section {name}: {e}") from e
        for stage, sched in self.schedules.items():
            if stage not in STAGES:
                raise ConfigError(f"unknown schedule stage {stage!r}")
            try:
                sched.validate()
            except ValueError as e:
                raise ConfigError(f"schedules.{stage}: {e}") from e
        worst = self.data.symbols_per_utterance[1] * self.data.frames_per_symbol[1]
        if self.ar.max_speech_len < 2 * worst:
            raise ConfigError(f"ar.max_speech_len={self.ar.max_speech_len} cannot hold a reference "
                              f"plus target at the data maximum of {worst} frames each")
        if self.ar.max_text_len < self.data.symbols_per_utterance[1] + 2:
            raise ConfigError(f"ar.max_text_len={self.ar.max_text_len} cannot hold "
                              f"{self.data.symbols_per_utterance[1]} symbols plus the sequence marks")

    # ---- derived model configs ----------------------------------------------

    def stream_spec(self) -> tuple:
        k = self.tokenizer.codebook_size
        if self.ablation.parallel_streams:
            return (("semantic", k), ("acoustic", k))
        return (("merged", k),)

    def build_tokenizer_config(self) -> TokenizerConfig:
        d = self.data
        return TokenizerConfig(
            **asdict(self.tokenizer), semantic_dim=d.semantic_dim, acoustic_dim=d.acoustic_dim,
            speaker_frame_dim=d.speaker_frame_dim, speaker_global_dim=d.speaker_global_dim,
            max_frames=d.max_frames, merged=not self.ablation.parallel_streams)

    def build_ar_config(self) -> ARConfig:
        layers = 1 if self.ablation.use_refiner else self.tokenizer.n_quantizer_layers
        return ARConfig(**asdict(self.ar), text_vocab=N_RESERVED + self.data.vocab_size,
                        streams=self.stream_spec(), layers_per_stream=layers)

    def build_nar_config(self) -> NARConfig:
        return NARConfig(**asdict(self.nar), streams=self.stream_spec(),
                         n_quant_layers=self.tokenizer.n_quantizer_layers,
                         max_ref_len=self.data.max_frames, max_target_len=self.data.max_frames)

    def build_flow_config(self) -> FlowConfig:
        """Fields listed one by one: `FlowSection.seed` is not a `FlowConfig` field."""
        f = self.flow
        return FlowConfig(
            mel_bins=self.data.mel_bins,
            feature_dim=self.data.semantic_dim + self.data.acoustic_dim,
            speaker_dim=self.tokenizer.cond_dim, hidden_dim=f.hidden_dim,
            n_hidden=f.n_hidden, time_feat_dim=f.time_feat_dim,
            default_steps=f.default_steps)


def _build_section(name: str, cls, doc) -> object:
    if not isinstance(doc, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    fields = {f for f in cls.__dataclass_fields__}
    missing = sorted(fields - set(doc))
    unknown = sorted(set(doc) - fields)
    if missing or unknown:
        detail = []
        if missing:
            detail.append("missing " + ", ".join(f"{name}.{m}" for m in missing))
        if unknown:
            detail.append("unknown " + ", ".join(f"{name}.{u}" for u in unknown))
        raise ConfigError("config fields: " + "; ".join(detail))
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


# ---- built-in profiles -------------------------------------------------------


def toy_profile() -> PipelineConfig:
    """Desk-scale profile: the full pipeline overfits 32 utterances on one core."""
    return PipelineConfig(
        name="toy",
        data=SyntheticSpec(),
        tokenizer=TokenizerSection(cond_dim=64, codebook_size=64, n_quantizer_layers=3,
                                   attn_blocks=2, n_heads=4, conv_kernel=3, seed=11),
        ar=ARSection(n_layers=4, model_dim=128, n_heads=4, seed=22,
                     max_text_len=16, max_speech_len=64, top_k=8, temperature=1.0),
        nar=ModelSection(n_layers=2, model_dim=128, n_heads=4, seed=33),
        flow=FlowSection(hidden_dim=192, n_hidden=2, time_feat_dim=8,
                         default_steps=32, seed=44),
        schedules={
            "tokenizer": TrainSchedule(total_steps=1000, warmup_steps=20, kind="cosine",
                                         base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                         batch_size=8, seed=101),
            "ar": TrainSchedule(total_steps=1400, warmup_steps=50, kind="cosine",
                                  base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                  batch_size=8, seed=202),
            "nar": TrainSchedule(total_steps=500, warmup_steps=25, kind="cosine",
                                   base_lr=1e-4, peak_lr=3e-3, final_lr=3e-4,
                                   batch_size=8, seed=303),
            "flow": TrainSchedule(total_steps=600, warmup_steps=25, kind="cosine",
                                    base_lr=1e-4, peak_lr=3e-3, final_lr=5e-4,
                                    batch_size=8, seed=404),
        },
        ablation=AblationSection(),
    )


def config_with_overrides(base: PipelineConfig, overrides: dict) -> PipelineConfig:
    """New config from `base` with dotted-path overrides applied."""
    doc = copy.deepcopy(base.to_dict())
    for path, value in overrides.items():
        node = doc
        *head, leaf = path.split(".")
        for part in head:
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"override path {path!r}: no section {part!r}")
            node = node[part]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"override path {path!r}: no field {leaf!r}")
        node[leaf] = value
    return PipelineConfig.from_dict(doc)
