"""Run configuration: dataclasses plus a flat ``key = value`` file format.

Config files are plain text, one assignment per line, ``#`` comments and
blank lines ignored. Keys are exactly the dataclass field names; unknown
keys are an error so typos never pass silently. ``parse_config`` and
``format_config`` turn a config into field name -> text and back; config
files and checkpoints both go through them.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    pass


# one cross-entropy term per finding, in ``MarkerTuple`` order (IDH, 1p/19q, CDKN, histology)
FINDING_TERMS = ("idh", "codel", "cdkn", "nmp")
LOSS_TERMS = ("glioma", *FINDING_TERMS, "disent", "lc", "dcc")

ABLATION_FLAGS = (
    "no_graph",    # bypass the marker-correlation graph layer
    "no_lc",       # drop the correlation-alignment loss term
    "no_dcc",      # drop the confidence-overlap loss term
    "no_disent",   # drop the disentanglement loss term
    "no_cmg",      # skip gradient modulation entirely
    "no_guide",    # ignore the batch histology vote; always modulate molecular grads
    "no_rescale",  # keep the projection but skip the norm-restoring rescale
)


@dataclass
class GenConfig:
    """Synthetic patch-bag generator settings."""

    n_cases: int = 300
    n_patches: int = 32
    feat_dim: int = 16
    signal_strength: float = 5.0
    evidence_fraction: float = 0.25
    p_idh_mut: float = 0.5
    p_codel_given_mut: float = 0.4
    p_cdkn: float = 0.4
    nmp_given_idhwt: float = 0.9
    nmp_given_idhmut: float = 0.03
    seed: int = 0


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 6
    lr: float = 0.003
    weight_decay: float = 1e-4
    # loss term weights
    w_glioma: float = 1.0
    w_molecular: float = 1.0
    w_histology: float = 1.0
    w_disent: float = 1.0
    w_lc: float = 1.0
    w_dcc: float = 1.0
    # confidence-overlap curriculum: top-M halves every `dcc_decay_every` epochs
    dcc_top_m: int = 8
    dcc_decay: float = 0.5
    dcc_decay_every: int = 10
    dcc_temperature: float = 1.0
    graph_alpha: float = 0.5
    val_fraction: float = 0.3
    seed: int = 0
    ablations: tuple = ()


def _parse_lines(text: str, path) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config(cls, raw: dict):
    """Field name -> text into a validated ``cls``; each field's type is its default's."""
    fields = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    kwargs = {}
    for name, text in raw.items():
        ftype = fields[name]
        try:
            kwargs[name] = (tuple(s.strip() for s in text.split(",") if s.strip())
                            if ftype is tuple else ftype(text))
        except ValueError:
            raise ConfigError(f"field {name!r}: cannot parse {text!r} as {ftype.__name__}") from None
    cfg = cls(**kwargs)
    validate(cfg)
    return cfg


def format_config(cfg) -> dict:
    """Field name -> text, in field order; ``parse_config`` inverts it."""
    return {k: ",".join(v) if isinstance(v, tuple) else str(v)
            for k, v in dataclasses.asdict(cfg).items()}


def read_utf8(path, error) -> str:
    """The text of an input file; bytes that are not UTF-8 raise ``error``, naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _load(cls, path) -> object:
    path = Path(path)
    try:
        text = read_utf8(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    raw = _parse_lines(text, path)
    try:
        return parse_config(cls, raw)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def loss_weights(cfg: TrainConfig) -> dict:
    """Each loss term's effective weight, in ``LOSS_TERMS`` order, after ablations."""
    return {
        "glioma": cfg.w_glioma,
        "idh": cfg.w_molecular,
        "codel": cfg.w_molecular,
        "cdkn": cfg.w_molecular,
        "nmp": cfg.w_histology,
        "disent": 0.0 if "no_disent" in cfg.ablations else cfg.w_disent,
        "lc": 0.0 if "no_lc" in cfg.ablations else cfg.w_lc,
        "dcc": 0.0 if "no_dcc" in cfg.ablations else cfg.w_dcc,
    }


def with_ablations(cfg: TrainConfig, flags) -> TrainConfig:
    """``cfg`` with ``flags`` added to its ablations (each flag once), validated."""
    merged = dataclasses.replace(cfg, ablations=tuple(dict.fromkeys((*cfg.ablations, *flags))))
    validate(merged)
    return merged


def validate(cfg) -> None:
    if isinstance(cfg, GenConfig):
        if cfg.n_cases < 1 or cfg.n_patches < 1 or cfg.feat_dim < 1:
            raise ConfigError("n_cases, n_patches and feat_dim must all be >= 1")
        for name in ("evidence_fraction", "p_idh_mut", "p_codel_given_mut",
                     "p_cdkn", "nmp_given_idhwt", "nmp_given_idhmut"):
            v = getattr(cfg, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if not math.isfinite(cfg.signal_strength):
            raise ConfigError(f"signal_strength must be finite, got {cfg.signal_strength}")
    elif isinstance(cfg, TrainConfig):
        if cfg.epochs < 1 or cfg.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        if not 0.0 < cfg.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in (0, 1)")
        if cfg.dcc_top_m < 1 or cfg.dcc_decay_every < 1:
            raise ConfigError("dcc_top_m and dcc_decay_every must be >= 1")
        if not 0.0 < cfg.dcc_decay <= 1.0:  # top-M shrinks by this factor each period
            raise ConfigError(f"dcc_decay must lie in (0, 1], got {cfg.dcc_decay}")
        if not 0.0 <= cfg.graph_alpha <= 1.0:
            raise ConfigError("graph_alpha must lie in [0, 1]")
        t = cfg.dcc_temperature
        if not (math.isfinite(t) and t > 0.0):
            raise ConfigError(f"dcc_temperature must be finite and > 0, got {t}")
        # lr = 0 stays valid: a run that trains nothing, used to test the optimizer
        for name in ("lr", "weight_decay", "w_glioma", "w_molecular", "w_histology",
                     "w_disent", "w_lc", "w_dcc"):
            v = getattr(cfg, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        bad = sorted(set(cfg.ablations) - set(ABLATION_FLAGS))
        if bad:
            raise ConfigError(
                f"unknown ablation flags: {', '.join(bad)} (known: {', '.join(ABLATION_FLAGS)})"
            )
        if not any(loss_weights(cfg).values()):
            raise ConfigError(
                "every loss weight is 0 once the ablations apply; nothing to optimize"
            )


def load_gen_config(path) -> GenConfig:
    return _load(GenConfig, path)


def load_train_config(path) -> TrainConfig:
    return _load(TrainConfig, path)
