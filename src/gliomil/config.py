"""Run configuration: frozen dataclasses, valid by construction, plus a flat
``key = value`` file format. Each number field but ``GenConfig.seed`` declares
beside its default the interval it must lie in; every build and ``replace``
checks each field's type and interval and ``TrainConfig``'s cross-field rules.

Config files are plain text, one assignment per line, ``#`` comments and
blank lines ignored. Keys are exactly the dataclass field names; unknown
keys are an error so typos never pass silently. ``parse_config`` and
``format_config`` turn a config into field name -> text and back; config
files and checkpoints both go through them.
"""
from __future__ import annotations

import dataclasses
import functools
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple


class ConfigError(ValueError):
    pass


class Finding(NamedTuple):
    name: str    # the MarkerTuple field, the metrics task and the report row
    short: str   # the loss term, the acc_* column and a molecular branch's name, mol.<short>
    group: str   # "molecular" (high magnification, graph-coupled) or "histology" (low, his)
    blocks: int  # the branch's transformer block count


# The one declaration of the findings, in the order of MarkerTuple, the model's branches
# and every per-finding column; the molecular markers lead, IDH first.
FINDINGS = (
    Finding("idh_mut", "idh", "molecular", 3),
    Finding("codel_1p19q", "codel", "molecular", 2),
    Finding("cdkn_homdel", "cdkn", "molecular", 2),
    Finding("nmp", "nmp", "histology", 3),
)
MOLECULAR = tuple(f for f in FINDINGS if f.group == "molecular")
(HISTOLOGY,) = (f for f in FINDINGS if f.group == "histology")
GLIOMA = "glioma"  # the tumour class: the fifth task, loss term and column; it has no branch

FINDING_TERMS = tuple(f.short for f in FINDINGS)
LOSS_TERMS = (GLIOMA, *FINDING_TERMS, "disent", "lc", "dcc")

ABLATION_FLAGS = (
    "no_graph",    # bypass the marker-correlation graph layer
    "no_lc",       # drop the correlation-alignment loss term
    "no_dcc",      # drop the confidence-overlap loss term
    "no_disent",   # drop the disentanglement loss term
    "no_cmg",      # skip gradient modulation entirely
    "no_guide",    # ignore the batch histology vote; always modulate molecular grads
    "no_rescale",  # keep the projection but skip the norm-restoring rescale
)


def _setting(default, interval: str):
    """A number field's ``default`` and the ``interval`` it must lie in, e.g. ``"(0, 1]"``,
    parsed once. An infinite end is written open, so a number in it is finite; nan is in none."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    return dataclasses.field(default=default, metadata={
        "interval": (interval, lambda v: above(lo, v) and below(v, hi))})


@functools.cache
def _rules(cls) -> tuple:
    """(name, accepted types, their name, (text, test) interval or None) per field of ``cls``."""
    kinds = {int: (int, "an int"), float: ((int, float), "a float"),
             tuple: (tuple, "a tuple of str")}
    return tuple((f.name, *kinds[type(f.default)], f.metadata.get("interval"))
                 for f in dataclasses.fields(cls))


def _check(cfg) -> None:
    """Raise ``ConfigError`` unless each field of ``cfg`` has its default's type (an int may
    stand for a float it converts to, a bool is no number, a tuple holds only str) and lies
    in its interval."""
    for name, types, kind, interval in _rules(type(cfg)):
        value = getattr(cfg, name)
        if (isinstance(value, bool) or not isinstance(value, types)
                or (types is tuple and not all(isinstance(s, str) for s in value))):
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if interval and not (interval[1](value)
                             and (types is int or abs(value) <= sys.float_info.max)):
            raise ConfigError(f"{name} must lie in {interval[0]}, got {value!r}")


@dataclass(frozen=True)
class GenConfig:
    """Synthetic patch-bag generator settings."""

    n_cases: int = _setting(300, "[1, inf)")
    n_patches: int = _setting(32, "[1, inf)")
    feat_dim: int = _setting(16, "[1, inf)")
    # the three molecular signals may share a row: 3 * 1e38 plus noise stays below float32's 3.4e38
    signal_strength: float = _setting(5.0, "[-1e38, 1e38]")
    evidence_fraction: float = _setting(0.25, "[0, 1]")
    p_idh_mut: float = _setting(0.5, "[0, 1]")
    p_codel_given_mut: float = _setting(0.4, "[0, 1]")
    p_cdkn: float = _setting(0.4, "[0, 1]")
    nmp_given_idhwt: float = _setting(0.9, "[0, 1]")
    nmp_given_idhmut: float = _setting(0.03, "[0, 1]")
    # no interval: synth.rng_for_case hashes the seed's text, so any int works
    seed: int = 0

    def __post_init__(self):
        _check(self)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings: optimizer, loss weights, DCC curriculum, split and ablations."""

    epochs: int = _setting(50, "[1, inf)")
    batch_size: int = _setting(6, "[1, inf)")
    lr: float = _setting(0.003, "[0, inf)")  # 0 trains nothing; tests of the optimizer use it
    weight_decay: float = _setting(1e-4, "[0, inf)")
    # loss term weights; some weight must stay non-zero once the ablations apply
    w_glioma: float = _setting(1.0, "[0, inf)")
    w_molecular: float = _setting(1.0, "[0, inf)")
    w_histology: float = _setting(1.0, "[0, inf)")
    w_disent: float = _setting(1.0, "[0, inf)")
    w_lc: float = _setting(1.0, "[0, inf)")
    w_dcc: float = _setting(1.0, "[0, inf)")
    # confidence-overlap curriculum: top-M halves every `dcc_decay_every` epochs
    dcc_top_m: int = _setting(8, "[1, inf)")
    dcc_decay: float = _setting(0.5, "(0, 1]")
    dcc_decay_every: int = _setting(10, "[1, inf)")
    dcc_temperature: float = _setting(1.0, "(0, inf)")
    graph_alpha: float = _setting(0.5, "[0, 1]")
    val_fraction: float = _setting(0.3, "(0, 1)")
    seed: int = _setting(0, "[0, inf)")  # numpy's SeedSequence takes no negative entropy
    ablations: tuple = ()

    def __post_init__(self):
        _check(self)
        if bad := sorted(set(self.ablations) - set(ABLATION_FLAGS)):
            raise ConfigError(f"unknown ablation flags: {', '.join(bad)} "
                              f"(known: {', '.join(ABLATION_FLAGS)})")
        if not any(loss_weights(self).values()):
            raise ConfigError("every loss weight is 0 once the ablations apply; "
                              "nothing to optimize")


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
    """Field name -> text into a checked ``cls``; each field's type is its default's."""
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
    return cls(**kwargs)


def format_config(cfg) -> dict:
    """Field name -> text, in field order, each value as its field's type (an int in a float
    field as a float); ``parse_config`` inverts it, and a checkpoint holds only this text."""
    return {f.name: ",".join(v) if isinstance(v := getattr(cfg, f.name), tuple)
            else str(type(f.default)(v)) for f in dataclasses.fields(cfg)}


def read_utf8(path, error) -> str:
    """The text of an input file; bytes that are not UTF-8 raise ``error``, naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")  # as is: CRLF stays CRLF
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
        GLIOMA: cfg.w_glioma,
        **{f.short: getattr(cfg, f"w_{f.group}") for f in FINDINGS},
        "disent": 0.0 if "no_disent" in cfg.ablations else cfg.w_disent,
        "lc": 0.0 if "no_lc" in cfg.ablations else cfg.w_lc,
        "dcc": 0.0 if "no_dcc" in cfg.ablations else cfg.w_dcc,
    }


def with_ablations(cfg: TrainConfig, flags) -> TrainConfig:
    """``cfg`` with ``flags`` added to its ablations (each flag once), checked as it is built."""
    return dataclasses.replace(cfg, ablations=tuple(dict.fromkeys((*cfg.ablations, *flags))))


def load_gen_config(path) -> GenConfig:
    return _load(GenConfig, path)


def load_train_config(path) -> TrainConfig:
    return _load(TrainConfig, path)
