"""On-disk formats: patch-bag datasets and model checkpoints.

A dataset is a text manifest (`dataset.manifest`) plus a raw blob
(`dataset.blob`) of little-endian float32 features, one high- then one
low-magnification matrix per case, row-major. A checkpoint is the same
idea at float64: a manifest of named parameter shapes and byte offsets
(`checkpoint.manifest`) plus the packed values (`checkpoint.blob`).
"""
from __future__ import annotations

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ConfigError, TrainConfig, format_config, parse_config, read_utf8
from .synth import CooccurrenceMatrix, MarkerTuple, PatchBag, derive_glioma_class

DATASET_MANIFEST = "dataset.manifest"
DATASET_BLOB = "dataset.blob"
CHECKPOINT_MANIFEST = "checkpoint.manifest"
CHECKPOINT_BLOB = "checkpoint.blob"

_DATASET_MAGIC = "bagset v1"
_CHECKPOINT_MAGIC = "paramset v1"


class DatasetError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# datasets

def write_dataset(out_dir, bags) -> None:
    """Write bags to ``out_dir``/dataset.{manifest,blob}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    chunks = []
    offset = 0
    for bag in bags:
        n, k = bag.feats_high.shape
        if bag.feats_low.shape != (n, k):
            raise DatasetError(
                f"case {bag.case_id}: magnification shapes differ: "
                f"{bag.feats_high.shape} vs {bag.feats_low.shape}"
            )
        high = np.ascontiguousarray(bag.feats_high, dtype="<f4")
        low = np.ascontiguousarray(bag.feats_low, dtype="<f4")
        off_high = offset
        off_low = off_high + high.nbytes
        offset = off_low + low.nbytes
        m = bag.markers
        records.append(
            f"{bag.case_id} {n} {k} {m.idh_mut} {m.codel_1p19q} {m.cdkn_homdel} "
            f"{m.nmp} {bag.glioma_class} {off_high} {off_low}"
        )
        chunks.append(high.tobytes())
        chunks.append(low.tobytes())
    manifest = "\n".join([f"{_DATASET_MAGIC} cases={len(records)}"] + records) + "\n"
    (out_dir / DATASET_MANIFEST).write_text(manifest)
    (out_dir / DATASET_BLOB).write_bytes(b"".join(chunks))


def _parse_int(token: str, what: str, case_id: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise DatasetError(f"case {case_id}: bad {what} field {token!r}") from None


def read_dataset(data_dir) -> list:
    """Read bags back, each with its stored patch count, as read-only float32 views of the blob."""
    data_dir = Path(data_dir)
    manifest_path = data_dir / DATASET_MANIFEST
    blob_path = data_dir / DATASET_BLOB
    if not manifest_path.exists():
        raise DatasetError(f"missing {manifest_path}")
    if not blob_path.exists():
        raise DatasetError(f"missing {blob_path}")
    lines = read_utf8(manifest_path, DatasetError).splitlines()
    if not lines or not lines[0].startswith(_DATASET_MAGIC):
        raise DatasetError(f"{manifest_path}: not a {_DATASET_MAGIC} manifest")
    header = re.fullmatch(f"{_DATASET_MAGIC} cases=([0-9]+)", lines[0])
    if header is None:
        raise DatasetError(f"{manifest_path}: malformed header {lines[0]!r}")
    declared = int(header[1])
    records = [ln for ln in lines[1:] if ln.strip()]
    if not records:
        raise DatasetError(f"{manifest_path}: no cases")
    if len(records) != declared:
        raise DatasetError(
            f"{manifest_path}: header declares {declared} cases, found {len(records)} records"
        )
    blob = blob_path.read_bytes()

    bags = []
    for record in records:
        fields = record.split()
        if len(fields) != 10:
            raise DatasetError(f"malformed record (want 10 fields): {record!r}")
        case_id = fields[0]
        n, k = (_parse_int(fields[i], "size", case_id) for i in (1, 2))
        labels = [_parse_int(fields[i], "label", case_id) for i in (3, 4, 5, 6)]
        if any(v not in (0, 1) for v in labels):
            raise DatasetError(f"case {case_id}: labels must be 0/1, got {labels}")
        glioma = _parse_int(fields[7], "class", case_id)
        off_high, off_low = (_parse_int(fields[i], "offset", case_id) for i in (8, 9))
        if min(n, k) < 1 or min(off_high, off_low) < 0:
            raise DatasetError(f"case {case_id}: empty bag or negative offset in {record!r}")
        if bags and k != bags[0].feats_high.shape[1]:
            raise DatasetError(
                f"case {case_id}: feature width {k} differs from the first case's "
                f"{bags[0].feats_high.shape[1]}"
            )
        end = max(off_high, off_low) + n * k * 4
        if end > len(blob):
            raise DatasetError(
                f"case {case_id}: truncated blob "
                f"(need bytes up to {end}, blob has {len(blob)})"
            )
        high = np.frombuffer(blob, dtype="<f4", count=n * k, offset=off_high).reshape(n, k)
        low = np.frombuffer(blob, dtype="<f4", count=n * k, offset=off_low).reshape(n, k)
        if not (np.isfinite(high).all() and np.isfinite(low).all()):
            raise DatasetError(f"case {case_id}: non-finite feature values")
        markers = MarkerTuple(*labels)
        if glioma != derive_glioma_class(markers):
            raise DatasetError(
                f"case {case_id}: stored class {glioma} contradicts markers {labels}"
            )
        bags.append(
            PatchBag(case_id=case_id, feats_high=high, feats_low=low,
                     markers=markers, glioma_class=glioma)
        )
    case_ids = set()
    for bag in bags:  # after the per-record checks, whose errors come first
        if bag.case_id in case_ids:
            raise DatasetError(f"case {bag.case_id}: repeated case id")
        case_ids.add(bag.case_id)
    return bags


# ---------------------------------------------------------------------------
# checkpoints

def _matrix3(scalar):
    return lambda text: np.array([scalar(v) for v in text.split(",")]).reshape(3, 3)


# meta key -> parser of its value, in the order write_checkpoint writes them
_META_PARSERS = {
    "feat_dim": int,
    "cooccurrence": _matrix3(np.float64),
    "cooccurrence_counts": _matrix3(np.int64),
    "cooccurrence_cases": int,
}


def write_checkpoint(out_dir, params, feat_dim: int, cooc: CooccurrenceMatrix,
                     train_cfg: TrainConfig) -> None:
    """Write named float64 parameters plus the run metadata needed to eval."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [_CHECKPOINT_MAGIC, f"meta feat_dim {feat_dim}"]
    a_flat = ",".join(repr(float(v)) for v in np.asarray(cooc.a).ravel())
    counts_flat = ",".join(str(int(v)) for v in np.asarray(cooc.counts).ravel())
    lines.append(f"meta cooccurrence {a_flat}")
    lines.append(f"meta cooccurrence_counts {counts_flat}")
    lines.append(f"meta cooccurrence_cases {cooc.n_cases}")
    lines += [f"config {key} {text}" for key, text in format_config(train_cfg).items()]
    chunks = []
    offset = 0
    for name, tensor in params.items():
        # note: ascontiguousarray would promote 0-d scalars to 1-d
        arr = np.asarray(tensor.data, dtype="<f8", order="C")
        shape = "(" + ",".join(str(d) for d in arr.shape) + ")"
        lines.append(f"param {name} {shape} {offset}")
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    (out_dir / CHECKPOINT_MANIFEST).write_text("\n".join(lines) + "\n")
    (out_dir / CHECKPOINT_BLOB).write_bytes(b"".join(chunks))


def read_checkpoint(ckpt_dir):
    """Return (params: dict[str, ndarray], feat_dim, CooccurrenceMatrix, TrainConfig)."""
    ckpt_dir = Path(ckpt_dir)
    manifest_path = ckpt_dir / CHECKPOINT_MANIFEST
    blob_path = ckpt_dir / CHECKPOINT_BLOB
    if not manifest_path.exists() or not blob_path.exists():
        raise CheckpointError(f"no checkpoint under {ckpt_dir}")
    lines = read_utf8(manifest_path, CheckpointError).splitlines()
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{manifest_path}: not a {_CHECKPOINT_MAGIC} manifest")
    blob = blob_path.read_bytes()

    sections = {"meta": {}, "config": {}, "param": {}}
    for line in lines[1:]:
        if not line.strip():
            continue
        kind, _, rest = line.partition(" ")
        if kind not in sections:
            raise CheckpointError(f"{manifest_path}: unknown line kind {kind!r}")
        if kind == "param":
            try:
                key, shape_s, offset_s = rest.rsplit(" ", 2)
                dims = tuple(int(d) for d in shape_s.strip("()").split(",") if d)
                offset = int(offset_s)
            except ValueError:
                raise CheckpointError(f"{manifest_path}: malformed line {line!r}") from None
            if min(dims + (offset,)) < 0:
                raise CheckpointError(f"{manifest_path}: negative shape or offset in {line!r}")
            count = math.prod(dims)
            if offset + count * 8 > len(blob):
                raise CheckpointError(f"param {key}: truncated blob")
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            value = arr.astype(np.float64).reshape(dims)
            if not np.isfinite(value).all():
                raise CheckpointError(f"param {key}: non-finite values")
        else:
            key, _, value = rest.partition(" ")
        if key in sections[kind]:
            raise CheckpointError(f"{manifest_path}: repeated {kind} {key!r}")
        sections[kind][key] = value
    meta, config_raw, params = sections["meta"], sections["config"], sections["param"]

    if set(meta) != set(_META_PARSERS):
        odd = sorted(set(meta) ^ set(_META_PARSERS))
        raise CheckpointError(f"{manifest_path}: bad metadata: missing or unknown keys {odd}")
    parsed = {}
    for key, parse in _META_PARSERS.items():
        try:
            parsed[key] = parse(meta[key])
        except (ValueError, OverflowError):
            raise CheckpointError(f"{manifest_path}: bad metadata: {key} {meta[key]!r}") from None
    cooc = CooccurrenceMatrix(a=parsed["cooccurrence"], counts=parsed["cooccurrence_counts"],
                              n_cases=parsed["cooccurrence_cases"])
    missing = [f.name for f in fields(TrainConfig) if f.name not in config_raw]
    if missing:
        raise CheckpointError(f"{manifest_path}: bad config: missing keys {missing}")
    try:
        cfg = parse_config(TrainConfig, config_raw)
    except ConfigError as exc:
        raise CheckpointError(f"{manifest_path}: bad config: {exc}") from None
    return params, parsed["feat_dim"], cooc, cfg
