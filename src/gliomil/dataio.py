"""On-disk formats: patch-bag datasets and model checkpoints.

A dataset is a text manifest (`dataset.manifest`) plus a raw blob
(`dataset.blob`) of little-endian float32 features, one high- then one
low-magnification matrix per case, row-major. A checkpoint is the same
idea at float64: a manifest of named parameter shapes and byte offsets
(`checkpoint.manifest`) plus the packed values (`checkpoint.blob`).

Both share one private codec: ``_open`` reads a manifest and its blob,
``_Blob.array`` checks a span of the blob and returns a read-only view of
it, and ``_offsets`` and ``_write_blob`` lay arrays out back to back,
writing one array at a time. Each keeps its record syntax. The spans must
tile the blob as ``_write_blob`` writes it: in manifest order, each array
starts where the previous one ended, the first at byte 0, and the last
ends at the blob's end.
"""
from __future__ import annotations

import math
import re
from dataclasses import fields
from itertools import accumulate
from pathlib import Path

import numpy as np

from .config import MOLECULAR, ConfigError, TrainConfig, format_config, parse_config, read_utf8
from .synth import (CooccurrenceMatrix, MarkerTuple, PatchBag, cooccurrence_from_counts,
                    derive_glioma_class)

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
# the shared codec

def _open(directory, manifest_name: str, blob_name: str, error):
    """(manifest path, manifest lines, ``_Blob``); a missing or non-UTF-8 file raises ``error``."""
    manifest_path, blob_path = Path(directory) / manifest_name, Path(directory) / blob_name
    for path in (manifest_path, blob_path):
        if not path.exists():
            raise error(f"missing {path}")
    return (manifest_path, read_utf8(manifest_path, error).splitlines(),
            _Blob(blob_path, blob_path.read_bytes(), error))


class _Blob:
    """A blob whose arrays are read in manifest order and must tile it."""

    def __init__(self, path: Path, data: bytes, error):
        self.path, self.data, self.error, self.end = path, data, error, 0

    def array(self, dtype: str, shape: tuple, offset: int, what: str) -> np.ndarray:
        """The read-only ``shape`` view of the blob as ``dtype`` from byte ``offset``.

        A negative shape or offset, an offset other than the previous array's
        end (0 for the first), a truncated blob or a non-finite value raises.
        """
        if min(shape + (offset,)) < 0:
            raise self.error(f"{what}: negative shape or offset ({shape} at {offset})")
        if offset != self.end:
            raise self.error(f"{what}: starts at byte {offset}, not at byte {self.end} "
                             "(the arrays must tile the blob)")
        count = math.prod(shape)
        self.end = offset + count * np.dtype(dtype).itemsize
        if self.end > len(self.data):
            raise self.error(f"{what}: truncated blob (need bytes up to {self.end}, "
                             f"blob has {len(self.data)})")
        arr = np.frombuffer(self.data, dtype=dtype, count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise self.error(f"{what}: non-finite values")
        return arr

    def check_end(self) -> None:
        """Raise unless the arrays read so far end where the blob does."""
        if self.end != len(self.data):
            raise self.error(f"{self.path}: {len(self.data) - self.end} bytes past the last "
                             f"array, which ends at byte {self.end} "
                             "(the arrays must tile the blob)")


def _offsets(arrays, dtype: str) -> list:
    """Each array's byte offset when the arrays lie back to back as ``dtype``."""
    sizes = [np.size(arr) * np.dtype(dtype).itemsize for arr in arrays]
    return list(accumulate(sizes, initial=0))[:len(sizes)]


def _write_blob(path: Path, arrays, dtype: str) -> None:
    """Write the arrays' row-major ``dtype`` values back to back, one array at a time."""
    with open(path, "wb", buffering=1 << 18) as f:  # a few system calls per MB, not one per array
        f.writelines(np.asarray(arr, dtype=dtype).tobytes() for arr in arrays)


# ---------------------------------------------------------------------------
# datasets

def write_dataset(out_dir, bags) -> None:
    """Write bags to ``out_dir``/dataset.{manifest,blob}."""
    bags = list(bags)
    arrays = [f for bag in bags for f in (bag.feats_high, bag.feats_low)]
    offsets = _offsets(arrays, "<f4")
    lines = [f"{_DATASET_MAGIC} cases={len(bags)}"]
    for bag, off_high, off_low in zip(bags, offsets[::2], offsets[1::2]):
        n, k = bag.feats_high.shape
        if bag.feats_low.shape != (n, k):
            raise DatasetError(f"case {bag.case_id}: magnification shapes differ: "
                               f"{bag.feats_high.shape} vs {bag.feats_low.shape}")
        lines.append(" ".join(map(str, (bag.case_id, n, k, *bag.markers,
                                        bag.glioma_class, off_high, off_low))))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / DATASET_MANIFEST).write_text("\n".join(lines) + "\n")
    _write_blob(out_dir / DATASET_BLOB, arrays, "<f4")


def read_dataset(data_dir) -> list:
    """Read bags back, each with its stored patch count, as read-only float32 views of the blob."""
    manifest_path, lines, blob = _open(data_dir, DATASET_MANIFEST, DATASET_BLOB, DatasetError)
    head = lines[0] if lines else ""
    header = re.fullmatch(f"{_DATASET_MAGIC} cases=([0-9]+)", head)
    if header is None:
        raise DatasetError(f"{manifest_path}: malformed header {head!r}")
    declared = int(header[1])
    records = [ln for ln in lines[1:] if ln.strip()]
    if not records:
        raise DatasetError(f"{manifest_path}: no cases")
    if len(records) != declared:
        raise DatasetError(f"{manifest_path}: header declares {declared} cases, "
                           f"found {len(records)} records")

    width = len(MarkerTuple._fields) + 6  # id, n, k, the finding labels, class, 2 offsets
    bags = []
    for record in records:
        tokens = record.split()
        if len(tokens) != width:
            raise DatasetError(f"malformed record (want {width} fields): {record!r}")
        case_id = tokens[0]
        try:
            n, k, *labels, glioma, off_high, off_low = map(int, tokens[1:])
        except ValueError:
            raise DatasetError(f"case {case_id}: a field is not an integer in {record!r}") from None
        if any(v not in (0, 1) for v in labels):
            raise DatasetError(f"case {case_id}: labels must be 0/1, got {labels}")
        if min(n, k) < 1:
            raise DatasetError(f"case {case_id}: empty bag in {record!r}")
        if bags and k != bags[0].feats_high.shape[1]:
            raise DatasetError(f"case {case_id}: feature width {k} differs from the first "
                               f"case's {bags[0].feats_high.shape[1]}")
        high, low = (blob.array("<f4", (n, k), off, f"case {case_id}")
                     for off in (off_high, off_low))
        markers = MarkerTuple(*labels)
        if glioma != derive_glioma_class(markers):
            raise DatasetError(f"case {case_id}: stored class {glioma} "
                               f"contradicts markers {labels}")
        bags.append(PatchBag(case_id=case_id, feats_high=high, feats_low=low,
                             markers=markers, glioma_class=glioma))
    blob.check_end()
    case_ids = set()
    for bag in bags:  # after the per-record checks, whose errors come first
        if bag.case_id in case_ids:
            raise DatasetError(f"case {bag.case_id}: repeated case id")
        case_ids.add(bag.case_id)
    return bags


# ---------------------------------------------------------------------------
# checkpoints

def _cooccurrence_text(a) -> str:
    """The co-occurrence matrix as the manifest stores it: ``repr`` of each float."""
    return ",".join(repr(float(v)) for v in np.asarray(a).ravel())


def _counts(text: str) -> np.ndarray:
    m = len(MOLECULAR)
    return np.array([np.int64(v) for v in text.split(",")]).reshape(m, m)


# meta key -> parser of its value, in the order write_checkpoint writes them; the
# matrix stays text, to be compared with the one its counts give
_META_PARSERS = {"feat_dim": int, "cooccurrence": str, "cooccurrence_counts": _counts,
                 "cooccurrence_cases": int}


def write_checkpoint(out_dir, params, feat_dim: int, cooc: CooccurrenceMatrix,
                     train_cfg: TrainConfig) -> None:
    """Write named float64 parameters plus the run metadata needed to eval."""
    counts_flat = ",".join(str(int(v)) for v in np.asarray(cooc.counts).ravel())
    lines = [_CHECKPOINT_MAGIC, f"meta feat_dim {feat_dim}",
             f"meta cooccurrence {_cooccurrence_text(cooc.a)}",
             f"meta cooccurrence_counts {counts_flat}", f"meta cooccurrence_cases {cooc.n_cases}"]
    lines += [f"config {key} {text}" for key, text in format_config(train_cfg).items()]
    arrays = [tensor.data for tensor in params.values()]
    offsets = _offsets(arrays, "<f8")
    for (name, tensor), offset in zip(params.items(), offsets):
        lines.append(f"param {name} ({','.join(str(d) for d in tensor.data.shape)}) {offset}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / CHECKPOINT_MANIFEST).write_text("\n".join(lines) + "\n")
    _write_blob(out_dir / CHECKPOINT_BLOB, arrays, "<f8")


def read_checkpoint(ckpt_dir):
    """Return (params: dict[str, ndarray], feat_dim, CooccurrenceMatrix, TrainConfig).

    Each param is a read-only float64 view of the blob.
    """
    manifest_path, lines, blob = _open(ckpt_dir, CHECKPOINT_MANIFEST, CHECKPOINT_BLOB,
                                       CheckpointError)
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{manifest_path}: not a {_CHECKPOINT_MAGIC} manifest")

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
            value = blob.array("<f8", dims, offset, f"param {key}")
        else:
            key, _, value = rest.partition(" ")
        if key in sections[kind]:
            raise CheckpointError(f"{manifest_path}: repeated {kind} {key!r}")
        sections[kind][key] = value
    blob.check_end()
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
    counts, cases = parsed["cooccurrence_counts"], parsed["cooccurrence_cases"]
    diag = np.diag(counts)
    if not (np.array_equal(counts, counts.T) and (counts >= 0).all()
            and (counts <= diag).all() and (diag <= cases).all()):
        raise CheckpointError(f"{manifest_path}: bad metadata: cooccurrence_counts "
                              f"{meta['cooccurrence_counts']!r} over {cases} cases")
    cooc = cooccurrence_from_counts(counts, cases)
    if parsed["cooccurrence"] != _cooccurrence_text(cooc.a):
        raise CheckpointError(f"{manifest_path}: bad metadata: cooccurrence "
                              f"{meta['cooccurrence']!r} is not the matrix of its counts")
    missing = [f.name for f in fields(TrainConfig) if f.name not in config_raw]
    if missing:
        raise CheckpointError(f"{manifest_path}: bad config: missing keys {missing}")
    try:
        cfg = parse_config(TrainConfig, config_raw)
    except ConfigError as exc:
        raise CheckpointError(f"{manifest_path}: bad config: {exc}") from None
    return params, parsed["feat_dim"], cooc, cfg
