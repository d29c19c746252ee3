"""On-disk formats: patch-bag datasets and model checkpoints.

A dataset is a text manifest (`dataset.manifest`) plus a raw blob
(`dataset.blob`) of little-endian float32 features, one high- then one
low-magnification matrix per case, row-major. A checkpoint is the same
idea at float64: a manifest of named parameter shapes and byte offsets
(`checkpoint.manifest`) plus the packed values (`checkpoint.blob`).
``write_dataset`` and ``write_checkpoint`` write in place, manifest first;
the CLI is what makes them atomic (``cli._replace_dir``).

Both share one private codec: ``_open`` reads a manifest and its blob,
``_Blob.array`` checks a span of the blob and returns a read-only view of
it, and ``_offsets`` and ``_write_blob`` lay arrays out back to back,
writing one array at a time. Each keeps its record syntax. The spans must
tile the blob as ``_write_blob`` writes it: in manifest order, each array
starts where the previous one ended, the first at byte 0, and the last
ends at the blob's end.

Writer and reader share one renderer per manifest line kind (the dataset
header and ``_record``, the checkpoint's ``_param``, ``_meta`` and
``config.format_config``): a reader accepts a line only if it renders
back from the values parsed from it, so ``+4`` or ``0_4`` for 4 is
refused. A writer refuses what its reader refuses, with its message.
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

_DATASET_HEADER = "bagset v1 cases={}"
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
        _check_finite(arr, what, self.error)
        return arr

    def check_end(self) -> None:
        """Raise unless the arrays read so far end where the blob does."""
        if self.end != len(self.data):
            raise self.error(f"{self.path}: {len(self.data) - self.end} bytes past the last "
                             f"array, which ends at byte {self.end} "
                             "(the arrays must tile the blob)")


def _check_finite(arr: np.ndarray, what: str, error) -> None:
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # half the time of .all() on a bag
        raise error(f"{what}: non-finite values")


def _as_written(what: str, text: str, written: str, error) -> None:
    """Raise ``error`` unless ``text`` is ``written``: what the writer writes for its values."""
    if text != written:
        raise error(f"{what} {text!r} is not as written: the writer writes {written!r}")


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

def _check_case_id(case_id: str) -> None:
    """The one case-id rule of writer and reader: non-empty, no whitespace, no comma.

    A manifest record splits on whitespace, and the run files are
    comma-separated with the case id a field.
    """
    if not case_id or re.search(r"[\s,]", case_id):
        raise DatasetError(f"case {case_id!r}: a case id must be non-empty "
                           "and hold no whitespace or comma")


def _record(case_id: str, n: int, k: int, markers, glioma: int, offsets, width: int) -> str:
    """A case's manifest record as ``write_dataset`` writes it, once it passes the record
    rules of writer and reader: a valid case id, 0/1 labels, a non-empty bag as wide as
    the first case (``width``) and the class its markers give."""
    record = " ".join(map(str, (case_id, n, k, *markers, glioma, *offsets)))
    _check_case_id(case_id)
    if any(v not in (0, 1) for v in markers):
        raise DatasetError(f"case {case_id}: labels must be 0/1, got {list(markers)}")
    if min(n, k) < 1:
        raise DatasetError(f"case {case_id}: empty bag in {record!r}")
    if k != width:
        raise DatasetError(f"case {case_id}: feature width {k} differs from the first "
                           f"case's {width}")
    if glioma != derive_glioma_class(markers):
        raise DatasetError(f"case {case_id}: stored class {glioma} "
                           f"contradicts markers {list(markers)}")
    return record


def _check_unique(case_ids) -> None:
    seen = set()
    for case_id in case_ids:
        if case_id in seen:
            raise DatasetError(f"case {case_id}: repeated case id")
        seen.add(case_id)


def write_dataset(out_dir, bags) -> None:
    """Write bags to ``out_dir``/dataset.{manifest,blob}.

    A bag that ``read_dataset`` would refuse raises its message before
    anything is written.
    """
    bags = list(bags)
    if not bags:
        raise DatasetError(f"{Path(out_dir) / DATASET_MANIFEST}: no cases")
    with np.errstate(over="ignore"):  # as stored: a value past float32's range is inf
        arrays = [np.asarray(f, dtype="<f4")
                  for bag in bags for f in (bag.feats_high, bag.feats_low)]
    offsets = _offsets(arrays, "<f4")
    lines = [_DATASET_HEADER.format(len(bags))]
    for i, bag in enumerate(bags):
        n, k = bag.feats_high.shape
        if bag.feats_low.shape != (n, k):
            raise DatasetError(f"case {bag.case_id}: magnification shapes differ: "
                               f"{bag.feats_high.shape} vs {bag.feats_low.shape}")
        pair = slice(2 * i, 2 * i + 2)  # the bag's arrays and offsets
        lines.append(_record(bag.case_id, n, k, MarkerTuple(*bag.markers), bag.glioma_class,
                             offsets[pair], bags[0].feats_high.shape[1]))
        for feats in arrays[pair]:
            _check_finite(feats, f"case {bag.case_id}", DatasetError)
    _check_unique(bag.case_id for bag in bags)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / DATASET_MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_blob(out_dir / DATASET_BLOB, arrays, "<f4")


def read_dataset(data_dir) -> list:
    """Read bags back, each with its stored patch count, as read-only float32 views of the blob."""
    manifest_path, lines, blob = _open(data_dir, DATASET_MANIFEST, DATASET_BLOB, DatasetError)
    head = lines[0] if lines else ""
    header = re.fullmatch(_DATASET_HEADER.format("([0-9]+)"), head)
    if header is None:
        raise DatasetError(f"{manifest_path}: malformed header {head!r}")
    declared = int(header[1])
    _as_written(f"{manifest_path}: header", head, _DATASET_HEADER.format(declared), DatasetError)
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
        markers = MarkerTuple(*labels)
        written = _record(case_id, n, k, markers, glioma, (off_high, off_low),
                          bags[0].feats_high.shape[1] if bags else k)
        _as_written(f"case {case_id}: record", record, written, DatasetError)
        high, low = (blob.array("<f4", (n, k), off, f"case {case_id}")
                     for off in (off_high, off_low))
        bags.append(PatchBag(case_id=case_id, feats_high=high, feats_low=low,
                             markers=markers, glioma_class=glioma))
    blob.check_end()
    # after the per-record checks, whose errors come first
    _check_unique(bag.case_id for bag in bags)
    return bags


# ---------------------------------------------------------------------------
# checkpoints

def _counts(text: str) -> np.ndarray:
    m = len(MOLECULAR)
    return np.array([np.int64(v) for v in text.split(",")]).reshape(m, m)


# meta key -> parser of its value, in the order write_checkpoint writes them; the
# matrix stays text, which must read as its counts' matrix is written
_META_PARSERS = {"feat_dim": int, "cooccurrence": str, "cooccurrence_counts": _counts,
                 "cooccurrence_cases": int}


def _meta(feat_dim: int, cooc: CooccurrenceMatrix) -> dict:
    """Each meta key's value as the manifest stores it; the matrix is ``repr`` of each float."""
    return dict(zip(_META_PARSERS, (
        str(feat_dim), ",".join(repr(float(v)) for v in np.asarray(cooc.a).ravel()),
        ",".join(str(int(v)) for v in np.asarray(cooc.counts).ravel()), str(cooc.n_cases))))


def _param(name: str, shape: tuple, offset: int) -> str:
    return f"param {name} ({','.join(map(str, shape))}) {offset}"


def write_checkpoint(out_dir, params, feat_dim: int, cooc: CooccurrenceMatrix,
                     train_cfg: TrainConfig) -> None:
    """Write named float64 parameters plus the run metadata needed to eval; a non-finite
    parameter raises the reader's message before anything is written."""
    arrays = [tensor.data for tensor in params.values()]
    for name, arr in zip(params, arrays):
        _check_finite(arr, f"param {name}", CheckpointError)
    lines = [_CHECKPOINT_MAGIC,
             *(f"meta {key} {text}" for key, text in _meta(feat_dim, cooc).items()),
             *(f"config {key} {text}" for key, text in format_config(train_cfg).items()),
             *map(_param, params, (arr.shape for arr in arrays), _offsets(arrays, "<f8"))]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / CHECKPOINT_MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
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
                dims = tuple(int(d) for d in shape_s[1:-1].split(",") if d)
                offset = int(offset_s)
            except ValueError:
                raise CheckpointError(f"{manifest_path}: malformed line {line!r}") from None
            _as_written(f"{manifest_path}: line", line, _param(key, dims, offset), CheckpointError)
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
    for key, text in _meta(parsed["feat_dim"], cooc).items():
        _as_written(f"{manifest_path}: bad metadata: {key}", meta[key], text, CheckpointError)
    missing = [f.name for f in fields(TrainConfig) if f.name not in config_raw]
    if missing:
        raise CheckpointError(f"{manifest_path}: bad config: missing keys {missing}")
    try:
        cfg = parse_config(TrainConfig, config_raw)
    except ConfigError as exc:
        raise CheckpointError(f"{manifest_path}: bad config: {exc}") from None
    for key, text in format_config(cfg).items():
        _as_written(f"{manifest_path}: bad config: {key}", config_raw[key], text, CheckpointError)
    return params, parsed["feat_dim"], cooc, cfg
