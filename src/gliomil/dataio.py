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

Each format has one manifest function (``_dataset_lines``, ``_checkpoint_lines``)
that holds its rules. The writer writes its lines; the reader passes the values it
parsed to it and compares the whole text once (``_as_written``), so a respelled
number, a reordered, blank or missing line, CRLF or no final newline is refused.
A writer refuses what its reader refuses, with its message.
"""
from __future__ import annotations

import math
import re
from collections import Counter
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
_INTEGERS = re.compile("(?: -?[0-9]+)+")  # a dataset record's fields after its case id


class DatasetError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the shared codec

def _open(directory, manifest_name: str, blob_name: str, error):
    """(manifest path, manifest text, ``_Blob``); a missing or non-UTF-8 file raises ``error``."""
    manifest_path, blob_path = Path(directory) / manifest_name, Path(directory) / blob_name
    for path in (manifest_path, blob_path):
        if not path.exists():
            raise error(f"missing {path}")
    return (manifest_path, read_utf8(manifest_path, error),
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


def _as_written(path, text: str, lines, error) -> None:
    """Raise ``error`` unless ``text`` is ``lines``, each ending in a newline: what the writer
    writes for the values read from it. The message quotes the first line that differs."""
    written = "".join(f"{line}\n" for line in lines)
    if text != written:
        got, want = (re.findall(".*\n|.+", t) + [None] for t in (text, written))
        n = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise error(f"{path}: line {n + 1} {_quote(got[n])} is not as written: "
                    f"the writer writes {_quote(want[n])}")


def _quote(line) -> str:
    """A manifest line as a message quotes it: without its newline; None is past the last."""
    return ("(end of file)" if line is None else repr(line[:-1]) if line.endswith("\n")
            else f"{line!r} (no newline)")


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
    rules of writer and reader: a valid case id, fields written as integers, 0/1 labels, a
    non-empty bag as wide as the first case (``width``) and the class its markers give."""
    record = " ".join(map(str, (case_id, n, k, *markers, glioma, *offsets)))
    _check_case_id(case_id)
    if not _INTEGERS.fullmatch(record, len(case_id)):  # so no label reads False or 1.0
        raise DatasetError(f"case {case_id}: a field is not an integer in {record!r}")
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


def _dataset_lines(rows: list) -> list:
    """The dataset manifest: the header, then each row's ``_record``. A row is a case's
    (id, patch count, width, markers, class, (high, low) offsets); no case id may repeat."""
    lines = [_DATASET_HEADER.format(len(rows)), *(_record(*row, rows[0][2]) for row in rows)]
    if repeated := [case_id for case_id, n in Counter(row[0] for row in rows).items() if n > 1]:
        raise DatasetError(f"case {repeated[0]}: repeated case id")
    return lines


def write_dataset(out_dir, bags) -> None:
    """Write bags to ``out_dir``/dataset.{manifest,blob}.

    A bag that ``read_dataset`` would refuse raises its message before
    anything is written.
    """
    bags = list(bags)
    if not bags:
        raise DatasetError(f"{Path(out_dir) / DATASET_MANIFEST}: no cases")
    for bag in bags:
        if bag.feats_low.shape != bag.feats_high.shape:
            raise DatasetError(f"case {bag.case_id}: magnification shapes differ: "
                               f"{bag.feats_high.shape} vs {bag.feats_low.shape}")
    with np.errstate(over="ignore"):  # as stored: a value past float32's range is inf
        arrays = [np.asarray(f, dtype="<f4")
                  for bag in bags for f in (bag.feats_high, bag.feats_low)]
    offsets = _offsets(arrays, "<f4")
    lines = _dataset_lines([(bag.case_id, *bag.feats_high.shape, MarkerTuple(*bag.markers),
                             bag.glioma_class, offsets[2 * i:2 * i + 2])
                            for i, bag in enumerate(bags)])
    for i, feats in enumerate(arrays):
        _check_finite(feats, f"case {bags[i // 2].case_id}", DatasetError)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / DATASET_MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_blob(out_dir / DATASET_BLOB, arrays, "<f4")


def read_dataset(data_dir) -> list:
    """Read bags back, each with its stored patch count, as read-only float32 views of the blob."""
    manifest_path, text, blob = _open(data_dir, DATASET_MANIFEST, DATASET_BLOB, DatasetError)
    records = text.splitlines()[1:]  # after the header, which the comparison checks
    if not records:
        raise DatasetError(f"{manifest_path}: no cases")
    width = len(MarkerTuple._fields) + 6  # id, n, k, the finding labels, class, 2 offsets
    rows = []
    for record in records:
        tokens = record.split()
        if len(tokens) != width:
            raise DatasetError(f"{manifest_path}: malformed record (want {width} fields): {record!r}")
        case_id = tokens[0]
        try:
            n, k, *labels, glioma, off_high, off_low = map(int, tokens[1:])
        except ValueError:
            raise DatasetError(f"case {case_id}: a field is not an integer in {record!r}") from None
        rows.append((case_id, n, k, MarkerTuple(*labels), glioma, (off_high, off_low)))
    _as_written(manifest_path, text, _dataset_lines(rows), DatasetError)
    bags = [PatchBag(case_id, *(blob.array("<f4", (n, k), off, f"case {case_id}")
                                for off in offsets), markers, glioma)
            for case_id, n, k, markers, glioma, offsets in rows]
    blob.check_end()
    return bags


# ---------------------------------------------------------------------------
# checkpoints

def _counts(text: str) -> np.ndarray:
    m = len(MOLECULAR)
    return np.array([np.int64(v) for v in text.split(",")]).reshape(m, m)


def _counts_text(counts) -> str:
    return ",".join(str(int(v)) for v in np.ravel(counts))


# meta key -> parser of its value, in the order write_checkpoint writes them; the
# matrix stays text, which must read as its counts' matrix is written
_META_PARSERS = {"feat_dim": int, "cooccurrence": str, "cooccurrence_counts": _counts,
                 "cooccurrence_cases": int}


def _meta(feat_dim: int, cooc: CooccurrenceMatrix) -> dict:
    """Each meta key's value as the manifest stores it; the matrix is ``repr`` of each float."""
    return dict(zip(_META_PARSERS, (
        str(feat_dim), ",".join(repr(float(v)) for v in np.asarray(cooc.a).ravel()),
        _counts_text(cooc.counts), str(cooc.n_cases))))


def _check_counts(path, counts: np.ndarray, cases: int) -> None:
    """The joint-count rule of writer and reader: an (M, M) symmetric table of non-negative
    joint positives, none above either marker's positives, which are at most ``cases``."""
    m, diag = len(MOLECULAR), np.diag(counts)
    if not (counts.shape == (m, m) and np.array_equal(counts, counts.T) and (counts >= 0).all()
            and (counts <= diag).all() and (diag <= cases).all()):
        raise CheckpointError(f"{path}: bad metadata: cooccurrence_counts "
                              f"{_counts_text(counts)!r} over {cases} cases")


def _checkpoint_lines(arrays: dict, feat_dim: int, cooc: CooccurrenceMatrix,
                      cfg: TrainConfig) -> list:
    """The checkpoint manifest: the magic line, the ``_meta`` and ``format_config`` lines,
    then a ``param`` line per named array, which lie back to back in the blob."""
    return [_CHECKPOINT_MAGIC,
            *(f"meta {key} {text}" for key, text in _meta(feat_dim, cooc).items()),
            *(f"config {key} {text}" for key, text in format_config(cfg).items()),
            *(f"param {name} ({','.join(map(str, arr.shape))}) {offset}"
              for (name, arr), offset in zip(arrays.items(), _offsets(arrays.values(), "<f8")))]


def write_checkpoint(out_dir, params, feat_dim: int, cooc: CooccurrenceMatrix,
                     train_cfg: TrainConfig) -> None:
    """Write named float64 parameters plus the run metadata needed to eval.

    What the reader refuses raises its message before anything is written: a
    non-finite parameter, counts that are no joint-count table, or a matrix that
    is not, bit for bit, its counts' matrix.
    """
    manifest = Path(out_dir) / CHECKPOINT_MANIFEST
    arrays = {name: tensor.data for name, tensor in params.items()}
    for name, arr in arrays.items():
        _check_finite(arr, f"param {name}", CheckpointError)
    _check_counts(manifest, np.asarray(cooc.counts), cooc.n_cases)
    text = "".join(f"{line}\n" for line in _checkpoint_lines(arrays, feat_dim, cooc, train_cfg))
    of_counts = cooccurrence_from_counts(cooc.counts, cooc.n_cases)  # as the reader builds it
    _as_written(manifest, text, _checkpoint_lines(arrays, feat_dim, of_counts, train_cfg),
                CheckpointError)
    manifest.parent.mkdir(parents=True, exist_ok=True)
    manifest.write_text(text, encoding="utf-8")
    _write_blob(manifest.parent / CHECKPOINT_BLOB, arrays.values(), "<f8")


def read_checkpoint(ckpt_dir):
    """Return (params: dict[str, ndarray], feat_dim, CooccurrenceMatrix, TrainConfig).

    Each param is a read-only float64 view of the blob.
    """
    manifest_path, text, blob = _open(ckpt_dir, CHECKPOINT_MANIFEST, CHECKPOINT_BLOB,
                                      CheckpointError)
    lines = text.splitlines()
    if not lines or lines[0] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{manifest_path}: not a {_CHECKPOINT_MAGIC} manifest")

    sections = {"meta": {}, "config": {}, "param": {}}
    for line in lines[1:]:
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
            value = blob.array("<f8", dims, offset, f"param {key}")
        else:
            key, _, value = rest.partition(" ")
        if key in sections[kind]:
            raise CheckpointError(f"{manifest_path}: repeated {kind} {key!r}")
        sections[kind][key] = value
    blob.check_end()
    # a missing meta key parses as ''
    meta, params = dict.fromkeys(_META_PARSERS, "") | sections["meta"], sections["param"]

    parsed = {}
    for key, parse in _META_PARSERS.items():
        try:
            parsed[key] = parse(meta[key])
        except (ValueError, OverflowError):
            raise CheckpointError(f"{manifest_path}: bad metadata: {key} {meta[key]!r}") from None
    counts, cases = parsed["cooccurrence_counts"], parsed["cooccurrence_cases"]
    _check_counts(manifest_path, counts, cases)
    cooc = cooccurrence_from_counts(counts, cases)
    try:
        cfg = parse_config(TrainConfig, sections["config"])
    except ConfigError as exc:
        raise CheckpointError(f"{manifest_path}: bad config: {exc}") from None
    _as_written(manifest_path, text, _checkpoint_lines(params, parsed["feat_dim"], cooc, cfg),
                CheckpointError)
    return params, parsed["feat_dim"], cooc, cfg
