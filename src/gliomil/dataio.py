"""On-disk formats: patch-bag datasets and model checkpoints.

A dataset is a text manifest (`dataset.manifest`) plus a raw blob
(`dataset.blob`) of little-endian float32 features, one high- then one
low-magnification matrix per case, row-major. A checkpoint is the same
idea at float64: a manifest of named parameter shapes (`checkpoint.manifest`)
plus the packed values (`checkpoint.blob`). A manifest stores no byte offset,
glioma class or co-occurrence matrix: its reader derives each. ``write_dataset``
and ``write_checkpoint`` write in place, manifest first; the CLI is what makes
them atomic (``cli._replace_dir``).

Both share one private codec: ``_open`` reads a manifest and its blob and checks
the manifest's version line, ``_Blob.array`` reads the blob's next array as a
read-only view, and ``_write_blob`` writes arrays back to back. So the arrays tile
the blob in manifest order, the first at byte 0 and the last ending at its end.

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
from pathlib import Path

import numpy as np

from .config import MOLECULAR, ConfigError, TrainConfig, format_config, parse_config, read_utf8
from .synth import (CooccurrenceMatrix, MarkerTuple, PatchBag, cooccurrence_from_counts,
                    derive_glioma_class)

DATASET_MANIFEST = "dataset.manifest"
DATASET_BLOB = "dataset.blob"
CHECKPOINT_MANIFEST = "checkpoint.manifest"
CHECKPOINT_BLOB = "checkpoint.blob"

# each manifest's first line starts with its format and version
_DATASET_VERSION, _CHECKPOINT_VERSION = "bagset v2", "paramset v2"
_INTEGERS = re.compile("(?: -?[0-9]+)+")  # a dataset record's fields after its case id


class DatasetError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the shared codec

def _open(directory, manifest_name: str, blob_name: str, version: str, error):
    """(manifest path, manifest text, ``_Blob``); a missing or non-UTF-8 file, or a manifest
    whose first line is not of ``version``, raises ``error``."""
    manifest_path, blob_path = Path(directory) / manifest_name, Path(directory) / blob_name
    for path in (manifest_path, blob_path):
        if not path.exists():
            raise error(f"missing {path}")
    text = read_utf8(manifest_path, error)
    found = " ".join(text.partition("\n")[0].split()[:2])
    if found != version:
        raise error(f"{manifest_path}: a {found or 'blank'} manifest; this gliomil reads {version}")
    return manifest_path, text, _Blob(blob_path, blob_path.read_bytes(), error)


class _Blob:
    """A blob whose arrays are read in manifest order and must tile it."""

    def __init__(self, path: Path, data: bytes, error):
        self.path, self.data, self.error, self.end = path, data, error, 0

    def array(self, dtype: str, shape: tuple, what: str) -> np.ndarray:
        """The read-only ``shape`` view of the blob as ``dtype`` from where the previous
        array ended (byte 0 for the first).

        A negative shape, a truncated blob or a non-finite value raises.
        """
        if min(shape, default=0) < 0:
            raise self.error(f"{what}: negative shape {shape}")
        count, offset = math.prod(shape), self.end
        self.end = offset + count * np.dtype(dtype).itemsize
        if self.end > len(self.data):  # not shown: it may have more digits than str() renders
            raise self.error(f"{what}: truncated blob (shape {shape} needs more than the "
                             f"{len(self.data) - offset} bytes left)")
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


def _record(case_id: str, n: int, k: int, markers, width: int) -> str:
    """A case's manifest record as ``write_dataset`` writes it, once it passes the record
    rules of writer and reader: a valid case id, fields written as integers, 0/1 labels and
    a non-empty bag as wide as the first case (``width``)."""
    record = " ".join(map(str, (case_id, n, k, *markers)))
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
    return record


def _dataset_lines(rows: list) -> list:
    """The dataset manifest: the header, then each row's ``_record``. A row is a case's
    (id, patch count, width, markers); no case id may repeat."""
    lines = [f"{_DATASET_VERSION} cases={len(rows)}", *(_record(*row, rows[0][2]) for row in rows)]
    if repeated := [case_id for case_id, n in Counter(row[0] for row in rows).items() if n > 1]:
        raise DatasetError(f"case {repeated[0]}: repeated case id")
    return lines


def write_dataset(out_dir, bags) -> None:
    """Write bags to ``out_dir``/dataset.{manifest,blob}.

    A bag that ``read_dataset`` would refuse raises its message before
    anything is written, and so does a bag whose class is not its markers':
    it would read back with theirs.
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
    lines = _dataset_lines([(bag.case_id, *bag.feats_high.shape, MarkerTuple(*bag.markers))
                            for bag in bags])
    for bag in bags:
        if bag.glioma_class != derive_glioma_class(bag.markers):
            raise DatasetError(f"case {bag.case_id}: class {bag.glioma_class} "
                               f"contradicts markers {list(bag.markers)}")
    for i, feats in enumerate(arrays):
        _check_finite(feats, f"case {bags[i // 2].case_id}", DatasetError)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / DATASET_MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_blob(out_dir / DATASET_BLOB, arrays, "<f4")


def read_dataset(data_dir) -> list:
    """Read bags back, each with its stored patch count, as read-only float32 views of the
    blob, and the class its markers give."""
    manifest_path, text, blob = _open(data_dir, DATASET_MANIFEST, DATASET_BLOB,
                                      _DATASET_VERSION, DatasetError)
    records = text.splitlines()[1:]  # after the header, which the comparison checks
    if not records:
        raise DatasetError(f"{manifest_path}: no cases")
    width = len(MarkerTuple._fields) + 3  # id, n, k and the finding labels
    rows = []
    for record in records:
        tokens = record.split()
        if len(tokens) != width:
            raise DatasetError(f"{manifest_path}: malformed record (want {width} fields): {record!r}")
        case_id = tokens[0]
        try:
            n, k, *labels = map(int, tokens[1:])
        except ValueError:
            raise DatasetError(f"case {case_id}: a field is not an integer in {record!r}") from None
        rows.append((case_id, n, k, MarkerTuple(*labels)))
    _as_written(manifest_path, text, _dataset_lines(rows), DatasetError)
    bags = [PatchBag(case_id, *(blob.array("<f4", (n, k), f"case {case_id}") for _ in range(2)),
                     markers, derive_glioma_class(markers))
            for case_id, n, k, markers in rows]
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
# matrix is not stored, since read_checkpoint builds it from the counts
_META_PARSERS = {"feat_dim": int, "cooccurrence_counts": _counts, "cooccurrence_cases": int}


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
    """The checkpoint manifest: the version line, the ``meta`` and ``format_config`` lines,
    then a ``param`` line per named array, which tile the blob in that order."""
    meta = (feat_dim, _counts_text(cooc.counts), cooc.n_cases)
    return [_CHECKPOINT_VERSION,
            *(f"meta {key} {value}" for key, value in zip(_META_PARSERS, meta)),
            *(f"config {key} {text}" for key, text in format_config(cfg).items()),
            *(f"param {name} ({','.join(map(str, arr.shape))})" for name, arr in arrays.items())]


def write_checkpoint(out_dir, params, feat_dim: int, cooc: CooccurrenceMatrix,
                     train_cfg: TrainConfig) -> None:
    """Write named float64 parameters plus the run metadata needed to eval.

    The parameters tile the blob in manifest order. What the reader refuses
    raises its message before anything is written: a non-finite parameter, or
    counts that are no joint-count table. ``cooc.a`` is not stored, so a matrix
    that is not the one the reader builds from the counts raises too.
    """
    manifest = Path(out_dir) / CHECKPOINT_MANIFEST
    arrays = {name: tensor.data for name, tensor in params.items()}
    for name, arr in arrays.items():
        _check_finite(arr, f"param {name}", CheckpointError)
    _check_counts(manifest, np.asarray(cooc.counts), cooc.n_cases)
    if cooc.a.tobytes() != cooccurrence_from_counts(cooc.counts, cooc.n_cases).a.tobytes():
        raise CheckpointError(f"{manifest}: bad metadata: the cooccurrence matrix is not its counts'")
    lines = _checkpoint_lines(arrays, feat_dim, cooc, train_cfg)
    manifest.parent.mkdir(parents=True, exist_ok=True)
    manifest.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    _write_blob(manifest.parent / CHECKPOINT_BLOB, arrays.values(), "<f8")


def read_checkpoint(ckpt_dir):
    """Return (params: dict[str, ndarray], feat_dim, CooccurrenceMatrix, TrainConfig).

    Each param is a read-only float64 view of the blob.
    """
    manifest_path, text, blob = _open(ckpt_dir, CHECKPOINT_MANIFEST, CHECKPOINT_BLOB,
                                      _CHECKPOINT_VERSION, CheckpointError)
    sections = {"meta": {}, "config": {}, "param": {}}
    for line in text.splitlines()[1:]:  # after the version line, which the comparison checks
        kind, _, rest = line.partition(" ")
        if kind not in sections:
            raise CheckpointError(f"{manifest_path}: unknown line kind {kind!r}")
        if kind == "param":
            try:
                key, shape_s = rest.rsplit(" ", 1)
                dims = tuple(int(d) for d in shape_s[1:-1].split(",") if d)
            except ValueError:
                raise CheckpointError(f"{manifest_path}: malformed line {line!r}") from None
            value = blob.array("<f8", dims, f"param {key}")
        else:
            key, _, value = rest.partition(" ")
        sections[kind][key] = value  # a repeated key keeps one value, so the comparison refuses it
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
