"""Synthetic multi-magnification patch bags with planted marker signals.

Each case carries three molecular markers (IDH mutation, 1p/19q
co-deletion, CDKN2A/B homozygous deletion), one histology flag
(necrosis/microvascular proliferation, "NMP"), and the tumour class the
four jointly determine. Bags are patch feature matrices at two
magnifications; a positive label plants a fixed unit direction on a
random subset of patches -- molecular signals at high magnification, the
histology signal at low magnification.

Every case draws from its own RNG stream keyed by (seed, case_id), so a
dataset is reproducible case-by-case regardless of generation order.
"""
from __future__ import annotations

import functools
import hashlib
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .config import FINDINGS, MOLECULAR, GenConfig

CLASS_NAMES = (
    "gbm_grade4",          # IDH wildtype
    "astro_high_grade",    # IDH mutant, non-codeleted, CDKN loss or NMP
    "astro_low_grade",     # IDH mutant, non-codeleted, neither
    "oligodendroglioma",   # IDH mutant and 1p/19q co-deleted
)


class MarkerTuple(namedtuple("MarkerTuple", [f.name for f in FINDINGS])):
    """A case's 0/1 label of each finding: one field per ``config.FINDINGS`` row, in its order."""

    __slots__ = ()

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=np.int64)


@dataclass
class PatchBag:
    case_id: str
    feats_high: np.ndarray  # (N, K) float32, as stored on disk
    feats_low: np.ndarray   # (N, K) float32, as stored on disk
    markers: MarkerTuple
    glioma_class: int


@dataclass
class CooccurrenceMatrix:
    """Symmetrized conditional co-positivity of the M molecular markers."""

    a: np.ndarray        # (M, M) float64
    counts: np.ndarray   # (M, M) int64 joint-positive counts (diag = marginals)
    n_cases: int


def derive_glioma_class(markers: MarkerTuple) -> int:
    """Tumour class from markers; the first matching rule wins.

    wildtype IDH -> 0; co-deletion -> 3; CDKN loss or NMP -> 1; else 2.
    """
    if markers.idh_mut == 0:
        return 0
    if markers.codel_1p19q == 1:
        return 3
    if markers.cdkn_homdel == 1 or markers.nmp == 1:
        return 1
    return 2


def rng_for_case(seed: int, case_id: str) -> np.random.Generator:
    """Independent, platform-stable RNG stream for one case."""
    digest = hashlib.sha256(f"{seed}|{case_id}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def sample_case(rng: np.random.Generator, cfg: GenConfig) -> MarkerTuple:
    """Draw one marker tuple. Co-deletion only ever occurs with IDH mutation."""
    idh = int(rng.random() < cfg.p_idh_mut)
    codel = int(idh == 1 and rng.random() < cfg.p_codel_given_mut)
    cdkn = int(rng.random() < cfg.p_cdkn)
    p_nmp = cfg.nmp_given_idhmut if idh == 1 else cfg.nmp_given_idhwt
    nmp = int(rng.random() < p_nmp)
    return MarkerTuple(idh, codel, cdkn, nmp)


@functools.lru_cache(maxsize=None)
def signal_directions(feat_dim: int) -> Mapping:
    """Fixed unit directions for the planted signals, one per finding, keyed by its name.

    Derived from a constant-seeded Gaussian draw, orthonormalized when the
    feature space is wide enough, so the same feat_dim always produces the
    same geometry. Computed once per width; the mapping and its arrays
    are read-only, because every caller shares them.
    """
    n = len(FINDINGS)
    rng = np.random.default_rng(718281828)
    raw = rng.normal(size=(n, feat_dim))
    if feat_dim >= n:
        q, _ = np.linalg.qr(raw.T)
        dirs = q.T[:n].copy()
    else:
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    dirs.flags.writeable = False
    return MappingProxyType({f.name: d for f, d in zip(FINDINGS, dirs)})


def generate_bag(
    markers: MarkerTuple,
    cfg: GenConfig,
    rng: np.random.Generator,
    case_id: str = "",
) -> PatchBag:
    """Standard-normal background plus per-label evidence patches.

    Features are drawn in float64 and kept as float32, the on-disk
    format, so bags survive a write and read bit for bit.
    """
    n, k = cfg.n_patches, cfg.feat_dim
    high = rng.standard_normal((n, k))
    low = rng.standard_normal((n, k))
    n_evidence = min(n, int(round(cfg.evidence_fraction * n)))
    for finding, direction, value in zip(FINDINGS, signal_directions(k).values(), markers):
        rows = rng.choice(n, size=n_evidence, replace=False)
        if value == 1 and n_evidence > 0:
            target = high if finding.group == "molecular" else low
            target[rows] += cfg.signal_strength * direction
    high = high.astype(np.float32)
    low = low.astype(np.float32)
    return PatchBag(
        case_id=case_id,
        feats_high=high,
        feats_low=low,
        markers=markers,
        glioma_class=derive_glioma_class(markers),
    )


def generate_dataset(cfg: GenConfig) -> list:
    bags = []
    for i in range(cfg.n_cases):
        case_id = f"case{i:04d}"
        rng = rng_for_case(cfg.seed, case_id)
        markers = sample_case(rng, cfg)
        bags.append(generate_bag(markers, cfg, rng, case_id=case_id))
    return bags


def marker_table(bags) -> np.ndarray:
    """The (n, M) table of molecular markers that ``estimate_cooccurrence`` reads."""
    return np.array([b.markers.as_array()[:len(MOLECULAR)] for b in bags])


def estimate_cooccurrence(marker_rows: np.ndarray) -> CooccurrenceMatrix:
    """Co-occurrence of the M molecular markers over a label table.

    ``marker_rows`` is (n_cases, M) of 0/1, the markers in ``config.MOLECULAR``
    order. Entry (i, j) is the average of the two conditional positive rates
    P(i=1 | j=1) and P(j=1 | i=1); an undefined conditional (marker never
    positive) counts as 0.
    """
    rows = np.asarray(marker_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != len(MOLECULAR):
        raise ValueError(f"expected an (n, {len(MOLECULAR)}) marker table, got {rows.shape}")
    return cooccurrence_from_counts(rows.T @ rows, rows.shape[0])


def cooccurrence_from_counts(counts: np.ndarray, n_cases: int) -> CooccurrenceMatrix:
    """The co-occurrence matrix of an (M, M) int64 joint-positive count table over ``n_cases``."""
    marginals = np.diag(counts).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(marginals[None, :] > 0, counts / marginals[None, :], 0.0)
    a = 0.5 * (cond + cond.T)
    return CooccurrenceMatrix(a=a, counts=counts, n_cases=n_cases)
