"""Task heads: molecular marker branches with a correlation graph layer,
the histology branch, and the fused tumour classifier.

``config.FINDINGS`` names and sizes every branch. The marker branches
run in its order -- IDH first as the upstream event, then 1p/19q on IDH's
output, then CDKN on 1p/19q's -- so each later branch sees the earlier
ones' refinements. Their stacked outputs pass through one graph
convolution whose (fixed) adjacency is the marker co-occurrence estimated
from training labels, blended back into the input by a residual
coefficient; a model built without the graph (``ModelConfig.use_graph``)
reads the refined rows out directly.

Every finding's branch, marker or histology, ends in the same
``BranchState``: the patch rows it pooled, their summary and its logits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .blocks import attention_pool, glorot, init_block, init_pool, row, transformer_block
from .config import MOLECULAR


def init_branch(rng: np.random.Generator, k: int, n_blocks: int) -> SimpleNamespace:
    """One prediction branch: refinement blocks, a pool, and a 2-way classifier."""
    return SimpleNamespace(
        blocks=[init_block(rng, k) for _ in range(n_blocks)],
        pool=init_pool(rng, k),
        clf_w=glorot(rng, k, 2),  # (K, 2)
        clf_b=row(0.0, 2),        # (1, 2)
    )


@dataclass
class BranchState:
    """One finding's branch output: the rows it pooled, their summary, its logits."""

    feats: Tensor   # (N, K) patch rows; a marker branch's are the post-graph rows
    pooled: Tensor  # (1, K)
    logits: Tensor  # (1, 2)


def refine(h: Tensor, p: SimpleNamespace) -> Tensor:
    """Run a branch's transformer blocks over (N, K) patch rows."""
    for block in p.blocks:
        h = transformer_block(h, block)
    return h


def readout(f: Tensor, p: SimpleNamespace) -> BranchState:
    """Pool a branch's patch rows and classify the (1, K) summary."""
    z = attention_pool(f, p.pool)
    return BranchState(feats=f, pooled=z, logits=ad.linear(z, p.clf_w, p.clf_b))


def init_molecular(rng: np.random.Generator, k: int) -> SimpleNamespace:
    """One branch per ``config.MOLECULAR`` row, named by its short name and drawn in
    the table's order, then the marker graph's weight."""
    return SimpleNamespace(
        **{f.short: init_branch(rng, k, f.blocks) for f in MOLECULAR},
        graph_w=Tensor(rng.normal(scale=math.sqrt(1.0 / k), size=(k, k)),  # (K, K)
                       requires_grad=True),
    )


def graph_mix(feats_in, adjacency: np.ndarray, graph_w: Tensor, alpha: float):
    """One graph convolution over the marker axis with a residual blend.

    mid_i = relu(sum_j A[i, j] * (F_j @ W)); out_i = alpha * mid_i +
    (1 - alpha) * F_i. The adjacency is a constant M x M matrix over the M markers.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    m = len(MOLECULAR)
    if a.shape != (m, m):
        raise ValueError(f"adjacency must be {m}x{m}, got {a.shape}")
    projected = [ad.matmul(f, graph_w) for f in feats_in]
    return tuple(
        ad.graph_mix_row(projected, a[i], ad.scale(f, 1.0 - alpha), alpha)
        for i, f in enumerate(feats_in)
    )


def molecular_forward(
    feats: Tensor,
    adjacency: np.ndarray,
    p: SimpleNamespace,
    alpha: float,
    use_graph: bool = True,
) -> tuple:
    """The marker branches' states, in ``config.MOLECULAR`` order."""
    branches = [getattr(p, f.short) for f in MOLECULAR]
    h = feats
    refined = []
    for branch in branches:
        h = refine(h, branch)
        refined.append(h)
    if use_graph:
        refined = graph_mix(refined, adjacency, p.graph_w, alpha)
    return tuple(readout(f, branch) for branch, f in zip(branches, refined))


def correlation_loss(feats, adjacency: np.ndarray) -> Tensor:
    """Mean squared gap between label co-occurrence and feature cosines.

    The feature side is the M x M matrix of flattened (Frobenius) cosine
    similarities between marker feature blocks (``ad.cosine_gram``); a
    zero-norm block makes its pairs' cosines 0.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    gap = ad.sub(ad.cosine_gram(feats), a)
    return ad.scale(ad.sum_all(ad.mul(gap, gap)), 1.0 / a.size)


def histology_forward(feats: Tensor, p: SimpleNamespace) -> BranchState:
    # a function of its own only because perfbench/tracer.py looks it up by name
    return readout(refine(feats, p), p)


def fusion_classify(pooled_his: Tensor, pooled_mol, w: Tensor, b: Tensor) -> Tensor:
    """Four-way tumour logits from both tasks' pooled summaries.

    The molecular side enters as the mean of the marker summaries, summed
    left to right; the histology side as-is. Both halves concatenate into (1, 2K).
    """
    mol_mean = ad.scale(functools.reduce(ad.add, pooled_mol), 1.0 / len(pooled_mol))
    joint = ad.concat([pooled_his, mol_mean], axis=1)
    return ad.linear(joint, w, b)
