"""Shared network pieces: a pre-norm transformer block and
attention-weighted pooling over a bag of patch features.

Patch bags are (N, K) matrices with no ordering semantics, so the block
uses no positional encoding and everything here is permutation
equivariant (the pooling output is permutation invariant).
"""
from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def glorot(rng: np.random.Generator, rows: int, cols: int) -> Tensor:
    """A (rows, cols) weight drawn from N(0, 2 / (rows + cols)), the Glorot variance."""
    return Tensor(rng.normal(scale=math.sqrt(2.0 / (rows + cols)), size=(rows, cols)),
                  requires_grad=True)


def row(value: float, cols: int) -> Tensor:
    """A (1, cols) parameter row filled with ``value``."""
    return Tensor(np.full((1, cols), value), requires_grad=True)


def init_block(rng: np.random.Generator, k: int) -> SimpleNamespace:
    """Single-head self-attention + feed-forward, all square in K."""
    return SimpleNamespace(
        ln1_gain=row(1.0, k),
        ln1_bias=row(0.0, k),
        wq=glorot(rng, k, k),
        wk=glorot(rng, k, k),
        wv=glorot(rng, k, k),
        wo=glorot(rng, k, k),
        ln2_gain=row(1.0, k),
        ln2_bias=row(0.0, k),
        ffn_w1=glorot(rng, k, 2 * k),
        ffn_b1=row(0.0, 2 * k),
        ffn_w2=glorot(rng, 2 * k, k),
        ffn_b2=row(0.0, k),
    )


def transformer_block(x: Tensor, p: SimpleNamespace) -> Tensor:
    """Pre-norm residual block: x + Attn(LN(x)), then + FFN(LN(.)); one graph node."""
    return ad.transformer_block(x, p.ln1_gain, p.ln1_bias, p.wq, p.wk, p.wv, p.wo,
                                p.ln2_gain, p.ln2_bias, p.ffn_w1, p.ffn_b1, p.ffn_w2, p.ffn_b2,
                                1.0 / math.sqrt(x.data.shape[1]))


def init_pool(rng: np.random.Generator, k: int) -> SimpleNamespace:
    std = math.sqrt(1.0 / k)
    return SimpleNamespace(
        v=Tensor(rng.normal(scale=std, size=(k, k)), requires_grad=True),  # (K, K) scoring basis
        w=Tensor(rng.normal(scale=std, size=(k, 1)), requires_grad=True),  # (K, 1) scoring weights
    )


def attention_pool(x: Tensor, p: SimpleNamespace) -> Tensor:
    """Softmax-attention pooling of an (N, K) bag into a (1, K) summary; one graph node.

    The weights are a positive (N, 1) column summing to one, so the summary
    is a convex combination of patch rows.
    """
    return ad.attention_pool(x, p.v, p.w)
