"""Splitting two-magnification patch features into task-specific streams.

The two magnifications are mixed (with learnable per-stream scales) into
a common base feature, which four small MLPs then project into shared and
independent components for the molecular and histology tasks. Each task's
working feature fuses its own shared + independent pair. The companion
loss pushes the two shared components together while keeping the
independent components apart from each other and informative about the
fused features.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .blocks import glorot, row


def init_disentangler(rng: np.random.Generator, k: int) -> SimpleNamespace:
    def head():
        return SimpleNamespace(w1=glorot(rng, k, 2 * k), b1=row(0.0, 2 * k),  # w1: (K, 2K)
                               w2=glorot(rng, 2 * k, k), b2=row(0.0, k))      # w2: (2K, K)

    return SimpleNamespace(
        scale_low=Tensor(1.0, requires_grad=True),   # () learnable weight on low-mag features
        scale_high=Tensor(1.0, requires_grad=True),  # () learnable weight on high-mag features
        base_w=glorot(rng, 2 * k, k), base_b=row(0.0, k),  # base_w: (2K, K)
        shared_mol=head(), indep_mol=head(), shared_his=head(), indep_his=head(),
        fuse_mol_w=glorot(rng, 2 * k, k), fuse_mol_b=row(0.0, k),  # fuse_*_w: (2K, K)
        fuse_his_w=glorot(rng, 2 * k, k), fuse_his_b=row(0.0, k),
    )


@dataclass
class DisentangledFeatures:
    shared_mol: Tensor  # (N, K)
    indep_mol: Tensor
    shared_his: Tensor
    indep_his: Tensor
    fused_mol: Tensor   # (N, K) molecular-task working features
    fused_his: Tensor   # (N, K) histology-task working features


def _head_mlp(x: Tensor, p: SimpleNamespace) -> Tensor:
    return ad.mlp(x, p.w1, p.b1, p.w2, p.b2)


def disentangle(feats_low: Tensor, feats_high: Tensor, p: SimpleNamespace) -> DisentangledFeatures:
    if feats_low.data.shape != feats_high.data.shape:
        raise ad.ShapeError(
            f"disentangle: magnification shapes differ: "
            f"{feats_low.data.shape} vs {feats_high.data.shape}"
        )
    mixed = ad.concat([ad.mul(p.scale_low, feats_low), ad.mul(p.scale_high, feats_high)], axis=1)
    base = ad.linear(mixed, p.base_w, p.base_b)
    shared_mol = _head_mlp(base, p.shared_mol)
    indep_mol = _head_mlp(base, p.indep_mol)
    shared_his = _head_mlp(base, p.shared_his)
    indep_his = _head_mlp(base, p.indep_his)
    fused_mol = ad.linear(ad.concat([shared_mol, indep_mol], axis=1), p.fuse_mol_w, p.fuse_mol_b)
    fused_his = ad.linear(ad.concat([shared_his, indep_his], axis=1), p.fuse_his_w, p.fuse_his_b)
    return DisentangledFeatures(
        shared_mol=shared_mol, indep_mol=indep_mol,
        shared_his=shared_his, indep_his=indep_his,
        fused_mol=fused_mol, fused_his=fused_his,
    )


def disentangle_loss(d: DisentangledFeatures) -> Tensor:
    """Shared-stream gap over the summed independent-stream gaps.

    A ratio of Frobenius norms: descent shrinks the distance between the
    two shared components while growing the distances separating the
    independent components from each other and from the fused features,
    so the shared/independent split actually carries different content.
    """
    num = ad.l2norm(ad.sub(d.shared_mol, d.shared_his))
    den = ad.add(
        ad.add(
            ad.l2norm(ad.sub(d.indep_mol, d.indep_his)),
            ad.l2norm(ad.sub(d.indep_mol, d.fused_mol)),
        ),
        ad.l2norm(ad.sub(d.indep_his, d.fused_his)),
    )
    return ad.div(num, ad.add(den, 1e-8))  # 1e-8 keeps a zero denominator finite
