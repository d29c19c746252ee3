"""Cross-task coupling: patch confidences, their overlap, and gradient
modulation between the histology and molecular parameter groups.

Patch confidences score how much each patch drives a branch's decision
for one class of interest (IDH-wildtype for the molecular side, lesion
presence for the histology side): one (N, 1) column per bag, ranked by
``top_m`` alone. The overlap of the two top-M patch sets is both a
monitored metric and -- through a softened surrogate -- a loss that
pulls the tasks toward agreeing on which patches matter, with M
shrinking on a schedule so agreement is demanded only on the most
decisive patches as training progresses.

Gradient modulation projects one parameter group's gradient to be
orthogonal to the other group's, keeping its length. A gradient is one
flat vector in the model's parameter layout (``Model.theta``), and each
group is a contiguous slice of it (``Model.groups``). The two groups
have different sizes, so projection works over their common head, the
first min(sizes) coordinates, and leaves the modulated slice's tail as
it is. Both slices lead with structurally identical sub-trees
(refinement blocks, pool, 2-way classifier) -- the molecular group
starts with the IDH branch -- so the common head pairs the coupled
branches coordinate-for-coordinate. The modulated slice is projected
and rescaled in place, so the gradient is never copied whole. Every dot
product and norm sums in numpy's fixed pairwise order, so modulation
gives the same bits at any BLAS thread count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig

_TINY_NORM = 1e-12


# ---------------------------------------------------------------------------
# patch confidences

def confidence_weights(feats: Tensor, pooled: Tensor, class_col: Tensor) -> Tensor:
    """The (N, 1) column c_n = (f_n * pooled) . class_col for every patch row f_n."""
    n = feats.data.shape[0]
    return ad.matmul(ad.mul(feats, ad.repeat_rows(pooled, n)), class_col)


def top_m(column: Tensor, m: int) -> np.ndarray:
    """The min(m, N) patch indices of highest confidence, best first, ties toward the lower index."""
    return np.argsort(-column.data.ravel(), kind="stable")[:m]


# ---------------------------------------------------------------------------
# top-M agreement

def curriculum_m(epoch: int, cfg: TrainConfig) -> int:
    """Top-M for ``epoch``: ``dcc_top_m`` decayed every ``dcc_decay_every`` epochs, floored, >= 1.

    A bag with fewer patches takes all of them: ``top_m`` slices to at most N.
    """
    return max(int(cfg.dcc_top_m * cfg.dcc_decay ** (epoch // cfg.dcc_decay_every)), 1)


def dcc_overlap(a: Tensor, b: Tensor, m: int) -> float:
    """Fraction of two (N, 1) columns' top-M patch sets that coincide; each holds min(M, N) patches."""
    top_a = top_m(a, m)
    return len(set(top_a.tolist()).intersection(top_m(b, m).tolist())) / top_a.size


def dcc_surrogate(a: Tensor, b: Tensor, m: int, temperature: float) -> Tensor:
    """Differentiable stand-in for (1 - overlap) of two (N, 1) confidence columns.

    Each side's confidences are softened into a distribution over patches;
    the loss is 1 minus the average mass each distribution places on the
    *other* side's current top-M set. The top-M memberships are treated
    as constants, so gradients flow only through the softened masses.
    """
    q_a = ad.softmax(ad.scale(a, 1.0 / temperature), axis=0)
    q_b = ad.softmax(ad.scale(b, 1.0 / temperature), axis=0)
    mask_a = np.zeros(a.data.shape)
    mask_a[top_m(a, m)] = 1.0
    mask_b = np.zeros(b.data.shape)
    mask_b[top_m(b, m)] = 1.0
    cross = ad.add(
        ad.sum_all(ad.mul(q_b, Tensor(mask_a))),
        ad.sum_all(ad.mul(q_a, Tensor(mask_b))),
    )
    return ad.sub(Tensor(1.0), ad.scale(cross, 0.5))


# ---------------------------------------------------------------------------
# gradient surgery

def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed in numpy's fixed pairwise order, whatever the BLAS thread count."""
    return float(np.add.reduce(a * b))


def project_perp(vec: np.ndarray, ref: np.ndarray) -> None:
    """Make ``vec`` orthogonal to ``ref`` in place over their common head (1-d float64).

    Only the first min(vec.size, ref.size) coordinates take part: a shorter
    ``ref`` acts as if zero-padded, a longer one as if truncated, and
    ``vec``'s tail is left untouched. A reference whose norm is below the
    tiny-norm floor leaves ``vec`` unchanged.
    """
    n = min(vec.size, ref.size)
    head, ref = vec[:n], ref[:n]
    denom = _dot(ref, ref)
    if denom >= _TINY_NORM * _TINY_NORM:
        head -= (_dot(head, ref) / denom) * ref


def rescale(vec: np.ndarray, target_norm: float) -> None:
    """Scale ``vec`` in place to the given Euclidean length (a zero vector stays zero)."""
    norm = math.sqrt(_dot(vec, vec))
    if norm >= _TINY_NORM:
        vec *= float(target_norm) / norm


# ---------------------------------------------------------------------------
# modulation

@dataclass
class ModulationRecord:
    """What modulation did that its caller cannot read off the gradient afterwards."""

    modulated_group: str       # "histology" or "molecular"
    norm_before: float         # the modulated slice's norm before modulation


def majority_vote(flags) -> int:
    """1 when positives are at least as many as negatives."""
    flags = [bool(f) for f in flags]
    return int(2 * sum(flags) >= len(flags))


def cmg_modulate(
    grad: np.ndarray,
    groups: dict,
    nmp_majority: int,
    guide: bool = True,
    apply_rescale: bool = True,
):
    """Project one group's slice of the flat gradient orthogonal to the other's.

    ``groups`` maps "histology" and "molecular" to their slices of
    ``grad``. A lesion-positive batch majority modulates the molecular
    group (histology is the reliable signal there); a negative majority
    modulates the histology group. With ``guide`` off the molecular group
    is always the one modulated. The modulated slice of ``grad`` is
    rewritten in place; returns the record of what happened.
    """
    group = "histology" if guide and nmp_majority != 1 else "molecular"
    other = "histology" if group == "molecular" else "molecular"
    vec = grad[groups[group]]
    norm_before = math.sqrt(_dot(vec, vec))
    project_perp(vec, grad[groups[other]])
    if apply_rescale:
        rescale(vec, norm_before)
    return ModulationRecord(modulated_group=group, norm_before=norm_before)
