"""Full model assembly: one flat parameter vector, task groups, per-bag forward.

Each ``init_*`` function is the one declaration of its parameters: it
returns a ``SimpleNamespace`` of Tensors, nested namespaces and lists,
and its keyword order is at once its RNG draw order, the registry order
and the checkpoint order. ``_walk`` registers every parameter under its
dotted path (``his.blocks.0.wq``) in that order and ``Model`` packs
them into one contiguous float64 vector, ``Model.theta``; each
parameter's ``Tensor.data`` is a reshaped view of its span, so writing
``theta`` moves the model and nothing rebinds a parameter's array. Only
at the top level do the draw and registry orders differ: the parts are
drawn disentangler, histology, molecular, fusion, and registered
``his``, ``mol``, ``disent``, ``fusion``. Names starting ``his.`` come
first and form the histology group, names starting ``mol.`` follow and
form the molecular group; each group is one contiguous slice of
``theta`` (``Model.groups``) -- the two slices gradient modulation acts
on. The disentangler and the fusion classifier follow and are never
modulated. Both groups begin with a structurally identical branch
(blocks, pool, classifier), the molecular group leading with its IDH
branch; ``config.FINDINGS`` names and sizes each branch. The ``ModelConfig``
fixes the structure when the model is built, the marker graph included.
``Model.grad`` holds the gradient in the same layout: each parameter's
``.grad`` is a view of its span, which backward adds into in place.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .blocks import glorot, row
from .config import HISTOLOGY, MOLECULAR, TrainConfig
from .disentangle import DisentangledFeatures, disentangle, init_disentangler
from .heads import (
    fusion_classify,
    histology_forward,
    init_branch,
    init_molecular,
    molecular_forward,
)
from .dataio import CheckpointError
from .interaction import confidence_weights
from .synth import PatchBag

# classifier column conventions: binary heads order logits (negative, positive)
WILDTYPE_COL = 0  # IDH branch: wildtype = label 0
LESION_COL = 1    # histology branch: lesion present = label 1


@dataclass
class ModelConfig:
    feat_dim: int
    graph_alpha: float
    use_graph: bool  # run the marker graph between the marker branches and their pools

    @classmethod
    def of(cls, feat_dim: int, cfg: TrainConfig) -> ModelConfig:
        """The model ``cfg`` trains on ``feat_dim``-wide features; reads ``no_graph``."""
        return cls(feat_dim=feat_dim, graph_alpha=cfg.graph_alpha,
                   use_graph="no_graph" not in cfg.ablations)


@dataclass
class BagForward:
    disent: DisentangledFeatures
    branches: tuple              # one BranchState per finding, in ``config.FINDINGS`` order
    glioma_logits: Tensor        # (1, 4)
    conf_wt: Tensor              # (N, 1) molecular confidence toward IDH-wildtype
    conf_nmp: Tensor             # (N, 1) histology confidence toward lesion presence


def _walk(obj, prefix, out):
    """Add every Tensor under ``obj`` to ``out`` by its dotted path, in attribute and list order."""
    if isinstance(obj, Tensor):
        out[prefix] = obj
    elif isinstance(obj, SimpleNamespace):
        for name, item in vars(obj).items():
            _walk(item, f"{prefix}.{name}" if prefix else name, out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _walk(item, f"{prefix}.{i}", out)


class Model:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        k = cfg.feat_dim
        # the draw order; the walk below fixes the registry order
        self.disent = init_disentangler(rng, k)
        self.his = init_branch(rng, k, HISTOLOGY.blocks)
        self.mol = init_molecular(rng, k)
        self.fusion = SimpleNamespace(w=glorot(rng, 2 * k, 4), b=row(0.0, 4))  # w: (2K, 4)

        params: dict = {}
        _walk(SimpleNamespace(his=self.his, mol=self.mol, disent=self.disent, fusion=self.fusion),
              "", params)
        self.params = params
        self.theta = np.concatenate([t.data.ravel() for t in params.values()])
        self.grad = np.zeros_like(self.theta)
        self._grad_views = []
        offset = 0
        for t in params.values():
            span = slice(offset, offset + t.data.size)
            t.data = self.theta[span].reshape(t.data.shape)
            self._grad_views.append(self.grad[span].reshape(t.data.shape))
            offset += t.data.size
        n_his, n_mol = (sum(t.data.size for name, t in params.items() if name.startswith(part))
                        for part in ("his.", "mol."))
        self.groups = {"histology": slice(0, n_his), "molecular": slice(n_his, n_his + n_mol)}
        self.zero_grads()

    def load_state(self, state: dict) -> None:
        """Copy checkpoint arrays (read-only views of its blob) into ``theta``'s parameter views."""
        missing = sorted(set(self.params) - set(state))
        extra = sorted(set(state) - set(self.params))
        if missing or extra:
            raise CheckpointError(f"checkpoint params: missing {missing}, unexpected {extra}")
        for name, tensor in self.params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != tensor.data.shape:
                raise CheckpointError(
                    f"checkpoint param {name}: shape {arr.shape} != expected {tensor.data.shape}"
                )
            tensor.data[...] = arr

    def zero_grads(self) -> None:
        """Zero ``grad`` and make every parameter's ``.grad`` its view of it again."""
        self.grad.fill(0.0)
        for t, view in zip(self.params.values(), self._grad_views):
            t.grad = view

    def gradient_set(self) -> np.ndarray:
        """Every parameter's gradient in ``theta``'s layout: ``grad`` itself, not a copy.

        A method of its own only because ``perfbench/tracer.py`` looks it up by name.
        """
        return self.grad

    def forward(self, bag: PatchBag, adjacency: np.ndarray) -> BagForward:
        # Tensor widens the float32 features to float64 exactly
        d = disentangle(Tensor(bag.feats_low), Tensor(bag.feats_high), self.disent)
        markers = molecular_forward(
            d.fused_mol, adjacency, self.mol,
            alpha=self.cfg.graph_alpha, use_graph=self.cfg.use_graph,
        )
        his = histology_forward(d.fused_his, self.his)
        glioma_logits = fusion_classify(
            his.pooled, [s.pooled for s in markers], self.fusion.w, self.fusion.b
        )
        idh, idh_branch = markers[0], getattr(self.mol, MOLECULAR[0].short)
        return BagForward(
            disent=d,
            branches=(*markers, his),
            glioma_logits=glioma_logits,
            conf_wt=confidence_weights(idh.feats, idh.pooled,
                                       ad.narrow(idh_branch.clf_w, 1, WILDTYPE_COL, 1)),
            conf_nmp=confidence_weights(his.feats, his.pooled,
                                        ad.narrow(self.his.clf_w, 1, LESION_COL, 1)),
        )
