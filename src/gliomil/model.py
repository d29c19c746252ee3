"""Full model assembly: parameter registry, task partitions, per-bag forward.

Parameters are registered under hierarchical names in construction
order. Names starting ``his.`` form the histology group and names
starting ``mol.`` the molecular group -- the two groups gradient
modulation acts on; the disentangler and the fusion classifier belong to
neither and are never modulated. Both groups' flat orders begin with a
structurally identical branch (blocks, pool, classifier), the molecular
group leading with its IDH branch.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .disentangle import DisentangledFeatures, disentangle, disentangle_loss, init_disentangler
from .heads import (
    HISTOLOGY_BLOCK_COUNT,
    BranchState,
    MolecularState,
    correlation_loss,
    fusion_classify,
    histology_forward,
    init_branch,
    init_molecular,
    molecular_forward,
)
from .interaction import ConfidenceVector, GradientSet, confidence_weights
from .synth import PatchBag

# classifier column conventions: binary heads order logits (negative, positive)
WILDTYPE_COL = 0  # IDH branch: wildtype = label 0
LESION_COL = 1    # histology branch: lesion present = label 1


@dataclass
class ModelConfig:
    feat_dim: int
    graph_alpha: float = 0.5


@dataclass
class BagForward:
    disent: DisentangledFeatures
    mol: MolecularState
    his: BranchState
    glioma_logits: Tensor        # (1, 4)
    conf_wt: ConfidenceVector    # molecular confidence toward IDH-wildtype
    conf_nmp: ConfidenceVector   # histology confidence toward lesion presence
    disent_loss: Tensor
    corr_loss: Tensor


def _walk(obj, prefix, out):
    if isinstance(obj, Tensor):
        out[prefix] = obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _walk(getattr(obj, f.name), f"{prefix}.{f.name}", out)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _walk(item, f"{prefix}.{i}", out)


class Model:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        k = cfg.feat_dim

        def make(arr):
            return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)

        self.disent = init_disentangler(rng, k, make)
        self.his = init_branch(rng, k, HISTOLOGY_BLOCK_COUNT, make)
        self.mol = init_molecular(rng, k, make)
        std = np.sqrt(2.0 / (2 * k + 4))
        self.fusion_w = make(rng.normal(scale=std, size=(2 * k, 4)))
        self.fusion_b = make(np.zeros((1, 4)))

        params: dict = {}
        _walk(self.his, "his", params)
        _walk(self.mol, "mol", params)
        _walk(self.disent, "disent", params)
        params["fusion.w"] = self.fusion_w
        params["fusion.b"] = self.fusion_b
        self.params = params
        self.histology_names = [n for n in params if n.startswith("his.")]
        self.molecular_names = [n for n in params if n.startswith("mol.")]
        self.shared_names = [
            n for n in params if not (n.startswith("his.") or n.startswith("mol."))
        ]

    def load_state(self, state: dict) -> None:
        missing = sorted(set(self.params) - set(state))
        extra = sorted(set(state) - set(self.params))
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
        for name, tensor in self.params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != tensor.data.shape:
                raise ValueError(
                    f"checkpoint param {name}: shape {arr.shape} != expected {tensor.data.shape}"
                )
            tensor.data = arr.copy()

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None

    def gradient_set(self) -> GradientSet:
        def grab(names):
            out = {}
            for name in names:
                t = self.params[name]
                out[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
            return out

        return GradientSet(
            histology=grab(self.histology_names),
            molecular=grab(self.molecular_names),
            shared=grab(self.shared_names),
        )

    def apply_gradient_set(self, gs: GradientSet) -> dict:
        merged = {}
        merged.update(gs.histology)
        merged.update(gs.molecular)
        merged.update(gs.shared)
        return merged

    def forward(self, bag: PatchBag, adjacency: np.ndarray, ablations=()) -> BagForward:
        d = disentangle(Tensor(bag.feats_low), Tensor(bag.feats_high), self.disent)
        mol_state = molecular_forward(
            d.fused_mol,
            adjacency,
            self.mol,
            alpha=self.cfg.graph_alpha,
            use_graph="no_graph" not in ablations,
        )
        his_state = histology_forward(d.fused_his, self.his)
        glioma_logits = fusion_classify(
            his_state.pooled, mol_state.pooled, self.fusion_w, self.fusion_b
        )
        conf_wt = confidence_weights(
            mol_state.feats_out[0],
            mol_state.pooled[0],
            ad.narrow(self.mol.idh.clf_w, 1, WILDTYPE_COL, 1),
        )
        conf_nmp = confidence_weights(
            his_state.feats,
            his_state.pooled,
            ad.narrow(self.his.clf_w, 1, LESION_COL, 1),
        )
        return BagForward(
            disent=d,
            mol=mol_state,
            his=his_state,
            glioma_logits=glioma_logits,
            conf_wt=conf_wt,
            conf_nmp=conf_nmp,
            disent_loss=disentangle_loss(d),
            corr_loss=correlation_loss(mol_state.feats_out, adjacency),
        )
