"""Span tracer that times gliomil's layers from outside the package.

``Tracer.install()`` replaces each traced function with a timing wrapper at
every ``gliomil.*`` module attribute that holds it, so callers that look the
name up through ``ad.matmul``, ``from .blocks import transformer_block`` or a
class attribute all reach the wrapper. ``uninstall()`` puts the identical
original objects back.

A span is (name, start, end, parent, count). Spans are appended in call
order to flat arrays, so a span's descendants are the spans that follow it
and start before it ends. ``count`` carries one number measured at the
boundary: the bytes of the graph node an op recorded, or the bytes a
dataset read took from disk; it is -1 elsewhere.

An autodiff op's backward time is taken by replacing the ``_backward``
closure of every node the op records with a timed one.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

OPS = (
    "add", "sub", "mul", "div", "scale", "matmul", "transpose", "repeat_rows",
    "concat", "narrow", "tanh", "relu", "exp", "log", "softmax", "layer_norm",
    "sum_all", "mean_all", "l2norm", "cosine", "mse", "softmax_cross_entropy",
)

# span name -> (module, attribute path); methods are patched on their class
FUNCTIONS = {
    "autodiff.backward": ("gliomil.autodiff", "backward"),
    "blocks.transformer_block": ("gliomil.blocks", "transformer_block"),
    "blocks.attention_pool": ("gliomil.blocks", "attention_pool"),
    "disentangle.disentangle": ("gliomil.disentangle", "disentangle"),
    "disentangle.disentangle_loss": ("gliomil.disentangle", "disentangle_loss"),
    "heads.molecular_forward": ("gliomil.heads", "molecular_forward"),
    "heads.graph_mix": ("gliomil.heads", "graph_mix"),
    "heads.histology_forward": ("gliomil.heads", "histology_forward"),
    "heads.fusion_classify": ("gliomil.heads", "fusion_classify"),
    "heads.correlation_loss": ("gliomil.heads", "correlation_loss"),
    "interaction.confidence_weights": ("gliomil.interaction", "confidence_weights"),
    "interaction.dcc_surrogate": ("gliomil.interaction", "dcc_surrogate"),
    "interaction.dcc_overlap": ("gliomil.interaction", "dcc_overlap"),
    "interaction.cmg_modulate": ("gliomil.interaction", "cmg_modulate"),
    "model.forward": ("gliomil.model", "Model.forward"),
    "model.gradient_set": ("gliomil.model", "Model.gradient_set"),
    "model.zero_grads": ("gliomil.model", "Model.zero_grads"),
    "optim.step": ("gliomil.optim", "AdamW.step"),
    "trainer.batch_loss": ("gliomil.trainer", "batch_loss"),
    "trainer.evaluate": ("gliomil.trainer", "evaluate"),
    "trainer.train_epoch": ("gliomil.trainer", "train_epoch"),
    "trainer.train_model": ("gliomil.trainer", "train_model"),
    "metrics.compute_metrics": ("gliomil.metrics", "compute_metrics"),
    "dataio.write_dataset": ("gliomil.dataio", "write_dataset"),
    "dataio.read_dataset": ("gliomil.dataio", "read_dataset"),
    "dataio.write_checkpoint": ("gliomil.dataio", "write_checkpoint"),
    "dataio.read_checkpoint": ("gliomil.dataio", "read_checkpoint"),
    "gradcheck.grad_check": ("gliomil.gradcheck", "grad_check"),
    "verify.check_ops": ("gliomil.verify", "check_ops"),
    "verify.check_model": ("gliomil.verify", "check_model"),
    "verify.run_suite": ("gliomil.verify", "run_suite"),
}
for _op in OPS:
    FUNCTIONS[f"autodiff.{_op}"] = ("gliomil.autodiff", _op)

LOSS_EVAL = "gradcheck.loss_eval"


def _dataset_bytes(args, kwargs) -> int:
    data_dir = Path(args[0] if args else kwargs["data_dir"])
    return sum(p.stat().st_size for p in data_dir.iterdir() if p.is_file())


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.count.append(-1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def add_span(self, name: str, start: int, end: int, parent: int = -1, count: int = -1) -> int:
        """Append a finished span directly (for building span trees by hand)."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.count.append(count)
        return i

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def _wrap_op(self, name: str, fn):
        nid = self._id(name)
        bwd_id = self._id(name + ".bwd")
        open_, close, counts, tracer = self._open, self._close, self.count, self

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            bw = out._backward
            # a composite op (cosine, mse) returns a node an inner op already timed
            if bw is not None and type(bw) is not _TimedBackward:
                counts[i] = out.data.nbytes
                out._backward = _TimedBackward(tracer, bwd_id, bw)
            return out

        return traced

    def _wrap_grad_check(self, name: str, fn):
        nid = self._id(name)
        eval_id = self._id(LOSS_EVAL)
        open_, close = self._open, self._close

        def traced(f, *args, **kwargs):
            def timed_f():
                j = open_(eval_id)
                try:
                    return f()
                finally:
                    close(j)

            i = open_(nid)
            try:
                return fn(timed_f, *args, **kwargs)
            finally:
                close(i)

        return traced

    def _wrap_read_dataset(self, name: str, fn):
        nid = self._id(name)
        open_, close, counts = self._open, self._close, self.count

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            counts[i] = _dataset_bytes(args, kwargs)
            return out

        return traced

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function at every gliomil binding of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {name: importlib.import_module(name) for name, _ in FUNCTIONS.values()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "gliomil" or n.startswith("gliomil."))]
        for name, (module_name, path) in FUNCTIONS.items():
            owner = owners[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrapper(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrapper(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _wrapper(self, name: str, fn):
        if name.startswith("autodiff.") and name != "autodiff.backward":
            return self._wrap_op(name, fn)
        if name == "gradcheck.grad_check":
            return self._wrap_grad_check(name, fn)
        if name == "dataio.read_dataset":
            return self._wrap_read_dataset(name, fn)
        return self._wrap(name, fn)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put back the identical original object at every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- reading ----------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as numpy arrays, durations and self times in ns."""
        # copies, so the arrays stay appendable
        name_id = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        dur = end - start
        return {
            "name_id": name_id,
            "parent": parent,
            "start": start,
            "end": end,
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
            "dur": dur,
            "self": self_times(parent, dur),
        }

    def save(self, path) -> None:
        """Write every span to ``path`` (numpy .npz) with the name table."""
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=a["name_id"], parent=a["parent"],
                 start=a["start"], end=a["end"], count=a["count"])


class _TimedBackward:
    """Stands in for a node's backward closure and records a span per call."""

    __slots__ = ("tracer", "nid", "fn")

    def __init__(self, tracer: Tracer, nid: int, fn):
        self.tracer = tracer
        self.nid = nid
        self.fn = fn

    def __call__(self, g):
        i = self.tracer._open(self.nid)
        try:
            self.fn(g)
        finally:
            self.tracer._close(i)


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part its (sequential) child spans cover."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered[: dur.size].astype(np.int64)
