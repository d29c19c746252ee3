"""Self-tests of the benchmark's tracer: patching, span arithmetic, and that
tracing leaves gliomil's arithmetic untouched."""
from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from layers import METRICS, UNITS, span_metrics  # noqa: E402
from tracer import FUNCTIONS, Tracer, self_times  # noqa: E402
from workloads import END_TO_END, WORKLOADS, Tally  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every loaded gliomil module and of the patched classes."""
    for module_name, _ in FUNCTIONS.values():
        importlib.import_module(module_name)
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "gliomil" or name.startswith("gliomil.")):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for module_name, path in FUNCTIONS.values():
        if "." in path:
            cls = getattr(sys.modules[module_name], path.split(".")[0])
            for attr, value in vars(cls).items():
                out[(module_name, cls.__name__, attr)] = value
    return out


def test_uninstall_restores_every_patched_attribute():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        ad = sys.modules["gliomil.autodiff"]
        assert ad.matmul is not before[("gliomil.autodiff", "matmul")]
        # `from .blocks import transformer_block` bindings are patched too
        assert ("gliomil.heads", "transformer_block") in changed
        assert ("gliomil.model", "Model", "forward") in changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert len(changed) >= len(FUNCTIONS)


def test_self_time_on_a_hand_built_tree():
    t = Tracer()
    root = t.add_span("root", 0, 100)
    a = t.add_span("a", 10, 40, parent=root)
    t.add_span("a.child", 15, 25, parent=a)
    t.add_span("b", 50, 90, parent=root)
    arr = t.arrays()
    assert arr["dur"].tolist() == [100, 30, 10, 40]
    assert arr["self"].tolist() == [30, 20, 10, 40]
    assert self_times(arr["parent"], arr["dur"]).tolist() == [30, 20, 10, 40]


def _step(t: Tracer, epoch: int, t0: int, bwd_ns: int) -> None:
    """One training step's boundary spans, laid out as train_epoch calls them."""
    t.add_span("model.zero_grads", t0, t0 + 1_000_000, parent=epoch)
    fwd = t.add_span("model.forward", t0 + 1_000_000, t0 + 5_000_000, parent=epoch)
    t.add_span("autodiff.matmul", t0 + 2_000_000, t0 + 3_000_000, parent=fwd, count=128)
    t.add_span("trainer.batch_loss", t0 + 5_000_000, t0 + 6_000_000, parent=epoch)
    bwd = t.add_span("autodiff.backward", t0 + 6_000_000, t0 + 6_000_000 + bwd_ns, parent=epoch)
    t.add_span("autodiff.matmul.bwd", t0 + 6_000_000, t0 + 6_000_000 + bwd_ns // 2, parent=bwd)
    end_bwd = t0 + 6_000_000 + bwd_ns
    t.add_span("interaction.cmg_modulate", end_bwd + 1_000_000, end_bwd + 2_000_000, parent=epoch)
    t.add_span("optim.step", end_bwd + 3_000_000, end_bwd + 5_000_000, parent=epoch)


def test_step_metrics_on_a_hand_built_tree():
    t = Tracer()
    epoch = t.add_span("trainer.train_epoch", 0, 100_000_000)
    _step(t, epoch, 0, bwd_ns=2_000_000)
    _step(t, epoch, 20_000_000, bwd_ns=4_000_000)
    _step(t, epoch, 40_000_000, bwd_ns=6_000_000)
    t.add_span("trainer.evaluate", 100_000_000, 110_000_000)
    m = span_metrics(t)
    assert m["trainer.step.forward_ms"] == 5.0
    assert m["trainer.step.loss_ms"] == 1.0
    assert m["trainer.step.backward_ms"] == 4.0
    assert m["trainer.step.modulation_ms"] == 3.0
    assert m["trainer.step.adamw_ms"] == 2.0
    assert m["autodiff.matmul.calls"] == 1.0
    assert m["autodiff.matmul.fwd_ms"] == 1.0
    assert m["autodiff.matmul.bwd_ms"] == 2.0
    assert m["autodiff.nodes_per_step"] == 1.0
    assert m["autodiff.bytes_per_step"] == 128.0
    assert m["model.forward_ms"] == 4.0
    assert m["trainer.evaluate_ms"] == 10.0


def test_traced_training_keeps_the_arithmetic(tmp_path):
    # one epoch, to keep the test short; the accuracy floors are set for two
    workload = dataclasses.replace(WORKLOADS["train_small"], epochs=1, accuracy_floors=None)
    tally = Tally()
    bags, _ = workload.setup(0, tmp_path, tally)
    plain = workload.run(bags, 0, tmp_path, tally)
    tracer = Tracer()
    with tracer.installed():
        traced = workload.run(bags, 0, tmp_path, tally)
    assert tally.failed == 0, tally.reasons
    assert traced.fingerprint == plain.fingerprint
    assert span_metrics(tracer)["blocks.transformer_block.calls"] == 60.0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, UNITS[n]) for n in METRICS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END.items())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
