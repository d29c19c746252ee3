"""The benchmark's workloads: inputs made from a seed, the timed job, and its gates.

A run repeats rounds of ``SETUPS_PER_ROUND`` set-ups and one job (see
``run.measure``). Every operation a round performs is checked and
counted in a ``Tally``, and every round of a run must produce the same
arithmetic fingerprint.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SETUPS_PER_ROUND = 3
STEP_SAMPLES = 100  # so that at least ten lie beyond the 90th percentile
END_TO_END = {  # metric -> unit, as printed with --trace 0
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
GRADCHECK_TRIALS = 100     # the defaults of `gliomil gradcheck`
GRADCHECK_MODEL_SEEDS = 3
# held-out accuracy on train_small after 2 epochs; guessing the commonest class scores ~0.5
ACCURACY_FLOORS = {"glioma": 0.55, "idh": 0.75}
PROB_TOL = 1e-9


def gliomil(name: str):
    """The current ``gliomil.<name>`` module (the gradcheck set-up re-imports the package)."""
    return importlib.import_module(f"gliomil.{name}")


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def check(self, ok: bool, what: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.reasons.append(what)


@dataclass
class Round:
    """One repetition of a workload's job."""

    job_s: float
    fingerprint: dict
    steps_ms: list               # step latencies, in order (see the workload)
    evals_ms: list               # forward-only evaluation latencies, the same items every round
    extra: dict = field(default_factory=dict)  # name -> (value, unit), printed on the info line


def _no_span(name):
    return contextlib.nullcontext()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# training workloads

def small_bags(seed: int) -> list:
    synth, config = gliomil("synth"), gliomil("config")
    return synth.generate_dataset(config.GenConfig(seed=seed))


RAGGED_CASES = 60
RAGGED_FEAT_DIM = 32
RAGGED_PATCHES = (16, 192)


def ragged_bags(seed: int) -> list:
    """Bags of uneven size: one patch count per equal-width stratum of
    ``RAGGED_PATCHES``, jittered and shuffled by the seed, so every seed sees
    the same spread of sizes (and about the same work) in a different order."""
    synth, config = gliomil("synth"), gliomil("config")
    lo, hi = RAGGED_PATCHES
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    strata = lo + (np.arange(RAGGED_CASES) + rng.random(RAGGED_CASES)) * (hi - lo + 1) / RAGGED_CASES
    sizes = rng.permutation(np.floor(strata).astype(int))
    bags = []
    for i, n in enumerate(sizes):
        case_id = f"case{i:04d}"
        cfg = config.GenConfig(n_patches=int(n), feat_dim=RAGGED_FEAT_DIM, seed=seed)
        case_rng = synth.rng_for_case(seed, case_id)
        markers = synth.sample_case(case_rng, cfg)
        bags.append(synth.generate_bag(markers, cfg, case_rng, case_id=case_id))
    return bags


def _same_bags(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x.case_id == y.case_id and x.markers == y.markers and x.glioma_class == y.glioma_class
        and np.array_equal(x.feats_high, y.feats_high) and np.array_equal(x.feats_low, y.feats_low)
        for x, y in zip(a, b)
    )


def _probs_ok(pred) -> bool:
    p, g = pred.marker_probs, pred.glioma_probs
    return bool(
        np.all(np.isfinite(p)) and np.all((p >= 0) & (p <= 1))
        and np.all(np.isfinite(g)) and np.all(g >= 0) and abs(float(g.sum()) - 1.0) <= PROB_TOL
    )


def _checkpoint_equal(params: dict, loaded: tuple, feat_dim: int, cooc, cfg) -> bool:
    l_params, l_feat_dim, l_cooc, l_cfg = loaded
    return (
        list(params) == list(l_params)
        and all(params[n].data.shape == l_params[n].shape
                and params[n].data.astype("<f8").tobytes() == l_params[n].tobytes()
                for n in params)
        and l_feat_dim == feat_dim
        and cooc.a.tobytes() == l_cooc.a.tobytes()
        and np.array_equal(cooc.counts, l_cooc.counts) and cooc.n_cases == l_cooc.n_cases
        and l_cfg == cfg
    )


@dataclass(frozen=True)
class TrainWorkload:
    """Generate, write and read a dataset; then train, evaluate and checkpoint."""

    name: str
    epochs: int
    make_bags: Callable[[int], list]
    accuracy_floors: dict | None

    def setup(self, seed: int, tmp: Path, tally: Tally, span=_no_span):
        dataio = gliomil("dataio")
        out = tmp / "data"
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        with span("bench.generate"):
            made = self.make_bags(seed)
        dataio.write_dataset(out, made)
        bags = dataio.read_dataset(out)
        seconds = time.perf_counter() - t0
        tally.check(_same_bags(made, bags), "dataset round trip changed the bags")
        return bags, seconds

    def run(self, bags: list, seed: int, tmp: Path, tally: Tally) -> Round:
        trainer, dataio, config = gliomil("trainer"), gliomil("dataio"), gliomil("config")
        cfg = config.TrainConfig(epochs=self.epochs, seed=seed)
        steps_ms = []
        prev_epoch, prev_t, n_steps = None, 0.0, 0

        def hook(epoch, step, record, grads):
            nonlocal prev_epoch, prev_t, n_steps
            now = time.perf_counter()
            if epoch == prev_epoch:
                steps_ms.append((now - prev_t) * 1e3)
            prev_epoch, prev_t = epoch, now
            n_steps += 1

        ckpt = tmp / "ckpt"
        t0 = time.perf_counter()
        try:
            result = trainer.train_model(bags, cfg, modulation_hook=hook)
        except trainer.LossError as exc:
            tally.check(True, "", n=n_steps)
            tally.check(False, f"training step: {exc}")
            return None
        t_train = time.perf_counter() - t0
        evals_ms, predictions = [], []
        for bag in bags:
            t = time.perf_counter()
            predictions += trainer.evaluate(result.model, [bag], result.cooc.a)[0]
            evals_ms.append((time.perf_counter() - t) * 1e3)
        t_eval = time.perf_counter() - t0 - t_train
        dataio.write_checkpoint(ckpt, result.model.params, result.model.cfg.feat_dim,
                                result.cooc, cfg)
        loaded = dataio.read_checkpoint(ckpt)
        job_s = time.perf_counter() - t0

        # batch_loss raises LossError on a non-finite term, so these steps all passed
        tally.check(all(np.isfinite(v) for row in result.rows for v in row.losses.values()),
                    "non-finite epoch loss", n=n_steps)
        for pred in predictions:
            tally.check(_probs_ok(pred), f"eval {pred.case_id}: bad probabilities")
        tally.check(_checkpoint_equal(result.model.params, loaded, result.model.cfg.feat_dim,
                                      result.cooc, cfg), "checkpoint round trip not bitwise equal")
        acc = {"glioma": result.report.glioma.accuracy, "idh": result.report.idh_mut.accuracy}
        if self.accuracy_floors is not None:
            tally.check(all(acc[k] >= floor for k, floor in self.accuracy_floors.items()),
                        f"held-out accuracy {acc} below {self.accuracy_floors}")
        return Round(
            job_s=job_s,
            fingerprint={
                "epochs_csv": sha256(trainer.epochs_csv(result.rows)),
                "confidences_csv": sha256(trainer.confidences_csv(result.confidences)),
            },
            steps_ms=steps_ms,
            evals_ms=evals_ms,
            extra={
                "train_bags_per_s": (self.epochs * len(result.train_ids) / t_train, "bags/s"),
                "eval_bags_per_s": (len(bags) / t_eval, "bags/s"),
                "heldout_glioma_accuracy": (acc["glioma"], "ratio"),
                "heldout_idh_accuracy": (acc["idh"], "ratio"),
            },
        )


# ---------------------------------------------------------------------------
# gradient-check workload

@dataclass(frozen=True)
class GradcheckWorkload:
    """``verify.run_suite`` at the CLI's defaults, including its seed 0
    whatever the workload seed.

    ``run_suite(seed=14)`` fails ``model_seed1002`` (max rel err 1.06e-3): an
    open correctness finding about the model check, not a timing matter.
    """

    name: str

    def setup(self, seed: int, tmp: Path, tally: Tally, span=_no_span):
        """A fresh import of the package, as ``gliomil gradcheck`` pays it."""
        for name in [n for n in sys.modules if n == "gliomil" or n.startswith("gliomil.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("gliomil.cli")
        return None, time.perf_counter() - t0

    def run(self, bags, seed: int, tmp: Path, tally: Tally) -> Round:
        verify = gliomil("verify")
        steps_ms, evals_ms = [], []
        grad_check, check_model = verify.grad_check, verify.check_model
        in_model_check = False

        def timed_eval(f):
            def timed_f():
                t = time.perf_counter()
                try:
                    return f()
                finally:
                    evals_ms.append((time.perf_counter() - t) * 1e3)
            return timed_f

        def timed(f, *args, **kwargs):
            if in_model_check:  # time the model's loss evaluations, not the whole check
                return grad_check(timed_eval(f), *args, **kwargs)
            t = time.perf_counter()
            try:
                return grad_check(f, *args, **kwargs)
            finally:
                steps_ms.append((time.perf_counter() - t) * 1e3)

        def marked_check_model(*args, **kwargs):
            nonlocal in_model_check
            in_model_check = True
            try:
                return check_model(*args, **kwargs)
            finally:
                in_model_check = False

        # run_suite, check_ops and check_model look these up in verify's namespace
        verify.grad_check, verify.check_model = timed, marked_check_model
        try:
            t0 = time.perf_counter()
            ok, lines, _ = verify.run_suite(trials=GRADCHECK_TRIALS,
                                            model_seeds=GRADCHECK_MODEL_SEEDS)
            job_s = time.perf_counter() - t0
        finally:
            verify.grad_check, verify.check_model = grad_check, check_model
        for line in lines:
            tally.check(line.passed, f"gradcheck {line.name} failed")
        tally.check(len(steps_ms) == GRADCHECK_TRIALS * (len(lines) - GRADCHECK_MODEL_SEEDS),
                    "timed op checks differ from trials x op cases")
        tally.check(ok == all(line.passed for line in lines), "run_suite verdict disagrees")
        return Round(
            job_s=job_s,
            fingerprint={"gradcheck_lines": sha256(verify.format_lines(lines))},
            steps_ms=steps_ms,
            evals_ms=evals_ms,
            extra={"gradcheck_s": (job_s, "s")},
        )


WORKLOADS = {
    w.name: w for w in (
        TrainWorkload("train_small", epochs=2, make_bags=small_bags,
                      accuracy_floors=ACCURACY_FLOORS),
        TrainWorkload("train_ragged_wide", epochs=5, make_bags=ragged_bags,
                      accuracy_floors=None),
        GradcheckWorkload("verify_gradcheck"),
    )
}
