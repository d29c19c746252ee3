"""Benchmark of the gliomil package: one workload, in this process, from a seed.

    python3 perfbench/run.py --workload train_small --seed 0 --seconds 60 --trace 0

Run from the repository root. With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs the job once untraced and once under the
span tracer, and prints the per-layer metrics with the tracing overhead.
Earlier stdout lines carry the environment, the arithmetic fingerprints and
the failures; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every checked operation passed.
"""
import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layers import METRICS, OVERHEAD, UNITS, GcMeter, span_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import END_TO_END, SETUPS_PER_ROUND, STEP_SAMPLES, WORKLOADS, Tally  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; null outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gliomil").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, tmp: Path, tally) -> tuple:
    """Untraced run: rounds of ``SETUPS_PER_ROUND`` set-ups and one job, as
    many as fit in the time budget (at least one).

    Set-ups are spread over the run, so that ``setup_s`` sees the same
    machine as the jobs. Step and evaluation percentiles pool every interval
    of every round: each round repeats the same operations, so the pooled
    percentiles do not depend on how many rounds fit in the budget.
    """
    begin = time.perf_counter()
    setup_s, rounds = [], []
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            bags, s = workload.setup(seed, tmp, tally)
            setup_s.append(s)
        r = workload.run(bags, seed, tmp, tally)
        if r is None:
            break
        rounds.append(r)
        now = time.perf_counter()
        if (now - begin) + (now - t0) > seconds:  # another round would overrun
            break
    for r in rounds[1:]:
        tally.check(r.fingerprint == rounds[0].fingerprint, "rounds of one run differ in arithmetic")
    metrics = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb()}
    steps = [t for r in rounds for t in r.steps_ms]
    evals = [t for r in rounds for t in r.evals_ms]
    also = {
        key: {"value": statistics.median(r.extra[key][0] for r in rounds),
              "unit": rounds[0].extra[key][1]}
        for key in (rounds[0].extra if rounds else ())
    }
    if len(steps) >= STEP_SAMPLES:
        also["step_ms_p50"] = {"value": percentile(steps, 50), "unit": "ms"}
        also["step_ms_p90"] = {"value": percentile(steps, 90), "unit": "ms"}
    if evals:
        also["eval_ms_p50"] = {"value": percentile(evals, 50), "unit": "ms"}
    info = {
        "setups_s": setup_s,
        "rounds_job_s": [r.job_s for r in rounds],
        "step_samples": len(steps),
        "fingerprint": rounds[0].fingerprint if rounds else None,
        "also": also,
    }
    return metrics, info


def measure_traced(workload, seed: int, tmp: Path, tally) -> tuple:
    """Traced run: one traced set-up, the job untraced (GC accounting) and then traced."""
    tracer = Tracer()
    with tracer.installed():
        bags, _ = workload.setup(seed, tmp, tally, span=tracer.span)
    with GcMeter() as gc_meter:
        plain = workload.run(bags, seed, tmp, tally)
    with tracer.installed():
        traced = workload.run(bags, seed, tmp, tally)
    metrics = {}
    info = {"spans": len(tracer.start)}
    if plain is not None and traced is not None:
        tally.check(plain.fingerprint == traced.fingerprint, "traced run changed the arithmetic")
        metrics.update(span_metrics(tracer))
        metrics.update(gc_meter.metrics())
        metrics[OVERHEAD] = traced.job_s / plain.job_s
        info["fingerprint"] = plain.fingerprint
        info["traced_fingerprint"] = traced.fingerprint
        info["untraced_job_s"] = plain.job_s
        info["traced_job_s"] = traced.job_s
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload.name}.npz")
    info["spans_file"] = str((out_dir / f"spans-{workload.name}.npz").relative_to(ROOT))
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gliomil" / "__init__.py").is_file():
        print(f"perfbench: no gliomil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally()
    tmp = ROOT / ".bench_tmp"
    try:
        if args.trace:
            metrics, info = measure_traced(workload, args.seed, tmp, tally)
            names, units = METRICS, UNITS
        else:
            metrics, info = measure(workload, args.seed, args.seconds, tmp, tally)
            names, units = tuple(END_TO_END), END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    info.update(workload=workload.name, trace=args.trace, env=environment(args.seed),
                error_rate={"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"},
                failures=tally.reasons[:20])
    print(json.dumps({"info": info}, sort_keys=True))
    correct = tally.failed == 0 and all(metrics.get(n) is not None for n in names)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics.get(n), "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
