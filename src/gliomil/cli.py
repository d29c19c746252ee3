"""Command-line front end.

Subcommands: ``gen`` (synthesize a dataset), ``train``, ``eval``,
``gradcheck`` (finite-difference verification), ``ablate`` (full model plus
one variant per ablation flag), and ``report`` (render a run directory).
Exit codes: 0 success, 1 internal/check failure, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import (
    ABLATION_FLAGS,
    FINDINGS,
    GLIOMA,
    ConfigError,
    GenConfig,
    TrainConfig,
    load_gen_config,
    load_train_config,
    read_utf8,
    with_ablations,
)
from .dataio import (
    CHECKPOINT_BLOB,
    CHECKPOINT_MANIFEST,
    CheckpointError,
    DatasetError,
    read_checkpoint,
    read_dataset,
    write_checkpoint,
    write_dataset,
)
from .metrics import compute_metrics, report_text
from .model import Model, ModelConfig
from .synth import CLASS_NAMES, estimate_cooccurrence, generate_dataset, marker_table
from .trainer import (
    LossError,
    ablation_csv,
    confidences_csv,
    epochs_csv,
    evaluate,
    run_ablation,
    split_dataset,
    train_model,
)
from .verify import format_lines, run_suite

REPORT_FILE = "report.txt"
EPOCHS_FILE = "epochs.csv"
CONFIDENCES_FILE = "confidences.csv"
ABLATION_FILE = "ablation.csv"
RUN_FILES = (EPOCHS_FILE, REPORT_FILE, CONFIDENCES_FILE, CHECKPOINT_MANIFEST, CHECKPOINT_BLOB)

_INPUT_ERRORS = (
    ConfigError,
    DatasetError,
    CheckpointError,
    FileExistsError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
)


def _cmd_gen(args) -> int:
    cfg = load_gen_config(args.config) if args.config else GenConfig()
    bags = generate_dataset(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_dataset(out, bags)
    cooc = estimate_cooccurrence(marker_table(bags))
    print(f"wrote {len(bags)} cases to {out}")
    print("marker co-occurrence:")
    for row in cooc.a:
        print("  " + "  ".join(f"{v:.4f}" for v in row))
    counts = np.bincount([b.glioma_class for b in bags], minlength=len(CLASS_NAMES))
    print("class histogram:")
    for cls, (name, count) in enumerate(zip(CLASS_NAMES, counts)):
        print(f"  {cls} {name}: {count}")
    return 0


def _check_run_dir(out: Path) -> None:
    """``out`` must be new, empty or a run directory, since a new run replaces it whole;
    a new ``out`` must lie below a directory, not below a file."""
    nearest = out if out.exists() else next(p for p in out.absolute().parents if p.exists())
    if not nearest.is_dir():
        raise NotADirectoryError(f"{nearest}: not a directory")
    if not out.exists():
        return
    if Path.cwd().is_relative_to(out.resolve()):
        raise IsADirectoryError(f"{out}: holds the working directory, which a run cannot replace")
    foreign = sorted(p.name for p in out.iterdir() if p.name not in RUN_FILES)
    if foreign:
        raise FileExistsError(f"{out}: holds {', '.join(foreign)}, which a run does not write; "
                              "choose a new or empty directory")


def _write_run(out: Path, result) -> None:
    """Write the run into a sibling temp directory, then move it into place.

    A run already at ``out`` is replaced only after the new one is complete;
    an interrupted write leaves the old run (or nothing) and no temp directory.
    """
    _check_run_dir(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}.new-"))
    old = None
    try:
        (tmp / EPOCHS_FILE).write_text(epochs_csv(result.rows))
        (tmp / REPORT_FILE).write_text(report_text(result.report, title="held-out metrics"))
        (tmp / CONFIDENCES_FILE).write_text(confidences_csv(result.confidences))
        write_checkpoint(tmp, result.model.params,
                         result.model.cfg.feat_dim, result.cooc, result.cfg)
        if out.exists():
            old = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}.old-"))
            os.replace(out, old)
        os.replace(tmp, out)
    except BaseException:
        if old is not None and not out.exists():
            os.replace(old, out)
            old = None
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)


def _cmd_train(args) -> int:
    cfg = with_ablations(load_train_config(args.config) if args.config else TrainConfig(),
                         args.ablate)
    out = Path(args.out)
    _check_run_dir(out)
    bags = read_dataset(Path(args.data))
    result = train_model(bags, cfg, log=print)
    _write_run(out, result)
    # timing goes to stderr so stdout stays byte-identical across reruns
    print(f"training time {result.seconds:.1f}s", file=sys.stderr)
    print(f"trained {cfg.epochs} epochs "
          f"({len(result.train_ids)} train / {len(result.val_ids)} eval cases)")
    print((out / REPORT_FILE).read_text())
    return 0


def _cmd_eval(args) -> int:
    params, feat_dim, cooc, cfg = read_checkpoint(Path(args.checkpoint))
    bags = read_dataset(Path(args.data))
    width = bags[0].feats_high.shape[1]
    if width != feat_dim:
        raise DatasetError(f"{args.data}: feature width {width} != checkpoint feat_dim {feat_dim}")
    model = Model(ModelConfig.of(feat_dim, cfg), np.random.default_rng(0))
    model.load_state(params)
    if args.split != "all":
        train_bags, val_bags = split_dataset(bags, cfg.val_fraction, cfg.seed)
        bags = train_bags if args.split == "train" else val_bags
    if not bags:
        raise DatasetError(f"{args.data}: the {args.split} split holds no case to score")
    predictions, _ = evaluate(model, bags, cooc.a)
    report = compute_metrics(predictions)
    print(report_text(report, title=f"metrics on {args.split} cases ({len(bags)})"))
    return 0


def _cmd_gradcheck(args) -> int:
    for flag, value, least in (("--trials", args.trials, 1),
                               ("--model-seeds", args.model_seeds, 0), ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    ok, lines, secs = run_suite(trials=args.trials, model_seeds=args.model_seeds,
                                seed=args.seed)
    print(format_lines(lines))
    print(f"suite time {secs:.1f}s", file=sys.stderr)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_ablate(args) -> int:
    cfg = load_train_config(args.config) if args.config else TrainConfig()
    out = Path(args.out)
    for name in ("full",) + ABLATION_FLAGS:
        _check_run_dir(out / name)
    bags = read_dataset(Path(args.data))
    results = run_ablation(bags, cfg, log=print)
    for name, result in results:
        _write_run(out / name, result)
    (out / ABLATION_FILE).write_text(ablation_csv(results))
    print((out / ABLATION_FILE).read_text())
    return 0


def _read_run_csv(path: Path) -> list:
    """A run file's rows of cells, each row as wide as the header.

    An empty or non-UTF-8 file or a row of another width raises ``DatasetError``.
    """
    rows = [line.split(",") for line in read_utf8(path, DatasetError).strip().splitlines()]
    if not rows:
        raise DatasetError(f"{path}: empty file")
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise DatasetError(
                f"{path}: line {n} has {len(row)} fields, the header has {len(rows[0])}"
            )
    return rows


def _cmd_report(args) -> int:
    run = Path(args.run)
    ablation = run / ABLATION_FILE
    if ablation.exists():
        rows = _read_run_csv(ablation)
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return 0
    epochs = run / EPOCHS_FILE
    if not epochs.exists():
        raise FileNotFoundError(f"no {ABLATION_FILE} or {EPOCHS_FILE} in {run}")
    rows = _read_run_csv(epochs)
    header = rows[0]
    columns = ("epoch", "loss_total", "loss_dcc", "dcc_overlap",
               f"acc_{FINDINGS[0].short}", f"acc_{GLIOMA}")
    missing = [c for c in columns if c not in header]
    if missing:
        raise DatasetError(f"{epochs}: missing columns {', '.join(map(repr, missing))}")
    report = run / REPORT_FILE
    summary = read_utf8(report, DatasetError) if report.exists() else None
    keep = [header.index(c) for c in columns]
    for row in rows:
        print("  ".join(f"{row[i]:>12s}" for i in keep))
    if summary is not None:
        print()
        print(summary, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gliomil",
        description="Multi-task MIL glioma typing on synthetic patch bags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a dataset")
    p.add_argument("--config", help="generator config file (key = value lines)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", help="training config file")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--ablate", action="append", default=[],
                   help="ablation flag (repeatable): " + ", ".join(ABLATION_FLAGS))
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True, help="run directory with checkpoint files")
    p.add_argument("--split", choices=("val", "train", "all"), default="val",
                   help="which cases to score (default: the held-out split)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--trials", type=int, default=100, help="trials per operation")
    p.add_argument("--model-seeds", type=int, default=3, help="full-model check seeds")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train the full model plus every single-flag variant")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", help="training config file")
    p.add_argument("--out", required=True, help="output directory (one subdir per variant)")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("report", help="render a run or ablation directory as a table")
    p.add_argument("--run", required=True, help="directory written by train or ablate")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
