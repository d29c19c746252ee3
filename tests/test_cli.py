"""Command-line behavior: artifacts, determinism, exit codes, reports."""
import contextlib
import dataclasses
import hashlib
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomil import cli
from gliomil.cli import main
from gliomil.config import ABLATION_FLAGS, GenConfig
from gliomil.dataio import CHECKPOINT_BLOB, read_dataset, write_checkpoint, write_dataset
from gliomil.synth import generate_dataset


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def small_data(tmp_path):
    cfg = write_cfg(tmp_path / "gen.cfg",
                    "n_cases = 24\nn_patches = 6\nfeat_dim = 6\nseed = 3\n")
    data = tmp_path / "data"
    assert main(["gen", "--config", cfg, "--out", str(data)]) == 0
    return data


def quick_train_cfg(tmp_path, extra=""):
    return write_cfg(tmp_path / "train.cfg",
                     "epochs = 2\nbatch_size = 6\nseed = 1\n" + extra)


# ---------------------------------------------------------------------------
# gen


def test_gen_default_writes_300_cases(tmp_path):
    out = tmp_path / "full"
    assert main(["gen", "--out", str(out)]) == 0
    manifest = (out / "dataset.manifest").read_text().splitlines()
    assert manifest[0].strip() == "bagset v1 cases=300"
    assert len(read_dataset(out)) == 300


def test_gen_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", "n_cases = 10\nn_patches = 4\nfeat_dim = 5\nseed = 7\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
    assert main(["gen", "--config", cfg, "--out", str(b)]) == 0
    for name in ("dataset.manifest", "dataset.blob"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_files_are_pinned(tmp_path):
    # recorded when bags were held as float64; the in-memory dtype must not reach the files
    cfg = write_cfg(tmp_path / "g.cfg", "n_cases = 12\nn_patches = 5\nfeat_dim = 6\nseed = 11\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "d" / name).read_bytes()).hexdigest()
               for name in ("dataset.manifest", "dataset.blob")}
    assert digests == {
        "dataset.manifest": "009b4bdd5f231ce2391bcdf6e4e72fa3ea8c8d98dafe855657255a52f2575d1c",
        "dataset.blob": "320cc8b6f89612e4c5bfb3a8293ccdfdd0ee3572b1ecba6b539382c264503d5b",
    }


def test_gen_degenerate_priors_concentrate_class3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "g.cfg",
        "n_cases = 20\nn_patches = 4\nfeat_dim = 5\nseed = 0\n"
        "p_idh_mut = 1.0\np_codel_given_mut = 1.0\n",
    )
    out = tmp_path / "deg"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "oligodendroglioma: 20" in stdout
    assert all(b.glioma_class == 3 for b in read_dataset(out))


def test_gen_prints_cooccurrence_and_histogram(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "g.cfg", "n_cases = 8\nn_patches = 4\nfeat_dim = 5\nseed = 1\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    assert "marker co-occurrence:" in out
    matrix_rows = [ln for ln in out.splitlines() if ln.startswith("  ") and "." in ln
                   and ":" not in ln]
    assert len(matrix_rows) == 3
    assert "class histogram:" in out
    assert "gbm_grade4" in out


def test_gen_bad_config_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", "n_caes = 10\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", "-1e300"])
def test_gen_rejects_non_finite_signal_strength(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path / "g.cfg", f"n_cases = 4\nsignal_strength = {value}\n")
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    _one_error_line(capsys.readouterr().err, "signal_strength")
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# train


def test_train_writes_all_artifacts(tmp_path, small_data):
    run = tmp_path / "run"
    cfg = quick_train_cfg(tmp_path)
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(run)]) == 0
    for name in ("epochs.csv", "report.txt", "confidences.csv",
                 "checkpoint.manifest", "checkpoint.blob"):
        assert (run / name).exists(), name
    lines = (run / "epochs.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 epochs
    conf_header = (run / "confidences.csv").read_text().splitlines()[0]
    assert conf_header == "case_id,patch_index,conf_wt,conf_nmp"


def test_train_rerun_same_seed_identical_outputs(tmp_path, small_data):
    cfg = quick_train_cfg(tmp_path)
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(r1)]) == 0
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(r2)]) == 0
    for name in ("epochs.csv", "report.txt", "confidences.csv",
                 "checkpoint.manifest", "checkpoint.blob"):
        assert (r1 / name).read_bytes() == (r2 / name).read_bytes(), name


def test_train_ablate_no_cmg_logs_skip(tmp_path, small_data, capsys):
    run = tmp_path / "run"
    cfg = quick_train_cfg(tmp_path)
    assert main(["train", "--data", str(small_data), "--config", cfg,
                 "--out", str(run), "--ablate", "no_cmg"]) == 0
    assert "modulation: skipped (no_cmg)" in capsys.readouterr().out


def test_train_unknown_ablation_exits_2(tmp_path, small_data, capsys):
    assert main(["train", "--data", str(small_data),
                 "--out", str(tmp_path / "x"), "--ablate", "no_such"]) == 2
    assert "no_such" in capsys.readouterr().err


def test_train_missing_data_exits_2(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


class Interrupted(Exception):
    pass


def _checkpoint_write_fails_after_manifest(*args):
    """Leave a manifest without its blob, as a write cut short would."""
    write_checkpoint(*args)
    (args[0] / CHECKPOINT_BLOB).unlink()
    raise Interrupted


def _snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("previous", [False, True])
def test_interrupted_train_leaves_the_previous_run_or_none(tmp_path, small_data, capsys,
                                                           monkeypatch, previous):
    run = tmp_path / "run"
    cfg = quick_train_cfg(tmp_path)
    if previous:
        assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(run)]) == 0
    before = _snapshot(tmp_path)
    monkeypatch.setattr(cli, "write_checkpoint", _checkpoint_write_fails_after_manifest)
    with pytest.raises(Interrupted):
        main(["train", "--data", str(small_data), "--config", cfg, "--out", str(run),
              "--ablate", "no_cmg"])
    monkeypatch.undo()
    assert _snapshot(tmp_path) == before  # the old run untouched, nothing left beside it
    capsys.readouterr()
    code = main(["eval", "--data", str(small_data), "--checkpoint", str(run)])
    assert code == (0 if previous else 2)


def test_train_replaces_a_previous_run_whole(tmp_path, small_data):
    run, fresh = tmp_path / "run", tmp_path / "fresh"
    assert main(["train", "--data", str(small_data), "--config", quick_train_cfg(tmp_path),
                 "--out", str(run)]) == 0
    cfg = quick_train_cfg(tmp_path, "lr = 0.01\n")
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(run)]) == 0
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(fresh)]) == 0
    assert _snapshot(run) == _snapshot(fresh)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data", "fresh", "gen.cfg", "run", "train.cfg"]


@pytest.mark.parametrize("command,kind", [
    ("train", "dir"), ("train", "file"), ("train", "cwd"), ("train", "under_a_file"),
    ("ablate", "under_a_file"),
], ids=["dir", "file", "cwd", "under_a_file", "ablate_under_a_file"])
def test_train_refuses_an_out_it_cannot_replace(tmp_path, small_data, capsys, monkeypatch,
                                                command, kind):
    out = tmp_path / "notes"
    if kind in ("file", "under_a_file"):
        out.write_text("keep me\n")
    else:
        out.mkdir()
    if kind == "dir":
        (out / "todo.txt").write_text("keep me\n")
    if kind == "cwd":
        monkeypatch.chdir(out)
        out = Path(".")
    if kind == "under_a_file":
        out = out / "run"
    cfg = quick_train_cfg(tmp_path)
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main([command, "--data", str(small_data), "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.strip().splitlines()) == 1
    # refused before training: no epoch or variant was logged
    assert not [ln for ln in captured.out.splitlines() if ln.startswith(("epoch", "variant"))]
    assert _snapshot(tmp_path) == before


BAD_TRAIN_VALUES = (
    [("dcc_temperature", v) for v in ("0", "-0.5", "nan", "inf")]
    + [("lr", v) for v in ("-5", "-1e-9", "nan", "inf")]
    + [("weight_decay", v) for v in ("-1e-4", "nan", "-inf")]
    + [(w, v) for w in ("w_glioma", "w_molecular", "w_histology", "w_disent", "w_lc", "w_dcc")
       for v in ("-1", "nan")]
    + [("w_dcc", "inf")]
    + [("dcc_decay", v) for v in ("nan", "1e308", "0", "-0.5", "1.5")]
)


def _one_error_line(err: str, key: str) -> None:
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0], err


@pytest.mark.parametrize("key,value", BAD_TRAIN_VALUES)
def test_train_rejects_bad_config_value(tmp_path, small_data, capsys, key, value):
    cfg = quick_train_cfg(tmp_path, f"{key} = {value}\n")
    capsys.readouterr()
    assert main(["train", "--data", str(small_data), "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    _one_error_line(capsys.readouterr().err, key)
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data, run = root / "data", root / "run"
    gen_cfg = write_cfg(root / "gen.cfg", "n_cases = 12\nn_patches = 4\nfeat_dim = 4\nseed = 3\n")
    assert main(["gen", "--config", gen_cfg, "--out", str(data)]) == 0
    train_cfg = write_cfg(root / "train.cfg", "epochs = 1\nbatch_size = 6\nseed = 1\n")
    assert main(["train", "--data", str(data), "--config", train_cfg, "--out", str(run)]) == 0
    return data, run


@pytest.mark.parametrize("key,value", BAD_TRAIN_VALUES)
def test_eval_rejects_checkpoint_with_bad_config_value(tmp_path, trained_run, capsys, key, value):
    data, run = trained_run
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "checkpoint.blob").write_bytes((run / "checkpoint.blob").read_bytes())
    lines = (run / "checkpoint.manifest").read_text().splitlines()
    at = [i for i, ln in enumerate(lines) if ln.startswith(f"config {key} ")]
    assert len(at) == 1
    lines[at[0]] = f"config {key} {value}"
    (ckpt / "checkpoint.manifest").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    _one_error_line(capsys.readouterr().err, key)


def _copy_run(run, dest, edit_manifest):
    """Copy ``run``'s checkpoint into ``dest`` with ``edit_manifest`` applied to its lines."""
    dest.mkdir()
    (dest / "checkpoint.blob").write_bytes((run / "checkpoint.blob").read_bytes())
    lines = edit_manifest((run / "checkpoint.manifest").read_text().splitlines())
    (dest / "checkpoint.manifest").write_text("\n".join(lines) + "\n")
    return dest


def _replace_line(prefix, new):
    def edit(lines):
        at = [i for i, ln in enumerate(lines) if ln.startswith(prefix)]
        assert at, prefix
        lines[at[0]] = new(lines[at[0]])
        return lines

    return edit


def _set_param_field(index, value):
    def new(line):
        fields = line.split(" ")
        fields[index] = value
        return " ".join(fields)

    return new


# (edit of checkpoint.manifest, text the one error line must contain)
BAD_CHECKPOINT_MANIFESTS = {
    "line_without_space": (lambda lines: lines[:1] + ["garbage"] + lines[1:], "garbage"),
    "meta_without_value": (
        _replace_line("meta feat_dim ", lambda _: "meta feat_dim"), "bad metadata"),
    "param_shape_not_int": (_replace_line("param ", _set_param_field(2, "(x,16)")), "(x,16)"),
    "param_offset_negative": (_replace_line("param ", _set_param_field(3, "-8")), "negative"),
    "param_line_short": (_replace_line("param ", lambda _: "param lonely"), "lonely"),
    "config_int_not_int": (_replace_line("config epochs ", lambda _: "config epochs x"), "epochs"),
    "config_int_fraction": (
        _replace_line("config batch_size ", lambda _: "config batch_size 6.5"), "batch_size"),
    "config_float_not_float": (_replace_line("config lr ", lambda _: "config lr fast"), "lr"),
    "config_repeated": (lambda lines: lines + ["config epochs 7"], "epochs"),
    "config_seed_negative": (_replace_line("config seed ", lambda _: "config seed -1"), "seed"),
    "config_missing": (lambda lines: [ln for ln in lines if not ln.startswith("config seed ")],
                       "seed"),
    "meta_repeated": (lambda lines: lines + ["meta cooccurrence_cases 3"], "cooccurrence_cases"),
    "meta_unknown": (lambda lines: lines + ["meta bogus 3"], "bogus"),
    "meta_value_named": (_replace_line("meta feat_dim ", lambda _: "meta feat_dim"), "feat_dim"),
    "meta_feat_dim_zero": (_replace_line("meta feat_dim ", lambda _: "meta feat_dim 0"),
                           "feat_dim"),
    "meta_count_overflow": (
        _replace_line("meta cooccurrence_counts ", lambda _: "meta cooccurrence_counts "
                      + ",".join(["99999999999999999999"] * 9)), "cooccurrence_counts"),
    "param_repeated": (
        lambda lines: lines + [next(ln for ln in lines if ln.startswith("param "))],
        "his.blocks.0.ln1_gain"),
    "param_shape_transposed": (
        _replace_line("param his.blocks.0.ln1_gain ", _set_param_field(2, "(4,1)")),
        "his.blocks.0.ln1_gain"),
    # the last param: its bytes stay in the blob, which the arrays no longer tile
    "param_deleted": (
        lambda lines: [ln for ln in lines if not ln.startswith("param fusion.b ")],
        "bytes past the last array"),
    "param_renamed": (_replace_line("param fusion.b ", _set_param_field(1, "fusion.c")),
                      "missing ['fusion.b']"),
    "param_over_an_earlier_param": (
        _replace_line("param his.blocks.0.ln1_bias ", _set_param_field(3, "0")),
        "param his.blocks.0.ln1_bias: starts at byte 0"),
    "cooccurrence_nan": (_replace_line("meta cooccurrence ", lambda _: "meta cooccurrence "
                                       + ",".join(["nan"] * 9)), "bad metadata: cooccurrence"),
    "cooccurrence_edited": (
        _replace_line("meta cooccurrence ",
                      lambda _: "meta cooccurrence 1e300,-5,0,0,1,0,0,0,1"),
        "bad metadata: cooccurrence"),
    # symmetric, but more cases share markers 0 and 1 than have marker 1
    "cooccurrence_counts_impossible": (
        _replace_line("meta cooccurrence_counts ",
                      lambda _: "meta cooccurrence_counts 5,9,0,9,5,0,0,0,5"),
        "bad metadata: cooccurrence_counts"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_MANIFESTS))
def test_eval_rejects_malformed_checkpoint_manifest(tmp_path, trained_run, capsys, case):
    data, run = trained_run
    edit, key = BAD_CHECKPOINT_MANIFESTS[case]
    ckpt = _copy_run(run, tmp_path / "ckpt", edit)
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    _one_error_line(capsys.readouterr().err, key)


@pytest.mark.parametrize("field", (8, 9))
def test_eval_rejects_negative_dataset_blob_offset(tmp_path, trained_run, capsys, field):
    data, run = trained_run
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "dataset.blob").write_bytes((data / "dataset.blob").read_bytes())
    lines = (data / "dataset.manifest").read_text().splitlines()
    fields = lines[2].split()
    fields[field] = "-64"
    lines[2] = " ".join(fields)
    (bad / "dataset.manifest").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--data", str(bad), "--checkpoint", str(run)]) == 2
    _one_error_line(capsys.readouterr().err, fields[0])


def test_eval_rejects_a_checkpoint_blob_with_bytes_past_its_arrays(tmp_path, trained_run,
                                                                   capsys):
    data, run = trained_run
    ckpt = _copy_run(run, tmp_path / "ckpt", lambda lines: lines)
    (ckpt / "checkpoint.blob").write_bytes((run / "checkpoint.blob").read_bytes() + bytes(64))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    _one_error_line(capsys.readouterr().err, "64 bytes past the last array")


def test_eval_rejects_a_case_over_an_earlier_cases_rows(tmp_path, trained_run, capsys):
    data, run = trained_run
    bad = tmp_path / "data"
    bad.mkdir()
    (bad / "dataset.blob").write_bytes((data / "dataset.blob").read_bytes())
    lines = (data / "dataset.manifest").read_text().splitlines()
    first, second = lines[1].split(), lines[2].split()
    second[8:] = first[8:]  # both magnifications point at the first case's rows
    lines[2] = " ".join(second)
    (bad / "dataset.manifest").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", "--data", str(bad), "--checkpoint", str(run)]) == 2
    _one_error_line(capsys.readouterr().err, f"case {second[0]}: starts at byte 0")


NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _mutate(lines, data, edits=("duplicate", "delete", "swap", "number"),
            values=("x", "-1", str(10**12))):
    """One drawn edit of one line: duplicate, delete, swap tokens or replace a number."""
    lines = list(lines)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    how = data.draw(st.sampled_from(list(edits)), label="edit")
    if how == "duplicate":
        lines.insert(i + 1, lines[i])
    elif how == "delete":
        del lines[i]
    elif how == "swap":
        tokens = lines[i].split(" ")
        a, b = (data.draw(st.integers(0, len(tokens) - 1), label="token") for _ in range(2))
        tokens[a], tokens[b] = tokens[b], tokens[a]
        lines[i] = " ".join(tokens)
    else:
        spans = [m.span() for m in NUMBER.finditer(lines[i])]
        if spans:
            lo, hi = data.draw(st.sampled_from(spans), label="number")
            new = data.draw(st.sampled_from(list(values)), label="value")
            lines[i] = lines[i][:lo] + new + lines[i][hi:]
    return lines


@pytest.fixture(scope="module")
def fuzz_ckpt(trained_run, tmp_path_factory):
    _, run = trained_run
    ckpt = tmp_path_factory.mktemp("fuzz")
    (ckpt / "checkpoint.blob").write_bytes((run / "checkpoint.blob").read_bytes())
    return ckpt


def _exits_0_or_2(argv) -> None:
    """Run the CLI quietly; it must succeed or fail with one ``error:`` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        _one_error_line(err.getvalue(), "error:")


FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@FUZZ
@given(data=st.data())
def test_eval_on_a_mutated_manifest_exits_0_or_2(trained_run, fuzz_ckpt, data):
    data_dir, run = trained_run
    lines = _mutate((run / "checkpoint.manifest").read_text().splitlines(), data)
    (fuzz_ckpt / "checkpoint.manifest").write_text("\n".join(lines) + "\n")
    _exits_0_or_2(["eval", "--data", str(data_dir), "--checkpoint", str(fuzz_ckpt),
                   "--split", "all"])


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    """A scratch dataset directory the dataset fuzz tests overwrite."""
    return tmp_path_factory.mktemp("fuzz_data")


@FUZZ
@given(data=st.data())
def test_eval_on_a_mutated_dataset_manifest_exits_0_or_2(trained_run, fuzz_data, data):
    data_dir, run = trained_run
    lines = _mutate((data_dir / "dataset.manifest").read_text().splitlines(), data)
    (fuzz_data / "dataset.manifest").write_text("\n".join(lines) + "\n")
    (fuzz_data / "dataset.blob").write_bytes((data_dir / "dataset.blob").read_bytes())
    _exits_0_or_2(["eval", "--data", str(fuzz_data), "--checkpoint", str(run),
                   "--split", "all"])


@FUZZ
@given(data=st.data())
def test_eval_on_a_damaged_dataset_blob_exits_0_or_2(trained_run, fuzz_data, data):
    data_dir, run = trained_run
    blob = bytearray((data_dir / "dataset.blob").read_bytes())
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="length"):]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            at = data.draw(st.integers(0, len(blob) - 1), label="byte")
            blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    (fuzz_data / "dataset.manifest").write_text((data_dir / "dataset.manifest").read_text())
    (fuzz_data / "dataset.blob").write_bytes(bytes(blob))
    _exits_0_or_2(["eval", "--data", str(fuzz_data), "--checkpoint", str(run),
                   "--split", "all"])


# small values only: a drawn config must never ask for a long run
CONFIG_VALUES = ("x", "", "-1", "0", "0.5", "nan", "inf", "1e400")
GEN_LINES = ["n_cases = 3", "n_patches = 2", "feat_dim = 2", "signal_strength = 5.0",
             "p_idh_mut = 0.5", "seed = 4"]
TRAIN_LINES = ["epochs = 1", "batch_size = 2", "lr = 0.01", "dcc_top_m = 2", "dcc_decay = 0.5",
               "dcc_temperature = 1.0", "val_fraction = 0.3", "seed = 1", "ablations = no_cmg"]


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_cfg")
    cfg = write_cfg(root / "tiny.cfg", "n_cases = 4\nn_patches = 2\nfeat_dim = 2\nseed = 2\n")
    assert main(["gen", "--config", cfg, "--out", str(root / "data")]) == 0
    return root


@FUZZ
@given(data=st.data())
def test_gen_on_a_mutated_config_exits_0_or_2(fuzz_root, data):
    lines = _mutate(GEN_LINES, data, values=CONFIG_VALUES)
    cfg = write_cfg(fuzz_root / "gen.cfg", "\n".join(lines))
    _exits_0_or_2(["gen", "--config", cfg, "--out", str(fuzz_root / "gen")])


@FUZZ
@given(data=st.data())
def test_train_on_a_mutated_config_exits_0_or_2(fuzz_root, data):
    # no deletions: a deleted line falls back to its default, and epochs = 50 is a long run
    lines = _mutate(TRAIN_LINES, data, edits=("duplicate", "swap", "number"), values=CONFIG_VALUES)
    cfg = write_cfg(fuzz_root / "train.cfg", "\n".join(lines))
    _exits_0_or_2(["train", "--data", str(fuzz_root / "data"), "--config", cfg,
                   "--out", str(fuzz_root / "run")])


def test_eval_rejects_non_finite_checkpoint_value(tmp_path, trained_run, capsys):
    data, run = trained_run
    ckpt = _copy_run(run, tmp_path / "ckpt", lambda lines: lines)
    blob = bytearray((ckpt / "checkpoint.blob").read_bytes())
    blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # last entry of the last param
    (ckpt / "checkpoint.blob").write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    _one_error_line(capsys.readouterr().err, "fusion.b")


def test_train_rejects_negative_seed(tmp_path, small_data, capsys):
    cfg = write_cfg(tmp_path / "train.cfg", "epochs = 1\nseed = -1\n")
    capsys.readouterr()
    assert main(["train", "--data", str(small_data), "--config", cfg,
                 "--out", str(tmp_path / "run")]) == 2
    _one_error_line(capsys.readouterr().err, "seed")


def _write_bags(dest, *gen_cfgs, edit_record=None):
    """Write the bags of every generator config into one dataset at ``dest``.

    The bags of the second and later configs get case ids of their own.
    """
    bags = [dataclasses.replace(bag, case_id=f"{bag.case_id}.{i}") if i else bag
            for i, cfg in enumerate(gen_cfgs) for bag in generate_dataset(cfg)]
    write_dataset(dest, bags)
    if edit_record is not None:
        lines = (dest / "dataset.manifest").read_text().splitlines()
        fields = lines[1].split()
        edit_record(fields)
        lines[1] = " ".join(fields)
        (dest / "dataset.manifest").write_text("\n".join(lines) + "\n")
    return dest


def _set_field(index, value):
    def edit(fields):
        fields[index] = value

    return edit


def _empty_dataset(dest):
    dest.mkdir()
    (dest / "dataset.manifest").write_text("bagset v1 cases=0\n")
    (dest / "dataset.blob").write_bytes(b"")
    return dest


def _junk_header(dest):
    _write_bags(dest, GenConfig(n_cases=12, n_patches=4, feat_dim=4))
    manifest = dest / "dataset.manifest"
    manifest.write_text(manifest.read_text().replace("bagset v1 ", "bagset v12 junk ", 1))
    return dest


# dataset builder -> text the one error line must contain
BAD_DATASETS = {
    "junk_header": (_junk_header, "malformed header"),
    "repeated_case_id": (lambda d: _write_bags(d, GenConfig(n_cases=12, n_patches=4, feat_dim=4),
                                               edit_record=_set_field(0, "case0001")),
                         "case0001: repeated case id"),
    "mixed_width": (lambda d: _write_bags(d, GenConfig(n_cases=6, n_patches=4, feat_dim=4),
                                         GenConfig(n_cases=6, n_patches=4, feat_dim=6)),
                    "feature width"),
    "zero_patches": (lambda d: _write_bags(d, GenConfig(n_cases=12, n_patches=4, feat_dim=4),
                                           edit_record=_set_field(1, "0")), "empty bag"),
    "zero_width": (lambda d: _write_bags(d, GenConfig(n_cases=12, n_patches=4, feat_dim=4),
                                         edit_record=_set_field(2, "0")), "empty bag"),
    "no_cases": (_empty_dataset, "no cases"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
@pytest.mark.parametrize("command", ["train", "eval"])
def test_rejects_malformed_dataset(tmp_path, trained_run, capsys, case, command):
    _, run = trained_run
    build, key = BAD_DATASETS[case]
    data = build(tmp_path / "data")
    if command == "train":
        argv = ["train", "--data", str(data), "--config", quick_train_cfg(tmp_path),
                "--out", str(tmp_path / "run")]
    else:
        argv = ["eval", "--data", str(data), "--checkpoint", str(run), "--split", "all"]
    capsys.readouterr()
    assert main(argv) == 2
    _one_error_line(capsys.readouterr().err, key)
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def one_case_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("one_case")
    cfg = write_cfg(root / "gen.cfg", "n_cases = 1\nn_patches = 4\nfeat_dim = 4\nseed = 3\n")
    assert main(["gen", "--config", cfg, "--out", str(root / "data")]) == 0
    return root / "data"


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_one_case_dataset_is_refused_before_training(tmp_path, one_case_data, capsys, command):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--data", str(one_case_data), "--config", quick_train_cfg(tmp_path),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    _one_error_line(captured.err, "one case")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("split,code", [("val", 2), ("train", 0), ("all", 0)])
def test_eval_on_one_case_dataset_scores_or_names_the_empty_split(trained_run, one_case_data,
                                                                  capsys, split, code):
    _, run = trained_run
    capsys.readouterr()
    assert main(["eval", "--data", str(one_case_data), "--checkpoint", str(run),
                 "--split", split]) == code
    captured = capsys.readouterr()
    if code == 2:
        _one_error_line(captured.err, "val split")
    else:
        assert f"metrics on {split} cases (1)" in captured.out


def test_eval_rejects_dataset_wider_than_checkpoint(tmp_path, trained_run, capsys):
    _, run = trained_run
    data = _write_bags(tmp_path / "data", GenConfig(n_cases=12, n_patches=4, feat_dim=6))
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(run)]) == 2
    _one_error_line(capsys.readouterr().err, "feat_dim")


NO_LOSS_LEFT = "w_glioma = 0\nw_molecular = 0\nw_histology = 0\nw_disent = 0\nw_dcc = 0\n"


@pytest.mark.parametrize("extra,ablate", [
    (NO_LOSS_LEFT + "w_lc = 0\n", []),
    (NO_LOSS_LEFT + "ablations = no_lc\n", []),
    (NO_LOSS_LEFT, ["--ablate", "no_lc"]),
], ids=["all_weights_zero", "config_ablation", "cli_ablation"])
def test_train_rejects_config_with_no_loss_term_left(tmp_path, small_data, capsys, extra, ablate):
    cfg = quick_train_cfg(tmp_path, extra)
    capsys.readouterr()
    assert main(["train", "--data", str(small_data), "--config", cfg,
                 "--out", str(tmp_path / "run")] + ablate) == 2
    captured = capsys.readouterr()
    _one_error_line(captured.err, "loss weight")
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


def test_eval_rejects_checkpoint_with_no_loss_term_left(tmp_path, trained_run, capsys):
    data, run = trained_run

    def edit(lines):
        zero = {f"config {w} 1.0": f"config {w} 0.0"
                for w in ("w_glioma", "w_molecular", "w_histology")}
        lines = [zero.get(ln, ln) for ln in lines]
        return [ln for ln in lines if not ln.startswith("config ablations")] + [
            "config ablations no_disent,no_lc,no_dcc"]

    ckpt = _copy_run(run, tmp_path / "ckpt", edit)
    capsys.readouterr()
    assert main(["eval", "--data", str(data), "--checkpoint", str(ckpt)]) == 2
    _one_error_line(capsys.readouterr().err, "loss weight")


def test_ablate_validates_every_variant_before_training(tmp_path, small_data, capsys):
    # the full model still optimizes w_lc, but the no_lc variant has nothing left
    cfg = quick_train_cfg(tmp_path, NO_LOSS_LEFT)
    out = tmp_path / "ablation"
    capsys.readouterr()
    assert main(["ablate", "--data", str(small_data), "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    _one_error_line(captured.err, "loss weight")
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval


@pytest.mark.parametrize("ablate", [[], ["--ablate", "no_graph"]], ids=["plain", "no_graph"])
def test_eval_reproduces_training_report(tmp_path, small_data, capsys, ablate):
    run = tmp_path / "run"
    cfg = quick_train_cfg(tmp_path)
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(run),
                 *ablate]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", str(small_data), "--checkpoint", str(run)]) == 0
    eval_out = capsys.readouterr().out
    report_rows = (run / "report.txt").read_text()
    trained_table = [ln for ln in report_rows.splitlines() if ln and not ln.startswith(("held", "task"))]
    eval_table = [ln for ln in eval_out.splitlines() if ln and not ln.startswith(("metrics", "task"))]
    assert trained_table == eval_table


def test_eval_split_all_scores_every_case(tmp_path, small_data, capsys):
    run = tmp_path / "run"
    cfg = quick_train_cfg(tmp_path)
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["eval", "--data", str(small_data), "--checkpoint", str(run),
                 "--split", "all"]) == 0
    assert "all cases (24)" in capsys.readouterr().out


def test_eval_missing_checkpoint_exits_2(tmp_path, small_data, capsys):
    assert main(["eval", "--data", str(small_data),
                 "--checkpoint", str(tmp_path / "nope")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_quick(capsys):
    assert main(["gradcheck", "--trials", "2", "--model-seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "matmul" in out and "model_seed" in out


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--model-seeds", "-1"),
                                        ("--seed", "-1")])
def test_gradcheck_rejects_bad_argument(capsys, flag, value):
    assert main(["gradcheck", flag, value]) == 2
    captured = capsys.readouterr()
    _one_error_line(captured.err, flag)
    assert captured.out == ""


# ---------------------------------------------------------------------------
# ablate + report


def test_ablate_and_report(tmp_path, capsys):
    gen_cfg = write_cfg(tmp_path / "g.cfg",
                        "n_cases = 14\nn_patches = 4\nfeat_dim = 5\nseed = 2\n")
    data = tmp_path / "data"
    assert main(["gen", "--config", gen_cfg, "--out", str(data)]) == 0
    train_cfg = write_cfg(tmp_path / "t.cfg", "epochs = 1\nbatch_size = 4\nseed = 0\n")
    out = tmp_path / "ablation"
    assert main(["ablate", "--data", str(data), "--config", train_cfg,
                 "--out", str(out)]) == 0
    assert (out / "ablation.csv").exists()
    for variant in ("full",) + ABLATION_FLAGS:
        assert (out / variant / "checkpoint.manifest").exists(), variant
        assert (out / variant / "report.txt").exists(), variant
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 0
    rows = [ln for ln in capsys.readouterr().out.strip().splitlines() if ln]
    assert len(rows) == 1 + 1 + len(ABLATION_FLAGS)  # header + full + variants


def test_report_on_train_run(tmp_path, small_data, capsys):
    run = tmp_path / "run"
    cfg = quick_train_cfg(tmp_path)
    assert main(["train", "--data", str(small_data), "--config", cfg, "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    assert "loss_total" in out and "glioma" in out


def test_report_on_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--run", str(empty)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, text, named", [
    ("epochs.csv", "epoch,loss_total,dcc_overlap,acc_idh,acc_glioma\n0,1.0,0.5,0.6,0.7\n",
     "'loss_dcc'"),
    ("ablation.csv", "variant,acc_idh,acc_glioma\nfull,0.9,0.8\nno_graph,0.9\n", "line 3"),
    ("epochs.csv", "\n", "empty"),
], ids=["missing_column", "short_row", "empty"])
def test_report_on_a_malformed_run_file_exits_2(tmp_path, capsys, name, text, named):
    (tmp_path / name).write_text(text)
    assert main(["report", "--run", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert name in lines[0] and named in lines[0]


def _write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


def _non_utf8_copy(src_dir, dest, name):
    """Copy ``src_dir``'s files into ``dest``, appending a line of one 0xff byte to ``name``."""
    dest.mkdir()
    for f in src_dir.iterdir():
        if f.is_file():
            (dest / f.name).write_bytes(f.read_bytes() + (b"\xff\n" if f.name == name else b""))
    return dest


NON_UTF8_INPUTS = {  # input kind -> (tmp_path, data, run) -> (argv, file named in the error)
    "config": lambda tmp, data, run: (
        ["train", "--data", str(data), "--config", _write_bytes(tmp / "train.cfg", b"epochs = 1\xff"),
         "--out", str(tmp / "out")], "train.cfg"),
    "dataset": lambda tmp, data, run: (
        ["train", "--data", str(_non_utf8_copy(data, tmp / "data", "dataset.manifest")),
         "--config", quick_train_cfg(tmp), "--out", str(tmp / "out")], "dataset.manifest"),
    "checkpoint": lambda tmp, data, run: (
        ["eval", "--data", str(data), "--checkpoint",
         str(_non_utf8_copy(run, tmp / "ckpt", "checkpoint.manifest"))], "checkpoint.manifest"),
    "run_file": lambda tmp, data, run: (
        ["report", "--run", str(_non_utf8_copy(run, tmp / "run", "epochs.csv"))], "epochs.csv"),
    "run_report": lambda tmp, data, run: (
        ["report", "--run", str(_non_utf8_copy(run, tmp / "run", "report.txt"))], "report.txt"),
}


@pytest.mark.parametrize("kind", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_exits_2_with_one_error_line(tmp_path, trained_run, capsys, kind):
    argv, name = NON_UTF8_INPUTS[kind](tmp_path, *trained_run)
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, name)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# argparse-level usage errors


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["gen"])  # --out is required
    assert exc.value.code == 2
