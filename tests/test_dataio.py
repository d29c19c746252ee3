import hashlib
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomil.config import GenConfig, TrainConfig, ConfigError, load_gen_config, load_train_config
from gliomil.dataio import (
    CHECKPOINT_MANIFEST,
    DATASET_BLOB,
    DATASET_MANIFEST,
    DatasetError,
    CheckpointError,
    read_checkpoint,
    read_dataset,
    write_checkpoint,
    write_dataset,
)
from gliomil.synth import (
    CooccurrenceMatrix,
    MarkerTuple,
    PatchBag,
    estimate_cooccurrence,
    generate_dataset,
)
from gliomil.autodiff import Tensor
from gliomil.model import Model, ModelConfig


@pytest.fixture
def small_bags():
    return generate_dataset(GenConfig(n_cases=10, n_patches=6, feat_dim=5, seed=3))


class TestDatasetRoundTrip:
    def test_bitwise_roundtrip(self, tmp_path, small_bags):
        write_dataset(tmp_path, small_bags)
        back = read_dataset(tmp_path)
        assert len(back) == len(small_bags)
        for a, b in zip(small_bags, back):
            assert a.case_id == b.case_id
            for feats in (a.feats_high, a.feats_low, b.feats_high, b.feats_low):
                assert feats.dtype == np.float32
            assert a.feats_high.tobytes() == b.feats_high.tobytes()
            assert a.feats_low.tobytes() == b.feats_low.tobytes()
            assert a.markers == b.markers
            assert a.glioma_class == b.glioma_class

    def test_write_is_deterministic(self, tmp_path, small_bags):
        write_dataset(tmp_path / "a", small_bags)
        write_dataset(tmp_path / "b", small_bags)
        for name in (DATASET_MANIFEST, DATASET_BLOB):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_truncated_blob_names_case(self, tmp_path, small_bags):
        write_dataset(tmp_path, small_bags)
        blob = (tmp_path / DATASET_BLOB).read_bytes()
        (tmp_path / DATASET_BLOB).write_bytes(blob[:-40])
        with pytest.raises(DatasetError, match="case0009.*truncated|truncated.*case0009"):
            read_dataset(tmp_path)

    def test_corrupt_header(self, tmp_path, small_bags):
        write_dataset(tmp_path, small_bags)
        manifest = (tmp_path / DATASET_MANIFEST).read_text()
        (tmp_path / DATASET_MANIFEST).write_text("junk\n" + manifest)
        with pytest.raises(DatasetError, match="manifest"):
            read_dataset(tmp_path)

    def test_nonfinite_features_rejected(self, tmp_path, small_bags):
        write_dataset(tmp_path, small_bags)
        blob = bytearray((tmp_path / DATASET_BLOB).read_bytes())
        blob[0:4] = np.array([np.nan], dtype="<f4").tobytes()
        (tmp_path / DATASET_BLOB).write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="case0000"):
            read_dataset(tmp_path)

    def test_inconsistent_class_rejected(self, tmp_path, small_bags):
        """The reader derives each class from its markers, so a record that also stores one,
        as v1 records did, is refused, whether or not it contradicts them."""
        write_dataset(tmp_path, small_bags)
        lines = (tmp_path / DATASET_MANIFEST).read_text().splitlines()
        lines[1] += f" {(small_bags[0].glioma_class + 1) % 4}"
        (tmp_path / DATASET_MANIFEST).write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=re.escape(
                f"malformed record (want 7 fields): {lines[1]!r}")):
            read_dataset(tmp_path)

    def test_uneven_patch_counts_round_trip(self, tmp_path):
        """Bags of uneven patch counts come back with their stored row counts."""
        bags = [
            PatchBag("short", np.ones((2, 3)), np.zeros((2, 3)), MarkerTuple(0, 0, 0, 0), 0),
            PatchBag("long", np.arange(15.0).reshape(5, 3), -np.arange(15.0).reshape(5, 3),
                     MarkerTuple(1, 1, 0, 0), 3),
        ]
        write_dataset(tmp_path, bags)
        for bag, back in zip(bags, read_dataset(tmp_path), strict=True):
            assert np.array_equal(back.feats_high, bag.feats_high)
            assert np.array_equal(back.feats_low, bag.feats_low)

    @pytest.mark.parametrize("existing", [False, True])
    def test_magnification_shape_mismatch_is_refused_before_writing(self, tmp_path, small_bags,
                                                                    existing):
        """The last bag's low magnification has a patch too few: nothing is written."""
        out = tmp_path / "data"
        if existing:
            write_dataset(out, small_bags[:2])
        before = {p.name: p.read_bytes() for p in out.iterdir()} if existing else None
        last = small_bags[-1]
        bad = small_bags[:-1] + [last._replace(feats_low=last.feats_low[:-1])]
        with pytest.raises(DatasetError, match=f"case {last.case_id}: magnification shapes"):
            write_dataset(out, bad)
        if existing:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert not out.exists()

    @pytest.mark.parametrize("edit,refusal", [
        (dict(case_id="case 1"), "case 'case 1': a case id"),
        (dict(case_id="case,1"), "case 'case,1': a case id"),
        (dict(case_id=""), "case '': a case id"),
        (dict(case_id="case\t1"), "case 'case\\t1': a case id"),
        (dict(case_id="case0001"), "case case0001: repeated case id"),
        # a bag the reader refuses for what else its record or blob holds
        (dict(glioma_class=0), "case case0003: class 0 contradicts markers [1, 1, 1, 0]"),
        (dict(markers=MarkerTuple(2, 1, 1, 0)), "case case0003: labels must be 0/1, got [2, 1, 1, 0]"),
        (dict(feats_high=np.zeros((0, 5), np.float32), feats_low=np.zeros((0, 5), np.float32)),
         "case case0003: empty bag in 'case0003 0 5 "),
        (dict(feats_high=np.full((6, 5), np.nan, np.float32)), "case case0003: non-finite values"),
        (dict(feats_low=np.full((6, 5), 1e39)), "case case0003: non-finite values"),  # inf as f4
        (dict(feats_high=np.zeros((6, 4), np.float32), feats_low=np.zeros((6, 4), np.float32)),
         "case case0003: feature width 4 differs from the first case's 5"),
        # labels equal to ints but not written as the reader's integers
        (dict(markers=MarkerTuple(True, True, True, False)),
         "case case0003: a field is not an integer in 'case0003 6 5 True True True False'"),
        (dict(markers=MarkerTuple(np.True_, 1, 1, 0)),
         "case case0003: a field is not an integer in 'case0003 6 5 True 1 1 0'"),
    ], ids=["space", "comma", "empty", "tab", "repeated", "class", "label", "empty_bag", "nan",
            "float32_overflow", "width", "bool_labels", "numpy_bool_label"])
    def test_a_case_id_the_reader_refuses_is_refused_before_writing(self, tmp_path, small_bags,
                                                                    edit, refusal):
        bags = small_bags[:3] + [small_bags[3]._replace(**edit)]
        with pytest.raises(DatasetError, match=re.escape(refusal)):
            write_dataset(tmp_path / "data", bags)
        assert not (tmp_path / "data").exists()


    def test_an_empty_dataset_is_refused_before_writing(self, tmp_path):
        with pytest.raises(DatasetError, match="no cases"):
            write_dataset(tmp_path / "data", [])
        assert not (tmp_path / "data").exists()


class TestCheckpointRoundTrip:
    def test_a_non_finite_param_is_refused_before_writing(self, tmp_path):
        cooc = estimate_cooccurrence(np.zeros((1, 3), dtype=int))
        params = {"w": Tensor(np.ones(2)), "b": Tensor(np.array([0.5, np.nan]))}
        with pytest.raises(CheckpointError, match=re.escape("param b: non-finite values")):
            write_checkpoint(tmp_path / "ckpt", params, 2, cooc, TrainConfig())
        assert not (tmp_path / "ckpt").exists()

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "layer.w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "layer.b": Tensor(rng.normal(size=(1, 4)), requires_grad=True),
            "gate": Tensor(np.asarray(0.75), requires_grad=True),
        }
        cooc = estimate_cooccurrence(np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1]]))
        cfg = TrainConfig(epochs=3, ablations=("no_cmg",))
        write_checkpoint(tmp_path, params, 4, cooc, cfg)
        loaded, feat_dim, cooc2, cfg2 = read_checkpoint(tmp_path)
        assert feat_dim == 4
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name].data)
            assert loaded[name].dtype == np.float64 and not loaded[name].flags.writeable
        assert loaded["gate"].shape == ()
        assert np.array_equal(cooc2.a, cooc.a)
        assert np.array_equal(cooc2.counts, cooc.counts)
        assert cfg2 == cfg

    def test_order_preserved(self, tmp_path):
        params = {f"p{i}": Tensor(np.full((2,), float(i))) for i in range(5)}
        cooc = estimate_cooccurrence(np.zeros((1, 3), dtype=int))
        write_checkpoint(tmp_path, params, 2, cooc, TrainConfig())
        loaded, *_ = read_checkpoint(tmp_path)
        assert list(loaded) == [f"p{i}" for i in range(5)]

    def test_files_are_pinned(self, tmp_path):
        # theta at init is pinned elsewhere, so these bytes hold on any machine
        model = Model(ModelConfig(feat_dim=4, graph_alpha=0.5, use_graph=True),
                      np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(11,))))
        cooc = estimate_cooccurrence(np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1], [1, 1, 1]]))
        write_checkpoint(tmp_path, model.params, 4, cooc, TrainConfig())
        blob = (tmp_path / "checkpoint.blob").read_bytes()
        assert blob == model.theta.astype("<f8").tobytes()
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("checkpoint.manifest", "checkpoint.blob")}
        assert digests == {
            "checkpoint.manifest": "f5edf2b3af7765d88df2a4dc69bf5f56c7d549a5c0cf5f5c144bea5fe85c72dd",
            "checkpoint.blob": "bbcbec1e35f6a6c468eb16924e85e79249e78279fafd85ee94eedff36c14f9eb",
        }

    def test_truncated_blob_rejected(self, tmp_path):
        params = {"w": Tensor(np.ones((4, 4)))}
        cooc = estimate_cooccurrence(np.zeros((1, 3), dtype=int))
        write_checkpoint(tmp_path, params, 4, cooc, TrainConfig())
        blob = (tmp_path / "checkpoint.blob").read_bytes()
        (tmp_path / "checkpoint.blob").write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(tmp_path)

    @pytest.mark.parametrize("counts,cases", [
        ([[2, 1, 0], [0, 2, 0], [0, 0, 1]], 3),    # not symmetric
        ([[2, -1, 0], [-1, 2, 0], [0, 0, 1]], 3),  # a negative count
        ([[2, 3, 0], [3, 2, 0], [0, 0, 1]], 3),    # more joint positives than positives
        ([[2, 1, 0], [1, 2, 0], [0, 0, 4]], 3),    # more positives than cases
    ])
    def test_impossible_cooccurrence_counts_rejected(self, tmp_path, counts, cases):
        cooc = estimate_cooccurrence(np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1]]))
        write_checkpoint(tmp_path, {"w": Tensor(np.ones(2))}, 2, cooc, TrainConfig())
        _set_meta(tmp_path, "cooccurrence_counts", ",".join(map(str, np.ravel(counts))))
        _set_meta(tmp_path, "cooccurrence_cases", str(cases))
        with pytest.raises(CheckpointError, match="bad metadata: cooccurrence_counts"):
            read_checkpoint(tmp_path)

    @pytest.mark.parametrize("edit,refusal", [
        (lambda cooc: cooc._replace(counts=cooc.counts * 5),
         "bad metadata: cooccurrence_counts '10,5,5,5,5,0,5,0,10' over 3 cases"),
        (lambda cooc: cooc._replace(a=cooc.a * 0.5),
         "bad metadata: the cooccurrence matrix is not its counts'"),
    ], ids=["counts", "matrix"])
    def test_a_cooccurrence_the_reader_refuses_is_refused_before_writing(self, tmp_path, edit,
                                                                         refusal):
        cooc = edit(estimate_cooccurrence(np.array([[1, 1, 0], [1, 0, 1], [0, 0, 1]])))
        with pytest.raises(CheckpointError, match=re.escape(refusal)):
            write_checkpoint(tmp_path / "ckpt", {"w": Tensor(np.ones(2))}, 2, cooc, TrainConfig())
        assert not (tmp_path / "ckpt").exists()

    def test_cooccurrence_must_be_the_matrix_of_its_counts(self, tmp_path):
        """The matrix reads back bitwise as written, built from the counts; a manifest that
        also stores it, as v1 manifests did after ``feat_dim``, is refused."""
        cooc = estimate_cooccurrence(np.array([[1, 1, 0], [1, 0, 1], [0, 0, 1]]))
        write_checkpoint(tmp_path, {"w": Tensor(np.ones(2))}, 2, cooc, TrainConfig())
        assert read_checkpoint(tmp_path)[2].a.tobytes() == cooc.a.tobytes()
        matrix = "meta cooccurrence " + ",".join(repr(float(v)) for v in cooc.a.ravel())
        manifest = tmp_path / CHECKPOINT_MANIFEST
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join([*lines[:2], matrix, *lines[2:]]) + "\n")
        with pytest.raises(CheckpointError, match=re.escape(
                f"line 3 {matrix!r} is not as written: the writer writes {lines[2]!r}")):
            read_checkpoint(tmp_path)

    @pytest.mark.parametrize("line,key", [
        ("config epochs x", "epochs"),
        ("config batch_size 6.5", "batch_size"),
        ("config lr fast", "lr"),
        ("config no_such_key 3", "no_such_key"),
        ("config ablations no_such_flag", "no_such_flag"),
    ])
    def test_bad_config_line_names_its_key(self, tmp_path, line, key):
        cooc = estimate_cooccurrence(np.zeros((1, 3), dtype=int))
        write_checkpoint(tmp_path, {"w": Tensor(np.ones(2))}, 2, cooc, TrainConfig())
        manifest = tmp_path / "checkpoint.manifest"
        lines = manifest.read_text().splitlines()
        field = line.split()[1]
        at = [i for i, ln in enumerate(lines) if ln.startswith(f"config {field} ")]
        if at:
            lines[at[0]] = line
        else:
            lines.append(line)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=key):
            read_checkpoint(tmp_path)


def _set_meta(ckpt_dir, key, value):
    """Set the ``meta`` line of ``key`` in the checkpoint manifest in ``ckpt_dir`` to ``value``."""
    manifest = ckpt_dir / CHECKPOINT_MANIFEST
    manifest.write_text("".join(f"meta {key} {value}\n" if ln.startswith(f"meta {key} ")
                                else f"{ln}\n" for ln in manifest.read_text().splitlines()))


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """A 3-case dataset and a tiny checkpoint, as their writers write them."""
    root = tmp_path_factory.mktemp("written")
    write_dataset(root / "dataset",
                  generate_dataset(GenConfig(n_cases=3, n_patches=2, feat_dim=3, seed=5)))
    params = {"w": Tensor(np.random.default_rng(0).normal(size=(2, 3))),
              "gate": Tensor(np.asarray(0.5))}
    cooc = estimate_cooccurrence(np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1]]))
    write_checkpoint(root / "checkpoint", params, 3, cooc, TrainConfig())
    return root


def _write_read_checkpoint(dest, loaded):
    params, feat_dim, cooc, cfg = loaded
    write_checkpoint(dest, {name: Tensor(a) for name, a in params.items()}, feat_dim, cooc, cfg)


# kind -> (manifest name, the reader's error, reader, writer of what the reader returns)
FORMATS = {
    "dataset": (DATASET_MANIFEST, DatasetError, read_dataset, write_dataset),
    "checkpoint": (CHECKPOINT_MANIFEST, CheckpointError, read_checkpoint, _write_read_checkpoint),
}
# spellings that int() or float() reads but no writer writes, then short strings of the
# characters the manifests hold (and an Arabic-Indic four)
TOKENS = (st.sampled_from(["+4", "\u0664", "0_4", "04", "+0", "-0", "1e3", "0.0030", "(2,,3)",
                           "(3,2)", "()", ""])
          | st.text("0123456789+-_.,()=e \u0664x", max_size=6))


# line-level edits: none leaves a manifest as its writer writes it, unless it swaps a line
# with itself
LINE_EDITS = ("token", "swap", "empty_line", "crlf", "no_final_newline")


@pytest.mark.parametrize("kind", sorted(FORMATS))
@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_a_reader_accepts_only_what_its_writer_writes(written, kind, data):
    """One edit of a manifest: a token of one line replaced, two lines swapped, an empty
    line inserted, CRLF line endings or no final newline. The reader raises its format's
    error, or what it returns, written again, gives the edited manifest byte for byte."""
    manifest, error, read, write = FORMATS[kind]
    lines = (written / kind / manifest).read_text(encoding="utf-8").splitlines()
    edit = data.draw(st.sampled_from(LINE_EDITS))
    at = data.draw(st.integers(0, len(lines) - 1))
    if edit == "token":
        tokens = lines[at].split(" ")
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(TOKENS)
        lines[at] = " ".join(tokens)
    elif edit == "swap":
        other = data.draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif edit == "empty_line":
        lines.insert(at, "")
    newline = "\r\n" if edit == "crlf" else "\n"
    edited = (newline.join(lines) + ("" if edit == "no_final_newline" else newline)).encode()
    src, dest = written / "edited", written / "rewritten"
    for path in (src, dest):
        shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(written / kind, src)
    (src / manifest).write_bytes(edited)
    try:
        loaded = read(src)
    except error:
        return
    write(dest, loaded)
    assert (dest / manifest).read_bytes() == edited


@pytest.mark.parametrize("kind,header,found", [
    ("dataset", "paramset v2", "paramset v2"),
    ("dataset", "bagset v3 cases=3", "bagset v3"),
    ("dataset", "", "blank"),
    ("checkpoint", "bagset v2 cases=3", "bagset v2"),
    ("checkpoint", "paramset v3", "paramset v3"),
], ids=["dataset-of_a_checkpoint", "dataset-v3", "dataset-blank",
        "checkpoint-of_a_dataset", "checkpoint-v3"])
def test_a_manifest_of_another_format_or_version_is_refused_by_its_first_line(
        written, tmp_path, kind, header, found):
    """The reader checks the version line before any other: the one message names what the
    first line holds, although no line after it is one the reader could parse."""
    manifest, error, read, _ = FORMATS[kind]
    shutil.copytree(written / kind, tmp_path / kind)
    (tmp_path / kind / manifest).write_text(f"{header}\njunk\n")
    want = "bagset v2" if kind == "dataset" else "paramset v2"
    with pytest.raises(error, match=re.escape(
            f"{manifest}: a {found} manifest; this gliomil reads {want}")):
        read(tmp_path / kind)


class TestConfigFiles:
    def test_gen_config_roundtrip(self, tmp_path):
        path = tmp_path / "gen.cfg"
        path.write_text(
            "# generator settings\n"
            "n_cases = 12\n"
            "n_patches = 8\n"
            "feat_dim = 5\n"
            "signal_strength = 2.5\n"
            "seed = 9\n"
        )
        cfg = load_gen_config(path)
        assert cfg == GenConfig(n_cases=12, n_patches=8, feat_dim=5, signal_strength=2.5, seed=9)

    def test_train_config_with_ablations(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs = 2\nablations = no_cmg, no_lc\n")
        cfg = load_train_config(path)
        assert cfg.epochs == 2 and cfg.ablations == ("no_cmg", "no_lc")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_cases = 5\nn_caes = 5\n")
        with pytest.raises(ConfigError, match="n_caes"):
            load_gen_config(path)

    def test_unknown_ablation_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("ablations = no_everything\n")
        with pytest.raises(ConfigError, match="no_everything"):
            load_train_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 5\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_train_config(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("evidence_fraction = 1.5\n")
        with pytest.raises(ConfigError, match="evidence_fraction"):
            load_gen_config(path)
