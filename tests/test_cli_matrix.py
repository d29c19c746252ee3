"""The whole CLI output matrix, pinned by sha256.

One small run of each command (12 cases of 5 patches at K = 6, 2 epochs)
writes every file a user gets. Training takes ``dcc_top_m = 3``: at the
default of 8, every patch of a 5-patch bag falls in both top-M sets, so
DCC's loss reads +/-0 and ``ablation/full`` and ``ablation/no_dcc`` write
the same ``epochs.csv`` and ``confidences.csv``. The test compares the
digest of each such file, and of each command's stdout, with ``PINNED``:

- ``gen``, whose two files were first pinned when bags were held as
  float64 in memory: the in-memory dtype must not reach the files;
- ``ablate``: ``train`` for the full model and each ablation variant, and
  ``ablation.csv``;
- ``eval --split val|train|all`` on the full model's run;
- ``report`` on that run and on the ablation;
- ``gradcheck --trials 2 --model-seeds 1``, whose timing line goes to stderr;
- a ragged dataset of 3-11-patch bags written by ``write_dataset``, then
  ``train`` on it.

A change that must keep the bits passes as it is. A change that alters
them on purpose pastes the table the failure prints over ``PINNED`` and
says so in ``CHANGES.md``, with the max |Δθ| it caused.
"""
import contextlib
import hashlib
import io

import pytest

from gliomil.cli import main
from gliomil.config import GenConfig
from gliomil.dataio import write_dataset
from gliomil.synth import generate_bag, rng_for_case, sample_case

GEN_CFG = "n_cases = 12\nn_patches = 5\nfeat_dim = 6\nseed = 11\n"
RAGGED_PATCHES = [3 + 5 * i % 9 for i in range(12)]  # each of 3 to 11, out of order
# the directories the matrix writes, whose every file is pinned
OUTPUTS = ("data", "ablation", "ragged", "ragged_run")
COMMANDS = [
    "gen --config gen.cfg --out data",
    "ablate --data data --config train.cfg --out ablation",
    *(f"eval --data data --checkpoint ablation/full --split {s}" for s in ("val", "train", "all")),
    "report --run ablation/full",
    "report --run ablation",
    "gradcheck --trials 2 --model-seeds 1",
    "train --data ragged --config train.cfg --out ragged_run",
]


def _ragged_bags() -> list:
    """Bags of ``RAGGED_PATCHES`` patches, each drawn as ``generate_dataset`` draws a case."""
    bags = []
    for i, n in enumerate(RAGGED_PATCHES):
        case_id = f"case{i:04d}"
        cfg = GenConfig(n_patches=n, feat_dim=6, seed=11)
        rng = rng_for_case(cfg.seed, case_id)
        bags.append(generate_bag(sample_case(rng, cfg), cfg, rng, case_id=case_id))
    return bags


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table(digests: dict) -> str:
    """``sha256sum`` lines: each digest, two spaces and what it is the digest of."""
    return "".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("matrix")
    (root / "gen.cfg").write_text(GEN_CFG)
    (root / "train.cfg").write_text("epochs = 2\ndcc_top_m = 3\n")
    write_dataset(root / "ragged", _ragged_bags())
    found = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)  # relative paths, so no temporary directory reaches stdout
        for command in COMMANDS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(command.split())
            assert code == 0, f"gliomil {command} exited {code}:\n{stdout.getvalue()}"
            found[f"stdout of gliomil {command}"] = _sha256(stdout.getvalue().encode())
    for out in OUTPUTS:
        for path in (root / out).rglob("*"):
            if path.is_file():
                found[path.relative_to(root).as_posix()] = _sha256(path.read_bytes())
    return found


PINNED = """\
bc1eabfefed93c92b73d8240f7e28837aee120c30e11348a4a8562ab2b587f91  ablation/ablation.csv
c86ecf4e445eb2c47c9ffd18f893165467cf618e94e2a6a731a3eaf7eed68c1d  ablation/full/checkpoint.blob
5e157e2a035b1caf32e04265b69ffd329f405ece9fbaccce06727cea1cd841b2  ablation/full/checkpoint.manifest
65c2323a300b9694df05284695f60e94de17231c56872b78947faae347f4f1af  ablation/full/confidences.csv
01bf55ee2d50165492f8ba8fe8ecd095bafd982b78d03cac7e34ea65079894e7  ablation/full/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/full/report.txt
91d07de292db709dc10fa91d51d078b695df870fb2f4d31c4be77e26e3c69dbc  ablation/no_cmg/checkpoint.blob
85fd836c1f4715f8a781dfd053dd26cb8e08fa5ba680e89f1641308cfcaad21d  ablation/no_cmg/checkpoint.manifest
6e1ea4b996c978ba96093e1b467396aa4230841bf0fc0202ba4587fa80402981  ablation/no_cmg/confidences.csv
075c1cd2764ee970503c7f32b8066bb93bfc50ce205c634e02316ac9e7426a8e  ablation/no_cmg/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_cmg/report.txt
9a8aec1989e633b51627281bd0d4fd7eec3a8302478d8f6e09d7115cd0a93044  ablation/no_dcc/checkpoint.blob
efcaca6438d20755ab872fd941fddfa9a63ae8d0df0bd0ef235d8d8fed80c3d8  ablation/no_dcc/checkpoint.manifest
5c6bfa33ed10e2f3790bb0c0269a9a26e1e7bf3a9b40854350948231be76558c  ablation/no_dcc/confidences.csv
b02de19ce42cf1068229fb8106c403b244f6deb5088b51cecc9eed531a304970  ablation/no_dcc/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_dcc/report.txt
402baff26c985bc27696d2247b88cbf06b5fc6e2a19b07447f263aa3fe7c7fb5  ablation/no_disent/checkpoint.blob
ee771c166f1eb4cf4498eb9ef6816558e864161f44069f6f1416ebd12113a861  ablation/no_disent/checkpoint.manifest
d9174e4b0100662508072c1c340e4ee61cf4d0375e8e34f100967d2375f4d8cb  ablation/no_disent/confidences.csv
97013188e17e56ac4ab0dfa070cefbedd228a85aea867509311c214b52fc112a  ablation/no_disent/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_disent/report.txt
00be22409543736bf70b54e545313677cabc93bc57be9c6466d419c83dd908b1  ablation/no_graph/checkpoint.blob
23998069c364a92dc4831a989a817b430969da80edc91949c6adcfbc5155ec3c  ablation/no_graph/checkpoint.manifest
889bb2bc6cdabd9a6c083e6a8476434b9ecd18f4496bbbcaf6b1fcc3d36c5628  ablation/no_graph/confidences.csv
5b3c5a71eb5cd1ee8e7e1740a4e5d0882fe949583296a0a8618ef94b1eca5707  ablation/no_graph/epochs.csv
fca50ab4c69a1dd9428a4186aaceed4d79f038a5e60ee1157f95fd3ce57cf5c8  ablation/no_graph/report.txt
3b66c1551f50b2855c860238aa8f58a0e55b60d118d4bd9f4e74edf1bcaea621  ablation/no_guide/checkpoint.blob
63626cc188f23b73f2f16053e584c8e678778fa40ac6263769ef5020452e1eb1  ablation/no_guide/checkpoint.manifest
ca01f8a1ef9b14844a63b90739f531ab212ffabf9aba34af8729028c34a7ae4e  ablation/no_guide/confidences.csv
a5645e4c45fa4102821d8af5e83c1bff26264565ed848bca51a5015bf8959053  ablation/no_guide/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_guide/report.txt
cbca815467d057582f32d70f4a613ec9f67dccb7b8ea3943fd5e951882a2ccd9  ablation/no_lc/checkpoint.blob
59ac5f5817148bae0c68b5c1098a14ca4e1f26c7a04531686095139a205d290a  ablation/no_lc/checkpoint.manifest
14ca2e51d62069e8b6bc15bf08aeac0ec79bc11e8e383d1cdf6d7d12e06179e3  ablation/no_lc/confidences.csv
eb1088390f48ad61062e0b5b75447936edb0a2597c7fe691ba61db2989a30e01  ablation/no_lc/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_lc/report.txt
5da809b7f0eb1d39d350f600d84df28f9b6fc2ae08614da948b70677f29eafdd  ablation/no_rescale/checkpoint.blob
347c9075a5dfab513b42d096321784f5f7a17b18c5f65c8daa7630fc1129be46  ablation/no_rescale/checkpoint.manifest
2cb582f43a69130708f7f7f7007ca343602df9f6d00bb4da1b9c940edc1534b9  ablation/no_rescale/confidences.csv
a53aa66c93268d77e4b8b22845f4e6036cf5b5ce781d8c83f46f6def1704d851  ablation/no_rescale/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_rescale/report.txt
320cc8b6f89612e4c5bfb3a8293ccdfdd0ee3572b1ecba6b539382c264503d5b  data/dataset.blob
009b4bdd5f231ce2391bcdf6e4e72fa3ea8c8d98dafe855657255a52f2575d1c  data/dataset.manifest
872b30bcfd14c842ae5025bf560aa7f0a9bc9f48da8b27892590427c5ba1ded2  ragged/dataset.blob
d7b649535537406232eb17696946feb74923cb3cafd5999ff25c137f660e9809  ragged/dataset.manifest
b01ec1419184ae3b12ee63b65f0eeae13200147e7e8b335e52890b7a291924bd  ragged_run/checkpoint.blob
5e157e2a035b1caf32e04265b69ffd329f405ece9fbaccce06727cea1cd841b2  ragged_run/checkpoint.manifest
024735c2de508680e21fab9aa9d5128938af610b9c976cd5b21879abb07cb238  ragged_run/confidences.csv
7a756f3c5cb2fab74e2ab700f50ff05952edc96764726c275680625abead7b11  ragged_run/epochs.csv
7f772514a1e04e2bd234465cadd707ab12f564cd2d5be4277a074a2fb8861a59  ragged_run/report.txt
90beb9fb64e2f5ba249c165d004a9a8aee797a699a3ae144cdb314828ac8a625  stdout of gliomil ablate --data data --config train.cfg --out ablation
1ed285d6209747a284e648f3c1e68929db4665c0e1242c5b735fa3d1bb5433ff  stdout of gliomil eval --data data --checkpoint ablation/full --split all
9973047a559e92c7de7ea73028b0687a61845f8858c261384b9cfaccb2245143  stdout of gliomil eval --data data --checkpoint ablation/full --split train
9d8ea346f076355d5730c9a33a19836510ac31338fa7f66c02b1b659524fe904  stdout of gliomil eval --data data --checkpoint ablation/full --split val
77dc0229c29dd0ed8e08b403c24173888d7c4283db763d011e5d65f03c99011f  stdout of gliomil gen --config gen.cfg --out data
3b8f87ec368990c487e8c97d719bb6ebfe41cc582c0f2c559058d8e1141f123c  stdout of gliomil gradcheck --trials 2 --model-seeds 1
d54445c6253337992bc622361deb46ffe920ed44cd614c145c3e847f425b57f8  stdout of gliomil report --run ablation
ac0ce2e5e77ddb9e34bc0d0fb42dabd41cf6245d5188b7da7f01fcb2489c1a9a  stdout of gliomil report --run ablation/full
ed76e0a6f68570c836c06c0f0b601d9c43dcd6b2f37e3c9dcc340bfc28abddd5  stdout of gliomil train --data ragged --config train.cfg --out ragged_run
"""


def test_cli_output_matrix_is_pinned(digests):
    table = _table(digests)
    assert table == PINNED, (
        "the CLI output bytes changed; if that is meant, replace PINNED with:\n" + table)
