"""The whole CLI output matrix, pinned by sha256.

One small run of each command (12 cases of 5 patches at K = 6, 2 epochs)
writes every file a user gets. The test compares the digest of each such
file, and of each command's stdout, with ``PINNED``:

- ``gen``;
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
    (root / "train.cfg").write_text("epochs = 2\n")
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
cc3b8c35674b3c23cf4f465c49f206ea0408575268b7ca7df2f5d4c5cf099e4f  ablation/full/checkpoint.blob
6729253bc1e10dd2b42f9a31203a4a1ef0dcd84f0467159b76c5e93e5924662b  ablation/full/checkpoint.manifest
5c6bfa33ed10e2f3790bb0c0269a9a26e1e7bf3a9b40854350948231be76558c  ablation/full/confidences.csv
ecdcd0ddc5f8628484daf8c540d8d61dfec7394e6d0b85477daecd54ebd34a3e  ablation/full/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/full/report.txt
2bbea4edaabaa9130f02c8abd89f712a7a875c1f7de94b71b2de975080e475d7  ablation/no_cmg/checkpoint.blob
f93f73aecb394c5336f6a6db04782ebcd4c028d8cbec30c735b5b78786c51364  ablation/no_cmg/checkpoint.manifest
1465bc915b2aa5d8b6b3821d836b9cdf97f1173f658705d11795f9d8a839afea  ablation/no_cmg/confidences.csv
39b733b5ce3da8409881a1a7698c7665f71f50192281379917164fa52ff093c5  ablation/no_cmg/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_cmg/report.txt
9a8aec1989e633b51627281bd0d4fd7eec3a8302478d8f6e09d7115cd0a93044  ablation/no_dcc/checkpoint.blob
5853f0453cdf0d312717c040034ec392055fbbb102cdcc0ad98d3d5c335847af  ablation/no_dcc/checkpoint.manifest
5c6bfa33ed10e2f3790bb0c0269a9a26e1e7bf3a9b40854350948231be76558c  ablation/no_dcc/confidences.csv
ecdcd0ddc5f8628484daf8c540d8d61dfec7394e6d0b85477daecd54ebd34a3e  ablation/no_dcc/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_dcc/report.txt
f1537d4b3316775fae53a2d18db3dd9fa5f21935c0e41cd783089a73a55ee27f  ablation/no_disent/checkpoint.blob
da9f6979c7f268e0d40f3e762d74fa4331eab2c1f5e6716983c54a1a8ff0c7d9  ablation/no_disent/checkpoint.manifest
536d62ae7b572d00fe1a94ba2ef30c33cfba25f3fd417bf98b8b211725dfecfd  ablation/no_disent/confidences.csv
08b23dea167f1baafabe9df936a923226c62ede2721a7d9adbe1042140384587  ablation/no_disent/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_disent/report.txt
819b43fa19bae78937087952af5df5bf8a3119d047f0a96129e3f767d3ad5d0c  ablation/no_graph/checkpoint.blob
0eeaed85c4ec80dce72b0bc2a4df0cde93e0af949015fe98a7487aab50737131  ablation/no_graph/checkpoint.manifest
2acaa70bab886bed7f9142b3539cd2d742cbc3634e95ccac6faeb84026878f4e  ablation/no_graph/confidences.csv
dfd55f38792bcbb0f89138d5ca4168fd29d0afd05c6dca281d8b63c8828fbb64  ablation/no_graph/epochs.csv
fca50ab4c69a1dd9428a4186aaceed4d79f038a5e60ee1157f95fd3ce57cf5c8  ablation/no_graph/report.txt
fd11b9da662e7e7f137e7c68e68e9f001434649f9c47f5e73aaa4e67d2594c49  ablation/no_guide/checkpoint.blob
b6fcc64dc013096697dfe8e88022fa209b12819abb94e4491d30eda37506f59b  ablation/no_guide/checkpoint.manifest
8b896fe9dbe11546e3d7fc46261146b01ad4f2bdf6f0565ffd58507acfaa3a5d  ablation/no_guide/confidences.csv
25c4649ed5997e70d01930de1ed5dfffcde4a32579cee18225fe538be83f0e52  ablation/no_guide/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_guide/report.txt
d4e772b084199e4572e2ec99f146504e2c5c2c5219ec8c82f738d0d5d760994a  ablation/no_lc/checkpoint.blob
10c9d281f84f0f0a655560b55fd763dec50fda1b45028a17297a661108a6eb03  ablation/no_lc/checkpoint.manifest
7b4a9b071d7cfc94f3c37844c94cfbb9ea76bceda972c01e5b069e97371e48e0  ablation/no_lc/confidences.csv
b9a3449a89da68b1dc03b6982a371663a43bac1edae00145ac69009d243a5f07  ablation/no_lc/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_lc/report.txt
58efdf7a25b8a8fd519d6844f5a917bb5249450c0b757bdbb172ee7abe650bc6  ablation/no_rescale/checkpoint.blob
423b8db53d15caa8ab433c083d1a4d421130529279becf96e2ed414478483646  ablation/no_rescale/checkpoint.manifest
8a32a05f30fc6a8da3678b32dc8a80e70db213d86aa8c25cd3a4a5d19f214b62  ablation/no_rescale/confidences.csv
2737c6f6ba615a7024ac3df0d7f27f80d8b114f6c0df97b61047862dbedebe9c  ablation/no_rescale/epochs.csv
5a705cdc3e1d30af241507748a07e3dda213300aa70b40469c86e757e43c6e78  ablation/no_rescale/report.txt
320cc8b6f89612e4c5bfb3a8293ccdfdd0ee3572b1ecba6b539382c264503d5b  data/dataset.blob
009b4bdd5f231ce2391bcdf6e4e72fa3ea8c8d98dafe855657255a52f2575d1c  data/dataset.manifest
872b30bcfd14c842ae5025bf560aa7f0a9bc9f48da8b27892590427c5ba1ded2  ragged/dataset.blob
d7b649535537406232eb17696946feb74923cb3cafd5999ff25c137f660e9809  ragged/dataset.manifest
eddfddc9f5c2f715f08fb7926fdd53167e7b3fc0663503e3a35360b7aa0001b4  ragged_run/checkpoint.blob
6729253bc1e10dd2b42f9a31203a4a1ef0dcd84f0467159b76c5e93e5924662b  ragged_run/checkpoint.manifest
9061f42229b468acf6a811b0ddb6dea3025384ed3f0eb2ec0fcb326e967cfcd1  ragged_run/confidences.csv
f6d7bdcae56ae1c7a6f6700d377b30ad67c5ce9e67d5f950750b414f667ec0aa  ragged_run/epochs.csv
01897cf09cc779cc6ca0679d4658da035361db876032110d89322a64233fde47  ragged_run/report.txt
90beb9fb64e2f5ba249c165d004a9a8aee797a699a3ae144cdb314828ac8a625  stdout of gliomil ablate --data data --config train.cfg --out ablation
4f972df2e4250af9639d8a4aaec0bf5e9c3cb68395a322614220a49b716e1331  stdout of gliomil eval --data data --checkpoint ablation/full --split all
281b4042b0653e70e3142f157655275a1bd4622db166d49b437dc714272c885b  stdout of gliomil eval --data data --checkpoint ablation/full --split train
9d8ea346f076355d5730c9a33a19836510ac31338fa7f66c02b1b659524fe904  stdout of gliomil eval --data data --checkpoint ablation/full --split val
77dc0229c29dd0ed8e08b403c24173888d7c4283db763d011e5d65f03c99011f  stdout of gliomil gen --config gen.cfg --out data
3b8f87ec368990c487e8c97d719bb6ebfe41cc582c0f2c559058d8e1141f123c  stdout of gliomil gradcheck --trials 2 --model-seeds 1
d54445c6253337992bc622361deb46ffe920ed44cd614c145c3e847f425b57f8  stdout of gliomil report --run ablation
0d639dad3a00382330edbb3cd7610f030341df083b06f260c27d60f166077cac  stdout of gliomil report --run ablation/full
eaeedb3f2342d37ce8062c82b3cef9b0dea56675328c59f482472ed8b26728b5  stdout of gliomil train --data ragged --config train.cfg --out ragged_run
"""


def test_cli_output_matrix_is_pinned(digests):
    table = _table(digests)
    assert table == PINNED, (
        "the CLI output bytes changed; if that is meant, replace PINNED with:\n" + table)
