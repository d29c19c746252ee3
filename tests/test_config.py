"""The config codec, the checks every config build runs, the ablation merge
and the loss-weight map."""
import dataclasses
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gliomil.config import (
    ABLATION_FLAGS,
    LOSS_TERMS,
    ConfigError,
    GenConfig,
    TrainConfig,
    format_config,
    load_gen_config,
    load_train_config,
    loss_weights,
    parse_config,
    with_ablations,
)

count = st.integers(1, 10**6)
seed = st.integers(0, 2**63)
unit = st.floats(0.0, 1.0)
nonneg = st.floats(0.0, 1e6, allow_subnormal=True)
strength = st.floats(-1e38, 1e38)  # the float32 range a dataset can hold, see GenConfig

gen_configs = st.builds(
    GenConfig,
    n_cases=count, n_patches=count, feat_dim=count,
    signal_strength=strength,
    evidence_fraction=unit, p_idh_mut=unit, p_codel_given_mut=unit, p_cdkn=unit,
    nmp_given_idhwt=unit, nmp_given_idhmut=unit,
    seed=seed,
)

# drawn as a dict and filtered before the build: a config with no loss weight
# left cannot be built, while any other rejected draw fails the test in ``map``
train_configs = st.fixed_dictionaries(dict(
    epochs=count, batch_size=count,
    lr=nonneg, weight_decay=nonneg,
    w_glioma=nonneg, w_molecular=nonneg, w_histology=nonneg,
    w_disent=nonneg, w_lc=nonneg, w_dcc=nonneg,
    dcc_top_m=count, dcc_decay=st.floats(0.0, 1.0, exclude_min=True), dcc_decay_every=count,
    dcc_temperature=st.floats(0.0, 1e6, exclude_min=True),
    graph_alpha=unit,
    val_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=seed,
    ablations=st.lists(st.sampled_from(ABLATION_FLAGS), unique=True).map(tuple),
)).filter(lambda fields: any(loss_weights(SimpleNamespace(**fields)).values())).map(
    lambda fields: TrainConfig(**fields))


@given(st.one_of(gen_configs, train_configs))
@settings(max_examples=300, deadline=None)
def test_format_then_parse_is_identity(cfg):
    text = format_config(cfg)
    assert list(text) == [f.name for f in dataclasses.fields(cfg)]
    assert parse_config(type(cfg), text) == cfg


@given(st.one_of(gen_configs, train_configs))
@settings(max_examples=50, deadline=None)
def test_config_file_roundtrip(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in format_config(cfg).items()))
    load = load_gen_config if isinstance(cfg, GenConfig) else load_train_config
    assert load(path) == cfg


def test_format_matches_the_checkpoint_text():
    cfg = TrainConfig(lr=0.01, ablations=("no_cmg", "no_lc"))
    text = format_config(cfg)
    assert text["lr"] == "0.01" and text["epochs"] == "50"
    assert text["ablations"] == "no_cmg,no_lc"
    assert format_config(TrainConfig())["ablations"] == ""


@pytest.mark.parametrize("key,text", [
    ("epochs", "x"), ("epochs", "6.5"), ("epochs", ""), ("lr", "fast"), ("n_cases", "1e3"),
])
def test_parse_names_the_field_it_cannot_parse(key, text):
    cls = GenConfig if key == "n_cases" else TrainConfig
    with pytest.raises(ConfigError, match=f"field '{key}'"):
        parse_config(cls, {key: text})


def test_loss_weights_follow_the_config_and_ablations():
    cfg = TrainConfig(w_glioma=2.0, w_molecular=3.0, w_histology=4.0,
                      w_disent=5.0, w_lc=6.0, w_dcc=7.0)
    assert loss_weights(cfg) == {"glioma": 2.0, "idh": 3.0, "codel": 3.0, "cdkn": 3.0,
                                 "nmp": 4.0, "disent": 5.0, "lc": 6.0, "dcc": 7.0}
    assert tuple(loss_weights(cfg)) == LOSS_TERMS
    off = loss_weights(dataclasses.replace(cfg, ablations=("no_disent", "no_lc", "no_dcc")))
    assert (off["disent"], off["lc"], off["dcc"]) == (0.0, 0.0, 0.0)


def test_with_ablations_appends_each_flag_once_and_validates():
    cfg = TrainConfig(ablations=("no_lc", "no_cmg"))
    assert with_ablations(cfg, ["no_cmg", "no_dcc", "no_dcc"]).ablations == (
        "no_lc", "no_cmg", "no_dcc")
    assert with_ablations(cfg, ()) == cfg
    with pytest.raises(ConfigError, match="no_such"):
        with_ablations(cfg, ["no_such"])
    with pytest.raises(ConfigError, match="loss weight"):
        with_ablations(TrainConfig(w_glioma=0.0, w_molecular=0.0, w_histology=0.0,
                                   w_disent=0.0, w_dcc=0.0), ["no_lc"])


# ---------------------------------------------------------------------------
# the checks every build runs


@pytest.mark.parametrize("build", [
    lambda: TrainConfig(ablations=["no_lc"]),
    lambda: TrainConfig(ablations=("no_lc", 3)),
    lambda: TrainConfig(epochs=2.5),
    lambda: TrainConfig(epochs=True),
    lambda: GenConfig(n_patches=4.0),
], ids=["ablations_list", "ablations_non_str", "epochs_float", "epochs_bool", "n_patches_float"])
def test_a_field_of_another_type_is_refused(build):
    with pytest.raises(ConfigError, match="must be a"):
        build()


@pytest.mark.parametrize("cfg", [GenConfig(), TrainConfig()], ids=["gen", "train"])
def test_a_built_config_is_frozen(cfg):
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 1


def test_replace_checks_the_new_config():
    with pytest.raises(ConfigError, match=r"dcc_decay must lie in \(0, 1\], got 0.0"):
        dataclasses.replace(TrainConfig(), dcc_decay=0.0)


def test_every_number_field_but_the_generator_seed_declares_an_open_ended_interval():
    for cls in (GenConfig, TrainConfig):
        for f in dataclasses.fields(cls):
            if type(f.default) not in (int, float) or (cls, f.name) == (GenConfig, "seed"):
                continue
            assert "interval" in f.metadata, f"{cls.__name__}.{f.name}"
            text = f.metadata["interval"][0]
            lo, hi = (float(end) for end in text[1:-1].split(","))
            # an infinite end written closed would let that infinity in
            assert text[0] in "[(" and text[-1] in ")]", text
            assert text[0] == "(" or math.isfinite(lo), text
            assert text[-1] == ")" or math.isfinite(hi), text


def reference_validate(cls, cfg) -> None:
    """The field-by-field check configs ran before each build checked itself,
    kept as the reference for the accept/reject sets; ``cfg`` holds ``cls``'s fields."""
    if cls is GenConfig:
        if cfg.n_cases < 1 or cfg.n_patches < 1 or cfg.feat_dim < 1:
            raise ConfigError("n_cases, n_patches and feat_dim must all be >= 1")
        for name in ("evidence_fraction", "p_idh_mut", "p_codel_given_mut",
                     "p_cdkn", "nmp_given_idhwt", "nmp_given_idhmut"):
            v = getattr(cfg, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if not -1e38 <= cfg.signal_strength <= 1e38:  # three signals on a row still fit float32
            raise ConfigError(f"signal_strength out of range, got {cfg.signal_strength}")
    elif cls is TrainConfig:
        if cfg.epochs < 1 or cfg.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if cfg.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        if not 0.0 < cfg.val_fraction < 1.0:
            raise ConfigError("val_fraction must lie in (0, 1)")
        if cfg.dcc_top_m < 1 or cfg.dcc_decay_every < 1:
            raise ConfigError("dcc_top_m and dcc_decay_every must be >= 1")
        if not 0.0 < cfg.dcc_decay <= 1.0:  # top-M shrinks by this factor each period
            raise ConfigError(f"dcc_decay must lie in (0, 1], got {cfg.dcc_decay}")
        if not 0.0 <= cfg.graph_alpha <= 1.0:
            raise ConfigError("graph_alpha must lie in [0, 1]")
        t = cfg.dcc_temperature
        if not (math.isfinite(t) and t > 0.0):
            raise ConfigError(f"dcc_temperature must be finite and > 0, got {t}")
        # lr = 0 stays valid: a run that trains nothing, used to test the optimizer
        for name in ("lr", "weight_decay", "w_glioma", "w_molecular", "w_histology",
                     "w_disent", "w_lc", "w_dcc"):
            v = getattr(cfg, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        bad = sorted(set(cfg.ablations) - set(ABLATION_FLAGS))
        if bad:
            raise ConfigError(
                f"unknown ablation flags: {', '.join(bad)} (known: {', '.join(ABLATION_FLAGS)})"
            )
        if not any(loss_weights(cfg).values()):
            raise ConfigError(
                "every loss weight is 0 once the ablations apply; nothing to optimize"
            )


def _rejects(check) -> bool:
    try:
        check()
    except ConfigError:
        return True
    return False


FLOAT_PROBES = (math.inf, -math.inf, math.nan, 1e300, -1e300, -1.0, 1e-300, -1e-300, 0.0, -0.0,
                5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0)
INT_PROBES = (2**70, -2**70, -1, 0, 1, 2, 2**63)
ABLATION_PROBES = ((), ("no_lc",), ("bogus",))
WEIGHTS = ("w_glioma", "w_molecular", "w_histology", "w_disent", "w_lc", "w_dcc")


def _field_cases():
    for cls in (GenConfig, TrainConfig):
        for f in dataclasses.fields(cls):
            probes = {int: INT_PROBES, float: FLOAT_PROBES, tuple: ABLATION_PROBES}
            for value in probes[type(f.default)]:
                yield cls, {f.name: value}


def _weight_cases():
    for pattern in range(2 ** len(WEIGHTS)):
        weights = {w: float(pattern >> i & 1) for i, w in enumerate(WEIGHTS)}
        for ablations in ((), ("no_lc",), ("no_disent", "no_lc", "no_dcc")):
            yield TrainConfig, {**weights, "ablations": ablations}


def _mismatches(cases):
    """The cases where a build and ``reference_validate`` disagree, and the case count."""
    wrong, n = [], 0
    for cls, fields in cases:
        n += 1
        old = SimpleNamespace(**{**{f.name: f.default for f in dataclasses.fields(cls)}, **fields})
        expected = _rejects(lambda: reference_validate(cls, old))
        if _rejects(lambda: cls(**fields)) != expected:
            wrong.append((cls.__name__, fields, expected))
    return wrong, n


def test_each_field_accepts_and_rejects_what_the_reference_does():
    wrong, n = _mismatches(_field_cases())
    assert n == 4 * 7 + 7 * 16 + 5 * 7 + 12 * 16 + 3
    assert wrong == []


def test_each_loss_weight_pattern_accepts_and_rejects_what_the_reference_does():
    wrong, n = _mismatches(_weight_cases())
    assert n == 64 * 3
    assert wrong == []
