"""The config codec, the ablation merge and the loss-weight map."""
import dataclasses

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
    validate,
    with_ablations,
)

count = st.integers(1, 10**6)
seed = st.integers(0, 2**63)
unit = st.floats(0.0, 1.0)
nonneg = st.floats(0.0, 1e6, allow_subnormal=True)
real = st.floats(allow_nan=False, allow_infinity=False)

gen_configs = st.builds(
    GenConfig,
    n_cases=count, n_patches=count, feat_dim=count,
    signal_strength=real,
    evidence_fraction=unit, p_idh_mut=unit, p_codel_given_mut=unit, p_cdkn=unit,
    nmp_given_idhwt=unit, nmp_given_idhmut=unit,
    seed=seed,
)


def _trains_something(cfg):
    return any(loss_weights(cfg).values())


train_configs = st.builds(
    TrainConfig,
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
).filter(_trains_something)


@given(st.one_of(gen_configs, train_configs))
@settings(max_examples=300, deadline=None)
def test_format_then_parse_is_identity(cfg):
    validate(cfg)
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
