import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smrd.config import (
    ExperimentConfig,
    build_controller_configs,
    build_mask,
    build_prior,
    derive_seed,
    load_config,
    parse_config_text,
)
from smrd.forward import make_equispaced_mask
from smrd.priors import NoiseSchedule, ScorePrior
from smrd.sure import TttConfig


def test_round_trip_through_flat_format(tmp_path):
    cfg = ExperimentConfig(accel=8.0, sigma=0.0125, method="am_fixed", seed=17,
                           prior="none", out="results/run1")
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    back = load_config(path)
    assert back == cfg


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="line 1: unknown key 'not_a_field'"):
        parse_config_text("not_a_field = 3\n")


def test_repeated_key_rejected():
    with pytest.raises(ValueError, match="line 3: key 'accel' already set on line 1"):
        parse_config_text("accel = 4\nsigma = 0.1\naccel = 8\n")


def test_empty_out_rejected():
    for cfg in (ExperimentConfig(out=""), parse_config_text("out =\n")):
        with pytest.raises(ValueError, match="out must not be empty"):
            cfg.validate()


def test_bad_value_rejected():
    with pytest.raises(ValueError, match="bad value for accel: ' banana'"):
        parse_config_text("accel = banana\n")


def test_comments_and_blank_lines_ok():
    cfg = parse_config_text("# a comment\n\naccel = 8  # trailing comment\n")
    assert cfg.accel == 8.0


def test_hash_inside_a_value_is_kept():
    # a `#` starts a comment only at the start of a line or after whitespace
    cfg = parse_config_text("out = runs/exp#3\naccel = 8\t# R\n  # sigma = 1\n")
    assert cfg.out == "runs/exp#3"
    assert cfg.accel == 8.0 and cfg.sigma == 0.0
    assert parse_config_text(cfg.to_text()) == cfg


def test_validation_catches_bad_enums():
    with pytest.raises(ValueError, match="unknown mask 'radial'"):
        parse_config_text("mask = radial\n").validate()
    with pytest.raises(ValueError, match="unknown method 'magic'"):
        parse_config_text("method = magic\n").validate()
    with pytest.raises(ValueError, match="unsupported size 8"):
        parse_config_text("size = 8\n").validate()
    with pytest.raises(ValueError, match="^prior='truth' needs the ground-truth image$"):
        build_prior(ExperimentConfig(prior="truth"), None)


def test_acs_fraction_auto_resolution():
    # 8% of the columns below R=6, 4% from R=6 on
    for accel, acs_fraction in ((4.0, 0.08), (8.0, 0.04)):
        cfg = ExperimentConfig(accel=accel, seed=3)
        want = make_equispaced_mask(64, 64, accel, acs_fraction, derive_seed(3, "mask"))
        assert np.array_equal(build_mask(cfg).keep, want.keep)


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(3, "mask") == derive_seed(3, "mask")
    assert derive_seed(3, "mask") != derive_seed(3, "noise")
    assert derive_seed(3, "mask") != derive_seed(4, "mask")


def test_library_defaults_are_the_clis():
    cfg = ExperimentConfig()
    prior = build_prior(cfg, np.zeros((cfg.size, cfg.size), dtype=complex))
    assert prior.schedule == NoiseSchedule()
    assert prior.tau2 == ScorePrior().tau2
    assert build_controller_configs(cfg) == (TttConfig(), None, None)


def test_defaults_read_from_components_keep_their_values():
    cfg = ExperimentConfig()
    assert (cfg.phantom, cfg.size, cfg.steps, cfg.method, cfg.lambda0) == (
        "shepp_logan", 64, 300, "smrd", 2.0)
    assert cfg.calib == 16  # the one Poisson calibration default; the mask generator has none


def test_every_field_survives_text_round_trip():
    cfg = ExperimentConfig()
    back = parse_config_text(cfg.to_text())
    for f in dataclasses.fields(cfg):
        assert getattr(back, f.name) == getattr(cfg, f.name)


@pytest.mark.parametrize("out", ["runs/a #b", " lead", "tail ", "a\nsigma = 1", "a\rb", "a\nb"])
def test_out_that_would_not_read_back_is_rejected(out):
    with pytest.raises(ValueError, match="does not read back from a config file"):
        ExperimentConfig(out=out).validate()


@pytest.mark.parametrize("out", ["runs/exp#3", "runs/a b", "a=b"])
def test_out_that_reads_back_is_kept(out):
    assert ExperimentConfig(out=out).validate().out == out


@settings(deadline=None)
@given(st.text())
def test_every_accepted_out_survives_text_round_trip(out):
    cfg = ExperimentConfig(out=out)
    try:
        cfg.validate()
    except ValueError:
        return
    assert parse_config_text(cfg.to_text()) == cfg
