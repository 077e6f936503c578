import dataclasses

import numpy as np
import pytest

from smrd.config import (
    ConfigError,
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
from smrd.sure import EarlyStopConfig, SureConfig, TttConfig


def test_round_trip_through_flat_format(tmp_path):
    cfg = ExperimentConfig(accel=8.0, sigma=0.0125, method="am_fixed", seed=17,
                           prior="smoothed_truth", out="results/run1")
    path = tmp_path / "exp.cfg"
    path.write_text(cfg.to_text())
    back = load_config(path)
    assert back == cfg


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("not_a_field = 3\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
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
    with pytest.raises(ConfigError):
        parse_config_text("mask = radial\n").validate()
    with pytest.raises(ConfigError):
        parse_config_text("method = magic\n").validate()
    with pytest.raises(ConfigError):
        parse_config_text("size = 8\n").validate()


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
    assert build_controller_configs(cfg) == (TttConfig(), EarlyStopConfig(), SureConfig())


def test_every_field_survives_text_round_trip():
    cfg = ExperimentConfig()
    back = parse_config_text(cfg.to_text())
    for f in dataclasses.fields(cfg):
        assert getattr(back, f.name) == getattr(cfg, f.name)
