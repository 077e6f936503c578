import dataclasses

import pytest

from smrd.config import (
    ConfigError,
    ExperimentConfig,
    derive_seed,
    load_config,
    parse_config_text,
)


def test_round_trip_through_flat_format(tmp_path):
    cfg = ExperimentConfig(accel=8.0, sigma=0.0125, method="am_fixed", seed=17,
                           prior_mean="smoothed_truth", out="results/run1")
    path = tmp_path / "exp.cfg"
    cfg.save(path)
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


def test_validation_catches_bad_enums():
    with pytest.raises(ConfigError):
        parse_config_text("mask = radial\n")
    with pytest.raises(ConfigError):
        parse_config_text("method = magic\n")
    with pytest.raises(ConfigError):
        parse_config_text("size = 8\n")


def test_acs_fraction_auto_resolution():
    assert ExperimentConfig(accel=4.0).resolved_acs_fraction() == 0.08
    assert ExperimentConfig(accel=8.0).resolved_acs_fraction() == 0.04
    assert ExperimentConfig(accel=8.0, acs_fraction=0.1).resolved_acs_fraction() == 0.1


def test_only_minus_one_means_auto_acs_fraction():
    assert parse_config_text("acs_fraction = -1\n").resolved_acs_fraction() == 0.08
    with pytest.raises(ConfigError, match="acs_fraction"):
        parse_config_text("acs_fraction = -0.5\n")


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(3, "mask") == derive_seed(3, "mask")
    assert derive_seed(3, "mask") != derive_seed(3, "noise")
    assert derive_seed(3, "mask") != derive_seed(4, "mask")


def test_every_field_survives_text_round_trip():
    cfg = ExperimentConfig()
    back = parse_config_text(cfg.to_text())
    for f in dataclasses.fields(cfg):
        assert getattr(back, f.name) == getattr(cfg, f.name)
