import dataclasses

import numpy as np
import pytest

from smrd.config import (
    ConfigError,
    ExperimentConfig,
    build_mask,
    derive_seed,
    load_config,
    parse_config_text,
)
from smrd.forward import make_equispaced_mask


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


def test_every_field_survives_text_round_trip():
    cfg = ExperimentConfig()
    back = parse_config_text(cfg.to_text())
    for f in dataclasses.fields(cfg):
        assert getattr(back, f.name) == getattr(cfg, f.name)
