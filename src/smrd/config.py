"""Experiment configuration: a flat key=value format, seed derivation and
builders that assemble the pipeline pieces from one config.

The file format is one `key = value` pair per line. A `#` at the start
of a line or after whitespace starts a comment, so `out = runs/exp#3`
keeps its `#` and `accel = 8  # R` reads 8; a value cannot hold a `#`
after whitespace. Unknown keys are rejected so stale configs fail
loudly. Every command's randomness funnels through the single `seed`
field, with sub-streams derived by hashing (seed, purpose label).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .forward import ForwardModel, NoiseSpec, SamplingMask, make_equispaced_mask, make_poisson_disc_mask
from .phantom import PhantomSpec, make_phantom, make_synth_coils
from .priors import NoiseSchedule, ScorePrior, gaussian_blur
from .sampler import SamplerConfig
from .sure import EarlyStopConfig, SureConfig, TttConfig

MASK_KINDS = ("equispaced", "poisson")
# each prior setting and the ScorePrior kind it builds: a gaussian centered
# on the truth, the blurred truth or zero, or no prior
PRIOR_KIND = {"truth": "gaussian", "smoothed_truth": "gaussian", "zero_mean": "gaussian",
              "none": "zero"}
PRIORS = tuple(PRIOR_KIND)
SMOOTHED_MEAN_BLUR_PX = 2.0  # blur std of the smoothed_truth prior mean


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def derive_seed(seed: int, label: str) -> int:
    """Stable 63-bit sub-seed from (seed, purpose label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def format_keyvals(pairs: Iterable[tuple[str, object]]) -> str:
    """One `key = value` line per pair; floats use repr (shortest round trip)."""
    lines = []
    for key, value in pairs:
        text = repr(float(value)) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentConfig:
    # data
    phantom: str = "shepp_logan"
    size: int = 64
    coils: int = 4
    mask: str = "equispaced"
    accel: float = 4.0
    calib: int = 16
    sigma: float = 0.0
    # prior
    prior: str = "truth"  # one of PRIORS
    levels: int = 30
    steps: int = 300  # a multiple of levels; each level runs steps // levels
    eps0: float = 1.8e-6
    # sampler / controller
    method: str = "smrd"
    lambda0: float = 2.0
    # run
    seed: int = 0
    out: str = "out"

    def validate(self) -> "ExperimentConfig":
        """The one gate, run before any file is read or written. Its own
        rules: finite floats, a known `mask` and `prior`, coils >= 1,
        accel >= 1 and 0 <= calib <= size under every mask. Every other
        rule is a component's own and runs by building that component's
        spec; its ValueError is re-raised as ConfigError."""
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for name, allowed in (("mask", MASK_KINDS), ("prior", PRIORS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"unknown {name} {value!r}, expected one of {allowed}")
        if self.coils < 1:
            raise ConfigError("coils must be >= 1")
        if self.accel < 1:
            raise ConfigError("accel must be >= 1")
        try:
            _phantom_spec(self)
            build_noise_spec(self)
            _score_prior(self)
            build_sampler_config(self)
            build_controller_configs(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0 <= self.calib <= self.size:
            raise ConfigError(f"calib must be in [0, size={self.size}], got {self.calib}")
        return self

    def replace(self, **overrides) -> "ExperimentConfig":
        return dataclasses.replace(self, **overrides)

    def to_text(self) -> str:
        return format_keyvals((f.name, getattr(self, f.name)) for f in dataclasses.fields(self))


# Value type of every field, read off its default. The config-file parser
# and the CLI flags are both derived from this one table.
FIELD_TYPES: dict[str, type] = {
    f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)
}


def _convert(name: str, kind: type, raw: str):
    try:
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str) -> ExperimentConfig:
    """Apply the `key = value` lines of `text` to the defaults. Only parses:
    unknown keys and unparsable values raise ConfigError, and the caller
    gates the finished config with validate()."""
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _convert(key, FIELD_TYPES[key], raw)
    return ExperimentConfig(**updates)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# pipeline assembly -----------------------------------------------------------

def _phantom_spec(cfg: ExperimentConfig) -> PhantomSpec:
    return PhantomSpec(kind=cfg.phantom, size=cfg.size)


def build_phantom(cfg: ExperimentConfig) -> np.ndarray:
    return make_phantom(_phantom_spec(cfg), seed=derive_seed(cfg.seed, "phantom"))


def build_mask(cfg: ExperimentConfig) -> SamplingMask:
    seed = derive_seed(cfg.seed, "mask")
    if cfg.mask == "equispaced":
        acs_fraction = 0.08 if cfg.accel < 6 else 0.04
        return make_equispaced_mask(cfg.size, cfg.size, cfg.accel, acs_fraction, seed)
    return make_poisson_disc_mask(cfg.size, cfg.size, cfg.accel, cfg.calib, seed)


def build_forward_model(cfg: ExperimentConfig) -> ForwardModel:
    sens = make_synth_coils(cfg.size, cfg.size, cfg.coils, derive_seed(cfg.seed, "coils"))
    return ForwardModel(sens=sens, mask=build_mask(cfg))


def build_noise_spec(cfg: ExperimentConfig) -> NoiseSpec:
    return NoiseSpec(sigma=cfg.sigma, seed=derive_seed(cfg.seed, "noise"))


def _score_prior(cfg: ExperimentConfig, mean: np.ndarray | None = None) -> ScorePrior:
    if cfg.levels < 1 or cfg.steps < 1 or cfg.steps % cfg.levels:
        raise ValueError("steps must be a positive multiple of levels >= 1, "
                         f"got steps={cfg.steps}, levels={cfg.levels}")
    schedule = NoiseSchedule(levels=cfg.levels, steps_per_level=cfg.steps // cfg.levels, eps0=cfg.eps0)
    return ScorePrior(kind=PRIOR_KIND[cfg.prior], schedule=schedule, mean=mean)


def build_prior(cfg: ExperimentConfig, truth: np.ndarray | None) -> ScorePrior:
    mean = None
    if cfg.prior in ("truth", "smoothed_truth"):
        if truth is None:
            raise ConfigError(f"prior={cfg.prior!r} needs the ground-truth image")
        mean = truth if cfg.prior == "truth" else gaussian_blur(truth, SMOOTHED_MEAN_BLUR_PX)
    return _score_prior(cfg, mean)


def build_sampler_config(cfg: ExperimentConfig, method: str | None = None) -> SamplerConfig:
    chosen = method or cfg.method
    return SamplerConfig(method=chosen, seed=derive_seed(cfg.seed, f"recon:{chosen}"))


def build_controller_configs(
    cfg: ExperimentConfig,
) -> tuple[TttConfig, EarlyStopConfig, SureConfig]:
    return TttConfig(lambda0=cfg.lambda0), EarlyStopConfig(), SureConfig()
