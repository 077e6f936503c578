"""Experiment configuration: a flat key=value format, seed derivation and
the assembly of a run from one config. `simulate` builds the ground
truth, the forward model and the noisy k-space; `reconstruct` runs one
method on them. A fault in a config raises ValueError, as a component's
own check does.

The file format is one `key = value` pair per line. A `#` at the start
of a line or after whitespace starts a comment, so `out = runs/exp#3`
keeps its `#` and `accel = 8  # R` reads 8; a value cannot hold a `#`
after whitespace. Unknown keys are rejected so stale configs fail
loudly, and so is a key set twice. Every command's randomness funnels
through the single `seed` field, with sub-streams derived by hashing
(seed, purpose label).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .forward import (
    ForwardModel, NoiseSpec, SamplingMask, add_kspace_noise, apply_forward,
    make_equispaced_mask, make_poisson_disc_mask,
)
from .phantom import PhantomSpec, make_phantom, make_synth_coils
from .priors import NoiseSchedule, ScorePrior
from .sampler import ReconReport, SamplerConfig, run_reconstruction
from .sure import TttConfig

MASK_KINDS = ("equispaced", "poisson")
PRIORS = ("truth", "none")  # a Gaussian centered on the truth, or no prior


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
    phantom: str = PhantomSpec.kind
    size: int = PhantomSpec.size
    coils: int = 4
    mask: str = "equispaced"
    accel: float = 4.0
    calib: int = 16
    sigma: float = 0.0
    # prior
    prior: str = "truth"  # one of PRIORS
    steps: int = NoiseSchedule.steps  # a multiple of priors.LEVELS = 30, steps // 30 per level
    # sampler / controller
    method: str = SamplerConfig.method
    lambda0: float = TttConfig.lambda0
    # run
    seed: int = 0
    out: str = "out"

    def validate(self) -> "ExperimentConfig":
        """The one gate, run before any file is read or written. Its own
        rules: finite floats, a known `mask` and `prior`, coils >= 1,
        accel >= 1, 0 <= calib <= size under every mask, and a nonempty
        `out` that reads back unchanged from its config-file line. Every
        other rule is a component's own and runs by building that component's
        spec. A broken rule raises ValueError."""
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, allowed in (("mask", MASK_KINDS), ("prior", PRIORS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"unknown {name} {value!r}, expected one of {allowed}")
        if self.coils < 1:
            raise ValueError("coils must be >= 1")
        if self.accel < 1:
            raise ValueError("accel must be >= 1")
        _phantom_spec(self)
        build_noise_spec(self)
        _score_prior(self)
        build_sampler_config(self, self.method)
        build_controller_configs(self)
        if not 0 <= self.calib <= self.size:
            raise ValueError(f"calib must be in [0, size={self.size}], got {self.calib}")
        if not self.out:
            raise ValueError("out must not be empty")
        try:
            same = parse_config_text(f"out = {self.out}").out == self.out
        except ValueError:
            same = False
        if not same:
            raise ValueError(f"out {self.out!r} does not read back from a config file")
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
        raise ValueError(f"bad value for {name}: {raw!r}") from exc


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str) -> ExperimentConfig:
    """Apply the `key = value` lines of `text` to the defaults. Only parses:
    unknown or repeated keys and unparsable values raise ValueError, and
    the caller gates the finished config with validate()."""
    updates = {}
    first_line = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
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
    return ScorePrior(schedule=NoiseSchedule(steps=cfg.steps), mean=mean)


def build_prior(cfg: ExperimentConfig, truth: np.ndarray | None) -> ScorePrior:
    if cfg.prior == "none":
        return _score_prior(cfg)
    if truth is None:
        raise ValueError(f"prior={cfg.prior!r} needs the ground-truth image")
    return _score_prior(cfg, truth)


def build_sampler_config(cfg: ExperimentConfig, method: str) -> SamplerConfig:
    return SamplerConfig(method=method, seed=derive_seed(cfg.seed, f"recon:{method}"))


def build_controller_configs(cfg: ExperimentConfig) -> tuple[TttConfig, None, None]:
    """`cfg`'s controller: `lambda0` is its one setting. The two `None`s fill
    `run_reconstruction`'s unread `es` and `sure_cfg` slots, which stay
    because perfbench unpacks this triple and passes it on by position."""
    return TttConfig(lambda0=cfg.lambda0), None, None


def simulate(cfg: ExperimentConfig) -> tuple[np.ndarray, ForwardModel, np.ndarray]:
    """The ground truth, the forward model and the noisy k-space of `cfg`."""
    truth = build_phantom(cfg)
    fm = build_forward_model(cfg)
    return truth, fm, add_kspace_noise(apply_forward(fm, truth), fm.mask, build_noise_spec(cfg))


def reconstruct(
    cfg: ExperimentConfig, method: str, truth: np.ndarray, fm: ForwardModel, y: np.ndarray
) -> ReconReport:
    """Reconstruct `y` with `method` under the prior, seed and controller
    settings of `cfg`. `cfg.sigma` is not read: the run sees the noise only
    through `y`. `truth` feeds the prior and the trace's MSE."""
    return run_reconstruction(y, fm, build_prior(cfg, truth), build_sampler_config(cfg, method),
                              *build_controller_configs(cfg), truth=truth)
