"""Tests of the benchmark itself: the pinned machine-independent counts of
the default pipeline, the span bookkeeping, the output checks, and the
agreement between run.py and BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import smrd  # noqa: E402
import smrd.cli  # noqa: E402
from probes import Recon, ReconTap, Tracer, summarize  # noqa: E402
from workloads import Expected, State, check  # noqa: E402


def _default_inputs():
    cfg = smrd.ExperimentConfig()  # 64x64, 4 coils, equispaced R=4, seed 0
    truth = smrd.config.build_phantom(cfg)
    fm = smrd.config.build_forward_model(cfg)
    y = smrd.add_kspace_noise(smrd.apply_forward(fm, truth), fm.mask, smrd.config.build_noise_spec(cfg))
    return cfg, truth, fm, y


def _traced_reconstruction(method: str) -> dict:
    cfg, truth, fm, y = _default_inputs()
    prior = smrd.config.build_prior(cfg, truth)
    scfg = smrd.config.build_sampler_config(cfg, method)
    ttt, es, sure_cfg = smrd.config.build_controller_configs(cfg)
    tracer = Tracer()
    tracer.install(smrd)
    try:
        smrd.sampler.run_reconstruction(y, fm, prior, scfg, ttt, es, sure_cfg, truth=truth)
    finally:
        tracer.uninstall()
    return summarize(tracer, 0.0)


@pytest.fixture(scope="module")
def smrd_trace() -> dict:
    return _traced_reconstruction("smrd")


def test_pinned_counts_smrd(smrd_trace):
    layers = smrd_trace["layers"]
    assert layers["sampler.cg_solve.calls"] == 1116
    assert layers["sampler.normal_op.applies"] == 6696
    assert layers["sure.mc_sure.calls"] == 300
    assert layers["sure.grad_sure_lambda.calls"] == 129
    assert layers["sure.update_lambda.calls"] == 129
    assert layers["sampler.cg_solve.useful_ratio"] == 300 / 1116
    assert len(smrd_trace["step_ms"]) == 300


def test_pinned_counts_am_fixed():
    layers = _traced_reconstruction("am_fixed")["layers"]
    assert layers["sampler.cg_solve.calls"] == 300
    assert layers["sampler.normal_op.applies"] == 1800
    assert layers["sure.mc_sure.calls"] == 0


def test_self_times_add_up_to_the_reconstruction(smrd_trace):
    assert smrd_trace["tree_error_s"] < 1e-6
    assert smrd_trace["most_negative_self_s"] > -1e-6
    by_name = smrd_trace["by_name"]
    total_self = sum(st.self_s for st in by_name.values())
    assert total_self == pytest.approx(smrd_trace["recon_wall_s"], rel=1e-9)
    assert 0.0 < smrd_trace["layers"]["fourier.fft.share"] < 1.0


def test_probes_restore_every_binding():
    before = {
        (mod.__name__, attr): value
        for mod in (smrd.sampler, smrd.cli, smrd.config, smrd.sure, smrd.forward)
        for attr, value in vars(mod).items()
        if callable(value)
    }
    fft2 = np.fft.fft2
    tracer, tap = Tracer(), ReconTap()
    tracer.install(smrd)
    tap.install(smrd)
    assert smrd.sampler.cg_solve is not before[("smrd.sampler", "cg_solve")]
    tap.uninstall()
    tracer.uninstall()
    after = {(m, a): getattr(sys.modules[m], a) for m, a in before}
    assert after == before
    assert np.fft.fft2 is fft2


def _state(truth: np.ndarray, zf_psnr: float, n: int) -> State:
    return State(grid=lambda: 0, expected=[Expected("smrd", truth, zf_psnr) for _ in range(n)])


def test_check_fails_bad_reconstructions_without_stopping():
    truth = np.ones((16, 16), dtype=np.complex128)
    good = truth * 1.001
    nan = truth.copy()
    nan[0, 0] = np.nan
    state = _state(truth, zf_psnr=30.0, n=5)
    recons = [
        Recon("smrd", 1.0, 10, good, None),
        Recon("smrd", 1.0, 10, nan, None),
        Recon("smrd", 1.0, 10, truth * 1.5, None),  # below the zero-filled floor
        Recon("smrd", 1.0, 0, None, "ValueError('boom')"),
    ]
    outcomes = check(smrd, state, recons, rc=0)
    failures = [o.failure for o in outcomes]
    assert failures[0] is None and math.isfinite(outcomes[0].psnr)
    assert failures[1] == "non-finite image"
    assert failures[2].startswith("PSNR")
    assert failures[3] == "ValueError('boom')"
    assert failures[4] == "never ran"
    assert len(outcomes[0].digest) == 64


def test_metric_tables_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
