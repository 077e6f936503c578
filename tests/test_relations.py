"""Run-level metamorphic relations: transformations of the data that leave
the reconstruction unchanged in exact arithmetic, so any correct
implementation must reproduce its own output under them to rounding.

Both coil relations leave `x_zf = sum_c conj(S_c) F^H M y_c` and
`A^H A = sum_c conj(S_c) F^H M F S_c` unchanged: a per-coil phase cancels
against its conjugate, and a permutation of the coils only reorders the
sum. The Langevin noise and the SURE probes are drawn in the image domain,
so every draw is the same in both runs. The bounds, 1e-12 relative on the
final image and equal stop steps, were fixed before these cells were run;
the worst case measured on them is 9e-16, and csgm_es stops early in all
three cells.
"""

import numpy as np
import pytest

from smrd.config import ExperimentConfig, reconstruct, simulate
from smrd.forward import ForwardModel

RTOL = 1e-12
METHODS = ("smrd", "am_fixed", "csgm_es")
BASE = ExperimentConfig(size=32, coils=4, steps=60)
CELLS = {
    "equispaced-noisy": BASE.replace(sigma=0.02, seed=0),
    "equispaced-clean": BASE.replace(sigma=0.0, seed=2),
    "poisson-noisy": BASE.replace(mask="poisson", calib=8, sigma=0.02, seed=1),
}


def coil_phases(coils):
    phase = np.exp(1j * np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, coils))
    return lambda stack: phase[:, None, None] * stack


def coil_order(coils):
    perm = np.roll(np.arange(coils), 1)  # moves every coil
    return lambda stack: stack[perm]


RELATIONS = {"phase": coil_phases, "order": coil_order}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_coil_relations_leave_the_run_unchanged(cell):
    cfg = CELLS[cell].validate()
    truth, fm, y = simulate(cfg)
    for method in METHODS:
        base = reconstruct(cfg, method, truth, fm, y)
        for name, relation in RELATIONS.items():
            move = relation(cfg.coils)
            moved_fm = ForwardModel(sens=move(fm.sens), mask=fm.mask)
            rep = reconstruct(cfg, method, truth, moved_fm, move(y))
            where = (cell, method, name)
            assert rep.stop_step == base.stop_step, where
            err = np.linalg.norm(rep.final - base.final) / np.linalg.norm(base.final)
            assert err <= RTOL, (*where, err)
