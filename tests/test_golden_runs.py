"""Golden table of run outputs: 40 small reconstructions whose stop step,
final lambda, final PSNR and output digests are pinned in golden_runs.csv.

The grid is 32x32, 4 coils, 60 steps: {equispaced, Poisson with calib 8}
x sigma in {0, 0.02} x prior in {truth, none} x every method. Stop steps
must match exactly and lambda and PSNR to 1e-12 relative (NaN matches
NaN); those hold across CPUs. The SHA-256 digests of the final image and
of the trace CSV are bit-level, which CPUs and numpy builds do not
promise (README), so a digest mismatch is counted and printed, not
failed: "golden: 40/40 image and 40/40 trace digests match" means the
outputs are byte-identical to the table.

After a change that moves outputs on purpose, rewrite the table with

    python tests/test_golden_runs.py

and commit its diff, the old -> new table.
"""

import csv
import hashlib
import math
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package from the source tree
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from smrd.config import MASK_KINDS, PRIORS, ExperimentConfig, reconstruct, simulate
from smrd.metrics import psnr
from smrd.sampler import METHODS, write_trace_csv

GOLDEN = Path(__file__).with_name("golden_runs.csv")
KEY = ("mask", "sigma", "prior", "method")
FIELDS = (*KEY, "stop_step", "final_lambda", "final_psnr", "image_sha256", "trace_sha256")
BASE = ExperimentConfig(size=32, coils=4, steps=60, calib=8)
GRID = [
    (mask, sigma, prior, method)
    for mask in MASK_KINDS
    for sigma in (0.0, 0.02)
    for prior in PRIORS
    for method in METHODS
]


def run_row(mask: str, sigma: float, prior: str, method: str, trace_path: Path) -> dict:
    cfg = BASE.replace(mask=mask, sigma=sigma, prior=prior).validate()
    truth, fm, y = simulate(cfg)
    rep = reconstruct(cfg, method, truth, fm, y)
    write_trace_csv(rep, trace_path)
    return {
        "mask": mask,
        "sigma": repr(sigma),
        "prior": prior,
        "method": method,
        "stop_step": str(rep.stop_step),
        "final_lambda": repr(float(rep.final_lambda)),
        "final_psnr": repr(float(psnr(truth, rep.final))),
        "image_sha256": hashlib.sha256(rep.final.tobytes()).hexdigest(),
        "trace_sha256": hashlib.sha256(trace_path.read_bytes()).hexdigest(),
    }


def golden_rows() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        return [run_row(*cell, trace_path) for cell in GRID]


def read_table(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def write_table(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def same_float(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    return (math.isnan(x) and math.isnan(y)) or math.isclose(x, y, rel_tol=1e-12, abs_tol=0.0)


def test_golden_runs():
    want = read_table(GOLDEN)
    got = golden_rows()
    assert [[r[k] for k in KEY] for r in got] == [[r[k] for k in KEY] for r in want]
    for g, w in zip(got, want):
        cell = "/".join(w[k] for k in KEY)
        assert g["stop_step"] == w["stop_step"], cell
        for name in ("final_lambda", "final_psnr"):
            assert same_float(g[name], w[name]), f"{cell} {name}: {g[name]} vs {w[name]}"
    images = sum(g["image_sha256"] == w["image_sha256"] for g, w in zip(got, want))
    traces = sum(g["trace_sha256"] == w["trace_sha256"] for g, w in zip(got, want))
    print(f"golden: {images}/{len(want)} image and {traces}/{len(want)} trace digests match")


if __name__ == "__main__":
    write_table(GOLDEN, golden_rows())
    print(f"wrote {GOLDEN}")
