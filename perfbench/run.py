#!/usr/bin/env python3
"""smrd benchmark: closed-loop reconstruction workloads, end to end and
layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload tuned_eq64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The package is imported from ./src. Each workload is built from --seed,
measured for --seconds, and its outputs are checked. The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics of untraced grids, with --trace 1 the per-layer metrics of traced
grids (each traced grid is paired with an untraced one so the tracing
overhead can be reported). README.md describes the workloads and metrics.
"""

import os

# One client per process and 2-core hosts: cap every BLAS/OpenMP pool
# before numpy is first imported.
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from probes import ReconTap, Tracer, median_layers, summarize, write_spans  # noqa: E402
from workloads import WORKLOADS, Outcome, check, clear_outputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUPS_PER_ROUND = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "recon_s": "s",
    "steps_per_s": "1/s",
    "psnr_db": "dB",
    "peak_rss_mb": "MB",
}
# Per-layer metrics of the traced run that every workload measures.
PER_LAYER = {
    "sampler.cg_solve.calls": "count",
    "sampler.cg_solve.self_s": "s",
    "sampler.cg_solve.useful_ratio": "ratio",
    "sampler.normal_op.applies": "count",
    "sampler.step_ms.p50": "ms",
    "sampler.step_ms.p99": "ms",
    "sampler.run_reconstruction.self_s": "s",
    "sure.mc_sure.calls": "count",
    "sure.grad_sure_lambda.calls": "count",
    "sure.update_lambda.calls": "count",
    "priors.score.calls": "count",
    "priors.score.self_s": "s",
    "forward.apply_forward.calls": "count",
    "forward.apply_adjoint.calls": "count",
    "forward.apply_adjoint.self_s": "s",
    "fourier.fft.calls": "count",
    "fourier.fft.self_s": "s",
    "fourier.fft.bytes_computed": "B",
    "fourier.fft.share": "ratio",
    "metrics.psnr.calls": "count",
    "metrics.psnr.self_s": "s",
    "tensorfile.save_tensor.bytes": "B",
    "tensorfile.load_tensor.bytes": "B",
    "phantom.make_phantom.s": "s",
    "phantom.make_synth_coils.s": "s",
    "config.build.s": "s",
    "forward.add_kspace_noise.s": "s",
    "trace.overhead_frac": "ratio",
}
# Set-up figures come from the traced set-ups (mean per set-up); all other
# per-layer figures from the traced grids (median per grid).
SETUP_LAYERS = (
    "phantom.make_phantom.s",
    "phantom.make_synth_coils.s",
    "config.build.s",
    "forward.add_kspace_noise.s",
    "forward.make_equispaced_mask.s",
    "forward.make_poisson_disc_mask.s",
    "cli.cmd_simulate.s",
)
# Printed in the self-time table but not in the JSON metrics, because a
# workload that never calls the name would report a constant zero time.
TABLE_ONLY = (
    "sure.mc_sure.self_s",
    "sure.grad_sure_lambda.self_s",
    "forward.apply_forward.self_s",
    "metrics.ssim.self_s",
    "tensorfile.save_tensor.self_s",
    "tensorfile.load_tensor.self_s",
    "cli.cmd_compare.self_s",
    "cli.cmd_sweep_lambda.self_s",
    "forward.make_equispaced_mask.s",
    "forward.make_poisson_disc_mask.s",
    "cli.cmd_simulate.s",
)
REPEATABLE = (".calls", ".applies", ".bytes", ".bytes_computed")


@dataclass
class Grid:
    traced: bool
    wall_s: float
    outcomes: list[Outcome]


def fresh_smrd():
    """Import smrd from ./src anew, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "smrd" or n.startswith("smrd.")]:
        del sys.modules[name]
    smrd = importlib.import_module("smrd")
    importlib.import_module("smrd.cli")
    if not Path(smrd.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported smrd from {smrd.__file__}, not from {SRC}")
    return smrd


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "seed": seed,
    }


def run_grid(smrd, state, tracer: Tracer | None) -> tuple[float, list, int]:
    clear_outputs(state)
    tap = ReconTap()
    if tracer is not None:
        tracer.install(smrd)
    tap.install(smrd)
    start = perf_counter()
    try:
        rc = state.grid()
    except Exception:  # a crashing grid fails its reconstructions, not the run
        traceback.print_exc()
        rc = -1
    finally:
        wall = perf_counter() - start
        recons = tap.uninstall()
        if tracer is not None:
            tracer.uninstall()
    return wall, recons, rc


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_fn, headline = WORKLOADS[name]
    work = WORK / "out"
    work.mkdir(parents=True, exist_ok=True)

    setup_s, setup_traces = [], []

    def set_up():
        tracer = Tracer() if trace else None
        start = perf_counter()
        smrd = fresh_smrd()
        if tracer is not None:
            tracer.install(smrd)
        try:
            state = setup_fn(smrd, seed, work)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s.append(perf_counter() - start)
        if tracer is not None:
            setup_traces.append(summarize(tracer, setup_s[-1]))
        return smrd, state

    spans_path = WORK / "spans" / f"{name}-seed{seed}.csv"
    if trace:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text("grid,name,start,end,parent,rid,bytes\n", encoding="utf-8")
    grids: list[Grid] = []
    summaries: list[dict] = []
    tracers: list[Tracer] = []
    # Every round sets up anew, so that set-up samples span the whole run
    # like the grids do, and runs its grids on the last set-up's inputs.
    # Traced runs pair each traced grid with an untraced one, alternating
    # which goes first so that drift does not bias the overhead.
    modes = (False, True) if trace else (False,)
    begin = perf_counter()
    while True:
        round_start = perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            smrd, state = set_up()
        for traced in modes:
            tracer = Tracer() if traced else None
            wall, recons, rc = run_grid(smrd, state, tracer)
            grids.append(Grid(traced, wall, check(smrd, state, recons, rc)))
            if tracer is not None:
                summaries.append(summarize(tracer, wall))
                tracers.append(tracer)
        now = perf_counter()
        if now - begin + (now - round_start) > seconds:
            break
        modes = modes[::-1]
    for i, tracer in enumerate(tracers):
        write_spans(tracer, spans_path, str(i))

    problems = []
    first = [o.digest for o in grids[0].outcomes]
    for g in grids[1:]:
        for o, digest in zip(g.outcomes, first):
            if o.failure is None and o.digest != digest:
                o.failure = "final image differs from the first grid's"
    outcomes = [o for g in grids for o in g.outcomes]
    failed = sum(o.failure is not None for o in outcomes)

    untraced = [g for g in grids if not g.traced]
    timed = [o for g in untraced for o in g.outcomes if not math.isnan(o.wall_s)]
    quality = [o.psnr for o in untraced[0].outcomes if o.method != "zero_filled" and math.isfinite(o.psnr)]
    e2e = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(g.wall_s for g in untraced),
        "recon_s": _median([o.wall_s for o in timed if o.method == headline]),
        "steps_per_s": sum(o.steps for o in timed) / sum(o.wall_s for o in timed),
        "psnr_db": statistics.fmean(quality) if quality else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    methods = {}
    for o in timed:
        methods.setdefault(o.method, []).append(o)
    per_method = {
        m: {"n": len(os_), "recon_s": _median([o.wall_s for o in os_]),
            "psnr_db": statistics.fmean(o.psnr for o in os_)}
        for m, os_ in methods.items()
    }

    result = {
        "workload": name,
        "env": environment(seed),
        "trace": trace,
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "end_to_end": e2e,
        "per_method": per_method,
        "setup_samples_s": setup_s,
        "grid_walls_s": [(g.traced, g.wall_s) for g in grids],
        "outcomes": [asdict(o) for o in outcomes],
        "digest": hashlib.sha256("".join(first).encode()).hexdigest(),
        "problems": problems,
    }
    if trace:
        layers = median_layers(summaries)
        for key in REPEATABLE:
            for k in layers:
                if k.endswith(key) and len({s["layers"][k] for s in summaries}) > 1:
                    problems.append(f"{k} differs between traced grids")
        for s in summaries:
            if s["tree_error_s"] > 1e-6 or s["most_negative_self_s"] < -1e-6:
                problems.append(
                    f"span tree inconsistent: self times miss their root by {s['tree_error_s']:.3g} s,"
                    f" most negative self time {s['most_negative_self_s']:.3g} s"
                )
        setup_layers = {
            k: statistics.fmean(s["layers"][k] for s in setup_traces) for k in SETUP_LAYERS
        }
        layers.update(setup_layers)
        traced_wall = statistics.median(g.wall_s for g in grids if g.traced)
        layers["trace.overhead_s"] = traced_wall - e2e["run_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / e2e["run_s"]
        result["per_layer"] = layers
        result["self_table"] = _self_table(summaries)
        result["setup_self_table"] = _self_table(setup_traces)
        result["coverage"] = [
            {"grid_wall_s": s["grid_wall_s"], "covered_s": s["covered_s"],
             "recon_wall_s": s["recon_wall_s"], "tree_error_s": s["tree_error_s"], "steps": len(s["step_ms"])}
            for s in summaries
        ]
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["correct"] = failed == 0 and not problems
    return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _self_table(summaries: list[dict]) -> list[dict]:
    """Per-name calls and self/inclusive time, median over summaries."""
    names = sorted({n for s in summaries for n in s["by_name"]})
    rows = []
    for n in names:
        stats = [s["by_name"].get(n) for s in summaries]
        rows.append({
            "name": n,
            "calls": statistics.median(st.calls if st else 0 for st in stats),
            "self_s": statistics.median(st.self_s if st else 0.0 for st in stats),
            "incl_s": statistics.median(st.incl_s if st else 0.0 for st in stats),
        })
    rows.sort(key=lambda r: -r["self_s"])
    return rows


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    p = print
    e2e = result["end_to_end"]
    p(f"== {result['workload']} (trace={int(result['trace'])}) ==")
    p("env: " + json.dumps(result["env"], sort_keys=True))
    walls = ", ".join(f"{'T' if t else 'U'}{w:.3f}" for t, w in result["grid_walls_s"])
    p(f"grids (U untraced, T traced, s): {walls}")
    p(f"{'method':<12}{'n':>4}{'recon_s':>12}{'psnr_db':>10}")
    for m, row in result["per_method"].items():
        p(f"{m:<12}{row['n']:>4}{row['recon_s']:>12.4f}{row['psnr_db']:>10.3f}")
    for k, v in e2e.items():
        p(f"  {k:<14}{v:>14.6g} {END_TO_END[k]}")
    p(f"  {'failed_frac':<14}{result['failed_frac']:>14.6g} ratio"
      f"  ({result['failed']} of {result['attempted']} reconstructions)")
    p(f"  image digest (first grid) {result['digest'][:16]}")
    for o in result["outcomes"]:
        if o["failure"]:
            p(f"  FAILED {o['method']}: {o['failure']}")
    for problem in result["problems"]:
        p(f"  PROBLEM {problem}")
    if not result["trace"]:
        return
    layers = result["per_layer"]
    p(f"tracing overhead: {layers['trace.overhead_s']:+.4f} s per grid "
      f"({100 * layers['trace.overhead_frac']:+.2f}%) over untraced run_s {e2e['run_s']:.4f} s")
    for c in result["coverage"]:
        untraced_s = c["grid_wall_s"] - c["covered_s"]
        p(f"traced grid {c['grid_wall_s']:.4f} s = span self times {c['covered_s']:.4f} s"
          f" + untraced {untraced_s:.4f} s; reconstructions {c['recon_wall_s']:.4f} s,"
          f" self-time sum off by {c['tree_error_s']:.2g} s; {c['steps']} steps")
    for title, rows in (("per traced grid", result["self_table"]),
                        ("per set-up", result["setup_self_table"])):
        p(f"self time {title}:")
        p(f"  {'name':<34}{'calls':>9}{'self_s':>11}{'incl_s':>11}")
        for r in rows:
            p(f"  {r['name']:<34}{r['calls']:>9.0f}{r['self_s']:>11.4f}{r['incl_s']:>11.4f}")
    p("per-layer:")
    for k in list(PER_LAYER) + list(TABLE_ONLY):
        p(f"  {k:<36}{layers[k]:>16.6g} {PER_LAYER.get(k, 's')}")


def metrics_of(result: dict) -> dict:
    if result["trace"]:
        source, units = result["per_layer"], PER_LAYER
    else:
        source, units = result["end_to_end"], END_TO_END
    return {k: {"value": float(source[k]), "unit": u} for k, u in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smrd" / "__init__.py").is_file():
        print(f"error: no smrd package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
        results.append(result)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + k: v for k, v in metrics_of(result).items()})
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if bad:
        print(f"error: no value for {', '.join(bad)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
