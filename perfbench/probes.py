"""Probes the benchmark installs around the names smrd calls.

A probe replaces a function at every lookup site, i.e. in every loaded
`smrd` module whose namespace binds that exact function object, so calls
made through `from .x import f` bindings and through module attributes
are both seen. Nothing inside `src/` is changed, and uninstalling restores
the original bindings.

- `ReconTap` wraps only `run_reconstruction`. It is installed in every
  grid, traced or not, and records each reconstruction's method, wall time,
  step count and final image, which is all the end-to-end metrics and the
  output checks need.
- `Tracer` wraps every traced name plus numpy's `fft2`/`ifft2` and records
  one span per call: (name, start, end, parent index, reconstruction id,
  bytes). Spans stay in memory; `summarize` derives per-layer counts and
  self times from them after the grid.
"""

from __future__ import annotations

import os
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (module, function) pairs traced wherever an smrd module binds them.
TRACED = (
    ("cli", "cmd_simulate"),
    ("cli", "cmd_compare"),
    ("cli", "cmd_sweep_lambda"),
    ("config", "build_phantom"),
    ("config", "build_mask"),
    ("config", "build_forward_model"),
    ("config", "build_noise_spec"),
    ("config", "build_prior"),
    ("config", "build_sampler_config"),
    ("config", "build_controller_configs"),
    ("phantom", "make_phantom"),
    ("phantom", "make_synth_coils"),
    ("forward", "make_equispaced_mask"),
    ("forward", "make_poisson_disc_mask"),
    ("forward", "add_kspace_noise"),
    ("forward", "apply_forward"),
    ("forward", "apply_adjoint"),
    ("priors", "score"),
    ("sampler", "run_reconstruction"),
    ("sampler", "cg_solve"),
    ("sure", "mc_sure"),
    ("sure", "grad_sure_lambda"),
    ("sure", "update_lambda"),
    ("metrics", "psnr"),
    ("metrics", "ssim"),
    ("tensorfile", "save_tensor"),
    ("tensorfile", "load_tensor"),
)
FFT_NAMES = ("fft2", "ifft2")
ROOT = "sampler.run_reconstruction"
CG = "sampler.cg_solve"


def _smrd_modules() -> list:
    return [mod for name, mod in sys.modules.items() if name == "smrd" or name.startswith("smrd.")]


class _Patches:
    """Rebinds a function at all of its smrd lookup sites and undoes it."""

    def __init__(self) -> None:
        self._done: list[tuple[object, str, object]] = []

    def everywhere(self, original, replacement) -> int:
        sites = 0
        for mod in _smrd_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._done.append((mod, attr, original))
                    sites += 1
        return sites

    def one(self, owner, attr: str, replacement) -> None:
        self._done.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._done:
            owner, attr, original = self._done.pop()
            setattr(owner, attr, original)


@dataclass
class Recon:
    """One call of run_reconstruction as seen at its lookup site."""

    method: str
    wall_s: float
    steps: int
    final: np.ndarray | None
    error: str | None


class ReconTap:
    """Times every run_reconstruction call and keeps what it returned."""

    def __init__(self) -> None:
        self.recons: list[Recon] = []
        self._patches = _Patches()

    def install(self, smrd) -> None:
        original = smrd.sampler.run_reconstruction
        recons = self.recons

        def tapped(*args, **kwargs):
            cfg = args[3] if len(args) > 3 else kwargs.get("sampler_cfg")
            method = cfg.method if cfg is not None else "smrd"
            start = perf_counter()
            try:
                report = original(*args, **kwargs)
            except Exception as exc:
                recons.append(Recon(method, perf_counter() - start, 0, None, repr(exc)))
                raise
            wall = perf_counter() - start
            recons.append(Recon(method, wall, len(report.trace), report.final, None))
            return report

        if not self._patches.everywhere(original, tapped):
            raise RuntimeError("run_reconstruction has no lookup site to tap")

    def uninstall(self) -> list[Recon]:
        self._patches.restore()
        taken, self.recons[:] = list(self.recons), []
        return taken


def _fft_bytes(args, out) -> int:
    return int(args[0].nbytes + out.nbytes)


def _file_bytes(args, out) -> int:
    return os.path.getsize(args[0])


_MEASURE = {
    "tensorfile.save_tensor": _file_bytes,
    "tensorfile.load_tensor": _file_bytes,
    "numpy.fft.fft2": _fft_bytes,
    "numpy.fft.ifft2": _fft_bytes,
}


class Tracer:
    """Records one span per call through a traced lookup site."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.rows: list[tuple[int, float]] = []  # (rid, time) of each TraceRow
        self._stack = [-1]
        self._rid = -1
        self._next_rid = 0
        self._patches = _Patches()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = _MEASURE.get(name)
        root = name == ROOT

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            if root:
                outer_rid = self._rid
                self._rid = self._next_rid
                self._next_rid += 1
            rid = self._rid
            returned = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                if root:
                    self._rid = outer_rid
                nbytes = measure(args, out) if returned and measure is not None else 0
                spans[idx] = (name, start, end, parent, rid, nbytes)

        return traced

    def install(self, smrd) -> None:
        for module, fname in TRACED:
            original = getattr(getattr(smrd, module), fname)
            if not self._patches.everywhere(original, self._wrap(f"{module}.{fname}", original)):
                raise RuntimeError(f"smrd.{module}.{fname} has no lookup site to trace")
        for fname in FFT_NAMES:
            self._patches.one(np.fft, fname, self._wrap(f"numpy.fft.{fname}", getattr(np.fft, fname)))
        row_cls = smrd.sampler.TraceRow
        rows = self.rows

        def trace_row(*args, **kwargs):
            rows.append((self._rid, perf_counter()))
            return row_cls(*args, **kwargs)

        self._patches.one(smrd.sampler, "TraceRow", trace_row)

    def uninstall(self) -> None:
        self._patches.restore()


@dataclass
class NameStats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    nbytes: int = 0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-name counts and self times of one traced grid, the derived
    per-layer figures, and the consistency checks on the span tree."""
    spans = tracer.spans
    if any(s is None for s in spans):
        raise RuntimeError("a traced call never returned")
    child = [0.0] * len(spans)
    for name, start, end, parent, rid, nbytes in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict[str, NameStats] = {}
    self_by_rid: dict[int, float] = {}
    roots: dict[int, tuple[float, float]] = {}  # rid -> (start, duration)
    top_level = 0.0
    applies = committed = 0
    fft_recon_s = build_s = 0.0
    worst_self = 0.0
    for i, (name, start, end, parent, rid, nbytes) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        worst_self = min(worst_self, own)
        st = by_name.setdefault(name, NameStats())
        st.calls += 1
        st.self_s += own
        st.incl_s += dur
        st.nbytes += nbytes
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent < 0:
            top_level += dur
        if rid >= 0:
            self_by_rid[rid] = self_by_rid.get(rid, 0.0) + own
            if name.startswith("numpy.fft."):
                fft_recon_s += own
        if name == ROOT:
            roots[rid] = (start, dur)
        elif name == CG and parent_name == ROOT:
            committed += 1
        elif name == "numpy.fft.fft2" and parent_name == CG:
            applies += 1
        if name.startswith("config.build_") and not (parent_name or "").startswith("config.build_"):
            build_s += dur

    # Self times of a reconstruction's spans must add up to its root span.
    recon_s = sum(d for _, d in roots.values())
    tree_error = max((abs(self_by_rid.get(r, 0.0) - d) for r, (_, d) in roots.items()), default=0.0)

    # A step lasts from the previous TraceRow (or the reconstruction's
    # start) to its own.
    step_ms: list[float] = []
    last = {rid: start for rid, (start, _) in roots.items()}
    for rid, stamp in tracer.rows:
        step_ms.append(1e3 * (stamp - last.get(rid, stamp)))
        last[rid] = stamp

    def get(name: str) -> NameStats:
        return by_name.get(name, NameStats())

    fft = [get(f"numpy.fft.{f}") for f in FFT_NAMES]
    cg = get(CG)
    layers = {
        "sampler.cg_solve.calls": cg.calls,
        "sampler.cg_solve.self_s": cg.self_s,
        "sampler.cg_solve.useful_ratio": committed / cg.calls if cg.calls else float("nan"),
        "sampler.normal_op.applies": applies,
        "sampler.run_reconstruction.self_s": get(ROOT).self_s,
        "fourier.fft.calls": sum(s.calls for s in fft),
        "fourier.fft.self_s": sum(s.self_s for s in fft),
        "fourier.fft.bytes_computed": sum(s.nbytes for s in fft),
        "fourier.fft.share": fft_recon_s / recon_s if recon_s else float("nan"),
        "config.build.s": build_s,
    }
    for module, fname in TRACED:
        name = f"{module}.{fname}"
        st = get(name)
        layers.setdefault(f"{name}.calls", st.calls)
        layers.setdefault(f"{name}.self_s", st.self_s)
        layers.setdefault(f"{name}.s", st.incl_s)
        if name in _MEASURE:
            layers[f"{name}.bytes"] = st.nbytes
    return {
        "by_name": by_name,
        "layers": layers,
        "step_ms": step_ms,
        "recon_wall_s": recon_s,
        "grid_wall_s": wall_s,
        "covered_s": top_level,
        "tree_error_s": tree_error,
        "most_negative_self_s": worst_self,
    }


def median_layers(summaries: list[dict]) -> dict[str, float]:
    """Per-layer figures over several traced grids: counts must repeat
    exactly, times are reported as the median. Step latencies are pooled
    over the grids, so that p99 rests on every traced step."""
    keys = summaries[0]["layers"].keys()
    layers = {k: statistics.median(s["layers"][k] for s in summaries) for k in keys}
    steps = [ms for s in summaries for ms in s["step_ms"]]
    layers["sampler.step_ms.p50"] = _percentile(steps, 50)
    layers["sampler.step_ms.p99"] = _percentile(steps, 99)
    return layers


def write_spans(tracer: Tracer, path, label: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for name, start, end, parent, rid, nbytes in tracer.spans:
            fh.write(f"{label},{name},{start!r},{end!r},{parent},{rid},{nbytes}\n")
