"""One workload in one process; started by ``bench/run.py``.

The worker imports groundbem from the checkout's ``src/``, sets the
workload up, prints ``READY`` (the parent times process start to this
line as set-up), then repeats the workload's checked operation until the
measurement window is used up.  Its last stdout line is a JSON record of
the raw samples; ``run.py`` turns it into the benchmark's metrics.

With ``--trace 1`` the worker runs untraced operations first, then one
operation with the tracer installed (see ``tracing.py``), reports the
per-layer metrics of that traced operation and writes its spans, and
those of set-up, to ``bench/traces/<workload>-seed<seed>.json``.  The
traced operation must give the same eps2, bit for bit, as the untraced
ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACES = ROOT / "bench" / "traces"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from groundbem import bem, experiments, ground_kernel, surface_mesh  # noqa: E402
from groundbem.errors import GroundBemError  # noqa: E402
from groundbem.harmonics import TruncationAccuracyWarning  # noqa: E402

from tracing import LAYERS, Tracer, capture_warnings, span_metrics  # noqa: E402

# Plane sources whose radial tables are rebuilt with the public
# ``radial_table`` for the recurrence share.  A full scalar pass over the
# 2412 plane sources of bump_p104 takes minutes; a fixed, evenly spaced
# subsample keeps it to about two seconds.
RECURRENCE_SAMPLE = 24


class BumpWorkload:
    """Unit bump on the ground, monopole at (0, 0, h), checked against the
    image solution on the 16 x 18 half-disc grid of the bump study.

    The seed sets the azimuth of the evaluation half-plane.  The problem
    is axisymmetric, so the oracle is unchanged while the points (and so
    eps2, slightly) move with the seed; the work does not.
    """

    h = 2.0
    eps = 1e-4
    edge = 0.1
    grid_shape = (16, 18)
    # Criterion 6 accepts the kernel solution up to this relative error.
    ceiling = 2e-2

    def __init__(self, re: float, solver: str, seed: int):
        self.re = re
        self.solver = solver
        self.seed = seed

    def setup(self) -> None:
        r0 = self.h
        self.p = experiments.choose_truncation(r0, self.re, self.eps)
        self.domain = surface_mesh.DomainSpec(r0=r0, re=self.re)
        self.config = bem.BemConfig(p=self.p, prescribed_eps=self.eps, solver=self.solver)
        self.mesh = surface_mesh.make_bump_dip_mesh(1, r0=r0, re=self.re, target_edge=self.edge)
        self.source = (0.0, 0.0, self.h)
        azimuth = np.random.default_rng(self.seed).uniform(0.0, 2.0 * math.pi)
        # The study's grid lies in the half-plane y = 0; turn it to the azimuth.
        pts = experiments._half_disc_grid(
            1.0, r0, 2.0 * self.mesh.mean_diameter, *self.grid_shape
        )
        pts[:, 1] = pts[:, 0] * math.sin(azimuth)
        pts[:, 0] *= math.cos(azimuth)
        self.points = pts
        self.exact = np.asarray(
            [experiments.analytic_bump_potential(y, self.h) for y in self.points]
        )

    def operation(self):
        """Assemble, solve and evaluate; returns (eps2, ok, system)."""
        system = bem.assemble(self.mesh, self.domain, self.config)
        bem.set_point_source_rhs(system, self.source)
        bem.solve(system)
        values = bem.evaluate_field(system, self.points, source=self.source).values
        eps2 = experiments.relative_l2_error(values, self.exact)
        return eps2, eps2 <= self.ceiling, system


WORKLOADS = {
    "bump_p104": lambda seed: BumpWorkload(re=2.187, solver="direct", seed=seed),
    "bump_wide_iter": lambda seed: BumpWorkload(re=3.0, solver="iterative", seed=seed),
}


class _WarningCount:
    def __init__(self):
        self.n = 0

    def __call__(self, *args, **kwargs):
        self.n += 1


def _run_operation(workload, record):
    """One checked operation: (seconds, eps2, ok, system)."""
    t0 = time.perf_counter()
    try:
        with capture_warnings(record):
            eps2, ok, system = workload.operation()
    except GroundBemError as exc:
        print(f"# operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        # No usable field scores like a zero field: relative error 1.
        return time.perf_counter() - t0, 1.0, False, None
    dt = time.perf_counter() - t0
    if not math.isfinite(eps2):
        return dt, 1.0, False, system
    return dt, float(eps2), bool(ok), system


def _recurrence_share(tracer: Tracer) -> float:
    """Share of a fixed subsample of the traced plane sources whose radial
    tables the recurrences certified (no series fallback)."""
    pairs = [(p, float(xi)) for p, xis in tracer.plane_sources for xi in xis]
    if not pairs:
        return 0.0
    idx = sorted(set(np.linspace(0, len(pairs) - 1, RECURRENCE_SAMPLE).round().astype(int)))
    with capture_warnings(_WarningCount()):
        kept = sum(
            ground_kernel.radial_table(pairs[i][1], pairs[i][0]).method == "recurrence"
            for i in idx
        )
    return kept / len(idx)


def _stolen_s():
    """CPU seconds the hypervisor took from this machine so far (all
    CPUs), or None where /proc/stat does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _residual(system) -> float:
    rhs = system.rhs
    r = bem.apply_operator(system, system.solution) - rhs
    return float(np.linalg.norm(r) / (np.linalg.norm(rhs) or 1.0))


def _environment() -> dict:
    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(getattr(scipy.__config__, "CONFIG", {})),
    }


def _setup_metrics(tracer: Tracer, workload) -> dict:
    mesh = getattr(workload, "mesh", None)
    panels = len(mesh) if mesh is not None else 0
    surface = int(np.count_nonzero(mesh.tags == surface_mesh.SURFACE)) if panels else 0
    return {
        "surface_mesh.build_s": sum(s.self_s for s in tracer.spans if s.layer == "surface_mesh"),
        "surface_mesh.panels": panels,
        "surface_mesh.surface_panels": surface,
        "surface_mesh.plane_panels": panels - surface,
    }


def _system_metrics(system) -> dict:
    if system is None:
        return {
            "bem.kernel_cols": 0,
            "bem.free_block_mb": 0.0,
            "bem.kernel_factor_mb": 0.0,
            "bem.residual": 0.0,
        }
    return {
        "bem.kernel_cols": int(system.rfac.shape[1]),
        "bem.free_block_mb": system.free_matrix.nbytes / 1e6,
        "bem.kernel_factor_mb": (system.rfac.nbytes + system.sfac.nbytes) / 1e6,
        "bem.residual": _residual(system),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        workload.setup()
    else:
        with tracer.installed(), tracer.span("bench", "setup"):
            workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    times, eps2s, oks = [], [], []
    warning_count = _WarningCount()
    # A traced run keeps room for the traced operation and the recurrence
    # share after the untraced ones.
    reserve = 2.5 if tracer is not None else 1.0
    stolen_begin = _stolen_s()
    t_begin = time.perf_counter()
    while True:
        dt, eps2, ok, _system = _run_operation(workload, warning_count)
        del _system
        times.append(dt)
        eps2s.append(eps2)
        oks.append(ok)
        if len(times) == 1:
            # Peak of set-up plus one operation.  The high-water mark after
            # several operations varied by up to 11 % between runs; after
            # the first it varied less (up to 8 % on bump_p104).
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if time.perf_counter() - t_begin + reserve * max(times) > args.seconds:
            break

    stolen_end = _stolen_s()
    result = {
        "stolen_s": None if stolen_begin is None else stolen_end - stolen_begin,
        "peak_rss_mb": peak_rss_mb,
        "op_s": times,
        "eps2": eps2s,
        "ok": oks,
        "warnings": warning_count.n,
        "env": _environment(),
    }
    if tracer is not None:
        setup = _setup_metrics(tracer, workload)
        first = len(tracer.spans)
        with tracer.installed():
            with tracer.span("bench", "operation") as root:
                dt, eps2, ok, system = _run_operation(workload, tracer.record_warning)
        oks.append(ok)
        identical = eps2.hex() == eps2s[0].hex()
        layers = span_metrics(tracer.spans[first:], root)
        # The reported self times and the uncovered rest make up the wall
        # time; this fails if a layer's spans go unreported.
        reported = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        reported += layers["trace.uncovered_s"]
        layers.update(setup)
        layers.update(_system_metrics(system))
        del system
        layers["harmonics.truncation_warnings"] = sum(
            1 for _layer, cat in tracer.warnings if cat == TruncationAccuracyWarning.__name__
        )
        layers["bem.warnings"] = sum(1 for layer, _cat in tracer.warnings if layer == "bem")
        layers["ground_kernel.recurrence_share"] = _recurrence_share(tracer)
        # Against the untraced operation just before it: warm, and closest
        # in time on a machine whose speed drifts.
        layers["trace_overhead"] = dt / times[-1] - 1.0
        TRACES.mkdir(exist_ok=True)
        trace_file = TRACES / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file)
        result.update(
            trace_file=str(trace_file.relative_to(ROOT)),
            traced_identical=identical,
            self_times_add_up=math.isclose(reported, layers["trace.wall_s"], rel_tol=1e-9),
            per_layer=layers,
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
