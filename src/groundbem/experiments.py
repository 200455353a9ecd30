"""Validation studies: accuracy maps, cost model, and the bump/dip
benchmarks against a method-of-images oracle.

All experiments are deterministic for a fixed seed and return plain
report dataclasses.  Each report describes itself: ``summary()`` is its
JSON payload and ``table()`` its one figure-style CSV table, which
``write_report`` dumps.  ``write_json`` and ``write_csv`` are the
package's one output format.  Wall-clock measurements appear only in the
cost-curve study and are inherently machine-dependent; everything else
is byte-reproducible.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .bem import (
    BemConfig,
    assemble,
    choose_truncation,
    evaluate_field,
    set_point_source_rhs,
    solve,
    truncated_system,
)
from .errors import DomainError, GroundBemError
from .ground_kernel import (
    KernelConfig,
    kernel_integral,
    receiver_harmonics,
    source_signature_batch,
)
from .harmonics import build_spectral_constants, check_truncation
from .surface_mesh import (
    EXTENSION,
    DomainSpec,
    make_bump_dip_mesh,
    mirror_surface_mesh,
)

__all__ = [
    "ALPHA_STAR",
    "CostModel",
    "CostOptimum",
    "AccuracyMap",
    "BumpReport",
    "DipReport",
    "CostCurve",
    "analytic_bump_potential",
    "relative_l2_error",
    "choose_truncation",
    "field_grid",
    "cost_bracket",
    "fit_cost_constants",
    "cost_optimizer",
    "accuracy_map",
    "run_bump_experiment",
    "run_dip_experiment",
    "measure_cost_curve",
    "write_csv",
    "write_json",
    "write_report",
]

# Root of 1 - t - exp(-2t) = 0: the critical decay rate of the kernel-cost
# bracket.  The optimal extension ratio exp(ALPHA_STAR) and the critical
# truncation ln(1/eps)/ALPHA_STAR both follow from it.
ALPHA_STAR = 0.79681213002002


# ---------------------------------------------------------------------------
# Analytic oracle and error norm
# ---------------------------------------------------------------------------


def _g(y, x):
    d = np.linalg.norm(np.asarray(y, float) - np.asarray(x, float))
    if d == 0.0:
        raise DomainError("evaluation point coincides with a source")
    return 1.0 / (4.0 * math.pi * d)


def analytic_bump_potential(y, h: float) -> float:
    """Image solution of the unit bump under a monopole at (0, 0, h):
    mirror source below the plane plus the sphere images of both."""
    if not h > 1.0:
        raise DomainError(f"bump image solution requires h > 1, got {h}")
    return (
        _g(y, (0.0, 0.0, h))
        - _g(y, (0.0, 0.0, -h))
        - _g(y, (0.0, 0.0, 1.0 / h)) / h
        + _g(y, (0.0, 0.0, -1.0 / h)) / h
    )


def relative_l2_error(values, reference) -> float:
    """|| f - f_ref ||_2 / || f_ref ||_2 for equal-length samples."""
    f = np.asarray(values, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if f.shape != ref.shape:
        raise DomainError("field and reference must have equal shape")
    nref = float(np.linalg.norm(ref))
    if nref == 0.0:
        raise DomainError("reference field has zero norm")
    return float(np.linalg.norm(f - ref)) / nref


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Asymptotic cost constants of the factored-kernel BEM.

    ``alpha_star`` (``ALPHA_STAR``) and ``beta = exp(alpha_star)`` are
    universal; the fitted constants (a, b, c for the kernel cost, d for the
    BEM backend of exponent ``cost_exponent``) are per-machine.
    """

    cost_exponent: float = 3.0
    a: float | None = None
    b: float | None = None
    c: float | None = None
    d: float | None = None

    @property
    def alpha_star(self) -> float:
        return ALPHA_STAR

    @property
    def beta(self) -> float:
        return math.exp(self.alpha_star)

    def p_critical(self, eps: float) -> float:
        return math.log(1.0 / eps) / self.alpha_star

    @property
    def fitted(self) -> bool:
        return None not in (self.a, self.b, self.c, self.d)


def cost_bracket(p: float, eps: float) -> float:
    """Sign-changing factor of d(kernel cost)/dp: negative below the
    critical truncation, positive above it."""
    e2p = eps ** (-2.0 / p)
    return (e2p - 1.0) - e2p * math.log(1.0 / eps) / p


def _kernel_terms(m_size, n_size, rho_area, p, eps) -> tuple:
    """The three factored-kernel cost terms that a, b and c multiply:
    receivers m p^2, interior sources n p^3 and plane sources
    rho_area (eps^(-2/p) - 1) p^2."""
    p = float(p)
    return m_size * p * p, n_size * p**3, rho_area * (eps ** (-2.0 / p) - 1.0) * p * p


def kernel_cost(model: CostModel, m_size, n_size, rho_area, p, eps) -> float:
    """Factored-kernel cost: receivers, interior sources, plane sources."""
    if model.a is None or model.b is None or model.c is None:
        raise DomainError("kernel cost constants are not fitted")
    receivers, interior, plane = _kernel_terms(m_size, n_size, rho_area, p, eps)
    return model.a * receivers + model.b * interior + model.c * plane


def fit_cost_constants(model: CostModel, samples) -> CostModel:
    """Least-squares fit of (a, b, c, d) from measured timings.

    ``samples`` is a sequence of dicts with keys m, n, p, eps, rho_area,
    kernel_seconds and optionally n_total, bem_seconds for the backend
    constant.
    """
    rows = [_kernel_terms(s["m"], s["n"], s["rho_area"], s["p"], s["eps"]) for s in samples]
    times = [s["kernel_seconds"] for s in samples]
    coef, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(times), rcond=None)
    a, b, c = (max(float(v), 1e-12) for v in coef)
    d = model.d
    bem = [(s["n_total"], s["bem_seconds"]) for s in samples if "bem_seconds" in s]
    if bem:
        d = float(
            np.mean([t / nt**model.cost_exponent for nt, t in bem])
        )
    return replace(model, a=a, b=b, c=c, d=d)


@dataclass(frozen=True)
class CostOptimum:
    """Output of the extension-size optimizer."""

    delta_opt: float
    p_opt: int
    re_kernel_bound: float
    deltas: np.ndarray
    bem_cost: np.ndarray
    kernel_cost: np.ndarray


def cost_optimizer(
    model: CostModel,
    n_size: int,
    a0: float,
    r0: float,
    eps: float,
    deltas=None,
) -> CostOptimum:
    """Optimal extension size for the full BEM cost.

    The optimum balances the kernel cost (blowing up like 1/delta^3) with
    the extra boundary unknowns of the extension ring; the kernel-only
    consideration alone already demands an extension beyond
    ``beta * r0``.
    """
    if not model.fitted:
        raise DomainError("cost model constants are not fitted")
    alpha = model.cost_exponent
    ln3 = math.log(1.0 / eps) ** 3
    ring = math.pi * r0 * r0 / a0
    delta_opt = (
        3.0 * model.b * a0 * ln3 / (2.0 * alpha * model.d * math.pi * r0 * r0)
        / n_size ** (alpha - 1.0)
    ) ** 0.25
    if deltas is None:
        deltas = np.linspace(max(0.3 * delta_opt, 1e-3), 6.0 * delta_opt, 120)
    deltas = np.asarray(deltas, dtype=float)
    kcost = model.b * n_size / deltas**3 * ln3
    bem = model.d * n_size**alpha * (1.0 + 2.0 * alpha * ring * deltas) + kcost
    p_opt = choose_truncation(r0, r0 * (1.0 + delta_opt), eps)
    return CostOptimum(
        delta_opt=float(delta_opt),
        p_opt=p_opt,
        re_kernel_bound=model.beta * r0,
        deltas=deltas,
        bem_cost=bem,
        kernel_cost=kcost,
    )


# ---------------------------------------------------------------------------
# Kernel accuracy map (series truncation vs integral reference)
# ---------------------------------------------------------------------------


_RING_FILL = 0.998  # keeps the plane sources (_ring) off the extension's rim


def _ring_ratios(ratios) -> np.ndarray:
    """``ratios`` sorted, as floats; DomainError unless each is finite and
    leaves the plane sources an annulus."""
    ratios = np.asarray(sorted(ratios), dtype=float)
    if not np.all(np.isfinite(ratios) & (_RING_FILL * ratios * ratios > 1.0)):
        raise DomainError(f"extension ratios need {_RING_FILL} ratio^2 > 1, got {ratios.tolist()}")
    return ratios


def _ring(ratio: float, n: int, rng) -> np.ndarray:
    """``n`` plane sources, area-uniform on 1 <= rho^2 < _RING_FILL ratio^2."""
    rr = np.sqrt(rng.uniform(1.0, ratio * ratio * _RING_FILL, n))
    ph = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.stack([rr * np.cos(ph), rr * np.sin(ph), np.zeros(n)], axis=1)


def _fig2_points(ratio: float, n_receivers: int, n_sources: int, rng):
    """Receivers on the unit-hemisphere arc in the y = 0 plane; sources
    spread over the hemisphere surface and the extension annulus."""
    th = np.linspace(0.02, math.pi / 2 - 0.02, n_receivers)
    receivers = np.stack(
        [np.cos(th), np.zeros_like(th), np.sin(th)], axis=1
    )
    n_hemi = n_sources // 2
    u = rng.uniform(0.05, 0.95, n_hemi)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_hemi)
    sz = u  # cos(theta) uniform: area-uniform on the hemisphere
    sr = np.sqrt(1.0 - sz * sz)
    hemi = np.stack([sr * np.cos(phi), sr * np.sin(phi), sz], axis=1)
    return receivers, np.vstack([hemi, _ring(ratio, n_sources - n_hemi, rng)])


@dataclass(frozen=True)
class AccuracyMap:
    ratios: np.ndarray
    p_values: np.ndarray
    eps2: np.ndarray  # (len(ratios), len(p_values))
    n_receivers: int
    n_sources: int
    seed: int
    failures: list

    def summary(self) -> dict:
        return _summary(self, "accuracy-map", "ratios", "p_values", "n_receivers",
                        "n_sources", "seed", "failures")

    def table(self) -> tuple:
        return "table", ("ratio", "p", "eps2"), (
            np.repeat(self.ratios, self.p_values.size),
            np.tile(self.p_values, self.ratios.size),
            self.eps2.ravel(),
        )


def accuracy_map(
    ratios=(1.5, 2.0, 2.5, 3.0),
    p_values=(4, 8, 12, 16),
    n_receivers: int = 16,
    n_sources: int = 32,
    seed: int = 0,
    tol: float = 1e-10,
) -> AccuracyMap:
    """Relative L2 error of the truncated series against the integral
    reference over a grid of extension ratios and truncation numbers.  A
    ratio or a p that ``_ring_ratios`` or ``check_truncation`` refuses
    raises :class:`DomainError` before any work."""
    ratios = _ring_ratios(ratios)
    p_values = np.asarray(sorted(check_truncation(p) for p in p_values))
    rng = np.random.default_rng(seed)
    eps2 = np.zeros((ratios.size, p_values.size))
    failures = []
    pmax = int(p_values.max())
    for i, ratio in enumerate(ratios):
        receivers, sources = _fig2_points(float(ratio), n_receivers, n_sources, rng)
        cfg = KernelConfig(scale_radius=ratio, p=pmax, integral_tolerance=tol)
        ref = np.empty((n_receivers, sources.shape[0]))
        for a, y in enumerate(receivers):
            for b, x in enumerate(sources):
                try:
                    ref[a, b] = kernel_integral(y, x, cfg)
                except GroundBemError as exc:  # record, keep the cell usable
                    failures.append({"ratio": float(ratio), "pair": (a, b), "error": str(exc)})
                    ref[a, b] = np.nan
        ok = np.isfinite(ref)
        for j, p in enumerate(p_values.tolist()):
            constants = build_spectral_constants(p)
            sig = source_signature_batch(sources / ratio, constants)
            rec = receiver_harmonics(receivers / ratio, p) / ratio
            ser = rec @ sig.T
            eps2[i, j] = relative_l2_error(ser[ok], ref[ok])
    return AccuracyMap(
        ratios=ratios, p_values=p_values, eps2=eps2,
        n_receivers=n_receivers, n_sources=n_sources, seed=seed,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Bump benchmark
# ---------------------------------------------------------------------------


def _half_disc_grid(r_inner, r_outer, standoff, nr, nth):
    pts = []
    for r in np.linspace(r_inner + standoff, r_outer - standoff, nr):
        lo = standoff / r
        for t in np.linspace(lo, math.pi / 2 - lo, nth):
            pts.append([r * math.cos(t), 0.0, r * math.sin(t)])
    return np.asarray(pts)


def field_grid(mesh, r0: float, nr: int, nth: int) -> np.ndarray:
    """The studies' nr x nth field grid in the half-plane y = 0 inside the
    detail radius r0, two mean panel diameters off the mesh: above the bowl
    of a sunken feature (dip), between the feature and r0 otherwise."""
    standoff = 2.0 * mesh.mean_diameter
    if mesh.feature_sign >= 0:
        return _half_disc_grid(mesh.feature_radius or standoff, r0, standoff, nr, nth)
    pts = []
    for r in np.linspace(0.15, r0 - standoff, nr):
        for t in np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, nth):
            pts.append([r * math.cos(t), 0.0, r * math.sin(t)])
    return np.asarray(pts)


def _point_source_field(system, source, pts) -> np.ndarray:
    """Field at ``pts`` of ``system`` solved under a unit monopole at ``source``."""
    set_point_source_rhs(system, source)
    solve(system)
    return evaluate_field(system, pts, source=source).values


@dataclass(frozen=True)
class BumpReport:
    h: float
    delta: float
    target_edge: float
    eps: float
    p: int
    n_panels: int
    n_omega0: int
    eps2_inf: float
    eps2_truncated: float
    eps2_image: float
    points: np.ndarray
    analytic: np.ndarray
    fields: dict
    seed: int = 0

    def summary(self) -> dict:
        return _summary(self, "bump", "h", "delta", "eps", "p", "n_panels", "n_omega0",
                        "eps2_inf", "eps2_truncated", "eps2_image", "seed",
                        edge=self.target_edge)

    def table(self) -> tuple:
        return "fields", ("x", "y", "z", "analytic", "inf", "truncated", "image"), (
            *self.points.T, self.analytic,
            self.fields["inf"], self.fields["truncated"], self.fields["image"],
        )


def run_bump_experiment(
    h: float = 2.0,
    delta: float = 0.0935,
    target_edge: float = 0.09,
    eps: float = 1e-4,
    grid_shape=(16, 18),
    seed: int = 0,
) -> BumpReport:
    """Solve the bump problem four ways and compare on an interior grid:
    analytic images, BEM over the mirrored closed surface, plain truncated
    BEM, and the ground-kernel BEM.  The last two share one free-space
    operator.  Errors are relative L2 against the analytic solution."""
    if not h > 1.0:
        raise DomainError("bump experiment requires h > 1")
    r0, re = h, h * (1.0 + delta)
    domain = DomainSpec(r0=r0, re=re)
    p = choose_truncation(r0, re, eps)
    mesh = make_bump_dip_mesh(1, r0=r0, re=re, target_edge=target_edge)

    pts = _half_disc_grid(1.0, r0, 2.0 * mesh.mean_diameter, *grid_shape)
    exact = np.asarray([analytic_bump_potential(y, h) for y in pts])

    source = (0.0, 0.0, h)
    sys_inf = assemble(mesh, domain, BemConfig(p=p, prescribed_eps=eps))
    f_inf = _point_source_field(sys_inf, source, pts)
    f_tr = _point_source_field(truncated_system(sys_inf), source, pts)

    sys_img = assemble(mirror_surface_mesh(mesh), None, BemConfig())
    sys_img.rhs = -np.asarray(
        [_g(c, source) - _g(c, (0.0, 0.0, -h)) for c in sys_img.mesh.centroids]
    )
    solve(sys_img)
    mirror = np.asarray([_g(y, source) - _g(y, (0.0, 0.0, -h)) for y in pts])
    f_img = evaluate_field(sys_img, pts).values + mirror

    return BumpReport(
        h=h, delta=delta, target_edge=target_edge, eps=eps, p=p,
        n_panels=len(mesh), n_omega0=int(np.sum(mesh.tags != EXTENSION)),
        eps2_inf=relative_l2_error(f_inf, exact),
        eps2_truncated=relative_l2_error(f_tr, exact),
        eps2_image=relative_l2_error(f_img, exact),
        points=pts, analytic=exact,
        fields={"inf": f_inf, "truncated": f_tr, "image": f_img},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Dip benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DipReport:
    h: float
    eps: float
    target_edge: float
    reference_ratio: float
    reference_eps: float
    ratios: np.ndarray
    eps2_inf: np.ndarray
    eps2_truncated: np.ndarray
    n_panels: list
    points: np.ndarray
    reference: np.ndarray
    seed: int = 0

    def summary(self) -> dict:
        return _summary(self, "dip", "h", "eps", "reference_ratio", "reference_eps",
                        "ratios", "eps2_inf", "eps2_truncated", "n_panels", "seed",
                        edge=self.target_edge)

    def table(self) -> tuple:
        return "sweep", ("ratio", "eps2_inf", "eps2_truncated", "n_panels"), (
            self.ratios, self.eps2_inf, self.eps2_truncated, self.n_panels,
        )


def run_dip_experiment(
    h: float = 0.5,
    ratios=(1.1, 1.124, 1.25, 1.4, 1.6, 1.8, 2.0),
    target_edge: float = 0.11,
    eps: float = 1e-4,
    reference_ratio: float = 1.5,
    reference_eps: float = 1e-6,
    reference_edge: float | None = None,
    grid_shape=(10, 16),
    seed: int = 0,
) -> DipReport:
    """Sweep the extension ratio for the dip geometry.

    No analytic solution exists below the plane, so the reference is a
    self-converged ground-kernel solution on a finer mesh at a fixed
    generous extension and a tighter prescribed accuracy.  At each ratio
    the kernel and truncated systems share one free-space operator."""
    if not abs(h) < 1.0:
        raise DomainError("dip experiment requires |h| < 1")
    if reference_edge is None:
        reference_edge = 0.7 * target_edge
    source = (0.0, 0.0, h)

    ref_mesh = make_bump_dip_mesh(-1, r0=1.0, re=reference_ratio, target_edge=reference_edge)
    ref_dom = DomainSpec(r0=1.0, re=reference_ratio)
    ref_p = choose_truncation(1.0, reference_ratio, reference_eps)
    sys_ref = assemble(ref_mesh, ref_dom, BemConfig(p=ref_p, prescribed_eps=reference_eps))
    pts = field_grid(ref_mesh, 1.0, *grid_shape)
    reference = _point_source_field(sys_ref, source, pts)

    ratios = np.asarray(sorted(ratios), dtype=float)
    e_inf = np.zeros(ratios.size)
    e_tr = np.zeros(ratios.size)
    n_panels = []
    for i, ratio in enumerate(ratios):
        mesh = make_bump_dip_mesh(-1, r0=1.0, re=float(ratio), target_edge=target_edge)
        dom = DomainSpec(r0=1.0, re=float(ratio))
        p = choose_truncation(1.0, float(ratio), eps)
        n_panels.append(len(mesh))
        s_inf = assemble(mesh, dom, BemConfig(p=p, prescribed_eps=eps))
        e_inf[i] = relative_l2_error(_point_source_field(s_inf, source, pts), reference)
        s_tr = truncated_system(s_inf)
        e_tr[i] = relative_l2_error(_point_source_field(s_tr, source, pts), reference)

    return DipReport(
        h=h, eps=eps, target_edge=target_edge,
        reference_ratio=reference_ratio, reference_eps=reference_eps,
        ratios=ratios, eps2_inf=e_inf, eps2_truncated=e_tr,
        n_panels=n_panels, points=pts, reference=reference, seed=seed,
    )


def fit_power_law(ratios, errors) -> tuple:
    """Log-log least squares fit errors ~ C * ratio^slope."""
    lx = np.log(np.asarray(ratios, float))
    ly = np.log(np.asarray(errors, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(math.exp(intercept))


# ---------------------------------------------------------------------------
# Measured kernel-cost curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostCurve:
    ratios: np.ndarray
    p_values: np.ndarray
    seconds: np.ndarray
    eps: float
    n_receivers: int
    n_sources: int
    seed: int

    def summary(self) -> dict:
        return _summary(self, "cost-curve", "eps", "n_receivers", "n_sources", "seed")

    def table(self) -> tuple:
        return "curve", ("ratio", "p", "seconds"), (self.ratios, self.p_values, self.seconds)


def measure_cost_curve(
    ratios=(1.15, 1.35, 1.6, 2.0, 2.5, 3.0, 3.7),
    eps: float = 1e-4,
    n_receivers: int = 64,
    n_sources: int = 256,
    repeats: int = 3,
    seed: int = 0,
) -> CostCurve:
    """Wall-clock cost of the factored kernel over the extension ratio at
    fixed prescribed accuracy.  Plane-source counts scale with the ring
    area at fixed surface density, mirroring how a solver would mesh the
    extension.  Each run signs all sources in one batch, as assembly
    does; each timing is the best of ``repeats`` runs.  A ratio that
    ``_ring_ratios`` refuses or ``repeats < 1`` raises :class:`DomainError`
    before any work."""
    ratios = _ring_ratios(ratios)
    if not repeats >= 1:
        raise DomainError(f"repeats must be at least 1, got {repeats}")
    rng = np.random.default_rng(seed)
    density = n_sources / (2.0 * math.pi)
    p_values = np.zeros(ratios.size, dtype=int)
    secs = np.zeros(ratios.size)
    for i, ratio in enumerate(ratios):
        p = choose_truncation(1.0, float(ratio), eps)
        p_values[i] = p
        n_ext = max(4, int(density * math.pi * (ratio * ratio - 1.0)))
        receivers, sources = _fig2_points(float(ratio), n_receivers, n_sources, rng)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            constants = build_spectral_constants(p)
            ring = _ring(float(ratio), n_ext, rng)
            sig = source_signature_batch(np.vstack([sources, ring]) / ratio, constants)
            rec = receiver_harmonics(receivers / ratio, p) / ratio
            _ = rec @ sig.T
            best = min(best, time.perf_counter() - t0)
        secs[i] = best
    return CostCurve(
        ratios=ratios, p_values=p_values, seconds=secs,
        eps=eps, n_receivers=n_receivers, n_sources=n_sources, seed=seed,
    )


# ---------------------------------------------------------------------------
# Output: every file the package writes, the mesh format aside
# ---------------------------------------------------------------------------


def _summary(report, experiment, *names, **values) -> dict:
    """A report's JSON payload: its experiment id, the named fields (arrays
    as lists) and ``values``."""
    fields = {name: getattr(report, name) for name in names}
    fields = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in fields.items()}
    return {"experiment": experiment, **fields, **values}


def write_json(path, payload) -> str:
    """Write ``payload`` as sorted JSON, indent 1, newline-terminated;
    numpy scalars are written as floats.  Returns ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=float)
        fh.write("\n")
    return path


def write_csv(path, header, columns) -> str:
    """Write equal-length ``columns`` under ``header`` as CSV.  Integer and
    boolean columns are written as integers, every other value as
    ``repr(float(v))``, so identical inputs give identical bytes.
    Returns ``path``."""
    cells = []
    for col in map(np.asarray, columns):
        as_int = col.dtype.kind in "biu"
        cells.append([str(int(v)) if as_int else repr(float(v)) for v in col.tolist()])
    if len(cells) != len(header):
        raise DomainError(f"{len(header)} header names for {len(cells)} columns")
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells, strict=True)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_report(report, outdir, name=None) -> list:
    """Write a report's ``summary()`` as JSON and its ``table()`` as CSV.

    Returns the list of written paths; names embed the experiment id and
    seed so repeated runs with different seeds do not collide.
    """
    os.makedirs(outdir, exist_ok=True)
    payload = report.summary()
    stem = os.path.join(
        outdir, name or f"{payload['experiment'].replace('-', '_')}_seed{report.seed}"
    )
    suffix, header, columns = report.table()
    return [
        write_json(f"{stem}.json", payload),
        write_csv(f"{stem}_{suffix}.csv", header, columns),
    ]
