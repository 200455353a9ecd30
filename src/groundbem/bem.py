"""Collocation boundary-element solver.

The boundary integral equation is discretized with constant panels and
collocation at panel centroids.  The system operator has two parts:

* a dense free-space block: analytic single-layer integrals for panels
  within the near-field radius of a collocation point (always for the
  self term), centroid monopole approximation beyond it;
* the ground-plane kernel term, kept in factored low-rank form -- an
  (S x q) receiver-harmonic factor times a (q x N) source-signature
  factor -- so applying it to a vector costs O(q N), never O(N^2).

The q = p(p - 1)/2 columns are the harmonics with n + m odd, which vanish
on the plane z = 0: rows collocated there receive no kernel term, and the
receiver factor is stored only for the S panels off the plane.

The direct solve never forms the kernel term as a matrix.  It LU-factors
the free block, captures the kernel term's range with a randomized range
finder (its numerical rank l is far below q), solves with the rank-l
correction through the Woodbury identity, and refines the result against
the exact factored operator.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import DomainError, SolveError
from .ground_kernel import interior_inner_cap, receiver_harmonics
from .ground_kernel import source_signature, source_signature_batch
from .harmonics import build_spectral_constants
from .surface_mesh import SURFACE, DomainSpec, Panel, PanelMesh

__all__ = [
    "BemConfig",
    "BemSystem",
    "FieldGrid",
    "triangle_single_layer",
    "assemble",
    "set_point_source_rhs",
    "set_boundary_potential",
    "solve",
    "apply_ground_kernel",
    "evaluate_field",
    "export_field_csv",
    "export_field_json",
]

_FOUR_PI = 4.0 * math.pi
_LOG = logging.getLogger("groundbem")


# ---------------------------------------------------------------------------
# Analytic single-layer integral over a triangle
# ---------------------------------------------------------------------------


def _edge_h(x, y, z):
    """Per-edge antiderivative of the triangle single-layer reduction.

    ``y`` is the (non-negative) height of the evaluation point over the
    panel plane, ``z`` the signed in-plane distance to the edge line, and
    ``x`` the along-edge coordinate.  The removable singularities are
    handled explicitly: the log term carries a z factor (limit 0 on the
    edge plane) and is evaluated in a cancellation-free form for x < 0.
    """
    r = np.sqrt(x * x + y * y + z * z)
    at = y * (np.arctan2(x, z) - np.arctan2(y * x, z * r))
    arg = np.where(x < 0.0, (y * y + z * z) / np.maximum(r - x, 1e-300), r + x)
    lg = np.where(z != 0.0, -z * np.log(np.maximum(arg, 1e-300)), 0.0)
    return at + lg


def _single_layer_bare(fv, normals, tangents, lengths, enormals, points):
    """Integral of 1/|y - x| over triangles, analytic three-edge sum.

    All panel arrays and ``points`` must have broadcast-compatible leading
    shapes; panel arrays carry trailing dims (3, 3) / (3,) / (3, 3), points
    carry (3,).  Finite for evaluation points on the panel.
    """
    h = np.abs(np.sum((points - fv[..., 0, :]) * normals, axis=-1))
    total = 0.0
    for q in range(3):
        d = points - fv[..., q, :]
        xq = np.sum(d * tangents[..., q, :], axis=-1)
        zq = np.sum(d * enormals[..., q, :], axis=-1)
        lq = lengths[..., q]
        total = total + _edge_h(lq - xq, h, zq) - _edge_h(-xq, h, zq)
    return total


def triangle_single_layer(panel: Panel, y) -> float:
    """Single-layer potential of a unit density over one panel,
    ``int_panel G(y, x) dS``, exact for any evaluation point."""
    pt = np.asarray(y, dtype=float).reshape(3)
    bare = _single_layer_bare(
        panel.vertices[None, :, :],
        panel.normal[None, :],
        panel.edge_tangents[None, :, :],
        panel.edge_lengths[None, :],
        panel.edge_normals[None, :, :],
        pt[None, :],
    )[0]
    return float(bare) / _FOUR_PI


# Rows of the free-space block built by one task: the 256 x N distance block
# takes 13 MB at N = 6306, and every near pair of those rows goes into one
# analytic-integral call.
_ROW_BLOCK = 256
# Rows of the free block one task multiplies in ``apply_operator``.
_MATVEC_ROWS = 512


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The pool for the mesh-only work: one thread per CPU this process may
    use.  Tasks split by rows at fixed sizes, so every result is bitwise
    the same for any worker count; NumPy releases the GIL in all of it.
    Created on first use, so importing the package starts no thread."""
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # not on macOS or Windows
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, thread_name_prefix="groundbem")


# A forked child inherits the pool but none of its threads.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _gather(tasks) -> list:
    """Results of the tasks in order; if one fails or the wait is
    interrupted, those not yet started are cancelled."""
    try:
        return [t.result() for t in tasks]
    finally:
        for t in tasks:
            t.cancel()


def _free_block(mesh: PanelMesh, points: np.ndarray):
    """Single layer of every panel at every point, ``(len(points), N)``,
    started on the pool, one task per ``_ROW_BLOCK`` rows.  Returns the
    result, filled once every task is done, and the tasks, each of which
    returns the ``time.perf_counter()`` at which it finished.

    Pairs closer than the near-field radius, 5 mean panel diameters, get
    the analytic triangle integral, all others the centroid monopole.  The
    near pairs are read off each row block's distance block, so no second
    structure is needed.
    """
    r_nf = 5.0 * mesh.mean_diameter
    r_nf2 = r_nf * r_nf
    cents = mesh.centroids
    csq = np.einsum("ij,ij->i", cents, cents)
    psq = np.einsum("ij,ij->i", points, points)
    out = np.empty((points.shape[0], len(mesh)))

    def rows_task(i0):
        rows = slice(i0, i0 + _ROW_BLOCK)
        # The squared distances, then the monopole, in this task's rows of
        # the result: the same operations in the same order as with a fresh
        # temporary per step, so bitwise equal to that.
        d2 = out[rows]
        two_pc = 2.0 * points[rows] @ cents.T
        np.add(psq[rows, None], csq[None, :], out=d2)
        d2 -= two_pc
        del two_pc
        np.maximum(d2, 0.0, out=d2)
        i, j = np.nonzero(d2 < r_nf2)
        np.sqrt(d2, out=d2)
        d2 *= _FOUR_PI
        with np.errstate(divide="ignore"):
            np.divide(mesh.areas[None, :], d2, out=d2)
        d2[i, j] = _single_layer_bare(
            mesh.face_vertices[j],
            mesh.normals[j],
            mesh.edge_tangents[j],
            mesh.edge_lengths[j],
            mesh.edge_normals[j],
            points[i0 + i],
        ) / _FOUR_PI
        return time.perf_counter()

    pool = _pool()
    return out, [pool.submit(rows_task, i0) for i0 in range(0, points.shape[0], _ROW_BLOCK)]


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BemConfig:
    """Discretization and solver parameters.

    ``prescribed_eps`` is the target kernel accuracy used for sanity
    warnings against the chosen truncation number.
    """

    p: int = 12
    solver: str = "direct"
    prescribed_eps: float = 1e-4
    use_ground_kernel: bool = True

    def __post_init__(self):
        if self.p < 2:
            raise DomainError(f"truncation number must be >= 2, got {self.p}")
        if self.solver not in ("direct", "iterative"):
            raise DomainError(f"unknown solver {self.solver!r}")
        if not 0.0 < self.prescribed_eps < 1.0:
            raise DomainError("prescribed_eps must lie in (0, 1)")


@dataclass
class BemSystem:
    """Assembled collocation system.

    ``free_matrix`` is the dense free-space block; the ground-kernel term
    is ``rfac @ sfac`` on the rows ``kernel_rows`` (the panels off the
    plane; none with the kernel off) and zero on all others, the source
    factor including panel areas.  ``rhs`` and ``solution`` are per panel.
    """

    mesh: PanelMesh
    domain: DomainSpec
    config: BemConfig
    free_matrix: np.ndarray
    rfac: np.ndarray
    sfac: np.ndarray
    kernel_rows: np.ndarray
    constants: object
    rhs: np.ndarray
    solution: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.mesh)


def assemble(mesh: PanelMesh, domain: DomainSpec, config: BemConfig) -> BemSystem:
    """Assemble the collocation system for the given mesh and domain.

    The free-space block uses the analytic triangle integral for pairs
    closer than the near-field radius and the centroid monopole otherwise.
    Kernel source factors are built from the plane recurrences for panels
    on the extension (and any flat ground), from the interior harmonic
    series elsewhere; receiver factors only for the panels off the plane.
    The free block is built on the worker pool while the calling thread
    builds the kernel factors.  One DEBUG record on the ``groundbem``
    logger reports N, S, q, the worker count and the seconds of the free
    block and of the kernel factors.
    """
    n = len(mesh)
    re = domain.re
    p = config.p
    implied_eps = (domain.r0 / domain.re) ** p if domain.re > domain.r0 else 1.0
    if config.use_ground_kernel and implied_eps > config.prescribed_eps:
        warnings.warn(
            f"truncation p = {p} gives kernel accuracy ~{implied_eps:.2e}, "
            f"worse than the prescribed {config.prescribed_eps:.2e}",
            stacklevel=2,
        )

    centroids = mesh.centroids
    areas = mesh.areas
    # The free block's row tasks run on the pool while this thread builds
    # the kernel factors, which read nothing of it.
    t_start = time.perf_counter()
    a, free_tasks = _free_block(mesh, centroids)
    try:
        constants = build_spectral_constants(p)
        if config.use_ground_kernel:
            cap = interior_inner_cap(constants)
            if cap < 2 * p - 3:
                tail = (domain.r0 / domain.re) ** cap
                if tail > 0.1 * config.prescribed_eps:
                    warnings.warn(
                        f"inner series capped at degree {cap} by float64 range; "
                        f"implied tail ~{tail:.2e} vs prescribed {config.prescribed_eps:.2e}",
                        stacklevel=2,
                    )
            rows = np.flatnonzero(centroids[:, 2] != 0.0)
            rfac = receiver_harmonics(centroids[rows] / re, p) / re
            sfac = (source_signature_batch(centroids / re, constants) * areas[:, None]).T
        else:
            rows = np.zeros(0, dtype=np.intp)
            rfac, sfac = np.zeros((0, 0)), np.zeros((0, n))
        kernel_s = time.perf_counter() - t_start
    except BaseException:
        for t in free_tasks:
            t.cancel()
        raise
    free_s = max(_gather(free_tasks)) - t_start
    _LOG.debug(
        "assemble n=%d s=%d q=%d workers=%d free_s=%.3f kernel_s=%.3f",
        n, rfac.shape[0], rfac.shape[1], _pool()._max_workers, free_s, kernel_s,
    )

    return BemSystem(
        mesh=mesh,
        domain=domain,
        config=config,
        free_matrix=a,
        rfac=rfac,
        sfac=sfac,
        kernel_rows=rows,
        constants=constants,
        rhs=np.zeros(n),
    )


def set_point_source_rhs(system: BemSystem, source) -> None:
    """Right-hand side of the grounded benchmark: the boundary must cancel
    the incident potential of a unit monopole, free-space plus kernel part
    (the kernel part vanishes on the rows on the plane)."""
    xs = np.asarray(source, dtype=float).reshape(3)
    g = np.einsum(
        "ij,ij->i", system.mesh.centroids - xs, system.mesh.centroids - xs
    )
    rhs = -1.0 / (_FOUR_PI * np.sqrt(g))
    if system.config.use_ground_kernel:
        sig = source_signature(xs / system.domain.re, system.constants)
        rhs[system.kernel_rows] -= system.rfac @ sig.coeffs
    system.rhs = rhs
    system.solution = None


def set_boundary_potential(system: BemSystem, potential) -> None:
    """Dirichlet data: ``potential`` (callable of points or array) sampled
    at SURFACE panel centroids, zero on the grounded rows."""
    mesh = system.mesh
    rhs = np.zeros(len(mesh))
    on_s = mesh.tags == SURFACE
    if callable(potential):
        rhs[on_s] = np.asarray(
            [potential(c) for c in mesh.centroids[on_s]], dtype=float
        )
    else:
        vals = np.asarray(potential, dtype=float)
        if vals.shape == (len(mesh),):
            rhs = vals.copy()
        elif vals.shape == (int(np.sum(on_s)),):
            rhs[on_s] = vals
        else:
            raise DomainError("potential array has wrong length")
    system.rhs = rhs
    system.solution = None


def apply_ground_kernel(system: BemSystem, vec: np.ndarray) -> np.ndarray:
    """Factored kernel term applied to a density vector, O(q N)."""
    out = np.zeros(system.size)
    out[system.kernel_rows] = system.rfac @ (system.sfac @ vec)
    return out


def apply_operator(system: BemSystem, vec: np.ndarray) -> np.ndarray:
    """Full system operator (free-space block plus factored kernel)."""
    free = np.empty(system.size)
    pool = _pool()
    _gather([
        pool.submit(np.dot, system.free_matrix[i:i + _MATVEC_ROWS], vec, free[i:i + _MATVEC_ROWS])
        for i in range(0, system.size, _MATVEC_ROWS)
    ])
    return free + apply_ground_kernel(system, vec)


# Relative residual the lgmres iteration aims for, and that every
# solution must meet.
_SOLVE_RTOL = 1e-10

# The direct solve's randomized range finder (Halko, Martinsson & Tropp,
# SIAM Rev. 53, 2011) draws Gaussian test blocks of _SKETCH_BLOCK columns
# from a fixed seed, so a solve repeats bit for bit, and stops once a
# block's largest column outside the basis is at most _SKETCH_TOL times the
# first block's largest column.  What the basis leaves out is made up by at
# most _REFINE_STEPS steps of refinement against the exact operator.
_SKETCH_BLOCK = 32
_SKETCH_TOL = 1e-5
_SKETCH_SEED = 0
_REFINE_STEPS = 3


def _kernel_range(system: BemSystem) -> np.ndarray:
    """Orthonormal basis of the range of ``rfac @ sfac``, as the rows of an
    ``(l, S)`` array, found from products with the factors only; l is at
    most min(S, q).  The test blocks are drawn as rows, so each block is a
    row-major product (Omega^T sfac^T) rfac^T."""
    rfac, sfac = system.rfac, system.sfac
    top_rank = min(rfac.shape)
    rng = np.random.default_rng(_SKETCH_SEED)
    basis = np.zeros((0, rfac.shape[0]))
    first = None
    while basis.shape[0] < top_rank:
        k = min(_SKETCH_BLOCK, top_rank - basis.shape[0])
        y = (rng.standard_normal((k, sfac.shape[1])) @ sfac.T) @ rfac.T
        # projected twice: once is not orthogonal enough after cancellation
        y -= (y @ basis.T) @ basis
        y -= (y @ basis.T) @ basis
        largest = float(np.max(np.linalg.norm(y, axis=1)))
        first = largest if first is None else first
        if largest <= _SKETCH_TOL * first:
            break
        basis = np.vstack([basis, np.linalg.qr(y.T)[0].T])
    return basis


def _woodbury_inverse(system: BemSystem):
    """Solver for the free block plus the range-projected kernel term.

    With F the free block, P the scatter of the kernel rows into all N
    rows, Q the kernel range basis and B = Q^T rfac sfac, the Woodbury
    identity gives (F + P Q B)^-1 from one LU of F, the N x l block
    Z = F^-1 P Q and an l x l capacitance LU of I + B Z.  Returns the
    solver and l; a zero pivot in either LU raises :class:`SolveError`.
    """
    n = system.size
    qt = _kernel_range(system)
    rank = qt.shape[0]
    b = (qt @ system.rfac) @ system.sfac
    u = np.zeros((n, rank), order="F")
    u[system.kernel_rows] = qt.T
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        try:
            # LAPACK overwrites only a Fortran-ordered matrix; SciPy copies
            # any other before factoring it.
            free_lu = sla.lu_factor(
                np.array(system.free_matrix, order="F"), overwrite_a=True, check_finite=False
            )
            z = sla.lu_solve(free_lu, u, overwrite_b=True, check_finite=False)
            cap_lu = sla.lu_factor(np.eye(rank) + b @ z, overwrite_a=True, check_finite=False)
        except sla.LinAlgWarning as exc:
            cond = float(np.linalg.cond(system.free_matrix)) if n <= 2000 else None
            raise SolveError(f"direct solve failed: {exc}", condition=cond) from exc

    def inverse(r: np.ndarray) -> np.ndarray:
        y = sla.lu_solve(free_lu, r, check_finite=False)
        return y - z @ sla.lu_solve(cap_lu, b @ y, check_finite=False)

    return inverse, rank


def solve(system: BemSystem) -> np.ndarray:
    """Solve for the panel charge density.

    ``direct`` LU-factors a copy of the free block, adds the kernel term
    through a Woodbury update of the rank l that a randomized range finder
    keeps (the N x N kernel product is never formed; the stored factors
    stay untouched), and refines the result against the exact factored
    operator; ``iterative`` runs lgmres on the factored operator.  The
    relative residual is verified against 1e-10 either way, else
    :class:`SolveError` is raised.  One DEBUG record on the ``groundbem``
    logger reports the route, N, S, q, l, the refinement steps and the
    residual.
    """
    n = system.size
    rhs = system.rhs
    if not np.any(rhs):
        warnings.warn("solving with an all-zero right-hand side", stacklevel=2)

    if system.config.solver == "direct":
        route = "lu-woodbury"
        inverse, rank = _woodbury_inverse(system)
        sigma = inverse(rhs)
    else:
        route, inverse, rank = "lgmres", None, 0
        op = LinearOperator((n, n), matvec=lambda v: apply_operator(system, v))
        sigma, info = lgmres(op, rhs, rtol=_SOLVE_RTOL, atol=0.0, maxiter=2000)
        if info != 0:
            raise SolveError(f"lgmres did not converge (info = {info})")

    rhs_norm = float(np.linalg.norm(rhs))
    steps = 0
    while True:
        r = apply_operator(system, sigma) - rhs
        resid = np.linalg.norm(r) / (rhs_norm or 1.0)
        if resid <= _SOLVE_RTOL or inverse is None or steps == _REFINE_STEPS:
            break
        sigma = sigma - inverse(r)
        steps += 1
    _LOG.debug(
        "solve route=%s n=%d s=%d q=%d rank=%d refine=%d residual=%.3e",
        route, n, system.rfac.shape[0], system.rfac.shape[1], rank, steps, resid,
    )
    if not resid <= _SOLVE_RTOL:
        cond = float(np.linalg.cond(system.free_matrix)) if n <= 2000 else None
        raise SolveError(
            f"solution residual {resid:.3e} exceeds {_SOLVE_RTOL:.1e}",
            condition=cond,
        )
    system.solution = sigma
    return sigma


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldGrid:
    """Potential values on a set of evaluation points.

    ``induced`` is the field minus the incident monopole (equal to
    ``values`` when no source is present); ``flags`` marks points lying
    below the ground level, for which the value is still returned.
    """

    points: np.ndarray
    values: np.ndarray
    induced: np.ndarray
    flags: np.ndarray
    metadata: dict = field(default_factory=dict)


def _below_ground_flags(mesh: PanelMesh, points: np.ndarray) -> np.ndarray:
    """Points under the plane, inside a bump or under a dip's bowl, the
    feature being a hemisphere of radius ``mesh.feature_radius``."""
    flags = points[:, 2] < -1e-12
    on_surface = mesh.tags == SURFACE
    if np.any(on_surface):
        r2 = mesh.feature_radius ** 2
        bump = mesh.centroids[on_surface][:, 2].mean() > 0.0
        rho2 = points[:, 0] ** 2 + points[:, 1] ** 2
        if bump:
            flags = flags | (rho2 + points[:, 2] ** 2 < r2)
        else:
            inside = rho2 < r2
            zsurf = -np.sqrt(np.maximum(0.0, r2 - rho2))
            flags = np.where(inside, points[:, 2] < zsurf, flags)
    return flags


def evaluate_field(system: BemSystem, points, source=None) -> FieldGrid:
    """Potential of the solved system at the given points.

    The panel sum is assembly's free-space block taken at these points;
    the kernel part reuses the stored source factors.  With the ground
    kernel on, every point must lie inside ``re`` (the receiver series
    diverges outside), else :class:`DomainError` is raised.  With
    ``source`` given, the incident monopole and its kernel image are added
    and the induced part is reported separately.
    """
    if system.solution is None:
        raise SolveError("system has no solution; call solve() first")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if system.config.use_ground_kernel and np.any(
        np.linalg.norm(pts, axis=1) >= system.domain.re
    ):
        raise DomainError(
            f"field points must satisfy |y| < re = {system.domain.re}: the "
            "receiver series of the ground kernel diverges outside"
        )
    sigma = system.solution
    mesh = system.mesh
    free, tasks = _free_block(mesh, pts)
    _gather(tasks)
    values = free @ sigma

    if system.config.use_ground_kernel:
        rfac_pts = receiver_harmonics(pts / system.domain.re, system.config.p) / system.domain.re
        values = values + rfac_pts @ (system.sfac @ sigma)

    induced = values.copy()
    if source is not None:
        xs = np.asarray(source, dtype=float).reshape(3)
        dist = np.linalg.norm(pts - xs, axis=1)
        values = values + 1.0 / (_FOUR_PI * dist)
        if system.config.use_ground_kernel:
            sig = source_signature(xs / system.domain.re, system.constants)
            ksrc = rfac_pts @ sig.coeffs
            values = values + ksrc
            induced = induced + ksrc

    return FieldGrid(
        points=pts,
        values=values,
        induced=induced,
        flags=_below_ground_flags(mesh, pts),
        metadata={
            "p": system.config.p,
            "re": system.domain.re,
            "r0": system.domain.r0,
            "use_ground_kernel": system.config.use_ground_kernel,
            "source": None if source is None else list(map(float, np.ravel(source))),
        },
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_field_csv(grid: FieldGrid, path) -> None:
    """Write ``x,y,z,value,induced,below_ground`` rows (repr floats, so the
    output is byte-stable for identical inputs)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,y,z,value,induced,below_ground\n")
        for p, v, ind, fl in zip(grid.points, grid.values, grid.induced, grid.flags):
            fh.write(
                f"{float(p[0])!r},{float(p[1])!r},{float(p[2])!r},"
                f"{float(v)!r},{float(ind)!r},{int(fl)}\n"
            )


def export_field_json(grid: FieldGrid, path) -> None:
    payload = {
        "metadata": grid.metadata,
        "points": grid.points.tolist(),
        "values": grid.values.tolist(),
        "induced": grid.induced.tolist(),
        "below_ground": grid.flags.astype(int).tolist(),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
