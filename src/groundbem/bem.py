"""Collocation boundary-element solver.

The boundary integral equation is discretized with constant panels and
collocation at panel centroids.  The system operator has two parts:

* the mesh's free-space operator, shared by the systems on that mesh: a
  dense block of analytic single-layer integrals for panels within the
  near-field radius of a collocation point (always for the self term),
  centroid monopole approximation beyond it, and a sparse LU of the
  block's entries between nearby panels, which the first solve of a
  system on the mesh makes and the operator holds from then on;
* the ground-plane kernel term (absent in plain truncated BEM), kept in
  factored low-rank form -- an (S x q) receiver-harmonic factor times a
  (q x N) source-signature factor -- so applying it costs O(q N).

The q = p(p - 1)/2 columns are the harmonics with n + m odd, which vanish
on the plane z = 0: rows collocated there receive no kernel term, and the
receiver factor is stored only for the S panels off the plane.  The
columns are degree-major, so a lower degree's columns are a prefix.

``BemConfig.p`` is a cap.  Each product takes the degree its receivers
need: the paper's law (``choose_truncation``) at their largest radius.
The factors take it at the kernel rows, raised while their top two degree
blocks hold more than ``prescribed_eps`` of the term; the field takes it
at its own points.  A point the caller gives keeps its signature at the
cap and contributes its first q columns.

The solve never forms the kernel term as a matrix: it runs lgmres on the
factored operator, preconditioned by the operator's near-field LU.  The
free block's rows and its matvec run on a pool that each public call
makes for itself (``_pool``), and ``assemble`` and ``solve`` each hold
one cap of one BLAS thread for the whole call.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla  # noqa: F401  (unused; bench/tracing.py wraps bem.sla.solve)
from scipy.sparse.linalg import LinearOperator, SuperLU, lgmres, splu
from scipy.spatial import cKDTree

from .blas import one_blas_thread
from .errors import DomainError, SolveError
from .ground_kernel import interior_inner_cap, receiver_harmonics, source_signature_batch
from .harmonics import P_HARD_LIMIT, build_spectral_constants
from .surface_mesh import SURFACE, DomainSpec, PanelMesh

__all__ = [
    "BemConfig",
    "BemSystem",
    "FieldGrid",
    "FreeOperator",
    "choose_truncation",
    "triangle_single_layer",
    "assemble",
    "truncated_system",
    "set_point_source_rhs",
    "set_boundary_potential",
    "solve",
    "apply_ground_kernel",
    "evaluate_field",
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


def triangle_single_layer(mesh: PanelMesh, y) -> np.ndarray:
    """Single-layer potential of a unit density over each panel of
    ``mesh``, ``int_panel G(y, x) dS``, at one point ``y``: ``(N,)``, exact
    for any evaluation point."""
    bare = _single_layer_bare(
        mesh.face_vertices, mesh.normals, mesh.edge_tangents, mesh.edge_lengths,
        mesh.edge_normals, np.asarray(y, dtype=float).reshape(3),
    )
    return bare / _FOUR_PI


# Rows of the free-space block built by one task: the 256 x N distance block
# takes 13 MB at N = 6306, and every near pair of those rows goes into one
# analytic-integral call.
_ROW_BLOCK = 256
# Rows of the free block one task multiplies in ``apply_operator``.
_MATVEC_ROWS = 512


@contextlib.contextmanager
def _pool():
    """``(pool, workers)`` for one public call: one worker per CPU this
    process may use now.  Tasks split by rows at fixed sizes, so every
    result is bitwise the same for any worker count; NumPy releases the GIL
    in all of it.  However the block is left, queued tasks are cancelled
    and running ones waited for, so no task or thread outlives the call."""
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # not on macOS or Windows
        workers = os.cpu_count() or 1
    pool = ThreadPoolExecutor(workers, thread_name_prefix="groundbem")
    try:
        yield pool, workers
    finally:
        pool.shutdown(cancel_futures=True)


def _free_block(mesh: PanelMesh, points: np.ndarray, pool: ThreadPoolExecutor):
    """Single layer of every panel at every point, ``(len(points), N)``,
    started on ``pool``, one task per ``_ROW_BLOCK`` rows.  Returns the
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

    return out, [pool.submit(rows_task, i0) for i0 in range(0, points.shape[0], _ROW_BLOCK)]


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------


def choose_truncation(r0: float, re: float, eps: float) -> int:
    """Truncation number from the geometric error law: the smallest p with
    (r0/re)^p below eps, never less than 2, for receivers within ``r0``
    (0 <= r0 < re) of the origin."""
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    if not re > r0 >= 0.0:
        raise DomainError(f"need re > r0 >= 0, got r0={r0}, re={re}")
    if r0 == 0.0:
        return 2
    return max(2, math.ceil(math.log(eps) / math.log(r0 / re)))


@dataclass(frozen=True)
class BemConfig:
    """Discretization and solver parameters.

    ``p`` caps the truncation of the kernel term: the paper's choice for
    receivers out to ``r0``.  The degrees used follow from the receivers'
    radii and ``prescribed_eps``, the target kernel accuracy, which also
    sets the warnings; only a kernel term reads either.

    ``solver`` is checked to be ``direct`` or ``iterative`` and read by
    nothing: every system takes :func:`solve`'s one route.  The benchmark's
    workloads still set it.
    """

    p: int = 12
    solver: str = "direct"
    prescribed_eps: float = 1e-4

    def __post_init__(self):
        if not 2 <= self.p <= P_HARD_LIMIT:
            raise DomainError(f"truncation number must lie in 2..{P_HARD_LIMIT}, got {self.p}")
        if self.solver not in ("direct", "iterative"):
            raise DomainError(f"unknown solver {self.solver!r}")
        if not 0.0 < self.prescribed_eps < 1.0:
            raise DomainError("prescribed_eps must lie in (0, 1)")


@dataclass(eq=False)
class FreeOperator:
    """Free-space operator of one mesh: the dense block ``matrix``, the
    matvec, and ``near_lu``, the preconditioner of :func:`solve`.

    ``near_lu`` is a ``scipy.sparse.linalg.splu`` factor of the block's
    entries for the centroid pairs within ``_NEAR_RADIUS`` mean panel
    diameters, the diagonal among them.  The first solve of any system on
    the mesh makes it (None until then), and the operator holds it as long
    as it lives: 54-221 L + U entries a row where measured, not N.
    """

    mesh: PanelMesh
    matrix: np.ndarray
    near_lu: SuperLU | None = field(default=None, init=False, repr=False)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """The block times ``vec``, on a pool in ``_MATVEC_ROWS`` row chunks."""
        out = np.empty(len(self.mesh))
        with _pool() as (pool, _):
            tasks = [
                pool.submit(np.dot, self.matrix[i:i + _MATVEC_ROWS], vec, out[i:i + _MATVEC_ROWS])
                for i in range(0, out.size, _MATVEC_ROWS)
            ]
            for t in tasks:
                t.result()
        return out

    def condition(self) -> float | None:
        """Condition number for a failure report; None above 2000 panels."""
        return float(np.linalg.cond(self.matrix)) if len(self.mesh) <= 2000 else None


@dataclass
class BemSystem:
    """Assembled collocation system.

    ``operator`` is the mesh's free-space operator, which other systems may
    share; ``free_matrix`` is its block.  With a ``domain`` the ground-kernel
    term is ``rfac @ sfac`` on the rows ``kernel_rows`` (the panels off the
    plane) and zero on all others, the source factor including panel areas,
    both at ``degree`` (at most ``config.p``); ``constants`` are the cap's,
    for points the caller gives.  With ``domain=None`` it is a rank-0 term:
    no rows, empty factors.  ``rhs`` (zero unless given) and ``solution``
    are per panel.
    """

    operator: FreeOperator
    domain: DomainSpec | None
    config: BemConfig
    kernel_rows: np.ndarray | None = None
    rfac: np.ndarray | None = None
    sfac: np.ndarray | None = None
    constants: object = None
    rhs: np.ndarray | None = None
    solution: np.ndarray | None = None

    def __post_init__(self):
        if self.domain is None:
            self.kernel_rows = np.zeros(0, dtype=np.intp)
            self.rfac, self.sfac = np.zeros((0, 0)), np.zeros((0, self.size))
        if self.rhs is None:
            self.rhs = np.zeros(self.size)

    @property
    def mesh(self) -> PanelMesh:
        return self.operator.mesh

    @property
    def free_matrix(self) -> np.ndarray:
        return self.operator.matrix

    @property
    def size(self) -> int:
        return len(self.mesh)

    @property
    def degree(self) -> int | None:
        """Truncation of the kernel factors; None without a kernel term."""
        return None if self.domain is None else _truncation_of(self.rfac.shape[1])


def _truncation_of(q: int) -> int:
    """The p of q = p(p - 1)/2 kernel columns."""
    return (1 + math.isqrt(1 + 8 * q)) // 2


def _tail_estimate(rfac: np.ndarray, sfac: np.ndarray) -> float:
    """The kernel term's two top degree blocks (one of each parity) against
    the whole, in Frobenius norms; the whole is taken as the root sum of
    squares of all degree blocks.  The blocks decay geometrically, so this
    estimates what the degrees above them would add.

    A block's norm comes from the Gram products of its columns, each side
    divided by its largest entry first: source entries reach 1e187 at
    p = 104, where an unscaled Gram product overflows."""
    norms = np.zeros(_truncation_of(rfac.shape[1]) - 1)
    for n in range(1, norms.size + 1):
        cols = slice(n * (n - 1) // 2, n * (n + 1) // 2)
        r, s = rfac[:, cols], sfac[cols]
        r_top, s_top = np.max(np.abs(r), initial=0.0), np.max(np.abs(s), initial=0.0)
        if r_top and s_top:
            r, s = r / r_top, s / s_top
            norms[n - 1] = r_top * s_top * math.sqrt(max(float(np.sum((r.T @ r) * (s @ s.T))), 0.0))
    whole = math.sqrt(float(np.sum(norms * norms)))
    top = norms[-2:]
    return math.sqrt(float(np.sum(top * top))) / whole if whole else 0.0


def _factors(mesh: PanelMesh, rows: np.ndarray, re: float, p: int) -> tuple:
    """``(rfac, sfac)`` of the kernel term at truncation p."""
    centroids = mesh.centroids
    rfac = receiver_harmonics(centroids[rows] / re, p) / re
    sfac = source_signature_batch(centroids / re, build_spectral_constants(p))
    sfac *= mesh.areas[:, None]
    return rfac, sfac.T


def _kernel_factors(mesh: PanelMesh, domain: DomainSpec, config: BemConfig) -> tuple:
    """The kernel term's fields of a ``BemSystem``, and its tail estimate.

    The factors take the law at the largest kernel-row radius, capped by
    ``config.p``, and one degree more while ``_tail_estimate`` exceeds
    ``config.prescribed_eps``, up to the cap.  The kernel rows are the only
    interior sources, so the law at their radius also bounds their inner
    series.  Warns (at the caller of ``assemble``) when the cap falls short
    of ``prescribed_eps`` at ``r0``, when the tail still exceeds it at the
    cap, and when the float64 range caps the inner series of a point the
    caller gives, whose signature is taken at the cap."""
    p, eps, re = config.p, config.prescribed_eps, domain.re
    ratio = domain.r0 / re
    if ratio ** p > eps:
        warnings.warn(
            f"truncation cap p = {p} gives kernel accuracy ~{ratio ** p:.2e} "
            f"at r0, worse than the prescribed {eps:.2e}",
            stacklevel=3,
        )
    constants = build_spectral_constants(p)
    inner_cap = interior_inner_cap(constants)
    if inner_cap < 2 * p - 3 and ratio ** inner_cap > 0.1 * eps:
        warnings.warn(
            f"inner series capped at degree {inner_cap} by float64 range; "
            f"implied tail ~{ratio ** inner_cap:.2e} vs prescribed {eps:.2e}",
            stacklevel=3,
        )
    centroids = mesh.centroids
    rows = np.flatnonzero(centroids[:, 2] != 0.0)
    radius = float(np.max(np.linalg.norm(centroids[rows], axis=1), initial=0.0))
    degree = min(p, choose_truncation(radius, re, eps))
    while True:
        rfac, sfac = _factors(mesh, rows, re, degree)
        tail = _tail_estimate(rfac, sfac)
        if tail <= eps or degree == p:
            break
        degree += 1
    if tail > eps:
        warnings.warn(
            f"kernel term's top degrees hold ~{tail:.2e} of it at the cap "
            f"p = {p}, worse than the prescribed {eps:.2e}",
            stacklevel=3,
        )
    return dict(kernel_rows=rows, rfac=rfac, sfac=sfac, constants=constants), tail


def assemble(mesh: PanelMesh, domain: DomainSpec | None, config: BemConfig) -> BemSystem:
    """Assemble the collocation system for the given mesh and domain.

    The free-space block uses the analytic triangle integral for pairs
    closer than the near-field radius and the centroid monopole otherwise.
    Kernel source factors are built from the plane recurrences for panels
    on the extension (and any flat ground), from the interior harmonic
    series elsewhere; receiver factors only for the panels off the plane.
    Both are truncated at the degree the kernel rows need (see
    ``_kernel_factors``), at most ``config.p``.
    ``domain=None`` builds no kernel term (plain truncated BEM).  The free
    block is built on this call's pool while the calling thread builds the
    kernel factors, all under one cap of one BLAS thread, as the pool has
    a worker per CPU; its near-field LU is left to the first solve.  No pool
    task or thread outlives the call, whether it returns or raises.  One
    DEBUG record on the ``groundbem`` logger reports N, S, q, the factors'
    degree ``p`` (0 without a kernel term), the cap, the tail estimate,
    the pool's worker count, the seconds of the free block and of the
    kernel factors, and ``wait_s``, the seconds ``assemble`` blocked on
    the pool after the kernel factors.
    """
    with one_blas_thread(), _pool() as (pool, workers):
        # The free block's row tasks run on the pool while this thread
        # builds the kernel factors, which read nothing of them.
        t_start = time.perf_counter()
        a, tasks = _free_block(mesh, mesh.centroids, pool)
        kernel, tail = {}, 0.0
        if domain is not None:
            kernel, tail = _kernel_factors(mesh, domain, config)
        kernel_s = time.perf_counter() - t_start
        done = [t.result() for t in tasks]
        wait_s = time.perf_counter() - t_start - kernel_s
    system = BemSystem(FreeOperator(mesh, a), domain, config, **kernel)
    _LOG.debug(
        "assemble n=%d s=%d q=%d p=%d cap=%d tail=%.2e workers=%d free_s=%.3f "
        "kernel_s=%.3f wait_s=%.3f",
        len(mesh), *system.rfac.shape, system.degree or 0, config.p, tail,
        workers, max(done) - t_start, kernel_s, wait_s,
    )
    return system


def truncated_system(system: BemSystem) -> BemSystem:
    """Plain truncated BEM on the free-space operator (block and near-field
    LU) of ``system``: its config, no kernel term, a zero right-hand side."""
    return BemSystem(system.operator, None, system.config)


def _source_point(source, domain: DomainSpec | None) -> np.ndarray:
    xs = np.asarray(source, dtype=float).ravel()
    if xs.shape != (3,) or not np.all(np.isfinite(xs)):
        raise DomainError("the source must be one point with finite coordinates")
    if domain is not None and np.linalg.norm(xs / domain.re) >= 1.0:
        raise DomainError(f"the source must satisfy |x| < re = {domain.re}: its series diverges")
    return xs


def set_point_source_rhs(system: BemSystem, source) -> None:
    """Right-hand side of the grounded benchmark: the boundary must cancel
    the incident potential of a unit monopole, free-space plus kernel part
    (the kernel part vanishes on the rows on the plane).  The source's
    signature is taken at the cap, whose inner series reaches sources
    near ``re``, and its first q columns meet the receiver factor.
    ``source`` must be one finite point, with a kernel term inside ``re``,
    else :class:`DomainError` is raised."""
    xs = _source_point(source, system.domain)
    d = system.mesh.centroids - xs
    rhs = -1.0 / (_FOUR_PI * np.sqrt(np.einsum("ij,ij->i", d, d)))
    if system.domain is not None:
        sig = source_signature_batch(xs / system.domain.re, system.constants)[0]
        rhs[system.kernel_rows] -= system.rfac @ sig[: system.rfac.shape[1]]
    system.rhs = rhs
    system.solution = None


def set_boundary_potential(system: BemSystem, potential) -> None:
    """Dirichlet data: ``potential`` (callable of points, or array of one
    value per SURFACE panel or per panel) sampled at SURFACE panel
    centroids, zero on the grounded rows, where a per-panel array must be
    zero too, else :class:`DomainError` is raised."""
    mesh = system.mesh
    rhs = np.zeros(len(mesh))
    on_s = mesh.tags == SURFACE
    if callable(potential):
        rhs[on_s] = np.asarray(
            [potential(c) for c in mesh.centroids[on_s]], dtype=float
        )
    else:
        vals = np.asarray(potential, dtype=float)
        if vals.shape == (len(mesh),) and not np.any(vals[~on_s]):
            vals = vals[on_s]
        if vals.shape != (int(np.sum(on_s)),):
            raise DomainError("potential array has a wrong length or nonzero grounded rows")
        rhs[on_s] = vals
    system.rhs = rhs
    system.solution = None


def apply_ground_kernel(system: BemSystem, vec: np.ndarray) -> np.ndarray:
    """Factored kernel term applied to a density vector, O(q N)."""
    out = np.zeros(system.size)
    out[system.kernel_rows] = system.rfac @ (system.sfac @ vec)
    return out


def apply_operator(system: BemSystem, vec: np.ndarray) -> np.ndarray:
    """Full system operator (free-space block plus factored kernel)."""
    return system.operator.matvec(vec) + apply_ground_kernel(system, vec)


# The near set's radius, in mean panel diameters, and lgmres's stop: of radii
# 1 to 2 and stops 1e-13 and 1e-14, the fastest pair on both benchmark bumps
# that keeps a 248-panel bump's solve within 1e-12 (1.6e-13, elementwise) of
# a dense LU of its whole operator.
_NEAR_RADIUS = 1.25
_LGMRES_RTOL = 1e-14
# Relative residual every solution must meet.
_SOLVE_RTOL = 1e-10


def _near_lu(operator: FreeOperator) -> tuple:
    """The operator's ``near_lu`` (see :class:`FreeOperator`), made on the
    mesh's first solve, and the seconds this call spent making it.  A zero
    pivot, which ``splu`` raises as RuntimeError, raises SolveError."""
    lu_s = 0.0
    if operator.near_lu is None:
        t0 = time.perf_counter()
        tree = cKDTree(operator.mesh.centroids)
        # every pair within the radius, the diagonal too, given the block's entries
        near = tree.sparse_distance_matrix(
            tree, _NEAR_RADIUS * operator.mesh.mean_diameter, output_type="coo_matrix"
        )
        near.data = operator.matrix[near.row, near.col]
        try:
            operator.near_lu = splu(near.tocsc())
        except RuntimeError as exc:
            raise SolveError(
                f"near-field preconditioner failed: a pivot of its LU is exactly zero ({exc})",
                condition=operator.condition(),
            ) from exc
        lu_s = time.perf_counter() - t0
    return operator.near_lu, lu_s


def solve(system: BemSystem) -> np.ndarray:
    """Solve for the panel charge density.

    lgmres runs on the factored operator (the N x N kernel product is never
    formed), preconditioned by the operator's near-field LU, which the
    first solve on the mesh makes and the operator keeps; its zero start
    vector is never applied.  It stops at a relative residual of 1e-14.
    The factor, lgmres and the residual check hold one BLAS thread, as each
    matvec has a pool.  If lgmres does not converge, or the relative
    residual exceeds 1e-10, :class:`SolveError` is raised, carrying the
    residual reached and the free block's condition number.  One DEBUG
    record on the ``groundbem`` logger reports N, S, q, the matvecs lgmres
    took, the residual, and ``lu_s``, the seconds this call spent making
    the near-field LU (0 unless it made it).
    """
    n = system.size
    rhs = system.rhs
    if not np.any(rhs):
        warnings.warn("solving with an all-zero right-hand side", stacklevel=2)
    matvecs = 0

    def matvec(v):
        nonlocal matvecs
        if not np.any(v):
            return np.zeros(n)
        matvecs += 1
        return apply_operator(system, v)

    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    with one_blas_thread():
        near_lu, lu_s = _near_lu(system.operator)
        precond = LinearOperator((n, n), matvec=near_lu.solve, dtype=float)
        # a copy, as lgmres hands back a zero right-hand side itself
        # maxiter counts outer cycles of up to 31 matvecs; none measured took three
        sigma, info = lgmres(op, rhs.copy(), rtol=_LGMRES_RTOL, atol=0.0, maxiter=50, M=precond)
        resid = np.linalg.norm(apply_operator(system, sigma) - rhs) / (np.linalg.norm(rhs) or 1.0)
    _LOG.debug(
        "solve n=%d s=%d q=%d matvecs=%d residual=%.3e lu_s=%.3f",
        n, *system.rfac.shape, matvecs, resid, lu_s,
    )
    if info != 0 or not resid <= _SOLVE_RTOL:
        failure = (
            f"lgmres did not converge (info = {info})" if info
            else f"solution residual exceeds {_SOLVE_RTOL:.1e}"
        )
        raise SolveError(
            f"{failure}: relative residual {resid:.3e} reached",
            condition=system.operator.condition(),
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
    if mesh.feature_sign:
        r2 = mesh.feature_radius ** 2
        rho2 = points[:, 0] ** 2 + points[:, 1] ** 2
        if mesh.feature_sign > 0:
            flags = flags | (rho2 + points[:, 2] ** 2 < r2)
        else:
            inside = rho2 < r2
            zsurf = -np.sqrt(np.maximum(0.0, r2 - rho2))
            flags = np.where(inside, points[:, 2] < zsurf, flags)
    return flags


# Sources per block of the field's own signature pass: 7 MB of
# signatures at p = 42.
_FIELD_BLOCK = 1024


def _signature_sum(mesh: PanelMesh, re: float, p: int, sigma: np.ndarray) -> np.ndarray:
    """``sfac @ sigma`` at truncation p, ``(p(p - 1)/2,)``, from one
    signature pass over ``_FIELD_BLOCK`` sources at a time on the calling
    thread, so no (N, q) table is held."""
    constants = build_spectral_constants(p)
    weights = mesh.areas * sigma
    out = np.zeros(p * (p - 1) // 2)
    for i0 in range(0, len(mesh), _FIELD_BLOCK):
        block = slice(i0, i0 + _FIELD_BLOCK)
        out += weights[block] @ source_signature_batch(mesh.centroids[block] / re, constants)
    return out


def evaluate_field(system: BemSystem, points, source=None) -> FieldGrid:
    """Potential of the solved system at the given points.

    The panel sum is assembly's free-space block taken at these points,
    built on this call's pool while the calling thread takes the kernel
    part, which is truncated at its own degree: the law at the points'
    largest radius, at most ``config.p`` (warned when the cap falls short
    of ``prescribed_eps`` there).  At or below the factors' degree it
    takes a prefix of ``sfac @ solution``; above it, one signature pass at
    that degree.  With a kernel term, every point must lie inside ``re``
    (the receiver series diverges outside), else :class:`DomainError` is
    raised; the metadata gives the degree used (``degree``) and the cap
    (``p``), which, with ``re`` and ``r0``, are None without one.  With
    ``source`` given, the incident monopole and its kernel image are added
    and the induced part is reported separately.  Points must be finite,
    of shape (M, 3) or (3,), and none may coincide with ``source`` (one
    finite point, with a kernel term inside ``re``), else
    :class:`DomainError` is raised.
    """
    if system.solution is None:
        raise SolveError("system has no solution; call solve() first")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DomainError(f"field points must have shape (M, 3), got {np.shape(points)}")
    if not np.all(np.isfinite(pts)):
        raise DomainError("field point coordinates must be finite")
    if source is not None:
        xs = _source_point(source, system.domain)
        dist = np.linalg.norm(pts - xs, axis=1)
        if np.any(dist == 0.0):
            raise DomainError("a field point coincides with the source")
    sigma = system.solution
    domain, config = system.domain, system.config
    kernel = image = 0.0
    degree = None
    if domain is not None:
        re = domain.re
        radius = float(np.max(np.linalg.norm(pts, axis=1)))
        if radius >= re:
            raise DomainError(
                f"field points must satisfy |y| < re = {re}: the "
                "receiver series of the ground kernel diverges outside"
            )
    with _pool() as (pool, _):
        # The panel sum runs on the pool while this thread takes the kernel part.
        free, tasks = _free_block(system.mesh, pts, pool)
        if domain is not None:
            degree = choose_truncation(radius, re, config.prescribed_eps)
            if degree > config.p:
                degree = config.p
                warnings.warn(
                    f"field points reach |y| = {radius:.4g}, where the truncation cap "
                    f"p = {degree} gives kernel accuracy ~{(radius / re) ** degree:.2e}, "
                    f"worse than the prescribed {config.prescribed_eps:.2e}",
                    stacklevel=2,
                )
            q = degree * (degree - 1) // 2
            if degree <= system.degree:
                weights = system.sfac[:q] @ sigma
            else:
                weights = _signature_sum(system.mesh, re, degree, sigma)
            rfac_pts = receiver_harmonics(pts / re, degree) / re
            kernel = rfac_pts @ weights
            if source is not None:
                image = rfac_pts @ source_signature_batch(xs / re, system.constants)[0][:q]
        for t in tasks:
            t.result()
    values = free @ sigma + kernel
    induced = values + image
    if source is not None:
        values = values + 1.0 / (_FOUR_PI * dist) + image

    return FieldGrid(
        points=pts,
        values=values,
        induced=induced,
        flags=_below_ground_flags(system.mesh, pts),
        metadata={
            "p": None if domain is None else config.p,
            "degree": degree,
            "re": None if domain is None else domain.re,
            "r0": None if domain is None else domain.r0,
            "use_ground_kernel": domain is not None,
            "source": None if source is None else xs.tolist(),
        },
    )
