"""Collocation boundary-element solver.

The boundary integral equation is discretized with constant panels and
collocation at panel centroids.  The system operator has two parts:

* the mesh's free-space operator, shared by the systems on that mesh: the
  block of analytic single-layer integrals for panels whose centroids lie
  within the near-field radius of a collocation point (always for the
  self term) and centroid monopoles beyond it, and a sparse LU of the
  closed-form entries between nearby panels, one :class:`FreeOperator`
  made by ``assemble`` and never changed after.  The block is
  hierarchical: on one median-bisection cluster tree of the centroids,
  blocks whose boxes lie close are stored densely, and the far ones, pure
  monopoles, as adaptive-cross-approximation factors, so no N x N array
  is held.
  Every distance is the norm of a coordinate difference; ``assemble``
  builds one k-d tree of the centroids, for its coincidence check and LU;
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
at its own points, summing the panels' signatures against the solution
without their table (one walk per source branch in ``ground_kernel``
serves both).  A point the caller gives keeps its signature at the cap
and contributes its first q columns.

The solve never forms the kernel term as a matrix: it runs lgmres on the
factored operator, preconditioned by the operator's near-field LU, and
factors nothing itself.  The free block's leaves and ACA batches, the
field's panel sum and the plane-source chunks of the field's signature
sum run on a pool that each public call makes for itself (``_pool``);
the kernel factors, the near-field LU, the matvec and the rest of the
field's kernel part run on the calling thread.  No pool task calls a
public function of the package's layer modules: ``bench/tracing.py``
keeps one span stack for them.  ``assemble`` and ``solve`` each hold one
cap of one BLAS thread for the whole call.
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
from scipy.spatial.distance import cdist

from .blas import one_blas_thread
from .errors import DomainError, SolveError
from .ground_kernel import (
    interior_inner_cap,
    receiver_harmonics,
    source_signature_batch,
    source_signature_sum,
)
from .harmonics import build_spectral_constants, check_points, check_truncation
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


def _panel_table(mesh: PanelMesh) -> np.ndarray:
    """What :func:`_single_layer_bare` reads of each panel, ``(22, N)``, one
    row per field: vertex 0; the panel's frame, edge 0's tangent e1, then
    e2 = n x e1 and the normal n; vertex 1 at (l0, 0) and vertex 2 at
    (x2, y2) in that frame; edges 1 and 2 each as its in-frame tangent and
    length; and twice the area, l0 y2.  Every entry is a function of its
    own panel's arrays alone, computed component by component."""
    def dot(a, b):
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]

    v0 = mesh.face_vertices[:, 0]
    e1 = mesh.edge_tangents[:, 0]
    e2 = -mesh.edge_normals[:, 0]
    t1, t2 = mesh.edge_tangents[:, 1], mesh.edge_tangents[:, 2]
    l0, l1, l2 = mesh.edge_lengths.T
    d2 = mesh.face_vertices[:, 2] - v0
    x2, y2 = dot(d2, e1), dot(d2, e2)
    return np.stack([
        *v0.T, *e1.T, *e2.T, *mesh.normals.T,
        l0, x2, y2, dot(t1, e1), dot(t1, e2), l1, dot(t2, e1), dot(t2, e2), l2, l0 * y2,
    ])


# Added to the squared height: keeps every vertex distance and every
# (h^2 + z^2) of an edge term positive, so a point on a vertex or an edge
# line takes no 0/0 and no log(0); it moves nothing above 1e-142 in length.
_TINY = 1e-300


def _edge_log(z, sigma, length, r_start, r_end, hh):
    """-z ln(A+ / A-) of one edge: ``z`` is the signed distance of the
    point's foot from the edge line, outward; ``sigma`` the foot's
    coordinate along the edge from its start vertex; ``r_start``/``r_end``
    the point's distances from the edge's vertices; ``hh`` the squared
    height (plus ``_TINY``).  At each vertex, s its coordinate from the
    foot, A = R + s, taken where s < 0 as (h^2 + z^2) / (R - s), which
    does not cancel."""
    hz2 = hh + z * z
    s_end = length - sigma
    a_start = r_start + np.abs(sigma)
    a_end = r_end + np.abs(s_end)
    a_start = np.where(sigma > 0.0, hz2 / a_start, a_start)
    a_end = np.where(s_end < 0.0, hz2 / a_end, a_end)
    return z * np.log(a_start / a_end)


def _single_layer_bare(panel, point):
    """Integral of 1/|y - x| over triangles, in closed form.

    ``panel`` holds :func:`_panel_table` rows along its first axis (all
    columns, some, or one) and ``point`` the evaluation points' x, y, z
    along its first axis; their trailing shapes broadcast.  The integral is
    the sum over edges of -z ln(A+ / A-) (Wilton et al., IEEE TAP 32(3),
    1984; see :func:`_edge_log`) minus |h| |Omega|, Omega the solid angle
    the triangle subtends (van Oosterom & Strackee, IEEE TBME 30(2), 1983).
    Each vertex distance is computed once, every dot product component by
    component, in the panel's frame.  Finite for points on the panel, its
    edges and its vertices.
    """
    (ox, oy, oz, e1x, e1y, e1z, e2x, e2y, e2z, nx, ny, nz,
     l0, x2, y2, c1, s1, l1, c2, s2, l2, area2) = panel
    dx, dy, dz = point[0] - ox, point[1] - oy, point[2] - oz
    # the point in the panel's frame: (xi, eta) in the plane, h above it
    xi = dx * e1x + dy * e1y + dz * e1z
    eta = dx * e2x + dy * e2y + dz * e2z
    h = dx * nx + dy * ny + dz * nz
    h2 = h * h
    hh = h2 + _TINY
    # in-plane offsets from vertex 1, (u1, eta), and vertex 2, (u2, w2)
    u1 = xi - l0
    u2, w2 = xi - x2, eta - y2
    eta2 = eta * eta
    r0 = np.sqrt(xi * xi + eta2 + hh)
    r1 = np.sqrt(u1 * u1 + eta2 + hh)
    r2 = np.sqrt(u2 * u2 + w2 * w2 + hh)
    total = (
        _edge_log(-eta, xi, l0, r0, r1, hh)
        + _edge_log(u1 * s1 - eta * c1, u1 * c1 + eta * s1, l1, r1, r2, hh)
        + _edge_log(u2 * s2 - w2 * c2, u2 * c2 + w2 * s2, l2, r2, r0, hh)
    )
    # tan(Omega / 2) = a0.(a1 x a2) / (R0 R1 R2 + (a0.a1) R2 + (a0.a2) R1
    # + (a1.a2) R0), a_q vertex q less the point: the triple product is
    # -h l0 y2, and a_p.a_q the in-plane part plus h^2.  Where h = 0 the
    # term is 0, and arctan2(0, x) costs what skipping those pairs would.
    habs = np.abs(h)
    ew2 = eta * w2
    den = (
        r0 * r1 * r2
        + (xi * u1 + eta2 + h2) * r2
        + (xi * u2 + ew2 + h2) * r1
        + (u1 * u2 + ew2 + h2) * r0
    )
    return total - 2.0 * habs * np.arctan2(habs * area2, den)


def triangle_single_layer(mesh: PanelMesh, y) -> np.ndarray:
    """Single-layer potential of a unit density over each panel of
    ``mesh``, ``int_panel G(y, x) dS``, at one point ``y``: ``(N,)``, exact
    for any evaluation point.  One closed form (:func:`_single_layer_bare`)
    serves this, the free-space block and the field's panel sum.  A ``y``
    that :func:`check_points` refuses raises :class:`DomainError`."""
    bare = _single_layer_bare(_panel_table(mesh), check_points(y, one=True)[0])
    return bare / _FOUR_PI


# Field points per task of the field's panel sum: a 256 x N block of
# entries while the task runs (13 MB at N = 6306), reduced against the
# density before the task returns.
_ROW_BLOCK = 256
# Near pairs per call of the closed form.  A 256-row block has about
# 60 000; in one call their temporaries took bump_p104's peak RSS from
# 275-283 MB to 308-309 MB.
_PAIR_BATCH = 8192
# The near-field radius in mean panel diameters, inside which entries take
# the closed form; far blocks lie this far apart, so ACA sees monopoles only.
_NEAR_FIELD = 5.0
# Panels per leaf of the cluster tree, at most.  Of 32, 64 and 128, 64 gave
# the fastest matvec at N = 3691 and 6306 (2.9 and 7.3 ms, one thread),
# storing 43 and 74 MB; 128 stored 67 and 107 MB.
_LEAF = 64
# Relative Frobenius accuracy at which ACA stops on a far block.
_ACA_TOL = 1e-6
# Rows and columns of the far blocks of one shape stepped together by one
# ACA task: B blocks of m x n make B (m + n).
_ACA_BATCH = 1 << 16


@contextlib.contextmanager
def _pool():
    """``(pool, workers)`` for one public call: one worker per CPU this
    process may use now.  Tasks split at fixed boundaries, so every result
    is bitwise the same for any worker count; NumPy releases the GIL in
    all of it.  However the block is left, queued tasks are cancelled and
    running ones waited for, so no task or thread outlives the call."""
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # not on macOS or Windows
        workers = os.cpu_count() or 1
    pool = ThreadPoolExecutor(workers, thread_name_prefix="groundbem")
    try:
        yield pool, workers
    finally:
        pool.shutdown(cancel_futures=True)


def _pair_entries(table: np.ndarray, points: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Closed-form free-space entry of panel ``cols[k]`` at ``points[k]``,
    ``(len(cols),)``, ``_PAIR_BATCH`` pairs a call, each batch's panel data
    gathered from ``table`` (``_panel_table``)."""
    out = np.empty(cols.size)
    for k in range(0, cols.size, _PAIR_BATCH):
        batch = slice(k, k + _PAIR_BATCH)
        out[batch] = _single_layer_bare(table[:, cols[batch]], points[batch].T) / _FOUR_PI
    return out


def _entries(
    mesh: PanelMesh, table: np.ndarray, points: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Free-space entries of the panels ``cols`` at ``points``,
    ``(len(points), len(cols))``: the closed form (:func:`_pair_entries`)
    for pairs closer than the near-field radius, ``_NEAR_FIELD`` mean panel
    diameters, the centroid monopole for all others, every distance from
    ``cdist``."""
    block = cdist(points, mesh.centroids[cols])
    i, j = np.nonzero(block < _NEAR_FIELD * mesh.mean_diameter)
    block *= _FOUR_PI
    with np.errstate(divide="ignore"):
        np.divide(mesh.areas[cols], block, out=block)
    block[i, j] = _pair_entries(table, points[i], cols[j])
    return block


def _panel_sum(mesh: PanelMesh, points: np.ndarray, sigma: np.ndarray, pool: ThreadPoolExecutor):
    """Single layer of the density ``sigma`` at every point, ``(len(points),)``,
    started on ``pool``, one task per ``_ROW_BLOCK`` points, each of which
    reduces its rows of :func:`_entries` against ``sigma``.  Returns the
    result, filled once every task is done, and the tasks."""
    table = _panel_table(mesh)
    cols = np.arange(len(mesh))
    out = np.empty(points.shape[0])

    def rows_task(i0):
        rows = slice(i0, i0 + _ROW_BLOCK)
        np.dot(_entries(mesh, table, points[rows], cols), sigma, out=out[rows])

    return out, [pool.submit(rows_task, i0) for i0 in range(0, points.shape[0], _ROW_BLOCK)]


# ---------------------------------------------------------------------------
# The compressed free-space block
# ---------------------------------------------------------------------------


def _cluster_tree(points: np.ndarray) -> tuple:
    """Median bisection of ``points``: ``(order, nodes)``, ``order`` the
    point at each tree position and ``nodes[k] = (start, stop, lo, hi,
    kids)``, node k holding the positions start to stop, ``lo``/``hi``
    their bounding box and ``kids`` its two halves' node numbers, or ()
    for a leaf of at most ``_LEAF`` points.  A node splits along its
    box's longest side, at the stable sort's median; node 0 is the root."""
    order = np.arange(len(points))
    nodes = []

    def split(start, stop):
        pts = points[order[start:stop]]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        k = len(nodes)
        nodes.append(None)
        kids = ()
        if stop - start > _LEAF:
            part = np.argsort(pts[:, np.argmax(hi - lo)], kind="stable")
            order[start:stop] = order[start:stop][part]
            mid = (start + stop) // 2
            kids = (split(start, mid), split(mid, stop))
        nodes[k] = (start, stop, lo, hi, kids)
        return k

    split(0, len(points))
    return order, nodes


def _partition(nodes: list, r_far: float) -> tuple:
    """Block partition of the root against itself: ``(near, far)``, lists of
    node pairs (rows, columns).  A pair is far (admissible) when its boxes
    lie at least ``max(r_far, the smaller box diagonal)`` apart, near when
    it is not and both are leaves; otherwise each node that is not a leaf
    splits.  Every (row, column) position lies in exactly one block."""
    boxes = [(lo.tolist(), hi.tolist()) for _, _, lo, hi, _ in nodes]
    diam = [math.dist(lo, hi) for lo, hi in boxes]
    near, far = [], []

    def visit(s, t):
        (slo, shi), (tlo, thi) = boxes[s], boxes[t]
        skids, tkids = nodes[s][4], nodes[t][4]
        gap = math.hypot(*(max(0.0, a - b, c - d) for a, b, c, d in zip(tlo, shi, slo, thi)))
        if gap >= max(r_far, min(diam[s], diam[t])):
            far.append((s, t))
        elif not skids and not tkids:
            near.append((s, t))
        else:
            for a in skids or (s,):
                for b in tkids or (t,):
                    visit(a, b)

    visit(0, 0)
    return near, far


def _aca(points: np.ndarray, rows: np.ndarray, cols: np.ndarray, m: int, n: int) -> list:
    """Adaptive cross approximation with partial pivoting (Bebendorf, Numer.
    Math. 86, 2000) of the blocks ``1 / |p_r - p_c|``, r from ``rows[b]`` to
    ``rows[b] + m`` and c from ``cols[b]`` to ``cols[b] + n`` (positions into
    ``points``), all blocks stepped together.  Returns one ``(u, v)`` per
    block, in the order given: the block is ``u @ v``, u ``(m, k)`` and v
    ``(k, n)``, k its rank.

    A block stops when its last cross term's Frobenius norm falls to
    ``_ACA_TOL`` of its whole approximation's, when its residual row is
    zero, or at rank min(m, n); each next pivot row is the largest entry of
    the last column among rows not yet taken.  A stopped block keeps a copy
    of its terms so far; the stopped blocks leave the batch once they are
    half of it."""
    live = np.arange(len(rows))
    y = points[rows[:, None] + np.arange(m)]
    x = points[cols[:, None] + np.arange(n)]
    u, v = np.zeros((live.size, m, min(m, n, 16))), np.zeros((live.size, min(m, n, 16), n))
    pivot = np.zeros(live.size, dtype=np.intp)
    taken = np.zeros((live.size, m), dtype=bool)
    norm2 = np.zeros(live.size)
    kept = [None] * live.size
    running = np.ones(live.size, dtype=bool)
    small_before = np.zeros(live.size, dtype=bool)
    for k in range(min(m, n)):
        if k == u.shape[2]:  # room for 8 more terms
            u = np.concatenate([u, np.zeros((live.size, m, 8))], axis=2)
            v = np.concatenate([v, np.zeros((live.size, 8, n))], axis=1)
        at = np.arange(live.size)
        # the residual's pivot row, then its column at the row's largest entry
        d = x - y[at, pivot][:, None]
        row = 1.0 / np.sqrt(np.einsum("bnc,bnc->bn", d, d))
        row -= (u[at, pivot, :k][:, None] @ v[:, :k])[:, 0]
        j = np.argmax(np.abs(row), axis=1)
        delta = row[at, j]
        d = y - x[at, j][:, None]
        col = 1.0 / np.sqrt(np.einsum("bmc,bmc->bm", d, d))
        col -= (u[:, :, :k] @ v[at, :k, j][..., None])[..., 0]
        zero = delta == 0.0  # nothing left to add
        row /= np.where(zero, 1.0, delta)[:, None]
        row[zero] = col[zero] = 0.0
        u[:, :, k], v[:, k] = col, row
        # |S_k|^2 = |S_(k-1)|^2 + 2 sum_l (u_l.u_k)(v_l.v_k) + |u_k|^2 |v_k|^2
        cross = (col[:, None] @ u[:, :, :k]) @ (v[:, :k] @ row[..., None])
        size2 = np.einsum("bm,bm->b", col, col) * np.einsum("bn,bn->b", row, row)
        norm2 += 2.0 * cross[:, 0, 0] + size2
        taken[at, pivot] = True
        pivot = np.argmax(np.where(taken, -1.0, np.abs(col)), axis=1)
        small = size2 <= _ACA_TOL ** 2 * norm2
        stop = running & (zero | (small & small_before) | (k + 1 == min(m, n)))
        small_before = small
        for b in np.flatnonzero(stop):
            kept[live[b]] = (u[b, :, :k + 1].copy(), v[b, :k + 1].copy())
        running &= ~stop
        if not running.any():
            break
        if 2 * np.count_nonzero(running) <= running.size:  # drop the stopped blocks
            go = running
            live, y, x, u, v = live[go], y[go], x[go], u[go], v[go]
            pivot, taken, norm2, small_before = pivot[go], taken[go], norm2[go], small_before[go]
            running = running[go]
    return kept


@dataclass(frozen=True, eq=False)
class FreeOperator:
    """Free-space operator of one mesh: its block, compressed on one cluster
    tree of the centroids (:func:`_cluster_tree`, :func:`_partition`), and
    ``near_lu``, the preconditioner of :func:`solve`.  :func:`assemble`
    makes both, and nothing changes them after, so systems on any thread
    may share them.

    ``order`` holds the panel at each tree position.  Leaf k of the tree
    holds the positions ``leaves[k]`` (a slice); its near blocks are stored
    densely, together, as ``near[k]``, its panels' rows against the panels
    ``near_cols[k]``, exactly as :func:`_entries` gives them.

    A far (admissible) block holds only centroid monopoles ``w_c / |p_r -
    p_c|``, ``weights`` the w = area / 4 pi of each tree position.  Its
    mirror block is far too, and both are ``G diag(w)`` of one symmetric
    kernel block G = 1/|p_r - p_c|, so one ACA of G (:func:`_aca`), u v,
    serves both: u on the rows' side and v^T on the columns'.  Each tree
    node with far blocks keeps its sides' factors side by side, as
    ``clusters``: ``(positions, q, partner)``, q ``(len(positions), R)``,
    each column's partner column, across the block, at ``partner`` in the
    numbering of all nodes' columns in turn.  ``nbytes`` counts every
    array the block stores, not the LU; no (N, N) array is ever held.

    ``near_lu`` is a ``scipy.sparse.linalg.splu`` factor of the block's
    entries for the centroid pairs within ``_NEAR_RADIUS`` mean panel
    diameters, the diagonal among them, in closed form (``_near_lu``):
    54-221 L + U entries a row where measured, not N.
    """

    mesh: PanelMesh
    order: np.ndarray
    weights: np.ndarray
    leaves: tuple
    near: tuple
    near_cols: tuple
    clusters: tuple
    near_lu: SuperLU = field(repr=False)

    @property
    def shape(self) -> tuple:
        return (self.order.size, self.order.size)

    @property
    def nbytes(self) -> int:
        arrays = [self.order, self.weights, *self.near, *self.near_cols]
        arrays += [a for _, q, partner in self.clusters for a in (q, partner)]
        return sum(a.nbytes for a in arrays)

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """The block times ``vec``, ``(N,)`` or ``(N, k)``, on the calling
        thread: each leaf's near blocks in one product, then the far blocks
        in two passes over the nodes, ``q^T`` times the weighted vector
        into every column's coefficient, then ``q`` times its columns'
        partners' coefficients.  It reads each stored byte once or twice,
        at the speed of memory: a pool of two threads made it no faster,
        and its tasks' hand-offs slower."""
        out = np.empty(vec.shape)
        for leaf, near, cols in zip(self.leaves, self.near, self.near_cols):
            out[self.order[leaf]] = near @ vec[cols]
        if self.clusters:
            weighted = vec[self.order] * self.weights.reshape(-1, *[1] * (vec.ndim - 1))
            coef = np.concatenate([q.T @ weighted[at] for at, q, _ in self.clusters])
            far = np.zeros(vec.shape)
            for at, q, partner in self.clusters:
                far[at] += q @ coef[partner]
            out[self.order] += far
        return out


def _hmatrix(mesh: PanelMesh, table: np.ndarray, pool: ThreadPoolExecutor) -> tuple:
    """Start the free block of ``mesh`` on ``pool``: one task per
    leaf's near blocks, filled by :func:`_entries` from ``table``
    (``_panel_table``), and one per batch of far blocks of one shape, at
    most ``_ACA_BATCH`` of their rows and columns (:func:`_aca`), each block
    taken with its mirror.  Batches split at fixed boundaries.  Returns the
    tasks, each of which returns the ``time.perf_counter()`` at which it
    finished, and a function that builds the :class:`FreeOperator` around
    a given ``near_lu`` once every task is done.  Far blocks lie at least
    the near-field radius, ``_NEAR_FIELD`` mean panel diameters, apart, so
    every entry they hold is a monopole."""
    centroids = mesh.centroids
    order, nodes = _cluster_tree(centroids)
    near_pairs, far_pairs = _partition(nodes, _NEAR_FIELD * mesh.mean_diameter)
    leaf_of = {s: k for k, s in enumerate(s for s, node in enumerate(nodes) if not node[4])}
    leaves = [slice(nodes[s][0], nodes[s][1]) for s in leaf_of]
    cols_of = [[] for _ in leaves]
    for s, t in near_pairs:
        cols_of[leaf_of[s]].append(order[nodes[t][0]:nodes[t][1]])
    near_cols = [np.concatenate(c) for c in cols_of]
    shapes = {}
    for s, t in far_pairs:
        if s < t:  # its mirror (t, s) is far too
            shape = (nodes[s][1] - nodes[s][0], nodes[t][1] - nodes[t][0])
            shapes.setdefault(shape, []).append((s, t))
    batches = []
    for (m, n), pairs in sorted(shapes.items()):
        size = max(1, _ACA_BATCH // (m + n))
        batches += [(np.asarray(pairs[b:b + size]), m, n) for b in range(0, len(pairs), size)]
    tree_points = centroids[order]
    starts = np.array([node[0] for node in nodes])
    near = [None] * len(leaves)
    far = [None] * len(batches)

    def near_task(k):
        near[k] = _entries(mesh, table, tree_points[leaves[k]], near_cols[k])
        return time.perf_counter()

    def far_task(b):
        pairs, m, n = batches[b]
        far[b] = _aca(tree_points, starts[pairs[:, 0]], starts[pairs[:, 1]], m, n)
        return time.perf_counter()

    def build(near_lu):
        # node s: the other node t of each of its far blocks, and s's side
        # of their factors, u for the block (s, t) with s < t, else v^T
        sides = {}
        for (pairs, _, _), factors in zip(batches, far):
            for (s, t), (u, v) in zip(pairs.tolist(), factors):
                sides.setdefault(s, {})[t] = u
                sides.setdefault(t, {})[s] = v.T
        column, total = {}, 0  # the first column of node s's side of (s, t)
        for s in sorted(sides):
            for t, q in sides[s].items():
                column[s, t] = total
                total += q.shape[1]
        clusters = []
        for s in sorted(sides):
            partner = [column[t, s] + np.arange(q.shape[1]) for t, q in sides[s].items()]
            q = np.concatenate(list(sides[s].values()), axis=1)
            clusters.append((slice(nodes[s][0], nodes[s][1]), q, np.concatenate(partner)))
            sides[s] = None
        weights = mesh.areas[order] / _FOUR_PI
        return FreeOperator(
            mesh, order, weights, tuple(leaves), tuple(near), tuple(near_cols), tuple(clusters),
            near_lu,
        )

    tasks = [pool.submit(near_task, k) for k in range(len(leaves))]
    tasks += [pool.submit(far_task, b) for b in range(len(batches))]
    return tasks, build


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

    ``p``, an integer from 2 to ``P_HARD_LIMIT``, caps the truncation of
    the kernel term: the paper's choice for receivers out to ``r0``.  The
    degrees used follow from the receivers' radii and ``prescribed_eps``,
    the target kernel accuracy, which also sets the warnings; only a
    kernel term reads either.

    ``solver`` is checked to be ``direct`` or ``iterative`` and read by
    nothing: every system takes :func:`solve`'s one route.  The benchmark's
    workloads still set it.
    """

    p: int = 12
    solver: str = "direct"
    prescribed_eps: float = 1e-4

    def __post_init__(self):
        check_truncation(self.p)
        if self.solver not in ("direct", "iterative"):
            raise DomainError(f"unknown solver {self.solver!r}")
        if not 0.0 < self.prescribed_eps < 1.0:
            raise DomainError("prescribed_eps must lie in (0, 1)")


# The near set's radius, in mean panel diameters, and lgmres's stop: of radii
# 1 to 2 and stops 1e-13 and 1e-14, the fastest pair on both benchmark bumps
# that keeps a 248-panel bump's solve within 1e-12 (2.0e-13, elementwise) of
# a dense LU of its whole operator.
_NEAR_RADIUS = 1.25
_LGMRES_RTOL = 1e-14
# Relative residual every solution must meet.
_SOLVE_RTOL = 1e-10


def _condition(operator: FreeOperator) -> float | None:
    """Condition number of the free block for a failure report, densified
    as its product with the identity; None above 2000 panels."""
    n = operator.shape[0]
    return float(np.linalg.cond(operator.matvec(np.eye(n)))) if n <= 2000 else None


# Centroids closer than this many mean panel diameters are one collocation
# point: two faces with the same vertices, in any order, land within rounding.
_COINCIDENT = 1e-12


def _refuse_coincident(mesh: PanelMesh, tree: cKDTree) -> None:
    """Raise SolveError (condition inf) naming the first two panels whose
    centroids lie within ``_COINCIDENT`` mean panel diameters (``tree`` is
    their k-d tree): their rows of every system on the mesh are equal."""
    pairs = tree.query_pairs(_COINCIDENT * mesh.mean_diameter, output_type="ndarray")
    if pairs.size:
        i, j = min(pairs.tolist())
        raise SolveError(
            f"panels {i} and {j} have coincident collocation points (centroids within "
            f"{_COINCIDENT:g} mean panel diameters), so the system is singular",
            condition=math.inf,
        )


def _near_lu(mesh: PanelMesh, table: np.ndarray, tree: cKDTree) -> SuperLU:
    """``near_lu`` of the free block of ``mesh`` (see :class:`FreeOperator`),
    ``tree`` the centroids' k-d tree.  ``_NEAR_RADIUS`` lies inside
    ``_NEAR_FIELD``, so every entry is the closed form (:func:`_pair_entries`),
    as the block's near leaves hold it.  A zero pivot, which ``splu`` raises as
    RuntimeError, raises SolveError; ``assemble`` adds its condition."""
    # every pair within the radius, the diagonal too
    near = tree.sparse_distance_matrix(
        tree, _NEAR_RADIUS * mesh.mean_diameter, output_type="coo_matrix"
    )
    near.data = _pair_entries(table, mesh.centroids[near.row], near.col)
    try:
        return splu(near.tocsc())
    except RuntimeError as exc:
        raise SolveError(
            f"near-field preconditioner failed: a pivot of its LU is exactly zero ({exc})"
        ) from exc


@dataclass
class BemSystem:
    """Assembled collocation system.

    ``operator`` is the mesh's free-space operator, which other systems may
    share.  With a ``domain`` the ground-kernel term is ``rfac @ sfac`` on
    the rows ``kernel_rows`` (the panels off the plane) and zero on all
    others, the source factor including panel areas, both at ``degree`` (at
    most ``config.p``); ``constants`` are the cap's, for points the caller
    gives.  With ``domain=None`` it is a rank-0 term: no rows, empty
    factors.  ``rhs`` (zero unless given) and ``solution`` are per panel.
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
    def free_matrix(self) -> FreeOperator:
        """``operator`` itself, kept only because ``bench/worker.py`` reads it."""
        return self.operator

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
    ``config.prescribed_eps``, up to the cap.  The columns are degree-major,
    so each build (``_factors``) is made one degree above the degree checked
    and serves two checks as prefixes; a degree below the build keeps a copy
    of its prefix.  The kernel rows are the only interior sources, so the
    law at their radius also bounds their inner series.  Warns (at the
    caller of ``assemble``) when the cap falls short of ``prescribed_eps``
    at ``r0``, when the tail still exceeds it at the cap, and when the
    float64 range caps the inner series of a point the caller gives, whose
    signature is taken at the cap."""
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
    top = 0
    while True:
        if top < degree:
            # one degree above the one checked: its prefix serves the next check too
            top = min(p, degree + 1)
            rfac_top, sfac_top = _factors(mesh, rows, re, top)
        q = degree * (degree - 1) // 2
        rfac, sfac = rfac_top[:, :q], sfac_top[:q]
        tail = _tail_estimate(rfac, sfac)
        if tail <= eps or degree == p:
            break
        degree += 1
    if degree < top:  # keep the prefix alone, in the build's layout
        rfac, sfac = rfac.copy(order="K"), sfac.copy(order="K")
    if tail > eps:
        warnings.warn(
            f"kernel term's top degrees hold ~{tail:.2e} of it at the cap "
            f"p = {p}, worse than the prescribed {eps:.2e}",
            stacklevel=3,
        )
    return dict(kernel_rows=rows, rfac=rfac, sfac=sfac, constants=constants), tail


def assemble(mesh: PanelMesh, domain: DomainSpec | None, config: BemConfig) -> BemSystem:
    """Assemble the collocation system for the given mesh and domain.

    The free-space block uses the closed-form triangle integral for pairs
    closer than the near-field radius and the centroid monopole otherwise,
    compressed on one cluster tree (``_hmatrix``).
    Kernel source factors are built from the plane recurrences for panels
    on the extension (and any flat ground), from the interior harmonic
    series elsewhere; receiver factors only for the panels off the plane.
    Both are truncated at the degree the kernel rows need (see
    ``_kernel_factors``), at most ``config.p``.
    ``domain=None`` builds no kernel term (plain truncated BEM).  Two panels
    whose centroids coincide raise :class:`SolveError` before anything is
    built (``_refuse_coincident``).  The free block is built on this call's
    pool while the calling thread builds the kernel factors and then the
    near-field LU from the closed form (``_near_lu``), all under one cap of
    one BLAS thread, as the pool has a worker per CPU.  A zero pivot of the
    LU raises :class:`SolveError`, with the block's condition number, once
    the block's tasks are done.  No pool task or thread outlives the call,
    whether it returns or raises.  One DEBUG record on the ``groundbem``
    logger reports N, S, q, the factors' degree ``p`` (0 without a kernel
    term), the cap, the tail estimate, the pool's worker count, the
    seconds of the free block and of the kernel factors, ``wait_s``, the
    seconds ``assemble`` blocked on the pool after the kernel factors and
    the LU, and ``lu_s``, the seconds of the near-field LU.
    """
    tree = cKDTree(mesh.centroids)
    _refuse_coincident(mesh, tree)
    table = _panel_table(mesh)
    with one_blas_thread(), _pool() as (pool, workers):
        # The free block's tasks run on the pool while this thread builds
        # the kernel factors and the near-field LU, which read nothing of them.
        t_start = time.perf_counter()
        tasks, build = _hmatrix(mesh, table, pool)
        kernel, tail = {}, 0.0
        if domain is not None:
            kernel, tail = _kernel_factors(mesh, domain, config)
        t_lu = time.perf_counter()
        try:
            near_lu = _near_lu(mesh, table, tree)
        except SolveError as exc:  # a zero pivot, reported with the block's condition
            for t in tasks:
                t.result()
            exc.condition = _condition(build(None))
            raise
        t_wait = time.perf_counter()
        done = [t.result() for t in tasks]
        wait_s = time.perf_counter() - t_wait
        operator = build(near_lu)
    system = BemSystem(operator, domain, config, **kernel)
    _LOG.debug(
        "assemble n=%d s=%d q=%d p=%d cap=%d tail=%.2e workers=%d free_s=%.3f "
        "kernel_s=%.3f wait_s=%.3f lu_s=%.3f",
        len(mesh), *system.rfac.shape, system.degree or 0, config.p, tail,
        workers, max(done) - t_start, t_lu - t_start, wait_s, t_wait - t_lu,
    )
    return system


def truncated_system(system: BemSystem) -> BemSystem:
    """Plain truncated BEM on ``system``'s free-space operator, block and
    near-field LU as made: its config, no kernel term, a zero right-hand side."""
    return BemSystem(system.operator, None, system.config)


def _source_point(source, domain: DomainSpec | None) -> np.ndarray:
    xs = check_points(source, one=True)[0]
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


def solve(system: BemSystem) -> np.ndarray:
    """Solve for the panel charge density.

    lgmres runs on the factored operator (the N x N kernel product is never
    formed), preconditioned by the operator's near-field LU, which
    ``assemble`` made; its zero start vector is never applied.  It stops at
    a relative residual of 1e-14.  lgmres and the residual check hold one
    BLAS thread, as ``assemble`` does.  If lgmres does not converge,
    or the relative residual exceeds 1e-10, :class:`SolveError` is raised,
    carrying the residual reached and the free block's condition number.
    One DEBUG record on the ``groundbem`` logger reports N, S, q, the
    matvecs lgmres took and the residual.  A right-hand side with a
    non-finite entry raises :class:`DomainError` before lgmres runs.
    """
    n = system.size
    rhs = system.rhs
    if not np.all(np.isfinite(rhs)):
        raise DomainError("the right-hand side has non-finite entries")
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
    precond = LinearOperator((n, n), matvec=system.operator.near_lu.solve, dtype=float)
    with one_blas_thread():
        # a copy, as lgmres hands back a zero right-hand side itself
        # maxiter counts outer cycles of up to 31 matvecs; none measured took three
        sigma, info = lgmres(op, rhs.copy(), rtol=_LGMRES_RTOL, atol=0.0, maxiter=50, M=precond)
        resid = np.linalg.norm(apply_operator(system, sigma) - rhs) / (np.linalg.norm(rhs) or 1.0)
    _LOG.debug(
        "solve n=%d s=%d q=%d matvecs=%d residual=%.3e", n, *system.rfac.shape, matvecs, resid
    )
    if info != 0 or not resid <= _SOLVE_RTOL:
        failure = (
            f"lgmres did not converge (info = {info})" if info
            else f"solution residual exceeds {_SOLVE_RTOL:.1e}"
        )
        raise SolveError(
            f"{failure}: relative residual {resid:.3e} reached",
            condition=_condition(system.operator),
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


def evaluate_field(system: BemSystem, points, source=None) -> FieldGrid:
    """Potential of the solved system at the given points.

    The panel sum takes the free-space entries at these points from the
    row code of the free block's near leaves, uncompressed, each task of
    this call's pool reducing its rows against the solution
    (``_panel_sum``), while the calling thread takes the kernel
    part, which is truncated at its own degree: the law at the points'
    largest radius, at most ``config.p`` (warned when the cap falls short
    of ``prescribed_eps`` there).  At or below the factors' degree it
    takes a prefix of ``sfac @ solution``; above it, the signature sum of
    the panels weighted by area times solution at that degree
    (``source_signature_sum``, no (N, q) table: the plane layers and inner
    series ``sfac`` is built from, contracted with the weights), whose
    plane-source chunks go to the same pool after the panel sum's tasks;
    the result is bitwise the same for any worker count.  With a kernel
    term, every point must lie inside ``re`` (the receiver series diverges
    outside), else :class:`DomainError` is raised; the metadata gives the
    degree used (``degree``) and the cap (``p``), which, with ``re`` and
    ``r0``, are None without one.  With
    ``source`` given, the incident monopole and its kernel image are added
    and the induced part is reported separately.  Points must be finite,
    of shape (M, 3) or (3,), and none may coincide with ``source`` (one
    finite point, with a kernel term inside ``re``), else
    :class:`DomainError` is raised.
    """
    if system.solution is None:
        raise SolveError("system has no solution; call solve() first")
    pts = check_points(points)
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
        radius = float(np.max(np.linalg.norm(pts, axis=1), initial=0.0))
        if radius >= re:
            raise DomainError(
                f"field points must satisfy |y| < re = {re}: the "
                "receiver series of the ground kernel diverges outside"
            )
    with _pool() as (pool, _):
        # The panel sum, then the signature sum's plane chunks, run on the
        # pool while this thread takes the rest of the kernel part.
        free, tasks = _panel_sum(system.mesh, pts, sigma, pool)
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
            rfac_pts = receiver_harmonics(pts / re, degree) / re
            if source is not None:
                image = rfac_pts @ source_signature_batch(xs / re, system.constants)[0][:q]
            if degree <= system.degree:
                weights = system.sfac[:q] @ sigma
            else:
                weights = source_signature_sum(
                    system.mesh.centroids / re, system.mesh.areas * sigma,
                    build_spectral_constants(degree), pool,
                )
            kernel = rfac_pts @ weights
        for t in tasks:
            t.result()
    values = free + kernel
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
