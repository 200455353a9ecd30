import dataclasses
import logging
import math
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from groundbem import bem, ground_kernel
from groundbem.bem import (
    BemConfig,
    apply_ground_kernel,
    apply_operator,
    assemble,
    evaluate_field,
    set_boundary_potential,
    set_point_source_rhs,
    solve,
    triangle_single_layer,
    truncated_system,
)
from groundbem.blas import blas_thread_counts
from groundbem.errors import DomainError, SolveError
from groundbem.experiments import analytic_bump_potential, choose_truncation, field_grid
from groundbem.ground_kernel import KernelConfig, kernel_integral, receiver_harmonics
from groundbem.harmonics import P_HARD_LIMIT
from groundbem.surface_mesh import (
    EXTENSION,
    GROUND,
    SURFACE,
    DomainSpec,
    PanelMesh,
    make_bump_dip_mesh,
    make_flat_disc_mesh,
)

from conftest import (
    SpluSpy,
    densify_free_block,
    green,
    near_block_mask,
    oracle_direct_solve,
    oracle_free_block_loop,
    oracle_ground_kernel_matrix,
    oracle_single_layer_edges,
    oracle_triangle_self,
)


def one_panel(vertices, tag=GROUND):
    """The mesh of one triangle."""
    return PanelMesh(np.asarray(vertices, dtype=float), np.array([[0, 1, 2]]), np.array([tag]))


# ---------------------------------------------------------------------------
# Analytic triangle integral
# ---------------------------------------------------------------------------


def test_far_field_matches_monopole():
    panel = one_panel([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
    y = panel.centroids[0] + np.array([3.0, -5.0, 8.0])
    want = panel.areas[0] * green(y, panel.centroids[0])
    assert triangle_single_layer(panel, y)[0] == pytest.approx(want, rel=1e-4)


def test_self_term_matches_polar_oracle():
    v2 = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    panel = one_panel([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    c2 = np.mean(v2, axis=0)
    want = oracle_triangle_self(v2, c2)
    assert triangle_single_layer(panel, panel.centroids[0])[0] == pytest.approx(want, rel=1e-8)
    # off-center in-plane point as well
    pt = np.array([0.3, 0.2])
    assert triangle_single_layer(panel, (0.3, 0.2, 0.0))[0] == pytest.approx(
        oracle_triangle_self(v2, pt), rel=1e-8
    )


def test_rigid_motion_invariance(rng):
    verts = rng.uniform(-1, 1, (3, 3))
    while np.linalg.norm(np.cross(verts[1] - verts[0], verts[2] - verts[0])) < 0.3:
        verts = rng.uniform(-1, 1, (3, 3))
    y = rng.uniform(-2, 2, 3)
    rot = Rotation.from_rotvec([0.4, -0.9, 0.6]).as_matrix()
    shift = np.array([3.0, -2.0, 1.5])
    a = triangle_single_layer(one_panel(verts), y)[0]
    b = triangle_single_layer(one_panel(verts @ rot.T + shift), rot @ y + shift)[0]
    assert b == pytest.approx(a, rel=1e-13)


def test_vertex_and_edge_points_finite():
    panel = one_panel([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    for pt in [(0, 0, 0), (0.5, 0, 0), (2.5, 0, 0), (-1.0, 0.0, 0.0)]:
        val = triangle_single_layer(panel, pt)[0]
        assert math.isfinite(val)
        assert val >= 0.0


def _oracle_cases(rng):
    """Seeded triangles, each in both vertex orders (so both normal
    orientations), with the points the closed form must agree on."""
    for k in range(24):
        if k % 3:
            verts = rng.uniform(-1, 1, (3, 3))
        else:
            # flat in z = c: points in that plane have h = 0 exactly
            verts = np.column_stack([rng.uniform(-1, 1, (3, 2)), np.full(3, rng.uniform(-1, 1))])
        normal = np.cross(verts[1] - verts[0], verts[2] - verts[0])
        if np.linalg.norm(normal) < 0.2:
            continue
        normal /= np.linalg.norm(normal)
        diam = max(np.linalg.norm(verts[q] - verts[q - 1]) for q in range(3))
        centroid = verts.mean(axis=0)
        # off the plane, 0.1 to 5 diameters from the centroid
        way = rng.standard_normal((12, 3))
        way /= np.linalg.norm(way, axis=1)[:, None]
        off = centroid + way * diam * rng.uniform(0.1, 5.0, (12, 1))
        # in the plane, inside (the centroid among them) and outside the triangle
        bary = np.vstack([[1.0 / 3.0, 1.0 / 3.0], rng.uniform(-1.0, 2.0, (16, 2))])
        coplanar = verts[0] + bary @ (verts[1:] - verts[0])
        # on each edge line, before its start, on it and past its end, in
        # the plane and, with the foot past either end, above and below it
        along = np.array([-0.6, -0.1, 0.3, 0.5, 0.9, 1.2, 1.7])
        lines, past = [], []
        for q in range(3):
            edge = verts[(q + 1) % 3] - verts[q]
            outward = np.cross(edge, normal) / np.linalg.norm(edge)
            lines.append(verts[q] + along[:, None] * edge)
            for t, c, d in ((-0.4, 0.3, 0.2), (1.3, -0.2, -0.1), (2.0, 0.5, 0.4)):
                past.append(verts[q] + t * edge + diam * (c * outward + d * normal))
        points = np.vstack([off, coplanar, *lines, past, verts])
        yield verts, points
        yield verts[::-1], points


def test_closed_form_matches_three_edge_oracle():
    # an independent derivation: per edge, two arctangent differences and a
    # log at each end, in global coordinates; no RuntimeWarning anywhere,
    # vertices and edge lines included
    cases = 0
    for verts, points in _oracle_cases(np.random.default_rng(23)):
        want = oracle_single_layer_edges(verts, points)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = bem._single_layer_bare(bem._panel_table(one_panel(verts)), points.T)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        cases += 1
    assert cases >= 30


def test_single_layer_of_a_mesh_is_each_panel_alone():
    # the (N,) result broadcasts one point against the mesh arrays; each
    # entry equals the panel's own one-panel mesh bit for bit
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
    for y in (mesh.centroids[5], (0.4, -0.3, 1.2), (2.1, 0.2, 0.0)):
        got = triangle_single_layer(mesh, y)
        assert got.shape == (len(mesh),)
        alone = [
            triangle_single_layer(PanelMesh(mesh.vertices, mesh.faces[j : j + 1], mesh.tags[j : j + 1]), y)
            for j in range(len(mesh))
        ]
        assert np.array_equal(got, np.concatenate(alone))


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_system():
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
    domain = DomainSpec(r0=2.0, re=3.0)
    with pytest.warns(UserWarning):
        system = assemble(mesh, domain, BemConfig(p=12))
    return system


def test_small_mesh_size(small_system):
    # the factored-vs-dense comparisons below run on an O(200)-panel mesh
    assert 150 <= small_system.size <= 400


def test_far_pair_green_symmetry(small_system):
    mesh = small_system.mesh
    a = densify_free_block(small_system.free_matrix)
    r_nf = bem._NEAR_FIELD * mesh.mean_diameter
    n = len(mesh)
    idx = np.arange(0, n, 7)
    for i in idx:
        for j in idx:
            if i == j:
                continue
            d = np.linalg.norm(mesh.centroids[i] - mesh.centroids[j])
            if d > r_nf:
                gij = a[i, j] / mesh.areas[j]
                gji = a[j, i] / mesh.areas[i]
                assert gij == pytest.approx(gji, rel=1e-13)


def test_near_entries_are_analytic(small_system, solved_disc):
    # the small bump is one set of near leaves, the flat disc many leaves and
    # far blocks; every entry its near leaves store must equal the
    # per-column loop bit for bit, pairs within the near-field radius the
    # analytic integral and all others the centroid monopole
    assert not np.all(near_block_mask(solved_disc.free_matrix))
    for system in (small_system, solved_disc):
        mesh = system.mesh
        r_nf = bem._NEAR_FIELD * mesh.mean_diameter
        a = densify_free_block(system.free_matrix)
        near = near_block_mask(system.free_matrix)
        assert np.array_equal(a[near], oracle_free_block_loop(mesh, r_nf)[near])
        hits = 0
        for i in range(0, len(mesh), 13):
            layer = triangle_single_layer(mesh, mesh.centroids[i])
            for j in range(0, len(mesh), 11):
                if not near[i, j]:
                    continue
                d = np.linalg.norm(mesh.centroids[i] - mesh.centroids[j])
                want = (
                    layer[j]
                    if d < r_nf
                    else mesh.areas[j] * green(mesh.centroids[i], mesh.centroids[j])
                )
                assert a[i, j] == pytest.approx(want, rel=1e-12)
                hits += 1
        assert hits > 100


def test_cluster_blocks_cover_every_pair_once(pooled_problem, solved_disc):
    # the partition of the centroids' cluster tree covers every (row,
    # column) of the block exactly once; far blocks keep every pair beyond
    # the near-field radius (so every far entry is a monopole), and every
    # pair of the near-field LU lies in a near block, as the operator stores
    for mesh in (pooled_problem[0], solved_disc.mesh):
        n = len(mesh)
        r_nf = bem._NEAR_FIELD * mesh.mean_diameter
        order, nodes = bem._cluster_tree(mesh.centroids)
        assert np.array_equal(np.sort(order), np.arange(n))
        assert all(stop - start <= bem._LEAF for start, stop, _, _, kids in nodes if not kids)
        near, far = bem._partition(nodes, r_nf)
        assert far, "the mesh must have admissible blocks"
        count = np.zeros((n, n), dtype=int)
        far_mask = np.zeros((n, n), dtype=bool)
        for blocks, is_far in ((near, False), (far, True)):
            for s, t in blocks:
                rows = order[nodes[s][0]:nodes[s][1]]
                cols = order[nodes[t][0]:nodes[t][1]]
                count[np.ix_(rows, cols)] += 1
                far_mask[np.ix_(rows, cols)] = is_far
        assert np.all(count == 1)
        dist = cdist(mesh.centroids, mesh.centroids)
        assert dist[far_mask].min() >= r_nf
        assert not np.any(far_mask & (dist <= bem._NEAR_RADIUS * mesh.mean_diameter))
        system = solved_disc if mesh is solved_disc.mesh else assemble(mesh, None, BemConfig())
        assert np.array_equal(near_block_mask(system.free_matrix), ~far_mask)


def test_compressed_entries_stay_within_the_aca_tolerance(solved_disc):
    # against the per-column loop: the near leaves bit for bit, the far
    # blocks' ACA factors within _ACA_TOL in the Frobenius norm of all the
    # far entries (2.6e-7 when measured), each far entry within 1e-4
    mesh = solved_disc.mesh
    want = oracle_free_block_loop(mesh, bem._NEAR_FIELD * mesh.mean_diameter)
    got = densify_free_block(solved_disc.free_matrix)
    near = near_block_mask(solved_disc.free_matrix)
    assert np.count_nonzero(~near) > len(mesh) ** 2 / 2
    assert np.array_equal(got[near], want[near])
    far = ~near
    assert np.linalg.norm(got[far] - want[far]) <= bem._ACA_TOL * np.linalg.norm(want[far])
    assert np.max(np.abs(got[far] - want[far]) / want[far]) <= 1e-4


def test_aca_factors_each_block_of_a_batch_in_order():
    # six blocks 1/|y - x| of 20 x 28 random points in unit cubes, stepped
    # as one batch, the column cube shifted along x by 12, 2.5, 10, 1.05, 15
    # and 8: one factor pair per block, in the order given, each within
    # _ACA_TOL of its block in the Frobenius norm.  The four far blocks stop
    # by rank 11 and leave the batch while the other two run on: the 2.5
    # block past the growth step at rank 16 (rank 18 when measured), the
    # 1.05 block only at rank min(m, n) = 20
    m, n = 20, 28
    rng = np.random.default_rng(1)
    shifts = (12.0, 2.5, 10.0, 1.05, 15.0, 8.0)
    blocks = [(rng.random((m, 3)), rng.random((n, 3)) + [shift, 0.0, 0.0]) for shift in shifts]
    points = np.concatenate([np.concatenate(block) for block in blocks])
    rows = np.arange(len(blocks)) * (m + n)
    factors = bem._aca(points, rows, rows + m, m, n)
    assert len(factors) == len(blocks)
    ranks = []
    for (y, x), (u, v) in zip(blocks, factors):
        k = u.shape[1]
        assert u.shape == (m, k) and v.shape == (k, n)
        want = 1.0 / cdist(y, x)
        assert np.linalg.norm(u @ v - want) <= bem._ACA_TOL * np.linalg.norm(want)
        ranks.append(k)
    assert max(ranks[0], ranks[2], ranks[4], ranks[5]) <= 11
    assert 16 < ranks[1] < min(m, n) and ranks[3] == min(m, n)


def test_compressed_block_stores_under_half_the_dense_bytes():
    # at the wide benchmark bump's N = 6306 the dense block took 8 N^2 =
    # 318 MB; the compressed one stores near leaves, ACA factors and index
    # arrays in 77 MB when measured, and nbytes counts them all
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.1)
    assert len(mesh) == 6306
    blocks = assemble(mesh, None, BemConfig()).free_matrix
    stored = [blocks.order, blocks.weights, *blocks.near, *blocks.near_cols]
    stored += [a for _, q, partner in blocks.clusters for a in (q, partner)]
    assert blocks.nbytes == sum(a.nbytes for a in stored)
    assert blocks.nbytes <= 0.45 * 8 * len(mesh) ** 2


def test_shifted_mesh_keeps_its_near_set_and_far_entries(pooled_problem):
    # moved 1e3 along x, a mesh's free-space entries (the row code that
    # fills the near leaves and the field's panel sum) keep their near set
    # (the pairs whose entry is not the monopole) and their far entries to
    # 5e-12: the distances come from coordinate differences, not from
    # |y|^2 + |c|^2 - 2 y.c, whose rounding grows with |y|^2 and |c|^2
    mesh = pooled_problem[0]
    shifted = PanelMesh(mesh.vertices + [1e3, 0.0, 0.0], mesh.faces, mesh.tags)
    blocks, nears = [], []
    for m in (mesh, shifted):
        a = bem._entries(m, bem._panel_table(m), m.centroids, np.arange(len(m)))
        d = cdist(m.centroids, m.centroids)
        np.fill_diagonal(d, np.inf)
        mono = m.areas / (4.0 * math.pi * d)
        blocks.append(a)
        nears.append(np.abs(a - mono) > 1e-9 * mono)
    r_nf = bem._NEAR_FIELD * mesh.mean_diameter
    assert np.array_equal(nears[0], cdist(mesh.centroids, mesh.centroids) < r_nf)
    assert np.array_equal(nears[1], nears[0])
    far = ~nears[0]
    rel = np.abs(blocks[1][far] - blocks[0][far]) / blocks[0][far]
    assert np.max(rel) <= 5e-12


def test_assemble_builds_one_centroid_tree_and_the_field_none(pooled_problem, monkeypatch):
    # assemble's coincidence check and near-field LU share one k-d tree of
    # the centroids; the free block's leaves and the field's panel sum take
    # their near pairs from the distances they compute
    mesh, domain, config = pooled_problem
    built = []

    def tree(data, *args, _real=bem.cKDTree, **kwargs):
        built.append(data)
        return _real(data, *args, **kwargs)

    monkeypatch.setattr(bem, "cKDTree", tree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(mesh, domain, config)
        assert [d is mesh.centroids for d in built] == [True]
        set_point_source_rhs(system, (0.0, 0.0, 1.5))
        solve(system)
        built.clear()
        evaluate_field(system, [[0.3, 0.0, 1.2], [0.0, 0.4, 1.4]])
    assert built == []


@pytest.fixture(scope="module")
def densified(small_system):
    return oracle_ground_kernel_matrix(small_system)


def test_factored_equals_densified(small_system, densified, rng):
    bound = 3.0 * (2.0 / 3.0) ** 12
    for _ in range(10):
        v = rng.standard_normal(small_system.size)
        via_factors = apply_ground_kernel(small_system, v)
        via_dense = densified @ v
        rel = np.linalg.norm(via_factors - via_dense) / np.linalg.norm(via_dense)
        assert rel <= bound
        assert rel <= 1e-12  # same truncation on both sides: rounding only


def test_densified_entries_match_integral(small_system, densified, rng):
    # spot-check the series-built matrix against the quadrature path at
    # the truncation-error tolerance; only rows off the plane carry a
    # nonzero kernel (plane rows are checked for exact zeros instead)
    mesh = small_system.mesh
    cfg = KernelConfig(scale_radius=3.0, p=12, integral_tolerance=1e-10)
    rows = np.nonzero(mesh.tags == SURFACE)[0]
    plane_rows = np.nonzero(mesh.tags != SURFACE)[0]
    assert np.abs(densified[plane_rows]).max() == 0.0
    bound = 3.0 * (2.0 / 3.0) ** 12
    checked = 0
    for _ in range(30):
        i = int(rng.choice(rows))
        j = int(rng.integers(0, len(mesh)))
        ref = mesh.areas[j] * kernel_integral(
            mesh.centroids[i], mesh.centroids[j], cfg
        )
        if abs(ref) < 1e-12:
            continue
        assert densified[i, j] == pytest.approx(ref, rel=bound)
        checked += 1
    assert checked > 15


def test_extension_rows_have_no_kernel(small_system, rng):
    ext = small_system.mesh.tags == EXTENSION
    assert np.any(ext)
    v = rng.standard_normal(small_system.size)
    contrib = apply_ground_kernel(small_system, v)
    assert np.abs(contrib[ext]).max() == 0.0
    assert np.abs(contrib[~ext]).max() > 0.0


def test_solve_adds_kernel_on_surface_rows_only(small_system):
    # the kernel rows of panels on the plane (extension and ground) are
    # exact zeros by parity, so the receiver factor is stored only for the
    # S panels off the plane, (S, q) against the (q, N) source factor, q
    # from the factors' own degree; the direct solve must equal an LU of
    # the free block plus the scattered kernel term
    mesh = small_system.mesh
    p = small_system.degree
    q = p * (p - 1) // 2
    assert 2 <= p <= small_system.config.p
    rows = small_system.kernel_rows
    assert np.any(mesh.tags == EXTENSION)
    assert np.array_equal(rows, np.flatnonzero(mesh.centroids[:, 2] != 0.0))
    assert np.array_equal(rows, np.flatnonzero(mesh.tags == SURFACE))
    assert small_system.rfac.shape == (rows.size, q)
    assert small_system.sfac.shape == (q, small_system.size)
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    want = oracle_direct_solve(small_system)
    got = solve(small_system)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_kernel_off_system_has_no_kernel_rows(solved_disc, rng):
    assert solved_disc.kernel_rows.size == 0
    got = apply_ground_kernel(solved_disc, rng.standard_normal(solved_disc.size))
    assert got.shape == (solved_disc.size,)
    assert np.all(got == 0.0)


def test_assemble_factors_the_near_set_once(small_system, monkeypatch):
    # assemble makes the one near-field LU, with one BLAS thread: a sparse
    # matrix whose pattern is every centroid pair within the near radius
    # (the diagonal among them) and whose values are the free block's.  The
    # operator is frozen with it: a first and a second solve and a kernel-off
    # system on the same operator factor nothing, and the block is unchanged
    spy = SpluSpy(bem.splu)
    monkeypatch.setattr(bem, "splu", spy)
    with pytest.warns(UserWarning):
        system = assemble(small_system.mesh, small_system.domain, BemConfig(p=12))
    mesh = system.mesh
    free = densify_free_block(system.free_matrix)
    ((near, counts),) = spy.calls
    assert near.format == "csc" and near.shape == free.shape
    dist = np.linalg.norm(mesh.centroids[:, None] - mesh.centroids[None, :], axis=-1)
    rows, cols = np.nonzero(dist <= bem._NEAR_RADIUS * mesh.mean_diameter)
    coo = near.tocoo()
    assert sorted(zip(coo.row, coo.col)) == sorted(zip(rows, cols))
    assert np.array_equal(coo.data, free[coo.row, coo.col])
    assert counts and set(counts.values()) == {1}
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.operator.near_lu = None

    del spy.calls[:]
    set_point_source_rhs(system, (0.0, 0.0, 1.5))
    first = solve(system)
    assert np.array_equal(solve(system), first)
    truncated = truncated_system(system)
    assert truncated.operator is system.operator
    assert system.free_matrix is system.operator
    set_point_source_rhs(truncated, (0.0, 0.0, 1.5))
    solve(truncated)
    assert spy.calls == []
    assert np.array_equal(densify_free_block(system.free_matrix), free)


def test_systems_sharing_an_operator_solve_on_threads_at_once(small_system, monkeypatch):
    # a system and its truncated system, each twice, solved at the same time
    # on more threads than cores with a short switch interval, give bit for
    # bit their sequential solutions, make no LU, and leave the BLAS thread
    # counts as they found them
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    truncated = truncated_system(small_system)
    set_point_source_rhs(truncated, (0.0, 0.0, 1.5))
    want = [solve(small_system), solve(truncated)] * 2
    systems = [small_system, truncated]
    systems += [dataclasses.replace(system) for system in systems]
    before = blas_thread_counts()
    spy = SpluSpy(bem.splu)
    monkeypatch.setattr(bem, "splu", spy)
    start = threading.Barrier(len(systems))

    def solve_together(system):
        start.wait(timeout=60)
        return solve(system)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(systems)) as pool:
            tasks = [pool.submit(solve_together, system) for system in systems]
            got = [t.result(timeout=120) for t in tasks]
    finally:
        sys.setswitchinterval(interval)
    assert spy.calls == []
    for sigma, expected in zip(got, want):
        assert np.array_equal(sigma, expected)
    assert blas_thread_counts() == before


@pytest.fixture(scope="module")
def p4_system():
    # q = 6 kernel columns, the fewest of the oracle cases
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
    with pytest.warns(UserWarning):
        system = assemble(mesh, DomainSpec(r0=2.0, re=3.0), BemConfig(p=4))
    set_point_source_rhs(system, (0.0, 0.0, 1.5))
    return system


@pytest.fixture(scope="module")
def dip_system():
    # the dip study's closest extension, ratio 1.1 with p = 97 for 1e-4:
    # thousands of kernel columns, the most the near-field preconditioner
    # leaves lgmres to make up for
    mesh = make_bump_dip_mesh(-1, r0=1.0, re=1.1, target_edge=0.11)
    system = assemble(mesh, DomainSpec(r0=1.0, re=1.1), BemConfig(p=97))
    set_point_source_rhs(system, (0.0, 0.0, 0.5))
    return system


@pytest.mark.parametrize(
    "name, rtol", [("p4_system", 1e-12), ("dip_system", 1e-10), ("solved_disc", 1e-12)]
)
def test_solve_matches_densified_oracle(request, name, rtol):
    # small_system is checked in test_solve_adds_kernel_on_surface_rows_only;
    # the dip's 4465 kernel columns enter the oracle's dense matrix and the
    # solve's matvecs in different orders (3.5e-14 apart when measured)
    system = request.getfixturevalue(name)
    want = oracle_direct_solve(system)
    got = solve(system)
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_solve_is_deterministic(dip_system):
    first = solve(dip_system)
    assert np.array_equal(solve(dip_system), first)


def test_solve_logs_sizes_matvecs_and_residual(small_system, dip_system, solved_disc, caplog):
    # preconditioned by the near-field LU, lgmres reaches its 1e-14 stop in
    # a few dozen matvecs, even with the dip's thousands of kernel columns
    # (29, 31 and 31 when measured)
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    caplog.set_level(logging.DEBUG, logger="groundbem")
    systems = (small_system, dip_system, solved_disc)
    for system in systems:
        solve(system)
    records = [r for r in caplog.records if r.name == "groundbem"]
    assert len(records) == len(systems)
    for system, record in zip(systems, records):
        assert record.levelno == logging.DEBUG
        words = record.getMessage().split()
        assert words[0] == "solve"
        fields = dict(w.split("=") for w in words[1:])
        assert set(fields) == {"n", "s", "q", "matvecs", "residual"}
        s, q = system.rfac.shape
        assert (int(fields["n"]), int(fields["s"]), int(fields["q"])) == (system.size, s, q)
        assert 1 <= int(fields["matvecs"]) <= 45
        assert float(fields["residual"]) <= 1e-14


def test_near_factor_stays_sparse(dip_system):
    # the factor's fill stays a bounded number of entries a row (131 on the
    # dip when measured), where a dense LU holds N
    lu = dip_system.operator.near_lu
    assert lu.L.nnz + lu.U.nnz < 200 * dip_system.size


def test_unconverged_lgmres_raises_with_residual_and_condition(small_system, monkeypatch):
    # lgmres stopping short of its 1e-14 stop is a failure, reported like a
    # residual over 1e-10: with the residual reached and the condition number
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))

    def short(*args, _real=bem.lgmres, **kwargs):
        sigma, _ = _real(*args, **kwargs)
        return sigma, 5

    monkeypatch.setattr(bem, "lgmres", short)
    with pytest.raises(SolveError, match=r"info = 5\): relative residual \d\.\d{3}e-\d+ reached") as exc:
        solve(small_system)
    assert exc.value.condition == bem._condition(small_system.free_matrix) > 1.0


@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_solve_applies_the_operator_once_per_logged_matvec(
    small_system, solver, monkeypatch, caplog
):
    # lgmres's operator states its dtype, so scipy applies it to no probe
    # vector before lgmres starts: the operator is applied once per matvec
    # lgmres logs, and once more for the final residual check, and never
    # to lgmres's zero start vector
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    calls, before_lgmres = [], []

    def counted(system, vec, _real=bem.apply_operator):
        calls.append(np.any(vec))
        return _real(system, vec)

    def entered(*args, _real=bem.lgmres, **kwargs):
        before_lgmres.append(len(calls))
        return _real(*args, **kwargs)

    monkeypatch.setattr(bem, "apply_operator", counted)
    monkeypatch.setattr(bem, "lgmres", entered)
    monkeypatch.setattr(small_system, "config", BemConfig(p=12, solver=solver))
    caplog.set_level(logging.DEBUG, logger="groundbem")
    solve(small_system)
    (record,) = [r for r in caplog.records if r.name == "groundbem"]
    fields = dict(w.split("=") for w in record.getMessage().split()[1:])
    assert before_lgmres == [0] and all(calls)
    assert len(calls) == int(fields["matvecs"]) + 1


def test_truncation_error_halves_twice_per_two_orders(rng):
    # at ratio 2, raising p by 2 cuts the series-vs-integral discrepancy
    # by about (1/2)^2
    from groundbem.ground_kernel import kernel_series

    y = np.array([0.9, 0.2, 0.35])
    x = np.array([0.3, -0.8, 0.45])
    cfg = KernelConfig(scale_radius=2.0, p=8, integral_tolerance=1e-12)
    ref = kernel_integral(y, x, cfg)
    errs = []
    for p in (8, 10, 12):
        errs.append(abs(kernel_series(y, x, KernelConfig(scale_radius=2.0, p=p)) - ref))
    for e1, e2 in zip(errs, errs[1:]):
        assert 2.0 <= e1 / e2 <= 8.0  # nominal 4, within a factor 2


# ---------------------------------------------------------------------------
# Kernel truncation degrees
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def anchor_bump():
    # the paper's bump anchor, re/r0 = 1.0935 so the cap is p = 104, on a
    # coarse mesh; kernel rows within |y| <= 1, field points out to 1.8
    mesh = make_bump_dip_mesh(1, r0=2.0, re=2.187, target_edge=0.2)
    config = BemConfig(p=choose_truncation(2.0, 2.187, 1e-4), prescribed_eps=1e-4)
    return mesh, DomainSpec(r0=2.0, re=2.187), config, field_grid(mesh, 2.0, 8, 9)


def _solved_field(mesh, domain, config, pts, source=(0.0, 0.0, 2.0)):
    system = assemble(mesh, domain, config)
    set_point_source_rhs(system, source)
    solve(system)
    return system, evaluate_field(system, pts, source=source)


def test_degrees_from_the_receivers_match_a_solve_held_at_the_cap(anchor_bump, monkeypatch):
    # the factors take the rows' degree and the field its points' degree,
    # both far below the cap; held at the cap (the law patched to return
    # it), sigma and the field move by at most prescribed_eps
    mesh, domain, config, pts = anchor_bump
    system, grid = _solved_field(mesh, domain, config, pts)
    law = bem.choose_truncation
    monkeypatch.setattr(bem, "choose_truncation", lambda r0, re, eps: config.p)
    held, held_grid = _solved_field(mesh, domain, config, pts)
    monkeypatch.setattr(bem, "choose_truncation", law)
    assert config.p == held.degree == held_grid.metadata["degree"] == 104
    radius = np.linalg.norm(mesh.centroids[system.kernel_rows], axis=1).max()
    assert law(radius, 2.187, 1e-4) <= system.degree <= 16
    field_degree = law(np.linalg.norm(pts, axis=1).max(), 2.187, 1e-4)
    assert system.degree < grid.metadata["degree"] == field_degree < config.p
    assert grid.metadata["p"] == config.p
    eps = config.prescribed_eps
    sigma, held_sigma = system.solution, held.solution
    assert np.linalg.norm(sigma - held_sigma) <= eps * np.linalg.norm(held_sigma)
    assert np.linalg.norm(grid.values - held_grid.values) <= eps * np.linalg.norm(held_grid.values)
    # the receiver factor is the cap's first q columns, bit for bit
    q = system.rfac.shape[1]
    assert q == system.degree * (system.degree - 1) // 2
    assert np.array_equal(system.rfac, held.rfac[:, :q])
    # a field within the rows' degree (here inside the bump, where the
    # values are still given) takes the prefix of sfac @ sigma
    near = np.array([[0.3, 0.0, 0.8], [0.0, 0.5, 0.6]])
    inner = evaluate_field(system, near)
    degree = inner.metadata["degree"]
    assert degree <= system.degree
    rfac_pts = receiver_harmonics(near / 2.187, degree) / 2.187
    kernel = rfac_pts @ (system.sfac @ sigma)[: degree * (degree - 1) // 2]
    with bem._pool() as (pool, _):
        free, tasks = bem._panel_sum(mesh, near, sigma, pool)
        for t in tasks:
            t.result()
    np.testing.assert_allclose(inner.values, free + kernel, rtol=1e-12)


def test_tail_check_raises_the_degree_the_law_leaves_short(caplog, monkeypatch):
    # the law patched to a third of the rows' radius predicts faster decay
    # than the degree blocks show; the tail check raises the degree until
    # the top two blocks hold at most prescribed_eps of the term, and no
    # further
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
    domain = DomainSpec(r0=2.0, re=3.0)
    law = bem.choose_truncation
    monkeypatch.setattr(bem, "choose_truncation", lambda r0, re, eps: law(r0 / 3.0, re, eps))
    caplog.set_level(logging.DEBUG, logger="groundbem")
    system = assemble(mesh, domain, BemConfig(p=30))
    rows = system.kernel_rows
    short = law(np.linalg.norm(mesh.centroids[rows], axis=1).max() / 3.0, 3.0, 1e-4)
    assert short + 2 <= system.degree < 30
    fields = dict(w.split("=") for w in caplog.records[-1].getMessage().split()[1:])
    assert int(fields["p"]) == system.degree and int(fields["cap"]) == 30
    assert float(fields["tail"]) <= 1e-4
    below = bem._tail_estimate(*bem._factors(mesh, rows, 3.0, system.degree - 1))
    assert below > 1e-4


def test_kernel_factors_build_once_where_the_tail_adds_a_degree(small_system, monkeypatch):
    # on this mesh the law gives 9 and the tail check adds a degree: one
    # build one degree above the law serves both checks, and the factors
    # kept at its top degree are that build's, bit for bit.  On a mesh
    # where the law's degree passes, the kept factors are a copy of the
    # build's prefix, laid out as a build at that degree would be (whose
    # interior signatures sum two fewer inner-series degrees).
    built = []

    def factors(mesh, rows, re, p, _real=bem._factors):
        built.append(p)
        return _real(mesh, rows, re, p)

    monkeypatch.setattr(bem, "_factors", factors)
    mesh, domain = small_system.mesh, small_system.domain
    law = choose_truncation(np.linalg.norm(mesh.centroids[small_system.kernel_rows], axis=1).max(),
                            domain.re, 1e-4)
    kernel, _ = bem._kernel_factors(mesh, domain, BemConfig(p=12))
    assert built == [law + 1] and bem._truncation_of(kernel["rfac"].shape[1]) == law + 1
    rfac, sfac = factors(mesh, kernel["kernel_rows"], domain.re, law + 1)
    assert np.array_equal(kernel["rfac"], rfac) and np.array_equal(kernel["sfac"], sfac)

    built.clear()
    wide = make_bump_dip_mesh(1, r0=2.0, re=2.187, target_edge=0.5)
    kernel, tail = bem._kernel_factors(wide, DomainSpec(r0=2.0, re=2.187), BemConfig(p=104))
    degree = bem._truncation_of(kernel["rfac"].shape[1])
    assert built == [degree + 1] and tail <= 1e-4
    q = degree * (degree - 1) // 2
    rfac, sfac = bem._factors(wide, kernel["kernel_rows"], 2.187, degree + 1)
    layout = bem._factors(wide, kernel["kernel_rows"], 2.187, degree)
    kept = (kernel["rfac"], kernel["sfac"])
    for kept, prefix, alone in zip(kept, (rfac[:, :q], sfac[:q]), layout):
        assert kept.base is None and kept.strides == alone.strides
        assert np.array_equal(kept, prefix)


def test_tail_estimate_is_scaled_per_degree_block(rng):
    # rank-one degree blocks of known Frobenius norms 0.3^n, their source
    # side scaled up by 1e180 and receiver side down by as much, as the
    # factors are at high degree: an unscaled Gram product overflows
    p, s_rows, n_cols = 9, 7, 11
    q = p * (p - 1) // 2
    rfac, sfac = np.zeros((s_rows, q)), np.zeros((q, n_cols))
    norms = []
    for n in range(1, p):
        col = n * (n - 1) // 2 + (n - 1) // 2
        u, v = rng.standard_normal(s_rows), rng.standard_normal(n_cols)
        scale = 0.3 ** n / (np.linalg.norm(u) * np.linalg.norm(v))
        rfac[:, col] = u * scale * 1e-180
        sfac[col] = v * 1e180
        norms.append(0.3 ** n)
    with np.errstate(over="raise"):
        got = bem._tail_estimate(rfac, sfac)
    want = math.hypot(norms[-1], norms[-2]) / math.sqrt(sum(b * b for b in norms))
    assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Solve
# ---------------------------------------------------------------------------


def test_solve_residual_contract(small_system):
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    sigma = solve(small_system)
    resid = np.linalg.norm(
        apply_operator(small_system, sigma) - small_system.rhs
    ) / np.linalg.norm(small_system.rhs)
    assert resid <= 1e-10


def test_solver_value_is_validated_and_unread(small_system):
    # BemConfig.solver is checked, and then read by nothing: either value
    # assembles the same system and gives the same solution, bit for bit
    with pytest.raises(DomainError, match="unknown solver"):
        BemConfig(solver="dense")
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    direct = solve(small_system)
    with pytest.warns(UserWarning):
        it_sys = assemble(
            small_system.mesh, small_system.domain, BemConfig(p=12, solver="iterative")
        )
    assert np.array_equal(
        densify_free_block(it_sys.free_matrix), densify_free_block(small_system.free_matrix)
    )
    for name in ("rfac", "sfac"):
        assert np.array_equal(getattr(it_sys, name), getattr(small_system, name))
    set_point_source_rhs(it_sys, (0.0, 0.0, 1.5))
    assert np.array_equal(solve(it_sys), direct)


def test_flat_disc_matches_image_charge_density():
    mesh = make_flat_disc_mesh(3.0, 0.15)
    system = assemble(mesh, None, BemConfig())
    h = 0.5
    set_point_source_rhs(system, (0.0, 0.0, h))
    sigma = solve(system)
    rho = np.hypot(mesh.centroids[:, 0], mesh.centroids[:, 1])
    inner = rho < 1.5
    exact = -h / (2.0 * math.pi * (rho[inner] ** 2 + h * h) ** 1.5)
    rel = np.abs(sigma[inner] - exact) / np.abs(exact)
    assert np.max(rel) < 0.05


def test_singular_system_raises_solve_error(monkeypatch):
    # two coincident panels give identical collocation rows: assemble
    # refuses them, naming both, before the free block is started, and
    # raises no LinAlgWarning; given in another vertex order, the second
    # face's centroid is one bit off the first's
    verts = np.array([[0.5, 1.0, 0.0], [0.9, 0.3, 0.0], [0.8, 0.4, 0.0]])
    mesh = PanelMesh(verts, np.array([[0, 1, 2], [2, 0, 1]]), np.array([GROUND, GROUND]))
    assert not np.array_equal(*mesh.centroids)
    built = []
    monkeypatch.setattr(bem, "_hmatrix", lambda *args: built.append(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolveError, match="panels 0 and 1 have coincident collocation points") as exc:
            assemble(mesh, None, BemConfig())
    assert not [w for w in caught if issubclass(w.category, sla.LinAlgWarning)]
    assert exc.value.condition == math.inf
    assert built == []


def test_zero_pivot_of_the_near_lu_raises_solve_error(monkeypatch):
    # splu reports a zero pivot as RuntimeError; assemble raises SolveError
    # with the block's condition number
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    mesh = PanelMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]), np.array([GROUND, GROUND]))

    def splu(*args):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(bem, "splu", splu)
    with pytest.raises(SolveError, match="pivot of its LU is exactly zero") as exc:
        assemble(mesh, None, BemConfig())
    assert 1.0 <= exc.value.condition < math.inf


def test_zero_rhs_warns(small_system):
    small_system.rhs = np.zeros(small_system.size)
    with pytest.warns(UserWarning, match="zero right-hand side"):
        sigma = solve(small_system)
    assert np.all(sigma == 0.0)
    assert not np.shares_memory(sigma, small_system.rhs)
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    solve(small_system)


def test_config_refuses_a_truncation_past_the_safe_limit():
    # as KernelConfig does: the spectral constants overflow past 128, and
    # re = 1.05 r0 at eps = 1e-4 asks for p = 189
    assert BemConfig(p=P_HARD_LIMIT).p == P_HARD_LIMIT
    for p in (1, P_HARD_LIMIT + 1, choose_truncation(1.0, 1.05, 1e-4)):
        with pytest.raises(DomainError, match="truncation number"):
            BemConfig(p=p)


@pytest.mark.parametrize("p", [8.0, 9.5, 12.7])
def test_configs_refuse_a_truncation_that_is_not_an_integer(p):
    # a float p would reach NumPy as an array size, or be truncated to int
    for make in (BemConfig, KernelConfig):
        with pytest.raises(DomainError, match="truncation number"):
            make(p=p)
    assert BemConfig(p=np.int64(8)).p == KernelConfig(p=np.int64(8)).p == 8


def test_solve_refuses_a_non_finite_rhs(small_system):
    # a source on a collocation point, a NaN potential and a direct
    # assignment all reach solve, which refuses them before lgmres
    k = int(np.flatnonzero(small_system.mesh.tags == SURFACE)[0])
    with np.errstate(divide="ignore"):
        set_point_source_rhs(small_system, small_system.mesh.centroids[k])
    assert not np.all(np.isfinite(small_system.rhs))
    with pytest.raises(DomainError, match="non-finite"):
        solve(small_system)
    set_boundary_potential(small_system, lambda c: math.nan)
    with pytest.raises(DomainError, match="non-finite"):
        solve(small_system)
    small_system.rhs = np.full(small_system.size, math.inf)
    with pytest.raises(DomainError, match="non-finite"):
        solve(small_system)
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    solve(small_system)


def test_boundary_potential_rhs(small_system):
    set_boundary_potential(small_system, lambda c: 1.0)
    on_s = small_system.mesh.tags == SURFACE
    assert np.all(small_system.rhs[on_s] == 1.0)
    assert np.all(small_system.rhs[~on_s] == 0.0)
    with pytest.raises(DomainError):
        set_boundary_potential(small_system, np.ones(3))
    # one value per panel: the grounded rows must be zero, as the callable
    # and the SURFACE-only array leave them
    full = np.where(on_s, 2.0, 0.0)
    set_boundary_potential(small_system, full)
    assert np.array_equal(small_system.rhs, full)
    with pytest.raises(DomainError, match="grounded"):
        set_boundary_potential(small_system, np.ones(small_system.size))


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_disc():
    mesh = make_flat_disc_mesh(3.0, 0.18)
    system = assemble(mesh, None, BemConfig())
    set_point_source_rhs(system, (0.0, 0.0, 0.5))
    solve(system)
    return system


def test_on_surface_potential_vanishes(solved_disc):
    mesh = solved_disc.mesh
    pick = mesh.centroids[np.hypot(mesh.centroids[:, 0], mesh.centroids[:, 1]) < 1.0][::5]
    grid = evaluate_field(solved_disc, pick, source=(0.0, 0.0, 0.5))
    scale = green((0, 0, 0), (0, 0, 0.5))
    assert np.abs(grid.values).max() < 5e-3 * scale


def test_field_matches_image_solution(solved_disc):
    pts = np.array([[0.3, 0.2, 0.4], [0.0, 0.0, 1.0], [0.6, -0.4, 0.3]])
    grid = evaluate_field(solved_disc, pts, source=(0.0, 0.0, 0.5))
    for p, v in zip(pts, grid.values):
        img = green(p, (0, 0, 0.5)) - green(p, (0, 0, -0.5))
        assert v == pytest.approx(img, abs=3e-3 * green(p, (0, 0, 0.5)))
    assert np.allclose(
        grid.induced, grid.values - [green(p, (0, 0, 0.5)) for p in pts]
    )


def test_field_rejects_bad_points(solved_disc):
    # a NaN point, a point at the source and points of the wrong shape
    # raise before any panel sum runs, with no warning on the way
    for points in (
        [[0.3, 0.2, math.nan]],
        [[0.3, 0.2, 0.4], [0.0, 0.0, 0.5]],
        np.zeros((4, 2)),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                evaluate_field(solved_disc, points, source=(0.0, 0.0, 0.5))
    with pytest.raises(DomainError):
        evaluate_field(solved_disc, [[0.3, 0.2, 0.4]], source=(0.0, math.inf, 0.5))


def test_point_source_rhs_rejects_bad_source():
    # a kernel-off system has no signature call to catch a bad source, so
    # the check sits in set_point_source_rhs itself; the right-hand side
    # stays zero
    system = assemble(make_flat_disc_mesh(1.0, 0.4), None, BemConfig())
    for source in ((0.0, math.nan, 0.5), (0.0, 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="one point with finite coordinates"):
                set_point_source_rhs(system, source)
    assert not np.any(system.rhs)


def test_point_source_outside_re_names_re(small_system):
    # the source series diverges for |x| >= re; both the right-hand side
    # and the field refuse such a source with re in the mesh's units, not
    # with the dimensionless bound of the signatures
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    solve(small_system)
    rhs = small_system.rhs
    for source in ((0.0, 0.0, 3.0), (2.5, 0.0, 2.0), (0.0, 0.0, 4.0)):
        with pytest.raises(DomainError, match=r"\|x\| < re = 3\.0"):
            set_point_source_rhs(small_system, source)
        with pytest.raises(DomainError, match=r"\|x\| < re = 3\.0"):
            evaluate_field(small_system, [[0.0, 0.0, 1.0]], source=source)
    assert small_system.rhs is rhs


def test_field_at_centroids_is_the_free_matvec(solved_disc):
    # with the kernel off and no source, the field at the collocation
    # points is the panel sum of the uncompressed block, to rounding, and
    # the compressed block's matvec to the ACA tolerance
    mesh = solved_disc.mesh
    sigma = solved_disc.solution
    grid = evaluate_field(solved_disc, mesh.centroids)
    exact = oracle_free_block_loop(mesh, bem._NEAR_FIELD * mesh.mean_diameter) @ sigma
    np.testing.assert_allclose(grid.values, exact, rtol=1e-12)
    matvec = solved_disc.operator.matvec(sigma)
    assert np.linalg.norm(grid.values - matvec) <= bem._ACA_TOL * np.linalg.norm(exact)


def test_far_field_decay(solved_disc):
    rads = np.array([20.0, 40.0, 80.0])
    pts = np.stack([rads, np.zeros(3), rads], axis=1) / math.sqrt(2)
    grid = evaluate_field(solved_disc, pts)
    vals = np.abs(grid.values)
    assert vals[0] / vals[1] > 1.8
    assert vals[1] / vals[2] > 1.8


def test_below_ground_flags(solved_disc):
    pts = np.array([[0.5, 0.0, 0.4], [0.5, 0.0, -0.4]])
    grid = evaluate_field(solved_disc, pts)
    assert not grid.flags[0]
    assert grid.flags[1]
    assert np.all(np.isfinite(grid.values))


def test_below_ground_flags_scaled_feature():
    # the feature radius comes from the mesh, not a unit hemisphere: on a
    # bump scaled by 1.5 the first two points lie inside it
    base = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
    mesh = PanelMesh(1.5 * base.vertices, base.faces, base.tags)
    assert mesh.feature_radius == pytest.approx(1.5, rel=1e-12)
    pts = np.array([[0.0, 0.0, 1.2], [1.3, 0.0, 0.3], [0.0, 0.0, 1.6], [1.7, 0.0, 0.1]])
    assert bem._below_ground_flags(mesh, pts).tolist() == [True, True, False, False]
    # under a dip scaled the same way only the last point is below ground
    base = make_bump_dip_mesh(-1, r0=1.0, re=3.0, target_edge=0.5)
    mesh = PanelMesh(1.5 * base.vertices, base.faces, base.tags)
    pts = np.array([[1.2, 0.0, -0.5], [0.0, 0.0, -1.4], [0.0, 0.0, -1.6]])
    assert bem._below_ground_flags(mesh, pts).tolist() == [False, False, True]
    # without a SURFACE face the radius is 0 and only z < 0 counts
    flat = base.tags != SURFACE
    flat = PanelMesh(base.vertices, base.faces[flat], base.tags[flat])
    assert flat.feature_radius == 0.0
    assert bem._below_ground_flags(flat, pts[:1]).tolist() == [True]


def test_field_outside_re_raises_with_ground_kernel():
    # the receiver series diverges for |y| >= re (it gave 15512 against
    # the exact 0.0088 at (0, 0, 6)); inside re the field still matches
    # the image solution of the bump
    mesh = make_bump_dip_mesh(1, r0=2.0, re=2.4, target_edge=0.25)
    with pytest.warns(UserWarning):
        system = assemble(mesh, DomainSpec(r0=2.0, re=2.4), BemConfig(p=20))
    source = (0.0, 0.0, 2.0)
    set_point_source_rhs(system, source)
    solve(system)
    inside = np.array([[0.0, 0.0, 1.5], [1.2, 0.3, 0.8], [-0.6, 1.1, 1.4], [0.0, 0.0, 2.35]])
    got = evaluate_field(system, inside, source=source).values
    want = [analytic_bump_potential(y, 2.0) for y in inside]
    np.testing.assert_allclose(got, want, rtol=5e-2)
    for y in ([0.0, 0.0, 3.0], [0.0, 0.0, 6.0], [5.0, 0.0, 0.5], [2.4, 0.0, 0.0]):
        with pytest.raises(DomainError, match="re = 2.4"):
            evaluate_field(system, np.array([inside[0], y]), source=source)


def test_field_requires_solution():
    mesh = make_flat_disc_mesh(1.0, 0.4)
    system = assemble(mesh, None, BemConfig())
    with pytest.raises(SolveError, match="no solution"):
        evaluate_field(system, np.array([[0.0, 0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Benchmark tooling (bench/ reads these systems; a change here must not
# break it)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_modules():
    bench_dir = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench_dir)
    try:
        import tracing
        import worker
    finally:
        sys.path.remove(bench_dir)
    return tracing, worker


def test_bench_workloads_set_up(bench_modules):
    # every benchmark workload sets up from src/ as it stands (config
    # fields, mesh and study helpers), so a change that would stop the
    # benchmark fails here first; no operation runs
    _, worker = bench_modules
    for make in worker.WORKLOADS.values():
        workload = make(1)
        workload.setup()
        assert isinstance(workload.config, BemConfig) and len(workload.mesh) > 1000
        assert workload.exact.shape == (len(workload.points),)


def test_bench_reads_solved_system(small_system, bench_modules):
    _, worker = bench_modules
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    solve(small_system)
    metrics = worker._system_metrics(small_system)
    p = small_system.degree
    q = p * (p - 1) // 2
    s = small_system.kernel_rows.size
    assert metrics["bem.kernel_cols"] == q
    assert metrics["bem.kernel_factor_mb"] == 8 * q * (s + small_system.size) / 1e6
    assert metrics["bem.residual"] <= 1e-10


def test_bench_tracer_self_times_add_up(small_system, bench_modules):
    tracing, _ = bench_modules
    tracer = tracing.Tracer()
    source = (0.0, 0.0, 1.5)
    pts = np.array([[1.5, 0.0, 0.5], [0.0, 1.2, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.installed(), tracer.span("bench", "operation") as root:
            system = bem.assemble(small_system.mesh, small_system.domain, BemConfig(p=12))
            bem.set_point_source_rhs(system, source)
            bem.solve(system)
            bem.evaluate_field(system, pts, source=source)
    assert bem.assemble is assemble
    layers = tracing.span_metrics(tracer.spans, root)
    reported = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    reported += layers["trace.uncovered_s"]
    assert math.isclose(reported, layers["trace.wall_s"], rel_tol=1e-9)
    assert layers["ground_kernel.plane_sources"] > 0


# ---------------------------------------------------------------------------
# The worker pool (free block, kernel-factor overlap, matvec)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pooled_problem():
    # several leaves and far blocks: more than one task of each kind
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.3)
    assert len(mesh) > 4 * bem._LEAF
    return mesh, DomainSpec(r0=2.0, re=3.0), BemConfig(p=8)


def test_assemble_logs_sizes_workers_and_stage_times(pooled_problem, caplog, monkeypatch):
    mesh, domain, config = pooled_problem
    caplog.set_level(logging.DEBUG, logger="groundbem")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(mesh, domain, config)
    records = [r for r in caplog.records if r.name == "groundbem"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    words = records[0].getMessage().split()
    assert words[0] == "assemble"
    fields = dict(w.split("=") for w in words[1:])
    s, q = system.rfac.shape
    assert (int(fields["n"]), int(fields["s"]), int(fields["q"])) == (len(mesh), s, q)
    assert int(fields["workers"]) == len(os.sched_getaffinity(0))
    assert float(fields["free_s"]) > 0.0 and float(fields["kernel_s"]) > 0.0
    # the time assemble blocked on the pool, then the near-field LU's
    assert float(fields["wait_s"]) >= 0.0 and float(fields["lu_s"]) > 0.0
    # the factors' degree, the cap it is held under and its tail estimate
    assert (int(fields["p"]), int(fields["cap"])) == (system.degree, config.p)
    assert q == system.degree * (system.degree - 1) // 2
    assert float(fields["tail"]) == pytest.approx(
        bem._tail_estimate(system.rfac, system.sfac), rel=1e-2
    )
    assert set(fields) == {
        "n", "s", "q", "p", "cap", "tail", "workers", "free_s", "kernel_s", "wait_s", "lu_s",
    }
    # each call reads the CPUs the process may use at that time
    monkeypatch.setattr(bem.os, "sched_getaffinity", lambda pid: {0})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assemble(mesh, domain, config)
    assert " workers=1 " in caplog.records[-1].getMessage()


@pytest.fixture
def pools(monkeypatch):
    """Every pool ``bem`` makes while the test runs, in order, each keeping
    the tasks submitted to it."""
    made = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tasks = []
            made.append(self)

        def submit(self, *args, **kwargs):
            task = super().submit(*args, **kwargs)
            self.tasks.append(task)
            return task

    monkeypatch.setattr(bem, "ThreadPoolExecutor", CountingPool)
    return made


def free_block_tasks(mesh):
    """The number of tasks ``_hmatrix`` submits for ``mesh``: one per leaf
    and one per ACA batch; none of them runs here."""
    submitted = []

    class Pool:
        def submit(self, *args):
            submitted.append(args)

    tasks, _ = bem._hmatrix(mesh, bem._panel_table(mesh), Pool())
    assert len(tasks) == len(submitted)
    return len(submitted)


@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_assemble_leaves_no_pool_task_pending(pooled_problem, solver, pools, monkeypatch):
    # for either solver assemble submits the free block's tasks only (its
    # leaves' and its ACA batches', more than one of each), to one pool, and
    # leaves no task queued or running; the near-field LU reads nothing of
    # the block, and runs once, on the calling thread, before assemble
    # waits on any task
    mesh, domain, config = pooled_problem
    seen = []

    def near_lu(*args, _real=bem._near_lu):
        seen.append(("lu", threading.get_ident()))
        return _real(*args)

    def hmatrix(*args, _real=bem._hmatrix):
        tasks, build = _real(*args)

        class Waited:
            def __init__(self, task):
                self.task = task

            def result(self):
                seen.append(("wait", threading.get_ident()))
                return self.task.result()

        return [Waited(t) for t in tasks], build

    monkeypatch.setattr(bem, "_near_lu", near_lu)
    monkeypatch.setattr(bem, "_hmatrix", hmatrix)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(mesh, domain, BemConfig(p=config.p, solver=solver))
    (pool,) = pools
    pending = [t for t in pool.tasks if not t.done()]
    assert pending == [] and len(pool.tasks) == free_block_tasks(mesh)
    assert len(pool.tasks) > len(system.free_matrix.leaves) > 1
    me = threading.get_ident()
    assert seen == [("lu", me)] + [("wait", me)] * len(pool.tasks)
    assert system.operator.near_lu is not None


def test_zero_pivot_on_a_pooled_mesh_waits_for_the_block(pooled_problem, pools, monkeypatch):
    # the LU fails before assemble waits on the pool: the SolveError still
    # carries the built block's condition number, and no task is left
    # queued or running when it reaches the caller
    mesh, domain, config = pooled_problem

    def splu(*args):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(bem, "splu", splu)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolveError, match="pivot of its LU is exactly zero") as exc:
            assemble(mesh, domain, config)
    assert 1.0 <= exc.value.condition < math.inf
    (pool,) = pools
    assert all(t.done() for t in pool.tasks) and len(pool.tasks) == free_block_tasks(mesh)


@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_failed_assemble_leaves_no_pool_task_running(pooled_problem, solver, pools, monkeypatch):
    # the kernel factors raise while the free block's rows are queued and
    # running, for either solver: assemble cancels the queued tasks and waits for the running
    # ones before the error reaches its caller
    mesh, domain, config = pooled_problem

    def fail(*args):
        raise RuntimeError("kernel factors failed")

    monkeypatch.setattr(bem, "_kernel_factors", fail)
    with pytest.raises(RuntimeError, match="kernel factors failed"):
        assemble(mesh, domain, BemConfig(p=config.p, solver=solver))
    (pool,) = pools
    running = [t for t in pool.tasks if not t.done()]
    assert running == [] and len(pool.tasks) == free_block_tasks(mesh)


@pytest.fixture(scope="module")
def field_problem(small_system):
    # a solved system and field points beyond its rows' degree, enough of
    # them for several row tasks of the panel sum
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(small_system.mesh, small_system.domain, BemConfig(p=12))
    set_point_source_rhs(system, (0.0, 0.0, 1.5))
    solve(system)
    angle = np.linspace(0.0, 2.0 * math.pi, 2 * bem._ROW_BLOCK + 1)
    pts = np.column_stack([1.1 * np.cos(angle), 1.1 * np.sin(angle), np.full(angle.size, 0.5)])
    return system, pts


def field_tasks(system, pts):
    """The pool tasks of ``evaluate_field(system, pts)`` when the field takes
    its own signature sum: the panel sum's row tasks, then one per chunk of
    the plane sources."""
    rows = -(-len(pts) // bem._ROW_BLOCK)
    plane = np.count_nonzero(system.mesh.centroids[:, 2] == 0.0)
    return rows, -(-plane // ground_kernel._PLANE_CHUNK)


def test_field_panel_sum_runs_beside_its_signature_pass(field_problem, pools, monkeypatch):
    # the panel sum's row tasks, then the signature sum's plane chunks, are
    # on the pool before the calling thread takes the interior sources'
    # moments, and all are done on return
    system, pts = field_problem
    want = evaluate_field(system, pts).values
    pools.clear()
    seen = []

    def moments(*args, _real=ground_kernel._source_harmonics):
        seen.append(len(pools[-1].tasks))
        return _real(*args)

    monkeypatch.setattr(ground_kernel, "_source_harmonics", moments)
    grid = evaluate_field(system, pts)
    (pool,) = pools
    pending = [t for t in pool.tasks if not t.done()]
    rows, chunks = field_tasks(system, pts)
    assert rows > 1 and chunks >= 1 and seen == [rows + chunks]
    assert grid.metadata["degree"] > system.degree
    assert pending == [] and np.array_equal(grid.values, want)


def test_field_of_no_points_is_empty(field_problem, solved_disc):
    # with a kernel term and without: an empty grid, no error
    for system in (field_problem[0], solved_disc):
        for source in (None, (0.0, 0.0, 1.5)):
            grid = evaluate_field(system, np.zeros((0, 3)), source=source)
            assert grid.points.shape == (0, 3)
            assert grid.values.shape == grid.induced.shape == grid.flags.shape == (0,)


def test_failed_field_leaves_no_pool_task_running(field_problem, pools, monkeypatch):
    # the calling thread fails while the row tasks and the plane chunks are
    # queued and running: none is left running when the error reaches the
    # caller
    system, pts = field_problem

    def fail(*args):
        raise RuntimeError("interior moments failed")

    monkeypatch.setattr(ground_kernel, "_source_harmonics", fail)
    with pytest.raises(RuntimeError, match="interior moments failed"):
        evaluate_field(system, pts)
    (pool,) = pools
    running = [t for t in pool.tasks if not t.done()]
    assert running == [] and len(pool.tasks) == sum(field_tasks(system, pts))


def test_failed_plane_chunk_reaches_the_caller(field_problem, pools, monkeypatch):
    # a plane chunk of the field's signature sum raises on the pool: its own
    # error reaches the caller, and no task is left queued or running.  The
    # fixture has assembled before the plane walk is patched.
    system, pts = field_problem

    def fail(*args):
        raise RuntimeError("plane chunk failed")

    monkeypatch.setattr(ground_kernel, "_plane_layers", fail)
    with pytest.raises(RuntimeError, match="plane chunk failed"):
        evaluate_field(system, pts)
    (pool,) = pools
    assert all(t.done() for t in pool.tasks) and len(pool.tasks) == sum(field_tasks(system, pts))


def test_failed_row_task_reaches_the_caller(pooled_problem, field_problem, pools, monkeypatch):
    # a row task of the free block raises, in assemble and in the field's
    # panel sum: its own error reaches the caller, and no task of the
    # call's pool is left queued or running
    mesh, domain, config = pooled_problem
    system, pts = field_problem

    def fail(*args):
        raise RuntimeError("row task failed")

    monkeypatch.setattr(bem, "_single_layer_bare", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="row task failed"):
            assemble(mesh, domain, config)
        with pytest.raises(RuntimeError, match="row task failed"):
            evaluate_field(system, pts)
    assert len(pools) == 2
    for pool in pools:
        assert len(pool.tasks) > 1 and all(t.done() for t in pool.tasks)


def test_outputs_independent_of_worker_count(pooled_problem, monkeypatch, caplog):
    mesh, domain, config = pooled_problem
    caplog.set_level(logging.DEBUG, logger="groundbem")
    source = (0.0, 0.0, 1.5)
    pts = np.array([[1.5, 0.0, 0.5], [0.0, 1.2, 1.0], [0.3, -0.4, 2.0]])
    v = np.sin(np.arange(len(mesh)))
    runs = []
    for workers in (1, 3):
        # every pool takes its worker count from the CPUs the process may use
        monkeypatch.setattr(bem.os, "sched_getaffinity", lambda pid, n=workers: set(range(n)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = assemble(mesh, domain, config)
        assert f" workers={workers} " in caplog.records[-1].getMessage()
        set_point_source_rhs(system, source)
        direct = solve(system)
        field = evaluate_field(system, pts, source=source).values
        kernel_off = truncated_system(system)
        set_point_source_rhs(kernel_off, source)
        truncated = solve(kernel_off)
        runs.append((
            densify_free_block(system.free_matrix), system.rfac, system.sfac,
            apply_operator(system, v), direct, field, truncated,
        ))
    for first, second in zip(*runs):
        assert np.array_equal(first, second)


def test_traced_spans_nest_with_the_pool_running(bench_modules, pools, monkeypatch):
    # bench/tracing.py keeps one span stack: a traced function running on a
    # worker thread next to the caller would break the nesting.  The mesh
    # sends two chunks of plane sources to the field's pool.
    tracing, _ = bench_modules
    tracer = tracing.Tracer()
    opened_on = set()

    def open_span(*args, _open=tracer._open):
        opened_on.add(threading.get_ident())
        return _open(*args)

    monkeypatch.setattr(tracer, "_open", open_span)
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.25)
    domain = DomainSpec(r0=2.0, re=3.0)
    source = (0.0, 0.0, 1.5)
    # points beyond the kernel rows' degree: the field takes its own
    # signature sum, its plane sources on the pool beside the panel sum
    pts = np.array([[1.5, 0.0, 0.5], [0.0, 1.2, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.installed(), tracer.span("bench", "operation"):
            # the near-field LU is made by assemble on the calling thread
            system = bem.assemble(mesh, domain, BemConfig(p=12))
            bem.set_point_source_rhs(system, source)
            bem.solve(system)
            grid = bem.evaluate_field(system, pts, source=source)
    assert grid.metadata["degree"] > system.degree
    rows, chunks = field_tasks(system, pts)
    assert chunks >= 2 and len(pools[-1].tasks) == rows + chunks
    spans = tracer.spans
    assert opened_on == {threading.get_ident()}
    assert sum(s.name == "apply_operator" for s in spans) > 5
    assert sum(s.name == "assemble" for s in spans) == 1
    for span in spans:
        assert span.end >= span.start and span.self_s >= 0.0
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end


_HYGIENE_SCRIPT = """
import os, sys, threading, time, warnings
import numpy as np
import groundbem
from groundbem import bem
from groundbem.surface_mesh import DomainSpec, make_bump_dip_mesh

def no_thread_left():
    # importing starts no thread, and no call leaves one behind
    assert threading.active_count() == 1, threading.enumerate()

no_thread_left()
warnings.simplefilter("ignore")
mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
domain, config = DomainSpec(r0=2.0, re=3.0), bem.BemConfig(p=6)
eye = np.eye(len(mesh))
first = bem.assemble(mesh, domain, config).free_matrix.matvec(eye)
no_thread_left()
# fork after a solve, on an operator whose near-field LU assemble made
system = bem.assemble(mesh, domain, config)
bem.set_point_source_rhs(system, (0.0, 0.0, 1.5))
bem.solve(system)
no_thread_left()
bem.evaluate_field(system, [(0.5, 0.0, 1.0)])
no_thread_left()

def fail(*args):
    raise RuntimeError("failed")

for name, call in [
    ("_single_layer_bare", lambda: bem.assemble(mesh, domain, config)),
    ("apply_ground_kernel", lambda: bem.solve(system)),
    ("_single_layer_bare", lambda: bem.evaluate_field(system, [(0.5, 0.0, 1.0)])),
]:
    real = getattr(bem, name)
    setattr(bem, name, fail)
    try:
        call()
    except RuntimeError:
        pass
    else:
        raise AssertionError(name)
    setattr(bem, name, real)
    no_thread_left()
pid = os.fork()
if pid == 0:
    # the child inherits the near-field LU: it solves with splu failing,
    # and assembles the same block as the parent
    real = bem.splu
    bem.splu = fail
    ok = bem.solve(system).shape == (len(mesh),)
    bem.splu = real
    again = bem.assemble(mesh, domain, config).free_matrix.matvec(eye)
    ok = ok and again.tobytes() == first.tobytes()
    os._exit(0 if ok else 1)
assert os.waitpid(pid, 0)[1] == 0
print(time.time(), flush=True)
"""


def test_import_starts_no_thread_and_pool_does_not_delay_exit():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _HYGIENE_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    exited = time.time()
    assert proc.returncode == 0, proc.stderr
    assert exited - float(proc.stdout.split()[-1]) < 5.0
