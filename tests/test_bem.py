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
from scipy.spatial.transform import Rotation

from groundbem import bem
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
    green,
    oracle_direct_solve,
    oracle_free_block_loop,
    oracle_ground_kernel_matrix,
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
    a = small_system.free_matrix
    r_nf = 5.0 * mesh.mean_diameter
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
    # the flat disc has more panels than one row block of the free-space
    # sum, so block boundaries are crossed; every entry must equal the
    # per-column loop bit for bit, near entries the analytic integral and
    # far entries the centroid monopole
    assert len(small_system.mesh) < bem._ROW_BLOCK < len(solved_disc.mesh)
    for system in (small_system, solved_disc):
        mesh = system.mesh
        r_nf = 5.0 * mesh.mean_diameter
        a = system.free_matrix
        assert np.array_equal(a, oracle_free_block_loop(mesh, r_nf))
        hits = 0
        for i in range(0, len(mesh), 13):
            layer = triangle_single_layer(mesh, mesh.centroids[i])
            for j in range(0, len(mesh), 11):
                d = np.linalg.norm(mesh.centroids[i] - mesh.centroids[j])
                want = (
                    layer[j]
                    if d < r_nf
                    else mesh.areas[j] * green(mesh.centroids[i], mesh.centroids[j])
                )
                assert a[i, j] == pytest.approx(want, rel=1e-12)
                hits += 1
        assert hits > 100


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


def test_direct_solve_adds_kernel_on_surface_rows_only(small_system):
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


def test_first_solve_factors_the_near_set_once(small_system, monkeypatch):
    # the first solve makes the one near-field LU, with one BLAS thread: a
    # sparse matrix whose pattern is every centroid pair within the near
    # radius (the diagonal among them) and whose values are the free
    # block's.  The operator keeps it: a second solve and a kernel-off
    # system on the same operator factor nothing, and the block is unchanged
    spy = SpluSpy(bem.splu)
    monkeypatch.setattr(bem, "splu", spy)
    with pytest.warns(UserWarning):
        system = assemble(small_system.mesh, small_system.domain, BemConfig(p=12))
    mesh = system.mesh
    free = system.free_matrix.copy()
    set_point_source_rhs(system, (0.0, 0.0, 1.5))
    first = solve(system)
    ((near, counts),) = spy.calls
    assert near.format == "csc" and near.shape == free.shape
    dist = np.linalg.norm(mesh.centroids[:, None] - mesh.centroids[None, :], axis=-1)
    rows, cols = np.nonzero(dist <= bem._NEAR_RADIUS * mesh.mean_diameter)
    coo = near.tocoo()
    assert sorted(zip(coo.row, coo.col)) == sorted(zip(rows, cols))
    assert np.array_equal(coo.data, free[coo.row, coo.col])
    assert counts and set(counts.values()) == {1}
    assert system.operator.near_lu is not None

    del spy.calls[:]
    assert np.array_equal(solve(system), first)
    truncated = truncated_system(system)
    assert truncated.operator is system.operator
    set_point_source_rhs(truncated, (0.0, 0.0, 1.5))
    solve(truncated)
    assert spy.calls == []
    assert np.array_equal(system.free_matrix, free)


def test_iterative_assembly_starts_no_factorization(small_system, monkeypatch):
    # assemble makes no near-field LU for either solver value and builds
    # the same system; the first solve on each operator makes its one LU
    spy = SpluSpy(bem.splu)
    monkeypatch.setattr(bem, "splu", spy)
    mesh, domain, source = small_system.mesh, small_system.domain, (0.0, 0.0, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(mesh, domain, BemConfig(p=12, solver="iterative"))
        direct = assemble(mesh, domain, BemConfig(p=12))
    assert spy.calls == []
    for name in ("free_matrix", "rfac", "sfac"):
        assert np.array_equal(getattr(system, name), getattr(direct, name))
    assert system.operator.near_lu is None and direct.operator.near_lu is None
    for made, each in enumerate((system, direct), start=1):
        set_point_source_rhs(each, source)
        solve(each)
        solve(each)
        assert len(spy.calls) == made and each.operator.near_lu is not None


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
def test_direct_solve_matches_densified_oracle(request, name, rtol):
    # small_system is checked in test_direct_solve_adds_kernel_on_surface_rows_only;
    # the dip's 4465 kernel columns enter the oracle's dense matrix and the
    # solve's matvecs in different orders (3.5e-14 apart when measured)
    system = request.getfixturevalue(name)
    want = oracle_direct_solve(system)
    got = solve(system)
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_direct_solve_is_deterministic(dip_system):
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
        assert set(fields) == {"n", "s", "q", "matvecs", "residual", "lu_s"}
        s, q = system.rfac.shape
        assert (int(fields["n"]), int(fields["s"]), int(fields["q"])) == (system.size, s, q)
        assert 1 <= int(fields["matvecs"]) <= 45
        assert float(fields["residual"]) <= 1e-14


def test_near_factor_stays_sparse(dip_system):
    # the factor's fill stays a bounded number of entries a row (131 on the
    # dip when measured), where a dense LU holds N
    solve(dip_system)
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
    assert exc.value.condition == small_system.operator.condition() > 1.0


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
        free, tasks = bem._free_block(mesh, near, pool)
        for t in tasks:
            t.result()
    np.testing.assert_allclose(inner.values, free @ sigma + kernel, rtol=1e-12)


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


def test_iterative_matches_direct(small_system):
    # solve reads no solver value: both give the same solution, bit for bit
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    direct = solve(small_system)
    it_cfg = BemConfig(p=12, solver="iterative")
    with pytest.warns(UserWarning):
        it_sys = assemble(small_system.mesh, small_system.domain, it_cfg)
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


def test_singular_system_raises_solve_error():
    # two coincident panels give identical collocation rows
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = PanelMesh(verts, np.array([[0, 1, 2], [0, 1, 2]]), np.array([GROUND, GROUND]))
    # a zero pivot of the near-field LU must surface as SolveError, not as
    # a LinAlgWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        system = assemble(mesh, None, BemConfig())
        set_point_source_rhs(system, (0.3, 0.3, 1.0))
        with pytest.raises(SolveError, match="exactly zero"):
            solve(system)
    assert not [w for w in caught if issubclass(w.category, sla.LinAlgWarning)]


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
    # points is the same panel sum as the assembled block
    mesh = solved_disc.mesh
    grid = evaluate_field(solved_disc, mesh.centroids)
    assert np.array_equal(grid.values, solved_disc.free_matrix @ solved_disc.solution)


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
    # rows for more than one free-block task and more than one matvec task
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.3)
    assert len(mesh) > max(bem._ROW_BLOCK, bem._MATVEC_ROWS)
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
    # the time assemble blocked on the pool
    assert float(fields["wait_s"]) >= 0.0
    # the factors' degree, the cap it is held under and its tail estimate
    assert (int(fields["p"]), int(fields["cap"])) == (system.degree, config.p)
    assert q == system.degree * (system.degree - 1) // 2
    assert float(fields["tail"]) == pytest.approx(
        bem._tail_estimate(system.rfac, system.sfac), rel=1e-2
    )
    assert set(fields) == {
        "n", "s", "q", "p", "cap", "tail", "workers", "free_s", "kernel_s", "wait_s",
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


@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_assemble_leaves_no_pool_task_pending(pooled_problem, solver, pools):
    # for either solver value assemble submits the free block's row tasks
    # only, to one pool, makes no near-field LU, and leaves no task queued
    # or running
    mesh, domain, config = pooled_problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(mesh, domain, BemConfig(p=config.p, solver=solver))
    (pool,) = pools
    pending = [t for t in pool.tasks if not t.done()]
    assert pending == [] and len(pool.tasks) == -(-len(mesh) // bem._ROW_BLOCK)
    assert system.operator.near_lu is None


@pytest.mark.parametrize("solver", ["direct", "iterative"])
def test_failed_assemble_leaves_no_pool_task_running(pooled_problem, solver, pools, monkeypatch):
    # the kernel factors raise while the free block's rows are queued and
    # running, for either solver: assemble cancels the queued tasks and
    # waits for the running ones before the error reaches its caller
    mesh, domain, config = pooled_problem

    def fail(*args):
        raise RuntimeError("kernel factors failed")

    monkeypatch.setattr(bem, "_kernel_factors", fail)
    with pytest.raises(RuntimeError, match="kernel factors failed"):
        assemble(mesh, domain, BemConfig(p=config.p, solver=solver))
    (pool,) = pools
    running = [t for t in pool.tasks if not t.done()]
    assert running == [] and len(pool.tasks) == -(-len(mesh) // bem._ROW_BLOCK)


def test_solve_logs_lu_seconds_and_wait(pooled_problem, caplog):
    # lu_s is what solve itself spent making the near-field LU: all of it in
    # the first solve on the mesh; nothing in a second solve, in the
    # truncated system on the same operator, nor with the other solver value
    mesh, domain, config = pooled_problem
    source = (0.0, 0.0, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(mesh, domain, config)
    set_point_source_rhs(system, source)
    truncated = truncated_system(system)
    set_point_source_rhs(truncated, source)
    caplog.set_level(logging.DEBUG, logger="groundbem")
    solve(system)
    solve(system)
    solve(truncated)
    system.config = BemConfig(p=config.p, solver="iterative")
    solve(system)
    fields = [
        dict(w.split("=") for w in r.getMessage().split()[1:])
        for r in caplog.records if r.name == "groundbem"
    ]
    assert len(fields) == 4
    assert float(fields[0]["lu_s"]) > 0.0
    assert [float(f["lu_s"]) for f in fields[1:]] == [0.0, 0.0, 0.0]


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


def test_field_panel_sum_runs_beside_its_signature_pass(field_problem, pools, monkeypatch):
    # the panel sum's row tasks are on the pool before the calling thread
    # starts the field's own signature pass, and all are done on return
    system, pts = field_problem
    want = evaluate_field(system, pts).values
    pools.clear()
    seen = []

    def signature_sum(*args, _real=bem._signature_sum):
        seen.append(len(pools[-1].tasks))
        return _real(*args)

    monkeypatch.setattr(bem, "_signature_sum", signature_sum)
    grid = evaluate_field(system, pts)
    (pool,) = pools
    pending = [t for t in pool.tasks if not t.done()]
    rows = -(-len(pts) // bem._ROW_BLOCK)
    assert rows > 1 and seen == [rows]
    assert grid.metadata["degree"] > system.degree
    assert pending == [] and np.array_equal(grid.values, want)


def test_failed_field_leaves_no_pool_task_running(field_problem, pools, monkeypatch):
    system, pts = field_problem

    def fail(*args):
        raise RuntimeError("signature pass failed")

    monkeypatch.setattr(bem, "_signature_sum", fail)
    with pytest.raises(RuntimeError, match="signature pass failed"):
        evaluate_field(system, pts)
    (pool,) = pools
    running = [t for t in pool.tasks if not t.done()]
    assert running == [] and len(pool.tasks) == -(-len(pts) // bem._ROW_BLOCK)


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
        system.config = BemConfig(p=config.p, solver="iterative")
        iterative = solve(system)
        runs.append((
            system.free_matrix, system.rfac, system.sfac,
            apply_operator(system, v), direct, iterative, field, truncated,
        ))
    for first, second in zip(*runs):
        assert np.array_equal(first, second)


def test_traced_spans_nest_with_the_pool_running(small_system, bench_modules, monkeypatch):
    # bench/tracing.py keeps one span stack: a traced function running on a
    # worker thread next to the caller would break the nesting
    tracing, _ = bench_modules
    tracer = tracing.Tracer()
    opened_on = set()

    def open_span(*args, _open=tracer._open):
        opened_on.add(threading.get_ident())
        return _open(*args)

    monkeypatch.setattr(tracer, "_open", open_span)
    source = (0.0, 0.0, 1.5)
    # points beyond the kernel rows' degree: the field makes its own
    # signature pass, on the calling thread while its panel sum runs on the pool
    pts = np.array([[1.5, 0.0, 0.5], [0.0, 1.2, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.installed(), tracer.span("bench", "operation"):
            # each system's near-field LU is made by its solve on the calling thread
            for solver in ("iterative", "direct"):
                config = BemConfig(p=12, solver=solver)
                system = bem.assemble(small_system.mesh, small_system.domain, config)
                bem.set_point_source_rhs(system, source)
                bem.solve(system)
                grid = bem.evaluate_field(system, pts, source=source)
                assert grid.metadata["degree"] > system.degree
    spans = tracer.spans
    assert opened_on == {threading.get_ident()}
    assert sum(s.name == "apply_operator" for s in spans) > 5
    assert sum(s.name == "assemble" for s in spans) == 2
    fields = [s.id for s in spans if s.name == "evaluate_field"]
    passes = [s for s in spans if s.name == "source_signature_batch" and s.parent in fields]
    # one pass of all panels a field, and the image source
    assert len(passes) == 2 * 2
    assert sum(s.counts["plane"] + s.counts["interior"] for s in passes) == 2 * (system.size + 1)
    for span in spans:
        assert span.end >= span.start and span.self_s >= 0.0
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end


_HYGIENE_SCRIPT = """
import os, sys, threading, time, warnings
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
first = bem.assemble(mesh, domain, config).free_matrix
no_thread_left()
# fork right after a solve, which made the operator's near-field LU
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
    # the child inherits the near-field LU: it solves without making one,
    # and assembles the same block as the parent
    bem.splu = fail
    ok = bem.solve(system).shape == (len(mesh),)
    ok = ok and bem.assemble(mesh, domain, config).free_matrix.tobytes() == first.tobytes()
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
