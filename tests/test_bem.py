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
    export_field_csv,
    export_field_json,
    set_boundary_potential,
    set_point_source_rhs,
    solve,
    triangle_single_layer,
)
from groundbem.errors import DomainError, SolveError
from groundbem.experiments import analytic_bump_potential
from groundbem.ground_kernel import KernelConfig, kernel_integral
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
    green,
    oracle_direct_solve,
    oracle_free_block_loop,
    oracle_ground_kernel_matrix,
    oracle_triangle_self,
)


def make_panel(vertices, tag=GROUND):
    verts = np.asarray(vertices, dtype=float)
    mesh = PanelMesh(verts, np.array([[0, 1, 2]]), np.array([tag]))
    return mesh.panel(0)


# ---------------------------------------------------------------------------
# Analytic triangle integral
# ---------------------------------------------------------------------------


def test_far_field_matches_monopole():
    panel = make_panel([[0, 0, 0], [0.1, 0, 0], [0, 0.1, 0]])
    y = panel.centroid + np.array([3.0, -5.0, 8.0])
    want = panel.area * green(y, panel.centroid)
    assert triangle_single_layer(panel, y) == pytest.approx(want, rel=1e-4)


def test_self_term_matches_polar_oracle():
    v2 = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    panel = make_panel([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    c2 = np.mean(v2, axis=0)
    want = oracle_triangle_self(v2, c2)
    assert triangle_single_layer(panel, panel.centroid) == pytest.approx(want, rel=1e-8)
    # off-center in-plane point as well
    pt = np.array([0.3, 0.2])
    assert triangle_single_layer(panel, (0.3, 0.2, 0.0)) == pytest.approx(
        oracle_triangle_self(v2, pt), rel=1e-8
    )


def test_rigid_motion_invariance(rng):
    verts = rng.uniform(-1, 1, (3, 3))
    while np.linalg.norm(np.cross(verts[1] - verts[0], verts[2] - verts[0])) < 0.3:
        verts = rng.uniform(-1, 1, (3, 3))
    y = rng.uniform(-2, 2, 3)
    rot = Rotation.from_rotvec([0.4, -0.9, 0.6]).as_matrix()
    shift = np.array([3.0, -2.0, 1.5])
    a = triangle_single_layer(make_panel(verts), y)
    b = triangle_single_layer(make_panel(verts @ rot.T + shift), rot @ y + shift)
    assert b == pytest.approx(a, rel=1e-13)


def test_vertex_and_edge_points_finite():
    panel = make_panel([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    for pt in [(0, 0, 0), (0.5, 0, 0), (2.5, 0, 0), (-1.0, 0.0, 0.0)]:
        val = triangle_single_layer(panel, pt)
        assert math.isfinite(val)
        assert val >= 0.0


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
        for j in range(0, len(mesh), 11):
            panel = mesh.panel(j)
            for i in range(0, len(mesh), 13):
                d = np.linalg.norm(mesh.centroids[i] - mesh.centroids[j])
                want = (
                    triangle_single_layer(panel, mesh.centroids[i])
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
    # S panels off the plane, (S, q) against the (q, N) source factor; the
    # direct solve must equal an LU of the free block plus the scattered
    # kernel term
    mesh = small_system.mesh
    p = small_system.config.p
    q = p * (p - 1) // 2
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


def test_direct_solve_factors_a_fortran_ordered_copy(small_system, monkeypatch):
    # SciPy overwrites the matrix it factors only if it is Fortran-ordered
    # and copies any other, so the one N x N LU must get an F-ordered copy
    # of the free block and factor it in place; the other LU is the l x l
    # capacitance matrix
    n = small_system.size
    free = small_system.free_matrix.copy()
    seen = []
    real = bem.sla

    class Proxy:
        def __getattr__(self, name):
            return getattr(real, name)

        def lu_factor(self, a, *args, **kwargs):
            lu, piv = real.lu_factor(a, *args, **kwargs)
            seen.append(
                (a.shape, a.flags.f_contiguous, np.shares_memory(lu, a),
                 np.shares_memory(a, small_system.free_matrix))
            )
            return lu, piv

    monkeypatch.setattr(bem, "sla", Proxy())
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    solve(small_system)
    assert len(seen) == 2
    assert seen[0] == ((n, n), True, True, False)
    assert seen[1][0][0] < n
    assert np.array_equal(small_system.free_matrix, free)


@pytest.fixture(scope="module")
def p4_system():
    # q = 6 kernel columns, fewer than one test block of the range finder
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
    with pytest.warns(UserWarning):
        system = assemble(mesh, DomainSpec(r0=2.0, re=3.0), BemConfig(p=4))
    set_point_source_rhs(system, (0.0, 0.0, 1.5))
    return system


@pytest.fixture(scope="module")
def dip_system():
    # the dip study's closest extension, ratio 1.1 with p = 97 for 1e-4:
    # the kernel term's numerical rank spans several test blocks
    mesh = make_bump_dip_mesh(-1, r0=1.0, re=1.1, target_edge=0.11)
    system = assemble(mesh, DomainSpec(r0=1.0, re=1.1), BemConfig(p=97))
    set_point_source_rhs(system, (0.0, 0.0, 0.5))
    return system


@pytest.mark.parametrize(
    "name, rtol", [("p4_system", 1e-12), ("dip_system", 1e-10), ("solved_disc", 1e-12)]
)
def test_direct_solve_matches_densified_oracle(request, name, rtol):
    # small_system is checked in test_direct_solve_adds_kernel_on_surface_rows_only;
    # the dip's Woodbury solve leaves a residual of about 1e-13 after one
    # refinement step, so it differs from the dense LU by more than round-off
    system = request.getfixturevalue(name)
    want = oracle_direct_solve(system)
    got = solve(system)
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_direct_solve_is_deterministic(dip_system):
    first = solve(dip_system)
    assert np.array_equal(solve(dip_system), first)


def test_solve_logs_route_rank_and_residual(small_system, dip_system, solved_disc, caplog):
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    caplog.set_level(logging.DEBUG, logger="groundbem")
    systems = (small_system, dip_system, solved_disc)
    for system in systems:
        solve(system)
    records = [r for r in caplog.records if r.name == "groundbem"]
    assert len(records) == len(systems)
    ranks = []
    for system, record in zip(systems, records):
        assert record.levelno == logging.DEBUG
        words = record.getMessage().split()
        assert words[0] == "solve"
        fields = dict(w.split("=") for w in words[1:])
        s, q = system.rfac.shape
        assert fields["route"] == "lu-woodbury"
        assert (int(fields["n"]), int(fields["s"]), int(fields["q"])) == (system.size, s, q)
        assert 0 <= int(fields["rank"]) <= min(s, q)
        assert 0 <= int(fields["refine"]) <= 3
        assert float(fields["residual"]) <= 1e-10
        ranks.append(int(fields["rank"]))
    # the dip needs more than two test blocks, the kernel-off disc none
    assert ranks[1] > 64 and ranks[2] == 0


def test_truncation_error_halves_twice_per_two_orders(rng):
    # at ratio 2, raising p by 2 cuts the series-vs-integral discrepancy
    # by about (1/2)^2
    from groundbem.ground_kernel import kernel_series, source_signature
    from groundbem.harmonics import build_spectral_constants

    y = np.array([0.9, 0.2, 0.35])
    x = np.array([0.3, -0.8, 0.45])
    cfg = KernelConfig(scale_radius=2.0, p=8, integral_tolerance=1e-12)
    ref = kernel_integral(y, x, cfg)
    errs = []
    for p in (8, 10, 12):
        constants = build_spectral_constants(p)
        val = kernel_series(
            y, source_signature(x / 2.0, constants), KernelConfig(scale_radius=2.0, p=p)
        )
        errs.append(abs(val - ref))
    for e1, e2 in zip(errs, errs[1:]):
        assert 2.0 <= e1 / e2 <= 8.0  # nominal 4, within a factor 2


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
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    direct = solve(small_system)
    it_cfg = BemConfig(p=12, solver="iterative")
    with pytest.warns(UserWarning):
        it_sys = assemble(small_system.mesh, small_system.domain, it_cfg)
    set_point_source_rhs(it_sys, (0.0, 0.0, 1.5))
    iterative = solve(it_sys)
    assert np.linalg.norm(iterative - direct) / np.linalg.norm(direct) < 1e-7


def test_flat_disc_matches_image_charge_density():
    mesh = make_flat_disc_mesh(3.0, 0.15)
    system = assemble(mesh, DomainSpec(r0=3.0, re=3.0), BemConfig(p=2, use_ground_kernel=False))
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
    system = assemble(mesh, DomainSpec(r0=2.0, re=2.0), BemConfig(p=2, use_ground_kernel=False))
    set_point_source_rhs(system, (0.3, 0.3, 1.0))
    # a zero pivot must surface as SolveError, not as a LinAlgWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolveError):
            solve(system)
    assert not [w for w in caught if issubclass(w.category, sla.LinAlgWarning)]


def test_zero_rhs_warns(small_system):
    small_system.rhs = np.zeros(small_system.size)
    with pytest.warns(UserWarning, match="zero right-hand side"):
        sigma = solve(small_system)
    assert np.all(sigma == 0.0)
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    solve(small_system)


def test_boundary_potential_rhs(small_system):
    set_boundary_potential(small_system, lambda c: 1.0)
    on_s = small_system.mesh.tags == SURFACE
    assert np.all(small_system.rhs[on_s] == 1.0)
    assert np.all(small_system.rhs[~on_s] == 0.0)
    with pytest.raises(DomainError):
        set_boundary_potential(small_system, np.ones(3))


# ---------------------------------------------------------------------------
# Field evaluation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_disc():
    mesh = make_flat_disc_mesh(3.0, 0.18)
    system = assemble(mesh, DomainSpec(r0=3.0, re=3.0), BemConfig(p=2, use_ground_kernel=False))
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
    system = assemble(mesh, DomainSpec(r0=1.0, re=1.0), BemConfig(p=2, use_ground_kernel=False))
    with pytest.raises(SolveError, match="no solution"):
        evaluate_field(system, np.array([[0.0, 0.0, 1.0]]))


def test_field_export_round_trip(solved_disc, tmp_path):
    import json

    pts = np.array([[0.3, 0.2, 0.4], [0.1, -0.2, 0.8]])
    grid = evaluate_field(solved_disc, pts, source=(0.0, 0.0, 0.5))
    csv_path = tmp_path / "field.csv"
    json_path = tmp_path / "field.json"
    export_field_csv(grid, csv_path)
    export_field_json(grid, json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,y,z,value,induced,below_ground"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[3]) == grid.values[0]
    payload = json.loads(json_path.read_text())
    assert payload["values"] == grid.values.tolist()
    assert payload["metadata"]["source"] == [0.0, 0.0, 0.5]


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


def test_bench_reads_solved_system(small_system, bench_modules):
    _, worker = bench_modules
    set_point_source_rhs(small_system, (0.0, 0.0, 1.5))
    solve(small_system)
    metrics = worker._system_metrics(small_system)
    p = small_system.config.p
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


def test_assemble_logs_sizes_workers_and_stage_times(pooled_problem, caplog):
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


def test_outputs_independent_of_worker_count(pooled_problem, monkeypatch, caplog):
    mesh, domain, config = pooled_problem
    caplog.set_level(logging.DEBUG, logger="groundbem")
    source = (0.0, 0.0, 1.5)
    pts = np.array([[1.5, 0.0, 0.5], [0.0, 1.2, 1.0], [0.3, -0.4, 2.0]])
    v = np.sin(np.arange(len(mesh)))
    runs = []
    for workers in (1, 3):
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(bem, "_pool", lambda pool=pool: pool)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                system = assemble(mesh, domain, config)
            assert f" workers={workers} " in caplog.records[-1].getMessage()
            set_point_source_rhs(system, source)
            direct = solve(system)
            field = evaluate_field(system, pts, source=source).values
            system.config = BemConfig(p=config.p, solver="iterative")
            iterative = solve(system)
            runs.append((
                system.free_matrix, system.rfac, system.sfac,
                apply_operator(system, v), direct, iterative, field,
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
    pts = np.array([[1.5, 0.0, 0.5], [0.0, 1.2, 1.0]])
    config = BemConfig(p=12, solver="iterative")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tracer.installed(), tracer.span("bench", "operation"):
            system = bem.assemble(small_system.mesh, small_system.domain, config)
            bem.set_point_source_rhs(system, source)
            bem.solve(system)
            bem.evaluate_field(system, pts, source=source)
    spans = tracer.spans
    assert opened_on == {threading.get_ident()}
    assert sum(s.name == "apply_operator" for s in spans) > 5
    for span in spans:
        assert span.end >= span.start and span.self_s >= 0.0
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end


_HYGIENE_SCRIPT = """
import os, sys, threading, time, warnings
import groundbem
assert threading.active_count() == 1, threading.enumerate()
from groundbem import bem
from groundbem.surface_mesh import DomainSpec, make_bump_dip_mesh
warnings.simplefilter("ignore")
mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
domain, config = DomainSpec(r0=2.0, re=3.0), bem.BemConfig(p=6)
first = bem.assemble(mesh, domain, config).free_matrix
assert threading.active_count() > 1
pid = os.fork()
if pid == 0:
    # the child inherits the pool object but none of its threads
    ok = bem.assemble(mesh, domain, config).free_matrix.tobytes() == first.tobytes()
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
