"""Acceptance suite: one test per required numeric contract, each printing
a PASS/FAIL line with its measured figures (run with ``pytest -s`` to see
them inline).

Heavy benchmark configurations are sized to stay within the stated runtime
budgets on a small machine while keeping the mesh scale comparable (within
the factor-two generator slack) to the reference configurations.
"""

import glob
import math
import re
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from groundbem.bem import BemConfig, apply_ground_kernel, assemble
from groundbem.blas import one_blas_thread
from groundbem.experiments import (
    ALPHA_STAR,
    CostModel,
    analytic_bump_potential,
    choose_truncation,
    cost_bracket,
    fit_power_law,
    measure_cost_curve,
    relative_l2_error,
    run_bump_experiment,
    run_dip_experiment,
)
from groundbem.ground_kernel import (
    KernelConfig,
    kernel_integral,
    kernel_series,
    radial_table,
)
from groundbem.harmonics import elliptic_ke
from groundbem.surface_mesh import DomainSpec, make_bump_dip_mesh

from conftest import (
    RadialOracle,
    oracle_ground_kernel_matrix,
    oracle_kernel_neumann_integral,
    oracle_w,
)


def _upper_ball_points(rng, radius, count):
    d = rng.normal(size=(count, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    d[:, 2] = np.abs(d[:, 2])
    r = radius * rng.uniform(0.0, 1.0, count) ** (1.0 / 3.0)
    return d * r[:, None]


def _last_level_cache_bytes():
    """Largest CPU cache the kernel reports in sysfs (0 if it reports none)."""
    units = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    sizes = [0]
    for path in glob.glob("/sys/devices/system/cpu/cpu*/cache/index*/size"):
        with open(path, encoding="ascii") as fh:
            m = re.fullmatch(r"(\d+)([KMG]?)", fh.read().strip())
        if m:
            sizes.append(int(m[1]) * units[m[2]])
    return max(sizes)


def test_criterion_1_kernel_cross_path_agreement():
    """200 random interior pairs at radii up to 0.7: truncated series vs
    quadrature reference at the truncation chosen for eps = 1e-5."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    radius = 0.7
    eps = 1e-5
    p = choose_truncation(radius, 1.0, eps)
    cfg = KernelConfig(p=p, integral_tolerance=1e-9)
    ys = _upper_ball_points(rng, radius, 200)
    xs = _upper_ball_points(rng, radius, 200)
    ref = np.empty(200)
    val = np.empty(200)
    for i in range(200):
        ref[i] = kernel_integral(ys[i], xs[i], cfg)
        val[i] = kernel_series(ys[i], xs[i], cfg)
    eps2 = relative_l2_error(val, ref)
    elapsed = time.time() - t0
    print(f"\nCRITERION 1 {'PASS' if eps2 <= 3e-5 else 'FAIL'}: "
          f"eps2 = {eps2:.3e} <= 3e-5 (p = {p}, {elapsed:.0f}s)")
    assert eps2 <= 3.0 * eps


def test_criterion_2_plane_vanishing_and_antisymmetry():
    """K vanishes for evaluation points on the plane (both paths) and the
    quadrature path is exactly odd in the evaluation height."""
    rng = np.random.default_rng(102)
    cfg = KernelConfig(p=10, integral_tolerance=1e-10)
    worst_plane = 0.0
    worst_flip = 0.0
    for _ in range(50):
        x = _upper_ball_points(rng, 0.6, 1)[0]
        x[2] += 0.05
        y_plane = _upper_ball_points(rng, 0.8, 1)[0]
        y_plane[2] = 0.0
        scale = abs(kernel_integral(y_plane + [0, 0, 0.3], x, cfg)) + 1e-30
        k_int = kernel_integral(y_plane, x, cfg)
        k_ser = kernel_series(y_plane, x, cfg)
        worst_plane = max(worst_plane, abs(k_int) / scale, abs(k_ser) / scale)
        y = _upper_ball_points(rng, 0.8, 1)[0]
        y[2] = abs(y[2]) + 0.05
        kp = kernel_integral(y, x, cfg)
        km = kernel_integral(y * np.array([1.0, 1.0, -1.0]), x, cfg)
        worst_flip = max(worst_flip, abs(kp + km) / (abs(kp) + 1e-30))
    ok = worst_plane <= 1e-12 and worst_flip <= 1e-13
    print(f"\nCRITERION 2 {'PASS' if ok else 'FAIL'}: plane residual "
          f"{worst_plane:.2e} <= 1e-12, antisymmetry residual {worst_flip:.2e}")
    assert worst_plane <= 1e-12
    assert worst_flip <= 1e-13


def test_criterion_3_radial_recurrences_vs_quadrature():
    """Ground-point radial tables against the independent quadrature
    oracle on the full stated grid, plus both appendix identities."""
    t0 = time.time()
    worst = 0.0
    for xi in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        table = radial_table(xi, 26)  # stores degrees up to 25
        oracle = RadialOracle(xi, m_max=12)
        for m in range(0, 13):
            for n in table.layer_n[m]:
                if n > 25:
                    continue
                got = table.u_value(int(n), m)[0]
                want = oracle.u(int(n), m)
                worst = max(worst, abs(got - want) / abs(want))
    # three-term azimuthal identity on quadrature values alone
    worst_a4 = 0.0
    for xi in (0.3, 0.6, 0.9):
        for m in range(2, 8):
            wm, wm1, wm2 = (oracle_w(k, xi) for k in (m, m - 1, m - 2))
            resid = wm - (1 + xi * xi) / xi * (2 * m - 2) / (2 * m - 1) * wm1 \
                + (2 * m - 3) / (2 * m - 1) * wm2
            worst_a4 = max(worst_a4, abs(resid) / max(abs(wm), abs(wm1)))
    # Landen identity residual
    worst_a7 = 0.0
    for mu in np.linspace(0.01, 0.97, 25):
        mu1 = 1.0 - mu
        mu2 = ((1 - math.sqrt(mu1)) / (1 + math.sqrt(mu1))) ** 2
        k, k2 = elliptic_ke(mu)[0], elliptic_ke(mu2)[0]
        worst_a7 = max(worst_a7, abs(k - 2 / (1 + math.sqrt(mu1)) * k2) / k)
    ok = worst <= 1e-8 and worst_a4 <= 1e-10 and worst_a7 <= 1e-10
    print(f"\nCRITERION 3 {'PASS' if ok else 'FAIL'}: u rel err {worst:.2e} "
          f"<= 1e-8; identity residuals {worst_a4:.2e}, {worst_a7:.2e} <= 1e-10 "
          f"({time.time()-t0:.0f}s)")
    assert worst <= 1e-8
    assert worst_a4 <= 1e-10
    assert worst_a7 <= 1e-10


def test_criterion_4_dirichlet_neumann_duality():
    """Both layer integrals evaluated by their own quadratures at five
    pairs confirm the kernel swap identity to 1e-7."""
    t0 = time.time()
    rng = np.random.default_rng(104)
    cfg = KernelConfig(p=8, integral_tolerance=1e-10)
    worst = 0.0
    for _ in range(5):
        y = _upper_ball_points(rng, 0.6, 1)[0] + np.array([0, 0, 0.1])
        x = _upper_ball_points(rng, 0.6, 1)[0] + np.array([0, 0, 0.1])
        kn = oracle_kernel_neumann_integral(y, x, tail_radius=180.0, config=cfg)
        kd = kernel_integral(x, y, cfg, tail_radius=180.0)
        worst = max(worst, abs(kn + kd) / max(abs(kn), 1e-30))
    print(f"\nCRITERION 4 {'PASS' if worst <= 1e-7 else 'FAIL'}: duality "
          f"residual {worst:.2e} <= 1e-7 ({time.time()-t0:.0f}s)")
    assert worst <= 1e-7


def test_criterion_5_factored_assembly_equivalence_and_scaling():
    """Factored kernel term equals the densified matrix at truncation
    accuracy, and its matvec cost is linear in the panel count."""
    t0 = time.time()
    rng = np.random.default_rng(105)
    mesh = make_bump_dip_mesh(1, r0=2.0, re=3.0, target_edge=0.5)
    domain = DomainSpec(r0=2.0, re=3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble(mesh, domain, BemConfig(p=12))
    dense = oracle_ground_kernel_matrix(system)
    bound = 3.0 * (2.0 / 3.0) ** 12
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(len(mesh))
        a = apply_ground_kernel(system, v)
        b = dense @ v
        worst = max(worst, float(np.linalg.norm(a - b) / np.linalg.norm(b)))
    assert worst <= bound

    # O(N) matvec: quadruple the panel count, expect ~4x the time.  Cache
    # is flushed before every timed application so both sizes stream their
    # factor pair from memory (in-cache residency would otherwise skew the
    # ratio either way), so the flush buffer is twice the last-level cache
    # and never under 128 MB; single BLAS thread for stable numbers.  The
    # kernel rows (|y| <= 1) need p = 22 for 1e-8, so the factors take the
    # cap, q = 190 columns: a product large enough to time.
    def build(edge):
        m = make_bump_dip_mesh(1, r0=2.0, re=2.4, target_edge=edge)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return assemble(m, DomainSpec(r0=2.0, re=2.4), BemConfig(p=20, prescribed_eps=1e-8))

    small = build(0.15)
    big = build(0.075)
    assert small.degree == big.degree == 20
    panel_ratio = big.size / small.size
    flusher = np.zeros(max(16_000_000, 2 * _last_level_cache_bytes() // 8))

    def matvec_time(sys_):
        v = rng.standard_normal(sys_.size)
        times = []
        for _ in range(17):
            _ = flusher.sum()
            t1 = time.perf_counter()
            apply_ground_kernel(sys_, v)
            times.append(time.perf_counter() - t1)
        return float(np.median(times))

    with one_blas_thread() as counts:
        assert counts and set(counts.values()) == {1}, counts
        ratios = [matvec_time(big) / matvec_time(small) for _ in range(3)]
    time_ratio = float(np.median(ratios))
    normalized = time_ratio * 4.0 / panel_ratio
    ok = 3.0 <= normalized <= 5.0
    print(f"\nCRITERION 5 {'PASS' if worst <= bound and ok else 'FAIL'}: "
          f"factored vs dense rel {worst:.2e} <= {bound:.2e}; matvec time ratio "
          f"{time_ratio:.2f} for {panel_ratio:.2f}x panels (4x-normalized "
          f"{normalized:.2f} in [3, 5]) ({time.time()-t0:.0f}s)")
    assert 3.0 <= normalized <= 5.0


def test_criterion_6_bump_benchmark():
    """Bump benchmark at the reference configuration scale: the kernel
    solver lands between 1e-3 and 2e-2 relative error against the image
    solution, the plain truncated solver is at least five times worse, and
    the closed image-surface solver is at least as good (5% comparison
    slack: both sit on the shared surface-discretization floor)."""
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_bump_experiment(
            h=2.0, delta=0.0935, target_edge=0.09, eps=1e-4, grid_shape=(16, 18)
        )
    ok = (
        1e-3 <= rep.eps2_inf <= 2e-2
        and rep.eps2_truncated >= 5.0 * rep.eps2_inf
        and rep.eps2_image <= 1.05 * rep.eps2_inf
    )
    print(f"\nCRITERION 6 {'PASS' if ok else 'FAIL'}: eps2(inf) = "
          f"{rep.eps2_inf:.3e} in [1e-3, 2e-2]; truncated/inf = "
          f"{rep.eps2_truncated / rep.eps2_inf:.1f}x >= 5; image "
          f"{rep.eps2_image:.3e} <= 1.05 inf "
          f"(N_e = {rep.n_panels}, N_0 = {rep.n_omega0}, p = {rep.p}, "
          f"{time.time()-t0:.0f}s)")
    assert 1e-3 <= rep.eps2_inf <= 2e-2
    assert rep.eps2_truncated >= 5.0 * rep.eps2_inf
    assert rep.eps2_image <= 1.05 * rep.eps2_inf


def test_criterion_7_dip_benchmark():
    """Dip sweep against the self-converged reference: tenfold gap at the
    reference extension, inverse-cube decay of the truncated solver, flat
    kernel-solver error."""
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = run_dip_experiment(
            h=0.5,
            ratios=(1.1, 1.124, 1.25, 1.4, 1.6, 1.8, 2.0),
            target_edge=0.11,
            eps=1e-4,
            reference_ratio=1.5,
            reference_eps=1e-6,
            reference_edge=0.077,
            grid_shape=(10, 16),
        )
    i = list(rep.ratios).index(1.124)
    gap = rep.eps2_truncated[i] / rep.eps2_inf[i]
    slope, _ = fit_power_law(rep.ratios, rep.eps2_truncated)
    flat = rep.eps2_inf.max() / rep.eps2_inf.min()
    ok = gap >= 10.0 and -3.5 <= slope <= -2.5 and flat <= 3.0
    print(f"\nCRITERION 7 {'PASS' if ok else 'FAIL'}: gap at ratio 1.124 = "
          f"{gap:.0f}x >= 10 (inf {rep.eps2_inf[i]:.2e} vs truncated "
          f"{rep.eps2_truncated[i]:.2e}); truncated slope {slope:.2f} in "
          f"[-3.5, -2.5]; inf max/min {flat:.2f} <= 3 ({time.time()-t0:.0f}s)")
    assert gap >= 10.0
    assert -3.5 <= slope <= -2.5
    assert flat <= 3.0


def test_criterion_8a_cost_constants():
    """Critical truncation and the cost-derivative bracket at eps = 1e-4."""
    model = CostModel()
    pc = model.p_critical(1e-4)
    ok = abs(pc - 11.56) <= 0.01
    straddle = cost_bracket(pc - 2, 1e-4) < 0.0 < cost_bracket(pc + 2, 1e-4)
    print(f"\nCRITERION 8a {'PASS' if ok and straddle else 'FAIL'}: "
          f"p_c(1e-4) = {pc:.4f} = 11.56 +- 0.01; bracket sign change "
          f"straddles p_c: {straddle}")
    assert abs(pc - 11.56) <= 0.01
    assert straddle


def test_criterion_8b_beta_value():
    """The optimal extension ratio is beta = exp(alpha*), where alpha* is
    the nonzero root of 1 - t - exp(-2t) = 0 (the zero of the kernel-cost
    derivative bracket): beta = exp(0.79681213) = 2.2185 +- 0.001, and it
    matches exp of an independently bracketed root to 1e-12.  (2.2255 is
    exp(0.8), the rounded exponent; t = 0.8 leaves a residual of -1.9e-3
    in the defining equation and would move p_c(1e-4) off criterion 8a.)"""
    beta = CostModel().beta
    root = brentq(lambda t: 1.0 - t - math.exp(-2.0 * t), 0.5, 1.0, xtol=1e-15)
    ok = (abs(beta - math.exp(root)) <= 1e-12 * math.exp(root)
          and abs(beta - 2.2185) <= 0.001)
    print(f"\nCRITERION 8b {'PASS' if ok else 'FAIL'}: beta = {beta:.6f} = "
          f"exp(alpha*) vs exp(brentq root) = {math.exp(root):.6f}, "
          f"2.2185 +- 0.001")
    assert beta == pytest.approx(math.exp(ALPHA_STAR), rel=1e-9)
    assert abs(beta - math.exp(root)) <= 1e-12 * math.exp(root)
    assert abs(beta - 2.2185) <= 0.001


def test_criterion_9_cost_curve_minimum():
    """Wall-clock substitute for the timing figures: the measured factored
    kernel cost over the extension ratio has an interior minimum at fixed
    prescribed accuracy."""
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        curve = measure_cost_curve(
            ratios=(1.15, 1.35, 1.6, 2.0, 2.5, 3.0, 3.7),
            eps=1e-4,
            n_receivers=48,
            n_sources=192,
            repeats=3,
            seed=9,
        )
    k = int(np.argmin(curve.seconds))
    interior = 0 < k < curve.ratios.size - 1
    ok = interior and curve.seconds[k] < curve.seconds[0] and curve.seconds[k] < curve.seconds[-1]
    pairs = ", ".join(
        f"{r:.2f}:{s*1e3:.0f}ms" for r, s in zip(curve.ratios, curve.seconds)
    )
    print(f"\nCRITERION 9 {'PASS' if ok else 'FAIL'}: measured cost minimum at "
          f"ratio {curve.ratios[k]:.2f} ({'interior' if interior else 'edge'}), curve [{pairs}] "
          f"({time.time()-t0:.0f}s)")
    assert interior
    assert curve.seconds[k] < curve.seconds[0]
    assert curve.seconds[k] < curve.seconds[-1]
