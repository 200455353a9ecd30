import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groundbem import ground_kernel
from groundbem.errors import DomainError, QuadratureError
from groundbem.ground_kernel import (
    _INTERIOR_BLOCK,
    KernelConfig,
    RadialTable,
    interior_inner_cap,
    kernel_integral,
    kernel_neumann,
    kernel_series,
    kernel_value,
    radial_table,
    receiver_harmonics,
    source_signature_batch,
    source_signature_sum,
)
from groundbem.harmonics import (
    TruncationAccuracyWarning,
    build_spectral_constants,
    elliptic_ke,
    sh_index,
    solid_harmonics_batch,
)

from conftest import (
    RadialOracle,
    oracle_complex_harmonic,
    oracle_kernel_columns,
    oracle_kernel_neumann_integral,
    oracle_radial_series,
    oracle_series_coefficients,
    oracle_signature_ground_loop,
    oracle_signature_ground_series,
    oracle_signature_interior_single,
    oracle_w,
    oracle_w_raw,
)

CFG = KernelConfig(scale_radius=1.0, p=12, integral_tolerance=1e-11)


# ---------------------------------------------------------------------------
# Radial tables
# ---------------------------------------------------------------------------


def test_w_oracle_matches_raw_quadrature():
    # the positive-integrand representation used by all radial oracles is
    # itself validated against the raw oscillatory integral where the
    # latter is numerically trustworthy
    for m, xi in [(0, 0.3), (1, 0.7), (2, 0.5), (4, 0.6)]:
        assert oracle_w(m, xi) == pytest.approx(oracle_w_raw(m, xi), rel=1e-10)


def test_w_seeds_closed_forms():
    t = radial_table(0.5, 8)
    k, e = elliptic_ke(0.25)
    assert t.w_value(0)[0] == pytest.approx(4.0 * k, rel=1e-14)
    assert t.w_value(1)[0] == pytest.approx(4.0 / 0.5 * (k - e), rel=1e-13)
    assert t.w_value(-1)[0] == t.w_value(1)[0]


def test_w_small_xi_limits():
    t = radial_table(1e-7, 5)
    assert t.w_value(0)[0] == pytest.approx(2.0 * math.pi, rel=1e-10)
    for m in range(1, 4):
        assert abs(t.w_value(m)[0]) < 1e-5


def test_w_positive_and_decreasing_in_m():
    for xi in (0.2, 0.5, 0.8, 0.95):
        t = radial_table(xi, 10)
        w = t.w[:, 0]
        assert w.size == 9
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) < 0.0)


def test_u_seed_closed_form():
    xi = 0.5
    t = radial_table(xi, 6)
    k, e = elliptic_ke(xi * xi)
    u10 = 4.0 / xi**2 * (e - (1.0 - xi * xi) * k)
    assert t.u_value(1, 0)[0] == pytest.approx(u10, rel=1e-13)
    # frozen value of the same quantity
    assert t.u_value(1, 0)[0] == pytest.approx(3.250391091679681, rel=1e-13)
    assert radial_table(1e-7, 4).u_value(1, 0)[0] == pytest.approx(math.pi, rel=1e-9)


def test_u_matches_quadrature_oracle_spot():
    # compact version of the acceptance grid: at p = 16 the u layers of
    # 0.35 run backward and those of 0.9 forward
    for xi in (0.35, 0.9):
        table = radial_table(xi, 16)  # n up to 15
        oracle = RadialOracle(xi, m_max=7)
        for m in range(0, 8):
            for n in table.layer_n[m]:
                assert table.u_value(int(n), m)[0] == pytest.approx(
                    oracle.u(int(n), m), rel=1e-9
                ), (n, m, xi, table.method)


def test_u_negative_m_symmetry():
    t = radial_table(0.6, 7)
    assert t.u_value(4, -3)[0] == t.u_value(4, 3)[0]
    assert t.u_value(3, -2)[0] == t.u_value(3, 2)[0]


def test_u_parity_lookup_rejected():
    t = radial_table(0.6, 7)
    with pytest.raises(DomainError):
        t.u_value(2, 0)
    with pytest.raises(DomainError):
        t.u_value(100, 0)


def test_radial_domain_errors():
    for bad in (-0.5, 0.0, 1.0, 1.2, math.nan):
        with pytest.raises(DomainError):
            radial_table(bad, 6)
    with pytest.raises(DomainError):
        RadialTable(np.array([0.5, math.nan]), 6)
    # truncations as KernelConfig takes them: no silent int() of 6.5,
    # nothing past the float64-safe 128
    for p in (6.5, 1, 129):
        with pytest.raises(DomainError, match="truncation number"):
            radial_table(0.5, p)
    assert radial_table(0.5, np.int64(128)).p == 128


@pytest.mark.parametrize("p", [8, 23, 104])
def test_radial_table_columns_independent_of_batch(p):
    # each column runs its own steps whatever else is in the batch: a
    # batch (several column blocks of the u start sums at p = 104, columns
    # next to both forward thresholds) equals its one-column tables bit
    # for bit
    edges = [math.exp(-f * t / (2.0 * (p - 1))) for t in (1.0, 6.0) for f in (0.98, 1.02)]
    xis = np.concatenate((np.linspace(0.02, 0.999, 37), edges))
    batch = RadialTable(xis, p)
    for col, xi in enumerate(xis):
        alone = radial_table(xi, p)
        assert np.array_equal(_bits(batch.w[:, col]), _bits(alone.w[:, 0]))
        for m in batch.u:
            assert np.array_equal(_bits(batch.u[m][:, col]), _bits(alone.u[m][:, 0]))


def test_radial_table_matches_series_oracle():
    # every stored w and u entry against the positive-term series, sized
    # per column with no term cap; entries below 1e-290 have underflowed
    xis = [1e-7, 1e-4, 0.01, 0.1, 0.3, 0.4719, 0.9, 0.95, 0.9713, 0.9856, 0.995]
    grid = {p: list(xis) for p in (2, 3, 5, 8, 14, 23, 40, 64, 104, 128)}
    grid[104].append(0.999)
    grid[14].append(0.99999)
    for p, column_xis in grid.items():
        table = RadialTable(np.array(column_xis), p)
        for col, xi in enumerate(column_xis):
            w, u = oracle_radial_series(xi, p)
            assert sorted(table.u) == sorted(u)
            pairs = [(table.w[:, col], w)] + [(table.u[m][:, col], u[m]) for m in u]
            for got, want in pairs:
                assert got.shape == want.shape, (p, xi)
                big = want > 1e-290
                np.testing.assert_allclose(
                    got[big], want[big], rtol=1e-11, atol=0.0, err_msg=f"p = {p}, xi = {xi}"
                )


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _kernel_part(table, p):
    """The oracle's n + m odd columns of a p^2-column table, after checking
    that all its other columns are exact zeros."""
    odd = oracle_kernel_columns(p)
    assert np.all(np.delete(table, odd, axis=-1) == 0.0)
    return table[..., odd]


@pytest.mark.parametrize("p", [23, 104])
def test_layerwise_radial_and_signature_bitwise_equal_loops(p):
    # the one-layer-per-|m| signature fill repeats the frozen per-(n, m)
    # loop's exact arithmetic on the same radial table, so the two must
    # agree bit for bit in the kernel's columns
    rng = np.random.default_rng(p)
    xis = np.sort(rng.uniform(0.3, 0.99, 64))
    phi = rng.uniform(-math.pi, math.pi, xis.size)
    pts = np.stack([xis * np.cos(phi), xis * np.sin(phi), np.zeros(xis.size)], axis=1)
    constants = build_spectral_constants(p)
    want_sig = _kernel_part(oracle_signature_ground_loop(pts, constants, p), p)
    assert np.array_equal(_bits(source_signature_batch(pts, constants)), _bits(want_sig))


@pytest.mark.parametrize("p", [2, 3, 23, 104])
def test_receiver_harmonics_are_the_oracle_columns(p):
    pts = np.random.default_rng(p).uniform(-0.6, 0.6, (50, 3))
    want = solid_harmonics_batch(pts, p)[:, oracle_kernel_columns(p)]
    got = receiver_harmonics(pts, p)
    assert got.shape == (50, p * (p - 1) // 2)
    assert np.array_equal(_bits(got), _bits(want))


def test_receiver_harmonics_vanish_on_the_plane():
    pts = np.random.default_rng(3).uniform(-0.6, 0.6, (40, 3))
    pts[:20, 2] = 0.0
    pts[20:, 2] = -0.0
    assert np.all(receiver_harmonics(pts, 23) == 0.0)


def test_quadrature_error_on_singular_source():
    # a source on the plane outside the hole sits on the integration
    # surface; the quadrature must flag it instead of guessing
    cfg = KernelConfig(p=8, integral_tolerance=1e-10)
    with pytest.raises(QuadratureError):
        kernel_integral((0.3, 0.0, 0.4), (1.5, 0.0, 0.0), cfg, tail_radius=50.0)


def test_appendix_integration_by_parts_identity():
    # two representations of the same boundary moment, evaluated from the
    # stored table: I = u_n^m + xi^2 u_{n+2}^m - xi (u_{n+1}^{m-1} + u_{n+1}^{m+1})
    # must equal (v_m - xi^2 u_{n+2}^m + xi/2 (u_{n+1}^{m-1} + u_{n+1}^{m+1}))/(n+1)
    # with v_m = (1 + xi^2) w_m - xi (w_{m+1} + w_{m-1})
    for xi in (0.4, 0.85):
        t = radial_table(xi, 14)
        w = t.w[:, 0]
        for m in range(1, 6):
            vm = (1.0 + xi * xi) * w[m] - xi * (w[m + 1] + w[m - 1])
            for n in range(m + 1, 12):
                if (n + m) % 2 == 0:
                    continue
                um = t.u_value(n, m)[0]
                up2 = t.u_value(n + 2, m)[0]
                um_minus = t.u_value(n + 1, m - 1)[0]
                um_plus = t.u_value(n + 1, m + 1)[0]
                lhs = um + xi * xi * up2 - xi * (um_minus + um_plus)
                rhs = (vm - xi * xi * up2 + 0.5 * xi * (um_minus + um_plus)) / (n + 1.0)
                scale = max(abs(um), abs(vm), 1e-30)
                assert abs(lhs - rhs) <= 1e-10 * scale, (n, m, xi)


def test_w_three_term_identity_against_quadrature():
    # the azimuthal-integral recurrence, checked on oracle values alone
    for xi in (0.3, 0.7, 0.9):
        for m in range(2, 7):
            wm = oracle_w(m, xi)
            wm1 = oracle_w(m - 1, xi)
            wm2 = oracle_w(m - 2, xi)
            resid = (
                wm
                - (1.0 + xi * xi) / xi * (2.0 * m - 2.0) / (2.0 * m - 1.0) * wm1
                + (2.0 * m - 3.0) / (2.0 * m - 1.0) * wm2
            )
            assert abs(resid) <= 1e-10 * max(abs(wm1), abs(wm))


# ---------------------------------------------------------------------------
# Quadrature paths
# ---------------------------------------------------------------------------


def test_plane_vanishing_integral_path():
    assert kernel_integral((0.4, -0.1, 0.0), (0.1, 0.2, 0.3), CFG) == 0.0


def test_odd_z_antisymmetry():
    y = np.array([0.31, -0.22, 0.27])
    x = np.array([0.12, 0.2, 0.33])
    kp = kernel_integral(y, x, CFG)
    km = kernel_integral(y * np.array([1.0, 1.0, -1.0]), x, CFG)
    assert kp == -km
    assert kp != 0.0


def test_axis_pair_against_truncated_oracle():
    y, x = (0.0, 0.0, 0.3), (0.0, 0.0, 0.5)
    full = kernel_integral(y, x, CFG)
    trunc = kernel_integral(y, x, CFG, tail_radius=1e3)
    assert trunc == pytest.approx(full, rel=1e-8)


def test_general_pair_cross_path():
    y, x = (0.5, 0.0, 0.4), (0.2, 0.1, 0.3)
    full = kernel_integral(y, x, CFG)
    trunc = kernel_integral(y, x, CFG, tail_radius=2e3)
    assert trunc == pytest.approx(full, rel=1e-7)


def test_truncated_tail_vanishes_on_plane():
    assert kernel_integral((0.4, 0.0, 0.0), (0.1, 0.0, 0.2), CFG, tail_radius=1e3) == 0.0


def test_tail_convergence_order():
    # doubling the cutoff radius reduces the residual by ~2^4; assert the
    # Richardson order on a ratio test at cutoffs where the differences
    # stay far above quadrature noise
    y, x = (0.5, 0.1, 0.45), (0.25, -0.2, 0.4)
    vals = [
        kernel_integral(y, x, CFG, tail_radius=r)
        for r in (25.0, 50.0, 100.0)
    ]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    order = math.log2(abs(d1) / abs(d2))
    assert order >= 3.5


def test_domain_validation():
    with pytest.raises(DomainError):
        kernel_integral((1.2, 0.0, 0.1), (0.1, 0.0, 0.1), CFG)
    with pytest.raises(DomainError):
        kernel_integral((0.2, 0.0, 0.1), (0.1, 0.0, 0.1), CFG, tail_radius=0.5)
    # NaN passes a "<= R" test; it is refused before the quadrature
    with pytest.raises(DomainError, match="tail radius"):
        kernel_integral((0.2, 0.0, 0.1), (0.1, 0.0, 0.1), CFG, tail_radius=math.nan)
    for radius in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="scale_radius"):
            KernelConfig(scale_radius=radius)
    with pytest.raises(DomainError):
        KernelConfig(p=1)


def test_scaling_law_integral():
    y = np.array([0.3, -0.2, 0.25])
    x = np.array([0.1, 0.2, 0.35])
    for s in (0.5, 1.7, 3.0):
        scaled = KernelConfig(scale_radius=1.0 / s, p=12, integral_tolerance=1e-11)
        assert kernel_integral(y / s, x / s, scaled) == pytest.approx(
            s * kernel_integral(y, x, CFG), rel=1e-12
        )


@settings(max_examples=15, deadline=None)
@given(s=st.floats(0.2, 4.0))
def test_scaling_law_series(s):
    y = np.array([0.3, -0.2, 0.25])
    x = np.array([0.1, 0.2, 0.35])
    base = kernel_series(y, x, KernelConfig(p=10))
    val = kernel_series(y * s, x * s, KernelConfig(scale_radius=s, p=10)) * s
    assert val == pytest.approx(base, rel=1e-12)


def test_series_truncation_comes_from_config():
    # the series reads p from the config alone: each p gives the sum of
    # its own q = p(p - 1)/2 columns, and the values approach the integral
    y = np.array([0.3, -0.2, 0.25])
    x = np.array([0.1, 0.2, 0.35])
    ref = kernel_integral(y, x, CFG)
    errs = []
    for p in (4, 8, 12):
        cfg = KernelConfig(p=p)
        want = receiver_harmonics(y, p)[0] @ source_signature_batch(x, build_spectral_constants(p))[0]
        assert kernel_series(y, x, cfg) == want
        errs.append(abs(kernel_series(y, x, cfg) - ref))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# Series path
# ---------------------------------------------------------------------------


def test_series_vs_integral_small_radii(rng):
    for _ in range(4):
        y = rng.uniform(-0.3, 0.3, 3)
        x = rng.uniform(-0.3, 0.3, 3)
        y[2], x[2] = abs(y[2]) + 0.05, abs(x[2]) + 0.05
        if max(np.linalg.norm(y), np.linalg.norm(x)) > 0.4:
            continue
        ref = kernel_integral(y, x, CFG)
        val = kernel_series(y, x, CFG)
        assert val == pytest.approx(ref, rel=(0.4) ** 12 * 30)


def test_series_plane_vanishing_exact():
    assert kernel_series((0.5, -0.3, 0.0), (0.1, 0.2, 0.3), CFG) == 0.0


def _signature_table(x, p):
    """One source's signature in all p^2 harmonic columns: the kernel's
    columns placed by the oracle layout, every other column zero."""
    table = np.zeros(p * p)
    table[oracle_kernel_columns(p)] = source_signature_batch(x, build_spectral_constants(p))[0]
    return table


def test_signature_parity_zeros():
    # the inner series couples only the n + m odd harmonics: the scalar
    # oracle's full table is exactly zero on all others, so the kernel's
    # columns hold the whole signature
    x = np.array([0.2, 0.1, 0.25])
    full = oracle_signature_interior_single(x, build_spectral_constants(10), 10)
    table = _signature_table(x, 10)
    for n in range(10):
        for m in range(-n, n + 1):
            if (n + m) % 2 == 0:
                assert full[sh_index(n, m)] == 0.0 == table[sh_index(n, m)]
    np.testing.assert_allclose(table, full, rtol=1e-10, atol=0.0)


def test_signature_axisymmetric_source():
    table = _signature_table(np.array([0.0, 0.0, 0.5]), 10)
    for n in range(10):
        for m in range(-n, n + 1):
            if m != 0:
                assert table[sh_index(n, m)] == 0.0
    assert any(table[sh_index(n, 0)] != 0.0 for n in range(1, 10))


def test_ground_branch_matches_converged_series():
    constants = build_spectral_constants(12)
    for rho, phi in [(0.5, 0.7), (0.9, -2.1)]:
        x = np.array([rho * math.cos(phi), rho * math.sin(phi), 0.0])
        rec = source_signature_batch(x, constants)[0]
        ser = _kernel_part(oracle_signature_ground_series(x, constants, 12), 12)
        nz = np.abs(ser) > 0.0
        assert np.all(rec[~nz] == 0.0)
        assert np.max(np.abs(rec[nz] - ser[nz]) / np.abs(ser[nz])) < 1e-8


def test_interior_branch_reaches_ground_limit():
    # interior series evaluated just off the plane approaches the plane
    # recurrence branch; the radius is kept small enough that the capped
    # inner sum (degree 2p - 3) is converged well below the tolerance
    constants = build_spectral_constants(8)
    x_plane = np.array([0.25, 0.1, 0.0])
    x_near = np.array([0.25, 0.1, 1e-9])
    ground, interior = source_signature_batch(np.stack([x_plane, x_near]), constants)
    assert ground.shape == interior.shape == (8 * 7 // 2,)
    nz = np.abs(ground) > 1e-14
    assert np.max(np.abs(interior[nz] - ground[nz]) / np.abs(ground[nz])) < 1e-5


def test_inner_cap_matches_overflow_filter():
    # the cap is the lowest top source degree the inner series keeps:
    # per m the degrees n' = m, m + 2, ... <= 2p - 3 whose nu is finite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationAccuracyWarning)
        for p in range(2, 129):
            constants = build_spectral_constants(p)
            want = 2 * p - 3
            for m in range(p):
                cols = np.arange(m, 2 * p - 2, 2)
                kept = cols[np.isfinite(constants.nu[cols, m])]
                if kept.size:
                    want = min(want, int(kept[-1]))
            assert interior_inner_cap(constants) == want
    # parity alone caps at 2p - 4; at p = 128 the nu overflow bites first
    assert want < 2 * 128 - 4


def test_signature_domain_errors():
    constants = build_spectral_constants(6)
    for bad in (
        [1.0, 0.2, 0.0],
        [[0.2, 0.2, 0.3], [0.0, 0.0, -1.0]],
        [0.2, math.nan, 0.1],
        [[0.2, 0.1], [0.3, 0.0]],
    ):
        with pytest.raises(DomainError):
            source_signature_batch(np.array(bad), constants)


def test_signature_batch_matches_single(rng):
    constants = build_spectral_constants(9)
    pts = np.array(
        [
            [0.3, 0.1, 0.2],
            [0.5, -0.2, 0.0],
            [0.0, 0.0, 0.4],
            [-0.3, 0.6, 0.0],
        ]
    )
    batch = source_signature_batch(pts, constants)
    for i, x in enumerate(pts):
        # interior sources against the scalar inner series; plane sources
        # against a one-source call of the recurrence branch
        if x[2] != 0.0:
            single = _kernel_part(oracle_signature_interior_single(x, constants, 9), 9)
        else:
            single = source_signature_batch(x, constants)[0]
        nz = np.abs(single) > 0
        assert np.allclose(batch[i][nz], single[nz], rtol=1e-10)
        assert np.all(batch[i][~nz] == 0.0)


def test_interior_signature_blocks_are_independent():
    # a call spanning several source blocks equals separate calls on each
    # block bit for bit, and one-source calls to rounding (a one-row
    # product may take another BLAS kernel)
    constants = build_spectral_constants(9)
    n = 2 * _INTERIOR_BLOCK + 3
    pts = np.random.default_rng(7).uniform(-0.4, 0.4, (n, 3))
    whole = source_signature_batch(pts, constants)
    split = np.concatenate(
        [
            source_signature_batch(pts[i0 : i0 + _INTERIOR_BLOCK], constants)
            for i0 in range(0, n, _INTERIOR_BLOCK)
        ]
    )
    assert np.array_equal(whole.view(np.int64), split.view(np.int64))
    for i in (0, _INTERIOR_BLOCK - 1, _INTERIOR_BLOCK, n - 1):
        one = source_signature_batch(pts[i], constants)[0]
        np.testing.assert_allclose(one, whole[i], rtol=1e-13, atol=0.0)


def _ring_and_ball(rng, n_plane, n_interior):
    """Plane sources on the unit disc and interior sources in the upper
    unit ball, shuffled together."""
    rr = np.sqrt(rng.uniform(0.05, 0.95, n_plane))
    ph = rng.uniform(0.0, 2.0 * math.pi, n_plane)
    plane = np.stack([rr * np.cos(ph), rr * np.sin(ph), np.zeros(n_plane)], axis=1)
    d = rng.standard_normal((n_interior, 3))
    d[:, 2] = np.abs(d[:, 2])
    interior = d / np.linalg.norm(d, axis=1)[:, None] * rng.uniform(0.1, 0.9, (n_interior, 1))
    return np.vstack([plane, interior])[rng.permutation(n_plane + n_interior)]


def test_mixed_batch_rows_equal_the_branch_calls():
    # each branch writes its own rows of the one result, the interior
    # sources in blocks of consecutive interior sources, so a shuffled
    # batch equals the plane-only and interior-only calls bit for bit
    constants = build_spectral_constants(14)
    pts = _ring_and_ball(np.random.default_rng(3), 150, 2 * _INTERIOR_BLOCK + 5)
    on_plane = pts[:, 2] == 0.0
    mixed = source_signature_batch(pts, constants)
    assert np.array_equal(_bits(mixed[on_plane]), _bits(source_signature_batch(pts[on_plane], constants)))
    assert np.array_equal(_bits(mixed[~on_plane]), _bits(source_signature_batch(pts[~on_plane], constants)))


def test_signatures_hold_no_second_branch_table():
    # the branches fill the one (N, q) result in place: what the call
    # allocates above its result stays below the (n, q) table the plane
    # branch would build on its own (the radial table it reads is about
    # half that size)
    constants = build_spectral_constants(104)
    n_plane = 2400
    pts = _ring_and_ball(np.random.default_rng(104), n_plane, 300)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = source_signature_batch(pts, constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane_table = n_plane * out.shape[1] * out.itemsize
    assert peak - base - out.nbytes < plane_table


def _signature_sum(pts, weights, constants, workers=2):
    """:func:`source_signature_sum` on a pool of ``workers``: the sum and
    the number of plane chunks sent to the pool."""
    with ThreadPoolExecutor(workers) as pool:
        sent = []
        submit = pool.submit
        pool.submit = lambda *args: sent.append(args) or submit(*args)
        return source_signature_sum(pts, weights, constants, pool), len(sent)


def _inner_series_scale(pts, weights, constants):
    """|weights| @ the sums of the absolute inner-series terms of each
    interior source's signature columns: the rounding of any order of
    summing those terms is a few ulp of this."""
    degree, _, scale, terms = ground_kernel._interior_terms(constants)
    interior = pts[:, 2] != 0.0
    harmonics = np.abs(solid_harmonics_batch(pts[interior], degree))
    out = np.zeros(constants.p * (constants.p - 1) // 2)
    for out_idx, in_idx, cmat_t in terms:
        absolute = (harmonics[:, in_idx] * np.abs(scale[in_idx])) @ np.abs(cmat_t)
        out[out_idx] = np.abs(weights[interior]) @ absolute
    return out


@pytest.mark.parametrize("p", [2, 13, 42, 104])
def test_signature_sum_equals_the_table_product(p):
    # the table-free sum against weights @ the signature table, within
    # 1e-14 of the table's largest entry: a mixed batch of two plane
    # chunks, one smaller than a chunk, one with no plane source and one
    # with no interior source.  The interior sources are summed before
    # their coupling, the table after it; at p = 104 the top inner-series
    # columns of sources near |x| = 0.9 cancel by about 1e4, so there
    # either order is off the exact sum by up to a few ulp of the absolute
    # terms (1e-12 of the largest entry), which the bound allows.
    chunk = ground_kernel._PLANE_CHUNK
    constants = build_spectral_constants(p)
    rng = np.random.default_rng(p)
    for n_plane, n_interior, chunks in (
        (chunk + 37, _INTERIOR_BLOCK + 9, 2), (40, 25, 1), (0, 60, 0), (chunk + 1, 0, 2),
    ):
        pts = _ring_and_ball(rng, n_plane, n_interior)
        weights = rng.uniform(-0.5, 1.5, len(pts))
        want = weights @ source_signature_batch(pts, constants)
        got, sent = _signature_sum(pts, weights, constants)
        assert sent == chunks
        rounding = 4.0 * np.finfo(float).eps * _inner_series_scale(pts, weights, constants)
        assert np.all(np.abs(got - want) <= 1e-14 * np.max(np.abs(want)) + rounding)


def test_signature_sum_independent_of_worker_count():
    # the plane chunks are added in chunk order: pools of one and two
    # workers give the same sum bit for bit
    constants = build_spectral_constants(23)
    rng = np.random.default_rng(5)
    pts = _ring_and_ball(rng, 3 * ground_kernel._PLANE_CHUNK + 11, 70)
    weights = rng.uniform(-1.0, 1.0, len(pts))
    (one, sent), (two, _) = (_signature_sum(pts, weights, constants, w) for w in (1, 2))
    assert sent == 4 and np.array_equal(_bits(one), _bits(two))


def test_signature_sum_domain_errors():
    constants = build_spectral_constants(6)
    pts = np.array([[0.2, 0.1, 0.0], [0.1, 0.0, 0.3]])
    for bad_pts, bad_weights in (
        (pts, np.ones(3)), (np.array([[1.0, 0.2, 0.0], [0.1, 0.0, 0.3]]), np.ones(2)),
    ):
        with pytest.raises(DomainError):
            _signature_sum(bad_pts, bad_weights, constants)


@pytest.mark.parametrize("p", [23, 104])
def test_interior_harmonics_built_to_the_degree_read(p, monkeypatch):
    # the inner series reads source degrees only up to its float64 cap
    # (171 at p = 104); the harmonics recursion runs degree by degree, so
    # building the table that far gives the signatures of the full 2p - 1
    # build bit for bit
    constants = build_spectral_constants(p)
    rng = np.random.default_rng(p)
    dirs = rng.standard_normal((2 * _INTERIOR_BLOCK + 3, 3))
    pts = dirs / np.linalg.norm(dirs, axis=1)[:, None] * rng.uniform(0.05, 0.95, (len(dirs), 1))
    real = ground_kernel.solid_harmonics_batch
    degrees = []

    def capped(points, degree):
        degrees.append(degree)
        return real(points, degree)

    monkeypatch.setattr(ground_kernel, "solid_harmonics_batch", capped)
    got = source_signature_batch(pts, constants)
    monkeypatch.setattr(
        ground_kernel, "solid_harmonics_batch", lambda points, degree: real(points, 2 * p - 1)
    )
    want = source_signature_batch(pts, constants)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert degrees == [{23: 44, 104: 172}[p]] * 3
    top = degrees[0]
    full = real(pts, 2 * p - 1)
    assert np.array_equal(real(pts, top).view(np.int64), full[:, : top * top].view(np.int64))


def test_non_symmetry_witness():
    y = np.array([0.3, 0.0, 0.2])
    x = np.array([0.1, 0.2, 0.4])
    k1 = kernel_integral(y, x, CFG)
    k2 = kernel_integral(x, y, CFG)
    assert abs(k1 - k2) / max(abs(k1), abs(k2)) > 1e-3


def test_kernel_value_dispatch():
    y = np.array([0.3, 0.0, 0.2])
    x = np.array([0.1, 0.2, 0.4])
    # both radii under the dispatch fraction: the series, bit for bit
    ser = kernel_value(y, x, CFG)
    assert ser == kernel_series(y, x, CFG)
    assert ser == pytest.approx(kernel_integral(y, x, CFG), rel=1e-6)
    # beyond 0.95 R but inside the hole: the whole-plane integral
    near = np.array([0.96, 0.0, 0.1])
    assert kernel_value(near, x, CFG) == kernel_integral(near, x, CFG)
    # outside the hole: the integral truncated at 1e3 R plus its tail
    far = np.array([0.99, 0.0, 0.3])
    assert kernel_value(far, x, CFG) == kernel_integral(far, x, CFG, tail_radius=1e3)


# ---------------------------------------------------------------------------
# Neumann kernel
# ---------------------------------------------------------------------------


def test_neumann_definition_exact():
    y = np.array([0.3, 0.1, 0.2])
    x = np.array([0.15, -0.2, 0.4])
    assert kernel_neumann(y, x, CFG) == -kernel_value(x, y, CFG)


def test_neumann_vanishes_for_plane_source():
    assert kernel_neumann((0.3, 0.1, 0.2), (0.4, 0.1, 0.0), CFG) == 0.0


def test_neumann_duality_by_independent_quadratures():
    y = np.array([0.3, -0.2, 0.25])
    x = np.array([0.1, 0.2, 0.35])
    kn = oracle_kernel_neumann_integral(y, x, tail_radius=200.0, config=CFG)
    kd = kernel_integral(x, y, CFG, tail_radius=200.0)
    assert kn == pytest.approx(-kd, rel=1e-7)
    assert kn != 0.0


# ---------------------------------------------------------------------------
# Coefficient tables
# ---------------------------------------------------------------------------


def test_series_coefficients_null_product():
    sc = oracle_series_coefficients(10)
    for m in range(10):
        rows = sc.row_n[m]
        for n in rows:
            for npr in rows:
                prod = sc.j_value(int(n), int(npr), m) * sc.j_value(int(npr), int(n), m)
                assert prod == 0.0
    # and the table is not trivially zero
    assert any(
        sc.j_value(int(n), int(npr), m) != 0.0
        for m in range(3)
        for n in sc.row_n[m][:4]
        for npr in sc.col_n[m][:6]
    )


def test_i_value_radius_power():
    sc = oracle_series_coefficients(6)
    j = sc.j_value(1, 2, 0)
    assert sc.i_value(1, 2, 0, radius=2.0) == pytest.approx(j * 2.0 ** (-4), rel=1e-15)


def test_complex_series_matches_real_factorization():
    # rebuild the truncated kernel from the complex-basis coefficient table
    # and the orthonormal harmonics; it must agree with the real-basis path
    p = 6
    sc = oracle_series_coefficients(p)
    y = np.array([0.25, 0.1, 0.2])
    x = np.array([0.1, -0.15, 0.3])
    total = 0.0 + 0.0j
    for m in range(-(p - 1), p):
        am = abs(m)
        for n in sc.row_n[am]:
            for npr in sc.col_n[am]:
                j = sc.j_value(int(n), int(npr), am)
                if j == 0.0:
                    continue
                total += (
                    j
                    * oracle_complex_harmonic(x, int(npr), -m)
                    * oracle_complex_harmonic(y, int(n), m)
                )
    ref = kernel_series(y, x, KernelConfig(p=p))
    assert abs(total.imag) < 1e-14
    assert total.real == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# Cross-path property (reduced; the full 200-pair sweep is in acceptance)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("eps", [1e-3, 1e-5])
def test_cross_path_error_model(rng, eps):
    from groundbem.experiments import choose_truncation

    radius = 0.7
    p = choose_truncation(radius, 1.0, eps)
    cfg = KernelConfig(p=p, integral_tolerance=1e-9)
    ref, vals = [], []
    for _ in range(20):
        u, v = rng.uniform(0.15, 1.0, 2)
        dy = rng.normal(size=3)
        dx = rng.normal(size=3)
        y = radius * u ** (1 / 3) * dy / np.linalg.norm(dy)
        x = radius * v ** (1 / 3) * dx / np.linalg.norm(dx)
        y[2], x[2] = abs(y[2]), abs(x[2])
        ref.append(kernel_integral(y, x, cfg))
        vals.append(kernel_series(y, x, cfg))
    ref = np.asarray(ref)
    vals = np.asarray(vals)
    eps2 = np.linalg.norm(vals - ref) / np.linalg.norm(ref)
    assert eps2 <= 3.0 * eps
