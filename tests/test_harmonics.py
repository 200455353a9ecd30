import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from groundbem.errors import DomainError
from groundbem.harmonics import (
    TruncationAccuracyWarning,
    build_spectral_constants,
    elliptic_ke,
    sh_index,
    solid_harmonics,
    solid_harmonics_batch,
)

from conftest import legendre_p, oracle_solid_harmonic, oracle_solid_harmonics_loop


# ---------------------------------------------------------------------------
# Elliptic integrals
# ---------------------------------------------------------------------------


def quad_k(mu):
    return integrate.quad(
        lambda t: (1.0 - mu * math.sin(t) ** 2) ** -0.5, 0, math.pi / 2,
        epsabs=1e-14, epsrel=1e-13,
    )[0]


def quad_e(mu):
    return integrate.quad(
        lambda t: (1.0 - mu * math.sin(t) ** 2) ** 0.5, 0, math.pi / 2,
        epsabs=1e-14, epsrel=1e-13,
    )[0]


def test_elliptic_at_zero():
    pair = elliptic_ke(0.0)
    assert pair.k_value == pytest.approx(math.pi / 2, abs=1e-15)
    assert pair.e_value == pytest.approx(math.pi / 2, abs=1e-15)


def test_elliptic_frozen_half():
    # frozen from adaptive quadrature of the defining integrals
    pair = elliptic_ke(0.5)
    assert pair.k_value == pytest.approx(1.8540746773013719, rel=1e-13)
    assert pair.e_value == pytest.approx(1.3506438810476755, rel=1e-13)
    assert pair.k_value == pytest.approx(quad_k(0.5), rel=1e-12)
    assert pair.e_value == pytest.approx(quad_e(0.5), rel=1e-12)


def test_elliptic_quadrature_grid():
    for mu in (0.1, 0.35, 0.72, 0.93):
        pair = elliptic_ke(mu)
        assert pair.k_value == pytest.approx(quad_k(mu), rel=1e-11)
        assert pair.e_value == pytest.approx(quad_e(mu), rel=1e-11)


def test_elliptic_landen_identity_grid():
    for mu in np.linspace(0.0, 0.99, 100):
        mu1 = 1.0 - mu
        mu2 = ((1.0 - math.sqrt(mu1)) / (1.0 + math.sqrt(mu1))) ** 2
        k = elliptic_ke(mu).k_value
        k2 = elliptic_ke(mu2).k_value
        assert abs(k - 2.0 / (1.0 + math.sqrt(mu1)) * k2) <= 1e-12 * k
        e = elliptic_ke(mu).e_value
        e2 = elliptic_ke(mu2).e_value
        rhs = (1.0 + math.sqrt(mu1)) * e2 - 2.0 * math.sqrt(mu1) / (
            1.0 + math.sqrt(mu1)
        ) * k2
        assert abs(e - rhs) <= 1e-12 * e


def test_elliptic_monotonicity():
    grid = np.linspace(0.0, 0.99, 100)
    kvals = [elliptic_ke(m).k_value for m in grid]
    evals = [elliptic_ke(m).e_value for m in grid]
    assert all(b > a for a, b in zip(kvals, kvals[1:]))
    assert all(b < a for a, b in zip(evals, evals[1:]))
    assert all(k >= math.pi / 2 - 1e-15 for k in kvals)
    assert all(e <= math.pi / 2 + 1e-15 for e in evals)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_elliptic_domain_error(bad):
    with pytest.raises(DomainError):
        elliptic_ke(bad)


# ---------------------------------------------------------------------------
# Spectral constant tables
# ---------------------------------------------------------------------------


def test_constant_table_seeds():
    c = build_spectral_constants(6)
    assert c.a[0, 0] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert c.big_l[1, 0] == 0.0
    assert c.big_l[0, 0] == pytest.approx(0.28209479177387814, rel=1e-14)


def test_tables_match_direct_factorial_formulas():
    c = build_spectral_constants(7)
    for n in range(c.nmax + 1):
        for m in range(n + 1):
            a_direct = math.sqrt(
                (n + 1 + m) * (n + 1 - m) / ((2 * n + 1) * (2 * n + 3))
            )
            assert c.a[n, m] == pytest.approx(a_direct, rel=1e-14)
            norm_direct = (-1) ** m * math.sqrt(
                (2 * n + 1)
                / (4 * math.pi)
                * math.factorial(n - m)
                / math.factorial(n + m)
            )
            assert c.norm[n, m] == pytest.approx(norm_direct, rel=1e-13, abs=1e-300)
            l_direct = norm_direct * legendre_p(n, m, 0.0)
            assert c.big_l[n, m] == pytest.approx(l_direct, rel=1e-12, abs=1e-16)
            if (n + m) % 2 == 0:
                def dfact(k):
                    out = 1.0
                    while k > 0:
                        out *= k
                        k -= 2
                    return out

                nu_direct = (
                    (-1) ** ((n + m) // 2) * dfact(n - m - 1) * dfact(n + m - 1)
                )
                assert c.nu[n, m] == nu_direct
            else:
                assert c.nu[n, m] == 0.0
                assert c.big_l[n, m] == 0.0
            assert c.parity[n, m] == (1 if (n + m) % 2 == 0 else 0)


def test_null_product_property():
    c = build_spectral_constants(12)
    assert np.all(c.big_l[:-1] * c.big_l[1:] == 0.0)
    assert np.all(c.nu[:-1] * c.nu[1:] == 0.0)


def test_zero_below_diagonal():
    c = build_spectral_constants(5)
    for n in range(c.nmax + 1):
        for m in range(n + 1, c.nmax + 1):
            assert c.a[n, m] == 0.0


def test_truncation_limits():
    with pytest.raises(DomainError):
        build_spectral_constants(0)
    with pytest.raises(DomainError):
        build_spectral_constants(129)
    with pytest.warns(TruncationAccuracyWarning):
        build_spectral_constants(105)
    # the bump anchor's p = 104 is inside the validated envelope
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationAccuracyWarning)
        build_spectral_constants(104)


# ---------------------------------------------------------------------------
# Solid harmonics
# ---------------------------------------------------------------------------


def test_solid_harmonics_seeds():
    t = solid_harmonics((0.37, -1.2, 0.55), 3)
    assert t.value(0, 0) == 1.0
    t2 = solid_harmonics((1.0, 0.0, 0.0), 3)
    assert t2.value(1, 1) == -0.5
    assert t2.value(1, -1) == 0.0
    assert t2.value(1, 0) == 0.0


def test_solid_harmonics_match_rodrigues_oracle(rng):
    for _ in range(4):
        pt = rng.uniform(-1.2, 1.2, 3)
        table = solid_harmonics(pt, 9)
        for n in range(9):
            for m in range(-n, n + 1):
                want = oracle_solid_harmonic(pt, n, m)
                got = table.value(n, m)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(-2, 2), y=st.floats(-2, 2), z=st.floats(-2, 2),
    s=st.floats(0.01, 2.0),
)
def test_homogeneity(x, y, z, s):
    p = 7
    r = max(1.0, math.sqrt(x * x + y * y + z * z))
    t1 = solid_harmonics_batch(np.array([[x, y, z]]), p)[0]
    t2 = solid_harmonics_batch(np.array([[s * x, s * y, s * z]]), p)[0]
    for n in range(p):
        # cancellation-zero entries are compared at the natural r^n scale
        floor = 1e-14 * (max(s, 1.0) * r) ** n
        for m in range(-n, n + 1):
            k = sh_index(n, m)
            assert t2[k] == pytest.approx(s**n * t1[k], rel=1e-12, abs=floor)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-2, 2), y=st.floats(-2, 2))
def test_plane_parity_zeros(x, y):
    p = 9
    t = solid_harmonics_batch(np.array([[x, y, 0.0]]), p)[0]
    for n in range(p):
        for m in range(-n, n + 1):
            if (n + m) % 2 == 1:
                assert t[sh_index(n, m)] == 0.0


def test_batch_matches_single(rng):
    pts = rng.uniform(-1, 1, (5, 3))
    batch = solid_harmonics_batch(pts, 6)
    for i, pt in enumerate(pts):
        single = solid_harmonics(pt, 6)
        assert np.array_equal(batch[i], single.values)


@pytest.mark.parametrize("p", [1, 2, 3, 23, 104, 207])
@pytest.mark.parametrize("npts", [1, 64])
def test_batch_bitwise_equals_loop_oracle(p, npts):
    # compared as int64 bit patterns, so signed zeros must match too
    pts = np.random.default_rng(1000 * p + npts).uniform(-0.9, 0.9, (npts, 3))
    pts[1::3, 2] = 0.0
    pts[2::4, 2] = -0.0
    got = solid_harmonics_batch(pts, p)
    want = oracle_solid_harmonics_loop(pts, p)
    assert got.shape == want.shape == (npts, p * p)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_nonfinite_point_rejected():
    with pytest.raises(DomainError):
        solid_harmonics((np.nan, 0.0, 0.0), 4)
