import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from groundbem.bem import (
    BemConfig,
    assemble,
    evaluate_field,
    set_point_source_rhs,
    solve,
    triangle_single_layer,
)
from groundbem.errors import DomainError
from groundbem.experiments import analytic_bump_potential
from groundbem.ground_kernel import (
    KernelConfig,
    kernel_integral,
    kernel_neumann,
    kernel_series,
    kernel_value,
    receiver_harmonics,
    source_signature_batch,
    source_signature_sum,
)
from groundbem.harmonics import (
    TruncationAccuracyWarning,
    build_spectral_constants,
    check_points,
    elliptic_ke,
    sh_index,
    solid_harmonics_batch,
)

from groundbem.surface_mesh import make_flat_disc_mesh

from conftest import oracle_solid_harmonic, oracle_solid_harmonics_loop


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
    k, e = elliptic_ke(0.0)
    assert k == pytest.approx(math.pi / 2, abs=1e-15)
    assert e == pytest.approx(math.pi / 2, abs=1e-15)


def test_elliptic_frozen_half():
    # frozen from adaptive quadrature of the defining integrals
    k, e = elliptic_ke(0.5)
    assert k == pytest.approx(1.8540746773013719, rel=1e-13)
    assert e == pytest.approx(1.3506438810476755, rel=1e-13)
    assert k == pytest.approx(quad_k(0.5), rel=1e-12)
    assert e == pytest.approx(quad_e(0.5), rel=1e-12)


def test_elliptic_quadrature_grid():
    for mu in (0.1, 0.35, 0.72, 0.93):
        k, e = elliptic_ke(mu)
        assert k == pytest.approx(quad_k(mu), rel=1e-11)
        assert e == pytest.approx(quad_e(mu), rel=1e-11)


def test_elliptic_landen_identity_grid():
    for mu in np.linspace(0.0, 0.99, 100):
        mu1 = 1.0 - mu
        mu2 = ((1.0 - math.sqrt(mu1)) / (1.0 + math.sqrt(mu1))) ** 2
        k, e = elliptic_ke(mu)
        k2, e2 = elliptic_ke(mu2)
        assert abs(k - 2.0 / (1.0 + math.sqrt(mu1)) * k2) <= 1e-12 * k
        rhs = (1.0 + math.sqrt(mu1)) * e2 - 2.0 * math.sqrt(mu1) / (
            1.0 + math.sqrt(mu1)
        ) * k2
        assert abs(e - rhs) <= 1e-12 * e


def test_elliptic_monotonicity():
    grid = np.linspace(0.0, 0.99, 100)
    kvals, evals = (v.tolist() for v in elliptic_ke(grid))
    assert all(b > a for a, b in zip(kvals, kvals[1:]))
    assert all(b < a for a, b in zip(evals, evals[1:]))
    assert all(k >= math.pi / 2 - 1e-15 for k in kvals)
    assert all(e <= math.pi / 2 + 1e-15 for e in evals)


@pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5])
def test_elliptic_domain_error(bad):
    with pytest.raises(DomainError):
        elliptic_ke(bad)
    # one bad entry rejects the whole array
    with pytest.raises(DomainError):
        elliptic_ke(np.array([0.3, bad]))


# (mu, K, E): K and E from mpmath at 40 digits at the float mu, rounded to
# the nearest double.  The last two mu are 1.8e-11 and 2.1e-13 below 1,
# where an AGM iteration's E is about 20 ulp off.
_ELLIPTIC_FROZEN = [
    (0.0, 1.5707963267948966, 1.5707963267948966),
    (1e-3, 1.5711892469233444, 1.5704035540514236),
    (0.5, 1.8540746773013719, 1.3506438810476755),
    (0.9, 2.5780921133481733, 1.1047747327040733),
    (0.98, 3.3541414456991596, 1.0285945190307744),
    (0.999, 4.841132560550297, 1.0021707908344453),
    (1 - 1e-6, 8.294051463601063, 1.0000038970261722),
    (0.9999999999820884, 13.759081730559164, 1.0000000001187455),
    (0.9999999999997895, 15.980943804551746, 1.0000000000016294),
]


@pytest.mark.parametrize("mu, k_ref, e_ref", _ELLIPTIC_FROZEN)
def test_elliptic_within_four_ulp_of_frozen_values(mu, k_ref, e_ref):
    k, e = elliptic_ke(mu)
    assert abs(k - k_ref) <= 4 * np.spacing(k_ref)
    assert abs(e - e_ref) <= 4 * np.spacing(e_ref)


def test_elliptic_array_matches_scalar():
    grid = np.linspace(0.0, 0.999, 37)
    k, e = elliptic_ke(grid)
    for i, mu in enumerate(grid):
        ks, es = elliptic_ke(float(mu))
        assert k[i] == pytest.approx(ks, rel=1e-15)
        assert e[i] == pytest.approx(es, rel=1e-15)


# ---------------------------------------------------------------------------
# Spectral constant table
# ---------------------------------------------------------------------------


def test_constant_table_seeds():
    c = build_spectral_constants(6)
    assert c.p == 6
    assert c.nu.shape == (11, 11)
    assert c.nu[0, 0] == 1.0
    assert c.nu[1, 0] == 0.0
    assert c.nu[1, 1] == -1.0
    assert c.nu[2, 0] == -1.0


def test_tables_match_direct_factorial_formulas():
    c = build_spectral_constants(7)
    for n in range(c.nu.shape[0]):
        for m in range(n + 1):
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


def test_null_product_property():
    c = build_spectral_constants(12)
    assert np.all(c.nu[:-1] * c.nu[1:] == 0.0)


def test_zero_below_diagonal():
    c = build_spectral_constants(5)
    top = c.nu.shape[0]
    for n in range(top):
        for m in range(n + 1, top):
            assert c.nu[n, m] == 0.0


def test_truncation_limits():
    # the configs' range: at p = 1 the kernel has no column (q = 0), and
    # plane sources cannot be signed
    for p in (0, 1, 129):
        with pytest.raises(DomainError, match="truncation number must be an integer in 2..128"):
            build_spectral_constants(p)
    with pytest.warns(TruncationAccuracyWarning):
        build_spectral_constants(105)
    # the bump anchor's p = 104 is inside the validated envelope
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationAccuracyWarning)
        build_spectral_constants(104)


@pytest.mark.parametrize("p", [12.7, 3.9, 8.0, True])
def test_truncation_that_is_not_an_integer_is_refused(p):
    # int() would have turned 12.7 into 12 and 3.9 into 3 without a word;
    # the rule is the configs' own
    pts = np.array([[0.1, 0.2, 0.3]])
    with pytest.raises(DomainError, match="truncation number must be an integer"):
        build_spectral_constants(p)
    with pytest.raises(DomainError, match="truncation number must be an integer"):
        solid_harmonics_batch(pts, p)
    assert build_spectral_constants(np.int64(8)).p == 8
    assert solid_harmonics_batch(pts, np.int64(8)).shape == (1, 64)


# ---------------------------------------------------------------------------
# Solid harmonics
# ---------------------------------------------------------------------------


def test_solid_harmonics_seeds():
    t = solid_harmonics_batch(np.array([[0.37, -1.2, 0.55]]), 3)[0]
    assert t[sh_index(0, 0)] == 1.0
    t2 = solid_harmonics_batch(np.array([[1.0, 0.0, 0.0]]), 3)[0]
    assert t2[sh_index(1, 1)] == -0.5
    assert t2[sh_index(1, -1)] == 0.0
    assert t2[sh_index(1, 0)] == 0.0


def test_solid_harmonics_match_rodrigues_oracle(rng):
    for _ in range(4):
        pt = rng.uniform(-1.2, 1.2, 3)
        table = solid_harmonics_batch(pt[None, :], 9)[0]
        for n in range(9):
            for m in range(-n, n + 1):
                want = oracle_solid_harmonic(pt, n, m)
                got = table[sh_index(n, m)]
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
        single = solid_harmonics_batch(pt[None, :], 6)[0]
        assert np.array_equal(batch[i], single)


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
        solid_harmonics_batch(np.array([[np.nan, 0.0, 0.0]]), 4)


# ---------------------------------------------------------------------------
# Coordinates: one rule, check_points, at every entry point taking points
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def entry_context():
    mesh = make_flat_disc_mesh(1.0, 0.4)
    solved = assemble(mesh, None, BemConfig())
    set_point_source_rhs(solved, (0.0, 0.0, 0.5))
    solve(solved)
    with ThreadPoolExecutor(1) as pool:
        yield dict(mesh=mesh, solved=solved, pool=pool, constants=build_spectral_constants(6),
                   unsolved=assemble(mesh, None, BemConfig()))


_POINT = (0.1, 0.2, 0.3)


def _rhs_of(system, source):
    set_point_source_rhs(system, source)
    return system.rhs.copy()


# Entries taking a batch of points, (M, 3) or one (3,) point; ``c`` is the
# entry_context.  The signature sum takes one weight per row of the batch.
_BATCH_ENTRIES = {
    "solid_harmonics_batch": lambda c, pts: solid_harmonics_batch(pts, 4),
    "receiver_harmonics": lambda c, pts: receiver_harmonics(pts, 4),
    "source_signature_batch": lambda c, pts: source_signature_batch(pts, c["constants"]),
    "source_signature_sum": lambda c, pts: source_signature_sum(
        pts, np.ones(np.atleast_2d(pts).shape[0]), c["constants"], c["pool"]),
    "evaluate_field": lambda c, pts: evaluate_field(c["solved"], pts).values,
}
# Entries taking exactly one point, in either slot of the kernel pair.
_ONE_ENTRIES = {
    "kernel_value": lambda c, pt: kernel_value(pt, _POINT),
    "kernel_integral": lambda c, pt: kernel_integral(
        _POINT, pt, KernelConfig(integral_tolerance=1e-6)),
    "kernel_series": lambda c, pt: kernel_series(pt, _POINT),
    "kernel_neumann": lambda c, pt: kernel_neumann(_POINT, pt),
    "set_point_source_rhs": lambda c, pt: _rhs_of(c["unsolved"], pt),
    "evaluate_field-source": lambda c, pt: evaluate_field(
        c["solved"], [[0.3, -0.2, 0.4]], source=pt).values,
    "triangle_single_layer": lambda c, pt: triangle_single_layer(c["mesh"], pt),
    "analytic_bump_potential": lambda c, pt: analytic_bump_potential(pt, 2.0),
}
_BAD = {
    "two-elements": [0.1, 0.2],
    "2x3x3": np.full((2, 3, 3), 0.1),
    "string": "0.1,0.2,0.3",
    "nan": [0.1, math.nan, 0.3],
    "inf": [0.1, 0.2, -math.inf],
}
# A batch entry takes these; one-point entries must not.
_BAD_ONE = {"two-points": [_POINT, (0.2, 0.1, 0.3)], "no-point": np.zeros((0, 3))}


@pytest.mark.parametrize("name, bad", [
    *((name, bad) for name in _BATCH_ENTRIES for bad in _BAD),
    *((name, bad) for name in _ONE_ENTRIES for bad in (*_BAD, *_BAD_ONE)),
])
def test_every_entry_refuses_bad_coordinates(name, bad, entry_context):
    entry = {**_BATCH_ENTRIES, **_ONE_ENTRIES}[name]
    with pytest.raises(DomainError):
        entry(entry_context, {**_BAD, **_BAD_ONE}[bad])


@pytest.mark.parametrize("name", _BATCH_ENTRIES)
def test_batch_entries_take_every_accepted_shape(name, entry_context):
    # (3,) and (1, 3) give the same bits, as do an (M, 3) array and its
    # nested list; an empty (0, 3) batch is valid
    entry = functools.partial(_BATCH_ENTRIES[name], entry_context)
    pts = np.array([_POINT, (-0.2, 0.1, 0.4), (0.3, -0.1, 0.0)])
    assert np.array_equal(entry(pts[0]), entry(pts[:1]))
    assert np.array_equal(entry(pts), entry(pts.tolist()))
    assert not np.any(entry(np.zeros((0, 3))))


@pytest.mark.parametrize("name", _ONE_ENTRIES)
def test_one_point_entries_take_a_point_or_one_row(name, entry_context):
    entry = functools.partial(_ONE_ENTRIES[name], entry_context)
    pt = np.array([-0.2, 0.1, 0.4])
    assert np.array_equal(entry(pt), entry(pt[None, :]))
    assert np.array_equal(entry(pt), entry(tuple(pt)))


def test_check_points_shapes_and_messages():
    assert check_points([0.1, 0.2, 0.3]).shape == (1, 3)
    assert check_points(np.zeros((0, 3))).shape == (0, 3)
    assert check_points(np.zeros((1, 3), dtype=np.float32), one=True).dtype == np.float64
    pts = np.ones((4, 3))
    assert check_points(pts) is pts
    for bad in (None, 1.5, [object(), 0.0, 0.0], [1j, 0.0, 0.0], [[0.1, 0.2], [0.3]]):
        with pytest.raises(DomainError, match="expected finite points"):
            check_points(bad)
    with pytest.raises(DomainError, match="one point with finite coordinates"):
        check_points([0.0, math.nan, 0.0], one=True)
