"""Shared independent oracles for the test suite.

Everything here is deliberately built from different primitives than the
library paths it checks: associated Legendre values come from polynomial
differentiation, solid harmonics and interior signatures from scalar
per-(n, m) loops, plane-source signatures from the term-ratio inner series,
the complex-basis coupling table from the closed forms of a_n^m and L_n^m,
the plane-source radial functions from their positive-term series and from
a positive-integrand Legendre-function representation plus Gauss
quadrature, the Neumann kernel from its own layer integral, the triangle
self-term from a polar-coordinate ray integral, the triangle single layer
from the three-edge antiderivative sum, the free-space block from a
per-panel column loop, the densified kernel matrix from one
single-source signature per panel, and the direct solve from one dense LU
of the free block plus the densified kernel term.  The per-(n, m)
plane-signature fill is
frozen here as the reference that the library's layer-at-a-time fill must
match bit for bit.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from scipy import integrate
from scipy import linalg as sla

from groundbem.bem import _panel_table, _single_layer_bare
from groundbem.blas import blas_thread_counts
from groundbem.errors import QuadratureError
from groundbem.ground_kernel import (
    _TAIL_RADIUS,
    KernelConfig,
    RadialTable,
    _cyl,
    _phi_integral,
    source_signature_batch,
)
from groundbem.harmonics import build_spectral_constants, sh_index, solid_harmonics_batch


# ---------------------------------------------------------------------------
# Associated Legendre / solid harmonic oracle (Rodrigues formula)
# ---------------------------------------------------------------------------


def legendre_p(n, m, xi):
    """P_n^m via Rodrigues-formula polynomial differentiation, including
    the Condon-Shortley phase."""
    base = [1.0]
    for _ in range(n):
        base = P.polymul(base, [-1.0, 0.0, 1.0])
    d = P.polyder(base, n + m)
    val = P.polyval(xi, d)
    return (-1) ** m * (1 - xi * xi) ** (m / 2) / (2**n * math.factorial(n)) * val


def oracle_solid_harmonic(pt, n, m):
    """Direct evaluation of the scaled real solid harmonic."""
    x, y, z = pt
    r = math.sqrt(x * x + y * y + z * z)
    if r == 0.0:
        return 1.0 if n == 0 else 0.0
    am = abs(m)
    phi = math.atan2(y, x)
    trig = math.cos(m * phi) if m >= 0 else math.sin(m * phi)
    return (
        (-1) ** ((n + am) % 2)
        / math.factorial(n + am)
        * r**n
        * legendre_p(n, am, z / r)
        * trig
    )


def oracle_complex_harmonic(pt, n, m):
    """Orthonormal complex solid harmonic r^n Y_n^m.

    The normalization carries (-1)^|m|, so Y_n^{-m} = conj(Y_n^m) with no
    extra phase; the azimuthal factor uses the signed order directly.
    """
    x, y, z = pt
    r = math.sqrt(x * x + y * y + z * z)
    am = abs(m)
    norm = (-1) ** am * math.sqrt(
        (2 * n + 1)
        / (4 * math.pi)
        * math.factorial(n - am)
        / math.factorial(n + am)
    )
    phi = math.atan2(y, x)
    val = norm * legendre_p(n, am, z / r if r else 1.0) * r**n
    return val * complex(math.cos(m * phi), math.sin(m * phi))


def oracle_solid_harmonics_loop(points, p):
    """Real solid harmonics by the per-(n, m) column loop: the diagonal
    fill, then per |m| the subdiagonal step and the vertical three-term
    recurrence, one scalar-indexed column at a time.  Same arithmetic, in
    the same order, as the library's degree-blocked recursion, so the two
    agree bit for bit."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    r2 = x * x + y * y + z * z

    def col(n, m):
        return n * n + n + m

    vals = np.zeros((pts.shape[0], p * p))
    vals[:, col(0, 0)] = 1.0
    if p == 1:
        return vals
    vals[:, col(1, 1)] = -0.5 * x
    vals[:, col(1, -1)] = 0.5 * y
    for m in range(2, p):
        cp = vals[:, col(m - 1, m - 1)]
        cm = vals[:, col(m - 1, -(m - 1))]
        vals[:, col(m, m)] = -(x * cp + y * cm) / (2.0 * m)
        vals[:, col(m, -m)] = (y * cp - x * cm) / (2.0 * m)
    for m in range(0, p - 1):
        for sign in ((1,) if m == 0 else (1, -1)):
            sm = sign * m
            vals[:, col(m + 1, sm)] = -z * vals[:, col(m, sm)]
            for n in range(m + 1, p - 1):
                vals[:, col(n + 1, sm)] = -(
                    (2.0 * n + 1.0) * z * vals[:, col(n, sm)]
                    + r2 * vals[:, col(n - 1, sm)]
                ) / ((n + 1.0) ** 2 - m * m)
    return vals


# ---------------------------------------------------------------------------
# Interior-source signature oracle (scalar inner series)
# ---------------------------------------------------------------------------


def oracle_signature_interior_single(x, constants, p):
    """Single-source inner series with the literal stopping rule: stop a
    (n, m) sum once three consecutive terms fall below 1e-16 of the running
    sum, capped at n' = 2p - 3.  Scalar loops over the loop-oracle
    harmonics, independent of the library's blocked matrix form."""
    harmonics = oracle_solid_harmonics_loop(np.asarray(x, dtype=float), 2 * p - 1)[0]
    coeffs = np.zeros(p * p)
    for m in range(p):
        pref = -(2.0 - (1.0 if m == 0 else 0.0)) / (4.0 * math.pi)
        for n in range(m, p):
            if (n + m) % 2 == 0:
                continue
            nu_r = constants.nu[n + 1, m]
            for sm in ((m,) if m == 0 else (m, -m)):
                total = 0.0
                quiet = 0
                for npr in range(m, 2 * p - 2, 2):
                    nu_c = constants.nu[npr, m]
                    if not math.isfinite(nu_c):
                        break
                    term = nu_c / (npr + n + 1.0) * harmonics[npr * npr + npr + sm]
                    total += term
                    if abs(term) <= 1e-16 * abs(total):
                        quiet += 1
                        if quiet >= 3:
                            break
                    else:
                        quiet = 0
                coeffs[n * n + n + sm] = pref * nu_r * total
    return coeffs


def oracle_signature_ground_series(x, constants, p, tail=1e-17, max_terms=100_000):
    """Plane-source signature summed from the inner harmonic series to full
    convergence, in term-ratio form with a bounded running-product seed for
    nu_m^m R_m^{+-m}; independent of the radial recurrences.  Usable for any
    |x| < 1 with z = 0."""
    rho = math.hypot(x[0], x[1])
    phi = math.atan2(x[1], x[0])
    assert rho < 1.0, "series converges only for |x| < 1"
    coeffs = np.zeros(p * p)
    rho2 = rho * rho
    for m in range(p):
        pref = -(2.0 - (1.0 if m == 0 else 0.0)) / (4.0 * math.pi)
        seed_mag = 1.0
        for k in range(1, m + 1):
            seed_mag *= rho * (2.0 * k - 1.0) / (2.0 * k)
        for n in range(m, p):
            if (n + m) % 2 == 0:
                continue
            nu_r = constants.nu[n + 1, m]
            t = seed_mag / (m + n + 1.0)
            total = t
            npr = m
            count = 0
            while True:
                ratio = (
                    rho2
                    * (npr - m + 1.0)
                    * (npr + m + 1.0)
                    / ((npr + 2.0 - m) * (npr + 2.0 + m))
                    * (npr + n + 1.0)
                    / (npr + n + 3.0)
                )
                t *= ratio
                total += t
                npr += 2
                count += 1
                if t <= tail * total or count >= max_terms:
                    break
            base = pref * nu_r * total
            coeffs[n * n + n + m] = base * math.cos(m * phi)
            if m > 0:
                coeffs[n * n + n - m] = base * math.sin(-m * phi)
    return coeffs


def oracle_signature_ground_loop(points, constants, p):
    """Plane-source signatures filled one (n, m) column at a time from the
    radial table's ``u_value``; the same arithmetic, in the same order, as
    the library's one-layer-per-|m| fill."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    table = RadialTable(rho, p)
    coeffs = np.zeros((pts.shape[0], p * p))
    for m in range(p - 1):
        pref = -(2.0 - (1.0 if m == 0 else 0.0)) / (8.0 * math.pi**2)
        cosm = np.cos(m * phi)
        sinm = np.sin(-m * phi)
        for n in range(m, p):
            if (n + m) % 2 == 0:
                continue
            base = pref * constants.nu[n + 1, m] * table.u_value(n, m)
            coeffs[:, sh_index(n, m)] = base * cosm
            if m > 0:
                coeffs[:, sh_index(n, -m)] = base * sinm
    return coeffs


# ---------------------------------------------------------------------------
# Complex-basis coupling coefficients of the double harmonic series
# ---------------------------------------------------------------------------


class SeriesCoefficients:
    """Coupling coefficients of the double harmonic series.

    ``j[m][i, k]`` couples receiver degree ``n = row_n[m][i]`` with source
    degree ``n' = col_n[m][k]``; the ``R^(-n-n'-1)`` radius factor is
    applied at evaluation time via :meth:`i_value`.
    """

    def __init__(self, p, j, row_n, col_n):
        self.p, self.j, self.row_n, self.col_n = p, j, row_n, col_n

    def j_value(self, n, nprime, m):
        am = abs(m)
        assert am in self.row_n and am <= n < self.p and am <= nprime <= self.col_n[am][-1]
        return float(self.j[am][n - am, nprime - am])

    def i_value(self, n, nprime, m, radius=1.0):
        return self.j_value(n, nprime, m) * radius ** (-(n + nprime + 1))


def coupling_a(n, m):
    """z-derivative coupling coefficient a_n^m, closed form."""
    return math.sqrt((n + 1 + m) * (n + 1 - m) / ((2 * n + 1) * (2 * n + 3)))


def equator_l(n, m):
    """L_n^m: the orthonormal spherical harmonic's normalization times
    P_n^m(0), zero whenever n + m is odd."""
    norm = (-1) ** m * math.sqrt(
        (2 * n + 1) / (4 * math.pi) * math.factorial(n - m) / math.factorial(n + m)
    )
    return norm * legendre_p(n, m, 0.0)


def oracle_series_coefficients(p):
    """Tables of the double-series coupling coefficients for n < p and
    n' <= 2p - 3, from the closed forms of a_n^m and L_n^m."""
    j, row_n, col_n = {}, {}, {}
    for m in range(p):
        rows = np.arange(m, p)
        cols = np.arange(m, 2 * p - 2)
        big_l_cols = np.array([equator_l(int(c), m) for c in cols])
        tab = np.zeros((rows.size, cols.size))
        for i, n in enumerate(rows):
            lnp1 = equator_l(int(n) + 1, m)
            if lnp1 == 0.0:
                continue
            tab[i] = (
                4.0
                * math.pi
                * coupling_a(int(n), m)
                * lnp1
                * big_l_cols
                / ((2.0 * cols + 1.0) * (n + cols + 1.0))
            )
        j[m], row_n[m], col_n[m] = tab, rows, cols
    return SeriesCoefficients(p, j, row_n, col_n)


# ---------------------------------------------------------------------------
# Plane-source radial function oracles
# ---------------------------------------------------------------------------


def oracle_w(m, xi):
    """Azimuthal integral of the inverse ring distance.

    Uses the Legendre-function-of-the-second-kind representation with a
    positive, exponentially decaying integrand, so the value is accurate
    in relative terms even where it is exponentially small in m.  The
    equivalence with the raw oscillatory integral is itself asserted by a
    test at moderate parameters.
    """
    chi = (1.0 + xi * xi) / (2.0 * xi)
    s = math.sqrt(chi * chi - 1.0)
    val, _ = integrate.quad(
        lambda t: (chi + s * math.cosh(t)) ** (-(m + 0.5)),
        0.0,
        80.0,
        epsabs=1e-300,
        epsrel=1e-13,
        limit=500,
    )
    return 2.0 / math.sqrt(xi) * val


def oracle_w_raw(m, xi):
    """Direct oscillatory quadrature of the defining integral; reliable
    only for small m where cancellation is mild."""
    val, _ = integrate.quad(
        lambda ph: math.cos(m * ph) / math.sqrt(1.0 - 2.0 * xi * math.cos(ph) + xi * xi),
        0.0,
        2.0 * math.pi,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=500,
    )
    return val


def oracle_radial_series(xi, p, tail=4e-17):
    """Radial tables at one xi from their positive-term series:

        w_m   = 2 pi xi^m sum_j a_j a_(j+m) xi^(2j),
        u_n^m = 2 pi xi^m sum_j a_j a_(j+m) xi^(2j) / (n + m + 2j + 1),

    a_k = (2k - 1)!!/(2k)!!, the second by term-by-term integration of the
    first.  Every term is positive, so each value is accurate in relative
    terms, also where it is exponentially small in m.  Summed until
    xi^(2j) falls below ``tail``, sized for this xi alone with no cap on
    the term count.  Returns (w over m = 0..max(1, p - 2), {m: u over
    n = m + 1, m + 3, ... < p}).
    """
    m_top = max(1, p - 2)
    terms = 24 if xi <= 0.1 else int(math.log(tail) / (2.0 * math.log(xi))) + 8
    j = np.arange(terms + 1, dtype=float)
    k = np.arange(1, terms + m_top + 2, dtype=float)
    a = np.concatenate(([1.0], np.cumprod((2.0 * k - 1.0) / (2.0 * k))))
    zpow = (xi * xi) ** j
    w = np.empty(m_top + 1)
    u = {}
    for m in range(m_top + 1):
        bz = a[: terms + 1] * a[m : m + terms + 1] * zpow
        scale = 2.0 * math.pi * xi**m
        w[m] = scale * np.sum(bz)
        if m <= p - 2:
            u[m] = np.array([scale * np.sum(bz / (n + m + 2.0 * j + 1.0))
                             for n in range(m + 1, p, 2)])
    return w, u


class RadialOracle:
    """u_n^m by Gauss-Legendre quadrature of the radial moment of w_m,
    with w values cached per (m, node) and a two-resolution consistency
    check."""

    def __init__(self, xi, m_max, nodes=96):
        self.xi = xi
        t, w = np.polynomial.legendre.leggauss(nodes)
        self.t = 0.5 * (t + 1.0)
        self.wq = 0.5 * w
        t2, w2 = np.polynomial.legendre.leggauss(nodes // 2 + 8)
        self.t_lo = 0.5 * (t2 + 1.0)
        self.wq_lo = 0.5 * w2
        self.wvals = {
            m: np.array([oracle_w(m, xi * tt) for tt in self.t])
            for m in range(m_max + 1)
        }
        self.wvals_lo = {
            m: np.array([oracle_w(m, xi * tt) for tt in self.t_lo])
            for m in range(m_max + 1)
        }

    def u(self, n, m):
        m = abs(m)
        hi = float(np.sum(self.wq * self.t**n * self.wvals[m]))
        lo = float(np.sum(self.wq_lo * self.t_lo**n * self.wvals_lo[m]))
        assert abs(hi - lo) <= 1e-9 * abs(hi), (
            f"radial oracle not converged at n={n}, m={m}, xi={self.xi}"
        )
        return hi


# ---------------------------------------------------------------------------
# Neumann kernel oracle (its own layer integral)
# ---------------------------------------------------------------------------


def oracle_kernel_neumann_integral(y, x, tail_radius=_TAIL_RADIUS, config=KernelConfig()):
    """Neumann kernel KN(y, x; R) by direct quadrature of its own layer
    integral: the single layer of the normal derivative of the free-space
    kernel at the source.  Integrated in the untransformed radial variable,
    so the path is numerically independent of the Dirichlet quadrature;
    used to confirm the duality swap rather than assume it.
    """
    yp = np.asarray(y, dtype=float).reshape(3)
    xp = np.asarray(x, dtype=float).reshape(3)
    r = config.scale_radius
    rinf = float(tail_radius)
    assert rinf > r, "tail radius must exceed the scale radius"
    if xp[2] == 0.0:
        return 0.0
    rho_y, phi_y, _, r_y = _cyl(yp)
    rho_x, phi_x, _, r_x = _cyl(xp)
    tol = config.integral_tolerance

    def inner(rho_p):
        def fvals(phi):
            dy = rho_p * rho_p - 2.0 * rho_y * rho_p * np.cos(phi - phi_y) + r_y * r_y
            dx = rho_p * rho_p - 2.0 * rho_x * rho_p * np.cos(phi - phi_x) + r_x * r_x
            return rho_p / (np.sqrt(dy) * dx * np.sqrt(dx))
        return _phi_integral(fvals, 0.05 * tol)

    breaks = [b for b in (2.0 * r, 10.0 * r, 100.0 * r) if r < b < rinf]
    val, abserr, info, *rest = integrate.quad(
        inner, r, rinf, epsabs=1e-300, epsrel=tol, limit=400,
        points=breaks or None, full_output=True,
    )
    if rest:
        raise QuadratureError(
            f"neumann quadrature did not converge: {rest[0]}",
            estimate=abserr, value=val,
        )
    tail = xp[2] / (8.0 * math.pi * rinf * rinf)
    return xp[2] / (8.0 * math.pi**2) * val + tail


# ---------------------------------------------------------------------------
# Triangle self-term oracle (polar ray integral, in-plane points)
# ---------------------------------------------------------------------------


def oracle_triangle_self(vertices2d, point2d):
    """For an in-plane evaluation point, the single-layer integral over a
    plane triangle reduces to the angular integral of the ray length to
    the boundary."""
    v = np.asarray(vertices2d, dtype=float)
    y = np.asarray(point2d, dtype=float)

    def rho_max(phi):
        d = np.array([math.cos(phi), math.sin(phi)])
        best = math.inf
        for q in range(3):
            p0, p1 = v[q], v[(q + 1) % 3]
            a = np.array([[d[0], p0[0] - p1[0]], [d[1], p0[1] - p1[1]]])
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            if abs(det) < 1e-14:
                continue
            t, s = np.linalg.solve(a, p0 - y)
            if t > 0.0 and -1e-12 <= s <= 1.0 + 1e-12:
                best = min(best, t)
        return best if math.isfinite(best) else 0.0

    val, _ = integrate.quad(
        rho_max, 0.0, 2.0 * math.pi, limit=500, epsabs=1e-12, epsrel=1e-11
    )
    return val / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# Triangle single-layer oracle (three-edge antiderivative sum)
# ---------------------------------------------------------------------------


def _edge_antiderivative(x, y, z):
    """Per-edge antiderivative of the triangle single-layer reduction:
    ``y`` the (non-negative) height of the point over the panel plane,
    ``z`` its signed in-plane distance to the edge line, ``x`` the
    along-edge coordinate.  Two arctangent differences per end carry the
    height; the log term carries a z factor (limit 0 on the edge plane)
    and is evaluated in a cancellation-free form for x < 0."""
    r = np.sqrt(x * x + y * y + z * z)
    at = y * (np.arctan2(x, z) - np.arctan2(y * x, z * r))
    arg = np.where(x < 0.0, (y * y + z * z) / np.maximum(r - x, 1e-300), r + x)
    lg = np.where(z != 0.0, -z * np.log(np.maximum(arg, 1e-300)), 0.0)
    return at + lg


def oracle_single_layer_edges(vertices, points):
    """Integral of 1/|y - x| over the triangle ``vertices`` (3, 3) at each
    of ``points`` (M, 3), as the sum over edges of the antiderivative's
    difference between the edge's ends, every quantity taken from the
    vertices here, in global coordinates."""
    v = np.asarray(vertices, dtype=float)
    points = np.asarray(points, dtype=float)
    normal = np.cross(v[1] - v[0], v[2] - v[0])
    normal /= np.linalg.norm(normal)
    h = np.abs((points - v[0]) @ normal)
    total = np.zeros(len(points))
    for q in range(3):
        edge = v[(q + 1) % 3] - v[q]
        length = np.linalg.norm(edge)
        tangent = edge / length
        outward = np.cross(tangent, normal)
        d = points - v[q]
        x, z = d @ tangent, d @ outward
        total += _edge_antiderivative(length - x, h, z) - _edge_antiderivative(-x, h, z)
    return total


# ---------------------------------------------------------------------------
# Free-space block oracle (per-panel column loop)
# ---------------------------------------------------------------------------


def oracle_free_block_loop(mesh, r_nf):
    """Free-space collocation block as the per-column loop built it: the
    centroid monopole from direct differences (``np.linalg.norm``) in row
    chunks of 2e6 // N, then, one panel at a time, the analytic integral on
    every centroid whose direct-difference distance lies below r_nf."""
    n = len(mesh)
    centroids = mesh.centroids
    a = np.empty((n, n))
    chunk = max(1, int(2e6) // max(n, 1))
    with np.errstate(divide="ignore"):
        for i0 in range(0, n, chunk):
            d = np.linalg.norm(centroids[i0:i0 + chunk, None] - centroids[None, :], axis=-1)
            a[i0:i0 + chunk] = mesh.areas[None, :] / (4.0 * math.pi * d)
    table = _panel_table(mesh)
    for j in range(n):
        near = np.nonzero(np.linalg.norm(centroids - centroids[j], axis=1) < r_nf)[0]
        if near.size:
            a[near, j] = _single_layer_bare(table[:, j], centroids[near].T) / (4.0 * math.pi)
    return a


def oracle_kernel_columns(p):
    """Flat harmonic indices with n + m odd, degree-major and m ascending:
    the kernel's column layout, spelled out one (n, m) at a time."""
    idx = [sh_index(n, m) for n in range(p) for m in range(-n, n + 1) if (n + m) % 2]
    return np.asarray(idx, dtype=np.int64)


def oracle_ground_kernel_matrix(system):
    """Densified kernel matrix w_j K(y_i, x_j; re) at the truncation of the
    system's factors: the single-source signature of every panel,
    scattered into all p^2 harmonic columns and contracted with the
    receiver harmonics over all of them."""
    mesh = system.mesh
    re = system.domain.re
    p = system.degree
    constants = build_spectral_constants(p)
    yt = mesh.centroids / re
    assert np.all(np.linalg.norm(yt, axis=1) < 1.0), "every centroid must lie inside re"
    sigs = np.zeros((len(mesh), p * p))
    sigs[:, oracle_kernel_columns(p)] = [source_signature_batch(x, constants)[0] for x in yt]
    return solid_harmonics_batch(yt, p) @ sigs.T * mesh.areas[None, :] / re


def densify_free_block(blocks):
    """The compressed free block as a dense (N, N) array: its product with
    the identity, so near entries come out bit for bit as stored."""
    return blocks.matvec(np.eye(blocks.shape[0]))


def near_block_mask(blocks):
    """Which (row, column) entries of the compressed free block its near
    leaves store, as a dense (N, N) boolean array."""
    mask = np.zeros(blocks.shape, dtype=bool)
    for leaf, cols in zip(blocks.leaves, blocks.near_cols):
        mask[np.ix_(blocks.order[leaf], cols)] = True
    return mask


def oracle_direct_solve(system):
    """The densify-then-LU direct solve: the densified compressed free block
    plus ``rfac @ sfac`` added on the kernel rows in chunks of about 2e7
    entries, then one LU solve of that N x N matrix against ``system.rhs``."""
    n = system.size
    a = np.asfortranarray(densify_free_block(system.free_matrix))
    rows = system.kernel_rows
    chunk = max(1, int(2e7) // max(n, 1))
    for i0 in range(0, rows.size, chunk):
        a[rows[i0 : i0 + chunk]] += system.rfac[i0 : i0 + chunk] @ system.sfac
    return sla.solve(a, system.rhs, overwrite_a=True, assume_a="gen")


# ---------------------------------------------------------------------------
# Misc helpers
# ---------------------------------------------------------------------------


class SpluSpy:
    """Stands in for ``scipy.sparse.linalg.splu`` as ``groundbem.bem.splu``
    and records every sparse LU made through it, from any thread, as
    ``(the factored matrix, the BLAS thread counts during the call)``."""

    def __init__(self, real):
        self._real = real
        self.calls = []

    def __call__(self, a, *args, **kwargs):
        self.calls.append((a, blas_thread_counts()))
        return self._real(a, *args, **kwargs)


def green(y, x):
    return 1.0 / (4.0 * math.pi * np.linalg.norm(np.asarray(y, float) - np.asarray(x, float)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
