"""Ground-plane kernels for the Laplace equation outside a circular hole.

Two independent evaluation paths are provided for the Dirichlet kernel
``K(y, x; R)`` (the correction that, added to the free-space Green's
function, vanishes on the upper side of the plane ``z = 0`` outside the
hole of radius ``R``):

* a reference double integral over the plane exterior, evaluated by
  adaptive quadrature (periodic trapezoid rule inside, Gauss-Kronrod
  outside), and
* a factored series over real solid harmonics, whose source-side factor
  is either an inner harmonic series (general interior sources) or, for
  sources on the plane itself, radial functions run by recurrences seeded
  with complete elliptic integrals.  Each branch has one private walk
  (``_plane_layers``, ``_interior_terms``), which the signature table and
  the weighted signature sum both read.

The Neumann kernel is obtained from the Dirichlet one by the exact swap
``KN(y, x) = -K(x, y)``.

Everything is computed in dimensionless variables (lengths scaled by the
hole radius); the public entry points apply the ``1/R`` scaling law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, QuadratureError
from .harmonics import (
    SpectralConstants,
    build_spectral_constants,
    check_points,
    check_truncation,
    elliptic_ke,
    sh_index,
    solid_harmonics_batch,
)

__all__ = [
    "KernelConfig",
    "RadialTable",
    "radial_table",
    "receiver_harmonics",
    "source_signature_batch",
    "source_signature_sum",
    "kernel_integral",
    "kernel_series",
    "kernel_neumann",
    "kernel_value",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelConfig:
    """Evaluation parameters for the ground kernel.

    scale_radius:       hole radius R parameterizing K(y, x; R), finite.
    p:                  series truncation number, an integer from 2 to
                        ``P_HARD_LIMIT`` (128).
    integral_tolerance: relative tolerance for the quadrature path.
    """

    scale_radius: float = 1.0
    p: int = 12
    integral_tolerance: float = 1e-10

    def __post_init__(self):
        if not 0 < self.scale_radius < math.inf:
            raise DomainError(f"scale_radius must be finite and > 0, got {self.scale_radius}")
        check_truncation(self.p)
        if not 0 < self.integral_tolerance < 1:
            raise DomainError("integral_tolerance must lie in (0, 1)")


def _cyl(pt):
    rho = math.hypot(pt[0], pt[1])
    phi = math.atan2(pt[1], pt[0])
    r = math.sqrt(rho * rho + pt[2] * pt[2])
    return rho, phi, pt[2], r


# ---------------------------------------------------------------------------
# Radial functions of ground-plane sources: w_m and u_n^m
# ---------------------------------------------------------------------------

# Each recurrence runs in the direction in which its unwanted solution
# decays (Gautschi, SIAM Rev. 9, 1967), chosen per column from its xi.
# The w recurrence in m has a solution ~ xi^-m next to w_m ~ xi^m: forward
# where 2 m_top ln(1/xi) <= _W_FORWARD, elsewhere Miller's algorithm from
# _W_START / ln(1/xi) steps above the table.  Each u layer's recurrence in n
# has a solution ~ xi^-n: forward where 2 (p - 1) ln(1/xi) <= _U_FORWARD,
# elsewhere backward from _U_START / ln(1/xi) two-degree steps above the
# table.  The start errors, about 1e-4 and 1e-2, decay by exp(-24) and
# exp(-36), below double rounding.
_W_FORWARD = 1.0
_W_START = 12.0
_U_FORWARD = 6.0
_U_START = 18.0
# Entries per array in one block of the u start sums: about 1 MB, so two
# tables built at once, on the field's pool, hold less scratch than one did
# at 1 << 19.  A column's result does not depend on the block width.
_U_BLOCK = 1 << 17


def _w_columns(xis, kk, ee, m_top):
    """w_m for m = 0..m_top, one column per xi, ``kk`` and ``ee`` the
    complete elliptic integrals K and E at xi^2.

    Forward from w_0 = 4K and w_1 = 4(K - E)/xi where the forward error
    stays small; elsewhere the ratios r_m = w_m / w_(m-1) come from
    r_(m-1) = (2m - 3) / ((2m - 2)(1 + xi^2)/xi - (2m - 1) r_m), run down
    from the large-m form r_N = xi (2N - 1)/(2N) (1 + xi^2/(4 (1 - xi^2) N^2))
    at each column's own start N, and w_m = 4K r_1 ... r_m.
    """
    w = np.empty((m_top + 1, xis.size))
    w[0] = 4.0 * kk
    log_inv = -np.log(xis)
    fwd = 2.0 * m_top * log_inv <= _W_FORWARD
    if np.any(fwd):
        x = xis[fwd]
        c = (1.0 + x * x) / x
        sub = np.empty((m_top + 1, x.size))
        sub[0] = w[0, fwd]
        sub[1] = 4.0 * (kk[fwd] - ee[fwd]) / x
        for m in range(2, m_top + 1):
            sub[m] = ((2.0 * m - 2.0) * c * sub[m - 1]
                      - (2.0 * m - 3.0) * sub[m - 2]) / (2.0 * m - 1.0)
        w[:, fwd] = sub
    if not np.all(fwd):
        # Columns enter the run at their own start, largest first, so each
        # takes the same steps as it would alone.
        back = np.flatnonzero(~fwd)
        start = m_top + np.ceil(_W_START / log_inv[back])
        order = np.argsort(-start, kind="stable")
        back, start = back[order], start[order]
        steps = np.arange(int(start[0]), 1, -1)
        running = np.searchsorted(-start, -steps, side="right")
        x = xis[back]
        x2 = x * x
        c = (1.0 + x2) / x
        r = x * (2.0 * start - 1.0) / (2.0 * start) * (1.0 + x2 / (4.0 * (1.0 - x2) * start**2))
        ratios = np.empty((m_top, back.size))
        for m, k in zip(steps.tolist(), running.tolist()):
            r[:k] = (2.0 * m - 3.0) / ((2.0 * m - 2.0) * c[:k] - (2.0 * m - 1.0) * r[:k])
            if m <= m_top + 1:
                ratios[m - 2] = r
        w[1:, back] = w[0, back] * np.cumprod(ratios, axis=0)
    return w


def _u_layers(xis, w, p):
    """u_n^m for 0 <= m <= p - 2 and the degrees n = m + 1, m + 3, ... < p:
    one (degrees, len(xis)) array per layer m, views of one stacked array.

    Per layer, two integrations by parts of u_n^m = int_0^1 t^n w_m(xi t) dt
    give the first-order recurrence in steps of two degrees

        (n^2 - m^2) xi^2 u_n = ((n - 1)^2 - m^2) u_(n-2) + g_m - (n - 1) h_m,

    g_m = (2m - 1) xi w_(m-1) - (m + (m - 1) xi^2) w_m (with w_(-1) = w_1)
    and h_m = (1 - xi^2) w_m.  Its coefficient of u_(n-2) vanishes at
    n = m + 1, which seeds the forward run.  Every layer steps at once.
    """
    xi2 = xis * xis
    m = np.arange(p - 1)
    count = (p - m) // 2
    first = np.concatenate(([0], np.cumsum(count)[:-1]))
    u = np.empty((int(count.sum()), xis.size))
    # the runs work on (column, layer) arrays, layers as the inner axis
    w_m = w[: p - 1].T
    w_prev = np.concatenate((w[1:2], w[: p - 2])).T
    g = (2.0 * m - 1.0) * xis[:, None] * w_prev - (m + (m - 1.0) * xi2[:, None]) * w_m
    h = (1.0 - xi2)[:, None] * w_m
    log_inv = -np.log(xis)
    forward = 2.0 * (p - 1) * log_inv <= _U_FORWARD
    fwd, back = np.flatnonzero(forward), np.flatnonzero(~forward)
    msq = (m * m).astype(float)

    if fwd.size:
        g_f, h_f, xi2_f = g[fwd], h[fwd], xi2[fwd, None]
        cur = np.zeros((fwd.size, p - 1))
        for k in range(int(count[0])):
            a = min(p - 1, p - 2 * k - 1)
            n = m[:a] + 1.0 + 2.0 * k
            cur = ((n - 1.0) ** 2 - msq[:a]) * cur[:, :a] + g_f[:, :a] - (n - 1.0) * h_f[:, :a]
            cur /= (n * n - msq[:a]) * xi2_f
            u[(first[:a] + k)[:, None], fwd] = cur.T

    if back.size:
        # Each layer starts L = ceil(_U_START / ln(1/xi)) two-degree steps
        # above its top stored degree, from w_m / (n + m + 1).  Down to there
        # the run u_(n-2) = a_n u_n + b_n sums to sum_s (a_1 ... a_(s-1)) b_s
        # + (a_1 ... a_L) u_start, formed for a block of columns at a time.
        n_top, top = m + 2 * count - 1, first + count - 1
        lead = np.ceil(_U_START / log_inv[back]).astype(int)
        order = np.argsort(-lead, kind="stable")
        back, lead = back[order], lead[order]
        g_b, h_b, xi2_b = g[back], h[back], xi2[back, None]
        cur = np.empty((back.size, p - 1))
        i0 = 0
        while i0 < back.size:
            cols = slice(i0, i0 + max(1, _U_BLOCK // (int(lead[i0]) * (p - 1))))
            s = np.arange(1, lead[i0] + 1)[:, None, None]
            n = n_top + 2.0 * s
            gamma = (n - 1.0) ** 2 - msq
            a_s = (n * n - msq) * xi2_b[cols] / gamma
            b_s = ((n - 1.0) * h_b[cols] - g_b[cols]) / gamma * (s <= lead[cols, None])
            prod = np.cumprod(a_s, axis=0)
            start = w_m[back[cols]] / (n_top + 2.0 * lead[cols, None] + m + 1.0)
            cur[cols] = (b_s[0] + np.sum(prod[:-1] * b_s[1:], axis=0)
                         + prod[lead[cols] - 1, np.arange(start.shape[0])] * start)
            i0 = cols.stop
        u[top[:, None], back] = cur.T
        # the stored degrees; a layer drops out at its last one
        for t in range(-1, -int(count[0]), -1):
            a = p + 2 * t - 1
            n = n_top[:a] + 2.0 * t + 2.0
            cur = ((n * n - msq[:a]) * xi2_b * cur[:, :a] - g_b[:, :a]
                   + (n - 1.0) * h_b[:, :a]) / ((n - 1.0) ** 2 - msq[:a])
            u[(top[:a] + t)[:, None], back] = cur.T
    return {k: u[first[k] : first[k] + count[k]] for k in range(p - 1)}


class RadialTable:
    """Radial source functions w_m and u_n^m at dimensionless radii xi in
    (0, 1), one column per xi.

    ``w[m]`` holds m = 0..max(1, p - 2); ``u`` is stored in layers of fixed
    |m| <= p - 2 holding the degrees n < p with n + m odd (``layer_n[m]``),
    the ones the plane-source signatures read.  Each column runs each
    recurrence in its stable direction, chosen from its own xi and p.
    """

    def __init__(self, xis: np.ndarray, p: int):
        xis = np.asarray(xis, dtype=float)
        if xis.ndim != 1:
            raise DomainError("xis must be one-dimensional")
        if not np.all((xis > 0.0) & (xis < 1.0)):
            raise DomainError("all xi must lie strictly inside (0, 1)")
        p = check_truncation(p)
        self.xis, self.p = xis, p
        self.w = _w_columns(xis, *elliptic_ke(xis * xis), max(1, p - 2))
        self.u = _u_layers(xis, self.w, p)
        self.layer_n = {m: np.arange(m + 1, p, 2) for m in self.u}

    @property
    def method(self) -> str:
        """Always ``"recurrence"``: the one route the table has."""
        return "recurrence"

    def w_value(self, m: int) -> np.ndarray:
        return self.w[abs(m)]

    def u_value(self, n: int, m: int) -> np.ndarray:
        am = abs(m)
        if (n + am) % 2 == 0:
            raise DomainError(f"u is tabulated only for odd n + m, got ({n}, {m})")
        k = (n - am - 1) // 2
        if am not in self.layer_n or k < 0 or k >= self.layer_n[am].size:
            raise DomainError(f"(n, m) = ({n}, {m}) outside table for p = {self.p}")
        return self.u[am][k]


def radial_table(xi: float, p: int) -> RadialTable:
    """One-column :class:`RadialTable` at a single xi."""
    return RadialTable(np.array([float(xi)]), p)


# ---------------------------------------------------------------------------
# The kernel's columns: receiver harmonics and source signatures
# ---------------------------------------------------------------------------


def _kernel_column(n, m):
    """Column of the (n, m) harmonic among the p(p - 1)/2 with n < p and
    n + m odd, degree-major with m ascending: the only ones the kernel
    couples, as it vanishes on the plane z = 0."""
    return n * (n - 1) // 2 + (n + m - 1) // 2


def receiver_harmonics(points, p: int) -> np.ndarray:
    """Real solid harmonics of degree n < p at ``points`` (N, 3) in the
    kernel's columns, ``(N, p(p - 1)/2)``; zero at points on the plane.
    The recursion steps through every (n, m), so it builds the full table
    and the n + m odd columns, in table order, are taken from it."""
    table = solid_harmonics_batch(points, p)
    n = np.repeat(np.arange(p), 2 * np.arange(p) + 1)
    m = np.arange(p * p) - n * (n + 1)
    return table[:, (n + m) % 2 == 1]


_PLANE_TOL = 1e-13


def _plane_layers(xis, kk, ee, constants):
    """Plane-source signatures at radii ``xis`` (K, E at xi^2 in ``kk``,
    ``ee``) by radial layer m = 0..p - 2: ``(m, +m columns, -m columns, scale,
    u)``, the degrees n = m + 1, m + 3, ... < p being ``scale * u`` times
    cos(m phi) and sin(-m phi).  Each u is a view of one stacked array.  It
    calls no public function, so it may run on a pool thread."""
    p = constants.p
    if p < 2:  # a hand-built SpectralConstants skips check_truncation
        raise DomainError(f"plane sources need a truncation number >= 2, got {p}")
    layers = _u_layers(xis, _w_columns(xis, kk, ee, max(1, p - 2)), p)
    for m, u in layers.items():
        ns = np.arange(m + 1, p, 2)
        pref = -(2.0 - (1.0 if m == 0 else 0.0)) / (8.0 * math.pi**2)
        yield m, _kernel_column(ns, m), _kernel_column(ns, -m), pref * constants.nu[ns + 1, m], u


def _interior_terms(constants):
    """The inner harmonic series: ``(degree, cap, scale, terms)``.

    Per m, receiver degrees n = m + 1, m + 3, ... < p couple to source degrees
    n' = m, m + 2, ... <= 2p - 3 by M_m[i, k] = -(2 - delta_m0)/(4 pi) *
    nu_{n_i+1}^m / (n'_k + n_i + 1), applied to harmonics scaled by nu_{n'}^m
    FIRST: the separate factors grow double-factorially while their product
    stays in float64 range.  Degrees whose nu overflows are dropped (their
    terms lie far below double precision at the radii this branch serves).
    ``cap`` is the lowest top source degree kept over all m, ``degree`` one
    above the highest, ``scale`` the nu of each of the ``degree^2`` harmonic
    columns (zero where unread), and ``terms`` per signed m ``(out columns,
    harmonic columns, M_m^T)``: sources of scaled harmonics S have the
    signatures ``S[:, harmonic columns] @ M_m^T``."""
    p, nu = constants.p, constants.nu
    degree, cap, coupled = 1, 2 * p - 3, []
    for m in range(p):
        rows = np.arange(m + 1, p, 2)
        cols = np.arange(m, 2 * p - 2, 2)
        cols = cols[np.isfinite(nu[cols, m])]
        if cols.size:
            cap = min(cap, int(cols[-1]))
            if rows.size:
                degree = max(degree, int(cols[-1]) + 1)
                coupled.append((m, rows, cols))
    scale, terms = np.zeros(degree * degree), []
    for m, rows, cols in coupled:
        pref = -(2.0 - (1.0 if m == 0 else 0.0)) / (4.0 * math.pi)
        cmat_t = (pref * nu[rows + 1, m][:, None] / (rows[:, None] + cols[None, :] + 1.0)).T
        for sm in ((m,) if m == 0 else (m, -m)):
            scale[sh_index(cols, sm)] = nu[cols, m]
            terms.append((_kernel_column(rows, sm), sh_index(cols, sm), cmat_t))
    return degree, cap, scale, terms


def interior_inner_cap(constants: SpectralConstants) -> int:
    """Smallest inner-series source degree retained across all m (the
    float64-overflow cap of the inner series); the inner truncation error
    behaves like |x|^cap."""
    return _interior_terms(constants)[1]


# Sources per block of the interior signatures: the source harmonics of
# one block at p = 104 (degrees up to 171) take 30 MB, where the whole
# 1279-source surface of the bump anchor would take 303 MB.
_INTERIOR_BLOCK = 128


def _source_harmonics(pts, degree, scale):
    """``(block, S)`` for ``_INTERIOR_BLOCK`` of the sources ``pts`` at a
    time: ``S`` their solid harmonics below ``degree`` times ``scale``, the
    nu of :func:`_interior_terms`, and ``block`` their slice of ``pts``."""
    for i0 in range(0, pts.shape[0], _INTERIOR_BLOCK):
        block = slice(i0, i0 + _INTERIOR_BLOCK)
        harmonics = solid_harmonics_batch(pts[block], degree)[:, : scale.size]
        harmonics *= scale
        yield block, harmonics


def _sources(points):
    """``(points, plane, interior, xis, phi)`` of dimensionless sources:
    ``(N, 3)``, the rows of the plane points (z = 0, off the axis) and of the
    rest, and the plane points' radii and azimuths; or DomainError unless
    :func:`check_points` takes ``points`` and every source has |x| < 1."""
    pts = check_points(points)
    r = np.linalg.norm(pts, axis=1)
    if np.any(r >= 1.0):
        raise DomainError("all sources must satisfy |x| < 1: the source series diverges")
    rho = np.hypot(pts[:, 0], pts[:, 1])
    on_plane = (np.abs(pts[:, 2]) <= _PLANE_TOL * np.maximum(1.0, r)) & (rho > 0.0)
    plane, interior = np.flatnonzero(on_plane), np.flatnonzero(~on_plane)
    return pts, plane, interior, rho[plane], np.arctan2(pts[plane, 1], pts[plane, 0])


def source_signature_batch(points, constants: SpectralConstants) -> np.ndarray:
    """Signature coefficients of dimensionless sources with |x| < 1,
    ``(N, p(p - 1)/2)`` in the columns of :func:`receiver_harmonics`; one
    (3,) point is a one-row batch.

    Plane points (z = 0, off the axis) go through the radial recurrences
    (:func:`_plane_layers`), the rest through the inner harmonic series
    (:func:`_interior_terms`, ``_INTERIOR_BLOCK`` sources at a time); each
    branch writes its rows of the one result, so rows are returned in
    input order.
    """
    pts, plane, interior, xis, phi = _sources(points)
    coeffs = np.zeros((pts.shape[0], constants.p * (constants.p - 1) // 2))
    if plane.size:
        for m, pos, neg, scale, u in _plane_layers(xis, *elliptic_ke(xis * xis), constants):
            base = scale[:, None] * u
            coeffs[plane[:, None], pos] = (base * np.cos(m * phi)).T
            if m > 0:
                coeffs[plane[:, None], neg] = (base * np.sin(-m * phi)).T
        # the last layer would keep every layer's stacked array alive
        del u
    if interior.size:
        degree, _, scale, terms = _interior_terms(constants)
        for block, harmonics in _source_harmonics(pts[interior], degree, scale):
            for out_idx, in_idx, cmat_t in terms:
                coeffs[interior[block, None], out_idx] = harmonics[:, in_idx] @ cmat_t
    return coeffs


# Plane sources per pool task of :func:`source_signature_sum`: a task's radial
# layers hold about p^2/4 entries a source, 1.8 MB at p = 42.
_PLANE_CHUNK = 512


def source_signature_sum(points, weights, constants: SpectralConstants, pool) -> np.ndarray:
    """``weights @ source_signature_batch(points, constants)``, ``(p(p - 1)/2,)``,
    without forming the (N, q) signature table.

    K and E of every plane source come from one call on the calling thread;
    the plane sources then go in fixed chunks of ``_PLANE_CHUNK`` to ``pool``
    (a ``concurrent.futures`` executor), each chunk contracting its radial
    layers (:func:`_plane_layers`) with w cos(m phi) and w sin(-m phi).
    Meanwhile the calling thread sums the interior sources' weighted,
    nu-scaled harmonics into moments and couples them once per signed m
    (Greengard & Rokhlin, J. Comput. Phys. 73, 1987), then adds the chunk
    sums in chunk order, so the result is bitwise the same for any worker
    count.  Sources must be finite with |x| < 1, one weight each, else
    :class:`DomainError` is raised."""
    pts, plane, interior, xis, phi = _sources(points)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (pts.shape[0],):
        raise DomainError(f"need one weight per source, got shape {weights.shape}")
    q = constants.p * (constants.p - 1) // 2
    kk, ee = elliptic_ke(xis * xis)
    w_plane = weights[plane]

    def chunk(c):
        out, w, ph = np.zeros(q), w_plane[c], phi[c]
        for m, pos, neg, scale, u in _plane_layers(xis[c], kk[c], ee[c], constants):
            if m == 0:
                out[pos] = scale * (u @ w)
            else:
                both = u @ np.column_stack((w * np.cos(m * ph), w * np.sin(-m * ph)))
                out[pos] = scale * both[:, 0]
                out[neg] = scale * both[:, 1]
        return out

    tasks = [pool.submit(chunk, slice(i0, i0 + _PLANE_CHUNK))
             for i0 in range(0, plane.size, _PLANE_CHUNK)]
    degree, _, scale, terms = _interior_terms(constants)
    moments, w_in = np.zeros(degree * degree), weights[interior]
    for block, harmonics in _source_harmonics(pts[interior], degree, scale):
        moments += w_in[block] @ harmonics
    out = np.zeros(q)
    for out_idx, in_idx, cmat_t in terms:
        out[out_idx] = moments[in_idx] @ cmat_t
    for task in tasks:
        out += task.result()
    return out


# ---------------------------------------------------------------------------
# Quadrature paths
# ---------------------------------------------------------------------------


def _phi_integral(fvals_fn, tol):
    """Integrate a smooth 2*pi-periodic function by trapezoid doubling.

    Raises :class:`QuadratureError` if the integrand is singular on the
    grid or the doubling cap is reached without meeting the tolerance
    (happens only when the pair sits on the plane singular set or
    pathologically close to it)."""
    def rule(theta):
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = fvals_fn(theta)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError("integrand is singular on the integration domain")
        return vals.mean() * 2.0 * math.pi

    n = 32
    theta = np.arange(n) * (2.0 * math.pi / n)
    est = rule(theta)
    delta = math.inf
    while n < (1 << 18):
        shifted = theta + math.pi / n
        refined = 0.5 * (est + rule(shifted))
        delta = abs(refined - est)
        if delta <= tol * (abs(refined) + 1e-300):
            return refined
        theta = np.sort(np.concatenate([theta, shifted]))
        est = refined
        n *= 2
    raise QuadratureError(
        "periodic rule did not converge (near-singular integrand)",
        estimate=delta,
        value=est,
    )


def _kernel_quadrature(yt, xt, eta_min, tol):
    """Dimensionless kernel integral over eta in [eta_min, 1].

    Integrand: eta / (Q_y^3 Q_x) with Q^2 = r^2 eta^2 - 2 rho eta cos(phi) + 1;
    the - z_y / (8 pi^2) prefactor is applied by the caller.
    """
    rho_y, phi_y, _, r_y = _cyl(yt)
    rho_x, phi_x, _, r_x = _cyl(xt)

    def inner(eta):
        def fvals(phi):
            qy2 = r_y * r_y * eta * eta - 2.0 * rho_y * eta * np.cos(phi - phi_y) + 1.0
            qx2 = r_x * r_x * eta * eta - 2.0 * rho_x * eta * np.cos(phi - phi_x) + 1.0
            return eta / (qy2 * np.sqrt(qy2) * np.sqrt(qx2))
        return _phi_integral(fvals, 0.05 * tol)

    val, abserr, info, *rest = integrate.quad(
        inner, eta_min, 1.0, epsabs=1e-300, epsrel=tol, limit=200, full_output=True
    )
    if rest:
        raise QuadratureError(
            f"kernel quadrature did not converge: {rest[0]}",
            estimate=abserr,
            value=val,
        )
    if abserr > 10.0 * tol * abs(val) + 1e-280:
        raise QuadratureError(
            f"kernel quadrature error estimate {abserr:.3e} exceeds budget "
            f"for value {val:.6e}",
            estimate=abserr,
            value=val,
        )
    return val


# Tail radius, in units of R, of the integral route beyond the hole: the
# analytic tail past it is added in closed form.
_TAIL_RADIUS = 1e3


def kernel_integral(y, x, config: KernelConfig = KernelConfig(),
                    tail_radius: float = math.inf) -> float:
    """Dirichlet kernel K(y, x; R) by the reference double integral over the
    plane outside the hole.

    The infinite default integrates the whole plane and requires |y| < R
    and |x| < R (the closed-form integrand is smooth there).  A finite
    ``tail_radius`` truncates the integral there and adds its analytic
    far-field tail, valid for any pair above the plane; one that is not
    above R (NaN included) raises :class:`DomainError`.
    """
    r = config.scale_radius
    yt, xt = check_points(y, one=True)[0] / r, check_points(x, one=True)[0] / r
    rinf = float(tail_radius)
    if not rinf > r:
        raise DomainError("tail radius must exceed the scale radius")
    if rinf == math.inf and max(np.linalg.norm(yt), np.linalg.norm(xt)) >= 1.0:
        raise DomainError("kernel_integral requires |y| < R and |x| < R "
                          "unless tail_radius is finite")
    if yt[2] == 0.0:
        return 0.0
    eta_min = r / rinf
    base = _kernel_quadrature(yt, xt, eta_min, config.integral_tolerance)
    tail = -yt[2] / (8.0 * math.pi * (rinf / r) ** 2)
    return (-yt[2] / (8.0 * math.pi**2) * base + tail) / r


# ---------------------------------------------------------------------------
# Series path and dispatch
# ---------------------------------------------------------------------------


def kernel_series(y, x, config: KernelConfig = KernelConfig()) -> float:
    """Dirichlet kernel K(y, x; R) from the factored series truncated at
    ``config.p``: the receiver harmonics at y/R contracted with the source
    signature of x/R.  Requires |y| < R and |x| < R."""
    r = config.scale_radius
    yt, xt = check_points(y, one=True)[0] / r, check_points(x, one=True)[0] / r
    if max(np.linalg.norm(yt), np.linalg.norm(xt)) >= 1.0:
        raise DomainError("series path requires |y| < R and |x| < R")
    signature = source_signature_batch(xt, build_spectral_constants(config.p))[0]
    return float(receiver_harmonics(yt[None, :], config.p)[0] @ signature) / r


# The route of ``kernel_value``: the series where both scaled radii are at
# most this fraction, the integral beyond.
_SERIES_FRACTION = 0.95


def kernel_value(y, x, config: KernelConfig = KernelConfig()) -> float:
    """K(y, x; R) by the route the pair needs: the series where both scaled
    radii are at most 0.95, the whole-plane integral where both are below 1,
    and the integral truncated at 1e3 R plus its tail beyond."""
    yp, xp = check_points(y, one=True)[0], check_points(x, one=True)[0]
    r = config.scale_radius
    reach = max(float(np.linalg.norm(yp)) / r, float(np.linalg.norm(xp)) / r)
    if reach <= _SERIES_FRACTION:
        return kernel_series(yp, xp, config)
    if reach < 1.0:
        return kernel_integral(yp, xp, config)
    return kernel_integral(yp, xp, config, tail_radius=_TAIL_RADIUS * r)


def kernel_neumann(y, x, config: KernelConfig = KernelConfig()) -> float:
    """Neumann kernel via the exact swap KN(y, x) = -K(x, y)."""
    return -kernel_value(x, y, config)
