"""Ground-plane kernels for the Laplace equation outside a circular hole.

Two independent evaluation paths are provided for the Dirichlet kernel
``K(y, x; R)`` (the correction that, added to the free-space Green's
function, vanishes on the upper side of the plane ``z = 0`` outside the
hole of radius ``R``):

* a reference double integral over the plane exterior, evaluated by
  adaptive quadrature (periodic trapezoid rule inside, Gauss-Kronrod
  outside), and
* a factored series over real solid harmonics, whose source-side factor
  is either an inner harmonic series (general interior sources) or a
  closed recurrence form built from complete elliptic integrals (sources
  on the plane itself).

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
    _elliptic_ke_arrays,
    build_spectral_constants,
    sh_index,
    sh_size,
    solid_harmonics_batch,
)

__all__ = [
    "KernelConfig",
    "RadialTable",
    "SourceSignature",
    "radial_table",
    "source_signature",
    "source_signature_batch",
    "kernel_integral",
    "kernel_integral_truncated",
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

    scale_radius:       hole radius R parameterizing K(y, x; R).
    p:                  series truncation number.
    integral_tolerance: relative tolerance for the quadrature path.
    tail_radius:        cutoff radius for the truncated integral; the
                        analytic tail beyond it is added in closed form.
    """

    scale_radius: float = 1.0
    p: int = 12
    integral_tolerance: float = 1e-10
    tail_radius: float = 1e3

    def __post_init__(self):
        if self.scale_radius <= 0:
            raise DomainError(f"scale_radius must be > 0, got {self.scale_radius}")
        if self.tail_radius <= self.scale_radius:
            raise DomainError("tail_radius must exceed scale_radius")
        if self.p < 2:
            raise DomainError(f"truncation number must be >= 2, got {self.p}")
        if not 0 < self.integral_tolerance < 1:
            raise DomainError("integral_tolerance must lie in (0, 1)")


def _as_point(v) -> np.ndarray:
    pt = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(pt)):
        raise DomainError("point coordinates must be finite")
    return pt


def _cyl(pt):
    rho = math.hypot(pt[0], pt[1])
    phi = math.atan2(pt[1], pt[0])
    r = math.sqrt(rho * rho + pt[2] * pt[2])
    return rho, phi, pt[2], r


# ---------------------------------------------------------------------------
# Radial functions of ground-plane sources: w_m, v_m, u_n^m
# ---------------------------------------------------------------------------

# Fallback thresholds.  The forward recurrences carry a parasitic solution
# growing like xi^(-index); columns where the cross-validation against the
# positive-term series exceeds these are recomputed from the series.
_W_CHECK_TOL = 1e-11
_U_CHECK_TOL = 5e-10
_SERIES_TAIL = 4e-17
_SERIES_JCAP = 60_000


def _half_ratio_coeffs(kmax: int) -> np.ndarray:
    """a_k = (2k-1)!!/(2k)!! for k = 0..kmax, by running product."""
    a = np.empty(kmax + 1)
    a[0] = 1.0
    for k in range(1, kmax + 1):
        a[k] = a[k - 1] * (2 * k - 1) / (2.0 * k)
    return a


def _series_terms_needed(xi_max: float) -> int:
    if xi_max <= 0.1:
        return 24
    j = int(math.log(_SERIES_TAIL) / (2.0 * math.log(xi_max))) + 8
    return min(max(j, 24), _SERIES_JCAP)


def _series_setup(xis: np.ndarray, m_top: int):
    """Term count (set by the largest xi), a_k for k <= jmax + m_top + 1 and
    the power table Z[j, s] = (xi_s^2)^j shared by the positive series."""
    jmax = _series_terms_needed(float(np.max(xis))) if xis.size else 24
    a = _half_ratio_coeffs(jmax + m_top + 1)
    z = xis * xis
    zpow = np.empty((jmax + 1, xis.size))
    zpow[0] = 1.0
    for j in range(1, jmax + 1):
        zpow[j] = zpow[j - 1] * z
    return jmax, a, zpow


def _w_series(xis: np.ndarray, m_max: int, m_min: int = 0) -> np.ndarray:
    """w_m(xi) for m = m_min..m_max via its positive hypergeometric-type
    series; row k of the result is m = m_min + k.

    All terms are positive, so the result is accurate in relative terms for
    every m, including where w_m is exponentially small in m.
    """
    xis = np.asarray(xis, dtype=float)
    jmax, a, zpow = _series_setup(xis, m_max)
    # B[m, j] = a_j a_{j+m}
    b = np.stack([a[: jmax + 1] * a[m : m + jmax + 1] for m in range(m_min, m_max + 1)])
    w = 2.0 * math.pi * (b @ zpow)
    ximpow = np.ones(xis.size)
    for m in range(m_max + 1):
        if m >= m_min:
            w[m - m_min] *= ximpow
        ximpow = ximpow * xis
    return w


def _u_series_layers(xis, layers):
    """u_n^m via term-by-term integration of the w_m series.

    ``layers`` maps m -> array of n values; yields (m, (len(n), len(xi))
    array) one layer at a time, so a caller that stores each layer as it
    comes never holds a second copy of the table.  Exact transformation of
    the defining integral, positive terms.
    """
    xis = np.asarray(xis, dtype=float)
    jmax, a, zpow = _series_setup(xis, max(layers) if layers else 0)
    j_idx = np.arange(jmax + 1, dtype=float)
    for m, n_values in layers.items():
        beta = a[: jmax + 1] * a[m : m + jmax + 1]
        denom = n_values[:, None] + m + 2.0 * j_idx[None, :] + 1.0
        coeff = beta[None, :] / denom
        vals = 2.0 * math.pi * (coeff @ zpow)
        vals *= xis[None, :] ** m
        yield m, vals


def _layer_n_values(p: int, m: int) -> np.ndarray:
    """Degrees stored in layer m: n + m odd, m + 1 <= n <= 2p - 3 - m."""
    return np.arange(m + 1, 2 * p - 2 - m, 2)


def _u_recurrence(xis, kk, ee, v, layers):
    """u_n^m by the layer recurrences, unchecked.  Layer 0 runs up in n;
    each layer m >= 1 comes from the two below it in one array step, row
    k from rows k and k + 1 of layer m - 1 (and k + 1 of layer m - 2)."""
    xi2 = xis * xis
    n0 = layers[0]
    u0 = np.empty((n0.size, xis.size))
    u0[0] = (4.0 * ee - 4.0 * (1.0 - xi2) * kk) / xi2
    for k in range(1, n0.size):
        n = float(n0[k])
        u0[k] = (
            4.0 * ee - 4.0 * n * (1.0 - xi2) * kk + (n - 1.0) ** 2 * u0[k - 1]
        ) / (n * n * xi2)
    u = {0: u0}
    if len(layers) > 1:
        n = (layers[1] - 1.0)[:, None]
        u[1] = (
            (n + 1.0) * u0[:-1]
            + (n + 2.0) * xi2 * u0[1:]
            + 4.0 * (1.0 - xi2) * kk
            - 8.0 * ee
        ) / ((2.0 * n + 3.0) * xis)
    for m in range(2, len(layers)):
        n = (layers[m] - 1.0)[:, None]
        prev = u[m - 1]
        u[m] = (
            2.0
            * ((n + 1.0) * prev[:-1] + (n + 2.0) * xi2 * prev[1:] - v[m - 1])
            / ((2.0 * n + 3.0) * xis)
            - u[m - 2][1:-1]
        )
    return u


class RadialTable:
    """Radial source functions w_m, v_m and u_n^m at dimensionless radii
    xi in (0, 1), one column per xi.

    ``w[m]`` and ``v[m]`` are arrays over m; ``u`` is stored in layers of
    fixed |m| holding degrees with n + m odd (``layer_n[m]``).  The
    recurrences are used where their forward error (validated against an
    independent positive-term series) stays below the check tolerances;
    otherwise the column is rebuilt from the series.  A column is
    ``series_capped`` when it was rebuilt and its own xi needs more terms
    than the series cap (only possible extremely close to xi = 1).
    """

    def __init__(self, xis: np.ndarray, p: int):
        xis = np.asarray(xis, dtype=float)
        if xis.ndim != 1:
            raise DomainError("xis must be one-dimensional")
        if np.any(xis <= 0.0) or np.any(xis >= 1.0):
            raise DomainError("all xi must lie strictly inside (0, 1)")
        p = int(p)
        if p < 2:
            raise DomainError(f"truncation number must be >= 2, got {p}")
        self.xis = xis
        self.p = p
        self.m_max_u = p - 2
        self.m_max_w = max(1, p - 2)
        self._build()

    def _build(self):
        xis, p = self.xis, self.p
        nxi = xis.size
        kk, ee = _elliptic_ke_arrays(xis * xis)
        self.k_elliptic, self.e_elliptic = kk, ee

        # --- w_m: seeds + forward recurrence, validated at the top index.
        mw = self.m_max_w
        w = np.empty((mw + 1, nxi))
        w[0] = 4.0 * kk
        if mw >= 1:
            w[1] = 4.0 * (kk - ee) / xis
        for m in range(2, mw + 1):
            w[m] = (
                (1.0 + xis * xis) / xis * (2.0 * m - 2.0) / (2.0 * m - 1.0) * w[m - 1]
                - (2.0 * m - 3.0) / (2.0 * m - 1.0) * w[m - 2]
            )
        w_top_direct = _w_series(xis, mw, m_min=mw)[0]
        denom = np.abs(w_top_direct) + 1e-300
        w_resid = np.abs(w[mw] - w_top_direct) / denom
        w_bad = w_resid > _W_CHECK_TOL
        if np.any(w_bad):
            w[:, w_bad] = _w_series(xis[w_bad], mw)
        self.w = w
        self.w_residual = w_resid
        self.w_from_series = w_bad

        # --- v_m = (1 + xi^2) w_m - xi (w_{m+1} + w_{m-1}), m >= 1.
        # v_{mw-1} is the highest one consumed by the layer recurrence.
        nv = max(0, mw - 1)
        v = np.empty((nv + 1, nxi))
        v[0] = 8.0 * ee - 4.0 * (1.0 - xis * xis) * kk
        for m in range(1, nv + 1):
            v[m] = (1.0 + xis * xis) * w[m] - xis * (w[m + 1] + w[m - 1])
        self.v = v

        # --- u_n^m layer by layer.
        layers = {m: _layer_n_values(p, m) for m in range(self.m_max_u + 1)}
        self.layer_n = layers
        u = _u_recurrence(xis, kk, ee, v, layers)

        # --- validate layer corners against the series; rebuild bad columns.
        check_layers = {0: layers[0][-1:]}
        if self.m_max_u >= 1:
            check_layers[self.m_max_u] = layers[self.m_max_u][-1:]
        direct = dict(_u_series_layers(xis, check_layers))
        resid = np.zeros(nxi)
        for m in check_layers:
            den = np.abs(direct[m][0]) + 1e-300
            resid = np.maximum(resid, np.abs(u[m][-1] - direct[m][0]) / den)
        u_bad = resid > _U_CHECK_TOL
        if np.any(u_bad):
            # Layer by layer: the rebuilt columns, as large as u itself on
            # the plane sources near the edge, never exist all at once.
            for m, rebuilt in _u_series_layers(xis[u_bad], layers):
                u[m][:, u_bad] = rebuilt
        self.u = u
        self.u_residual = resid
        self.u_from_series = u_bad
        # extremely close to the domain edge the fallback series itself is
        # term-capped; flag those columns as accuracy-degraded
        capped = [_series_terms_needed(float(x)) >= _SERIES_JCAP for x in xis]
        self.series_capped = (u_bad | w_bad) & np.array(capped, dtype=bool)

    @property
    def method(self) -> str:
        """``"series"`` if any column was rebuilt from the series."""
        return "series" if np.any(self.u_from_series | self.w_from_series) else "recurrence"

    @property
    def check_residual(self) -> float:
        """Largest recurrence-vs-series check residual over the columns."""
        return float(np.max(np.maximum(self.w_residual, self.u_residual), initial=0.0))

    @property
    def degraded(self) -> bool:
        """Whether any column is ``series_capped``."""
        return bool(np.any(self.series_capped))

    def w_value(self, m: int) -> np.ndarray:
        return self.w[abs(m)]

    def u_value(self, n: int, m: int) -> np.ndarray:
        am = abs(m)
        if (n + am) % 2 == 0:
            raise DomainError(f"u is tabulated only for odd n + m, got ({n}, {m})")
        k = (n - am - 1) // 2
        if am > self.m_max_u or k < 0 or k >= self.layer_n[am].size:
            raise DomainError(f"(n, m) = ({n}, {m}) outside table for p = {self.p}")
        return self.u[am][k]


def radial_table(xi: float, p: int) -> RadialTable:
    """Build the radial tables at a single xi: a one-column
    :class:`RadialTable`."""
    xi = float(xi)
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    return RadialTable(np.array([xi]), p)


# ---------------------------------------------------------------------------
# Source signatures (the factored kernel's source-side coefficients)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSignature:
    """Per-source coefficient vector of the factored kernel.

    ``coeffs`` is flat-indexed like a solid-harmonic table; contracting it
    with the receiver harmonics reproduces the truncated dimensionless
    kernel.  The source point is dimensionless (pre-scaled by the domain
    radius) and must satisfy |source| < 1.
    """

    source: np.ndarray
    p: int
    coeffs: np.ndarray

    def value(self, n: int, m: int) -> float:
        if not (0 <= n < self.p and abs(m) <= n):
            raise DomainError(f"(n, m) = ({n}, {m}) outside table for p = {self.p}")
        return float(self.coeffs[sh_index(n, m)])


_PLANE_TOL = 1e-13


def _interior_coupling(constants: SpectralConstants, p: int):
    """Per-|m| pieces of the inner harmonic series.

    The series is evaluated as (nu-scaled source harmonics) @ M_m with
    M_m[i, k] = -(2 - delta_m0)/(4 pi) * nu_{n_i+1}^m / (n'_k + n_i + 1);
    scaling the harmonics by nu_{n'}^m FIRST keeps every intermediate in
    float64 range (the separate factors grow double-factorially while
    their product stays bounded).  Source degrees whose nu overflows are
    dropped: the matching terms lie far below double precision at the
    radii this branch serves.

    Returns per m: (receiver degrees, source degrees, nu column scale,
    coupling matrix).
    """
    out = {}
    for m in range(p):
        rows = np.arange(m, p)
        rows = rows[(rows + m) % 2 == 1]
        cols = np.arange(m, 2 * p - 2)
        cols = cols[(cols + m) % 2 == 0]
        cols = cols[np.isfinite(constants.nu[cols, m])]
        if rows.size == 0 or cols.size == 0:
            out[m] = (rows, cols, np.zeros(cols.size), np.zeros((rows.size, cols.size)))
            continue
        pref = -(2.0 - (1.0 if m == 0 else 0.0)) / (4.0 * math.pi)
        nu_rows = constants.nu[rows + 1, m]
        nu_cols = constants.nu[cols, m]
        denom = rows[:, None] + cols[None, :] + 1.0
        out[m] = (rows, cols, nu_cols, pref * nu_rows[:, None] / denom)
    return out


def interior_inner_cap(constants: SpectralConstants, p: int) -> int:
    """Smallest inner-series source degree retained across all m (the
    float64-overflow cap of :func:`_interior_coupling`); the inner
    truncation error behaves like |x|^cap."""
    coupling = _interior_coupling(constants, p).values()
    return min((int(cols[-1]) for _, cols, _, _ in coupling if cols.size), default=2 * p - 3)


# Sources per block of the interior signatures: the degree-(2p - 2)
# harmonics of one block at p = 104 take 44 MB, where the whole
# 1279-source surface of the bump anchor would take 438 MB.
_INTERIOR_BLOCK = 128


def _signature_interior_batch(points, constants, p):
    """Inner-series signatures for general interior sources, summed to the
    n' <= 2p - 3 cap (the terms beyond are negligible at the radii where
    this branch is dispatched).  The source harmonics are built one block
    of sources at a time."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    terms = []
    for m, (rows, cols, nu_cols, cmat) in _interior_coupling(constants, p).items():
        if rows.size and cols.size:
            for sm in ((m,) if m == 0 else (m, -m)):
                terms.append((sh_index(rows, sm), sh_index(cols, sm), nu_cols, cmat.T))
    coeffs = np.zeros((pts.shape[0], sh_size(p)))
    for i0 in range(0, pts.shape[0], _INTERIOR_BLOCK):
        block = slice(i0, i0 + _INTERIOR_BLOCK)
        harmonics = solid_harmonics_batch(pts[block], 2 * p - 1)
        for out_idx, in_idx, nu_cols, cmat_t in terms:
            coeffs[block, out_idx] = (harmonics[:, in_idx] * nu_cols[None, :]) @ cmat_t
    return coeffs


def _signature_ground_batch(points, constants, p):
    """Signatures for sources on the plane via the radial recurrences, one
    |m| at a time: the degrees n = m + 1, m + 3, ... < p read the first
    rows of radial layer m."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    table = RadialTable(rho, p)
    coeffs = np.zeros((pts.shape[0], sh_size(p)))
    for m in range(p - 1):
        pref = -(2.0 - (1.0 if m == 0 else 0.0)) / (8.0 * math.pi**2)
        ns = np.arange(m + 1, p, 2)
        base = (pref * constants.nu[ns + 1, m])[:, None] * table.u[m][: ns.size]
        coeffs[:, sh_index(ns, m)] = (base * np.cos(m * phi)).T
        if m > 0:
            coeffs[:, sh_index(ns, -m)] = (base * np.sin(-m * phi)).T
    return coeffs


def source_signature(
    x,
    constants: SpectralConstants,
    *,
    method: str = "auto",
) -> SourceSignature:
    """Coefficient vector of the factored kernel for one source point.

    ``x`` is dimensionless with |x| < 1.  ``method`` selects the branch:
    ``auto`` uses the plane recurrences (``ground``) when z = 0 and the
    inner harmonic series (``interior``) otherwise.
    """
    pt = _as_point(x)
    p = constants.p
    r = float(np.linalg.norm(pt))
    if r >= 1.0:
        raise DomainError(f"|x| = {r} >= 1: the source series diverges")
    on_plane = abs(pt[2]) <= _PLANE_TOL * max(1.0, r)
    if method == "auto":
        method = "ground" if (on_plane and math.hypot(pt[0], pt[1]) > 0.0) else "interior"
    if method == "ground":
        if not on_plane:
            raise DomainError("ground branch requires z = 0")
        coeffs = _signature_ground_batch(pt[None, :], constants, p)[0]
    elif method == "interior":
        coeffs = _signature_interior_batch(pt[None, :], constants, p)[0]
    else:
        raise DomainError(f"unknown signature method {method!r}")
    return SourceSignature(source=pt, p=p, coeffs=coeffs)


def source_signature_batch(points, constants: SpectralConstants) -> np.ndarray:
    """Signature coefficients for many dimensionless sources at once.

    Plane points (z = 0) go through the radial recurrences, the rest
    through the inner harmonic series; rows are returned in input order.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    if np.any(r >= 1.0):
        raise DomainError("all sources must satisfy |x| < 1")
    p = constants.p
    coeffs = np.zeros((pts.shape[0], sh_size(p)))
    rho = np.hypot(pts[:, 0], pts[:, 1])
    on_plane = (np.abs(pts[:, 2]) <= _PLANE_TOL * np.maximum(1.0, r)) & (rho > 0.0)
    if np.any(on_plane):
        coeffs[on_plane] = _signature_ground_batch(pts[on_plane], constants, p)
    if np.any(~on_plane):
        coeffs[~on_plane] = _signature_interior_batch(pts[~on_plane], constants, p)
    return coeffs


# ---------------------------------------------------------------------------
# Quadrature paths
# ---------------------------------------------------------------------------


def _phi_integral(fvals_fn, tol):
    """Integrate a smooth 2*pi-periodic function by trapezoid doubling.

    Raises :class:`QuadratureError` if the integrand is singular on the
    grid or the doubling cap is reached without meeting the tolerance
    (happens only when the pair sits on the plane singular set or
    pathologically close to it)."""
    n = 32
    theta = np.arange(n) * (2.0 * math.pi / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = fvals_fn(theta)
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("integrand is singular on the integration domain")
    est = vals.mean() * 2.0 * math.pi
    delta = math.inf
    while n < (1 << 18):
        shifted = theta + math.pi / n
        with np.errstate(divide="ignore", invalid="ignore"):
            new_vals = fvals_fn(shifted)
        if not np.all(np.isfinite(new_vals)):
            raise QuadratureError("integrand is singular on the integration domain")
        refined = 0.5 * (est + new_vals.mean() * 2.0 * math.pi)
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


def kernel_integral(y, x, config: KernelConfig = KernelConfig()) -> float:
    """Dirichlet kernel K(y, x; R) by the reference double integral.

    Valid for |y| < R and |x| < R (the closed-form integrand is smooth
    there); use :func:`kernel_integral_truncated` for points outside.
    """
    yp = _as_point(y)
    xp = _as_point(x)
    r = config.scale_radius
    yt, xt = yp / r, xp / r
    if np.linalg.norm(yt) >= 1.0 or np.linalg.norm(xt) >= 1.0:
        raise DomainError("kernel_integral requires |y| < R and |x| < R")
    if yt[2] == 0.0:
        return 0.0
    base = _kernel_quadrature(yt, xt, 0.0, config.integral_tolerance)
    return -yt[2] / (8.0 * math.pi**2) * base / r


def kernel_integral_truncated(
    y,
    x,
    tail_radius: float | None = None,
    config: KernelConfig = KernelConfig(),
) -> float:
    """Truncated kernel integral plus its analytic far-field tail.

    Valid for any pair above the plane (and as an oracle for interior
    pairs); ``tail_radius`` defaults to the configured cutoff.
    """
    yp = _as_point(y)
    xp = _as_point(x)
    r = config.scale_radius
    rinf = float(tail_radius) if tail_radius is not None else config.tail_radius
    if rinf <= r:
        raise DomainError("tail radius must exceed the scale radius")
    yt, xt = yp / r, xp / r
    if yt[2] == 0.0:
        return 0.0
    eta_min = r / rinf
    base = _kernel_quadrature(yt, xt, eta_min, config.integral_tolerance)
    tail = -yt[2] / (8.0 * math.pi * (rinf / r) ** 2)
    return (-yt[2] / (8.0 * math.pi**2) * base + tail) / r


# ---------------------------------------------------------------------------
# Series path and dispatch
# ---------------------------------------------------------------------------


def kernel_series(y, signature: SourceSignature, config: KernelConfig = KernelConfig()) -> float:
    """Dirichlet kernel from the factored series: contract the receiver
    harmonics at y/R with a precomputed source signature."""
    yp = _as_point(y)
    r = config.scale_radius
    yt = yp / r
    if np.linalg.norm(yt) >= 1.0:
        raise DomainError("kernel_series requires |y| < R")
    harmonics = solid_harmonics_batch(yt[None, :], signature.p)[0]
    return float(harmonics @ signature.coeffs) / r


# Dispatch threshold of ``kernel_value(path="auto")``: the series path is
# used when both scaled radii are at most this fraction.
_SERIES_FRACTION = 0.95


def kernel_value(
    y,
    x,
    config: KernelConfig = KernelConfig(),
    path: str = "auto",
    constants: SpectralConstants | None = None,
) -> float:
    """K(y, x; R) by the requested path (``series``, ``integral`` or
    ``auto``: series where both scaled radii are at most 0.95, quadrature
    otherwise)."""
    yp = _as_point(y)
    xp = _as_point(x)
    r = config.scale_radius
    ry = float(np.linalg.norm(yp)) / r
    rx = float(np.linalg.norm(xp)) / r
    if path == "auto":
        path = "series" if max(ry, rx) <= _SERIES_FRACTION else "integral"
    if path == "series":
        if max(ry, rx) >= 1.0:
            raise DomainError("series path requires |y| < R and |x| < R")
        if constants is None:
            constants = build_spectral_constants(config.p)
        sig = source_signature(xp / r, constants)
        return kernel_series(yp, sig, config)
    if path == "integral":
        if max(ry, rx) < 1.0:
            return kernel_integral(yp, xp, config)
        return kernel_integral_truncated(yp, xp, config=config)
    raise DomainError(f"unknown kernel path {path!r}")


def kernel_neumann(
    y,
    x,
    config: KernelConfig = KernelConfig(),
    path: str = "auto",
    constants: SpectralConstants | None = None,
) -> float:
    """Neumann kernel via the exact swap KN(y, x) = -K(x, y)."""
    return -kernel_value(x, y, config, path=path, constants=constants)
