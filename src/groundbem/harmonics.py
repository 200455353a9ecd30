"""Special-function substrate: complete elliptic integrals (SciPy's), the
``nu`` constant table of the factored kernel, and recursively evaluated real
solid harmonics.

Conventions used throughout the package:

* Elliptic integrals follow the parameter convention,
  ``K(mu) = int_0^{pi/2} (1 - mu sin^2 t)^{-1/2} dt`` (and ``+1/2`` for E),
  so ``mu`` plays the role usually written ``m``, not the modulus ``k``.
* Real solid harmonics ``R[n, m]`` are homogeneous of degree ``n`` and carry
  the ``(-1)^(n+m) / (n+|m|)!`` scaling that makes the recurrences below
  free of factorials.  For ``m >= 0`` the azimuthal factor is ``cos(m phi)``,
  for ``m < 0`` it is ``sin(m phi)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "P_HARD_LIMIT",
    "SpectralConstants",
    "TruncationAccuracyWarning",
    "elliptic_ke",
    "build_spectral_constants",
    "check_truncation",
    "solid_harmonics_batch",
    "sh_index",
]

# Accuracy of the recursions is asserted by the test suite only up to this
# truncation (the bump anchor's p = 104); beyond it we warn.  Past
# P_HARD_LIMIT the double-factorial products consumed by the kernel series
# overflow float64, so we refuse.
# (Between the two, unused corners of the sign-product table may reach inf;
# consumers restrict themselves to the finite region.)
_P_SOFT_LIMIT = 104
P_HARD_LIMIT = 128


class TruncationAccuracyWarning(UserWarning):
    """Truncation number beyond the envelope validated by the test suite."""


# ---------------------------------------------------------------------------
# Complete elliptic integrals
# ---------------------------------------------------------------------------


def elliptic_ke(mu):
    """Complete elliptic integrals ``(K, E)`` at ``mu`` in [0, 1), a scalar
    or an array, from :func:`scipy.special.ellipk` and
    :func:`scipy.special.ellipe`; both are within a few ulp of the exact
    values up to the logarithmic blow-up of K at ``mu -> 1``."""
    mu = np.asarray(mu, dtype=float)
    if not np.all((mu >= 0.0) & (mu < 1.0)):
        raise DomainError(f"elliptic parameter must lie in [0, 1), got {mu}")
    return special.ellipk(mu), special.ellipe(mu)


# ---------------------------------------------------------------------------
# Spectral constant table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralConstants:
    """Constant table of the factored kernel for truncation number ``p``.

    ``nu[n, m]`` (m >= 0; even in the sign of m) is the signed
    double-factorial product ``(-1)^((n+m)/2) (n-m-1)!! (n+m-1)!!`` pairing
    with the real basis, zero where n + m is odd or m > n.  It is filled
    for ``n, m <= 2p - 2``: the inner series of interior sources consumes
    source degrees up to ``2p - 3``.
    """

    p: int
    nu: np.ndarray


def check_truncation(p) -> int:
    """A truncation number ``p`` as an int: a bool or a non-integer (12.7,
    and 8.0 too) raises :class:`DomainError`.  The configs and this
    module's builders share this one rule."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise DomainError(f"truncation number must be an integer, got {p!r}")
    return int(p)


def build_spectral_constants(p: int) -> SpectralConstants:
    """Build the ``nu`` table for truncation number ``p`` by running
    products; no factorial of a large argument is ever formed.  A ``p``
    that is not an integer raises :class:`DomainError`."""
    p = check_truncation(p)
    if p < 1:
        raise DomainError(f"truncation number must be >= 1, got {p}")
    if p > P_HARD_LIMIT:
        raise DomainError(
            f"truncation number {p} exceeds the float64-safe limit {P_HARD_LIMIT}"
        )
    if p > _P_SOFT_LIMIT:
        warnings.warn(
            f"truncation number {p} is beyond the validated envelope "
            f"(p <= {_P_SOFT_LIMIT}); expect reduced accuracy",
            TruncationAccuracyWarning,
            stacklevel=2,
        )

    top = max(2 * p - 2, 1)
    nu = np.zeros((top + 1, top + 1))
    # Diagonal seeds (-1)^m (2m-1)!!, vertical two-term products.  High
    # corners of the table may overflow to +-inf; every consumer restricts
    # itself to the finite region (the overflowing entries pair with series
    # terms far below double precision).
    with np.errstate(over="ignore"):
        nu[0, 0] = 1.0
        for m in range(1, top + 1):
            nu[m, m] = nu[m - 1, m - 1] * (-(2.0 * m - 1.0))
        for nn in range(2, top + 1):
            mm = np.arange(nn % 2, nn - 1, 2, dtype=float)
            cols = slice(nn % 2, nn - 1, 2)
            nu[nn, cols] = -(nn - mm - 1.0) * (nn + mm - 1.0) * nu[nn - 2, cols]

    return SpectralConstants(p=p, nu=nu)


# ---------------------------------------------------------------------------
# Real solid harmonics
# ---------------------------------------------------------------------------


def sh_index(n: int, m: int) -> int:
    """Flat index of the (n, m) entry in a degree-major table."""
    return n * n + n + m


def solid_harmonics_batch(points: np.ndarray, p: int) -> np.ndarray:
    """Real solid harmonics for all degrees ``n < p`` at many points.

    Parameters
    ----------
    points : (N, 3) array
    p : truncation number

    Returns
    -------
    (N, p*p) array, flat-indexed by :func:`sh_index`.  Cost is O(p^2) per
    point.  The table is built degree-major as (p*p, N), so degree n is the
    contiguous row block ``n^2 .. n^2 + 2n``; one vectorized step per degree
    produces degree n + 1 from degrees n and n - 1: the vertical three-term
    recurrence for |m| <= n - 1, the subdiagonal step at m = +-n and the
    diagonal step at m = +-(n + 1).  The transpose of that table is
    returned.  A ``p`` that is not an integer raises :class:`DomainError`.
    """
    p = check_truncation(p)
    if p < 1:
        raise DomainError(f"truncation number must be >= 1, got {p}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise DomainError("points must have shape (N, 3)")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must have finite coordinates")

    npts = pts.shape[0]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    r2 = x * x + y * y + z * z

    v = np.empty((p * p, npts))
    v[0] = 1.0
    if p > 1:
        v[sh_index(1, -1)] = 0.5 * y
        v[sh_index(1, 0)] = -z * v[0]
        v[sh_index(1, 1)] = -0.5 * x
    for n in range(1, p - 1):
        b0, b1 = n * n, (n + 1) * (n + 1)  # first rows of degrees n, n + 1
        m = np.arange(-(n - 1), n)[:, None]
        v[b1 + 2 : b1 + 2 * n + 1] = -(
            (2.0 * n + 1.0) * z * v[b0 + 1 : b0 + 2 * n]
            + r2 * v[(n - 1) ** 2 : b0]
        ) / ((n + 1.0) ** 2 - m * m)
        v[b1 + 1] = -z * v[b0]
        v[b1 + 2 * n + 1] = -z * v[b0 + 2 * n]
        cp, cm = v[b0 + 2 * n], v[b0]
        v[b1 + 2 * n + 2] = -(x * cp + y * cm) / (2.0 * (n + 1))
        v[b1] = (y * cp - x * cm) / (2.0 * (n + 1))
    return v.T
