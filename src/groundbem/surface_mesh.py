"""Triangulated surfaces for the benchmark geometries.

Meshes are built from latitude bands (spherical parts) and concentric
radial rings (flat parts), stitched watertight by a two-pointer merge of
adjacent rings.  Every panel carries the geometric data the analytic
boundary-element integrals need: centroid, area, unit normal and a frame
(unit tangent, length, in-plane outward normal) per edge.

Region tags
-----------
``SURFACE``    the feature surface S (bump hemisphere or dip bowl),
``GROUND``     the flat ground ring inside the detail radius,
``EXTENSION``  the flat ring between the detail radius and the extended
               radius (lies exactly in z = 0).

Mesh file format (text, one record per line, ``#`` comments allowed)::

    line    = vertex-line | face-line | comment | blank
    vertex  = "vertex" float float float
    face    = "face" int int int int      ; 0-based vertex ids + region tag

Floats are written with ``repr`` so coordinates round-trip bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MeshFormatError

__all__ = [
    "SURFACE",
    "GROUND",
    "EXTENSION",
    "DomainSpec",
    "PanelMesh",
    "make_bump_dip_mesh",
    "make_sphere_mesh",
    "make_flat_disc_mesh",
    "mirror_surface_mesh",
    "save_mesh",
    "load_mesh",
]

SURFACE = 0
GROUND = 1
EXTENSION = 2
_VALID_TAGS = (SURFACE, GROUND, EXTENSION)

_AREA_EPS = 1e-14


@dataclass(frozen=True)
class DomainSpec:
    """Radii of the detailed and extended computational domains, finite
    and ``0 < r0 <= re``."""

    r0: float
    re: float

    def __post_init__(self):
        if not 0 < self.r0 < math.inf:
            raise DomainError(f"r0 must be finite and positive, got {self.r0}")
        if not self.r0 <= self.re < math.inf:
            raise DomainError(f"re = {self.re} must be finite and >= r0 = {self.r0}")

    @property
    def delta(self) -> float:
        """Relative size of the extension ring, re/r0 - 1."""
        return self.re / self.r0 - 1.0


class PanelMesh:
    """Immutable triangle mesh with per-panel region tags.

    All per-panel quantities are precomputed as arrays (struct-of-arrays
    layout) so the solver can vectorize over panels.  ``edge_tangents[j, q]``,
    ``edge_lengths[j, q]`` and ``edge_normals[j, q]`` describe edge q of
    panel j, running from vertex q to vertex (q + 1) mod 3; the in-plane
    edge normal is tangent x normal.
    """

    def __init__(self, vertices, faces, tags):
        vertices = np.asarray(vertices, dtype=float)
        faces = np.asarray(faces, dtype=np.int64)
        tags = np.asarray(tags, dtype=np.int64)
        if not faces.size:
            raise MeshFormatError("mesh has no faces")
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshFormatError("vertices must have shape (V, 3)")
        if not np.all(np.isfinite(vertices)):
            raise MeshFormatError("vertex coordinates must be finite")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshFormatError("faces must have shape (F, 3)")
        if tags.shape != (faces.shape[0],):
            raise MeshFormatError("one region tag per face required")
        if faces.min() < 0 or faces.max() >= len(vertices):
            raise MeshFormatError("face indices out of range")
        bad_tags = set(np.unique(tags)) - set(_VALID_TAGS)
        if bad_tags:
            raise MeshFormatError(f"unknown region tags {sorted(bad_tags)}")

        self.vertices = vertices
        self.faces = faces
        self.tags = tags

        fv = vertices[faces]  # (F, 3, 3)
        self.face_vertices = fv
        self.centroids = fv.mean(axis=1)
        edge_vec = np.roll(fv, -1, axis=1) - fv
        cross = np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0])
        cross_norm = np.linalg.norm(cross, axis=1)
        self.areas = 0.5 * cross_norm
        degenerate = np.nonzero(self.areas <= _AREA_EPS)[0]
        if degenerate.size:
            raise MeshFormatError(
                f"zero-area face(s) at index {degenerate[0]}"
                + (f" (+{degenerate.size - 1} more)" if degenerate.size > 1 else "")
            )
        self.normals = cross / cross_norm[:, None]
        self.edge_lengths = np.linalg.norm(edge_vec, axis=2)
        self.edge_tangents = edge_vec / self.edge_lengths[:, :, None]
        self.edge_normals = np.cross(self.edge_tangents, self.normals[:, None, :])

        for arr in (self.vertices, self.faces, self.tags, self.centroids,
                    self.areas, self.normals, self.edge_lengths,
                    self.edge_tangents, self.edge_normals):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.faces)

    @property
    def mean_diameter(self) -> float:
        """Mean of the longest edge over all panels."""
        return float(self.edge_lengths.max(axis=1).mean())

    @property
    def feature_radius(self) -> float:
        """Largest vertex radius over the SURFACE faces (the bump or dip),
        0 when the mesh has none."""
        surface = self.faces[self.tags == SURFACE].ravel()
        return float(np.linalg.norm(self.vertices[surface], axis=1).max(initial=0.0))

    @property
    def feature_sign(self) -> int:
        """+1 for a raised feature (bump), -1 for a sunken one (dip), 0 when
        the mesh has no SURFACE faces: the sign of their mean centroid z."""
        z = self.centroids[self.tags == SURFACE, 2]
        return 0 if not z.size else 1 if z.mean() > 0.0 else -1

    def tag_counts(self) -> dict:
        return {int(t): int(np.sum(self.tags == t)) for t in np.unique(self.tags)}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _ring_count(radius: float, edge: float) -> int:
    return max(6, int(round(2.0 * math.pi * radius / edge)))


def _stitch(ids_a, ang_a, ids_b, ang_b):
    """Triangulate the band between two concentric closed rings.

    Rings are given as vertex ids plus angles sorted ascending; the merge
    walks both rings by angle and emits len(a) + len(b) triangles.
    """
    na, nb = len(ids_a), len(ids_b)
    ext_a = list(ang_a) + [ang_a[0] + 2.0 * math.pi]
    ext_b = list(ang_b) + [ang_b[0] + 2.0 * math.pi]
    ia = ib = 0
    faces = []
    while ia < na or ib < nb:
        take_a = ia < na and (ib == nb or ext_a[ia + 1] <= ext_b[ib + 1])
        va = ids_a[ia % na]
        vb = ids_b[ib % nb]
        if take_a:
            faces.append((va, vb, ids_a[(ia + 1) % na]))
            ia += 1
        else:
            faces.append((va, vb, ids_b[(ib + 1) % nb]))
            ib += 1
    return faces


class _Builder:
    def __init__(self):
        self.vertices = []
        self.faces = []
        self.tags = []

    def add_vertex(self, x, y, z) -> int:
        self.vertices.append((float(x), float(y), float(z)))
        return len(self.vertices) - 1

    def add_ring(self, radius, z, count, offset=0.0):
        angles = offset + 2.0 * math.pi * np.arange(count) / count
        angles = np.mod(angles, 2.0 * math.pi)
        order = np.argsort(angles)
        ids = [
            self.add_vertex(radius * math.cos(a), radius * math.sin(a), z)
            for a in angles[order]
        ]
        return ids, list(angles[order])

    def add_band(self, ring_a, ring_b, tag):
        for f in _stitch(ring_a[0], ring_a[1], ring_b[0], ring_b[1]):
            self.faces.append(f)
            self.tags.append(tag)

    def add_cap(self, pole_id, ring, tag):
        ids = ring[0]
        for q in range(len(ids)):
            self.faces.append((pole_id, ids[q], ids[(q + 1) % len(ids)]))
            self.tags.append(tag)

    def build(self, orient) -> PanelMesh:
        vertices = np.asarray(self.vertices)
        faces = np.asarray(self.faces, dtype=np.int64)
        tags = np.asarray(self.tags, dtype=np.int64)
        fv = vertices[faces]
        cross = np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0])
        centroids = fv.mean(axis=1)
        want = orient(centroids, tags)
        flip = np.einsum("ij,ij->i", cross, want) < 0.0
        faces[flip] = faces[flip][:, ::-1]
        return PanelMesh(vertices, faces, tags)


def _add_hemisphere(builder, edge, z_sign):
    """SURFACE panels of the unit hemisphere on the side ``z_sign`` of the
    plane, in latitude bands from the pole to the equator.

    Returns the equator ring (ids, angles), which lies exactly at z = 0.
    """
    nbands = max(2, int(round(0.5 * math.pi / edge)))
    pole = builder.add_vertex(0.0, 0.0, z_sign * 1.0)
    rings = []
    for i in range(1, nbands + 1):
        theta = 0.5 * math.pi * i / nbands
        radius = math.sin(theta)
        z = z_sign * math.cos(theta)
        if i == nbands:
            z = 0.0
        count = _ring_count(radius, edge)
        offset = 0.5 * (i % 2) * 2.0 * math.pi / count
        rings.append(builder.add_ring(radius, z, count, offset))
    builder.add_cap(pole, rings[0], SURFACE)
    for ra, rb in zip(rings, rings[1:]):
        builder.add_band(ra, rb, SURFACE)
    return rings[-1]


def _flat_rings(builder, r_start, r_end, edge, start_ring):
    """Concentric rings in z = 0 from r_start to r_end (both excluded /
    included via start_ring handling); returns the ring list including the
    starting ring."""
    rings = [start_ring]
    if r_end <= r_start:
        return rings
    nsteps = max(1, int(round((r_end - r_start) / edge)))
    for i in range(1, nsteps + 1):
        radius = r_start + (r_end - r_start) * i / nsteps
        count = _ring_count(radius, edge)
        offset = 0.5 * (i % 2) * 2.0 * math.pi / count
        rings.append(builder.add_ring(radius, 0.0, count, offset))
    return rings


def make_bump_dip_mesh(sign: int, r0: float, re: float, target_edge: float) -> PanelMesh:
    """Benchmark geometry: a unit-radius bump (sign +1) or dip (sign -1)
    joined watertight at rho = 1 to flat ground rings out to ``r0`` and an
    extension ring out to ``re``.

    The bump requires ``r0 > 1`` (the detail ball must enclose it); the
    dip has its rim at the detail radius, so ``r0 = 1`` and the inner flat
    ring is empty.  Normals point into the computational domain: up on the
    flat ground, outward on the bump, toward the axis on the dip bowl.
    ``target_edge`` must lie in (0, 1], up to the feature's unit radius.
    """
    if not 0 < target_edge <= 1.0:
        raise DomainError(
            "target_edge must be finite, positive and at most the unit feature "
            f"radius, got {target_edge}"
        )
    if sign not in (1, -1):
        raise DomainError("sign must be +1 (bump) or -1 (dip)")
    if not r0 <= re < math.inf:
        raise DomainError(f"re = {re} must be finite and >= r0 = {r0}")
    if sign == 1 and not r0 > 1.0:
        raise DomainError("bump geometry requires r0 > 1")
    if sign == -1 and abs(r0 - 1.0) > 1e-12:
        raise DomainError("dip geometry requires r0 = 1")

    b = _Builder()
    equator = _add_hemisphere(b, target_edge, z_sign=sign)
    ground_rings = _flat_rings(b, 1.0, r0, target_edge, equator)
    for ra, rb in zip(ground_rings, ground_rings[1:]):
        b.add_band(ra, rb, GROUND)
    ext_rings = _flat_rings(b, r0, re, target_edge, ground_rings[-1])
    for ra, rb in zip(ext_rings, ext_rings[1:]):
        b.add_band(ra, rb, EXTENSION)

    def orient(centroids, tags):
        want = np.zeros_like(centroids)
        flat = tags != SURFACE
        want[flat, 2] = 1.0
        want[~flat] = sign * centroids[~flat]
        return want

    return b.build(orient)


def make_sphere_mesh(target_edge: float, radius: float = 1.0) -> PanelMesh:
    """Full sphere, tag SURFACE, outward normals: the upper hemisphere
    joined to its mirror image by :func:`mirror_surface_mesh`, then scaled
    to ``radius``; ``target_edge`` must lie in (0, radius]."""
    if not (0 < radius < math.inf and 0 < target_edge <= radius):
        raise DomainError(
            f"radius must be finite and positive and target_edge in (0, radius], "
            f"got radius {radius}, target_edge {target_edge}"
        )
    b = _Builder()
    _add_hemisphere(b, target_edge / radius, z_sign=1)
    sphere = mirror_surface_mesh(b.build(lambda centroids, tags: centroids))
    return PanelMesh(sphere.vertices * radius, sphere.faces, sphere.tags)


def mirror_surface_mesh(mesh: PanelMesh) -> PanelMesh:
    """Reflect the SURFACE panels of a bump mesh through z = 0 and join the
    two copies along the shared rim, producing the closed image surface
    (a full sphere for the unit bump) with outward normals.

    Panel sizes match the source mesh exactly, so image-method and
    kernel-method solutions can be compared at equal resolution.
    """
    on_s = mesh.tags == SURFACE
    if not np.any(on_s):
        raise DomainError("mesh has no SURFACE panels to mirror")
    faces = mesh.faces[on_s]
    used = np.unique(faces)
    remap = -np.ones(len(mesh.vertices), dtype=np.int64)
    remap[used] = np.arange(used.size)
    verts = mesh.vertices[used].copy()
    faces = remap[faces]

    on_rim = np.abs(verts[:, 2]) <= 1e-12
    mirror_id = -np.ones(used.size, dtype=np.int64)
    mirror_id[on_rim] = np.nonzero(on_rim)[0]
    extra = np.nonzero(~on_rim)[0]
    mirror_id[extra] = verts.shape[0] + np.arange(extra.size)
    verts_all = np.vstack([verts, verts[extra] * np.array([1.0, 1.0, -1.0])])
    mirrored = mirror_id[faces][:, ::-1]  # reversed winding keeps outward normals
    faces_all = np.vstack([faces, mirrored])
    tags_all = np.full(faces_all.shape[0], SURFACE, dtype=np.int64)
    return PanelMesh(verts_all, faces_all, tags_all)


def make_flat_disc_mesh(radius: float, target_edge: float) -> PanelMesh:
    """Flat disc in z = 0, tag GROUND, upward normals (plain grounded plane);
    ``target_edge`` must lie in (0, radius]."""
    if not (0 < radius < math.inf and 0 < target_edge <= radius):
        raise DomainError(
            f"radius must be finite and positive and target_edge in (0, radius], "
            f"got radius {radius}, target_edge {target_edge}"
        )
    b = _Builder()
    center = b.add_vertex(0.0, 0.0, 0.0)
    nsteps = max(1, int(round(radius / target_edge)))
    first = b.add_ring(radius / nsteps, 0.0, _ring_count(radius / nsteps, target_edge))
    b.add_cap(center, first, GROUND)
    rings = [first]
    for i in range(2, nsteps + 1):
        rr = radius * i / nsteps
        count = _ring_count(rr, target_edge)
        offset = 0.5 * (i % 2) * 2.0 * math.pi / count
        rings.append(b.add_ring(rr, 0.0, count, offset))
    for ra, rb in zip(rings, rings[1:]):
        b.add_band(ra, rb, GROUND)

    def orient(centroids, tags):
        want = np.zeros_like(centroids)
        want[:, 2] = 1.0
        return want

    return b.build(orient)


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def save_mesh(mesh: PanelMesh, path) -> None:
    """Write a mesh in the text format documented in the module header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# groundbem mesh format v1\n")
        fh.write("# vertex <x> <y> <z>\n")
        fh.write("# face <i1> <i2> <i3> <tag>\n")
        for v in mesh.vertices:
            fh.write(f"vertex {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f, t in zip(mesh.faces, mesh.tags):
            fh.write(f"face {f[0]} {f[1]} {f[2]} {t}\n")


def load_mesh(path) -> PanelMesh:
    """Parse a mesh file; raises :class:`MeshFormatError` with the line or
    face index on malformed input."""
    vertices = []
    faces = []
    tags = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if parts[0] == "vertex":
                if len(parts) != 4:
                    raise MeshFormatError(f"line {lineno}: vertex needs 3 coordinates")
                try:
                    vertices.append(tuple(float(p) for p in parts[1:]))
                except ValueError as exc:
                    raise MeshFormatError(f"line {lineno}: bad float: {exc}") from exc
            elif parts[0] == "face":
                if len(parts) != 5:
                    raise MeshFormatError(
                        f"line {lineno}: face needs 3 vertex ids and a tag "
                        "(non-triangular faces are not supported)"
                    )
                try:
                    ids = [int(p) for p in parts[1:4]]
                    tag = int(parts[4])
                except ValueError as exc:
                    raise MeshFormatError(f"line {lineno}: bad integer: {exc}") from exc
                faces.append(ids)
                tags.append(tag)
            else:
                raise MeshFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    return PanelMesh(np.asarray(vertices), np.asarray(faces), np.asarray(tags))
