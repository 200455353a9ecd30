import math
from collections import Counter

import numpy as np
import pytest

from groundbem.errors import DomainError, MeshFormatError
from groundbem.surface_mesh import (
    EXTENSION,
    GROUND,
    SURFACE,
    DomainSpec,
    PanelMesh,
    load_mesh,
    make_bump_dip_mesh,
    make_flat_disc_mesh,
    make_sphere_mesh,
    mirror_surface_mesh,
    save_mesh,
)


@pytest.fixture(scope="module")
def bump():
    return make_bump_dip_mesh(1, r0=2.0, re=2.187, target_edge=0.12)


@pytest.fixture(scope="module")
def dip():
    return make_bump_dip_mesh(-1, r0=1.0, re=1.124, target_edge=0.12)


def edge_counts(mesh):
    cnt = Counter()
    for f in mesh.faces:
        for q in range(3):
            cnt[tuple(sorted((int(f[q]), int(f[(q + 1) % 3]))))] += 1
    return cnt


def test_domain_spec():
    d = DomainSpec(r0=2.0, re=2.187)
    assert d.delta == pytest.approx(0.0935, abs=1e-12)
    with pytest.raises(DomainError):
        DomainSpec(r0=-1.0, re=2.0)
    with pytest.raises(DomainError):
        DomainSpec(r0=2.0, re=1.0)
    for r0, re in ((1.0, math.nan), (1.0, math.inf), (math.nan, 2.0), (math.inf, math.inf)):
        with pytest.raises(DomainError, match="finite"):
            DomainSpec(r0=r0, re=re)


def test_bump_vertices_on_unit_sphere(bump):
    fv = bump.face_vertices[bump.tags == SURFACE].reshape(-1, 3)
    assert np.abs(np.linalg.norm(fv, axis=1) - 1.0).max() < 1e-12


def test_flat_ring_area(bump):
    flat = bump.tags != SURFACE
    area = bump.areas[flat].sum()
    exact = math.pi * (2.187**2 - 1.0)
    assert abs(area - exact) / exact < 0.02


def test_paper_panel_counts_within_factor_two():
    mesh = make_bump_dip_mesh(1, r0=2.0, re=2.0 * 1.0935, target_edge=0.075)
    counts = mesh.tag_counts()
    n0 = counts[SURFACE] + counts[GROUND]
    ne = len(mesh)
    assert 0.5 <= n0 / 6401 <= 2.0
    assert 0.5 <= ne / 7661 <= 2.0


def test_normal_orientation(bump, dip):
    flat = bump.tags != SURFACE
    assert np.all(bump.normals[flat][:, 2] > 0.0)
    dots = np.einsum("ij,ij->i", bump.normals[~flat], bump.centroids[~flat])
    assert np.all(dots > 0.0)
    bowl = dip.tags == SURFACE
    dots_dip = np.einsum("ij,ij->i", dip.normals[bowl], dip.centroids[bowl])
    assert np.all(dots_dip < 0.0)


def test_extension_panels_exactly_in_plane(bump):
    ext = bump.tags == EXTENSION
    assert np.abs(bump.face_vertices[ext][..., 2]).max() == 0.0
    rho = np.hypot(bump.centroids[ext][:, 0], bump.centroids[ext][:, 1])
    assert rho.min() >= 2.0 - 1e-12
    assert rho.max() <= 2.187


def test_dip_has_empty_ground_ring(dip):
    assert dip.tag_counts().get(GROUND, 0) == 0
    assert dip.tag_counts()[EXTENSION] > 0


def test_edge_frames(bump):
    want = np.cross(bump.edge_tangents, bump.normals[:, None, :])
    assert np.abs(want - bump.edge_normals).max() < 1e-14
    assert np.abs(np.linalg.norm(bump.edge_tangents, axis=2) - 1.0).max() < 1e-14
    assert np.all(bump.areas > 0.0)
    assert np.abs(
        bump.centroids - bump.face_vertices.mean(axis=1)
    ).max() == 0.0


def test_watertight_up_to_outer_rim(bump):
    cnt = edge_counts(bump)
    assert max(cnt.values()) == 2
    boundary_vertices = {v for e, k in cnt.items() if k == 1 for v in e}
    rho = np.hypot(
        bump.vertices[list(boundary_vertices)][:, 0],
        bump.vertices[list(boundary_vertices)][:, 1],
    )
    assert np.abs(rho - 2.187).max() < 1e-9


def test_sphere_and_mirror_closed(bump):
    sph = make_sphere_mesh(0.25)
    assert all(k == 2 for k in edge_counts(sph).values())
    mir = mirror_surface_mesh(bump)
    assert all(k == 2 for k in edge_counts(mir).values())
    assert len(mir) == 2 * int(np.sum(bump.tags == SURFACE))
    assert np.abs(np.linalg.norm(mir.vertices, axis=1) - 1.0).max() < 1e-12
    dots = np.einsum("ij,ij->i", mir.normals, mir.centroids)
    assert np.all(dots > 0.0)


def test_generators_use_every_vertex(bump, dip):
    meshes = (
        bump,
        dip,
        make_sphere_mesh(0.25),
        make_sphere_mesh(0.3, radius=2.5),
        make_flat_disc_mesh(3.0, 0.3),
        mirror_surface_mesh(bump),
    )
    for mesh in meshes:
        assert np.unique(mesh.faces).size == len(mesh.vertices)


def test_disc_mesh():
    disc = make_flat_disc_mesh(3.0, 0.3)
    assert abs(disc.areas.sum() - math.pi * 9.0) / (math.pi * 9.0) < 0.03
    assert np.all(disc.normals[:, 2] > 0.0)


def test_generator_validation():
    with pytest.raises(DomainError):
        make_bump_dip_mesh(1, r0=1.0, re=2.0, target_edge=0.2)  # bump needs r0 > 1
    with pytest.raises(DomainError):
        make_bump_dip_mesh(-1, r0=1.5, re=2.0, target_edge=0.2)  # dip needs r0 = 1
    with pytest.raises(DomainError):
        make_bump_dip_mesh(1, r0=2.0, re=1.5, target_edge=0.2)
    with pytest.raises(DomainError):
        make_bump_dip_mesh(1, r0=2.0, re=2.5, target_edge=-0.1)
    with pytest.raises(DomainError):
        make_bump_dip_mesh(2, r0=2.0, re=2.5, target_edge=0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_generators_refuse_non_finite_sizes(bad):
    # an infinite edge would otherwise make a 42-panel bump or a 6-panel disc
    makers = [
        lambda: make_bump_dip_mesh(1, r0=2.0, re=2.4, target_edge=bad),
        lambda: make_bump_dip_mesh(1, r0=2.0, re=bad, target_edge=0.4),
        lambda: make_bump_dip_mesh(-1, r0=1.0, re=bad, target_edge=0.4),
        lambda: make_sphere_mesh(bad),
        lambda: make_sphere_mesh(0.3, radius=bad),
        lambda: make_flat_disc_mesh(bad, 0.3),
        lambda: make_flat_disc_mesh(1.0, bad),
    ]
    for make in makers:
        with pytest.raises(DomainError, match="finite"):
            make()


def test_generators_refuse_an_edge_larger_than_the_geometry():
    # a bump or dip edge above the unit feature radius, a sphere or disc
    # edge above its radius: the generators would return a handful of
    # panels that resolve nothing
    makers = [
        lambda: make_bump_dip_mesh(1, r0=2.0, re=2.4, target_edge=1e300),
        lambda: make_bump_dip_mesh(1, r0=2.0, re=2.4, target_edge=1.01),
        lambda: make_bump_dip_mesh(-1, r0=1.0, re=1.5, target_edge=1.5),
        lambda: make_sphere_mesh(2.6, radius=2.5),
        lambda: make_flat_disc_mesh(1.0, 1e300),
        lambda: make_flat_disc_mesh(3.0, 3.5),
    ]
    for make in makers:
        with pytest.raises(DomainError, match="target_edge"):
            make()
    # an edge equal to the limit is still a mesh
    assert len(make_bump_dip_mesh(1, r0=2.0, re=2.4, target_edge=1.0)) > 0
    assert len(make_flat_disc_mesh(1.0, 1.0)) > 0


def test_save_load_round_trip(bump, tmp_path):
    path = tmp_path / "bump.mesh"
    save_mesh(bump, path)
    again = load_mesh(path)
    assert np.array_equal(again.vertices, bump.vertices)
    assert np.array_equal(again.faces, bump.faces)
    assert np.array_equal(again.tags, bump.tags)
    assert again.tag_counts() == bump.tag_counts()


def test_load_rejects_degenerate_face(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text(
        "vertex 0.0 0.0 0.0\nvertex 1.0 0.0 0.0\nvertex 2.0 0.0 0.0\n"
        "face 0 1 2 0\n"
    )
    with pytest.raises(MeshFormatError, match="index 0"):
        load_mesh(path)


def test_load_rejects_malformed(tmp_path):
    p1 = tmp_path / "a.mesh"
    p1.write_text("vertex 0 0\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh(p1)
    p2 = tmp_path / "b.mesh"
    p2.write_text("vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nface 0 1 2 3 9 0\n")
    with pytest.raises(MeshFormatError, match="non-triangular"):
        load_mesh(p2)
    p3 = tmp_path / "c.mesh"
    p3.write_text("vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nface 0 1 2 7\n")
    with pytest.raises(MeshFormatError, match="tag"):
        load_mesh(p3)
    p4 = tmp_path / "d.mesh"
    p4.write_text("vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\nface 0 1 5 0\n")
    with pytest.raises(MeshFormatError, match="out of range"):
        load_mesh(p4)
    p5 = tmp_path / "e.mesh"
    p5.write_text("spline 0 0 0\n")
    with pytest.raises(MeshFormatError, match="unknown record"):
        load_mesh(p5)
    # a non-finite coordinate would give a NaN area, which passes the
    # zero-area check
    for bad in ("nan", "inf", "-inf"):
        p6 = tmp_path / f"f_{bad}.mesh"
        p6.write_text(f"vertex {bad} 0 0\nvertex 1 0 0\nvertex 0 1 0\nface 0 1 2 0\n")
        with pytest.raises(MeshFormatError, match="finite"):
            load_mesh(p6)


def test_mesh_without_faces_is_refused(tmp_path):
    # built directly or read from a file of vertices only: assemble would
    # otherwise die outside GroundBemError on the empty cluster tree
    with pytest.raises(MeshFormatError, match="no faces"):
        PanelMesh(np.zeros((0, 3)), np.zeros((0, 3), int), np.zeros(0, int))
    path = tmp_path / "empty.mesh"
    path.write_text("vertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\n")
    with pytest.raises(MeshFormatError, match="no faces"):
        load_mesh(path)


def test_mesh_arrays_immutable(bump):
    with pytest.raises(ValueError):
        bump.vertices[0, 0] = 99.0


def test_panel_accessor(bump):
    # a panel's data are one row of each mesh array: edge q runs from vertex
    # q to vertex (q + 1) mod 3, its unit tangent times its length is that
    # edge, and its in-plane normal is tangent x normal, orthogonal to the
    # panel normal
    edges = np.roll(bump.face_vertices, -1, axis=1) - bump.face_vertices
    assert np.abs(bump.edge_tangents * bump.edge_lengths[:, :, None] - edges).max() < 1e-14
    assert np.abs(np.einsum("fqk,fk->fq", bump.edge_normals, bump.normals)).max() < 1e-14
    assert np.allclose(
        np.cross(bump.edge_tangents[0, 0], bump.normals[0]), bump.edge_normals[0, 0]
    )
    assert bump.areas[0] == pytest.approx(
        0.5 * np.linalg.norm(np.cross(edges[0, 0], edges[0, 1]))
    )
    assert bump.tags.shape == bump.areas.shape == (len(bump),)
