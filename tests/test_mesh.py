"""Mesh generator tests.

Structural invariants are checked through validate(); geometric quality is
checked against closed-form areas (shoelace for polygons, pi for the unit
disk after refinement).  The eight-fold symmetry test matches rotated node
coordinates with a KD-tree and then demands exact equality of the permuted
triangle set, since the band zipper makes its choices in integer arithmetic.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from oracles import mesh_area, prolongation_by_dict, refine_by_dict
from wittenlab import mesh as msh
from wittenlab.mesh import (
    DomainSpec,
    Mesh,
    MeshFormatError,
    MeshInvariantError,
    generate,
    load,
    refine,
    save,
    validate,
)


def tri_set(m):
    return {tuple(sorted(t)) for t in m.triangles}


class TestDisk:
    def test_valid_and_edge_band(self):
        m = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.1))
        validate(m)
        el = m.edge_lengths()
        assert el.min() >= 0.05 and el.max() <= 0.2

    def test_area_converges_quadratically(self):
        m = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.1))
        e0 = math.pi - mesh_area(m)
        e1 = math.pi - mesh_area(refine(m))
        assert e0 > e1 > 0
        assert abs(e0 / e1 - 4.0) < 0.1

    def test_eightfold_equivariance(self):
        m = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.15))
        ang = math.pi / 4.0
        rot = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        dist, perm = cKDTree(m.nodes).query(m.nodes @ rot.T)
        assert dist.max() < 1e-12
        assert {tuple(sorted(perm[t])) for t in m.triangles} == tri_set(m)

    def test_boundary_nodes_on_circle(self):
        m = generate(DomainSpec(shape="disk", radius=2.5, target_edge_length=0.2))
        r = np.hypot(*m.nodes[m.boundary_nodes].T)
        assert np.allclose(r, 2.5, atol=1e-12)

    def test_off_center_disk_rejected(self):
        with pytest.raises(ValueError, match="translated-disk"):
            DomainSpec(shape="disk", radius=1.0, center=(0.5, 0.0))


# the fields each meshed shape takes, and a valid value for every field
TAKES = {
    "disk": ("radius",),
    "translated-disk": ("radius", "center"),
    "ellipse": ("aspect", "semi_axis_x", "semi_axis_y", "center"),
    "perturbed-disk": ("radius", "perturbation", "center"),
    "annulus": ("inner_radius", "outer_radius"),
    "polygon": ("vertices",),
}
NEEDS = {
    "disk": ("radius",),
    "translated-disk": ("radius",),
    "ellipse": ("aspect",),
    "perturbed-disk": ("radius", "perturbation"),
    "annulus": ("inner_radius", "outer_radius"),
    "polygon": ("vertices",),
}
VALUES = {
    "radius": 1.0,
    "center": (0.5, 0.0),
    "semi_axis_x": 1.0,
    "semi_axis_y": 0.8,
    "aspect": 1.2,
    "inner_radius": 0.3,
    "outer_radius": 1.0,
    "vertices": ((0, 0), (1, 0), (0, 1)),
    "perturbation": ((2, 0.1),),
}
FOREIGN = [(shape, key) for shape in TAKES for key in VALUES if key not in TAKES[shape]]


class TestShapeFields:
    def test_table_covers_every_shape(self):
        assert msh.SHAPE_FIELDS == TAKES
        assert msh.SUPPORTED_SHAPES == tuple(TAKES)

    @pytest.mark.parametrize("shape", list(TAKES))
    def test_needed_fields_build(self, shape):
        DomainSpec(shape=shape, **{key: VALUES[key] for key in NEEDS[shape]})

    @pytest.mark.parametrize("shape,key", FOREIGN, ids=[f"{s}-{k}" for s, k in FOREIGN])
    def test_field_the_shape_does_not_take_is_refused(self, shape, key):
        kwargs = {k: VALUES[k] for k in NEEDS[shape]}
        with pytest.raises(ValueError, match=f"^{shape} takes no {key}"):
            DomainSpec(shape=shape, **kwargs, **{key: VALUES[key]})

    def test_default_center_is_not_a_setting(self):
        # away from its default is what counts; the CLI refuses the key itself
        assert DomainSpec(shape="annulus", inner_radius=0.3, outer_radius=1.0,
                          center=(0.0, 0.0)).center == (0.0, 0.0)

    def test_off_origin_center_is_in_the_tag(self):
        centred = DomainSpec(shape="ellipse", aspect=1.4)
        moved = DomainSpec(shape="ellipse", aspect=1.4, center=(0.4, 0.0))
        assert centred.describe() == "ellipse(semi_axes=(1.4, 0.714286))"
        assert moved.describe() == "ellipse(semi_axes=(1.4, 0.714286), center=(0.4, 0))"
        wavy = DomainSpec(shape="perturbed-disk", radius=1.0, perturbation=((2, 0.1),))
        assert wavy.describe() == "perturbed-disk(radius=1, modes=[(2, 0.1)])"
        moved = DomainSpec(shape="perturbed-disk", radius=1.0, perturbation=((2, 0.1),),
                           center=(0.0, -0.25))
        assert moved.describe() == (
            "perturbed-disk(radius=1, modes=[(2, 0.1)], center=(0, -0.25))"
        )
        assert generate(moved).domain_tag == moved.describe()


class TestTranslatedDisk:
    def test_is_exact_translate(self):
        a = generate(DomainSpec(shape="disk", radius=0.7, target_edge_length=0.1))
        b = generate(
            DomainSpec(
                shape="translated-disk",
                radius=0.7,
                center=(3.0, -2.0),
                target_edge_length=0.1,
            )
        )
        assert np.array_equal(a.triangles, b.triangles)
        assert np.allclose(b.nodes - np.array([3.0, -2.0]), a.nodes, atol=1e-12)


class TestEllipse:
    def test_aspect_parameterisation_keeps_area(self):
        # aspect a with semi-axes (a, 1/a) always encloses area pi
        m = generate(DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.05))
        assert abs(mesh_area(m) - math.pi) < 5e-3

    def test_boundary_on_curve(self):
        m = generate(
            DomainSpec(
                shape="ellipse", semi_axis_x=1.5, semi_axis_y=0.8, target_edge_length=0.1
            )
        )
        x, y = m.nodes[m.boundary_nodes].T
        assert np.allclose((x / 1.5) ** 2 + (y / 0.8) ** 2, 1.0, atol=1e-12)

    def test_parameter_conflicts(self):
        with pytest.raises(ValueError):
            DomainSpec(shape="ellipse", aspect=1.2, semi_axis_x=1.0, semi_axis_y=1.0)
        with pytest.raises(ValueError):
            DomainSpec(shape="ellipse")
        with pytest.raises(ValueError):
            DomainSpec(shape="ellipse", aspect=-2.0)


class TestAnnulus:
    def test_topology_and_boundaries(self):
        m = generate(
            DomainSpec(
                shape="annulus", inner_radius=0.5, outer_radius=1.5, target_edge_length=0.1
            )
        )
        validate(m)
        edges, counts, _ = msh._edges(m.triangles)
        V, E, F = len(m.nodes), len(edges), len(m.triangles)
        assert V - E + F == 0  # one hole
        r = np.hypot(*m.nodes[m.boundary_nodes].T)
        near_in = np.isclose(r, 0.5, atol=1e-12)
        near_out = np.isclose(r, 1.5, atol=1e-12)
        assert np.all(near_in | near_out)
        assert near_in.any() and near_out.any()

    @pytest.mark.parametrize("h", [0.15, 0.1, 0.07])
    def test_bands_are_split_quads(self, h):
        # every ring has the same node count, so each band is a ring of quads
        # (inner j, outer j, outer j+1, inner j+1), split along the diagonal
        # from inner j, band by band and quad by quad; the zipper builds both
        # halves counter-clockwise, and nothing re-orients them
        m = generate(
            DomainSpec(shape="annulus", inner_radius=0.5, outer_radius=1.5, target_edge_length=h)
        )
        count = int(np.sum(np.isclose(np.hypot(*m.nodes.T), 0.5, atol=1e-12)))
        j = np.arange(count)
        bands = []
        for i in range(len(m.nodes) // count - 1):
            a, b = i * count + j, (i + 1) * count + j
            an, bn = np.roll(a, -1), np.roll(b, -1)
            bands.append(np.stack([a, b, bn, a, bn, an], axis=1).reshape(-1, 3))
        assert np.array_equal(m.triangles, np.concatenate(bands))

    def test_area(self):
        m = generate(
            DomainSpec(
                shape="annulus", inner_radius=0.5, outer_radius=1.5, target_edge_length=0.05
            )
        )
        assert abs(mesh_area(m) - math.pi * (1.5**2 - 0.5**2)) < 4e-3

    def test_bad_radii(self):
        with pytest.raises(ValueError):
            DomainSpec(shape="annulus", inner_radius=1.0, outer_radius=0.5)
        with pytest.raises(ValueError):
            DomainSpec(shape="annulus", inner_radius=0.0, outer_radius=1.0)


class TestPerturbedDisk:
    def test_boundary_matches_polar_graph(self):
        spec = DomainSpec(
            shape="perturbed-disk",
            radius=1.0,
            perturbation=((2, 0.1), (5, 0.03)),
            target_edge_length=0.1,
        )
        m = generate(spec)
        pts = m.nodes[m.boundary_nodes]
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        rho = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(rho, spec.boundary_radius(theta), atol=1e-12)

    def test_pinched_boundary_rejected(self):
        with pytest.raises(ValueError, match="pinch"):
            DomainSpec(shape="perturbed-disk", radius=1.0, perturbation=((1, 0.97),))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            DomainSpec(shape="perturbed-disk", radius=1.0, perturbation=((0, 0.1),))

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_fold_refused_at_generate(self, h):
        # the inner rings have 8, 16, ... points at every h, too few for
        # mode 8 at amplitude 0.4: a band triangle folds over
        spec = DomainSpec(shape="perturbed-disk", radius=1.0,
                          perturbation=((8, 0.4),), target_edge_length=h)
        with pytest.raises(MeshInvariantError, match="signed area -"):
            generate(spec)

    def test_fold_refused_at_refine(self):
        # clean at h = 0.5; projecting the new boundary midpoints folds two
        spec = DomainSpec(shape="perturbed-disk", radius=1.0,
                          perturbation=((9, 0.2),), target_edge_length=0.5)
        m = generate(spec)
        assert m.signed_areas().min() > 0
        with pytest.raises(MeshInvariantError, match="signed area -"):
            refine(m)

    def test_smaller_amplitude_does_not_fold(self):
        spec = DomainSpec(shape="perturbed-disk", radius=1.0,
                          perturbation=((8, 0.2),), target_edge_length=0.1)
        assert refine(generate(spec)).signed_areas().min() > 0


class TestPolygon:
    def test_unit_square_exact_area(self):
        m = generate(
            DomainSpec(
                shape="polygon",
                vertices=((0, 0), (1, 0), (1, 1), (0, 1)),
                target_edge_length=0.1,
            )
        )
        validate(m)
        assert abs(mesh_area(m) - 1.0) < 1e-12
        assert m.edge_lengths().max() <= 1.9 * 0.1

    def test_nonconvex(self):
        verts = ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        m = generate(DomainSpec(shape="polygon", vertices=verts, target_edge_length=0.2))
        assert abs(mesh_area(m) - 3.0) < 1e-12

    def test_final_mesh_validated_once(self, monkeypatch):
        # every refine validates the mesh it makes, so only a polygon that
        # needs no split is validated after the loop
        calls = []
        spy = lambda m: calls.append(len(m.triangles)) or validate(m)
        monkeypatch.setattr(msh, "validate", spy)
        square = ((0, 0), (1, 0), (1, 1), (0, 1))
        generate(DomainSpec(shape="polygon", vertices=square, target_edge_length=0.1))
        assert calls == [8, 32, 128]  # three splits of the two ears
        calls.clear()
        generate(DomainSpec(shape="polygon", vertices=square, target_edge_length=1.0))
        assert calls == [2]

    def test_clockwise_input_reoriented(self):
        # the outline is reversed before ear clipping; no triangle is flipped
        cw = ((0, 0), (0, 1), (1, 1), (1, 0))
        m = generate(DomainSpec(shape="polygon", vertices=cw, target_edge_length=0.3))
        assert np.all(m.signed_areas() > 0)
        assert abs(mesh_area(m) - 1.0) < 1e-12

    def test_self_intersection_rejected(self):
        with pytest.raises(ValueError, match="self-intersecting"):
            generate(
                DomainSpec(
                    shape="polygon",
                    vertices=((0, 0), (1, 1), (1, 0), (0, 1)),
                    target_edge_length=0.5,
                )
            )

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            generate(
                DomainSpec(
                    shape="polygon",
                    vertices=((0, 0), (1, 0), (1, 0), (0, 1)),
                    target_edge_length=0.5,
                )
            )

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            DomainSpec(shape="polygon", vertices=((0, 0), (1, 0)))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1.0, max_value=1.0),
                st.floats(min_value=-1.0, max_value=1.0),
            ),
            min_size=4,
            max_size=9,
        )
    )
    def test_random_star_polygons(self, pts):
        # order points by angle about the centroid: star-shaped, hence simple
        arr = np.asarray(pts, dtype=float)
        arr = arr - arr.mean(axis=0)
        order = np.argsort(np.arctan2(arr[:, 1], arr[:, 0]))
        arr = arr[order]
        angles = np.arctan2(arr[:, 1], arr[:, 0])
        if len(np.unique(np.round(angles, 9))) != len(arr):
            return  # angular ties break star-shapedness
        if np.min(np.abs(np.diff(arr, axis=0, append=arr[:1]))) < 1e-3:
            return
        shoelace = 0.5 * np.sum(
            arr[:, 0] * np.roll(arr[:, 1], -1) - np.roll(arr[:, 0], -1) * arr[:, 1]
        )
        if abs(shoelace) < 1e-2:
            return
        try:
            spec = DomainSpec(shape="polygon", vertices=tuple(map(tuple, arr)),
                              target_edge_length=0.5)
        except ValueError:
            return
        m = generate(spec)
        validate(m)
        assert abs(mesh_area(m) - abs(shoelace)) < 1e-10


class TestRefine:
    def test_counts_and_conformity(self):
        m = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.2))
        E = len(msh._edges(m.triangles)[0])
        r = refine(m)
        assert len(r.nodes) == len(m.nodes) + E
        assert len(r.triangles) == 4 * len(m.triangles)
        validate(r)

    def test_projection_for_analytic_boundary(self):
        m = refine(generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.2)))
        r = np.hypot(*m.nodes[m.boundary_nodes].T)
        assert np.abs(r - 1.0).max() < 1e-14

    def test_annulus_projection_picks_nearer_circle(self):
        m = refine(
            generate(
                DomainSpec(
                    shape="annulus",
                    inner_radius=0.5,
                    outer_radius=1.5,
                    target_edge_length=0.2,
                )
            )
        )
        r = np.hypot(*m.nodes[m.boundary_nodes].T)
        assert np.all(np.isclose(r, 0.5, atol=1e-12) | np.isclose(r, 1.5, atol=1e-12))

    def test_polygon_not_projected(self):
        m = generate(
            DomainSpec(
                shape="polygon",
                vertices=((0, 0), (1, 0), (1, 1), (0, 1)),
                target_edge_length=0.4,
            )
        )
        r = refine(m)
        pts = r.nodes[r.boundary_nodes]
        on_outline = (
            np.isclose(pts[:, 0], 0) | np.isclose(pts[:, 0], 1)
            | np.isclose(pts[:, 1], 0) | np.isclose(pts[:, 1], 1)
        )
        assert np.all(on_outline)


REFINE_SPECS = [
    DomainSpec(shape="disk", radius=1.0, target_edge_length=0.2),
    DomainSpec(shape="translated-disk", radius=0.8, center=(0.3, 0.1), target_edge_length=0.2),
    DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.2),
    DomainSpec(shape="annulus", inner_radius=0.4, outer_radius=1.2, target_edge_length=0.2),
    DomainSpec(
        shape="polygon",
        vertices=((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)),
        target_edge_length=0.3,
    ),
    DomainSpec(shape="perturbed-disk", radius=1.0, perturbation=((3, 0.1),),
               target_edge_length=0.2),
]


class TestRefineAgainstReference:
    """``refine`` reproduces the dict-based reference bit for bit, and
    records the P1 prolongation from the mesh it split."""

    @staticmethod
    def assert_levels_match(m, project):
        assert m.prolongation is None
        for _ in range(3):
            nodes, tris, boundary = refine_by_dict(
                m.nodes, m.triangles, m.boundary_nodes, project
            )
            P = prolongation_by_dict(len(m.nodes), m.triangles)
            m = refine(m)
            assert np.array_equal(m.nodes, nodes)
            assert np.array_equal(m.triangles, tris)
            assert np.array_equal(m.boundary_nodes, boundary)
            assert (m.prolongation != P).nnz == 0

    @pytest.mark.parametrize("spec", REFINE_SPECS, ids=lambda s: s.shape)
    def test_generated_meshes(self, spec):
        project = (
            None if spec.shape == "polygon"
            else lambda pts: msh._project_to_boundary(spec, pts)
        )
        self.assert_levels_match(generate(spec), project)

    def test_loaded_mesh(self, tmp_path):
        p = tmp_path / "m.wslmesh"
        save(generate(REFINE_SPECS[2]), p)
        m = load(p)
        assert m.spec is None
        self.assert_levels_match(m, None)


TABLE_SPECS = {
    "disk": DomainSpec(shape="disk", radius=1.0, target_edge_length=0.25),
    "ellipse": DomainSpec(shape="ellipse", aspect=1.4, target_edge_length=0.25),
    "annulus": DomainSpec(shape="annulus", inner_radius=0.4, outer_radius=1.2,
                          target_edge_length=0.25),
    "unit-square": DomainSpec(shape="polygon", vertices=((0, 0), (1, 0), (1, 1), (0, 1)),
                              target_edge_length=0.25),
    "L-shape": DomainSpec(shape="polygon",
                          vertices=((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)),
                          target_edge_length=0.4),
    "perturbed-disk": DomainSpec(shape="perturbed-disk", radius=1.0, perturbation=((3, 0.1),),
                                 target_edge_length=0.25),
    "translated-disk": DomainSpec(shape="translated-disk", radius=0.8, center=(0.3, 0.1),
                                  target_edge_length=0.25),
    "poincare-ellipse": DomainSpec(shape="ellipse", semi_axis_x=0.5, semi_axis_y=0.35,
                                   target_edge_length=0.1),
}


def assert_tables_equal(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestEdgeTable:
    """A root mesh sorts its edge table once; ``refine`` derives each
    child's from its parent's, equal entry for entry to a fresh sort."""

    @staticmethod
    def assert_derived_tables_sort_alike(m):
        assert_tables_equal(m.edge_table, msh._edges(m.triangles))
        for _ in range(3):
            m = refine(m)
            assert_tables_equal(m.edge_table, msh._edges(m.triangles))

    @pytest.mark.parametrize("name", TABLE_SPECS)
    def test_generated_meshes(self, name):
        self.assert_derived_tables_sort_alike(generate(TABLE_SPECS[name]))

    def test_loaded_mesh_file(self, tmp_path):
        p = tmp_path / "m.wslmesh"
        save(generate(TABLE_SPECS["ellipse"]), p)
        self.assert_derived_tables_sort_alike(load(p))

    def test_mesh_without_table_refines(self):
        m = generate(TABLE_SPECS["disk"])
        bare = Mesh(nodes=m.nodes, triangles=m.triangles,
                    boundary_nodes=m.boundary_nodes, domain_tag=m.domain_tag, spec=m.spec)
        assert bare.edge_table is None
        r = refine(bare)
        assert np.array_equal(r.triangles, refine(m).triangles)
        assert_tables_equal(r.edge_table, msh._edges(r.triangles))

    @staticmethod
    def refined():
        return refine(generate(TABLE_SPECS["annulus"]))

    def test_side_pointing_at_the_wrong_edge_refused(self):
        m = self.refined()
        edges, counts, side = m.edge_table
        side = side.copy()
        side[7, 1] = side[7, 0]
        m.edge_table = (edges, counts, side)
        with pytest.raises(MeshInvariantError, match="edge table"):
            validate(m)

    @pytest.mark.parametrize("step", [1, -1])
    def test_count_off_by_one_refused(self, step):
        m = self.refined()
        edges, counts, side = m.edge_table
        counts = counts.copy()
        counts[side[7, 1]] += step
        m.edge_table = (edges, counts, side)
        with pytest.raises(MeshInvariantError, match="edge table"):
            validate(m)


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.15))
        p = tmp_path / "disk.wslmesh"
        save(m, p)
        back = load(p)
        assert np.array_equal(m.nodes, back.nodes)
        assert np.array_equal(m.triangles, back.triangles)
        assert np.array_equal(np.sort(m.boundary_nodes), back.boundary_nodes)
        assert back.domain_tag == "external"
        assert back.spec is None
        # a second save of the loaded mesh reproduces the file byte for byte
        p2 = tmp_path / "disk2.wslmesh"
        save(back, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_loaded_mesh_refines_without_projection(self, tmp_path):
        m = generate(DomainSpec(shape="disk", radius=1.0, target_edge_length=0.2))
        p = tmp_path / "m.wslmesh"
        save(m, p)
        r = refine(load(p))
        radii = np.hypot(*r.nodes[r.boundary_nodes].T)
        assert radii.min() < 1.0 - 1e-6  # chord midpoints stay put

    def test_header_rejected(self, tmp_path):
        p = tmp_path / "bad.wslmesh"
        p.write_text("WSLMESH 9\n0 0 0\n")
        with pytest.raises(MeshFormatError, match="header"):
            load(p)

    def test_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.wslmesh"
        p.write_text("WSLMESH 1\n3 1 3\n0.0 0.0\n1.0 0.0\n")
        with pytest.raises(MeshFormatError):
            load(p)

    def test_malformed_float(self, tmp_path):
        p = tmp_path / "bad.wslmesh"
        p.write_text(
            "WSLMESH 1\n3 1 3\n0.0 zero\n1.0 0.0\n0.0 1.0\n0 1 2\n0\n1\n2\n"
        )
        with pytest.raises(MeshFormatError, match="malformed"):
            load(p)


class TestValidate:
    def unit_triangle(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        return Mesh(nodes=nodes, triangles=tris,
                    boundary_nodes=np.array([0, 1, 2]), domain_tag="t")

    def test_accepts_single_triangle(self):
        validate(self.unit_triangle())

    def test_rejects_clockwise(self):
        m = self.unit_triangle()
        m.triangles = m.triangles[:, [0, 2, 1]]
        with pytest.raises(MeshInvariantError, match="area"):
            validate(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_node(self, bad):
        m = self.unit_triangle()
        m.nodes[2, 0] = bad
        with pytest.raises(MeshInvariantError, match="non-finite coordinate"):
            validate(m)

    def test_rejects_wrong_boundary_list(self):
        m = self.unit_triangle()
        m.boundary_nodes = np.array([0, 1])
        with pytest.raises(MeshInvariantError, match="boundary"):
            validate(m)

    def test_rejects_overshared_edge(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.4, 0.4], [1.0, 1.0]])
        tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        m = Mesh(nodes=nodes, triangles=tris,
                 boundary_nodes=np.arange(5), domain_tag="t")
        with pytest.raises(MeshInvariantError, match="more than two"):
            validate(m)

    def test_rejects_out_of_range_index(self):
        m = self.unit_triangle()
        m.triangles = np.array([[0, 1, 7]])
        with pytest.raises(MeshInvariantError, match="out of node range"):
            validate(m)

    def test_rejects_unexpected_topology(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                          [3.0, 0.0], [4.0, 0.0], [3.0, 1.0]])
        m = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2], [3, 4, 5]]),
                 boundary_nodes=np.arange(6), domain_tag="t")
        with pytest.raises(MeshInvariantError, match="Euler characteristic 2"):
            validate(m)
