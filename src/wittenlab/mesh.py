"""Planar triangle meshes: structured generators, uniform refinement, text I/O,
and the six-point rule behind the assembly and the trial-centre field.

Centred round shapes are meshed with concentric rings whose point counts are
multiples of eight; the band triangulation between consecutive rings merges
the two angle sequences with exact integer comparisons, so the connectivity
repeats verbatim in each of the eight sectors.  That rotational symmetry is
what lets the eigensolver reproduce the double multiplicities of round
domains to tight tolerance.  Polygons go through ear clipping followed by
uniform splitting.  Every generator makes counter-clockwise triangles and
nothing re-orients them: a ring mesh of a steep polar graph, whose band
triangles fold over, fails :func:`validate` instead of being solved on a
mesh that overlaps itself.  Hyperbolic runs reuse these meshes verbatim:
domains are specified in Poincare disk coordinates and only the assembly
stage sees the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


class MeshInvariantError(RuntimeError):
    """A mesh violated conformity, orientation, or boundary bookkeeping."""


class MeshFormatError(RuntimeError):
    """A mesh file failed structural parsing."""


MIN_TRIANGLE_AREA = 1e-14
FORMAT_HEADER = "WSLMESH 1"

# the fields each meshed shape takes; every other field keeps its default
SHAPE_FIELDS = {
    "disk": ("radius",),
    "translated-disk": ("radius", "center"),
    "ellipse": ("aspect", "semi_axis_x", "semi_axis_y", "center"),
    "perturbed-disk": ("radius", "perturbation", "center"),
    "annulus": ("inner_radius", "outer_radius"),
    "polygon": ("vertices",),
}
SUPPORTED_SHAPES = tuple(SHAPE_FIELDS)
# shapes bounded by a polar graph rho(theta) about ``center``
_POLAR_SHAPES = tuple(s for s in SHAPE_FIELDS if s not in ("annulus", "polygon"))


@dataclass(frozen=True)
class DomainSpec:
    """Declarative description of a bounded planar domain.

    ``target_edge_length`` is the nominal mesh pitch ``h``.  A shape takes
    the fields :data:`SHAPE_FIELDS` lists for it; any other field set away
    from its default is refused, so a centred shape never drops a
    ``center`` silently.  For hyperbolic runs the coordinates are Poincare
    disk coordinates and the closure must stay strictly inside the unit
    disk; the generator itself is metric-agnostic.
    """

    shape: str
    target_edge_length: float = 0.1
    radius: float | None = None
    center: tuple[float, float] = (0.0, 0.0)
    semi_axis_x: float | None = None
    semi_axis_y: float | None = None
    aspect: float | None = None
    inner_radius: float | None = None
    outer_radius: float | None = None
    vertices: tuple[tuple[float, float], ...] | None = None
    perturbation: tuple[tuple[int, float], ...] | None = None

    def __post_init__(self):
        if self.shape not in SUPPORTED_SHAPES:
            raise ValueError(
                f"unknown shape {self.shape!r}; expected one of {SUPPORTED_SHAPES}"
            )
        if not (0 < self.target_edge_length < math.inf):
            raise ValueError("target_edge_length must be positive and finite")
        for f in fields(self)[2:]:  # every field after shape and pitch
            if f.name not in SHAPE_FIELDS[self.shape] and not np.array_equal(
                getattr(self, f.name), f.default
            ):
                moved_disk = (self.shape, f.name) == ("disk", "center")
                hint = "; use translated-disk" if moved_disk else ""
                raise ValueError(f"{self.shape} takes no {f.name}{hint}")
        if "radius" in SHAPE_FIELDS[self.shape]:
            if self.radius is None or self.radius <= 0:
                raise ValueError(f"{self.shape} requires a positive radius")
        if self.shape == "ellipse":
            if self.aspect is not None:
                if self.aspect <= 0:
                    raise ValueError("ellipse aspect must be positive")
                if self.semi_axis_x is not None or self.semi_axis_y is not None:
                    raise ValueError("give either aspect or explicit semi-axes")
            elif self.semi_axis_x is None or self.semi_axis_y is None:
                raise ValueError("ellipse requires aspect or both semi-axes")
            elif self.semi_axis_x <= 0 or self.semi_axis_y <= 0:
                raise ValueError("ellipse semi-axes must be positive")
        if self.shape == "annulus":
            if (
                self.inner_radius is None
                or self.outer_radius is None
                or not (0 < self.inner_radius < self.outer_radius)
            ):
                raise ValueError("annulus requires 0 < inner_radius < outer_radius")
        if self.shape == "polygon" and (self.vertices is None or len(self.vertices) < 3):
            raise ValueError("polygon requires at least three vertices")
        if self.shape == "perturbed-disk":
            if not self.perturbation:
                raise ValueError("perturbed-disk requires perturbation [(mode, amp), ...]")
            for mode, _amp in self.perturbation:
                if int(mode) != mode or mode < 1:
                    raise ValueError("perturbation modes must be integers >= 1")
            theta = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
            if np.min(self.boundary_radius(theta)) < 0.05 * self.radius:
                raise ValueError(
                    "perturbation nearly pinches the boundary; the polar-graph "
                    "class supported here needs rho >= 0.05 * radius"
                )

    def semi_axes(self) -> tuple[float, float]:
        if self.aspect is not None:
            return float(self.aspect), 1.0 / float(self.aspect)
        return float(self.semi_axis_x), float(self.semi_axis_y)

    def boundary_radius(self, theta):
        """Polar boundary graph rho(theta) about ``center`` for round shapes."""
        theta = np.asarray(theta, dtype=float)
        if self.shape in ("disk", "translated-disk"):
            return np.full_like(theta, float(self.radius))
        if self.shape == "ellipse":
            a, b = self.semi_axes()
            return a * b / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)
        if self.shape == "perturbed-disk":
            waves = (amp * np.cos(mode * theta) for mode, amp in self.perturbation)
            return float(self.radius) * sum(waves, np.ones_like(theta))
        raise ValueError(f"{self.shape} has no polar boundary graph")

    def describe(self) -> str:
        """Record tag; names ``center`` wherever the shape takes one and it
        is off the origin (always for ``translated-disk``)."""
        if self.shape == "disk":
            return f"disk(radius={self.radius:g})"
        if self.shape == "annulus":
            return f"annulus({self.inner_radius:g}, {self.outer_radius:g})"
        if self.shape == "polygon":
            return f"polygon({len(self.vertices)} vertices)"
        if self.shape == "translated-disk":
            body = f"radius={self.radius:g}"
        elif self.shape == "ellipse":
            body = "semi_axes=({:g}, {:g})".format(*self.semi_axes())
        else:
            pert = ", ".join(f"({m}, {a:g})" for m, a in self.perturbation)
            body = f"radius={self.radius:g}, modes=[{pert}]"
        if self.shape == "translated-disk" or tuple(self.center) != (0.0, 0.0):
            body += f", center=({self.center[0]:g}, {self.center[1]:g})"
        return f"{self.shape}({body})"


# Six-point rule, exact through polynomial degree four, weights sum to one.
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
QUAD_BARY = np.array(
    [
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [1.0 - 2.0 * _A2, _A2, _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [_A2, _A2, 1.0 - 2.0 * _A2],
    ]
)
QUAD_WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])


@dataclass
class Mesh:
    """Conforming triangulation with positively oriented triangles.

    A mesh stores its ``nodes``, ``triangles`` and generating ``spec``
    (``None`` when loaded or built by hand); the rest is derived.
    ``edge_table`` is the ``(edges, counts, side)`` of :func:`_edges` for
    ``triangles``, int32 ``edges`` and ``side`` and int8 ``counts``, sorted
    out of the triangles on construction unless given: :func:`refine` gives
    each child the one it derives from its parent's with no sort.  A mesh
    made by :func:`refine` also keeps the P1 prolongation from the mesh it
    split as ``prolongation``; generated and loaded meshes have none.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    spec: DomainSpec | None = field(default=None, repr=False)
    prolongation: sparse.csr_matrix | None = field(default=None, repr=False, compare=False)
    edge_table: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.edge_table is None:
            self.edge_table = _edges(self.triangles)

    @property
    def boundary_nodes(self) -> np.ndarray:
        """Sorted nodes of the edges that only one triangle has."""
        edges, counts, _ = self.edge_table
        return np.unique(edges[counts == 1])

    @property
    def domain_tag(self) -> str:
        """Record tag: the spec's :meth:`DomainSpec.describe`, or ``"external"``."""
        return self.spec.describe() if self.spec is not None else "external"

    def signed_areas(self) -> np.ndarray:
        """Signed areas, counter-clockwise positive, from ``(3, M)`` corner coordinates."""
        x, y = np.ascontiguousarray(self.nodes.T)[:, self.triangles.T]
        return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))

    def edge_lengths(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        e = np.concatenate(
            [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=0
        )
        return np.hypot(e[:, 0], e[:, 1])


def _edges(triangles: np.ndarray):
    """Unique edges of a triangulation, numbered in first-appearance order.

    Returns ``(edges, counts, side)``: the ``(E, 2)`` sorted node pairs in the
    order a walk over the sides ``ab, bc, ca`` of each triangle first meets
    them, the number of triangles sharing each edge, and ``side[t, k]``, the
    edge number of side ``k`` of triangle ``t``; the dtypes of
    ``Mesh.edge_table``.
    """
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys = pairs[:, 0] * (int(triangles.max()) + 1) + pairs[:, 1]
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return (
        pairs[first[order]].astype(np.int32),
        counts[order].astype(np.int8),
        rank[inverse].reshape(-1, 3).astype(np.int32),
    )


def _split_table(triangles: np.ndarray, table, n: int):
    """The edge table of the triangles :func:`refine` splits ``triangles``
    into, ``n`` nodes and ``table`` their own, in O(M) and with no sort;
    equal entry for entry to a fresh :func:`_edges` of the children.

    Side ``k`` of corner child ``c`` of triangle ``t`` is slot ``3 c + k``
    of the nine of ``t``; the middle child's sides repeat slots 1, 4 and 7.
    Each parent edge gives two half-edges, which inherit its count, and each
    triangle three interior edges of count 2, the middle sides of its corner
    children.  A half-edge first appears in the children of the triangle
    where its parent edge first appears, so a cumulative count over the slots
    that meet an edge first numbers the child edges in first-appearance order.
    """
    _, counts, side = table
    m = len(side)
    flat = side.ravel()
    # under first-appearance numbering a side meets its edge first exactly
    # when its number exceeds every number before it
    first = np.empty(len(flat), dtype=bool)
    first[0] = True
    np.greater(flat[1:], np.maximum.accumulate(flat)[:-1], out=first[1:])
    first = first.reshape(m, 3)
    rot = [2, 0, 1]  # slots 2, 5, 8 hold the halves at the second nodes of sides ca, ab, bc
    new = np.empty((m, 9), dtype=bool)
    new[:, 0::3], new[:, 1::3], new[:, 2::3] = first, True, first[:, rot]
    at_new = np.flatnonzero(new)
    number = np.empty((m, 9), dtype=np.int32)  # read only where new
    number.ravel()[at_new] = np.arange(len(at_new), dtype=np.int32)

    # half[2 e + i]: the child edge of parent edge e at its end edges[e, i],
    # numbered in the triangle where e first appears
    at_first, interior = number[:, 0::3], number[:, 1::3]
    at_second = number[:, 2::3][:, [1, 2, 0]]
    upper = triangles > triangles[:, [1, 2, 0]]  # a side runs from its edge's upper end
    half = np.column_stack([
        np.where(upper, at_second, at_first)[first], np.where(upper, at_first, at_second)[first]
    ]).ravel()
    at = 2 * side + upper  # the half at each side's first node
    child_side = np.empty((m, 4, 3), dtype=np.int32)
    child_side[:, :3, 0] = half[at]
    child_side[:, :3, 1] = interior
    at ^= 1
    child_side[:, :3, 2] = half[at][:, rot]
    child_side[:, 3] = interior[:, [1, 2, 0]]

    mid = n + side
    pairs = np.empty((m, 9, 2), dtype=np.int32)
    pairs[:, 0::3, 0] = pairs[:, 2::3, 0] = triangles
    pairs[:, 0::3, 1], pairs[:, 2::3, 1] = mid, mid[:, rot]
    np.minimum(mid, mid[:, rot], out=pairs[:, 1::3, 0])
    np.maximum(mid, mid[:, rot], out=pairs[:, 1::3, 1])
    parent_counts = counts[side]
    child_counts = np.empty((m, 9), dtype=np.int8)
    child_counts[:, 0::3], child_counts[:, 1::3] = parent_counts, 2
    child_counts[:, 2::3] = parent_counts[:, rot]
    return (
        pairs.reshape(-1, 2).take(at_new, axis=0),
        child_counts.ravel().take(at_new),
        child_side.reshape(-1, 3),
    )


def validate(mesh: Mesh) -> None:
    """Raise :class:`MeshInvariantError` on any broken structural invariant.

    The edge incidence comes from ``mesh.edge_table``, checked against the
    triangles in O(M) instead of sorted again: each side's edge must hold
    that side's two nodes, and ``counts`` must be the bincount of ``side``.
    :attr:`Mesh.boundary_nodes` is read from the same table, so a valid
    table is a valid boundary.
    """
    if not np.all(np.isfinite(mesh.nodes)):
        # a NaN area would slip past the area check below
        raise MeshInvariantError("node with a non-finite coordinate")
    if mesh.triangles.min() < 0 or mesh.triangles.max() >= len(mesh.nodes):
        raise MeshInvariantError("triangle indices out of node range")
    areas = mesh.signed_areas()
    if np.min(areas) < MIN_TRIANGLE_AREA:
        raise MeshInvariantError(
            f"triangle with signed area {np.min(areas):.3g} below "
            f"{MIN_TRIANGLE_AREA:g}; a folded, clockwise or degenerate triangle"
        )

    edges, counts, side = mesh.edge_table
    tri = mesh.triangles
    nxt = tri[:, [1, 2, 0]]
    if (
        side.shape != tri.shape
        or side.min() < 0
        or side.max() >= len(edges)
        or not np.array_equal(edges[side, 0], np.minimum(tri, nxt))
        or not np.array_equal(edges[side, 1], np.maximum(tri, nxt))
        or not np.array_equal(np.bincount(side.ravel(), minlength=len(edges)), counts)
    ):
        raise MeshInvariantError("edge table disagrees with the triangles")
    if np.max(counts) > 2:
        raise MeshInvariantError("an edge is shared by more than two triangles")

    # disk-like or annulus-like topology only
    V, F = len(mesh.nodes), len(mesh.triangles)
    E = len(edges)
    euler = V - E + F
    if euler not in (0, 1):
        raise MeshInvariantError(f"unexpected Euler characteristic {euler}")


def _band_triangles(inner: np.ndarray, outer: np.ndarray) -> list[tuple[int, int, int]]:
    """Zipper triangulation between two concentric node rings.

    ``inner`` and ``outer`` list node indices in angular order; counts may
    differ.  Advancement decisions compare the fractions j/len(inner) and
    k/len(outer) in integer arithmetic, so the pattern is exactly equivariant
    under any rotation that maps both rings to themselves.
    """
    ni, no = len(inner), len(outer)
    tris: list[tuple[int, int, int]] = []
    j = k = 0
    while j < ni or k < no:
        advance_inner = False
        if j < ni and k < no:
            # next inner angle (j+1)/ni vs next outer angle (k+1)/no
            advance_inner = (j + 1) * no < (k + 1) * ni
        elif j < ni:
            advance_inner = True
        if advance_inner:
            tris.append((inner[j % ni], outer[k % no], inner[(j + 1) % ni]))
            j += 1
        else:
            tris.append((inner[j % ni], outer[k % no], outer[(k + 1) % no]))
            k += 1
    return tris


def _ring_mesh(spec: DomainSpec, rings: list[np.ndarray], center=None) -> Mesh:
    """Mesh between concentric rings of points, innermost ring first.

    Each ring is a ``(count, 2)`` array in counter-clockwise angular order.
    With a ``center`` the innermost ring is fanned to it and only the
    outermost ring is boundary; without one both are.  Nodes are numbered
    centre first, then ring by ring; triangles are the fan, then the bands
    from the inside out.
    """
    head = [] if center is None else [np.asarray([center], dtype=float)]
    nodes = np.concatenate(head + rings)
    ends = np.cumsum([len(head)] + [len(ring) for ring in rings])
    ring_indices = [np.arange(a, b) for a, b in zip(ends[:-1], ends[1:])]

    tris: list[tuple[int, int, int]] = []
    if center is not None:
        first = ring_indices[0]
        tris.extend((0, first[j], first[(j + 1) % len(first)]) for j in range(len(first)))
    for inner, outer in zip(ring_indices[:-1], ring_indices[1:]):
        tris.extend(_band_triangles(inner, outer))

    mesh = Mesh(nodes=nodes, triangles=np.asarray(tris, dtype=int), spec=spec)
    validate(mesh)
    return mesh


def _polar_star_mesh(spec: DomainSpec) -> Mesh:
    """Concentric-ring mesh of a star-shaped polar-graph domain."""
    h = spec.target_edge_length
    theta_probe = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
    rho_max = float(np.max(spec.boundary_radius(theta_probe)))
    rings = max(2, math.ceil(rho_max / h))
    cx, cy = spec.center
    coords = []
    for i in range(1, rings + 1):
        theta = 2.0 * math.pi * np.arange(8 * i) / (8 * i)
        rho = spec.boundary_radius(theta) * (i / rings)
        coords.append(np.column_stack([cx + rho * np.cos(theta), cy + rho * np.sin(theta)]))
    return _ring_mesh(spec, coords, center=(cx, cy))


def _annulus_mesh(spec: DomainSpec) -> Mesh:
    h = spec.target_edge_length
    r_in, r_out = float(spec.inner_radius), float(spec.outer_radius)
    rings = max(1, math.ceil((r_out - r_in) / h))
    count = 8 * max(1, math.ceil(2.0 * math.pi * r_out / (8.0 * h)))
    theta = 2.0 * math.pi * np.arange(count) / count
    coords = []
    for i in range(rings + 1):
        r = r_in + (r_out - r_in) * i / rings
        coords.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    return _ring_mesh(spec, coords)


def _polygon_is_simple(verts: np.ndarray) -> bool:
    n = len(verts)

    def intersects(p, q, r, s):
        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        d1, d2 = orient(p, q, r), orient(p, q, s)
        d3, d4 = orient(r, s, p), orient(r, s, q)
        return (d1 * d2 < 0) and (d3 * d4 < 0)

    for i in range(n):
        for j in range(i + 1, n):
            if abs(i - j) in (0, 1) or (i == 0 and j == n - 1):
                continue
            if intersects(verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n]):
                return False
    return True


def _ear_clip(verts: np.ndarray) -> list[tuple[int, int, int]]:
    n = len(verts)
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def point_in_triangle(p, a, b, c):
        d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
        return d1 >= -1e-14 and d2 >= -1e-14 and d3 >= -1e-14

    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * n * n:
            raise MeshInvariantError("ear clipping failed; polygon may be degenerate")
        m = len(idx)
        clipped = False
        for pos in range(m):
            i0, i1, i2 = idx[pos - 1], idx[pos], idx[(pos + 1) % m]
            a, b, c = verts[i0], verts[i1], verts[i2]
            if cross(a, b, c) <= 1e-14:
                continue  # reflex or flat corner
            if any(
                point_in_triangle(verts[k], a, b, c)
                for k in idx
                if k not in (i0, i1, i2)
            ):
                continue
            tris.append((i0, i1, i2))
            idx.pop(pos)
            clipped = True
            break
        if not clipped:
            raise MeshInvariantError("no ear found; polygon is not simple enough")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def _polygon_mesh(spec: DomainSpec) -> Mesh:
    verts = np.asarray(spec.vertices, dtype=float)
    if len(np.unique(verts, axis=0)) != len(verts):
        raise ValueError("polygon has repeated vertices")
    if not _polygon_is_simple(verts):
        raise ValueError("polygon is self-intersecting")
    # enforce counter-clockwise outline
    nxt = np.roll(verts, -1, axis=0)
    if np.sum((nxt[:, 0] - verts[:, 0]) * (nxt[:, 1] + verts[:, 1])) > 0:
        verts = verts[::-1]

    mesh = Mesh(nodes=verts.copy(), triangles=np.asarray(_ear_clip(verts), dtype=int), spec=spec)
    validate(mesh)
    # split until the coarse ears meet the pitch; boundary stays polygonal,
    # and each refine validates the mesh it makes
    h = spec.target_edge_length
    while np.max(mesh.edge_lengths()) > 1.9 * h:
        mesh = refine(mesh)
    # these splits make the mesh; they are not levels to solve on
    mesh.prolongation = None
    return mesh


def generate(spec: DomainSpec) -> Mesh:
    """Mesh a domain description at its target edge length."""
    if spec.shape in _POLAR_SHAPES:
        return _polar_star_mesh(spec)
    if spec.shape == "annulus":
        return _annulus_mesh(spec)
    return _polygon_mesh(spec)


def _project_to_boundary(spec: DomainSpec, points: np.ndarray) -> np.ndarray:
    """Move edge midpoints onto the analytic boundary of a ring-meshed shape."""
    if spec.shape == "annulus":
        r = np.hypot(points[:, 0], points[:, 1])
        mid = 0.5 * (spec.inner_radius + spec.outer_radius)
        target = np.where(r < mid, spec.inner_radius, spec.outer_radius)
        return points * (target / r)[:, None]
    cx, cy = spec.center
    rel = points - np.array([cx, cy])
    theta = np.arctan2(rel[:, 1], rel[:, 0])
    rho = spec.boundary_radius(theta)
    return np.column_stack([cx + rho * np.cos(theta), cy + rho * np.sin(theta)])


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle into four; project new boundary midpoints.

    Midpoints of boundary edges are moved onto the analytic boundary when the
    mesh still knows its generating shape (polygons and externally loaded
    meshes refine without projection).  Conformity and orientation are
    preserved, except where a projected midpoint folds a triangle over its
    neighbour, which :func:`validate` refuses; node count grows by the edge
    count.

    Node order: the coarse nodes come first, unchanged, followed by one
    midpoint per edge, numbered by the edge's first appearance in a walk
    over the triangles' sides ``ab, bc, ca``.  Triangle ``t`` becomes
    triangles ``4t .. 4t + 3``, the three corner triangles and then the
    middle one.

    The result keeps the P1 prolongation ``[I; half the edge incidence]``
    from ``mesh``, rows in that node order; a projected boundary midpoint
    gets the plain average of its edge's ends, which is all the two-level
    solve needs.  It also carries its edge table, derived from ``mesh``'s
    by :func:`_split_table` without a sort, which :func:`validate` then
    checks against the new triangles; its boundary and tag follow from that
    table and the shared ``spec``.
    """
    from scipy import sparse

    edges, counts, side = mesh.edge_table
    n, m = len(mesh.nodes), len(edges)
    mids = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
    boundary = np.flatnonzero(counts == 1)
    if len(boundary) and mesh.spec is not None and mesh.spec.shape != "polygon":
        mids[boundary] = _project_to_boundary(mesh.spec, mids[boundary])
    nodes = np.concatenate([mesh.nodes, mids])

    a, b, c = mesh.triangles.T
    mab, mbc, mca = (n + side).T
    tris = np.stack(
        [a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1
    ).reshape(-1, 3)

    # in CSR form directly: a coarse node's row holds itself, a midpoint's
    # the two ends of its edge, already in ascending order
    indptr = np.concatenate([np.arange(n, dtype=np.int32), n + 2 * np.arange(m + 1, dtype=np.int32)])
    cols = np.concatenate([np.arange(n, dtype=np.int32), edges.ravel()])
    vals = np.concatenate([np.ones(n), np.full(2 * m, 0.5)])
    out = Mesh(
        nodes=nodes,
        triangles=tris,
        spec=mesh.spec,
        prolongation=sparse.csr_matrix((vals, cols, indptr), shape=(n + m, n)),
        edge_table=_split_table(mesh.triangles, mesh.edge_table, n),
    )
    validate(out)
    return out


def _component_count(nodes: int, edges: np.ndarray) -> int:
    """Connected components of the graph on ``nodes`` nodes with ``edges``.

    Each round hooks the higher of every edge's two roots to the lower,
    then points every node at its root, until no edge joins two roots.
    """
    label = np.arange(nodes)
    while True:
        a, b = label[edges[:, 0]], label[edges[:, 1]]
        if np.array_equal(a, b):
            return int(np.count_nonzero(label == np.arange(nodes)))
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]


def save(mesh: Mesh, path) -> None:
    """Write the exchange format; floats use shortest round-trip decimals."""
    boundary = mesh.boundary_nodes
    lines = [FORMAT_HEADER, f"{len(mesh.nodes)} {len(mesh.triangles)} {len(boundary)}"]
    for x, y in mesh.nodes:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"{int(a)} {int(b)} {int(c)}")
    for b in boundary:
        lines.append(str(int(b)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> Mesh:
    """Read the exchange format and validate the result.

    The file's boundary list comes from outside the program, so it must
    equal the boundary the triangles' edge table gives, which the mesh then
    uses.  It must also be one connected piece, which :func:`validate` does
    not check: generated meshes and their refinements are connected by
    construction.  Loaded meshes carry no generating shape, so their tag is
    ``"external"`` and refinement will not project their boundary midpoints.
    """
    with open(path, "r", encoding="ascii") as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw or raw[0] != FORMAT_HEADER:
        raise MeshFormatError(f"missing '{FORMAT_HEADER}' header")
    try:
        nv, nt, nb = (int(tok) for tok in raw[1].split())
    except (IndexError, ValueError) as exc:
        raise MeshFormatError("malformed count line") from exc
    if len(raw) != 2 + nv + nt + nb:
        raise MeshFormatError(
            f"expected {2 + nv + nt + nb} lines, found {len(raw)}"
        )
    try:
        nodes = np.asarray(
            [[float(tok) for tok in line.split()] for line in raw[2 : 2 + nv]],
            dtype=float,
        )
        tris = np.asarray(
            [[int(tok) for tok in line.split()] for line in raw[2 + nv : 2 + nv + nt]],
            dtype=int,
        )
        boundary = np.asarray([int(line) for line in raw[2 + nv + nt :]], dtype=int)
    except ValueError as exc:
        raise MeshFormatError(f"malformed record: {exc}") from exc
    if nodes.shape != (nv, 2) or tris.shape != (nt, 3):
        raise MeshFormatError("record arity mismatch")
    mesh = Mesh(nodes=nodes, triangles=tris)
    validate(mesh)
    if not np.array_equal(np.sort(boundary), mesh.boundary_nodes):
        raise MeshInvariantError("boundary node list disagrees with edge incidence")
    pieces = _component_count(len(nodes), mesh.edge_table[0])
    if pieces > 1:
        raise MeshInvariantError(f"the triangles form {pieces} disconnected pieces")
    return mesh
