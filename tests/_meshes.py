"""Synthetic meshes shared by the test modules."""

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

from msseg.mesh import TriMesh

RIGHT_TRIANGLE_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"

# unit square split along the axis-aligned edge (0,0)-(1,1)? no: along the
# diagonal; see square_axis_pair() for a unit-length interior edge.
SQUARE_DIAGONAL_OFF = (
    "OFF\n4 2 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n"
)

TETRA_OFF = """OFF
4 4 0
1 1 1
1 -1 -1
-1 1 -1
-1 -1 1
3 0 1 2
3 0 3 1
3 0 2 3
3 1 3 2
"""


def square_axis_pair():
    """Two right triangles sharing the unit-length edge (0,0)-(0,1)."""
    verts = [(0, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 0, 0)]
    faces = [(0, 1, 2), (0, 3, 1)]
    return TriMesh(verts, faces)


def unit_area_pair():
    """Two triangles of area 1 sharing a unit-length edge."""
    verts = [(0, 0, 0), (0, 1, 0), (2, 0.5, 0), (-2, 0.5, 0)]
    faces = [(0, 1, 3), (0, 2, 1)]
    return TriMesh(verts, faces)


def fan5():
    """Five-face triangle fan around a central vertex."""
    angles = np.linspace(0.0, np.pi, 6)
    verts = [(0.0, 0.0, 0.0)]
    verts += [(np.cos(a), np.sin(a), 0.1 * i) for i, a in enumerate(angles)]
    faces = [(0, i + 1, i + 2) for i in range(5)]
    return TriMesh(verts, faces)


def strip10():
    """Flat 5x1 grid of squares split into 10 triangles."""
    verts = [(x, y, 0.0) for y in (0, 1) for x in range(6)]
    faces = []
    for i in range(5):
        a, b, c, d = i, i + 1, i + 7, i + 6
        faces.append((a, b, c))
        faces.append((a, c, d))
    return TriMesh(verts, faces)


def diagonal_pair():
    """Unit square split by its diagonal (interior edge of length sqrt 2)."""
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    faces = [(0, 1, 2), (0, 2, 3)]
    return TriMesh(verts, faces)


def equilateral():
    """Single equilateral triangle with unit edges."""
    verts = [(0, 0, 0), (1, 0, 0), (0.5, np.sqrt(3) / 2, 0)]
    return TriMesh(verts, [(0, 1, 2)])


def folded_pair():
    """Two equal-area triangles meeting at 90 degrees along a shared edge."""
    verts = [(0, 0, 0), (1, 0, 0), (0.5, 1, 0), (0.5, 0, 1)]
    faces = [(0, 1, 2), (1, 0, 3)]
    return TriMesh(verts, faces)


def path_strip():
    """Three coplanar triangles in a row; shared edges have length 1.

    The face adjacency graph is a 3-node path, and the flat-mesh weight
    convention makes both Laplacian couplings exactly 1.
    """
    s = np.sqrt(3) / 2
    verts = [(0, 0, 0), (1, 0, 0), (0.5, s, 0), (1.5, s, 0), (2, 0, 0)]
    faces = [(0, 1, 2), (1, 3, 2), (1, 4, 3)]
    return TriMesh(verts, faces)


def triangle_strip(n_faces):
    """``n_faces`` equilateral triangles in a row with unit edges.

    Generalizes :func:`path_strip`: the face adjacency graph is a path
    with unit Laplacian couplings, whose eigenvalues are
    ``2 - 2 cos(pi j / n_faces)``, all simple.
    """
    s = np.sqrt(3) / 2
    verts = [(i / 2, s * (i % 2), 0.0) for i in range(n_faces + 2)]
    faces = [(j, j + 2, j + 1) if j % 2 == 0 else (j, j + 1, j + 2)
             for j in range(n_faces)]
    return TriMesh(verts, faces)


def two_components():
    """Two separated two-face patches (disconnected face graph)."""
    verts = [(0, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 0, 0)]
    verts += [(10 + x, y, z) for x, y, z in verts]
    faces = [(0, 1, 2), (0, 3, 1), (4, 5, 6), (4, 7, 5)]
    return TriMesh(verts, faces)


def disjoint_triangles():
    """Two separated triangles: every edge is a boundary edge."""
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 0, 0), (6, 0, 0), (5, 1, 0)]
    return TriMesh(verts, [(0, 1, 2), (3, 4, 5)])


def flat_patch(n=4):
    """Regular triangulated flat grid patch in the z=0 plane."""
    xs, ys = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    verts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros((n + 1) ** 2)])
    faces = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = a + 1
            c = a + n + 1
            d = c + 1
            faces.append((a, b, d))
            faces.append((a, d, c))
    return TriMesh(verts, np.array(faces))


def mobius_strip(n=12, width=0.3):
    """Vertices and faces of a Moebius strip of ``2 n`` faces: a band of
    ``n`` quads around the unit circle whose last quad joins the first
    with a half twist.  Arrays, not a mesh: it has no orientation."""
    angles = 2 * np.pi * np.arange(n) / n
    radial = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)])
    across = np.cos(angles / 2)[:, None] * radial
    across[:, 2] = np.sin(angles / 2)
    verts = np.vstack([radial + width * across, radial - width * across])
    # vertex i on the top rail, n + i below it; the half twist makes the
    # last quad close on the first pair of rails swapped
    top = list(range(n)) + [n]
    bottom = list(range(n, 2 * n)) + [0]
    faces = []
    for i in range(n):
        faces.append((top[i], bottom[i], top[i + 1]))
        faces.append((bottom[i], bottom[i + 1], top[i + 1]))
    return verts, np.array(faces)


def random_closed(n_points, seed):
    """Closed convex triangulated surface with outward-consistent winding."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 1.0 + 0.05 * rng.random(n_points)[:, None]
    hull = ConvexHull(pts)
    faces = hull.simplices.copy()
    centroid = pts[np.unique(faces)].mean(axis=0)
    for f in faces:
        p0, p1, p2 = pts[f]
        if np.dot(np.cross(p1 - p0, p2 - p0), p0 - centroid) < 0:
            f[1], f[2] = f[2], f[1]
    return TriMesh(pts, faces)


def random_patch(n_points, seed):
    """Open triangulated height-field patch (has boundary edges)."""
    rng = np.random.default_rng(seed)
    xy = rng.random((n_points, 2))
    tri = Delaunay(xy)
    z = 0.2 * np.sin(3 * xy[:, 0]) * np.cos(2 * xy[:, 1])
    verts = np.column_stack([xy, z])
    faces = tri.simplices.copy()
    # force counterclockwise parametric orientation
    for f in faces:
        a, b, c = xy[f]
        ab, ac = b - a, c - a
        if ab[0] * ac[1] - ab[1] * ac[0] < 0:
            f[1], f[2] = f[2], f[1]
    return TriMesh(verts, faces)


def random_meshes(count, seed, max_faces=2000):
    """Mixed bag of closed and open meshes with 4..max_faces faces."""
    rng = np.random.default_rng(seed)
    meshes = []
    while len(meshes) < count:
        s = int(rng.integers(0, 2**31))
        if rng.random() < 0.5:
            n = int(rng.integers(4, max(5, max_faces // 2)))
            meshes.append(random_closed(max(n, 4), s))
        else:
            n = int(rng.integers(4, max(5, max_faces // 2)))
            meshes.append(random_patch(max(n, 4), s))
    return meshes


def scattered_components(pieces, seed):
    """Vertices and faces of the meshes ``pieces`` side by side, each
    shifted clear of the last, with the faces of all of them shuffled
    together and about 30 % of them wound the wrong way.  Arrays, not a
    mesh: building one reverses the flipped faces with a warning."""
    rng = np.random.default_rng(seed)
    verts, faces, base = [], [], 0
    for i, piece in enumerate(pieces):
        verts.append(piece.vertices + (10.0 * i, 0.0, 0.0))
        faces.append(piece.faces + base)
        base += piece.n_vertices
    faces = np.vstack(faces)[rng.permutation(sum(p.n_faces for p in pieces))]
    flip = rng.random(len(faces)) < 0.3
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return np.vstack(verts), faces


def with_loose_triangles(mesh, n):
    """``mesh`` followed by ``n`` separate unit right triangles: a mesh of
    ``n + 1`` or more components, most of them a single face."""
    tri = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    offsets = np.column_stack([10.0 + 2.0 * np.arange(n), np.zeros((n, 2))])
    verts = np.vstack([mesh.vertices, (offsets[:, None] + tri).reshape(-1, 3)])
    loose = mesh.n_vertices + np.arange(3 * n).reshape(n, 3)
    return TriMesh(verts, np.vstack([mesh.faces, loose]))


def revolve_rings(ring_z, ring_r, n_around, z_lo, z_hi):
    """Closed surface of revolution from explicit ring positions and radii,
    capped by pole vertices at ``z_lo`` and ``z_hi``."""
    angles = np.linspace(0, 2 * np.pi, n_around, endpoint=False)
    verts = [(0.0, 0.0, z_lo)]
    rings = []
    for z, r in zip(ring_z, ring_r):
        base = len(verts)
        rings.append(base)
        for a in angles:
            verts.append((r * np.cos(a), r * np.sin(a), z))
    south = len(verts)
    verts.append((0.0, 0.0, z_hi))

    faces = []
    first = rings[0]
    for j in range(n_around):
        faces.append((0, first + (j + 1) % n_around, first + j))
    for r0, r1 in zip(rings[:-1], rings[1:]):
        for j in range(n_around):
            j1 = (j + 1) % n_around
            faces.append((r0 + j, r0 + j1, r1 + j1))
            faces.append((r0 + j, r1 + j1, r1 + j))
    last = rings[-1]
    for j in range(n_around):
        faces.append((south, last + j, last + (j + 1) % n_around))
    return TriMesh(np.array(verts, dtype=float), np.array(faces))


def surface_of_revolution(radius_fn, z_lo, z_hi, n_axial, n_around):
    """Closed surface of revolution around the z axis with pole caps.

    ``radius_fn`` must be positive strictly inside [z_lo, z_hi].
    """
    zs = np.linspace(z_lo, z_hi, n_axial + 1)[1:-1]
    rs = [radius_fn(z) for z in zs]
    return revolve_rings(zs, rs, n_around, z_lo, z_hi)


_DUMBBELL_C = 1.12
DUMBBELL_CENTERS = np.array([[0.0, 0.0, -_DUMBBELL_C], [0.0, 0.0, _DUMBBELL_C]])
_NECK_RADIUS = 0.13


def dumbbell(n_sphere=40, n_around=20):
    """Two unit spheres joined by a single thin waist band at z = 0.

    Rings follow uniform polar angle on each sphere down to the waist
    radius; the two junction rings are bridged directly, so the narrow
    waist is exactly one band of faces straddling the midplane.
    """
    c = _DUMBBELL_C
    u_junction = np.pi - np.arcsin(_NECK_RADIUS)
    u = np.linspace(np.pi / n_sphere, u_junction, n_sphere)
    z_lower = -c - np.cos(u)
    r_lower = np.sin(u)
    ring_z = np.concatenate([z_lower, -z_lower[::-1]])
    ring_r = np.concatenate([r_lower, r_lower[::-1]])
    return revolve_rings(ring_z, ring_r, n_around, -c - 1.0, c + 1.0)


def dumbbell_ground_truth(mesh):
    """Face labels by nearest sphere center."""
    centroids = mesh.vertices[mesh.faces].mean(axis=1)
    d = np.linalg.norm(
        centroids[:, None, :] - DUMBBELL_CENTERS[None], axis=2
    )
    return np.argmin(d, axis=1)


def bumpy_revolution(n_axial=150, n_around=40):
    """Wavy closed revolution surface (~12k faces) with several bulges."""
    def radius(z):
        return 0.6 + 0.3 * np.sin(2.0 * np.pi * z) * np.exp(-0.1 * z * z)

    return surface_of_revolution(radius, -3.0, 3.0, n_axial, n_around)


def write_off(mesh, path):
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} 0"]
    for v in mesh.vertices:
        lines.append(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for f in mesh.faces:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    text = "\n".join(lines) + "\n"
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text)
    return text
