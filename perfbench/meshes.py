"""Synthetic input meshes for the benchmark workloads.

These generators are the benchmark's own copies: a change to the test
fixtures must not be able to change a workload.  They depend on numpy
only, never on msseg, and write plain OFF and .seg text.
"""

import hashlib

import numpy as np

# Vertices move by at most this share of the mean edge length per axis.
# The dumbbell is mirror symmetric, and its scale-100 runs stay on the
# max_outer=100 path only while the symmetry holds to about 1e-9: at a
# share of 1e-6 they stop after 81-100 outer iterations, at 1e-4 after
# 30-67, which would take that path off the measured workload.
JITTER = 1e-9

_DUMBBELL_C = 1.12
_NECK_RADIUS = 0.13
DUMBBELL_CENTERS = np.array([[0.0, 0.0, -_DUMBBELL_C], [0.0, 0.0, _DUMBBELL_C]])


def revolve_rings(ring_z, ring_r, n_around, z_lo, z_hi):
    """Closed surface of revolution through the given rings, capped by
    pole vertices at ``z_lo`` and ``z_hi``.  Returns (vertices, faces)."""
    ring_z = np.asarray(ring_z, dtype=float)
    ring_r = np.asarray(ring_r, dtype=float)
    n_rings = len(ring_z)
    a = np.linspace(0, 2 * np.pi, n_around, endpoint=False)
    ring_verts = np.stack([
        np.outer(ring_r, np.cos(a)),
        np.outer(ring_r, np.sin(a)),
        np.repeat(ring_z[:, None], n_around, axis=1),
    ], axis=2).reshape(-1, 3)
    south = 1 + n_rings * n_around
    verts = np.vstack([[0.0, 0.0, z_lo], ring_verts, [0.0, 0.0, z_hi]])

    j = np.arange(n_around)
    j1 = (j + 1) % n_around
    r0 = 1 + n_around * np.arange(n_rings - 1)[:, None]
    r1 = r0 + n_around
    band = np.stack([
        np.stack([r0 + j, r0 + j1, r1 + j1], axis=2),
        np.stack([r0 + j, r1 + j1, r1 + j], axis=2),
    ], axis=2).reshape(-1, 3)
    last = 1 + n_around * (n_rings - 1)
    faces = np.vstack([
        np.column_stack([np.zeros(n_around, dtype=int), 1 + j1, 1 + j]),
        band,
        np.column_stack([np.full(n_around, south), last + j, last + j1]),
    ]).astype(np.int64)
    return verts, faces


def dumbbell(n_sphere, n_around):
    """Two unit spheres joined by a single thin waist band at z = 0."""
    c = _DUMBBELL_C
    u = np.linspace(np.pi / n_sphere, np.pi - np.arcsin(_NECK_RADIUS), n_sphere)
    z_lower = -c - np.cos(u)
    r_lower = np.sin(u)
    ring_z = np.concatenate([z_lower, -z_lower[::-1]])
    ring_r = np.concatenate([r_lower, r_lower[::-1]])
    return revolve_rings(ring_z, ring_r, n_around, -c - 1.0, c + 1.0)


def dumbbell_ground_truth(vertices, faces):
    """Face labels by nearest sphere center (of the unscaled mesh)."""
    centroids = vertices[faces].mean(axis=1)
    d = np.linalg.norm(centroids[:, None, :] - DUMBBELL_CENTERS[None], axis=2)
    return np.argmin(d, axis=1)


def bumpy_radius(z):
    return 0.6 + 0.3 * np.sin(2.0 * np.pi * z) * np.exp(-0.1 * z * z)


def bumpy_revolution(n_axial, n_around):
    """Wavy closed surface of revolution over z in [-3, 3] with six
    bulges."""
    zs = np.linspace(-3.0, 3.0, n_axial + 1)[1:-1]
    return revolve_rings(zs, bumpy_radius(zs), n_around, -3.0, 3.0)


def neck_ground_truth(vertices, faces):
    """Face labels of the bumpy surface cut at its necks: label i holds
    the faces whose centroid lies above i local minima of the radius."""
    z = np.linspace(-3.0, 3.0, 600_001)
    r = bumpy_radius(z)
    necks = z[1:-1][(r[1:-1] < r[:-2]) & (r[1:-1] < r[2:])]
    return np.searchsorted(necks, vertices[faces][:, :, 2].mean(axis=1))


def jitter(vertices, faces, rng):
    """Move every vertex by up to ``JITTER`` times the mean edge length
    along each axis.  Each edge of a closed mesh is counted once per
    incident face, which leaves the mean unchanged."""
    p = vertices[faces]
    mean_edge = np.linalg.norm(p - np.roll(p, 1, axis=1), axis=2).mean()
    step = JITTER * mean_edge
    return vertices + rng.uniform(-step, step, size=vertices.shape)


def off_text(vertices, faces):
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def off_faces(off):
    """Face count from the counts line of OFF text."""
    return int(off.split("\n", 2)[1].split()[1])


def seg_text(labels):
    return "\n".join(str(int(x)) for x in labels) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]
