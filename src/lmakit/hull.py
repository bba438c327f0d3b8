"""Exact 3D convex hull of a small point set, by supporting-plane enumeration.

Every triple of points spans a candidate plane, and one matrix product tests
each plane against all points: the planes with every point on one side are
the hull's faces.  The points lying on one face (the four corners of a cube
face, or extra points on it) are merged into one convex polygon, so the
facets are watertight and the volume exact however many points are coplanar.
The work grows as n^4 in the point count, which suits skeleton frames of
tens of joints.  `hull_volume` is called once per frame, so the index
arrays that depend only on the point count (the triples, their swapped
twins and the positions of their coordinates) are built once per count:
a call then gathers every triple's corners with one `take`.

Degenerate inputs (fewer than 4 points, collinear or coplanar sets) have a
well-defined volume of 0 rather than raising.
"""

import functools
from itertools import combinations

import numpy as np

from .errors import LmaError

# Plane distances within this much, times max(1, extent), count as on-plane.
_REL_TOL = 1e-10
# Triples tested per matrix product; bounds the temporaries for large n.
_BLOCK = 8192


@functools.lru_cache(maxsize=64)
def _triple_blocks(n):
    """The C(n, 3) index triples i < j < k in read-only blocks of at most
    _BLOCK columns, as (pair, flat): the (3, 2m) triples of the block and
    then the same with j and k swapped, and the (3 corners, 3 axes, m)
    indices of the block's coordinates in a flattened (n, 3) point array."""
    tri = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    blocks = []
    for s in range(0, tri.shape[1], _BLOCK):
        block = tri[:, s : s + _BLOCK]
        pair = np.concatenate([block, block[[0, 2, 1]]], axis=1)
        flat = 3 * block[:, None, :] + np.arange(3)[None, :, None]
        for array in (pair, flat):
            array.setflags(write=False)
        blocks.append((pair, flat))
    return tuple(blocks)


def _corners(coords, index):
    """(3 corners, 3 axes, m) coordinates of the (3, m) index triples, from
    (3, n) coordinates.  `np.take` is several times faster than fancy
    indexing on arrays this small."""
    return np.take(coords, index.ravel(), axis=1).reshape(3, 3, -1).swapaxes(0, 1)


# the axes of u and of v in the products u[i+1] v[i+2] and u[i+2] v[i+1]
_U, _V = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


def _cross(u, v):
    """Cross products of the columns of two (3, m) arrays."""
    products = u.take(_U, axis=0) * v.take(_V, axis=0)
    return products[:3] - products[3:]


def _polygon(pts, idx, normal, area_tol):
    """Convex polygon of the coplanar points `idx`, counter-clockwise seen
    from the side `normal` points to.

    Coincident points keep their lowest index and points on an edge or
    inside are dropped, so every face that shares an edge names it alike.
    """
    first = {}
    for i in idx:
        first.setdefault(tuple(pts[i].tolist()), i)
    idx = sorted(first.values())
    origin = pts[idx[0]]
    rel = pts[idx] - origin
    e1 = rel[np.argmax(np.einsum("ij,ij->i", rel, rel))]
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(normal / np.linalg.norm(normal), e1)
    xy = [(float(p @ e1), float(p @ e2), i) for p, i in zip(rel, idx)]
    xy.sort()

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # Andrew's monotone chain: lower then upper boundary.
    chain = []
    for seq in (xy, xy[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and turn(part[-2], part[-1], p) <= area_tol:
                part.pop()
            part.append(p)
        chain.extend(part[:-1])
    return [p[2] for p in chain]


def _hull_triangles(pts):
    """Outward-oriented (k, 3) vertex-index triangles of the hull, or None
    when the points span no volume."""
    n = len(pts)
    if n < 4:
        return None
    pts = pts - pts.min(axis=0)  # plane offsets are tested near the origin
    # rounding is monotone, so this is the largest coordinate range exactly
    extent = max(1.0, float(pts.max()))
    tol = _REL_TOL * extent
    area_tol = tol * extent
    flat_pts = pts.ravel()
    triangles, merged, seen = [], [], set()
    for pair, flat in _triple_blocks(n):
        a, b, c = flat_pts.take(flat)
        normal = _cross(b - a, c - a)
        length = np.sqrt(np.einsum("ij,ij->j", normal, normal))
        # side[p, t]: distance of point p from triple t's plane, times length[t]
        side = pts @ normal - np.einsum("ij,ij->j", normal, a)
        margin = tol * length
        below = side.max(axis=0) <= margin
        above = side.min(axis=0) >= -margin
        # supporting, spanned by non-collinear points, and not holding every point
        face = np.flatnonzero((below != above) & (length > area_tol))
        on = np.abs(side[:, face]) <= margin[face]
        plain = on.sum(axis=0) == 3
        kept = face[plain]  # a face's triple, swapped (m columns on) if the points lie above it
        triangles.append(pair.take(kept + len(length) * above[kept], axis=1).T)
        for k in np.flatnonzero(~plain):
            key = on[:, k].tobytes()
            if key not in seen:
                seen.add(key)
                outward = normal[:, face[k]] * (1.0 if below[face[k]] else -1.0)
                poly = _polygon(pts, np.flatnonzero(on[:, k]), outward, area_tol)
                merged.extend((poly[0], poly[i], poly[i + 1]) for i in range(1, len(poly) - 1))
    if merged:
        triangles.append(np.array(merged, dtype=np.intp))
    triangles = triangles[0] if len(triangles) == 1 else np.concatenate(triangles)
    return triangles if len(triangles) else None


def _checked(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise LmaError(f"expected N x 3 points, got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise LmaError("hull input contains non-finite coordinates")
    return pts


def hull_volume(points):
    """Volume of the convex hull, by signed tetrahedra from the centroid of
    the hull's vertices."""
    pts = _checked(points)
    triangles = _hull_triangles(pts)
    if triangles is None:
        return 0.0
    vertex = np.zeros(len(pts), dtype=bool)
    vertex[triangles] = True
    corners = pts[vertex]
    rel = pts - np.add.reduce(corners, axis=0) / len(corners)  # bit for bit .mean(axis=0)
    a, b, c = _corners(np.ascontiguousarray(rel.T), triangles.T)
    return abs(float(np.einsum("ij,ij->", a, _cross(b, c)))) / 6.0
