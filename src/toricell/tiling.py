"""Reconstruction of the torus tiling of a three-dimensional algebra.

The lattice M embeds into Z^d by pairing with the rays; after a basis
change putting the Gorenstein covector last, the left inverse
f / den = (B^t B)^{-1} B^t projects divisor vectors to M-coordinates,
and its first two rows f' / den land in the plane.  Vertices are placed
at f' of the divisor lifts, each arrow becomes a segment translating by
f'(div(a)), and each superpotential term traces a polygon; the result is
a tiling of the torus R^2 / Z^2 exactly when the algebra comes from a
dimer.  All of it stays on the integer grid over den, where a point
(x, y) stands for (x / den, y / den); only the CLI divides.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConstructionError, InputError, InternalError
from .intlinalg import (
    adjugate,
    identity,
    left_inverse,
    mat_mul,
    rank,
    smith_normal_form,
    unimodular_inverse,
    vadd,
    vscale,
    vsub,
)


def _complete_to_basis(z):
    """A basis of Z^n whose last vector is the primitive vector z."""
    sf = smith_normal_form([[x] for x in z])
    if sf.S[0][0] not in (1, -1):
        raise InternalError("covector is not primitive")
    # U (A V) = S with V = [v], so U . (v z) = e1 and z is the first
    # column of U^{-1} up to the sign v
    cols = list(zip(*unimodular_inverse(sf.U)))
    basis = cols[1:] + [vscale(sf.V[0][0], cols[0])]
    if basis[-1] != tuple(z):
        raise InternalError("basis completion failed")
    return basis


class ProjectionData(NamedTuple):
    m_basis: list   # basis vectors of M, Gorenstein covector last
    B: list         # d x n matrix of M -> Z^d in that basis
    f: list         # n x d integer numerators of the left inverse of B
    fprime: list    # first two rows of f
    den: int        # their common denominator det(B^t B) > 0

    def project(self, v):
        return tuple(sum(row[k] * v[k] for k in range(len(v)))
                     for row in self.fprime)


def projection_maps(X, m_basis=None):
    """Exact projection data for a Gorenstein threefold: the left inverse
    of B as integer numerators f over the denominator den."""
    if X.n != 3:
        raise ConstructionError("tiling reconstruction needs a threefold")
    z = tuple(X.gorenstein_covector)
    if m_basis is None:
        basis = _complete_to_basis(z)
    else:
        basis = [tuple(v) for v in m_basis]
        if rank(basis) != 3 or adjugate(basis)[1] not in (1, -1):
            raise InputError("supplied M-basis is not unimodular")
        if basis[-1] != z:
            raise InputError(
                f"last basis vector must be the Gorenstein covector {z}")
    B = [[sum(m[k] * ray[k] for k in range(3)) for m in basis]
         for ray in X.rays]
    f, den = left_inverse(B)
    if mat_mul(f, B) != [[den * x for x in row] for row in identity(3)]:
        raise InternalError("projection is not a left inverse of B")
    fprime = [f[0], f[1]]
    for rho in range(X.d):
        if fprime[0][rho] == fprime[1][rho] == 0:
            raise ConstructionError("a ray label projects to the origin")
    return ProjectionData(m_basis=basis, B=B, f=f, fprime=fprime, den=den)


class Face(NamedTuple):
    term: tuple        # arrow ids, first applied first
    points: list       # polygon corners, term[k] runs points[k] -> points[k+1]
    area: int          # signed, over 2 den^2 (positive = anticlockwise)


class Tiling(NamedTuple):
    Q: object
    W: object
    proj: ProjectionData
    lifts: list      # divisor lift of each vertex in Z^d
    vertices: list   # planar position per quiver vertex, over proj.den
    edges: list      # (arrow id, start point, edge vector), over proj.den
    faces: list


def dimer_reconstruct(Q, W, proj=None, lifts=None):
    """Embed the quiver and superpotential on the torus R^2 / Z^2.

    Vertex lifts default to the spanning-tree lifts of the quiver; an
    explicit list (one divisor vector per vertex, the first zero) may be
    supplied instead, and is checked to be a lift: u_{h(a)} - u_{t(a)}
    must differ from div(a) by an element of B(M), the divisors of class
    0, for every arrow.
    """
    if proj is None:
        proj = projection_maps(Q.X)
    if lifts is None:
        lifts = Q.preferred_lifts()
    else:
        lifts = [tuple(u) for u in lifts]
        if len(lifts) != Q.n_vertices:
            raise InputError("one lift per vertex is required")
        for a in Q.arrows:
            gap = vsub(vsub(lifts[a.head], lifts[a.tail]), a.label)
            if any(Q.X.cl.coordinates(gap)):
                raise InputError(
                    f"lifts are not compatible with {a.pretty()}")
    pos = [proj.project(u) for u in lifts]
    vecs = [proj.project(a.label) for a in Q.arrows]
    edges = []
    for a, vec in zip(Q.arrows, vecs):
        edges.append((a.idx, pos[a.tail], vec))
        # the head position must agree modulo the period lattice (den Z)^2
        gap = vsub(pos[a.head], vadd(pos[a.tail], vec))
        if any(x % proj.den for x in gap):
            raise ConstructionError(f"edge of {a.pretty()} misses its head vertex")
    faces = []
    for term in W.terms:
        start = Q.arrows[term[0]].tail
        pts = [pos[start]]
        for idx in term[:-1]:
            pts.append(vadd(pts[-1], vecs[idx]))
        closing = vadd(pts[-1], vecs[term[-1]])
        if closing != pts[0]:
            raise ConstructionError("superpotential term does not close a polygon")
        area = sum(x1 * y2 - x2 * y1
                   for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))
        faces.append(Face(term=term, points=pts, area=area))
    return Tiling(Q=Q, W=W, proj=proj, lifts=list(lifts), vertices=pos,
                  edges=edges, faces=faces)


# ---------------------------------------------------------------------------
# exact planar verification


def _cross(o, a, b):
    return ((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))


def _on_segment(p, a, b):
    """p lies on the closed segment ab (assuming collinear)."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_conflict(p1, p2, q1, q2):
    """True when the segments meet anywhere except a shared endpoint."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 \
            and ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0:
        return True
    ends_p = (p1, p2)
    ends_q = (q1, q2)
    for p, d in ((p1, d1), (p2, d2)):
        if d == 0 and _on_segment(p, q1, q2) and p not in ends_q:
            return True
    for q, d in ((q1, d3), (q2, d4)):
        if d == 0 and _on_segment(q, p1, p2) and q not in ends_p:
            return True
    if d1 == d2 == d3 == d4 == 0:
        # collinear: sharing more than a point is a conflict
        hits = sum(1 for p in ends_p if _on_segment(p, q1, q2))
        hits += sum(1 for q in ends_q if _on_segment(q, p1, p2))
        shared = len(set(ends_p) & set(ends_q))
        if hits > 2 * shared:
            return True
    return False


def _reduce(point, den):
    """Translate by (den Z)^2 so the point lies in the half-open unit
    square [0, den)^2."""
    return tuple(x % den for x in point)


def _crossings(edges, den):
    """Sorted (arrow id, arrow id, translate) for every pair of edges on
    the grid over den that meet other than at a shared endpoint, each edge
    first moved by (den Z)^2 to start in the unit square and the second
    then moved by a translate in the 3 x 3 block.  The scan skips a pair
    whose closed bounding boxes are apart: boxes that only touch may still
    hide a T-junction."""
    segs = []
    for idx, start, vec in edges:
        a = _reduce(start, den)
        b = vadd(a, vec)
        segs.append((idx, a, b, min(a[0], b[0]), max(a[0], b[0]),
                     min(a[1], b[1]), max(a[1], b[1])))
    shifts = (-den, 0, den)
    found = set()
    for k1, (i1, a1, b1, xlo1, xhi1, ylo1, yhi1) in enumerate(segs):
        for k2 in range(k1, len(segs)):
            i2, a2, b2, xlo2, xhi2, ylo2, yhi2 = segs[k2]
            for tx in shifts:
                if xlo2 + tx > xhi1 or xhi2 + tx < xlo1:
                    continue
                for ty in shifts:
                    if ylo2 + ty > yhi1 or yhi2 + ty < ylo1:
                        continue
                    if k1 == k2 and tx == ty == 0:
                        continue
                    if _segments_conflict(a1, b1, (a2[0] + tx, a2[1] + ty),
                                          (b2[0] + tx, b2[1] + ty)):
                        found.add((i1, i2, (tx // den, ty // den)))
    return sorted(found)


class TilingReport(NamedTuple):
    valid: bool
    nonconvex_faces: list     # term tuples
    crossings: list           # (arrow id, arrow id, translate)
    euler: int
    total_area: int           # over 2 den^2, so 2 den^2 covers the torus once
    duplicate_vertices: list
    unbalanced_arrows: list   # arrows not in one face of each orientation


def verify_tiling(tiling):
    """Exact checks that the embedded data is a polygonal tiling:
    strictly convex faces with a coherent turning sign, no edge meeting
    another except at a shared vertex (tested over the 3 x 3 block of
    translates), zero Euler characteristic, and faces covering the
    fundamental domain once.  Every test runs on the integer grid over
    the projection's denominator."""
    Q = tiling.Q
    den = tiling.proj.den
    nonconvex = []
    for face in tiling.faces:
        pts, m = face.points, len(face.points)
        sign = 1 if face.area > 0 else -1
        ok = face.area != 0
        for k in range(m):
            turn = _cross(pts[k], pts[(k + 1) % m], pts[(k + 2) % m])
            if turn == 0 or (turn > 0) != (sign > 0):
                ok = False
        if not ok:
            nonconvex.append(face.term)

    crossings = _crossings(tiling.edges, den)

    euler = Q.n_vertices - len(Q.arrows) + len(tiling.faces)
    total_area = sum(abs(f.area) for f in tiling.faces)

    duplicates = []
    seen = {}
    for v, p in enumerate(tiling.vertices):
        key = _reduce(p, den)
        if key in seen:
            duplicates.append((seen[key], v))
        else:
            seen[key] = v

    orientation_count = {a.idx: [0, 0] for a in Q.arrows}
    for face in tiling.faces:
        slot = 0 if face.area > 0 else 1
        for idx in face.term:
            orientation_count[idx][slot] += 1
    unbalanced = sorted(i for i, c in orientation_count.items() if c != [1, 1])

    valid = (not nonconvex and not crossings and euler == 0 and not duplicates
             and total_area == 2 * den * den and not unbalanced)
    return TilingReport(valid=valid, nonconvex_faces=nonconvex,
                        crossings=crossings, euler=euler,
                        total_area=total_area,
                        duplicate_vertices=duplicates,
                        unbalanced_arrows=unbalanced)
