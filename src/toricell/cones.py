"""Rational polyhedral cones over the integers.

Dual ray enumeration (double description), and Hilbert bases of pointed
cone semigroups and minimal generators of degree fibers from one bounded
lattice-point enumeration.  All arithmetic is exact; vectors are integer
tuples.
"""

from __future__ import annotations

from itertools import combinations
from math import floor, lcm

from .intlinalg import (
    LinAlgError,
    dot,
    leq,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    rational_mat_inverse,
    vadd,
    vector_gcd,
    vscale,
    vsub,
)


class ConeError(ValueError):
    pass


# the most lattice points one box enumeration may emit
_BOX_LIMIT = 4_000_000


def dual_cone_rays(generators):
    """Primitive extremal rays of {y : g.y >= 0 for all g}.

    The generators must span the ambient space (so that the dual cone is
    pointed); otherwise a ConeError is raised.  Double description method:
    start from a simplicial subcone and add the remaining inequalities one
    at a time.
    """
    generators = [tuple(g) for g in generators]
    if not generators:
        raise ConeError("no generators")
    r = len(generators[0])
    if rank([list(g) for g in generators]) != r:
        raise ConeError("generators do not span the ambient space")

    # pick r linearly independent generators for the initial simplicial cone
    chosen = []
    rest = []
    for g in generators:
        if len(chosen) < r and rank([list(v) for v in chosen + [g]]) == len(chosen) + 1:
            chosen.append(g)
        else:
            rest.append(g)

    inv = rational_mat_inverse([list(g) for g in chosen])
    rays = []
    for j in range(r):
        col = [inv[i][j] for i in range(r)]
        mult = lcm(*(f.denominator for f in col)) if r else 1
        ray = primitive(tuple(int(f * mult) for f in col))
        rays.append(ray)

    processed = list(chosen)
    for a in rest:
        plus, zero, minus = [], [], []
        for y in rays:
            s = dot(a, y)
            (plus if s > 0 else zero if s == 0 else minus).append(y)
        if not minus:
            processed.append(a)
            continue
        tight = {y: frozenset(i for i, c in enumerate(processed) if dot(c, y) == 0)
                 for y in rays}
        new_rays = plus + zero
        for p in plus:
            for m in minus:
                common = tight[p] & tight[m]
                if len(common) < r - 2:
                    continue
                adjacent = True
                for w in rays:
                    if w is p or w is m:
                        continue
                    if common <= tight[w]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = vsub(vscale(dot(a, p), m), vscale(dot(a, m), p))
                new_rays.append(primitive(combo))
        processed.append(a)
        rays = sorted(set(new_rays))
    return sorted(set(rays))


class RationalCone:
    """Cone generated by integer vectors that span the ambient space,
    given by its facet normals (the rays of the dual cone)."""

    def __init__(self, generators):
        self.generators = [tuple(g) for g in generators]
        self.facets = dual_cone_rays(self.generators)
        self._rays = None

    @property
    def is_pointed(self):
        return rank([list(f) for f in self.facets]) == len(self.generators[0])

    @property
    def rays(self):
        """Primitive extremal ray generators (double-dualization)."""
        if self._rays is None:
            if not self.is_pointed:
                raise ConeError("ray enumeration requires a pointed cone")
            self._rays = dual_cone_rays(self.facets)
        return self._rays


def hilbert_basis(cone):
    """Hilbert basis of cone ∩ Z^n for a pointed full-dimensional cone.

    The cone is {x : F x >= 0} for its facet matrix F, which has full
    column rank because the cone is pointed.  So x |-> F x maps
    cone ∩ Z^n onto the degree-zero semigroup of FiberContext(F), whose
    Hilbert basis that context computes.
    """
    if not cone.is_pointed:
        raise ConeError("Hilbert basis requires a pointed cone")
    return sorted(FiberContext(cone.facets).s0_coords)


# ---------------------------------------------------------------------------
# lattice points of parametrized polyhedra {u : A u >= r}, A fixed


def _fm_eliminate(rows, var):
    """One Fourier-Motzkin step removing the given variable index.

    rows are (coeffs, multiplier) pairs describing coeffs . u >= mult . r
    for a runtime right-hand side r; eliminated rows keep their provenance
    through the multipliers.
    """
    pos, neg, zero = [], [], []
    for row in rows:
        c = row[0][var]
        (pos if c > 0 else neg if c < 0 else zero).append(row)
    out = dict((row, None) for row in zero)
    for cp, mp in pos:
        for cn, mn in neg:
            a, b = -cn[var], cp[var]
            coeffs = tuple(a * x + b * y for x, y in zip(cp, cn))
            mult = tuple(a * x + b * y for x, y in zip(mp, mn))
            g = vector_gcd(coeffs + mult)
            if g > 1:
                coeffs = tuple(x // g for x in coeffs)
                mult = tuple(x // g for x in mult)
            out[(coeffs, mult)] = None
    return list(out)


def _fm_levels(A):
    """Per-variable bound rows for the system A u >= r.

    levels[k] holds rows whose variables are among u_0..u_k with a nonzero
    coefficient on u_k; an infeasible right-hand side surfaces as an empty
    bound interval during enumeration, so no variable-free rows are kept.
    """
    n = len(A[0])
    m = len(A)
    rows = [(tuple(r), tuple(1 if i == j else 0 for j in range(m)))
            for i, r in enumerate(A)]
    levels = [None] * n
    for k in range(n - 1, -1, -1):
        levels[k] = [row for row in rows if row[0][k] != 0]
        if k:
            rows = _fm_eliminate(rows, k)
    return levels


def _polytope_lattice_points(levels, r):
    """All integer points of {u : A u >= r} for the precomputed levels.

    The region must be bounded (each prefix admits finite exact bounds);
    unbounded directions raise, and so does a region with more than
    _BOX_LIMIT points.
    """
    n = len(levels)
    # the right-hand sides do not depend on the enumeration prefix
    resolved = [[(coeffs, dot(mult, r)) for coeffs, mult in level]
                for level in levels]
    out = []
    u = [0] * n

    def descend(k):
        lo, hi = None, None
        for coeffs, rhs in resolved[k]:
            rest = rhs - sum(coeffs[j] * u[j] for j in range(k))
            c = coeffs[k]
            if c > 0:
                b = -((-rest) // c)  # ceil
                lo = b if lo is None else max(lo, b)
            else:
                b = rest // c  # floor for negative divisor
                hi = b if hi is None else min(hi, b)
        if lo is None or hi is None:
            raise ConeError("unbounded enumeration region")
        if k < n - 1:
            for val in range(lo, hi + 1):
                u[k] = val
                descend(k + 1)
            return
        if len(out) + hi - lo + 1 > _BOX_LIMIT:
            raise ConeError(f"enumeration box has more than _BOX_LIMIT = "
                            f"{_BOX_LIMIT} lattice points")
        prefix = tuple(u[:k])
        out.extend(prefix + (val,) for val in range(lo, hi + 1))

    descend(0)
    return out


# ---------------------------------------------------------------------------
# degree fibers


class FiberContext:
    """Cached data for fiber computations of one embedding B: Z^n -> Z^d.

    The fiber of a class c is {v in N^d : v ≡ c mod im(B)}, the points
    c + B t >= 0 for t in Z^n.  Its degree-zero semigroup S0 = N^d ∩ im(B)
    is the image of the pointed cone C = {t : B t >= 0}; the S0 ray
    generators are g = B t over the primitive rays t of C, and z is their
    sum.  ``s0_hilbert`` is the Hilbert basis of S0 and ``s0_coords`` the
    matching t.
    """

    def __init__(self, B):
        self.B = [list(row) for row in B]
        self.d = len(B)
        self.n = len(B[0]) if B else 0
        if rank(self.B) != self.n:
            raise LinAlgError("embedding matrix must have full column rank")
        rows = [tuple(row) for row in self.B]
        # bound rows for the boxes {t : 0 <= c + B t <= bound}
        self.box_levels = _fm_levels(rows + [tuple(-x for x in row) for row in rows])
        self.s0_rays = [mat_vec(self.B, t) for t in dual_cone_rays(rows)]
        if not self.s0_rays:
            raise ConeError("degree-zero semigroup is trivial; cone not full-dimensional")
        self.z = tuple(map(sum, zip(*self.s0_rays)))
        if min(self.z) <= 0:
            raise ConeError("no strictly positive degree-zero section; cone not full-dimensional")
        # where the rows S of B t >= -c are tight, c + B t = c - K c_S
        self.vertex_maps = []
        for S in combinations(range(self.d), self.n):
            try:
                inv = rational_mat_inverse([self.B[i] for i in S])
            except LinAlgError:
                continue
            self.vertex_maps.append((S, mat_mul(self.B, inv)))
        # An irreducible s of S0 is a ray generator or lies in the half-open
        # zonotope {sum l_i g_i : 0 <= l_i < 1}: if l_i >= 1, s - g_i is in
        # S0.  Either way 0 <= s <= z.
        basis = minimal_points(
            p for p in _box_points(self, (0,) * self.d, self.z) if any(p[0]))
        self.s0_hilbert = [v for v, _ in basis]
        self.s0_coords = [t for _, t in basis]


def _box_points(ctx, c, bound):
    """(c + B t, t) for every t in Z^n with 0 <= c + B t <= bound."""
    # B t >= -c and -B t >= c - bound
    r = tuple(-x for x in c) + tuple(x - y for x, y in zip(c, bound))
    return [(vadd(c, mat_vec(ctx.B, t)), t)
            for t in _polytope_lattice_points(ctx.box_levels, r)]


def minimal_points(points):
    """The (v, t) pairs whose v is componentwise minimal among the points
    (all v distinct), sorted by v; t is any data carried along with v.

    In (degree, v) order every w <= v with w != v comes before v, and a w
    that was dropped lies above a kept point; so v need only be compared
    with the points kept so far.
    """
    kept = []
    for v, t in sorted(points, key=lambda p: (sum(p[0]), p[0])):
        if not any(leq(w, v) for w, _ in kept):
            kept.append((v, t))
    return sorted(kept)


def fiber_generators(ctx, c):
    """Minimal generators of the fiber {v in N^d : v ≡ c mod im(B)}, sorted.

    Two points of a fiber differ by an element of im(B), so w divides v
    (v - w in S0) exactly when w <= v componentwise: the generators are
    the componentwise-minimal points of the fiber.

    Bound (Bruns-Gubeladze, Polytopes, Rings and K-Theory, ch. 2).  The
    polyhedron P = {t : c + B t >= 0} is conv(V) + C for its vertex set V
    (P is pointed because B has full column rank).  Write a lattice point
    of P as t = p + sum l_i t_i with p in conv(V), t_i the rays of C and
    l_i >= 0.  Then t - sum floor(l_i) t_i is a lattice point of P whose
    image lies below c + B t and differs from it unless every floor(l_i)
    is 0, since each g_i = B t_i is nonzero and nonnegative.  So a
    generator is c + B p + sum l_i g_i with l_i < 1, which is at most
    max over V of (c + B t), plus z, in every coordinate.  Any fiber point
    below a point of that box lies in the box too, so the minimal points
    of the box are exactly the generators.  A vertex is where n
    independent rows of c + B t >= 0 are tight.
    """
    if not isinstance(ctx, FiberContext):
        ctx = FiberContext(ctx)
    c = tuple(c)
    top = None
    for S, K in ctx.vertex_maps:
        v = vsub(c, mat_vec(K, [c[i] for i in S]))
        if min(v) >= 0:
            top = v if top is None else tuple(map(max, top, v))
    bound = tuple(floor(a) + b for a, b in zip(top, ctx.z))
    return [v for v, _ in minimal_points(_box_points(ctx, c, bound))]
