"""Rational polyhedral cones over the integers.

Dual ray enumeration (double description), Hilbert bases of pointed cone
semigroups, and minimal generators of degree fibers.  All arithmetic is
exact; vectors are integer tuples.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .intlinalg import (
    LinAlgError,
    dot,
    from_columns,
    identity,
    is_zero,
    kernel_basis,
    lattice_basis,
    mat_vec,
    primitive,
    rank,
    rational_mat_inverse,
    solve_integer,
    vadd,
    vector_gcd,
    vscale,
    vsub,
)


class ConeError(ValueError):
    pass


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
    """Cone generated by integer vectors, possibly not full-dimensional."""

    def __init__(self, generators, ambient_dim=None):
        self.generators = [tuple(g) for g in generators]
        if ambient_dim is None:
            if not self.generators:
                raise ConeError("ambient_dim required for the zero cone")
            ambient_dim = len(self.generators[0])
        self.ambient_dim = ambient_dim
        if any(len(g) != ambient_dim for g in self.generators):
            raise ConeError("ambient-rank mismatch among generators")
        # equations cutting out the linear span, and a saturated span basis
        gens_nonzero = [g for g in self.generators if not is_zero(g)]
        if gens_nonzero:
            self.span_equations = kernel_basis([list(g) for g in gens_nonzero])
        else:
            self.span_equations = [tuple(row) for row in identity(ambient_dim)]
        if self.span_equations:
            self._span_basis = kernel_basis([list(e) for e in self.span_equations])
        else:
            self._span_basis = [tuple(row) for row in identity(ambient_dim)]
        self.dim = len(self._span_basis)
        self._coord_gens = None
        self._facets_coords = None
        self._rays = None

    # -- span coordinates ---------------------------------------------------

    def _coords(self, v):
        """Coordinates of v in the saturated span basis (None if outside)."""
        if self.dim == 0:
            return () if is_zero(v) else None
        mat = from_columns(self._span_basis, self.ambient_dim)
        return solve_integer(mat, v)

    def _coord_generators(self):
        if self._coord_gens is None:
            cg = []
            for g in self.generators:
                if is_zero(g):
                    continue
                x = self._coords(g)
                if x is None:
                    raise ConeError("generator outside its own span (bug)")
                cg.append(tuple(x))
            self._coord_gens = cg
        return self._coord_gens

    def _facet_coords(self):
        if self._facets_coords is None:
            if self.dim == 0:
                self._facets_coords = []
            else:
                self._facets_coords = dual_cone_rays(self._coord_generators())
        return self._facets_coords

    # -- public geometry ----------------------------------------------------

    @property
    def is_pointed(self):
        if self.dim == 0:
            return True
        fc = self._facet_coords()
        return rank([list(f) for f in fc]) == self.dim if fc else self.dim == 0

    @property
    def rays(self):
        """Primitive extremal ray generators (double-dualization)."""
        if self._rays is None:
            if self.dim == 0:
                self._rays = []
            else:
                fc = self._facet_coords()
                if not self.is_pointed:
                    raise ConeError("ray enumeration requires a pointed cone")
                ray_coords = dual_cone_rays(fc)
                mat = from_columns(self._span_basis, self.ambient_dim)
                self._rays = sorted(primitive(mat_vec(mat, rc)) for rc in ray_coords)
        return self._rays

    def contains(self, v):
        """Real cone membership (lattice membership is separate)."""
        if any(dot(e, v) != 0 for e in self.span_equations):
            return False
        x = self._coords(v)
        if x is None:
            # in the real span but outside the saturated lattice cannot
            # happen for integer v; _coords solves over the saturated lattice
            return False
        return all(dot(f, x) >= 0 for f in self._facet_coords())


def extremal_rays(generators, ambient_dim=None):
    return RationalCone(generators, ambient_dim).rays


def hilbert_basis(cone, lattice=None):
    """Hilbert basis of cone ∩ L for a pointed rational cone.

    ``lattice`` is an optional list of basis vectors of a finite-index
    sublattice L of the cone's span lattice; by default L is the full
    saturated span lattice.  Candidates are drawn from the bounding box of
    the zonotope of the ray generators (every irreducible element lies in
    the half-open zonotope) and minimalized against each other.
    """
    if not isinstance(cone, RationalCone):
        cone = RationalCone(cone)
    if not cone.is_pointed:
        raise ConeError("Hilbert basis requires a pointed cone")
    if cone.dim == 0:
        return []

    if lattice is not None:
        lat_mat = from_columns(lattice, cone.ambient_dim)

        def in_lattice(v):
            return solve_integer(lat_mat, v) is not None
    else:
        def in_lattice(v):
            return cone._coords(v) is not None

    # ray generators scaled to the smallest multiple lying in L
    gens = []
    for ray in cone.rays:
        g = ray
        k = 1
        while not in_lattice(g):
            k += 1
            g = vscale(k, ray)
            if k > 10_000:
                raise ConeError("ray does not meet the lattice")
        gens.append(g)

    n = cone.ambient_dim
    lo = [sum(min(0, g[j]) for g in gens) for j in range(n)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(n)]
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    if size > _BOX_LIMIT:
        raise ConeError(f"zonotope candidate box too large ({size} points)")

    candidates = set(gens)
    for point in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if is_zero(point):
            continue
        if cone.contains(point) and in_lattice(point):
            candidates.add(tuple(point))

    basis = []
    for v in candidates:
        reducible = False
        for w in candidates:
            if w == v:
                continue
            d = vsub(v, w)
            if is_zero(d):
                continue
            if cone.contains(d) and in_lattice(d):
                reducible = True
                break
        if not reducible:
            basis.append(v)
    return sorted(basis)


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
    unbounded directions raise.
    """
    n = len(levels)
    # the right-hand sides do not depend on the enumeration prefix
    resolved = [[(coeffs, dot(mult, r)) for coeffs, mult in level]
                for level in levels]
    out = []
    u = [0] * n

    def descend(k):
        if k == n:
            out.append(tuple(u))
            return
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
        for val in range(lo, hi + 1):
            u[k] = val
            descend(k + 1)

    descend(0)
    return out


# ---------------------------------------------------------------------------
# degree fibers


class FiberContext:
    """Cached data for fiber computations of one embedding B: Z^n -> Z^d."""

    def __init__(self, B):
        self.B = [list(row) for row in B]
        self.d = len(B)
        self.n = len(B[0]) if B else 0
        if rank(self.B) != self.n:
            raise LinAlgError("embedding matrix must have full column rank")
        # bound rows for the boxes {t : 0 <= c + B t <= bound}
        self.box_levels = _fm_levels(
            [tuple(row) for row in self.B] +
            [tuple(-x for x in row) for row in self.B])
        # semigroup S0 = N^d ∩ im(B): cone {t : B t >= 0} pushed forward
        t_rays = dual_cone_rays([tuple(row) for row in self.B])
        gens = [primitive_in_image(self.B, t) for t in t_rays]
        self.s0_hilbert = hilbert_basis(RationalCone(gens, self.d),
                                        lattice=image_basis(self.B))
        if not self.s0_hilbert:
            raise ConeError("degree-zero semigroup is trivial; cone not full-dimensional")
        self.hmax = tuple(max(h[j] for h in self.s0_hilbert) for j in range(self.d))
        splus = (0,) * self.d
        for h in self.s0_hilbert:
            splus = vadd(splus, h)
        if any(a <= 0 for a in splus):
            raise ConeError("no strictly positive degree-zero section; cone not full-dimensional")
        self.splus = splus


def image_basis(B):
    """Basis of the column lattice of B, as column tuples."""
    cols = [tuple(col) for col in zip(*B)]
    return lattice_basis(cols, len(B))


def primitive_in_image(B, t):
    """B t for primitive t: the minimal lattice point of im(B) on that ray."""
    return mat_vec(B, primitive(t))


def fiber_generators(ctx, c):
    """Minimal generators of the fiber {v in N^d : v ≡ c mod im(B)}.

    On a fixed fiber the divisibility order by the degree-zero semigroup
    coincides with the componentwise order, so minimality is certified by
    "v - h is not componentwise nonnegative for every Hilbert basis element
    h of S0".  Candidates come from an expanding box.
    """
    if not isinstance(ctx, FiberContext):
        ctx = FiberContext(ctx)
    c = tuple(c)
    v0 = c
    while not all(a >= 0 for a in v0):
        v0 = vadd(v0, ctx.splus)

    def fiber_points_upto(bound):
        # B t >= -c and -B t >= c - bound
        r = tuple(-x for x in c) + tuple(x - y for x, y in zip(c, bound))
        return [vadd(c, mat_vec(ctx.B, t))
                for t in _polytope_lattice_points(ctx.box_levels, r)]

    def minimal_in(points):
        out = []
        for v in points:
            if all(any(x < y for x, y in zip(v, h)) for h in ctx.s0_hilbert):
                out.append(v)
        return sorted(set(out))

    bound = vadd(v0, ctx.hmax)
    found = minimal_in(fiber_points_upto(bound))
    while True:
        bound = vadd(bound, ctx.hmax)
        bigger = minimal_in(fiber_points_upto(bound))
        if bigger == found:
            return found
        found = bigger
