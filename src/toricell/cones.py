"""Rational polyhedral cones over the integers.

Dual ray enumeration (double description), and the degree fibers of an
embedding B: Z^n -> Z^d: the Hilbert basis of the degree-zero semigroup
and the minimal generators of every fiber, from one breadth-first walk
over the points that no nonzero degree-zero element lies below.  All
arithmetic is exact; vectors are integer tuples.
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
    vscale,
    vsub,
)


class ConeError(ValueError):
    pass


# the most points one staircase walk may visit
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


# ---------------------------------------------------------------------------
# degree fibers


class FiberContext:
    """The degree fibers of one embedding B: Z^n -> Z^d, and their cache.

    The fiber of a class c of Cl = Z^d / im(B) is {v in N^d : v ≡ c}, the
    points c + B t >= 0 for t in Z^n.  Its degree-zero semigroup
    S0 = N^d ∩ im(B) is the image of the pointed cone C = {t : B t >= 0};
    the S0 ray generators are g = B t over the primitive rays t of C, and
    z is their sum.  ``cl`` is the CokernelForm of B, whose reduced Smith
    coordinates key the classes.

    Staircase walk (Miller-Sturmfels, Combinatorial Commutative Algebra,
    ch. 2 and 8).  Two points of one fiber satisfy w <= v exactly when
    v - w is in S0, so v generates its fiber iff no nonzero element of S0
    lies below v.  These v form the set D of standard monomials of the
    ideal that S0 - {0} generates, and D is downward closed; so is
    D ∩ box for any box [0, cap], since the box is.  A point v != 0 is in
    D iff class(v) != 0 and v - e_k is in D for every k with v_k > 0: a
    nonzero s in S0 below v is either v itself, of class 0, or lies below
    some v - e_k.  The same argument shows that the points of class 0
    whose predecessors all lie in D are the irreducible elements of S0,
    its Hilbert basis ``s0_hilbert``.  So one breadth-first walk by total
    degree, from 0 through D (∩ box), visits each point of D once, keys
    each by its class with one column of the Smith transform per step,
    and keeps every point as a generator of its fiber.

    Every element s of the Hilbert basis is a ray generator or lies in the
    half-open zonotope {sum l_i g_i : 0 <= l_i < 1} (if l_i >= 1, s - g_i
    is in S0), so 0 <= s <= z and the walk for S0 is capped at z.  When
    Cl is finite (d = n), C is simplicial and its rays map to o_k e_k, for
    o_k the order of the class of e_k; so z = (o_1, ..., o_d), every v in
    D has v < z, and that one walk yields S0 and every fiber, its cap
    excluding no point of D.  When Cl has a free part, ``fibers`` walks
    again, capped at the proven boxes of the classes asked for.
    """

    def __init__(self, B, cl):
        self.B = [list(row) for row in B]
        self.d = len(B)
        self.n = len(B[0]) if B else 0
        if rank(self.B) != self.n:
            raise LinAlgError("embedding matrix must have full column rank")
        rows = [tuple(row) for row in self.B]
        s0_rays = [mat_vec(self.B, t) for t in dual_cone_rays(rows)]
        if not s0_rays:
            raise ConeError("degree-zero semigroup is trivial; cone not full-dimensional")
        self.z = tuple(map(sum, zip(*s0_rays)))
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
        self._key = cl.coordinates
        self._moduli = cl.moduli
        self._steps = [cl.coordinates(tuple(int(i == k) for i in range(self.d)))
                       for k in range(self.d)]
        self._fibers = {}  # class key -> sorted generators of its fiber
        self.s0_hilbert = self._walk(self.z, () if 0 in self._moduli else None)

    def fibers(self, classes):
        """The sorted minimal generators of the fiber of each class (any
        representative), by one walk for all the classes not yet cached.

        Bound (Bruns-Gubeladze, Polytopes, Rings and K-Theory, ch. 2).  The
        polyhedron P = {t : c + B t >= 0} is conv(V) + C for its vertex set
        V (P is pointed because B has full column rank).  Write a lattice
        point of P as t = p + sum l_i t_i with p in conv(V), t_i the rays
        of C and l_i >= 0.  Then t - sum floor(l_i) t_i is a lattice point
        of P whose image lies below c + B t and differs from it unless
        every floor(l_i) is 0, since each g_i = B t_i is nonzero and
        nonnegative.  So a generator is c + B p + sum l_i g_i with
        l_i < 1, which is at most max over V of (c + B t), plus z, in
        every coordinate.  A vertex is where n independent rows of
        c + B t >= 0 are tight.  The walk is capped at the componentwise
        max of these boxes over the classes, so for each of them it keeps
        every generator, and every point it keeps is one.
        """
        keys = [self._key(c) for c in classes]
        todo = {k: tuple(c) for k, c in zip(keys, classes) if k not in self._fibers}
        if todo:
            cap = self.z
            for c in todo.values():
                for S, K in self.vertex_maps:
                    v = vsub(c, mat_vec(K, [c[i] for i in S]))
                    if min(v) >= 0:
                        cap = tuple(max(a, floor(x) + b)
                                    for a, x, b in zip(cap, v, self.z))
            self._walk(cap, set(todo))
        return [self._fibers[k] for k in keys]

    def _walk(self, cap, wanted):
        """Walk D ∩ [0, cap] by total degree; cache the fibers of the wanted
        class keys (all for None) and return the Hilbert basis of S0.

        A point w is reached once, from w - e_k for its last nonzero
        coordinate k, and each point is also coded by the integer
        sum w_k P_k in the mixed radix P of the box, so that its
        predecessors are found by subtraction."""
        d, moduli, steps = self.d, self._moduli, self._steps
        place = [1]
        for b in cap[:-1]:
            place.append(place[-1] * (b + 1))
        zero = (0,) * d
        level = {0: (zero, self._key(zero))}
        found, hilbert, walked = {}, [], 0
        while level:
            up = {}
            for code, (v, key) in level.items():
                if wanted is None or key in wanted:
                    found.setdefault(key, []).append(v)
                support = [j for j in range(d) if v[j]]
                for k in range(support[-1] if support else 0, d):
                    if v[k] == cap[k]:
                        continue
                    w_code = code + place[k]
                    for j in support:
                        if j != k and w_code - place[j] not in level:
                            break
                    else:  # every predecessor is in D
                        key_w = tuple([(a + b) % m if m else a + b
                                       for a, b, m in zip(key, steps[k], moduli)])
                        w = v[:k] + (v[k] + 1,) + v[k + 1:]
                        if not any(key_w):
                            hilbert.append(w)
                            continue
                        walked += 1
                        if walked > _BOX_LIMIT:
                            raise ConeError(f"staircase walk visits more than "
                                            f"_BOX_LIMIT = {_BOX_LIMIT} points")
                        up[w_code] = (w, key_w)
            level = up
        for key, points in found.items():
            self._fibers[key] = sorted(points)
        return sorted(hilbert)


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
