"""Rational polyhedral cones over the integers.

Dual ray enumeration (double description), and the degree fibers of an
embedding B: Z^n -> Z^d: the Hilbert basis of the degree-zero semigroup
and the minimal generators of every fiber, from one breadth-first walk
over the points that no nonzero degree-zero element lies below, which
can also stop at the first points of chosen classes.  All
arithmetic is exact; vectors are integer tuples.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError, InternalError
from .intlinalg import (
    adjugate,
    dot,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    vscale,
    vsub,
)


# the most points one staircase walk may extend
_BOX_LIMIT = 4_000_000
# the most (plus ray, minus ray) pair times ray scans one double description
# may make; every fixture needs at most 4,306, the perfect matchings of
# Z/14(1,2,11) 5.8 M (0.4 s on a 2-CPU machine) and those of Z/16(1,2,13)
# 53 M (4 s)
_SCAN_LIMIT = 6_500_000


def dual_cone_rays(generators):
    """Primitive extremal rays of {y : g.y >= 0 for all g}.

    The generators must span the ambient space, so that the dual cone is
    pointed; both callers prove that they do.  Double description method:
    start from a simplicial subcone and add the remaining inequalities one
    at a time.  Each step that splits the rays scans all of them for
    every (plus, minus) pair, and a run whose scans would pass
    _SCAN_LIMIT is refused before the step that passes it.
    """
    generators = [tuple(g) for g in generators]
    r = len(generators[0]) if generators else 0
    if not generators or rank([list(g) for g in generators]) != r:
        raise InternalError("generators do not span the ambient space")

    # pick r linearly independent generators for the initial simplicial cone
    chosen = []
    rest = []
    for g in generators:
        if len(chosen) < r and rank([list(v) for v in chosen + [g]]) == len(chosen) + 1:
            chosen.append(g)
        else:
            rest.append(g)

    # the rays of {y : g.y >= 0 for the chosen g} are the columns of adj / det
    adj, det = adjugate([list(g) for g in chosen])
    rays = [primitive(vscale(det, col)) for col in zip(*adj)]

    # bit i of tight[y]: the i-th inequality added so far is tight at y; a
    # combination of p and m is tight exactly where both are
    tight = {y: sum(1 << i for i, c in enumerate(chosen) if dot(c, y) == 0)
             for y in rays}
    scans = 0
    for k, a in enumerate(rest, start=r):
        plus, zero, minus = [], [], []
        for y in rays:
            s = dot(a, y)
            (plus if s > 0 else zero if s == 0 else minus).append(y)
        for y in zero:
            tight[y] |= 1 << k
        if not minus:
            continue
        scans += len(plus) * len(minus) * len(rays)
        if scans > _SCAN_LIMIT:
            raise InputError(f"double description scans more than "
                             f"_SCAN_LIMIT = {_SCAN_LIMIT} rays")
        new_rays = plus + zero
        for p in plus:
            for m in minus:
                common = tight[p] & tight[m]
                if common.bit_count() < r - 2:
                    continue
                if any(tight[w] & common == common
                       for w in rays if w is not p and w is not m):
                    continue
                combo = vsub(vscale(dot(a, p), m), vscale(dot(a, m), p))
                ray = primitive(combo)
                tight[ray] = common | 1 << k
                new_rays.append(ray)
        rays = sorted(set(new_rays))
    return sorted(set(rays))


# ---------------------------------------------------------------------------
# degree fibers


class FiberContext:
    """The degree fibers of one embedding B: Z^n -> Z^d, and their cache.

    The fiber of a class c of Cl = Z^d / im(B) is {v in N^d : v ≡ c}, the
    points c + B t >= 0 for t in Z^n.  Its degree-zero semigroup
    S0 = N^d ∩ im(B) is the image of the pointed cone C = {t : B t >= 0};
    the S0 ray generators are g = B t over the primitive rays t of C, and
    z is their sum.  ``cl`` is the CokernelForm of B, whose reduced Smith
    coordinates key the classes, and ``facets`` are the rays of C, the
    facet normals of the cone that the rows of B generate.

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
    and keeps each point of a class asked for as a generator of its fiber.

    Every element s of the Hilbert basis is a ray generator or lies in the
    half-open zonotope {sum l_i g_i : 0 <= l_i < 1} (if l_i >= 1, s - g_i
    is in S0), so 0 <= s <= z and the walk for S0 is capped at z; it keeps
    no fiber.  ``fibers`` walks again, capped at the proven boxes of the
    classes asked for.  When Cl is finite (d = n), the one vertex map has
    K = den I, so every box is z.  ``walk`` can also stop at the first
    points of chosen classes, which is how `quiver.build_quiver` finds the
    arrows out of a vertex.
    """

    def __init__(self, B, cl, facets):
        self.B = [list(row) for row in B]
        self.d = len(B)
        self.n = len(B[0]) if B else 0
        if rank(self.B) != self.n:
            raise InternalError("embedding matrix must have full column rank")
        self.z = tuple(map(sum, zip(*[mat_vec(self.B, t) for t in facets])))
        if not self.z or min(self.z) <= 0:
            raise InternalError("no strictly positive degree-zero section")
        # (S, K, den) for each n independent rows S of B: see box
        self.vertex_maps = []
        for S in combinations(range(self.d), self.n):
            B_S = [self.B[i] for i in S]
            if rank(B_S) == self.n:
                adj, det = adjugate(B_S)
                K = [vscale(1 if det > 0 else -1, row) for row in mat_mul(self.B, adj)]
                self.vertex_maps.append((S, K, abs(det)))
        self._key = cl.coordinates
        self._moduli = cl.moduli
        self._steps = [cl.coordinates(tuple(int(i == k) for i in range(self.d)))
                       for k in range(self.d)]
        self._fibers = {}  # class key -> sorted generators of its fiber
        self.s0_hilbert = self.walk(self.z)[1]

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
        every coordinate.  The walk is capped at the componentwise max of
        these boxes over the classes, so for each of them it keeps every
        generator, and every point it keeps is one.
        """
        keys = [self._key(c) for c in classes]
        todo = {k: tuple(c) for k, c in zip(keys, classes) if k not in self._fibers}
        if todo:
            zero = self.images((0,) * self.d)
            cap = tuple(map(max, zip(*[self.box(self.images(c), zero)
                                       for c in todo.values()])))
            found = self.walk(cap, set(todo))[0]
            self._fibers.update((k, sorted(v)) for k, v in found.items())
        return [self._fibers[k] for k in keys]

    def images(self, c):
        """The image v_S(c) of c under each vertex map (S, K, den) (see box)."""
        return [vsub(vscale(den, c), mat_vec(K, [c[i] for i in S]))
                for S, K, den in self.vertex_maps]

    def box(self, images, base):
        """z plus the floor of the max over V of c + B t: the cap of the
        generators of class c (see fibers), from the images of c + b and b.
        Where the rows S are tight, t = -B_S^{-1} c_S and den (c + B t) =
        den c - K c_S = v_S(c), den = |det B_S|, K = sign(det B_S) B adj(B_S);
        v_S is linear, so v_S(c) = v_S(c + b) - v_S(b)."""
        cap = self.z
        for (_, _, den), v, u in zip(self.vertex_maps, images, base):
            v = vsub(v, u)
            if min(v) >= 0:
                cap = tuple(max(a, x // den + b) for a, x, b in zip(cap, v, self.z))
        return cap

    def walk(self, cap, wanted=(), stop=frozenset()):
        """Walk D ∩ [0, cap] by total degree and return (found, hilbert):
        the points of each class key in wanted or in stop,
        and the class-0 points whose predecessors were all walked (with no
        stop, the Hilbert basis of S0).

        A point whose key is in stop is found but not extended, and no
        point above it is walked: a w >= u with w != u has a predecessor
        w - e_j >= u, which by induction on the degree is not walked.  So
        the walk finds what it would find without stop, less the points
        strictly above a point of a stop key.

        A point w is reached once, from w - e_k for its last nonzero
        coordinate k, and each point is also coded by the integer
        sum w_k P_k in the mixed radix P of the box, so that its
        predecessors are found by subtraction.  _BOX_LIMIT bounds the
        points extended."""
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
                if key in wanted:
                    found.setdefault(key, []).append(v)
                support = [j for j in range(d) if v[j]]
                for k in range(support[-1] if support else 0, d):
                    if v[k] == cap[k]:
                        continue
                    w_code = code + place[k]
                    for j in support:
                        if j != k and w_code - place[j] not in level:
                            break
                    else:  # every predecessor is walked
                        key_w = tuple([(a + b) % m if m else a + b
                                       for a, b, m in zip(key, steps[k], moduli)])
                        w = v[:k] + (v[k] + 1,) + v[k + 1:]
                        if not any(key_w):
                            hilbert.append(w)
                            continue
                        if key_w in stop:
                            found.setdefault(key_w, []).append(w)
                            continue
                        walked += 1
                        if walked > _BOX_LIMIT:
                            raise InputError(f"staircase walk visits more than "
                                            f"_BOX_LIMIT = {_BOX_LIMIT} points")
                        up[w_code] = (w, key_w)
            level = up
        return found, sorted(hilbert)
