"""Gorenstein affine toric varieties and collections of rank-one sheaves.

A variety is given by the primitive ray generators of a full-dimensional
pointed cone sigma in N = Z^n.  The class group is the cokernel of the
embedding M -> Z^d, u |-> (<u, v_rho>)_rho, whose matrix B has the rays as
rows.  Sections of Hom(E_i, E_j) are the minimal generators of the fiber
of the class difference.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import lcm
from typing import NamedTuple

from .cones import FiberContext, dual_cone_rays
from .errors import InputError, InternalError
from .intlinalg import (
    CokernelForm,
    is_zero,
    kernel_basis,
    lattice_basis,
    left_inverse,
    mat_vec,
    primitive,
    rank,
    vadd,
    vsub,
)


class GorensteinToricVariety:
    """Affine Gorenstein toric variety from primitive ray generators.

    ``rays``, ``B`` (the same tuple) and ``facets`` are tuples of tuples,
    so a variety shared by `toric_variety` cannot be changed in place."""

    def __init__(self, rays):
        rays = tuple(map(tuple, rays))
        if not rays:
            raise InputError("no rays")
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise InputError("rays of mixed dimension")
        if len(set(rays)) != len(rays):
            raise InputError("rays must be pairwise distinct")
        for r in rays:
            if is_zero(r) or primitive(r) != r:
                raise InputError(f"ray {r} is not primitive")
        if rank(rays) != n:
            raise InputError("cone is not full-dimensional")
        # facet normals of the cone, the rays of its dual
        self.facets = tuple(map(tuple, dual_cone_rays(rays)))
        if rank(self.facets) != n:
            raise InputError("cone is not pointed (contains a line)")
        if dual_cone_rays(self.facets) != sorted(rays):
            raise InputError("input rays are not the extremal rays of their cone")
        self.rays = rays
        self.n = n
        self.d = len(rays)
        # deg: Z^d -> Cl(X) = coker(B), B rows = rays
        self.B = rays
        self.cl = CokernelForm(self.B)
        # B has full column rank, so u with B u = 1 is unique if it exists,
        # and then it is the left inverse applied to 1
        N, det = left_inverse(self.B)
        u = tuple(sum(row) // det for row in N)
        if mat_vec(self.B, u) != (1,) * self.d:
            raise InputError("not Gorenstein: no covector with <u, v_rho> = 1 for all rays")
        self.gorenstein_covector = u
        self._fiber_ctx = None

    # -- degrees ------------------------------------------------------------

    def divisor_class(self, v):
        """Canonical representative of the class of the divisor sum v in N^d."""
        return self.cl.canonical(v)

    def class_of_difference(self, vi, vj):
        """Class of E_j - E_i given divisor representatives."""
        return self.cl.canonical(vsub(vj, vi))

    @property
    def fiber_context(self):
        if self._fiber_ctx is None:
            self._fiber_ctx = FiberContext(self.B, self.cl, self.facets)
        return self._fiber_ctx

    def hom_sections(self, c):
        """Minimal generators of the fiber of the class (rep) c, sorted."""
        return self.fiber_context.fibers([c])[0]

    def section_semigroup_hilbert_basis(self):
        """Hilbert basis of the degree-zero semigroup N^d ∩ ker(deg)."""
        return list(self.fiber_context.s0_hilbert)


def toric_variety(rays):
    """The variety of these rays in their given order, with its fiber
    context, built once for each of the 8 ray lists used last and shared
    by all its callers, so they must not change it; a rejected list raises."""
    return _shared_variety(tuple(map(tuple, rays)))


_shared_variety = lru_cache(maxsize=8)(GorensteinToricVariety)
toric_variety.cache_clear = _shared_variety.cache_clear


class WeilClass(NamedTuple):
    """A divisor class: a chosen representative plus its canonical form."""

    representative: tuple
    canonical: tuple

    @staticmethod
    def of(X, v):
        return WeilClass(representative=tuple(v), canonical=tuple(X.divisor_class(v)))


class Collection:
    """An ordered list of pairwise distinct divisor classes, first trivial."""

    def __init__(self, X, representatives):
        self.X = X
        self.classes = [WeilClass.of(X, v) for v in representatives]
        if not self.classes:
            raise InputError("empty collection")
        if not is_zero(self.classes[0].canonical):
            raise InputError("collection must start with the trivial class")
        seen = set()
        for c in self.classes:
            if c.canonical in seen:
                raise InputError("collection classes must be pairwise distinct")
            seen.add(c.canonical)

    def __len__(self):
        return len(self.classes)

    def difference(self, i, j):
        """Canonical class of E_j - E_i."""
        return self.X.class_of_difference(
            self.classes[i].representative, self.classes[j].representative)


# ---------------------------------------------------------------------------
# abelian quotient singularities


class AbelianGroupData(NamedTuple):
    """A finite abelian subgroup of the diagonal torus of GL(n)."""

    generators: tuple  # tuple of (order, weights) pairs
    n: int

    @staticmethod
    def cyclic(order, weights):
        return AbelianGroupData(generators=((order, tuple(weights)),), n=len(weights))

    def elements(self):
        """All group elements as exponent tuples over the generators."""
        ranges = [range(g[0]) for g in self.generators]
        return list(product(*ranges))

    def order(self):
        k = 1
        for order, _ in self.generators:
            k *= order
        return k

    def actions(self):
        """The diagonal action of each element as n powers of a primitive
        L-th root of unity, L the lcm of the orders: on coordinate i the
        element e acts by the power sum_k e_k w_ki (L / o_k) mod L."""
        L = lcm(*(order for order, _ in self.generators))
        return [tuple(sum(e * weights[i] * (L // order) for e, (order, weights)
                          in zip(exponents, self.generators)) % L
                      for i in range(self.n))
                for exponents in self.elements()]

    def is_small(self):
        """True if the group contains no quasireflection."""
        return all(sum(1 for p in act if p) != 1 for act in self.actions())

    def in_sl(self):
        for order, weights in self.generators:
            if sum(weights) % order != 0:
                return False
        return True

    def character(self, v):
        """Character of a monomial exponent vector, as residues per generator."""
        return tuple(sum(w * x for w, x in zip(weights, v)) % order
                     for order, weights in self.generators)


def mckay_toric_data(group):
    """Toric data (variety, collection) for X = A^n / G, G abelian in SL(n).

    M is the lattice of G-invariant characters inside Z^n; the rays of the
    quotient cone are the images of the coordinate functionals, i.e. the
    rows of a basis matrix of M.  The collection consists of one divisor
    class per character of G.
    """
    if not group.in_sl():
        raise InputError("group is not a subgroup of SL(n)")
    if not group.is_small():
        raise InputError("group contains quasireflections")
    if len(set(group.actions())) != group.order():
        raise InputError("group does not act faithfully: distinct elements "
                         "act alike")
    n = group.n
    # M = kernel of the character map Z^n -> prod Z/o_k
    rows = []
    aug = []
    for order, weights in group.generators:
        rows.append(list(weights))
        aug.append(order)
    # solutions of W u = diag(o) y: kernel of [W | -diag(o)] projected to u
    k = len(rows)
    big = [rows[i] + [-(aug[i] if i == j else 0) for j in range(k)] for i in range(k)]
    kb = [v[:n] for v in kernel_basis(big)]
    basis = lattice_basis(kb, n)
    if len(basis) != n:
        raise InternalError("invariant lattice has unexpected rank")
    # columns of B_M are the basis vectors; rays are the rows of B_M
    B_M = [[basis[j][i] for j in range(n)] for i in range(n)]
    rays = [tuple(row) for row in B_M]
    for r in rays:
        if primitive(r) != r:
            raise InternalError("non-primitive ray; group not small")
    X = GorensteinToricVariety(rays)
    # one representative per character, the lex-least of least degree:
    # level L maps each character c of degree L to lexmin(c, L) =
    # min_k lexmin(c - w_k, L - 1) + e_k.  The characters of degree <= L
    # grow until closed under each + w_k; the w_k generate the dual group
    # (G acts faithfully), so |G| - 1 levels reach them all
    order, zero = group.order(), (0,) * n
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    level = {group.character(zero): zero}
    reps = dict(level)
    for _ in range(order - 1):
        if len(reps) == order:
            break
        level, previous = {}, level
        for v in previous.values():
            for u in (vadd(v, e) for e in units):
                c = group.character(u)
                if c not in level or u < level[c]:
                    level[c] = u
        for c, u in level.items():
            reps.setdefault(c, u)
    if len(reps) != order:
        raise InternalError("characters unreached in |G| - 1 levels")
    # identity character first, then by representative degree, then lex
    ordered = sorted(reps.values(), key=lambda v: (sum(v), v))
    collection = Collection(X, ordered)
    return X, collection
