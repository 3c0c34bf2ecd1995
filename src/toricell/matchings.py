"""The arrow lattice map pi = (inc, div), its cone, and perfect matchings.

pi sends the basis vector of an arrow a to (chi_h(a) - chi_t(a), div(a)) in
Z^{Q_0} + Z^d.  Z(Q) is the image lattice; C is the cone of functionals on
Z(Q) that are nonnegative on every arrow image.  A perfect matching is the
primitive point on a one-dimensional face of C, and the extremal matching
attached to a ray rho of sigma has values(a) = multiplicity of x_rho in the
label of a.
"""

from __future__ import annotations

from typing import NamedTuple

from .cones import dual_cone_rays
from .errors import InputError
from .intlinalg import dot, echelon_coordinates, lattice_basis, primitive, rank


class PiMap:
    """The map pi with a chosen basis of the image lattice Z(Q)."""

    def __init__(self, Q):
        self.Q = Q
        nv, d = Q.n_vertices, Q.d
        self.ambient = nv + d
        cols = []
        for a in Q.arrows:
            inc = [0] * nv
            inc[a.head] += 1
            inc[a.tail] -= 1
            cols.append(tuple(inc) + tuple(a.label))
        self.basis = lattice_basis(cols, self.ambient)
        self.rank = len(self.basis)
        self.coords = [echelon_coordinates(self.basis, c) for c in cols]
        if Q.X is not None and self.rank != Q.X.n + nv - 1:
            raise InputError(
                f"rank of Z(Q) is {self.rank}, expected n + r = {Q.X.n + nv - 1}")

    def pair(self, functional, arrow_idx):
        """Value of a dual-coordinate functional on pi(chi_a)."""
        return dot(functional, self.coords[arrow_idx])


class PerfectMatching(NamedTuple):
    """A primitive functional spanning a one-dimensional face of C."""

    functional: tuple  # coordinates in the dual basis of the Z(Q) basis
    values: tuple      # value on pi(chi_a), per arrow id
    extremal_ray: object = None  # ray index of sigma, when extremal

    @property
    def support(self):
        return frozenset(i for i, v in enumerate(self.values) if v > 0)


def _values(pi, w):
    return tuple(pi.pair(w, a.idx) for a in pi.Q.arrows)


def extremal_matching(Q, rho, pi=None):
    """The matching Pi_rho with values(a) = <chi_rho, div(a)>, certified.

    The certificate that the functional spans a one-dimensional face of C:
    it is primitive, nonnegative on every arrow image, and the arrow images
    it annihilates span a hyperplane in Z(Q).
    """
    if pi is None:
        pi = PiMap(Q)
    if not 0 <= rho < Q.d:
        raise InputError("ray index out of range")
    vals = tuple(a.label[rho] for a in Q.arrows)
    # the coordinate x_rho of the ambient Z^{Q_0} + Z^d, read in the basis
    w = tuple(b[Q.n_vertices + rho] for b in pi.basis)
    if primitive(w) != w:
        raise InputError(f"extremal matching for ray {rho} is not primitive")
    tight = [pi.coords[i] for i, v in enumerate(vals) if v == 0]
    if rank([list(t) for t in tight]) != pi.rank - 1:
        raise InputError(
            f"functional of ray {rho} does not span a one-dimensional face of C")
    return PerfectMatching(functional=w, values=vals, extremal_ray=rho)


def perfect_matchings(Q, pi=None):
    """All perfect matchings of Q: the rays of C, with extremal ones tagged."""
    if pi is None:
        pi = PiMap(Q)
    gens = [list(c) for c in pi.coords]
    rays = dual_cone_rays(gens)
    extremal = {}
    for rho in range(Q.d):
        m = extremal_matching(Q, rho, pi=pi)
        extremal[m.functional] = rho
    out = []
    for w in rays:
        w = tuple(w)
        out.append(PerfectMatching(functional=w, values=_values(pi, w),
                                   extremal_ray=extremal.get(w)))
    found = {m.functional for m in out}
    missing = [rho for w, rho in extremal.items() if w not in found]
    if missing:
        raise InputError(f"extremal matchings for rays {missing} are not rays of C")
    return out


# ---------------------------------------------------------------------------
# the weight-zero slice of N(Q)


def simple_cycles(Q):
    """Simple directed cycles of Q as arrow-id tuples, least vertex first.

    Each root's cycles come from a depth-first walk with an explicit
    stack over paths whose other vertices are larger than the root, so
    long cycles cannot exhaust Python's recursion limit.
    """
    out = []
    for root in range(Q.n_vertices):
        path = []
        on_path = {root}
        stack = [iter(Q.out[root])]
        while stack:
            for a in stack[-1]:
                if a.head == root:
                    out.append(tuple(path) + (a.idx,))
                elif a.head > root and a.head not in on_path:
                    path.append(a.idx)
                    on_path.add(a.head)
                    stack.append(iter(Q.out[a.head]))
                    break
            else:
                stack.pop()
                if path:
                    on_path.discard(Q.arrows[path.pop()].head)
    return out


class WeightZeroReport(NamedTuple):
    matches: bool
    missing: list            # Hilbert basis elements no simple cycle reaches
    off_slice: list          # simple-cycle divisors of nonzero class
    semigroup_basis: list    # Hilbert basis of N^d ∩ ker(deg)


def weight_zero_check(Q):
    """Compare the weight-zero slice of N(Q) with the section semigroup.

    The slice N(Q) ∩ ker(pi_1) is generated by the images of simple directed
    cycles; their divisors G generate a semigroup T in N^d, whose minimal
    generators irr(T) should be the Hilbert basis HB(S0) of the semigroup
    S0 = N^d ∩ ker(deg).  That holds iff every g in G has class 0 and
    HB(S0) ⊆ G.  If so, T ⊆ S0 and T contains HB(S0), which generates S0,
    so T = S0.  Conversely, each g in G is a sum of elements of irr(T) =
    HB(S0), so it lies in S0; and irr(T) lies in every generating set of
    T, G included.  (Labels are nonzero, so 0 is not in G.)  The check is
    therefore two set tests; ``missing`` and ``off_slice`` say which one
    fails.
    """
    X = Q.X
    cycle_divs = {Q.path_div(c) for c in simple_cycles(Q)}
    hb = sorted(tuple(v) for v in X.section_semigroup_hilbert_basis())
    missing = [v for v in hb if v not in cycle_divs]
    off_slice = sorted(g for g in cycle_divs if any(X.cl.coordinates(g)))
    return WeightZeroReport(matches=not missing and not off_slice,
                            missing=missing, off_slice=off_slice,
                            semigroup_basis=hb)
