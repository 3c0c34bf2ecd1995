"""The arrow lattice map pi = (inc, div), its cone, and perfect matchings.

pi sends the basis vector of an arrow a to (chi_h(a) - chi_t(a), div(a)) in
Z^{Q_0} + Z^d.  Z(Q) is the image lattice; C is the cone of functionals on
Z(Q) that are nonnegative on every arrow image.  A perfect matching is the
primitive point on a one-dimensional face of C, and the extremal matching
attached to a ray rho of sigma has values(a) = multiplicity of x_rho in the
label of a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import dual_cone_rays
from .errors import InputError, InternalError
from .intlinalg import (
    dot,
    from_columns,
    is_zero,
    lattice_basis,
    leq,
    primitive,
    rank,
    solve_integer,
    vsub,
)


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
        self.columns = cols
        self.basis = lattice_basis(cols, self.ambient)
        self.rank = len(self.basis)
        mat = from_columns(self.basis, self.ambient)
        coords = []
        for c in cols:
            t = solve_integer(mat, c)
            if t is None:
                raise InternalError("arrow image outside the lattice basis")
            coords.append(tuple(t))
        self.coords = coords
        if Q.X is not None and self.rank != Q.X.n + nv - 1:
            raise InputError(
                f"rank of Z(Q) is {self.rank}, expected n + r = {Q.X.n + nv - 1}")

    def pair(self, functional, arrow_idx):
        """Value of a dual-coordinate functional on pi(chi_a)."""
        return dot(functional, self.coords[arrow_idx])


@dataclass(frozen=True)
class PerfectMatching:
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
    A = [list(c) for c in pi.coords]
    w = solve_integer(A, vals)
    if w is None:
        raise InternalError("extremal functional is not integral on Z(Q)")
    w = tuple(w)
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


def _minimal_generators(divisors):
    """Elements of the set not expressible as a sum of two nonzero semigroup
    elements, the semigroup being generated by the set itself.

    The divisors lie in N^d, so subtracting a nonzero generator always
    descends; membership is decided from an explicit stack, children
    before parents, as in QuiverOfSections.reachable.
    """
    gens = sorted(set(divisors))
    memo = {}

    def in_semigroup(v):
        stack = [v]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
                continue
            subs = [vsub(w, g) for g in gens if not is_zero(g) and leq(g, w)]
            if is_zero(w) or any(memo.get(u) for u in subs):
                memo[w] = True
            else:
                missing = [u for u in subs if u not in memo]
                if missing:
                    stack.extend(missing)
                    continue
                memo[w] = False
            stack.pop()
        return memo[v]

    out = []
    for d in gens:
        reducible = False
        for g in gens:
            if not is_zero(g) and g != d and leq(g, d):
                rest = vsub(d, g)
                if not is_zero(rest) and in_semigroup(rest):
                    reducible = True
                    break
        if not reducible:
            out.append(d)
    return out


@dataclass
class WeightZeroReport:
    matches: bool
    cycle_generators: list   # minimal generators of div(N(Q) ∩ ker pi_1)
    semigroup_basis: list    # Hilbert basis of N^d ∩ ker(deg)


def weight_zero_check(Q):
    """Compare the weight-zero slice of N(Q) with the section semigroup.

    The slice N(Q) ∩ ker(pi_1) is generated by the images of simple directed
    cycles, and its second projection should be the semigroup N^d ∩ ker(deg)
    with matching minimal generators.
    """
    if Q.X is None:
        raise InputError("quiver has no attached variety")
    cycle_divs = [Q.path_div(c) for c in simple_cycles(Q)]
    gens = _minimal_generators(cycle_divs)
    hb = sorted(tuple(v) for v in Q.X.section_semigroup_hilbert_basis())
    return WeightZeroReport(matches=gens == hb, cycle_generators=gens,
                            semigroup_basis=hb)
