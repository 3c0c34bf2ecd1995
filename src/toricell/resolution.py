"""Cellular bimodule resolutions over a toric cell complex.

Each k-cell eta contributes the projective bimodule A.e_{h(eta)} (x) eta
(x) e_{t(eta)}.A; the differential sends eta to the signed sum over its
facets of (left class) . facet . (right class).  Graded pieces are the
finite slices at a fixed (source vertex, target vertex, divisor), where
the differentials become integer matrices and exactness is a rank
computation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .complexes import mckay_complex, solve_gf2
from .errors import ConstructionError, InputError, InternalError
from .intlinalg import is_zero, leq, sparse_rank


class CellularResolution:
    """A toric cell complex with a fixed incidence sign assignment."""

    def __init__(self, complex_, signs):
        self.complex = complex_
        self.Q = complex_.Q
        self.n = complex_.n
        self.signs = signs
        # cell id -> (facet, left class, sign) per facet incidence
        self.facets = {
            c.id: [(inc.facet, inc.left, signs[inc])
                   for inc in complex_.facet_incidences(c.id)]
            for c in complex_.cells}

    def generator_counts(self):
        return self.complex.counts()


def build_resolution(complex_, signs=None):
    if signs is None:
        sol = complex_.solve_incidence()
        if not sol.feasible:
            raise ConstructionError(
                f"no incidence function exists: {sol.certificate}")
        signs = sol.signs
    else:
        complex_.verify_signs(signs)
    return CellularResolution(complex_, signs)


def verify_square_zero(res):
    """d.d = 0 at the symbolic level (`ToricCellComplex.sign_failure`)."""
    if failure := res.complex.sign_failure(res.signs):
        raise ConstructionError(failure)
    return True


def verify_minimality(res):
    """The resolution is minimal iff no differential entry is a unit,
    i.e. no incidence has both derivative classes trivial."""
    bad = []
    for inc in res.complex.incidences:
        if is_zero(inc.left) and is_zero(inc.right):
            bad.append(inc)
    return MinimalityReport(minimal=not bad, unit_incidences=bad)


@dataclass
class MinimalityReport:
    minimal: bool
    unit_incidences: list


# ---------------------------------------------------------------------------
# graded pieces
#
# A basis triple (eta, dL, dR) of P_k at (s, t, dvec) is a k-cell eta with
# a path of class dL from h(eta) to s and one of class dR from t to t(eta),
# where dL + div(eta) + dR = dvec.  Bases list cells by dimension in cell
# order, then dL in lexicographic order.  Triples compose to a path from
# t to s of class dvec, so only the classes of such paths carry a nonzero
# piece.  Within one piece the cell and dL of a triple determine its dR,
# so inside this module a basis triple is the int eta << shift | dL.


class _Packing:
    """The divisor vectors of one sweep over the pieces with divisor
    <= bound, each as a single int.

    Coordinate i takes a field of w bits, coordinate 0 the highest, so
    int order is lexicographic order.  No field of the sweep exceeds
    2 * bound_i + slack, reached by dL + div(eta) + dR with dL, dR <=
    bound and slack the largest cell-divisor entry, and w is one bit more
    than that value needs.  So the top bit of every field, its guard bit,
    stays clear: vectors add as ints with no carry between fields, and x
    <= y componentwise iff ((y | H) - x) & H == H for H the guard bits,
    as a field of x above y's borrows its guard bit and no other does.
    A cell id sits above the shift = d * w bits of a vector.
    """

    def __init__(self, bound, slack):
        self.w = w = (2 * max(bound) + slack).bit_length() + 1
        self.shift = len(bound) * w
        # the lowest bit of each field, coordinate 0 first
        self.fields = range(self.shift - w, -1, -w)
        self.bound = tuple(bound)
        self.H = self.pack([1 << (w - 1)] * len(bound))
        self.B = self.pack(bound)

    def pack(self, v):
        x = 0
        for a in v:
            x = x << self.w | a
        return x

    def unpack(self, x):
        mask = (1 << self.w) - 1
        return tuple([x >> f & mask for f in self.fields])

    def leq(self, x, y):
        """Componentwise x <= y."""
        return ((y | self.H) - x) & self.H == self.H

    def split(self, x):
        """(eta, dL) of the basis triple x = eta << shift | dL."""
        return x >> self.shift, x & ((1 << self.shift) - 1)


def _packing(complex_, bound):
    return _Packing(bound, max(x for c in complex_.cells for x in c.divisor))


def _packed_facets(res, pk):
    """Per cell id, (delta, sign) for each facet incidence, where delta =
    (facet - cell) << shift + left class: the triple eta << shift | dL
    plus delta is the facet's triple facet << shift | (dL + left)."""
    return [[(((facet - c.id) << pk.shift) + pk.pack(left), sign)
             for facet, left, sign in res.facets[c.id]]
            for c in res.complex.cells]


def _class_table(Q, pk):
    """{(u, v): classes}: the packed divisor classes d <= pk.bound, in
    increasing order, that a path from u to v carries."""
    table = {}
    for d in itertools.product(*[range(b + 1) for b in pk.bound]):
        x = pk.pack(d)
        for u in range(Q.n_vertices):
            for v in Q.reachable(u, d):
                table.setdefault((u, v), []).append(x)
    return table


def _pair_bases(complex_, pk, table, s, t):
    """Bases of every nonzero graded piece at (s, t) with divisor <= bound,
    as {packed dvec: [basis of P_0, ..., basis of P_n]}, from one sweep
    over the cells pairing each left class with the right classes that
    complete a triple of a piece."""
    pieces = {d: [[] for _ in range(complex_.n + 1)]
              for d in table.get((t, s), ())}
    # t(eta) << shift | (dL + div(eta)) -> the bases of the pieces that a
    # right class completes; pieces only holds divisors <= bound, and no
    # sum carries between fields, so a hit is a triple within the bound
    ends = {}
    for k in range(complex_.n + 1):
        for c in complex_.by_dim[k]:
            div = pk.pack(c.divisor)
            top = c.id << pk.shift
            end = c.tail << pk.shift
            rights = table.get((t, c.tail), ())
            for dL in table.get((c.head, s), ()):
                low = dL + div
                fits = ends.get(end | low)
                if fits is None:
                    fits = ends[end | low] = [
                        basis for dR in rights
                        if (basis := pieces.get(low + dR)) is not None]
                for basis in fits:
                    basis[k].append(top | dL)
    return pieces


def _differential(pk, facets, bases, k):
    """d_k as sparse columns {row: coeff}, one per basis triple of P_k;
    d_0 is the augmentation onto the algebra piece (one row).  facets is
    `_packed_facets` of the resolution."""
    if k == 0:
        return [{0: 1} for _ in bases[0]]
    index = dict(zip(bases[k - 1], itertools.count()))
    cols = []
    for x in bases[k]:
        col = {}
        for delta, sign in facets[x >> pk.shift]:
            i = index.get(x + delta)
            if i is None:
                # ToricCellComplex._validate proves the left and right
                # class of every incidence realizable, so the facet triple
                # (facet, dL + left, right + dR) has the piece's divisor
                # and paths on both sides: only a bug can miss the piece
                facet, dL = pk.split(x + delta)
                raise InternalError("differential leaves the graded piece "
                                    f"at {(facet, pk.unpack(dL))}")
            col[i] = col.get(i, 0) + sign
        cols.append({i: c for i, c in col.items() if c})
    return cols


def _gf2_certified(pk, facets, bases):
    """Whether the GF(2) ranks r(k) of the d_k of a piece where d.d = 0
    satisfy r(0) = 1 and r(k) + r(k+1) = dim P_k for every k.

    d_n, ..., d_1 are reduced in turn, columns as int bitsets keyed by
    their highest row.  A reduced column of d_{k+1} with pivot i is e_i
    plus lower rows, in im d_{k+1}, inside ker d_k mod 2; with the e_j of
    the other rows these form a triangular basis of P_k.  So clearing
    (Chen-Kerber's twist) skips the columns of d_k at pivot rows, and the
    identity at k holds iff none of the rest reduces to zero; at k = 0,
    iff one is left.  The guard of `_differential` runs on every column.
    """
    cleared = set()
    for k in range(len(bases) - 1, 0, -1):
        index = dict(zip(bases[k - 1], itertools.count()))
        pivots = {}
        for j, x in enumerate(bases[k]):
            rows = [index.get(x + delta) for delta, _ in facets[x >> pk.shift]]
            if None in rows:  # a bug: _differential raises naming it
                _differential(pk, facets, bases, k)
            if j in cleared:
                continue
            col = 0
            for i in rows:
                col ^= 1 << i
            while col and (top := col.bit_length()) in pivots:
                col ^= pivots[top]
            if not col:
                return False
            pivots[top] = col
        cleared = {top - 1 for top in pivots}
    return len(bases[0]) - len(cleared) == 1


@dataclass
class GradedPiece:
    """The slice of the resolution at target vertex s, source vertex t,
    divisor dvec: bases of each P_k, the differential matrices, the
    augmentation row, and the dimension of the algebra piece."""

    s: int
    t: int
    dvec: tuple
    bases: list       # bases[k] = list of (cell id, dL, dR)
    matrices: list    # matrices[k] = d_k as rows, k = 1..n; matrices[0] = aug
    dim_A: int

    def dims(self):
        return [len(b) for b in self.bases]


def graded_piece(res, s, t, dvec):
    """The graded piece at (s, t, dvec), with its differentials as dense
    integer matrices."""
    dvec = tuple(dvec)
    pk = _packing(res.complex, dvec)
    table = _class_table(res.Q, pk)
    bases = _pair_bases(res.complex, pk, table, s, t).get(pk.B)
    if bases is None:
        empty = [[] for _ in range(res.n + 1)]
        return GradedPiece(s=s, t=t, dvec=dvec, bases=empty,
                           matrices=[[[]] for _ in range(res.n + 1)], dim_A=0)
    facets = _packed_facets(res, pk)
    matrices = [[[1] * len(bases[0])]]
    for k in range(1, res.n + 1):
        rows = [[0] * len(bases[k]) for _ in range(len(bases[k - 1]))]
        for j, col in enumerate(_differential(pk, facets, bases, k)):
            for i, x in col.items():
                rows[i][j] = x
        matrices.append(rows)

    def triple(x):
        cid, dL = pk.split(x)
        dR = pk.B - pk.pack(res.complex.cells[cid].divisor) - dL
        return cid, pk.unpack(dL), pk.unpack(dR)

    return GradedPiece(s=s, t=t, dvec=dvec,
                       bases=[[triple(x) for x in basis] for basis in bases],
                       matrices=matrices, dim_A=1)


def _composes_to_zero(outer, inner):
    """d_{k-1} . d_k == 0 for sparse columns outer = d_{k-1}, inner = d_k."""
    for col in inner:
        total = {}
        for i, x in col.items():
            for r, y in outer[i].items():
                total[r] = total.get(r, 0) + x * y
        if any(total.values()):
            return False
    return True


def _piece_failures(pk, facets, bases, check_products):
    """Rank identities certifying exactness of one nonzero graded piece.

    With d_0 the augmentation and d_{n+1} = 0, the complex is exact iff
    rank d_k + rank d_{k+1} = dim P_k for 0 <= k <= n, reading
    rank d_0 = dim of the algebra piece, which is 1; the Euler
    characteristic then telescopes to rank d_0 = 1.  With check_products
    a nonzero d_{k-1}.d_k is reported first.

    The caller passes check_products whenever d.d = 0 is not known
    symbolically, so d.d = 0 holds on every piece ranked here, and GF(2)
    ranks are tried first: `_gf2_certified` skips the columns of d_k that
    clearing proves dependent.  An odd minor is nonzero, so the GF(2)
    rank r2 is at most the rational rank r; d.d = 0 gives r(k) + r(k+1)
    <= dim P_k, and d_0 has one row: the identities for r2 force those
    for r.  Pieces they do not settle get the exact `sparse_rank`.
    """
    n = len(bases) - 1
    dims = [len(b) for b in bases]
    diffs = None
    if check_products:
        diffs = [_differential(pk, facets, bases, k) for k in range(n + 1)]
        for k in range(1, n + 1):
            if not _composes_to_zero(diffs[k - 1], diffs[k]):
                return [(f"d{k - 1}.d{k}", None, None, None)]
    if _gf2_certified(pk, facets, bases):
        return []
    diffs = diffs or [_differential(pk, facets, bases, k)
                      for k in range(n + 1)]
    ranks = [sparse_rank(cols) for cols in diffs] + [0]
    failures = []
    if ranks[0] != 1:
        failures.append(("augmentation", ranks[0], 1, None))
    for k in range(n + 1):
        if ranks[k] + ranks[k + 1] != dims[k]:
            failures.append((k, ranks[k], ranks[k + 1], dims[k]))
    return failures


@dataclass
class ExactnessReport:
    exact: bool
    bound: tuple
    pieces_checked: int
    failures: list  # (s, t, dvec, detail)


# verify_exactness refuses more graded pieces (vertex pairs times divisors
# in the box) or basis triples than these.  Triples are counted as the
# (eta, dL, dR) with dL + dR <= bound - div(eta): all basis triples of an
# abelian quotient, and at least them whenever a path's tail and divisor
# fix its head.  The fourfold at bound 3 has 262,144 pieces and 32,972,288
# triples; mckay_z2_11 at bound 40 has 5,651,522 and takes 4-5 s on a
# 2-CPU machine, and 34 s at bound 63 (the guard admits bounds up to 65)
MAX_PIECES = 500_000
MAX_TRIPLES = 40_000_000


def _automorphisms(res):
    """The vertex permutations sigma, as tuples, that carry the resolution
    onto itself; the identity comes first.

    A candidate maps vertex 0 to some v and follows the arrows out of
    each vertex reached, matched by label.  It is kept only when it is a
    bijection of the vertices that maps the labelled arrows onto
    themselves, every cell onto the cell with the same dimension and
    divisor at the translated head and tail, and every facet incidence
    onto one with the same derivative classes and sign.  Where an arrow
    label repeats at a vertex, or a (dim, head, tail, divisor) key at two
    cells, a permutation may not determine the cell map, so only the
    identity is returned.
    """
    Q, C = res.Q, res.complex
    n = Q.n_vertices
    auts = [tuple(range(n))]
    by_label = [{a.label: a.head for a in out} for out in Q.out]
    cell_of = {(c.dim, c.head, c.tail, c.divisor): c.id for c in C.cells}
    if (len(cell_of) < len(C.cells)
            or any(len(m) < len(out) for m, out in zip(by_label, Q.out))):
        return auts
    arrows = sorted((a.tail, a.head, a.label) for a in Q.arrows)
    signs = res.signs
    for v in range(1, n):
        sigma = {0: v}
        todo = [0]
        while todo:
            u = todo.pop()
            image = by_label[sigma[u]]
            for label, head in by_label[u].items():
                if head not in sigma and label in image:
                    sigma[head] = image[label]
                    todo.append(head)
        if len(sigma) < n or len(set(sigma.values())) < n:
            continue
        if sorted((sigma[t], sigma[h], lab) for t, h, lab in arrows) != arrows:
            continue
        cells = [cell_of.get((c.dim, sigma[c.head], sigma[c.tail], c.divisor))
                 for c in C.cells]
        if None in cells:
            continue
        if all(signs.get((cells[i.parent], cells[i.facet], i.left, i.right))
               == signs[i] for i in C.incidences):
            auts.append(tuple(sigma[u] for u in range(n)))
    return auts


def verify_exactness(res, bound, check_products=False):
    """Check the rank identities in every graded piece with divisor
    componentwise <= bound (an integer or a vector) at every vertex pair
    (s, t).

    A piece whose divisor no path from t to s carries is zero and exact,
    so it counts as checked without work.  The pairs are swept one at a
    time, so only one pair's bases are held at once.  A request of more
    than MAX_PIECES pieces or MAX_TRIPLES basis triples is refused before
    any work.  A resolution whose signs fail `verify_square_zero` has
    every piece checked for d_{k-1}.d_k = 0, as with check_products, so
    the rank identities are only read where d.d = 0.

    Pieces are computed for one pair per orbit of the automorphisms of
    the resolution (`_automorphisms`), and their failures are copied to
    the other pairs of the orbit.  This is exact: sigma maps
    the labelled arrows onto themselves, so a path of class d runs from
    u to v iff one runs from sigma(u) to sigma(v), and the class table
    is invariant.  Hence the triples (eta, dL, dR) at (s, t, d)
    correspond one to one to the triples (sigma(eta), dL, dR) at
    (sigma(s), sigma(t), d), and since sigma maps the facet incidences
    of eta onto those of sigma(eta) with equal classes and signs, the
    differential entries agree under this correspondence.  The two
    pieces differ by a reordering of their bases, so they have the same
    dimensions, ranks, products d_{k-1}.d_k and failure details.
    `pieces_checked` counts every piece, including those
    certified by this isomorphism.
    """
    Q = res.Q
    if isinstance(bound, int):
        bound = (bound,) * Q.d
    bound = tuple(bound)
    if len(bound) != Q.d or any(b < 0 for b in bound):
        raise InputError(
            f"exactness bound must be {Q.d} nonnegative integers, got {bound}")
    n = Q.n_vertices
    pieces = n * n * math.prod(b + 1 for b in bound)
    if pieces > MAX_PIECES:
        raise InputError(
            f"exactness at bound {bound} asks for {pieces} graded pieces, "
            f"more than the limit of {MAX_PIECES}")
    triples = sum(
        math.prod(math.comb(b - x + 2, 2) for b, x in zip(bound, c.divisor))
        for c in res.complex.cells if leq(c.divisor, bound))
    if triples > MAX_TRIPLES:
        raise InputError(
            f"exactness at bound {bound} asks for up to {triples} basis "
            f"triples, more than the limit of {MAX_TRIPLES}")
    auts = _automorphisms(res)
    check_products = (check_products
                      or res.complex.sign_failure(res.signs) is not None)
    pk = _packing(res.complex, bound)
    table = _class_table(Q, pk)
    facets = _packed_facets(res, pk)
    failures = []
    covered = set()
    for s, t in itertools.product(range(n), repeat=2):
        if (s, t) in covered:
            continue
        orbit = {(g[s], g[t]) for g in auts}
        covered.update(orbit)
        for dvec, bases in _pair_bases(res.complex, pk, table, s, t).items():
            fail = _piece_failures(pk, facets, bases, check_products)
            if fail:
                dvec = pk.unpack(dvec)
                failures.extend((u, v, dvec, list(fail)) for u, v in orbit)
    failures.sort()
    return ExactnessReport(exact=not failures, bound=bound,
                           pieces_checked=pieces, failures=failures)


# ---------------------------------------------------------------------------
# closed-form signs for abelian quotients


def mckay_sign_crosscheck(group):
    """Compare the solver's incidence function on the hypercube complex of
    an abelian quotient with the closed-form (-1)^nu signs.

    Both satisfy the cancellation parity, so they differ by a global sign
    function delta on cells: solver(inc) = delta(parent) * delta(facet) *
    closed_form(inc).  The delta system is solved over GF(2) and verified.
    The graded ranks compared stay exact: mod 2 every sign is 1, so the
    GF(2) ranks of the two resolutions agree whatever the signs.
    """
    complex_ = mckay_complex(group)
    explicit = complex_.explicit_signs
    complex_.verify_signs(explicit)
    sol = complex_.solve_incidence()
    if not sol.feasible:
        raise InternalError("solver found no incidence function")
    # delta per cell: x_p + x_f = 0 or 1 according to sign agreement
    n_cells = len(complex_.cells)
    equations = []
    for inc in complex_.incidences:
        rhs = 0 if sol.signs[inc] == explicit[inc] else 1
        mask = (1 << inc.parent) ^ (1 << inc.facet)
        equations.append((mask, rhs, (inc.parent, inc.facet)))
    assignment, certificate = solve_gf2(equations, n_cells)
    if assignment is None:
        raise ConstructionError(
            f"solver and closed-form signs differ by no global sign: "
            f"{certificate}")
    delta = [(-1) ** x for x in assignment]
    for inc in complex_.incidences:
        if sol.signs[inc] != delta[inc.parent] * delta[inc.facet] * explicit[inc]:
            raise InternalError("global sign verification failed")
    # the closed-form and the solver resolution, both square-zero by
    # verify_signs, must have the same graded ranks at Q.ones
    Q = complex_.Q
    pk = _packing(complex_, Q.ones)
    table = _class_table(Q, pk)
    facets = [_packed_facets(CellularResolution(complex_, signs), pk)
              for signs in (explicit, sol.signs)]
    for s, t in itertools.product(range(Q.n_vertices), repeat=2):
        if pk.B not in table.get((t, s), ()):
            continue
        bases = _pair_bases(complex_, pk, table, s, t)[pk.B]
        ra, rb = ([sparse_rank(_differential(pk, f, bases, k))
                   for k in range(complex_.n + 1)] for f in facets)
        if ra != rb:
            raise ConstructionError(
                f"graded ranks differ at ({s}, {t}): {ra} vs {rb}")
    return delta
