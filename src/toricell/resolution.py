"""Cellular bimodule resolutions over a toric cell complex.

Each k-cell eta contributes the projective bimodule A.e_{h(eta)} (x) eta
(x) e_{t(eta)}.A; the differential sends eta to the signed sum over its
facets of (left class) . facet . (right class).  Graded pieces are the
finite slices at a fixed (source vertex, target vertex, divisor), where
the differentials become integer matrices and exactness is a rank
computation.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .complexes import mckay_complex
from .errors import ConstructionError, InputError, InternalError
from .intlinalg import Packing, is_zero, leq, sparse_rank, vsub


class CellularResolution:
    """A toric cell complex with a fixed incidence sign assignment and its
    `ToricCellComplex.sign_failures`, found once (none for `solved_signs`)."""

    def __init__(self, complex_, signs):
        self.complex = complex_
        self.Q = complex_.Q
        self.n = complex_.n
        self.signs = signs
        self.sign_failures = () if signs is complex_.solved_signs is not None \
            else tuple(complex_.sign_failures(signs))


def build_resolution(complex_, signs=None):
    if signs is None:
        sol = complex_.solve_incidence()
        if not sol.feasible:
            raise ConstructionError(f"no incidence function exists: {sol.certificate}")
        signs = sol.signs
    res = CellularResolution(complex_, signs)
    verify_square_zero(res)
    return res


def verify_square_zero(res):
    """d.d = 0 at the symbolic level: raise on the first sign failure."""
    if res.sign_failures:
        raise ConstructionError(res.sign_failures[0][1])
    return True


def verify_minimality(res):
    """The resolution is minimal iff no differential entry is a unit,
    i.e. no incidence has both derivative classes trivial."""
    bad = [inc for inc in res.complex.incidences
           if is_zero(inc.left) and is_zero(inc.right)]
    return MinimalityReport(minimal=not bad, unit_incidences=bad)


class MinimalityReport(NamedTuple):
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


def _packing(complex_, bound):
    """A triple's dL + div(eta) + dR has entries <= 2 * bound + the
    largest cell-divisor entry; a cell id is the tag above a vector."""
    return Packing(bound, max(x for c in complex_.cells for x in c.divisor))


def _packed_facets(res, pk, one_sided=False):
    """Per cell id, (delta, sign) for each facet incidence, or each one of
    right class 0 if one_sided, where delta = (facet - cell) << shift +
    left class: the triple eta << shift | dL plus delta is the facet's
    triple facet << shift | (dL + left)."""
    C = res.complex
    return [[(((i.facet - c.id) << pk.shift) + pk.pack(i.left), res.signs[i])
             for i in C.facet_incidences(c.id)
             if not (one_sided and any(i.right))]
            for c in C.cells]


def _off_piece(pk, y):
    """The message for a facet triple y outside its piece: the classes of
    every incidence are validated, so only a bug can lead there."""
    facet, dL = pk.split(y)
    return f"differential leaves the graded piece at {(facet, pk.unpack(dL))}"


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
                raise InternalError(_off_piece(pk, x + delta))
            col[i] = col.get(i, 0) + sign
        cols.append({i: c for i, c in col.items() if c})
    return cols


def _gf2_cokernel(pk, offsets, bases):
    """dim P_0 - r(1) if r(k) + r(k+1) = dim P_k for every k >= 1, else
    None: with an augmentation of rank a, the identities hold at every k
    iff this is a.

    d_n, ..., d_1 are reduced in turn, columns as int bitsets keyed by
    their highest row.  A reduced column of d_{k+1} with pivot i is e_i
    plus lower rows, in im d_{k+1}, inside ker d_k mod 2; with the e_j of
    the other rows these form a triangular basis of P_k.  So clearing
    (Chen-Kerber's twist) skips the columns of d_k at pivot rows, and the
    identity at k >= 1 holds iff none of the rest reduces to zero.  The
    guard of `_differential` runs on every column.
    """
    shift, cleared = pk.shift, set()
    try:
        for k in range(len(bases) - 1, 0, -1):
            index = dict(zip(bases[k - 1], itertools.count()))
            pivots = {}
            for j, x in enumerate(bases[k]):
                col = 0
                for delta in offsets[x >> shift]:
                    col ^= 1 << index[x + delta]
                if j in cleared:
                    continue
                while col and (top := col.bit_length()) in pivots:
                    col ^= pivots[top]
                if not col:
                    return None
                pivots[top] = col
            cleared = {top - 1 for top in pivots}
    except KeyError as miss:
        raise InternalError(_off_piece(pk, miss.args[0])) from None
    return len(bases[0]) - len(cleared)


class GradedPiece(NamedTuple):
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
    integer matrices; its triples are found by `Q.path_exists`."""
    dvec, Q = tuple(dvec), res.Q
    pk = _packing(res.complex, dvec)
    triples = [[] for _ in range(res.n + 1)]
    if not Q.path_exists(t, s, dvec):
        return GradedPiece(s=s, t=t, dvec=dvec, bases=triples,
                           matrices=[[[]] for _ in range(res.n + 1)], dim_A=0)
    for c in res.complex.cells:
        low = vsub(dvec, c.divisor)
        for dL in itertools.product(*(range(x + 1) for x in low)):
            dR = vsub(low, dL)
            if Q.path_exists(c.head, s, dL) and Q.path_exists(t, c.tail, dR):
                triples[c.dim].append((c.id, dL, dR))
    bases = [[c << pk.shift | pk.pack(dL) for c, dL, _ in b] for b in triples]
    facets = _packed_facets(res, pk)
    matrices = [[[1] * len(bases[0])]]
    for k in range(1, res.n + 1):
        rows = [[0] * len(bases[k]) for _ in range(len(bases[k - 1]))]
        for j, col in enumerate(_differential(pk, facets, bases, k)):
            for i, x in col.items():
                rows[i][j] = x
        matrices.append(rows)
    return GradedPiece(s=s, t=t, dvec=dvec, bases=triples, matrices=matrices,
                       dim_A=1)


def _rank_failures(pk, facets, bases, aug):
    """The rank identities of a piece that fail, with exact ranks, for an
    augmentation onto a space of dimension aug (0 or 1) that sends each
    basis element of P_0 to its basis vector."""
    n = len(bases) - 1
    ranks = [min(aug, len(bases[0]))] + [
        sparse_rank(_differential(pk, facets, bases, k))
        for k in range(1, n + 1)] + [0]
    failures = []
    if ranks[0] != aug:
        failures.append(("augmentation", ranks[0], aug, None))
    for k in range(n + 1):
        if ranks[k] + ranks[k + 1] != len(bases[k]):
            failures.append((k, ranks[k], ranks[k + 1], len(bases[k])))
    return failures


class ExactnessReport(NamedTuple):
    exact: bool
    bound: tuple
    pieces_checked: int
    failures: list  # (s, t, dvec, detail)


# verify_exactness refuses more graded pieces (vertex pairs times divisors
# in the box) or one-sided basis elements than these.  Basis elements are
# counted as the (eta, dL) with dL <= bound - div(eta) over the cells; a
# path's tail and divisor fix its head, so each lies in at most one piece
# of P (x)_A A_0.  The fourfold at bound 3 has 262,144 pieces and 204,140
# elements, and mckay_z2_11 at bound 352, the largest MAX_PIECES admits,
# 498,436 and 994,050.  A hand-written quiver with many cells per vertex
# pair can still pass MAX_TRIPLES.
MAX_PIECES = 500_000
MAX_TRIPLES = 40_000_000


def _gauge(complex_, a, b):
    """(delta, conflicts) for sign functions a, b on the incidences: delta
    is +1 on the 0-cells and a(i) b(i) delta(facet) on the first facet
    incidence i of each higher cell, by increasing dimension; conflicts
    are the i with a(i) != delta(parent) delta(facet) b(i).  A gauge from
    b to a that is +1 on the 0-cells must take these values, so it exists
    iff there are no conflicts.  A cell with no facet keeps +1, which can
    only add conflicts."""
    cells, incs = complex_.cells, complex_.incidences
    first = {}
    for i in incs:
        first.setdefault(i.parent, i)
    delta = [1] * len(cells)
    for i in sorted(first.values(), key=lambda i: cells[i.parent].dim):
        delta[i.parent] = a[i] * b[i] * delta[i.facet]
    return delta, [i for i in incs
                   if a[i] != delta[i.parent] * delta[i.facet] * b[i]]


def _automorphisms(res):
    """The vertex maps of Q's translations, identity first, if the signs
    are a gauge transform delta(parent) delta(facet) E of the complex's
    closed-form signs E, delta +1 on the 0-cells (`_gauge`); else, as for
    a complex without E, the identity alone.

    Each translation sigma acts on the cells by (j, S) -> (sigma(j), S)
    and keeps E (`ToricCellComplex.explicit_signs`), so, as delta^2 = 1,
    signs . sigma = (delta . sigma)(parent) (delta . sigma)(facet) E
    = delta'(parent) delta'(facet) signs with delta' = (delta . sigma)
    delta.  sigma maps 0-cells to 0-cells, so delta' is +1 on them: each
    translation carries the signs to a gauge transform of themselves that
    is +1 on the 0-cells, as `verify_exactness` needs.  One gauge check
    certifies them all; signs that are E itself need none."""
    C, E = res.complex, res.complex.explicit_signs
    if E is None or res.signs is not E and _gauge(C, res.signs, E)[1]:
        return [tuple(range(res.Q.n_vertices))]
    return [sigma for sigma, _ in res.Q.translations]


def _one_sided_failures(res, pk, auts):
    """(s, t, d, detail) for each piece of P (x)_A A_0 -> A_0 at divisor
    d <= pk.bound that is not exact, detail its failed rank identities.

    A piece has at most one element (eta, d - div(eta)) per cell eta at
    its tail, the differential of the incidences with right class 0, each
    onto the facet's element, and an augmentation of rank 1 at (t, t, 0)
    and 0 elsewhere: in the cells, it depends on its cells and
    augmentation alone.  So the pieces at each tail t, one per orbit of
    `auts`, are grouped by (name, aug) and each group is reduced once; a
    failure goes to the group's (s, t, d) and their translates
    (`verify_exactness`), each once, as translations act freely.

    Names.  Q is a quiver of sections, so a path from u to v carries
    exactly the d >= 0 of class c_v - c_u (each section is a sum of
    arrows), and each cell's divisor is carried from its tail to its head
    (`ToricCellComplex`).  So (eta, d - div(eta)) is in the piece at
    (s, t, d) iff div(eta) <= d and class(d) = c_s - c_t: its cells are
    those at t with div(eta) <= m = min(d, M_t), M_t the join of the
    divisors at t, and (m, d = 0) names it.  The (s, d) with pieces at t
    are read off the box grouped by class key (`_box_classes`), as are a
    failing group's members.  If the collection is all of a finite Cl,
    every d has a piece, and each name is that of a d <= min(bound,
    M_t + 1).

    The caller knows d.d = 0 on every piece, and GF(2) ranks are tried
    first (`_gf2_cokernel`).  An odd minor is nonzero, so the GF(2) rank
    r2 is at most the rational rank r; d.d = 0 gives r(k) + r(k+1) <=
    dim P_k, and the augmentation has rank at most one: the identities
    for r2 force those for r.  Pieces they do not settle get the exact
    `sparse_rank` (`_rank_failures`).
    """
    C, Q, n, shift = res.complex, res.Q, res.Q.n_vertices, pk.shift
    cl, reps = Q.X.cl, [E.representative for E in Q.collection.classes]
    key, box = functools.cache(cl.coordinates), functools.cache(_box_classes)

    def pieces(t):
        return [(s, d) for s in range(n)
                for d in box(pk, cl).get(key(vsub(reps[s], reps[t])), ())]

    ones = _packed_facets(res, pk, one_sided=True)
    offsets = [[delta for delta, _ in f] for f in ones]
    failures = []
    for t in (t for t in range(n) if all(g[t] >= t for g in auts)):
        at = [c for c in C.cells if c.tail == t]
        cap = [min(b, max(x)) for b, x in zip(pk.bound, zip(
            (0,) * Q.d, *(c.divisor for c in at)))]
        if Q.is_mckay:
            live = map(pk.pack, itertools.product(*(
                range(min(b, x + 1) + 1) for b, x in zip(pk.bound, cap))))
        else:
            live = (d for _, d in pieces(t))
        top = pk.pack(cap)
        by_dim = [[(c.id << shift, pk.pack(c.divisor)) for c in at
                   if c.dim == k] for k in range(C.n + 1)]
        for name, aug in dict.fromkeys((pk.meet(d, top), d == 0) for d in live):
            bases = [[tag | name - div for tag, div in cells if pk.leq(div, name)]
                     for cells in by_dim]
            if _gf2_cokernel(pk, offsets, bases) == aug or not (
                    fail := _rank_failures(pk, ones, bases, aug)):
                continue
            failures.extend((g[s], g[t], pk.unpack(d), list(fail))
                            for s, d in pieces(t) for g in auts
                            if (pk.meet(d, top), d == 0) == (name, aug))
    return failures


def _box_classes(pk, cl):
    """{class key (`cl.coordinates`): [packed d]} over the d <= pk.bound,
    in increasing order.  Keys are additive modulo cl.moduli, so each
    point's key is its prefix's plus a multiple of a unit vector's."""
    mods, dim = cl.moduli, len(pk.bound)
    points = [((0,) * len(mods), 0)]
    for i, b in enumerate(pk.bound):
        unit = cl.coordinates([int(j == i) for j in range(dim)])
        steps = [(a, tuple(a * u for u in unit)) for a in range(b + 1)]
        points = [(tuple((x + y) % m if m else x + y
                         for x, y, m in zip(k, step, mods)), p << pk.w | a)
                  for k, p in points for a, step in steps]
    classes = {}
    for k, p in points:
        classes.setdefault(k, []).append(p)
    return classes


def verify_exactness(res, bound, check_products=False):
    """Check the rank identities in every graded piece with divisor
    componentwise <= bound (an integer or a vector) at every vertex pair
    (s, t), for a quiver of sections with its variety and collection.

    A request of more than MAX_PIECES pieces or MAX_TRIPLES one-sided
    basis elements is refused before any work; `pieces_checked` counts
    every piece in the box.  A cell eta whose two-step routes or
    augmentation do not cancel (`ToricCellComplex.sign_failures`) makes
    d_{k-1}.d_k, k = dim eta, nonzero on the triple (eta, 0, 0) of the
    piece (h(eta), t(eta), div(eta)).  Those pieces in the box are the
    failures, with the k of each.  Without one, d.d = 0 on every piece in
    the box, as a triple (eta, dL, dR) lies in it only if div(eta) does,
    and the class-keyed pieces of P (x)_A A_0 decide (`_one_sided_failures`).
    check_products is kept for old callers and changes nothing: failing
    signs are always reported, and passing signs make every product 0.

    The augmented complex C = (P_n -> ... -> P_0 -> A) is one of
    N^d-graded projective right A-modules, and A_0 is spanned by the
    vertices, as no arrow has label 0 (`QuiverOfSections`).  Filtered by
    C.A_{>=p}, p the total degree, gr_p C = (C (x)_A A_0) (x)_{A_0} A_p,
    finitely in each divisor; A_e = 0 unless e >= 0.  So at a fixed head
    s, where C (x)_A A_0 is exact below d (componentwise, d excluded), so
    is C, and their homology at d agrees (Butler-King, J. Algebra 212,
    1999).  The box is downward closed, so C is exact in it iff
    C (x)_A A_0 is, and for each s the least failing divisors of the two
    are the same.

    Pieces are computed at one tail per orbit of the translations that
    `_automorphisms` keeps, all of Q's if the signs are a gauge transform
    of the closed-form ones and the identity alone otherwise, and their
    failures are copied to the translated pairs.  This is exact:
    a translation sigma maps the labelled arrows onto themselves, so the
    paths from sigma(u) to sigma(v) carry the classes of those from u to v,
    and each cell (j, S) of a quotient's
    hypercube complex and its facet incidences onto (sigma(j), S), head
    and tail moved, with equal divisor and classes.  So the basis
    (eta, dL) at (s, t, d) matches the (sigma(eta), dL) at (sigma(s),
    sigma(t), d), whose differentials carry the signs . sigma =
    delta(parent) delta(facet) signs, delta +1 on the 0-cells.  Scaling
    each basis element by delta(eta) maps one piece onto the other, and
    commutes with the augmentation, which sends every 0-cell to +1,
    because delta is +1 on the 0-cells.  The two pieces have the same
    dimensions, ranks and failure details.
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
    elements = sum(
        math.prod(b - x + 1 for b, x in zip(bound, c.divisor))
        for c in res.complex.cells if leq(c.divisor, bound))
    if elements > MAX_TRIPLES:
        raise InputError(
            f"exactness at bound {bound} asks for up to {elements} basis "
            f"elements, more than the limit of {MAX_TRIPLES}")
    products = {}
    for cid, _why in res.sign_failures:
        c = res.complex.cells[cid]
        if leq(c.divisor, bound):
            products.setdefault((c.head, c.tail, c.divisor), set()).add(c.dim)
    if products:
        failures = [(s, t, d, [(f"d{k - 1}.d{k}", None, None, None)
                               for k in sorted(ks)])
                    for (s, t, d), ks in products.items()]
    else:
        failures = _one_sided_failures(
            res, _packing(res.complex, bound), _automorphisms(res))
    failures.sort()
    return ExactnessReport(exact=not failures, bound=bound,
                           pieces_checked=pieces, failures=failures)


# ---------------------------------------------------------------------------
# closed-form signs for abelian quotients


def mckay_sign_crosscheck(group):
    """The gauge delta on the cells of the group's shared hypercube
    complex (`mckay_complex`, built once per group) with solver(inc) =
    delta(parent) delta(facet) closed_form(inc) for the solver's and the
    closed-form (-1)^nu signs (`_gauge`).  Any such delta is constant on
    the 0-cells, by the augmentation equation on each 1-cell and as the
    quiver is connected, so it may be taken +1 there.  It rescales basis
    triples by +-1, so the graded ranks agree, and it keeps the solver's
    signs valid, so the closed-form ones are."""
    return _crosscheck(mckay_complex(group))


def _crosscheck(complex_):
    """`mckay_sign_crosscheck` on a hypercube complex already built."""
    sol = complex_.solve_incidence()
    if not sol.feasible:
        raise InternalError("solver found no incidence function")
    delta, conflicts = _gauge(complex_, sol.signs, complex_.explicit_signs)
    if conflicts:
        raise ConstructionError(
            f"solver and closed-form signs differ by no gauge: {conflicts}")
    return delta
