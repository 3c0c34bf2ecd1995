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
from typing import NamedTuple

from .complexes import mckay_complex
from .errors import ConstructionError, InputError, InternalError
from .intlinalg import Packing, is_zero, leq, sparse_rank


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
    """A sweep's dL + div(eta) + dR has entries <= 2 * bound + the largest
    cell-divisor entry; a cell id is the tag above a vector."""
    return Packing(bound, max(x for c in complex_.cells for x in c.divisor))


def _packed_facets(res, pk):
    """Per cell id, (delta, sign) for each facet incidence, where delta =
    (facet - cell) << shift + left class: the triple eta << shift | dL
    plus delta is the facet's triple facet << shift | (dL + left)."""
    return [[(((facet - c.id) << pk.shift) + pk.pack(left), sign)
             for facet, left, sign in res.facets[c.id]]
            for c in res.complex.cells]


def _class_table(Q, pk):
    """{(u, v): classes}: the packed divisor classes d <= pk.bound, in
    increasing order, that a path from u to v carries, from one sweep
    over the box in increasing packed order: reach[x][u] is the bitmask of
    the heads of paths from u of class x, the OR of reach[x - label][head]
    over the arrows out of u with label <= x.  Arrows with a label above
    the bound are dropped first, so no packed label overflows a field."""
    out = [[(pk.pack(a.label), a.head) for a in arrows
            if leq(a.label, pk.bound)] for arrows in Q.out]
    box = itertools.product(*[range(b + 1) for b in pk.bound])
    reach, table = {}, {}
    for x in map(pk.pack, box):
        reach[x] = row = []
        for u, arcs in enumerate(out):
            m = 0 if x else 1 << u
            for label, head in arcs:
                if pk.leq(label, x):
                    m |= reach[x - label][head]
            row.append(m)
            for v in range(m.bit_length()):
                if m >> v & 1:
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


def _one_sided_bases(complex_, pk, table, s, t):
    """The pieces of P (x)_A A_0 at (s, t), as `_pair_bases` gives those
    of P: the (eta, dL) with t(eta) = t.  The piece at divisor 0 is
    listed when s = t, even if empty, as A_0 is not zero there."""
    n, H, top = complex_.n, pk.H, pk.B | pk.H  # d <= B: (top - d) & H == H
    pieces = {0: [[] for _ in range(n + 1)]} if s == t else {}
    for c in complex_.cells:
        if c.tail != t:
            continue
        div, tag = pk.pack(c.divisor), c.id << pk.shift
        for dL in table.get((c.head, s), ()):
            if (top - (d := dL + div)) & H == H:
                if (basis := pieces.get(d)) is None:
                    basis = pieces[d] = [[] for _ in range(n + 1)]
                basis[c.dim].append(tag | dL)
    return pieces


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


def _gf2_certified(pk, offsets, bases):
    """Whether the GF(2) ranks r(k) of the d_k of a piece where d.d = 0
    satisfy r(0) = 1 and r(k) + r(k+1) = dim P_k for every k; offsets[c]
    lists the deltas of `_packed_facets`[c].  See `_gf2_cokernel`."""
    return _gf2_cokernel(pk, offsets, bases) == 1


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


def _product_failure(pk, facets, bases):
    """The first k with d_{k-1}.d_k != 0 on a piece, or 0, read on packed
    triples after the guard of `_differential` has run on every column
    at every k.  d_0 sends each triple of P_0 to 1, so d_0.d_1(x) is the
    sum of the signs s1 of the facets of x's cell; for k >= 2,
    d_{k-1}.d_k(x) sums s1 s2 at x + delta1 + delta2 over the facets of
    x and of each x + delta1."""
    shift = pk.shift
    for k in range(1, len(bases)):
        inside = set(bases[k - 1])
        for x in bases[k]:
            for delta, _ in facets[x >> shift]:
                if x + delta not in inside:
                    raise InternalError(_off_piece(pk, x + delta))
    ones = {x >> shift for x in bases[1]}  # d_0.d_1(x) depends on x's cell
    if any(sum(s for _, s in facets[c]) for c in ones):
        return 1
    for k in range(2, len(bases)):
        for x in bases[k]:
            total = {}
            for d1, s1 in facets[x >> shift]:
                for d2, s2 in facets[(x + d1) >> shift]:
                    y = x + d1 + d2
                    total[y] = total.get(y, 0) + s1 * s2
            if any(total.values()):
                return k
    return 0


def _piece_failures(pk, facets, offsets, bases, check_products):
    """Rank identities certifying exactness of one nonzero graded piece.

    With d_0 the augmentation and d_{n+1} = 0, the complex is exact iff
    rank d_k + rank d_{k+1} = dim P_k for 0 <= k <= n, reading
    rank d_0 = dim of the algebra piece, which is 1; the Euler
    characteristic then telescopes to rank d_0 = 1.  With check_products
    a nonzero d_{k-1}.d_k (`_product_failure`) is reported first.

    The caller passes check_products whenever d.d = 0 is not known
    symbolically, so d.d = 0 holds on every piece ranked here, and GF(2)
    ranks are tried first: `_gf2_certified` skips the columns of d_k that
    clearing proves dependent.  An odd minor is nonzero, so the GF(2)
    rank r2 is at most the rational rank r; d.d = 0 gives r(k) + r(k+1)
    <= dim P_k, and d_0 has one row: the identities for r2 force those
    for r.  Pieces they do not settle get the exact `sparse_rank`.
    """
    if check_products and (k := _product_failure(pk, facets, bases)):
        return [(f"d{k - 1}.d{k}", None, None, None)]
    if _gf2_certified(pk, offsets, bases):
        return []
    return _rank_failures(pk, facets, bases, 1)


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
# in the box) or basis triples than these.  Triples are counted as the
# (eta, dL, dR) with dL + dR <= bound - div(eta): all basis triples of an
# abelian quotient, and at least them whenever a path's tail and divisor
# fix its head.  The limits bound the bimodule sweep, which every call the
# one-sided certificate does not settle runs.  The fourfold at bound 3 has
# 262,144 pieces and 32,972,288 triples; mckay_z2_11 at bound 40 has
# 5,651,522, and on a 2-CPU machine the sweep takes 2.3-3.5 s there and
# 19 s at bound 63 (the guard admits bounds up to 65), where the
# certificate takes 0.02-0.03 s
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
    incs = complex_.incidences
    delta, bad = _coboundary(complex_, _first_facets(complex_),
                             [a[i] * b[i] for i in incs])
    return delta, [incs[j] for j in bad]


def _first_facets(complex_):
    """(cell, position of its first facet incidence) for each cell with a
    facet, by increasing dimension: the order in which `_gauge` fixes
    delta."""
    first = {}
    for j, i in enumerate(complex_.incidences):
        first.setdefault(i.parent, j)
    return sorted(first.items(), key=lambda cj: complex_.cells[cj[0]].dim)


def _coboundary(complex_, first, ratio):
    """`_gauge` for ratio = a b as a list in the order of
    complex_.incidences, with conflicts as positions in it; first is
    `_first_facets` of the complex."""
    incs = complex_.incidences
    delta = [1] * len(complex_.cells)
    for c, j in first:
        delta[c] = ratio[j] * delta[incs[j].facet]
    return delta, [j for j, i in enumerate(incs)
                   if ratio[j] != delta[i.parent] * delta[i.facet]]


def _automorphisms(res):
    """The vertex maps of the complex's translations, identity first, that
    carry the signs to a gauge transform of themselves: sigma with
    signs . sigma = delta(parent) delta(facet) signs for a delta that is
    +1 on the 0-cells (`_gauge`), read on the signs listed by position
    through each translation's incidence map."""
    C = res.complex
    signs = [res.signs[i] for i in C.incidences]
    first = _first_facets(C)
    (identity, _), *rest = C.translations
    return [identity] + [
        vertices for vertices, moved in rest
        if not _coboundary(C, first,
                           [signs[j] * x for j, x in zip(moved, signs)])[1]]


def _one_sided_exact(res, pk, table, facets, pairs):
    """Whether P (x)_A A_0 -> A_0 is exact in every piece at the pairs
    (s, t), by `_gf2_cokernel` or exact ranks; False before any piece if
    an arrow has label 0 or res.facets is not the complex's incidences
    with res.signs.  facets is `_packed_facets` of res."""
    C = res.complex
    if not all(any(a.label) for a in res.Q.arrows):
        return False
    ones = []  # facets[c] at the incidences with right class 0
    for c, packed in zip(C.cells, facets):
        incs = C.facet_incidences(c.id)
        if res.facets[c.id] != [(i.facet, i.left, res.signs[i]) for i in incs]:
            return False
        ones.append([f for f, i in zip(packed, incs) if not any(i.right)])
    offsets = [[delta for delta, _ in f] for f in ones]
    for s, t in pairs:
        for d, bases in _one_sided_bases(C, pk, table, s, t).items():
            aug = int(s == t and d == 0)
            if (_gf2_cokernel(pk, offsets, bases) != aug
                    and _rank_failures(pk, ones, bases, aug)):
                return False
    return True


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

    The sweep runs only when the one-sided certificate
    (`_one_sided_exact`) does not settle the call.  It is tried when the
    signs pass `verify_square_zero`, no arrow has label 0 (so A_0 is the
    vertex idempotents) and res.facets lists the complex's incidences
    with res.signs.  The augmented complex C = (P_n -> ... -> P_0 -> A)
    is then one of N^d-graded projective right A-modules; filtered by
    C.A_{>=p}, p the total degree, gr_p C = (C (x)_A A_0) (x)_{A_0} A_p,
    finitely in each divisor.  The box is downward closed and A_e = 0
    unless e >= 0, so C is exact at every divisor <= bound if C (x)_A A_0
    is (Butler-King, J. Algebra 212, 1999).  The piece of C (x)_A A_0 at
    (s, t, d) has the basis (eta, d - div(eta)) over the cells with
    t(eta) = t, a differential from the incidences with right class 0,
    and an augmentation of rank 1 at (t, t, 0) and 0 elsewhere.  As a
    quotient of C it has d.d = 0, so GF(2) ranks certify it as below.
    With the signs passing, every product d_{k-1}.d_k of P is 0 (each
    landing triple is one `composite_groups` key), so check_products
    asks for nothing more.  C (x)_A A_0 is inexact at the least divisor
    where C is, so an inexact resolution always gets the sweep's report.

    Pieces are computed for one pair per orbit of the automorphisms of
    the resolution (`_automorphisms`), and their failures are copied to
    the other pairs of the orbit.  This is exact: a translation sigma of a
    quotient's hypercube complex maps the labelled arrows onto themselves,
    so the class table is invariant, and each cell eta and its facet
    incidences onto sigma(eta), head and tail moved, with equal divisor
    and classes.  So the triples (eta, dL, dR) at (s, t, d) match the
    (sigma(eta), dL, dR) at (sigma(s), sigma(t), d), whose differentials
    carry the signs . sigma = delta(parent) delta(facet) signs.  Scaling
    each triple by delta(eta) maps one piece onto the other, and commutes
    with the augmentation, which sends every 0-cell triple to +1, because
    delta is +1 on the 0-cells.  The two pieces have the same dimensions,
    ranks, products d_{k-1}.d_k and failure details, and so do their
    quotients by A_+.  `pieces_checked` counts every piece, including
    those certified by this isomorphism.
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
    orbits, covered = {}, set()
    for s, t in itertools.product(range(n), repeat=2):
        if (s, t) not in covered:
            orbits[s, t] = {(g[s], g[t]) for g in auts}
            covered.update(orbits[s, t])
    pk = _packing(res.complex, bound)
    table = _class_table(Q, pk)
    facets = _packed_facets(res, pk)
    square_zero = res.complex.sign_failure(res.signs) is None
    if square_zero and _one_sided_exact(res, pk, table, facets, orbits):
        return ExactnessReport(exact=True, bound=bound,
                               pieces_checked=pieces, failures=[])
    check_products = check_products or not square_zero
    offsets = [[delta for delta, _ in f] for f in facets]
    failures = []
    for (s, t), orbit in orbits.items():
        for dvec, bases in _pair_bases(res.complex, pk, table, s, t).items():
            fail = _piece_failures(pk, facets, offsets, bases, check_products)
            if fail:
                dvec = pk.unpack(dvec)
                failures.extend((u, v, dvec, list(fail)) for u, v in orbit)
    failures.sort()
    return ExactnessReport(exact=not failures, bound=bound,
                           pieces_checked=pieces, failures=failures)


# ---------------------------------------------------------------------------
# closed-form signs for abelian quotients


def mckay_sign_crosscheck(group):
    """The gauge delta on the cells of an abelian quotient's hypercube
    complex with solver(inc) = delta(parent) delta(facet) closed_form(inc)
    for the solver's and the closed-form (-1)^nu signs (`_gauge`).  Any
    such delta is constant on the 0-cells, by the augmentation equation on
    each 1-cell and as the quiver is connected, so it may be taken +1
    there.  It rescales basis triples by +-1, so the graded ranks agree,
    and it keeps the solver's signs valid, so the closed-form ones are.
    """
    return _crosscheck(mckay_complex(group))


def _crosscheck(complex_):
    """`mckay_sign_crosscheck` on the group's `mckay_complex`, built."""
    explicit = complex_.explicit_signs
    sol = complex_.solve_incidence()
    if not sol.feasible:
        raise InternalError("solver found no incidence function")
    delta, conflicts = _gauge(complex_, sol.signs, explicit)
    if conflicts:
        raise ConstructionError(
            f"solver and closed-form signs differ by no gauge: "
            f"{conflicts}")
    return delta
