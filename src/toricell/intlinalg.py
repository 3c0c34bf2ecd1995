"""Exact integer linear algebra.

Everything here works with plain Python ints (arbitrary precision); no
fractions and no floats appear anywhere: a rational answer is returned as
an integer matrix with its denominator.  Vectors are tuples, matrices are
lists (or tuples) of row tuples.  Most matrices are small (dimensions in
the tens: cone generators, lattice maps, Smith forms), and those routines
favour clarity over asymptotics.  The exception is rank, which also
serves the differentials of graded pieces: for Z/6(1,2,3) at divisor
bound 5 a piece has up to 1,331 basis elements and a differential up to
243,000 entries, almost all zero.  So rank works on sparse rows, and
passes the small block it cannot pivot on a unit to `lattice_basis`.
"""

from __future__ import annotations

import heapq
from math import gcd
from operator import add, le, mul, sub
from typing import NamedTuple

from .errors import InternalError


# ---------------------------------------------------------------------------
# vector helpers


def vadd(v, w):
    return tuple(map(add, v, w))


def vsub(v, w):
    return tuple(map(sub, v, w))


def vscale(s, v):
    return tuple(s * a for a in v)


def dot(v, w):
    return sum(map(mul, v, w))


def is_zero(v):
    return all(a == 0 for a in v)


def vector_gcd(v):
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = vector_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(a // g for a in v)


def leq(v, w):
    """Componentwise v <= w."""
    return all(map(le, v, w))


class Packing:
    """Nonnegative vectors with entries at most 2 * max(bound) + slack,
    each as a single int.

    Coordinate i takes a field of w bits, coordinate 0 the highest, so
    int order is lexicographic order, and w is one bit more than the
    largest entry needs.  So the top bit of every field, its guard bit,
    stays clear: such vectors add as ints with no carry between fields,
    and x <= y componentwise iff ((y | H) - x) & H == H for H the guard
    bits, as a field of x above y's borrows its guard bit and no other
    does.  A tag (an int) sits above the shift = d * w bits of a vector.
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

    def meet(self, x, y):
        """Componentwise min(x, y): g marks the fields where x >= y."""
        g = ((x | self.H) - y) & self.H
        fill = g - (g >> (self.w - 1))
        return x & ~fill | y & fill

    def split(self, x):
        """(tag, vector) of x = tag << shift | vector."""
        return x >> self.shift, x & ((1 << self.shift) - 1)


# ---------------------------------------------------------------------------
# matrix helpers


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(A):
    return [list(row) for row in A]


def mat_vec(A, v):
    return tuple(dot(row, v) for row in A)


def mat_mul(A, B):
    if not B:
        return [[] for _ in A]
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def transpose(A):
    return [list(col) for col in zip(*A)]


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm(NamedTuple):
    """U * A * V == S with U, V unimodular and S diagonal, d_i | d_{i+1}."""

    U: list
    V: list
    S: list
    rank: int


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with x*a + y*b == g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def smith_normal_form(A):
    """Compute the Smith normal form of an integer matrix.

    Returns a SmithForm with U (m x m), V (n x n) and S = U*A*V.
    The diagonal of S is nonnegative with each entry dividing the next.
    Entries are cleared with 2x2 unimodular transforms from the extended
    gcd, which keeps intermediate growth under control.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = mat_copy(A)
    U = identity(m)
    V = identity(n)

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        U[i], U[j] = U[j], U[i]

    def row_negate(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def col_add(src, dst, q):
        # col dst += q * col src
        for r in S:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def row_clear(t, i):
        """Zero S[i][t] using rows t, i; S[t][t] becomes the gcd."""
        a, b = S[t][t], S[i][t]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = -(b // a)
            for k in range(n):
                S[i][k] += q * S[t][k]
            for k in range(m):
                U[i][k] += q * U[t][k]
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for mat, width in ((S, n), (U, m)):
            rt, ri = mat[t], mat[i]
            for k in range(width):
                rt[k], ri[k] = x * rt[k] + y * ri[k], -bg * rt[k] + ag * ri[k]

    def col_clear(t, j):
        """Zero S[t][j] using columns t, j; S[t][t] becomes the gcd."""
        a, b = S[t][t], S[t][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            col_add(t, j, -(b // a))
            return
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        for mat in (S, V):
            for r in mat:
                r[t], r[j] = x * r[t] + y * r[j], -bg * r[t] + ag * r[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = S[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if S[t][t] < 0:
            row_negate(t)
        while True:
            for i in range(t + 1, m):
                row_clear(t, i)
            # column clearing may reintroduce entries below the pivot, but
            # only while the pivot keeps shrinking, so this terminates
            for j in range(t + 1, n):
                col_clear(t, j)
            if all(S[i][t] == 0 for i in range(t + 1, m)):
                break
        if S[t][t] < 0:
            row_negate(t)
        t += 1

    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = S[i][i], S[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold column i+1 into column i; one xgcd row step fixes it
                col_add(i + 1, i, 1)
                row_clear(i, i + 1)
                if S[i][i] < 0:
                    row_negate(i)
                if S[i][i + 1]:
                    col_add(i, i + 1, -(S[i][i + 1] // S[i][i]))
                if S[i + 1][i + 1] < 0:
                    row_negate(i + 1)
                changed = True
    rank = sum(1 for i in range(t) if S[i][i] != 0)
    return SmithForm(U=U, V=V, S=S, rank=rank)


def kernel_basis(A):
    """Basis of the integer kernel {x : A x = 0}, as a list of tuples."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [tuple(row) for row in identity(n)]
    sf = smith_normal_form(A)
    return [tuple(row[j] for row in sf.V) for j in range(sf.rank, n)]


def lattice_basis(vectors, dim):
    """Basis of the lattice generated by integer vectors (row-HNF style)."""
    if not vectors:
        return []
    rows = [list(v) for v in vectors]
    col = r = 0
    while col < dim and r < len(rows):
        # gcd-eliminate column col among rows r..
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        again = True
        while again:
            again = False
            for i in range(r + 1, len(rows)):
                if rows[i][col] == 0:
                    continue
                if abs(rows[i][col]) < abs(rows[r][col]):
                    rows[r], rows[i] = rows[i], rows[r]
                q = rows[i][col] // rows[r][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                if rows[i][col] != 0:
                    again = True
        if rows[r][col] < 0:
            rows[r] = [-a for a in rows[r]]
        r += 1
        col += 1
    return [tuple(row) for row in rows[:r]]


def echelon_coordinates(basis, v):
    """The integer coordinates of v in an echelon basis from lattice_basis,
    by substitution pivot by pivot.  Later rows vanish at a pivot, so a
    remainder left there stays to the end: InternalError if v is off the
    lattice."""
    rest = list(v)
    coords = []
    for b in basis:
        p = next(j for j, x in enumerate(b) if x)
        q = rest[p] // b[p]
        coords.append(q)
        rest = [x - q * y for x, y in zip(rest, b)]
    if any(rest):
        raise InternalError("vector is off the lattice")
    return tuple(coords)


def rank(A):
    """Exact rank of an integer matrix given as a list of rows."""
    return sparse_rank([{j: x for j, x in enumerate(row) if x} for row in A])


def sparse_rank(rows):
    """Exact rank of an integer matrix given as sparse rows ``{col: coeff}``.

    Pivot rule: while some entry is a unit, pivot on the first unit entry
    found in the sparsest column that has one (fewest nonzero rows, ties
    to the lowest column index).  A unit pivot needs no division, so the
    elimination is exact over Z, and picking the sparsest column keeps
    the fill-in small, as in Markowitz ordering.  The columns holding a
    unit and their sizes are kept up to date as each step changes them,
    so finding the next pivot costs a heap pop, not a scan of the matrix.

    Read as algebraic Morse reduction (Sköldberg, Trans. AMS 2006), each
    unit pivot is a matched pair of basis elements joined by an
    invertible entry.  Cancelling the pair leaves the Schur complement,
    which has rank exactly one less.  A leftover block with no unit
    entry goes to `lattice_basis`, whose echelon basis has as many rows
    as the block has rank.  The input rows are not modified.
    """
    rows = {i: dict(row) for i, row in enumerate(rows) if row}
    owners = {}   # column -> rows with a nonzero entry there
    units = {}    # column -> rows with a +-1 entry there
    for i, row in rows.items():
        for j, x in row.items():
            owners.setdefault(j, set()).add(i)
            unit_rows = units.setdefault(j, set())
            if x == 1 or x == -1:
                unit_rows.add(i)
    # (column size, column) for every column with a unit; an entry is
    # stale once the column's size changes or its units are gone
    heap = [(len(owners[j]), j) for j, u in units.items() if u]
    heapq.heapify(heap)
    r = 0
    while heap:
        size, pj = heapq.heappop(heap)
        if not units.get(pj) or len(owners[pj]) != size:
            continue
        pi = next(iter(units[pj]))
        prow = rows.pop(pi)
        for j in prow:
            owners[j].discard(pi)
            units[j].discard(pi)
        f0 = prow.pop(pj)  # +-1, so dividing by it is multiplying by it
        for i in owners.pop(pj):
            row = rows[i]
            f = row.pop(pj) * f0
            for j, x in prow.items():
                old = row.get(j)
                if old is None:
                    y = row[j] = -f * x
                    owners[j].add(i)
                    if y == 1 or y == -1:
                        units[j].add(i)
                    continue
                y = old - f * x
                if y:
                    row[j] = y
                    if y == 1 or y == -1:
                        units[j].add(i)
                    else:
                        units[j].discard(i)
                else:
                    del row[j]
                    owners[j].discard(i)
                    units[j].discard(i)
            if not row:
                del rows[i]
        del units[pj]
        for j in prow:
            if units[j]:
                heapq.heappush(heap, (len(owners[j]), j))
        r += 1
    if not rows:
        return r
    live_cols = sorted(j for j, o in owners.items() if o)
    pos = {j: k for k, j in enumerate(live_cols)}
    dense = []
    for row in rows.values():
        out = [0] * len(live_cols)
        for j, x in row.items():
            out[pos[j]] = x
        dense.append(out)
    return r + len(lattice_basis(dense, len(live_cols)))


# ---------------------------------------------------------------------------
# inverses
#
# adjugate is the package's one elimination for inverses, all in integers
# (dual cone seeds, fiber caps, Smith transforms); left_inverse is the one
# left inverse (Gorenstein covector, tiling projection), returned as an
# integer matrix and its denominator.


def adjugate(A):
    """(adj, det) of a square integer matrix: adj A = A adj = det I.

    Fraction-free Gauss-Jordan elimination on [A | I] (Bareiss, Math.
    Comp. 22, 1968): every entry stays a minor of [A | I], so each
    division is exact, and the left block ends as det(PA) I for the row
    swaps P.  Every caller proves its matrix nonsingular."""
    n = len(A)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    sign, prev = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            raise InternalError("matrix is singular")
        if p != k:
            M[k], M[p], sign = M[p], M[k], -sign
        Mk, piv = M[k], M[k][k]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(piv * x - f * y) // prev for x, y in zip(M[i], Mk)]
        prev = piv
    return [[sign * x for x in row[n:]] for row in M], sign * prev


def unimodular_inverse(U):
    """The integer inverse of a matrix that its caller proves unimodular."""
    adj, det = adjugate(U)
    if det not in (1, -1):
        raise InternalError("matrix is not unimodular")
    return [[det * x for x in row] for row in adj]


def left_inverse(B):
    """(N, det) with N / det = (B^T B)^{-1} B^T, for a full-column-rank
    integer matrix B: N = adj(B^T B) B^T and det = det(B^T B) > 0."""
    Bt = transpose(B)
    adj, det = adjugate(mat_mul(Bt, B))
    return mat_mul(adj, Bt), det


# ---------------------------------------------------------------------------
# cokernel


class CokernelForm:
    """The quotient Z^m / (column span of A), with canonical coset reps.

    canonical(v) returns an idempotent representative of v's coset; two
    vectors have equal canonical forms iff they differ by a column
    combination of A.
    """

    def __init__(self, A):
        m = len(A)
        ncols = len(A[0]) if A else 0
        if ncols == 0:
            self._U = identity(m)
            self._Uinv = identity(m)
            self._diag = [0] * m
        else:
            sf = smith_normal_form(A)
            self._U = sf.U
            self._Uinv = unimodular_inverse(sf.U)
            self._diag = [sf.S[i][i] if i < ncols else 0 for i in range(m)]
        # the Smith coordinates that carry a class: torsion, or 0 when free
        self.moduli = tuple(d for d in self._diag if d != 1)

    def coordinates(self, v):
        """The reduced Smith coordinates of v's coset: equal for two vectors
        iff they differ by a column combination of A, and additive modulo
        ``moduli`` (a free coordinate, modulus 0, is not reduced)."""
        y = mat_vec(self._U, v)
        return tuple(y[i] % d if d else y[i]
                     for i, d in enumerate(self._diag) if d != 1)

    def canonical(self, v):
        y = iter(self.coordinates(v))
        return mat_vec(self._Uinv, [0 if d == 1 else next(y) for d in self._diag])
