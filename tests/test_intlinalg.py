import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from toricell import intlinalg
from toricell.complexes import general_complex
from toricell.errors import InternalError
from toricell.intlinalg import (
    CokernelForm,
    adjugate,
    dot,
    echelon_coordinates,
    identity,
    kernel_basis,
    lattice_basis,
    left_inverse,
    mat_mul,
    mat_vec,
    primitive,
    rank,
    smith_normal_form,
    sparse_rank,
    transpose,
    unimodular_inverse,
    vadd,
    vector_gcd,
    vscale,
    vsub,
)
from toricell.resolution import build_resolution, graded_piece
from toricell.superpotential import superpotential

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_int, min_size=n, max_size=n),
                min_size=m, max_size=m)))


def fraction_rank(A):
    """Oracle: the rank of an integer matrix by Gaussian elimination over
    the rationals."""
    M = [[Fraction(x) for x in row] for row in A]
    r = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((i for i in range(r, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, len(M)):
            if f := M[i][col] / M[r][col]:
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
    return r


def det3(M):
    if len(M) == 1:
        return M[0][0]
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0
    for j in range(len(M)):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det3(minor)
    return total


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_smith_normal_form_invariants(A):
    sf = smith_normal_form(A)
    assert mat_mul(mat_mul(sf.U, A), sf.V) == sf.S
    assert abs(det3(sf.U)) == 1
    assert abs(det3(sf.V)) == 1
    diag = [sf.S[i][i] for i in range(min(len(sf.S), len(sf.S[0])))]
    for i in range(len(sf.S)):
        for j in range(len(sf.S[0])):
            if i != j:
                assert sf.S[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_spans_kernel(A):
    kb = kernel_basis(A)
    for v in kb:
        assert all(x == 0 for x in mat_vec(A, v))
    n = len(A[0])
    assert len(kb) == n - rank(A)


def in_column_span(A, b):
    """Oracle: b is an integer combination of the columns of A, read off
    the Smith form U A V = S as U b divisible by the diagonal of S."""
    sf = smith_normal_form(A)
    diag = [sf.S[i][i] if i < len(A[0]) else 0 for i in range(len(A))]
    return all(x % d == 0 if d else x == 0
               for x, d in zip(mat_vec(sf.U, b), diag))


def combine(coords, basis, dim):
    v = (0,) * dim
    for c, b in zip(coords, basis):
        v = vadd(v, vscale(c, b))
    return v


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                min_size=1, max_size=5),
       st.lists(small_int, min_size=5, max_size=5),
       st.lists(small_int, min_size=3, max_size=3))
def test_echelon_coordinates_roundtrip(vectors, mix, v):
    """Every integer combination of the generators has coordinates that
    rebuild it; any other vector, by the Smith-form oracle, raises."""
    basis = lattice_basis(vectors, 3)
    member = combine(mix, vectors, 3)
    assert combine(echelon_coordinates(basis, member), basis, 3) == member
    if in_column_span(transpose(vectors), v):
        assert combine(echelon_coordinates(basis, v), basis, 3) == tuple(v)
    else:
        with pytest.raises(InternalError, match="off the lattice"):
            echelon_coordinates(basis, v)


def test_echelon_coordinates_off_lattice():
    for vectors, v in [
        ([(2,)], (1,)),                       # remainder at a pivot
        ([(1, 0)], (0, 1)),                   # past the last pivot
        ([(1, 1, 0), (0, 0, 2)], (0, 1, 0)),  # a column with no pivot
        ([(1, 1, 0), (0, 0, 2)], (0, 0, 1)),
        ([], (0, 1)),
    ]:
        with pytest.raises(InternalError, match="vector is off the lattice"):
            echelon_coordinates(lattice_basis(vectors, len(v)), v)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rank_matches_dense_rank(A):
    assert rank(A) == fraction_rank(A)


def test_rank_randomized_sparse_agreement():
    rng = random.Random(20240817)
    for _ in range(200):
        m = rng.randint(1, 9)
        n = rng.randint(1, 9)
        A = [[rng.choice((-1, 0, 0, 0, 1, rng.randint(-5, 5)))
              for _ in range(n)] for _ in range(m)]
        assert rank(A) == fraction_rank(A)
    # no unit entries at all, or units that elimination turns into
    # non-units: the leftover block goes to lattice_basis
    for entries in ((0, 0, 2, -2, 3, -3, 6, -6), (0, 0, 1, -1, 2, -3, 6)):
        for _ in range(200):
            m = rng.randint(1, 9)
            n = rng.randint(1, 9)
            A = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
            assert rank(A) == fraction_rank(A)


@pytest.mark.parametrize("A, r, fallback", [
    ([[2, 4], [4, 2]], 2, True),
    ([[2, 4], [1, 2]], 1, False),
    ([[2, 0, 2], [0, 2, 2], [2, 2, 4]], 2, True),
    ([[1, 1, 0], [1, -1, 0], [0, 0, 3]], 3, True),
])
def test_rank_of_blocks_without_units(A, r, fallback, monkeypatch):
    """A block left with no unit entry goes to lattice_basis, whose row
    count is its rank: no unit at all, a unit pivot that leaves nothing,
    and a unit pivot that leaves a 2 and a 3."""
    calls = []
    real = intlinalg.lattice_basis
    monkeypatch.setattr(intlinalg, "lattice_basis",
                        lambda *args: calls.append(args) or real(*args))
    assert rank(A) == fraction_rank(A) == r
    assert bool(calls) == fallback


@pytest.mark.parametrize("which", ["dimer", "z6"])
def test_rank_on_graded_piece_matrices(which, quiver_four_sheaves,
                                       mckay_z6_complex):
    """Real differentials: the largest graded piece at bound 3."""
    if which == "z6":
        C = mckay_z6_complex
        res = build_resolution(C, signs=C.explicit_signs)
    else:
        Q = quiver_four_sheaves
        res = build_resolution(general_complex(Q, superpotential(Q)))
    piece = graded_piece(res, 0, 0, (3,) * res.Q.d)
    assert max(piece.dims()) > 50
    for m in piece.matrices[1:]:
        assert rank(m) == fraction_rank(m) > 0
        cols = [{i: row[j] for i, row in enumerate(m) if row[j]}
                for j in range(len(m[0]))]
        assert sparse_rank(cols) == rank(m)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_lattice_basis_membership(vectors):
    basis = lattice_basis(vectors, 3)
    for v in vectors:
        if basis:
            assert in_column_span(transpose(basis), v)
        else:
            assert all(x == 0 for x in v)
    for b in basis:
        assert in_column_span(transpose(vectors), b)
    assert len(basis) == rank(vectors)


def test_primitive_and_gcd():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert vector_gcd((12, 18, 30)) == 6


def test_left_inverse_is_left_inverse():
    B = [[1, 0, 1], [0, 1, 1], [-1, 1, 1], [0, -1, 1]]
    N, det = left_inverse(B)
    assert det == det3(mat_mul(transpose(B), B)) > 0
    assert mat_mul(N, B) == [[det * int(i == j) for j in range(3)]
                             for i in range(3)]


def test_adjugate_small_cases():
    """A unimodular 2 x 2 matrix, 1 x 1 and empty matrices, and every 4 x 4
    permutation matrix, whose adjugate is its sign times its transpose."""
    A = [[2, 1], [1, 1]]
    assert adjugate(A) == ([[1, -1], [-1, 2]], 1)
    assert adjugate([[-3]]) == ([[1]], -3)
    assert adjugate([]) == ([], 1)
    for perm in itertools.permutations(range(4)):
        P = [[int(j == perm[i]) for j in range(4)] for i in range(4)]
        adj, det = adjugate(P)
        assert det == det3(P) in (1, -1)
        assert adj == [[det * x for x in row] for row in transpose(P)]


def test_adjugate_against_cofactor_oracle():
    """600 seeded random matrices, n <= 5 and entries in [-4, 4]: adj A =
    A adj = det I with det the cofactor expansion, and a singular matrix
    raises.  Every fifth one with n > 1 gets a zero leading entry, so its
    first pivot needs a row swap."""
    rng = random.Random(20261019)
    swaps = singular = 0
    for k in range(600):
        n = rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if k % 5 == 0 and n > 1:
            A[0][0] = 0
        det = det3(A)
        if det == 0:
            singular += 1
            with pytest.raises(InternalError, match="matrix is singular"):
                adjugate(A)
            continue
        adj, d = adjugate(A)
        assert d == det
        scalar = [[det * int(i == j) for j in range(n)] for i in range(n)]
        assert mat_mul(A, adj) == mat_mul(adj, A) == scalar
        swaps += A[0][0] == 0
    assert singular > 20 and swaps > 50


def test_unimodular_inverse():
    U = [[2, 1], [1, 1]]
    assert mat_mul(U, unimodular_inverse(U)) == identity(2)
    with pytest.raises(InternalError, match="matrix is not unimodular"):
        unimodular_inverse([[2, 0], [0, 1]])


def test_cokernel_form_canonical_classes():
    # coker of the conifold embedding is Z
    B = [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]]
    ck = CokernelForm(B)
    e = lambda i: tuple(int(j == i) for j in range(4))
    assert ck.canonical(e(0)) == ck.canonical(e(1))
    assert ck.canonical(e(2)) == ck.canonical(e(3))
    assert ck.canonical(e(0)) != ck.canonical(e(2))
    # opposite-degree pairs sum to the trivial class, as does the full sum
    zero = ck.canonical((0, 0, 0, 0))
    assert ck.canonical((1, 0, 1, 0)) == zero
    assert ck.canonical((0, 1, 0, 1)) == zero
    assert ck.canonical((1, 1, 1, 1)) == zero


def test_cokernel_coordinates_key_the_classes():
    """Smith coordinates are equal iff the vectors differ by an integer
    combination of the columns, and add modulo the moduli, on
    Cl = Z/2 + Z and on Cl = Z/6."""
    rng = random.Random(20261018)
    for B, moduli in (([[2, 0], [0, 1], [0, 1]], (2, 0)),
                      ([[1, 0, 0], [0, 1, 0], [1, 2, 6]], (6,))):
        ck = CokernelForm(B)
        assert ck.moduli == moduli
        vs = [tuple(rng.randint(-4, 4) for _ in B) for _ in range(30)]
        for v, w in itertools.product(vs, repeat=2):
            assert (ck.coordinates(v) == ck.coordinates(w)) == \
                in_column_span(B, vsub(v, w))
            assert ck.coordinates(vadd(v, w)) == tuple(
                (a + b) % m if m else a + b for a, b, m in
                zip(ck.coordinates(v), ck.coordinates(w), moduli))


def test_identity_and_dot():
    assert identity(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert dot((1, 2, 3), (4, 5, 6)) == 32
