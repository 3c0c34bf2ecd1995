import itertools

import pytest

from toricell.complexes import (
    Cell,
    FacetIncidence,
    ToricCellComplex,
    general_complex,
    mckay_complex,
)
from toricell.intlinalg import vadd, vsub
from toricell.resolution import (
    CellularResolution,
    ResolutionError,
    _class_table,
    _pair_bases,
    build_resolution,
    graded_piece,
    mckay_sign_crosscheck,
    verify_exactness,
    verify_minimality,
    verify_piece,
    verify_square_zero,
)
from toricell.quiver import build_quiver
from toricell.superpotential import consistency, superpotential
from toricell.variety import AbelianGroupData, mckay_toric_data

from conftest import load


@pytest.fixture(scope="module")
def dimer_resolution(quiver_four_sheaves):
    Q = quiver_four_sheaves
    return build_resolution(general_complex(Q, superpotential(Q)))


@pytest.fixture(scope="module")
def z6_resolution(mckay_z6_complex):
    return build_resolution(mckay_z6_complex,
                            signs=mckay_z6_complex.explicit_signs)


def test_generator_counts(dimer_resolution, z6_resolution):
    assert dimer_resolution.generator_counts() == (4, 10, 10, 4)
    assert z6_resolution.generator_counts() == (6, 18, 18, 6)


def test_square_zero(dimer_resolution, z6_resolution):
    assert verify_square_zero(dimer_resolution)
    assert verify_square_zero(z6_resolution)


def test_minimality(dimer_resolution, z6_resolution):
    assert verify_minimality(dimer_resolution).minimal
    assert verify_minimality(z6_resolution).minimal


def test_minimality_negative_control(quiver_trivial_a3):
    Q = quiver_trivial_a3
    zero = (0, 0, 0)
    cells = [Cell(id=0, dim=0, head=0, tail=0, divisor=zero,
                  payload=("vertex", 0)),
             Cell(id=1, dim=1, head=0, tail=0, divisor=zero,
                  payload=("unit", 0))]
    complex_ = ToricCellComplex(Q, 1, cells, [
        FacetIncidence(parent=1, facet=0, left=zero, right=zero)])
    res = CellularResolution(complex_, {complex_.incidences[0]: 1})
    rep = verify_minimality(res)
    assert not rep.minimal
    assert len(rep.unit_incidences) == 1


def test_graded_piece_degree_zero(dimer_resolution):
    res = dimer_resolution
    for s in range(4):
        for t in range(4):
            piece = graded_piece(res, s, t, (0, 0, 0, 0))
            want = [1 if s == t else 0, 0, 0, 0]
            assert piece.dims() == want
            assert piece.dim_A == (1 if s == t else 0)


def test_graded_piece_anticanonical(dimer_resolution):
    # at the anticanonical divisor with s = t = 0 the top cell of vertex 0
    # enters with both derivative classes trivial
    piece = graded_piece(dimer_resolution, 0, 0, (1, 1, 1, 1))
    zero = (0, 0, 0, 0)
    tops = [(cid, dL, dR) for cid, dL, dR in piece.bases[3]
            if dL == zero and dR == zero]
    assert len(tops) == 1
    cell = dimer_resolution.complex.cells[tops[0][0]]
    assert cell.payload == ("dual_vertex", 0)
    assert not verify_piece(dimer_resolution, 0, 0, (1, 1, 1, 1),
                            check_products=True)[0]


def test_graded_piece_single_character(z6_resolution):
    # at the divisor of one coordinate the arrow layer is one-dimensional
    # for each pair of adjacent characters and empty otherwise
    res = z6_resolution
    hits = 0
    for s in range(6):
        for t in range(6):
            piece = graded_piece(res, s, t, (1, 0, 0))
            if piece.dim_A:
                assert piece.dims()[1] == 1
                hits += 1
            else:
                assert piece.dims() == [0, 0, 0, 0]
    assert hits == 6


def test_exactness_small_bound(dimer_resolution, z6_resolution):
    rep = verify_exactness(dimer_resolution, 1, check_products=True)
    assert rep.exact
    assert rep.pieces_checked == 16 * 16
    rep = verify_exactness(z6_resolution, 1, check_products=True)
    assert rep.exact


def test_exactness_restricted_pairs(dimer_resolution):
    rep = verify_exactness(dimer_resolution, 2, pairs=[(0, 0)])
    assert rep.exact
    assert rep.pieces_checked == 81


def test_sign_crosscheck_z6(mckay_z6_group):
    delta = mckay_sign_crosscheck(mckay_z6_group)
    assert len(delta) == 48
    assert all(d in (1, -1) for d in delta)


def test_sign_crosscheck_z2():
    mckay_sign_crosscheck(AbelianGroupData.cyclic(2, (1, 1)))


def test_sign_crosscheck_trivial():
    mckay_sign_crosscheck(AbelianGroupData.cyclic(1, (0, 0, 0)))


def test_weight_zero_quotient_z3_1110():
    """Z/3(1,1,1,0) has a loop x4 at every vertex: consistent, and its
    McKay resolution is exact, at bound 2."""
    G = AbelianGroupData.cyclic(3, (1, 1, 1, 0))
    X, coll = mckay_toric_data(G)
    Q = build_quiver(X, coll)
    assert sum(a.tail == a.head for a in Q.arrows) == 3
    assert consistency(Q, superpotential(Q), 2).consistent
    C = mckay_complex(G)
    assert C.counts() == (3, 12, 18, 12, 3)
    res = build_resolution(C, signs=C.explicit_signs)
    assert verify_square_zero(res)
    assert verify_exactness(res, 2).exact


def test_exactness_rejects_vacuous_checks(z6_resolution):
    with pytest.raises(ValueError):
        verify_exactness(z6_resolution, -1)
    with pytest.raises(ValueError):
        verify_exactness(z6_resolution, (1, -1, 1))
    with pytest.raises(ValueError):
        verify_exactness(z6_resolution, (1, 1))
    with pytest.raises(ValueError):
        verify_exactness(z6_resolution, 1, pairs=[])
    rep = verify_exactness(z6_resolution, 0)
    assert rep.exact and rep.pieces_checked == 36


def test_broken_sign_negative_control(mckay_z6_complex):
    C = mckay_z6_complex
    signs = dict(C.explicit_signs)
    inc = next(i for i in C.incidences if C.cells[i.parent].dim == 2)
    signs[inc] = -signs[inc]
    res = CellularResolution(C, signs)
    with pytest.raises(ResolutionError):
        verify_square_zero(res)
    rep = verify_exactness(res, 1)
    assert not rep.exact
    assert rep.pieces_checked == 36 * 8
    detail = [(1, 7, 6, 12), (2, 6, 1, 6)]
    assert rep.failures == [(0, 0, (1, 1, 1), detail),
                            (1, 1, (1, 1, 1), detail)]
    rep = verify_exactness(res, 1, check_products=True)
    assert [f[:3] for f in rep.failures] == [
        (0, 0, (1, 1, 1)), (1, 0, (1, 1, 0)), (1, 1, (1, 1, 1))]
    assert all(f[3] == [("d1.d2", None, None, None)] for f in rep.failures)


# ---------------------------------------------------------------------------
# brute-force oracle for graded pieces: every split of the remaining divisor
# between the two sides, each tested for a path


def _splits(rem):
    """All (dL, dR) with dL + dR = rem, componentwise nonnegative."""
    for dL in itertools.product(*[range(r + 1) for r in rem]):
        yield dL, vsub(rem, dL)


def brute_force_piece(res, s, t, dvec):
    """(bases, matrices, dim_A) of the graded piece at (s, t, dvec)."""
    Q = res.Q
    if not Q.path_exists(t, s, dvec):
        return ([[] for _ in range(res.n + 1)],
                [[[]] for _ in range(res.n + 1)], 0)
    bases = []
    for k in range(res.n + 1):
        basis = []
        for c in res.complex.by_dim[k]:
            rem = vsub(dvec, c.divisor)
            if any(x < 0 for x in rem):
                continue
            for dL, dR in _splits(rem):
                if Q.path_exists(c.head, s, dL) and Q.path_exists(t, c.tail, dR):
                    basis.append((c.id, dL, dR))
        bases.append(basis)
    matrices = [[[1] * len(bases[0])]]
    for k in range(1, res.n + 1):
        index = {b: i for i, b in enumerate(bases[k - 1])}
        rows = [[0] * len(bases[k]) for _ in range(len(bases[k - 1]))]
        for j, (cid, dL, dR) in enumerate(bases[k]):
            for inc in res.complex.facet_incidences(cid):
                target = (inc.facet, vadd(dL, inc.left), vadd(dR, inc.right))
                rows[index[target]][j] += res.signs[inc]
        matrices.append(rows)
    return bases, matrices, 1


@pytest.mark.parametrize("name, bound", [
    ("threefold_four_sheaves.json", 2),
    ("mckay_z6_123.json", 2),
    ("mckay_z2_11.json", 3),
])
def test_graded_pieces_match_brute_force(name, bound):
    doc = load(name)
    if doc.group is not None:
        C = mckay_complex(doc.group)
        res = build_resolution(C, signs=C.explicit_signs)
    else:
        Q = doc.quiver()
        res = build_resolution(general_complex(Q, superpotential(Q)))
    Q = res.Q
    box = (bound,) * Q.d
    table = _class_table(Q, box)
    for s, t in itertools.product(range(Q.n_vertices), repeat=2):
        swept = _pair_bases(res, table, s, t, box)
        for dvec in itertools.product(range(bound + 1), repeat=Q.d):
            bases, matrices, dim_A = brute_force_piece(res, s, t, dvec)
            piece = graded_piece(res, s, t, dvec)
            assert piece.bases == bases
            assert piece.matrices == matrices
            assert piece.dim_A == dim_A
            assert swept.get(dvec, [[]] * (res.n + 1)) == bases
