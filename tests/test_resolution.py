import functools
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricell import resolution
from toricell.complexes import (
    Cell,
    FacetIncidence,
    IncidenceSolution,
    ToricCellComplex,
    general_complex,
    mckay_complex,
)
from toricell.errors import ConstructionError, InputError, InternalError
from toricell.intlinalg import Packing, leq, rank, vadd, vsub
from toricell.resolution import (
    MAX_PIECES,
    MAX_TRIPLES,
    CellularResolution,
    ExactnessReport,
    _automorphisms,
    _differential,
    _gauge,
    _gf2_cokernel,
    _packed_facets,
    _packing,
    build_resolution,
    graded_piece,
    mckay_sign_crosscheck,
    verify_exactness,
    verify_minimality,
    verify_square_zero,
)
from toricell.quiver import QuiverOfSections, build_quiver
from toricell.superpotential import consistency, relations, superpotential
from toricell.variety import AbelianGroupData, mckay_toric_data

from conftest import load
from piece_oracle import one_sided_bases
from test_complexes import (
    check_solve_gf2_against_oracle,
    check_torus_homology,
)
from test_quiver import SMALL_GROUPS
from test_superpotential import relations_by_path_walk


@pytest.fixture(scope="module")
def dimer_resolution(quiver_four_sheaves):
    Q = quiver_four_sheaves
    return build_resolution(general_complex(Q, superpotential(Q)))


@pytest.fixture(scope="module")
def z6_resolution(mckay_z6_complex):
    return build_resolution(mckay_z6_complex,
                            signs=mckay_z6_complex.explicit_signs)


def test_generator_counts(dimer_resolution, z6_resolution):
    assert dimer_resolution.complex.counts() == (4, 10, 10, 4)
    assert z6_resolution.complex.counts() == (6, 18, 18, 6)


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


def facet_offsets(facets):
    """The deltas of `_packed_facets`, without signs, as the GF(2)
    certificate takes them."""
    return [[delta for delta, _ in f] for f in facets]


def gf2_certified(pk, offsets, bases):
    """Whether the GF(2) ranks certify a piece whose augmentation has
    rank 1."""
    return _gf2_cokernel(pk, offsets, bases) == 1


def packed_bases(pk, bases):
    """Basis triples (cell id, dL, dR) as the packed ints id << shift | dL;
    within one piece the cell and dL fix dR."""
    return [[cid << pk.shift | pk.pack(dL) for cid, dL, _dR in basis]
            for basis in bases]


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
    assert not oracle_piece_failures(piece.dims(), piece.matrices)


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
    rep = verify_exactness(dimer_resolution, 1)
    assert rep.exact
    assert rep.pieces_checked == 16 * 16
    rep = verify_exactness(z6_resolution, 1)
    assert rep.exact


def test_sign_crosscheck_z6(mckay_z6_group):
    delta = mckay_sign_crosscheck(mckay_z6_group)
    assert len(delta) == 48
    assert all(d in (1, -1) for d in delta)


def test_sign_crosscheck_z2():
    mckay_sign_crosscheck(AbelianGroupData.cyclic(2, (1, 1)))


def test_sign_crosscheck_trivial():
    mckay_sign_crosscheck(AbelianGroupData.cyclic(1, (0, 0, 0)))


def test_sign_crosscheck_reports_conflicts(mckay_z6_group, monkeypatch):
    """Solver signs that are no gauge transform of the closed form, here
    the single flip, are refused with the conflicting incidences."""
    monkeypatch.setattr(ToricCellComplex, "solve_incidence", lambda C:
                        IncidenceSolution(single_flip(C).signs, True, None))
    with pytest.raises(ConstructionError,
                       match=r"differ by no gauge: \[FacetIncidence"):
        mckay_sign_crosscheck(mckay_z6_group)


def test_weight_zero_quotient_z3_1110():
    """Z/3(1,1,1,0) has a loop x4 at every vertex: consistent at bound 3
    with 18 relations, and its McKay resolution is exact at bound 2."""
    G = AbelianGroupData.cyclic(3, (1, 1, 1, 0))
    X, coll = mckay_toric_data(G)
    Q = build_quiver(X, coll)
    assert sum(a.tail == a.head for a in Q.arrows) == 3
    rep = consistency(Q, superpotential(Q), 3)
    assert rep.consistent and rep.n_relations == 18
    C = mckay_complex(G, Q)
    assert C.counts() == (3, 12, 18, 12, 3)
    res = build_resolution(C, signs=C.explicit_signs)
    assert verify_square_zero(res)
    assert verify_exactness(res, 2).exact


def test_exactness_rejects_vacuous_checks(z6_resolution):
    for bound in (-1, (1, -1, 1), (1, 1)):
        with pytest.raises(InputError, match="3 nonnegative integers"):
            verify_exactness(z6_resolution, bound)
    rep = verify_exactness(z6_resolution, 0)
    assert rep.exact and rep.pieces_checked == 36


def test_exactness_piece_limit(z6_resolution):
    """A request above MAX_PIECES is refused before any work; the
    fourfold at bound 3 (64 pairs, 4^6 divisors) stays below it."""
    assert 64 * 4 ** 6 <= MAX_PIECES
    with pytest.raises(InputError, match="graded pieces"):
        verify_exactness(z6_resolution, 100000)
    b = 0
    while 36 * (b + 1) ** 3 <= MAX_PIECES:
        b += 1
    with pytest.raises(InputError, match="graded pieces"):
        verify_exactness(z6_resolution, b)


def guard_elements(res, b):
    """The dL <= b - div(eta), over the cells."""
    return sum(math.prod(b - x + 1 for x in c.divisor)
               for c in res.complex.cells if max(c.divisor) <= b)


def test_exactness_triple_limit(z6_resolution, request, monkeypatch):
    """The guard's count is the number of one-sided basis elements of all
    pieces of an abelian quotient.  A request above MAX_TRIPLES is refused
    before any work.  The fourfold at bound 3 stays below it, and so does
    mckay_z2_11 at bound 66, which the bimodule triple count refused."""
    pk = _packing(z6_resolution.complex, (2, 2, 2))
    count = guard_elements(z6_resolution, 2)
    assert count == sum(
        len(basis) for s in range(6) for t in range(6)
        for bases in one_sided_bases(z6_resolution.complex, pk, s, t).values()
        for basis in bases)
    fourfold = fixture_resolution("fourfold.json", request)
    assert guard_elements(fourfold, 3) <= MAX_TRIPLES
    assert verify_exactness(fixture_resolution("mckay_z2_11.json", request),
                            66).exact
    monkeypatch.setattr(resolution, "MAX_TRIPLES", count)
    assert verify_exactness(z6_resolution, 2).exact
    monkeypatch.setattr(resolution, "MAX_TRIPLES", count - 1)
    with pytest.raises(InputError, match="basis elements"):
        verify_exactness(z6_resolution, 2)


def corrupt_facet(monkeypatch, res, cid, j):
    """Make the j-th facet incidence of cell cid, as the complex lists it
    to the resolution, one onto cid itself with the same classes and sign:
    an incidence only a bug could produce.  Returns the original."""
    real = ToricCellComplex.facet_incidences
    inc = real(res.complex, cid)[j]
    bad = inc._replace(facet=cid)
    res.signs = {**res.signs, bad: res.signs[inc]}
    monkeypatch.setattr(ToricCellComplex, "facet_incidences", lambda C, c: [
        bad if i == inc else i for i in real(C, c)])
    return inc


def test_differential_off_piece_is_internal_error(mckay_z6_complex,
                                                  monkeypatch):
    """The complex validates the classes of every incidence, so only a bug
    can send a differential out of its graded piece: with the incidence of
    a 1-cell onto its tail corrupted to a facet of the cell's own
    dimension, graded_piece and verify_exactness raise InternalError
    (exit 3), not an InputError (exit 2)."""
    C = mckay_z6_complex
    res = build_resolution(C, signs=C.explicit_signs)
    cell = C.by_dim[1][0]
    j = next(j for j, i in enumerate(C.facet_incidences(cell.id))
             if not any(i.right))
    corrupt_facet(monkeypatch, res, cell.id, j)
    with pytest.raises(InternalError, match="leaves the graded piece"):
        graded_piece(res, cell.head, cell.tail, cell.divisor)
    with pytest.raises(InternalError, match="leaves the graded piece"):
        verify_exactness(res, 1)


@st.composite
def packing_cases(draw):
    """A bound of up to 6 entries, each up to 65 (the largest bound
    MAX_PIECES admits), a slack for the cell divisors, and vectors drawn
    up to their field maxima: a left part dL + div(eta) <= bound + slack,
    a right part dR <= bound, a vector up to the largest field value
    2 * bound + slack, and one <= bound.  Entries drawn above a maximum
    are clamped to it, so the maxima come up often."""
    d = draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, 132), min_size=d, max_size=d)
    bound = tuple(min(x, 65) for x in draw(entries))
    slack = draw(st.integers(0, 2))

    def upto(tops):
        return tuple(map(min, draw(entries), tops))

    return (bound, slack, upto([b + slack for b in bound]), upto(bound),
            upto([2 * b + slack for b in bound]), upto(bound))


@settings(max_examples=200, deadline=None)
@given(packing_cases())
def test_packing_round_trip_order_sum_and_mask(case):
    """unpack inverts pack, int order is lexicographic order, + is vadd,
    and the guard-bit test is leq, also on sums above the bound."""
    bound, slack, low, right, top, below = case
    pk = Packing(bound, slack)
    total = vadd(low, right)
    vectors = [bound, low, right, top, below, total]
    for v in vectors:
        assert pk.unpack(pk.pack(v)) == v
    assert pk.pack(low) + pk.pack(right) == pk.pack(total)
    for u, v in itertools.permutations(vectors, 2):
        assert (pk.pack(u) < pk.pack(v)) == (u < v)
        assert pk.leq(pk.pack(u), pk.pack(v)) == leq(u, v)
    assert pk.leq(pk.pack(low) + pk.pack(right), pk.B) == leq(total, bound)


def test_broken_sign_negative_control(mckay_z6_complex):
    C = mckay_z6_complex
    signs = dict(C.explicit_signs)
    inc = next(i for i in C.incidences if C.cells[i.parent].dim == 2)
    signs[inc] = -signs[inc]
    res = CellularResolution(C, signs)
    with pytest.raises(ConstructionError, match="d.d != 0 on flag"):
        verify_square_zero(res)
    # the flipped 2-cell and the two 3-cells above it fail to cancel, each
    # reported at its own piece with the product its dimension names;
    # check_products changes nothing
    rep = verify_exactness(res, 1)
    assert not rep.exact
    assert rep.pieces_checked == 36 * 8
    assert rep.failures == [
        (0, 0, (1, 1, 1), [("d2.d3", None, None, None)]),
        (1, 0, (1, 1, 0), [("d1.d2", None, None, None)]),
        (1, 1, (1, 1, 1), [("d2.d3", None, None, None)])]
    assert verify_exactness(res, 1, check_products=True) == rep


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


def fixture_resolution(name, request):
    """The resolution of a fixture: closed-form signs for a quotient, the
    solver's signs for a superpotential algebra."""
    if name == "fourfold.json":
        Q, W, rels, _ = request.getfixturevalue("fourfold_pipeline")
        return build_resolution(general_complex(Q, W, rels=rels))
    doc = load(name)
    if doc.group is not None:
        C = mckay_complex(doc.group)
        return build_resolution(C, signs=C.explicit_signs)
    Q = doc.quiver()
    return build_resolution(general_complex(Q, superpotential(Q)))


def solver_resolution(name):
    """The resolution of a quotient fixture with the solver's signs, the
    library default of build_resolution."""
    return build_resolution(mckay_complex(load(name).group))


QUOTIENTS = ["mckay_z2_11.json", "mckay_z2_110.json", "mckay_z6_123.json"]


@pytest.mark.parametrize("name", [
    "conifold.json", "fourfold.json", "mckay_z2_11.json",
    "mckay_z2_110.json", "mckay_z6_123.json", "threefold_four_sheaves.json",
    "trivial_a3.json"])
def test_fixture_complexes_have_torus_homology(name, request):
    """Every fixture with a complex, under the signs its resolution uses."""
    res = fixture_resolution(name, request)
    check_torus_homology(res.complex, res.signs)


@pytest.mark.parametrize("name, bound", [
    ("threefold_four_sheaves.json", 2),
    ("mckay_z6_123.json", 2),
    ("mckay_z2_11.json", 3),
])
def test_graded_pieces_match_brute_force(name, bound, request):
    res = fixture_resolution(name, request)
    Q = res.Q
    box = (bound,) * Q.d
    pk = _packing(res.complex, box)
    facets = _packed_facets(res, pk)
    for s, t in itertools.product(range(Q.n_vertices), repeat=2):
        for dvec in itertools.product(range(bound + 1), repeat=Q.d):
            bases, matrices, dim_A = brute_force_piece(res, s, t, dvec)
            piece = graded_piece(res, s, t, dvec)
            assert piece.bases == bases
            assert piece.matrices == matrices
            assert piece.dim_A == dim_A
            packed = packed_bases(pk, bases)
            for k in range(res.n + 1):
                cols = _differential(pk, facets, packed, k)
                assert ([sum(1 << i for i, x in col.items() if x % 2)
                         for col in cols] == mod2_columns(matrices[k]))


# ---------------------------------------------------------------------------
# exactness up to symmetry against the per-pair oracle: with only the
# identity as symmetry, every orbit is one pair, so every piece of every
# pair is computed


def oracle_exactness(res, bound):
    identity = [tuple(range(res.Q.n_vertices))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_automorphisms", lambda res: identity)
        return verify_exactness(res, bound)


FIXTURE_SYMMETRY = {
    "mckay_z6_123.json": 6,
    "mckay_z2_11.json": 2,
    "mckay_z2_110.json": 2,
    "conifold.json": 1,
    "threefold_four_sheaves.json": 1,
    "trivial_a3.json": 1,
    "fourfold.json": 1,
}


@pytest.mark.parametrize("name", sorted(FIXTURE_SYMMETRY))
def test_automorphisms_of_fixtures(name, request):
    """|G| translations on a quotient by G, only the identity on the
    superpotential fixtures, whose complexes have no closed-form signs."""
    res = fixture_resolution(name, request)
    auts = _automorphisms(res)
    n = res.Q.n_vertices
    assert len(auts) == FIXTURE_SYMMETRY[name]
    assert (res.complex.explicit_signs is None) == (name not in QUOTIENTS)
    assert auts[0] == tuple(range(n))
    assert len(set(auts)) == len(auts)
    assert all(sorted(g) == list(range(n)) for g in auts)


def test_closed_form_signs_keep_translations_without_a_gauge(
        mckay_z6_complex, monkeypatch):
    """Signs that are the complex's own closed-form signs keep every
    translation with no gauge check (the gauge is 1); a copy of them is
    checked once."""
    C, calls = mckay_z6_complex, []
    every = [sigma for sigma, _ in C.Q.translations]
    spy(monkeypatch, "_gauge", calls)
    assert _automorphisms(CellularResolution(C, C.explicit_signs)) == every
    assert calls == []
    assert _automorphisms(CellularResolution(C, dict(C.explicit_signs))) \
        == every
    assert len(calls) == 1


@pytest.mark.parametrize("check_products", [False, True])
@pytest.mark.parametrize("name", sorted(FIXTURE_SYMMETRY))
def test_exactness_matches_per_pair_oracle(name, check_products, request):
    """The report is the per-pair oracle's, which takes the default
    check_products: the option changes nothing."""
    res = fixture_resolution(name, request)
    bound = 1 if name == "fourfold.json" else 2
    rep = verify_exactness(res, bound, check_products)
    assert rep.exact
    assert rep == oracle_exactness(res, bound)


@pytest.mark.parametrize("name", QUOTIENTS)
def test_solver_signs_match_both_oracles(name):
    """The solver's signs are not the closed-form ones but a gauge
    transform of them, so they keep all |G| translations;
    the report is that of the identity oracle at bound 2, and of the
    exact-rank oracle at bound 1 (2 for the order-2 groups)."""
    res = solver_resolution(name)
    assert res.signs != res.complex.explicit_signs
    assert len(_automorphisms(res)) == FIXTURE_SYMMETRY[name]
    small = 1 if name == "mckay_z6_123.json" else 2
    rep = verify_exactness(res, 2)
    assert rep.exact
    assert rep == oracle_exactness(res, 2)
    assert verify_exactness(res, small) == exact_rank_oracle(res, small)


def gauged(res, delta):
    """The resolution with signs delta(parent) delta(facet) signs."""
    return CellularResolution(res.complex, {
        i: delta[i.parent] * delta[i.facet] * sign
        for i, sign in res.signs.items()})


def random_delta(C, seed, fix_vertices):
    """A seeded +-1 on every cell, +1 on the 0-cells with fix_vertices."""
    rng = random.Random(seed)
    return [1 if fix_vertices and c.dim == 0 else rng.choice((1, -1))
            for c in C.cells]


@pytest.mark.parametrize("seed", range(5))
def test_gauge_recovers_delta(mckay_z6_complex, seed):
    """_gauge finds exactly a random delta that is +1 on the 0-cells, and
    reports conflicts between the closed-form signs and a single flip."""
    C = mckay_z6_complex
    delta = random_delta(C, seed, True)
    signs = gauged(CellularResolution(C, C.explicit_signs), delta).signs
    assert _gauge(C, signs, C.explicit_signs) == (delta, [])
    assert _gauge(C, single_flip(C).signs, C.explicit_signs)[1]


@pytest.mark.parametrize("seed", range(5))
def test_gauged_invariant_flip(mckay_z6_complex, seed):
    """The invariant flip under a random delta, +1 on the 0-cells or free
    there, is no gauge transform of the closed-form signs, so it keeps
    the identity alone, and the report is the oracle's."""
    C = mckay_z6_complex
    flip = invariant_flip(C)
    for fix_vertices in (True, False):
        res = gauged(flip, random_delta(C, seed, fix_vertices))
        assert _automorphisms(res) == [tuple(range(6))]
        rep = verify_exactness(res, 1)
        assert not rep.exact and rep == oracle_exactness(res, 1)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", QUOTIENTS)
def test_gauged_signs_keep_every_translation(name, seed, request):
    """The closed-form and the solver's signs under a random delta that
    is +1 on the 0-cells keep all |G| translations of the quiver, and the
    report is the oracle's.  Free on the 0-cells, delta keeps them iff it
    is constant there: the complex is connected, so another gauge to the
    same signs is delta or -delta."""
    for res in (fixture_resolution(name, request), solver_resolution(name)):
        C, every = res.complex, [g for g, _ in res.Q.translations]
        assert len(every) == FIXTURE_SYMMETRY[name]
        moved = gauged(res, random_delta(C, seed, True))
        assert _automorphisms(moved) == every
        assert verify_exactness(moved, 1) == oracle_exactness(moved, 1)
        delta = random_delta(C, seed, False)
        constant = len({delta[c.id] for c in C.by_dim[0]}) == 1
        assert (_automorphisms(gauged(res, delta))
                == (every if constant else [tuple(range(len(every)))]))


def test_sign_controls_keep_the_identity_alone(mckay_z6_complex):
    """The augmentation flip, the closed-form signs under a gauge that is
    -1 at vertex 0 alone, and a complex without closed-form signs keep
    the identity alone, as the single and invariant flips do."""
    for res in (augmentation_flip(mckay_z6_complex),
                missing_top_cell(mckay_z6_complex)):
        assert _automorphisms(res) == [tuple(range(6))]


@pytest.mark.parametrize("name", QUOTIENTS)
def test_solver_and_closed_form_ranks_agree(name, request):
    """The gauge between the solver's and the closed-form signs rescales
    basis triples, so their exact graded ranks at Q.ones agree."""
    a, b = fixture_resolution(name, request), solver_resolution(name)
    Q = a.Q
    for s, t in itertools.product(range(Q.n_vertices), repeat=2):
        ranks = [[rank(m) for m in graded_piece(res, s, t, Q.ones).matrices]
                 for res in (a, b)]
        assert ranks[0] == ranks[1]


def single_flip(C):
    """The closed-form resolution with the sign of one incidence of a
    2-cell flipped."""
    signs = dict(C.explicit_signs)
    inc = next(i for i in C.incidences if C.cells[i.parent].dim == 2)
    signs[inc] = -signs[inc]
    return CellularResolution(C, signs)


def invariant_flip(C):
    """The closed-form resolution with, at every vertex, the sign flipped
    on the tail-side incidence that drops x1 from the square face
    {x1, x2}."""
    def flipped(inc):
        return (C.cells[inc.parent].payload[2] == (0, 1)
                and inc.left == (1, 0, 0))

    return CellularResolution(C, {inc: -sign if flipped(inc) else sign
                                  for inc, sign in C.explicit_signs.items()})


def failed_pieces(rep):
    """The (s, t, d) of a report's failures."""
    return {(s, t, d) for s, t, d, _ in rep.failures}


def least_failures(rep):
    """The failed (s, t, d) with no failed (s, t', d') of the same head s
    at a divisor d' below d (componentwise, d' != d)."""
    failed = failed_pieces(rep)
    return {(s, t, d) for s, t, d in failed
            if not any(u == s and e != d and leq(e, d) for u, _, e in failed)}


def sign_failure_pieces(res, bound):
    """The pieces (h(eta), t(eta), div(eta)) in the box of the cells eta
    that `sign_failures` names."""
    C = res.complex
    return {(c.head, c.tail, c.divisor)
            for c in (C.cells[cid] for cid, _ in C.sign_failures(res.signs))
            if max(c.divisor) <= bound}


def test_single_flip_breaks_symmetry(mckay_z6_complex):
    """One flipped sign leaves only the identity; the report names the
    pieces of the cells whose routes do not cancel, each one where the
    exact-rank oracle finds a nonzero product."""
    res = single_flip(mckay_z6_complex)
    assert _automorphisms(res) == [tuple(range(6))]
    rep = verify_exactness(res, 2)
    assert not rep.exact
    assert failed_pieces(rep) == sign_failure_pieces(res, 2)
    assert failed_pieces(rep) <= failed_pieces(exact_rank_oracle(res, 2))


def test_invariant_flip_copies_failures_to_orbit(mckay_z6_complex):
    """The invariant flip commutes with the translations, and so do the
    cells whose routes do not cancel.  It is no gauge transform of the
    closed-form signs, so every pair is computed, and the failures at
    each pair are those at every pair of its orbit; the oracle finds them
    too."""
    res = invariant_flip(mckay_z6_complex)
    assert _automorphisms(res) == [tuple(range(6))]
    auts = [g for g, _ in res.Q.translations]
    assert len(auts) == 6
    rep = verify_exactness(res, 2)
    assert rep == oracle_exactness(res, 2)
    assert failed_pieces(rep) <= failed_pieces(exact_rank_oracle(res, 2))
    failed = {(s, t, d): detail for s, t, d, detail in rep.failures}
    assert failed and len(failed) % 6 == 0
    for (s, t, d), detail in failed.items():
        assert all(failed[g[s], g[t], d] == detail for g in auts)


# ---------------------------------------------------------------------------
# the GF(2) certificate: its clearing reduction against dense elimination,
# and every report against an exact-rank oracle that shares none of its
# shortcuts


def mod2_columns(m):
    """The columns of a dense integer matrix as int bitsets of their odd
    rows."""
    width = len(m[0]) if m else 0
    return [sum(1 << i for i, row in enumerate(m) if row[j] % 2)
            for j in range(width)]


def dense_gf2_rank(A):
    """Rank of A reduced mod 2, by Gaussian elimination on 0/1 rows."""
    rows = [[x % 2 for x in row] for row in A]
    r = 0
    for j in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def gf2_identities_hold(dims, mats):
    """The rank identities of a piece for the dense GF(2) ranks of its
    matrices, d_0 the augmentation row."""
    r2 = [dense_gf2_rank(m) for m in mats] + [0]
    return r2[0] == 1 and all(r2[k] + r2[k + 1] == dims[k]
                              for k in range(len(dims)))


@st.composite
def simplicial_complexes(draw):
    """(faces, cone): the faces of a random simplicial complex of
    dimension <= 3 as vertex tuples, by dimension, each dimension in a
    drawn order.  With cone it is the cone over the drawn faces, which is
    acyclic."""
    tops = draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1,
                                       max_size=3), min_size=1, max_size=5))
    cone = draw(st.booleans())
    if cone:
        tops = [top | {6} for top in tops]
    faces = {f for top in tops for r in range(1, len(top) + 1)
             for f in itertools.combinations(sorted(top), r)}
    return [draw(st.permutations(sorted(f for f in faces if len(f) == k + 1)))
            for k in range(4)], cone


@settings(max_examples=300, deadline=None)
@given(simplicial_complexes(), st.booleans())
def test_gf2_rank_against_dense_elimination(case, tripled):
    """On the augmented chain complex of a simplicial complex, where
    d.d = 0, the GF(2) certificate holds exactly when the dense GF(2) ranks of
    the boundary matrices satisfy the rank identities.  Each face is a
    cell with the one basis triple cell << shift; with tripled each
    incidence is listed three times, signs s, s, -s, so columns XOR
    repeated rows."""
    faces, cone = case

    def boundary(f):
        """(facet, sign) for the faces of a face of dimension >= 1."""
        return [(f[:i] + f[i + 1:], (-1) ** i)
                for i in range(len(f) if len(f) > 1 else 0)]

    pk = Packing((0,), 0)
    cells = [f for by_dim in faces for f in by_dim]
    cid = {f: i for i, f in enumerate(cells)}
    repeats = (1, 1, -1) if tripled else (1,)
    facets = [[((cid[g] - cid[f]) << pk.shift, sign * r)
               for g, sign in boundary(f) for r in repeats]
              for f in cells]
    bases = [[cid[f] << pk.shift for f in by_dim] for by_dim in faces]
    mats = [[[1] * len(faces[0])]]
    for k in range(1, 4):
        row = {f: i for i, f in enumerate(faces[k - 1])}
        m = [[0] * len(faces[k]) for _ in faces[k - 1]]
        for j, f in enumerate(faces[k]):
            for g, sign in boundary(f):
                m[row[g]][j] += sign
        mats.append(m)
    expected = gf2_identities_hold([len(b) for b in faces], mats)
    assert gf2_certified(pk, facet_offsets(facets), bases) == expected
    assert expected or not cone


@pytest.mark.parametrize("name, bound", [
    ("mckay_z6_123.json", 2),
    ("fourfold.json", 1),
    ("threefold_four_sheaves.json", 2),
    ("missing_top_cell", 2),
])
def test_gf2_certified_matches_dense_ranks(name, bound, request,
                                          mckay_z6_complex):
    """On every nonzero bimodule piece, the GF(2) certificate holds
    exactly when the dense GF(2) ranks of the graded_piece matrices satisfy the rank
    identities.  The square-zero but inexact missing_top_cell has pieces
    where it is False."""
    if name == "missing_top_cell":
        res = missing_top_cell(mckay_z6_complex)
    else:
        res = fixture_resolution(name, request)
    Q = res.Q
    verdicts = set()
    for dvec in itertools.product(range(bound + 1), repeat=Q.d):
        pk = _packing(res.complex, dvec)
        offsets = facet_offsets(_packed_facets(res, pk))
        for s, t in itertools.product(range(Q.n_vertices), repeat=2):
            piece = graded_piece(res, s, t, dvec)
            if not piece.dim_A:
                continue
            got = gf2_certified(pk, offsets, packed_bases(pk, piece.bases))
            assert got == gf2_identities_hold(piece.dims(), piece.matrices)
            verdicts.add(got)
    assert verdicts == ({False, True} if name == "missing_top_cell"
                        else {True})


def test_cleared_column_off_piece_is_internal_error(mckay_z6_complex,
                                                   monkeypatch):
    """The guard also runs on the columns that clearing skips.  At the
    divisor (1, 1, 1) of the 3-cube at a vertex, P_3 is that cube alone,
    and the pivot of its column, its last odd row, is a 2-cell triple
    whose column d_2 skips.  With a facet of that 2-cell corrupted to a
    cell of its own dimension, the GF(2) reduction raises at that
    triple."""
    C = mckay_z6_complex
    res = build_resolution(C, signs=C.explicit_signs)
    cube = C.by_dim[3][0]
    piece = graded_piece(res, cube.head, cube.tail, cube.divisor)
    assert len(piece.bases[3]) == 1
    pivot = max(i for i, row in enumerate(piece.matrices[3]) if row[0] % 2)
    cid, dL, _dR = piece.bases[2][pivot]
    pk = _packing(C, cube.divisor)
    packed = packed_bases(pk, piece.bases)
    assert gf2_certified(pk, facet_offsets(_packed_facets(res, pk)), packed)
    left = corrupt_facet(monkeypatch, res, cid, 0).left
    facets = _packed_facets(res, pk)
    at = re.escape(f"at {(cid, vadd(dL, left))}")
    with pytest.raises(InternalError, match=at):
        _gf2_cokernel(pk, facet_offsets(facets), packed)


def test_product_failure_matches_composition_oracle(mckay_z6_complex):
    """The cells that `sign_failures` names are the cells eta whose triple
    (eta, 0, 0) has d_{k-1}.d_k != 0, k = dim eta, in the dense matrices
    of its piece (h(eta), t(eta), div(eta)): the flips fail at k >= 2, the
    augmentation flip at k = 1 only, and missing_top_cell nowhere."""
    C = mckay_z6_complex
    dims = {}
    for name, res in [("single", single_flip(C)),
                      ("invariant", invariant_flip(C)),
                      ("missing", missing_top_cell(C)),
                      ("augmentation", augmentation_flip(C))]:
        D, zero = res.complex, (0,) * C.Q.d
        failing = set()
        for c in D.cells:
            if not c.dim:
                continue
            piece = graded_piece(res, c.head, c.tail, c.divisor)
            j = piece.bases[c.dim].index((c.id, zero, zero))
            outer, inner = piece.matrices[c.dim - 1], piece.matrices[c.dim]
            if any(sum(x * row[j] for x, row in zip(out, inner))
                   for out in outer):
                failing.add(c.id)
        named = {cid for cid, _ in D.sign_failures(res.signs)}
        assert named == failing, name
        dims[name] = {D.cells[cid].dim for cid in named}
    assert min(dims["single"]) >= 2 and min(dims["invariant"]) >= 2
    assert dims["missing"] == set() and dims["augmentation"] == {1}


def oracle_piece_failures(dims, mats):
    """The failure detail of one nonzero piece from its dense matrices:
    the first nonzero product d_{k-1}.d_k, else the rank identities with
    ranks from intlinalg.rank."""
    n = len(dims) - 1
    for k in range(1, n + 1):
        outer, inner = mats[k - 1], mats[k]
        if any(sum(row[i] * inner[i][j] for i in range(dims[k - 1]))
               for row in outer for j in range(dims[k])):
            return [(f"d{k - 1}.d{k}", None, None, None)]
    ranks = [rank(m) for m in mats] + [0]
    failures = []
    if ranks[0] != 1:
        failures.append(("augmentation", ranks[0], 1, None))
    for k in range(n + 1):
        if ranks[k] + ranks[k + 1] != dims[k]:
            failures.append((k, ranks[k], ranks[k + 1], dims[k]))
    euler = sum((-1) ** k * d for k, d in enumerate(dims))
    if not failures and euler != 1:
        failures.append(("euler", euler, 1, None))
    return failures


def exact_rank_oracle(res, bound):
    """The bimodule sweep as a report: every piece at every vertex pair
    built by brute_force_piece, its products checked and its matrices
    ranked by intlinalg.rank, with no symmetry, no GF(2) certificate and
    no one-sided piece."""
    Q = res.Q
    failures = []
    for s, t in itertools.product(range(Q.n_vertices), repeat=2):
        for dvec in itertools.product(range(bound + 1), repeat=Q.d):
            bases, mats, dim_A = brute_force_piece(res, s, t, dvec)
            if dim_A and (fail := oracle_piece_failures(
                    [len(b) for b in bases], mats)):
                failures.append((s, t, dvec, fail))
    return ExactnessReport(exact=not failures, bound=(bound,) * Q.d,
                           pieces_checked=Q.n_vertices ** 2 * (bound + 1) ** Q.d,
                           failures=failures)


def missing_top_cell(C):
    """The closed-form resolution without its last 3-cell: d.d = 0 still
    holds, so the certificate applies, but the complex is not exact."""
    top = C.cells[-1]
    assert top.dim == C.n
    incs = [i for i in C.incidences if i.parent != top.id]
    D = ToricCellComplex(C.Q, C.n, C.cells[:-1], incs)
    return CellularResolution(D, {i: C.explicit_signs[i] for i in incs})


@pytest.mark.parametrize("name, bound", [
    ("mckay_z6_123.json", 2),
    ("fourfold.json", 1),
])
def test_exactness_matches_exact_rank_oracle(name, bound, request):
    res = fixture_resolution(name, request)
    rep = verify_exactness(res, bound)
    assert rep.exact
    assert rep == exact_rank_oracle(res, bound)


def test_uncertified_pieces_get_exact_ranks(mckay_z6_complex, monkeypatch):
    """A square-zero resolution that is not exact: the one-sided pieces
    the GF(2) certificate cannot settle are ranked exactly, and for each
    head s the least failing pieces are the oracle's."""
    res = missing_top_cell(mckay_z6_complex)
    assert verify_square_zero(res)
    ranked = []
    real = resolution._rank_failures
    monkeypatch.setattr(resolution, "_rank_failures", lambda *args: (
        ranked.append(real(*args)) or ranked[-1]))
    rep = verify_exactness(res, 2)
    assert not rep.exact and any(ranked)
    assert least_failures(rep) == least_failures(exact_rank_oracle(res, 2))


def augmentation_flip(C):
    """The closed-form resolution with every incidence onto the 0-cell at
    vertex 0 flipped."""
    v0 = next(c.id for c in C.by_dim[0] if c.head == 0)
    return CellularResolution(C, {inc: -sign if inc.facet == v0 else sign
                                  for inc, sign in C.explicit_signs.items()})


def test_augmentation_sign_control(mckay_z6_complex):
    """Flipping every incidence onto vertex 0 keeps the two-step routes
    cancelling, but not the two ends of the arrows at vertex 0, so the
    augmentation composed with d1 is not 0 and GF(2) ranks prove nothing:
    verify_square_zero rejects it.  The flip only rescales basis
    elements, so the rank identities still hold; the report names d0.d1
    at the pieces of those arrows, where the oracle finds it too, and
    bound 0, which holds no arrow, is exact."""
    res = augmentation_flip(mckay_z6_complex)
    with pytest.raises(ConstructionError, match="augmentation"):
        verify_square_zero(res)
    rep = verify_exactness(res, 1)
    assert not rep.exact
    assert all(detail == [("d0.d1", None, None, None)]
               for *_, detail in rep.failures)
    assert failed_pieces(rep) <= failed_pieces(exact_rank_oracle(res, 1))
    assert verify_exactness(res, 0).exact


def test_forced_fallback_leaves_reports_unchanged(monkeypatch, request,
                                                  mckay_z6_complex):
    """With a GF(2) certificate that settles nothing, every one-sided
    piece takes the exact path, and no report changes."""
    cases = [(fixture_resolution("mckay_z6_123.json", request), 2),
             (fixture_resolution("fourfold.json", request), 1),
             (missing_top_cell(mckay_z6_complex), 2)]
    before = [verify_exactness(res, bound) for res, bound in cases]
    calls = []

    def settles_nothing(pk, offsets, bases):
        calls.append(bases)

    monkeypatch.setattr(resolution, "_gf2_cokernel", settles_nothing)
    assert [verify_exactness(res, bound) for res, bound in cases] == before
    assert calls


def test_sign_crosscheck_needs_exact_ranks(mckay_z6_complex):
    """Mod 2 every sign is 1, so the single-flip resolution and the
    closed-form one have the same GF(2) ranks at Q.ones, but not the same
    exact ranks: sign choices cannot be compared by GF(2) ranks, which is
    why the cross-check compares the signs themselves, up to a gauge."""
    C = mckay_z6_complex
    good, bad = CellularResolution(C, C.explicit_signs), single_flip(C)
    differ = False
    for s, t in itertools.product(range(C.Q.n_vertices), repeat=2):
        mats_good = graded_piece(good, s, t, C.Q.ones).matrices
        mats_bad = graded_piece(bad, s, t, C.Q.ones).matrices
        assert ([dense_gf2_rank(m) for m in mats_good]
                == [dense_gf2_rank(m) for m in mats_bad])
        differ |= [rank(m) for m in mats_good] != [rank(m) for m in mats_bad]
    assert differ


@pytest.mark.parametrize("name", sorted(FIXTURE_SYMMETRY))
def test_solve_gf2_matches_oracle_on_fixtures(name, request, monkeypatch):
    """Every GF(2) system the fixtures give solve_gf2: the incidence
    system, which for a quotient mckay_sign_crosscheck solves and compares
    with the closed form.  Each call must return the oracle's solution or
    certificate."""
    calls = check_solve_gf2_against_oracle(monkeypatch)
    group = load(name).group
    if group is not None:
        mckay_sign_crosscheck(group)
    else:
        fixture_resolution(name, request)
    assert len(calls) == 1


@functools.cache
def small_complexes(n):
    """The hypercube complexes of SMALL_GROUPS[n], built once."""
    return [mckay_complex(G) for G in SMALL_GROUPS[n]]


@pytest.mark.parametrize("n", sorted(SMALL_GROUPS))
def test_small_abelian_quotients(n, monkeypatch):
    """For each small abelian subgroup of SL(n): the relations equal the
    path-walk oracle's, the quiver is consistent at bound 2, tau is an
    involution, Delta has the homology of the n-torus, the McKay
    resolution is exact at bound 2, and the solver's signs are the
    closed-form ones up to a gauge, with the solver's GF(2) system solved
    as the oracle solves it for n <= 3.

    On the 54 SL(4) groups the sign cross-check adds 0.4-0.6 s to this
    test on a 2-CPU machine.  It runs as `_crosscheck` on the complex of
    `small_complexes`, which another test shares: the per-group memo that
    lets `mckay_sign_crosscheck` read the complex `mckay_complex` built is
    emptied before each test and holds 8 groups, so here it would build
    each complex again (0.5 s).  Checking the SL(4) solves against the
    quadratic oracle would add 2.0 s more, so the oracle checks n <= 3."""
    calls = check_solve_gf2_against_oracle(monkeypatch) if n <= 3 else []
    for G, C in zip(SMALL_GROUPS[n], small_complexes(n)):
        W = superpotential(C.Q)
        assert relations(C.Q, W) == relations_by_path_walk(C.Q), G
        assert consistency(C.Q, W, 2).consistent, G
        t = C.tau()
        assert all(t[t[c.id]] == c.id for c in C.cells), G
        check_torus_homology(C, C.explicit_signs)
        res = build_resolution(C, signs=C.explicit_signs)
        assert verify_exactness(res, 2).exact, G
        resolution._crosscheck(C)
    assert len(calls) == (len(SMALL_GROUPS[n]) if n <= 3 else 0)


# ---------------------------------------------------------------------------
# the one-sided pieces of P (x)_A A_0, the one exactness engine, against
# the bimodule sweep of exact_rank_oracle


def spy(mp, name, calls):
    """Replace resolution.<name> by a wrapper that appends what each call
    returns to calls."""
    real = getattr(resolution, name)

    def wrapper(*args):
        calls.append(real(*args))
        return calls[-1]

    mp.setattr(resolution, name, wrapper)


SIGN_CONTROLS = {"single_flip": single_flip, "invariant_flip": invariant_flip,
                 "augmentation_flip": augmentation_flip}


@pytest.mark.parametrize("name", sorted(FIXTURE_SYMMETRY) + [
    "missing_top_cell", "single_flip", "augmentation_flip", "invariant_flip"])
def test_one_sided_verdict_is_the_sweeps(name, request, mckay_z6_complex):
    """Every fixture with a complex (the two threefolds that are not
    dimer-consistent have none) and four inexact controls, at bounds 0-2
    (the fourfold 0-1): the verdict is that of the bimodule sweep of
    exact_rank_oracle, and bound 0 is exact.  On an exact resolution the
    reports are equal; on missing_top_cell, whose signs pass, each head's
    least failing pieces are the sweep's; on the sign-broken controls
    every reported piece is one the sweep reports."""
    if name == "missing_top_cell":
        res = missing_top_cell(mckay_z6_complex)
    elif name in SIGN_CONTROLS:
        res = SIGN_CONTROLS[name](mckay_z6_complex)
    else:
        res = fixture_resolution(name, request)
    for bound in range(2 if name == "fourfold.json" else 3):
        rep, oracle = verify_exactness(res, bound), exact_rank_oracle(res, bound)
        assert rep.exact == oracle.exact and (rep.exact or bound), bound
        if rep.exact:
            assert rep == oracle
        elif name == "missing_top_cell":
            assert least_failures(rep) == least_failures(oracle)
        else:
            assert failed_pieces(rep) <= failed_pieces(oracle)


@pytest.mark.parametrize("n", sorted(SMALL_GROUPS))
def test_one_sided_verdict_on_small_quotients(n, monkeypatch):
    """On the 80 small quotients, at bounds 0-2, the one-sided pieces
    decide alone: every verdict is exact and no bimodule piece is built."""
    bimodule = []
    spy(monkeypatch, "graded_piece", bimodule)
    for G, C in zip(SMALL_GROUPS[n], small_complexes(n)):
        res = build_resolution(C, signs=C.explicit_signs)
        for bound in range(3):
            assert verify_exactness(res, bound).exact, G
    assert not bimodule


@pytest.mark.parametrize("name", sorted(FIXTURE_SYMMETRY))
def test_one_sided_certificate_taken_when_exact(name, request, monkeypatch):
    """Exact, square-zero resolutions, with closed-form or solver signs:
    the one-sided pieces settle them with no bimodule piece built, as
    graded_piece alone builds one, for tests and the benchmark."""
    cases = [fixture_resolution(name, request)]
    if name in QUOTIENTS:
        cases.append(solver_resolution(name))
    one_sided, bimodule = [], []
    spy(monkeypatch, "_one_sided_failures", one_sided)
    spy(monkeypatch, "graded_piece", bimodule)
    for res in cases:
        assert verify_square_zero(res)
        assert verify_exactness(res, 1).exact
    assert one_sided == [[]] * len(cases) and not bimodule


def test_one_sided_certificate_not_taken(mckay_z6_complex, monkeypatch):
    """Signs that fail verify_square_zero at a cell in the box are
    reported with no one-sided piece built; failing only above the box,
    as the single flip does at bound 0, they leave the one-sided pieces to
    decide; the inexact missing_top_cell builds them and fails."""
    C = mckay_z6_complex
    asked = []
    spy(monkeypatch, "_one_sided_failures", asked)
    for res in (single_flip(C), augmentation_flip(C)):
        assert not verify_exactness(res, 2).exact
    assert not asked
    assert verify_exactness(single_flip(C), 0).exact and asked == [[]]
    assert not verify_exactness(missing_top_cell(C), 2).exact
    assert len(asked) == 2 and asked[1]


def test_one_sided_needs_vertex_only_degree_zero():
    """The one-sided pieces need A_0 spanned by the vertices, so no arrow
    of label 0, and a quiver refuses such an arrow when it is made."""
    with pytest.raises(InputError, match="arrow labels must be nonzero"):
        QuiverOfSections(2, [(0, 1, (0, 0)), (1, 0, (1, 1))])


def test_one_sided_piece_at_a_vertex_without_its_cell():
    """A complex of the Z/2(1, 1) quiver with the 0-cell of vertex 0
    alone passes the square-zero test, but A_0 at vertex 1 is not hit:
    at bound 0 the one-sided piece at (1, 1, 0), listed though empty, is
    the only one that fails, at the augmentation, as in the bimodule
    sweep."""
    Q = load("mckay_z2_11.json").quiver()
    C = ToricCellComplex(Q, 2, [Cell(id=0, dim=0, head=0, tail=0,
                                     divisor=(0, 0), payload=("vertex", 0))],
                         [])
    res = CellularResolution(C, {})
    assert verify_square_zero(res)
    rep = verify_exactness(res, 0)
    assert rep.failures == [(1, 1, (0, 0), [("augmentation", 0, 1, None)])]
    assert rep == exact_rank_oracle(res, 0)


def without_top_cells(C):
    """The closed-form resolution of a hypercube complex without the top
    cell of any vertex, cells renumbered, its signs recorded as the
    complex's closed-form ones, which the translations still keep: d.d = 0
    and it is not exact."""
    keep = {c.id: i for i, c in enumerate(c for c in C.cells if c.dim < C.n)}
    cells = [c._replace(id=keep[c.id]) for c in C.cells if c.id in keep]
    signs = {i._replace(parent=keep[i.parent], facet=keep[i.facet]): sign
             for i, sign in C.explicit_signs.items() if i.parent in keep}
    D = ToricCellComplex(C.Q, C.n, cells, list(signs))
    D.explicit_signs = signs
    return CellularResolution(D, signs)


def test_one_sided_failures_copied_to_orbit(mckay_z6_complex):
    """Without its top cells the hypercube complex of Z/6(1,2,3) keeps
    d.d = 0 and all 6 translations, and is not exact: the failures found
    at one pair of each orbit and copied are those the per-pair oracle
    finds, and each head's least ones are the bimodule sweep's."""
    res = without_top_cells(mckay_z6_complex)
    assert verify_square_zero(res)
    assert len(_automorphisms(res)) == 6
    rep = verify_exactness(res, 2)
    assert not rep.exact
    assert rep == oracle_exactness(res, 2)
    assert least_failures(rep) == least_failures(exact_rank_oracle(res, 2))


@pytest.mark.parametrize("name", ["exact", "missing"])
def test_gf2_cokernel_against_dense_ranks(name, mckay_z6_complex):
    """On every one-sided piece at bound 2, _gf2_cokernel is dim P_0 minus
    the dense GF(2) rank of d_1 when the identities hold at every k >= 1,
    else None; the augmentation rank aug is 1 at (t, t, 0) and 0
    elsewhere, and the piece is certified iff the cokernel is aug.
    missing_top_cell has pieces of both kinds."""
    C = mckay_z6_complex
    res = (CellularResolution(C, C.explicit_signs) if name == "exact"
           else missing_top_cell(C))
    pk = _packing(res.complex, (2, 2, 2))
    ones = _packed_facets(res, pk, one_sided=True)
    offsets = facet_offsets(ones)
    seen = set()
    for s, t in itertools.product(range(6), repeat=2):
        pieces = one_sided_bases(res.complex, pk, s, t)
        assert (0 in pieces) == (s == t)
        for d, bases in pieces.items():
            aug = int(s == t and d == 0)
            dims = [len(b) for b in bases]
            ranks = [dense_gf2_rank(m) for m in one_sided_matrices(
                pk, ones, bases)] + [0]
            holds = all(ranks[k] + ranks[k + 1] == dims[k]
                        for k in range(1, len(bases)))
            got = _gf2_cokernel(pk, offsets, bases)
            assert got == (dims[0] - ranks[1] if holds else None)
            seen.add((aug, got == aug))
    assert seen == ({(0, True), (1, True)} if name == "exact"
                    else {(0, True), (0, False), (1, True)})


def one_sided_matrices(pk, facets, bases):
    """d_1, ..., d_n of a piece as dense rows, from `_differential`;
    index 0 is a placeholder the rank identities at k >= 1 do not read."""
    mats = [[]]
    for k in range(1, len(bases)):
        rows = [[0] * len(bases[k]) for _ in bases[k - 1]]
        for j, col in enumerate(_differential(pk, facets, bases, k)):
            for i, x in col.items():
                rows[i][j] = x
        mats.append(rows)
    return mats


def test_gf2_cokernel_by_hand():
    """An edge e onto two vertices v, w is the augmented complex of a
    point: cokernel 1, certified for aug = 1 only; with only the facet w
    the edge kills it, cokernel 0; a vertex alone leaves cokernel 1; an
    edge with no facet reduces to zero, so None."""
    pk = Packing((0,), 0)
    v, w, e = (c << pk.shift for c in range(3))
    offsets = [[], [], [v - e, w - e]]
    assert _gf2_cokernel(pk, offsets, [[v, w], [e]]) == 1
    assert gf2_certified(pk, offsets, [[v, w], [e]])
    offsets[2] = [w - e]
    assert _gf2_cokernel(pk, offsets, [[w], [e]]) == 0
    assert not gf2_certified(pk, offsets, [[w], [e]])
    assert _gf2_cokernel(pk, offsets, [[v], []]) == 1
    offsets[2] = []
    assert _gf2_cokernel(pk, offsets, [[v], [e]]) is None
