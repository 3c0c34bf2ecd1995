"""End-to-end acceptance checks.

One test per criterion; the pytest -v line for each test is the pass/fail
record, and each test also prints a one-line verdict with its runtime.
Every numeric assertion is exact (integer or rational arithmetic); each
criterion carries a wall-clock cap.
"""

import json
import os
import time
from fractions import Fraction

from toricell.complexes import general_complex, mckay_complex, sign_infeasibility
from toricell.matchings import (
    PiMap,
    extremal_matching,
    perfect_matchings,
    weight_zero_check,
)
from toricell.resolution import (
    build_resolution,
    mckay_sign_crosscheck,
    verify_exactness,
    verify_minimality,
    verify_square_zero,
)
from toricell.superpotential import consistency, relations, superpotential
from toricell.tiling import dimer_reconstruct, projection_maps, verify_tiling
from toricell.variety import AbelianGroupData, mckay_toric_data
from toricell.quiver import build_quiver

from conftest import load
from path_oracle import minimal_relations
from test_complexes import check_divisor_additivity
from test_cones import check_double_dualization, check_hilbert_basis_brute_force
from test_matchings import dimer_matching_audit
from test_superpotential import check_rewrite_steps

F = Fraction


class timer:
    def __init__(self, label, cap):
        self.label = label
        self.cap = cap

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{self.label}: {verdict} ({elapsed:.2f}s, cap {self.cap}s)")
        if exc_type is None:
            assert elapsed < self.cap, f"{self.label} exceeded {self.cap}s"
        return False


def rel_pairs(rels):
    return {frozenset(r.pair) for r in rels}


def test_criterion_1_base_example_quiver_and_relations():
    with timer("criterion 1 (quiver and relation ideal)", 1):
        Q = load("threefold_four_sheaves.json").quiver()
        assert Q.n_vertices == 4
        assert [(a.tail, a.head, a.label) for a in Q.arrows] == [
            (0, 1, (1, 0, 0, 0)), (0, 1, (0, 0, 1, 0)), (0, 2, (0, 0, 0, 1)),
            (1, 2, (0, 1, 0, 0)), (1, 3, (0, 0, 0, 1)), (2, 3, (1, 0, 0, 0)),
            (2, 3, (0, 0, 1, 0)), (3, 0, (0, 0, 0, 1)), (3, 0, (1, 1, 0, 0)),
            (3, 0, (0, 1, 1, 0))]
        mins = minimal_relations(Q)
        displayed = {frozenset(p) for p in [
            ((2, 5), (0, 4)), ((2, 6), (1, 4)), ((0, 3, 6), (1, 3, 5)),
            ((8, 2), (7, 0, 3)), ((9, 2), (7, 1, 3)), ((8, 1), (9, 0)),
            ((6, 7, 0), (5, 7, 1)), ((6, 8), (5, 9)),
            ((3, 5, 7), (4, 8)), ((4, 9), (3, 6, 7))]}
        assert rel_pairs(mins) == displayed


def test_criterion_2_consistency_verdict_triple():
    with timer("criterion 2 (consistency verdicts)", 5):
        Q = load("threefold_four_sheaves.json").quiver()
        W = superpotential(Q)
        assert len(W) == 6
        assert consistency(Q, W, bound=2).consistent

        Q = load("threefold_three_sheaves.json").quiver()
        rep = consistency(Q, superpotential(Q), bound=2)
        assert not rep.consistent
        # quick reject on the arrow labeled x4^2
        assert 4 in rep.quick_reject_arrows
        assert Q.arrows[4].label == (0, 0, 0, 2)
        # a bucket witness at the endpoints and divisor of the a6 a3 path
        assert any((i, j, div) == (0, 0, (1, 0, 0, 2))
                   for i, j, div, _, _ in rep.witnesses)

        Q = load("threefold_five_sheaves.json").quiver()
        W = superpotential(Q)
        assert len(W) == 8
        rels = relations(Q, W)
        # ten deduplicated generators; the seven in the source display are
        # among them (the display drops three, see the project ledger)
        assert len(rels) == 10
        displayed = {frozenset(p) for p in [
            ((0, 4), (2, 5)), ((0, 3, 6), (1, 3, 5)), ((1, 4), (2, 6)),
            ((5, 9), (7, 10)), ((5, 8, 11), (6, 8, 10)),
            ((6, 9), (7, 11)), ((3, 7), (4, 8))]}
        assert displayed <= rel_pairs(rels)
        assert consistency(Q, W, bound=2).consistent


def test_criterion_3_perfect_matchings(quiver_four_sheaves):
    with timer("criterion 3 (perfect matchings)", 2):
        Q = quiver_four_sheaves
        pi = PiMap(Q)
        for rho in range(4):
            m = extremal_matching(Q, rho, pi=pi)
            assert all(v in (0, 1) for v in m.values)
        assert extremal_matching(Q, 0, pi=pi).support == {0, 5, 8}
        ms = perfect_matchings(Q, pi=pi)
        extremal = {m.extremal_ray: m for m in ms if m.extremal_ray is not None}
        for a in Q.arrows:
            assert a.label == tuple(
                extremal[r].values[a.idx] for r in range(Q.d))
        assert not dimer_matching_audit(superpotential(Q), ms)


def test_criterion_4_weight_zero_slice(quiver_four_sheaves, quiver_conifold,
                                       mckay_z6_group):
    with timer("criterion 4 (weight-zero slice)", 10):
        for Q in (quiver_four_sheaves, quiver_conifold):
            assert weight_zero_check(Q).matches
        X, coll = mckay_toric_data(mckay_z6_group)
        assert weight_zero_check(build_quiver(X, coll)).matches


def test_criterion_5_mckay_resolution(mckay_z6_group, mckay_z6_complex):
    with timer("criterion 5 (quotient singularity resolution)", 60):
        C = mckay_z6_complex
        assert C.counts() == (6, 18, 18, 6)
        t = C.tau()
        assert all(t[t[c.id]] == c.id for c in C.cells)
        assert not C.sign_failures(C.explicit_signs)
        mckay_sign_crosscheck(mckay_z6_group)
        res = build_resolution(C, signs=C.explicit_signs)
        assert verify_square_zero(res)
        # all divisor vectors up to (5,5,5): a superset of the required
        # (2,2,2) box covering all 216 low classes, for every vertex pair
        rep = verify_exactness(res, 5)
        assert rep.exact
        assert rep.pieces_checked == 216 * 36


def test_criterion_6_dimer_resolution(quiver_four_sheaves):
    with timer("criterion 6 (dimer resolution)", 120):
        Q = quiver_four_sheaves
        C = general_complex(Q, superpotential(Q))
        assert C.counts() == (4, 10, 10, 4)
        res = build_resolution(C)
        assert verify_square_zero(res)
        assert verify_minimality(res).minimal
        rep = verify_exactness(res, 2, check_products=True)
        assert rep.exact


def test_criterion_7_tiling_reconstruction(quiver_four_sheaves, quiver_five_sheaves):
    with timer("criterion 7 (tiling reconstruction)", 5):
        doc = load("threefold_four_sheaves.json")
        Q = quiver_four_sheaves
        proj = projection_maps(Q.X, m_basis=doc.options["m_basis"])
        den = proj.den
        assert [[F(x, den) for x in row] for row in proj.fprime] == [
            [F(5, 9), F(1, 6), F(-4, 9), F(-5, 18)],
            [F(1, 9), F(1, 3), F(1, 9), F(-5, 9)]]
        tiling = dimer_reconstruct(Q, superpotential(Q), proj=proj,
                                   lifts=doc.options["lifts"])
        assert [tuple(F(x, den) for x in p) for p in tiling.vertices[1:]] == [
            (F(5, 9), F(1, 9)), (F(13, 18), F(4, 9)), (F(5, 18), F(5, 9))]
        rep = verify_tiling(tiling)
        assert rep.valid
        # V - E + F = 4 - 10 + 6 = 0 on the torus
        assert rep.euler == 0

        Q = quiver_five_sheaves
        doc = load("threefold_five_sheaves.json")
        proj = projection_maps(Q.X, m_basis=doc.options["m_basis"])
        rep = verify_tiling(dimer_reconstruct(Q, superpotential(Q), proj=proj))
        assert not rep.valid
        assert rep.crossings


def test_criterion_8_fourfold_chain(fourfold_pipeline):
    Q, W, rels, build_seconds = fourfold_pipeline
    print(f"fourfold quiver, W and relations built in {build_seconds:.2f}s "
          f"(cap 60s)")
    assert build_seconds < 60
    with timer("criterion 8 (fourfold chain, excluding quiver build)", 600):
        t0 = time.perf_counter()
        assert len(Q.arrows) == 26
        assert len(W) == 36
        assert len(rels) == 36
        assert consistency(Q, W, bound=1).consistent
        C = general_complex(Q, W, rels=rels)
        assert C.counts() == (8, 26, 36, 26, 8)
        t = C.tau()

        def rel_cell(pair):
            want = frozenset(pair)
            hits = [c for c in C.by_dim[2]
                    if c.payload[0] == "relation"
                    and frozenset(c.payload[1].pair) == want]
            assert len(hits) == 1
            return hits[0]

        # the relation a14 a4 - a9 a2 is dual to a23 a21 a18 - a25 a19
        c1 = rel_cell(((3, 13), (1, 8)))
        c2 = rel_cell(((17, 20, 22), (18, 24)))
        assert t[c1.id] == c2.id
        # the dual 3-cell of a23 has exactly seven 2-cell facets
        eta23 = next(c for c in C.by_dim[3]
                     if c.payload == ("dual_arrow", 22))
        facets = {inc.facet for inc in C.facet_incidences(eta23.id)}
        assert len(facets) == 7
        assert C.solve_incidence().feasible
        rep = sign_infeasibility(Q, W, rels, 22)
        assert not rep.two_colorable
        assert len(rep.odd_cycle) == 7
        res = build_resolution(C)
        assert verify_square_zero(res)
        exact = verify_exactness(res, 1, check_products=True)
        assert exact.exact
        elapsed = time.perf_counter() - t0
    print(f"criterion 8 total including quiver build: "
          f"{build_seconds + elapsed:.2f}s (cap 600s)")
    assert build_seconds + elapsed < 600


def test_criterion_9_property_suites(quiver_four_sheaves, quiver_five_sheaves,
                                     quiver_conifold, quiver_trivial_a3,
                                     mckay_z6_complex, fourfold_pipeline):
    with timer("criterion 9 (property suites)", 300):
        # divisor additivity of every facet incidence on all complexes
        complexes = [mckay_z6_complex,
                     mckay_complex(AbelianGroupData.cyclic(2, (1, 1))),
                     general_complex(quiver_four_sheaves,
                                     superpotential(quiver_four_sheaves))]
        Q4, W4, rels4, _ = fourfold_pipeline
        complexes.append(general_complex(Q4, W4, rels=rels4))
        for C in complexes:
            assert check_divisor_additivity(C) > 0
        # every derivative relation lies in the parallel-path ideal: its
        # two paths share tail, head and divisor
        small = [(Q, relations(Q, superpotential(Q)))
                 for Q in (quiver_four_sheaves, quiver_five_sheaves, quiver_conifold,
                           quiver_trivial_a3)]
        for Q, rels in small + [(Q4, rels4)]:
            for r in rels:
                pa, pb = r.pair
                assert Q.path_div(pa) == Q.path_div(pb)
                assert Q.arrows[pa[0]].tail == Q.arrows[pb[0]].tail
                assert Q.arrows[pa[-1]].head == Q.arrows[pb[-1]].head
        # randomized rewriting preserves path-class data
        assert check_rewrite_steps(quiver_four_sheaves, steps=10000) >= 10000
        # polyhedral duality and Hilbert basis oracles
        check_double_dualization(50)
        check_hilbert_basis_brute_force(12)


def test_fourfold_complex_golden(fourfold_pipeline):
    """The fourfold's facet incidences and the sign parity of every arrow
    equal the committed golden.  Only n = 4 complexes embed relations in
    the cyclic words of W, so the CLI goldens of the smaller fixtures do
    not cover that scan."""
    Q, W, rels, _ = fourfold_pipeline
    C = general_complex(Q, W, rels=rels)
    incidences = sorted((i.parent, i.facet, i.left, i.right)
                        for i in C.incidences)
    parity = []
    for arrow in range(len(Q.arrows)):
        rep = sign_infeasibility(Q, W, rels, arrow)
        parity.append((rep.n_terms, rep.edges, rep.odd_cycle))
    golden = os.path.join(os.path.dirname(__file__), "golden",
                          "fourfold_complex.json")
    with open(golden) as fh:
        want = json.load(fh)
    got = json.loads(json.dumps({"incidences": incidences,
                                 "sign_parity": parity}))
    assert got == want
