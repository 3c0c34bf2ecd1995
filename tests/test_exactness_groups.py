"""The grouped exactness engine against a per-piece oracle.

`verify_exactness` reduces each group of pieces of P (x)_A A_0 with the
same cells and augmentation once.  The oracle is the engine as it was
before the grouping: every piece at one vertex pair per orbit of
`_automorphisms` is built by `piece_oracle.one_sided_bases`, which finds
its basis by `path_oracle.reachable`, a recursion over the arrows where
the engine reads class keys, and reduced on its own.
"""

import itertools
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricell.complexes import Cell, ToricCellComplex, general_complex, mckay_complex
from toricell.errors import ConstructionError
from toricell.inputs import parse_document, quiver_document
from toricell.intlinalg import Packing, leq, vsub
from toricell.quiver import mckay_quiver
from toricell.resolution import (
    CellularResolution,
    ExactnessReport,
    _automorphisms,
    _gf2_cokernel,
    _packed_facets,
    _packing,
    _rank_failures,
    build_resolution,
    verify_exactness,
    verify_square_zero,
)
from toricell.superpotential import superpotential
from toricell.variety import AbelianGroupData

from conftest import INPUTS, load
from piece_oracle import one_sided_bases
from test_quiver import SMALL_GROUPS
from test_resolution import (
    FIXTURE_SYMMETRY,
    QUOTIENTS,
    augmentation_flip,
    fixture_resolution,
    gauged,
    invariant_flip,
    missing_top_cell,
    random_delta,
    single_flip,
    small_complexes,
    solver_resolution,
    spy,
    without_top_cells,
)
from test_translations import Z63, Z64, check_class_fact


def per_piece_exactness(res, bound):
    """The report of `verify_exactness` at a bound, each piece
    built and reduced on its own: sign failures in the box first, else
    every piece of P (x)_A A_0 at one pair per orbit, its failures copied
    to the orbit."""
    Q, n, C = res.Q, res.Q.n_vertices, res.complex
    bound = (bound,) * Q.d if isinstance(bound, int) else bound
    products = {}
    for cid, _why in res.sign_failures:
        c = C.cells[cid]
        if leq(c.divisor, bound):
            products.setdefault((c.head, c.tail, c.divisor), set()).add(c.dim)
    failures = [(s, t, d, [(f"d{k - 1}.d{k}", None, None, None)
                           for k in sorted(ks)])
                for (s, t, d), ks in products.items()]
    if not products:
        pk = _packing(C, bound)
        ones = _packed_facets(res, pk, one_sided=True)
        offsets = [[delta for delta, _ in f] for f in ones]
        auts, covered = _automorphisms(res), set()
        for s, t in itertools.product(range(n), repeat=2):
            if (s, t) in covered:
                continue
            orbit = {(g[s], g[t]) for g in auts}
            covered |= orbit
            pieces = one_sided_bases(C, pk, s, t)
            for d, bases in pieces.items():
                aug = int(s == t and d == 0)
                if _gf2_cokernel(pk, offsets, bases) != aug and (
                        fail := _rank_failures(pk, ones, bases, aug)):
                    failures.extend((u, v, pk.unpack(d), list(fail))
                                    for u, v in orbit)
    failures.sort()
    return ExactnessReport(
        exact=not failures, bound=bound,
        pieces_checked=n * n * math.prod(b + 1 for b in bound),
        failures=failures)


def check_bounds(res, bounds):
    for bound in bounds:
        assert verify_exactness(res, bound) == per_piece_exactness(res, bound), \
            bound


def on_lattice(res):
    """The condition under which every piece is named by label-lattice
    points, each cell's divisor carried from its tail to its head: a
    complex refuses a cell that breaks it."""
    Q = res.Q
    return all(Q.path_exists(c.tail, c.head, c.divisor)
               for c in res.complex.cells)


@pytest.mark.parametrize("name", sorted(FIXTURE_SYMMETRY))
def test_fixtures_match_per_piece_oracle(name, request):
    """Every fixture with a complex, closed-form and solver signs on the
    quotients, at bounds 0-2 (the fourfold 0-1); every one is named by
    lattice points."""
    cases = [fixture_resolution(name, request)]
    if name in QUOTIENTS:
        cases.append(solver_resolution(name))
    for res in cases:
        assert on_lattice(res)
        check_bounds(res, range(2 if name == "fourfold.json" else 3))


@pytest.mark.parametrize("n", sorted(SMALL_GROUPS))
def test_small_quotients_match_per_piece_oracle(n):
    for C in small_complexes(n):
        check_bounds(build_resolution(C, signs=C.explicit_signs), range(3))


@pytest.mark.parametrize("group", [Z64, Z63], ids=["z64", "z63"])
def test_large_quotients_match_per_piece_oracle(group):
    C = mckay_complex(group)
    check_bounds(build_resolution(C, signs=C.explicit_signs), [2])


def test_large_bounds_match_per_piece_oracle():
    """mckay_z2_11 at bound 352, the largest MAX_PIECES admits: about
    2.3 s on a 2-CPU machine, half of it the per-piece oracle's fill of
    `path_oracle.reachable` over the box."""
    C = mckay_complex(load("mckay_z2_11.json").group)
    check_bounds(build_resolution(C, signs=C.explicit_signs), [66, 352])


def gauged_invariant_flip(C):
    return gauged(invariant_flip(C), random_delta(C, 0, False))


CONTROLS = {"missing_top_cell": missing_top_cell,
            "without_top_cells": without_top_cells,
            "single_flip": single_flip, "invariant_flip": invariant_flip,
            "gauged_invariant_flip": gauged_invariant_flip,
            "augmentation_flip": augmentation_flip}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_controls_match_per_piece_oracle(name, mckay_z6_complex):
    """Inexact or sign-broken resolutions of Z/6(1,2,3) at bounds 0-3."""
    check_bounds(CONTROLS[name](mckay_z6_complex), range(4))


@pytest.mark.parametrize("name", ["threefold_four_sheaves.json",
                                  "conifold.json"])
@pytest.mark.parametrize("strip", [(), ("rays", "collection")],
                         ids=["full", "bare"])
def test_dimer_document_is_named_by_classes(name, strip):
    """A dimer_quiver document that `quiver` writes, with or without its
    rays and collection, is certified as a quiver of sections, so the
    engine names its pieces by class keys: the reports are those of the
    quiver built from the collection and of the per-piece oracle."""
    Q = load(name).quiver()
    doc = quiver_document(Q)
    for field in strip:
        del doc[field]
    P = parse_document(doc).quiver()
    assert P.X.cl.moduli == Q.X.cl.moduli and P.arrows == Q.arrows
    for bound in range(3):
        reports = []
        for R in (Q, P):
            res = build_resolution(general_complex(R, superpotential(R)))
            reports.append(verify_exactness(res, bound))
            assert reports[-1] == per_piece_exactness(res, bound)
        assert reports[0] == reports[1] and reports[0].exact


def test_weight_zero_quotient_matches_per_piece_oracle():
    """Z/3(1,1,1,0) has a loop at every vertex, labelled x4."""
    G = AbelianGroupData.cyclic(3, (1, 1, 1, 0))
    C = mckay_complex(G)
    assert all(any(a.tail == a.head == v for a in C.Q.arrows)
               for v in range(3))
    check_bounds(build_resolution(C, signs=C.explicit_signs), range(4))


def drop_coordinate(res, t, x):
    """res on the subcomplex without the cells at tail t whose divisor
    has coordinate x, nor any cell above one of them, renumbered: d.d = 0
    still holds, and no cell left at t has it in its divisor."""
    C = res.complex
    gone = {c.id for c in C.cells if c.tail == t and c.divisor[x]}
    while more := {i.parent for i in C.incidences
                   if i.facet in gone and i.parent not in gone}:
        gone |= more
    keep = {c.id: k for k, c in enumerate(c for c in C.cells
                                          if c.id not in gone)}
    cells = [c._replace(id=keep[c.id]) for c in C.cells if c.id in keep]
    signs = {i._replace(parent=keep[i.parent], facet=keep[i.facet]): sign
             for i, sign in res.signs.items() if i.parent in keep}
    return CellularResolution(ToricCellComplex(C.Q, C.n, cells, list(signs)),
                              signs)


@pytest.mark.parametrize("name", ["mckay_z6_123.json",
                                  "threefold_four_sheaves.json"])
def test_coordinate_without_label_at_a_tail(name, request):
    """A hand-made complex in which x3 is in no divisor at tail 0: a
    nonzero d can truncate to m = 0 there, without augmentation, next to
    the augmented d = 0.  Z/6(1,2,3) finds its names in a box, the four
    sheaves in the box grouped by class, also below a vector bound with a
    zero entry."""
    res = drop_coordinate(fixture_resolution(name, request), 0, 2)
    assert verify_square_zero(res) and on_lattice(res)
    assert not any(c.divisor[2] for c in res.complex.cells if c.tail == 0)
    check_bounds(res, [0, 1, 2, (2, 0, 3, 1)[:res.Q.d]])
    assert not verify_exactness(res, 2).exact


def test_one_reduction_per_name(monkeypatch):
    """The benchmark's mckay_exactness: Z/6(1,2,3) at bound 5 and
    Z/7(1,2,4) at bound 3 have one orbit of tails and the eight names
    m <= (1, 1, 1) each, so 16 GF(2) reductions in place of the 216 and
    64 pieces of the per-piece engine, and the box is not grouped by
    class."""
    reduced, tables = [], []
    spy(monkeypatch, "_gf2_cokernel", reduced)
    spy(monkeypatch, "_box_classes", tables)
    for order, weights, bound in [(6, (1, 2, 3), 5), (7, (1, 2, 4), 3)]:
        C = mckay_complex(AbelianGroupData.cyclic(order, weights))
        assert verify_exactness(build_resolution(C, C.explicit_signs),
                                bound).exact
    assert len(reduced) == 16 and not tables


@pytest.mark.parametrize("name", sorted(os.listdir(INPUTS)) + ["z63"])
def test_paths_carry_their_class_difference(name, request):
    """Every input's quiver at bounds 0-2 (the fourfold 0-1) and
    Z/63(1,2,60) at bound 2; `check_layers` checks the 80 small quotients
    and Z/64(1,1,1,61)."""
    if name == "fourfold.json":
        check_class_fact(request.getfixturevalue("fourfold_pipeline")[0], 1)
    else:
        check_class_fact(mckay_quiver(Z63) if name == "z63"
                         else load(name).quiver(), 2)


def off_lattice(Q):
    """A complex on Z/2(1,1)'s quiver of sections with the 0-cell of vertex
    0 and one 2-cell at (0, 0) of divisor (1, 0), which no path from 0 to 0
    carries."""
    cells = [Cell(id=0, dim=0, head=0, tail=0, divisor=(0, 0),
                  payload=("vertex", 0)),
             Cell(id=1, dim=2, head=0, tail=0, divisor=(1, 0),
                  payload=("off",))]
    return ToricCellComplex(Q, 2, cells, [])


def round_trip(name):
    Q = parse_document(quiver_document(load(name).quiver())).quiver()
    return build_resolution(general_complex(Q, superpotential(Q)))


def test_engine_lattice_decision_is_path_exists(request, mckay_z6_complex):
    """Every complex the engine reads has each cell's divisor carried from
    its tail to its head (`on_lattice`): the fixtures, the inexact
    controls and the dimer_quiver round-trips have it, and a complex with
    a cell whose divisor no path carries is refused when it is made."""
    cases = [fixture_resolution(name, request) for name in FIXTURE_SYMMETRY]
    cases += [missing_top_cell(mckay_z6_complex),
              without_top_cells(mckay_z6_complex),
              drop_coordinate(fixture_resolution(
                  "threefold_four_sheaves.json", request), 0, 2),
              round_trip("threefold_four_sheaves.json"),
              round_trip("conifold.json")]
    assert all(on_lattice(res) for res in cases)
    with pytest.raises(ConstructionError, match="no path carries the "
                       "divisor of off from tail to head"):
        off_lattice(load("mckay_z2_11.json").quiver())


@st.composite
def packed_pairs(draw):
    bound = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5))
    slack = draw(st.integers(0, 3))
    pk = Packing(bound, slack)
    top = 2 * max(bound) + slack
    x, y = (draw(st.lists(st.integers(0, top), min_size=len(bound),
                          max_size=len(bound))) for _ in range(2))
    return pk, x, y


@settings(max_examples=200, deadline=None)
@given(packed_pairs())
def test_packing_meet_is_componentwise_min(case):
    pk, x, y = case
    assert pk.unpack(pk.meet(pk.pack(x), pk.pack(y))) == tuple(map(min, x, y))


def tau_oracle_error(C):
    """The message of the first cell, in cell order, without exactly one
    dual candidate found by scanning every cell, or None."""
    for c in C.cells:
        matches = [d for d in C.cells if d.dim == C.n - c.dim
                   and (d.tail, d.head) == (c.head, c.tail)
                   and d.divisor == vsub(C.Q.ones, c.divisor)]
        if len(matches) != 1:
            return f"{c.describe(C.Q)} has {len(matches)} dual candidates"
    return None


def test_tau_lookup_errors(mckay_z6_complex):
    """tau by lookup raises what the scan over each dimension raised: on
    the hypercube complex without its last cell, and with a copy of the
    last cell added."""
    C = mckay_z6_complex
    assert tau_oracle_error(C) is None and len(C.tau()) == len(C.cells)
    short = missing_top_cell(C).complex
    top = C.cells[-1]
    extra = ToricCellComplex(C.Q, C.n, C.cells + (Cell(
        id=len(C.cells), dim=top.dim, head=top.head, tail=top.tail,
        divisor=top.divisor, payload=("copy",)),), C.incidences)
    for D in (short, extra):
        want = tau_oracle_error(D)
        assert want is not None
        with pytest.raises(ConstructionError) as err:
            D.tau()
        assert str(err.value) == want
