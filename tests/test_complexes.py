import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricell import complexes
from toricell.complexes import (
    ToricCellComplex,
    general_complex,
    hypercube_complex,
    mckay_complex,
    sign_infeasibility,
    solve_gf2,
)
from toricell.errors import ConstructionError, InputError
from toricell.inputs import parse_document
from toricell.intlinalg import mat_mul, smith_normal_form, vadd
from toricell.quiver import (
    QuiverOfSections,
    mckay_quiver,
    orbit_representatives,
)
from toricell.resolution import (
    CellularResolution,
    build_resolution,
    mckay_sign_crosscheck,
)
from toricell.superpotential import relations, superpotential
from toricell.variety import AbelianGroupData

from conftest import load


def check_divisor_additivity(complex_):
    """Every incidence satisfies left + div(facet) + right = div(parent)."""
    n = 0
    for inc in complex_.incidences:
        p = complex_.cells[inc.parent]
        f = complex_.cells[inc.facet]
        assert vadd(vadd(inc.left, f.divisor), inc.right) == p.divisor
        n += 1
    return n


def is_face_poset(complex_):
    """Every two-step route group has exactly two routes."""
    return all(len(routes) == 2
               for routes in complex_.composite_groups().values())


def cellular_homology(complex_, signs):
    """Betti numbers and torsion of the cellular chain complex of Delta
    over Z: the divisor labels forgotten, the incidence signs kept.  Each
    boundary entry sums the signs of the incidences between its two cells.
    None when d o d != 0."""
    n = complex_.n
    cells = complex_.by_dim
    row = {c.id: r for k in cells for r, c in enumerate(cells[k])}
    d = {k: [[0] * len(cells[k]) for _ in cells[k - 1]]
         for k in range(1, n + 1)}
    for inc in complex_.incidences:
        p = complex_.cells[inc.parent]
        d[p.dim][row[inc.facet]][row[p.id]] += signs[inc]
    for k in range(2, n + 1):
        if any(any(r) for r in mat_mul(d[k - 1], d[k])):
            return None
    rank = {0: 0, n + 1: 0}
    torsion = [[] for _ in range(n + 1)]
    for k in range(1, n + 1):
        S = smith_normal_form(d[k]).S
        diagonal = [S[i][i] for i in range(min(len(S), len(S[0])))]
        rank[k] = sum(1 for x in diagonal if x)
        torsion[k - 1] = [x for x in diagonal if x > 1]
    betti = [len(cells[k]) - rank[k] - rank[k + 1] for k in range(n + 1)]
    return betti, torsion


def check_torus_homology(complex_, signs):
    """Delta lies in the real n-torus and has its homology: H_k is free of
    rank C(n, k)."""
    n = complex_.n
    assert cellular_homology(complex_, signs) == (
        [math.comb(n, k) for k in range(n + 1)], [[] for _ in range(n + 1)])


def test_torus_homology_negative_controls(mckay_z6_complex, fourfold_pipeline):
    """A flipped sign breaks d o d = 0 on Z/6(1,2,3), and all signs +1
    do on the fourfold."""
    C = mckay_z6_complex
    signs = dict(C.explicit_signs)
    inc = next(i for i in C.incidences if C.cells[i.parent].dim == 2)
    signs[inc] = -signs[inc]
    assert cellular_homology(C, signs) is None
    Q, W, rels, _ = fourfold_pipeline
    C = general_complex(Q, W, rels=rels)
    assert cellular_homology(C, {i: 1 for i in C.incidences}) is None


def test_mckay_z6_counts_and_duality(mckay_z6_complex):
    C = mckay_z6_complex
    assert C.counts() == (6, 18, 18, 6)
    t = C.tau()
    assert all(t[t[c.id]] == c.id for c in C.cells)
    assert C.tau_antisymmetry_violations() == []
    assert is_face_poset(C)
    assert check_divisor_additivity(C) > 0


def test_mckay_z6_signs(mckay_z6_complex):
    C = mckay_z6_complex
    assert not C.sign_failures(C.explicit_signs)
    sol = C.solve_incidence()
    assert sol.feasible
    assert not C.sign_failures(sol.signs)


def test_solve_incidence_refuses_a_missing_incidence(mckay_z6_complex):
    """Without the last incidence of Z/6(1,2,3)'s hypercube complex, a
    3-cube onto a square, each of the square's four facets leaves a group
    of one route."""
    C = mckay_z6_complex
    assert C.cells[C.incidences[-1].parent].dim == 3
    D = ToricCellComplex(C.Q, C.n, C.cells, C.incidences[:-1])
    assert not is_face_poset(D)
    with pytest.raises(ConstructionError,
                       match="^face poset check failed on 4 flags$"):
        D.solve_incidence()


def test_non_invariant_signs_get_the_full_sweep(mckay_z6_complex):
    """Z/6(1,2,3)'s closed-form signs with one incidence flipped whose
    parent has tail 5, which is not an orbit representative: the signs are
    not constant on the orbits, so every parent is swept, the flipped
    parent is named and build_resolution raises.  The failures, and those
    of signs that are constant on the orbits but fail, are those of the
    complex rebuilt with singleton orbits.  A plain copy of the closed-form
    signs passes."""
    C = mckay_z6_complex
    assert orbit_representatives(C.Q.translations) == [0]
    D = ToricCellComplex(C.Q, C.n, C.cells, C.incidences)
    inc = next(i for i in C.incidences if C.cells[i.parent].tail == 5)
    flipped = dict(C.explicit_signs)
    flipped[inc] = -flipped[inc]
    failures = C.sign_failures(flipped)
    assert inc.parent in {cid for cid, _ in failures}
    assert failures == D.sign_failures(flipped)
    with pytest.raises(ConstructionError):
        build_resolution(C, flipped)
    ones = {i: 1 for i in C.incidences}
    assert C.sign_failures(ones) == D.sign_failures(ones) != []
    assert not C.sign_failures(dict(C.explicit_signs))


def test_solved_signs_are_checked_once(monkeypatch):
    """The solver's signs on the four sheaves' complex are read-only, and
    a resolution on that very object does not check them again; on no
    solve, or on a copy, the check runs, and a flipped copy still raises."""
    Q = load("threefold_four_sheaves.json").quiver()
    C = general_complex(Q, superpotential(Q))
    calls = []
    check = ToricCellComplex.sign_failures
    monkeypatch.setattr(ToricCellComplex, "sign_failures",
                        lambda self, signs: calls.append(signs)
                        or check(self, signs))
    assert C.solved_signs is None
    sol = C.solve_incidence()
    assert C.solved_signs is sol.signs and calls == [sol.signs]
    inc = next(i for i in C.incidences if C.cells[i.parent].dim == 2)
    with pytest.raises(TypeError):
        sol.signs[inc] = -sol.signs[inc]
    assert build_resolution(C, signs=sol.signs).sign_failures == ()
    assert build_resolution(C).sign_failures == ()
    assert len(calls) == 2  # one per solve
    signs = dict(sol.signs)
    assert build_resolution(C, signs=signs).sign_failures == ()
    assert len(calls) == 3
    signs[inc] = -signs[inc]
    with pytest.raises(ConstructionError, match="d.d != 0"):
        build_resolution(C, signs=signs)


def gf2_rank(rows):
    """The rank of int bitsets over GF(2), pivots keyed by the highest
    bit."""
    pivots = {}
    for row in rows:
        while row and (top := row.bit_length() - 1) in pivots:
            row ^= pivots[top]
        if row:
            pivots[top] = row
    return len(pivots)


def incidence_system(C):
    """The masks of the full GF(2) incidence system, bit k for the k-th
    incidence, built as `solve_incidence` builds them with singleton
    orbits: one per group of `composite_groups()` and one per 1-cell."""
    bit = {inc: 1 << k for k, inc in enumerate(C.incidences)}
    rows = []
    for routes in C.composite_groups().values():
        mask = 0
        for inc in (i for route in routes for i in route):
            mask ^= bit[inc]
        rows.append(mask)
    for c in C.by_dim[1]:
        mask = 0
        for inc in C.facet_incidences(c.id):
            mask ^= bit[inc]
        rows.append(mask)
    return rows


@pytest.mark.parametrize("name, n_incidences, gauges", [
    ("conifold.json", 40, 10), ("threefold_four_sheaves.json", 88, 24),
    ("fourfold.json", 440, 96), ("mckay_z6_123.json", 144, 42),
    ("mckay_z2_11.json", 16, 6), ("trivial_a3.json", 24, 7)])
def test_incidence_function_is_unique_up_to_gauge(name, n_incidences,
                                                   gauges, request):
    """The full incidence system has rank #incidences - #cells + #0-cells:
    its solutions are one gauge class, of dimension #cells - #0-cells, the
    gauges that keep the augmentation being constant on the 0-cells of a
    connected complex.  So signs solved for on the orbits of a quotient's
    translations lose nothing: any valid signs are a gauge transform of
    them."""
    if name == "fourfold.json":
        Q, W, rels, _ = request.getfixturevalue("fourfold_pipeline")
        C = general_complex(Q, W, rels=rels)
    elif (doc := load(name)).group is not None:
        C = mckay_complex(doc.group)
    else:
        Q = doc.quiver()
        C = general_complex(Q, superpotential(Q))
    assert len(C.incidences) == n_incidences
    assert len(C.cells) - len(C.by_dim[0]) == gauges
    assert gf2_rank(incidence_system(C)) == n_incidences - gauges


def test_mckay_z2():
    C = mckay_complex(AbelianGroupData.cyclic(2, (1, 1)))
    assert C.counts() == (2, 4, 2)
    assert is_face_poset(C)
    assert C.solve_incidence().feasible


def test_general_complex_dimension_three(quiver_four_sheaves):
    Q = quiver_four_sheaves
    W = superpotential(Q)
    C = general_complex(Q, W)
    assert C.counts() == (4, 10, 10, 4)
    t = C.tau()
    # tau swaps each arrow 1-cell with its dual 2-cell
    for c in C.by_dim[1]:
        d = C.cells[t[c.id]]
        assert d.payload[0] == "dual_arrow" and d.payload[1] == c.payload[1]
    assert C.tau_antisymmetry_violations() == []
    assert is_face_poset(C)
    assert C.solve_incidence().feasible
    assert check_divisor_additivity(C) > 0


def test_relation_count_must_match_arrows(quiver_five_sheaves):
    Q = quiver_five_sheaves
    with pytest.raises(ConstructionError, match="needs one per arrow"):
        general_complex(Q, superpotential(Q))


def test_sign_parity_all_arrows_two_colorable(quiver_four_sheaves):
    Q = quiver_four_sheaves
    W = superpotential(Q)
    rels = relations(Q, W)
    for a in Q.arrows:
        rep = sign_infeasibility(Q, W, rels, a.idx)
        assert rep.two_colorable
        assert rep.odd_cycle is None


def test_fourfold_complex(fourfold_pipeline):
    Q, W, rels, _ = fourfold_pipeline
    C = general_complex(Q, W, rels=rels)
    assert C.counts() == (8, 26, 36, 26, 8)
    assert C.tau_antisymmetry_violations() == []
    assert is_face_poset(C)
    assert C.solve_incidence().feasible
    assert check_divisor_additivity(C) > 0


def test_fourfold_odd_cycle(fourfold_pipeline):
    Q, W, rels, _ = fourfold_pipeline
    rep = sign_infeasibility(Q, W, rels, 22)
    assert not rep.two_colorable
    assert len(rep.odd_cycle) == 7


# ---------------------------------------------------------------------------
# solve_gf2 against the elimination it replaced, which reduces every new
# equation by every earlier row in turn


def solve_gf2_oracle(equations, n_vars):
    rows = []  # (mask, rhs, origin bitmask)
    for k, (mask, rhs, _meta) in enumerate(equations):
        origin = 1 << k
        for pmask, prhs, porigin in rows:
            low = pmask & -pmask
            if mask & low:
                mask ^= pmask
                rhs ^= prhs
                origin ^= porigin
        if mask == 0:
            if rhs == 1:
                metas = [equations[i][2] for i in range(len(equations))
                         if origin >> i & 1]
                return None, metas
            continue
        rows.append((mask, rhs, origin))
    assignment = [0] * n_vars
    for mask, rhs, _ in reversed(rows):
        low = (mask & -mask).bit_length() - 1
        val = rhs
        for j in range(n_vars):
            if j != low and mask >> j & 1:
                val ^= assignment[j]
        assignment[low] = val
    return assignment, None


def check_solve_gf2_against_oracle(monkeypatch):
    """Patch solve_gf2 where complexes calls it, so that every call must
    return exactly what the oracle returns; the returned list collects the
    number of equations of each call."""
    calls = []

    def checked(equations, n_vars):
        got = solve_gf2(equations, n_vars)
        assert got == solve_gf2_oracle(equations, n_vars)
        calls.append(len(equations))
        return got

    monkeypatch.setattr(complexes, "solve_gf2", checked)
    return calls


@st.composite
def gf2_systems(draw):
    """(equations, n_vars, planted): up to 40 equations in up to 12
    variables, metas their indices; with planted the right-hand sides are
    those of a drawn assignment, so the system is consistent, else they
    are drawn, and most systems are inconsistent."""
    n_vars = draw(st.integers(1, 12))
    masks = draw(st.lists(st.integers(0, (1 << n_vars) - 1), max_size=40))
    planted = draw(st.booleans())
    if planted:
        x = draw(st.integers(0, (1 << n_vars) - 1))
        rhs = [(m & x).bit_count() % 2 for m in masks]
    else:
        rhs = draw(st.lists(st.integers(0, 1), min_size=len(masks),
                            max_size=len(masks)))
    equations = [(m, r, i) for i, (m, r) in enumerate(zip(masks, rhs))]
    return equations, n_vars, planted


@settings(max_examples=300, deadline=None)
@given(gf2_systems())
def test_solve_gf2_matches_oracle(case):
    """The same solution or certificate as the oracle; a solution solves
    every equation, and a certificate is a set of equations whose masks
    cancel while their right-hand sides sum to 1."""
    equations, n_vars, planted = case
    assignment, certificate = got = solve_gf2(equations, n_vars)
    assert got == solve_gf2_oracle(equations, n_vars)
    if assignment is None:
        assert not planted
        mask = rhs = 0
        for i in certificate:
            mask ^= equations[i][0]
            rhs ^= equations[i][1]
        assert mask == 0 and rhs == 1
    else:
        x = sum(a << j for j, a in enumerate(assignment))
        assert all((m & x).bit_count() % 2 == r for m, r, _ in equations)


# ---------------------------------------------------------------------------
# one build per quotient: the per-group quiver and complex memos


def count_builds(monkeypatch):
    """Lists that grow by one per QuiverOfSections and per
    ToricCellComplex constructed from now on."""
    built = {QuiverOfSections: [], ToricCellComplex: []}
    for cls, log in built.items():
        def init(self, *args, _init=cls.__init__, _log=log, **kwargs):
            _log.append(self)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return built


@pytest.mark.parametrize("name", ["mckay_z2_11.json", "mckay_z6_123.json"])
def test_quotient_chain_builds_once(name, monkeypatch):
    """doc.quiver(), then mckay_complex, then mckay_sign_crosscheck build
    one quiver and one complex for the group: the complex is built on the
    document's quiver and the cross-check reads that complex."""
    built = count_builds(monkeypatch)
    doc = load(name)
    Q = doc.quiver()
    C = mckay_complex(doc.group)
    assert C.Q is Q
    assert built[QuiverOfSections] == [Q] and built[ToricCellComplex] == [C]
    mckay_sign_crosscheck(doc.group)
    assert doc.quiver() is Q and mckay_complex(doc.group) is C
    assert built[QuiverOfSections] == [Q] and built[ToricCellComplex] == [C]
    assert hypercube_complex(Q) is not C


def test_arrow_order_quotient_gets_its_own_quiver():
    """A quotient document with an arrow_order gets a quiver in that order,
    not the group's shared one, which keeps the default order."""
    raw = {"kind": "cyclic_quotient", "order": 6, "weights": [1, 2, 3]}
    shared = parse_document(raw).quiver()
    default = [[a.tail, a.head, list(a.label)] for a in shared.arrows]
    doc = parse_document(dict(raw, options={"arrow_order": default[::-1]}))
    Q = doc.quiver()
    assert Q is not shared and Q is not doc.quiver()
    assert [[a.tail, a.head, list(a.label)] for a in Q.arrows] == default[::-1]
    assert mckay_quiver(doc.group) is shared
    assert mckay_complex(doc.group).Q is shared


@pytest.mark.parametrize("order, weights, why", [
    (3, (1, 1, 0), "not a subgroup of SL"),
    (4, (2, 2, 0), "does not act faithfully")])
def test_rejected_group_raises_on_every_call(order, weights, why):
    """A refused group is not memoized: every call raises again."""
    doc = parse_document({"kind": "cyclic_quotient", "order": order,
                          "weights": list(weights)})
    for _ in range(2):
        for build in (doc.quiver, lambda: mckay_complex(doc.group),
                      lambda: mckay_sign_crosscheck(doc.group)):
            with pytest.raises(InputError, match=why):
                build()
    assert mckay_quiver.cache_info().currsize == 0
    assert mckay_complex.cache_info().currsize == 0


def test_memos_stay_within_their_size():
    """Past its size, each memo drops the group used longest ago."""
    groups = [AbelianGroupData.cyclic(r, (1, r - 1)) for r in range(2, 14)]
    for memo in (mckay_quiver, mckay_complex):
        assert memo.cache_info().maxsize < len(groups)
    for G in groups:
        mckay_complex(G)
    for memo in (mckay_quiver, mckay_complex):
        info = memo.cache_info()
        assert info.currsize == info.maxsize
        memo(groups[-1])
        memo(groups[0])
        assert memo.cache_info()[:2] == (info.hits + 1, info.misses + 1)


def shared_parts_are_read_only(C):
    """The cells, incidences, cells by dimension, duality, two-step route
    groups and their routes of a complex, the arrows, out-lists, lifts and
    translations of its quiver, and the sign failures of a resolution on
    it, cannot be changed in place."""
    Q = C.Q
    key, routes = next(iter(C.composite_groups().items()))
    res = CellularResolution(C, {i: 1 for i in C.incidences})
    assert res.sign_failures
    for container, index, value in [
            (C.cells, 0, C.cells[0]),
            (C.incidences, 0, C.incidences[0]),
            (C.by_dim, 0, ()),
            (C.by_dim[0], 0, C.cells[0]),
            (Q.translations, 0, Q.translations[0]),
            (Q.translations[0], 0, ()),
            (Q.translations[0][0], 0, 1),
            (Q.translations[0][1], 0, 1),
            (res.sign_failures, 0, None),
            (C.tau(), 0, 5),
            (C.composite_groups(), key, ()),
            (routes, 0, routes[0]),
            (Q.arrows, 0, Q.arrows[0]),
            (Q.out, 0, ()),
            (Q.out[0], 0, Q.out[0][0]),
            (Q.preferred_lifts(), 1, (9, 9, 9))]:
        with pytest.raises(TypeError):
            container[index] = value


def test_shared_complex_is_read_only(mckay_z6_group):
    """The closed-form signs, the cells, incidences, duality and route
    groups of a complex, the arrows, lifts and translations of its quiver,
    and a resolution's sign failures, cannot be changed in place; a
    caller edits a copy.  Neither can an incidence be popped or
    a dimension cleared, which once changed the next caller's complex."""
    C = mckay_complex(mckay_z6_group)
    inc = C.incidences[0]
    with pytest.raises(TypeError):
        C.explicit_signs[inc] = -C.explicit_signs[inc]
    with pytest.raises(AttributeError):
        C.incidences.pop()
    with pytest.raises(AttributeError):
        C.by_dim[3].clear()
    shared_parts_are_read_only(C)
    assert mckay_complex(mckay_z6_group) is C
    assert len(C.incidences) == 144 and C.counts() == (6, 18, 18, 6)
    signs = dict(C.explicit_signs)
    signs[inc] = -signs[inc]
    assert mckay_complex(mckay_z6_group).explicit_signs[inc] == -signs[inc]
    assert load("mckay_z6_123.json").quiver() is C.Q
    Q = load("conifold.json").quiver()
    shared_parts_are_read_only(general_complex(Q, superpotential(Q)))
