import os

import pytest

from toricell.errors import InputError
from toricell.matchings import (
    PiMap,
    extremal_matching,
    perfect_matchings,
    simple_cycles,
    weight_zero_check,
)
from toricell.intlinalg import is_zero, leq, vsub
from toricell.superpotential import superpotential
from toricell.variety import mckay_toric_data
from toricell.quiver import QuiverOfSections, build_quiver

from conftest import INPUTS, load


def dimer_matching_audit(W, matchings):
    """The dimer-style faults of a list of perfect matchings, empty when
    (a) all values lie in {0,1} and (b) every matching meets every term
    of W in exactly one arrow: (matching index, arrow id, value) for a
    value outside {0,1}, (matching index, term, support arrows in term)
    for a term met other than once."""
    faults = []
    for k, m in enumerate(matchings):
        faults += [(k, a, v) for a, v in enumerate(m.values) if v not in (0, 1)]
        for term in W.terms:
            hits = [a for a in term if m.values[a] > 0]
            if len(hits) != 1:
                faults.append((k, term, hits))
    return faults


def test_pi_rank(quiver_four_sheaves):
    pi = PiMap(quiver_four_sheaves)
    # n + r = 3 + 3 for four vertices
    assert pi.rank == 6
    assert pi.ambient == 8


def test_extremal_matching_values_are_label_multiplicities(quiver_four_sheaves):
    Q = quiver_four_sheaves
    for rho in range(Q.d):
        m = extremal_matching(Q, rho)
        assert m.values == tuple(a.label[rho] for a in Q.arrows)
        assert m.extremal_ray is not None
    with pytest.raises(InputError, match="ray index out of range"):
        extremal_matching(Q, Q.d)


def test_perfect_matchings_count_and_extremals(quiver_four_sheaves):
    Q = quiver_four_sheaves
    ms = perfect_matchings(Q)
    assert len(ms) == 8
    extremal = {m.extremal_ray: m for m in ms if m.extremal_ray is not None}
    assert sorted(extremal) == [0, 1, 2, 3]
    # the matching of the first ray is supported on a1, a6, a9
    assert extremal[0].support == {0, 5, 8}


def test_labels_recovered_from_matchings(quiver_four_sheaves):
    Q = quiver_four_sheaves
    ms = perfect_matchings(Q)
    extremal = {m.extremal_ray: m for m in ms if m.extremal_ray is not None}
    for a in Q.arrows:
        assert a.label == tuple(extremal[r].values[a.idx] for r in range(Q.d))


def test_dimer_audit(quiver_four_sheaves):
    Q = quiver_four_sheaves
    W = superpotential(Q)
    assert not dimer_matching_audit(W, perfect_matchings(Q))


def test_simple_cycles_trivial_quiver(quiver_trivial_a3):
    cycles = simple_cycles(quiver_trivial_a3)
    assert sorted(cycles) == [(0,), (1,), (2,)]


def test_weight_zero_slice(quiver_four_sheaves, quiver_conifold):
    for Q in (quiver_four_sheaves, quiver_conifold):
        rep = weight_zero_check(Q)
        assert rep.matches and not rep.missing and not rep.off_slice
        assert cycle_generators(Q) == rep.semigroup_basis


def test_weight_zero_conifold_generators(quiver_conifold):
    rep = weight_zero_check(quiver_conifold)
    assert cycle_generators(quiver_conifold) == rep.semigroup_basis == [
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]


def test_weight_zero_mckay(mckay_z6_group):
    X, coll = mckay_toric_data(mckay_z6_group)
    Q = build_quiver(X, coll)
    rep = weight_zero_check(Q)
    assert rep.matches


def test_matchings_conifold(quiver_conifold):
    ms = perfect_matchings(quiver_conifold)
    assert len(ms) == 4
    assert all(m.extremal_ray is not None for m in ms)
    assert not dimer_matching_audit(superpotential(quiver_conifold), ms)


def _simple_cycles_recursive(Q):
    """Reference: the recursive depth-first search simple_cycles replaced."""
    out = []
    for root in range(Q.n_vertices):
        path = []

        def dfs(v, visited):
            for a in Q.out[v]:
                if a.head == root:
                    out.append(tuple(path + [a.idx]))
                elif a.head > root and a.head not in visited:
                    path.append(a.idx)
                    dfs(a.head, visited | {a.head})
                    path.pop()

        dfs(root, frozenset((root,)))
    return out


def _minimal_generators_recursive(divisors):
    """Reference: the recursive semigroup membership it replaced."""
    gens = sorted(set(divisors))
    memo = {}

    def in_semigroup(v):
        if is_zero(v):
            return True
        if v not in memo:
            memo[v] = False
            memo[v] = any(not is_zero(g) and leq(g, v)
                          and in_semigroup(vsub(v, g)) for g in gens)
        return memo[v]

    return [d for d in gens
            if not any(not is_zero(g) and g != d and leq(g, d)
                       and not is_zero(vsub(d, g)) and in_semigroup(vsub(d, g))
                       for g in gens)]


def cycle_generators(Q):
    """Oracle: the minimal generators of the semigroup of simple-cycle
    divisors, from the recursive membership search."""
    return _minimal_generators_recursive(
        [Q.path_div(c) for c in simple_cycles(Q)])


def check_weight_zero(Q):
    """weight_zero_check against the oracle: the verdict is whether the
    minimal generators are the Hilbert basis, and missing and off_slice
    are read off the cycle divisors through the canonical classes."""
    rep = weight_zero_check(Q)
    divs = {Q.path_div(c) for c in simple_cycles(Q)}
    zero = Q.X.divisor_class((0,) * Q.d)
    assert rep.semigroup_basis == sorted(
        tuple(v) for v in Q.X.section_semigroup_hilbert_basis())
    assert rep.matches == (cycle_generators(Q) == rep.semigroup_basis)
    assert rep.missing == [v for v in rep.semigroup_basis if v not in divs]
    assert rep.off_slice == sorted(
        g for g in divs if Q.X.divisor_class(g) != zero)
    return rep


@pytest.mark.parametrize("name", sorted(os.listdir(INPUTS)))
def test_weight_zero_walks_match_recursion(name):
    Q = load(name).quiver()
    cycles = simple_cycles(Q)
    assert cycles == _simple_cycles_recursive(Q)
    assert check_weight_zero(Q).matches


def test_weight_zero_negative_controls():
    """On the variety of each of three fixtures: drop an arrow, bump a
    label by one ray, add an arrow back along another.  Each control
    agrees with the oracle, and together they cover both verdicts, a
    nonempty missing and a nonempty off_slice.  (On Z/6(1,2,3) the
    dropped arrow leaves every Hilbert basis element on a cycle, and the
    reversed one closes a 2-cycle of class 0, so both still match.)"""
    reports = []
    for name in ("conifold.json", "threefold_four_sheaves.json",
                 "mckay_z6_123.json"):
        Q = load(name).quiver()
        arrows = [(a.tail, a.head, a.label) for a in Q.arrows]
        t, h, label = arrows[0]
        for control in (arrows[1:],
                        [(t, h, (label[0] + 1,) + label[1:])] + arrows[1:],
                        arrows + [(h, t, label)]):
            reports.append(check_weight_zero(
                QuiverOfSections(Q.n_vertices, control, X=Q.X)))
    assert {rep.matches for rep in reports} == {True, False}
    assert any(rep.missing for rep in reports)
    assert any(rep.off_slice for rep in reports)


def test_long_cycles_do_not_recurse():
    n = 1500
    Q = QuiverOfSections(n, [(i, (i + 1) % n, (1,)) for i in range(n)])
    assert simple_cycles(Q) == [tuple(range(n))]
