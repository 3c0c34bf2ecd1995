import importlib
import importlib.util
import itertools
import os
import random

import pytest

from toricell.errors import InputError
from toricell.inputs import parse_document
from toricell.quiver import QuiverOfSections
from toricell.intlinalg import Packing, dot, leq, vsub
from toricell.superpotential import (
    MAX_CLASSES,
    FRelation,
    consistency,
    cyclic_canonical,
    relations,
    superpotential,
)

from closure_oracle import closure_consistency
from conftest import load
from path_oracle import (
    class_leasts,
    minimal_relations,
    oracle_consistency,
    rewrite_neighbors,
)

ROOT = os.path.join(os.path.dirname(__file__), "..")
# the package exports a function of the same name as this module
sp = importlib.import_module("toricell.superpotential")


def pair_set(rels):
    return {frozenset(r.pair) for r in rels}


# ---------------------------------------------------------------------------
# brute-force oracles


def derivative_by_path_walk(Q, i, q):
    """The cyclic derivative of W by the path q from vertex i, by walking
    the quiver: every path from head(q) back to i with divisor
    (1..1) - div(q)."""
    div_q = Q.path_div(q)
    if not leq(div_q, Q.ones):
        return []
    start = Q.arrows[q[-1]].head if q else i
    return Q.enumerate_paths(start, i, vsub(Q.ones, div_q))


def walked_derivatives(Q):
    """{(i, q): the nonempty derivative of W by q} for every path q from
    every vertex i with divisor <= (1..1), the trivial path included."""
    out = {}
    for i in range(Q.n_vertices):
        for _head, q in Q.paths_from(i, Q.ones):
            D = derivative_by_path_walk(Q, i, q)
            assert len(set(D)) == len(D)
            if D:
                out[i, q] = set(D)
    return out


def relations_by_path_walk(Q):
    """The F-term relations from the walked derivatives: q qualifies when
    its derivative has exactly two summands that share neither their first
    nor their last arrow."""
    found = set()
    for D in walked_derivatives(Q).values():
        D = sorted(D)
        if len(D) == 2 and all(D) and D[0][0] != D[1][0] \
                and D[0][-1] != D[1][-1]:
            found.add(FRelation(*D))
    return sorted(found, key=lambda r: (len(r.p_plus), r.pair))


def _occurrences(path, sub):
    k = len(sub)
    if k == 0 or k > len(path):
        return []
    return [idx for idx in range(len(path) - k + 1) if path[idx:idx + k] == sub]


def oracle_rewrite_neighbors(path, rules):
    """Every rule side scanned at every position, in both directions."""
    out = []
    for u, v in rules:
        for idx in _occurrences(path, u):
            out.append(path[:idx] + v + path[idx + len(u):])
        for idx in _occurrences(path, v):
            out.append(path[:idx] + u + path[idx + len(v):])
    return out


def closure_class_leasts(Q, rules, bound):
    """{(tail, head, div): the sorted least paths of the bucket's classes}
    for every bucket of nonempty paths, from the congruence closure."""
    pk = Packing(tuple(bound * x for x in Q.ones), 0)
    out = {}
    for i in range(Q.n_vertices):
        for (head, div), paths in sp._path_classes(Q, rules, i, pk).items():
            if div:
                out[i, head, pk.unpack(div)] = sorted(paths)
    return out


def check_against_oracle(Q, W, bound, rels):
    """The least path of every class of every bucket, and the report,
    equal the path-level oracle's; returns the oracle's report.  The
    report is computed with the module's relations, which a test may
    replace."""
    rules = [r.pair for r in rels]
    leasts = class_leasts(Q, rules, bound)
    assert closure_class_leasts(Q, rules, bound) == leasts
    want = oracle_consistency(Q, W, bound, rels, leasts)
    assert consistency(Q, W, bound=bound) == want
    return want


def _generate_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", os.path.join(ROOT, "perfbench", "generate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cyclic_canonical_rotations():
    assert cyclic_canonical((3, 1, 2)) == (1, 2, 3)
    assert cyclic_canonical((2, 1, 2)) == (1, 2, 2)
    assert cyclic_canonical(()) == ()


def test_superpotential_terms(quiver_four_sheaves):
    W = superpotential(quiver_four_sheaves)
    want = {cyclic_canonical(t) for t in [
        (0, 3, 6, 7),   # a8 a7 a4 a1
        (1, 3, 5, 7),   # a8 a6 a4 a2
        (1, 4, 8),      # a9 a5 a2
        (2, 6, 8),      # a9 a7 a3
        (2, 5, 9),      # a10 a6 a3
        (0, 4, 9),      # a10 a5 a1
    ]}
    assert set(W.terms) == want


ALL_FIXTURES = sorted(name for name in os.listdir(os.path.join(ROOT, "inputs"))
                      if name.endswith(".json"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_derivative_index_equals_path_walk(name, request):
    """The derivative index of W holds, for every path q with divisor <=
    (1..1) from every vertex, trivial q included, exactly the paths the
    quiver walk finds, and no other key; the relations read off it equal
    those of the walk."""
    if name == "fourfold.json":
        Q, W, rels, _ = request.getfixturevalue("fourfold_pipeline")
    else:
        Q = load(name).quiver()
        W = superpotential(Q)
        rels = relations(Q, W)
    assert W.derivatives == walked_derivatives(Q)
    assert rels == relations_by_path_walk(Q)


def test_relations_match_displayed_ideal(quiver_four_sheaves):
    rels = relations(quiver_four_sheaves, superpotential(quiver_four_sheaves))
    displayed = {
        frozenset(p) for p in [
            (((2, 5)), ((0, 4))), (((2, 6)), ((1, 4))),
            ((0, 3, 6), (1, 3, 5)), ((8, 2), (7, 0, 3)),
            ((9, 2), (7, 1, 3)), ((8, 1), (9, 0)),
            ((6, 7, 0), (5, 7, 1)), ((6, 8), (5, 9)),
            ((3, 5, 7), (4, 8)), ((4, 9), (3, 6, 7)),
        ]}
    assert pair_set(rels) == displayed


def test_minimal_relations_equal_derivative_relations(quiver_four_sheaves):
    rels = relations(quiver_four_sheaves, superpotential(quiver_four_sheaves))
    mins = minimal_relations(quiver_four_sheaves)
    assert pair_set(mins) == pair_set(rels)


def test_consistency_verdict_positive(quiver_four_sheaves):
    Q = quiver_four_sheaves
    rep = consistency(Q, superpotential(Q), bound=2)
    assert rep.consistent
    assert rep.n_relations == 10
    assert not rep.witnesses


def test_inconsistent_collection(quiver_three_sheaves):
    Q = quiver_three_sheaves
    W = superpotential(Q)
    assert {Q.pretty_path(t) for t in W.terms} == {
        "a9a3", "a7a4a1", "a6a4a2"}
    rep = consistency(Q, W, bound=2)
    assert not rep.consistent
    # the x4^2 label on a5 fails the divisibility requirement
    assert set(rep.quick_reject_arrows) == {4, 7, 9}
    # the bucket of a6a3 and a5a1 is not identified
    assert any((i, j, div) == (0, 0, (1, 0, 0, 2))
               for i, j, div, _, _ in rep.witnesses)


def test_larger_consistent_collection(quiver_five_sheaves):
    Q = quiver_five_sheaves
    W = superpotential(Q)
    assert len(W) == 8
    rels = relations(Q, W)
    assert len(rels) == 10
    displayed = {
        frozenset(p) for p in [
            ((0, 4), (2, 5)), ((0, 3, 6), (1, 3, 5)), ((1, 4), (2, 6)),
            ((5, 9), (7, 10)), ((5, 8, 11), (6, 8, 10)),
            ((6, 9), (7, 11)), ((3, 7), (4, 8)),
        ]}
    assert displayed <= pair_set(rels)
    rep = consistency(Q, W, bound=2)
    assert rep.consistent


def test_conifold_consistency(quiver_conifold):
    Q = quiver_conifold
    W = superpotential(Q)
    assert len(W) == 2
    rep = consistency(Q, W, bound=2)
    assert rep.consistent


def check_rewrite_steps(Q, steps=10000, seed=20240820):
    """Random single-step rewrites preserve head, tail and divisor."""
    W = superpotential(Q)
    rules = [r.pair for r in relations(Q, W)]
    rng = random.Random(seed)
    pool = []
    for i in range(Q.n_vertices):
        for _head, p in Q.paths_from(i, tuple(2 * x for x in Q.ones)):
            if p:
                pool.append(p)
    done = 0
    while done < steps:
        p = pool[rng.randrange(len(pool))]
        nbrs = rewrite_neighbors(p, rules)
        for q in nbrs:
            assert Q.path_div(q) == Q.path_div(p)
            assert Q.arrows[q[0]].tail == Q.arrows[p[0]].tail
            assert Q.arrows[q[-1]].head == Q.arrows[p[-1]].head
            done += 1
        if not nbrs:
            done += 1
    return done


def test_rewrites_preserve_path_class(quiver_four_sheaves):
    assert check_rewrite_steps(quiver_four_sheaves, steps=10000) >= 10000


def test_rewrite_neighbors_match_scan(quiver_four_sheaves):
    Q = quiver_four_sheaves
    rules = [r.pair for r in relations(Q, superpotential(Q))]
    for i in range(Q.n_vertices):
        for _head, p in Q.paths_from(i, tuple(2 * x for x in Q.ones)):
            assert sorted(rewrite_neighbors(p, rules)) == sorted(
                oracle_rewrite_neighbors(p, rules))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_consistency_classes_match_oracle_threefolds(seed):
    """Relabelled threefold fixtures at bound 3: the least path of every
    class and the report agree with the path-level oracle."""
    entries, _ = _generate_module().documents(
        "threefold_consistency", seed, root=ROOT)
    for _label, raw, _settings in entries:
        Q = parse_document(raw).quiver()
        W = superpotential(Q)
        check_against_oracle(Q, W, 3, relations(Q, W))


def test_consistency_classes_match_oracle_mckay():
    Q = load("mckay_z6_123.json").quiver()
    W = superpotential(Q)
    assert check_against_oracle(Q, W, 2, relations(Q, W)).consistent


FIXTURES = [name for name in ALL_FIXTURES if name != "fourfold.json"]


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("name", FIXTURES)
def test_consistency_matches_oracle_on_fixtures(name, bound):
    Q = load(name).quiver()
    W = superpotential(Q)
    check_against_oracle(Q, W, bound, relations(Q, W))


def test_fourfold_consistency_matches_oracle(fourfold_pipeline):
    Q, W, rels, _ = fourfold_pipeline
    assert check_against_oracle(Q, W, 2, rels).consistent


# ---------------------------------------------------------------------------
# the kernel against the congruence closure it replaced (closure_oracle)


def assert_closure_reports(Q, W, bounds):
    for bound in bounds:
        assert consistency(Q, W, bound) == closure_consistency(Q, W, bound)


@pytest.mark.parametrize("name", FIXTURES)
def test_consistency_matches_closure_kernel_on_fixtures(name):
    Q = load(name).quiver()
    assert_closure_reports(Q, superpotential(Q), range(4))


def test_fourfold_consistency_matches_closure_kernel(fourfold_pipeline):
    Q, W, _, _ = fourfold_pipeline
    assert_closure_reports(Q, W, range(3))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_consistency_matches_closure_kernel_relabelled(seed):
    entries, _ = _generate_module().documents(
        "threefold_consistency", seed, root=ROOT)
    for _label, raw, _settings in entries:
        Q = parse_document(raw).quiver()
        assert_closure_reports(Q, superpotential(Q), range(4))


def test_three_sheaves_bound_4_matches_closure_kernel(quiver_three_sheaves):
    Q = quiver_three_sheaves
    W = superpotential(Q)
    rep = consistency(Q, W, bound=4)
    assert len(rep.witnesses) == 292
    assert rep == closure_consistency(Q, W, bound=4)


def test_kernel_at_bound_zero(quiver_four_sheaves):
    """At bound 0 every arrow and relation side lies above the budget, so
    each tail has its trivial path alone and nothing can fail."""
    Q = quiver_four_sheaves
    W = superpotential(Q)
    rules = [r.pair for r in relations(Q, W)]
    pk = Packing((0,) * Q.d, 0)
    for i in range(Q.n_vertices):
        assert sp._path_classes(Q, rules, i, pk) == {(i, 0): [()]}
    rep = consistency(Q, W, bound=0)
    assert rep.consistent and rep == closure_consistency(Q, W, bound=0)


def test_kernel_one_vertex_with_loops(quiver_trivial_a3):
    """trivial_a3 is C[x, y, z]: one vertex, a loop per coordinate and
    the commutation relations.  Each monomial is one class, whose least
    path takes the loops in increasing arrow id."""
    Q = quiver_trivial_a3
    W = superpotential(Q)
    rules = [r.pair for r in relations(Q, W)]
    assert Q.n_vertices == 1 and len(rules) == 3
    for bound in range(4):
        pk = Packing((bound,) * Q.d, 0)
        want = {(0, pk.pack(div)): [
                    sum(((a.idx,) * dot(a.label, div) for a in Q.arrows), ())]
                for div in itertools.product(range(bound + 1), repeat=Q.d)}
        assert sp._path_classes(Q, rules, 0, pk) == want
    assert_closure_reports(Q, W, range(4))


def test_kernel_drops_arrow_and_side_above_budget():
    """At bound 2 a field holds up to 4 in 4 bits, so the label (0, 16) of
    arrow 0 would pack as (1, 0), and the label (0, 17) of arrow 6 and the
    side (0, 1) of the second rule as (1, 1).  The kernel drops them, so
    its classes are the path oracle's: arrows 4 and 5 are one class, and
    the path 2 and the class of 4.1 stay apart."""
    Q = QuiverOfSections(2, [
        (0, 1, (0, 16)), (1, 0, (0, 1)), (0, 0, (1, 1)), (1, 1, (2, 0)),
        (0, 1, (1, 0)), (0, 1, (1, 0)), (0, 0, (0, 17))])
    rules = [((4,), (5,)), ((0, 1), (6,))]
    leasts = closure_class_leasts(Q, rules, 2)
    assert leasts == class_leasts(Q, rules, 2)
    assert leasts[0, 1, (1, 0)] == [(4,)]
    assert leasts[0, 0, (1, 1)] == [(2,), (4, 1)]


def test_dropped_relation_gives_same_witnesses(quiver_four_sheaves,
                                               monkeypatch):
    """Negative control: without one relation, four sheaves is
    inconsistent, and every class and witness agree with the oracle's."""
    Q = quiver_four_sheaves
    W = superpotential(Q)
    rels = relations(Q, W)
    for k in range(len(rels)):
        kept = rels[:k] + rels[k + 1:]
        monkeypatch.setattr(sp, "relations", lambda Q, W: kept)
        want = check_against_oracle(Q, W, 2, kept)
        assert want.witnesses
        assert not want.consistent and want.n_relations == len(kept)


def test_consistency_rejects_negative_bound(quiver_four_sheaves):
    Q = quiver_four_sheaves
    with pytest.raises(InputError, match="must be nonnegative, got -1"):
        consistency(Q, superpotential(Q), bound=-1)


def test_consistency_class_limit(quiver_four_sheaves):
    """A bound whose vertex pairs times divisors pass MAX_CLASSES is
    refused before any work; the fourfold at bound 3 stays below it."""
    assert 8 ** 2 * 4 ** 6 <= MAX_CLASSES
    Q = quiver_four_sheaves
    b = 0
    while 16 * (b + 1) ** 4 <= MAX_CLASSES:
        b += 1
    with pytest.raises(InputError, match="path classes"):
        consistency(Q, superpotential(Q), bound=b)
