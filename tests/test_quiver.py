import pytest

from toricell.quiver import QuiverError, build_quiver, quiver_from_data
from toricell.variety import Collection, GorensteinToricVariety


def labels(Q):
    return [(a.tail, a.head, a.label) for a in Q.arrows]


def test_quiver_arrows_fixed_order(quiver_four_sheaves):
    Q = quiver_four_sheaves
    assert Q.n_vertices == 4
    assert len(Q.arrows) == 10
    assert labels(Q) == [
        (0, 1, (1, 0, 0, 0)), (0, 1, (0, 0, 1, 0)), (0, 2, (0, 0, 0, 1)),
        (1, 2, (0, 1, 0, 0)), (1, 3, (0, 0, 0, 1)), (2, 3, (1, 0, 0, 0)),
        (2, 3, (0, 0, 1, 0)), (3, 0, (0, 0, 0, 1)), (3, 0, (1, 1, 0, 0)),
        (3, 0, (0, 1, 1, 0))]
    assert Q.is_strongly_connected()


def test_arrow_order_must_be_permutation():
    X = GorensteinToricVariety([(1, 0, 1), (0, 1, 1), (-1, 1, 1), (0, -1, 1)])
    coll = Collection(X, [(0, 0, 0, 0), (1, 0, 0, 0)])
    with pytest.raises(QuiverError):
        build_quiver(X, coll, arrow_order=[(0, 1, (1, 0, 0, 0))])


def test_trivial_collection_gives_loops(quiver_trivial_a3):
    Q = quiver_trivial_a3
    assert Q.n_vertices == 1
    assert sorted(a.label for a in Q.arrows) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert all(a.tail == a.head == 0 for a in Q.arrows)


def test_path_div_and_pretty(quiver_four_sheaves):
    Q = quiver_four_sheaves
    # a8 a7 a4 a1 is an anticanonical cycle (ids 0, 3, 6, 7)
    p = (0, 3, 6, 7)
    assert Q.path_div(p) == (1, 1, 1, 1)
    assert Q.pretty_path(p) == "a8a7a4a1"
    assert Q.pretty_path(()) == "e"


def test_enumerate_paths_buckets(quiver_four_sheaves):
    Q = quiver_four_sheaves
    # two parallel paths 0 -> 3 with divisor x1 x4
    paths = Q.enumerate_paths(0, 3, (1, 0, 0, 1))
    assert sorted(Q.pretty_path(p) for p in paths) == ["a5a1", "a6a3"]
    assert Q.enumerate_paths(0, 3, (0, 0, 0, 0)) == []


def test_path_exists_matches_enumeration(quiver_four_sheaves):
    Q = quiver_four_sheaves
    for i in range(4):
        for j in range(4):
            for div in [(1, 0, 0, 0), (0, 1, 0, 1), (1, 1, 1, 1)]:
                assert Q.path_exists(i, j, div) == bool(
                    Q.enumerate_paths(i, j, div))


def test_preferred_lifts_follow_tree_arrows(quiver_four_sheaves):
    Q = quiver_four_sheaves
    lifts = Q.preferred_lifts()
    assert lifts[0] == (0, 0, 0, 0)
    assert len(lifts) == 4
    # each lift difference along some arrow is the label up to the period
    # lattice; for the tree arrows it is the label on the nose
    assert lifts[1] == (1, 0, 0, 0)  # along a1


def test_quiver_from_data_validation():
    with pytest.raises(QuiverError):
        quiver_from_data(2, [(0, 1, (0, 0))])  # zero label
    with pytest.raises(QuiverError):
        quiver_from_data(2, [(0, 2, (1, 0))])  # endpoint out of range
    with pytest.raises(QuiverError):
        quiver_from_data(2, [(0, 0, (1, 0))])  # loop off the one-vertex case


def test_to_dot_mentions_all_arrows(quiver_four_sheaves):
    dot = quiver_four_sheaves.to_dot()
    assert dot.count("->") == 10
    assert "x1x2" in dot


def test_conifold_quiver(quiver_conifold):
    Q = quiver_conifold
    assert labels(Q) == [
        (0, 1, (1, 0, 0, 0)), (0, 1, (0, 1, 0, 0)),
        (1, 0, (0, 0, 1, 0)), (1, 0, (0, 0, 0, 1))]


def recursive_paths_from(Q, i, budget):
    """Reference: depth-first recursion, each path before its extensions."""
    out = []

    def dfs(v, path, remaining):
        out.append((v, path))
        for a in Q.out[v]:
            if all(x <= r for x, r in zip(a.label, remaining)):
                dfs(a.head, path + (a.idx,),
                    tuple(r - x for x, r in zip(a.label, remaining)))

    dfs(i, (), tuple(budget))
    return out


def test_walk_order_matches_recursion(quiver_four_sheaves, quiver_five_sheaves,
                                      quiver_trivial_a3):
    for Q in (quiver_four_sheaves, quiver_five_sheaves, quiver_trivial_a3):
        budget = tuple(2 * x for x in Q.ones)
        for i in range(Q.n_vertices):
            want = recursive_paths_from(Q, i, budget)
            assert Q.paths_from(i, budget) == want
            for j in range(Q.n_vertices):
                for div in [Q.ones, budget]:
                    assert Q.enumerate_paths(i, j, div) == [
                        p for h, p in want
                        if h == j and Q.path_div(p) == div]


def test_long_paths_do_not_recurse():
    """A 1,200-arrow path is deeper than Python's default recursion limit."""
    Q = quiver_from_data(2, [(0, 1, (1, 0)), (1, 0, (0, 1))])
    found = Q.paths_from(0, (600, 600))
    assert len(found) == 1201
    assert found[-1] == (0, (0, 1) * 600)
    assert Q.reachable(0, (600, 600)) == {0}
    assert Q.reachable(1, (599, 600)) == {0}
    assert Q.reachable(1, (600, 599)) == set()
    assert not Q.path_exists(0, 1, (600, 600))
    assert Q.enumerate_paths(0, 0, (600, 600)) == [(0, 1) * 600]
