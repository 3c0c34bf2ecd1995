import math
import random
from fractions import Fraction

import pytest

from toricell.errors import ConstructionError, InputError
from toricell.intlinalg import vadd
from toricell.superpotential import superpotential
from toricell.tiling import (
    _crossings,
    _segments_conflict,
    dimer_reconstruct,
    projection_maps,
    verify_tiling,
)
from toricell.variety import GorensteinToricVariety

from conftest import load

F = Fraction
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def rational(points, den):
    """Integer points on the grid over den as tuples of Fractions."""
    return [tuple(F(x, den) for x in p) for p in points]


def test_projection_matrix_exact(quiver_four_sheaves):
    proj = projection_maps(quiver_four_sheaves.X, m_basis=IDENTITY3)
    assert rational(proj.fprime, proj.den) == [
        (F(5, 9), F(1, 6), F(-4, 9), F(-5, 18)),
        (F(1, 9), F(1, 3), F(1, 9), F(-5, 9))]
    assert proj.den > 0


def test_projection_needs_threefold():
    X = GorensteinToricVariety([(1, 0), (0, 1)])
    with pytest.raises(ConstructionError, match="needs a threefold"):
        projection_maps(X)


def test_projection_rejects_bad_basis(quiver_four_sheaves):
    X = quiver_four_sheaves.X
    with pytest.raises(InputError, match="not unimodular"):
        projection_maps(X, m_basis=[[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InputError, match="not unimodular"):
        # singular: bad input, not a failed elimination
        projection_maps(X, m_basis=[[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(InputError, match="Gorenstein covector"):
        # unimodular but the wrong last vector
        projection_maps(X, m_basis=[[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_vertex_positions(quiver_four_sheaves):
    doc = load("threefold_four_sheaves.json")
    Q = quiver_four_sheaves
    proj = projection_maps(Q.X, m_basis=doc.options["m_basis"])
    tiling = dimer_reconstruct(Q, superpotential(Q), proj=proj,
                               lifts=doc.options["lifts"])
    assert rational(tiling.vertices, proj.den) == [
        (0, 0), (F(5, 9), F(1, 9)), (F(13, 18), F(4, 9)), (F(5, 18), F(5, 9))]


def test_valid_tiling(quiver_four_sheaves):
    doc = load("threefold_four_sheaves.json")
    Q = quiver_four_sheaves
    proj = projection_maps(Q.X, m_basis=doc.options["m_basis"])
    tiling = dimer_reconstruct(Q, superpotential(Q), proj=proj,
                               lifts=doc.options["lifts"])
    rep = verify_tiling(tiling)
    assert rep.valid
    assert rep.euler == 0
    assert F(rep.total_area, 2 * proj.den ** 2) == 1
    # three positively and three negatively oriented faces
    assert sorted(f.area > 0 for f in tiling.faces) == [False] * 3 + [True] * 3


def test_valid_tiling_default_lifts(quiver_four_sheaves):
    Q = quiver_four_sheaves
    tiling = dimer_reconstruct(Q, superpotential(Q))
    assert verify_tiling(tiling).valid


def test_crossing_detection(quiver_five_sheaves):
    doc = load("threefold_five_sheaves.json")
    Q = quiver_five_sheaves
    proj = projection_maps(Q.X, m_basis=doc.options["m_basis"])
    tiling = dimer_reconstruct(Q, superpotential(Q), proj=proj)
    rep = verify_tiling(tiling)
    assert not rep.valid
    assert rep.crossings
    # every conflict involves one of the two parallel edges with the same
    # vertical label
    assert all({i, j} & {4, 7} for i, j, _ in rep.crossings)
    assert F(rep.total_area, 2 * proj.den ** 2) != 1


def test_trivial_quiver_tiling(quiver_trivial_a3):
    Q = quiver_trivial_a3
    tiling = dimer_reconstruct(Q, superpotential(Q))
    assert len(tiling.vertices) == 1
    assert len(tiling.edges) == 3
    assert len(tiling.faces) == 2
    rep = verify_tiling(tiling)
    assert rep.valid
    assert rep.euler == 0


def test_bad_lifts_rejected(quiver_four_sheaves):
    Q = quiver_four_sheaves
    with pytest.raises(InputError, match="not compatible with a"):
        dimer_reconstruct(Q, superpotential(Q), lifts=[
            (0, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, -1)])


def fraction_crossings(edges, den):
    """The crossing scan in Fractions: every pair of edges, read off the
    grid over den and each moved by Z^2 to start in the unit square, over
    all nine translates of the second, with no box prefilter.  The oracle
    for _crossings."""
    reduced = []
    for idx, start, vec in edges:
        s = tuple(x - math.floor(x) for x in rational([start], den)[0])
        reduced.append((idx, s, vadd(s, rational([vec], den)[0])))
    translates = [(Fraction(tx), Fraction(ty))
                  for tx in (-1, 0, 1) for ty in (-1, 0, 1)]
    found = set()
    for k1, (i1, a1, b1) in enumerate(reduced):
        for i2, a2, b2 in reduced[k1:]:
            for t in translates:
                if i1 == i2 and t == (0, 0):
                    continue
                if _segments_conflict(a1, b1, vadd(a2, t), vadd(b2, t)):
                    found.add((i1, i2, (int(t[0]), int(t[1]))))
    return sorted(found)


def fixture_tiling(name):
    """The tiling that `toricell reconstruct` builds for a fixture."""
    doc = load(name)
    Q = doc.quiver()
    proj = projection_maps(Q.X, m_basis=doc.options.get("m_basis"))
    return dimer_reconstruct(Q, superpotential(Q), proj=proj,
                             lifts=doc.options.get("lifts"))


@pytest.mark.parametrize("name, n_crossings", [
    ("threefold_four_sheaves.json", 0), ("threefold_five_sheaves.json", 7),
    ("conifold.json", 0), ("trivial_a3.json", 0)])
def test_crossings_match_fraction_scan_on_fixtures(name, n_crossings):
    tiling = fixture_tiling(name)
    edges, den = tiling.edges, tiling.proj.den
    assert _crossings(edges, den) == fraction_crossings(edges, den)
    assert len(_crossings(edges, den)) == n_crossings


def random_rational(rng, lo, hi):
    q = rng.randint(1, 12)
    return Fraction(rng.randint(lo * q, hi * q), q)


def random_edges(rng):
    """Edges with rational endpoints of denominator up to 12 and vectors
    long enough to wrap the torus, plus edges forced onto earlier ones:
    collinear overlaps, T-junctions (axis-parallel ones among them, whose
    bounding boxes only touch) and shared endpoints, each moved by a
    random element of Z^2; returned on the grid over their common
    denominator, with it."""
    segs = []
    n_free = rng.randint(2, 4)
    while len(segs) < n_free:
        start = (random_rational(rng, -2, 2), random_rational(rng, -2, 2))
        if rng.random() < 0.3:
            # axis-parallel, so a later T-junction boxes only touch it
            vec = rng.choice([(random_rational(rng, -1, 1), Fraction(0)),
                              (Fraction(0), random_rational(rng, -1, 1))])
        else:
            vec = (random_rational(rng, -1, 1), random_rational(rng, -1, 1))
        if vec != (0, 0):
            segs.append((start, vec))
    for _ in range(rng.randint(2, 5)):
        start, vec = rng.choice(segs)
        s = Fraction(rng.randint(1, 11), 12)
        inner = (start[0] + s * vec[0], start[1] + s * vec[1])
        kind = rng.choice(["overlap", "tee", "tee_axis", "shared"])
        if kind == "overlap":
            r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), 6)
            new = (inner, (r * vec[0], r * vec[1]))
        elif kind == "tee":
            new = (inner, (random_rational(rng, -1, 1),
                           random_rational(rng, -1, 1)))
        elif kind == "tee_axis":
            # perpendicular to an axis-parallel edge, else vertical
            d = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), 12)
            new = (inner, (d, Fraction(0)) if vec[0] == 0
                   else (Fraction(0), d))
        else:
            end = (start[0] + vec[0], start[1] + vec[1])
            new = (end, (random_rational(rng, -1, 1),
                         random_rational(rng, -1, 1)))
        shift = (rng.randint(-1, 1), rng.randint(-1, 1))
        if new[1] != (0, 0):
            segs.append((vadd(new[0], shift), new[1]))
    return on_grid([(k, start, vec) for k, (start, vec) in enumerate(segs)])


def on_grid(edges):
    """Rational edges as integer points over their common denominator,
    and that denominator."""
    den = math.lcm(*(x.denominator for _, start, vec in edges
                     for x in start + vec))
    return [(k, tuple(int(x * den) for x in start),
             tuple(int(x * den) for x in vec))
            for k, start, vec in edges], den


def test_crossings_match_fraction_scan_on_random_edges():
    rng = random.Random(20261018)
    translates = set()
    for _ in range(40):
        edges, den = random_edges(rng)
        got = _crossings(edges, den)
        assert got == fraction_crossings(edges, den), edges
        translates |= {t for _, _, t in got}
    # the cases reach conflicts under every translate of the block
    assert len(translates) == 9
