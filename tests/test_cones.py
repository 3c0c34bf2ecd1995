import itertools
import json
import math
import os
import random

import pytest

from toricell import cones
from toricell.cones import (
    ConeError,
    FiberContext,
    RationalCone,
    dual_cone_rays,
    fiber_generators,
    hilbert_basis,
)
from toricell.intlinalg import (
    dot,
    mat_vec,
    primitive,
    rank,
    vadd,
    vsub,
)
from toricell.variety import (
    AbelianGroupData,
    Collection,
    GorensteinToricVariety,
    mckay_toric_data,
)

from conftest import load


def random_pointed_cones(count, seed=20240818, max_dim=5):
    """Full-dimensional pointed cones with small integer generators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, max_dim)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 3))]
        if rank(gens) != dim:
            continue
        cone = RationalCone(gens)
        if cone.is_pointed:
            out.append((gens, cone))
    return out


def check_double_dualization(count=50):
    for gens, cone in random_pointed_cones(count):
        back = dual_cone_rays(dual_cone_rays(gens))
        assert sorted(primitive(r) for r in back) == cone.rays
    return count


def test_double_dualization_random_cones():
    check_double_dualization(50)


def test_dual_cone_rays_orthant():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert sorted(dual_cone_rays(gens)) == sorted(gens)


def test_extremal_rays_drop_interior_generators():
    gens = [(1, 0), (0, 1), (1, 1), (2, 3)]
    assert RationalCone(gens).rays == [(0, 1), (1, 0)]


def cone_contains(cone, v):
    """Real membership of the integer vector v in the cone, through its
    facets."""
    return all(dot(f, v) >= 0 for f in cone.facets)


def _brute_hilbert(cone, box):
    pts = [p for p in itertools.product(*(range(b + 1) for b in box))
           if any(p) and cone_contains(cone, p)]
    basis = []
    for p in pts:
        reducible = False
        for q in pts:
            if q != p and all(x <= y for x, y in zip(q, p)):
                r = vsub(p, q)
                if not any(r) or (cone_contains(cone, r)
                                  and _in_semigroup(r, pts)):
                    reducible = True
                    break
        if reducible:
            continue
        basis.append(p)
    return sorted(basis)


def _in_semigroup(v, pts):
    if not any(v):
        return True
    return v in pts or any(
        all(x <= y for x, y in zip(q, v)) and _in_semigroup(vsub(v, q), pts)
        for q in pts)


def check_hilbert_basis_brute_force(count=12):
    rng = random.Random(20240819)
    done = 0
    while done < count:
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 2))]
        if rank(gens) != dim:
            continue
        cone = RationalCone(gens)
        if not cone.is_pointed:
            continue
        box = tuple(5 for _ in range(dim))
        pts = [p for p in itertools.product(*(range(b + 1) for b in box))
               if any(p) and cone_contains(cone, p)]
        if not pts or len(pts) > 200:
            continue
        # only sound when the Hilbert basis fits well inside the box
        if any(any(2 * r[k] > box[k] for k in range(dim)) for r in cone.rays):
            continue
        hb = sorted(hilbert_basis(cone))
        assert hb == _brute_hilbert(cone, box)
        done += 1
    return done


def test_hilbert_basis_brute_force():
    check_hilbert_basis_brute_force(12)


def test_hilbert_basis_quadric_cone():
    # cone over a square: four rays, five Hilbert basis elements
    gens = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    cone = RationalCone(gens)
    hb = sorted(hilbert_basis(cone))
    assert hb == sorted(gens)


def test_hilbert_basis_singular_quadrant():
    # the cone of the A_1 singularity: (1,0), (1,2)
    cone = RationalCone([(1, 0), (1, 2)])
    assert sorted(hilbert_basis(cone)) == [(1, 0), (1, 1), (1, 2)]


# ---------------------------------------------------------------------------
# box oracle: a zonotope-box Hilbert basis of S0 and the expanding-box
# fiber generators that the single bounded enumeration replaced


def _box_s0_hilbert(B):
    """Hilbert basis of S0 = N^d ∩ im(B) by a zonotope box.

    C = {t : B t >= 0} is full-dimensional and pointed, and t |-> B t
    maps C ∩ Z^n isomorphically onto S0.  Every Hilbert basis element of
    C ∩ Z^n lies in the zonotope spanned by the primitive rays of C, so
    the box around it holds them all; they are the nonzero points of the
    box that no other one lies below in C."""
    rays = dual_cone_rays([tuple(row) for row in B])

    def member(t):
        return any(t) and min(mat_vec(B, t)) >= 0

    box = [range(sum(min(0, r[j]) for r in rays),
                 sum(max(0, r[j]) for r in rays) + 1)
           for j in range(len(B[0]))]
    candidates = [t for t in itertools.product(*box) if member(t)]
    return sorted(mat_vec(B, t) for t in candidates
                  if not any(member(vsub(t, w)) for w in candidates if w != t))


def _expanding_fiber_generators(ctx, s0, c):
    """Fiber generators from boxes grown by the largest S0 entries until two
    consecutive boxes give the same minimal points (a heuristic stop)."""
    d = len(c)
    hmax = tuple(max(h[j] for h in s0) for j in range(d))
    splus = tuple(map(sum, zip(*s0)))
    v0 = tuple(c)
    while min(v0) < 0:
        v0 = vadd(v0, splus)

    def minimal_upto(bound):
        r = tuple(-x for x in c) + tuple(x - y for x, y in zip(c, bound))
        points = [vadd(c, mat_vec(ctx.B, t))
                  for t in cones._polytope_lattice_points(ctx.box_levels, r)]
        return sorted({v for v in points
                       if all(any(x < y for x, y in zip(v, h)) for h in s0)})

    bound = vadd(v0, hmax)
    found = minimal_upto(bound)
    while True:
        bound = vadd(bound, hmax)
        bigger = minimal_upto(bound)
        if bigger == found:
            return found
        found = bigger


def _variety_and_classes(doc):
    """(X, the distinct classes E_j - E_i, i != j) of an input document."""
    if doc.kind == "toric":
        X = GorensteinToricVariety(doc.rays)
        coll = Collection(X, doc.collection_reps)
    else:
        X, coll = mckay_toric_data(doc.group)
    classes = {coll.difference(i, j)
               for i, j in itertools.permutations(range(len(coll)), 2)}
    return X, sorted(classes)


SMALL_FIXTURES = ["conifold", "mckay_z2_11", "mckay_z6_123",
                  "threefold_five_sheaves", "threefold_four_sheaves",
                  "threefold_three_sheaves", "trivial_a3"]


def small_cyclic_groups(max_order):
    """Faithful cyclic subgroups of SL(3) without quasireflections, one per
    sorted weight triple."""
    out = []
    for r in range(2, max_order + 1):
        for w in itertools.combinations_with_replacement(range(r), 3):
            G = AbelianGroupData.cyclic(r, w)
            if sum(w) % r == 0 and math.gcd(r, *w) == 1 and G.is_small():
                out.append(G)
    return out


def test_fibers_match_box_oracle():
    """S0 and every fiber equal the box oracle on the small fixtures and on
    the cyclic subgroups of SL(3) of order <= 8."""
    varieties = [_variety_and_classes(load(name + ".json"))
                 for name in SMALL_FIXTURES]
    groups = small_cyclic_groups(8)
    assert len(groups) == 39
    for G in groups:
        X, coll = mckay_toric_data(G)
        varieties.append((X, sorted(
            {coll.difference(0, j) for j in range(1, len(coll))})))
    for X, classes in varieties:
        ctx = X.fiber_context
        s0 = _box_s0_hilbert(X.B)
        assert ctx.s0_hilbert == s0
        for c in classes:
            assert fiber_generators(ctx, c) == \
                _expanding_fiber_generators(ctx, s0, c)


GOLDEN_FIBERS = os.path.join(os.path.dirname(__file__), "golden", "fibers.json")
with open(GOLDEN_FIBERS) as fh:
    FIBERS = json.load(fh)


@pytest.mark.parametrize("fixture", sorted(FIBERS))
def test_fibers_golden(fixture):
    """S0 Hilbert basis and hom sections of every distinct class, as the
    zonotope-box and expanding-box code computed them."""
    want = FIBERS[fixture]
    X, classes = _variety_and_classes(load(fixture + ".json"))
    assert [list(v) for v in X.section_semigroup_hilbert_basis()] == \
        want["s0_hilbert"]
    assert [[list(c), [list(v) for v in X.hom_sections(c)]]
            for c in classes] == want["fibers"]


def test_point_cap_raises(monkeypatch):
    """_BOX_LIMIT caps the points of the S0 box and of every fiber box."""
    monkeypatch.setattr(cones, "_BOX_LIMIT", 50)
    with pytest.raises(ConeError, match="_BOX_LIMIT = 50"):
        FiberContext([[1, 0], [-1, 50]])
    ctx = FiberContext([[1, 0], [0, 1], [1, 1]])
    assert fiber_generators(ctx, (0, 0, -3)) == [
        (0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0)]
    with pytest.raises(ConeError, match="_BOX_LIMIT = 50"):
        fiber_generators(ctx, (0, 0, -40))
