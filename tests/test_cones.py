import itertools
import random

from toricell.cones import (
    RationalCone,
    dual_cone_rays,
    extremal_rays,
    hilbert_basis,
)
from toricell.intlinalg import primitive, vsub


def random_pointed_cones(count, seed=20240818, max_dim=5):
    """Full-dimensional pointed cones with small integer generators."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, max_dim)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim, dim + 3))]
        cone = RationalCone(gens, dim)
        if cone.dim == dim and cone.is_pointed and cone.rays:
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
    assert extremal_rays(gens) == [(0, 1), (1, 0)]


def _brute_hilbert(cone, box):
    pts = [p for p in itertools.product(*(range(b + 1) for b in box))
           if any(p) and cone.contains(p)]
    basis = []
    for p in pts:
        reducible = False
        for q in pts:
            if q != p and all(x <= y for x, y in zip(q, p)):
                r = vsub(p, q)
                if not any(r) or cone.contains(r) and _in_semigroup(r, pts):
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
        cone = RationalCone(gens, dim)
        if cone.dim != dim or not cone.is_pointed or not cone.rays:
            continue
        box = tuple(5 for _ in range(dim))
        pts = [p for p in itertools.product(*(range(b + 1) for b in box))
               if any(p) and cone.contains(p)]
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
    cone = RationalCone(gens, 3)
    hb = sorted(hilbert_basis(cone))
    assert hb == sorted(gens)


def test_hilbert_basis_singular_quadrant():
    # the cone of the A_1 singularity: (1,0), (1,2)
    cone = RationalCone([(1, 0), (1, 2)], 2)
    assert sorted(hilbert_basis(cone)) == [(1, 0), (1, 1), (1, 2)]
